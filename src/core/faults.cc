#include "core/faults.hh"

#include <cmath>
#include <limits>
#include <span>
#include <sstream>

#include "stats/hash.hh" // fnv1a / splitmix64 / unitInterval
#include "stats/textio.hh"

namespace netchar
{

namespace
{

/** One fault kind and its spec-syntax name. An alias is accepted
 *  by parse() but never printed or listed. */
template <typename Kind>
struct KindName
{
    Kind kind;
    std::string_view name;
    bool alias = false;
};

/** Simulator fault kinds, in default-plan order. */
constexpr KindName<FaultKind> kFaultKinds[] = {
    {FaultKind::Throw, "throw"},
    {FaultKind::CorruptCounter, "corrupt"},
    {FaultKind::Stall, "stall"},
    {FaultKind::TraceExhaust, "trace"},
    {FaultKind::CorruptCounter, "nan", true},
};

/** Wire fault kinds, in default-plan order. */
constexpr KindName<WireFaultKind> kWireFaultKinds[] = {
    {WireFaultKind::SplitWrite, "split"},
    {WireFaultKind::MergeFrames, "merge"},
    {WireFaultKind::StallWrite, "stall"},
    {WireFaultKind::ResetMidResponse, "reset"},
    {WireFaultKind::TruncateJournal, "journal"},
};

/** The name table of a kind's family. */
std::span<const KindName<FaultKind>>
kindNames(FaultKind)
{
    return kFaultKinds;
}

std::span<const KindName<WireFaultKind>>
kindNames(WireFaultKind)
{
    return kWireFaultKinds;
}

template <typename Kind>
std::string_view
nameOf(Kind kind)
{
    for (const auto &k : kindNames(kind))
        if (k.kind == kind)
            return k.name;
    return "none";
}

/** "throw, corrupt, stall, trace": the family's names, in order. */
template <typename Kind>
std::string
nameList()
{
    std::string out;
    for (const auto &k : kindNames(Kind{}))
        if (!k.alias)
            out += (out.empty() ? "" : ", ") + std::string(k.name);
    return out;
}

[[noreturn]] void
specError(std::string_view what, const std::string &message)
{
    throw std::invalid_argument(std::string(what) + ": " + message);
}

} // namespace

template <typename Kind>
void
FaultSpec<Kind>::read(const std::string &spec, std::string_view what,
                      std::string_view example)
{
    kinds_.clear();
    for (const auto &k : kindNames(Kind{}))
        if (!k.alias)
            kinds_.push_back(k.kind);
    bool have_rate = false;

    std::istringstream fields(spec);
    std::string field;
    while (std::getline(fields, field, ',')) {
        if (field.empty())
            continue;
        const auto eq = field.find('=');
        if (eq == std::string::npos)
            specError(what, "expected key=value, got '" + field +
                                "' (example: " + std::string(example) +
                                ")");
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        if (key == "rate") {
            try {
                std::size_t used = 0;
                rate_ = std::stod(value, &used);
                if (used != value.size())
                    throw std::invalid_argument(value);
            } catch (const std::exception &) {
                specError(what, "rate expects a number in [0,1], got '" +
                                    value + "'");
            }
            if (!(rate_ >= 0.0 && rate_ <= 1.0))
                specError(what,
                          "rate must be in [0,1], got '" + value + "'");
            have_rate = true;
        } else if (key == "kinds") {
            kinds_.clear();
            std::istringstream names(value);
            std::string name;
            while (std::getline(names, name, '+')) {
                const KindName<Kind> *found = nullptr;
                for (const auto &k : kindNames(Kind{}))
                    if (k.name == name)
                        found = &k;
                if (!found)
                    specError(what, "unknown kind '" + name +
                                        "' (valid: " + nameList<Kind>() +
                                        ")");
                kinds_.push_back(found->kind);
            }
            if (kinds_.empty())
                specError(what, "kinds= needs at least one of " +
                                    nameList<Kind>());
        } else if (key == "seed") {
            if (!parseUnsigned(value, seed_))
                specError(what,
                          "seed expects an integer, got '" + value + "'");
        } else {
            specError(what, "unknown key '" + key +
                                "' (valid: rate, kinds, seed)");
        }
    }
    if (!have_rate)
        specError(what, "rate= is required (example: " +
                            std::string(example) + ")");
}

template <typename Kind>
std::string
FaultSpec<Kind>::describe() const
{
    std::ostringstream os;
    os << "rate=" << rate_ << ",kinds=";
    for (std::size_t i = 0; i < kinds_.size(); ++i)
        os << (i > 0 ? "+" : "") << nameOf(kinds_[i]);
    os << ",seed=" << seed_;
    return os.str();
}

template class FaultSpec<FaultKind>;
template class FaultSpec<WireFaultKind>;

std::string_view
faultKindName(FaultKind kind)
{
    return nameOf(kind);
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    plan.read(spec, "chaos spec", "rate=0.1,kinds=throw+stall,seed=7");
    return plan;
}

FaultDecision
FaultPlan::decide(std::string_view benchmark, std::string_view machine,
                  unsigned attempt) const
{
    FaultDecision decision;
    if (!enabled())
        return decision;
    const std::uint64_t h = splitmix64(
        fnv1a(benchmark) ^ splitmix64(fnv1a(machine)) ^
        splitmix64(seed_) ^
        (static_cast<std::uint64_t>(attempt) * 0xD1B54A32D192ED03ULL));
    if (unitInterval(h) >= rate_)
        return decision;

    const std::uint64_t h2 = splitmix64(h);
    decision.kind = kinds_[h2 % kinds_.size()];
    decision.selector = splitmix64(h2);
    switch (decision.selector % 3) {
    case 0:
        decision.badValue = std::numeric_limits<double>::quiet_NaN();
        break;
    case 1:
        decision.badValue = std::numeric_limits<double>::infinity();
        break;
    default:
        decision.badValue = -std::numeric_limits<double>::infinity();
        break;
    }
    // Small enough that any realistic capture overflows it: counter
    // records land once per advance chunk (~dozens per run minimum).
    decision.traceCapacity =
        8 +
        static_cast<std::size_t>(splitmix64(decision.selector) % 25);
    return decision;
}

RunBudgetExceeded::RunBudgetExceeded(double cycles, std::uint64_t budget)
    : std::runtime_error(
          "run budget exceeded: " + std::to_string(cycles) +
          " simulated cycles > budget " + std::to_string(budget) +
          " (watchdog kill)"),
      cycles_(cycles), budget_(budget)
{
}

std::uint64_t
perturbedSeed(std::uint64_t base, std::string_view benchmark,
              unsigned attempt)
{
    if (attempt <= 1)
        return base;
    return splitmix64(base ^ fnv1a(benchmark) ^
                      (static_cast<std::uint64_t>(attempt) *
                       0x9E3779B97F4A7C15ULL));
}

// ---------------------------------------------------------------
// Wire faults
// ---------------------------------------------------------------

WireFaultPlan
WireFaultPlan::parse(const std::string &spec)
{
    WireFaultPlan plan;
    plan.read(spec, "chaos-wire spec",
              "rate=0.25,kinds=split+reset,seed=9");
    return plan;
}

WireFaultDecision
WireFaultPlan::decide(std::uint64_t sequence) const
{
    WireFaultDecision decision;
    if (!enabled())
        return decision;
    const std::uint64_t h = splitmix64(
        splitmix64(seed_ ^ 0xA5A5A5A5DEADBEEFULL) ^
        (sequence * 0xD1B54A32D192ED03ULL));
    if (unitInterval(h) >= rate_)
        return decision;

    const std::uint64_t h2 = splitmix64(h);
    decision.kind = kinds_[h2 % kinds_.size()];
    const std::uint64_t h3 = splitmix64(h2);
    // All magnitudes are hash-chosen and bounded: chaos perturbs
    // delivery, never the response bytes themselves.
    decision.chunkBytes = 1 + static_cast<std::size_t>(h3 % 16);
    decision.stallMicros = 1000 + (h3 % 20) * 1000; // 1..20 ms
    decision.resetAfterBytes = static_cast<std::size_t>(h3 % 64);
    decision.truncateBytes = 1 + (h3 % 48);
    return decision;
}

} // namespace netchar
