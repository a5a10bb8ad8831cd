#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "../mutate.hh"
#include "core/faults.hh"
#include "stats/hash.hh"

using namespace netchar;

TEST(FaultPlanTest, ParseFullSpec)
{
    const auto plan =
        FaultPlan::parse("rate=0.25,kinds=throw+stall,seed=42");
    EXPECT_TRUE(plan.enabled());
    EXPECT_DOUBLE_EQ(plan.rate(), 0.25);
    EXPECT_EQ(plan.seed(), 42u);
    ASSERT_EQ(plan.kinds().size(), 2u);
    EXPECT_EQ(plan.kinds()[0], FaultKind::Throw);
    EXPECT_EQ(plan.kinds()[1], FaultKind::Stall);
}

TEST(FaultPlanTest, ParseDefaultsToAllKindsAndSeedOne)
{
    const auto plan = FaultPlan::parse("rate=0.5");
    EXPECT_EQ(plan.seed(), 1u);
    EXPECT_EQ(plan.kinds().size(), 4u);
}

TEST(FaultPlanTest, NanIsAnAliasForCorrupt)
{
    const auto plan = FaultPlan::parse("rate=1,kinds=nan");
    ASSERT_EQ(plan.kinds().size(), 1u);
    EXPECT_EQ(plan.kinds()[0], FaultKind::CorruptCounter);
}

TEST(FaultPlanTest, ZeroRateDisablesThePlan)
{
    const auto plan = FaultPlan::parse("rate=0");
    EXPECT_FALSE(plan.enabled());
    EXPECT_FALSE(plan.decide("Json", "machine", 1));
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs)
{
    EXPECT_THROW(FaultPlan::parse(""), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("kinds=throw"),
                 std::invalid_argument); // rate= is required
    EXPECT_THROW(FaultPlan::parse("rate=2"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("rate=-0.1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("rate=abc"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("rate=0.1,kinds=explode"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("rate=0.1,seed=xyz"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("rate=0.1,banana=7"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("justtext"), std::invalid_argument);
}

TEST(FaultPlanTest, ParseErrorsAreDescriptive)
{
    try {
        FaultPlan::parse("rate=0.1,kinds=explode");
        FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("explode"),
                  std::string::npos);
    }
}

TEST(FaultPlanTest, DescribeRoundTrips)
{
    const auto plan =
        FaultPlan::parse("rate=0.1,kinds=throw+corrupt,seed=9");
    const auto again = FaultPlan::parse(plan.describe());
    EXPECT_DOUBLE_EQ(again.rate(), plan.rate());
    EXPECT_EQ(again.seed(), plan.seed());
    EXPECT_EQ(again.kinds(), plan.kinds());
}

TEST(FaultPlanTest, DecideIsAPureFunctionOfItsInputs)
{
    const auto plan = FaultPlan::parse("rate=0.5,seed=7");
    for (unsigned attempt = 1; attempt <= 3; ++attempt) {
        const auto a = plan.decide("System.Linq", "i9", attempt);
        const auto b = plan.decide("System.Linq", "i9", attempt);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.selector, b.selector);
        EXPECT_EQ(a.traceCapacity, b.traceCapacity);
    }
}

TEST(FaultPlanTest, DecideRespectsTheRate)
{
    // rate=1 fires on every attempt; observed frequency at rate=0.3
    // over many distinct benchmarks tracks the rate.
    const auto always = FaultPlan::parse("rate=1,seed=3");
    const auto sometimes = FaultPlan::parse("rate=0.3,seed=3");
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
        const std::string name = "bench-" + std::to_string(i);
        EXPECT_TRUE(always.decide(name, "m", 1));
        if (sometimes.decide(name, "m", 1))
            ++fired;
    }
    EXPECT_GT(fired, 230);
    EXPECT_LT(fired, 370);
}

TEST(FaultPlanTest, DecideOnlyPicksEnabledKinds)
{
    const auto plan = FaultPlan::parse("rate=1,kinds=stall,seed=5");
    for (int i = 0; i < 50; ++i) {
        const auto d =
            plan.decide("bench-" + std::to_string(i), "m", 1);
        ASSERT_TRUE(d);
        EXPECT_EQ(d.kind, FaultKind::Stall);
    }
}

TEST(FaultPlanTest, DecisionVariesAcrossAttemptsAndMachines)
{
    // Retries re-roll: at rate=0.5 some benchmark must flip its
    // outcome between attempt 1 and 2, and between machines.
    const auto plan = FaultPlan::parse("rate=0.5,seed=11");
    bool attempt_flip = false, machine_flip = false;
    for (int i = 0; i < 200; ++i) {
        const std::string name = "bench-" + std::to_string(i);
        if (static_cast<bool>(plan.decide(name, "m", 1)) !=
            static_cast<bool>(plan.decide(name, "m", 2)))
            attempt_flip = true;
        if (static_cast<bool>(plan.decide(name, "m1", 1)) !=
            static_cast<bool>(plan.decide(name, "m2", 1)))
            machine_flip = true;
    }
    EXPECT_TRUE(attempt_flip);
    EXPECT_TRUE(machine_flip);
}

TEST(FaultPlanTest, CorruptPayloadIsNonFinite)
{
    const auto plan = FaultPlan::parse("rate=1,kinds=corrupt,seed=2");
    std::set<double> seen; // NaN never inserts equal, that is fine
    bool saw_nan = false, saw_inf = false;
    for (int i = 0; i < 200; ++i) {
        const auto d =
            plan.decide("bench-" + std::to_string(i), "m", 1);
        ASSERT_TRUE(d);
        EXPECT_FALSE(std::isfinite(d.badValue));
        if (std::isnan(d.badValue))
            saw_nan = true;
        if (std::isinf(d.badValue))
            saw_inf = true;
    }
    EXPECT_TRUE(saw_nan);
    EXPECT_TRUE(saw_inf);
}

TEST(FaultPlanTest, TraceCapacityStaysInTheDocumentedRange)
{
    const auto plan = FaultPlan::parse("rate=1,kinds=trace,seed=4");
    for (int i = 0; i < 200; ++i) {
        const auto d =
            plan.decide("bench-" + std::to_string(i), "m", 1);
        ASSERT_TRUE(d);
        EXPECT_GE(d.traceCapacity, 8u);
        EXPECT_LE(d.traceCapacity, 32u);
    }
}

TEST(FaultInjectorTest, BindsTheMachineName)
{
    const auto plan = FaultPlan::parse("rate=0.5,seed=13");
    const FaultInjector inj(plan, "i9");
    for (int i = 0; i < 50; ++i) {
        const std::string name = "bench-" + std::to_string(i);
        const auto direct = plan.decide(name, "i9", 1);
        const auto bound = inj.decide(name, 1);
        EXPECT_EQ(direct.kind, bound.kind);
        EXPECT_EQ(direct.selector, bound.selector);
    }
}

TEST(FaultKindTest, NamesRoundTheEnum)
{
    EXPECT_EQ(faultKindName(FaultKind::None), "none");
    EXPECT_EQ(faultKindName(FaultKind::Throw), "throw");
    EXPECT_EQ(faultKindName(FaultKind::CorruptCounter), "corrupt");
    EXPECT_EQ(faultKindName(FaultKind::Stall), "stall");
    EXPECT_EQ(faultKindName(FaultKind::TraceExhaust), "trace");
}

TEST(FaultErrorTest, RunBudgetExceededCarriesItsFields)
{
    const RunBudgetExceeded e(12345.0, 10000);
    EXPECT_DOUBLE_EQ(e.cycles(), 12345.0);
    EXPECT_EQ(e.budget(), 10000u);
    const std::string what = e.what();
    EXPECT_NE(what.find("budget"), std::string::npos);
    EXPECT_NE(what.find("10000"), std::string::npos);
}

TEST(FaultErrorTest, FaultInjectedErrorCarriesItsKind)
{
    const FaultInjectedError e(FaultKind::Stall, "injected");
    EXPECT_EQ(e.kind(), FaultKind::Stall);
    EXPECT_STREQ(e.what(), "injected");
}

TEST(PerturbedSeedTest, FirstAttemptIsIdentity)
{
    EXPECT_EQ(perturbedSeed(1, "Json", 1), 1u);
    EXPECT_EQ(perturbedSeed(99, "Json", 1), 99u);
    EXPECT_EQ(perturbedSeed(99, "Json", 0), 99u);
}

TEST(PerturbedSeedTest, RetriesGetDistinctDeterministicSeeds)
{
    const auto s2 = perturbedSeed(1, "Json", 2);
    const auto s3 = perturbedSeed(1, "Json", 3);
    EXPECT_NE(s2, 1u);
    EXPECT_NE(s3, 1u);
    EXPECT_NE(s2, s3);
    EXPECT_EQ(perturbedSeed(1, "Json", 2), s2); // deterministic
    // Different benchmarks diverge even at the same attempt.
    EXPECT_NE(perturbedSeed(1, "Mono", 2), s2);
}

TEST(FaultPlanTest, SeedIsAnUnsignedIntegerThatFits)
{
    EXPECT_EQ(FaultPlan::parse("rate=0,seed=18446744073709551615")
                  .seed(),
              18446744073709551615ULL);
    // A sign or an out-of-range value is an error, never a wrap.
    for (const char *bad :
         {"rate=0,seed=-1", "rate=0,seed=+7", "rate=0,seed= 7",
          "rate=0,seed=18446744073709551616", "rate=0,seed="}) {
        EXPECT_THROW(FaultPlan::parse(bad), std::invalid_argument)
            << bad;
        EXPECT_THROW(WireFaultPlan::parse(bad), std::invalid_argument)
            << bad;
    }
    try {
        FaultPlan::parse("rate=0,seed=-1");
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(),
                     "chaos spec: seed expects an integer, got '-1'");
    }
}

TEST(FaultPlanTest, ErrorMessagesNameTheSpecFamily)
{
    const auto message = [](auto parse, const std::string &spec) {
        try {
            parse(spec);
        } catch (const std::invalid_argument &e) {
            return std::string(e.what());
        }
        return std::string("(accepted)");
    };
    const auto chaos = [](const std::string &s) {
        return FaultPlan::parse(s);
    };
    const auto wire = [](const std::string &s) {
        return WireFaultPlan::parse(s);
    };
    EXPECT_EQ(message(chaos, "rate=0.1,kinds=x"),
              "chaos spec: unknown kind 'x' (valid: throw, corrupt, "
              "stall, trace)");
    EXPECT_EQ(message(wire, "rate=0.1,kinds=x"),
              "chaos-wire spec: unknown kind 'x' (valid: split, merge, "
              "stall, reset, journal)");
    EXPECT_EQ(message(chaos, "rate=0.1,kinds="),
              "chaos spec: kinds= needs at least one of throw, "
              "corrupt, stall, trace");
    EXPECT_EQ(message(wire, "seed=3"),
              "chaos-wire spec: rate= is required (example: "
              "rate=0.25,kinds=split+reset,seed=9)");
    EXPECT_EQ(message(chaos, "rate"),
              "chaos spec: expected key=value, got 'rate' (example: "
              "rate=0.1,kinds=throw+stall,seed=7)");
    EXPECT_EQ(message(wire, "rate=1,kinds=nan"),
              "chaos-wire spec: unknown kind 'nan' (valid: split, "
              "merge, stall, reset, journal)");
}

namespace
{

/** Replacement bytes biased towards the spec grammars' punctuation. */
constexpr std::string_view kSpecAlphabet =
    ",=+-.0123456789eE xnatr\x7f\xff";

template <typename Plan>
void
fuzzSpecs(const std::vector<std::string> &seeds, const char *prefix,
          std::uint64_t state)
{
    unsigned accepted = 0, rejected = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::string spec = test::mutate(
            seeds[static_cast<std::size_t>(i) % seeds.size()], state,
            kSpecAlphabet);
        try {
            const Plan plan = Plan::parse(spec);
            ++accepted;
            const std::string canonical = plan.describe();
            EXPECT_EQ(Plan::parse(canonical).describe(), canonical)
                << "spec: " << spec;
        } catch (const std::invalid_argument &e) {
            ++rejected;
            EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u)
                << "spec: " << spec << "\nwhat: " << e.what();
        }
    }
    // The mutator must exercise both outcomes to mean anything.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 100u);
}

} // namespace

TEST(FaultSpecFuzz, ChaosSpecsParseOrFailWithThePrefix)
{
    fuzzSpecs<FaultPlan>({"rate=0.1,kinds=throw+stall,seed=7",
                          "rate=0.5", "rate=1,kinds=nan+trace,seed=42",
                          "seed=3,rate=0.25,kinds=corrupt"},
                         "chaos spec:", 1);
}

TEST(FaultSpecFuzz, WireSpecsParseOrFailWithThePrefix)
{
    fuzzSpecs<WireFaultPlan>({"rate=0.25,kinds=split+reset,seed=9",
                              "rate=1",
                              "rate=0.5,kinds=merge+stall+journal",
                              "kinds=reset,seed=11,rate=0.75"},
                             "chaos-wire spec:", 2);
}
