#include "core/canonical.hh"

#include <stdexcept>

#include "stats/hash.hh"
#include "stats/textio.hh"
#include "workloads/registry.hh"

namespace netchar
{

namespace
{

void
field(std::string &os, const char *key, std::string_view v)
{
    os.append(key).append(1, '=').append(v).append(1, ';');
}

/** Bit-exact: equal doubles render equal bytes, different ones
 *  never collide (appendExactDouble). */
void
field(std::string &os, const char *key, double v)
{
    os.append(key).append(1, '=');
    appendExactDouble(os, v);
    os.append(1, ';');
}

void
field(std::string &os, const char *key, std::uint64_t v)
{
    field(os, key, std::to_string(v));
}

void
field(std::string &os, const char *key, unsigned v)
{
    field(os, key, std::to_string(v));
}

void
field(std::string &os, const char *key, bool v)
{
    os.append(key).append(v ? "=1;" : "=0;");
}

void
cacheField(std::string &os, const char *key,
           const sim::CacheGeometry &g)
{
    field(os, key,
          std::to_string(g.sizeBytes) + '/' +
              std::to_string(g.associativity) + '/' +
              std::to_string(g.lineBytes));
}

void
tlbField(std::string &os, const char *key, const sim::TlbGeometry &g)
{
    field(os, key,
          std::to_string(g.entries) + '/' +
              std::to_string(g.associativity) + '/' +
              std::to_string(g.pageBytes));
}

/** The version tag that opens every cache-key text. */
std::string
keyHead()
{
    return "netchar-key/v" + std::to_string(kCanonicalVersion) + '{';
}

/** Namespace the serve layer puts in front of a single run's key
 *  text before hashing it. */
constexpr std::string_view kRunNamespace = "run/";

} // namespace

std::string
canonicalProfile(const wl::WorkloadProfile &p)
{
    std::string os = "profile{";
    field(os, "name", p.name);
    field(os, "suite", wl::suiteName(p.suite));
    field(os, "instructions", p.instructions);
    field(os, "branchFrac", p.branchFrac);
    field(os, "loadFrac", p.loadFrac);
    field(os, "storeFrac", p.storeFrac);
    field(os, "mulFrac", p.mulFrac);
    field(os, "divFrac", p.divFrac);
    field(os, "microcodedFrac", p.microcodedFrac);
    field(os, "kernelFrac", p.kernelFrac);
    field(os, "kernelBurstLen", p.kernelBurstLen);
    field(os, "ilp", p.ilp);
    field(os, "mlp", p.mlp);
    field(os, "cpuUtil", p.cpuUtil);
    field(os, "methods", p.methods);
    field(os, "meanMethodBytes", p.meanMethodBytes);
    field(os, "methodZipf", p.methodZipf);
    field(os, "callFrac", p.callFrac);
    field(os, "takenFrac", p.takenFrac);
    field(os, "branchBias", p.branchBias);
    field(os, "dataFootprint", p.dataFootprint);
    field(os, "dataZipf", p.dataZipf);
    field(os, "streamFrac", p.streamFrac);
    field(os, "stackFrac", p.stackFrac);
    field(os, "warmFrac", p.warmFrac);
    field(os, "coolFrac", p.coolFrac);
    field(os, "managed", p.managed);
    field(os, "allocBytesPerInst", p.allocBytesPerInst);
    field(os, "meanObjectBytes", p.meanObjectBytes);
    field(os, "maxHeapBytes", p.maxHeapBytes);
    field(os, "gcMode",
          static_cast<unsigned>(static_cast<int>(p.gcMode)));
    field(os, "gcAssist",
          static_cast<unsigned>(static_cast<int>(p.gcAssist)));
    field(os, "tierUpCallThreshold", p.tierUpCallThreshold);
    field(os, "exceptionPki", p.exceptionPki);
    field(os, "contentionPki", p.contentionPki);
    field(os, "seed", p.seed);
    os += '}';
    return os;
}

std::string
canonicalMachine(const sim::MachineConfig &m)
{
    std::string os = "machine{";
    field(os, "name", m.name);
    field(os, "isa", static_cast<unsigned>(static_cast<int>(m.isa)));
    field(os, "physicalCores", m.physicalCores);
    field(os, "logicalCores", m.logicalCores);
    cacheField(os, "l1d", m.l1d);
    cacheField(os, "l1i", m.l1i);
    cacheField(os, "l2", m.l2);
    cacheField(os, "llc", m.llc);
    field(os, "llcSlices", m.llcSlices);
    tlbField(os, "itlb", m.itlb);
    tlbField(os, "dtlb", m.dtlb);
    tlbField(os, "stlb", m.stlb);
    field(os, "btbEntries", m.btbEntries);
    field(os, "predictorBits", m.predictorBits);
    field(os, "predictorHistoryBits", m.predictorHistoryBits);
    field(os, "nominalGhz", m.nominalGhz);
    field(os, "maxGhz", m.maxGhz);
    const sim::PipelineParams &p = m.pipe;
    field(os, "slotsPerCycle", p.slotsPerCycle);
    field(os, "decodeWidth", p.decodeWidth);
    field(os, "issueWidth", p.issueWidth);
    field(os, "robEntries", p.robEntries);
    field(os, "l1Latency", p.l1Latency);
    field(os, "l2Latency", p.l2Latency);
    field(os, "llcLatency", p.llcLatency);
    field(os, "dramLatency", p.dramLatency);
    field(os, "dramRowMissExtra", p.dramRowMissExtra);
    field(os, "tlbWalkLatency", p.tlbWalkLatency);
    field(os, "stlbHitLatency", p.stlbHitLatency);
    field(os, "branchMispredictPenalty", p.branchMispredictPenalty);
    field(os, "btbResteerPenalty", p.btbResteerPenalty);
    field(os, "msSwitchPenalty", p.msSwitchPenalty);
    field(os, "pageFaultPenalty", p.pageFaultPenalty);
    field(os, "feExposure", p.feExposure);
    field(os, "memStallExposure", p.memStallExposure);
    field(os, "dsbLines", p.dsbLines);
    field(os, "loopBufferLines", p.loopBufferLines);
    field(os, "dsbBandwidthStall", p.dsbBandwidthStall);
    field(os, "miteBandwidthStall", p.miteBandwidthStall);
    field(os, "bandwidthStallCycles", p.bandwidthStallCycles);
    field(os, "l1BandwidthStall", p.l1BandwidthStall);
    field(os, "storeBufferStall", p.storeBufferStall);
    field(os, "storeStallCycles", p.storeStallCycles);
    field(os, "divLatency", p.divLatency);
    field(os, "codeSpreadFactor", m.codeSpreadFactor);
    field(os, "dataSpreadFactor", m.dataSpreadFactor);
    os += '}';
    return os;
}

std::string
canonicalRunOptions(const RunOptions &o)
{
    std::string os = "options{";
    field(os, "warmupInstructions", o.warmupInstructions);
    field(os, "measuredInstructions", o.measuredInstructions);
    field(os, "cores", o.cores);
    field(os, "seed", o.seed);
    field(os, "jitHint", o.jitHint);
    field(os, "nocSliceServiceRate", o.noc.sliceServiceRate);
    field(os, "nocMaxQueueCycles", o.noc.maxQueueCycles);
    field(os, "nocRateSmoothing", o.noc.rateSmoothing);
    field(os, "nocContentionEnabled", o.noc.contentionEnabled);
    if (o.gcMode)
        field(os, "gcMode",
              static_cast<unsigned>(static_cast<int>(*o.gcMode)));
    else
        os += "gcMode=unset;";
    if (o.gcAssist)
        field(os, "gcAssist",
              static_cast<unsigned>(static_cast<int>(*o.gcAssist)));
    else
        os += "gcAssist=unset;";
    if (o.maxHeapBytes)
        field(os, "maxHeapBytes", *o.maxHeapBytes);
    else
        os += "maxHeapBytes=unset;";
    field(os, "allocScale", o.allocScale);
    field(os, "quantum", o.quantum);
    field(os, "runBudgetCycles", o.runBudgetCycles);
    os += '}';
    return os;
}

std::string
cacheKeyText(const wl::WorkloadProfile &profile,
             const sim::MachineConfig &config,
             const RunOptions &options)
{
    return keyHead() + canonicalProfile(profile) +
           canonicalMachine(config) + canonicalRunOptions(options) + '}';
}

RunKeyTable::RunKeyTable()
    : runHead_(std::string(kRunNamespace) + keyHead()),
      headReverse_(runHead_)
{
    const auto profiles = wl::registeredProfiles();
    const auto models = sim::machineModels();
    profiles_.reserve(profiles.size());
    profileReverse_.reserve(profiles.size());
    for (const wl::WorkloadProfile &p : profiles) {
        profiles_.push_back(canonicalProfile(p));
        profileReverse_.emplace_back(profiles_.back());
    }
    machines_.reserve(models.size());
    machineReverse_.reserve(models.size());
    for (const sim::MachineModel &m : models) {
        machines_.push_back(canonicalMachine(m.make()));
        machineReverse_.emplace_back(machines_.back());
    }
    const std::uint64_t head = fnv1a(runHead_);
    forward_.reserve(profiles_.size() * machines_.size());
    for (const std::string &profile : profiles_) {
        const std::uint64_t h = fnv1a(profile, head);
        for (const std::string &machine : machines_)
            forward_.push_back(fnv1a(machine, h));
    }
}

const RunKeyTable &
RunKeyTable::instance()
{
    static const RunKeyTable table;
    return table;
}

const std::string &
RunKeyTable::profileText(std::size_t profile) const
{
    return profiles_.at(profile);
}

const std::string &
RunKeyTable::machineText(std::string_view machineKey) const
{
    return machines_[machineIndex(machineKey)];
}

std::string
RunKeyTable::runKey(std::size_t profile, std::string_view machineKey,
                    const RunOptions &options) const
{
    const std::size_t m = machineIndex(machineKey);
    const FnvReverse *const reverse[] = {
        &headReverse_, &profileReverse_.at(profile), &machineReverse_[m]};
    return contentHashHex(
        {forward_[profile * machines_.size() + m], reverse},
        canonicalRunOptions(options) + '}');
}

std::string
RunKeyTable::sweepKey(std::string_view suite, std::string_view format,
                      unsigned shard, unsigned shards,
                      unsigned maxAttempts, std::string_view machineKey,
                      const RunOptions &options,
                      const std::vector<std::size_t> &profiles) const
{
    return suiteKey("sweep{suite=" + std::string(suite) + ";format=" +
                        std::string(format) + ";shard=" +
                        std::to_string(shard) + '/' +
                        std::to_string(shards),
                    maxAttempts, machineKey, options, profiles);
}

std::string
RunKeyTable::subsetKey(std::string_view suite, std::size_t size,
                       unsigned maxAttempts, std::string_view machineKey,
                       const RunOptions &options,
                       const std::vector<std::size_t> &profiles) const
{
    return suiteKey("subset{suite=" + std::string(suite) +
                        ";size=" + std::to_string(size),
                    maxAttempts, machineKey, options, profiles);
}

std::string
RunKeyTable::suiteKey(const std::string &shape, unsigned maxAttempts,
                      std::string_view machineKey,
                      const RunOptions &options,
                      const std::vector<std::size_t> &profiles) const
{
    std::string text = "netchar-key/v" +
                       std::to_string(kCanonicalVersion) + '/' + shape +
                       ";maxAttempts=" + std::to_string(maxAttempts) +
                       ";machine{" + machineText(machineKey) +
                       "}options{" + canonicalRunOptions(options) + '}';
    for (const std::size_t p : profiles)
        text += "profile{" + profileText(p) + '}';
    return contentHashHex(text);
}

std::size_t
RunKeyTable::machineIndex(std::string_view machineKey) const
{
    const auto models = sim::machineModels();
    for (std::size_t m = 0; m < models.size(); ++m)
        if (models[m].key == machineKey)
            return m;
    throw std::invalid_argument("unknown machine '" +
                                std::string(machineKey) + "'");
}

} // namespace netchar
