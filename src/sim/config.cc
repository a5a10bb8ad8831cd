#include "sim/config.hh"

#include <cmath>
#include <stdexcept>

namespace netchar::sim
{

namespace
{

bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Throw std::invalid_argument "<machine>: <what>". */
[[noreturn]] void
fail(const std::string &machine, const std::string &what)
{
    throw std::invalid_argument(
        (machine.empty() ? std::string("MachineConfig") : machine) +
        ": " + what);
}

void
checkCache(const std::string &machine, const char *which,
           const CacheGeometry &g)
{
    const std::string name = std::string(which);
    if (g.associativity == 0)
        fail(machine, name + " has zero ways (associativity)");
    if (!isPowerOfTwo(g.lineBytes))
        fail(machine, name + " line size " +
                          std::to_string(g.lineBytes) +
                          " is not a power of two");
    if (g.lineBytes < 2)
        fail(machine, name + " line size " +
                          std::to_string(g.lineBytes) +
                          " is under 2 bytes");
    const std::uint64_t way_bytes =
        static_cast<std::uint64_t>(g.lineBytes) * g.associativity;
    if (g.sizeBytes == 0 || g.sizeBytes % way_bytes != 0)
        fail(machine, name + " size " + std::to_string(g.sizeBytes) +
                          " is not a positive multiple of ways x "
                          "line (" + std::to_string(way_bytes) + ")");
}

void
checkTlb(const std::string &machine, const char *which,
         const TlbGeometry &g)
{
    const std::string name = std::string(which);
    if (g.associativity == 0)
        fail(machine, name + " has zero ways (associativity)");
    if (g.entries == 0 || g.entries % g.associativity != 0)
        fail(machine, name + " entry count " +
                          std::to_string(g.entries) +
                          " is not a positive multiple of its " +
                          std::to_string(g.associativity) + " ways");
    if (!isPowerOfTwo(g.pageBytes))
        fail(machine, name + " page size " +
                          std::to_string(g.pageBytes) +
                          " is not a power of two");
    if (g.pageBytes < 2)
        fail(machine, name + " page size " +
                          std::to_string(g.pageBytes) +
                          " is under 2 bytes");
}

void
checkProbability(const std::string &machine, const char *field,
                 double value)
{
    if (!(value >= 0.0 && value <= 1.0))
        fail(machine, std::string(field) + " = " +
                          std::to_string(value) +
                          " is not a probability in [0,1]");
}

void
checkNonNegativeFinite(const std::string &machine, const char *field,
                       double value)
{
    if (!std::isfinite(value) || value < 0.0)
        fail(machine, std::string(field) + " = " +
                          std::to_string(value) +
                          " must be finite and >= 0");
}

} // namespace

void
MachineConfig::validate() const
{
    if (physicalCores == 0)
        fail(name, "zero physical cores");
    if (logicalCores < physicalCores)
        fail(name, "logical cores (" + std::to_string(logicalCores) +
                       ") below physical cores (" +
                       std::to_string(physicalCores) + ")");

    checkCache(name, "L1D", l1d);
    checkCache(name, "L1I", l1i);
    checkCache(name, "L2", l2);
    checkCache(name, "LLC", llc);
    if (llcSlices == 0)
        fail(name, "zero LLC slices");

    checkTlb(name, "ITLB", itlb);
    checkTlb(name, "DTLB", dtlb);
    if (stlb.entries > 0)
        checkTlb(name, "STLB", stlb);

    if (btbEntries == 0)
        fail(name, "zero BTB entries");
    if (predictorBits == 0 || predictorBits > 30)
        fail(name, "predictor bits " + std::to_string(predictorBits) +
                       " outside [1,30]");

    if (!std::isfinite(nominalGhz) || nominalGhz <= 0.0)
        fail(name, "zero or invalid nominal frequency (" +
                       std::to_string(nominalGhz) + " GHz)");
    if (!std::isfinite(maxGhz) || maxGhz < nominalGhz)
        fail(name, "max frequency (" + std::to_string(maxGhz) +
                       " GHz) below nominal (" +
                       std::to_string(nominalGhz) + " GHz)");

    if (pipe.slotsPerCycle == 0)
        fail(name, "zero pipeline slots per cycle");
    if (pipe.decodeWidth == 0 || pipe.issueWidth == 0)
        fail(name, "zero decode or issue width");
    if (pipe.robEntries == 0)
        fail(name, "zero ROB entries");

    checkNonNegativeFinite(name, "l1Latency", pipe.l1Latency);
    checkNonNegativeFinite(name, "l2Latency", pipe.l2Latency);
    checkNonNegativeFinite(name, "llcLatency", pipe.llcLatency);
    checkNonNegativeFinite(name, "dramLatency", pipe.dramLatency);
    checkNonNegativeFinite(name, "dramRowMissExtra",
                           pipe.dramRowMissExtra);
    checkNonNegativeFinite(name, "tlbWalkLatency",
                           pipe.tlbWalkLatency);
    checkNonNegativeFinite(name, "stlbHitLatency",
                           pipe.stlbHitLatency);
    checkNonNegativeFinite(name, "branchMispredictPenalty",
                           pipe.branchMispredictPenalty);
    checkNonNegativeFinite(name, "btbResteerPenalty",
                           pipe.btbResteerPenalty);
    checkNonNegativeFinite(name, "msSwitchPenalty",
                           pipe.msSwitchPenalty);
    checkNonNegativeFinite(name, "pageFaultPenalty",
                           pipe.pageFaultPenalty);
    checkNonNegativeFinite(name, "bandwidthStallCycles",
                           pipe.bandwidthStallCycles);
    checkNonNegativeFinite(name, "storeStallCycles",
                           pipe.storeStallCycles);
    checkNonNegativeFinite(name, "divLatency", pipe.divLatency);

    checkProbability(name, "feExposure", pipe.feExposure);
    checkProbability(name, "memStallExposure", pipe.memStallExposure);
    checkProbability(name, "dsbBandwidthStall",
                     pipe.dsbBandwidthStall);
    checkProbability(name, "miteBandwidthStall",
                     pipe.miteBandwidthStall);
    checkProbability(name, "l1BandwidthStall", pipe.l1BandwidthStall);
    checkProbability(name, "storeBufferStall", pipe.storeBufferStall);

    if (!std::isfinite(codeSpreadFactor) || codeSpreadFactor < 1.0)
        fail(name, "codeSpreadFactor " +
                       std::to_string(codeSpreadFactor) +
                       " must be finite and >= 1");
    if (!std::isfinite(dataSpreadFactor) || dataSpreadFactor < 1.0)
        fail(name, "dataSpreadFactor " +
                       std::to_string(dataSpreadFactor) +
                       " must be finite and >= 1");
}

MachineConfig
MachineConfig::intelXeonE52620V4()
{
    MachineConfig cfg;
    cfg.name = "Intel Xeon E5-2620 v4";
    cfg.isa = Isa::X86_64;
    cfg.physicalCores = 16;
    cfg.logicalCores = 32;
    cfg.l1d = {32 * 1024, 8, 64};
    cfg.l1i = {32 * 1024, 8, 64};
    cfg.l2 = {256 * 1024, 8, 64};
    // 20 MiB x 2 sockets; model the socket the workload runs on.
    cfg.llc = {20ULL * 1024 * 1024, 20, 64};
    cfg.llcSlices = 8;
    cfg.itlb = {128, 4, 4096};
    cfg.dtlb = {64, 4, 4096};
    cfg.stlb = {1536, 6, 4096};
    cfg.btbEntries = 4096;
    cfg.predictorBits = 16;
    cfg.nominalGhz = 2.1;
    cfg.maxGhz = 3.0;
    cfg.pipe.slotsPerCycle = 4;
    cfg.pipe.decodeWidth = 4;
    cfg.pipe.issueWidth = 4;
    cfg.pipe.robEntries = 192;
    cfg.pipe.l2Latency = 12.0;
    cfg.pipe.llcLatency = 44.0;  // Broadwell ring is slower than SKX mesh
    cfg.pipe.dramLatency = 230.0;
    cfg.pipe.dsbLines = 64;      // 1.5K uop DSB
    return cfg;
}

MachineConfig
MachineConfig::intelCoreI99980Xe()
{
    MachineConfig cfg;
    cfg.name = "Intel Core i9-9980XE";
    cfg.isa = Isa::X86_64;
    cfg.physicalCores = 18;
    cfg.logicalCores = 18;
    cfg.l1d = {32 * 1024, 8, 64};
    cfg.l1i = {32 * 1024, 8, 64};
    cfg.l2 = {1024 * 1024, 16, 64};
    // 24.75 MiB non-inclusive LLC.
    cfg.llc = {24ULL * 1024 * 1024 + 768 * 1024, 11, 64};
    cfg.llcSlices = 18;
    cfg.itlb = {128, 8, 4096};
    cfg.dtlb = {64, 4, 4096};
    cfg.stlb = {1536, 12, 4096};
    cfg.btbEntries = 8192;
    cfg.predictorBits = 17;
    cfg.nominalGhz = 3.0;
    cfg.maxGhz = 4.5;
    cfg.pipe.slotsPerCycle = 4;
    cfg.pipe.decodeWidth = 4;
    cfg.pipe.issueWidth = 4;
    cfg.pipe.robEntries = 224;
    cfg.pipe.l2Latency = 13.0;
    cfg.pipe.llcLatency = 50.0;  // mesh; bigger L2 compensates
    cfg.pipe.dramLatency = 210.0;
    cfg.pipe.dsbLines = 96;      // 2.25K uop DSB (Skylake-X)
    return cfg;
}

MachineConfig
MachineConfig::armServer()
{
    MachineConfig cfg;
    cfg.name = "Arm server (AArch64)";
    cfg.isa = Isa::AArch64;
    cfg.physicalCores = 32;
    cfg.logicalCores = 32;
    cfg.l1d = {32 * 1024, 8, 64};
    cfg.l1i = {32 * 1024, 8, 64};
    cfg.l2 = {256 * 1024, 8, 64};
    cfg.llc = {32ULL * 1024 * 1024, 16, 64};
    cfg.llcSlices = 8;
    // Dedicated small I/D TLBs plus a 2K-entry secondary TLB (§III-B).
    cfg.itlb = {48, 4, 4096};
    cfg.dtlb = {32, 4, 4096};
    cfg.stlb = {2048, 8, 4096};
    cfg.btbEntries = 3072;
    cfg.predictorBits = 15;
    cfg.nominalGhz = 1.6;
    cfg.maxGhz = 2.2;
    cfg.pipe.slotsPerCycle = 4;   // decodes up to 4 micro-ops
    cfg.pipe.decodeWidth = 4;
    cfg.pipe.issueWidth = 6;      // issues up to 6 micro-ops
    cfg.pipe.robEntries = 180;
    cfg.pipe.l2Latency = 14.0;
    cfg.pipe.llcLatency = 60.0;
    cfg.pipe.dramLatency = 260.0;
    cfg.pipe.dsbLines = 0;        // no uop cache
    cfg.pipe.loopBufferLines = 4; // 128-entry loop buffer
    cfg.pipe.miteBandwidthStall = 0.06;
    // §V-D: the Arm .NET stack lacks cross-stack tuning; jitted code
    // and heap layouts are markedly sparser than on the Intel stack.
    cfg.codeSpreadFactor = 14.0;
    cfg.dataSpreadFactor = 2.5;
    return cfg;
}

namespace
{

constexpr MachineModel kMachineModels[] = {
    {"i9", &MachineConfig::intelCoreI99980Xe},
    {"xeon", &MachineConfig::intelXeonE52620V4},
    {"arm", &MachineConfig::armServer},
};

} // namespace

std::span<const MachineModel>
machineModels()
{
    return kMachineModels;
}

const MachineModel *
findMachineModel(std::string_view key)
{
    for (const auto &m : kMachineModels)
        if (m.key == key)
            return &m;
    return nullptr;
}

std::string
machineKeyList()
{
    std::string out;
    for (const auto &m : kMachineModels)
        out += (out.empty() ? "" : ", ") + std::string(m.key);
    return out;
}

} // namespace netchar::sim
