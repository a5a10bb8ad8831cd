/**
 * @file
 * Machine configurations mirroring Table II of the paper, plus the
 * pipeline/latency parameters the statistical core model needs.
 *
 * Three factory configs are provided: the Intel Xeon E5-2620 v4
 * (baseline machine for subset validation), the Intel Core i9-9980XE
 * (main measurement machine), and the AArch64 server of §V-D.
 */

#ifndef NETCHAR_SIM_CONFIG_HH
#define NETCHAR_SIM_CONFIG_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace netchar::sim
{

/** Instruction set architecture of a modeled machine. */
enum class Isa { X86_64, AArch64 };

/** Geometry of one cache level. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 0;
    unsigned associativity = 8;
    unsigned lineBytes = 64;
};

/** Geometry of one TLB level. */
struct TlbGeometry
{
    unsigned entries = 64;
    unsigned associativity = 4;
    std::uint64_t pageBytes = 4096;
};

/** Pipeline widths and event penalties (in core cycles). */
struct PipelineParams
{
    /** Top-Down slots per cycle (4 on the Intel parts modeled). */
    unsigned slotsPerCycle = 4;
    /** Peak decode width. */
    unsigned decodeWidth = 4;
    /** Peak issue width. */
    unsigned issueWidth = 4;
    /** Reorder buffer capacity (bounds memory-level parallelism). */
    unsigned robEntries = 224;

    // Latencies (cycles)
    double l1Latency = 4.0;
    double l2Latency = 12.0;
    double llcLatency = 38.0;
    double dramLatency = 200.0;
    double dramRowMissExtra = 110.0;
    double tlbWalkLatency = 30.0;
    double stlbHitLatency = 8.0;
    double branchMispredictPenalty = 12.0;
    double btbResteerPenalty = 7.0;
    double msSwitchPenalty = 3.0;
    double pageFaultPenalty = 1500.0;

    /**
     * Fraction of an instruction-side miss's latency that shows up as
     * a frontend stall (the rest hides under backend stalls; §VI-B1
     * notes much of the I-cache stall time is hidden).
     */
    double feExposure = 0.30;

    /**
     * Fraction of a data-miss latency the out-of-order window fails
     * to hide beyond what MLP already overlaps. Models speculation
     * depth: modern cores expose well under half of a miss.
     */
    double memStallExposure = 0.30;

    /** DSB (uop cache) capacity in 32B fetch lines; 0 disables (Arm). */
    unsigned dsbLines = 96;
    /** Loop buffer capacity in fetch lines (Arm-style; 0 disables). */
    unsigned loopBufferLines = 0;
    /** Probability a DSB-delivered line still loses bandwidth slots. */
    double dsbBandwidthStall = 0.012;
    /** Probability a MITE-delivered line loses bandwidth slots. */
    double miteBandwidthStall = 0.045;
    /** Bandwidth-stall cost in cycles when one occurs. */
    double bandwidthStallCycles = 1.0;

    /** Probability a load that hits L1 still queues on L1 ports. */
    double l1BandwidthStall = 0.055;
    /** Store-buffer full probability per store. */
    double storeBufferStall = 0.020;
    double storeStallCycles = 3.0;

    /** Divider occupancy per div instruction (non-pipelined unit). */
    double divLatency = 18.0;
};

/**
 * Full machine description: Table II data plus core/uncore parameters
 * used by the simulator.
 */
struct MachineConfig
{
    std::string name;
    Isa isa = Isa::X86_64;

    unsigned physicalCores = 1;
    unsigned logicalCores = 1;

    CacheGeometry l1d{32 * 1024, 8, 64};
    CacheGeometry l1i{32 * 1024, 8, 64};
    CacheGeometry l2{256 * 1024, 8, 64};
    CacheGeometry llc{20ULL * 1024 * 1024, 16, 64};
    /** Number of LLC slices (one NoC stop each). */
    unsigned llcSlices = 8;

    TlbGeometry itlb{128, 4, 4096};
    TlbGeometry dtlb{64, 4, 4096};
    /** Unified second-level TLB (0 entries disables). */
    TlbGeometry stlb{1536, 8, 4096};

    unsigned btbEntries = 4096;
    unsigned predictorBits = 14;       ///< log2 of gshare table entries
    /**
     * Global history length. 0 = bimodal (per-PC) prediction, the
     * right model for statistical workloads whose branch outcomes
     * carry no inter-branch correlation a history could exploit.
     */
    unsigned predictorHistoryBits = 0;

    double nominalGhz = 2.0;
    double maxGhz = 3.0;

    PipelineParams pipe;

    /**
     * Software-stack maturity factor (>= 1). Models §V-D: the Arm
     * runtime/compiler stack lacks years of cross-stack tuning, so
     * jitted code is laid out across more, sparser pages and data is
     * less densely packed. 1.0 = fully tuned (Intel stack).
     */
    double codeSpreadFactor = 1.0;
    double dataSpreadFactor = 1.0;

    /**
     * Validate structural invariants with descriptive errors: every
     * cache/TLB geometry well-formed (non-zero ways, power-of-two
     * line and page sizes, size divisible by ways x line), non-zero
     * frequencies with max >= nominal, sane pipeline widths and
     * probabilities, spread factors >= 1, and every floating-point
     * parameter finite. Throws std::invalid_argument naming the
     * offending field; a malformed config must never reach a run
     * silently (sim::Machine calls this on construction).
     */
    void validate() const;

    /** Factory: Intel Xeon E5-2620 v4 (validation baseline). */
    static MachineConfig intelXeonE52620V4();

    /** Factory: Intel Core i9-9980XE (main machine). */
    static MachineConfig intelCoreI99980Xe();

    /** Factory: AArch64 server of §V-D. */
    static MachineConfig armServer();
};

/** A modeled machine under the short key the CLI and wire use. */
struct MachineModel
{
    std::string_view key;
    MachineConfig (*make)();
};

/** Every modeled machine, in listing order: i9, xeon, arm. */
std::span<const MachineModel> machineModels();

/** The model registered under `key`, or nullptr. */
const MachineModel *findMachineModel(std::string_view key);

/** The valid keys for error messages: "i9, xeon, arm". */
std::string machineKeyList();

} // namespace netchar::sim

#endif // NETCHAR_SIM_CONFIG_HH
