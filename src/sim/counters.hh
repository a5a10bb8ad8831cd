/**
 * @file
 * Raw hardware event counters and Top-Down pipeline-slot accounting.
 *
 * PerfCounters mirrors what the paper collects with Linux perf
 * (instructions, branches, cache/TLB misses, bandwidth, faults), and
 * SlotAccount mirrors what toplev derives from the PMU: pipeline slots
 * attributed to each Top-Down tree node. Both are plain aggregates so
 * they can be snapshotted and diffed for interval sampling (§VII-A).
 */

#ifndef NETCHAR_SIM_COUNTERS_HH
#define NETCHAR_SIM_COUNTERS_HH

#include <array>
#include <cstdint>
#include <iterator>
#include <string_view>

namespace netchar::sim
{

/** Nodes of the Top-Down hierarchy tracked by the simulator. */
enum class SlotNode : std::size_t
{
    Retiring = 0,
    BadSpeculation,
    // Frontend latency
    FeICache,
    FeITlb,
    FeBtbResteer,
    FeMsSwitch,
    // Frontend bandwidth
    FeDsb,
    FeMite,
    // Backend memory
    BeL1Bound,
    BeL2Bound,
    BeL3Bound,
    BeDramBound,
    BeStoreBound,
    // Backend core
    BePortsUtil,
    BeDivider,
    NumNodes,
};

/** Top-level Top-Down category of a node. */
enum class SlotCategory { Retiring, BadSpeculation, Frontend, Backend };

/** One level-1 category: its chart label and its export key. */
struct SlotCategoryInfo
{
    std::string_view label; ///< "Frontend_Bound"
    std::string_view key;   ///< "frontend_bound" (CSV column, JSON key)
};

/** The level-1 categories, in SlotCategory order. */
inline constexpr SlotCategoryInfo kSlotCategories[] = {
    {"Retiring", "retiring"},
    {"Bad_Speculation", "bad_speculation"},
    {"Frontend_Bound", "frontend_bound"},
    {"Backend_Bound", "backend_bound"},
};
static_assert(std::size(kSlotCategories) ==
              static_cast<std::size_t>(SlotCategory::Backend) + 1);

/** One node of the Top-Down tree. */
struct SlotNodeInfo
{
    SlotCategory category;
    std::string_view name; ///< toplev-style name, "FE.ICache_Misses"
    std::string_view key;  ///< CSV column, "fe_icache"
};

/**
 * The Top-Down tree, in SlotNode order: the one list of its nodes,
 * their categories, names and export keys.
 */
inline constexpr SlotNodeInfo kSlotNodes[] = {
    {SlotCategory::Retiring, "Retiring", "retiring"},
    {SlotCategory::BadSpeculation, "Bad_Speculation", "bad_speculation"},
    {SlotCategory::Frontend, "FE.ICache_Misses", "fe_icache"},
    {SlotCategory::Frontend, "FE.ITLB_Misses", "fe_itlb"},
    {SlotCategory::Frontend, "FE.Branch_Resteers", "fe_btb"},
    {SlotCategory::Frontend, "FE.MS_Switches", "fe_ms"},
    {SlotCategory::Frontend, "FE.DSB_Bandwidth", "fe_dsb_bw"},
    {SlotCategory::Frontend, "FE.MITE_Bandwidth", "fe_mite_bw"},
    {SlotCategory::Backend, "BE.MEM.L1_Bound", "be_l1"},
    {SlotCategory::Backend, "BE.MEM.L2_Bound", "be_l2"},
    {SlotCategory::Backend, "BE.MEM.L3_Bound", "be_l3"},
    {SlotCategory::Backend, "BE.MEM.DRAM_Bound", "be_dram"},
    {SlotCategory::Backend, "BE.MEM.Store_Bound", "be_store"},
    {SlotCategory::Backend, "BE.CR.Ports_Utilization", "be_ports"},
    {SlotCategory::Backend, "BE.CR.Divider", "be_divider"},
};
static_assert(std::size(kSlotNodes) ==
              static_cast<std::size_t>(SlotNode::NumNodes));

/** Human-readable short name of a SlotNode (toplev-style). */
constexpr std::string_view
slotNodeName(SlotNode node)
{
    const auto n = static_cast<std::size_t>(node);
    return n < std::size(kSlotNodes) ? kSlotNodes[n].name : "Unknown";
}

/** Map a SlotNode to its level-1 category. */
constexpr SlotCategory
slotCategory(SlotNode node)
{
    const auto n = static_cast<std::size_t>(node);
    return n < std::size(kSlotNodes) ? kSlotNodes[n].category
                                     : SlotCategory::Backend;
}

/**
 * Pipeline-slot account. Values are in units of issue slots
 * (cycles x machine width). Plain add/subtract semantics support
 * interval deltas.
 */
struct SlotAccount
{
    std::array<double, static_cast<std::size_t>(SlotNode::NumNodes)>
        slots{};

    double &operator[](SlotNode n)
    {
        return slots[static_cast<std::size_t>(n)];
    }
    double operator[](SlotNode n) const
    {
        return slots[static_cast<std::size_t>(n)];
    }

    /** Sum over all nodes. */
    double total() const;

    /** Sum over one level-1 category. */
    double categoryTotal(SlotCategory cat) const;

    /** Fraction of total slots in node n (0 if no slots recorded). */
    double fraction(SlotNode n) const;

    /** Fraction of total slots in a level-1 category. */
    double categoryFraction(SlotCategory cat) const;

    /**
     * Node n's share of its own category's slots (how Figure 10 plots
     * its bars); 0 when the category has no slots.
     */
    double share(SlotNode n) const;

    /** Elementwise accumulate. */
    void add(const SlotAccount &other);

    /** Elementwise difference (this - since); for interval sampling. */
    SlotAccount delta(const SlotAccount &since) const;
};

/**
 * Raw event counters, the perf/LTTng view of one run or one sampling
 * interval. All counts are totals since the last reset.
 */
struct PerfCounters
{
    // Instruction mix
    std::uint64_t instructions = 0;
    std::uint64_t kernelInstructions = 0;
    std::uint64_t branches = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

    // Core
    double cycles = 0.0;

    // Branch
    std::uint64_t branchMisses = 0;
    std::uint64_t btbMisses = 0;

    // Caches
    std::uint64_t l1dMisses = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t llcMisses = 0;

    // TLBs
    std::uint64_t itlbMisses = 0;
    std::uint64_t dtlbLoadMisses = 0;
    std::uint64_t dtlbStoreMisses = 0;

    // Memory system
    std::uint64_t memReadBytes = 0;
    std::uint64_t memWriteBytes = 0;
    std::uint64_t dramAccesses = 0;
    std::uint64_t dramRowMisses = 0;
    std::uint64_t pageFaults = 0;

    // Prefetcher
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t prefetchesUseful = 0;
    std::uint64_t prefetchesUseless = 0;

    /** Elementwise accumulate. */
    void add(const PerfCounters &other);

    /** Elementwise difference (this - since); for interval sampling. */
    PerfCounters delta(const PerfCounters &since) const;

    /** Misses per kilo-instruction helper; 0 when no instructions. */
    double mpki(std::uint64_t events) const;

    /** Cycles per instruction; 0 when no instructions. */
    double cpi() const;

    /** Instructions per cycle; 0 when no cycles. */
    double ipc() const;
};

} // namespace netchar::sim

#endif // NETCHAR_SIM_COUNTERS_HH
