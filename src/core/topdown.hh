/**
 * @file
 * Top-Down analysis (§VI): hierarchical attribution of pipeline slots
 * to bottleneck categories, toplev-style, computed from the
 * simulator's SlotAccount.
 */

#ifndef NETCHAR_CORE_TOPDOWN_HH
#define NETCHAR_CORE_TOPDOWN_HH

#include <vector>

#include "core/report.hh"
#include "sim/counters.hh"

namespace netchar
{

/** Level-1 Top-Down breakdown (Figure 9 bars). */
struct TopDownLevel1
{
    double retiring = 0.0;
    double badSpeculation = 0.0;
    double frontendBound = 0.0;
    double backendBound = 0.0;
};

/** Level-2 frontend breakdown (Figure 10 top). */
struct FrontendBreakdown
{
    // Latency-bound
    double icacheMisses = 0.0;
    double itlbMisses = 0.0;
    double branchResteers = 0.0;
    double msSwitches = 0.0;
    // Bandwidth-bound
    double dsbBandwidth = 0.0;
    double miteBandwidth = 0.0;
};

/** Level-2 backend breakdown (Figure 10 bottom). */
struct BackendBreakdown
{
    // Memory-bound
    double l1Bound = 0.0;
    double l2Bound = 0.0;
    double l3Bound = 0.0;
    double dramBound = 0.0;
    double storeBound = 0.0;
    // Core-bound
    double portsUtilization = 0.0;
    double divider = 0.0;
};

/** Full Top-Down profile of one run. */
struct TopDownProfile
{
    TopDownLevel1 level1;
    /** Frontend children as fractions of ALL slots. */
    FrontendBreakdown frontend;
    /** Backend children as fractions of ALL slots. */
    BackendBreakdown backend;

    /**
     * Frontend children renormalized to fractions of frontend slots
     * (how Figure 10 plots its bars); zeros when no frontend slots.
     */
    FrontendBreakdown frontendShares() const;

    /** Backend children as fractions of backend slots. */
    BackendBreakdown backendShares() const;

    /** Build from a slot account. */
    static TopDownProfile fromSlots(const sim::SlotAccount &slots);
};

/** The level-1 fractions as labeled bars (Figure 9's four). */
std::vector<Bar> level1Rows(const TopDownProfile &profile);

/** The frontend shares as labeled bars. */
std::vector<Bar> frontendRows(const TopDownProfile &profile);

/** The backend shares as labeled bars. */
std::vector<Bar> backendRows(const TopDownProfile &profile);

} // namespace netchar

#endif // NETCHAR_CORE_TOPDOWN_HH
