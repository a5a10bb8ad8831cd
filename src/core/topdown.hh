/**
 * @file
 * Top-Down analysis (§VI): hierarchical attribution of pipeline slots
 * to bottleneck categories, toplev-style, as labeled bars read from
 * the simulator's SlotAccount. The tree itself (nodes, categories,
 * names and export keys) is sim::kSlotNodes and sim::kSlotCategories.
 */

#ifndef NETCHAR_CORE_TOPDOWN_HH
#define NETCHAR_CORE_TOPDOWN_HH

#include <vector>

#include "core/report.hh"
#include "sim/counters.hh"

namespace netchar
{

/** The level-1 fractions of all slots as labeled bars (Figure 9's four). */
std::vector<Bar> level1Rows(const sim::SlotAccount &slots);

/** Each frontend node's share of frontend slots (Figure 10 top). */
std::vector<Bar> frontendRows(const sim::SlotAccount &slots);

/**
 * Each backend node's share of backend slots (Figure 10 bottom),
 * labeled without the "BE." prefix ("MEM.L1_Bound").
 */
std::vector<Bar> backendRows(const sim::SlotAccount &slots);

} // namespace netchar

#endif // NETCHAR_CORE_TOPDOWN_HH
