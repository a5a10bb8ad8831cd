/**
 * @file
 * SPEC CPU17 comparison-suite model: 20 native benchmark profiles
 * (10 SPECrate-int + 10 SPECrate-fp programs), the baseline the paper
 * compares .NET/ASP.NET against in §V.
 */

#ifndef NETCHAR_WORKLOADS_SPEC_HH
#define NETCHAR_WORKLOADS_SPEC_HH

#include <cstddef>
#include <vector>

#include "workloads/profile.hh"

namespace netchar::wl
{

/** Number of SPEC CPU17 benchmarks modeled. */
constexpr std::size_t kSpecBenchmarks = 20;

/** The 20 SPEC CPU17 profiles, canonical order (int then fp).
 *  Built on every call; wl::registeredProfiles() keeps one copy. */
std::vector<WorkloadProfile> specBenchmarks();

} // namespace netchar::wl

#endif // NETCHAR_WORKLOADS_SPEC_HH
