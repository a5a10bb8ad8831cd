/**
 * @file
 * The ASP.NET benchmark suite model: 53 client/server web-framework
 * benchmarks (§II-B), including the TechEmpower scenarios the paper's
 * Table IV draws from. Profiles describe the *server side*, which is
 * where the paper takes all measurements.
 */

#ifndef NETCHAR_WORKLOADS_ASPNET_HH
#define NETCHAR_WORKLOADS_ASPNET_HH

#include <cstddef>
#include <vector>

#include "workloads/profile.hh"

namespace netchar::wl
{

/** Number of ASP.NET benchmarks. */
constexpr std::size_t kAspNetBenchmarks = 53;

/** The 53 benchmark profiles, canonical order.
 *  Built on every call; wl::registeredProfiles() keeps one copy. */
std::vector<WorkloadProfile> aspnetBenchmarks();

} // namespace netchar::wl

#endif // NETCHAR_WORKLOADS_ASPNET_HH
