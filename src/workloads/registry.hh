/**
 * @file
 * Registry: uniform access to every modeled benchmark suite, with
 * lookup by name and suite filtering — the entry point bench binaries
 * and examples use.
 */

#ifndef NETCHAR_WORKLOADS_REGISTRY_HH
#define NETCHAR_WORKLOADS_REGISTRY_HH

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "workloads/aspnet.hh"
#include "workloads/dotnet.hh"
#include "workloads/profile.hh"
#include "workloads/spec.hh"

namespace netchar::wl
{

/** All profiles of one suite (category level for .NET). */
std::vector<WorkloadProfile> suiteProfiles(Suite suite);

/** Every suite concatenated: .NET categories + ASP.NET + SPEC. */
std::vector<WorkloadProfile> allProfiles();

/**
 * Every suite's profiles in allProfiles() order, built once on first
 * use and immutable after. A profile's position here is its registry
 * index; each suite's profiles sit together, starting at
 * suiteBegin(suite).
 */
std::span<const WorkloadProfile> registeredProfiles();

/** Registry index of `suite`'s first profile. */
std::size_t suiteBegin(Suite suite);

/** Registry index of the profile named exactly `name` (names are
 *  unique across suites). */
std::optional<std::size_t> profileIndex(std::string_view name);

/** Find a profile by exact name across all suites. */
std::optional<WorkloadProfile> findProfile(std::string_view name);

/** The suite registered under the short key the CLI and wire use
 *  ("dotnet", "aspnet", "spec"), if any. */
std::optional<Suite> suiteForKey(std::string_view key);

/** The valid keys for error messages: "dotnet, aspnet, spec". */
std::string suiteKeyList();

} // namespace netchar::wl

#endif // NETCHAR_WORKLOADS_REGISTRY_HH
