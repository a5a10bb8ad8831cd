/**
 * @file
 * Registry: uniform access to every modeled benchmark suite, with
 * lookup by name and suite filtering — the entry point bench binaries
 * and examples use.
 */

#ifndef NETCHAR_WORKLOADS_REGISTRY_HH
#define NETCHAR_WORKLOADS_REGISTRY_HH

#include <optional>
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

/** Find a profile by exact name across all suites. */
std::optional<WorkloadProfile> findProfile(std::string_view name);

/** The suite registered under the short key the CLI and wire use
 *  ("dotnet", "aspnet", "spec"), if any. */
std::optional<Suite> suiteForKey(std::string_view key);

/** The valid keys for error messages: "dotnet, aspnet, spec". */
std::string suiteKeyList();

} // namespace netchar::wl

#endif // NETCHAR_WORKLOADS_REGISTRY_HH
