#include "workloads/registry.hh"

#include <unordered_map>

namespace netchar::wl
{

namespace
{

/** Suites in registry order. */
constexpr Suite kSuites[] = {Suite::DotNet, Suite::AspNet,
                             Suite::SpecCpu17};

/** The profiles of every suite and a name index over them. */
struct Registry
{
    Registry();
    // byName views this object's own strings.
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    std::vector<WorkloadProfile> profiles;
    /** Registry index of each suite's first profile, by kSuites
     *  position, plus the end. */
    std::size_t begin[std::size(kSuites) + 1] = {};
    /** Keys view `profiles`' names, which never move once built.
     *  First registration wins, as a first-match scan would. */
    std::unordered_map<std::string_view, std::size_t> byName;
};

std::vector<WorkloadProfile>
buildSuite(Suite suite)
{
    switch (suite) {
      case Suite::DotNet: return dotnetCategories();
      case Suite::AspNet: return aspnetBenchmarks();
      case Suite::SpecCpu17: return specBenchmarks();
      default: return {};
    }
}

Registry::Registry()
{
    for (std::size_t s = 0; s < std::size(kSuites); ++s) {
        begin[s] = profiles.size();
        const auto suite = buildSuite(kSuites[s]);
        profiles.insert(profiles.end(), suite.begin(), suite.end());
    }
    begin[std::size(kSuites)] = profiles.size();
    byName.reserve(profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i)
        byName.emplace(profiles[i].name, i);
}

const Registry &
registry()
{
    static const Registry r;
    return r;
}

/** `suite`'s position in kSuites; std::size(kSuites) if none. */
std::size_t
suitePosition(Suite suite)
{
    std::size_t s = 0;
    while (s < std::size(kSuites) && kSuites[s] != suite)
        ++s;
    return s;
}

} // namespace

std::vector<WorkloadProfile>
suiteProfiles(Suite suite)
{
    const Registry &r = registry();
    const std::size_t s = suitePosition(suite);
    if (s == std::size(kSuites))
        return {};
    return {r.profiles.begin() +
                static_cast<std::ptrdiff_t>(r.begin[s]),
            r.profiles.begin() +
                static_cast<std::ptrdiff_t>(r.begin[s + 1])};
}

std::vector<WorkloadProfile>
allProfiles()
{
    return registry().profiles;
}

std::span<const WorkloadProfile>
registeredProfiles()
{
    return registry().profiles;
}

std::size_t
suiteBegin(Suite suite)
{
    return registry().begin[suitePosition(suite)];
}

std::optional<std::size_t>
profileIndex(std::string_view name)
{
    const Registry &r = registry();
    const auto it = r.byName.find(name);
    if (it == r.byName.end())
        return std::nullopt;
    return it->second;
}

std::optional<WorkloadProfile>
findProfile(std::string_view name)
{
    if (const auto index = profileIndex(name))
        return registry().profiles[*index];
    return std::nullopt;
}

namespace
{

struct SuiteKey
{
    std::string_view key;
    Suite suite;
};

/** Suite keys in listing order. */
constexpr SuiteKey kSuiteKeys[] = {
    {"dotnet", Suite::DotNet},
    {"aspnet", Suite::AspNet},
    {"spec", Suite::SpecCpu17},
};

} // namespace

std::optional<Suite>
suiteForKey(std::string_view key)
{
    for (const auto &s : kSuiteKeys)
        if (s.key == key)
            return s.suite;
    return std::nullopt;
}

std::string
suiteKeyList()
{
    std::string out;
    for (const auto &s : kSuiteKeys)
        out += (out.empty() ? "" : ", ") + std::string(s.key);
    return out;
}

} // namespace netchar::wl
