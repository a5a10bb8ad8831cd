#include "workloads/registry.hh"

namespace netchar::wl
{

std::vector<WorkloadProfile>
suiteProfiles(Suite suite)
{
    switch (suite) {
      case Suite::DotNet: return dotnetCategories();
      case Suite::AspNet: return aspnetBenchmarks();
      case Suite::SpecCpu17: return specBenchmarks();
      default: return {};
    }
}

std::vector<WorkloadProfile>
allProfiles()
{
    std::vector<WorkloadProfile> out = dotnetCategories();
    const auto asp = aspnetBenchmarks();
    out.insert(out.end(), asp.begin(), asp.end());
    const auto spec = specBenchmarks();
    out.insert(out.end(), spec.begin(), spec.end());
    return out;
}

std::optional<WorkloadProfile>
findProfile(std::string_view name)
{
    for (auto &p : allProfiles())
        if (p.name == name)
            return p;
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
