#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "workloads/profile.hh"
#include "workloads/registry.hh"

namespace wl = netchar::wl;

namespace
{

wl::WorkloadProfile
validProfile()
{
    wl::WorkloadProfile p;
    p.name = "test";
    return p;
}

} // namespace

TEST(ProfileTest, DefaultProfileValidates)
{
    EXPECT_NO_THROW(validProfile().validate());
}

TEST(ProfileTest, RejectsEmptyName)
{
    auto p = validProfile();
    p.name.clear();
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ProfileTest, RejectsBadFractions)
{
    auto p = validProfile();
    p.branchFrac = 1.2;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = validProfile();
    p.loadFrac = -0.1;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = validProfile();
    p.branchFrac = 0.5;
    p.loadFrac = 0.4;
    p.storeFrac = 0.3;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ProfileTest, RejectsBadTiers)
{
    auto p = validProfile();
    p.stackFrac = 0.6;
    p.streamFrac = 0.5;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ProfileTest, RejectsBadBranchBias)
{
    auto p = validProfile();
    p.branchBias = 0.3;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p.branchBias = 1.1;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ProfileTest, RejectsHeapSmallerThanLiveSet)
{
    auto p = validProfile();
    p.managed = true;
    p.dataFootprint = 64ULL << 20;
    p.maxHeapBytes = 32ULL << 20;
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(ProfileTest, VariantIsDeterministic)
{
    const auto base = validProfile();
    auto a = base.makeVariant(3);
    auto b = base.makeVariant(3);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_DOUBLE_EQ(a.branchFrac, b.branchFrac);
    EXPECT_DOUBLE_EQ(a.dataZipf, b.dataZipf);
}

TEST(ProfileTest, VariantsDifferAcrossIndices)
{
    const auto base = validProfile();
    auto a = base.makeVariant(1);
    auto b = base.makeVariant(2);
    EXPECT_NE(a.seed, b.seed);
    EXPECT_NE(a.branchFrac, b.branchFrac);
}

TEST(ProfileTest, VariantAlwaysValidates)
{
    const auto base = validProfile();
    for (unsigned i = 0; i < 200; ++i)
        EXPECT_NO_THROW(base.makeVariant(i, 0.4).validate()) << i;
}

TEST(RegistryTest, SuiteSizesMatchPaper)
{
    EXPECT_EQ(wl::suiteProfiles(wl::Suite::DotNet).size(),
              wl::kDotNetCategories);
    EXPECT_EQ(wl::suiteProfiles(wl::Suite::AspNet).size(),
              wl::kAspNetBenchmarks);
    EXPECT_EQ(wl::suiteProfiles(wl::Suite::SpecCpu17).size(),
              wl::kSpecBenchmarks);
    EXPECT_EQ(wl::kDotNetCategories, 44u);
    EXPECT_EQ(wl::kAspNetBenchmarks, 53u);
}

TEST(RegistryTest, MicrobenchmarkCorpusIs2906)
{
    std::size_t total = 0;
    for (std::size_t i = 0; i < wl::kDotNetCategories; ++i)
        total += wl::dotnetMicroCount(i);
    EXPECT_EQ(total, wl::kDotNetMicrobenchmarks);
    EXPECT_EQ(wl::kDotNetMicrobenchmarks, 2906u);
    const auto micros = wl::dotnetMicrobenchmarks(100'000);
    EXPECT_EQ(micros.size(), 2906u);
    EXPECT_EQ(micros.front().instructions, 100'000u);
}

TEST(RegistryTest, AllProfilesValidateAndHaveUniqueNames)
{
    const auto all = wl::allProfiles();
    EXPECT_EQ(all.size(), 44u + 53u + 20u);
    std::set<std::string> names;
    for (const auto &p : all) {
        EXPECT_NO_THROW(p.validate()) << p.name;
        EXPECT_TRUE(names.insert(p.name).second)
            << "duplicate name " << p.name;
        EXPECT_FALSE(p.description.empty()) << p.name;
    }
}

TEST(RegistryTest, ProfileNamesAreUnique)
{
    // Distinct names make the registry's name index agree with a
    // first-match scan of allProfiles().
    const auto all = wl::allProfiles();
    const auto registered = wl::registeredProfiles();
    ASSERT_EQ(registered.size(), all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        std::size_t firstMatch = 0;
        while (all[firstMatch].name != all[i].name)
            ++firstMatch;
        EXPECT_EQ(firstMatch, i) << "duplicate name " << all[i].name;
        EXPECT_EQ(wl::profileIndex(all[i].name), i) << all[i].name;
        EXPECT_EQ(registered[i].name, all[i].name);
        EXPECT_EQ(wl::findProfile(all[i].name)->seed, all[i].seed);
    }
    // Each suite sits at its registry offset, in suiteProfiles order.
    for (const auto suite : {wl::Suite::DotNet, wl::Suite::AspNet,
                             wl::Suite::SpecCpu17}) {
        const auto profiles = wl::suiteProfiles(suite);
        for (std::size_t j = 0; j < profiles.size(); ++j)
            EXPECT_EQ(registered[wl::suiteBegin(suite) + j].name,
                      profiles[j].name);
    }
    EXPECT_FALSE(wl::profileIndex("").has_value());
    EXPECT_FALSE(wl::profileIndex("seekunroll").has_value());
}

TEST(RegistryTest, TableIVSubsetNamesExist)
{
    // Table IV of the paper lists these representative benchmarks.
    for (const char *name :
         {"System.Runtime", "System.Threading", "System.ComponentModel",
          "System.Linq", "System.Net", "System.MathBenchmarks",
          "System.Diagnostics", "CscBench", "DbFortunesRaw",
          "MvcDbFortunesRaw", "MvcDbMultiUpdateRaw", "Plaintext",
          "Json", "CopyToAsync", "MvcJsonNetOutput2M",
          "MvcJsonNetInput2M", "mcf", "cactuBSSN", "wrf", "gcc",
          "omnetpp", "perlbench", "xalancbmk", "bwaves"}) {
        EXPECT_TRUE(wl::findProfile(name).has_value()) << name;
    }
    EXPECT_FALSE(wl::findProfile("no-such-benchmark").has_value());
}

TEST(RegistryTest, SuitesAreTaggedCorrectly)
{
    for (const auto &p : wl::suiteProfiles(wl::Suite::SpecCpu17)) {
        EXPECT_FALSE(p.managed) << p.name;
        EXPECT_EQ(p.suite, wl::Suite::SpecCpu17);
    }
    for (const auto &p : wl::suiteProfiles(wl::Suite::AspNet)) {
        EXPECT_TRUE(p.managed) << p.name;
        EXPECT_EQ(p.suite, wl::Suite::AspNet);
    }
}

TEST(RegistryTest, SuiteCharacterDiffersAsInPaper)
{
    // §V: ASP.NET executes far more kernel code than SPEC; managed
    // suites have more stores and fewer loads than SPEC.
    auto mean = [](const std::vector<wl::WorkloadProfile> &ps,
                   auto field) {
        double acc = 0.0;
        for (const auto &p : ps)
            acc += field(p);
        return acc / static_cast<double>(ps.size());
    };
    const auto dotnet = wl::suiteProfiles(wl::Suite::DotNet);
    const auto asp = wl::suiteProfiles(wl::Suite::AspNet);
    const auto spec = wl::suiteProfiles(wl::Suite::SpecCpu17);
    auto kernel = [](const wl::WorkloadProfile &p) {
        return p.kernelFrac;
    };
    auto stores = [](const wl::WorkloadProfile &p) {
        return p.storeFrac;
    };
    auto loads = [](const wl::WorkloadProfile &p) {
        return p.loadFrac;
    };
    EXPECT_GT(mean(asp, kernel), 4.0 * mean(spec, kernel));
    EXPECT_GT(mean(asp, kernel), mean(dotnet, kernel));
    EXPECT_GT(mean(asp, stores), mean(spec, stores));
    EXPECT_GT(mean(spec, loads), mean(asp, loads));
}

TEST(SuiteNameTest, Labels)
{
    EXPECT_EQ(wl::suiteName(wl::Suite::DotNet), ".NET");
    EXPECT_EQ(wl::suiteName(wl::Suite::AspNet), "ASP.NET");
    EXPECT_EQ(wl::suiteName(wl::Suite::SpecCpu17), "SPEC CPU17");
}
