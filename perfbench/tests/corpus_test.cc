/**
 * @file
 * The lint-cold corpus generator: bytes are a pure function of the
 * seed, and the corpus reaches every analysis layer it is meant to.
 */

#include <gtest/gtest.h>

#include <set>

#include "corpus.hh"
#include "lint/lint.hh"

namespace
{

using namespace perfbench;

TEST(Corpus, SameSeedGivesIdenticalFiles)
{
    const CorpusShape shape;
    const auto a = generateCorpus(7, shape);
    const auto b = generateCorpus(7, shape);
    ASSERT_EQ(a.size(), shape.files);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].path, b[i].path);
        EXPECT_EQ(a[i].content, b[i].content);
    }
}

TEST(Corpus, DifferentSeedsGiveDifferentFiles)
{
    const CorpusShape shape;
    const auto a = generateCorpus(1, shape);
    const auto b = generateCorpus(2, shape);
    ASSERT_EQ(a.size(), b.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].path, b[i].path); // same layout, new contents
        differing += a[i].content != b[i].content ? 1 : 0;
    }
    EXPECT_EQ(differing, a.size());
}

TEST(Corpus, FilesLiveUnderSrcModules)
{
    std::set<std::string> paths;
    for (const CorpusFile &f : generateCorpus(3, CorpusShape{})) {
        EXPECT_EQ(f.path.rfind("src/", 0), 0u) << f.path;
        paths.insert(f.path);
    }
    EXPECT_EQ(paths.size(), CorpusShape{}.files);
}

TEST(Corpus, ReachesEveryAnalysisLayer)
{
    CorpusShape shape;
    shape.files = 24;
    std::vector<netchar::lint::SourceBuffer> sources;
    for (const CorpusFile &f : generateCorpus(5, shape))
        sources.push_back({f.path, f.content});
    const auto result = netchar::lint::lintSources(sources);
    EXPECT_EQ(result.filesScanned, shape.files);
    EXPECT_GT(result.callSites, 0u);
    std::set<std::string> rules;
    for (const auto &finding : result.findings)
        rules.insert(finding.rule);
    EXPECT_TRUE(rules.count("no-wallclock")) << "token rules";
    EXPECT_TRUE(rules.count("flow-wallclock")) << "taint across files";
    EXPECT_TRUE(rules.count("race-shared-write")) << "concurrency pass";
    EXPECT_TRUE(rules.count("lock-leak")) << "lockset paths";
}

} // namespace
