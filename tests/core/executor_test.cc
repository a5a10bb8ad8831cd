#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/characterize.hh"
#include "core/executor.hh"
#include "core/export.hh"
#include "workloads/registry.hh"

using namespace netchar;

namespace
{

RunOptions
quickOptions()
{
    RunOptions o;
    o.warmupInstructions = 60'000;
    o.measuredInstructions = 60'000;
    return o;
}

/** First `count` dotnet categories, shrunk for test budgets. */
std::vector<wl::WorkloadProfile>
dotnetSlice(std::size_t count)
{
    auto all = wl::suiteProfiles(wl::Suite::DotNet);
    all.resize(std::min(count, all.size()));
    return all;
}

/** The serial reference: one run() per profile, in input order. */
std::vector<RunResult>
serialRuns(const Characterizer &ch,
           const std::vector<wl::WorkloadProfile> &profiles)
{
    std::vector<RunResult> out;
    for (const auto &p : profiles)
        out.push_back(ch.run(p, quickOptions()));
    return out;
}

/** Exact (bit-for-bit) equality of two run results. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.counters.instructions, b.counters.instructions);
    EXPECT_EQ(a.counters.cycles, b.counters.cycles);
    EXPECT_EQ(a.counters.branchMisses, b.counters.branchMisses);
    EXPECT_EQ(a.counters.l1dMisses, b.counters.l1dMisses);
    EXPECT_EQ(a.counters.llcMisses, b.counters.llcMisses);
    EXPECT_EQ(a.counters.dramAccesses, b.counters.dramAccesses);
    EXPECT_EQ(a.counters.pageFaults, b.counters.pageFaults);
    EXPECT_EQ(a.seconds, b.seconds);
    for (std::size_t m = 0; m < a.metrics.size(); ++m)
        EXPECT_EQ(a.metrics[m], b.metrics[m]) << "metric " << m;
    for (std::size_t s = 0; s < a.slots.slots.size(); ++s)
        EXPECT_EQ(a.slots.slots[s], b.slots.slots[s]) << "slot " << s;
}

} // namespace

TEST(ExecutorTest, RunsEveryIndexExactlyOnce)
{
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    Executor ex(4);
    EXPECT_EQ(ex.concurrency(), 4u);
    ex.forEach(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ExecutorTest, ResultsLandAtTheirIndex)
{
    constexpr std::size_t kN = 257;
    std::vector<std::size_t> out(kN, 0);
    Executor ex(3);
    ex.forEach(kN, [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ExecutorTest, ReusableAcrossBatches)
{
    Executor ex(2);
    std::atomic<int> total{0};
    for (int round = 0; round < 5; ++round)
        ex.forEach(100, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 500);
}

TEST(ExecutorTest, PropagatesLowestIndexException)
{
    constexpr std::size_t kN = 64;
    std::atomic<int> executed{0};
    Executor ex(4);
    try {
        ex.forEach(kN, [&](std::size_t i) {
            executed.fetch_add(1);
            if (i == 11)
                throw std::runtime_error("boom-11");
            if (i == 40)
                throw std::runtime_error("boom-40");
        });
        FAIL() << "forEach should rethrow";
    } catch (const std::runtime_error &e) {
        // The lowest-index exception wins under any interleaving.
        EXPECT_STREQ(e.what(), "boom-11");
    }
    // A throwing index never aborts the batch: every index still ran.
    EXPECT_EQ(executed.load(), static_cast<int>(kN));
}

TEST(ExecutorTest, ForEachCollectReportsEveryFailure)
{
    constexpr std::size_t kN = 64;
    std::atomic<int> executed{0};
    Executor ex(4);
    const auto failures = ex.forEachCollect(kN, [&](std::size_t i) {
        executed.fetch_add(1);
        if (i == 11)
            throw std::runtime_error("boom-11");
        if (i == 40)
            throw std::runtime_error("boom-40");
    });
    // Both failures surface — not just the lowest index — sorted and
    // attributed, and the batch still ran every task.
    ASSERT_EQ(failures.size(), 2u);
    EXPECT_EQ(failures[0].index, 11u);
    EXPECT_EQ(failures[0].what, "boom-11");
    EXPECT_EQ(failures[1].index, 40u);
    EXPECT_EQ(failures[1].what, "boom-40");
    EXPECT_EQ(executed.load(), static_cast<int>(kN));
    // The captured exception_ptr is the original exception.
    try {
        std::rethrow_exception(failures[1].error);
        FAIL() << "exception_ptr should rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom-40");
    }
}

TEST(ExecutorTest, ForEachCollectEmptyOnSuccess)
{
    Executor ex(2);
    const auto failures =
        ex.forEachCollect(32, [](std::size_t) {});
    EXPECT_TRUE(failures.empty());
}

TEST(ExecutorTest, ForEachCollectWorksSerially)
{
    Executor ex(1);
    const auto failures = ex.forEachCollect(8, [](std::size_t i) {
        if (i % 3 == 0)
            throw std::runtime_error("fizz-" + std::to_string(i));
    });
    ASSERT_EQ(failures.size(), 3u); // i = 0, 3, 6
    EXPECT_EQ(failures[0].index, 0u);
    EXPECT_EQ(failures[2].index, 6u);
    EXPECT_EQ(failures[2].what, "fizz-6");
}

TEST(ExecutorTest, SerialConcurrencyRunsOnCallingThread)
{
    Executor ex(1);
    EXPECT_EQ(ex.concurrency(), 1u);
    int worker = -2;
    // netchar-lint: allow(race-shared-write) -- task-disjoint: only this task writes it and forEach joins before the read
    ex.forEach(1, [&](std::size_t) { worker = Executor::workerId(); });
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(Executor::workerId(), -1); // restored outside forEach
}

TEST(ExecutorTest, TasksRunConcurrentlyWhenConcurrencyCoversTheBatch)
{
    // Each task arrives at a latch and waits for all the others, as
    // a daemon and its clients in one batch do. Polling against one
    // deadline per batch turns two tasks sharing a thread into a
    // failure, not a hang.
    for (const std::size_t n : {2u, 5u, 8u}) {
        for (const std::size_t extra : {0u, 3u}) {
            const auto concurrency = static_cast<unsigned>(n + extra);
            std::latch arrived(static_cast<std::ptrdiff_t>(n));
            std::vector<std::atomic<int>> ids(n);
            std::atomic<std::size_t> metAll{0};
            const auto deadline = std::chrono::steady_clock::now() +
                std::chrono::seconds(10);
            Executor ex(concurrency);
            ex.forEach(n, [&](std::size_t i) {
                ids[i].store(Executor::workerId());
                arrived.count_down();
                while (!arrived.try_wait()) {
                    if (std::chrono::steady_clock::now() > deadline)
                        return;
                    std::this_thread::yield();
                }
                metAll.fetch_add(1);
            });
            EXPECT_EQ(metAll.load(), n) << n << " tasks at " << concurrency;
            // One thread per task: helpers 0..n-2, then the caller.
            std::vector<int> seen;
            for (const auto &id : ids)
                seen.push_back(id.load());
            std::sort(seen.begin(), seen.end());
            for (std::size_t w = 0; w + 1 < n; ++w)
                EXPECT_EQ(seen[w], static_cast<int>(w));
            EXPECT_EQ(seen.back(), static_cast<int>(concurrency - 1));
        }
    }
}

TEST(ExecutorTest, StealsDrainASlowBlock)
{
    // Index 0 opens block 0 and holds its thread until every other
    // index has run, so the rest of block 0 is taken by the other
    // executors.
    constexpr std::size_t kN = 64;
    std::atomic<std::size_t> done{0};
    std::atomic<bool> othersFirst{false};
    Executor ex(4);
    ex.forEach(kN, [&](std::size_t i) {
        if (i != 0) {
            done.fetch_add(1);
            return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (done.load() < kN - 1 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        othersFirst.store(done.load() == kN - 1);
    });
    EXPECT_TRUE(othersFirst.load());
    EXPECT_GT(ex.stealCount(), 0u);

    // A serial executor has no one to steal from.
    Executor serial(1);
    serial.forEach(kN, [&](std::size_t) { done.fetch_add(1); });
    EXPECT_EQ(serial.stealCount(), 0u);
}

TEST(ParallelRunAllTest, MatchesSerialBitForBit)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = dotnetSlice(6);
    ASSERT_EQ(profiles.size(), 6u);
    const auto serial = serialRuns(ch, profiles);
    Parallelism par;
    par.jobs = 4;
    const auto parallel =
        ch.runAll(profiles, quickOptions(), par, nullptr);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], parallel[i]);
}

TEST(ParallelRunAllTest, ExportsAreByteIdenticalOnAllMachines)
{
    // The acceptance invariant: CSV/JSON bytes independent of --jobs,
    // over a 10-profile dotnet slice on all three machine models.
    const auto profiles = dotnetSlice(10);
    ASSERT_EQ(profiles.size(), 10u);
    std::vector<std::string> names;
    for (const auto &p : profiles)
        names.push_back(p.name);
    const sim::MachineConfig machines[] = {
        sim::MachineConfig::intelCoreI99980Xe(),
        sim::MachineConfig::intelXeonE52620V4(),
        sim::MachineConfig::armServer(),
    };
    for (const auto &mc : machines) {
        Characterizer ch(mc);
        const auto serial = serialRuns(ch, profiles);
        Parallelism par;
        par.jobs = 3;
        const auto parallel =
            ch.runAll(profiles, quickOptions(), par, nullptr);
        EXPECT_EQ(metricsCsv(names, serial),
                  metricsCsv(names, parallel))
            << mc.name;
        EXPECT_EQ(suiteJson(names, serial),
                  suiteJson(names, parallel))
            << mc.name;
    }
}

TEST(ParallelRunAllTest, FailedRunIsRetriedRecordedAndContained)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    auto profiles = dotnetSlice(3);
    // branchFrac > 1 fails WorkloadProfile::validate() inside every
    // run attempt, deterministically.
    profiles[1].branchFrac = 2.0;
    Parallelism par;
    par.jobs = 2;
    SuiteRunStats stats;
    const auto results =
        ch.runAll(profiles, quickOptions(), par, &stats);
    ASSERT_EQ(results.size(), 3u);
    ASSERT_EQ(stats.runs.size(), 3u);

    EXPECT_TRUE(stats.runs[0].succeeded);
    EXPECT_TRUE(stats.runs[2].succeeded);
    EXPECT_FALSE(stats.runs[1].succeeded);
    EXPECT_EQ(stats.runs[1].attempts, 2u); // retried once
    EXPECT_FALSE(stats.runs[1].error.empty());
    EXPECT_EQ(stats.failedRuns(), 1u);
    EXPECT_EQ(stats.retriedRuns(), 1u);

    // The sweep was not aborted: neighbours carry real results, the
    // failed slot stays default-constructed.
    EXPECT_GT(results[0].counters.instructions, 0u);
    EXPECT_GT(results[2].counters.instructions, 0u);
    EXPECT_EQ(results[1].counters.instructions, 0u);
}

TEST(ParallelRunAllTest, StatsLedgerIsCoherent)
{
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = dotnetSlice(5);
    Parallelism par;
    par.jobs = 2;
    SuiteRunStats stats;
    ch.runAll(profiles, quickOptions(), par, &stats);
    EXPECT_EQ(stats.jobs, 2u);
    EXPECT_GT(stats.wallSeconds, 0.0);
    EXPECT_GT(stats.busySeconds, 0.0);
    EXPECT_GT(stats.utilization(), 0.0);
    ASSERT_EQ(stats.runs.size(), profiles.size());
    for (std::size_t i = 0; i < stats.runs.size(); ++i) {
        EXPECT_EQ(stats.runs[i].index, i);
        EXPECT_EQ(stats.runs[i].benchmark, profiles[i].name);
        EXPECT_GT(stats.runs[i].wallSeconds, 0.0);
        EXPECT_GE(stats.runs[i].worker, 0);
        EXPECT_LT(stats.runs[i].worker, 2);
    }
    // The ledger exports round-trip without throwing and carry the
    // engine aggregates.
    const auto csv = suiteStatsCsv(stats);
    EXPECT_NE(csv.find("index,benchmark,attempts"), std::string::npos);
    const auto json = suiteStatsJson(stats);
    EXPECT_NE(json.find("\"utilization\":"), std::string::npos);
    EXPECT_NE(json.find("\"failed_runs\":0"), std::string::npos);
}

TEST(ParallelRunAllTest, OneJobRunsOnTheCallingThread)
{
    // jobs 1 is Executor(1): no helper thread, the caller is executor 0.
    Characterizer ch(sim::MachineConfig::intelCoreI99980Xe());
    const auto profiles = dotnetSlice(2);
    SuiteRunStats stats;
    ch.runAll(profiles, quickOptions(), Parallelism{}, &stats);
    EXPECT_EQ(stats.jobs, 1u);
    EXPECT_EQ(stats.steals, 0u);
    ASSERT_EQ(stats.runs.size(), 2u);
    for (const auto &r : stats.runs)
        EXPECT_EQ(r.worker, 0);
}
