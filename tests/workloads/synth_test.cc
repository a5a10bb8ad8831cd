#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "sim/machine.hh"
#include "workloads/registry.hh"
#include "workloads/synth.hh"

namespace wl = netchar::wl;
namespace sim = netchar::sim;

namespace
{

sim::MachineConfig
machineConfig()
{
    return sim::MachineConfig::intelCoreI99980Xe();
}

/** Small managed profile that runs fast in tests. */
wl::WorkloadProfile
testProfile()
{
    wl::WorkloadProfile p;
    p.name = "synthtest";
    p.instructions = 200'000;
    p.methods = 64;
    p.dataFootprint = 1 << 20;
    p.maxHeapBytes = 8 << 20;
    return p;
}

} // namespace

TEST(SynthTest, ExecutesRequestedInstructionCount)
{
    sim::Machine m(machineConfig());
    wl::SynthWorkload w(testProfile(), 1);
    w.run(m.core(0), 100'000);
    EXPECT_EQ(w.executed(), 100'000u);
    EXPECT_EQ(m.totalCounters().instructions, 100'000u);
}

TEST(SynthTest, DeterministicForSameSeed)
{
    auto run = [](std::uint64_t seed) {
        sim::Machine m(machineConfig());
        wl::SynthWorkload w(testProfile(), seed);
        w.run(m.core(0), 300'000);
        return m.totalCounters();
    };
    const auto a = run(7);
    const auto b = run(7);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.branchMisses, b.branchMisses);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
}

TEST(SynthTest, DifferentSeedsDiffer)
{
    auto run = [](std::uint64_t seed) {
        sim::Machine m(machineConfig());
        wl::SynthWorkload w(testProfile(), seed);
        w.run(m.core(0), 300'000);
        return m.totalCounters();
    };
    EXPECT_NE(run(1).cycles, run(2).cycles);
}

TEST(SynthTest, InstructionMixTracksProfile)
{
    sim::Machine m(machineConfig());
    auto p = testProfile();
    p.branchFrac = 0.20;
    p.loadFrac = 0.30;
    p.storeFrac = 0.15;
    wl::SynthWorkload w(p, 1);
    w.run(m.core(0), 500'000);
    const auto c = m.totalCounters();
    const double n = static_cast<double>(c.instructions);
    EXPECT_NEAR(static_cast<double>(c.branches) / n, 0.20, 0.04);
    EXPECT_NEAR(static_cast<double>(c.loads) / n, 0.30, 0.05);
    EXPECT_NEAR(static_cast<double>(c.stores) / n, 0.15, 0.05);
}

TEST(SynthTest, KernelFractionTracksProfile)
{
    auto measure = [](double kernel_frac) {
        sim::Machine m(machineConfig());
        auto p = testProfile();
        p.kernelFrac = kernel_frac;
        wl::SynthWorkload w(p, 1);
        w.run(m.core(0), 600'000);
        const auto c = m.totalCounters();
        return static_cast<double>(c.kernelInstructions) /
               static_cast<double>(c.instructions);
    };
    EXPECT_NEAR(measure(0.40), 0.40, 0.10);
    EXPECT_NEAR(measure(0.05), 0.05, 0.03);
    EXPECT_LT(measure(0.0), 0.001);
}

TEST(SynthTest, NativeProfileHasNoClr)
{
    auto p = *wl::findProfile("mcf");
    p.instructions = 50'000;
    sim::Machine m(machineConfig());
    wl::SynthWorkload w(p, 1);
    EXPECT_EQ(w.clr(), nullptr);
    w.run(m.core(0), 50'000);
    EXPECT_EQ(m.totalCounters().instructions, 50'000u);
}

TEST(SynthTest, ManagedProfileEmitsRuntimeEvents)
{
    sim::Machine m(machineConfig());
    auto p = testProfile();
    p.allocBytesPerInst = 2.0;
    p.maxHeapBytes = 4 << 20;
    p.dataFootprint = 1 << 20;
    p.exceptionPki = 0.5;
    p.contentionPki = 0.5;
    wl::SynthWorkload w(p, 1);
    w.run(m.core(0), 800'000);
    ASSERT_NE(w.clr(), nullptr);
    const auto &ev = w.clr()->trace().counts();
    EXPECT_GT(ev.jitStarted, 0u);
    EXPECT_GT(ev.gcAllocationTick, 0u);
    EXPECT_GT(ev.gcTriggered, 0u);
    EXPECT_GT(ev.exceptionStart, 0u);
    EXPECT_GT(ev.contentionStart, 0u);
}

TEST(SynthTest, GcCompactionReducesHeapSpread)
{
    sim::Machine m(machineConfig());
    auto p = testProfile();
    p.allocBytesPerInst = 2.0;
    p.maxHeapBytes = 4 << 20;
    p.dataFootprint = 1 << 20;
    wl::SynthWorkload w(p, 1);
    w.run(m.core(0), 800'000);
    ASSERT_GT(w.clr()->gc().collections(), 0u);
    // After enough allocation the spread must have been compacted at
    // least once; it can never exceed the heap maximum.
    EXPECT_LE(w.clr()->heap().spreadBytes(), p.maxHeapBytes);
}

TEST(SynthTest, SharedClrAcrossCores)
{
    const auto p = testProfile();
    auto clr = wl::SynthWorkload::makeClr(p, 42);
    sim::Machine m(machineConfig(), 2);
    wl::SynthWorkload w0(p, 1, clr);
    wl::SynthWorkload w1(p, 2, clr);
    w0.run(m.core(0), 100'000);
    w1.run(m.core(1), 100'000);
    EXPECT_EQ(w0.clr(), w1.clr());
    // Method addresses agree across cores (one process).
    EXPECT_EQ(clr->jit().method(0).address,
              w1.clr()->jit().method(0).address);
}

TEST(SynthTest, SharedClrWarmsTheLlcOncePerProcess)
{
    // Two cores of one process: core 0's start loads the working set
    // into the shared LLC, and core 1's start must not load it again.
    const auto p = testProfile();
    auto clr = wl::SynthWorkload::makeClr(p, 42);
    sim::Machine m(machineConfig(), 2);
    wl::SynthWorkload w0(p, 1, clr);
    wl::SynthWorkload w1(p, 2, clr);
    w0.run(m.core(0), 1);
    const std::uint64_t heap_line = clr->heap().base();
    ASSERT_TRUE(m.llc().contains(heap_line));
    // Flush the LLC with one large unrelated range.
    const sim::LlcRange flush{0x0000'2000'0000'0000ULL, 64ULL << 20};
    m.core(0).preloadLlc(std::span(&flush, 1));
    ASSERT_FALSE(m.llc().contains(heap_line));
    w1.run(m.core(1), 1);
    EXPECT_FALSE(m.llc().contains(heap_line));
}

TEST(SynthTest, OneCoreManagedStartWarmsTheLlc)
{
    const auto p = testProfile();
    sim::Machine m(machineConfig());
    wl::SynthWorkload w(p, 1);
    w.run(m.core(0), 1);
    EXPECT_TRUE(m.llc().contains(w.clr()->heap().base()));
}

TEST(SynthTest, ManagedSuiteIsMoreFrontendBoundThanSpecFp)
{
    // The paper's headline: .NET-style workloads stress the I-side
    // far more than SPEC FP-style workloads.
    auto fe_fraction = [](const wl::WorkloadProfile &profile) {
        sim::Machine m(machineConfig());
        wl::SynthWorkload w(profile, 1);
        w.run(m.core(0), 400'000);
        const auto snap_s = m.totalSlots();
        const auto snap_c = m.totalCounters();
        w.run(m.core(0), 400'000);
        (void)snap_c;
        return m.totalSlots().delta(snap_s).categoryFraction(
            sim::SlotCategory::Frontend);
    };
    auto asp = *wl::findProfile("Plaintext");
    auto fp = *wl::findProfile("lbm");
    EXPECT_GT(fe_fraction(asp), 2.0 * fe_fraction(fp));
}

TEST(SynthTest, JitRelocationCausesIcacheColdStarts)
{
    // Tier-up re-JITs move hot methods to fresh pages; compared to a
    // tiering-disabled run, steady state must show more I-cache
    // misses (§VII-A1's cold-start effect).
    auto icache_mpki = [](unsigned tier_threshold) {
        sim::Machine m(machineConfig());
        auto p = testProfile();
        p.tierUpCallThreshold = tier_threshold;
        wl::SynthWorkload w(p, 1);
        w.run(m.core(0), 200'000); // warmup
        const auto snap = m.totalCounters();
        w.run(m.core(0), 400'000);
        const auto c = m.totalCounters().delta(snap);
        return c.mpki(c.l1iMisses);
    };
    const double with_tiering = icache_mpki(400);
    const double without = icache_mpki(0);
    EXPECT_GT(with_tiering, without);
}

TEST(SynthTest, ArmSpreadFactorsRaiseITlbPressure)
{
    auto itlb_mpki = [](double code_spread) {
        sim::Machine m(sim::MachineConfig::armServer());
        auto p = testProfile();
        p.methods = 256;
        wl::SynthWorkload w(p, 1, nullptr, {code_spread, 1.0});
        w.run(m.core(0), 200'000);
        const auto snap = m.totalCounters();
        w.run(m.core(0), 300'000);
        const auto c = m.totalCounters().delta(snap);
        return c.mpki(c.itlbMisses);
    };
    EXPECT_GT(itlb_mpki(14.0), itlb_mpki(1.0));
}
