/**
 * @file
 * End-to-end integration tests asserting the paper's headline
 * qualitative findings hold in the reproduction. These are the
 * regression guards for the modeling decisions in DESIGN.md: if a
 * future change flips one of these orderings, a figure reproduction
 * has silently broken.
 */

#include <gtest/gtest.h>

#include "core/characterize.hh"
#include "workloads/registry.hh"

using namespace netchar;

namespace
{

RunOptions
fastOptions()
{
    RunOptions o;
    o.warmupInstructions = 400'000;
    o.measuredInstructions = 500'000;
    return o;
}

const Characterizer &
i9()
{
    static const Characterizer ch(
        sim::MachineConfig::intelCoreI99980Xe());
    return ch;
}

RunResult
runNamed(const char *name, RunOptions opts = fastOptions())
{
    return i9().run(*wl::findProfile(name), opts);
}

double
metric(const RunResult &r, MetricId id)
{
    return r.metrics[static_cast<std::size_t>(id)];
}

} // namespace

TEST(PaperShapeTest, AspNetExecutesFarMoreKernelCodeThanSpec)
{
    // §V-A / Fig 3.
    const auto asp = runNamed("Plaintext");
    const auto spec = runNamed("gcc");
    EXPECT_GT(metric(asp, MetricId::KernelInstructionPct), 30.0);
    EXPECT_LT(metric(spec, MetricId::KernelInstructionPct), 3.0);
}

TEST(PaperShapeTest, SpecHasMoreLoadsFewerStoresThanManaged)
{
    // §V-B / Fig 4.
    const auto managed = runNamed("System.Linq");
    const auto spec = runNamed("bwaves");
    EXPECT_GT(metric(spec, MetricId::MemoryLoadPct),
              metric(managed, MetricId::MemoryLoadPct));
    EXPECT_GT(metric(managed, MetricId::MemoryStorePct),
              metric(spec, MetricId::MemoryStorePct));
}

TEST(PaperShapeTest, ManagedSuitesHaveWorseInstructionSideMpki)
{
    // §V-E / Fig 8: I-cache and I-TLB much worse for ASP.NET than
    // SPEC FP.
    const auto asp = runNamed("MvcDbFortunesRaw");
    const auto fp = runNamed("lbm");
    EXPECT_GT(metric(asp, MetricId::L1iMpki),
              10.0 * metric(fp, MetricId::L1iMpki));
    EXPECT_GT(metric(asp, MetricId::ItlbMpki),
              10.0 * metric(fp, MetricId::ItlbMpki));
}

TEST(PaperShapeTest, SpecMemoryBoundBeatsAspNetOnLlcMisses)
{
    // Fig 8: SPEC's big-footprint programs miss the LLC far more.
    const auto asp = runNamed("Json");
    const auto mcf = runNamed("mcf");
    EXPECT_GT(metric(mcf, MetricId::LlcMpki),
              5.0 * metric(asp, MetricId::LlcMpki));
}

TEST(PaperShapeTest, DotNetMicroIsTamerThanAspNet)
{
    // Fig 8: microbenchmarks show much lower MPKIs than ASP.NET.
    const auto micro = runNamed("System.Runtime");
    const auto asp = runNamed("Plaintext");
    EXPECT_LT(metric(micro, MetricId::L1dMpki),
              metric(asp, MetricId::L1dMpki));
    EXPECT_LT(metric(micro, MetricId::L1iMpki),
              metric(asp, MetricId::L1iMpki));
    EXPECT_LT(metric(micro, MetricId::Cpi),
              metric(asp, MetricId::Cpi));
}

TEST(PaperShapeTest, ManagedFrontendBoundSpecFpBackendBound)
{
    // Fig 9.
    const auto asp = runNamed("Plaintext");
    const auto fp = runNamed("bwaves");
    using sim::SlotCategory;
    EXPECT_GT(asp.slots.categoryFraction(SlotCategory::Frontend), 0.25);
    EXPECT_LT(fp.slots.categoryFraction(SlotCategory::Frontend), 0.15);
    EXPECT_GT(fp.slots.categoryFraction(SlotCategory::Backend), 0.40);
}

TEST(PaperShapeTest, BadSpeculationIsModestForManagedSuites)
{
    // Fig 9: neither managed suite shows a large bad-spec share.
    for (const char *name : {"System.Runtime", "Json"}) {
        const auto r = runNamed(name);
        EXPECT_LT(
            r.slots.categoryFraction(sim::SlotCategory::BadSpeculation),
            0.25)
            << name;
    }
}

TEST(PaperShapeTest, L3BoundGrowsWithCoreCount)
{
    // Fig 11/12.
    auto opts = fastOptions();
    const auto p = *wl::findProfile("DbFortunesRaw");
    opts.cores = 1;
    const auto one = i9().run(p, opts);
    opts.cores = 16;
    const auto sixteen = i9().run(p, opts);
    const double l3_one = one.slots.fraction(sim::SlotNode::BeL3Bound);
    const double l3_sixteen =
        sixteen.slots.fraction(sim::SlotNode::BeL3Bound);
    EXPECT_GT(l3_sixteen, 1.5 * l3_one);
}

TEST(PaperShapeTest, ServerGcCollectsMoreAndImprovesLlc)
{
    // Fig 14 mechanism at a small heap with allocation pressure.
    auto p = *wl::findProfile("System.Linq");
    RunOptions ws = fastOptions();
    ws.allocScale = 8.0;
    ws.maxHeapBytes = 12ULL << 20;
    ws.gcMode = rt::GcMode::Workstation;
    RunOptions srv = ws;
    srv.gcMode = rt::GcMode::Server;
    const auto r_ws = i9().run(p, ws);
    const auto r_srv = i9().run(p, srv);
    EXPECT_GT(metric(r_srv, MetricId::GcTriggeredPki),
              1.5 * metric(r_ws, MetricId::GcTriggeredPki));
    EXPECT_LT(metric(r_srv, MetricId::LlcMpki),
              metric(r_ws, MetricId::LlcMpki));
}

TEST(PaperShapeTest, ArmITlbFarWorseThanIntel)
{
    // §V-D: order-of-magnitude I-TLB gap on the Arm stack.
    Characterizer arm(sim::MachineConfig::armServer());
    const auto p = *wl::findProfile("System.Linq");
    const auto r_intel = i9().run(p, fastOptions());
    const auto r_arm = arm.run(p, fastOptions());
    // The paper reports ~80x on real stacks; the model reproduces
    // the direction and a conservative multiple of it.
    EXPECT_GT(metric(r_arm, MetricId::ItlbMpki),
              4.0 * metric(r_intel, MetricId::ItlbMpki));
}

TEST(PaperShapeTest, XeonIsSlowerThanI9)
{
    // Fig 2's premise: the baseline machine is slower, so scores > 1.
    Characterizer xeon(sim::MachineConfig::intelXeonE52620V4());
    const auto p = *wl::findProfile("System.Runtime");
    const auto fast = i9().run(p, fastOptions());
    const auto slow = xeon.run(p, fastOptions());
    EXPECT_GT(slow.seconds, fast.seconds);
}

/**
 * Determinism sweep across suites: the whole pipeline (workload +
 * runtime + machine) replays identically for identical seeds.
 */
class DeterminismTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(DeterminismTest, IdenticalSeedsReplayIdentically)
{
    auto opts = fastOptions();
    opts.measuredInstructions = 200'000;
    opts.warmupInstructions = 200'000;
    const auto p = *wl::findProfile(GetParam());
    const auto a = i9().run(p, opts);
    const auto b = i9().run(p, opts);
    EXPECT_EQ(a.counters.cycles, b.counters.cycles);
    EXPECT_EQ(a.counters.llcMisses, b.counters.llcMisses);
    EXPECT_EQ(a.counters.branchMisses, b.counters.branchMisses);
    EXPECT_EQ(a.events.jitStarted, b.events.jitStarted);
}

INSTANTIATE_TEST_SUITE_P(AcrossSuites, DeterminismTest,
                         ::testing::Values("System.Runtime",
                                           "System.Net", "Plaintext",
                                           "MvcJsonNetInput2M", "mcf",
                                           "bwaves"));
