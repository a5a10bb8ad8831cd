#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "runtime/clr.hh"
#include "runtime/events.hh"
#include "runtime/jit.hh"
#include "stats/rng.hh"

namespace rt = netchar::rt;

namespace
{

rt::JitConfig
smallJit()
{
    rt::JitConfig cfg;
    cfg.methods = 16;
    cfg.meanMethodBytes = 512;
    cfg.tierUpCallThreshold = 8;
    return cfg;
}

rt::Jit
makeJit(const rt::JitConfig &cfg = smallJit())
{
    return rt::Jit(cfg, netchar::stats::Rng(1234));
}

} // namespace

TEST(JitTest, ConfigValidation)
{
    rt::JitConfig cfg = smallJit();
    cfg.methods = 0;
    EXPECT_THROW(makeJit(cfg), std::invalid_argument);
    cfg = smallJit();
    cfg.meanMethodBytes = 0;
    EXPECT_THROW(makeJit(cfg), std::invalid_argument);
}

TEST(JitTest, FirstCallCompiles)
{
    auto jit = makeJit();
    auto out = jit.invoke(0);
    EXPECT_TRUE(out.jitted);
    EXPECT_GT(out.compileInstructions, 0u);
    EXPECT_NE(out.address, 0u);
    EXPECT_EQ(out.oldAddress, 0u);
    EXPECT_EQ(jit.compilations(), 1u);
}

TEST(JitTest, SecondCallIsPlain)
{
    auto jit = makeJit();
    jit.invoke(0);
    auto out = jit.invoke(0);
    EXPECT_FALSE(out.jitted);
    EXPECT_EQ(out.compileInstructions, 0u);
    EXPECT_EQ(jit.compilations(), 1u);
}

TEST(JitTest, TierUpRelocatesMethod)
{
    auto jit = makeJit(); // tier-up at 8 calls
    const auto tier0 = jit.invoke(0).address;
    rt::JitOutcome tier1_out;
    for (int i = 0; i < 10; ++i) {
        auto out = jit.invoke(0);
        if (out.jitted)
            tier1_out = out;
    }
    EXPECT_EQ(jit.method(0).tier, 1u);
    EXPECT_NE(jit.method(0).address, tier0);
    EXPECT_EQ(tier1_out.oldAddress, tier0);
    // Optimizing compile costs more than the tier-0 compile.
    EXPECT_GT(tier1_out.compileInstructions, 0u);
}

TEST(JitTest, TieringDisabledNeverRecompiles)
{
    auto cfg = smallJit();
    cfg.tierUpCallThreshold = 0;
    auto jit = makeJit(cfg);
    for (int i = 0; i < 100; ++i)
        jit.invoke(3);
    EXPECT_EQ(jit.compilations(), 1u);
    EXPECT_EQ(jit.method(3).tier, 0u);
}

TEST(JitTest, MethodsLandOnDistinctFreshPages)
{
    auto jit = makeJit();
    std::set<std::uint64_t> pages;
    for (unsigned i = 0; i < jit.methodCount(); ++i) {
        auto out = jit.invoke(i);
        EXPECT_TRUE(out.jitted);
        EXPECT_TRUE(pages.insert(out.newPageAddress).second)
            << "two methods shared a fresh page";
        EXPECT_EQ(out.newPageAddress % 4096, 0u);
    }
}

TEST(JitTest, CodeBytesGrowMonotonically)
{
    auto jit = makeJit();
    std::uint64_t last = 0;
    for (unsigned i = 0; i < 8; ++i) {
        jit.invoke(i);
        EXPECT_GT(jit.codeBytesEmitted(), last);
        last = jit.codeBytesEmitted();
    }
}

TEST(JitTest, InvokeOutOfRangeThrows)
{
    auto jit = makeJit();
    EXPECT_THROW(jit.invoke(999), std::out_of_range);
    EXPECT_THROW(jit.method(999), std::out_of_range);
}

TEST(JitTest, ResetForgetsCode)
{
    auto jit = makeJit();
    jit.invoke(0);
    jit.reset();
    EXPECT_EQ(jit.compilations(), 0u);
    EXPECT_EQ(jit.codeBytesEmitted(), 0u);
    EXPECT_TRUE(jit.invoke(0).jitted); // compiles again
}

TEST(EventTraceTest, RecordAndPki)
{
    rt::EventTrace trace;
    trace.record(rt::RuntimeEventType::GcTriggered);
    trace.record(rt::RuntimeEventType::GcTriggered);
    trace.record(rt::RuntimeEventType::JitStarted);
    EXPECT_EQ(trace.counts().gcTriggered, 2u);
    EXPECT_EQ(trace.counts().jitStarted, 1u);
    EXPECT_DOUBLE_EQ(
        trace.counts().pki(rt::RuntimeEventType::GcTriggered, 1000),
        2.0);
}

TEST(EventTraceTest, DeltaSupportsSampling)
{
    rt::EventTrace trace;
    trace.record(rt::RuntimeEventType::ExceptionStart);
    const auto snap = trace.counts();
    trace.record(rt::RuntimeEventType::ExceptionStart);
    trace.record(rt::RuntimeEventType::ContentionStart);
    const auto d = trace.counts().delta(snap);
    EXPECT_EQ(d.exceptionStart, 1u);
    EXPECT_EQ(d.contentionStart, 1u);
    EXPECT_EQ(d.gcTriggered, 0u);
}

namespace
{

rt::ClrConfig
smallClr()
{
    rt::ClrConfig cfg;
    cfg.heap.maxBytes = 8 * 1024 * 1024;
    cfg.heap.liveBytes = 1 * 1024 * 1024;
    cfg.jit = smallJit();
    cfg.allocTickBytes = 64 * 1024;
    return cfg;
}

} // namespace

TEST(ClrTest, AllocationTickEveryThreshold)
{
    rt::Clr clr(smallClr(), 7);
    for (int i = 0; i < 64; ++i)
        clr.allocate(1024); // 64 KiB total: exactly one tick
    EXPECT_EQ(clr.trace().counts().gcAllocationTick, 1u);
}

TEST(ClrTest, GcTriggeredByAllocationPressure)
{
    rt::Clr clr(smallClr(), 7);
    bool saw_gc = false;
    for (int i = 0; i < 4096 && !saw_gc; ++i)
        saw_gc = clr.allocate(4096).gcTriggered;
    EXPECT_TRUE(saw_gc);
    EXPECT_EQ(clr.trace().counts().gcTriggered, 1u);
    EXPECT_EQ(clr.gc().collections(), 1u);
}

TEST(ClrTest, InvokeMethodRecordsJitEvents)
{
    rt::Clr clr(smallClr(), 7);
    clr.invokeMethod(0);
    clr.invokeMethod(0);
    clr.invokeMethod(1);
    EXPECT_EQ(clr.trace().counts().jitStarted, 2u);
}

TEST(ClrTest, ExceptionAndContentionEvents)
{
    rt::Clr clr(smallClr(), 7);
    clr.throwException();
    clr.contend();
    clr.contend();
    EXPECT_EQ(clr.trace().counts().exceptionStart, 1u);
    EXPECT_EQ(clr.trace().counts().contentionStart, 2u);
}

TEST(ClrTest, ResetRestoresFreshProcess)
{
    rt::Clr clr(smallClr(), 7);
    clr.invokeMethod(0);
    clr.allocate(256 * 1024);
    clr.reset();
    EXPECT_EQ(clr.trace().counts().jitStarted, 0u);
    EXPECT_EQ(clr.heap().totalAllocated(), 0u);
    EXPECT_EQ(clr.jit().compilations(), 0u);
}

TEST(ClrTest, DeterministicAcrossIdenticalSeeds)
{
    rt::Clr a(smallClr(), 99), b(smallClr(), 99);
    for (unsigned i = 0; i < 8; ++i) {
        EXPECT_EQ(a.invokeMethod(i).address,
                  b.invokeMethod(i).address);
    }
}
