#include "workloads/synth.hh"

#include <algorithm>
#include <cmath>

namespace netchar::wl
{

namespace
{

// Virtual-address map of the simulated process (all below 2^47).
constexpr std::uint64_t kNativeCodeBase = 0x0000'4000'0000'0000ULL;
constexpr std::uint64_t kNativeDataBase = 0x0000'6000'0000'0000ULL;
constexpr std::uint64_t kRuntimeCodeBase = 0x0000'7E00'0000'0000ULL;
constexpr std::uint64_t kJitCompilerCode = 0x0000'7E10'0000'0000ULL;
constexpr std::uint64_t kGcCode = 0x0000'7E20'0000'0000ULL;
constexpr std::uint64_t kIrBufferBase = 0x0000'7E30'0000'0000ULL;
constexpr std::uint64_t kStackBase = 0x0000'7FFE'0000'0000ULL;
constexpr std::uint64_t kKernelCodeBase = 0x0000'7FF0'0000'0000ULL;
constexpr std::uint64_t kKernelDataBase = 0x0000'7FF8'0000'0000ULL;
constexpr std::uint64_t kSharedLockLine = 0x0000'7FFC'0000'0000ULL;

// Kernel image: the networking stack and syscall surface are large.
constexpr std::uint64_t kKernelCodeBytes = 1536 * 1024;
constexpr std::uint64_t kKernelDataBytes = 2 * 1024 * 1024;
constexpr std::uint64_t kJitCompilerBytes = 256 * 1024;
constexpr std::uint64_t kGcCodeBytes = 24 * 1024;
constexpr std::uint64_t kIrBufferBytes = 256 * 1024;
constexpr std::uint64_t kStackBytes = 8 * 1024;

/** Cheap deterministic hash for per-branch-site defaults. */
std::uint64_t
siteHash(std::uint64_t pc)
{
    std::uint64_t z = pc * 0x9E3779B97F4A7C15ULL;
    z ^= z >> 29;
    z *= 0xBF58476D1CE4E5B9ULL;
    z ^= z >> 32;
    return z;
}

} // namespace

std::shared_ptr<rt::Clr>
SynthWorkload::makeClr(const WorkloadProfile &profile, std::uint64_t seed,
                       SpreadFactors spread)
{
    rt::ClrConfig cfg;
    cfg.heap.liveBytes = profile.dataFootprint;
    cfg.heap.maxBytes =
        std::max(profile.maxHeapBytes, profile.dataFootprint);
    cfg.gc.mode = profile.gcMode;
    cfg.gc.assist = profile.gcAssist;
    cfg.jit.methods = profile.methods;
    cfg.jit.meanMethodBytes = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(
                static_cast<double>(profile.meanMethodBytes) *
                spread.code));
    // Scaled-simulation compile cost: startup jitting of the whole
    // method table must fit inside a warmup run while still emitting
    // visible compile bursts (Fig 13a's JIT events).
    cfg.jit.compileInstPerByte = 0.30;
    cfg.jit.tierUpCallThreshold = profile.tierUpCallThreshold;
    if (spread.code > 1.0 && cfg.jit.tierUpCallThreshold > 0) {
        // Immature stacks (§V-D) re-tier sooner and churn more code,
        // one of the drivers of the Arm LLC/I-side gap.
        cfg.jit.tierUpCallThreshold = std::max(
            8u, cfg.jit.tierUpCallThreshold / 3);
    }
    return std::make_shared<rt::Clr>(cfg, seed);
}

SynthWorkload::SynthWorkload(const WorkloadProfile &profile,
                             std::uint64_t run_seed,
                             std::shared_ptr<rt::Clr> shared_clr,
                             SpreadFactors spread)
    : profile_(profile),
      spread_(spread),
      rng_(stats::Rng(profile.seed).fork(run_seed))
{
    profile_.validate();
    const double non_branch = 1.0 - profile_.branchFrac;
    rates_.load = profile_.loadFrac / non_branch;
    rates_.store = profile_.storeFrac / non_branch;
    rates_.mul = profile_.mulFrac / non_branch;
    rates_.div = profile_.divFrac / non_branch;
    if (profile_.kernelFrac > 0.0 && profile_.kernelFrac < 1.0)
        rates_.kernelEntry = profile_.kernelFrac /
            ((1.0 - profile_.kernelFrac) * profile_.kernelBurstLen);
    rates_.exception = profile_.exceptionPki / 1000.0;
    rates_.contention = profile_.contentionPki / 1000.0;
    if (profile_.managed) {
        clr_ = shared_clr
            ? std::move(shared_clr)
            : makeClr(profile_, profile_.seed ^ run_seed, spread_);
    } else {
        // Static native code layout, sizes jittered per method.
        nativeBase_.reserve(profile_.methods);
        nativeBytes_.reserve(profile_.methods);
        std::uint64_t cursor = kNativeCodeBase;
        stats::Rng layout = stats::Rng(profile_.seed).fork(0xC0DE);
        for (unsigned i = 0; i < profile_.methods; ++i) {
            const auto bytes = std::max<std::uint64_t>(
                64, static_cast<std::uint64_t>(
                        layout.jitter(
                            static_cast<double>(
                                profile_.meanMethodBytes) *
                                spread_.code,
                            0.6)));
            nativeBase_.push_back(cursor);
            nativeBytes_.push_back(bytes);
            // Native functions pack densely (the linker lays them
            // out back to back), unlike 4 KiB-granular JIT pages.
            cursor += (bytes + 63) & ~std::uint64_t{63};
        }
    }
    methodBase_ = kNativeCodeBase; // replaced by enterMethod()
    methodBytes_ = 256;
    workerOffset_ = (run_seed % 31) * 448 * 1024;
}

std::uint64_t
SynthWorkload::dataRegionBytes() const
{
    const std::uint64_t base_bytes = profile_.managed
        ? clr_->heap().spreadBytes()
        : profile_.dataFootprint;
    return std::max<std::uint64_t>(4096, base_bytes);
}

std::uint64_t
SynthWorkload::dataAddress()
{
    const double roll = rng_.uniform();
    if (roll < profile_.stackFrac) {
        // Hot stack frame: permanently L1-resident.
        return kStackBase + rng_.below(kStackBytes);
    }

    const std::uint64_t region = dataRegionBytes();
    const std::uint64_t base = profile_.managed
        ? clr_->heap().base()
        : kNativeDataBase;
    double edge = profile_.stackFrac + profile_.streamFrac;
    std::uint64_t offset;
    if (roll < edge) {
        // Streaming walk, 8 B stride (one line per 8 accesses).
        streamOffset_ = (streamOffset_ + 8) % region;
        offset = streamOffset_;
    } else if (roll < (edge += profile_.warmFrac)) {
        // Warm tier: an L2-scale slice of the footprint behind the
        // allocation frontier, displaced per worker.
        const std::uint64_t warm_bytes =
            std::min<std::uint64_t>(region, 384 * 1024);
        const std::uint64_t displace =
            std::min(workerOffset_, region - warm_bytes);
        offset = region - 1 - displace - rng_.below(warm_bytes);
    } else if (roll < edge + profile_.coolFrac) {
        // Cool tier: frontier-hot zipf over the whole footprint.
        // Compaction shrinks `region`, and heap fragmentation
        // (garbage diluting live data between GCs) inflates the
        // reuse distance of older data.
        const std::uint64_t lines =
            std::max<std::uint64_t>(1, region / 64);
        std::uint64_t rank = rng_.zipf(lines, profile_.dataZipf);
        if (profile_.managed) {
            const double frag = clr_->heap().fragmentation();
            rank = std::min<std::uint64_t>(
                lines - 1, static_cast<std::uint64_t>(
                               static_cast<double>(rank) * frag));
        }
        offset = (lines - 1 - rank) * 64 + rng_.below(64);
    } else {
        // Hot tier: a small L1-resident slice at this worker's
        // frontier.
        const std::uint64_t hot_bytes =
            std::min<std::uint64_t>(region, 12 * 1024);
        const std::uint64_t displace =
            std::min(workerOffset_, region - hot_bytes);
        offset = region - 1 - displace - rng_.below(hot_bytes);
    }
    // Immature stacks (Arm) pack data sparsely: stretch offsets.
    if (spread_.data > 1.0) {
        offset = static_cast<std::uint64_t>(
            static_cast<double>(offset) * spread_.data);
    }
    return base + offset;
}

sim::InstKind
SynthWorkload::pickKind(double branch, double load, double store,
                        double mul, double div)
{
    const double roll = rng_.uniform();
    if (roll < branch)
        return sim::InstKind::Branch;
    if (roll < branch + load)
        return sim::InstKind::Load;
    if (roll < branch + load + store)
        return sim::InstKind::Store;
    if (roll < branch + load + store + mul)
        return sim::InstKind::Mul;
    if (roll < branch + load + store + mul + div)
        return sim::InstKind::Div;
    return sim::InstKind::Alu;
}

void
SynthWorkload::enterMethod(unsigned index, sim::Core &core)
{
    currentMethod_ = index;
    if (profile_.managed) {
        const auto out = clr_->invokeMethod(index);
        methodBase_ = out.address;
        methodBytes_ = clr_->jit().method(index).bytes;
        if (out.jitted) {
            // Compiler runs before the method body does.
            mode_ = Mode::Jit;
            burstRemaining_ = std::max<std::uint64_t>(
                64, out.compileInstructions);
            jitEmitAddr_ = out.address;
            core.onJitPage(out.newPageAddress, out.newPageBytes);
            if (out.oldAddress != 0)
                core.onJitBranchMoved(out.oldAddress, out.address);
        }
    } else {
        methodBase_ = nativeBase_[index];
        methodBytes_ = nativeBytes_[index];
    }
    pcOffset_ = 0;
}

sim::Inst
SynthWorkload::userBranch(std::uint64_t pc)
{
    sim::Inst inst;
    inst.kind = sim::InstKind::Branch;
    inst.pc = pc;

    const bool site_default =
        (siteHash(pc) % 1000) <
        static_cast<std::uint64_t>(profile_.takenFrac * 1000.0);
    const bool taken = rng_.chance(profile_.branchBias)
        ? site_default
        : rng_.chance(0.5);
    inst.taken = taken;

    if (taken) {
        if (rng_.chance(profile_.callFrac)) {
            const auto callee = static_cast<unsigned>(
                rng_.zipf(profile_.methods, profile_.methodZipf));
            enterMethod(callee, *activeCore_);
        } else {
            // Intra-method jump: each branch site has a FIXED target
            // (a property of the code), so control flow follows
            // stable paths and predictor/BTB/I-cache working sets
            // converge instead of spraying across the method.
            pcOffset_ = (siteHash(pc ^ 0x7A12) %
                         std::max<std::uint64_t>(1,
                                                 methodBytes_ / 16)) *
                16;
        }
    } else {
        pcOffset_ += 4;
    }
    return inst;
}

void
SynthWorkload::userTick(sim::Core &core)
{
    if (!profile_.managed)
        return;

    // Allocation accounting.
    allocAccum_ += profile_.allocBytesPerInst;
    if (allocAccum_ >= profile_.meanObjectBytes) {
        allocAccum_ -= profile_.meanObjectBytes;
        const auto result = clr_->allocate(
            static_cast<std::uint64_t>(profile_.meanObjectBytes));
        if (result.gcTriggered && result.gcWork.instructions > 0) {
            mode_ = Mode::Gc;
            burstRemaining_ = result.gcWork.instructions;
            // The sweep ends at the live-region frontier, so the
            // data the application touches next (its hot/warm
            // windows) leaves the collection cache-warm — compaction
            // moves exactly that data last.
            const auto &gc_cfg = clr_->gc().config();
            const auto coverage = static_cast<std::uint64_t>(
                static_cast<double>(burstRemaining_) *
                (gc_cfg.gcLoadFraction + gc_cfg.gcStoreFraction) *
                64.0);
            const std::uint64_t live = clr_->heap().liveBytes();
            const std::uint64_t end_gap = workerOffset_ + coverage;
            gcScanOffset_ = live > end_gap ? live - end_gap : 0;
        }
    }

    // Rare runtime events.
    if (rng_.chance(rates_.exception)) {
        clr_->throwException();
        mode_ = Mode::Exception;
        burstRemaining_ = 200 + rng_.below(200);
    } else if (rng_.chance(rates_.contention)) {
        clr_->contend();
        mode_ = Mode::Contention;
        burstRemaining_ = 100 + rng_.below(150);
    }
    (void)core;
}

sim::Inst
SynthWorkload::userInst()
{
    if (pcOffset_ >= methodBytes_) {
        // Fell off the end: return to a caller (model as a fresh
        // zipf-selected method).
        const auto next = static_cast<unsigned>(
            rng_.zipf(profile_.methods, profile_.methodZipf));
        enterMethod(next, *activeCore_);
        if (mode_ != Mode::User) {
            // enterMethod kicked off a JIT burst; emit its first inst.
            return jitInst();
        }
    }
    const std::uint64_t pc = methodBase_ + pcOffset_;

    // Branch sites are a fixed property of the code (hash of the PC),
    // not a per-visit coin flip: revisiting the same PC must replay
    // the same branch so predictors can train, exactly as in real
    // machine code.
    const bool is_branch_site =
        (siteHash(pc ^ 0x5EED) % 10000) <
        static_cast<std::uint64_t>(profile_.branchFrac * 10000.0);
    if (is_branch_site)
        return userBranch(pc);

    const auto kind = pickKind(0.0, rates_.load, rates_.store,
                               rates_.mul, rates_.div);

    sim::Inst inst;
    inst.kind = kind;
    inst.pc = pc;
    inst.microcoded = rng_.chance(profile_.microcodedFrac);
    if (kind == sim::InstKind::Load || kind == sim::InstKind::Store)
        inst.addr = dataAddress();
    pcOffset_ += 4;
    return inst;
}

sim::Inst
SynthWorkload::kernelInst()
{
    sim::Inst inst;
    inst.kernel = true;
    // Kernel code is a large footprint, but execution follows hot
    // syscall/softirq paths: long sequential runs with occasional
    // jumps, biased strongly toward the hot paths.
    if (rng_.chance(0.04) || kernelPc_ == 0) {
        const std::uint64_t lines = kKernelCodeBytes / 64;
        const std::uint64_t line = rng_.zipf(lines, 1.1);
        kernelPc_ = kKernelCodeBase + line * 64;
    } else {
        kernelPc_ += 4;
    }
    inst.pc = kernelPc_;
    inst.microcoded = rng_.chance(0.04); // privileged ops are MS-heavy
    const bool is_branch_site =
        (siteHash(inst.pc ^ 0x5EED) % 10000) < 1800;
    const auto kind = is_branch_site
        ? sim::InstKind::Branch
        : pickKind(0.0, 0.36, 0.22, 0.01, 0.001);
    inst.kind = kind;
    if (kind == sim::InstKind::Branch) {
        const bool site_default = (siteHash(inst.pc) & 1) != 0;
        inst.taken = rng_.chance(0.85) ? site_default : rng_.chance(0.5);
    } else if (kind == sim::InstKind::Load ||
               kind == sim::InstKind::Store) {
        const double roll = rng_.uniform();
        if (roll < 0.13) {
            // Packet/buffer copies stream (8 B granules).
            streamOffset_ = (streamOffset_ + 8) % kKernelDataBytes;
            inst.addr = kKernelDataBase + streamOffset_;
        } else if (roll < 0.15) {
            // Cold socket/connection state.
            inst.addr = kKernelDataBase +
                rng_.zipf(kKernelDataBytes / 64, 0.8) * 64;
        } else {
            // Hot per-CPU structures, sk_buff headers, stacks.
            inst.addr = kKernelDataBase + rng_.below(4096);
        }
    }
    return inst;
}

sim::Inst
SynthWorkload::jitInst()
{
    sim::Inst inst;
    // Compiler code is big and branchy.
    if (rng_.chance(0.15) || jitPc_ == 0) {
        const std::uint64_t line =
            rng_.zipf(kJitCompilerBytes / 64, 0.8);
        jitPc_ = kJitCompilerCode + line * 64;
    } else {
        jitPc_ += 4;
    }
    inst.pc = jitPc_;
    const bool is_branch_site =
        (siteHash(inst.pc ^ 0x5EED) % 10000) < 2400;
    const auto kind = is_branch_site
        ? sim::InstKind::Branch
        : pickKind(0.0, 0.42, 0.24, 0.025, 0.001);
    inst.kind = kind;
    inst.microcoded = rng_.chance(0.02);
    if (kind == sim::InstKind::Branch) {
        const bool site_default = (siteHash(inst.pc) & 1) != 0;
        inst.taken = rng_.chance(0.80) ? site_default : rng_.chance(0.5);
    } else if (kind == sim::InstKind::Load) {
        // IR reads: the node under compilation is hot; occasional
        // excursions into the wider IR graph.
        inst.addr = rng_.chance(0.75)
            ? kIrBufferBase + rng_.below(8 * 1024)
            : kIrBufferBase +
                rng_.zipf(kIrBufferBytes / 64, 0.9) * 64;
    } else if (kind == sim::InstKind::Store) {
        if (rng_.chance(0.4) && jitEmitAddr_ != 0) {
            // Emitting machine code into the fresh page.
            inst.addr = jitEmitAddr_;
            jitEmitAddr_ += 16;
        } else {
            inst.addr = kIrBufferBase + rng_.below(8 * 1024);
        }
    }
    return inst;
}

sim::Inst
SynthWorkload::gcInst()
{
    sim::Inst inst;
    // Collector code is small and hot (tight mark/compact loops).
    if (rng_.chance(0.05) || gcPc_ == 0) {
        gcPc_ = kGcCode + rng_.below(kGcCodeBytes / 64) * 64;
    } else {
        gcPc_ += 4;
    }
    inst.pc = gcPc_;
    const auto &gc_cfg = clr_->gc().config();
    const auto kind = pickKind(0.10, gc_cfg.gcLoadFraction,
                               gc_cfg.gcStoreFraction, 0.0, 0.0);
    inst.kind = kind;
    if (kind == sim::InstKind::Branch) {
        inst.taken = rng_.chance(0.9);
    } else if (kind == sim::InstKind::Load ||
               kind == sim::InstKind::Store) {
        // Sweep the live set sequentially (mark + compact movement).
        const std::uint64_t live =
            std::max<std::uint64_t>(4096, clr_->heap().liveBytes());
        gcScanOffset_ = (gcScanOffset_ + 64) % live;
        inst.addr = clr_->heap().base() + gcScanOffset_;
    }
    return inst;
}

sim::Inst
SynthWorkload::exceptionInst()
{
    sim::Inst inst;
    // Unwinder: runtime code, mixed with kernel-mode dispatch.
    inst.kernel = rng_.chance(0.3);
    inst.pc = kRuntimeCodeBase +
        rng_.zipf(64 * 1024 / 64, 0.7) * 64;
    const auto kind = pickKind(0.22, 0.35, 0.10, 0.0, 0.0);
    inst.kind = kind;
    if (kind == sim::InstKind::Branch) {
        inst.taken = rng_.chance(0.75) ? ((siteHash(inst.pc) & 1) != 0)
                                       : rng_.chance(0.5);
    } else if (kind == sim::InstKind::Load ||
               kind == sim::InstKind::Store) {
        inst.addr = kStackBase + rng_.below(kStackBytes);
    }
    return inst;
}

sim::Inst
SynthWorkload::contentionInst()
{
    sim::Inst inst;
    // Spin loop: tiny hot code, hammering one shared line.
    inst.pc = kRuntimeCodeBase + 0x10000 + (burstRemaining_ % 8) * 4;
    const auto kind = pickKind(0.30, 0.40, 0.02, 0.0, 0.0);
    inst.kind = kind;
    if (kind == sim::InstKind::Branch) {
        inst.taken = true;
    } else if (kind == sim::InstKind::Load ||
               kind == sim::InstKind::Store) {
        inst.addr = kSharedLockLine;
    }
    return inst;
}

void
SynthWorkload::step(sim::Core &core)
{
    sim::Inst inst;
    switch (mode_) {
      case Mode::User: {
        // Possible kernel entry (syscall / interrupt service).
        if (profile_.kernelFrac > 0.0 && profile_.kernelFrac < 1.0) {
            if (rng_.chance(rates_.kernelEntry)) {
                mode_ = Mode::Kernel;
                burstRemaining_ = std::max<std::uint64_t>(
                    8, static_cast<std::uint64_t>(rng_.exponential(
                           profile_.kernelBurstLen)));
                inst = kernelInst();
                inst.microcoded = true; // syscall entry
                break;
            }
        }
        inst = userInst();
        if (mode_ == Mode::User)
            userTick(core);
        break;
      }
      case Mode::Kernel:
        inst = kernelInst();
        break;
      case Mode::Jit:
        inst = jitInst();
        break;
      case Mode::Gc:
        inst = gcInst();
        break;
      case Mode::Exception:
        inst = exceptionInst();
        break;
      case Mode::Contention:
        inst = contentionInst();
        break;
    }

    if (mode_ != Mode::User) {
        if (burstRemaining_ > 0)
            --burstRemaining_;
        if (burstRemaining_ == 0)
            mode_ = Mode::User;
    }

    core.execute(inst);
    ++executed_;
}

void
SynthWorkload::run(sim::Core &core, std::uint64_t count)
{
    activeCore_ = &core;
    core.setIlp(profile_.ilp);
    core.setMlp(profile_.mlp);
    if (methodBase_ == kNativeCodeBase && pcOffset_ == 0 &&
        executed_ == 0) {
        // First run: the program image, statics, initial heap, stack
        // and the resident kernel were all faulted in before the
        // measured region begins (program load + init). The LLC
        // preloads go in one batch at the end; nothing between them
        // touches a cache.
        std::vector<sim::LlcRange> llc;
        core.prefaultRegion(kStackBase, kStackBytes);
        core.prefaultRegion(kKernelCodeBase, kKernelCodeBytes);
        core.prefaultRegion(kKernelDataBase, kKernelDataBytes);
        core.prefaultRegion(kRuntimeCodeBase, 128 * 1024);
        core.prefaultRegion(kSharedLockLine, 64);
        if (profile_.managed) {
            core.prefaultRegion(kJitCompilerCode, kJitCompilerBytes);
            core.prefaultRegion(kGcCode, kGcCodeBytes);
            core.prefaultRegion(kIrBufferBase, kIrBufferBytes);
            // Age the heap to steady state: on average, half a GC
            // budget of floating garbage has accumulated since the
            // last collection. Without this, short measurement
            // windows would start from an unrealistically compact
            // heap and underestimate workstation-GC locality loss.
            // A collection ends the aging: a heap the live set fills
            // collects on every allocation, and would never get there.
            const auto budget = clr_->gc().budgetBytes(clr_->heap());
            while (clr_->heap().allocatedSinceGc() < budget / 2 &&
                   !clr_->allocate(16 * 1024).gcTriggered) {
            }
            const std::uint64_t aged_spread =
                static_cast<std::uint64_t>(
                    static_cast<double>(clr_->heap().spreadBytes()) *
                    std::max(1.0, spread_.data));
            core.prefaultRegion(clr_->heap().base(), aged_spread);
            // The steady-state working set of a long-running process
            // is LLC resident by the time measurement starts.
            llc.push_back({clr_->heap().base(), aged_spread});
            llc.push_back({kKernelCodeBase, kKernelCodeBytes});
            llc.push_back({kKernelDataBase, kKernelDataBytes});
            // Application startup: every reachable method gets its
            // tier-0 compile before steady state begins (the paper
            // discards the first run / uses long warmups, so startup
            // jitting is never inside the measured window). Tier-1
            // re-JITs still fire during execution.
            for (unsigned i = 0; i < profile_.methods; ++i) {
                clr_->invokeMethod(i);
                const auto &m = clr_->jit().method(i);
                core.prefaultRegion(m.address & ~std::uint64_t{4095},
                                    ((m.bytes + 4095) / 4096) * 4096);
                llc.push_back({m.address, m.bytes});
            }
        } else {
            std::uint64_t code_bytes = 0;
            for (std::uint64_t b : nativeBytes_)
                code_bytes += (b + 63) & ~std::uint64_t{63};
            core.prefaultRegion(kNativeCodeBase, code_bytes);
            llc.push_back({kNativeCodeBase, code_bytes});
            llc.push_back({kKernelCodeBase, kKernelCodeBytes});
            const std::uint64_t data = static_cast<std::uint64_t>(
                static_cast<double>(profile_.dataFootprint) *
                std::max(1.0, spread_.data));
            core.prefaultRegion(kNativeDataBase, data);
            // A long-running program's LLC holds whatever suffix of
            // the footprint fits; LRU naturally keeps the tail.
            llc.push_back({kNativeDataBase, data});
        }
        // One process, one warm-up: cores sharing a CLR share its
        // LLC working set, so only the first to start loads it.
        if (!profile_.managed || clr_->claimLlcWarmup())
            core.preloadLlc(llc);
        enterMethod(0, core);
    }
    for (std::uint64_t i = 0; i < count; ++i)
        step(core);
    activeCore_ = nullptr;
}

} // namespace netchar::wl
