#include "sim/core.hh"

#include <algorithm>

namespace netchar::sim
{

namespace
{

PrefetcherParams
dataPrefetcherParams(const MachineConfig &cfg)
{
    PrefetcherParams p;
    p.streams = 16;
    p.degree = 2;
    p.trainThreshold = 2;
    p.lineBytes = cfg.l1d.lineBytes;
    return p;
}

PrefetcherParams
instPrefetcherParams(const MachineConfig &cfg)
{
    PrefetcherParams p;
    p.streams = 8;
    p.degree = 2;
    p.trainThreshold = 1; // next-line I-prefetchers train fast
    p.lineBytes = cfg.l1i.lineBytes;
    return p;
}

} // namespace

Core::Core(const MachineConfig &cfg, LlcNoc &llc, DramModel &dram,
           std::unordered_set<std::uint64_t> &process_pages,
           unsigned core_id, std::uint64_t seed)
    : cfg_(cfg),
      llc_(llc),
      dram_(dram),
      touchedPages_(process_pages),
      rng_(stats::Rng(seed).fork(core_id + 1)),
      l1i_(cfg.l1i, "l1i"),
      l1d_(cfg.l1d, "l1d"),
      l2_(cfg.l2, "l2"),
      itlb_(cfg.itlb, cfg.stlb),
      dtlb_(cfg.dtlb, cfg.stlb),
      predictor_(cfg.predictorBits, cfg.predictorHistoryBits),
      btb_(cfg.btbEntries),
      dsb_(cfg.pipe.dsbLines),
      loopBuffer_(cfg.pipe.loopBufferLines),
      dataPrefetcher_(dataPrefetcherParams(cfg)),
      instPrefetcher_(instPrefetcherParams(cfg)),
      divider_(cfg.pipe.divLatency),
      issue_(cfg.pipe, 2.0)
{
    touchedPages_.reserve(1 << 16);
}

void
Core::setIlp(double ilp)
{
    ilp_ = ilp;
    issue_ = IssueModel(cfg_.pipe, ilp);
}

void
Core::setMlp(double mlp)
{
    mlp_ = std::max(1.0, mlp);
}

void
Core::stall(SlotNode node, double cycles)
{
    counters_.cycles += cycles;
    stallCycles_[static_cast<std::size_t>(node)] += cycles;
}

double
Core::walkCycles(const TlbOutcome &out) const
{
    return out.stlbHit ? cfg_.pipe.stlbHitLatency
                       : cfg_.pipe.tlbWalkLatency;
}

void
Core::touchPage(std::uint64_t addr)
{
    const std::uint64_t page = addr / 4096;
    if (touchedPages_.insert(page).second) {
        ++counters_.pageFaults;
        // Fault service time; most of it is the walk + kernel entry.
        stall(SlotNode::BeDramBound, cfg_.pipe.pageFaultPenalty);
    }
}

void
Core::issuePrefetches(std::uint64_t addr)
{
    for (std::uint64_t target : dataPrefetcher_.observe(addr)) {
        const auto out = l2_.insertPrefetch(target);
        if (out.wasPresent)
            continue;
        ++counters_.prefetchesIssued;
        if (out.evictedUnusedPrefetch)
            ++counters_.prefetchesUseless;
        if (out.writeback) {
            dram_.access(target, true);
            counters_.memWriteBytes += cfg_.l2.lineBytes;
        }
        // The fill itself reads memory unless the LLC holds the line.
        // DRAM state does not depend on the LLC, so filling the LLC
        // first changes nothing.
        if (!llc_.insertPrefetch(target).wasPresent) {
            dram_.access(target, false);
            counters_.memReadBytes += cfg_.l2.lineBytes;
        }
    }
}

double
Core::missPath(std::uint64_t addr, bool is_write, SlotNode &node)
{
    // L1D missed; walk L2 -> LLC -> DRAM and report exposed latency.
    const auto l2_out = l2_.access(addr, is_write);
    if (l2_out.evictedUnusedPrefetch)
        ++counters_.prefetchesUseless;
    if (l2_out.writeback) {
        dram_.access(addr, true);
        counters_.memWriteBytes += cfg_.l2.lineBytes;
    }
    if (l2_out.hit) {
        if (l2_out.hitOnPrefetch)
            ++counters_.prefetchesUseful;
        node = SlotNode::BeL2Bound;
        return cfg_.pipe.l2Latency;
    }
    ++counters_.l2Misses;

    const auto llc_out = llc_.access(addr, is_write, counters_.cycles);
    if (llc_out.writeback) {
        dram_.access(addr, true);
        counters_.memWriteBytes += cfg_.llc.lineBytes;
    }
    if (llc_out.hit) {
        node = SlotNode::BeL3Bound;
        return llc_out.latency;
    }
    ++counters_.llcMisses;

    const auto dram_out = dram_.access(addr, false);
    ++counters_.dramAccesses;
    counters_.memReadBytes += cfg_.llc.lineBytes;
    if (!dram_out.rowHit)
        ++counters_.dramRowMisses;
    node = SlotNode::BeDramBound;
    double latency = llc_out.latency + cfg_.pipe.dramLatency;
    if (!dram_out.rowHit)
        latency += cfg_.pipe.dramRowMissExtra;
    return latency;
}

void
Core::doLoad(std::uint64_t addr)
{
    ++counters_.loads;
    const auto tlb_out = dtlb_.access(addr);
    if (!tlb_out.hit) {
        ++counters_.dtlbLoadMisses;
        stall(SlotNode::BeL1Bound,
              walkCycles(tlb_out) * cfg_.pipe.memStallExposure / mlp_);
    }

    const auto l1_out = l1d_.access(addr, false);
    if (l1_out.hit) {
        // L1 hits can still queue on D-cache ports (§VI-B2 notes L1
        // bandwidth saturation in ASP.NET).
        if (rng_.chance(cfg_.pipe.l1BandwidthStall))
            stall(SlotNode::BeL1Bound, cfg_.pipe.l1Latency);
        return;
    }
    ++counters_.l1dMisses;
    touchPage(addr);
    issuePrefetches(addr);

    SlotNode node = SlotNode::BeL2Bound;
    const double latency = missPath(addr, false, node);
    stall(node, latency * cfg_.pipe.memStallExposure / mlp_);
}

void
Core::doStore(std::uint64_t addr)
{
    ++counters_.stores;
    const auto tlb_out = dtlb_.access(addr);
    if (!tlb_out.hit) {
        ++counters_.dtlbStoreMisses;
        stall(SlotNode::BeStoreBound,
              walkCycles(tlb_out) * cfg_.pipe.memStallExposure / mlp_);
    }

    if (rng_.chance(cfg_.pipe.storeBufferStall))
        stall(SlotNode::BeStoreBound, cfg_.pipe.storeStallCycles);

    const auto l1_out = l1d_.access(addr, true);
    if (l1_out.hit)
        return;
    ++counters_.l1dMisses;
    touchPage(addr);
    issuePrefetches(addr);

    SlotNode node = SlotNode::BeL2Bound;
    const double latency = missPath(addr, true, node);
    // The store buffer hides most write-allocate latency; only part
    // of it backs up into the pipeline.
    stall(SlotNode::BeStoreBound,
          0.25 * latency * cfg_.pipe.memStallExposure / mlp_);
    (void)node;
}

void
Core::fetch(std::uint64_t pc, bool kernel)
{
    (void)kernel;
    const std::uint64_t fetch_line = pc >> 5; // 32 B fetch blocks
    if (fetch_line == lastFetchLine_)
        return;
    lastFetchLine_ = fetch_line;

    if (loopBuffer_.accessAndFill(fetch_line))
        return; // replay from the loop buffer: no fetch at all

    // Decode-path bandwidth: DSB hit or legacy MITE pipeline.
    if (dsb_.accessAndFill(fetch_line)) {
        if (rng_.chance(cfg_.pipe.dsbBandwidthStall))
            stall(SlotNode::FeDsb, cfg_.pipe.bandwidthStallCycles);
    } else {
        if (rng_.chance(cfg_.pipe.miteBandwidthStall))
            stall(SlotNode::FeMite, cfg_.pipe.bandwidthStallCycles);
    }

    const auto tlb_out = itlb_.access(pc);
    if (!tlb_out.hit) {
        ++counters_.itlbMisses;
        stall(SlotNode::FeITlb,
              walkCycles(tlb_out) * cfg_.pipe.feExposure);
    }

    const auto l1_out = l1i_.access(pc, false);
    if (l1_out.hit)
        return;
    ++counters_.l1iMisses;
    touchPage(pc);

    // I-side next-line prefetch into L1I.
    for (std::uint64_t target : instPrefetcher_.observe(pc)) {
        if (l1i_.insertPrefetch(target).wasPresent)
            continue;
        ++counters_.prefetchesIssued;
        if (!l2_.insertPrefetch(target).wasPresent &&
            !llc_.contains(target)) {
            dram_.access(target, false);
            counters_.memReadBytes += cfg_.l1i.lineBytes;
        }
    }

    SlotNode node = SlotNode::BeL2Bound;
    const double latency = missPath(pc, false, node);
    // Fetch-ahead and the instruction byte queue hide most of the
    // *queueing* component of contended LLC code accesses; only the
    // base miss latency stalls the frontend at the usual exposure.
    double queue = 0.0;
    if (node == SlotNode::BeL3Bound || node == SlotNode::BeDramBound)
        queue = llc_.lastQueueDelay();
    stall(SlotNode::FeICache,
          (latency - queue) * cfg_.pipe.feExposure + queue * 0.08);
}

void
Core::execute(const Inst &inst)
{
    ++counters_.instructions;
    if (inst.kernel)
        ++counters_.kernelInstructions;

    // Issue bandwidth: retiring share plus ports-utilization share.
    counters_.cycles += issue_.cyclesPerInst();
    stallCycles_[static_cast<std::size_t>(SlotNode::BePortsUtil)] +=
        issue_.portStallPerInst();

    fetch(inst.pc, inst.kernel);

    if (inst.microcoded)
        stall(SlotNode::FeMsSwitch, cfg_.pipe.msSwitchPenalty);

    switch (inst.kind) {
      case InstKind::Branch: {
        ++counters_.branches;
        if (!btb_.accessAndFill(inst.pc)) {
            ++counters_.btbMisses;
            if (inst.taken)
                stall(SlotNode::FeBtbResteer,
                      cfg_.pipe.btbResteerPenalty);
        }
        if (!predictor_.predictAndTrain(inst.pc, inst.taken)) {
            ++counters_.branchMisses;
            stall(SlotNode::BadSpeculation,
                  cfg_.pipe.branchMispredictPenalty);
        }
        break;
      }
      case InstKind::Load:
        doLoad(inst.addr);
        break;
      case InstKind::Store:
        doStore(inst.addr);
        break;
      case InstKind::Div:
        stall(SlotNode::BeDivider, divider_.issue(counters_.cycles));
        break;
      case InstKind::Mul:
      case InstKind::Alu:
        break;
    }
}

void
Core::prefaultRegion(std::uint64_t base, std::uint64_t bytes)
{
    const std::uint64_t first = base / 4096;
    const std::uint64_t last = (base + bytes + 4095) / 4096;
    for (std::uint64_t page = first; page < last; ++page)
        touchedPages_.insert(page);
}

void
Core::preloadLlc(std::span<const LlcRange> ranges)
{
    llc_.preload(ranges);
}

void
Core::onJitPage(std::uint64_t page_addr, std::uint64_t bytes)
{
    if (!jitHintEnabled_)
        return;
    // ISA-hook model: the runtime tells the hardware about the fresh
    // code page; the prefetcher pulls its lines into L2/L1I and the
    // translation is pre-installed, so first execution avoids the cold
    // start (§VII-A1's proposed mitigation).
    const std::uint64_t line = cfg_.l1i.lineBytes;
    for (std::uint64_t off = 0; off < bytes; off += line) {
        const std::uint64_t addr = page_addr + off;
        l2_.insertPrefetch(addr);
        l1i_.insertPrefetch(addr);
        ++counters_.prefetchesIssued;
    }
    itlb_.install(page_addr);
    // The page arrives via the kernel's JIT mapping, so it does not
    // minor-fault on first execution either.
    touchedPages_.insert(page_addr / 4096);
}

void
Core::onJitBranchMoved(std::uint64_t old_pc, std::uint64_t new_pc)
{
    if (!jitHintEnabled_)
        return;
    (void)old_pc;
    btb_.install(new_pc);
}

SlotAccount
Core::slotAccount() const
{
    SlotAccount account;
    const double slots = static_cast<double>(cfg_.pipe.slotsPerCycle);
    account[SlotNode::Retiring] =
        static_cast<double>(counters_.instructions);
    for (std::size_t i = 0; i < stallCycles_.size(); ++i) {
        const auto node = static_cast<SlotNode>(i);
        if (node == SlotNode::Retiring)
            continue;
        account[node] += stallCycles_[i] * slots;
    }
    return account;
}

void
Core::reset()
{
    l1i_.invalidateAll();
    l1d_.invalidateAll();
    l2_.invalidateAll();
    itlb_.invalidateAll();
    dtlb_.invalidateAll();
    predictor_.reset();
    btb_.invalidateAll();
    dsb_.invalidateAll();
    loopBuffer_.invalidateAll();
    dataPrefetcher_.reset();
    instPrefetcher_.reset();
    divider_.reset();
    counters_ = PerfCounters{};
    stallCycles_.fill(0.0);
    lastFetchLine_ = ~0ULL;
}

} // namespace netchar::sim
