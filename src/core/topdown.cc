#include "core/topdown.hh"

namespace netchar
{

TopDownProfile
TopDownProfile::fromSlots(const sim::SlotAccount &slots)
{
    using sim::SlotCategory;
    using sim::SlotNode;
    TopDownProfile p;
    p.level1.retiring = slots.categoryFraction(SlotCategory::Retiring);
    p.level1.badSpeculation =
        slots.categoryFraction(SlotCategory::BadSpeculation);
    p.level1.frontendBound =
        slots.categoryFraction(SlotCategory::Frontend);
    p.level1.backendBound =
        slots.categoryFraction(SlotCategory::Backend);

    p.frontend.icacheMisses = slots.fraction(SlotNode::FeICache);
    p.frontend.itlbMisses = slots.fraction(SlotNode::FeITlb);
    p.frontend.branchResteers =
        slots.fraction(SlotNode::FeBtbResteer);
    p.frontend.msSwitches = slots.fraction(SlotNode::FeMsSwitch);
    p.frontend.dsbBandwidth = slots.fraction(SlotNode::FeDsb);
    p.frontend.miteBandwidth = slots.fraction(SlotNode::FeMite);

    p.backend.l1Bound = slots.fraction(SlotNode::BeL1Bound);
    p.backend.l2Bound = slots.fraction(SlotNode::BeL2Bound);
    p.backend.l3Bound = slots.fraction(SlotNode::BeL3Bound);
    p.backend.dramBound = slots.fraction(SlotNode::BeDramBound);
    p.backend.storeBound = slots.fraction(SlotNode::BeStoreBound);
    p.backend.portsUtilization =
        slots.fraction(SlotNode::BePortsUtil);
    p.backend.divider = slots.fraction(SlotNode::BeDivider);
    return p;
}

FrontendBreakdown
TopDownProfile::frontendShares() const
{
    FrontendBreakdown s = frontend;
    const double total = level1.frontendBound;
    if (total <= 0.0)
        return FrontendBreakdown{};
    s.icacheMisses /= total;
    s.itlbMisses /= total;
    s.branchResteers /= total;
    s.msSwitches /= total;
    s.dsbBandwidth /= total;
    s.miteBandwidth /= total;
    return s;
}

BackendBreakdown
TopDownProfile::backendShares() const
{
    BackendBreakdown s = backend;
    const double total = level1.backendBound;
    if (total <= 0.0)
        return BackendBreakdown{};
    s.l1Bound /= total;
    s.l2Bound /= total;
    s.l3Bound /= total;
    s.dramBound /= total;
    s.storeBound /= total;
    s.portsUtilization /= total;
    s.divider /= total;
    return s;
}

std::vector<Bar>
level1Rows(const TopDownProfile &p)
{
    return {
        {"Retiring", p.level1.retiring},
        {"Bad_Speculation", p.level1.badSpeculation},
        {"Frontend_Bound", p.level1.frontendBound},
        {"Backend_Bound", p.level1.backendBound},
    };
}

std::vector<Bar>
frontendRows(const TopDownProfile &p)
{
    const auto s = p.frontendShares();
    return {
        {"FE.ICache_Misses", s.icacheMisses},
        {"FE.ITLB_Misses", s.itlbMisses},
        {"FE.Branch_Resteers", s.branchResteers},
        {"FE.MS_Switches", s.msSwitches},
        {"FE.DSB_Bandwidth", s.dsbBandwidth},
        {"FE.MITE_Bandwidth", s.miteBandwidth},
    };
}

std::vector<Bar>
backendRows(const TopDownProfile &p)
{
    const auto s = p.backendShares();
    return {
        {"MEM.L1_Bound", s.l1Bound},
        {"MEM.L2_Bound", s.l2Bound},
        {"MEM.L3_Bound", s.l3Bound},
        {"MEM.DRAM_Bound", s.dramBound},
        {"MEM.Store_Bound", s.storeBound},
        {"CR.Ports_Utilization", s.portsUtilization},
        {"CR.Divider", s.divider},
    };
}

} // namespace netchar
