#include "core/topdown.hh"

namespace netchar
{

namespace
{

/** Each node of one category as a bar of its share, its name less
 *  the first `drop` characters. */
std::vector<Bar>
shareRows(const sim::SlotAccount &slots, sim::SlotCategory cat,
          std::size_t drop)
{
    std::vector<Bar> rows;
    for (std::size_t n = 0; n < std::size(sim::kSlotNodes); ++n) {
        const auto &node = sim::kSlotNodes[n];
        if (node.category == cat)
            rows.push_back({std::string(node.name.substr(drop)),
                            slots.share(static_cast<sim::SlotNode>(n))});
    }
    return rows;
}

} // namespace

std::vector<Bar>
level1Rows(const sim::SlotAccount &slots)
{
    std::vector<Bar> rows;
    rows.reserve(std::size(sim::kSlotCategories));
    for (std::size_t c = 0; c < std::size(sim::kSlotCategories); ++c)
        rows.push_back(
            {std::string(sim::kSlotCategories[c].label),
             slots.categoryFraction(static_cast<sim::SlotCategory>(c))});
    return rows;
}

std::vector<Bar>
frontendRows(const sim::SlotAccount &slots)
{
    return shareRows(slots, sim::SlotCategory::Frontend, 0);
}

std::vector<Bar>
backendRows(const sim::SlotAccount &slots)
{
    return shareRows(slots, sim::SlotCategory::Backend,
                     std::string_view("BE.").size());
}

} // namespace netchar
