#include "sim/branch.hh"

#include <stdexcept>

namespace netchar::sim
{

BranchPredictor::BranchPredictor(unsigned table_bits,
                                 unsigned history_bits)
{
    if (table_bits == 0 || table_bits > 24)
        throw std::invalid_argument("BranchPredictor: bad table_bits");
    if (history_bits > table_bits)
        throw std::invalid_argument("BranchPredictor: history too long");
    table_.assign(std::size_t{1} << table_bits, 1); // weakly not-taken
    mask_ = (std::uint64_t{1} << table_bits) - 1;
    historyMask_ = (std::uint64_t{1} << history_bits) - 1;
    historyShift_ = table_bits - history_bits;
}

std::size_t
BranchPredictor::indexFor(std::uint64_t pc) const
{
    // History is folded into the top index bits so short histories
    // do not alias away the PC's low bits.
    return static_cast<std::size_t>(
        ((pc >> 2) ^ (history_ << historyShift_)) & mask_);
}

bool
BranchPredictor::predict(std::uint64_t pc) const
{
    return table_[indexFor(pc)] >= 2;
}

bool
BranchPredictor::predictAndTrain(std::uint64_t pc, bool taken)
{
    ++lookups_;
    const std::size_t idx = indexFor(pc);
    const bool prediction = table_[idx] >= 2;
    const bool correct = prediction == taken;
    if (!correct)
        ++mispredicts_;

    if (taken && table_[idx] < 3)
        ++table_[idx];
    else if (!taken && table_[idx] > 0)
        --table_[idx];

    history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
    return correct;
}

void
BranchPredictor::reset()
{
    for (auto &c : table_)
        c = 1;
    history_ = 0;
}

namespace
{

std::size_t
setsFor(unsigned entries, unsigned assoc)
{
    if (entries == 0 || assoc == 0 || entries % assoc != 0)
        throw std::invalid_argument("Btb: bad geometry");
    return entries / assoc;
}

} // namespace

Btb::Btb(unsigned entries, unsigned assoc)
    : entries_(setsFor(entries, assoc), assoc)
{
}

bool
Btb::accessAndFill(std::uint64_t pc)
{
    ++lookups_;
    if (entries_.accessAndFill(pc >> 2))
        return true;
    ++misses_;
    return false;
}

bool
Btb::contains(std::uint64_t pc) const
{
    return entries_.find(pc >> 2) != nullptr;
}

void
Btb::install(std::uint64_t pc)
{
    entries_.accessAndFill(pc >> 2);
}

void
Btb::invalidateAll()
{
    entries_.clear();
}

} // namespace netchar::sim
