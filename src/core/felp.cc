#include "core/felp.hh"

#include <algorithm>
#include <cmath>

#include "nand/erase_model.hh"

namespace aero
{

Felp::Felp(const ChipParams &params, const WearModel &wear_, Ept ept,
           const FelpConfig &cfg_)
    : chip(params), wear(wear_), table(ept), cfg(cfg_)
{
}

double
Felp::allowedLeftoverSlots(double block_pec) const
{
    if (!cfg.useEccMargin)
        return 0.0;
    // Block PECs are whole numbers that repeat from erase to erase; the
    // entry keeps the exact value, so any other input just misses.
    if (!(block_pec >= 0.0 && block_pec < 0x1p63))
        return solveLeftoverSlots(block_pec);
    MemoEntry &e = memo[static_cast<std::uint64_t>(block_pec) &
                        (kMemoEntries - 1)];
    if (e.pec != block_pec)
        e = MemoEntry{block_pec, solveLeftoverSlots(block_pec)};
    return e.slots;
}

double
Felp::solveLeftoverSlots(double block_pec) const
{
    const double margin = static_cast<double>(cfg.rberRequirement) -
                          cfg.marginPad -
                          wear.predictedBaseRber(block_pec);
    if (margin <= 0.0)
        return 0.0;
    return wear.leftoverForResidual(margin);
}

FelpPrediction
Felp::predict(int next_loop, double fail_bits, double block_pec) const
{
    FelpPrediction p;
    p.range = Ept::rangeIndex(chip, fail_bits);
    const int cons = table.consSlots(next_loop, p.range);
    if (!cfg.useEccMargin) {
        p.slots = cons;
        p.allowedLeftover = 0.0;
        p.reduced = p.slots < chip.slotsPerLoop;
        return p;
    }
    const double allowed = allowedLeftoverSlots(block_pec);
    const double remaining = remainingSlotsFor(chip, fail_bits);
    // Fewest slots that keep the expected leftover within the margin...
    const int for_margin = static_cast<int>(
        std::ceil(std::max(0.0, remaining - allowed)));
    // ...but never more aggressive than the characterized table allows.
    const int aggr = table.aggrSlots(next_loop, p.range);
    p.slots = std::clamp(std::max(aggr, for_margin), 0, cons);
    p.allowedLeftover = std::max(
        0.0, std::min(allowed, remaining - static_cast<double>(p.slots)));
    p.reduced = p.slots < chip.slotsPerLoop;
    return p;
}

} // namespace aero
