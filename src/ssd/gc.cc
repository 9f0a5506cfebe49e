#include "ssd/gc.hh"

#include "common/logging.hh"
#include "ssd/block_manager.hh"
#include "ssd/mapping.hh"

namespace aero
{

BlockId
GcPolicy::pickVictim(int chip, int plane, const BlockManager &blocks,
                     const PageMapping &mapping) const
{
    AERO_CHECK(plane >= 0 && plane < blocks.planes(), "plane out of range");
    BlockId best = kInvalidBlock;
    double best_score = 0.0;
    std::uint64_t best_tie = 0;
    // Ascending block ids, so a later block wins only on a strictly
    // lower (score, tieBreak): the block id is the final tie-breaker.
    for (const BlockId b : blocks.fullBlocks(chip, plane)) {
        GcLineInfo info;
        info.block = b;
        info.validPages = mapping.validPages(chip, b);
        info.pagesPerBlock = blocks.pagesInBlock();
        info.openSeq = blocks.openSeq(chip, b);
        info.eraseCount = blocks.eraseCount(chip, b);
        const double s = score(info);
        const std::uint64_t tie = tieBreak(info);
        if (best == kInvalidBlock || s < best_score ||
            (s == best_score && tie < best_tie)) {
            best = b;
            best_score = s;
            best_tie = tie;
        }
    }
    return best;
}

std::unique_ptr<GcPolicy>
makeGcPolicy(const std::string &name)
{
    if (name == "greedy")
        return std::make_unique<GreedyGcPolicy>();
    if (name == "cost-benefit")
        return std::make_unique<CostBenefitGcPolicy>();
    if (name == "fifo-log" || name == "fifo")
        return std::make_unique<FifoLogGcPolicy>();
    AERO_FATAL("unknown GC policy '", name, "' (valid: ", gcPolicyNames(),
               ")");
}

const char *
gcPolicyNames()
{
    return "greedy, cost-benefit, fifo-log";
}

} // namespace aero
