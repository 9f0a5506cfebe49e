#include "ssd/line_manager.hh"

#include "common/logging.hh"
#include "ssd/block_manager.hh"

namespace aero
{

LineManager::LineManager(const SsdConfig &cfg, const GcPolicy &policy_,
                         const BlockManager &blocks_)
    : numChips(cfg.totalChips()), planesPerChip(cfg.geometry.planes),
      blocksPerPlane(cfg.geometry.blocksPerPlane),
      pagesPerBlock(cfg.geometry.pagesPerBlock), policy(policy_),
      blocks(blocks_),
      lines(static_cast<std::size_t>(numChips) * planesPerChip *
            blocksPerPlane)
{
}

std::size_t
LineManager::blockIndex(int chip, BlockId block) const
{
    AERO_CHECK(chip >= 0 && chip < numChips, "chip out of range");
    AERO_CHECK(block < static_cast<BlockId>(planesPerChip * blocksPerPlane),
               "block out of range");
    return static_cast<std::size_t>(chip) * planesPerChip * blocksPerPlane +
           block;
}

LineManager::Line &
LineManager::lineAt(std::size_t flat_block)
{
    AERO_CHECK(flat_block < lines.size(), "flat block out of range: ",
               flat_block);
    return lines[flat_block];
}

GcLineInfo
LineManager::lineInfo(int chip, BlockId block) const
{
    const Line &line = lines[blockIndex(chip, block)];
    GcLineInfo info;
    info.block = block;
    info.validPages = line.valid;
    info.pagesPerBlock = pagesPerBlock;
    info.openSeq = line.openSeq;
    info.eraseCount = blocks.eraseCount(chip, block);
    return info;
}

void
LineManager::onBlockOpened(int chip, BlockId block)
{
    Line &line = lines[blockIndex(chip, block)];
    AERO_CHECK(!line.full, "opened block is still Full");
    line.openSeq = nextOpenSeq++;
}

void
LineManager::onBlockFull(int chip, BlockId block)
{
    Line &line = lines[blockIndex(chip, block)];
    AERO_CHECK(!line.full, "block filled twice");
    line.full = true;
}

void
LineManager::onBlockErased(int chip, BlockId block)
{
    Line &line = lines[blockIndex(chip, block)];
    AERO_CHECK(line.valid == 0, "erased block still has ", line.valid,
               " valid pages tracked");
    line.full = false;
    line.openSeq = 0;
}

void
LineManager::onPageMapped(std::size_t flat_block)
{
    Line &line = lineAt(flat_block);
    line.valid += 1;
    AERO_CHECK(line.valid <= pagesPerBlock, "valid pages overflow block");
}

void
LineManager::onPageInvalidated(std::size_t flat_block)
{
    Line &line = lineAt(flat_block);
    AERO_CHECK(line.valid > 0, "invalidation underflow on flat block ",
               flat_block);
    line.valid -= 1;
}

BlockId
LineManager::pickVictim(int chip, int plane) const
{
    AERO_CHECK(plane >= 0 && plane < planesPerChip, "plane out of range");
    BlockId best = kInvalidBlock;
    double best_score = 0.0;
    std::uint64_t best_tie = 0;
    // Ascending block ids, so a later block wins only on a strictly
    // lower (score, tieBreak): the block id is the final tie-breaker.
    const BlockId lo = static_cast<BlockId>(plane) * blocksPerPlane;
    for (BlockId b = lo; b < lo + static_cast<BlockId>(blocksPerPlane); ++b) {
        if (!lines[blockIndex(chip, b)].full)
            continue;
        const GcLineInfo info = lineInfo(chip, b);
        const double score = policy.score(info);
        const std::uint64_t tie = policy.tieBreak(info);
        if (best == kInvalidBlock || score < best_score ||
            (score == best_score && tie < best_tie)) {
            best = b;
            best_score = score;
            best_tie = tie;
        }
    }
    return best;
}

std::vector<BlockId>
LineManager::fullBlocks(int chip, int plane) const
{
    AERO_CHECK(plane >= 0 && plane < planesPerChip, "plane out of range");
    std::vector<BlockId> out;
    const BlockId lo = static_cast<BlockId>(plane) * blocksPerPlane;
    for (BlockId b = lo; b < lo + static_cast<BlockId>(blocksPerPlane); ++b) {
        if (lines[blockIndex(chip, b)].full)
            out.push_back(b);
    }
    return out;
}

int
LineManager::trackedValid(int chip, BlockId block) const
{
    return lines[blockIndex(chip, block)].valid;
}

} // namespace aero
