/**
 * @file
 * FEMU-style line manager: tracks every block's fill generation, valid-
 * page count and Full state. Valid-count deltas are plain counter
 * updates; pickVictim() scans the plane's Full blocks for the least
 * (score, tieBreak, block) under the GC policy. That order is strict and
 * total, so the scan returns exactly the block an incrementally re-keyed
 * victim heap would, without re-keying on every one of the millions of
 * invalidations whose result only the rare victim picks read.
 *
 * The manager learns structural transitions (open/full/erase) from
 * BlockManager's observer hooks and valid-count changes from the FTL's
 * remap path; erase counts are read back from the BlockManager, which
 * owns wear accounting.
 */

#ifndef AERO_SSD_LINE_MANAGER_HH
#define AERO_SSD_LINE_MANAGER_HH

#include <cstddef>
#include <vector>

#include "ssd/config.hh"
#include "ssd/gc.hh"

namespace aero
{

class BlockManager;

class LineManager
{
  public:
    LineManager(const SsdConfig &cfg, const GcPolicy &policy,
                const BlockManager &blocks);

    /** @name Structural transitions (BlockManager observer) */
    /** @{ */
    void onBlockOpened(int chip, BlockId block);
    void onBlockFull(int chip, BlockId block);
    void onBlockErased(int chip, BlockId block);
    /** @} */

    /**
     * @name Valid-count deltas (FTL remap path)
     * Keyed by the flat block index chip * blocksPerChip + block that
     * PageMapping::update() reports.
     */
    /** @{ */
    void onPageMapped(std::size_t flat_block);
    void onPageInvalidated(std::size_t flat_block);
    /** @} */

    /** Best victim of the plane, kInvalidBlock when no block is Full. */
    BlockId pickVictim(int chip, int plane) const;

    /** Full blocks currently victim candidates, ascending block id. */
    std::vector<BlockId> fullBlocks(int chip, int plane) const;

    /** Valid pages as this manager tracks them (tests cross-check). */
    int trackedValid(int chip, BlockId block) const;

    /** Scoring inputs of a block, as the policy would see them. */
    GcLineInfo lineInfo(int chip, BlockId block) const;

  private:
    struct Line
    {
        int valid = 0;
        bool full = false;
        std::uint64_t openSeq = 0;
    };

    std::size_t blockIndex(int chip, BlockId block) const;
    Line &lineAt(std::size_t flat_block);

    int numChips;
    int planesPerChip;
    int blocksPerPlane;
    int pagesPerBlock;
    const GcPolicy &policy;
    const BlockManager &blocks;
    std::vector<Line> lines;        //!< per (chip, chip-local block)
    std::uint64_t nextOpenSeq = 1;  //!< 0 means "never opened"
};

} // namespace aero

#endif // AERO_SSD_LINE_MANAGER_HH
