/**
 * @file
 * Physical block allocation: per-(chip, plane) free pools and open write
 * points. Blocks move Free -> Open -> Full -> (GC erase) -> Free.
 *
 * The manager owns every per-block fact but the valid-page count (which
 * PageMapping owns): the block state, wear accounting (erase counts
 * since mount) and the fill stamp GC policies order the log by. GC picks
 * victims by scanning these (GcPolicy::pickVictim). Which free block a
 * plane opens next is delegated to an optional WearLevelPolicy; without
 * one, reuse is LIFO exactly as before.
 */

#ifndef AERO_SSD_BLOCK_MANAGER_HH
#define AERO_SSD_BLOCK_MANAGER_HH

#include <vector>

#include "ssd/config.hh"

namespace aero
{

class WearLevelPolicy;

enum class BlockState : std::uint8_t { Free, Open, Full };

class BlockManager
{
  public:
    explicit BlockManager(const SsdConfig &cfg);

    /** Wire the free-block selection policy (null = LIFO reuse). */
    void setWearPolicy(const WearLevelPolicy *policy) { wearPolicy = policy; }

    int planeOf(BlockId block) const
    {
        return static_cast<int>(block) / blocksPerPlane;
    }

    int freeBlocks(int chip, int plane) const;
    int minFreeBlocks(int chip) const;

    BlockState state(int chip, BlockId block) const;

    /**
     * Drive-wide stamp of the block's current fill: allocate() numbers
     * the blocks it opens 1, 2, 3, ... and an erase resets the stamp to
     * 0 ("never opened"), so the stamp survives reuse cycles where the
     * block id does not.
     */
    std::uint64_t openSeq(int chip, BlockId block) const;

    /**
     * Allocate the next page of the open block of (chip, plane), opening
     * a fresh block from the free pool when needed. One free block per
     * plane is reserved for GC destinations: user allocations cannot take
     * the last free block (for_gc = false), which guarantees GC always
     * finds a relocation target and the drive cannot wedge.
     * @return true and fills block/page, or false if the plane is out of
     *         space (caller must wait for GC).
     */
    bool allocate(int chip, int plane, BlockId &block, int &page,
                  bool for_gc = false);

    /**
     * Open the plane's next user block and allocate its first `pages`
     * pages at once: the block is taken, checked and stamped exactly as
     * allocate() would open it, then left Open with its cursor at
     * `pages`, or Full if they fill it. The plane must have no open user
     * block, and the GC reserve applies as in allocate().
     */
    BlockId allocateRun(int chip, int plane, int pages);

    /** Free blocks a user allocation may still open. */
    static constexpr int kGcReservedBlocks = 1;

    /** Pages already allocated in the open block (block must be Open). */
    int openPageCursor(int chip, int plane) const;

    /** Return an erased block to the free pool (bumps its erase count). */
    void onBlockErased(int chip, BlockId block);

    /** Full blocks of a plane (GC victim candidates). */
    std::vector<BlockId> fullBlocks(int chip, int plane) const;

    /** @name Wear accounting (erase cycles since mount) */
    /** @{ */
    std::uint64_t eraseCount(int chip, BlockId block) const;
    std::uint64_t maxEraseCount(int chip, int plane) const;
    std::uint64_t minEraseCount(int chip, int plane) const;
    std::uint64_t totalErases() const { return totalEraseCount; }
    /** @} */

    int chips() const { return numChips; }
    int planes() const { return planesPerChip; }
    int pagesInBlock() const { return pagesPerBlock; }

  private:
    struct Plane
    {
        std::vector<BlockId> freeList;
        BlockId open = kInvalidBlock;       //!< user write point
        int cursor = 0;
        BlockId openGc = kInvalidBlock;     //!< GC relocation write point
        int cursorGc = 0;
    };

    /** Detach one free block per the wear policy (default: the back). */
    BlockId takeFreeBlock(int chip, Plane &ps);
    /** Take a free block, mark it Open and give it the next fill stamp. */
    BlockId openBlock(int chip, Plane &ps);
    /** Mark a write point's filled block Full and reset the point. */
    void closeFull(int chip, BlockId &open, int &cursor);

    std::size_t planeIndex(int chip, int plane) const;
    std::size_t blockIndex(int chip, BlockId block) const;

    int numChips;
    int planesPerChip;
    int blocksPerPlane;
    int pagesPerBlock;
    std::vector<Plane> planesState;
    std::vector<BlockState> blockStates;
    std::vector<std::uint64_t> eraseCounts;  //!< per (chip, block)
    std::vector<std::uint64_t> openSeqs;     //!< per (chip, block)
    std::uint64_t nextOpenSeq = 1;           //!< 0 means "never opened"
    std::uint64_t totalEraseCount = 0;
    const WearLevelPolicy *wearPolicy = nullptr;
};

} // namespace aero

#endif // AERO_SSD_BLOCK_MANAGER_HH
