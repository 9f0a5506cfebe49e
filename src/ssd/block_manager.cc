#include "ssd/block_manager.hh"

#include <algorithm>

#include "common/logging.hh"
#include "ssd/wear_level.hh"

namespace aero
{

BlockManager::BlockManager(const SsdConfig &cfg)
    : numChips(cfg.totalChips()), planesPerChip(cfg.geometry.planes),
      blocksPerPlane(cfg.geometry.blocksPerPlane),
      pagesPerBlock(cfg.geometry.pagesPerBlock),
      planesState(static_cast<std::size_t>(numChips) * planesPerChip),
      blockStates(static_cast<std::size_t>(numChips) * planesPerChip *
                      blocksPerPlane,
                  BlockState::Free),
      eraseCounts(blockStates.size(), 0), openSeqs(blockStates.size(), 0)
{
    for (int c = 0; c < numChips; ++c) {
        for (int p = 0; p < planesPerChip; ++p) {
            auto &plane = planesState[planeIndex(c, p)];
            plane.freeList.reserve(blocksPerPlane);
            // Populate in reverse so allocation proceeds from block 0 up.
            for (int b = blocksPerPlane - 1; b >= 0; --b) {
                plane.freeList.push_back(
                    static_cast<BlockId>(p * blocksPerPlane + b));
            }
        }
    }
}

int
BlockManager::freeBlocks(int chip, int plane) const
{
    return static_cast<int>(
        planesState[planeIndex(chip, plane)].freeList.size());
}

int
BlockManager::minFreeBlocks(int chip) const
{
    int min_free = blocksPerPlane;
    for (int p = 0; p < planesPerChip; ++p)
        min_free = std::min(min_free, freeBlocks(chip, p));
    return min_free;
}

BlockState
BlockManager::state(int chip, BlockId block) const
{
    return blockStates[blockIndex(chip, block)];
}

std::uint64_t
BlockManager::openSeq(int chip, BlockId block) const
{
    return openSeqs[blockIndex(chip, block)];
}

BlockId
BlockManager::takeFreeBlock(int chip, Plane &ps)
{
    std::size_t slot = ps.freeList.size() - 1;
    if (wearPolicy)
        slot = wearPolicy->chooseFreeSlot(ps.freeList, chip, *this);
    AERO_CHECK(slot < ps.freeList.size(), "wear policy chose slot ", slot,
               " outside the free list");
    const BlockId block = ps.freeList[slot];
    ps.freeList.erase(ps.freeList.begin() +
                      static_cast<std::ptrdiff_t>(slot));
    return block;
}

BlockId
BlockManager::openBlock(int chip, Plane &ps)
{
    const BlockId block = takeFreeBlock(chip, ps);
    const std::size_t idx = blockIndex(chip, block);
    AERO_CHECK(blockStates[idx] == BlockState::Free,
               "opened block was not in Free state");
    blockStates[idx] = BlockState::Open;
    openSeqs[idx] = nextOpenSeq++;
    return block;
}

void
BlockManager::closeFull(int chip, BlockId &open, int &cursor)
{
    auto &st = blockStates[blockIndex(chip, open)];
    AERO_CHECK(st == BlockState::Open, "filled block was not in Open state");
    st = BlockState::Full;
    open = kInvalidBlock;
    cursor = 0;
}

bool
BlockManager::allocate(int chip, int plane, BlockId &block, int &page,
                       bool for_gc)
{
    auto &ps = planesState[planeIndex(chip, plane)];
    // GC relocations use their own write point so that a victim's live
    // pages always fit the block GC opened for them; user writes keep a
    // block in reserve for exactly that purpose.
    BlockId &open = for_gc ? ps.openGc : ps.open;
    int &cursor = for_gc ? ps.cursorGc : ps.cursor;
    if (open == kInvalidBlock) {
        const auto reserve =
            for_gc ? 0u : static_cast<std::size_t>(kGcReservedBlocks);
        if (ps.freeList.size() <= reserve)
            return false;
        open = openBlock(chip, ps);
        cursor = 0;
    }
    block = open;
    page = cursor++;
    if (cursor == pagesPerBlock)
        closeFull(chip, open, cursor);
    return true;
}

BlockId
BlockManager::allocateRun(int chip, int plane, int pages)
{
    auto &ps = planesState[planeIndex(chip, plane)];
    AERO_CHECK(ps.open == kInvalidBlock, "plane already has an open block");
    AERO_CHECK(pages >= 1 && pages <= pagesPerBlock,
               "run of ", pages, " pages does not fit a block");
    AERO_CHECK(ps.freeList.size() >
                   static_cast<std::size_t>(kGcReservedBlocks),
               "no free block outside the GC reserve");
    const BlockId block = openBlock(chip, ps);
    ps.open = block;
    ps.cursor = pages;
    if (pages == pagesPerBlock)
        closeFull(chip, ps.open, ps.cursor);
    return block;
}

int
BlockManager::openPageCursor(int chip, int plane) const
{
    const auto &ps = planesState[planeIndex(chip, plane)];
    AERO_CHECK(ps.open != kInvalidBlock, "no open block");
    return ps.cursor;
}

void
BlockManager::onBlockErased(int chip, BlockId block)
{
    const std::size_t idx = blockIndex(chip, block);
    AERO_CHECK(blockStates[idx] == BlockState::Full,
               "erased block was not in Full state");
    blockStates[idx] = BlockState::Free;
    eraseCounts[idx] += 1;
    openSeqs[idx] = 0;
    totalEraseCount += 1;
    const int plane = planeOf(block);
    planesState[planeIndex(chip, plane)].freeList.push_back(block);
}

std::vector<BlockId>
BlockManager::fullBlocks(int chip, int plane) const
{
    std::vector<BlockId> out;
    for (int b = 0; b < blocksPerPlane; ++b) {
        const auto id = static_cast<BlockId>(plane * blocksPerPlane + b);
        if (state(chip, id) == BlockState::Full)
            out.push_back(id);
    }
    return out;
}

std::uint64_t
BlockManager::eraseCount(int chip, BlockId block) const
{
    return eraseCounts[blockIndex(chip, block)];
}

std::uint64_t
BlockManager::maxEraseCount(int chip, int plane) const
{
    std::uint64_t max_ec = 0;
    for (int b = 0; b < blocksPerPlane; ++b) {
        const auto id = static_cast<BlockId>(plane * blocksPerPlane + b);
        max_ec = std::max(max_ec, eraseCount(chip, id));
    }
    return max_ec;
}

std::uint64_t
BlockManager::minEraseCount(int chip, int plane) const
{
    std::uint64_t min_ec = ~0ULL;
    for (int b = 0; b < blocksPerPlane; ++b) {
        const auto id = static_cast<BlockId>(plane * blocksPerPlane + b);
        min_ec = std::min(min_ec, eraseCount(chip, id));
    }
    return min_ec;
}

std::size_t
BlockManager::planeIndex(int chip, int plane) const
{
    AERO_CHECK(chip >= 0 && chip < numChips, "chip out of range");
    AERO_CHECK(plane >= 0 && plane < planesPerChip, "plane out of range");
    return static_cast<std::size_t>(chip) * planesPerChip + plane;
}

std::size_t
BlockManager::blockIndex(int chip, BlockId block) const
{
    AERO_CHECK(chip >= 0 && chip < numChips, "chip out of range");
    AERO_CHECK(block < static_cast<BlockId>(planesPerChip * blocksPerPlane),
               "block out of range");
    return static_cast<std::size_t>(chip) * planesPerChip * blocksPerPlane +
           block;
}

} // namespace aero
