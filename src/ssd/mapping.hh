/**
 * @file
 * Page-level logical-to-physical mapping (the conventional page-level FTL
 * the paper extends, after DFTL [70] but with the full table resident, as
 * in modern DRAM-backed SSDs).
 *
 * A PPN encodes (chip, chip-local block, page):
 *   ppn = (chip * blocksPerChip + block) * pagesPerBlock + page,
 * so ppn / pagesPerBlock is the drive-wide flat block index
 * (chip * blocksPerChip + block) that the per-block valid-page counts
 * are keyed by. The mapping is the only owner of those counts.
 *
 * L2P and P2L are flat FEMU-style `maptbl`/`rmap` arrays of packed 32-bit
 * entries; the API stays 64-bit (Lpn/Ppn, kInvalidLpn/kInvalidPpn) at the
 * boundary. Drives whose physical page count does not fit a 32-bit entry
 * are rejected up front (Ftl::validated). A table of at least 2 MiB is
 * backed by a 2 MiB-aligned allocation advised MADV_HUGEPAGE before first
 * touch, so random L2P/P2L accesses on a paper()-sized drive walk few
 * TLB entries; smaller tables use plain allocation.
 */

#ifndef AERO_SSD_MAPPING_HH
#define AERO_SSD_MAPPING_HH

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace aero
{

struct PpnParts
{
    int chip;
    BlockId block;  //!< chip-local block id
    int page;
};

/** Largest physical page count whose PPNs fit a packed 32-bit entry. */
constexpr std::uint64_t kMaxPackedPages = 0xFFFFFFFEULL;

class PageMapping
{
  public:
    PageMapping(std::uint64_t logical_pages, int chips, int blocks_per_chip,
                int pages_per_block);

    std::uint64_t logicalPages() const { return l2p.size; }

    /** A trace page number folded into the logical space. In-range
     *  pages, nearly all of them, skip the 64-bit division. */
    Lpn
    wrap(std::uint64_t page) const
    {
        return page < l2p.size ? page : page % l2p.size;
    }

    /** Current physical location of a logical page (kInvalidPpn if none). */
    Ppn lookup(Lpn lpn) const;

    /** Logical owner of a physical page (kInvalidLpn if free/invalid). */
    Lpn reverseLookup(Ppn ppn) const;

    bool isValid(Ppn ppn) const { return reverseLookup(ppn) != kInvalidLpn; }

    /** Map `lpn` to `ppn`, invalidating any previous location. */
    void update(Lpn lpn, Ppn ppn);

    /**
     * Map `count` logical pages from `first` striped over empty blocks,
     * as round-robin placement fills a fresh drive: LPN first + j goes
     * to page j / n of the block starting at PPN starts[j % n], with
     * n = starts.size() <= count. Every LPN must be unmapped (nothing
     * else maps them on a fresh drive); the stripe is checked once per
     * block, not page by page. The tables are written row by row, so
     * L2P fills in LPN order and each block's P2L run in page order.
     */
    void mapStripe(Lpn first, Lpn count, const std::vector<Ppn> &starts);

    /** Drop the mapping of a logical page (TRIM). */
    void invalidateLpn(Lpn lpn);

    /**
     * @name Cache hints for an upcoming update(lpn, ...)
     * prefetch() pulls in the L2P entry; prefetchReverse(), issued once
     * that entry is resident, pulls in the P2L entry of the page `lpn`
     * maps to now. Neither has any functional effect; `lpn` must be in
     * range (below logicalPages()).
     */
    /** @{ */
    void
    prefetch(Lpn lpn) const
    {
        __builtin_prefetch(l2p.data.get() + lpn, 1);
    }
    void
    prefetchReverse(Lpn lpn) const
    {
        const Entry ppn = l2p.data[lpn];
        if (ppn != kNone)
            __builtin_prefetch(p2l.data.get() + ppn, 1);
    }
    /** @} */

    /** Valid-page count of a chip-local block of a chip. */
    int validPages(int chip, BlockId block) const;

    /** Called by the block manager when a block is erased. */
    void onBlockErased(int chip, BlockId block);

    /** @name PPN encoding */
    /** @{ */
    Ppn encode(int chip, BlockId block, int page) const;
    PpnParts decode(Ppn ppn) const;
    /** @} */

    std::uint64_t mappedCount() const { return mapped; }

  private:
    using Entry = std::uint32_t;
    static constexpr Entry kNone = ~Entry{0};

    /** Fixed-size array of packed entries, all kNone at construction. */
    struct Table
    {
        struct Free
        {
            void operator()(Entry *p) const { std::free(p); }
        };

        explicit Table(std::uint64_t entries);

        std::unique_ptr<Entry[], Free> data;
        std::uint64_t size;

        Entry &operator[](std::uint64_t i) { return data[i]; }
        Entry operator[](std::uint64_t i) const { return data[i]; }
    };

    std::uint32_t
    flatBlock(Ppn ppn) const
    {
        return static_cast<std::uint32_t>(ppn) / pagesPerBlock;
    }
    std::size_t blockIndex(int chip, BlockId block) const;

    int chips;
    int blocksPerChip;
    std::uint32_t pagesPerBlock;
    Table p2l;  //!< sized (and range-checked) first
    Table l2p;
    std::vector<std::int32_t> validCount;  //!< per flat block
    std::uint64_t mapped = 0;
};

} // namespace aero

#endif // AERO_SSD_MAPPING_HH
