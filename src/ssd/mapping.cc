#include "ssd/mapping.hh"

#include <algorithm>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

#include "common/logging.hh"

namespace aero
{

namespace
{

constexpr std::size_t kHugePage = std::size_t{2} << 20;

/** Physical page count, checked to fit the packed entry format. */
std::uint64_t
packedPhysicalPages(std::uint64_t logical_pages, int chips,
                    int blocks_per_chip, int pages_per_block)
{
    const std::uint64_t pages = static_cast<std::uint64_t>(chips) *
                                static_cast<std::uint64_t>(blocks_per_chip) *
                                static_cast<std::uint64_t>(pages_per_block);
    AERO_CHECK(pages <= kMaxPackedPages, "physical space of ", pages,
               " pages exceeds the packed 32-bit PPN range");
    AERO_CHECK(logical_pages <= pages,
               "logical space exceeds physical space");
    return pages;
}

} // namespace

PageMapping::Table::Table(std::uint64_t entries) : size(entries)
{
    const std::size_t bytes =
        static_cast<std::size_t>(std::max<std::uint64_t>(entries, 1)) *
        sizeof(Entry);
    void *mem = nullptr;
    if (bytes >= kHugePage) {
        // Whole 2 MiB pages, advised before the fill below first touches
        // them, so the kernel can back the table with huge pages.
        const std::size_t rounded = (bytes + kHugePage - 1) / kHugePage *
                                    kHugePage;
        mem = std::aligned_alloc(kHugePage, rounded);
#ifdef MADV_HUGEPAGE
        if (mem)
            (void)madvise(mem, rounded, MADV_HUGEPAGE);  // best effort
#endif
    } else {
        mem = std::malloc(bytes);
    }
    AERO_CHECK(mem != nullptr, "cannot allocate a ", bytes,
               "-byte mapping table");
    data.reset(static_cast<Entry *>(mem));
    std::fill_n(data.get(), entries, kNone);
}

PageMapping::PageMapping(std::uint64_t logical_pages, int chips_,
                         int blocks_per_chip, int pages_per_block)
    : chips(chips_), blocksPerChip(blocks_per_chip),
      pagesPerBlock(static_cast<std::uint32_t>(pages_per_block)),
      p2l(packedPhysicalPages(logical_pages, chips_, blocks_per_chip,
                              pages_per_block)),
      l2p(logical_pages),
      validCount(static_cast<std::size_t>(chips_) * blocks_per_chip, 0)
{
}

Ppn
PageMapping::lookup(Lpn lpn) const
{
    AERO_CHECK(lpn < l2p.size, "LPN out of range: ", lpn);
    const Entry ppn = l2p[lpn];
    return ppn == kNone ? kInvalidPpn : ppn;
}

Lpn
PageMapping::reverseLookup(Ppn ppn) const
{
    AERO_CHECK(ppn < p2l.size, "PPN out of range: ", ppn);
    const Entry lpn = p2l[ppn];
    return lpn == kNone ? kInvalidLpn : lpn;
}

void
PageMapping::update(Lpn lpn, Ppn ppn)
{
    AERO_CHECK(lpn < l2p.size, "LPN out of range: ", lpn);
    AERO_CHECK(ppn < p2l.size, "PPN out of range: ", ppn);
    AERO_CHECK(p2l[ppn] == kNone,
               "programming a PPN that is still mapped: ", ppn);
    const Entry old = l2p[lpn];
    if (old != kNone) {
        p2l[old] = kNone;
        auto &old_valid = validCount[flatBlock(old)];
        old_valid -= 1;
        AERO_CHECK(old_valid >= 0, "negative valid count");
    } else {
        ++mapped;
    }
    l2p[lpn] = static_cast<Entry>(ppn);
    p2l[ppn] = static_cast<Entry>(lpn);
    auto &valid = validCount[flatBlock(ppn)];
    valid += 1;
    AERO_CHECK(valid <= static_cast<std::int32_t>(pagesPerBlock),
               "valid pages overflow block");
}

void
PageMapping::mapStripe(Lpn first, Lpn count, const std::vector<Ppn> &starts)
{
    const Lpn n = starts.size();
    AERO_CHECK(n >= 1 && n <= count, "stripe of ", count, " pages over ",
               n, " blocks");
    AERO_CHECK(first + count <= l2p.size, "LPN out of range: ",
               first + count - 1);
    AERO_CHECK((count + n - 1) / n <= pagesPerBlock,
               "valid pages overflow block");
    for (Lpn k = 0; k < n; ++k) {
        AERO_CHECK(starts[k] < p2l.size && starts[k] % pagesPerBlock == 0,
                   "stripe block does not start at page 0: ", starts[k]);
        // A block with no valid pages has no P2L entries either.
        auto &valid = validCount[flatBlock(starts[k])];
        AERO_CHECK(valid == 0, "mapping a stripe onto a block with valid "
                   "pages");
        valid = static_cast<std::int32_t>((count - k + n - 1) / n);
    }
    Lpn lpn = first;
    const Lpn end = first + count;
    for (Ppn page = 0; lpn < end; ++page) {
        for (Lpn k = 0; k < n && lpn < end; ++k, ++lpn) {
            l2p[lpn] = static_cast<Entry>(starts[k] + page);
            p2l[starts[k] + page] = static_cast<Entry>(lpn);
        }
    }
    mapped += count;
}

void
PageMapping::invalidateLpn(Lpn lpn)
{
    AERO_CHECK(lpn < l2p.size, "LPN out of range: ", lpn);
    const Entry old = l2p[lpn];
    if (old == kNone)
        return;
    p2l[old] = kNone;
    auto &old_valid = validCount[flatBlock(old)];
    old_valid -= 1;
    AERO_CHECK(old_valid >= 0, "negative valid count");
    l2p[lpn] = kNone;
    --mapped;
}

int
PageMapping::validPages(int chip, BlockId block) const
{
    return validCount[blockIndex(chip, block)];
}

void
PageMapping::onBlockErased(int chip, BlockId block)
{
    AERO_CHECK(validPages(chip, block) == 0,
               "erasing a block with valid pages");
    // Clear any stale reverse entries (invalid pages).
    std::fill_n(p2l.data.get() + encode(chip, block, 0), pagesPerBlock,
                kNone);
}

Ppn
PageMapping::encode(int chip, BlockId block, int page) const
{
    return (static_cast<Ppn>(chip) * blocksPerChip + block) *
               pagesPerBlock + page;
}

PpnParts
PageMapping::decode(Ppn ppn) const
{
    // Every in-range PPN fits 32 bits, and 32-bit division is the cheap
    // one on x86-64.
    const auto packed = static_cast<std::uint32_t>(ppn);
    const auto per_chip = static_cast<std::uint32_t>(blocksPerChip);
    PpnParts parts;
    parts.page = static_cast<int>(packed % pagesPerBlock);
    const std::uint32_t blk = packed / pagesPerBlock;
    parts.block = blk % per_chip;
    parts.chip = static_cast<int>(blk / per_chip);
    return parts;
}

std::size_t
PageMapping::blockIndex(int chip, BlockId block) const
{
    AERO_CHECK(chip >= 0 && chip < chips, "chip out of range");
    AERO_CHECK(block < static_cast<BlockId>(blocksPerChip),
               "block out of range");
    return static_cast<std::size_t>(chip) * blocksPerChip + block;
}

} // namespace aero
