/**
 * @file
 * Differential oracle for Ftl::prefill. Prefill fills a fresh drive a
 * whole block run per plane at a time; it must leave exactly the state of
 * the per-LPN round-robin loop it replaced. That loop lives on here as
 * the reference, driven through the public BlockManager / PageMapping /
 * NandChip API, and the two are compared table by table and block by
 * block. A following warmup must then reproduce the erases and mapping
 * recorded from the per-LPN loop, which also covers the write pointer
 * prefill leaves behind.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "nand/wear_model.hh"
#include "ssd/ftl.hh"
#include "ssd/wear_level.hh"

namespace aero
{
namespace
{

/** The per-LPN prefill loop, on its own tables. */
struct Reference
{
    explicit Reference(const SsdConfig &cfg_)
        : cfg(cfg_),
          mapping(cfg.logicalPages(), cfg.totalChips(), cfg.blocksPerChip(),
                  cfg.geometry.pagesPerBlock),
          blocks(cfg), wearPolicy(makeWearLevelPolicy(cfg.wearLevel))
    {
        blocks.setWearPolicy(wearPolicy.get());
        const auto wear = std::make_shared<const WearModel>(
            ChipParams::forType(cfg.chipType));
        for (int i = 0; i < cfg.totalChips(); ++i)
            chips.emplace_back(wear, cfg.geometry, i);
    }

    void
    prefill()
    {
        const auto total = static_cast<Lpn>(
            static_cast<double>(cfg.logicalPages()) * cfg.prefillFraction);
        for (Lpn lpn = 0; lpn < total; ++lpn) {
            const int tries = cfg.totalChips() * cfg.geometry.planes;
            bool placed = false;
            for (int t = 0; t < tries && !placed; ++t) {
                const int key = (writePointer + t) % tries;
                const int chip = key / cfg.geometry.planes;
                const int plane = key % cfg.geometry.planes;
                if (blocks.freeBlocks(chip, plane) <= cfg.gcHighWatermark)
                    continue;
                BlockId blk;
                int page;
                if (!blocks.allocate(chip, plane, blk, page))
                    continue;
                mapping.update(lpn, mapping.encode(chip, blk, page));
                chips[chip].programPage(blk);
                placed = true;
                writePointer = (key + 1) % tries;
            }
            if (!placed) {
                stoppedAt = lpn;
                break;
            }
        }
    }

    SsdConfig cfg;
    PageMapping mapping;
    BlockManager blocks;
    std::unique_ptr<WearLevelPolicy> wearPolicy;
    std::vector<NandChip> chips;
    int writePointer = 0;
    Lpn stoppedAt = kInvalidLpn;
};

/** FNV-1a over every L2P entry: the whole mapping in one value. */
std::uint64_t
mappingFingerprint(const PageMapping &m)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (Lpn lpn = 0; lpn < m.logicalPages(); ++lpn) {
        h ^= m.lookup(lpn);
        h *= 1099511628211ULL;
    }
    return h;
}

void
expectSameState(Ftl &ftl, const Reference &ref)
{
    const SsdConfig &cfg = ref.cfg;
    const PageMapping &got = ftl.pageMapping();
    const PageMapping &want = ref.mapping;
    ASSERT_EQ(got.mappedCount(), want.mappedCount());
    for (Lpn lpn = 0; lpn < want.logicalPages(); ++lpn)
        ASSERT_EQ(got.lookup(lpn), want.lookup(lpn)) << "LPN " << lpn;
    for (Ppn ppn = 0; ppn < cfg.physicalPages(); ++ppn) {
        ASSERT_EQ(got.reverseLookup(ppn), want.reverseLookup(ppn))
            << "PPN " << ppn;
    }
    const BlockManager &bm = ftl.blockManager();
    for (int c = 0; c < cfg.totalChips(); ++c) {
        for (int p = 0; p < cfg.geometry.planes; ++p) {
            SCOPED_TRACE("chip " + std::to_string(c) + " plane " +
                         std::to_string(p));
            ASSERT_EQ(bm.freeBlocks(c, p), ref.blocks.freeBlocks(c, p));
            bool open = false;
            for (int i = 0; i < cfg.geometry.blocksPerPlane; ++i) {
                const auto b =
                    static_cast<BlockId>(p * cfg.geometry.blocksPerPlane + i);
                ASSERT_EQ(bm.state(c, b), ref.blocks.state(c, b))
                    << "block " << b;
                ASSERT_EQ(bm.openSeq(c, b), ref.blocks.openSeq(c, b))
                    << "block " << b;
                ASSERT_EQ(got.validPages(c, b), want.validPages(c, b))
                    << "block " << b;
                ASSERT_EQ(ftl.chipAt(c).block(b).programmedPages(),
                          ref.chips[c].block(b).programmedPages())
                    << "block " << b;
                open = open || bm.state(c, b) == BlockState::Open;
            }
            if (open) {
                ASSERT_EQ(bm.openPageCursor(c, p),
                          ref.blocks.openPageCursor(c, p));
            }
        }
    }
}

struct Case
{
    const char *name;
    SsdConfig cfg;
    Lpn stoppedAt;                //!< first LPN not placed, or kInvalidLpn
    std::uint64_t overwrites;     //!< warmup after prefill
    std::uint64_t erases;         //!< recorded from the per-LPN loop
    std::uint64_t fingerprint;    //!< recorded from the per-LPN loop
};

SsdConfig
tinyWith(double fraction)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.prefillFraction = fraction;
    return cfg;
}

std::vector<Case>
cases()
{
    // tiny(): 4 planes of 16 blocks x 32 pages, so a round places 128
    // LPNs; bench(): 64 planes of 32 blocks x 128 pages, 8192 per round.
    std::vector<Case> out;
    out.push_back({"tiny_0", tinyWith(0.0), kInvalidLpn, 5000, 0,
                   0x36b322244b15887dULL});
    // 337 LPNs: two whole rounds and 81 LPNs, one more on plane key 0.
    out.push_back({"tiny_0.3", tinyWith(0.3), kInvalidLpn, 5000, 123,
                   0xe7aacd06bf5ddab9ULL});
    out.push_back({"tiny_0.97", tinyWith(0.97), kInvalidLpn, 5000, 316,
                   0x8b0f5d77e3c3c033ULL});
    out.push_back({"tiny_1.0", tinyWith(1.0), kInvalidLpn, 5000, 343,
                   0xf49f05fa86a31831ULL});
    out.push_back({"bench", SsdConfig::bench(), kInvalidLpn, 60000, 2483,
                   0x4a823ce181d61f1cULL});

    // 5% over-provisioning: ten whole rounds leave each plane 6 free
    // blocks, the eleventh opening leaves it at the high watermark (5),
    // so every plane takes one page and prefill stops at 10 * 128 + 4.
    SsdConfig edge = tinyWith(1.0);
    edge.opRatio = 0.05;
    out.push_back({"watermark_edge", edge, 1284, 800, 258,
                   0xca5dc946f7949aedULL});
    // The same drive filled to 1282 LPNs ends inside that last round.
    SsdConfig inside = edge;
    inside.prefillFraction = 1282.5 / 1945.0;
    out.push_back({"inside_edge_round", inside, kInvalidLpn, 5000, 622,
                   0x62b22a2c9398997eULL});

    // A zero high watermark: the user reserve (one free block) stops
    // prefill instead, after 15 rounds. Nothing is left for warmup.
    SsdConfig reserve = tinyWith(1.0);
    reserve.opRatio = 0.01;
    reserve.gcHighWatermark = 0;
    out.push_back({"gc_reserve_edge", reserve, 1920, 0, 0,
                   0x8e29bdf1892b4722ULL});

    SsdConfig dynamic = tinyWith(1.0);
    dynamic.wearLevel = "dynamic";
    out.push_back({"tiny_dynamic", dynamic, kInvalidLpn, 5000, 344,
                   0x2de6dbe29947d43bULL});
    SsdConfig bench_dynamic = SsdConfig::bench();
    bench_dynamic.prefillFraction = 0.97;
    bench_dynamic.wearLevel = "dynamic";
    out.push_back({"bench_dynamic_0.97", bench_dynamic, kInvalidLpn, 60000,
                   1838, 0x79eab1fb25985048ULL});
    return out;
}

TEST(PrefillDifferential, MatchesThePerLpnLoop)
{
    for (const Case &c : cases()) {
        SCOPED_TRACE(c.name);
        Reference ref(c.cfg);
        ref.prefill();
        EXPECT_EQ(ref.stoppedAt, c.stoppedAt);

        EventQueue eq;
        Ftl ftl(c.cfg, eq);
        testing::internal::CaptureStderr();
        ftl.prefill();
        const std::string warned = testing::internal::GetCapturedStderr();
        if (c.stoppedAt == kInvalidLpn) {
            EXPECT_EQ(warned, "");
        } else {
            const auto total = static_cast<Lpn>(
                static_cast<double>(c.cfg.logicalPages()) *
                c.cfg.prefillFraction);
            EXPECT_NE(warned.find("prefill stopped early at LPN " +
                                  std::to_string(c.stoppedAt) + " of " +
                                  std::to_string(total)),
                      std::string::npos)
                << warned;
        }
        expectSameState(ftl, ref);

        ftl.warmup(c.overwrites);
        EXPECT_EQ(ftl.warmupErases(), c.erases);
        EXPECT_EQ(mappingFingerprint(ftl.pageMapping()), c.fingerprint);
    }
}

TEST(PrefillDeathTest, NeedsAFreshDrive)
{
    EventQueue eq;
    Ftl ftl(SsdConfig::tiny(), eq);
    ftl.prefill();
    EXPECT_DEATH(ftl.prefill(), "prefill needs a fresh drive");
}

} // namespace
} // namespace aero
