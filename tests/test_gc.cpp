/**
 * @file
 * GC victim-selection battery (ssd/gc.hh): policy scoring units, the
 * name registry, the fifo-log reuse-cycle regression, a randomized
 * differential check of GcPolicy::pickVictim against an independent
 * test-side oracle (10k sequences per registered policy), and a 50k-op
 * mixed host/GC/WL fuzz asserting mapping bijectivity, valid-count and
 * free-page accounting and wear-count conservation after every
 * reclamation cycle.
 *
 * pickVictim reads each per-block fact from its one owner: valid counts
 * from PageMapping, state, erase counts and fill stamps from
 * BlockManager. The oracle takes valid counts from a P2L recount and
 * fill stamps from the fixture's own record of the order it opened
 * blocks in, and checks both owners against them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "ssd/block_manager.hh"
#include "ssd/config.hh"
#include "ssd/gc.hh"
#include "ssd/mapping.hh"
#include "ssd/wear_level.hh"

namespace aero
{
namespace
{

GcLineInfo
line(BlockId block, int valid, int ppb, std::uint64_t open_seq,
     std::uint64_t ec)
{
    GcLineInfo info;
    info.block = block;
    info.validPages = valid;
    info.pagesPerBlock = ppb;
    info.openSeq = open_seq;
    info.eraseCount = ec;
    return info;
}

TEST(GcPolicyScore, GreedyOrdersByValidPagesAndBreaksTiesByBlockId)
{
    GreedyGcPolicy greedy;
    EXPECT_LT(greedy.score(line(0, 2, 32, 9, 0)),
              greedy.score(line(1, 5, 32, 1, 0)));
    // Equal valid counts: the lower block id must win the tie-break so
    // victim selection matches an ascending plane scan exactly.
    EXPECT_EQ(greedy.score(line(3, 4, 32, 1, 0)),
              greedy.score(line(7, 4, 32, 2, 0)));
    EXPECT_LT(greedy.tieBreak(line(3, 4, 32, 9, 0)),
              greedy.tieBreak(line(7, 4, 32, 1, 0)));
}

TEST(GcPolicyScore, CostBenefitPrefersEmptierAndYoungerBlocks)
{
    CostBenefitGcPolicy cb;
    // Fewer valid pages -> cheaper migration and more reclaimed space.
    EXPECT_LT(cb.score(line(0, 2, 32, 1, 0)), cb.score(line(1, 20, 32, 1, 0)));
    // Same occupancy but more wear -> worse victim.
    EXPECT_LT(cb.score(line(0, 8, 32, 1, 1)), cb.score(line(1, 8, 32, 1, 5)));
    // An empty block scores zero regardless of wear.
    EXPECT_EQ(cb.score(line(0, 0, 32, 1, 100)), 0.0);
}

TEST(GcPolicyScore, FifoLogOrdersByFillGeneration)
{
    FifoLogGcPolicy fifo;
    EXPECT_LT(fifo.score(line(9, 30, 32, 1, 0)),
              fifo.score(line(0, 0, 32, 2, 0)));
}

TEST(GcPolicy, RegistryRoundTripsNames)
{
    EXPECT_STREQ(makeGcPolicy("greedy")->name(), "greedy");
    EXPECT_STREQ(makeGcPolicy("cost-benefit")->name(), "cost-benefit");
    EXPECT_STREQ(makeGcPolicy("fifo-log")->name(), "fifo-log");
    // The old "fifo" spelling stays accepted as an alias.
    EXPECT_STREQ(makeGcPolicy("fifo")->name(), "fifo-log");
    const std::string names = gcPolicyNames();
    EXPECT_NE(names.find("greedy"), std::string::npos);
    EXPECT_NE(names.find("cost-benefit"), std::string::npos);
    EXPECT_NE(names.find("fifo-log"), std::string::npos);
}

TEST(GcPolicy, UnknownNameIsFatalAndListsChoices)
{
    EXPECT_DEATH((void)makeGcPolicy("lru"),
                 "greedy, cost-benefit, fifo-log");
}

/**
 * A tiny drive's worth of BlockManager + PageMapping wired together the
 * way the FTL wires them, with functional write/trim/GC helpers
 * mirroring the FTL's write path and functionalGc(). Every allocation
 * goes through allocate(), which records the fill order itself: an
 * allocation that returns page 0 just opened that block.
 */
struct LineFixture
{
    SsdConfig cfg;
    std::unique_ptr<GcPolicy> policy;
    BlockManager blocks;
    PageMapping mapping;
    std::vector<std::uint64_t> fillStamp;  //!< per (chip, block)
    std::uint64_t fills = 0;
    Lpn nextLpn = 0;

    explicit LineFixture(const std::string &policy_name = "greedy")
        : cfg(SsdConfig::tiny()), policy(makeGcPolicy(policy_name)),
          blocks(cfg),
          mapping(cfg.logicalPages(), cfg.totalChips(), cfg.blocksPerChip(),
                  cfg.geometry.pagesPerBlock),
          fillStamp(static_cast<std::size_t>(cfg.totalChips()) *
                        cfg.blocksPerChip(),
                    0)
    {
    }

    int pagesPerBlock() const { return cfg.geometry.pagesPerBlock; }

    /** The victim the policy picks from the owners' state. */
    BlockId
    pick(int chip, int plane) const
    {
        return policy->pickVictim(chip, plane, blocks, mapping);
    }

    /** chip * blocksPerChip + block: the index of per-block tables. */
    std::size_t
    flat(int chip, BlockId block) const
    {
        return static_cast<std::size_t>(chip) * cfg.blocksPerChip() + block;
    }

    /** The fixture's own fill stamp of a block (1, 2, ... in open order). */
    std::uint64_t
    stampOf(int chip, BlockId block) const
    {
        return fillStamp[flat(chip, block)];
    }

    /** BlockManager::allocate, recording the blocks it opens. */
    bool
    allocate(int chip, int plane, BlockId &blk, int &page,
             bool for_gc = false)
    {
        if (!blocks.allocate(chip, plane, blk, page, for_gc))
            return false;
        if (page == 0)
            fillStamp[flat(chip, blk)] = ++fills;
        return true;
    }

    /** @return false when the plane is out of user space. */
    bool
    writePage(Lpn lpn, int chip, int plane)
    {
        BlockId blk = kInvalidBlock;
        int page = 0;
        if (!allocate(chip, plane, blk, page))
            return false;
        mapping.update(lpn, mapping.encode(chip, blk, page));
        return true;
    }

    /** Write pagesPerBlock fresh LPNs; @return the block they filled. */
    BlockId
    fillBlock(int chip, int plane)
    {
        BlockId blk = kInvalidBlock;
        for (int i = 0; i < pagesPerBlock(); ++i) {
            int page = 0;
            AERO_CHECK(allocate(chip, plane, blk, page),
                       "fixture plane ran out of blocks");
            mapping.update(nextLpn++, mapping.encode(chip, blk, page));
        }
        return blk;
    }

    void trim(Lpn lpn) { mapping.invalidateLpn(lpn); }

    /** Pages of a block the P2L table still names an owner for. */
    int
    liveP2lPages(int chip, BlockId block) const
    {
        int live = 0;
        for (int page = 0; page < pagesPerBlock(); ++page) {
            if (mapping.isValid(mapping.encode(chip, block, page)))
                live += 1;
        }
        return live;
    }

    /** Functional GC: migrate every valid page off `victim`, erase it. */
    void
    collect(int chip, BlockId victim)
    {
        const int plane = blocks.planeOf(victim);
        for (int page = 0; page < pagesPerBlock(); ++page) {
            const Lpn lpn =
                mapping.reverseLookup(mapping.encode(chip, victim, page));
            if (lpn == kInvalidLpn)
                continue;
            BlockId dst = kInvalidBlock;
            int dst_page = 0;
            AERO_CHECK(allocate(chip, plane, dst, dst_page, true),
                       "GC found no relocation target");
            mapping.update(lpn, mapping.encode(chip, dst, dst_page));
        }
        mapping.onBlockErased(chip, victim);
        blocks.onBlockErased(chip, victim);
    }
};

/**
 * Test-side victim oracle, independent of GcPolicy::pickVictim: the
 * candidates are the BlockManager's Full blocks, valid counts come from
 * a P2L recount (which must match the mapping's count), fill stamps
 * from the fixture's own record (which must match the BlockManager's
 * openSeq), erase counts from the BlockManager, and the winner is the
 * lexicographic minimum of (score, tieBreak, block) under the
 * fixture's policy.
 */
BlockId
oracleVictim(const LineFixture &fx, int chip, int plane)
{
    BlockId best = kInvalidBlock;
    std::tuple<double, std::uint64_t, BlockId> best_key;
    for (const BlockId b : fx.blocks.fullBlocks(chip, plane)) {
        const GcLineInfo info =
            line(b, fx.liveP2lPages(chip, b), fx.pagesPerBlock(),
                 fx.stampOf(chip, b), fx.blocks.eraseCount(chip, b));
        EXPECT_EQ(fx.mapping.validPages(chip, b), info.validPages);
        EXPECT_EQ(fx.blocks.openSeq(chip, b), info.openSeq);
        const auto key = std::make_tuple(fx.policy->score(info),
                                         fx.policy->tieBreak(info), b);
        if (best == kInvalidBlock || key < best_key) {
            best = b;
            best_key = key;
        }
    }
    return best;
}

TEST(GcVictim, GreedyPicksFewestValidPages)
{
    LineFixture fx;
    const std::vector<int> keep = {5, 2, 9};
    std::vector<BlockId> full;
    for (const int k : keep) {
        full.push_back(fx.fillBlock(0, 0));
        for (int i = 0; i < fx.pagesPerBlock() - k; ++i)
            fx.trim(fx.nextLpn - 1 - static_cast<Lpn>(i));
    }
    EXPECT_EQ(fx.pick(0, 0), full[1]);
    EXPECT_EQ(oracleVictim(fx, 0, 0), full[1]);
}

TEST(GcVictim, GreedyBreaksTiesTowardLowestBlockId)
{
    LineFixture fx;
    std::vector<BlockId> full;
    for (int b = 0; b < 3; ++b) {
        full.push_back(fx.fillBlock(0, 0));
        for (int i = 0; i < fx.pagesPerBlock() - 4; ++i)
            fx.trim(fx.nextLpn - 1 - static_cast<Lpn>(i));
    }
    EXPECT_EQ(fx.pick(0, 0),
              *std::min_element(full.begin(), full.end()));
}

TEST(GcVictim, NoFullBlocksMeansNoVictim)
{
    LineFixture fx;
    EXPECT_EQ(fx.pick(0, 0), kInvalidBlock);
    EXPECT_EQ(oracleVictim(fx, 0, 0), kInvalidBlock);
    EXPECT_TRUE(fx.blocks.fullBlocks(0, 0).empty());
    // An Open (not yet Full) block is not a candidate either.
    BlockId blk = kInvalidBlock;
    int page = 0;
    ASSERT_TRUE(fx.allocate(0, 0, blk, page));
    EXPECT_EQ(fx.pick(0, 0), kInvalidBlock);
    EXPECT_EQ(oracleVictim(fx, 0, 0), kInvalidBlock);
    // A plane outside the chip has no blocks to pick from.
    EXPECT_DEATH((void)fx.pick(0, fx.cfg.geometry.planes),
                 "plane out of range");
}

TEST(GcVictim, ErasedVictimIsNoLongerACandidate)
{
    LineFixture fx;
    const BlockId a = fx.fillBlock(0, 0);
    const BlockId b = fx.fillBlock(0, 0);
    // Empty block a entirely so collecting it migrates nothing.
    for (Lpn lpn = 0; lpn < static_cast<Lpn>(fx.pagesPerBlock()); ++lpn)
        fx.trim(lpn);
    ASSERT_EQ(fx.pick(0, 0), a);
    fx.collect(0, a);
    EXPECT_EQ(fx.pick(0, 0), b);
    const auto remaining = fx.blocks.fullBlocks(0, 0);
    EXPECT_EQ(remaining, std::vector<BlockId>{b});
}

/**
 * Reuse-cycle regression: the old fifo policy ordered victims by numeric
 * block id, which replays an erased-and-refilled low-id block ahead of
 * data written long before it. fifo-log must pick the oldest *fill*.
 */
TEST(GcVictim, FifoLogSurvivesBlockReuse)
{
    LineFixture fx("fifo-log");
    const BlockId a = fx.fillBlock(0, 0);
    const BlockId b = fx.fillBlock(0, 0);
    ASSERT_LT(a, b);
    // Invalidate and erase a, then refill it: a's fill is now the newest.
    for (Lpn lpn = 0; lpn < static_cast<Lpn>(fx.pagesPerBlock()); ++lpn)
        fx.trim(lpn);
    fx.collect(0, a);
    const BlockId a_again = fx.fillBlock(0, 0);
    ASSERT_EQ(a_again, a);  // LIFO free list hands the same block back
    const BlockId c = fx.fillBlock(0, 0);
    ASSERT_NE(c, a);
    // Block-id order would pick a; log order must pick b.
    EXPECT_EQ(fx.pick(0, 0), b);
    EXPECT_LT(fx.blocks.openSeq(0, b), fx.blocks.openSeq(0, a));
}

TEST(GcVictim, ValidCountsMatchAP2lRecount)
{
    LineFixture fx;
    for (int b = 0; b < 4; ++b)
        fx.fillBlock(0, 0);
    std::mt19937_64 rng(17);
    for (int i = 0; i < 64; ++i)
        fx.trim(rng() % fx.nextLpn);
    for (const BlockId blk : fx.blocks.fullBlocks(0, 0))
        EXPECT_EQ(fx.liveP2lPages(0, blk), fx.mapping.validPages(0, blk));
}

/**
 * Differential engine: one randomized churn step (overwrite / trim /
 * GC), then require pickVictim and the test-side oracle to agree on
 * every plane. Each step is one randomized invalidation
 * sequence against a drive state no other step has seen.
 */
void
differentialChurn(const std::string &policy_name, std::uint64_t seed,
                  int steps)
{
    LineFixture fx(policy_name);
    std::mt19937_64 rng(seed);
    // Start from a mostly-written drive so Full blocks exist early.
    const Lpn span = fx.cfg.logicalPages();
    for (Lpn lpn = 0; lpn < span / 2; ++lpn) {
        const int chip = static_cast<int>(rng() % fx.cfg.totalChips());
        const int plane = static_cast<int>(rng() % fx.cfg.geometry.planes);
        ASSERT_TRUE(fx.writePage(lpn, chip, plane));
    }
    for (int step = 0; step < steps; ++step) {
        const int chip = static_cast<int>(rng() % fx.cfg.totalChips());
        const int plane = static_cast<int>(rng() % fx.cfg.geometry.planes);
        // Reclaim ahead of the writes so allocation never wedges.
        if (fx.blocks.freeBlocks(chip, plane) <=
            fx.cfg.gcLowWatermark) {
            const BlockId victim = fx.pick(chip, plane);
            if (victim != kInvalidBlock)
                fx.collect(chip, victim);
        }
        const std::uint64_t dice = rng() % 10;
        if (dice < 7) {
            ASSERT_TRUE(fx.writePage(rng() % span, chip, plane));
        } else if (dice < 9) {
            fx.trim(rng() % span);
        } else {
            const BlockId victim = fx.pick(chip, plane);
            if (victim != kInvalidBlock)
                fx.collect(chip, victim);
        }
        for (int c = 0; c < fx.cfg.totalChips(); ++c) {
            for (int p = 0; p < fx.cfg.geometry.planes; ++p) {
                ASSERT_EQ(fx.pick(c, p), oracleVictim(fx, c, p))
                    << policy_name << " diverged at step " << step
                    << " chip " << c << " plane " << p;
            }
        }
    }
}

TEST(GcVictimDifferential, GreedyMatchesBruteForceOver10kSequences)
{
    differentialChurn("greedy", 0xAE01, 10000);
}

TEST(GcVictimDifferential, CostBenefitMatchesBruteForceOver10kSequences)
{
    differentialChurn("cost-benefit", 0xAE02, 10000);
}

TEST(GcVictimDifferential, FifoLogMatchesBruteForceOver10kSequences)
{
    differentialChurn("fifo-log", 0xAE03, 10000);
}

/** Ring buffer of the ops leading up to a fuzz failure. */
struct OpLog
{
    std::deque<std::string> ops;
    std::uint64_t dropped = 0;

    void
    push(std::string op)
    {
        if (ops.size() >= 48) {
            ops.pop_front();
            dropped += 1;
        }
        ops.push_back(std::move(op));
    }

    std::string
    dump() const
    {
        std::ostringstream os;
        os << "last " << ops.size() << " ops (" << dropped
           << " earlier ops elided):\n";
        for (const auto &op : ops)
            os << "  " << op << "\n";
        return os.str();
    }
};

/**
 * The fuzz's whole-drive invariant check:
 *  - mapping bijectivity: L2P and P2L are exact inverses;
 *  - valid-page accounting: each block's valid count equals a recount
 *    of its live P2L entries, and the counts sum to the global mapped
 *    count;
 *  - free-page accounting: the free lists match the block states;
 *  - wear conservation: per-block erase counts are monotone and sum to
 *    the drive-wide total.
 */
void
checkFuzzInvariants(LineFixture &fx,
                    std::vector<std::uint64_t> &last_erase_counts,
                    const OpLog &log)
{
    const int chips = fx.cfg.totalChips();
    const int planes = fx.cfg.geometry.planes;
    const int blocks_per_chip = fx.cfg.blocksPerChip();
    // Bijectivity, forward: every mapped LPN owns the PPA it points at.
    std::uint64_t mapped = 0;
    for (Lpn lpn = 0; lpn < fx.cfg.logicalPages(); ++lpn) {
        const Ppn ppn = fx.mapping.lookup(lpn);
        if (ppn == kInvalidPpn)
            continue;
        mapped += 1;
        ASSERT_EQ(fx.mapping.reverseLookup(ppn), lpn)
            << "L2P/P2L diverged at lpn " << lpn << "\n" << log.dump();
    }
    ASSERT_EQ(mapped, fx.mapping.mappedCount()) << log.dump();
    std::uint64_t total_valid = 0;
    std::uint64_t total_erases = 0;
    for (int c = 0; c < chips; ++c) {
        for (BlockId b = 0; b < static_cast<BlockId>(blocks_per_chip);
             ++b) {
            // Bijectivity, reverse: every owned PPA is pointed back at.
            int live = 0;
            for (int pg = 0; pg < fx.pagesPerBlock(); ++pg) {
                const Ppn ppn = fx.mapping.encode(c, b, pg);
                const Lpn lpn = fx.mapping.reverseLookup(ppn);
                if (lpn == kInvalidLpn)
                    continue;
                live += 1;
                ASSERT_EQ(fx.mapping.lookup(lpn), ppn)
                    << "P2L names an lpn mapped elsewhere\n" << log.dump();
            }
            const int valid = fx.mapping.validPages(c, b);
            total_valid += static_cast<std::uint64_t>(valid);
            ASSERT_EQ(live, valid)
                << "valid count disagrees with a P2L recount on chip " << c
                << " block " << b << "\n" << log.dump();
            // A Free block must hold no valid data.
            if (fx.blocks.state(c, b) == BlockState::Free) {
                ASSERT_EQ(valid, 0) << log.dump();
            }
            const std::uint64_t ec = fx.blocks.eraseCount(c, b);
            auto &last = last_erase_counts[static_cast<std::size_t>(c) *
                                               blocks_per_chip +
                                           b];
            ASSERT_GE(ec, last)
                << "erase count went backwards\n" << log.dump();
            last = ec;
            total_erases += ec;
        }
        // Free-list sizes match the per-block states.
        for (int p = 0; p < planes; ++p) {
            int free_state = 0;
            for (int b = 0; b < fx.cfg.geometry.blocksPerPlane; ++b) {
                const auto id = static_cast<BlockId>(
                    p * fx.cfg.geometry.blocksPerPlane + b);
                if (fx.blocks.state(c, id) == BlockState::Free)
                    free_state += 1;
            }
            ASSERT_EQ(fx.blocks.freeBlocks(c, p), free_state)
                << "free list disagrees with block states\n" << log.dump();
        }
    }
    ASSERT_EQ(total_valid, fx.mapping.mappedCount()) << log.dump();
    ASSERT_EQ(total_erases, fx.blocks.totalErases()) << log.dump();
}

/**
 * 50k randomized ops of mixed host, GC and wear-leveling traffic. The
 * wear policy is wired for real (dynamic allocation choice) and static-
 * style cold migrations are injected; the invariants above are checked
 * after every reclamation cycle.
 */
TEST(GcFuzz, MixedTrafficPreservesInvariantsOver50kOps)
{
    LineFixture fx("greedy");
    const auto wear = makeWearLevelPolicy("dynamic");
    fx.blocks.setWearPolicy(wear.get());
    StaticWearLevelPolicy cold_picker;
    std::mt19937_64 rng(0xA3205024);
    OpLog log;
    std::vector<std::uint64_t> last_erase_counts(
        static_cast<std::size_t>(fx.cfg.totalChips()) *
            fx.cfg.blocksPerChip(),
        0);
    const Lpn span = fx.cfg.logicalPages();
    auto note = [&](const char *what, int chip, int plane,
                    std::uint64_t detail) {
        std::ostringstream os;
        os << what << " chip=" << chip << " plane=" << plane << " "
           << detail;
        log.push(os.str());
    };
    for (std::uint64_t op = 0; op < 50000; ++op) {
        const int chip = static_cast<int>(rng() % fx.cfg.totalChips());
        const int plane = static_cast<int>(rng() % fx.cfg.geometry.planes);
        if (fx.blocks.freeBlocks(chip, plane) <= fx.cfg.gcLowWatermark) {
            const BlockId victim = fx.pick(chip, plane);
            if (victim != kInvalidBlock) {
                note("gc", chip, plane, victim);
                fx.collect(chip, victim);
                ASSERT_NO_FATAL_FAILURE(
                    checkFuzzInvariants(fx, last_erase_counts, log));
            }
        }
        const std::uint64_t dice = rng() % 100;
        if (dice < 80) {
            const Lpn lpn = rng() % span;
            note("write", chip, plane, lpn);
            ASSERT_TRUE(fx.writePage(lpn, chip, plane)) << log.dump();
        } else if (dice < 90) {
            const Lpn lpn = rng() % span;
            note("trim", chip, plane, lpn);
            fx.trim(lpn);
        } else {
            // Wear-leveling traffic: relocate the cold block the static
            // policy would pick at an aggressive spread threshold.
            const BlockId cold =
                cold_picker.pickColdVictim(chip, plane, fx.blocks, 1);
            if (cold != kInvalidBlock &&
                fx.blocks.freeBlocks(chip, plane) >
                    fx.cfg.gcLowWatermark) {
                note("wear-level", chip, plane, cold);
                fx.collect(chip, cold);
                ASSERT_NO_FATAL_FAILURE(
                    checkFuzzInvariants(fx, last_erase_counts, log));
            }
        }
    }
    ASSERT_NO_FATAL_FAILURE(
        checkFuzzInvariants(fx, last_erase_counts, log));
    // The run must have actually exercised reclamation.
    EXPECT_GT(fx.blocks.totalErases(), 0u);
}

} // namespace
} // namespace aero
