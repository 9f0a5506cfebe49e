/**
 * @file
 * Unit tests for the event queue, page mapping, and block manager —
 * including the tagged-kernel surface (EventId cancellation, arena
 * recycling, same-tick ordering across kinds) and a randomized
 * 1-vs-4-thread determinism check over full-drive replays.
 */

#include <gtest/gtest.h>

#include <random>

#include "exp/report.hh"
#include "exp/sweep.hh"
#include "sim/event_queue.hh"
#include "ssd/block_manager.hh"
#include "ssd/mapping.hh"

namespace aero
{
namespace
{

/** Timer-payload probe: appends its tag to a shared order vector. */
struct OrderProbe
{
    std::vector<int> *order;
    int tag;
};

void
recordTag(void *ctx)
{
    const auto *probe = static_cast<OrderProbe *>(ctx);
    probe->order->push_back(probe->tag);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.processed(), 3u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < 5)
            eq.schedule(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, RunUntilStopsEarly)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.scheduleAt(5, [] {}), "past");
}

TEST(EventQueue, TaggedTimerFiresAndInvalidatesHandle)
{
    EventQueue eq;
    std::vector<int> order;
    OrderProbe probe{&order, 1};
    const EventId id = eq.scheduleTimerAt(10, recordTag, &probe);
    EXPECT_TRUE(static_cast<bool>(id));
    EXPECT_TRUE(eq.pendingEvent(id));
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_EQ(eq.processed(), 1u);
    // The handle is stale once the event fired: not pending, not
    // cancellable. A never-valid default handle behaves the same.
    EXPECT_FALSE(eq.pendingEvent(id));
    EXPECT_FALSE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(EventId{}));
    EXPECT_FALSE(eq.pendingEvent(EventId{}));
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue eq;
    std::vector<int> order;
    OrderProbe keep{&order, 1};
    OrderProbe drop{&order, 2};
    const EventId kept = eq.scheduleTimerAt(10, recordTag, &keep);
    const EventId dropped = eq.scheduleTimerAt(10, recordTag, &drop);
    EXPECT_TRUE(eq.cancel(dropped));
    EXPECT_FALSE(eq.pendingEvent(dropped));
    EXPECT_FALSE(eq.cancel(dropped));  // second cancel: stale handle
    EXPECT_TRUE(eq.pendingEvent(kept));
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1}));
}

TEST(EventQueue, CancelledSlotIsSkippedAmongSameTickPeers)
{
    EventQueue eq;
    std::vector<int> order;
    OrderProbe a{&order, 1};
    OrderProbe b{&order, 2};
    OrderProbe c{&order, 3};
    eq.scheduleTimerAt(10, recordTag, &a);
    const EventId mid = eq.scheduleTimerAt(10, recordTag, &b);
    eq.scheduleTimerAt(10, recordTag, &c);
    EXPECT_TRUE(eq.cancel(mid));
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SameTickMixedKindsFireInScheduleOrder)
{
    // FIFO-at-a-tick must hold across event kinds, not just within one:
    // compat callbacks and tagged timers interleaved at one tick fire
    // in exactly the order they were scheduled.
    EventQueue eq;
    std::vector<int> order;
    OrderProbe t1{&order, 1};
    OrderProbe t3{&order, 3};
    eq.scheduleTimerAt(5, recordTag, &t1);
    eq.scheduleAt(5, [&order] { order.push_back(2); });
    eq.scheduleTimerAt(5, recordTag, &t3);
    eq.scheduleAt(5, [&order] { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, NextEventTickTracksHeapRoot)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextEventTick(), kTickMax);
    eq.schedule(42, [] {});
    eq.schedule(17, [] {});
    EXPECT_EQ(eq.nextEventTick(), 17u);
    eq.run();
    EXPECT_EQ(eq.nextEventTick(), kTickMax);
}

TEST(EventQueue, ArenaSlotsAreRecycledAfterDrain)
{
    EventQueue eq;
    int fired = 0;
    const auto wave = [&](Tick base) {
        for (int i = 0; i < 100; ++i)
            eq.scheduleTimerAt(base + static_cast<Tick>(i),
                               [](void *ctx) {
                                   *static_cast<int *>(ctx) += 1;
                               },
                               &fired);
        eq.run();
    };
    wave(1);
    const std::size_t after_first = eq.arenaSlots();
    EXPECT_GE(after_first, 100u);
    // Every later wave re-uses the drained slots: the arena never grows
    // again, so steady-state simulation does zero event allocation.
    for (int w = 1; w < 5; ++w)
        wave(eq.now() + 1);
    EXPECT_EQ(eq.arenaSlots(), after_first);
    EXPECT_EQ(fired, 500);
}

TEST(EventQueue, CancelledSlotsAreRecycledToo)
{
    EventQueue eq;
    std::vector<EventId> ids;
    for (int i = 0; i < 64; ++i)
        ids.push_back(eq.scheduleTimerAt(10, [](void *) {}, nullptr));
    for (const EventId id : ids)
        EXPECT_TRUE(eq.cancel(id));
    eq.run();  // surfaces and recycles the dead slots
    EXPECT_TRUE(eq.empty());
    const std::size_t slots = eq.arenaSlots();
    for (int i = 0; i < 64; ++i)
        eq.scheduleTimerAt(eq.now() + 1, [](void *) {}, nullptr);
    for (int i = 0; i < 64; ++i)
        EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.arenaSlots(), slots);
}

TEST(EventQueue, ThreadCountCannotPerturbReplays)
{
    // The determinism claim behind `ctest -L golden`: a full-drive
    // replay is a pure function of its SimPoint, so a randomized set of
    // points must produce bit-identical results from a 1-thread and a
    // 4-thread pool (each point owns its Ssd and EventQueue; threads
    // shard points, never a drive's chips).
    std::mt19937 rng(20240808u);
    const std::vector<std::string> workloads = {"prxy", "proj", "hm"};
    std::vector<SimPoint> points;
    for (int i = 0; i < 6; ++i) {
        SimPoint pt;
        pt.workload = workloads[rng() % workloads.size()];
        pt.scheme = (rng() % 2 == 0) ? SchemeKind::Baseline
                                     : SchemeKind::Aero;
        pt.pec = (rng() % 2 == 0) ? 500.0 : 2500.0;
        pt.requests = 1500 + rng() % 500;
        pt.seed = rng();
        points.push_back(pt);
    }
    const SsdConfig base = SsdConfig::tiny();
    const auto one = SweepRunner(1).run(points, base);
    const auto four = SweepRunner(4).run(points, base);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i)
        EXPECT_EQ(toJson(one[i]).dump(), toJson(four[i]).dump())
            << "replay " << i << " diverged across thread counts";
}

TEST(Mapping, UpdateAndLookupRoundTrip)
{
    PageMapping m(64, 2, 4, 8);
    EXPECT_EQ(m.lookup(0), kInvalidPpn);
    const Ppn ppn = m.encode(1, 2, 3);
    m.update(7, ppn);
    EXPECT_EQ(m.lookup(7), ppn);
    EXPECT_EQ(m.reverseLookup(ppn), 7u);
    EXPECT_EQ(m.mappedCount(), 1u);
    const auto parts = m.decode(ppn);
    EXPECT_EQ(parts.chip, 1);
    EXPECT_EQ(parts.block, 2u);
    EXPECT_EQ(parts.page, 3);
}

TEST(Mapping, OverwriteInvalidatesOldLocation)
{
    PageMapping m(64, 2, 4, 8);
    const Ppn a = m.encode(0, 1, 0);
    const Ppn b = m.encode(1, 3, 5);
    m.update(9, a);
    EXPECT_EQ(m.validPages(0, 1), 1);
    m.update(9, b);
    EXPECT_EQ(m.lookup(9), b);
    EXPECT_EQ(m.reverseLookup(a), kInvalidLpn);
    EXPECT_EQ(m.validPages(0, 1), 0);
    EXPECT_EQ(m.validPages(1, 3), 1);
    EXPECT_EQ(m.mappedCount(), 1u);
}

TEST(Mapping, DoubleProgramSamePpnPanics)
{
    PageMapping m(64, 2, 4, 8);
    const Ppn ppn = m.encode(0, 0, 0);
    m.update(1, ppn);
    EXPECT_DEATH(m.update(2, ppn), "still mapped");
}

TEST(Mapping, EraseRequiresNoValidPages)
{
    PageMapping m(64, 2, 4, 8);
    m.update(3, m.encode(0, 2, 1));
    EXPECT_DEATH(m.onBlockErased(0, 2), "valid pages");
    m.invalidateLpn(3);
    m.onBlockErased(0, 2);  // now fine
    EXPECT_EQ(m.validPages(0, 2), 0);
}

TEST(Mapping, PhysicalSpaceBeyond32BitPpnPanics)
{
    // 2^32 - 1 pages would need the all-ones invalid sentinel as a PPN.
    EXPECT_DEATH(PageMapping(1, 15, 4369, 65537),
                 "exceeds the packed 32-bit PPN range");
}

TEST(Mapping, EncodeDecodeExhaustive)
{
    PageMapping m(64, 3, 5, 7);
    for (int c = 0; c < 3; ++c) {
        for (BlockId b = 0; b < 5; ++b) {
            for (int pg = 0; pg < 7; ++pg) {
                const auto parts = m.decode(m.encode(c, b, pg));
                EXPECT_EQ(parts.chip, c);
                EXPECT_EQ(parts.block, b);
                EXPECT_EQ(parts.page, pg);
            }
        }
    }
}

SsdConfig
tinyCfg()
{
    return SsdConfig::tiny();
}

TEST(BlockManager, AllocatesSequentiallyWithinOpenBlock)
{
    BlockManager bm(tinyCfg());
    BlockId blk;
    int page;
    ASSERT_TRUE(bm.allocate(0, 0, blk, page));
    EXPECT_EQ(page, 0);
    const BlockId first = blk;
    EXPECT_EQ(bm.state(0, first), BlockState::Open);
    for (int i = 1; i < tinyCfg().geometry.pagesPerBlock; ++i) {
        ASSERT_TRUE(bm.allocate(0, 0, blk, page));
        EXPECT_EQ(blk, first);
        EXPECT_EQ(page, i);
    }
    EXPECT_EQ(bm.state(0, first), BlockState::Full);
    // Next allocation opens a new block.
    ASSERT_TRUE(bm.allocate(0, 0, blk, page));
    EXPECT_NE(blk, first);
    EXPECT_EQ(page, 0);
}

TEST(BlockManager, PlaneExhaustionAndEraseRecovery)
{
    const auto cfg = tinyCfg();
    BlockManager bm(cfg);
    BlockId blk;
    int page;
    std::vector<BlockId> filled;
    // User allocations must stop with the GC reserve still intact.
    while (bm.allocate(0, 0, blk, page)) {
        if (page == cfg.geometry.pagesPerBlock - 1)
            filled.push_back(blk);
    }
    EXPECT_EQ(bm.freeBlocks(0, 0), BlockManager::kGcReservedBlocks);
    EXPECT_EQ(static_cast<int>(filled.size()),
              cfg.geometry.blocksPerPlane -
                  BlockManager::kGcReservedBlocks);
    // GC can still allocate from the reserve...
    ASSERT_TRUE(bm.allocate(0, 0, blk, page, true));
    EXPECT_EQ(bm.freeBlocks(0, 0), 0);
    // ...and an erase replenishes the pool for user writes again.
    bm.onBlockErased(0, filled.front());
    EXPECT_EQ(bm.freeBlocks(0, 0), 1);
    EXPECT_EQ(bm.state(0, filled.front()), BlockState::Free);
    EXPECT_FALSE(bm.allocate(0, 0, blk, page));  // reserve again
    ASSERT_TRUE(bm.allocate(0, 0, blk, page, true));
}

TEST(BlockManager, GcWritePointIsSeparate)
{
    BlockManager bm(tinyCfg());
    BlockId user_blk, gc_blk;
    int page;
    ASSERT_TRUE(bm.allocate(0, 0, user_blk, page));
    ASSERT_TRUE(bm.allocate(0, 0, gc_blk, page, true));
    EXPECT_NE(user_blk, gc_blk);
    EXPECT_EQ(page, 0);  // GC stream has its own cursor
}

TEST(BlockManager, PlanesAreIndependent)
{
    BlockManager bm(tinyCfg());
    BlockId a, b;
    int pa, pb;
    ASSERT_TRUE(bm.allocate(0, 0, a, pa));
    ASSERT_TRUE(bm.allocate(0, 1, b, pb));
    EXPECT_NE(bm.planeOf(a), bm.planeOf(b));
    EXPECT_EQ(bm.planeOf(a), 0);
    EXPECT_EQ(bm.planeOf(b), 1);
}

TEST(BlockManager, FullBlocksListsOnlyFull)
{
    const auto cfg = tinyCfg();
    BlockManager bm(cfg);
    BlockId blk;
    int page;
    for (int i = 0; i < cfg.geometry.pagesPerBlock; ++i)
        ASSERT_TRUE(bm.allocate(1, 0, blk, page));
    const auto full = bm.fullBlocks(1, 0);
    ASSERT_EQ(full.size(), 1u);
    EXPECT_EQ(full[0], blk);
    EXPECT_TRUE(bm.fullBlocks(1, 1).empty());
}

TEST(BlockManager, EraseOfNonFullBlockPanics)
{
    BlockManager bm(tinyCfg());
    EXPECT_DEATH(bm.onBlockErased(0, 0), "Full state");
}

TEST(BlockManager, OutOfRangeChipPanics)
{
    BlockManager bm(tinyCfg());
    EXPECT_DEATH((void)bm.state(bm.chips(), 0), "chip out of range");
    EXPECT_DEATH((void)bm.eraseCount(bm.chips(), 0), "chip out of range");
    EXPECT_DEATH((void)bm.eraseCount(-1, 0), "chip out of range");
    EXPECT_DEATH((void)bm.fullBlocks(bm.chips(), 0), "chip out of range");
}

} // namespace
} // namespace aero
