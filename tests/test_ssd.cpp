/**
 * @file
 * End-to-end SSD simulator tests: request completion, GC activity, erase
 * suspension, write stalls, and cross-scheme behaviour on a tiny drive.
 */

#include <gtest/gtest.h>

#include "devchar/simstudy.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"
#include "workload/trace_io/tenant.hh"

namespace aero
{
namespace
{

SsdConfig
tinyCfg(SchemeKind scheme = SchemeKind::Baseline)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.scheme = scheme;
    cfg.seed = 99;
    return cfg;
}

Trace
makeTrace(const Ssd &ssd, std::uint64_t n, double intensity = 1.0,
          const char *wl = "prxy")
{
    SyntheticConfig wc;
    wc.spec = workloadByName(wl);
    wc.footprintPages = ssd.config().logicalPages();
    wc.numRequests = n;
    wc.seed = 31;
    wc.intensityScale = intensity;
    return generateTrace(wc);
}

TEST(Ssd, CompletesEveryRequest)
{
    Ssd ssd(tinyCfg());
    const auto trace = makeTrace(ssd, 3000);
    std::uint64_t reads = 0, writes = 0;
    for (const auto &r : trace)
        (r.op == IoOp::Read ? reads : writes) += 1;
    ssd.run(trace);
    const auto &m = ssd.metrics();
    EXPECT_EQ(m.reads, reads);
    EXPECT_EQ(m.writes, writes);
    EXPECT_GT(m.readLatency.mean(), 0.0);
    EXPECT_GT(m.writeLatency.mean(), 0.0);
    EXPECT_GT(m.iops(), 0.0);
}

TEST(Ssd, LatencyFloorsAreSane)
{
    Ssd ssd(tinyCfg());
    const auto trace = makeTrace(ssd, 2000);
    ssd.run(trace);
    const auto &m = ssd.metrics();
    const auto &cfg = ssd.config();
    // A read can never be faster than sense + transfer + host overhead.
    EXPECT_GE(m.readLatency.min(),
              40 * kUs + cfg.channelXferPerPage + cfg.hostOverhead);
    // A write can never be faster than transfer + program + overhead.
    EXPECT_GE(m.writeLatency.min(),
              cfg.channelXferPerPage + 350 * kUs + cfg.hostOverhead);
}

TEST(Ssd, GarbageCollectionRunsAndConservesCapacity)
{
    Ssd ssd(tinyCfg());
    const auto trace = makeTrace(ssd, 6000, 1.0, "ali.A");  // write-heavy
    ssd.run(trace);
    const auto &m = ssd.metrics();
    EXPECT_GT(m.erases, 0u);
    EXPECT_GT(m.gcInvocations, 0u);
    EXPECT_GE(m.writeAmplification(), 1.0);
    // After the run every plane must still have blocks available.
    auto &ftl = ssd.ftl();
    const auto &bm = ftl.blockManager();
    for (int c = 0; c < ssd.config().totalChips(); ++c) {
        for (int p = 0; p < ssd.config().geometry.planes; ++p)
            EXPECT_GT(bm.freeBlocks(c, p), 0);
    }
}

TEST(Ssd, MappingStaysConsistentAfterGc)
{
    Ssd ssd(tinyCfg());
    const auto trace = makeTrace(ssd, 6000, 1.0, "ali.A");
    ssd.run(trace);
    const auto &mapping = ssd.ftl().pageMapping();
    // Every mapped LPN must reverse-map to itself.
    std::uint64_t mapped = 0;
    for (Lpn lpn = 0; lpn < mapping.logicalPages(); ++lpn) {
        const Ppn ppn = mapping.lookup(lpn);
        if (ppn == kInvalidPpn)
            continue;
        EXPECT_EQ(mapping.reverseLookup(ppn), lpn);
        ++mapped;
    }
    EXPECT_EQ(mapped, mapping.mappedCount());
    EXPECT_GT(mapped, 0u);
}

TEST(Ssd, SuspensionModeControlsPreemption)
{
    auto run_with = [&](SuspensionMode mode) {
        SsdConfig cfg = tinyCfg();
        cfg.suspension = mode;
        Ssd ssd(cfg);
        ssd.run(makeTrace(ssd, 6000, 2.0));
        return ssd.metrics().eraseSuspensions;
    };
    EXPECT_GT(run_with(SuspensionMode::MidSegment), 0u);
    EXPECT_EQ(run_with(SuspensionMode::None), 0u);
}

TEST(Ssd, SuspensionImprovesReadTail)
{
    auto tail = [&](SuspensionMode mode) {
        SsdConfig cfg = tinyCfg();
        cfg.suspension = mode;
        cfg.initialPec = 2500;
        Ssd ssd(cfg);
        ssd.run(makeTrace(ssd, 8000, 2.0));
        return ssd.metrics().readLatency.percentile(0.999);
    };
    EXPECT_LT(tail(SuspensionMode::MidSegment),
              tail(SuspensionMode::None));
}

TEST(Ssd, DpesSlowsWrites)
{
    SsdConfig base_cfg = tinyCfg(SchemeKind::Baseline);
    SsdConfig dpes_cfg = tinyCfg(SchemeKind::Dpes);
    Ssd base(base_cfg), dpes(dpes_cfg);
    const auto trace = makeTrace(base, 4000);
    base.run(trace);
    dpes.run(trace);
    EXPECT_GT(dpes.metrics().writeLatency.mean(),
              base.metrics().writeLatency.mean() * 1.05);
    // Reads are not directly affected on average.
    EXPECT_NEAR(dpes.metrics().readLatency.mean(),
                base.metrics().readLatency.mean(),
                base.metrics().readLatency.mean() * 0.3);
}

TEST(Ssd, AeroShortensErases)
{
    SsdConfig a = tinyCfg(SchemeKind::Baseline);
    SsdConfig b = tinyCfg(SchemeKind::Aero);
    a.initialPec = 2500;
    b.initialPec = 2500;
    Ssd base(a), aero(b);
    const auto trace = makeTrace(base, 5000, 1.0, "ali.A");
    base.run(trace);
    aero.run(trace);
    ASSERT_GT(base.metrics().erases, 0u);
    ASSERT_GT(aero.metrics().erases, 0u);
    EXPECT_LT(aero.metrics().avgEraseLatencyMs(),
              base.metrics().avgEraseLatencyMs() * 0.97);
}

TEST(Ssd, RunsBackToBack)
{
    Ssd ssd(tinyCfg());
    ssd.run(makeTrace(ssd, 1000));
    const auto t1 = ssd.eventQueue().now();
    const auto reads1 = ssd.metrics().reads;
    ssd.run(makeTrace(ssd, 1000));
    EXPECT_GT(ssd.eventQueue().now(), t1);
    EXPECT_GT(ssd.metrics().reads, reads1);
}

// A burst of writes admitted at once outruns the free space, so writes
// stall and are resubmitted as GC frees blocks. The erases, GC work,
// latencies and final tick are the values recorded while every erase
// still resubmitted every stalled write.
TEST(Ssd, StalledWriteBurstDrains)
{
    Ssd ssd(tinyCfg());
    Ftl &ftl = ssd.ftl();
    const SsdConfig &cfg = ssd.config();
    for (int i = 0; i < 40; ++i) {
        TraceRecord rec;
        rec.op = IoOp::Write;
        rec.startPage = (static_cast<Lpn>(i) * 97) % cfg.logicalPages();
        rec.pages = 16;
        ftl.submit(rec);
    }
    // Every plane still holds its reserved free block, so an urgent
    // erase there means writes are waiting for space.
    for (int c = 0; c < cfg.totalChips(); ++c) {
        for (int p = 0; p < cfg.geometry.planes; ++p) {
            ASSERT_EQ(ftl.blockManager().freeBlocks(c, p), 1);
            EXPECT_TRUE(ftl.eraseUrgent(
                c, static_cast<BlockId>(p * cfg.geometry.blocksPerPlane)));
        }
    }
    ssd.eventQueue().run();
    EXPECT_TRUE(ftl.drained());
    const auto &m = ssd.metrics();
    EXPECT_EQ(m.writes, 40u);
    EXPECT_EQ(m.erases, 29u);
    EXPECT_EQ(m.gcInvocations, 29u);
    EXPECT_EQ(m.gcMigratedPages, 302u);
    EXPECT_EQ(m.writeLatency.mean(), 71322250.0);
    EXPECT_EQ(m.writeLatency.max(), 174963000u);
    EXPECT_EQ(ssd.eventQueue().now(), 235737000u);
}

// The same on bench(): ali.A at 60x its rate stalls writes on and off
// for the whole run while several GC erases queue per chip, so a retry
// that let eraseUrgent() see a non-empty queue mid-resubmission would
// move the erases, suspensions and latencies pinned here.
TEST(Ssd, StalledWritesOnBenchDriveMatchRecordedRun)
{
    SsdConfig cfg = SsdConfig::bench();
    cfg.scheme = SchemeKind::Aero;
    cfg.initialPec = 2500;
    Ssd ssd(cfg);
    SyntheticConfig wc;
    wc.spec = workloadByName("ali.A");
    wc.footprintPages = cfg.logicalPages();
    wc.numRequests = 20000;
    wc.seed = 7;
    wc.intensityScale = 60.0;
    ssd.run(generateTrace(wc));
    const auto &m = ssd.metrics();
    EXPECT_EQ(m.erases, 1916u);
    EXPECT_EQ(m.gcInvocations, 1916u);
    EXPECT_EQ(m.gcMigratedPages, 188546u);
    EXPECT_EQ(m.eraseSuspensions, 309u);
    EXPECT_EQ(m.writeLatency.mean(), 4013179.6838747724);
    EXPECT_EQ(m.readLatency.mean(), 306129.83209509659);
    EXPECT_EQ(ssd.eventQueue().now(), 8012637931u);
}

TEST(Ftl, ChipsShareOneWearModel)
{
    EventQueue eq;
    Ftl ftl(SsdConfig::bench(), eq);
    const WearModel &model = ftl.chipAt(0).wearModel();
    for (int i = 0; i < ftl.config().totalChips(); ++i)
        EXPECT_EQ(&ftl.chipAt(i).wearModel(), &model);
}

TEST(Ssd, ConfigSummaryMentionsScheme)
{
    SsdConfig cfg = tinyCfg(SchemeKind::Aero);
    EXPECT_NE(cfg.summary().find("AERO"), std::string::npos);
    EXPECT_GT(cfg.logicalPages(), 0u);
    EXPECT_LT(cfg.logicalPages(), cfg.physicalPages());
}

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

// warmup() draws its LPN sequence kWarmupLookahead overwrites ahead of
// use. Around that window (none, one, window-1/window/window+1 draws) and
// over a GC-heavy run, the erases and the final mapping must equal the
// values pinned before the lookahead existed.
TEST(SsdWarmup, LookaheadEdgesReproduceTheSequentialDraws)
{
    static_assert(Ftl::kWarmupLookahead == 32,
                  "the pinned counts straddle a 32-overwrite window");
    struct Pin
    {
        std::uint64_t overwrites;
        std::uint64_t erases;
        std::uint64_t fingerprint;
    };
    const Pin pins[] = {
        {0, 0, 0x13b315079ccd8ec5ULL},
        {1, 0, 0xcc0aed8e994afa28ULL},
        {31, 0, 0x8fde81a418bed682ULL},
        {32, 0, 0x2e03ccfd89eb9bb7ULL},
        {33, 0, 0x22091f0392a9a28eULL},
        {5000, 343, 0xf49f05fa86a31831ULL},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.overwrites);
        EventQueue eq;
        Ftl ftl(SsdConfig::tiny(), eq);
        ftl.prefill();
        ftl.warmup(pin.overwrites);
        EXPECT_EQ(ftl.warmupErases(), pin.erases);
        EXPECT_EQ(mappingFingerprint(ftl.pageMapping()), pin.fingerprint);
    }
}

/** Replays a trace and counts how often it was pulled. */
class CountingStream : public TraceStream
{
  public:
    explicit CountingStream(Trace trace) : inner(std::move(trace)) {}

    bool
    next(TraceRecord &out) override
    {
        calls += 1;
        if (!inner.next(out))
            return false;
        yielded += 1;
        return true;
    }

    std::uint64_t calls = 0;
    std::uint64_t yielded = 0;

  private:
    VectorTraceStream inner;
};

/**
 * A mixed stream for the admission edges: groups of three records share
 * an arrival tick (the pump admits those inline), two in three records
 * write, requests span 1-4 pages, and start pages run up to four times
 * the logical space (Ftl::submit wraps them).
 */
Trace
admissionTrace(const SsdConfig &cfg, std::uint64_t n)
{
    Trace trace;
    for (std::uint64_t i = 0; i < n; ++i) {
        TraceRecord r;
        r.arrival = (i / 3) * 20 * kUs;
        r.op = i % 3 == 1 ? IoOp::Read : IoOp::Write;
        r.startPage = (i * 7919) % (4 * cfg.logicalPages());
        r.pages = static_cast<std::uint32_t>(1 + i % 4);
        trace.push_back(r);
    }
    return trace;
}

struct ReplayPin
{
    std::uint64_t records;
    std::uint64_t reads;
    std::uint64_t writes;
    double readMean;
    double writeMean;
    Tick end;
};

// The trace pump pulls records kAdmitLookahead ahead of admission to
// prefetch their mapping entries. Around that window (no record, one,
// window-1/window/window+1, and twice the window) every record must be
// admitted at the tick, and in the order, pinned before the lookahead
// existed, and each record pulled exactly once.
TEST(TracePump, LookaheadEdgesReplayAsRecorded)
{
    static_assert(TracePump::kAdmitLookahead == 32,
                  "the pinned streams straddle a 32-record window");
    const ReplayPin pins[] = {
        {0, 0, 0, 0.0, 0.0, 0},
        {1, 0, 1, 0.0, 368000.0, 363000},
        {31, 10, 21, 513600.0, 5463857.1428571427, 10384000},
        {32, 11, 21, 544818.18181818177, 5564809.5238095243, 10490000},
        {33, 11, 22, 544818.18181818177, 5782227.2727272725, 10543000},
        {64, 21, 43, 785333.33333333337, 11136139.534883721, 91615000},
        {400, 133, 267, 3338751.8796992479, 83020337.078651682, 294362000},
    };
    for (const ReplayPin &pin : pins) {
        SCOPED_TRACE(pin.records);
        Ssd ssd(tinyCfg());
        CountingStream stream(admissionTrace(ssd.config(), pin.records));
        ssd.run(stream);
        const SsdMetrics &m = ssd.metrics();
        EXPECT_EQ(stream.yielded, pin.records);
        EXPECT_EQ(stream.calls, pin.records + 1);
        EXPECT_EQ(m.reads, pin.reads);
        EXPECT_EQ(m.writes, pin.writes);
        EXPECT_EQ(m.readLatency.mean(), pin.readMean);
        EXPECT_EQ(m.writeLatency.mean(), pin.writeMean);
        EXPECT_EQ(ssd.eventQueue().now(), pin.end);
        EXPECT_TRUE(ssd.ftl().drained());
    }
}

// Two tenants under throttle+wfq: the lookahead must not move a single
// GCRA deferral, grant or completion of the recorded run.
TEST(TracePump, ThrottledTwoTenantMixReplaysAsRecorded)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.chipsPerChannel = 4;
    cfg.seed = 99;
    cfg.arbitration = Arbitration::Queued;
    cfg.sloPolicy = SloPolicy::ThrottleWfq;
    cfg.slo = parseTenantSloSpec("0:weight=8,1:weight=1:iops=800");
    Ssd ssd(cfg);
    ssd.metrics().enableTenantTracking(2);
    SyntheticConfig wc;
    wc.footprintPages = cfg.logicalPages();
    wc.spec = workloadByName("usr");
    wc.numRequests = 300;
    wc.seed = 31;
    Trace victim = generateTrace(wc);
    wc.spec = workloadByName("ali.A");
    wc.numRequests = 600;
    wc.seed = 77;
    wc.intensityScale = 40.0;
    Trace hog = generateTrace(wc);
    std::vector<std::unique_ptr<TraceStream>> streams;
    streams.push_back(std::make_unique<VectorTraceStream>(std::move(victim)));
    streams.push_back(std::make_unique<VectorTraceStream>(std::move(hog)));
    // Merged up front, so the pump's pulls can be counted.
    TenantMix mix(std::move(streams));
    Trace merged;
    TraceRecord rec;
    while (mix.next(rec))
        merged.push_back(rec);
    CountingStream stream(std::move(merged));
    ssd.run(stream);
    const SsdMetrics &m = ssd.metrics();
    EXPECT_EQ(stream.yielded, 900u);
    EXPECT_EQ(stream.calls, 901u);
    EXPECT_EQ(m.reads, 321u);
    EXPECT_EQ(m.writes, 579u);
    EXPECT_EQ(m.readLatency.mean(), 197114.40809968847);
    EXPECT_EQ(m.writeLatency.mean(), 1065985.134715026);
    EXPECT_EQ(m.throttleDeferrals, 574u);
    EXPECT_EQ(m.throttleDeferredTicks, 146418490893u);
    EXPECT_EQ(m.tenants[0].throttleDeferrals, 0u);
    EXPECT_EQ(m.tenants[1].throttleDeferrals, 574u);
    EXPECT_EQ(ssd.eventQueue().now(), 738037511u);
}

// Used as an admission gate (an empty stream, the record set by hand),
// the pump admits exactly the record it is handed and pulls nothing.
TEST(TracePump, GateAdmitsExactlyTheRecordItIsHanded)
{
    Ssd ssd(tinyCfg());
    CountingStream none{Trace{}};
    TracePump gate{};
    gate.ftl = &ssd.ftl();
    gate.eq = &ssd.eventQueue();
    gate.stream = &none;
    const Lpn span = ssd.config().logicalPages();
    for (std::uint64_t i = 0; i < 3; ++i) {
        TraceRecord rec;
        rec.op = i == 1 ? IoOp::Read : IoOp::Write;
        rec.startPage = span * i + 5;
        rec.pages = 2;
        gate.pending = rec;
        gate.hasPending = true;
        gate.fire();
        EXPECT_FALSE(gate.hasPending);
        ssd.eventQueue().run();
        EXPECT_EQ(ssd.metrics().reads + ssd.metrics().writes, i + 1);
    }
    EXPECT_EQ(ssd.metrics().reads, 1u);
    EXPECT_EQ(none.yielded, 0u);
    EXPECT_TRUE(ssd.ftl().drained());
}

PageOp
userRead(std::uint64_t request_id)
{
    PageOp op;
    op.kind = PageOp::Kind::UserRead;
    op.requestId = request_id;
    return op;
}

/** One request of `pages` pages, submitted at the current tick. */
void
submitRead(Ftl &ftl, std::uint32_t pages)
{
    TraceRecord rec;
    rec.op = IoOp::Read;
    rec.startPage = 3;
    rec.pages = pages;
    ftl.submit(rec);
}

// Request ids start at 1 and name their request for its lifetime only.
TEST(FtlDeathTest, CompletionForANeverIssuedRequestDies)
{
    EventQueue eq;
    Ftl ftl(SsdConfig::tiny(), eq);
    EXPECT_DEATH(ftl.onPageOpDone(userRead(1)),
                 "completion for unknown request");
    submitRead(ftl, 1);
    EXPECT_DEATH(ftl.onPageOpDone(userRead(0)),
                 "completion for unknown request");
    EXPECT_DEATH(ftl.onPageOpDone(userRead(2)),
                 "completion for unknown request");
    EXPECT_DEATH(ftl.onPageOpDone(userRead(kNoRequest)),
                 "completion for unknown request");
}

TEST(FtlDeathTest, CompletionForAFinishedRequestDies)
{
    EventQueue eq;
    Ftl ftl(SsdConfig::tiny(), eq);
    submitRead(ftl, 1);
    eq.run();
    ASSERT_TRUE(ftl.drained());
    EXPECT_DEATH(ftl.onPageOpDone(userRead(1)),
                 "completion for unknown request");
    // A later request may reuse the finished one's storage; the old id
    // must still not reach it.
    submitRead(ftl, 1);
    EXPECT_DEATH(ftl.onPageOpDone(userRead(1)),
                 "completion for unknown request");
}

TEST(FtlDeathTest, OverCompletionDies)
{
    EventQueue eq;
    Ftl ftl(SsdConfig::tiny(), eq);
    submitRead(ftl, 0);  // nothing left to complete
    EXPECT_DEATH(ftl.onPageOpDone(userRead(1)),
                 "request page over-completion");
}

// 15 chips x 4369 blocks x 65537 pages is exactly 2^32 - 1 physical
// pages: one too many for a 32-bit PPN next to its invalid sentinel.
// Ftl::validated must refuse it before any member sizes a table.
TEST(FtlDeathTest, GeometryBeyond32BitPpnDiesBeforeAllocating)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.channels = 15;
    cfg.chipsPerChannel = 1;
    cfg.geometry = ChipGeometry{1, 4369, 65537};
    ASSERT_EQ(cfg.physicalPages(), 0xFFFFFFFFULL);
    EventQueue eq;
    EXPECT_DEATH({ Ftl ftl(cfg, eq); },
                 "4294967295 physical pages do not fit a 32-bit PPN");
}

TEST(SimStudy, RunSimPointProducesConsistentResult)
{
    SimPoint pt;
    pt.workload = "hm";
    pt.requests = 4000;
    pt.pec = 500.0;
    const auto r = runSimPoint(pt);
    EXPECT_GT(r.avgReadUs, 50.0);
    EXPECT_GT(r.avgWriteUs, 350.0);
    EXPECT_GE(r.p999999Us, r.p9999Us);
    EXPECT_GE(r.p9999Us, r.p999Us);
    EXPECT_GT(r.iops, 0.0);
}

TEST(SimStudy, DeterministicForSeed)
{
    SimPoint pt;
    pt.workload = "stg";
    pt.requests = 2000;
    const auto a = runSimPoint(pt);
    const auto b = runSimPoint(pt);
    EXPECT_DOUBLE_EQ(a.p9999Us, b.p9999Us);
    EXPECT_EQ(a.erases, b.erases);
}

} // namespace
} // namespace aero
