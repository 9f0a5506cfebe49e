/**
 * @file
 * Drive-topology battery: the DriveGeometry page-index encoding is a
 * bijection that agrees with PageMapping's PPN layout, misconfigured
 * geometries die with exact diagnostics, queued channel arbitration
 * conserves every request and keeps its grant accounting consistent,
 * its grants and dispatches match a recorded run even though releases
 * nobody waits for post no event, and a sweep over the reclamation axes
 * is bit-identical at 1 and N worker threads.
 */

#include <gtest/gtest.h>

#include "core/aero_scheme.hh"
#include "exp/report.hh"
#include "exp/sweep.hh"
#include "ssd/chip_agent.hh"
#include "ssd/geometry.hh"
#include "ssd/mapping.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"
#include "workload/trace_io/stream.hh"
#include "workload/trace_io/tenant.hh"

namespace aero
{
namespace
{

DriveGeometry
geomOf(const SsdConfig &cfg)
{
    return DriveGeometry::of(cfg);
}

TEST(Topology, TinyGeometryDerivesFromConfig)
{
    const SsdConfig cfg = SsdConfig::tiny();
    const DriveGeometry g = geomOf(cfg);
    EXPECT_EQ(g.channels, cfg.channels);
    EXPECT_EQ(g.diesPerChannel, cfg.chipsPerChannel);
    EXPECT_EQ(g.planesPerDie, cfg.geometry.planes);
    EXPECT_EQ(g.blocksPerPlane, cfg.geometry.blocksPerPlane);
    EXPECT_EQ(g.pagesPerBlock, cfg.geometry.pagesPerBlock);
    EXPECT_EQ(g.totalDies(), cfg.channels * cfg.chipsPerChannel);
    EXPECT_EQ(g.totalPages(),
              static_cast<std::uint64_t>(g.totalDies()) *
                  g.planesPerDie * g.blocksPerPlane * g.pagesPerBlock);
}

// pgidx -> Ppa -> pgidx is the identity over the whole drive, and every
// decomposed field stays inside its level's bounds.
void
expectBijective(const DriveGeometry &g)
{
    for (std::uint64_t idx = 0; idx < g.totalPages(); ++idx) {
        const Ppa ppa = g.ppaOf(idx);
        ASSERT_GE(ppa.channel, 0);
        ASSERT_LT(ppa.channel, g.channels);
        ASSERT_GE(ppa.die, 0);
        ASSERT_LT(ppa.die, g.diesPerChannel);
        ASSERT_GE(ppa.plane, 0);
        ASSERT_LT(ppa.plane, g.planesPerDie);
        ASSERT_GE(ppa.block, 0);
        ASSERT_LT(ppa.block, g.blocksPerPlane);
        ASSERT_GE(ppa.page, 0);
        ASSERT_LT(ppa.page, g.pagesPerBlock);
        ASSERT_EQ(g.pageIndex(ppa), idx);
    }
}

TEST(Topology, PageIndexIsABijectionOnTiny)
{
    expectBijective(geomOf(SsdConfig::tiny()));
}

TEST(Topology, PageIndexIsABijectionOnBench)
{
    expectBijective(geomOf(SsdConfig::bench()));
}

TEST(Topology, PageIndexIsDenseInNestedOrder)
{
    const DriveGeometry g = geomOf(SsdConfig::tiny());
    std::uint64_t expect = 0;
    for (int ch = 0; ch < g.channels; ++ch)
        for (int die = 0; die < g.diesPerChannel; ++die)
            for (int pl = 0; pl < g.planesPerDie; ++pl)
                for (int b = 0; b < g.blocksPerPlane; ++b)
                    for (int pg = 0; pg < g.pagesPerBlock; ++pg)
                        ASSERT_EQ(g.pageIndex({ch, die, pl, b, pg}),
                                  expect++);
    EXPECT_EQ(expect, g.totalPages());
}

TEST(Topology, ChipIndexingRoundTrips)
{
    const DriveGeometry g = geomOf(SsdConfig::bench());
    for (int ch = 0; ch < g.channels; ++ch) {
        for (int die = 0; die < g.diesPerChannel; ++die) {
            const Ppa ppa{ch, die, 0, 0, 0};
            const int chip = g.chipOf(ppa);
            EXPECT_EQ(g.channelOfChip(chip), ch);
            EXPECT_EQ(chip % g.diesPerChannel, die);
        }
    }
}

// The flat page index must agree with PageMapping's (chip, chip-block,
// page) PPN encode — the FTL's mapping and the geometry's addressing are
// the same coordinate system.
TEST(Topology, PageIndexAgreesWithMappingEncode)
{
    const SsdConfig cfg = SsdConfig::tiny();
    const DriveGeometry g = geomOf(cfg);
    PageMapping mapping(cfg.logicalPages(), g.totalDies(),
                        g.blocksPerDie(), g.pagesPerBlock);
    for (std::uint64_t idx = 0; idx < g.totalPages(); ++idx) {
        const Ppa ppa = g.ppaOf(idx);
        const Ppn ppn = mapping.encode(g.chipOf(ppa), g.chipBlockOf(ppa),
                                       ppa.page);
        ASSERT_EQ(static_cast<std::uint64_t>(ppn), idx)
            << "ppn/pgidx disagree at channel " << ppa.channel << " die "
            << ppa.die << " plane " << ppa.plane << " block " << ppa.block
            << " page " << ppa.page;
    }
}

TEST(Topology, ChipBlockIsPlaneMajor)
{
    const DriveGeometry g = geomOf(SsdConfig::bench());
    EXPECT_EQ(g.chipBlockOf({0, 0, 0, 5, 0}), 5);
    EXPECT_EQ(g.chipBlockOf({0, 0, 1, 0, 0}), g.blocksPerPlane);
    EXPECT_EQ(g.chipBlockOf({0, 0, 3, 7, 0}), 3 * g.blocksPerPlane + 7);
}

// ---------------------------------------------------------------------------
// Misconfiguration death tests: exact diagnostics, not just "it died".
// ---------------------------------------------------------------------------

DriveGeometry
validGeom()
{
    return geomOf(SsdConfig::tiny());
}

TEST(TopologyDeathTest, ZeroChannelsDies)
{
    DriveGeometry g = validGeom();
    g.channels = 0;
    EXPECT_DEATH(g.validate(),
                 "geometry: channel count must be positive, got 0");
}

TEST(TopologyDeathTest, ZeroDiesPerChannelDies)
{
    DriveGeometry g = validGeom();
    g.diesPerChannel = 0;
    EXPECT_DEATH(g.validate(),
                 "geometry: dies per channel must be positive, got 0");
}

TEST(TopologyDeathTest, NegativePlaneCountDies)
{
    DriveGeometry g = validGeom();
    g.planesPerDie = -1;
    EXPECT_DEATH(g.validate(),
                 "geometry: plane count must be positive, got -1");
}

TEST(TopologyDeathTest, PlaneCountBeyondDieLimitDies)
{
    DriveGeometry g = validGeom();
    g.planesPerDie = 9;
    EXPECT_DEATH(g.validate(),
                 "geometry: plane count 9 exceeds the per-die limit of 8");
}

TEST(TopologyDeathTest, ZeroBlocksPerPlaneDies)
{
    DriveGeometry g = validGeom();
    g.blocksPerPlane = 0;
    EXPECT_DEATH(g.validate(),
                 "geometry: blocks per plane must be positive, got 0");
}

TEST(TopologyDeathTest, ZeroPagesPerBlockDies)
{
    DriveGeometry g = validGeom();
    g.pagesPerBlock = 0;
    EXPECT_DEATH(g.validate(),
                 "geometry: pages per block must be positive, got 0");
}

TEST(TopologyDeathTest, NonPowerOfTwoPagesRejectedOnlyWhenQueued)
{
    // The paper's Table 2 drive (2112 pages/block) is legal under legacy
    // arbitration and rejected only by the queued fast path.
    const DriveGeometry g = geomOf(SsdConfig::paper());
    g.validate();  // must not die
    EXPECT_DEATH(g.validateQueued(),
                 "geometry: pages per block must be a power of two for "
                 "queued arbitration, got 2112");
}

// ---------------------------------------------------------------------------
// Queued-arbitration conservation: an end-to-end run under the
// event-driven channel model completes every request, does real GC, and
// keeps the grant/busy accounting consistent with simulated time.
// ---------------------------------------------------------------------------

TEST(TopologyQueued, ConservesRequestsAndAccounting)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.arbitration = Arbitration::Queued;
    cfg.seed = 99;
    Ssd ssd(cfg);

    SyntheticConfig wc;
    wc.spec = workloadByName("ali.A");  // write-heavy: forces GC
    wc.footprintPages = ssd.config().logicalPages();
    wc.numRequests = 6000;
    wc.seed = 31;
    const Trace trace = generateTrace(wc);

    std::uint64_t reads = 0, writes = 0;
    for (const auto &r : trace)
        (r.op == IoOp::Read ? reads : writes) += 1;
    ssd.run(trace);

    const SsdMetrics &m = ssd.metrics();
    EXPECT_EQ(m.reads, reads);
    EXPECT_EQ(m.writes, writes);
    EXPECT_GT(m.erases, 0u);
    EXPECT_GT(m.gcInvocations, 0u);
    EXPECT_GE(m.writeAmplification(), 1.0);

    // Queued mode accounts every transfer through a grant; the host
    // side must have granted at least one bus slice per completed op.
    EXPECT_GT(m.hostChannelGrants, 0u);
    EXPECT_GT(m.gcChannelGrants, 0u);
    EXPECT_GT(m.eraseChannelGrants, 0u);

    // No channel can be busy longer than the run lasted, and at least
    // one channel did real work.
    ASSERT_EQ(m.channelBusyTicks.size(),
              static_cast<std::size_t>(cfg.channels));
    for (int ch = 0; ch < cfg.channels; ++ch) {
        EXPECT_LE(m.channelBusyTicks[ch], m.simulatedTime);
        EXPECT_GE(m.channelUtilization(ch), 0.0);
        EXPECT_LE(m.channelUtilization(ch), 1.0);
    }
    EXPECT_GT(m.maxChannelUtilization(), 0.0);
    EXPECT_GE(m.avgHostChannelWaitUs(), 0.0);
    EXPECT_GE(m.avgGcChannelWaitUs(), 0.0);
}

TEST(TopologyQueued, LegacyAndQueuedConserveTheSameWork)
{
    // The two arbitration models may time requests differently, but the
    // *work* is conserved identically: same trace, same completed ops,
    // same user-visible write amplification drivers.
    SyntheticConfig wc;
    wc.spec = workloadByName("prxy");
    wc.footprintPages = SsdConfig::tiny().logicalPages();
    wc.numRequests = 4000;
    wc.seed = 31;
    const Trace trace = generateTrace(wc);

    SsdMetrics results[2];
    const Arbitration models[2] = {Arbitration::Legacy,
                                   Arbitration::Queued};
    for (int i = 0; i < 2; ++i) {
        SsdConfig cfg = SsdConfig::tiny();
        cfg.arbitration = models[i];
        cfg.seed = 99;
        Ssd ssd(cfg);
        ssd.run(trace);
        results[i] = ssd.metrics();
    }
    EXPECT_EQ(results[0].reads, results[1].reads);
    EXPECT_EQ(results[0].writes, results[1].writes);
    // Grant counters only move under queued arbitration.
    EXPECT_EQ(results[0].hostChannelGrants, 0u);
    EXPECT_GT(results[1].hostChannelGrants, 0u);
}

// ---------------------------------------------------------------------------
// Latent bus releases: a release posts a ChannelGrant only when a chip
// waits for it, and a read's release rides on its completion. Grants,
// dispatch order and final ticks must match a run that posted one
// ChannelGrant per release; every pin below was recorded from such a
// run.
// ---------------------------------------------------------------------------

/** FNV-1a over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 14695981039346656037ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
};

/** Hash of a grant log's (tick, channel, class, chip) entries. */
std::uint64_t
hashGrants(const std::vector<Channel::Grant> &grants)
{
    Fnv h;
    for (const Channel::Grant &g : grants) {
        h.add(g.tick);
        h.add(static_cast<std::uint64_t>(g.channel));
        h.add(static_cast<std::uint64_t>(g.cls));
        h.add(static_cast<std::uint64_t>(g.chip));
    }
    return h.h;
}

struct DispatchLog
{
    std::uint64_t grants = 0;
    std::uint64_t grantHash = 0;  //!< over (tick, channel, class, chip)
    std::uint64_t events = 0;     //!< dispatches other than ChannelGrant
    std::uint64_t eventHash = 0;  //!< over their (tick, kind)
    Tick end = 0;
};

/**
 * Replay `trace` as Ssd::run() does, one dispatch at a time, hashing
 * every grant and every dispatch but ChannelGrant. A ReadXferDone hashes
 * as the ChipOpComplete it carries: its release half is a grant-side
 * event.
 */
DispatchLog
replayLogged(const SsdConfig &cfg, const Trace &trace)
{
    Ssd ssd(cfg);
    std::vector<Channel::Grant> grants;
    for (int c = 0; c < cfg.channels; ++c)
        ssd.ftl().channelAt(c).logGrants(&grants);
    EventQueue &eq = ssd.eventQueue();
    VectorTraceStream stream(trace);
    TracePump pump{};
    pump.ftl = &ssd.ftl();
    pump.eq = &eq;
    pump.stream = &stream;
    pump.base = eq.now();
    if (sloPolicyThrottles(cfg.sloPolicy) && !cfg.slo.empty())
        pump.configureThrottle(cfg.slo, cfg.pageSizeKB, ssd.metrics());
    EXPECT_TRUE(pump.advance());
    eq.scheduleTraceAdmitAt(pump.base + pump.pending.arrival, pump);

    DispatchLog log;
    Fnv events;
    std::array<std::uint64_t, kEventKinds> seen{};
    while (eq.step()) {
        int kind = 0;
        while (eq.processed(static_cast<EventKind>(kind)) == seen[kind])
            ++kind;
        seen[kind] += 1;
        const auto k = static_cast<EventKind>(kind);
        if (k == EventKind::ChannelGrant)
            continue;
        log.events += 1;
        events.add(eq.now());
        events.add(static_cast<std::uint64_t>(
            k == EventKind::ReadXferDone ? EventKind::ChipOpComplete : k));
    }
    EXPECT_TRUE(ssd.ftl().drained());
    log.grants = grants.size();
    log.grantHash = hashGrants(grants);
    log.eventHash = events.h;
    log.end = eq.now();
    const SsdMetrics &m = ssd.metrics();
    EXPECT_EQ(log.grants, m.hostChannelGrants + m.gcChannelGrants +
                              m.eraseChannelGrants);
    return log;
}

/** usr victim plus an ali.A aggressor, merged as the noisy_qos mix. */
Trace
noisyMix(const SsdConfig &cfg, std::uint64_t victim, std::uint64_t hog,
         double hog_intensity)
{
    SyntheticConfig wc;
    wc.footprintPages = cfg.logicalPages();
    wc.spec = workloadByName("usr");
    wc.numRequests = victim;
    wc.seed = 31;
    std::vector<std::unique_ptr<TraceStream>> streams;
    streams.push_back(std::make_unique<VectorTraceStream>(generateTrace(wc)));
    wc.spec = workloadByName("ali.A");
    wc.numRequests = hog;
    wc.seed = 77;
    wc.intensityScale = hog_intensity;
    streams.push_back(std::make_unique<VectorTraceStream>(generateTrace(wc)));
    TenantMix mix(std::move(streams));
    Trace merged;
    TraceRecord rec;
    while (mix.next(rec))
        merged.push_back(rec);
    return merged;
}

SsdConfig
queuedCfg(SsdConfig cfg, bool throttle_wfq)
{
    cfg.seed = 99;
    cfg.scheme = SchemeKind::Aero;
    cfg.arbitration = Arbitration::Queued;
    if (throttle_wfq) {
        cfg.sloPolicy = SloPolicy::ThrottleWfq;
        cfg.slo = parseTenantSloSpec("0:weight=8,1:weight=1:iops=800");
    }
    return cfg;
}

void
expectLog(const DispatchLog &got, const DispatchLog &pin)
{
    EXPECT_EQ(got.grants, pin.grants);
    EXPECT_EQ(got.grantHash, pin.grantHash);
    EXPECT_EQ(got.events, pin.events);
    EXPECT_EQ(got.eventHash, pin.eventHash);
    EXPECT_EQ(got.end, pin.end);
}

SsdConfig
tinyShared()
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.chipsPerChannel = 4;  // tiny's one chip per channel never queues
    return cfg;
}

TEST(LatentRelease, TinyFifoMatchesRecordedRun)
{
    const SsdConfig cfg = queuedCfg(tinyShared(), false);
    expectLog(replayLogged(cfg, noisyMix(cfg, 300, 600, 40.0)),
              {8439, 15386027409676140130ULL, 12977, 9369900219465156220ULL,
               380980902});
}

TEST(LatentRelease, TinyThrottleWfqMatchesRecordedRun)
{
    const SsdConfig cfg = queuedCfg(tinyShared(), true);
    expectLog(replayLogged(cfg, noisyMix(cfg, 300, 600, 40.0)),
              {9661, 10706396519001862637ULL, 15323, 15979402679637332238ULL,
               729929511});
}

TEST(LatentRelease, BenchFifoMatchesRecordedRun)
{
    const SsdConfig cfg = queuedCfg(SsdConfig::bench(), false);
    expectLog(replayLogged(cfg, noisyMix(cfg, 2000, 4000, 60.0)),
              {92675, 11174676318134044771ULL, 141339, 2728156276246236888ULL,
               2732014415});
}

TEST(LatentRelease, BenchThrottleWfqMatchesRecordedRun)
{
    const SsdConfig cfg = queuedCfg(SsdConfig::bench(), true);
    expectLog(replayLogged(cfg, noisyMix(cfg, 2000, 4000, 60.0)),
              {108945, 149116685310570807ULL, 169643, 7726168054656699656ULL,
               4980115341});
}

/** Completions as (tick, lpn), plus whatever probes log in between. */
class LoggingFtl : public FtlCallbacks
{
  public:
    explicit LoggingFtl(EventQueue &eq_) : eq(eq_) {}

    void
    onPageOpDone(const PageOp &op) override
    {
        log.emplace_back(eq.now(), op.lpn);
    }

    void
    onEraseDone(int, BlockId, const EraseOutcome &, GcJob *) override
    {
    }

    bool eraseUrgent(int, BlockId) override { return false; }

    EventQueue &eq;
    std::vector<std::pair<Tick, Lpn>> log;
};

/** One queued channel shared by `n` chip agents. */
struct BusRig
{
    explicit BusRig(int n) : cfg(SsdConfig::tiny()), ftl(eq)
    {
        cfg.arbitration = Arbitration::Queued;
        channel.init(0, &eq, &metrics, n);
        channel.logGrants(&grants);
        for (int a = 0; a < n; ++a) {
            chips.push_back(std::make_unique<NandChip>(
                ChipParams::forType(cfg.chipType), cfg.geometry, 11));
            schemes.push_back(makeEraseScheme(SchemeKind::Baseline,
                                              *chips[a], SchemeOptions{}));
            agents.push_back(std::make_unique<ChipAgent>(
                a, *chips[a], *schemes[a], eq, cfg, channel, ftl, metrics));
        }
    }

    static PageOp
    op(PageOp::Kind kind, Lpn lpn)
    {
        PageOp o;
        o.kind = kind;
        o.lpn = lpn;
        return o;
    }

    /** At `when`, enqueue `o` on agent `a`. */
    void
    enqueueAt(Tick when, int a, PageOp o)
    {
        eq.scheduleAt(when, [this, a, o] { agents[a]->enqueue(o); });
    }

    /** At `when`, schedule a probe at `probe` that logs (tick, lpn). */
    void
    probeFrom(Tick when, Tick probe, Lpn lpn)
    {
        eq.scheduleAt(when, [this, probe, lpn] {
            eq.scheduleAt(probe, [this, lpn] {
                ftl.log.emplace_back(eq.now(), lpn);
            });
        });
    }

    Tick xfer() const { return cfg.channelXferPerPage; }
    Tick prog() const { return chips[0]->params().tProg; }
    Tick sense() const { return chips[0]->params().tRead; }

    SsdConfig cfg;
    EventQueue eq;
    Channel channel;
    LoggingFtl ftl;
    SsdMetrics metrics;
    std::vector<Channel::Grant> grants;
    std::vector<std::unique_ptr<NandChip>> chips;
    std::vector<std::unique_ptr<EraseScheme>> schemes;
    std::vector<std::unique_ptr<ChipAgent>> agents;
};

using Log = std::vector<std::pair<Tick, Lpn>>;

std::vector<std::pair<Tick, int>>
grantTicks(const BusRig &rig)
{
    std::vector<std::pair<Tick, int>> out;
    for (const Channel::Grant &g : rig.grants)
        out.emplace_back(g.tick, g.chip);
    return out;
}

// A write on chip 1 asks for the bus at the very tick chip 0's write
// releases it, from an event ordered before the release's key: it
// queues and is granted by the release. A probe scheduled between the
// two (at the write's completion tick) therefore fires before the
// write completes.
TEST(LatentRelease, RequestOrderedBeforeTheReleaseKeyQueues)
{
    BusRig rig(2);
    const Tick x = rig.xfer();
    const Tick done = 2 * x + rig.prog();
    rig.enqueueAt(x, 1, BusRig::op(PageOp::Kind::UserWrite, 2));
    rig.probeFrom(x, done, 99);
    rig.agents[0]->enqueue(BusRig::op(PageOp::Kind::UserWrite, 1));
    rig.eq.run();
    ASSERT_EQ(done, 376000u);
    EXPECT_EQ(rig.ftl.log, (Log{{363000, 1}, {376000, 99}, {376000, 2}}));
    EXPECT_EQ(grantTicks(rig),
              (std::vector<std::pair<Tick, int>>{{0, 0}, {13000, 1}}));
    EXPECT_EQ(rig.metrics.hostChannelWaitTicks, 0u);
    EXPECT_EQ(rig.eq.now(), 376000u);
}

// The same request from an event ordered after the release's key finds
// the bus free and is granted on the spot, ahead of a probe scheduled
// after it.
TEST(LatentRelease, RequestOrderedAfterTheReleaseKeyIsGrantedAtOnce)
{
    BusRig rig(2);
    const Tick x = rig.xfer();
    const Tick done = 2 * x + rig.prog();
    rig.agents[0]->enqueue(BusRig::op(PageOp::Kind::UserWrite, 1));
    rig.enqueueAt(x, 1, BusRig::op(PageOp::Kind::UserWrite, 2));
    rig.probeFrom(x, done, 99);
    rig.eq.run();
    EXPECT_EQ(rig.ftl.log, (Log{{363000, 1}, {376000, 2}, {376000, 99}}));
    EXPECT_EQ(grantTicks(rig),
              (std::vector<std::pair<Tick, int>>{{0, 0}, {13000, 1}}));
    EXPECT_EQ(rig.metrics.hostChannelWaitTicks, 0u);
    EXPECT_EQ(rig.eq.now(), 376000u);
}

// Two writes queue behind a read whose release rides on its completion.
// The completion grants the first; the second must still be granted
// when the first releases the bus.
TEST(LatentRelease, SecondWaiterBehindAFoldedReadIsGranted)
{
    BusRig rig(3);
    const Tick sensed = rig.sense();
    rig.agents[0]->enqueue(BusRig::op(PageOp::Kind::UserRead, 1));
    rig.enqueueAt(sensed + 1, 1, BusRig::op(PageOp::Kind::UserWrite, 2));
    rig.enqueueAt(sensed + 2, 2, BusRig::op(PageOp::Kind::UserWrite, 3));
    rig.eq.run();
    EXPECT_EQ(rig.ftl.log, (Log{{53000, 1}, {416000, 2}, {429000, 3}}));
    EXPECT_EQ(grantTicks(rig), (std::vector<std::pair<Tick, int>>{
                                   {40000, 0}, {53000, 1}, {66000, 2}}));
    EXPECT_EQ(rig.metrics.hostChannelWaitTicks, 38997u);
    EXPECT_EQ(rig.eq.now(), 429000u);
}

/** Probe of nextEventTick(): what it reported, from which event. */
struct NextTickProbe
{
    EventQueue *eq;
    std::vector<Tick> *seen;
    static void
    fire(void *p)
    {
        auto *self = static_cast<NextTickProbe *>(p);
        self->seen->push_back(self->eq->nextEventTick());
    }
};

// An unposted release is pending until dispatch passes its key: an
// event ordered before the key sees it as the next event tick, one
// ordered after it does not.
TEST(LatentRelease, NextEventTickCountsAnUnpassedRelease)
{
    std::vector<Tick> seen;
    for (const bool before : {true, false}) {
        BusRig rig(1);
        NextTickProbe probe{&rig.eq, &seen};
        if (before)
            rig.eq.scheduleTimerAt(rig.xfer(), &NextTickProbe::fire, &probe);
        rig.agents[0]->enqueue(BusRig::op(PageOp::Kind::UserWrite, 1));
        if (!before)
            rig.eq.scheduleTimerAt(rig.xfer(), &NextTickProbe::fire, &probe);
        rig.eq.run();
    }
    EXPECT_EQ(seen, (std::vector<Tick>{13000, 363000}));
}

/**
 * Admissions due exactly at release ticks: write bursts of three every
 * transfer slot, read bursts in between, so the pump's inline same-tick
 * rule keeps meeting unposted releases.
 */
Trace
releaseTickTrace(const SsdConfig &cfg, std::uint64_t n)
{
    Trace t;
    for (std::uint64_t i = 0; i < n; ++i) {
        TraceRecord rec;
        rec.arrival = (i / 3) * cfg.channelXferPerPage;
        rec.op = (i / 3) % 4 == 3 ? IoOp::Read : IoOp::Write;
        rec.startPage = (i * 37) % cfg.logicalPages();
        rec.pages = 1 + i % 2;
        t.push_back(rec);
    }
    return t;
}

/** A Timer-driven pump with TracePump's inline same-tick rule. */
struct TimerPump
{
    Ftl *ftl;
    EventQueue *eq;
    const Trace *trace;
    std::size_t next = 0;

    static void fireThunk(void *p) { static_cast<TimerPump *>(p)->fire(); }

    void
    fire()
    {
        for (;;) {
            ftl->submit((*trace)[next++]);
            if (next == trace->size())
                return;
            const Tick due = std::max((*trace)[next].arrival, eq->now());
            if (due <= eq->now() && eq->nextEventTick() > eq->now())
                continue;
            eq->scheduleTimerAt(due, &fireThunk, this);
            return;
        }
    }
};

struct PumpOutcome
{
    std::uint64_t admitEvents = 0;  //!< TraceAdmit or Timer dispatches
    std::uint64_t grantHash = 0;
    double readMean = 0.0;
    double writeMean = 0.0;
    Tick end = 0;
};

template <typename Drive>
PumpOutcome
runReleaseTickTrace(Drive drive)
{
    SsdConfig cfg = queuedCfg(tinyShared(), false);
    Ssd ssd(cfg);
    std::vector<Channel::Grant> grants;
    for (int c = 0; c < cfg.channels; ++c)
        ssd.ftl().channelAt(c).logGrants(&grants);
    drive(ssd, releaseTickTrace(cfg, 600));
    const EventQueue &eq = ssd.eventQueue();
    return {eq.processed(EventKind::TraceAdmit) +
                eq.processed(EventKind::Timer),
            hashGrants(grants), ssd.metrics().readLatency.mean(),
            ssd.metrics().writeLatency.mean(), eq.now()};
}

TraceRecord
recordAt(Tick arrival, IoOp op, Lpn page, std::uint32_t pages = 1)
{
    TraceRecord rec;
    rec.arrival = arrival;
    rec.op = op;
    rec.startPage = page;
    rec.pages = pages;
    return rec;
}

/** The tick a two-page write at 0 on a fresh drive hands the bus on:
 *  its second page, queued on the same chip, is granted when the first
 *  finishes programming and releases the bus a transfer slot later. */
Tick
secondPageRelease(const SsdConfig &cfg)
{
    Ssd ssd(cfg);
    std::vector<Channel::Grant> grants;
    ssd.ftl().channelAt(0).logGrants(&grants);
    ssd.run(Trace{recordAt(0, IoOp::Write, 7, 2)});
    EXPECT_EQ(grants.size(), 2u);
    EXPECT_EQ(grants[0].chip, grants[1].chip);
    return grants.back().tick + cfg.channelXferPerPage;
}

// Two records fall due at the tick of a release whose key was reserved
// after the pump's admission event was scheduled, and nobody waits for
// it. The pump admits the first (a read the mapping answers, so nothing
// else is pending at that tick); the second must wait for an admission
// event of its own, behind the release, exactly as when a ChannelGrant
// was pending. Both the TracePump and a Timer-driven pump.
TEST(LatentRelease, PumpDefersARecordDueAtAnUnpostedRelease)
{
    SsdConfig cfg = queuedCfg(tinyShared(), false);
    cfg.prefillFraction = 0.0;  // write pointer at chip 0, plane 0
    const Tick x = secondPageRelease(cfg);
    EXPECT_EQ(x, 376000u);
    const Trace trace{recordAt(0, IoOp::Write, 7, 2),
                      recordAt(x, IoOp::Read, 100),  // never written
                      recordAt(x, IoOp::Write, 200),
                      recordAt(x + 1000, IoOp::Write, 300)};
    const auto admissions = [](EventQueue &eq) {
        return eq.processed(EventKind::TraceAdmit) +
               eq.processed(EventKind::Timer);
    };
    {
        Ssd ssd(cfg);
        ssd.run(trace);
        EXPECT_EQ(admissions(ssd.eventQueue()), 4u);
    }
    {
        Ssd ssd(cfg);
        EventQueue &eq = ssd.eventQueue();
        TimerPump pump{&ssd.ftl(), &eq, &trace};
        eq.scheduleTimerAt(0, &TimerPump::fireThunk, &pump);
        eq.run();
        EXPECT_TRUE(ssd.ftl().drained());
        EXPECT_EQ(admissions(eq), 4u);
    }
}

TEST(LatentRelease, AdmissionsAtReleaseTicksMatchRecordedRun)
{
    const PumpOutcome pin{200, 11749904347033658739ULL, 303320.0,
                          15442773.333333334, 89087000};
    const PumpOutcome traced = runReleaseTickTrace(
        [](Ssd &ssd, const Trace &trace) { ssd.run(trace); });
    const PumpOutcome timed =
        runReleaseTickTrace([](Ssd &ssd, const Trace &trace) {
            TimerPump pump{&ssd.ftl(), &ssd.eventQueue(), &trace};
            ssd.eventQueue().scheduleTimerAt(trace[0].arrival,
                                             &TimerPump::fireThunk, &pump);
            ssd.eventQueue().run();
        });
    for (const PumpOutcome &o : {traced, timed}) {
        EXPECT_EQ(o.admitEvents, pin.admitEvents);
        EXPECT_EQ(o.grantHash, pin.grantHash);
        EXPECT_EQ(o.readMean, pin.readMean);
        EXPECT_EQ(o.writeMean, pin.writeMean);
        EXPECT_EQ(o.end, pin.end);
    }
}

// ---------------------------------------------------------------------------
// Thread-count invariance: a sweep over the new reclamation axes is
// bit-identical at 1 and 4 worker threads, including the JSON report.
// ---------------------------------------------------------------------------

TEST(TopologySweep, ReclamationAxesAreThreadCountInvariant)
{
    const SweepSpec spec = SweepBuilder()
                               .workloads({"prxy"})
                               .schemes({SchemeKind::Baseline})
                               .pecs({500.0})
                               .gcPolicies({"greedy", "fifo-log"})
                               .wearLevels({"none", "dynamic"})
                               .requests(800)
                               .seeds({7})
                               .build();
    ASSERT_EQ(spec.size(), 4u);

    const auto one = SweepRunner(1).run(spec);
    const auto four = SweepRunner(4).run(spec);
    ASSERT_EQ(one.size(), spec.size());
    ASSERT_EQ(four.size(), spec.size());

    // The swept axes must land on the points in expand() order...
    bool saw_fifo = false, saw_dynamic = false;
    for (const auto &r : one) {
        saw_fifo |= r.point.gcPolicy == "fifo-log";
        saw_dynamic |= r.point.wearLevel == "dynamic";
    }
    EXPECT_TRUE(saw_fifo);
    EXPECT_TRUE(saw_dynamic);

    // ...and the full report (axes, points, metrics) is bit-identical.
    EXPECT_EQ(sweepReport(spec, one).dump(2),
              sweepReport(spec, four).dump(2));
    EXPECT_EQ(toCsv(one), toCsv(four));
}

} // namespace
} // namespace aero
