/**
 * @file
 * Replay benchmark program. Builds one drive, replays one workload through
 * the public Ssd/Ftl API and prints JSON lines: host timings, the simulated
 * results, and the counts the checks in run.py compare.
 *
 *   --mode plain   untraced: builds the drive with the Ssd constructor,
 *                  then replays the workload's TenantMix --replays times,
 *                  each a timed Ssd::run in a forked copy of the built
 *                  drive, so every replay starts from the same state. Each
 *                  replay prints its own result line. Further
 *                  constructions bring the set-up samples to --setups.
 *                  Set-up and replay are timed in thread CPU seconds.
 *   --mode traced  the same replay with the layers pulled apart: Ftl is
 *                  built directly (constructor, prefill and warmup timed
 *                  separately) and a benchmark-side Timer-event pump feeds
 *                  it, timing every Ftl::submit and every stream pull.
 *                  Workloads with admission throttling route each record
 *                  through a TracePump gate, which owns the token buckets.
 *                  After the replay, layer probes time PageMapping,
 *                  EventQueue, eraseNow, PercentileTracker and
 *                  generateTrace on the workload's own geometry, LPN
 *                  sequence and counts.
 *
 * Every workload runs the AERO scheme at PEC 2500 with mid-segment
 * suspension (makeConfig). Both modes schedule the same events in the same
 * order, so the traced replay's simulated results equal the plain replay's
 * bit for bit; run.py checks that. See README.md beside this file for the
 * metrics.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <sys/mman.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/aero_scheme.hh"
#include "erase/scheme_registry.hh"
#include "exp/json.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"
#include "workload/trace_io/tenant.hh"

namespace aero
{
namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * CPU seconds (user + system) this thread has run. The end-to-end host
 * times use it: unlike the wall clock, it leaves out the time the vCPU
 * spent stolen by the hypervisor or running other processes, which varies
 * with the host's load and not with the code measured.
 */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Options
{
    std::string mode = "plain";
    std::string drive = "bench";
    std::string arbitration = "legacy";
    std::string sloPolicy = "none";
    std::string sloSpec;
    std::vector<TenantSource> tenants;
    int setups = 1;
    int replays = 1;
};

/** "preset:requests:seed:intensity" -> one synthetic tenant. */
TenantSource
parseTenant(const std::string &arg)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (;;) {
        const std::size_t colon = arg.find(':', start);
        parts.push_back(arg.substr(start, colon - start));
        if (colon == std::string::npos)
            break;
        start = colon + 1;
    }
    if (parts.size() != 4)
        AERO_FATAL("--tenant wants preset:requests:seed:intensity, got '",
                   arg, "'");
    TenantSource src;
    src.label = arg;
    src.preset = parts[0];
    src.requests = std::strtoull(parts[1].c_str(), nullptr, 10);
    src.seed = std::strtoull(parts[2].c_str(), nullptr, 10);
    src.hasSeed = true;
    src.intensity = std::strtod(parts[3].c_str(), nullptr);
    if (src.requests == 0 || !(src.intensity > 0.0))
        AERO_FATAL("--tenant needs requests > 0 and intensity > 0: '", arg,
                   "'");
    return src;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            AERO_FATAL("flag ", flag, " needs a value");
        const std::string value = argv[++i];
        if (flag == "--mode")
            o.mode = value;
        else if (flag == "--drive")
            o.drive = value;
        else if (flag == "--arbitration")
            o.arbitration = value;
        else if (flag == "--slo-policy")
            o.sloPolicy = value;
        else if (flag == "--slo-spec")
            o.sloSpec = value;
        else if (flag == "--tenant")
            o.tenants.push_back(parseTenant(value));
        else if (flag == "--setups")
            o.setups = std::max(1, std::atoi(value.c_str()));
        else if (flag == "--replays")
            o.replays = std::max(1, std::atoi(value.c_str()));
        else
            AERO_FATAL("unknown flag ", flag);
    }
    if (o.mode != "plain" && o.mode != "traced")
        AERO_FATAL("--mode is plain or traced, got '", o.mode, "'");
    if (o.tenants.empty())
        AERO_FATAL("at least one --tenant is required");
    return o;
}

SsdConfig
makeConfig(const Options &o)
{
    SsdConfig cfg;
    if (o.drive == "paper")
        cfg = SsdConfig::paper();
    else if (o.drive == "bench")
        cfg = SsdConfig::bench();
    else if (o.drive == "tiny")
        cfg = SsdConfig::tiny();
    else
        AERO_FATAL("--drive is paper, bench or tiny, got '", o.drive, "'");
    cfg.scheme = SchemeKind::Aero;
    cfg.initialPec = 2500.0;
    cfg.suspension = SuspensionMode::MidSegment;
    cfg.arbitration = arbitrationFromName(o.arbitration);
    cfg.sloPolicy = sloPolicyFromName(o.sloPolicy);
    if (!o.sloSpec.empty())
        cfg.slo = parseTenantSloSpec(o.sloSpec);
    return cfg;
}

SyntheticConfig
baseSynthetic(const SsdConfig &cfg)
{
    SyntheticConfig base;
    base.footprintPages = cfg.logicalPages();
    base.pageSizeKB = cfg.pageSizeKB;
    return base;
}

/** The workload's arrival-ordered tenant mix (one tenant or several). */
std::unique_ptr<TenantMix>
openMix(const Options &o, const SsdConfig &cfg)
{
    const SyntheticConfig base = baseSynthetic(cfg);
    std::vector<std::unique_ptr<TraceStream>> streams;
    for (const TenantSource &src : o.tenants)
        streams.push_back(openTenantSource(src, base));
    return std::make_unique<TenantMix>(std::move(streams));
}

/** Passes a stream through, counting the records it hands out. */
class CountingStream : public TraceStream
{
  public:
    explicit CountingStream(TraceStream &inner_) : inner(inner_) {}

    bool
    next(TraceRecord &out) override
    {
        if (!inner.next(out))
            return false;
        ++count;
        return true;
    }

    std::uint64_t count = 0;

  private:
    TraceStream &inner;
};

/** Never yields: the TracePump gate admits exactly the record handed in. */
class EmptyStream : public TraceStream
{
  public:
    bool next(TraceRecord &) override { return false; }
};

/** One line of /proc/self/status, in KiB ("VmRSS", "VmHWM"). */
std::uint64_t
procStatusKb(const char *key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(key);
    while (std::getline(in, line)) {
        if (line.compare(0, len, key) == 0 && line.size() > len &&
            line[len] == ':')
            return std::strtoull(line.c_str() + len + 1, nullptr, 10);
    }
    return 0;
}

/** Simulated results and layer counts of a finished replay. */
Json
replayResult(SsdMetrics &m, const EventQueue &eq, std::uint64_t records)
{
    Json r = Json::object();
    r["records"] = records;
    r["reads"] = m.reads;
    r["writes"] = m.writes;
    r["read_samples"] = static_cast<std::uint64_t>(m.readLatency.count());
    r["write_samples"] = static_cast<std::uint64_t>(m.writeLatency.count());
    std::uint64_t t_reads = 0, t_writes = 0, t_rs = 0, t_ws = 0;
    for (const TenantLatency &t : m.tenants) {
        t_reads += t.reads;
        t_writes += t.writes;
        t_rs += t.readLatency.count();
        t_ws += t.writeLatency.count();
    }
    r["tenant_reads"] = t_reads;
    r["tenant_writes"] = t_writes;
    r["tenant_read_samples"] = t_rs;
    r["tenant_write_samples"] = t_ws;

    Json sim = Json::object();
    sim["sim_read_p99_us"] = ticksToUs(m.readLatency.percentile(0.99));
    sim["sim_read_p9999_us"] =
        ticksToUs(m.readLatency.percentile(0.9999));
    sim["sim_write_p99_us"] = ticksToUs(m.writeLatency.percentile(0.99));
    sim["sim_avg_erase_ms"] = m.avgEraseLatencyMs();
    sim["sim_write_amplification"] = m.writeAmplification();
    r["sim"] = std::move(sim);

    Json c = Json::object();
    c["events"] = eq.processed();
    c["simulated_ticks"] = m.simulatedTime;
    c["gc_invocations"] = m.gcInvocations;
    c["gc_migrated_pages"] = m.gcMigratedPages;
    c["erases"] = m.erases;
    c["erase_loops"] = m.eraseLoops;
    c["erase_busy_ticks"] = m.eraseBusyTime;
    c["suspensions"] = m.eraseSuspensions;
    c["unmapped_reads"] = m.unmappedReads;
    c["host_grants"] = m.hostChannelGrants;
    c["host_wait_ticks"] = m.hostChannelWaitTicks;
    c["gc_grants"] = m.gcChannelGrants;
    c["gc_wait_ticks"] = m.gcChannelWaitTicks;
    c["max_channel_util"] = m.maxChannelUtilization();
    c["deferrals"] = m.throttleDeferrals;
    c["deferred_ticks"] = m.throttleDeferredTicks;
    c["victim_read_p99_us"] =
        m.tenants.empty() ? 0.0 : m.tenants[0].readP99Us();
    r["counts"] = std::move(c);
    return r;
}

/**
 * Copies every private writable page of the process now. A forked replay
 * calls it before its clock starts, so no copy-on-write fault lands in
 * Ssd::run. Best effort: where MADV_POPULATE_WRITE is refused, the faults
 * stay in the replay.
 */
void
unshareMemory()
{
    std::ifstream maps("/proc/self/maps");
    std::string line;
    while (std::getline(maps, line)) {
        unsigned long lo = 0, hi = 0;
        char perms[5] = {};
        if (std::sscanf(line.c_str(), "%lx-%lx %4s", &lo, &hi, perms) == 3 &&
            perms[1] == 'w' && perms[3] == 'p')
            madvise(reinterpret_cast<void *>(lo), hi - lo,
                    MADV_POPULATE_WRITE);
    }
}

/**
 * One timed Ssd::run of `mix` in a forked child, which prints the
 * replay's result line. The parent's drive and stream stay untouched, so
 * every call replays the same records on the same drive state.
 */
void
replayInChild(Ssd &ssd, TraceStream &mix)
{
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0)
        AERO_FATAL("fork failed");
    if (pid == 0) {
        unshareMemory();
        CountingStream stream(mix);
        const std::uint64_t rss_before = procStatusKb("VmRSS");
        const auto t0 = Clock::now();
        const double cpu0 = cpuSeconds();
        ssd.run(stream);
        const double replay_s = cpuSeconds() - cpu0;
        const double replay_wall_s = secondsSince(t0);
        const std::uint64_t rss_after = procStatusKb("VmRSS");
        Json out = replayResult(ssd.metrics(), ssd.eventQueue(),
                                stream.count);
        out["drained"] = ssd.ftl().drained();
        out["replay_s"] = replay_s;
        out["replay_wall_s"] = replay_wall_s;
        out["rss_before_replay_kb"] = rss_before;
        out["rss_after_replay_kb"] = rss_after;
        out["peak_rss_kb"] = procStatusKb("VmHWM");
        std::printf("%s\n", out.dump().c_str());
        std::fflush(stdout);
        std::_Exit(0);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        AERO_FATAL("replay child failed, wait status ", status);
}

/** Untraced run: build once, replay --replays times, time every set-up. */
void
runPlain(const Options &o)
{
    const SsdConfig cfg = makeConfig(o);
    const std::unique_ptr<TenantMix> mix = openMix(o, cfg);

    Json setups = Json::array();
    double cpu0 = cpuSeconds();
    auto ssd = std::make_unique<Ssd>(cfg);
    setups.push(cpuSeconds() - cpu0);
    ssd->metrics().enableTenantTracking(o.tenants.size());
    const std::uint64_t setup_peak = procStatusKb("VmHWM");

    // Replays fork from the process's first drive, so no heap that a
    // destroyed drive left behind masks their RSS growth.
    for (int k = 0; k < o.replays; ++k)
        replayInChild(*ssd, *mix);
    ssd.reset();

    // Further constructions only add set-up samples.
    for (int k = 1; k < o.setups; ++k) {
        cpu0 = cpuSeconds();
        Ssd again(cfg);
        setups.push(cpuSeconds() - cpu0);
    }

    Json out = Json::object();
    out["mode"] = "plain";
    out["setup_s"] = std::move(setups);
    out["setup_peak_rss_kb"] = setup_peak;
    std::printf("%s\n", out.dump().c_str());
}

/**
 * Benchmark-side trace pump: the same admission order as TracePump (one
 * Timer event per future arrival, same-tick records admitted inline only
 * when nothing else is due now), with a span around every Ftl call and
 * every stream pull.
 */
struct TimedPump
{
    Ftl *ftl = nullptr;
    EventQueue *eq = nullptr;
    TraceStream *stream = nullptr;
    TracePump *gate = nullptr;   //!< admission throttle, when configured
    TraceRecord pending;
    bool hasPending = false;
    Tick base = 0;

    double submitS = 0.0;
    double nextS = 0.0;
    std::uint64_t fires = 0;
    double pendingSum = 0.0;     //!< eq->pending() summed over firings
    std::vector<Lpn> lpns;       //!< first page of each record, capped

    /** LPNs kept for the mapping probe. */
    static constexpr std::size_t kLpnCap = std::size_t{1} << 20;

    static void
    fireThunk(void *ctx)
    {
        static_cast<TimedPump *>(ctx)->fire();
    }

    /** Pull the next record; false at end of trace. */
    bool
    pull(Clock::time_point t0)
    {
        hasPending = stream->next(pending);
        nextS += secondsSince(t0);
        if (hasPending && lpns.size() < kLpnCap)
            lpns.push_back(pending.startPage);
        return hasPending;
    }

    void
    admit()
    {
        if (gate == nullptr) {
            ftl->submit(pending);
            return;
        }
        gate->pending = pending;
        gate->hasPending = true;
        gate->fire();
    }

    void
    fire()
    {
        ++fires;
        pendingSum += static_cast<double>(eq->pending());
        for (;;) {
            const auto t0 = Clock::now();
            admit();
            const auto t1 = Clock::now();
            submitS += std::chrono::duration<double>(t1 - t0).count();
            if (!pull(t1))
                return;
            const Tick due_raw = base + pending.arrival;
            const Tick due = due_raw < eq->now() ? eq->now() : due_raw;
            if (due <= eq->now() && eq->nextEventTick() > eq->now())
                continue;
            eq->scheduleTimerAt(due, &fireThunk, this);
            return;
        }
    }
};

/** Mean ns per PageMapping::update and ::lookup over the replay's LPNs. */
void
probeMapping(const SsdConfig &cfg, const std::vector<Lpn> &lpns,
             Json &layers)
{
    const int chips = cfg.totalChips();
    const int ppb = cfg.geometry.pagesPerBlock;
    PageMapping map(cfg.logicalPages(), chips, cfg.blocksPerChip(), ppb);
    // Keys and targets are built before the clock starts. Targets are
    // fresh physical pages only (update() refuses a mapped PPN), spread
    // round-robin over chips as the FTL's write cursor spreads them.
    std::vector<Lpn> keys(lpns);
    for (Lpn &k : keys)
        k %= cfg.logicalPages();
    const std::size_t updates = std::min<std::size_t>(
        keys.size(), static_cast<std::size_t>(cfg.physicalPages() / 2));
    std::vector<Ppn> targets(updates);
    for (std::size_t i = 0; i < updates; ++i) {
        const std::size_t per_chip = i / static_cast<std::size_t>(chips);
        targets[i] = map.encode(static_cast<int>(i % chips),
                                static_cast<BlockId>(per_chip / ppb),
                                static_cast<int>(per_chip % ppb));
    }

    auto t0 = Clock::now();
    for (std::size_t i = 0; i < updates; ++i)
        map.update(keys[i], targets[i]);
    const double update_s = secondsSince(t0);

    const std::size_t lookups = std::size_t{1} << 21;
    Ppn sink = 0;
    std::size_t k = 0;
    t0 = Clock::now();
    for (std::size_t i = 0; i < lookups; ++i) {
        sink += map.lookup(keys[k]);
        if (++k == keys.size())
            k = 0;
    }
    const double lookup_s = secondsSince(t0);
    layers["mapping.update_ns"] =
        updates == 0 ? 0.0 : update_s * 1e9 / static_cast<double>(updates);
    layers["mapping.lookup_ns"] =
        lookup_s * 1e9 / static_cast<double>(lookups);
    // Printed so the lookups cannot be optimised away.
    layers["mapping.probe_checksum"] = static_cast<std::uint64_t>(sink);
}

/** Hold model: every timer that fires schedules one more, until `left`
 *  runs out, so the pending set keeps its initial size. */
struct HoldModel
{
    EventQueue *eq = nullptr;
    Rng rng{7};
    std::uint64_t left = 0;

    static void
    fire(void *ctx)
    {
        auto *h = static_cast<HoldModel *>(ctx);
        if (h->left == 0)
            return;
        --h->left;
        h->eq->scheduleTimerAt(h->eq->now() + 1 + h->rng.below(10000),
                               &HoldModel::fire, h);
    }
};

/** Timer dispatch cost at the replay's mean pending-set size. */
void
probeDispatch(double mean_pending, Json &layers)
{
    const auto pending = static_cast<std::uint64_t>(
        std::max(1.0, mean_pending + 0.5));
    EventQueue q;
    HoldModel hold;
    hold.eq = &q;
    hold.left = std::uint64_t{1} << 21;
    for (std::uint64_t i = 0; i < pending; ++i)
        q.scheduleTimerAt(1 + hold.rng.below(10000), &HoldModel::fire,
                          &hold);
    const auto t0 = Clock::now();
    q.run();
    const double secs = secondsSince(t0);
    layers["sim.probe_pending"] = pending;
    layers["sim.dispatch_ns_per_event"] =
        secs * 1e9 / static_cast<double>(q.processed());
}

/** eraseNow with the workload's scheme at its PEC. */
void
probeErase(const SsdConfig &cfg, Json &layers)
{
    const auto params = ChipParams::forType(cfg.chipType);
    const ChipGeometry geom{1, 64, cfg.geometry.pagesPerBlock};
    NandChip chip(params, geom, cfg.seed, 1.0);
    for (int b = 0; b < chip.numBlocks(); ++b)
        chip.ageBaseline(static_cast<BlockId>(b),
                         static_cast<int>(cfg.initialPec));
    SchemeOptions opts = cfg.schemeOptions;
    opts.seed = cfg.seed;
    auto scheme = makeEraseScheme(cfg.scheme, chip, opts);
    const int erases = 2000;
    const auto t0 = Clock::now();
    for (int i = 0; i < erases; ++i)
        eraseNow(*scheme, static_cast<BlockId>(i % chip.numBlocks()));
    layers["erase.ns_per_erase"] = secondsSince(t0) * 1e9 / erases;
}

/** PercentileTracker cost on the replay's own read latencies. */
void
probeStats(const std::vector<std::uint64_t> &samples, Json &layers)
{
    PercentileTracker t;
    auto t0 = Clock::now();
    for (const std::uint64_t v : samples)
        t.add(v);
    const double add_s = secondsSince(t0);
    const auto n = static_cast<double>(std::max<std::size_t>(
        1, samples.size()));
    layers["stats.add_ns"] = add_s * 1e9 / n;
    layers["stats.bytes_per_sample"] =
        static_cast<double>(t.values().capacity() *
                            sizeof(std::uint64_t)) / n;
    t0 = Clock::now();
    t.percentile(0.9999);
    layers["stats.percentile_ms"] = secondsSince(t0) * 1e3;
}

/** generateTrace cost for the first tenant's preset. */
void
probeGenerate(const Options &o, const SsdConfig &cfg, Json &layers)
{
    SyntheticConfig sc = baseSynthetic(cfg);
    const TenantSource &src = o.tenants.front();
    sc.spec = workloadByName(src.preset);
    sc.numRequests = std::min<std::uint64_t>(src.requests, 200000);
    sc.seed = src.seed;
    sc.intensityScale = src.intensity;
    const auto t0 = Clock::now();
    const Trace trace = generateTrace(sc);
    const double secs = secondsSince(t0);
    layers["workload.gen_ns_per_req"] =
        secs * 1e9 / static_cast<double>(std::max<std::size_t>(
                         1, trace.size()));
}

/** Traced run: layer spans around the replay, then the layer probes. */
void
runTraced(const Options &o)
{
    const SsdConfig cfg = makeConfig(o);
    const std::unique_ptr<TenantMix> mix = openMix(o, cfg);
    Json layers = Json::object();

    EventQueue eq;
    auto t0 = Clock::now();
    auto ftl = std::make_unique<Ftl>(cfg, eq);
    layers["ssd.ftl_ctor_s"] = secondsSince(t0);
    double prefill_s = 0.0, warmup_s = 0.0;
    if (cfg.prefillFraction > 0.0) {
        // Exactly the Ssd constructor's conditioning steps.
        t0 = Clock::now();
        ftl->prefill();
        prefill_s = secondsSince(t0);
        const auto overwrites = static_cast<std::uint64_t>(
            static_cast<double>(cfg.logicalPages()) *
            cfg.warmupOverwriteFraction);
        t0 = Clock::now();
        ftl->warmup(overwrites);
        warmup_s = secondsSince(t0);
    }
    layers["ssd.prefill_s"] = prefill_s;
    layers["ssd.warmup_s"] = warmup_s;
    layers["ssd.warmup_erases"] = ftl->warmupErases();
    ftl->metrics().enableTenantTracking(o.tenants.size());

    CountingStream stream(*mix);
    EmptyStream no_more;
    TimedPump pump;
    pump.ftl = ftl.get();
    pump.eq = &eq;
    pump.stream = &stream;
    // Mirrors Ssd::run, whose TracePump owns the token buckets.
    TracePump gate{};
    if (sloPolicyThrottles(cfg.sloPolicy) && !cfg.slo.empty()) {
        gate.ftl = ftl.get();
        gate.eq = &eq;
        gate.stream = &no_more;
        gate.configureThrottle(cfg.slo, cfg.pageSizeKB, ftl->metrics());
        pump.gate = &gate;
    }
    pump.base = eq.now();
    t0 = Clock::now();
    if (pump.pull(t0)) {
        eq.scheduleTimerAt(pump.base + pump.pending.arrival,
                           &TimedPump::fireThunk, &pump);
        eq.run();
    }
    const double replay_s = secondsSince(t0);
    const bool drained = ftl->drained() && !gate.throttledPending();
    ftl->metrics().simulatedTime = eq.now();

    // Copy before replayResult() sorts the tracker in place.
    const std::vector<std::uint64_t> read_samples =
        ftl->metrics().readLatency.values();
    Json out = replayResult(ftl->metrics(), eq, stream.count);
    out["drained"] = drained;
    ftl.reset();

    layers["ssd.submit_s"] = pump.submitS;
    layers["workload.next_s"] = pump.nextS;
    layers["sim.rest_s"] = replay_s - pump.submitS - pump.nextS;
    const double mean_pending =
        pump.fires == 0 ? 1.0
                        : pump.pendingSum / static_cast<double>(pump.fires);
    if (!pump.lpns.empty())
        probeMapping(cfg, pump.lpns, layers);
    probeDispatch(mean_pending, layers);
    probeErase(cfg, layers);
    probeStats(read_samples, layers);
    probeGenerate(o, cfg, layers);

    out["mode"] = "traced";
    out["replay_s"] = replay_s;
    out["layers"] = std::move(layers);
    std::printf("%s\n", out.dump().c_str());
}

} // namespace
} // namespace aero

int
main(int argc, char **argv)
{
    const aero::Options o = aero::parseOptions(argc, argv);
    if (o.mode == "plain")
        aero::runPlain(o);
    else
        aero::runTraced(o);
    return 0;
}
