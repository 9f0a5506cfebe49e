/**
 * @file
 * Simulation-kernel performance trajectory. Unlike the figure benches,
 * this binary measures the *simulator itself*: raw event dispatch through
 * the tagged kernel (and through the compat std::function lane) across a
 * sweep of pending-set sizes, full-system replay throughput, and the
 * erase-path step rate. The pre-tagged kernel (bench/legacy_event_queue)
 * runs alongside as the reference, so the headline speedup is recomputed
 * on every machine the bench runs on instead of being a stale constant.
 * The sim-realistic pending regime is small — one in-flight operation
 * per chip plus the trace pump — which is why the sweep leads with small
 * sets and the headline row is pending=64.
 *
 * Emits an `aero-kernel-bench/1` JSON artifact (BENCH_kernel.json in CI).
 * The perf gate (tests/perf/run_perf_gate.cmake) diffs it against the
 * checked-in baseline: deterministic counts compare exactly, machine-
 * normalized speedups at a generous tolerance, and machine-absolute
 * rates are ignored.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "core/aero_scheme.hh"
#include "legacy_event_queue.hh"
#include "ssd/ssd.hh"
#include "workload/synthetic.hh"

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

struct BenchScale
{
    int trials = 5;
    std::uint64_t dispatchEvents = 2048 * 1024;  //!< per trial, per batch
    std::uint64_t replayRequests = 20000;
    int eraseOps = 2000;    //!< erase operations per scheme
};

/** Pending-set sizes for the dispatch sweep (64 is the headline). */
constexpr int kPendingSweep[] = {16, 64, 256, 1024};

struct DispatchResult
{
    double meventsPerSec = 0.0;     //!< best trial
    std::uint64_t eventsTotal = 0;  //!< per trial (deterministic)

    void
    addTrial(double mevents_per_sec, std::uint64_t events)
    {
        meventsPerSec = std::max(meventsPerSec, mevents_per_sec);
        eventsTotal = events;
    }
};

void
bumpCounter(void *ctx)
{
    *static_cast<std::uint64_t *>(ctx) += 1;
}

/**
 * One trial of one queue flavour through the shared workload shape: fill
 * the pending set with scattered ticks, drain, repeat. `schedule(eq,
 * when, fired)` hides which lane/kernel is being measured.
 * @return Mevents/s; `events` receives the events fired.
 */
template <typename Queue, typename ScheduleFn>
double
dispatchTrial(const BenchScale &s, int batch, std::uint64_t &events,
              ScheduleFn schedule)
{
    const auto reps =
        static_cast<int>(s.dispatchEvents / static_cast<unsigned>(batch));
    Queue eq;
    std::uint64_t fired = 0;
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
        const Tick base = eq.now();
        for (int i = 0; i < batch; ++i)
            schedule(eq, base + (i * 7919) % batch + 1, fired);
        eq.run();
    }
    const double secs = secondsSince(t0);
    AERO_CHECK(fired == static_cast<std::uint64_t>(reps) * batch,
               "dispatch bench lost events");
    events = fired;
    return static_cast<double>(fired) / secs / 1e6;
}

struct DispatchSweepPoint
{
    DispatchResult tagged, compat, legacy;
    double speedup = 0.0;  //!< median tagged/legacy ratio over pairs
};

/**
 * Tagged and legacy trials interleave as ABAB pairs, and the speedup is
 * the median of the per-pair ratios: load that slows a stretch of the
 * run hits both halves of a pair, where a best-of-N per kernel lets one
 * kernel's lucky trial and the other's unlucky one set the ratio.
 */
DispatchSweepPoint
benchDispatch(const BenchScale &s, int batch)
{
    DispatchSweepPoint out;
    std::vector<double> ratios;
    for (int t = 0; t < s.trials; ++t) {
        std::uint64_t events = 0;
        const double tagged = dispatchTrial<EventQueue>(
            s, batch, events,
            [](EventQueue &eq, Tick when, std::uint64_t &fired) {
                eq.scheduleTimerAt(when, &bumpCounter, &fired);
            });
        out.tagged.addTrial(tagged, events);
        const double legacy = dispatchTrial<legacy::EventQueue>(
            s, batch, events,
            [](legacy::EventQueue &eq, Tick when, std::uint64_t &fired) {
                eq.scheduleAt(when, [&fired] { ++fired; });
            });
        out.legacy.addTrial(legacy, events);
        ratios.push_back(tagged / legacy);
        const double compat = dispatchTrial<EventQueue>(
            s, batch, events,
            [](EventQueue &eq, Tick when, std::uint64_t &fired) {
                eq.scheduleAt(when, [&fired] { ++fired; });
            });
        out.compat.addTrial(compat, events);
    }
    const auto mid = ratios.begin() + static_cast<std::ptrdiff_t>(
                                          ratios.size() / 2);
    std::nth_element(ratios.begin(), mid, ratios.end());
    out.speedup = *mid;
    return out;
}

struct ReplayResult
{
    double requestsPerSec = 0.0;       //!< best trial
    std::uint64_t requestsTotal = 0;
    std::uint64_t eventsTotal = 0;     //!< eq.processed() (deterministic)
    std::uint64_t finalTick = 0;       //!< eq.now() (deterministic)
};

/** Full-system replay: trace admission through chip-op completions. */
ReplayResult
benchReplay(const BenchScale &s)
{
    SsdConfig cfg = SsdConfig::tiny();
    cfg.seed = 99;

    SyntheticConfig wc;
    wc.spec = workloadByName("prxy");
    wc.footprintPages = cfg.logicalPages();
    wc.numRequests = s.replayRequests;
    wc.seed = 31;
    const Trace trace = generateTrace(wc);

    ReplayResult out;
    out.requestsTotal = trace.size();
    const int replay_trials = std::max(2, s.trials / 2);
    for (int t = 0; t < replay_trials; ++t) {
        Ssd ssd(cfg);
        const auto t0 = Clock::now();
        ssd.run(trace);
        const double secs = secondsSince(t0);
        out.requestsPerSec =
            std::max(out.requestsPerSec,
                     static_cast<double>(trace.size()) / secs);
        out.eventsTotal = ssd.eventQueue().processed();
        out.finalTick = ssd.eventQueue().now();
    }
    return out;
}

struct EraseResult
{
    double nsPerStep = 0.0;          //!< elapsed / loops, best trial
    std::uint64_t erasesTotal = 0;   //!< per trial (deterministic)
    std::uint64_t loopsTotal = 0;    //!< per trial (deterministic)
};

/** Erase-path step rate: session begin / nextSegment / outcome. */
EraseResult
benchEraseSteps(SchemeKind kind, const BenchScale &s)
{
    const auto params = ChipParams::forType(ChipType::Tlc3d48L);
    const ChipGeometry geom{1, 64, 8};
    EraseResult out;
    double best_secs = 0.0;
    for (int t = 0; t < s.trials; ++t) {
        NandChip chip(params, geom, 2024, 1.0);
        for (int b = 0; b < chip.numBlocks(); ++b)
            chip.ageBaseline(static_cast<BlockId>(b), 2000);
        SchemeOptions opts;
        opts.seed = 7;
        auto scheme = makeEraseScheme(kind, chip, opts);
        std::uint64_t loops = 0;
        const auto t0 = Clock::now();
        for (int i = 0; i < s.eraseOps; ++i) {
            const auto blk =
                static_cast<BlockId>(i % chip.numBlocks());
            loops += eraseNow(*scheme, blk).loops;
        }
        const double secs = secondsSince(t0);
        out.erasesTotal = static_cast<std::uint64_t>(s.eraseOps);
        out.loopsTotal = loops;
        if (best_secs == 0.0 || secs < best_secs)
            best_secs = secs;
    }
    out.nsPerStep =
        best_secs * 1e9 / static_cast<double>(out.loopsTotal);
    return out;
}

Json
dispatchRow(const char *kernel, int pending, const DispatchResult &r)
{
    Json row = Json::object();
    row["metric"] = "dispatch";
    row["kernel"] = kernel;
    row["pending"] = pending;
    row["mevents_per_sec"] = r.meventsPerSec;
    row["events_total"] = r.eventsTotal;
    return row;
}

int
benchMain(int argc, char **argv)
{
    const auto artifacts =
        bench::parseArtifactArgs(argc, argv, /*allow_small=*/true);

    BenchScale s;
    if (artifacts.small) {
        s.trials = 3;
        s.dispatchEvents = 512 * 1024;
        s.replayRequests = 6000;
        s.eraseOps = 500;
    }

    bench::header("Simulation-kernel performance (tagged-event kernel)");

    Json results = Json::array();
    Json summary = Json::object();
    double headline = 0.0;
    double minSpeedup = 0.0;
    std::printf("  raw dispatch (Mevents/s, best of %d trials; speedup "
                "is the median tagged/legacy ratio of %d ABAB pairs)\n",
                s.trials, s.trials);
    std::printf("  %8s %10s %10s %10s %10s\n", "pending", "tagged",
                "compat", "legacy", "speedup");
    for (const int pending : kPendingSweep) {
        const DispatchSweepPoint point = benchDispatch(s, pending);
        const double speedup = point.speedup;
        std::printf("  %8d %10.2f %10.2f %10.2f %9.2fx\n", pending,
                    point.tagged.meventsPerSec, point.compat.meventsPerSec,
                    point.legacy.meventsPerSec, speedup);
        results.push(dispatchRow("tagged", pending, point.tagged));
        results.push(dispatchRow("compat", pending, point.compat));
        results.push(dispatchRow("legacy", pending, point.legacy));
        summary["dispatch_speedup_p" + std::to_string(pending)] = speedup;
        if (pending == 64)
            headline = speedup;
        if (minSpeedup == 0.0 || speedup < minSpeedup)
            minSpeedup = speedup;
    }
    // The gated form of the speedups: threshold booleans compare exactly
    // and are machine-portable, where the raw ratios (recorded above,
    // ignored by the gate) swing with cache sizes and CPU contention. A
    // kernel change that costs >30% of the ~2x headline trips the first;
    // one that loses the advantage outright trips the second.
    summary["speedup_headline_ge_1_5"] =
        static_cast<std::uint64_t>(headline >= 1.5 ? 1 : 0);
    summary["speedup_all_ge_1_2"] =
        static_cast<std::uint64_t>(minSpeedup >= 1.2 ? 1 : 0);

    const ReplayResult replay = benchReplay(s);
    const EraseResult eraseBase = benchEraseSteps(SchemeKind::Baseline, s);
    const EraseResult eraseAero = benchEraseSteps(SchemeKind::Aero, s);

    std::printf("  full replay   %10.0f requests/s  (%llu events, "
                "%.1f events/request)\n",
                replay.requestsPerSec,
                static_cast<unsigned long long>(replay.eventsTotal),
                static_cast<double>(replay.eventsTotal) /
                    static_cast<double>(replay.requestsTotal));
    std::printf("  erase steps   baseline %7.1f ns/step   aero %7.1f "
                "ns/step\n",
                eraseBase.nsPerStep, eraseAero.nsPerStep);
    std::printf("  headline (pending=64): %.2fx vs pre-tagged kernel\n",
                headline);
    bench::note("speedups are machine-normalized (legacy reference "
                "re-measured per run); raw rates are not gated");

    Json doc = Json::object();
    doc["schema"] = "aero-kernel-bench/1";
    doc["bench"] = "bench_kernel";
    Json axes = Json::array();
    axes.push("metric");
    axes.push("kernel");
    axes.push("pending");
    doc["axes"] = std::move(axes);

    Json spec = Json::object();
    spec["small"] = artifacts.small;
    spec["trials"] = s.trials;
    spec["dispatch_events"] = s.dispatchEvents;
    spec["replay_requests"] = s.replayRequests;
    spec["erase_ops"] = s.eraseOps;
    doc["spec"] = std::move(spec);

    {
        Json row = Json::object();
        row["metric"] = "replay";
        row["requests_per_sec"] = replay.requestsPerSec;
        row["requests_total"] = replay.requestsTotal;
        row["events_total"] = replay.eventsTotal;
        row["final_tick"] = replay.finalTick;
        row["events_per_request"] =
            static_cast<double>(replay.eventsTotal) /
            static_cast<double>(replay.requestsTotal);
        results.push(std::move(row));
    }
    const std::pair<const char *, const EraseResult *> erows[] = {
        {"erase_baseline", &eraseBase},
        {"erase_aero", &eraseAero},
    };
    for (const auto &[name, r] : erows) {
        Json row = Json::object();
        row["metric"] = name;
        row["ns_per_erase_step"] = r->nsPerStep;
        row["erases_total"] = r->erasesTotal;
        row["loops_total"] = r->loopsTotal;
        results.push(std::move(row));
    }
    doc["results"] = std::move(results);
    doc["summary"] = std::move(summary);

    artifacts.writeJson(doc);
    if (artifacts.wantCsv())
        writeTextFile(artifacts.csvPath,
                      bench::devcharCsv(doc["results"]));
    return 0;
}

} // namespace
} // namespace aero

int
main(int argc, char **argv)
{
    return aero::benchMain(argc, argv);
}
