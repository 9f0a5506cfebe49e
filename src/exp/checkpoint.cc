#include "exp/checkpoint.hh"

#include <algorithm>

#include "common/logging.hh"
#include "erase/scheme_registry.hh"
#include "exp/report.hh"

namespace aero
{

namespace
{

/**
 * Flat expand() index of @p pt on @p spec's grid; fatal when the point
 * does not lie on the grid (cannot happen for a fingerprint-matched
 * journal short of file corruption). Axis doubles compare exactly: the
 * journal round-trips them through the shortest-round-trip serializer.
 */
std::size_t
pointIndex(const SweepSpec &spec, const SimPoint &pt)
{
    const auto axis = [&](const auto &values, const auto &value,
                          const char *name) {
        const auto it =
            std::find(values.begin(), values.end(), value);
        if (it == values.end()) {
            AERO_FATAL("checkpoint record does not lie on the sweep "
                       "grid: no ", name, " axis value matches the "
                       "record (journal corrupt?)");
        }
        return static_cast<std::size_t>(it - values.begin());
    };
    return spec.index(axis(spec.pecs, pt.pec, "pec"),
                      axis(spec.suspensions, pt.suspension, "suspension"),
                      axis(spec.workloads, pt.workload, "workload"),
                      axis(spec.schemes, pt.scheme, "scheme"),
                      axis(spec.mispredictionRates, pt.mispredictionRate,
                           "misprediction-rate"),
                      axis(spec.rberRequirements, pt.rberRequirement,
                           "rber-requirement"),
                      axis(spec.seeds, pt.seed, "seed"),
                      axis(spec.gcPolicies, pt.gcPolicy, "gc-policy"),
                      axis(spec.wearLevels, pt.wearLevel, "wear-level"));
}

} // namespace

Json
SweepCheckpoint::configOf(const SweepSpec &spec)
{
    Json config = toJson(spec);
    config["drive"] = spec.base.summary();
    return config;
}

SweepCheckpoint::SweepCheckpoint(std::string path, const SweepSpec &owner,
                                 std::string campaignName,
                                 JournalOptions options)
    : owned(std::make_unique<CampaignJournal>(std::move(path),
                                              std::move(campaignName),
                                              configOf(owner),
                                              std::move(options))),
      journal(owned.get()), prefix(Json::object()), spec(owner)
{
    load();
}

SweepCheckpoint::SweepCheckpoint(CampaignJournal &shared,
                                 const SweepSpec &owner, Json keyPrefix)
    : journal(&shared), prefix(std::move(keyPrefix)), spec(owner)
{
    load();
}

bool
SweepCheckpoint::has(std::size_t index) const
{
    return index < present.size() && present[index];
}

const SimResult &
SweepCheckpoint::cached(std::size_t index) const
{
    AERO_CHECK(has(index), "no journaled result at index ", index);
    return results[index];
}

bool
SweepCheckpoint::tryClaim(const SimPoint &pt)
{
    return journal->tryClaim(keyOf(pt));
}

Json
SweepCheckpoint::keyOf(const SimPoint &pt) const
{
    Json key = prefix;
    Json point = Json::object();
    point["workload"] = pt.workload;
    point["scheme"] = schemeKindName(pt.scheme);
    point["pec"] = pt.pec;
    point["suspension"] = suspensionModeName(pt.suspension);
    point["misprediction_rate"] = pt.mispredictionRate;
    point["rber_requirement"] = pt.rberRequirement;
    // Off-default only, so pre-PR-8 journals replay against their
    // original keys (see toJson(SimResult) in report.cc).
    if (pt.gcPolicy != "greedy")
        point["gc_policy"] = pt.gcPolicy;
    if (pt.wearLevel != "none")
        point["wear_level"] = pt.wearLevel;
    point["seed"] = pt.seed;
    key["point"] = std::move(point);
    return key;
}

void
SweepCheckpoint::load()
{
    results.resize(spec.size());
    present.assign(spec.size(), 0);
    journal->forEachCached([&](const Json &key, const Json &payload) {
        // Records of other stages sharing this journal carry either a
        // different prefix or extra axes; both fail this filter.
        if (!key.isObject() || key.size() != prefix.size() + 1 ||
            !key.contains("point"))
            return;
        for (std::size_t i = 0; i < prefix.size(); ++i) {
            const auto &[name, value] = prefix.member(i);
            const Json *theirs = key.find(name);
            if (!theirs || *theirs != value)
                return;
        }
        const SimResult r = simResultFromJson(payload);
        if (r.point.requests != spec.requests) {
            AERO_FATAL("checkpoint '", journal->path(),
                       "': journaled point ran ", r.point.requests,
                       " requests, the sweep expects ", spec.requests,
                       " — refusing to splice stale rows");
        }
        const std::size_t idx = pointIndex(spec, r.point);
        if (!present[idx])
            loadedCount += 1;
        present[idx] = 1;
        results[idx] = r;
    });
}

void
SweepCheckpoint::record(const SimResult &result)
{
    const std::size_t idx = pointIndex(spec, result.point);
    journal->record(keyOf(result.point), toJson(result));
    // The journal serializes record(); this counter is only read
    // between runs, and the runner's progress callback (our caller) is
    // already serialized by the progress mutex.
    if (!present[idx])
        loadedCount += 1;
    present[idx] = 1;
    results[idx] = result;
}

} // namespace aero
