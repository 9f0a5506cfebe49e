/**
 * @file
 * Checkpoint/resume for sweeps, built on the generic campaign journal
 * (exp/campaign.hh): one flushed record per completed SimResult, keyed
 * by the point's axis values, so the paper's hours-long system grids
 * (Figs. 13-16, Tables 3-4 scale) survive crashes and restarts instead
 * of re-running from zero.
 *
 * SweepCheckpoint is a grid-indexed view over a CampaignJournal. It can
 * *own* its journal directory (the `run_sweep --checkpoint` path: one
 * journal, one sweep, campaign name "sweep") or *borrow* a bench-level
 * journal shared with other campaign stages (fig16's lifetime tasks and
 * two tail-latency sweeps all live in one journal, told apart by key
 * prefixes). Either way, records are keyed by *axis values*, not
 * position, so a journal written under any thread count resumes
 * correctly under any other, and the resumed artifacts are
 * byte-identical to an uninterrupted run (SimResult round-trips
 * bit-exactly through the JSON serializer).
 */

#ifndef AERO_EXP_CHECKPOINT_HH
#define AERO_EXP_CHECKPOINT_HH

#include <memory>
#include <string>
#include <vector>

#include "exp/campaign.hh"
#include "exp/sweep.hh"

namespace aero
{

class SweepCheckpoint
{
  public:
    /**
     * Open (or create) the journal directory at @p path, owned by this
     * checkpoint, under @p campaignName (default "sweep") with
     * configOf(@p spec) as the fingerprinted configuration. A journal
     * written for a different spec — or under a different campaign
     * name — is fatal with a message naming the mismatch. Drivers that
     * publish their journal as an artifact (run_sweep) pass their
     * bench-style name so the journal self-identifies like a
     * BENCH_*.json does. @p options picks this process's worker file
     * and arms file-locked task claims for forked workers (see
     * exp/campaign.hh for the full contract).
     */
    SweepCheckpoint(std::string path, const SweepSpec &spec,
                    std::string campaignName = "sweep",
                    JournalOptions options = {});

    /**
     * Attach to @p journal, already opened by the bench (which must
     * have included this spec in the journal's fingerprinted config).
     * @p keyPrefix namespaces this sweep's records so several stages —
     * including several sweeps — can share one journal; give each
     * sweep a distinct prefix.
     */
    SweepCheckpoint(CampaignJournal &journal, const SweepSpec &spec,
                    Json keyPrefix = Json::object());

    SweepCheckpoint(const SweepCheckpoint &) = delete;
    SweepCheckpoint &operator=(const SweepCheckpoint &) = delete;

    const std::string &path() const { return journal->path(); }

    /** Number of grid points already journaled. */
    std::size_t cachedCount() const { return loadedCount; }

    /** Was the point at expand() index @p index already journaled? */
    bool has(std::size_t index) const;

    /** The journaled result for @p index (check has() first). */
    const SimResult &cached(std::size_t index) const;

    /** Does the underlying journal arbitrate tasks through claims? */
    bool claimsEnabled() const { return journal->claimsEnabled(); }

    /**
     * Claim @p pt for this worker (always true when claims are off).
     * False means a live sibling worker owns the point — skip it; its
     * result arrives on the next merge. See CampaignJournal::tryClaim.
     */
    bool tryClaim(const SimPoint &pt);

    /**
     * Append one completed point and flush it to disk. Thread-safe: the
     * sweep worker pool journals points in completion order, and the
     * axis-keyed loader puts them back in spec order on resume.
     */
    void record(const SimResult &result);

    /**
     * Canonical journal config of a spec: its report JSON (axes,
     * requests, capacity) plus the base drive's configuration summary,
     * so resuming onto a reconfigured drive cannot silently splice
     * stale rows.
     */
    static Json configOf(const SweepSpec &spec);

  private:
    void load();
    Json keyOf(const SimPoint &pt) const;

    std::unique_ptr<CampaignJournal> owned;  //!< null in borrowed mode
    CampaignJournal *journal;
    Json prefix;
    SweepSpec spec;                  //!< owning grid (axis-value -> index)
    std::vector<SimResult> results;  //!< dense, expand()-indexed
    std::vector<char> present;       //!< results[i] is journaled
    std::size_t loadedCount = 0;
};

} // namespace aero

#endif // AERO_EXP_CHECKPOINT_HH
