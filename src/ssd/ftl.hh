/**
 * @file
 * The flash translation layer: page-level mapping, round-robin write
 * allocation across planes, greedy GC with watermark triggering, stalled
 * write handling, and request-completion accounting. Extends the
 * conventional page-level FTL exactly where the paper's AERO-FTL does: the
 * erase path is delegated to a pluggable EraseScheme per chip.
 */

#ifndef AERO_SSD_FTL_HH
#define AERO_SSD_FTL_HH

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ssd/block_manager.hh"
#include "ssd/chip_agent.hh"
#include "ssd/gc.hh"
#include "ssd/mapping.hh"
#include "ssd/wear_level.hh"
#include "workload/trace.hh"

namespace aero
{

class Ftl : public FtlCallbacks
{
  public:
    Ftl(const SsdConfig &cfg, EventQueue &eq);
    ~Ftl() override;

    /** Age every block to the configured initial PEC (conditioning). */
    void preAge(double pec);

    /** Map and (functionally) program the logical space, without timing. */
    void prefill();

    /**
     * Steady-state preconditioning: `overwrites` random logical pages are
     * rewritten functionally (no timing), with inline functional GC, so
     * the drive starts dirty and at the GC watermark.
     */
    void warmup(std::uint64_t overwrites);

    /**
     * How far ahead warmup() draws its LPN sequence (in overwrites) and
     * its inline GC reads relocation sources (in pages), to prefetch.
     */
    static constexpr std::uint64_t kWarmupLookahead = 32;

    std::uint64_t warmupErases() const { return warmupEraseCount; }

    /** Submit one trace record at the current simulation time. */
    void submit(const TraceRecord &rec);

    /** All submitted requests completed? */
    bool drained() const { return inflight.empty() && !anyGcActive(); }

    SsdMetrics &metrics() { return stats; }
    const SsdConfig &config() const { return cfg; }
    NandChip &chipAt(int i);
    EraseScheme &schemeAt(int i);
    ChipAgent &agentAt(int i);
    const PageMapping &pageMapping() const { return mapping; }
    const BlockManager &blockManager() const { return blocks; }

    /** @name FtlCallbacks */
    /** @{ */
    void onPageOpDone(const PageOp &op) override;
    void onEraseDone(int chip, BlockId block, const EraseOutcome &outcome,
                     GcJob *job) override;
    bool eraseUrgent(int chip, BlockId block) override;
    /** @} */

  private:
    friend class EventQueue;  //!< tagged-event dispatch entry point

    struct InflightRequest
    {
        IoOp op;
        Tick arrival;
        std::uint32_t remaining;
        TenantId tenant;
    };

    struct StalledWrite
    {
        Lpn lpn;
        std::uint64_t requestId;
        TenantId tenant;
    };

    /** Validate the drive geometry before any member sizes off it. */
    static SsdConfig validated(SsdConfig cfg);

    void submitReadPage(Lpn lpn, std::uint64_t request_id, TenantId tenant,
                        bool burst = false);
    /** Dispatch every agent the current read burst touched, in order. */
    void flushReadBurst();
    /** @return false if no plane had space (write stalled). */
    bool submitWritePage(Lpn lpn, std::uint64_t request_id, TenantId tenant);
    void functionalGc(int chip, int plane);
    void issueGcWrite(GcJob *job, Lpn lpn);
    void completeRequestPage(std::uint64_t request_id);
    /** Kernel dispatch target: host-overhead completion fired. */
    void onHostPageDone(std::uint64_t request_id);
    void maybeStartGc(int chip, int plane);
    void maybeStartWearLevel(int chip, int plane);
    void gcStep(GcJob *job);
    void retryStalledWrites();
    bool anyGcActive() const { return activeGcJobs > 0; }
    std::size_t planeKey(int chip, int plane) const;

    SsdConfig cfg;
    EventQueue &eq;
    std::vector<NandChip> chips;
    std::vector<std::unique_ptr<EraseScheme>> schemes;
    std::vector<Channel> channels;
    std::vector<std::unique_ptr<ChipAgent>> agents;
    PageMapping mapping;
    BlockManager blocks;
    SsdMetrics stats;
    std::unique_ptr<GcPolicy> gcPolicy;
    std::unique_ptr<WearLevelPolicy> wlPolicy;

    /** @name Read-burst admission scratch (see flushReadBurst) */
    /** @{ */
    std::vector<int> burstChips;     //!< chips touched, in first-touch order
    std::vector<char> burstTouched;  //!< per-chip membership flag
    /** @} */

    std::unordered_map<std::uint64_t, InflightRequest> inflight;
    std::uint64_t nextRequestId = 1;
    std::deque<StalledWrite> stalledWrites;

    std::vector<std::unique_ptr<GcJob>> gcJobs;   //!< slot per plane
    int activeGcJobs = 0;
    int writePointer = 0;   //!< round-robin (chip, plane) cursor
    std::uint64_t warmupEraseCount = 0;
};

} // namespace aero

#endif // AERO_SSD_FTL_HH
