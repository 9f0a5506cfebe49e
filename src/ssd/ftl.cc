#include "ssd/ftl.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "core/aero_scheme.hh"
#include "ssd/geometry.hh"

namespace aero
{

SsdConfig
Ftl::validated(SsdConfig cfg)
{
    // Runs before the mem-initializer list sizes any member off the
    // geometry, so a misconfigured drive dies with a clear message
    // instead of a huge allocation.
    const DriveGeometry geo = DriveGeometry::of(cfg);
    if (cfg.arbitration == Arbitration::Queued)
        geo.validateQueued();
    else
        geo.validate();
    if (cfg.physicalPages() > kMaxPackedPages)
        AERO_FATAL("geometry: ", cfg.physicalPages(),
                   " physical pages do not fit a 32-bit PPN (at most ",
                   kMaxPackedPages, "); the L2P/P2L tables pack every "
                   "PPN into 32 bits");
    if (sloPolicyWeights(cfg.sloPolicy) &&
        cfg.arbitration != Arbitration::Queued)
        AERO_FATAL("SLO policy '", sloPolicyName(cfg.sloPolicy),
                   "' needs queued channel arbitration: weighted-fair "
                   "sharing arbitrates the per-channel grant queues, "
                   "which the legacy closed-form model does not have");
    return cfg;
}

Ftl::Ftl(const SsdConfig &cfg_, EventQueue &eq_)
    : cfg(validated(cfg_)), eq(eq_),
      mapping(cfg.logicalPages(), cfg.totalChips(),
              cfg.blocksPerChip(), cfg.geometry.pagesPerBlock),
      blocks(cfg)
{
    // Every chip is the same type: one wear model serves them all.
    const auto wear = std::make_shared<const WearModel>(
        ChipParams::forType(cfg.chipType));
    const ChipParams &params = wear->params();
    Rng seeder(cfg.seed);
    chips.reserve(cfg.totalChips());
    for (int i = 0; i < cfg.totalChips(); ++i) {
        chips.emplace_back(wear, cfg.geometry, seeder.next(),
                           seeder.lognormFactor(params.chipPvSigma));
    }
    preAge(cfg.initialPec);
    channels.resize(cfg.channels);
    stats.channelBusyTicks.assign(cfg.channels, 0);
    for (int c = 0; c < cfg.channels; ++c)
        channels[c].init(c, &eq, &stats, cfg.chipsPerChannel);
    if (sloPolicyWeights(cfg.sloPolicy) && !cfg.slo.empty()) {
        std::vector<std::uint32_t> weights(
            static_cast<std::size_t>(cfg.slo.maxTenant()) + 1, 1);
        for (const TenantSlo &t : cfg.slo.tenants)
            weights[t.tenant] = t.weight;
        for (auto &ch : channels)
            ch.enableWfq(weights);
    }
    for (int i = 0; i < cfg.totalChips(); ++i) {
        SchemeOptions opts = cfg.schemeOptions;
        opts.seed = seeder.next();
        schemes.push_back(makeEraseScheme(cfg.scheme, chips[i], opts));
    }
    for (int i = 0; i < cfg.totalChips(); ++i) {
        agents.push_back(std::make_unique<ChipAgent>(
            i, chips[i], *schemes[i], eq, cfg,
            channels[i / cfg.chipsPerChannel], *this, stats));
    }
    gcJobs.resize(static_cast<std::size_t>(cfg.totalChips()) *
                  cfg.geometry.planes);
    gcPolicy = makeGcPolicy(cfg.gcPolicy);
    wlPolicy = makeWearLevelPolicy(cfg.wearLevel);
    blocks.setWearPolicy(wlPolicy.get());
    burstTouched.assign(cfg.totalChips(), 0);
    burstChips.reserve(cfg.totalChips());
}

Ftl::~Ftl() = default;

NandChip &
Ftl::chipAt(int i)
{
    AERO_CHECK(i >= 0 && i < static_cast<int>(chips.size()),
               "chip index out of range");
    return chips[i];
}

EraseScheme &
Ftl::schemeAt(int i)
{
    return *schemes.at(i);
}

ChipAgent &
Ftl::agentAt(int i)
{
    return *agents.at(i);
}

Channel &
Ftl::channelAt(int c)
{
    return channels.at(c);
}

void
Ftl::preAge(double pec)
{
    if (pec <= 0.0)
        return;
    for (auto &chip : chips) {
        for (int b = 0; b < chip.numBlocks(); ++b)
            chip.ageBaseline(static_cast<BlockId>(b),
                             static_cast<int>(pec));
    }
}

void
Ftl::prefill()
{
    AERO_CHECK(mapping.mappedCount() == 0 && writePointer == 0,
               "prefill needs a fresh drive: nothing mapped and the "
               "write pointer at plane 0");
    const auto total = static_cast<Lpn>(
        static_cast<double>(cfg.logicalPages()) * cfg.prefillFraction);
    const int planes = cfg.geometry.planes;
    const int keys = cfg.totalChips() * planes;
    // Round-robin placement fills a fresh drive's planes in lockstep:
    // LPN i lands on plane key i % keys, so each round opens one block
    // per plane, in key order, and plane key k takes LPNs base + k,
    // base + k + keys, ... Every plane holds as many free blocks as the
    // others, so the GC headroom (never prefill a plane at or below the
    // high watermark) stops them all in the same round. A round whose
    // block opening leaves the planes at the mark places one page each.
    std::vector<Ppn> starts;
    starts.reserve(static_cast<std::size_t>(keys));
    Lpn next = 0;
    while (next < total) {
        const int free_blocks = blocks.freeBlocks(0, 0);
        if (free_blocks <= cfg.gcHighWatermark ||
            free_blocks <= BlockManager::kGcReservedBlocks)
            break;
        const bool last = free_blocks - 1 <= cfg.gcHighWatermark;
        const Lpn per_plane = last ? 1 : cfg.geometry.pagesPerBlock;
        const Lpn round = std::min(total - next, per_plane * keys);
        starts.clear();
        for (int key = 0; key < keys && static_cast<Lpn>(key) < round;
             ++key) {
            const int chip = key / planes;
            const int plane = key % planes;
            AERO_CHECK(blocks.freeBlocks(chip, plane) == free_blocks,
                       "prefill planes out of lockstep");
            const auto pages =
                static_cast<int>((round - key + keys - 1) / keys);
            const BlockId blk = blocks.allocateRun(chip, plane, pages);
            chips[chip].programPages(blk, pages);
            starts.push_back(mapping.encode(chip, blk, 0));
        }
        mapping.mapStripe(next, round, starts);
        next += round;
        if (last)
            break;
    }
    writePointer = static_cast<int>(next % keys);
    if (next < total)
        AERO_WARN("prefill stopped early at LPN ", next, " of ", total);
}

void
Ftl::warmup(std::uint64_t overwrites)
{
    Rng rng(cfg.seed ^ 0x3a3aULL);
    const auto span = static_cast<Lpn>(
        static_cast<double>(cfg.logicalPages()) * cfg.prefillFraction);
    if (span == 0)
        return;
    const int tries = cfg.totalChips() * cfg.geometry.planes;
    // Each overwrite is a chain of dependent misses (L2P entry, then the
    // old page's P2L entry) on tables far larger than the caches. So the
    // LPN sequence is drawn kWarmupLookahead overwrites ahead of use, in
    // the same order from the same private RNG; each LPN's L2P entry is
    // prefetched when drawn and its current P2L entry halfway to use.
    constexpr std::uint64_t window = kWarmupLookahead;
    std::array<Lpn, window> ahead;
    for (std::uint64_t i = 0; i < std::min(window, overwrites); ++i) {
        ahead[i] = rng.below(span);
        mapping.prefetch(ahead[i]);
    }
    for (std::uint64_t i = 0; i < overwrites; ++i) {
        Lpn &slot = ahead[i % window];
        const Lpn lpn = slot;
        if (i + window < overwrites) {
            slot = rng.below(span);
            mapping.prefetch(slot);
        }
        if (i + window / 2 < overwrites)
            mapping.prefetchReverse(ahead[(i + window / 2) % window]);
        bool placed = false;
        for (int t = 0; t < tries && !placed; ++t) {
            const int key = (writePointer + t) % tries;
            const int chip = key / cfg.geometry.planes;
            const int plane = key % cfg.geometry.planes;
            BlockId blk;
            int page;
            if (!blocks.allocate(chip, plane, blk, page))
                continue;
            writePointer = (key + 1) % tries;
            mapping.update(lpn, mapping.encode(chip, blk, page));
            chips[chip].programPage(blk);
            placed = true;
            if (blocks.freeBlocks(chip, plane) <= cfg.gcLowWatermark)
                functionalGc(chip, plane);
        }
        AERO_CHECK(placed, "warmup could not place a write");
    }
}

void
Ftl::functionalGc(int chip, int plane)
{
    // Inline, timing-free GC used only during warmup.
    while (blocks.freeBlocks(chip, plane) <= cfg.gcLowWatermark) {
        const BlockId victim =
            gcPolicy->pickVictim(chip, plane, blocks, mapping);
        if (victim == kInvalidBlock)
            return;
        if (mapping.validPages(chip, victim) >=
            cfg.geometry.pagesPerBlock) {
            return;  // nothing reclaimable yet: all pages still live
        }
        const int pages = cfg.geometry.pagesPerBlock;
        const Ppn first = mapping.encode(chip, victim, 0);
        for (int p = 0; p < pages; ++p) {
            // Each relocation updates a random L2P entry: fetch the one
            // kWarmupLookahead pages on while this one is relocated.
            if (p + static_cast<int>(kWarmupLookahead) < pages) {
                const Lpn next = mapping.reverseLookup(
                    first + p + static_cast<int>(kWarmupLookahead));
                if (next != kInvalidLpn)
                    mapping.prefetch(next);
            }
            const Lpn lpn = mapping.reverseLookup(first + p);
            if (lpn == kInvalidLpn)
                continue;
            // Relocate within the plane (other blocks have room: the
            // victim frees at least as many pages as it consumes).
            BlockId dst;
            int dpage;
            bool ok = blocks.allocate(chip, plane, dst, dpage, true);
            AERO_CHECK(ok && dst != victim,
                       "warmup GC ran out of destination space");
            mapping.update(lpn, mapping.encode(chip, dst, dpage));
            chips[chip].programPage(dst);
        }
        eraseNow(*schemes[chip], victim);
        mapping.onBlockErased(chip, victim);
        blocks.onBlockErased(chip, victim);
        warmupEraseCount += 1;
    }
}

void
Ftl::submit(const TraceRecord &rec)
{
    std::uint32_t slot;
    if (freeSlots.empty()) {
        slot = static_cast<std::uint32_t>(inflight.size());
        inflight.emplace_back();
    } else {
        slot = freeSlots.back();
        freeSlots.pop_back();
    }
    InflightRequest &req = inflight[slot];
    req.arrival = eq.now();
    req.remaining = rec.pages;
    req.tenant = rec.tenant;
    req.op = rec.op;
    req.live = true;
    liveRequests += 1;
    const std::uint64_t id =
        (static_cast<std::uint64_t>(req.generation) << 32) | (slot + 1ULL);
    if (rec.op == IoOp::Read) {
        // Reads are side-effect free at admission, so a multi-page
        // request queues as a burst: one dispatch pass per touched chip
        // instead of one per page. Writes keep per-page dispatch — a
        // write can trip the GC watermark and enqueue an urgent erase,
        // which must see the queues exactly as sequential admission
        // would leave them.
        for (std::uint32_t i = 0; i < rec.pages; ++i) {
            submitReadPage(mapping.wrap(rec.startPage + i), id, rec.tenant,
                           true);
        }
        flushReadBurst();
        return;
    }
    for (std::uint32_t i = 0; i < rec.pages; ++i) {
        const Lpn lpn = mapping.wrap(rec.startPage + i);
        if (!submitWritePage(lpn, id, rec.tenant))
            stalledWrites.push_back(StalledWrite{lpn, id, rec.tenant});
    }
}

void
Ftl::submitReadPage(Lpn lpn, std::uint64_t request_id, TenantId tenant,
                    bool burst)
{
    const Ppn ppn = mapping.lookup(lpn);
    if (ppn == kInvalidPpn) {
        // Never-written page: the controller answers from the mapping
        // table without touching flash.
        stats.unmappedReads += 1;
        eq.scheduleHostPageAt(eq.now() + cfg.hostOverhead, *this,
                              request_id);
        return;
    }
    const auto parts = mapping.decode(ppn);
    PageOp op;
    op.kind = PageOp::Kind::UserRead;
    op.lpn = lpn;
    op.ppn = ppn;
    op.requestId = request_id;
    op.tenant = tenant;
    if (!burst) {
        agents[parts.chip]->enqueue(op);
        return;
    }
    if (!burstTouched[parts.chip]) {
        burstTouched[parts.chip] = 1;
        burstChips.push_back(parts.chip);
    }
    agents[parts.chip]->enqueueDeferred(op);
}

void
Ftl::flushReadBurst()
{
    // First-touch order keeps channel reservations identical to the
    // page-at-a-time admission this replaced.
    for (const int chip : burstChips) {
        burstTouched[chip] = 0;
        agents[chip]->flush();
    }
    burstChips.clear();
}

bool
Ftl::submitWritePage(Lpn lpn, std::uint64_t request_id, TenantId tenant)
{
    const int tries = cfg.totalChips() * cfg.geometry.planes;
    for (int t = 0; t < tries; ++t) {
        const int key = (writePointer + t) % tries;
        const int chip = key / cfg.geometry.planes;
        const int plane = key % cfg.geometry.planes;
        BlockId blk;
        int page;
        if (!blocks.allocate(chip, plane, blk, page))
            continue;
        writePointer = (key + 1) % tries;
        const Ppn ppn = mapping.encode(chip, blk, page);
        mapping.update(lpn, ppn);
        chips[chip].programPage(blk);  // functional effect at issue
        PageOp op;
        op.kind = PageOp::Kind::UserWrite;
        op.lpn = lpn;
        op.ppn = ppn;
        op.requestId = request_id;
        op.tenant = tenant;
        op.tprog = schemes[chip]->programLatency(blk);
        agents[chip]->enqueue(op);
        maybeStartGc(chip, plane);
        return true;
    }
    return false;
}

void
Ftl::completeRequestPage(std::uint64_t request_id)
{
    // Id 0 has no slot: its low word wraps to a slot past any slab.
    const std::uint64_t slot = (request_id & 0xFFFFFFFFULL) - 1;
    const auto generation = static_cast<std::uint32_t>(request_id >> 32);
    AERO_CHECK(slot < inflight.size() && inflight[slot].live &&
                   inflight[slot].generation == generation,
               "completion for unknown request");
    InflightRequest &req = inflight[slot];
    AERO_CHECK(req.remaining > 0, "request page over-completion");
    if (--req.remaining == 0) {
        const Tick latency = eq.now() - req.arrival + cfg.hostOverhead;
        TenantLatency *tenant = nullptr;
        if (stats.tenantTrackingEnabled()) {
            AERO_CHECK(req.tenant < stats.tenants.size(),
                       "request tenant ", req.tenant,
                       " outside the tracked range");
            tenant = &stats.tenants[req.tenant];
        }
        if (req.op == IoOp::Read) {
            stats.reads += 1;
            stats.readLatency.add(latency);
            if (tenant) {
                tenant->reads += 1;
                tenant->readLatency.add(latency);
            }
        } else {
            stats.writes += 1;
            stats.writeLatency.add(latency);
            if (tenant) {
                tenant->writes += 1;
                tenant->writeLatency.add(latency);
            }
        }
        req.live = false;
        req.generation += 1;
        freeSlots.push_back(static_cast<std::uint32_t>(slot));
        liveRequests -= 1;
    }
}

void
Ftl::onHostPageDone(std::uint64_t request_id)
{
    completeRequestPage(request_id);
}

void
Ftl::onPageOpDone(const PageOp &op)
{
    switch (op.kind) {
      case PageOp::Kind::UserRead:
      case PageOp::Kind::UserWrite:
        completeRequestPage(op.requestId);
        break;
      case PageOp::Kind::GcRead:
        // The victim page may have been overwritten while the read was
        // queued; only relocate pages that are still live.
        if (mapping.reverseLookup(op.ppn) != kInvalidLpn)
            issueGcWrite(op.job, mapping.reverseLookup(op.ppn));
        else
            gcStep(op.job);
        break;
      case PageOp::Kind::GcWrite:
        if (op.job->wearLevel)
            stats.wlMigratedPages += 1;
        else
            stats.gcMigratedPages += 1;
        op.job->migrated += 1;
        gcStep(op.job);
        break;
    }
}

void
Ftl::issueGcWrite(GcJob *job, Lpn lpn)
{
    // Relocate within the victim's plane when possible, falling back to
    // any plane with space (cross-plane copyback via the controller).
    const int tries = cfg.totalChips() * cfg.geometry.planes;
    const int preferred = job->chip * cfg.geometry.planes + job->plane;
    for (int t = 0; t < tries; ++t) {
        const int key = (preferred + t) % tries;
        const int chip = key / cfg.geometry.planes;
        const int plane = key % cfg.geometry.planes;
        BlockId blk;
        int page;
        if (!blocks.allocate(chip, plane, blk, page, true))
            continue;
        const Ppn ppn = mapping.encode(chip, blk, page);
        mapping.update(lpn, ppn);
        chips[chip].programPage(blk);
        PageOp op;
        op.kind = PageOp::Kind::GcWrite;
        op.lpn = lpn;
        op.ppn = ppn;
        op.job = job;
        op.tprog = schemes[chip]->programLatency(blk);
        agents[chip]->enqueue(op);
        return;
    }
    AERO_PANIC("GC found no destination page; drive wedged");
}

void
Ftl::maybeStartGc(int chip, int plane)
{
    if (blocks.freeBlocks(chip, plane) > cfg.gcLowWatermark)
        return;
    auto &slot = gcJobs[planeKey(chip, plane)];
    if (slot)
        return;  // a job is already running on this plane
    const BlockId victim =
        gcPolicy->pickVictim(chip, plane, blocks, mapping);
    if (victim == kInvalidBlock)
        return;
    slot = std::make_unique<GcJob>();
    slot->chip = chip;
    slot->plane = plane;
    slot->victim = victim;
    activeGcJobs += 1;
    stats.gcInvocations += 1;
    gcStep(slot.get());
}

void
Ftl::maybeStartWearLevel(int chip, int plane)
{
    auto &slot = gcJobs[planeKey(chip, plane)];
    if (slot)
        return;  // the plane is busy (GC restarted first)
    const BlockId victim =
        wlPolicy->pickColdVictim(chip, plane, blocks, cfg.wlEraseDelta);
    if (victim == kInvalidBlock)
        return;
    slot = std::make_unique<GcJob>();
    slot->chip = chip;
    slot->plane = plane;
    slot->victim = victim;
    slot->wearLevel = true;
    activeGcJobs += 1;
    stats.wlInvocations += 1;
    gcStep(slot.get());
}

void
Ftl::gcStep(GcJob *job)
{
    // Advance the scan cursor to the next still-valid page and read it.
    const int pages = cfg.geometry.pagesPerBlock;
    while (job->nextPage < pages) {
        const Ppn ppn =
            mapping.encode(job->chip, job->victim, job->nextPage);
        job->nextPage += 1;
        const Lpn owner = mapping.reverseLookup(ppn);
        if (owner != kInvalidLpn) {
            // issueGcWrite remaps the owner one event later.
            mapping.prefetch(owner);
            PageOp op;
            op.kind = PageOp::Kind::GcRead;
            op.ppn = ppn;
            op.job = job;
            agents[job->chip]->enqueue(op);
            return;
        }
    }
    if (!job->eraseIssued) {
        job->eraseIssued = true;
        agents[job->chip]->enqueueErase(job->victim, job);
    }
}

void
Ftl::onEraseDone(int chip, BlockId block, const EraseOutcome &outcome,
                 GcJob *job)
{
    (void)outcome;
    mapping.onBlockErased(chip, block);
    blocks.onBlockErased(chip, block);
    if (job) {
        AERO_CHECK(job->victim == block, "GC job / erase mismatch");
        const bool was_wear_level = job->wearLevel;
        auto &slot = gcJobs[planeKey(chip, job->plane)];
        AERO_CHECK(slot.get() == job, "GC job slot mismatch");
        slot.reset();
        activeGcJobs -= 1;
        retryStalledWrites();
        const int plane = blocks.planeOf(block);
        maybeStartGc(chip, plane);
        // A completed GC cycle may leave the plane's wear spread over the
        // policy threshold; WL never chains off its own erase.
        if (!was_wear_level)
            maybeStartWearLevel(chip, plane);
    }
}

bool
Ftl::eraseUrgent(int chip, BlockId block)
{
    const int plane = blocks.planeOf(block);
    return blocks.freeBlocks(chip, plane) == 0 ||
           !stalledWrites.empty();
}

void
Ftl::retryStalledWrites()
{
    // A failed submitWritePage has no side effects, so every write after
    // it would fail against the same planes: stop at the first failure
    // and re-queue it and the rest in order. While each write before it
    // is resubmitted, eraseUrgent() sees an empty queue.
    std::deque<StalledWrite> pending;
    pending.swap(stalledWrites);
    auto it = pending.begin();
    while (it != pending.end() &&
           submitWritePage(it->lpn, it->requestId, it->tenant))
        ++it;
    pending.erase(pending.begin(), it);
    AERO_CHECK(stalledWrites.empty(), "a write stalled during the retry");
    stalledWrites.swap(pending);
}

std::size_t
Ftl::planeKey(int chip, int plane) const
{
    return static_cast<std::size_t>(chip) * cfg.geometry.planes + plane;
}

} // namespace aero
