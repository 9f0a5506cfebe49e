/**
 * @file
 * Discrete-event simulation kernel: a monotonically advancing clock over
 * a time-ordered queue of *tagged* events (see sim/event.hh). Events
 * scheduled for the same tick fire in scheduling order (a stable
 * sequence number breaks ties), which keeps simulations deterministic.
 *
 * Storage is an arena of fixed-size slots recycled through a freelist —
 * the hot path never heap-allocates — and ordering is an intrusive
 * pairing heap keyed on (tick, seq): O(1) push, amortized O(log n) pop,
 * and the same bit-for-bit firing order as the std::function binary heap
 * this kernel replaced. Cancellation is explicit: the typed schedule
 * calls return an EventId that cancel() invalidates lazily (dead slots
 * are skipped and recycled when they surface), replacing the per-agent
 * version-counter idiom.
 *
 * The `schedule(Tick, std::function)` compatibility lane remains for
 * tests and examples; it heap-allocates its closure and cannot be
 * cancelled.
 *
 * Reservations let a caller hold an event's (tick, seq) key without
 * posting the event: reserve() takes the sequence number a post at that
 * point would have taken, and the key is posted later only if it turns
 * out to be needed (Channel does this for bus releases nobody waits
 * for). Until dispatch passes a reserved key it counts as pending in
 * nextEventTick(), so skipping the event changes no firing order.
 */

#ifndef AERO_SIM_EVENT_QUEUE_HH
#define AERO_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "sim/event.hh"

namespace aero
{

class EventQueue
{
  public:
    using Callback = std::function<void()>;
    using TimerFn = void (*)(void *);

    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    Tick now() const { return currentTick; }

    bool empty() const { return liveCount == 0; }
    std::size_t pending() const { return liveCount; }
    /** Events dispatched so far, of every kind / of one kind. */
    std::uint64_t processed() const;
    std::uint64_t
    processed(EventKind kind) const
    {
        return processedByKind[static_cast<int>(kind)];
    }

    /**
     * Tick of the earliest pending event or unpassed reserved key,
     * kTickMax when there is none. Lets the trace pump batch same-tick
     * admissions without perturbing event order: if nothing is pending
     * at now(), a pump event scheduled at now() would fire immediately
     * next anyway.
     */
    Tick nextEventTick() const;

    /** Schedule `cb` to run `delay` ticks from now (compat lane). */
    void
    schedule(Tick delay, Callback cb)
    {
        scheduleAt(currentTick + delay, std::move(cb));
    }

    /** Schedule `cb` at an absolute tick (must not be in the past). */
    void scheduleAt(Tick when, Callback cb);

    /** @name Tagged, allocation-free schedule calls (absolute ticks) */
    /** @{ */
    EventId scheduleTimerAt(Tick when, TimerFn fn, void *ctx);
    EventId scheduleChipOpAt(Tick when, ChipAgent &agent, const PageOp &op);
    EventId scheduleEraseSegmentAt(Tick when, ChipAgent &agent);
    EventId scheduleSuspendQuiesceAt(Tick when, ChipAgent &agent);
    EventId scheduleHostPageAt(Tick when, Ftl &ftl,
                               std::uint64_t request_id);
    EventId scheduleTraceAdmitAt(Tick when, TracePump &pump);
    EventId scheduleTraceAdmitThrottledAt(Tick when, TracePump &pump,
                                          TenantId tenant);
    EventId scheduleDieOpAt(Tick when, ChipAgent &agent);
    /** A read's completion that also releases its channel's bus. */
    EventId scheduleReadXferDoneAt(Tick when, ChipAgent &agent,
                                   const PageOp &op);
    /** Post a ChannelGrant under reservation `r`'s (unpassed) key. */
    EventId scheduleChannelGrant(std::uint32_t r, Channel &channel);
    /** @} */

    /** @name Reserved keys (see the file comment) */
    /** @{ */
    /** A new reservation slot, holding no key yet. */
    std::uint32_t addReservation();
    /** Give slot `r` the key an event posted at `when` now would get. */
    void reserve(std::uint32_t r, Tick when);
    /** Has dispatch passed slot `r`'s key, i.e. would its event have
     *  fired by now had it been posted? */
    bool passed(std::uint32_t r) const { return passed(reserved[r]); }
    /** @} */

    /**
     * Cancel a pending event. @return true when the event was pending
     * and is now dead; false for a stale handle (already fired, already
     * cancelled, or never valid). The slot is recycled when it next
     * surfaces at the heap root.
     */
    bool cancel(EventId id);

    /** Is the event this handle names still pending? */
    bool pendingEvent(EventId id) const;

    /** Run until the queue drains or `until` is reached. */
    void run(Tick until = kTickMax);

    /** Process exactly one event; returns false if the queue is empty. */
    bool step();

    /** Arena slots ever constructed (drain/reuse introspection). */
    std::size_t arenaSlots() const { return slotCount; }

  private:
    static constexpr std::size_t kChunkSize = 512;

    /** An event's ordering key. */
    struct Key
    {
        Tick when = kTickMax;  //!< kTickMax: no key held
        std::uint64_t seq = 0;
    };

    /** Keys below (currentTick, passSeq) are behind dispatch. */
    bool
    passed(const Key &k) const
    {
        return k.when < currentTick ||
               (k.when == currentTick && k.seq < passSeq);
    }

    static Event *merge(Event *a, Event *b);
    static Event *mergePairs(Event *list);

    Event *slotAt(std::uint32_t slot) const;
    PageOp &opAt(std::uint32_t slot) const;
    Event *allocSlot();
    void freeSlot(Event *ev);
    /** Pop dead slots off the root so `root` is always live or null. */
    void scrubRoot();
    /** Allocate, key, and push one event at `when`. */
    Event *
    post(Tick when, EventKind kind)
    {
        return post(Key{when, nextSeq++}, kind);
    }
    /** Push one event under an already-taken key. */
    Event *post(Key key, EventKind kind);
    void dispatch(EventKind kind, const Event::Payload &payload);

    std::vector<std::unique_ptr<Event[]>> chunks;
    /** Side arena for the fat ChipOpComplete payload (see sim/event.hh). */
    std::vector<std::unique_ptr<PageOp[]>> opChunks;
    Event *freeHead = nullptr;
    Event *root = nullptr;
    std::size_t slotCount = 0;
    std::size_t liveCount = 0;
    Tick currentTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t passSeq = 0;  //!< see passed(Key)
    std::vector<Key> reserved;  //!< reservation slots
    std::array<std::uint64_t, kEventKinds> processedByKind{};
};

} // namespace aero

#endif // AERO_SIM_EVENT_QUEUE_HH
