/**
 * @file
 * Shared channel bus between the chips of one channel.
 *
 * Legacy arbitration keeps the original single-field model: a transfer
 * reserves the bus by advancing `busyUntil`, so contention is folded into
 * closed-form latency arithmetic at issue time (and pre-PR-8 behaviour is
 * reproduced bit for bit).
 *
 * Queued arbitration models the bus as a resource with per-class FIFO
 * grant queues: a chip *requests* the bus for a transfer (or an erase
 * command issue), waits its turn, and is granted when the previous owner
 * releases. Grants drain strictly by class priority — host reads > host
 * writes > GC copies > erase commands — and FIFO within a class, so host
 * and reclamation traffic genuinely contend and the wait each class
 * suffers is measured into SsdMetrics. At most one op per chip waits for
 * the bus, so the waiters are one small vector and a grant picks the
 * least (class, WFQ tag, arrival) among them.
 *
 * A release costs an event only when a chip waits for it. At grant time
 * the channel reserves the event key the release would take (see
 * EventQueue::reserve) and posts a ChannelGrant under it only once a
 * request has to queue before dispatch passes the key; otherwise the
 * release passes silently. A read's release shares its completion's
 * tick and follows it in key order, so the read's ReadXferDone event
 * completes the op and then releases the bus itself. Either way grants
 * happen at exactly the (tick, seq) points a ChannelGrant per release
 * would give them.
 *
 * With WFQ enabled (SloPolicy::Wfq / ThrottleWfq), the two *host*
 * classes swap their FIFO for start-time fair queuing: each request is
 * tagged at enqueue with its tenant's virtual start time (the later of
 * the channel's virtual clock and the tenant's last finish tag; finish
 * advances by quantum/weight), and the grant picks the waiter with the
 * lowest tag, ties broken by arrival. Class priority is untouched — a
 * queued host read still beats any host write — so WFQ divides the
 * *host* share of the bus by weight while GC copies and erase commands
 * stay strict FIFO below. A single-tenant run produces tags that are
 * monotone in arrival order, making WFQ grant-for-grant identical to
 * the FIFO it replaces.
 */

#ifndef AERO_SSD_CHANNEL_HH
#define AERO_SSD_CHANNEL_HH

#include <vector>

#include "sim/event_queue.hh"
#include "ssd/metrics.hh"

namespace aero
{

class ChipAgent;

/** Grant-priority classes of queued arbitration, highest first. */
enum class BusClass : std::uint8_t
{
    HostRead = 0,
    HostWrite = 1,
    GcCopy = 2,
    EraseCmd = 3,
};

/** What a granted chip hands back: when it releases the bus, and
 *  whether its completion event at that tick (a read's ReadXferDone)
 *  performs the release. */
struct BusRelease
{
    Tick when = 0;
    bool folded = false;
};

/** WFQ virtual-time quantum: finish tags advance by kWfqQuantum/weight
 *  per grant, so a weight-w tenant accrues virtual time 1/w as fast. */
constexpr std::uint64_t kWfqQuantum = 1ULL << 20;

class Channel
{
  public:
    /** Legacy arbitration: end of the last reserved transfer slot. */
    Tick busyUntil = 0;

    /** Wire the queued-arbitration machinery for `chips` chips (FTL
     *  does this at mount). */
    void init(int index, EventQueue *eq_, SsdMetrics *metrics_, int chips);

    int index() const { return idx; }

    /**
     * Queued arbitration: request the bus. Grants immediately when the
     * bus is free, otherwise enqueues; the agent's channelGranted() runs
     * at grant time and says when it releases the bus. `tenant` only
     * matters under WFQ and only for the host classes.
     */
    void request(ChipAgent &agent, BusClass cls, TenantId tenant = 0);

    /**
     * Turn on weighted-fair queuing for the host classes. `weights` is
     * indexed by tenant; tenants beyond its end weigh 1. Must be set
     * before the first request().
     */
    void enableWfq(std::vector<std::uint32_t> weights);

    bool wfqEnabled() const { return wfq; }

    /** One grant, as logGrants() records it. */
    struct Grant
    {
        Tick tick = 0;
        int channel = 0;
        BusClass cls = BusClass::HostRead;
        int chip = 0;
    };

    /** Append every later grant to `log` (nullptr stops logging). */
    void logGrants(std::vector<Grant> *log) { grantLog = log; }

  private:
    friend class EventQueue;  //!< tagged-event dispatch entry point

    struct Waiter
    {
        ChipAgent *agent = nullptr;
        Tick since = 0;
        std::uint64_t tag = 0;   //!< WFQ virtual start time (host only)
        std::uint64_t seq = 0;   //!< arrival order; breaks tag ties
        TenantId tenant = 0;
        BusClass cls = BusClass::HostRead;
    };

    /** How the current owner's release will happen. */
    enum class Release : std::uint8_t
    {
        Latent,  //!< nobody waits: passes silently at its reserved key
        Posted,  //!< a ChannelGrant is queued under the reserved key
        Folded,  //!< the owner's ReadXferDone releases the bus
    };

    /** Is the bus still held at the current dispatch point? */
    bool held() const;
    /** ChannelGrant / ReadXferDone dispatch target: the bus was
     *  released. */
    void onGrantDone();
    void grantTo(const Waiter &w);

    std::uint64_t weightOf(TenantId tenant) const;

    std::vector<Waiter> waiters;  //!< unordered; at most one per chip
    std::size_t maxWaiters = 0;
    bool owned = false;
    Release release = Release::Latent;
    std::uint32_t releaseKey = 0;  //!< reservation slot in `eq`
    int idx = 0;
    EventQueue *eq = nullptr;
    SsdMetrics *metrics = nullptr;
    std::vector<Grant> *grantLog = nullptr;

    /** @name WFQ state (SFQ: Goyal et al.) */
    /** @{ */
    bool wfq = false;
    std::vector<std::uint32_t> weights;    //!< per tenant; default 1
    std::vector<std::uint64_t> finishTag;  //!< per tenant, lazily grown
    std::uint64_t vtime = 0;               //!< virtual clock (host classes)
    std::uint64_t nextWaiterSeq = 0;
    /** @} */
};

} // namespace aero

#endif // AERO_SSD_CHANNEL_HH
