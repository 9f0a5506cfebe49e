#include "ssd/channel.hh"

#include <algorithm>
#include <tuple>

#include "common/logging.hh"
#include "ssd/chip_agent.hh"

namespace aero
{

void
Channel::init(int index, EventQueue *eq_, SsdMetrics *metrics_, int chips)
{
    idx = index;
    eq = eq_;
    metrics = metrics_;
    maxWaiters = static_cast<std::size_t>(chips);
    waiters.reserve(maxWaiters);
    releaseKey = eq->addReservation();
}

void
Channel::enableWfq(std::vector<std::uint32_t> weights_)
{
    wfq = true;
    weights = std::move(weights_);
}

std::uint64_t
Channel::weightOf(TenantId tenant) const
{
    if (tenant < weights.size() && weights[tenant] != 0)
        return weights[tenant];
    return 1;
}

bool
Channel::held() const
{
    return owned && (release != Release::Latent || !eq->passed(releaseKey));
}

void
Channel::request(ChipAgent &agent, BusClass cls, TenantId tenant)
{
    AERO_CHECK(eq != nullptr, "channel used before init()");
    Waiter w{&agent, eq->now(), 0, nextWaiterSeq++, tenant, cls};
    if (wfq &&
        (cls == BusClass::HostRead || cls == BusClass::HostWrite)) {
        // SFQ: stamp the virtual start time at *arrival*, even for an
        // immediate grant, so a backlogged tenant's tags keep advancing
        // relative to everyone else's.
        if (tenant >= finishTag.size())
            finishTag.resize(static_cast<std::size_t>(tenant) + 1, 0);
        const std::uint64_t start = std::max(vtime, finishTag[tenant]);
        finishTag[tenant] = start + kWfqQuantum / weightOf(tenant);
        w.tag = start;
    }
    if (!held()) {
        grantTo(w);
        return;
    }
    AERO_CHECK(waiters.size() < maxWaiters, "channel ", idx, " has ",
               waiters.size(), " waiters for ", maxWaiters, " chips");
    waiters.push_back(w);
    if (release == Release::Latent) {
        eq->scheduleChannelGrant(releaseKey, *this);
        release = Release::Posted;
    }
}

void
Channel::grantTo(const Waiter &w)
{
    const Tick now = eq->now();
    const Tick wait = now - w.since;
    const bool host =
        w.cls == BusClass::HostRead || w.cls == BusClass::HostWrite;
    switch (w.cls) {
      case BusClass::HostRead:
      case BusClass::HostWrite:
        metrics->hostChannelWaitTicks += wait;
        metrics->hostChannelGrants += 1;
        break;
      case BusClass::GcCopy:
        metrics->gcChannelWaitTicks += wait;
        metrics->gcChannelGrants += 1;
        break;
      case BusClass::EraseCmd:
        metrics->eraseChannelWaitTicks += wait;
        metrics->eraseChannelGrants += 1;
        break;
    }
    if (grantLog)
        grantLog->push_back(Grant{now, idx, w.cls, w.agent->chipIdx});
    if (wfq && host)
        vtime = std::max(vtime, w.tag);
    const BusRelease rel = w.agent->channelGranted();
    AERO_CHECK(rel.when >= now, "channel released before grant");
    if (static_cast<std::size_t>(idx) < metrics->channelBusyTicks.size())
        metrics->channelBusyTicks[idx] += rel.when - now;
    if (wfq && host && metrics->tenantTrackingEnabled() &&
        w.tenant < metrics->tenants.size()) {
        metrics->tenants[w.tenant].channelGrants += 1;
        metrics->tenants[w.tenant].channelHeldTicks += rel.when - now;
    }
    owned = true;
    // The key a ChannelGrant posted here would take. Chips still waiting
    // need the release as an event; a folded read's completion, which
    // took the key just before, performs it anyway.
    eq->reserve(releaseKey, rel.when);
    if (rel.folded) {
        release = Release::Folded;
    } else if (!waiters.empty()) {
        eq->scheduleChannelGrant(releaseKey, *this);
        release = Release::Posted;
    } else {
        release = Release::Latent;
    }
}

void
Channel::onGrantDone()
{
    owned = false;
    if (waiters.empty())
        return;
    // Class priority first; within a WFQ host class the lowest virtual
    // start tag (tags are 0 elsewhere); arrival order breaks ties —
    // FIFO, since seq is monotone.
    const auto rank = [](const Waiter &w) {
        return std::make_tuple(w.cls, w.tag, w.seq);
    };
    auto pick = waiters.begin();
    for (auto it = pick + 1; it != waiters.end(); ++it) {
        if (rank(*it) < rank(*pick))
            pick = it;
    }
    const Waiter w = *pick;
    *pick = waiters.back();
    waiters.pop_back();
    grantTo(w);
}

} // namespace aero
