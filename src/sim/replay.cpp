#include "sim/replay.hpp"

#include <cinttypes>

#include "common/log.hpp"

namespace phastlane::sim {

ReplayCore::ReplayCore(Network &net, size_t max_pending)
    : net_(net)
{
    PL_ASSERT(max_pending > 0, "replay window must hold >= 1 packet");
    pending_.resize(max_pending);
}

void
ReplayCore::release(const traffic::TraceRecord &r)
{
    const std::string err =
        traffic::validateTraceRecord(r, net_.nodeCount());
    if (!err.empty())
        fatal("invalid trace record %llu: %s",
              static_cast<unsigned long long>(released_),
              err.c_str());
    Packet pkt;
    pkt.id = nextId_++;
    pkt.src = r.src;
    pkt.dst = r.dst;
    pkt.broadcast = r.broadcast();
    pkt.kind = r.kind;
    pkt.tag = r.tag;
    pkt.createdAt = net_.now();
    size_t tail = pendingHead_ + pendingCount_;
    if (tail >= pending_.size())
        tail -= pending_.size();
    pending_[tail] = pkt;
    ++pendingCount_;
    ++released_;
}

void
ReplayCore::injectPending()
{
    while (pendingCount_ > 0 && net_.inject(pending_[pendingHead_])) {
        if (++pendingHead_ == pending_.size())
            pendingHead_ = 0;
        --pendingCount_;
    }
}

void
ReplayCore::stepAndHarvest()
{
    net_.step();
    for (const auto &d : net_.deliveries()) {
        latency_.add(static_cast<double>(d.at - d.packet.createdAt));
        ++deliveries_;
    }
}

ReplayStats
ReplayCore::stats() const
{
    ReplayStats s;
    s.completionCycle = net_.now();
    s.messages = released_;
    s.deliveries = deliveries_;
    s.avgLatency = latency_.mean();
    s.outstanding = net_.inFlight() + pendingCount_;
    return s;
}

ReplayStats
replayTraceStream(Network &net, traffic::TraceSource &src,
                  const ReplayOptions &opts)
{
    ReplayCore core(net, opts.maxPending);
    traffic::TraceRecord la;
    bool have = src.next(la);
    const Cycle deadline = net.now() + opts.maxCycles;
    bool done = false;

    while (net.now() < deadline) {
        while (have && la.cycle <= net.now() &&
               core.windowHasSpace()) {
            core.release(la);
            have = src.next(la);
        }
        core.injectPending();
        if (!have && core.quiescent()) {
            done = true;
            break;
        }
        core.stepAndHarvest();
    }

    ReplayStats res = core.stats();
    res.hitCycleLimit = !done;
    if (done) {
        res.outstanding = 0;
    } else {
        if (have)
            ++res.outstanding; // the unreleased lookahead record
        warn("streaming replay hit the cycle limit with %llu "
             "outstanding",
             static_cast<unsigned long long>(res.outstanding));
    }
    return res;
}

std::string
formatReplayReport(const ReplayStats &stats, const Network &net)
{
    const NetworkCounters &c = net.counters();
    return detail::formatMsg(
        "messages %" PRIu64 "\n"
        "deliveries %" PRIu64 "\n"
        "completion_cycle %" PRIu64 "\n"
        "avg_latency %.4f\n"
        "hit_cycle_limit %d\n"
        "outstanding %" PRIu64 "\n"
        "counters accepted=%" PRIu64 " injected=%" PRIu64
        " delivered=%" PRIu64 "\n",
        stats.messages, stats.deliveries, stats.completionCycle,
        stats.avgLatency, stats.hitCycleLimit ? 1 : 0,
        stats.outstanding, c.messagesAccepted, c.packetsInjected,
        c.deliveries);
}

} // namespace phastlane::sim
