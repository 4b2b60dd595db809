/**
 * @file
 * Streaming trace replay (DESIGN.md §15): pull records on demand from
 * a traffic::TraceSource and drive a network with NIC backpressure,
 * never materializing the trace. ReplayCore is the cycle engine shared
 * by replayTraceStream() and the simulation server (sim/server.hpp) --
 * both must inject identical sequences so a served run byte-matches an
 * offline replay of the same records.
 */

#ifndef PHASTLANE_SIM_REPLAY_HPP
#define PHASTLANE_SIM_REPLAY_HPP

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "net/network.hpp"
#include "traffic/trace.hpp"

namespace phastlane::sim {

/** Knobs for streaming replay. */
struct ReplayOptions {
    /** Give up after this many cycles (ReplayStats::hitCycleLimit). */
    Cycle maxCycles = 10000000;

    /**
     * Released-but-not-injected window: records due at the current
     * cycle move into the pending queue only while it holds fewer
     * than this many packets, so resident memory stays O(maxPending)
     * however far the NICs fall behind the trace. ReplayCore
     * allocates all maxPending slots up front. A record held back
     * by a full window gets its createdAt (latency base) stamped at
     * its actual release cycle, not its trace cycle.
     */
    size_t maxPending = 4096;
};

/** Results of a streaming replay. */
struct ReplayStats {
    Cycle completionCycle = 0;
    uint64_t messages = 0;   ///< records consumed from the source
    uint64_t deliveries = 0;
    double avgLatency = 0.0; ///< release -> delivery
    bool hitCycleLimit = false;
    uint64_t outstanding = 0; ///< in flight + queued when limited
};

/**
 * The shared per-cycle replay engine: a bounded pending queue of
 * released packets, head-of-line injection against NIC backpressure,
 * and delivery/latency accounting. Callers own the loop (the
 * streaming replayer pulls from a TraceSource; the server releases
 * watermark-gated client records) but every network interaction goes
 * through here so the two stay bit-identical.
 */
class ReplayCore
{
  public:
    ReplayCore(Network &net, size_t max_pending);

    /** True while the release window has room. */
    bool windowHasSpace() const
    {
        return pendingCount_ < pending_.size();
    }

    /** Release @p r: validate against the network's node range
     *  (fatal on violation) and queue it with createdAt = now. */
    void release(const traffic::TraceRecord &r);

    /** Offer pending packets head-of-line until a NIC refuses. */
    void injectPending();

    /** Advance one cycle and harvest deliveries into the stats. */
    void stepAndHarvest();

    /** No released packet awaits injection or delivery. */
    bool quiescent() const
    {
        return pendingCount_ == 0 && net_.inFlight() == 0;
    }

    Network &net() { return net_; }
    uint64_t released() const { return released_; }
    uint64_t deliveries() const { return deliveries_; }
    size_t pendingCount() const { return pendingCount_; }

    /** Stats snapshot for the loop run so far. */
    ReplayStats stats() const;

  private:
    Network &net_;
    /** The release window: a ring of max_pending slots, allocated
     *  once, holding pendingCount_ packets from pendingHead_ on. */
    std::vector<Packet> pending_;
    size_t pendingHead_ = 0;
    size_t pendingCount_ = 0;
    RunningStat latency_;
    uint64_t released_ = 0;
    uint64_t deliveries_ = 0;
    uint64_t nextId_ = 1;
};

/**
 * Replay records pulled on demand from @p src (which must yield
 * cycle-sorted records): each is released at its cycle -- or as soon
 * afterwards as the release window and NIC allow -- and the run
 * continues until the source drains and every delivery completes, or
 * opts.maxCycles elapse. Memory is O(opts.maxPending) regardless of
 * trace length.
 */
ReplayStats replayTraceStream(Network &net, traffic::TraceSource &src,
                              const ReplayOptions &opts = {});

/**
 * Canonical one-line-per-field report of a replay, used verbatim by
 * both the simulation server's RESULT message and the offline
 * `netsim_serve --replay` mode so served and offline runs can be
 * byte-diffed.
 */
std::string formatReplayReport(const ReplayStats &stats,
                               const Network &net);

} // namespace phastlane::sim

#endif // PHASTLANE_SIM_REPLAY_HPP
