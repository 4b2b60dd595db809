/**
 * @file
 * Abstract cycle-driven network interface implemented by both the
 * Phastlane optical network and the electrical VC baseline.
 *
 * The driver protocol per cycle is:
 *   1. call inject()/nicHasSpace() to offer new traffic,
 *   2. call step() to advance the network one clock,
 *   3. read deliveries() for everything that completed during the
 *      step.
 */

#ifndef PHASTLANE_NET_NETWORK_HPP
#define PHASTLANE_NET_NETWORK_HPP

#include <atomic>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"
#include "net/packet.hpp"

namespace phastlane {

/**
 * Common counters every network reports; network-specific counters
 * (drops, VC stalls, ...) live in the concrete classes.
 */
struct NetworkCounters {
    uint64_t messagesAccepted = 0;  ///< messages taken into a NIC
    uint64_t packetsInjected = 0;   ///< network packets entered (incl.
                                    ///< multicast branches & retries)
    uint64_t deliveries = 0;        ///< per-node deliveries completed
};

/**
 * A synchronous, cycle-driven packet network.
 */
class Network
{
  public:
    Network() { noteLive(1); }
    Network(const Network &) { noteLive(1); }
    Network &operator=(const Network &) = default;
    virtual ~Network() { noteLive(-1); }

    /** Network objects alive in this process (wrappers such as a
     *  CheckedNetwork count too). A serial campaign holds one
     *  (DESIGN.md §13). */
    static int liveCount() { return live_.load(); }

    /** The most Network objects alive at once since the last
     *  resetPeakLiveCount(). */
    static int peakLiveCount() { return peakLive_.load(); }
    static void resetPeakLiveCount() { peakLive_.store(live_.load()); }

    /** Number of endpoints. */
    virtual int nodeCount() const = 0;

    /** The mesh geometry (both networks are 2D meshes). */
    virtual const MeshTopology &mesh() const = 0;

    /** Current cycle (number of completed step() calls). */
    virtual Cycle now() const = 0;

    /** True when node @p n 's NIC can accept another message now. */
    virtual bool nicHasSpace(NodeId n) const = 0;

    /**
     * Offer a message to its source NIC. Returns false (and leaves the
     * network unchanged) when the NIC is full.
     */
    virtual bool inject(const Packet &pkt) = 0;

    /** Advance one clock cycle. */
    virtual void step() = 0;

    /** Deliveries completed during the most recent step(). */
    virtual const std::vector<Delivery> &deliveries() const = 0;

    /** Messages accepted but not yet fully delivered. */
    virtual uint64_t inFlight() const = 0;

    /** Common counters. */
    virtual const NetworkCounters &counters() const = 0;

  private:
    static void noteLive(int delta)
    {
        const int now = live_.fetch_add(delta) + delta;
        int peak = peakLive_.load();
        while (now > peak && !peakLive_.compare_exchange_weak(peak, now)) {
        }
    }

    static inline std::atomic<int> live_{0};
    static inline std::atomic<int> peakLive_{0};
};

} // namespace phastlane

#endif // PHASTLANE_NET_NETWORK_HPP
