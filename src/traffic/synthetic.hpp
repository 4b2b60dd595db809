/**
 * @file
 * Open-loop synthetic traffic driver (paper Fig 9): Bernoulli
 * injection at a configured rate per node, a chosen destination
 * pattern, and warmup / measurement / drain phases. Packets that the
 * NIC cannot accept wait in an unbounded per-node source queue, so
 * source queueing time is part of the measured latency (standard
 * BookSim methodology).
 */

#ifndef PHASTLANE_TRAFFIC_SYNTHETIC_HPP
#define PHASTLANE_TRAFFIC_SYNTHETIC_HPP

#include <deque>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "net/network.hpp"
#include "traffic/adversarial.hpp"
#include "traffic/patterns.hpp"

namespace phastlane::traffic {

/** Configuration of one open-loop run. */
struct SyntheticConfig {
    Pattern pattern = Pattern::UniformRandom;

    /** Hotspot fraction / node (only Hotspot reads these). */
    PatternOptions patternOpts;

    /** Adversarial source mix layered on the pattern; None adds no
     *  RNG draws, keeping legacy runs bit-identical. */
    AdversarialConfig adversarial;

    /** Offered load, packets per node per cycle. */
    double injectionRate = 0.01;

    /** Fraction of injected messages that are broadcasts. */
    double broadcastFraction = 0.0;

    Cycle warmupCycles = 1000;
    Cycle measureCycles = 5000;

    /** Stop waiting for stragglers after this many drain cycles. */
    Cycle maxDrainCycles = 50000;

    uint64_t seed = 42;
};

/** Results of one open-loop run. */
struct SyntheticResult {
    double offeredRate = 0.0;   ///< packets/node/cycle offered
    double acceptedRate = 0.0;  ///< packets/node/cycle delivered
    double avgLatency = 0.0;    ///< creation -> delivery, cycles
    double avgNetLatency = 0.0; ///< injection -> delivery, cycles
    double p99Latency = 0.0;
    uint64_t measuredPackets = 0;
    bool saturated = false; ///< latency diverged / backlog exploded
};

/**
 * Drives a Network with Bernoulli traffic and measures latency and
 * accepted throughput.
 */
class SyntheticDriver
{
  public:
    SyntheticDriver(Network &net, const SyntheticConfig &cfg);

    /** Run warmup + measurement + drain; returns the results. */
    SyntheticResult run();

    // Step-wise interface, equivalent to run() but with the
    // net_.step() call in the caller's hands, so sim::runJobs can
    // drive it as a Job:
    //   begin();
    //   while (!done()) { preStep(); net.step(); postStep(); }
    //   result = finish();

    /** Arm the warmup/measurement window at the network's current
     *  cycle. Call exactly once, before the first preStep(). */
    void begin();
    /** True when the run needs no more cycles (measurement finished
     *  and the drain completed, timed out, or was skipped). */
    bool done() const;
    /** Injection side of one cycle: generate (measure phase only)
     *  and pump the source queues. */
    void preStep();
    /** Harvest side of one cycle: collect deliveries, check the
     *  backlog saturation bail-out, advance the phase. */
    void postStep();
    /** Build the result (call once, after done() turns true). */
    SyntheticResult finish();

    Network &network() { return net_; }

    /** Latency threshold (cycles) above which we declare saturation. */
    static constexpr double kSaturationLatency = 500.0;

  private:
    enum class Phase : uint8_t { Idle, Measure, Drain, Done };

    void generate(Cycle now);
    void pumpSourceQueues();
    void harvest(bool measuring);
    bool drainIdle() const;

    Network &net_;
    SyntheticConfig cfg_;
    Rng rng_;
    std::vector<std::deque<Packet>> sourceQueues_;
    uint64_t nextPacketId_ = 1;

    Phase phase_ = Phase::Idle;
    bool saturated_ = false;
    Cycle measureStart_ = 0;
    Cycle measureEnd_ = 0;
    Cycle drainDeadline_ = 0;
    uint64_t backlogLimit_ = 0;
    RunningStat latency_;
    RunningStat netLatency_;
    Histogram latencyHist_{10.0, 500};
    uint64_t measuredDeliveries_ = 0;
    uint64_t offeredMeasured_ = 0;
};

} // namespace phastlane::traffic

#endif // PHASTLANE_TRAFFIC_SYNTHETIC_HPP
