/**
 * @file
 * Injection-rate sweeps (paper Fig 9): run a configuration at
 * increasing offered load on a synthetic pattern and record average
 * latency until the network saturates.
 */

#ifndef PHASTLANE_SIM_SWEEP_HPP
#define PHASTLANE_SIM_SWEEP_HPP

#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/params.hpp"
#include "obs/metrics.hpp"
#include "sim/configs.hpp"
#include "traffic/synthetic.hpp"

namespace phastlane::sim {

/** One point of a latency/load curve. */
struct SweepPoint {
    double injectionRate = 0.0;
    traffic::SyntheticResult result;

    /** Per-point observability metrics; populated only when
     *  SweepConfig::collectMetrics is set and the configuration is a
     *  PhastlaneNetwork (empty otherwise). */
    obs::MetricsRegistry metrics;
};

/** Sweep parameters. */
struct SweepConfig {
    traffic::Pattern pattern = traffic::Pattern::UniformRandom;

    /** Hotspot tunables and adversarial source mix, forwarded to
     *  every point's SyntheticDriver. */
    traffic::PatternOptions patternOpts;
    traffic::AdversarialConfig adversarial;

    std::vector<double> rates;  ///< offered loads to test
    Cycle warmupCycles = 1000;
    Cycle measureCycles = 5000;
    uint64_t seed = 42;
    bool stopAtSaturation = true;

    /** Simulation threads for the sweep points: 0 = auto (PL_THREADS
     *  env, else hardware concurrency), 1 = serial. Results are
     *  bit-identical across thread counts (see common/parallel.hpp). */
    int threads = 0;

    /** Collect per-point obs metrics (each point records into its own
     *  registry; merge with mergedMetrics() for run totals). */
    bool collectMetrics = false;
};

/** Default Fig 9 rate grid (packets/node/cycle). */
std::vector<double> defaultRateGrid();

/**
 * Apply the shared admission-control CLI flags (--admission
 * none|token|age, --admission-burst, --admission-period,
 * --admission-age) onto @p params. Returns true when any flag was
 * present; fatal() on bad values. Mirrors sim::applyFaultFlags.
 */
bool applyAdmissionFlags(const Config &args,
                         core::PhastlaneParams &params);

/** The flag names applyAdmissionFlags() consumes (for requireKnown). */
std::vector<std::string> admissionFlagNames();

/**
 * Apply the shared traffic-shaping CLI flags (--hotspot-fraction,
 * --hotspot-node, --mix none|elephant|tenant, --elephant-fraction,
 * --elephant-boost, --tenant-count, --tenant-boost) onto the pattern
 * options and adversarial mix. Returns true when any flag was
 * present; fatal() on bad values.
 */
bool applyTrafficFlags(const Config &args,
                       traffic::PatternOptions &opts,
                       traffic::AdversarialConfig &adv);

/** The flag names applyTrafficFlags() consumes (for requireKnown). */
std::vector<std::string> trafficFlagNames();

/**
 * Run the sweep for one configuration. Points after saturation are
 * omitted when stopAtSaturation is set.
 */
std::vector<SweepPoint> runSweep(const NetConfig &config,
                                 const SweepConfig &sweep);

/**
 * Saturation throughput: the highest accepted rate observed across
 * the sweep points (packets/node/cycle).
 */
double saturationThroughput(const std::vector<SweepPoint> &points);

/**
 * Merge every point's metrics registry in point (rate) order. Because
 * each point records into its own registry and the merge order is
 * fixed, the result is identical at any thread count.
 */
obs::MetricsRegistry
mergedMetrics(const std::vector<SweepPoint> &points);

} // namespace phastlane::sim

#endif // PHASTLANE_SIM_SWEEP_HPP
