/**
 * @file
 * Multi-configuration experiment harness: run a set of named network
 * configurations over a set of coherence benchmarks (identical
 * pre-generated streams per benchmark) and collect completion,
 * latency, drop, and power results -- the machinery behind Fig 10 and
 * Fig 11, exposed as a reusable API.
 */

#ifndef PHASTLANE_SIM_EXPERIMENT_HPP
#define PHASTLANE_SIM_EXPERIMENT_HPP

#include <string>
#include <vector>

#include "common/table.hpp"
#include "power/energy_params.hpp"
#include "sim/configs.hpp"
#include "traffic/coherence.hpp"
#include "traffic/splash.hpp"

namespace phastlane::sim {

/** One (benchmark, configuration) run's results. */
struct BenchmarkRun {
    std::string benchmark;
    std::string config;
    traffic::CoherenceResult result;
    power::PowerBreakdown power;
    uint64_t drops = 0; ///< optical configurations only
};

/** Experiment specification. */
struct ExperimentSpec {
    /** Configuration names (makeConfig()); the first entry is also
     *  the speedup baseline unless baseline overrides it. */
    std::vector<std::string> configs;

    /** Benchmarks to run. */
    std::vector<traffic::SplashProfile> benchmarks;

    /** Override txnsPerNode on every benchmark (0 = keep). */
    int txnsPerNode = 0;

    /** Speedup/power baseline configuration. */
    std::string baseline = "Electrical3";

    uint64_t seed = 12345;

    /** Simulation threads for the (benchmark x config) grid: 0 = auto
     *  (PL_THREADS env, else hardware concurrency), 1 = serial.
     *  Results are bit-identical across thread counts. */
    int threads = 0;

    /** Ignored. It named the gang size of the batched engine, which
     *  is gone (DESIGN.md §13); it stays only because the perfbench
     *  splash_campaign workload still assigns it. */
    int batch = 0;
};

/**
 * Runs the experiment; rows come back grouped by benchmark in
 * specification order.
 */
std::vector<BenchmarkRun> runExperiment(const ExperimentSpec &spec);

/** The run matching (benchmark, config); fatal() when absent. */
const BenchmarkRun &findRun(const std::vector<BenchmarkRun> &runs,
                            const std::string &benchmark,
                            const std::string &config);

/**
 * Completion-time speedup of @p config against the baseline on
 * @p benchmark (the Fig 10 metric).
 */
double speedupOf(const std::vector<BenchmarkRun> &runs,
                 const std::string &benchmark,
                 const std::string &config,
                 const std::string &baseline = "Electrical3");

/** Benchmark-by-configuration speedup table (Fig 10 layout). */
TextTable speedupTable(const ExperimentSpec &spec,
                       const std::vector<BenchmarkRun> &runs);

/** Benchmark-by-configuration total-power table (Fig 11 layout). */
TextTable powerTable(const ExperimentSpec &spec,
                     const std::vector<BenchmarkRun> &runs);

} // namespace phastlane::sim

#endif // PHASTLANE_SIM_EXPERIMENT_HPP
