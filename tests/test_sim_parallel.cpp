/**
 * @file
 * Tests of the parallel simulation harness (common/parallel.hpp): the
 * pool itself, and the determinism contract -- sweeps, experiments and
 * fault sweeps produce bit-identical results in every sim::runJobs
 * mode (serial, ganged, parallel) at any thread count and gang size.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "sim/experiment.hpp"
#include "sim/fault_sweep.hpp"
#include "sim/sweep.hpp"
#include "traffic/splash.hpp"

namespace phastlane::sim {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.run(kN, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossRuns)
{
    ThreadPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<size_t> sum{0};
        pool.run(100, [&](size_t i) {
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 5050u);
    }
}

TEST(ThreadPool, PropagatesTheFirstException)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.run(16,
                          [&](size_t i) {
                              if (i == 7)
                                  throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
    // The pool survives a throwing run.
    std::atomic<int> ran{0};
    pool.run(8, [&](size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ClaimsTheHighestIndexFirst)
{
    // Campaign points rise in cost with their index, so the pool
    // starts the last one first (longest-first scheduling).
    ThreadPool pool(3);
    constexpr size_t kN = 50;
    std::atomic<size_t> started{0};
    std::vector<size_t> order(kN);
    pool.run(kN, [&](size_t i) {
        order[started.fetch_add(1, std::memory_order_relaxed)] = i;
    });
    EXPECT_EQ(order.front(), kN - 1);
    std::sort(order.begin(), order.end());
    for (size_t i = 0; i < kN; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, NeverRunsMoreWorkersThanCores)
{
    const size_t cores =
        std::max(1u, std::thread::hardware_concurrency());
    std::mutex mu;
    std::set<std::thread::id> seen;
    parallelFor(
        4 * cores,
        [&](size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            std::lock_guard<std::mutex> lock(mu);
            seen.insert(std::this_thread::get_id());
        },
        static_cast<int>(4 * cores));
    EXPECT_GE(seen.size(), 1u);
    EXPECT_LE(seen.size(), cores);
}

TEST(ParallelFor, SerialAndZeroSizedEdgeCases)
{
    int ran = 0;
    parallelFor(0, [&](size_t) { ++ran; }, 4);
    EXPECT_EQ(ran, 0);
    parallelFor(5, [&](size_t) { ++ran; }, 1);
    EXPECT_EQ(ran, 5);
}

TEST(ParallelFor, DerivedSeedsAreStableAndDistinct)
{
    // Stability across calls and platforms (golden-free: identical
    // recomputation), distinctness across indices and bases.
    std::vector<uint64_t> seeds;
    for (uint64_t i = 0; i < 64; ++i) {
        seeds.push_back(derivePointSeed(12345, i));
        EXPECT_EQ(seeds.back(), derivePointSeed(12345, i));
    }
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::unique(seeds.begin(), seeds.end()), seeds.end());
    EXPECT_NE(derivePointSeed(1, 0), derivePointSeed(2, 0));
}

TEST(ResolveThreadCount, ExplicitRequestWins)
{
    EXPECT_EQ(resolveThreadCount(3), 3);
    EXPECT_GE(resolveThreadCount(0), 1);
}

/** The default rate grid must have exact, drift-free endpoints. */
TEST(RateGrid, IntegerGeneratedEndpoints)
{
    const auto rates = defaultRateGrid();
    ASSERT_EQ(rates.size(), 26u); // 9 fine + 17 coarse points
    EXPECT_EQ(rates.front(), 0.01);
    EXPECT_EQ(rates[8], 0.09);
    EXPECT_EQ(rates[9], 0.10);
    EXPECT_EQ(rates.back(), 0.50); // exactly, not 0.499999...
    for (size_t i = 1; i < rates.size(); ++i)
        EXPECT_GT(rates[i], rates[i - 1]);
}

SweepConfig
smallSweep(int threads)
{
    SweepConfig sc;
    sc.pattern = traffic::Pattern::Transpose;
    sc.rates = {0.02, 0.05, 0.10, 0.20, 0.30, 0.40};
    sc.warmupCycles = 200;
    sc.measureCycles = 800;
    sc.seed = 99;
    sc.threads = threads;
    return sc;
}

void
expectIdenticalPoints(const std::vector<SweepPoint> &a,
                      const std::vector<SweepPoint> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].injectionRate, b[i].injectionRate);
        EXPECT_EQ(a[i].result.avgLatency, b[i].result.avgLatency);
        EXPECT_EQ(a[i].result.p99Latency, b[i].result.p99Latency);
        EXPECT_EQ(a[i].result.acceptedRate,
                  b[i].result.acceptedRate);
        EXPECT_EQ(a[i].result.offeredRate, b[i].result.offeredRate);
        EXPECT_EQ(a[i].result.measuredPackets,
                  b[i].result.measuredPackets);
        EXPECT_EQ(a[i].result.saturated, b[i].result.saturated);
        EXPECT_EQ(a[i].metrics.toJson(), b[i].metrics.toJson());
    }
}

/** The (threads, batch) pairs every runner must agree across: serial
 *  (batch 1), ganged with the default and with two-wide gangs (so a
 *  sweep spans several gangs), and the same three on a parallel pool
 *  of three workers (so a grid spans several waves). */
struct RunnerMode {
    int threads;
    int batch;
};
constexpr RunnerMode kRunnerModes[] = {{1, 0}, {1, 1}, {1, 2},
                                       {3, 0}, {3, 1}, {3, 2}};

TEST(ParallelSweep, BitIdenticalToSerial)
{
    const auto serial =
        runSweep(makeConfig("Optical4"), smallSweep(1));
    const auto parallel =
        runSweep(makeConfig("Optical4"), smallSweep(4));
    expectIdenticalPoints(serial, parallel);
}

TEST(ParallelSweep, SaturationTruncationMatchesSerial)
{
    // Electrical2 saturates within this grid, exercising the
    // wave-and-truncate early-exit path of the parallel sweep.
    auto sc1 = smallSweep(1);
    auto sc4 = smallSweep(4);
    sc1.stopAtSaturation = sc4.stopAtSaturation = true;
    const auto serial = runSweep(makeConfig("Electrical2"), sc1);
    const auto parallel = runSweep(makeConfig("Electrical2"), sc4);
    expectIdenticalPoints(serial, parallel);
}

void
expectIdenticalRuns(const std::vector<BenchmarkRun> &a,
                    const std::vector<BenchmarkRun> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].benchmark, b[i].benchmark);
        EXPECT_EQ(a[i].config, b[i].config);
        EXPECT_EQ(a[i].result.completionCycles,
                  b[i].result.completionCycles);
        EXPECT_EQ(a[i].result.transactions, b[i].result.transactions);
        EXPECT_EQ(a[i].result.avgMessageLatency,
                  b[i].result.avgMessageLatency);
        EXPECT_EQ(a[i].drops, b[i].drops);
        EXPECT_EQ(a[i].power.totalW, b[i].power.totalW);
    }
}

ExperimentSpec
smallExperiment()
{
    ExperimentSpec spec;
    spec.configs = {"Electrical3", "Optical4"};
    const auto suite = traffic::splashSuite();
    spec.benchmarks = {suite.at(0), suite.at(1)};
    spec.txnsPerNode = 20;
    spec.seed = 7;
    return spec;
}

TEST(ParallelExperiment, BitIdenticalToSerial)
{
    ExperimentSpec spec = smallExperiment();
    spec.threads = 1;
    const auto serial = runExperiment(spec);
    spec.threads = 4;
    const auto parallel = runExperiment(spec);

    ASSERT_EQ(serial.size(), 4u);
    expectIdenticalRuns(serial, parallel);
    // Grouped by benchmark, configs in specification order.
    EXPECT_EQ(serial[0].benchmark, serial[1].benchmark);
    EXPECT_EQ(serial[0].config, "Electrical3");
    EXPECT_EQ(serial[1].config, "Optical4");
}

/** Every runJobs mode gives the plain serial sweep's points: with and
 *  without the saturation stop (which truncates mid-grid, across gang
 *  and wave boundaries), with metrics observers (which make every
 *  point run alone), on a batchable and a non-batchable config. */
TEST(RunnerEquivalence, SweepIdenticalInEveryMode)
{
    struct Variant {
        bool stop;
        bool metrics;
    };
    for (const char *config : {"Optical4", "Electrical2"}) {
        for (const Variant v : {Variant{false, false}, Variant{true, false},
                                Variant{true, true}}) {
            // Short windows, and a grid that runs past saturation so
            // the stop cuts it mid-grid.
            SweepConfig sc = smallSweep(1);
            sc.rates = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7};
            sc.warmupCycles = 100;
            sc.measureCycles = 400;
            sc.stopAtSaturation = v.stop;
            sc.collectMetrics = v.metrics;
            sc.batch = 1;
            const auto ref = runSweep(makeConfig(config), sc);
            ASSERT_FALSE(ref.empty());
            if (v.stop) {
                // The stop must actually cut the grid short.
                EXPECT_LT(ref.size(), sc.rates.size()) << config;
                EXPECT_TRUE(ref.back().result.saturated) << config;
            }
            if (v.metrics && std::string(config) == "Optical4") {
                EXPECT_FALSE(mergedMetrics(ref).counterNames().empty());
            }
            for (const RunnerMode m : kRunnerModes) {
                SCOPED_TRACE(::testing::Message()
                             << config << " stop=" << v.stop
                             << " metrics=" << v.metrics
                             << " threads=" << m.threads
                             << " batch=" << m.batch);
                sc.threads = m.threads;
                sc.batch = m.batch;
                expectIdenticalPoints(ref,
                                      runSweep(makeConfig(config), sc));
            }
        }
    }
}

TEST(RunnerEquivalence, FaultSweepIdenticalInEveryMode)
{
    FaultSweepConfig cfg;
    cfg.params.meshWidth = 4;
    cfg.params.meshHeight = 4;
    cfg.sweepField = "missedReceiveRate";
    cfg.rates = {0.0, 0.1, 0.2, 0.3, 0.4};
    cfg.broadcastFraction = 0.2;
    cfg.measureCycles = 300;
    cfg.threads = 1;
    cfg.batch = 1;
    const std::string ref = faultSweepToJson(cfg, runFaultSweep(cfg));
    for (const RunnerMode m : kRunnerModes) {
        SCOPED_TRACE(::testing::Message() << "threads=" << m.threads
                                          << " batch=" << m.batch);
        cfg.threads = m.threads;
        cfg.batch = m.batch;
        EXPECT_EQ(ref, faultSweepToJson(cfg, runFaultSweep(cfg)));
    }
}

TEST(RunnerEquivalence, ExperimentIdenticalInEveryMode)
{
    ExperimentSpec spec = smallExperiment();
    spec.threads = 1;
    spec.batch = 1;
    const auto ref = runExperiment(spec);
    for (const RunnerMode m : kRunnerModes) {
        SCOPED_TRACE(::testing::Message() << "threads=" << m.threads
                                          << " batch=" << m.batch);
        spec.threads = m.threads;
        spec.batch = m.batch;
        expectIdenticalRuns(ref, runExperiment(spec));
    }
}

} // namespace
} // namespace phastlane::sim
