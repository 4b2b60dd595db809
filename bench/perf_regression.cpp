/**
 * @file
 * Simulator performance regression harness (not a paper artifact).
 *
 * Measures:
 *   1. PhastlaneNetwork::step() throughput (cycles/sec and
 *      node-cycles/sec) under the micro_router_step uniform-random
 *      workload, exercising the bit-plane wavefront hot path. The
 *      serial metric is taken on process CPU time
 *      (CLOCK_PROCESS_CPUTIME_ID), best of --step-reps repetitions, so
 *      background load on the measuring machine cannot fake a
 *      regression (or hide one).
 *   2. sweep wall-clock at 1, 2, 4 and 8 simulation threads over a
 *      fixed (non-early-exit) rate grid, exercising the parallel
 *      dispatch in runSweep(). Each point records its speedup over
 *      the 1-thread run and its parallel efficiency, normalized by
 *      the attainable speedup min(threads, hardware_concurrency) so a
 *      2-core CI box is not asked to show an 8x speedup.
 *
 * Emits BENCH_perf.json (override with --out <path>) so the perf
 * trajectory is tracked across PRs; --quick shrinks the workload for
 * CI smoke runs.
 *
 * With --baseline <path> the harness becomes a gate. It fails
 * (without touching --out) when:
 *   - step_cycles_per_sec falls below --gate-ratio (default 0.70) of
 *     the baseline value, or
 *   - min_parallel_efficiency falls below --eff-floor (default 0.40),
 *     or below --gate-ratio of the baseline's recorded efficiency
 *     (schema-2 baselines only; schema-1 baselines carry no
 *     efficiency and gate on throughput alone).
 * A missing baseline is reported and skipped, not failed, so fresh
 * checkouts still run.
 *
 * The gate never rewrites the baseline implicitly: refreshing the
 * committed BENCH_perf.json requires the explicit --update-baseline
 * flag, which copies this run's results over the baseline path only
 * after the gate has passed.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "core/network.hpp"
#include "sim/configs.hpp"
#include "sim/sweep.hpp"
#include "traffic/patterns.hpp"

using namespace phastlane;
using namespace phastlane::sim;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Process CPU seconds (immune to other processes on the machine). */
double
cpuSeconds()
{
#if defined(CLOCK_PROCESS_CPUTIME_ID)
    timespec ts{};
    if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    }
#endif
    return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

/** step() CPU-time throughput under Bernoulli uniform-random load
 *  on the default 8x8 mesh. */
double
stepThroughput(uint64_t cycles, double rate)
{
    core::PhastlaneNetwork net(core::PhastlaneParams{});
    Rng rng(7);
    PacketId id = 1;
    const double start = cpuSeconds();
    for (uint64_t c = 0; c < cycles; ++c) {
        for (NodeId n = 0; n < net.nodeCount(); ++n) {
            if (rng.bernoulli(rate)) {
                Packet p;
                p.id = id++;
                p.src = n;
                p.dst = traffic::destination(
                    traffic::Pattern::UniformRandom, n, net.mesh(),
                    rng);
                p.createdAt = net.now();
                net.inject(p);
            }
        }
        net.step();
    }
    const double secs = cpuSeconds() - start;
    return secs > 0.0 ? static_cast<double>(cycles) / secs : 0.0;
}

/** Wall-clock of one fixed-size sweep at the given thread count. */
double
sweepSeconds(const SweepConfig &base, int threads)
{
    SweepConfig sc = base;
    sc.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    const auto pts = runSweep(makeConfig("Optical4"), sc);
    const double secs = secondsSince(start);
    if (pts.size() != base.rates.size())
        std::fprintf(stderr,
                     "warning: sweep truncated (%zu/%zu points)\n",
                     pts.size(), base.rates.size());
    return secs;
}

/** One measurement point of the thread-scaling curve. */
struct ScalePoint {
    int threads = 1;
    double seconds = 0.0;
    double speedup = 0.0;
    double expectedSpeedup = 1.0;
    double efficiency = 0.0;
};

/**
 * Numeric value following "<key>": in a perf JSON, or @p fallback.
 * Tolerant by design: it reads both the schema-1 files committed
 * before the thread sweep existed and the current schema-2 files.
 */
double
readBaselineKey(const std::string &path, const std::string &key,
                double fallback)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return fallback;
    std::string text(1 << 16, '\0');
    const size_t n = std::fread(text.data(), 1, text.size(), f);
    std::fclose(f);
    text.resize(n);
    const std::string quoted = "\"" + key + "\":";
    const size_t pos = text.find(quoted);
    if (pos == std::string::npos)
        return fallback;
    return std::atof(text.c_str() + pos + quoted.size());
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::BenchOptions::parse(argc, argv);
    const std::string out =
        opts.raw.getString("out", "BENCH_perf.json");
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

    // 1. Single-thread step() throughput (the hot-path metric), best
    // of several repetitions on process CPU time.
    const uint64_t warm_cycles = opts.quick ? 500 : 2000;
    const uint64_t cycles = opts.quick ? 2000 : 20000;
    const double rate = 0.10;
    const int reps = static_cast<int>(
        opts.raw.getInt("step-reps", opts.quick ? 2 : 3));
    stepThroughput(warm_cycles, rate); // warm caches/allocator
    std::vector<double> step_runs;
    double steps_per_sec = 0.0;
    for (int r = 0; r < std::max(1, reps); ++r) {
        const double run = stepThroughput(cycles, rate);
        step_runs.push_back(run);
        steps_per_sec = std::max(steps_per_sec, run);
    }
    std::printf("step() throughput: %.0f cycles/sec "
                "(%.2fM node-cycles/sec, rate %.2f, %llu cycles, "
                "best of %zu, CPU time)\n",
                steps_per_sec, steps_per_sec * 64 / 1e6, rate,
                static_cast<unsigned long long>(cycles),
                step_runs.size());

    // 2. Sweep wall-clock scaling over a fixed 1/2/4/8 thread ladder.
    SweepConfig sc;
    sc.pattern = traffic::Pattern::UniformRandom;
    sc.warmupCycles = opts.quick ? 200 : 1000;
    sc.measureCycles = opts.quick ? 800 : 4000;
    sc.seed = opts.seed;
    sc.stopAtSaturation = false; // constant work per thread count
    {
        const int points = opts.quick ? 8 : 16;
        for (int i = 1; i <= points; ++i)
            sc.rates.push_back(0.28 * i / points);
    }

    const std::vector<int> thread_counts = {1, 2, 4, 8};
    std::vector<ScalePoint> sweep;
    double serial_secs = 0.0;
    double min_eff = 1.0;
    for (int t : thread_counts) {
        ScalePoint pt;
        pt.threads = t;
        pt.seconds = sweepSeconds(sc, t);
        if (t == 1)
            serial_secs = pt.seconds;
        pt.speedup =
            pt.seconds > 0.0 ? serial_secs / pt.seconds : 0.0;
        pt.expectedSpeedup =
            static_cast<double>(std::min<unsigned>(
                static_cast<unsigned>(t), hw));
        pt.efficiency = pt.speedup / pt.expectedSpeedup;
        min_eff = std::min(min_eff, pt.efficiency);
        sweep.push_back(pt);
        std::printf("sweep wall-clock @ %2d threads: %7.3f s "
                    "(speedup %.2fx, efficiency %.2f of %.0fx "
                    "attainable)\n",
                    t, pt.seconds, pt.speedup, pt.efficiency,
                    pt.expectedSpeedup);
    }

    // Gate before writing: a failing run must not refresh the
    // baseline it just failed against.
    const std::string baseline = opts.raw.getString("baseline", "");
    if (!baseline.empty()) {
        const double base_step =
            readBaselineKey(baseline, "step_cycles_per_sec", -1.0);
        if (base_step <= 0.0) {
            std::printf("[no usable baseline at %s, gate skipped]\n",
                        baseline.c_str());
        } else {
            const double ratio =
                opts.raw.getDouble("gate-ratio", 0.70);
            std::printf("gate: %.0f cycles/sec vs baseline %.0f "
                        "(%.0f%%, floor %.0f%%)\n",
                        steps_per_sec, base_step,
                        100.0 * steps_per_sec / base_step,
                        100.0 * ratio);
            if (steps_per_sec < base_step * ratio) {
                std::fprintf(stderr,
                             "FAIL: step() throughput regressed "
                             "below %.0f%% of baseline\n",
                             100.0 * ratio);
                return 1;
            }
            // Parallel-efficiency leg: absolute floor plus relative
            // regression against a schema-2 baseline (schema-1 files
            // recorded no efficiency; their sentinel skips the
            // relative check, not the absolute one).
            const double eff_floor =
                opts.raw.getDouble("eff-floor", 0.40);
            const double base_eff = readBaselineKey(
                baseline, "min_parallel_efficiency", -1.0);
            const double eff_need =
                base_eff > 0.0
                    ? std::max(eff_floor, base_eff * ratio)
                    : eff_floor;
            std::printf("gate: min parallel efficiency %.2f "
                        "(floor %.2f%s)\n",
                        min_eff, eff_need,
                        base_eff > 0.0 ? ", baseline-relative" : "");
            if (min_eff < eff_need) {
                std::fprintf(stderr,
                             "FAIL: parallel efficiency %.2f fell "
                             "below floor %.2f\n",
                             min_eff, eff_need);
                return 1;
            }
        }
    }

    const auto writeJson = [&](const std::string &path) -> bool {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return false;
        }
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"schema\": 2,\n");
        std::fprintf(f, "  \"quick\": %s,\n",
                     opts.quick ? "true" : "false");
        std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
        std::fprintf(f, "  \"step_cycles_per_sec\": %.1f,\n",
                     steps_per_sec);
        std::fprintf(f, "  \"step_node_cycles_per_sec\": %.1f,\n",
                     steps_per_sec * 64);
        std::fprintf(f, "  \"step_runs\": [");
        for (size_t i = 0; i < step_runs.size(); ++i)
            std::fprintf(f, "%s%.1f", i ? ", " : "", step_runs[i]);
        std::fprintf(f, "],\n");
        std::fprintf(f, "  \"min_parallel_efficiency\": %.3f,\n",
                     min_eff);
        std::fprintf(f, "  \"sweep\": [\n");
        for (size_t i = 0; i < sweep.size(); ++i) {
            const ScalePoint &pt = sweep[i];
            std::fprintf(
                f,
                "    {\"threads\": %d, \"seconds\": %.4f, "
                "\"speedup\": %.3f, \"expected_speedup\": %.0f, "
                "\"efficiency\": %.3f}%s\n",
                pt.threads, pt.seconds, pt.speedup,
                pt.expectedSpeedup, pt.efficiency,
                i + 1 < sweep.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("[perf json written to %s]\n", path.c_str());
        return true;
    };

    if (!writeJson(out))
        return 1;

    // Baseline refresh is opt-in only: a gate run must never rewrite
    // the baseline it just measured against as a side effect.
    if (opts.raw.getBool("update-baseline", false)) {
        if (baseline.empty()) {
            std::fprintf(stderr,
                         "--update-baseline requires --baseline\n");
            return 1;
        }
        if (baseline != out && !writeJson(baseline))
            return 1;
        std::printf("[baseline refreshed at %s]\n", baseline.c_str());
    }
    return 0;
}
