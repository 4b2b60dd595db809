/**
 * @file
 * mesh32_uniform: open-loop Bernoulli uniform-random traffic on a
 * 32x32 Optical4 mesh (the Fig 9 methodology at 16x the paper's router
 * count), at a light load and at the knee just below saturation,
 * driven by SyntheticDriver on the library's default step() engine.
 * Step dominates the wall time here and the per-router working set is
 * 16x that of 8x8, so this is where a step-engine change shows first.
 * It never touches the electrical network, the PLTR codec or the
 * server.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/network.hpp"
#include "sim/configs.hpp"
#include "trace.hpp"
#include "traffic/synthetic.hpp"

using namespace phastlane;

namespace perfbench {

namespace {

constexpr int kMeshSide = 32;
constexpr int kNodes = kMeshSide * kMeshSide;

struct Point {
    const char *name;
    double rate; ///< packets/node/cycle
};
constexpr Point kPoints[] = {{"light", 0.02}, {"knee", 0.10}};

constexpr Cycle kWarmupCycles = 200;
constexpr Cycle kMeasureCycles = 600;
constexpr Cycle kMaxDrainCycles = 5000;

core::PhastlaneParams
meshParams(uint64_t seed, core::WavefrontModel wavefront)
{
    const auto base = sim::makeConfig("Optical4").make(seed);
    core::PhastlaneParams p =
        dynamic_cast<const core::PhastlaneNetwork &>(*base).params();
    p.meshWidth = kMeshSide;
    p.meshHeight = kMeshSide;
    p.wavefront = wavefront;
    return p;
}

traffic::SyntheticConfig
pointConfig(const Point &pt, uint64_t seed, size_t index)
{
    traffic::SyntheticConfig cfg;
    cfg.pattern = traffic::Pattern::UniformRandom;
    cfg.injectionRate = pt.rate;
    cfg.warmupCycles = kWarmupCycles;
    cfg.measureCycles = kMeasureCycles;
    cfg.maxDrainCycles = kMaxDrainCycles;
    cfg.seed = seed * 1000003ull + index;
    return cfg;
}

/** One rate point's outcome. */
struct PointRun {
    traffic::SyntheticResult result;
    Cycle cycles = 0;
    NetworkCounters counters;
    core::PhastlaneCounters pl;
    bool drained = false;
    double buildS = 0.0; ///< network construction, the set-up cost
};

/** Accepted rate, latencies and counters of a point. */
std::string
pointDigest(const PointRun &r)
{
    const traffic::SyntheticResult &s = r.result;
    return digestOf(format(
        "%.17g %.17g %.17g %.17g %.17g %llu %d %llu | %llu %llu %llu | "
        "%llu %llu %llu %llu %llu",
        s.offeredRate, s.acceptedRate, s.avgLatency, s.avgNetLatency,
        s.p99Latency, static_cast<unsigned long long>(s.measuredPackets),
        s.saturated ? 1 : 0, static_cast<unsigned long long>(r.cycles),
        static_cast<unsigned long long>(r.counters.messagesAccepted),
        static_cast<unsigned long long>(r.counters.packetsInjected),
        static_cast<unsigned long long>(r.counters.deliveries),
        static_cast<unsigned long long>(r.pl.drops),
        static_cast<unsigned long long>(r.pl.retransmissions),
        static_cast<unsigned long long>(r.pl.blockedBuffered),
        static_cast<unsigned long long>(r.pl.interimAccepts),
        static_cast<unsigned long long>(r.pl.launches)));
}

/** Host-time split of one traced point. */
struct PointLayers {
    LayerTotals core;
    uint64_t cycles = 0;
    int64_t syntheticSelfNs = 0;
};

/** Simulated cycles per timing window of the untraced timed path. */
constexpr Cycle kWindowCycles = 8;

/**
 * Run one rate point on a fresh network. With a tracer the network
 * sits behind a TimedNetwork and the driver is stepped by hand so its
 * preStep/postStep show as traffic spans. With @p windows the driver
 * is stepped by hand on the bare network and the host time of every
 * kWindowCycles cycles is appended there. Otherwise it is
 * SyntheticDriver::run() on the bare network.
 */
PointRun
runPoint(const core::PhastlaneParams &params,
         const traffic::SyntheticConfig &cfg, Tracer *tr,
         PointLayers *layers, std::vector<double> *windows = nullptr)
{
    const double b0 = nowSec();
    core::PhastlaneNetwork net(params);
    PointRun run;
    run.buildS = nowSec() - b0;
    if (tr) {
        TimedNetwork timed(net, *tr);
        traffic::SyntheticDriver driver(timed, cfg);
        const int pre = tr->intern("traffic.synthetic.preStep", true);
        const int post = tr->intern("traffic.synthetic.postStep", true);
        driver.begin();
        while (!driver.done()) {
            tr->begin(pre);
            driver.preStep();
            layers->syntheticSelfNs += tr->end();
            timed.step();
            tr->begin(post);
            driver.postStep();
            layers->syntheticSelfNs += tr->end();
        }
        run.result = driver.finish();
        layers->core.add(timed);
        layers->core.add(net.phastlaneCounters());
        layers->cycles = timed.steps;
        layers->syntheticSelfNs -= timed.injectNs;
    } else if (windows) {
        traffic::SyntheticDriver driver(net, cfg);
        driver.begin();
        int64_t t0 = nowNs();
        Cycle n = 0;
        while (!driver.done()) {
            driver.preStep();
            net.step();
            driver.postStep();
            if (++n % kWindowCycles == 0 || driver.done()) {
                const int64_t t1 = nowNs();
                windows->push_back(static_cast<double>(t1 - t0) * 1e-9);
                t0 = t1;
            }
        }
        run.result = driver.finish();
    } else {
        traffic::SyntheticDriver driver(net, cfg);
        run.result = driver.run();
    }
    run.cycles = net.now();
    run.counters = net.counters();
    run.pl = net.phastlaneCounters();
    run.drained = net.inFlight() == 0;
    return run;
}

/** A point fails on a wrong digest (counted by the caller), on
 *  saturation (the load is meant to sit below the knee) or when the
 *  drain timed out with packets still in flight. */
uint64_t
checkPoint(const PointRun &r, const char *name, Result &res)
{
    if (!r.result.saturated && r.drained)
        return 0;
    res.note(format("point %s: saturated=%d drained=%d", name,
                    r.result.saturated ? 1 : 0, r.drained ? 1 : 0));
    return 1;
}

Result
runTraced(const Options &opt)
{
    Result res;
    const core::PhastlaneParams params =
        meshParams(opt.seed, core::PhastlaneParams{}.wavefront);

    // Untraced pass: reference digests and the untraced wall.
    DigestMap ref;
    const double u0 = nowSec();
    for (size_t i = 0; i < std::size(kPoints); ++i) {
        const PointRun r = runPoint(
            params, pointConfig(kPoints[i], opt.seed, i), nullptr, nullptr);
        ref[kPoints[i].name] = pointDigest(r);
    }
    const double untraced_s = nowSec() - u0;

    Tracer tr(opt.workload);
    DigestMap got;
    PointLayers layers[std::size(kPoints)];
    LayerTotals core;
    tr.begin(tr.intern("bench.mesh32_uniform"));
    for (size_t i = 0; i < std::size(kPoints); ++i) {
        Scope point(&tr, std::string("sim.point.") + kPoints[i].name);
        const PointRun r =
            runPoint(params, pointConfig(kPoints[i], opt.seed, i), &tr,
                     &layers[i]);
        got[kPoints[i].name] = pointDigest(r);
        if (const uint64_t f = checkPoint(r, kPoints[i].name, res))
            res.fail(f, "point saturated or did not drain");
        core.add(layers[i].core);
    }
    const double traced_s = static_cast<double>(tr.end()) * 1e-9;

    res.attempted = std::size(kPoints);
    if (const uint64_t bad = countMismatches(opt, got, &ref, res))
        res.fail(bad, "traced points differ from untraced");

    const auto d = [](auto v) { return static_cast<double>(v); };
    for (size_t i = 0; i < std::size(kPoints); ++i) {
        const PointLayers &l = layers[i];
        res.add(std::string("core.step_ns_per_node_cycle.") +
                    kPoints[i].name,
                ratio(d(l.core.stepNs), d(l.core.nodeCycles)),
                "ns/node-cycle");
        res.add(std::string("traffic.synthetic_ns_per_cycle.") +
                    kPoints[i].name,
                ratio(d(l.syntheticSelfNs), d(l.cycles)), "ns/cycle");
    }
    addCoreMetrics(res, core);
    finishTrace(tr, opt, {"core", "traffic", "sim"}, traced_s, untraced_s,
                res);
    return res;
}

} // namespace

Result
runMesh32Uniform(const Options &opt)
{
    if (opt.trace)
        return runTraced(opt);
    Result res;
    const core::PhastlaneParams params =
        meshParams(opt.seed, core::PhastlaneParams{}.wavefront);

    // Every repetition of a point does identical work (same seed), so
    // each window of kWindowCycles cycles is timed on its own and its
    // fastest repetition counts. Interference from other tenants of a
    // shared host only ever slows a window down and comes in bursts;
    // the per-window minimum over the run tracks the program's own
    // speed far more steadily than any whole-sweep statistic.
    constexpr size_t kN = std::size(kPoints);
    std::vector<double> setup;
    std::vector<DigestMap> reps;
    std::vector<double> point_s[kN];
    std::vector<double> best_window[kN];
    double node_cycles[kN] = {};
    double records[kN] = {};
    const double start = nowSec();
    do {
        DigestMap d;
        for (size_t i = 0; i < kN; ++i) {
            std::vector<double> windows;
            const double t0 = nowSec();
            const PointRun r = runPoint(
                params, pointConfig(kPoints[i], opt.seed, i), nullptr,
                nullptr, &windows);
            point_s[i].push_back(nowSec() - t0);
            if (!keepFastest(best_window[i], windows))
                res.fail(1, "a repetition ran a different cycle count");
            d[kPoints[i].name] = pointDigest(r);
            setup.push_back(r.buildS);
            node_cycles[i] = static_cast<double>(r.cycles) * kNodes;
            records[i] = static_cast<double>(r.counters.messagesAccepted);
            res.attempted += 1;
            if (const uint64_t f = checkPoint(r, kPoints[i].name, res))
                res.fail(f, "point saturated or did not drain");
        }
        reps.push_back(std::move(d));
    } while (nowSec() - start < opt.seconds);
    const double rss = selfPeakRssMb();

    // Reference: the scalar FCFS engine, bit-identical to the default
    // engine by design, outside the timed region.
    const core::PhastlaneParams scalar =
        meshParams(opt.seed, core::WavefrontModel::SubstepFcfs);
    DigestMap ref;
    for (size_t i = 0; i < std::size(kPoints); ++i) {
        const PointRun r = runPoint(
            scalar, pointConfig(kPoints[i], opt.seed, i), nullptr, nullptr);
        ref[kPoints[i].name] = pointDigest(r);
    }
    emitDigests(opt, ref);
    for (size_t i = 0; i < reps.size(); ++i) {
        if (const uint64_t bad = countMismatches(opt, reps[i], &ref, res))
            res.fail(bad, format("rep %zu: points differ", i));
    }

    res.add("setup_s", median(setup), "s");
    double best_s = 0.0;
    double all_cycles = 0.0;
    double all_records = 0.0;
    for (size_t i = 0; i < kN; ++i) {
        double best = 0.0;
        for (const double w : best_window[i])
            best += w;
        best_s += best;
        all_cycles += node_cycles[i];
        all_records += records[i];
        res.note(format("point %s (%.2f packets/node/cycle): %.0f "
                        "router-cycles; per-window best %.1f ms; whole "
                        "point median %.1f ms, worst %.1f ms",
                        kPoints[i].name, kPoints[i].rate, node_cycles[i],
                        best * 1e3, median(point_s[i]) * 1e3,
                        *std::max_element(point_s[i].begin(),
                                          point_s[i].end()) *
                            1e3));
    }
    res.add("node_cycles_per_s", all_cycles / best_s, "router-cycles/s");
    res.add("records_per_s", all_records / best_s, "records/s");
    res.add("peak_rss_mb", rss, "MB");
    res.note(format("%zu sweeps of %zu rate points on a %dx%d mesh; "
                    "throughput = the sweep's work over the sum of the "
                    "fastest repetition of each %llu-cycle window",
                    reps.size(), kN, kMeshSide, kMeshSide,
                    static_cast<unsigned long long>(kWindowCycles)));
    return res;
}

} // namespace perfbench
