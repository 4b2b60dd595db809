/**
 * @file
 * splash_campaign: the Fig 10/11 grid -- all ten splashSuite()
 * profiles x the eight standardConfigs() -- through sim::runExperiment
 * with one simulation thread, so the batch-eligible optical cells run
 * as one gang (DESIGN.md §13) and the electrical cells per instance.
 * Closed loop in simulated time: the MSHR-limited CoherenceDriver
 * issues a node's next transaction only when a miss slot frees.
 *
 * The traced run replays the grid cell by cell through TimedNetwork so
 * host time splits into core / electrical (step, inject), traffic
 * (driver preStep/postStep self time) and sim (cell bookkeeping); it
 * also times the optical cells per instance against the gang.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/network.hpp"
#include "sim/configs.hpp"
#include "sim/experiment.hpp"
#include "trace.hpp"
#include "traffic/coherence.hpp"
#include "traffic/splash.hpp"

using namespace phastlane;

namespace perfbench {

namespace {

/** Transactions per node: the profiles' 300 scaled down so one grid
 *  takes a couple of host seconds and a run measures several. */
constexpr int kTxnsPerNode = 12;

/** Set-up samples taken before each campaign run (setup_s is the
 *  median over the whole run, so host drift during the run averages
 *  out). */
constexpr int kSetupReps = 3;

constexpr int kNodes = 64;

std::vector<std::string>
configNames(bool optical_only)
{
    std::vector<std::string> names;
    for (const auto &c : sim::standardConfigs()) {
        if (!optical_only || c.optical)
            names.push_back(c.name);
    }
    return names;
}

sim::ExperimentSpec
makeSpec(uint64_t seed, bool optical_only, int batch)
{
    sim::ExperimentSpec spec;
    spec.configs = configNames(optical_only);
    spec.benchmarks = traffic::splashSuite();
    spec.txnsPerNode = kTxnsPerNode;
    spec.seed = seed;
    spec.threads = 1;
    spec.batch = batch;
    return spec;
}

/** The per-benchmark inputs runExperiment generates internally. */
struct Inputs {
    std::vector<traffic::SplashProfile> profiles;
    std::vector<std::vector<std::vector<traffic::Txn>>> streams;
};

Inputs
makeInputs(uint64_t seed)
{
    Inputs in;
    in.profiles = traffic::splashSuite();
    for (auto &p : in.profiles) {
        p.txnsPerNode = kTxnsPerNode;
        in.streams.push_back(traffic::generateStreams(p, kNodes, seed));
    }
    return in;
}

std::string
cellKey(const sim::BenchmarkRun &r)
{
    return r.benchmark + "/" + r.config;
}

/** Completion cycles, message latency, drops and power of a cell. */
std::string
cellDigest(const sim::BenchmarkRun &r)
{
    const traffic::CoherenceResult &c = r.result;
    return digestOf(format(
        "%llu %llu %llu %llu %.17g %.17g %.17g %.17g %d %llu %.17g",
        static_cast<unsigned long long>(c.completionCycles),
        static_cast<unsigned long long>(c.transactions),
        static_cast<unsigned long long>(c.broadcasts),
        static_cast<unsigned long long>(c.unicasts), c.avgLatency,
        c.avgMessageLatency, c.avgRequestLatency, c.avgRoundTrip,
        c.timedOut ? 1 : 0, static_cast<unsigned long long>(r.drops),
        r.power.totalW));
}

DigestMap
digestsOf(const std::vector<sim::BenchmarkRun> &runs)
{
    DigestMap d;
    for (const auto &r : runs)
        d[cellKey(r)] = cellDigest(r);
    return d;
}

uint64_t
timedOutCells(const std::vector<sim::BenchmarkRun> &runs)
{
    return static_cast<uint64_t>(
        std::count_if(runs.begin(), runs.end(), [](const auto &r) {
            return r.result.timedOut;
        }));
}

/** Host-time totals of the traced per-instance pass. */
struct PassTotals {
    LayerTotals electrical;
    LayerTotals core;
    uint64_t cycles = 0;
};

/**
 * One grid cell run per instance, as runExperiment's non-batched path
 * does. With a tracer the network sits behind a TimedNetwork and the
 * driver is stepped by hand so its preStep/postStep show as traffic
 * spans; without one it is CoherenceDriver::run() on the bare network.
 */
sim::BenchmarkRun
runCell(const Inputs &in, size_t b, const std::string &config,
        uint64_t seed, Tracer *tr, PassTotals *tot)
{
    const sim::NetConfig cfg = sim::makeConfig(config);
    sim::BenchmarkRun run;
    run.benchmark = in.profiles[b].name;
    run.config = config;
    std::unique_ptr<Network> net;
    {
        Scope build(tr, cfg.optical ? "core.build" : "electrical.build");
        net = cfg.make(seed);
    }
    if (tr) {
        TimedNetwork timed(*net, *tr);
        traffic::CoherenceDriver driver(timed, in.streams[b],
                                        in.profiles[b].mshrLimit);
        const int pre = tr->intern("traffic.coherence.preStep", true);
        const int post = tr->intern("traffic.coherence.postStep", true);
        driver.begin();
        while (!driver.done()) {
            tr->begin(pre);
            driver.preStep();
            tr->end();
            timed.step();
            tr->begin(post);
            driver.postStep();
            tr->end();
        }
        run.result = driver.finish();
        (timed.optical() ? tot->core : tot->electrical).add(timed);
        tot->cycles += timed.steps;
    } else {
        traffic::CoherenceDriver driver(*net, in.streams[b],
                                        in.profiles[b].mshrLimit);
        run.result = driver.run();
    }
    run.power = cfg.power(*net, run.result.completionCycles
                                    ? run.result.completionCycles
                                    : 1);
    if (const auto *pl =
            dynamic_cast<const core::PhastlaneNetwork *>(net.get())) {
        run.drops = pl->phastlaneCounters().drops;
        if (tot)
            tot->core.add(pl->phastlaneCounters());
    }
    return run;
}

double
optical4MeanSpeedup(const sim::ExperimentSpec &spec,
                    const std::vector<sim::BenchmarkRun> &runs)
{
    double sum = 0.0;
    for (const auto &b : spec.benchmarks)
        sum += sim::speedupOf(runs, b.name, "Optical4", spec.baseline);
    return sum / static_cast<double>(spec.benchmarks.size());
}

/**
 * The reference: every cell per instance (no gangs), each in a forked
 * child, so a cell that panics the simulator counts as a failed
 * operation instead of ending the run. Returns whether every cell
 * completed; when not, the failure is recorded in @p res and nothing
 * should be timed (runExperiment would abort on the same inputs).
 */
bool
referenceCells(const Options &opt, const Inputs &in, DigestMap &ref,
               Result &res)
{
    const std::vector<std::string> configs = configNames(false);
    std::vector<std::string> crashed;
    for (size_t b = 0; b < in.profiles.size(); ++b) {
        for (const auto &config : configs) {
            const std::string digest = runIsolated([&] {
                return cellDigest(
                    runCell(in, b, config, opt.seed, nullptr, nullptr));
            });
            const std::string key = in.profiles[b].name + "/" + config;
            if (digest.empty())
                crashed.push_back(key);
            else
                ref[key] = digest;
        }
    }
    emitDigests(opt, ref);
    if (crashed.empty())
        return true;
    std::string list;
    for (const auto &k : crashed)
        list += " " + k;
    res.attempted = in.profiles.size() * configs.size();
    res.fail(crashed.size(),
             format("seed %llu: the simulator aborted in cell(s)%s, so "
                    "the campaign cannot run",
                    static_cast<unsigned long long>(opt.seed),
                    list.c_str()));
    return false;
}

Result
runTraced(const Options &opt)
{
    Result res;
    const Inputs in = makeInputs(opt.seed);
    const std::vector<std::string> configs = configNames(false);
    DigestMap isolated;
    if (!referenceCells(opt, in, isolated, res))
        return res;

    // (a) Untraced, per instance: per-config cell time and the
    //     reference digests.
    std::vector<sim::BenchmarkRun> plain;
    std::vector<double> cell_s(configs.size(), 0.0);
    double optical_instance_s = 0.0;
    const double a0 = nowSec();
    for (size_t b = 0; b < in.profiles.size(); ++b) {
        for (size_t c = 0; c < configs.size(); ++c) {
            const double t0 = nowSec();
            plain.push_back(
                runCell(in, b, configs[c], opt.seed, nullptr, nullptr));
            const double dt = nowSec() - t0;
            cell_s[c] += dt;
            if (sim::makeConfig(configs[c]).optical)
                optical_instance_s += dt;
        }
    }
    const double untraced_s = nowSec() - a0;

    // (b) Traced, per instance.
    Tracer tr(opt.workload);
    PassTotals tot;
    std::vector<sim::BenchmarkRun> traced;
    tr.begin(tr.intern("bench.splash_campaign"));
    for (size_t b = 0; b < in.profiles.size(); ++b) {
        for (const auto &config : configs) {
            Scope cell(&tr, "sim.cell." + config);
            traced.push_back(runCell(in, b, config, opt.seed, &tr, &tot));
        }
    }
    const double traced_s = static_cast<double>(tr.end()) * 1e-9;

    // (c) The optical cells as one gang, through runExperiment.
    const double g0 = nowSec();
    const auto gang = sim::runExperiment(makeSpec(opt.seed, true, 0));
    const double gang_s = nowSec() - g0;

    // Decorators must be transparent and the gang bit-identical to
    // the per-instance path.
    const DigestMap ref = digestsOf(plain);
    res.attempted = traced.size() + gang.size();
    if (const uint64_t bad = countMismatches(opt, digestsOf(traced),
                                             &ref, res))
        res.fail(bad, "traced per-instance cells differ");
    Options plain_opt = opt;
    plain_opt.expect = nullptr;
    if (const uint64_t bad =
            countMismatches(plain_opt, ref, &isolated, res))
        res.fail(bad, "in-process per-instance cells differ from the "
                      "isolated ones");
    DigestMap gang_ref;
    for (const auto &r : traced) {
        if (sim::makeConfig(r.config).optical)
            gang_ref[cellKey(r)] = cellDigest(r);
    }
    Options gang_opt = opt;
    gang_opt.expect = nullptr;
    if (const uint64_t bad = countMismatches(gang_opt, digestsOf(gang),
                                             &gang_ref, res))
        res.fail(bad, "gang cells differ from the traced per-instance "
                      "path");
    if (const uint64_t t = timedOutCells(traced))
        res.fail(t, "cells hit the cycle limit");

    const auto d = [](auto v) { return static_cast<double>(v); };
    addCoreMetrics(res, tot.core);
    res.add("electrical.step_ns_per_node_cycle",
            ratio(d(tot.electrical.stepNs), d(tot.electrical.nodeCycles)),
            "ns/node-cycle");
    res.add("electrical.inject_ns",
            ratio(d(tot.electrical.injectNs), d(tot.electrical.injects)),
            "ns");
    const int64_t coherence_self =
        tr.agg("traffic.coherence.preStep").selfNs +
        tr.agg("traffic.coherence.postStep").selfNs;
    res.add("traffic.coherence_ns_per_cycle",
            ratio(d(coherence_self), d(tot.cycles)), "ns/cycle");
    res.add("sim.gang_speedup", ratio(optical_instance_s, gang_s), "ratio");
    for (size_t c = 0; c < configs.size(); ++c)
        res.add("sim.cell_s." + configs[c], cell_s[c], "s");
    res.note(format("per-instance grid %.3f s untraced, %.3f s traced; "
                    "optical cells %.3f s per instance vs %.3f s as a "
                    "gang",
                    untraced_s, traced_s, optical_instance_s, gang_s));
    finishTrace(tr, opt, {"core", "electrical", "traffic", "sim"}, traced_s,
                untraced_s, res);
    return res;
}

} // namespace

Result
runSplashCampaign(const Options &opt)
{
    if (opt.trace)
        return runTraced(opt);
    Result res;
    const std::vector<std::string> configs = configNames(false);

    DigestMap ref;
    if (!referenceCells(opt, makeInputs(opt.seed), ref, res)) {
        res.add("setup_s", 0.0, "s");
        res.add("node_cycles_per_s", 0.0, "router-cycles/s");
        res.add("records_per_s", 0.0, "records/s");
        res.add("peak_rss_mb", 0.0, "MB");
        return res;
    }

    const sim::ExperimentSpec spec = makeSpec(opt.seed, false, 0);
    std::vector<std::vector<sim::BenchmarkRun>> reps;
    std::vector<double> wall;
    const double start = nowSec();
    std::vector<double> setup;
    do {
        // Set-up: what runExperiment does before its first cycle --
        // generate every benchmark's streams and build every network.
        for (int i = 0; i < kSetupReps; ++i) {
            const double t0 = nowSec();
            const Inputs in = makeInputs(opt.seed);
            std::vector<std::unique_ptr<Network>> nets;
            for (size_t b = 0; b < in.profiles.size(); ++b) {
                for (const auto &c : configs)
                    nets.push_back(sim::makeConfig(c).make(opt.seed));
            }
            setup.push_back(nowSec() - t0);
        }
        const double t0 = nowSec();
        reps.push_back(sim::runExperiment(spec));
        wall.push_back(nowSec() - t0);
    } while (nowSec() - start < opt.seconds);
    const double rss = selfPeakRssMb();

    std::vector<double> ncps;
    std::vector<double> rps;
    for (size_t i = 0; i < reps.size(); ++i) {
        const auto &runs = reps[i];
        res.attempted += runs.size();
        if (const uint64_t bad =
                countMismatches(opt, digestsOf(runs), &ref, res))
            res.fail(bad, format("rep %zu: cells differ", i));
        if (const uint64_t t = timedOutCells(runs))
            res.fail(t, format("rep %zu: cells hit the cycle limit", i));
        double node_cycles = 0.0;
        double records = 0.0;
        for (const auto &r : runs) {
            node_cycles +=
                static_cast<double>(r.result.completionCycles) * kNodes;
            records += static_cast<double>(r.result.broadcasts +
                                           r.result.unicasts);
        }
        ncps.push_back(node_cycles / wall[i]);
        rps.push_back(records / wall[i]);
    }

    res.add("setup_s", median(setup), "s");
    addMedian(res, "node_cycles_per_s", ncps, "router-cycles/s");
    addMedian(res, "records_per_s", rps, "records/s");
    res.add("peak_rss_mb", rss, "MB");

    double optical_cycles = 0.0;
    double electrical_cycles = 0.0;
    for (const auto &r : reps.front()) {
        (sim::makeConfig(r.config).optical ? optical_cycles
                                           : electrical_cycles) +=
            static_cast<double>(r.result.completionCycles) * kNodes;
    }
    res.note(format("%zu campaign runs of %zu cells (%d txns/node); a "
                    "campaign is %.0f optical + %.0f electrical "
                    "router-cycles; campaign wall median %.3f s",
                    reps.size(), reps.front().size(), kTxnsPerNode,
                    optical_cycles, electrical_cycles, median(wall)));
    res.note(format("Optical4 mean network speedup over Electrical3: "
                    "%.2fx (paper: ~2x). The SPLASH2 profiles are "
                    "synthetic; the model is unvalidated against real "
                    "SESC traces, so no error figure is given.",
                    optical4MeanSpeedup(spec, reps.front())));
    return res;
}

} // namespace perfbench
