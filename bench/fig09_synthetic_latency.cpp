/**
 * @file
 * Figure 9: average packet latency versus injection rate for the four
 * synthetic patterns (Bit Comp, Bit Reverse, Shuffle, Transpose) on
 * the optical 4/5/8-hop networks and the 2/3-cycle electrical
 * baselines.
 *
 * Expected shape (paper): the optical curves sit ~5-10X below the
 * electrical ones at low load with equal or slightly better
 * saturation bandwidth, and the 4/5/8-hop curves nearly overlap.
 */

#include "bench_util.hpp"
#include "sim/sweep.hpp"

using namespace phastlane;
using namespace phastlane::sim;

int
main(int argc, char **argv)
{
    const auto opts = bench::BenchOptions::parse(argc, argv);

    std::vector<double> rates;
    if (opts.quick)
        rates = {0.02, 0.10, 0.20, 0.30};
    else
        rates = {0.01, 0.02, 0.05, 0.08, 0.10, 0.15, 0.20, 0.25,
                 0.30, 0.35, 0.40};

    const traffic::Pattern patterns[] = {
        traffic::Pattern::BitComplement,
        traffic::Pattern::BitReverse, traffic::Pattern::Shuffle,
        traffic::Pattern::Transpose};

    for (traffic::Pattern pat : patterns) {
        TextTable t({"config", "rate [pkt/node/cyc]",
                     "avg latency [cyc]", "accepted",
                     "saturated"});
        std::string sat_summary;
        for (const NetConfig &cfg : fig9Configs()) {
            SweepConfig sc;
            sc.pattern = pat;
            sc.rates = rates;
            sc.warmupCycles = opts.quick ? 300 : 1000;
            sc.measureCycles = opts.quick ? 1500 : 4000;
            sc.seed = opts.seed;
            // The sweep points fan out across cores; results are
            // identical to a serial sweep (see common/parallel.hpp).
            sc.threads = opts.threads;
            const auto pts = runSweep(cfg, sc);
            for (const auto &pt : pts) {
                t.addRow({cfg.name,
                          TextTable::num(pt.injectionRate, 3),
                          TextTable::num(pt.result.avgLatency, 1),
                          TextTable::num(pt.result.acceptedRate, 4),
                          pt.result.saturated ? "yes" : "no"});
            }
            sat_summary += cfg.name + "=" +
                           TextTable::num(saturationThroughput(pts),
                                          3) + " ";
        }
        bench::emit(opts,
                    std::string("Fig 9: latency vs injection rate, ") +
                        traffic::patternName(pat),
                    t, traffic::patternName(pat));
        std::printf("saturation throughput: %s\n",
                    sat_summary.c_str());
    }
    return 0;
}
