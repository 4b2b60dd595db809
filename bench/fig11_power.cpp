/**
 * @file
 * Figure 11: network power of the optical configurations and the
 * electrical baselines on the SPLASH2-like workloads.
 *
 * Expected shape (paper): the four- and five-hop optical networks use
 * at least 70% less power than the electrical baseline on every
 * benchmark (~80% overall); the eight-hop network's transmit (laser)
 * power rises sharply; larger buffers add power.
 */

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "sim/configs.hpp"
#include "traffic/coherence.hpp"
#include "traffic/splash.hpp"

using namespace phastlane;
using namespace phastlane::sim;
using namespace phastlane::traffic;

int
main(int argc, char **argv)
{
    const auto opts = bench::BenchOptions::parse(argc, argv);
    const auto configs = standardConfigs();

    TextTable t({"benchmark", "config", "total [W]", "vs Elec3",
                 "buffers [W]", "laser [W]", "modulator [W]",
                 "receiver [W]", "xbar+link [W]", "static [W]"});

    double saving_sum = 0.0;
    int saving_count = 0;

    for (auto prof : splashSuite()) {
        if (opts.quick)
            prof.txnsPerNode = 60;
        const auto streams = generateStreams(prof, 64, opts.seed);

        // Every configuration replays the identical stream, so the
        // whole row of power models runs in parallel; the baseline's
        // result is picked out afterwards.
        std::vector<power::PowerBreakdown> results(configs.size());
        parallelFor(
            configs.size(),
            [&](size_t i) {
                auto net = configs[i].make(1);
                CoherenceDriver driver(*net, streams,
                                       prof.mshrLimit);
                const CoherenceResult r = driver.run();
                results[i] = configs[i].power(
                    *net,
                    r.completionCycles ? r.completionCycles : 1);
            },
            opts.threads);

        double base_w = 0.0;
        for (size_t i = 0; i < configs.size(); ++i) {
            if (configs[i].name == "Electrical3")
                base_w = results[i].totalW;
        }
        for (size_t i = 0; i < configs.size(); ++i) {
            const NetConfig &cfg = configs[i];
            if (cfg.name == "Electrical3") {
                t.addRow({prof.name, cfg.name,
                          TextTable::num(base_w, 1), "0%", "-", "-",
                          "-", "-", "-", "-"});
                continue;
            }
            const auto &p = results[i];
            const double rel =
                base_w > 0.0 ? 1.0 - p.totalW / base_w : 0.0;
            if (cfg.name == "Optical4" && base_w > 0.0) {
                saving_sum += rel;
                ++saving_count;
            }
            t.addRow({prof.name, cfg.name,
                      TextTable::num(p.totalW, 1),
                      base_w > 0.0
                          ? TextTable::num(100.0 * rel, 0) + "%"
                          : "-",
                      TextTable::num(p.bufferDynamicW +
                                         p.bufferLeakageW, 1),
                      TextTable::num(p.laserW, 1),
                      TextTable::num(p.modulatorW, 1),
                      TextTable::num(p.receiverW, 1),
                      TextTable::num(p.crossbarW + p.linkW, 1),
                      TextTable::num(p.staticW, 1)});
        }
        std::printf("[%s done]\n", prof.name.c_str());
        std::fflush(stdout);
    }

    bench::emit(opts, "Fig 11: network power by configuration", t);
    std::printf("\nOptical4 mean power saving vs Electrical3: %.0f%% "
                "(paper headline: ~80%%)\n",
                100.0 * saving_sum / saving_count);
    return 0;
}
