/**
 * @file
 * Google-benchmark microbenchmarks of the two simulators' step()
 * throughput under uniform load -- useful for tracking simulator
 * performance regressions, not a paper artifact.
 */

#include <benchmark/benchmark.h>

#include "core/network.hpp"
#include "electrical/network.hpp"
#include "traffic/patterns.hpp"

namespace {

using namespace phastlane;

template <typename Net, typename Params>
void
stepUnderLoad(benchmark::State &state, Params params, double rate)
{
    Net net(params);
    Rng rng(7);
    PacketId id = 1;
    for (auto _ : state) {
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
        benchmark::DoNotOptimize(net.inFlight());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            net.nodeCount());
}

void
BM_PhastlaneStep(benchmark::State &state)
{
    core::PhastlaneParams p;
    stepUnderLoad<core::PhastlaneNetwork>(
        state, p, static_cast<double>(state.range(0)) / 100.0);
}

void
BM_ElectricalStep(benchmark::State &state)
{
    electrical::ElectricalParams p;
    stepUnderLoad<electrical::ElectricalNetwork>(
        state, p, static_cast<double>(state.range(0)) / 100.0);
}

} // namespace

BENCHMARK(BM_PhastlaneStep)->Arg(2)->Arg(10)->Arg(20);
// Arg(1) is light load, where most routers are idle and skip
// allocation.
BENCHMARK(BM_ElectricalStep)->Arg(1)->Arg(2)->Arg(10)->Arg(20);
