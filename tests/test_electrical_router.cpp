/**
 * @file
 * Direct unit tests of the electrical router's VC state, VC
 * allocation, and iSLIP switch allocation, plus a differential test
 * of the bitmask allocators against a sort-based reference.
 */

#include <gtest/gtest.h>
#include <algorithm>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "electrical/router.hpp"

/** Global operator new calls so far: the allocators must add none. */
static uint64_t g_heapAllocs = 0;

void *
operator new(std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace phastlane::electrical {
namespace {

class RouterFixture : public ::testing::Test
{
  protected:
    RouterFixture() : router_(0, params_) {}

    /** Place a flit into (port, vc) with a single branch toward
     *  @p out, arrived long enough ago for both stages. */
    void
    placeFlit(Port port, int vc, Port out, Cycle arrived = 0)
    {
        InputVc &ivc = router_.inputVc(port, vc);
        EFlit f;
        f.msg = std::make_shared<const Packet>();
        f.flitId = nextId_++;
        ivc.flit = f;
        ivc.arrivedAt = arrived;
        ivc.ejecting = false;
        ivc.pendingMesh =
            static_cast<uint8_t>(1u << portIndex(out));
        ivc.resetBranches();
    }

    ElectricalParams params_;
    ElectricalRouter router_;
    uint64_t nextId_ = 1;
};

TEST_F(RouterFixture, StageTimingMatchesRouterDelay)
{
    // routerDelay = 3: VA at arrival+1, SA at arrival+2.
    EXPECT_EQ(router_.vaStage(10), 11u);
    EXPECT_EQ(router_.saStage(10), 12u);
}

TEST_F(RouterFixture, FreeInputVcFindsTheGap)
{
    EXPECT_EQ(router_.freeInputVc(Port::Local), 0);
    placeFlit(Port::Local, 0, Port::East);
    EXPECT_EQ(router_.freeInputVc(Port::Local), 1);
}

TEST_F(RouterFixture, VaAssignsFreeOutputVc)
{
    placeFlit(Port::South, 0, Port::North);
    EXPECT_EQ(router_.allocateVcs(100), 1);
    const InputVc &ivc = router_.inputVc(Port::South, 0);
    const int out_vc = ivc.branchVc[portIndex(Port::North)];
    ASSERT_GE(out_vc, 0);
    EXPECT_EQ(router_.outputVc(Port::North, out_vc).state,
              OutputVc::State::Assigned);
    // A second VA pass grants nothing new.
    EXPECT_EQ(router_.allocateVcs(101), 0);
}

TEST_F(RouterFixture, VaRespectsStageTiming)
{
    placeFlit(Port::South, 0, Port::North, /*arrived=*/50);
    EXPECT_EQ(router_.allocateVcs(50), 0);  // VA stage is 51
    EXPECT_EQ(router_.allocateVcs(51), 1);
}

TEST_F(RouterFixture, VaExhaustsOutputVcs)
{
    // 10 output VCs on the North port: the 11th requester waits.
    for (int v = 0; v < params_.vcsPerPort; ++v)
        placeFlit(Port::South, v, Port::North);
    placeFlit(Port::East, 0, Port::North);
    EXPECT_EQ(router_.allocateVcs(100), params_.vcsPerPort);
    EXPECT_EQ(router_.allocateVcs(101), 0);
}

TEST_F(RouterFixture, SaGrantsOnePerOutputPort)
{
    placeFlit(Port::South, 0, Port::North);
    placeFlit(Port::East, 0, Port::North);
    router_.allocateVcs(100);
    const auto winners = router_.allocateSwitch(100);
    ASSERT_EQ(winners.size(), 1u);
    EXPECT_EQ(winners[0].outPort, Port::North);
}

TEST_F(RouterFixture, SaMatchesDisjointPortsInOneCycle)
{
    placeFlit(Port::South, 0, Port::North);
    placeFlit(Port::North, 0, Port::South);
    placeFlit(Port::West, 0, Port::East);
    placeFlit(Port::East, 0, Port::West);
    router_.allocateVcs(100);
    const auto winners = router_.allocateSwitch(100);
    EXPECT_EQ(winners.size(), 4u);
}

TEST_F(RouterFixture, MulticastForkReplicatesAcrossPorts)
{
    // One flit with three branches: input speedup 4 lets all three
    // win SA in the same cycle once VA assigned each branch a VC.
    InputVc &ivc = router_.inputVc(Port::Local, 0);
    EFlit f;
    f.msg = std::make_shared<const Packet>();
    ivc.flit = f;
    ivc.arrivedAt = 0;
    ivc.pendingMesh = static_cast<uint8_t>(
        (1u << portIndex(Port::North)) |
        (1u << portIndex(Port::East)) |
        (1u << portIndex(Port::South)));
    ivc.resetBranches();
    EXPECT_EQ(router_.allocateVcs(100), 3);
    const auto winners = router_.allocateSwitch(100);
    EXPECT_EQ(winners.size(), 3u);
    for (const auto &w : winners)
        EXPECT_EQ(w.inPort, Port::Local);
}

TEST_F(RouterFixture, InputSpeedupCapsGrants)
{
    ElectricalParams p;
    p.inputSpeedup = 2;
    ElectricalRouter router(0, p);
    InputVc &ivc = router.inputVc(Port::Local, 0);
    EFlit f;
    f.msg = std::make_shared<const Packet>();
    ivc.flit = f;
    ivc.arrivedAt = 0;
    ivc.pendingMesh = 0x0f; // all four ports
    ivc.resetBranches();
    EXPECT_EQ(router.allocateVcs(100), 4);
    const auto winners = router.allocateSwitch(100);
    EXPECT_EQ(winners.size(), 2u);
}

TEST_F(RouterFixture, IslipRotatesGrantsAcrossRequesters)
{
    // Two persistent contenders for the North port: over repeated
    // allocations each must win (pointer advances past winners).
    placeFlit(Port::South, 0, Port::North);
    placeFlit(Port::East, 0, Port::North);
    router_.allocateVcs(100);
    std::set<int> winner_ports;
    for (int round = 0; round < 2; ++round) {
        const auto winners = router_.allocateSwitch(100 + round);
        ASSERT_EQ(winners.size(), 1u);
        winner_ports.insert(portIndex(winners[0].inPort));
        // Caller-side cleanup: consume the branch and its output VC.
        InputVc &vc =
            router_.inputVc(winners[0].inPort, winners[0].inVc);
        vc.pendingMesh = 0;
        vc.branchVc[portIndex(Port::North)] = -1;
        vc.flit.reset();
        router_.outputVc(Port::North, winners[0].outVc).state =
            OutputVc::State::Free;
    }
    EXPECT_EQ(winner_ports.size(), 2u);
}

TEST_F(RouterFixture, SecondIterationFillsLeftoverOutputs)
{
    // Input-port conflict in iteration 1: VCs on the same input port
    // requesting different outputs can need a second grant/accept
    // round when grants collide on one input's accept stage. Build a
    // scenario with speedup 1 to force it.
    ElectricalParams p;
    p.inputSpeedup = 1;
    p.allocIterations = 2;
    ElectricalRouter router(0, p);
    auto place = [&](Port port, int vc, uint8_t mask) {
        InputVc &ivc = router.inputVc(port, vc);
        EFlit f;
        f.msg = std::make_shared<const Packet>();
        ivc.flit = f;
        ivc.arrivedAt = 0;
        ivc.pendingMesh = mask;
        ivc.resetBranches();
    };
    // South VC0 wants North; South VC1 wants East; West VC0 wants
    // East too. With speedup 1, South can send only one flit; the
    // second iteration lets West take East if the first round left
    // it unmatched.
    place(Port::South, 0,
          static_cast<uint8_t>(1u << portIndex(Port::North)));
    place(Port::South, 1,
          static_cast<uint8_t>(1u << portIndex(Port::East)));
    place(Port::West, 0,
          static_cast<uint8_t>(1u << portIndex(Port::East)));
    router.allocateVcs(100);
    const auto winners = router.allocateSwitch(100);
    // Both outputs end up matched to different input ports.
    ASSERT_EQ(winners.size(), 2u);
    std::set<int> in_ports, out_ports;
    for (const auto &w : winners) {
        in_ports.insert(portIndex(w.inPort));
        out_ports.insert(portIndex(w.outPort));
    }
    EXPECT_EQ(in_ports.size(), 2u);
    EXPECT_EQ(out_ports.size(), 2u);
}

/**
 * Test-only reference: the straightforward sort-based VC and switch
 * allocators the bitmask ones replaced, run over a plain copy of one
 * router's state. Request lists are vectors, requesters are sorted by
 * round-robin rank, and (input VC, output) matches are tracked pair by
 * pair.
 */
struct RefRouter {
    ElectricalParams params;
    std::vector<InputVc> inputs;   ///< [port * V + vc]
    std::vector<OutputVc> outputs; ///< [meshPort * V + vc]
    AllocPointers ptr;

    Cycle
    vaStage(Cycle arrival) const
    {
        return arrival +
               static_cast<Cycle>(std::max(0, params.routerDelay - 2));
    }

    Cycle
    saStage(Cycle arrival) const
    {
        return arrival + static_cast<Cycle>(params.routerDelay - 1);
    }

    OutputVc &
    outputVc(int po, int v)
    {
        return outputs[static_cast<size_t>(po * params.vcsPerPort + v)];
    }

    int
    allocateVcs(Cycle now)
    {
        const int V = params.vcsPerPort;
        int grants = 0;
        for (int po = 0; po < kMeshPorts; ++po) {
            std::vector<int> reqs;
            for (int gi = 0; gi < kAllPorts * V; ++gi) {
                const InputVc &vc = inputs[static_cast<size_t>(gi)];
                if (!vc.busy() || vc.ejecting)
                    continue;
                if (now < vaStage(vc.arrivedAt))
                    continue;
                if ((vc.pendingMesh & (1u << po)) == 0)
                    continue;
                if (vc.branchVc[po] >= 0)
                    continue;
                reqs.push_back(gi);
            }
            if (reqs.empty())
                continue;
            std::vector<int> free_vcs;
            for (int v = 0; v < V; ++v) {
                const OutputVc &ovc = outputVc(po, v);
                if (ovc.state == OutputVc::State::Free &&
                    ovc.freeAt <= now) {
                    free_vcs.push_back(v);
                }
            }
            if (free_vcs.empty())
                continue;
            std::sort(reqs.begin(), reqs.end(), [&](int a, int b) {
                const int total = kAllPorts * V;
                const int ra = (a - ptr.va[po] + total) % total;
                const int rb = (b - ptr.va[po] + total) % total;
                return ra < rb;
            });
            const size_t n = std::min(reqs.size(), free_vcs.size());
            for (size_t i = 0; i < n; ++i) {
                InputVc &vc = inputs[static_cast<size_t>(reqs[i])];
                vc.branchVc[po] = free_vcs[i];
                outputVc(po, free_vcs[i]).state =
                    OutputVc::State::Assigned;
                ++grants;
            }
            ptr.va[po] = (reqs[n - 1] + 1) % (kAllPorts * V);
        }
        return grants;
    }

    std::vector<SaWinner>
    allocateSwitch(Cycle now)
    {
        const int V = params.vcsPerPort;
        const int total = kAllPorts * V;
        std::vector<SaWinner> winners;
        int input_grants[kAllPorts] = {0, 0, 0, 0, 0};

        std::array<std::vector<int>, kMeshPorts> requests;
        for (int gi = 0; gi < total; ++gi) {
            const InputVc &vc = inputs[static_cast<size_t>(gi)];
            if (!vc.busy() || now < saStage(vc.arrivedAt))
                continue;
            for (int po = 0; po < kMeshPorts; ++po) {
                if (vc.branchVc[po] >= 0)
                    requests[static_cast<size_t>(po)].push_back(gi);
            }
        }

        bool output_matched[kMeshPorts] = {false, false, false, false};
        std::vector<uint8_t> pair_matched(
            static_cast<size_t>(total) * kMeshPorts, 0);

        const int iterations = std::max(1, params.allocIterations);
        for (int iter = 0; iter < iterations; ++iter) {
            int grant_to[kMeshPorts] = {-1, -1, -1, -1};
            for (int po = 0; po < kMeshPorts; ++po) {
                if (output_matched[po])
                    continue;
                int best = -1;
                int best_rank = total;
                for (int gi : requests[static_cast<size_t>(po)]) {
                    if (pair_matched[static_cast<size_t>(gi) *
                                         kMeshPorts + po])
                        continue;
                    if (input_grants[gi / V] >= params.inputSpeedup)
                        continue;
                    const int rank = (gi - ptr.sa[po] + total) % total;
                    if (rank < best_rank) {
                        best = gi;
                        best_rank = rank;
                    }
                }
                grant_to[po] = best;
            }
            bool any = false;
            for (int pi = 0; pi < kAllPorts; ++pi) {
                for (int k = 0; k < kMeshPorts; ++k) {
                    const int po = (ptr.accept[pi] + k) % kMeshPorts;
                    const int gi = grant_to[po];
                    if (gi < 0 || gi / V != pi)
                        continue;
                    if (input_grants[pi] >= params.inputSpeedup)
                        continue;
                    InputVc &vc = inputs[static_cast<size_t>(gi)];
                    winners.push_back(
                        SaWinner{portFromIndex(pi), gi % V,
                                 portFromIndex(po), vc.branchVc[po]});
                    output_matched[po] = true;
                    pair_matched[static_cast<size_t>(gi) * kMeshPorts +
                                 po] = 1;
                    ++input_grants[pi];
                    grant_to[po] = -1;
                    any = true;
                    if (iter == 0) {
                        ptr.sa[po] = (gi + 1) % total;
                        ptr.accept[pi] = (po + 1) % kMeshPorts;
                    }
                }
            }
            if (!any)
                break;
        }
        return winners;
    }
};

/** A random router state: VC occupancy, stage timing, branch and
 *  output-VC state, and all three pointer sets. */
RefRouter
randomState(const ElectricalParams &params, Cycle now, Rng &rng)
{
    const int V = params.vcsPerPort;
    const int total = kAllPorts * V;
    RefRouter ref{params, std::vector<InputVc>(static_cast<size_t>(total)),
                  std::vector<OutputVc>(
                      static_cast<size_t>(kMeshPorts * V)),
                  AllocPointers{}};
    const auto msg = std::make_shared<const Packet>();
    const double busy = rng.uniform();
    for (InputVc &vc : ref.inputs) {
        if (!rng.bernoulli(busy))
            continue;
        EFlit f;
        f.msg = msg;
        vc.flit = f;
        vc.arrivedAt =
            now + 1 - static_cast<Cycle>(rng.uniformInt(0, 4));
        vc.ejecting = rng.bernoulli(0.1);
        vc.pendingMesh =
            static_cast<uint8_t>(rng.uniformInt(0, 15));
        for (int po = 0; po < kMeshPorts; ++po) {
            // Mostly on pending branches; occasionally stray, which
            // SA must still honour exactly as the reference does.
            const bool pending = (vc.pendingMesh >> po) & 1u;
            if (rng.bernoulli(pending ? 0.5 : 0.05))
                vc.branchVc[po] =
                    static_cast<int>(rng.uniformInt(0, V - 1));
        }
    }
    for (OutputVc &ovc : ref.outputs) {
        ovc.state = static_cast<OutputVc::State>(rng.uniformInt(0, 2));
        ovc.freeAt =
            now + 2 - static_cast<Cycle>(rng.uniformInt(0, 4));
    }
    for (int &p : ref.ptr.va)
        p = static_cast<int>(rng.uniformInt(0, total - 1));
    for (int &p : ref.ptr.sa)
        p = static_cast<int>(rng.uniformInt(0, total - 1));
    for (int &p : ref.ptr.accept)
        p = static_cast<int>(rng.uniformInt(0, kMeshPorts - 1));
    return ref;
}

TEST(RouterDifferential, BitmaskAllocatorsMatchSortedReference)
{
    Rng rng(0x5a11ce);
    const int vcs[] = {1, 3, 10, 12};
    int contested = 0; // trials with several VA grants and SA winners
    for (int trial = 0; trial < 12000; ++trial) {
        ElectricalParams p;
        p.vcsPerPort = vcs[rng.uniformInt(0, 3)];
        p.routerDelay = static_cast<int>(rng.uniformInt(2, 3));
        p.allocIterations = static_cast<int>(rng.uniformInt(1, 3));
        p.inputSpeedup = static_cast<int>(rng.uniformInt(1, 4));
        const Cycle now = 100;
        RefRouter ref = randomState(p, now, rng);

        ElectricalRouter router(0, p);
        for (int pi = 0; pi < kAllPorts; ++pi) {
            for (int v = 0; v < p.vcsPerPort; ++v)
                router.inputVc(portFromIndex(pi), v) =
                    ref.inputs[static_cast<size_t>(pi * p.vcsPerPort +
                                                   v)];
        }
        for (int po = 0; po < kMeshPorts; ++po) {
            for (int v = 0; v < p.vcsPerPort; ++v)
                router.outputVc(portFromIndex(po), v) =
                    ref.outputVc(po, v);
        }
        router.pointers() = ref.ptr;
        SCOPED_TRACE(testing::Message() << "trial " << trial);

        // VA then SA, as one network cycle runs them; SA changes
        // nothing VA left behind except the SA pointers.
        const uint64_t allocs_before = g_heapAllocs;
        const int grants = router.allocateVcs(now);
        const SaWinners got = router.allocateSwitch(now);
        ASSERT_EQ(g_heapAllocs, allocs_before) << "allocation on the heap";

        ASSERT_EQ(grants, ref.allocateVcs(now));
        ASSERT_EQ(router.pointers().va, ref.ptr.va);
        for (int pi = 0; pi < kAllPorts; ++pi) {
            for (int v = 0; v < p.vcsPerPort; ++v)
                ASSERT_EQ(router.inputVc(portFromIndex(pi), v).branchVc,
                          ref.inputs[static_cast<size_t>(
                                         pi * p.vcsPerPort + v)]
                              .branchVc);
        }
        for (int po = 0; po < kMeshPorts; ++po) {
            for (int v = 0; v < p.vcsPerPort; ++v)
                ASSERT_EQ(router.outputVc(portFromIndex(po), v).state,
                          ref.outputVc(po, v).state);
        }

        const std::vector<SaWinner> want = ref.allocateSwitch(now);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].inPort, want[i].inPort);
            EXPECT_EQ(got[i].inVc, want[i].inVc);
            EXPECT_EQ(got[i].outPort, want[i].outPort);
            EXPECT_EQ(got[i].outVc, want[i].outVc);
        }
        ASSERT_TRUE(router.pointers() == ref.ptr);
        contested += grants > 1 && want.size() > 1;
    }
    EXPECT_GT(contested, 3000);
}

} // namespace
} // namespace phastlane::electrical
