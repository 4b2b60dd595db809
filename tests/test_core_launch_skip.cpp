/**
 * @file
 * The idle-node skip inside PhastlaneNetwork::step() (DESIGN.md §13).
 * step() moves packets only out of NICs whose occupancy bit is set and
 * arbitrates only routers whose launch-board slot has come. That is
 * exact only while three invariants hold after every cycle:
 *
 *  - a NIC's bit is set exactly when the NIC holds packets;
 *  - a router's board slot is at most its true launch horizon (the
 *    earliest eligibleAt of a waiting entry), and kNeverCycle exactly
 *    when the router is empty;
 *  - every real (queue-scanning) arbitration of a rotating-priority
 *    router starts from pointer cycle % 5, as if arbitrate() had run
 *    on every cycle.
 *
 * Random unicast and broadcast traffic exercises them across both
 * buffer arbitration policies, finite, infinite and shared-pool
 * buffers, both admission policies, injected faults (dead routers
 * included), all wavefront models, and 8x8, 9x7 and 32x32 meshes.
 */

#include <gtest/gtest.h>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/network.hpp"

namespace phastlane::core {
namespace {

struct Variant {
    const char *name;
    std::function<void(PhastlaneParams &)> apply;
};

const std::vector<Variant> &
variants()
{
    static const std::vector<Variant> v = {
        {"rotating/finite",
         [](PhastlaneParams &p) { p.routerBufferEntries = 2; }},
        {"oldest-first/finite",
         [](PhastlaneParams &p) {
             p.routerBufferEntries = 2;
             p.bufferArbitration = BufferArbitration::OldestFirst;
         }},
        {"rotating/infinite",
         [](PhastlaneParams &p) { p.routerBufferEntries = 0; }},
        {"rotating/shared-pool/fcfs",
         [](PhastlaneParams &p) {
             p.routerBufferEntries = 4;
             p.sharedBufferPool = true;
             p.wavefront = WavefrontModel::SubstepFcfs;
         }},
        {"token-bucket",
         [](PhastlaneParams &p) {
             p.routerBufferEntries = 3;
             p.admission = AdmissionPolicy::TokenBucket;
             p.admissionBurst = 2;
             p.admissionPeriod = 3;
         }},
        {"age-boost/global",
         [](PhastlaneParams &p) {
             p.routerBufferEntries = 3;
             p.admission = AdmissionPolicy::AgeBoost;
             p.admissionAgeThreshold = 8;
             p.wavefront = WavefrontModel::GlobalPriority;
         }},
        {"faults",
         [](PhastlaneParams &p) {
             p.routerBufferEntries = 2;
             p.faults.misTurnRate = 0.02;
             p.faults.missedReceiveRate = 0.02;
             p.faults.dropSignalLossRate = 0.05;
             p.faults.dropperIdCorruptRate = 0.1;
             p.faults.routerFailRate = 0.05;
             p.faults.faultSeed = 11;
         }},
    };
    return v;
}

/** Tallies of one run's invariant checks. */
struct SkipCheck {
    uint64_t failures = 0;
    std::string first;
    uint64_t rotationChecks = 0;

    void fail(const std::string &what)
    {
        if (failures++ == 0)
            first = what;
    }
};

/** Check the three skip invariants on @p net right after a step(). */
void
checkSkipState(const PhastlaneNetwork &net, SkipCheck &chk)
{
    const Cycle stepped = net.now() - 1;
    const bool rotating = net.params().bufferArbitration ==
                          BufferArbitration::RotatingPriority;
    const auto where = [&](const char *what, NodeId n) {
        return std::string(what) + " at node " + std::to_string(n) +
               " after cycle " + std::to_string(stepped);
    };
    for (NodeId n = 0; n < net.nodeCount(); ++n) {
        if (net.nicMarked(n) != (net.nicQueued(n) > 0))
            chk.fail(where("NIC bit differs from NIC emptiness", n));
        const RouterBuffers &rb = net.routerBuffers(n);
        const Cycle slot = net.launchBoard(n);
        if (slot > rb.earliestWaiting())
            chk.fail(where("board slot beyond the launch horizon", n));
        if ((slot == kNeverCycle) != rb.empty())
            chk.fail(where("board slot kNeverCycle differs from an "
                           "empty router",
                           n));
        if (rotating && rb.lastScanAt() == stepped) {
            ++chk.rotationChecks;
            if (rb.lastScanRotate() !=
                static_cast<int>(stepped % kAllPorts))
                chk.fail(where("arbitration rotation is not cycle % 5",
                               n));
        }
    }
}

/** A burst near saturation, a light phase, then a silent drain: the
 *  mix fills buffers into backoff, leaves most routers idle, and
 *  empties them again. */
SkipCheck
runRandomTraffic(const PhastlaneParams &params, uint64_t seed)
{
    PhastlaneNetwork net(params);
    Rng rng(seed);
    PacketId id = 1;
    SkipCheck chk;
    const int nodes = net.nodeCount();
    for (int cycle = 0; cycle < 500; ++cycle) {
        const double rate = cycle < 150   ? 0.25
                            : cycle < 300 ? 0.02
                                          : 0.0;
        for (NodeId src = 0; src < nodes && rate > 0.0; ++src) {
            if (!rng.bernoulli(rate))
                continue;
            Packet p;
            p.id = id++;
            p.src = src;
            p.createdAt = net.now();
            if (rng.bernoulli(0.03)) {
                p.broadcast = true;
            } else {
                p.dst =
                    static_cast<NodeId>(rng.uniformInt(0, nodes - 2));
                if (p.dst >= src)
                    ++p.dst;
            }
            net.inject(p);
        }
        net.step();
        checkSkipState(net, chk);
    }
    return chk;
}

TEST(LaunchSkip, InvariantsHoldUnderRandomTraffic)
{
    struct Mesh {
        int w;
        int h;
    };
    for (const Mesh m : {Mesh{8, 8}, Mesh{9, 7}, Mesh{32, 32}}) {
        for (const Variant &v : variants()) {
            SCOPED_TRACE(::testing::Message()
                         << m.w << "x" << m.h << " " << v.name);
            PhastlaneParams p;
            p.meshWidth = m.w;
            p.meshHeight = m.h;
            p.seed = 5;
            v.apply(p);
            const SkipCheck chk = runRandomTraffic(p, 17);
            EXPECT_EQ(chk.failures, 0u) << chk.first;
            if (p.bufferArbitration ==
                BufferArbitration::RotatingPriority)
                EXPECT_GT(chk.rotationChecks, 0u);
        }
    }
}

/** Once traffic drains, every board slot is kNeverCycle and every
 *  NIC bit is clear, so a quiet network visits no node. */
TEST(LaunchSkip, QuiescedNetworkHasEmptyBoardAndBits)
{
    PhastlaneNetwork net(PhastlaneParams{});
    Packet pkt;
    pkt.id = 1;
    pkt.src = 0;
    pkt.dst = 63;
    ASSERT_TRUE(net.inject(pkt));
    EXPECT_TRUE(net.nicMarked(0));
    for (int i = 0; i < 40; ++i)
        net.step();
    ASSERT_EQ(net.inFlight(), 0u);
    for (NodeId n = 0; n < net.nodeCount(); ++n) {
        EXPECT_EQ(net.launchBoard(n), kNeverCycle) << "node " << n;
        EXPECT_FALSE(net.nicMarked(n)) << "node " << n;
    }
}

} // namespace
} // namespace phastlane::core
