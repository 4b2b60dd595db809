/**
 * @file
 * Electrical baseline network tests: per-hop latency, ejection
 * bypass, VC/credit behavior, VCTM tree building and reuse, and
 * determinism.
 */

#include <gtest/gtest.h>
#include <cstdio>
#include <map>
#include <string>

#include "common/rng.hpp"
#include "electrical/network.hpp"

namespace phastlane::electrical {
namespace {

Packet
unicast(PacketId id, NodeId src, NodeId dst, Cycle created = 0)
{
    Packet p;
    p.id = id;
    p.src = src;
    p.dst = dst;
    p.createdAt = created;
    return p;
}

Packet
broadcast(PacketId id, NodeId src, Cycle created = 0)
{
    Packet p;
    p.id = id;
    p.src = src;
    p.broadcast = true;
    p.createdAt = created;
    return p;
}

std::vector<Delivery>
runToIdle(ElectricalNetwork &net, int max_cycles = 200000)
{
    std::vector<Delivery> all;
    for (int i = 0; i < max_cycles && net.inFlight() > 0; ++i) {
        net.step();
        for (const auto &d : net.deliveries())
            all.push_back(d);
    }
    EXPECT_EQ(net.inFlight(), 0u) << "network did not drain";
    return all;
}

class RouterDelays : public ::testing::TestWithParam<int>
{
};

TEST_P(RouterDelays, ZeroLoadUnicastLatencyFormula)
{
    const int T = GetParam();
    ElectricalParams p;
    p.routerDelay = T;
    for (auto [src, dst] : {std::pair<NodeId, NodeId>{0, 63},
                            {0, 7}, {5, 40}, {63, 0}}) {
        ElectricalNetwork net(p);
        ASSERT_TRUE(net.inject(unicast(1, src, dst)));
        const auto dels = runToIdle(net);
        ASSERT_EQ(dels.size(), 1u);
        const int hops = net.mesh().hopDistance(src, dst);
        // Per hop: routerDelay + 1 channel cycle; ejection adds one.
        EXPECT_EQ(dels[0].at,
                  static_cast<Cycle>(hops * (T + 1) + 1))
            << src << "->" << dst << " T=" << T;
    }
}

INSTANTIATE_TEST_SUITE_P(Delays, RouterDelays,
                         ::testing::Values(2, 3));

TEST(ElectricalNet, TwoCycleRouterIsFaster)
{
    ElectricalParams p2;
    p2.routerDelay = 2;
    ElectricalParams p3;
    p3.routerDelay = 3;
    ElectricalNetwork a(p2), b(p3);
    ASSERT_TRUE(a.inject(unicast(1, 0, 63)));
    ASSERT_TRUE(b.inject(unicast(1, 0, 63)));
    const auto da = runToIdle(a);
    const auto db = runToIdle(b);
    EXPECT_LT(da[0].at, db[0].at);
}

TEST(ElectricalNet, FirstBroadcastBuildsTreeSecondUsesIt)
{
    ElectricalParams p;
    ElectricalNetwork net(p);
    ASSERT_TRUE(net.inject(broadcast(1, 27)));
    const auto first = runToIdle(net);
    EXPECT_EQ(first.size(), 63u);
    EXPECT_EQ(net.electricalCounters().setupUnicasts, 63u);
    EXPECT_EQ(net.electricalCounters().treeMulticasts, 0u);
    const Cycle t0 = net.now();

    ASSERT_TRUE(net.inject(broadcast(2, 27, net.now())));
    const auto second = runToIdle(net);
    EXPECT_EQ(second.size(), 63u);
    EXPECT_EQ(net.electricalCounters().treeMulticasts, 1u);
    // Tree multicast completes much faster than streaming 63 clones.
    EXPECT_LT(net.now() - t0, 63u);
}

TEST(ElectricalNet, BroadcastCoverageExactlyOnce)
{
    ElectricalNetwork net(ElectricalParams{});
    // Run two broadcasts so the second exercises tree replication.
    for (PacketId id : {1, 2}) {
        ASSERT_TRUE(net.inject(broadcast(id, 36, net.now())));
        const auto dels = runToIdle(net);
        ASSERT_EQ(dels.size(), 63u);
        std::map<NodeId, int> seen;
        for (const auto &d : dels)
            ++seen[d.node];
        EXPECT_EQ(seen.count(36), 0u);
        for (const auto &[node, count] : seen)
            EXPECT_EQ(count, 1) << "node " << node;
    }
}

TEST(ElectricalNet, ManyFlowsAllDelivered)
{
    ElectricalNetwork net(ElectricalParams{});
    PacketId id = 1;
    uint64_t expected = 0;
    for (int round = 0; round < 5; ++round) {
        for (NodeId src = 0; src < 64; ++src) {
            const NodeId dst =
                static_cast<NodeId>((src + 17 + round) % 64);
            if (dst == src)
                continue;
            ASSERT_TRUE(net.inject(unicast(id++, src, dst,
                                           net.now())));
            ++expected;
        }
        for (int c = 0; c < 3; ++c)
            net.step();
    }
    const auto dels = runToIdle(net);
    // Deliveries during the rounds were not captured here; rely on
    // the counter instead.
    (void)dels;
    EXPECT_EQ(net.counters().deliveries, expected);
}

TEST(ElectricalNet, MixedBroadcastAndUnicastLoad)
{
    ElectricalNetwork net(ElectricalParams{});
    PacketId id = 1;
    uint64_t expected = 0;
    for (NodeId src = 0; src < 64; src += 4) {
        ASSERT_TRUE(net.inject(broadcast(id++, src, net.now())));
        expected += 63;
        ASSERT_TRUE(net.inject(
            unicast(id++, src, static_cast<NodeId>((src + 31) % 64),
                    net.now())));
        expected += 1;
    }
    runToIdle(net);
    EXPECT_EQ(net.counters().deliveries, expected);
}

TEST(ElectricalNet, NicCapacityBackpressure)
{
    ElectricalParams p;
    p.nicQueueEntries = 2;
    ElectricalNetwork net(p);
    EXPECT_TRUE(net.inject(unicast(1, 0, 63)));
    EXPECT_TRUE(net.inject(unicast(2, 0, 62)));
    EXPECT_FALSE(net.nicHasSpace(0));
    EXPECT_FALSE(net.inject(unicast(3, 0, 61)));
    EXPECT_TRUE(net.inject(unicast(4, 1, 61)));
    runToIdle(net);
    EXPECT_EQ(net.counters().deliveries, 3u);
}

TEST(ElectricalNet, InjectionThroughputOnePerCycle)
{
    // A node can start at most one flit per cycle; back-to-back
    // packets to the same neighbor serialize at the NIC.
    ElectricalNetwork net(ElectricalParams{});
    const int n = 10;
    for (int i = 0; i < n; ++i)
        ASSERT_TRUE(net.inject(unicast(static_cast<PacketId>(i + 1),
                                       0, 1)));
    const auto dels = runToIdle(net);
    ASSERT_EQ(dels.size(), static_cast<size_t>(n));
    Cycle last = 0;
    for (const auto &d : dels) {
        if (last != 0) {
            EXPECT_GE(d.at, last + 1);
        }
        last = d.at;
    }
}

TEST(ElectricalNet, SaturatingLoadEventuallyDrains)
{
    ElectricalNetwork net(ElectricalParams{});
    PacketId id = 1;
    for (int round = 0; round < 3; ++round) {
        for (NodeId src = 0; src < 64; src += 2)
            net.inject(broadcast(id++, src, net.now()));
        for (int c = 0; c < 5; ++c)
            net.step();
    }
    runToIdle(net);
    EXPECT_EQ(net.inFlight(), 0u);
}

TEST(ElectricalNet, Deterministic)
{
    auto run = []() {
        ElectricalNetwork net(ElectricalParams{});
        PacketId id = 1;
        for (int round = 0; round < 4; ++round) {
            for (NodeId src = 0; src < 64; src += 3)
                net.inject(broadcast(id++, src, net.now()));
            for (int c = 0; c < 10; ++c)
                net.step();
        }
        while (net.inFlight() > 0)
            net.step();
        return std::tuple{net.now(), net.counters().deliveries,
                          net.events().linkTraversals,
                          net.events().saGrants};
    };
    EXPECT_EQ(run(), run());
}

TEST(ElectricalNet, EventAccountingConsistent)
{
    ElectricalNetwork net(ElectricalParams{});
    PacketId id = 1;
    for (NodeId src = 0; src < 64; src += 6)
        net.inject(broadcast(id++, src, net.now()));
    runToIdle(net);
    const auto &ev = net.events();
    EXPECT_EQ(ev.saGrants, ev.xbarTraversals);
    EXPECT_EQ(ev.saGrants, ev.linkTraversals);
    EXPECT_EQ(ev.saGrants, ev.bufferReads);
    // Every link traversal lands in a buffer; injections also write.
    EXPECT_EQ(ev.bufferWrites,
              ev.linkTraversals + net.counters().packetsInjected);
    EXPECT_EQ(ev.ejections, net.counters().deliveries);
}

TEST(ElectricalNetDeathTest, RejectsOutputSpeedupOtherThanOne)
{
    ElectricalParams p;
    p.outputSpeedup = 2;
    EXPECT_DEATH({ ElectricalNetwork net(p); }, "output speedup 1");
}

TEST(ElectricalNetDeathTest, RejectsInputSpeedupBelowOne)
{
    ElectricalParams p;
    p.inputSpeedup = 0;
    EXPECT_DEATH({ ElectricalNetwork net(p); },
                 "input speedup must be at least 1");
}

TEST(ElectricalNetDeathTest, RejectsMoreVcsThanTheMasksHold)
{
    ElectricalParams p;
    p.vcsPerPort = 13; // 5 ports x 13 VCs > 64 mask bits
    EXPECT_DEATH({ ElectricalNetwork net(p); },
                 "at most 12 VCs per port");
}

TEST(ElectricalNetDeathTest, WatchdogNamesTheStuckVc)
{
    // With a 1-cycle watchdog the gap between two hops' switch grants
    // trips it: the flit has just reached router 1 (West input) and
    // waits on VC allocation toward East.
    ElectricalParams p;
    p.watchdogCycles = 1;
    EXPECT_DEATH(
        {
            ElectricalNetwork net(p);
            net.inject(unicast(1, 0, 63));
            while (net.inFlight() > 0)
                net.step();
        },
        "no progress for 1 cycles.*router 1 in W vc 0: arrivedAt 4 "
        "dst 63 tree -1 pendingMesh 0x2.*-> E branchVc -1 \\(waiting "
        "on VA\\): output VCs free 10");
}

/** FNV-1a over the little-endian bytes of 64-bit words. */
struct Fnv {
    uint64_t h = 1469598103934665603ull;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
};

/** Everything the golden run observes, in one comparable record. */
struct GoldenRun {
    Cycle finish = 0;
    uint64_t deliveryDigest = 0; ///< FNV of (node, at, packet id)
    uint64_t linkDigest = 0;     ///< FNV of linkCounts()
    ElectricalEvents ev;
    ElectricalCounters el;
};

/**
 * A seeded unicast + broadcast mix (first broadcasts build VCTM
 * trees, later ones from the same sources reuse them), then a
 * saturating burst, then a drain.
 */
GoldenRun
goldenRun(int router_delay, int alloc_iterations, int input_speedup)
{
    ElectricalParams p;
    p.routerDelay = router_delay;
    p.allocIterations = alloc_iterations;
    p.inputSpeedup = input_speedup;
    ElectricalNetwork net(p);
    Rng rng(0xe1ec7a1 + static_cast<uint64_t>(router_delay * 100 +
                                              alloc_iterations * 10 +
                                              input_speedup));
    Fnv deliveries;
    PacketId id = 1;
    auto offer = [&](NodeId src, bool bcast) {
        Packet pkt;
        pkt.id = id++;
        pkt.src = src;
        pkt.createdAt = net.now();
        if (bcast) {
            pkt.broadcast = true;
        } else {
            NodeId dst = src;
            while (dst == src)
                dst = static_cast<NodeId>(rng.uniformInt(0, 63));
            pkt.dst = dst;
        }
        net.inject(pkt);
    };
    auto step = [&]() {
        net.step();
        for (const auto &d : net.deliveries()) {
            deliveries.add(static_cast<uint64_t>(d.node));
            deliveries.add(d.at);
            deliveries.add(d.packet.id);
        }
    };
    for (int c = 0; c < 400; ++c) {
        for (NodeId n = 0; n < 64; ++n) {
            if (rng.bernoulli(0.04))
                offer(n, n % 8 == 3 && rng.bernoulli(0.3));
        }
        step();
    }
    for (int c = 0; c < 60; ++c) {
        for (NodeId n = 0; n < 64; ++n) {
            if (rng.bernoulli(0.6))
                offer(n, c % 15 == 0 && n % 4 == 0);
        }
        step();
    }
    for (int c = 0; c < 200000 && net.inFlight() > 0; ++c)
        step();
    EXPECT_EQ(net.inFlight(), 0u) << "network did not drain";

    GoldenRun g;
    g.finish = net.now();
    g.deliveryDigest = deliveries.h;
    Fnv links;
    for (uint64_t v : net.linkCounts())
        links.add(v);
    g.linkDigest = links.h;
    g.ev = net.events();
    g.el = net.electricalCounters();
    return g;
}

struct GoldenCase {
    int routerDelay;
    int allocIterations;
    int inputSpeedup;
    GoldenRun want;
};

std::string
describe(const GoldenCase &c, const GoldenRun &g)
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{%d, %d, %d, {%lluu, 0x%llxull, 0x%llxull, {%lluu, %lluu, "
        "%lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu}, {%lluu, "
        "%lluu}}},",
        c.routerDelay, c.allocIterations, c.inputSpeedup,
        static_cast<unsigned long long>(g.finish),
        static_cast<unsigned long long>(g.deliveryDigest),
        static_cast<unsigned long long>(g.linkDigest),
        static_cast<unsigned long long>(g.ev.bufferWrites),
        static_cast<unsigned long long>(g.ev.bufferReads),
        static_cast<unsigned long long>(g.ev.xbarTraversals),
        static_cast<unsigned long long>(g.ev.linkTraversals),
        static_cast<unsigned long long>(g.ev.vaGrants),
        static_cast<unsigned long long>(g.ev.saGrants),
        static_cast<unsigned long long>(g.ev.ejections),
        static_cast<unsigned long long>(g.ev.treeLookups),
        static_cast<unsigned long long>(g.ev.routerCycles),
        static_cast<unsigned long long>(g.el.treeMulticasts),
        static_cast<unsigned long long>(g.el.setupUnicasts));
    return buf;
}

TEST(ElectricalNet, GoldenAcrossAllocatorConfigs)
{
    // Recorded on the sort-based allocators the bitmask ones replaced:
    // any change to grants, winner order or pointer updates moves a
    // delivery cycle, an event count or a link count here.
    const GoldenCase cases[] = {
        {2, 1, 1,
         {700u, 0xe02b93e699edac9dull, 0x69c6a2e0b2a2616cull,
          {39913u, 33849u, 33849u, 33849u, 33849u,
           33849u, 7986u, 1984u, 44800u},
          {31u, 2772u}}},
        {2, 1, 4,
         {630u, 0x8a77191e05381a9cull, 0x9faa76d533cd285bull,
          {39412u, 33378u, 33378u, 33378u, 33378u,
           33378u, 7956u, 1984u, 40320u},
          {31u, 2709u}}},
        {2, 2, 1,
         {631u, 0x4503a7f14b817b85ull, 0x8392ffcce083068full,
          {37527u, 31986u, 31986u, 31986u, 31986u,
           31986u, 8269u, 2816u, 40384u},
          {44u, 2331u}}},
        {2, 2, 4,
         {614u, 0x3cacd0ad22243179ull, 0x268f08a33cc1396full,
          {40039u, 33956u, 33956u, 33956u, 33956u,
           33956u, 8005u, 1984u, 39296u},
          {31u, 2772u}}},
        {3, 1, 1,
         {666u, 0xdbf2fdeb6ab4b771ull, 0x473abeb295de904aull,
          {37762u, 32090u, 32090u, 32090u, 32090u,
           32090u, 7966u, 2368u, 42624u},
          {37u, 2394u}}},
        {3, 1, 4,
         {664u, 0x7ec792152cc425a9ull, 0xf7e752287768225dull,
          {39711u, 33743u, 33743u, 33743u, 33743u,
           33743u, 8138u, 2240u, 42496u},
          {35u, 2646u}}},
        {3, 2, 1,
         {652u, 0x12b6ce2ca1e1c479ull, 0x457975c3727c0e35ull,
          {38807u, 32958u, 32958u, 32958u, 32958u,
           32958u, 8081u, 2304u, 41728u},
          {36u, 2583u}}},
        {3, 2, 4,
         {627u, 0xf25a8157a7050384ull, 0x588e12d97b38d8a3ull,
          {39111u, 33196u, 33196u, 33196u, 33196u,
           33196u, 7899u, 2048u, 40128u},
          {32u, 2646u}}},
    };
    for (const GoldenCase &c : cases) {
        const GoldenRun got =
            goldenRun(c.routerDelay, c.allocIterations, c.inputSpeedup);
        const GoldenRun &w = c.want;
        SCOPED_TRACE(describe(c, got));
        EXPECT_EQ(got.finish, w.finish);
        EXPECT_EQ(got.deliveryDigest, w.deliveryDigest);
        EXPECT_EQ(got.linkDigest, w.linkDigest);
        EXPECT_EQ(got.ev.bufferWrites, w.ev.bufferWrites);
        EXPECT_EQ(got.ev.bufferReads, w.ev.bufferReads);
        EXPECT_EQ(got.ev.xbarTraversals, w.ev.xbarTraversals);
        EXPECT_EQ(got.ev.linkTraversals, w.ev.linkTraversals);
        EXPECT_EQ(got.ev.vaGrants, w.ev.vaGrants);
        EXPECT_EQ(got.ev.saGrants, w.ev.saGrants);
        EXPECT_EQ(got.ev.ejections, w.ev.ejections);
        EXPECT_EQ(got.ev.treeLookups, w.ev.treeLookups);
        EXPECT_EQ(got.ev.routerCycles, w.ev.routerCycles);
        EXPECT_EQ(got.el.treeMulticasts, w.el.treeMulticasts);
        EXPECT_EQ(got.el.setupUnicasts, w.el.setupUnicasts);
    }
}

} // namespace
} // namespace phastlane::electrical
