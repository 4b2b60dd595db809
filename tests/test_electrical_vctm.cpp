/**
 * @file
 * Virtual Circuit Tree Multicasting table tests.
 */

#include <gtest/gtest.h>

#include "electrical/vctm.hpp"

namespace phastlane::electrical {
namespace {

TEST(Vctm, MissReturnsNull)
{
    VctmTable t(8);
    EXPECT_EQ(t.find(3), nullptr);
}

TEST(Vctm, InstallAccumulatesPorts)
{
    VctmTable t(8);
    t.installPort(3, Port::North);
    t.installPort(3, Port::East);
    t.installPort(3, Port::North); // idempotent
    const TreeEntry *e = t.find(3);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->meshPorts,
              (1u << portIndex(Port::North)) |
                  (1u << portIndex(Port::East)));
    EXPECT_FALSE(e->local);
}

TEST(Vctm, InstallLocal)
{
    VctmTable t(8);
    t.installLocal(5);
    const TreeEntry *e = t.find(5);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->local);
    EXPECT_EQ(e->meshPorts, 0);
}

TEST(Vctm, SeparateTreesIndependent)
{
    VctmTable t(8);
    t.installPort(1, Port::North);
    t.installPort(2, Port::South);
    EXPECT_EQ(t.find(1)->meshPorts, 1u << portIndex(Port::North));
    EXPECT_EQ(t.find(2)->meshPorts, 1u << portIndex(Port::South));
    EXPECT_EQ(t.size(), 2u);
}

TEST(Vctm, FifoEvictionAtCapacity)
{
    VctmTable t(2);
    t.installPort(1, Port::North);
    t.installPort(2, Port::North);
    t.installPort(3, Port::North); // evicts tree 1
    EXPECT_EQ(t.find(1), nullptr);
    EXPECT_NE(t.find(2), nullptr);
    EXPECT_NE(t.find(3), nullptr);
    EXPECT_EQ(t.evictions(), 1u);
    EXPECT_EQ(t.size(), 2u);
}

TEST(Vctm, ReinstallAfterEviction)
{
    VctmTable t(1);
    t.installPort(1, Port::North);
    t.installPort(2, Port::East);
    t.installPort(1, Port::South);
    const TreeEntry *e = t.find(1);
    ASSERT_NE(e, nullptr);
    // Fresh entry: the pre-eviction North port is gone.
    EXPECT_EQ(e->meshPorts, 1u << portIndex(Port::South));
}

TEST(Vctm, EvictionOrderIsInstallOrderAcrossWraps)
{
    // Capacity 3 with seven trees: the ring wraps twice. Eviction is
    // FIFO by first install; touching an entry does not refresh it.
    VctmTable t(3);
    t.installPort(10, Port::North);
    t.installPort(20, Port::North);
    t.installPort(30, Port::North);
    t.installPort(40, Port::North); // evicts 10
    t.installLocal(20);             // hit: no reordering
    t.installPort(50, Port::North); // evicts 20
    EXPECT_EQ(t.find(10), nullptr);
    EXPECT_EQ(t.find(20), nullptr);
    t.installPort(60, Port::North); // evicts 30
    t.installPort(70, Port::North); // evicts 40
    t.installPort(10, Port::East);  // evicts 50
    for (TreeId gone : {20, 30, 40, 50})
        EXPECT_EQ(t.find(gone), nullptr) << gone;
    for (TreeId kept : {60, 70, 10})
        EXPECT_NE(t.find(kept), nullptr) << kept;
    EXPECT_EQ(t.find(10)->meshPorts, 1u << portIndex(Port::East));
    EXPECT_EQ(t.evictions(), 5u);
    EXPECT_EQ(t.size(), 3u);
}

} // namespace
} // namespace phastlane::electrical
