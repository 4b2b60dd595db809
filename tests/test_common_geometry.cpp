/**
 * @file
 * Mesh topology and dimension-order routing tests, parameterized over
 * several mesh shapes.
 */

#include <gtest/gtest.h>
#include <utility>
#include <vector>

#include "common/geometry.hpp"

namespace phastlane {
namespace {

TEST(Geometry, CoordRoundTrip8x8)
{
    MeshTopology mesh(8, 8);
    for (NodeId n = 0; n < mesh.nodeCount(); ++n)
        EXPECT_EQ(mesh.nodeAt(mesh.coordOf(n)), n);
}

TEST(Geometry, RowMajorLayout)
{
    MeshTopology mesh(8, 8);
    EXPECT_EQ(mesh.nodeAt({0, 0}), 0);
    EXPECT_EQ(mesh.nodeAt({7, 0}), 7);
    EXPECT_EQ(mesh.nodeAt({0, 1}), 8);
    EXPECT_EQ(mesh.nodeAt({7, 7}), 63);
}

TEST(Geometry, EdgeNeighborsAreInvalid)
{
    MeshTopology mesh(8, 8);
    EXPECT_EQ(mesh.neighbor(0, Port::South), kInvalidNode);
    EXPECT_EQ(mesh.neighbor(0, Port::West), kInvalidNode);
    EXPECT_EQ(mesh.neighbor(63, Port::North), kInvalidNode);
    EXPECT_EQ(mesh.neighbor(63, Port::East), kInvalidNode);
    EXPECT_EQ(mesh.neighbor(0, Port::North), 8);
    EXPECT_EQ(mesh.neighbor(0, Port::East), 1);
}

TEST(Geometry, NeighborsAreSymmetric)
{
    MeshTopology mesh(8, 8);
    for (NodeId n = 0; n < mesh.nodeCount(); ++n) {
        for (Port d : kMeshDirections) {
            const NodeId m = mesh.neighbor(n, d);
            if (m != kInvalidNode)
                EXPECT_EQ(mesh.neighbor(m, opposite(d)), n);
        }
    }
}

class MeshShapes : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(MeshShapes, XyRouteLengthEqualsHopDistance)
{
    const auto [w, h] = GetParam();
    MeshTopology mesh(w, h);
    for (NodeId a = 0; a < mesh.nodeCount(); ++a) {
        for (NodeId b = 0; b < mesh.nodeCount(); ++b) {
            EXPECT_EQ(static_cast<int>(mesh.xyRoute(a, b).size()),
                      mesh.hopDistance(a, b));
        }
    }
}

TEST_P(MeshShapes, XyRouteGoesXThenY)
{
    const auto [w, h] = GetParam();
    MeshTopology mesh(w, h);
    for (NodeId a = 0; a < mesh.nodeCount(); ++a) {
        for (NodeId b = 0; b < mesh.nodeCount(); ++b) {
            bool seen_y = false;
            for (Port p : mesh.xyRoute(a, b)) {
                const bool is_y =
                    p == Port::North || p == Port::South;
                if (is_y)
                    seen_y = true;
                else
                    EXPECT_FALSE(seen_y)
                        << "X move after a Y move on route " << a
                        << "->" << b;
            }
        }
    }
}

TEST_P(MeshShapes, XyPathEndsAtDestination)
{
    const auto [w, h] = GetParam();
    MeshTopology mesh(w, h);
    for (NodeId a = 0; a < mesh.nodeCount(); ++a) {
        for (NodeId b = 0; b < mesh.nodeCount(); ++b) {
            const auto path = mesh.xyPath(a, b);
            if (a == b) {
                EXPECT_TRUE(path.empty());
            } else {
                ASSERT_FALSE(path.empty());
                EXPECT_EQ(path.back(), b);
            }
        }
    }
}

TEST_P(MeshShapes, XyFirstHopMatchesRoute)
{
    const auto [w, h] = GetParam();
    MeshTopology mesh(w, h);
    for (NodeId a = 0; a < mesh.nodeCount(); ++a) {
        for (NodeId b = 0; b < mesh.nodeCount(); ++b) {
            const auto route = mesh.xyRoute(a, b);
            if (a == b)
                EXPECT_EQ(mesh.xyFirstHop(a, b), Port::Local);
            else
                EXPECT_EQ(mesh.xyFirstHop(a, b), route.front());
        }
    }
}

TEST_P(MeshShapes, XyPathStaysInsideMesh)
{
    const auto [w, h] = GetParam();
    MeshTopology mesh(w, h);
    for (NodeId a = 0; a < mesh.nodeCount(); ++a) {
        for (NodeId b = 0; b < mesh.nodeCount(); ++b) {
            for (NodeId n : mesh.xyPath(a, b))
                EXPECT_TRUE(mesh.valid(n));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MeshShapes,
    ::testing::Values(std::pair{2, 2}, std::pair{4, 4}, std::pair{8, 8},
                      std::pair{4, 8}, std::pair{8, 2},
                      std::pair{1, 8}, std::pair{8, 1},
                      std::pair{9, 7}, std::pair{13, 5},
                      std::pair{16, 16}));

TEST_P(MeshShapes, CoordRoundTripAndNeighborSymmetry)
{
    const auto [w, h] = GetParam();
    MeshTopology mesh(w, h);
    for (NodeId n = 0; n < mesh.nodeCount(); ++n) {
        EXPECT_EQ(mesh.nodeAt(mesh.coordOf(n)), n);
        for (Port d : kMeshDirections) {
            const NodeId m = mesh.neighbor(n, d);
            if (m != kInvalidNode)
                EXPECT_EQ(mesh.neighbor(m, opposite(d)), n);
        }
    }
}

TEST(Geometry, HopDistanceIsAMetric)
{
    MeshTopology mesh(8, 8);
    for (NodeId a = 0; a < 64; a += 7) {
        for (NodeId b = 0; b < 64; b += 5) {
            EXPECT_EQ(mesh.hopDistance(a, b), mesh.hopDistance(b, a));
            EXPECT_EQ(mesh.hopDistance(a, a), 0);
            for (NodeId c = 0; c < 64; c += 11) {
                EXPECT_LE(mesh.hopDistance(a, c),
                          mesh.hopDistance(a, b) +
                              mesh.hopDistance(b, c));
            }
        }
    }
}

TEST(Geometry, MaxDistanceIn8x8Is14)
{
    MeshTopology mesh(8, 8);
    int max_d = 0;
    for (NodeId a = 0; a < 64; ++a)
        for (NodeId b = 0; b < 64; ++b)
            max_d = std::max(max_d, mesh.hopDistance(a, b));
    EXPECT_EQ(max_d, 14);
}

} // namespace
} // namespace phastlane
