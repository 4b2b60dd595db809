#include "common/geometry.hpp"

#include <cstdint>
#include <limits>

#include "common/log.hpp"

namespace phastlane {

MeshTopology::MeshTopology(int width, int height)
    : width_(width), height_(height)
{
    if (width <= 0 || height <= 0)
        fatal("mesh dimensions must be positive (got %dx%d)",
              width, height);
}

std::vector<Port>
MeshTopology::xyRoute(NodeId src, NodeId dst) const
{
    const Coord s = coordOf(src);
    const Coord d = coordOf(dst);
    std::vector<Port> route;
    route.reserve(static_cast<size_t>(hopDistance(src, dst)));
    // X first.
    for (int x = s.x; x < d.x; ++x)
        route.push_back(Port::East);
    for (int x = s.x; x > d.x; --x)
        route.push_back(Port::West);
    // Then Y.
    for (int y = s.y; y < d.y; ++y)
        route.push_back(Port::North);
    for (int y = s.y; y > d.y; --y)
        route.push_back(Port::South);
    return route;
}

std::vector<NodeId>
MeshTopology::xyPath(NodeId src, NodeId dst) const
{
    std::vector<NodeId> path;
    NodeId at = src;
    for (Port dir : xyRoute(src, dst)) {
        at = neighbor(at, dir);
        PL_ASSERT(at != kInvalidNode, "XY route left the mesh");
        path.push_back(at);
    }
    return path;
}

bool
parseMeshSpec(const std::string &spec, int &width, int &height)
{
    constexpr uint64_t kMaxNodes = static_cast<uint64_t>(
        std::numeric_limits<NodeId>::max());
    uint64_t dims[2] = {0, 0};
    size_t at = 0;
    for (int d = 0; d < 2; ++d) {
        if (d == 1) {
            if (at >= spec.size() || spec[at] != 'x')
                return false;
            ++at;
        }
        const size_t first = at;
        while (at < spec.size() && spec[at] >= '0' && spec[at] <= '9') {
            dims[d] = dims[d] * 10 + static_cast<uint64_t>(spec[at] - '0');
            if (dims[d] > kMaxNodes)
                return false; // also stops the accumulator overflowing
            ++at;
        }
        if (at == first || dims[d] == 0)
            return false;
    }
    if (at != spec.size() || dims[0] * dims[1] > kMaxNodes)
        return false;
    width = static_cast<int>(dims[0]);
    height = static_cast<int>(dims[1]);
    return true;
}

} // namespace phastlane
