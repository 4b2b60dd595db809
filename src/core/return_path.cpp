#include "core/return_path.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace phastlane::core {

ReturnPathRegistry::ReturnPathRegistry(int node_count)
    : nodeCount_(node_count),
      latch_(static_cast<size_t>(node_count) * kMeshPorts, 0),
      used_(static_cast<size_t>(node_count) * kMeshPorts, 0)
{
}

size_t
ReturnPathRegistry::index(NodeId router, Port out) const
{
    PL_ASSERT(router >= 0 && router < nodeCount_, "bad router id");
    return static_cast<size_t>(router) * kMeshPorts + portIndex(out);
}

void
ReturnPathRegistry::beginCycle()
{
    // Stale epochs make every latch/claim entry read as empty; no
    // table fill needed.
    ++epoch_;
    claimed_ = 0;
    latched_ = 0;
}

void
ReturnPathRegistry::registerHop(NodeId router, Port in, Port out)
{
    PL_ASSERT(out != Port::Local, "return path needs a mesh exit port");
    uint64_t &slot = latch_[index(router, out)];
    // An output port carries one packet per cycle, so at most one
    // reverse connection can be latched per (router, out).
    PL_ASSERT((slot >> 3) != epoch_,
              "two packets latched the same return connection at "
              "router %d port %s", router, portName(out));
    slot = (epoch_ << 3) |
           static_cast<uint64_t>(portIndex(in) + 1);
    ++latched_;
}

int
ReturnPathRegistry::signalDrop(const ReturnHop *hops_arr, size_t count)
{
    // The signal flows from the dropping router back toward the
    // source, traversing each latched connection in reverse order.
    int hops = 0;
    for (size_t i = count; i-- > 0;) {
        const ReturnHop &h = hops_arr[i];
        const size_t idx = index(h.router, h.packetOut);
        PL_ASSERT(latch_[idx] ==
                      ((epoch_ << 3) | static_cast<uint64_t>(
                                           portIndex(h.packetIn) + 1)),
                  "drop signal found an unlatched return connection "
                  "at router %d", h.router);
        // Footnote 4: return paths of distinct packets cannot overlap
        // within a cycle.
        if (used_[idx] == epoch_) {
            panic("overlapping drop-signal return paths at router %d "
                  "port %s", h.router, portName(h.packetOut));
        }
        used_[idx] = epoch_;
        ++claimed_;
        ++hops;
    }
    // Plus the final link back into the source's receiver.
    return hops + 1;
}

} // namespace phastlane::core
