#include "core/nic.hpp"

#include "common/log.hpp"

namespace phastlane::core {

OpticalNic::OpticalNic(NodeId self, const PhastlaneParams &params,
                       const MeshTopology &mesh)
    : self_(self),
      capacity_(static_cast<size_t>(params.nicQueueEntries)),
      broadcastBranches_(broadcastBranchCount(mesh, self)),
      mesh_(mesh)
{
}

void
OpticalNic::accept(const Packet &pkt, Cycle now,
                   uint64_t &next_branch_id)
{
    PL_ASSERT(pkt.src == self_, "packet source mismatch at NIC %d",
              self_);
    if (pkt.broadcast) {
        for (auto &branch : splitBroadcast(mesh_, self_)) {
            OpticalPacket op;
            op.base = pkt;
            op.branchId = next_branch_id++;
            op.multicast = true;
            op.finalDst = branch.finalDst();
            op.taps = std::move(branch.taps);
            op.acceptedAt = now;
            queue_.push_back(std::move(op));
        }
    } else {
        PL_ASSERT(pkt.dst != self_, "unicast to self at node %d",
                  self_);
        OpticalPacket op;
        op.base = pkt;
        op.branchId = next_branch_id++;
        op.multicast = false;
        op.finalDst = pkt.dst;
        op.acceptedAt = now;
        queue_.push_back(std::move(op));
    }
    PL_ASSERT(queue_.size() <= capacity_, "NIC overflow at node %d",
              self_);
}

const OpticalPacket &
OpticalNic::head() const
{
    PL_ASSERT(!queue_.empty(), "reading head of empty NIC queue");
    return queue_.front();
}

OpticalPacket
OpticalNic::popHead()
{
    PL_ASSERT(!queue_.empty(), "popping empty NIC queue");
    OpticalPacket p = std::move(queue_.front());
    queue_.pop_front();
    return p;
}

void
OpticalNic::popHeadInto(OpticalPacket &dst)
{
    PL_ASSERT(!queue_.empty(), "popping empty NIC queue");
    dst = std::move(queue_.front());
    queue_.pop_front();
}

} // namespace phastlane::core
