#include "core/batch.hpp"

#include "common/log.hpp"

namespace phastlane::core {

NetworkBatch::~NetworkBatch() { detachAll(); }

bool
NetworkBatch::eligible(const PhastlaneNetwork &net)
{
    return net.observer_ == nullptr &&
           net.params_.wavefront != WavefrontModel::GlobalPriority;
}

bool
NetworkBatch::compatible(const PhastlaneNetwork &net) const
{
    return nets_.empty() || net.mesh_.nodeCount() == nodeCount_;
}

void
NetworkBatch::attach(PhastlaneNetwork &net)
{
    PL_ASSERT(eligible(net), "network not batch-eligible");
    PL_ASSERT(compatible(net), "mesh shape differs from the gang");
    PL_ASSERT(net.scratch_ == &net.ownScratch_,
              "network already attached to a batch");
    if (nets_.empty()) {
        nodeCount_ = net.mesh_.nodeCount();
        nicWords_ = (nodeCount_ + 63) / 64;
        scratch_ = std::make_unique<PhastlaneNetwork::StepScratch>(
            nodeCount_);
    }
    nets_.push_back(&net);
    launchBoard_.resize(nets_.size() * static_cast<size_t>(nodeCount_));
    nicOcc_.resize(nets_.size() * static_cast<size_t>(nicWords_), 0);
    // Growing the backing vectors may have moved them; re-point every
    // attached instance, not just the new one.
    rebindAll();
}

void
NetworkBatch::rebindAll()
{
    for (size_t i = 0; i < nets_.size(); ++i) {
        PhastlaneNetwork &net = *nets_[i];
        net.scratch_ = scratch_.get();
        Cycle *board = &launchBoard_[i * static_cast<size_t>(nodeCount_)];
        for (NodeId r = 0; r < nodeCount_; ++r)
            net.routers_[static_cast<size_t>(r)].bindBoard(&board[r]);
        uint64_t *occ = &nicOcc_[i * static_cast<size_t>(nicWords_)];
        net.batchNicOcc_ = occ;
        for (int w = 0; w < nicWords_; ++w)
            occ[w] = 0;
        for (NodeId n = 0; n < nodeCount_; ++n) {
            if (!net.nics_[static_cast<size_t>(n)].empty())
                occ[static_cast<size_t>(n) >> 6] |=
                    uint64_t{1} << (static_cast<size_t>(n) & 63);
        }
    }
}

void
NetworkBatch::detachAll()
{
    for (PhastlaneNetwork *net : nets_) {
        net->scratch_ = &net->ownScratch_;
        net->batchNicOcc_ = nullptr;
        for (auto &rb : net->routers_)
            rb.bindBoard(nullptr);
    }
    nets_.clear();
    launchBoard_.clear();
    nicOcc_.clear();
    scratch_.reset();
    nodeCount_ = 0;
    nicWords_ = 0;
}

void
NetworkBatch::batchNicToLocal(PhastlaneNetwork &net, size_t slot)
{
    // Same visit set and order as nicToLocalQueues(): the occupancy
    // bits walk the non-empty NICs in ascending node order; NICs only
    // fill through inject() (which sets the bit) and only drain here,
    // so a clear bit is exact, not conservative.
    uint64_t *occ = &nicOcc_[slot * static_cast<size_t>(nicWords_)];
    const int transfers = net.params_.nicTransfersPerCycle;
    for (int w = 0; w < nicWords_; ++w) {
        uint64_t bits = occ[w];
        while (bits != 0) {
            const int b = __builtin_ctzll(bits);
            bits &= bits - 1;
            const NodeId n = static_cast<NodeId>(w * 64 + b);
            auto &nic = net.nics_[static_cast<size_t>(n)];
            auto &rb = net.routers_[static_cast<size_t>(n)];
            for (int i = 0; i < transfers && !nic.empty() &&
                            rb.hasSpace(Port::Local);
                 ++i) {
                nic.popHeadInto(
                    rb.emplaceEntry(Port::Local, net.cycle_ + 1).pkt);
            }
            if (nic.empty())
                occ[w] &= ~(uint64_t{1} << b);
        }
    }
}

void
NetworkBatch::batchLaunchPhase(PhastlaneNetwork &net, size_t slot)
{
    net.scratch_->flights.clear();
    const Cycle *board =
        &launchBoard_[slot * static_cast<size_t>(nodeCount_)];
    const Cycle now = net.cycle_;
    for (NodeId r = 0; r < nodeCount_; ++r) {
        // A board value in the future means arbitrate() would have
        // early-exited: no launches, no horizon change, only the
        // rotating-pointer advance — replayed by syncRotate below
        // before the next real call.
        if (board[r] > now)
            continue;
        net.routers_[static_cast<size_t>(r)].syncRotate(now);
        net.launchRouter(r);
    }
}

void
NetworkBatch::stepOne(PhastlaneNetwork &net, size_t slot)
{
    // Mirrors PhastlaneNetwork::step() for the scalar FCFS engines;
    // eligibility guarantees no observer and no GlobalPriority.
    net.deliveries_.clear();
    net.scratch_->claims.clear();
    net.returnPaths_.beginCycle();

    net.resolveOutcomes();
    batchNicToLocal(net, slot);
    batchLaunchPhase(net, slot);
    switch (net.params_.wavefront) {
      case WavefrontModel::SubstepFcfs:
        net.propagateSubstepFcfs(net.scratch_->flights);
        break;
      case WavefrontModel::BitplaneFcfs:
        net.propagateBitplane(net.scratch_->flights);
        break;
      case WavefrontModel::GlobalPriority:
        fatal("GlobalPriority wavefront is not batch-eligible");
    }

    net.events_.routerCycles +=
        static_cast<uint64_t>(net.mesh_.nodeCount());
    ++net.cycle_;
}

void
NetworkBatch::stepInstance(size_t i)
{
    PL_ASSERT(i < nets_.size(), "batch instance out of range");
    stepOne(*nets_[i], i);
}

void
NetworkBatch::stepAll()
{
    for (size_t i = 0; i < nets_.size(); ++i)
        stepOne(*nets_[i], i);
}

} // namespace phastlane::core
