/**
 * @file
 * The electrical baseline's network-interface controller: a finite
 * queue of logical messages plus the VCTM tree-building state of the
 * node's broadcast tree.
 */

#ifndef PHASTLANE_ELECTRICAL_NIC_HPP
#define PHASTLANE_ELECTRICAL_NIC_HPP

#include <deque>
#include <memory>
#include <vector>

#include "electrical/flit.hpp"
#include "electrical/params.hpp"

namespace phastlane::electrical {

/** A message waiting in the NIC. */
struct NicEntry {
    std::shared_ptr<const Packet> msg;
    Cycle acceptedAt = 0;
};

/** Life-cycle of a source's broadcast tree. */
enum class TreeState : uint8_t {
    NotBuilt, ///< no setup traffic sent yet
    Building, ///< setup unicasts in flight
    Ready,    ///< every router on the tree has its entry
};

/**
 * Outbound message queue of one node (Table 2: 50 entries).
 */
class ElectricalNic
{
  public:
    ElectricalNic(NodeId self, const ElectricalParams &params);

    NodeId self() const { return self_; }

    bool hasSpace() const { return queue_.size() < capacity_; }
    bool empty() const { return queue_.empty(); }
    size_t occupancy() const { return queue_.size(); }

    void accept(const Packet &pkt, Cycle now);
    const NicEntry &head() const;
    void popHead();

    TreeState treeState() const { return tree_; }
    void setTreeState(TreeState s) { tree_ = s; }

    /**
     * Remaining setup-unicast targets of the broadcast currently being
     * streamed (consumed from the back).
     */
    std::vector<NodeId> &setupTargets() { return setupTargets_; }
    const std::vector<NodeId> &setupTargets() const
    {
        return setupTargets_;
    }

    /** Setup deliveries still pending before the tree is Ready. */
    int &pendingSetupDeliveries() { return pendingSetup_; }
    int pendingSetupDeliveries() const { return pendingSetup_; }

    /** Begin streaming a broadcast as tree-installing clones. */
    void startSetupStream(std::vector<NodeId> targets,
                          std::shared_ptr<const Packet> msg,
                          Cycle accepted_at)
    {
        setupTargets_ = std::move(targets);
        setupMsg_ = std::move(msg);
        setupAcceptedAt_ = accepted_at;
    }

    const std::shared_ptr<const Packet> &setupMsg() const
    {
        return setupMsg_;
    }
    Cycle setupAcceptedAt() const { return setupAcceptedAt_; }

  private:
    NodeId self_;
    size_t capacity_;
    std::deque<NicEntry> queue_;
    TreeState tree_ = TreeState::NotBuilt;
    std::vector<NodeId> setupTargets_;
    std::shared_ptr<const Packet> setupMsg_;
    Cycle setupAcceptedAt_ = 0;
    int pendingSetup_ = 0;
};

} // namespace phastlane::electrical

#endif // PHASTLANE_ELECTRICAL_NIC_HPP
