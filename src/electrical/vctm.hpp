/**
 * @file
 * Virtual Circuit Tree Multicasting (Jerger, Peh & Lipasti, ISCA
 * 2008), as used by the paper's electrical baseline for broadcasts.
 *
 * Each router keeps a small table mapping a tree id to the set of
 * output ports (and the local ejection) that tree uses at this router.
 * The first broadcast of a source is sent as unicast clones that
 * install table entries along their dimension-order routes; once every
 * clone has been delivered the tree is complete, and subsequent
 * broadcasts travel as a single flit that replicates at the table's
 * forks.
 */

#ifndef PHASTLANE_ELECTRICAL_VCTM_HPP
#define PHASTLANE_ELECTRICAL_VCTM_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "electrical/flit.hpp"

namespace phastlane::electrical {

/** Output set of one tree at one router. */
struct TreeEntry {
    /** Bitmask over mesh output ports (bit = portIndex). */
    uint8_t meshPorts = 0;

    /** Deliver to the local node here. */
    bool local = false;
};

/**
 * The per-router VCTM table with FIFO replacement.
 */
class VctmTable
{
  public:
    explicit VctmTable(int capacity);

    /** Lookup; nullptr on miss. */
    const TreeEntry *find(TreeId tree) const;

    /** Add @p port to the tree's mesh-output set (installing the
     *  entry if needed; may evict the oldest other tree). */
    void installPort(TreeId tree, Port port);

    /** Mark local delivery for the tree. */
    void installLocal(TreeId tree);

    size_t size() const { return entries_.size(); }

    /** Trees evicted so far (diagnostic; evictions while a tree is in
     *  use indicate an undersized table). */
    uint64_t evictions() const { return evictions_; }

  private:
    TreeEntry &entry(TreeId tree);

    size_t capacity_;
    std::unordered_map<TreeId, TreeEntry> entries_;
    /** Trees in install order, as a ring once full: fifo_[head_] is
     *  the oldest. */
    std::vector<TreeId> fifo_;
    size_t head_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace phastlane::electrical

#endif // PHASTLANE_ELECTRICAL_VCTM_HPP
