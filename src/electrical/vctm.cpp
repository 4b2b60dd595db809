#include "electrical/vctm.hpp"

#include "common/log.hpp"

namespace phastlane::electrical {

VctmTable::VctmTable(int capacity)
    : capacity_(static_cast<size_t>(capacity))
{
    if (capacity <= 0)
        fatal("VCTM table capacity must be positive");
}

const TreeEntry *
VctmTable::find(TreeId tree) const
{
    const auto it = entries_.find(tree);
    return it == entries_.end() ? nullptr : &it->second;
}

TreeEntry &
VctmTable::entry(TreeId tree)
{
    auto it = entries_.find(tree);
    if (it != entries_.end())
        return it->second;
    if (fifo_.size() < capacity_) {
        fifo_.push_back(tree);
    } else {
        // Full: the newest tree takes the oldest one's ring slot.
        entries_.erase(fifo_[head_]);
        ++evictions_;
        fifo_[head_] = tree;
        head_ = (head_ + 1) % capacity_;
    }
    return entries_[tree];
}

void
VctmTable::installPort(TreeId tree, Port port)
{
    PL_ASSERT(port != Port::Local, "installPort with the local port");
    entry(tree).meshPorts |=
        static_cast<uint8_t>(1u << portIndex(port));
}

void
VctmTable::installLocal(TreeId tree)
{
    entry(tree).local = true;
}

} // namespace phastlane::electrical
