#include "core/router.hpp"

#include <algorithm>
#include <climits>

#include "common/log.hpp"

namespace phastlane::core {

RouterBuffers::RouterBuffers(NodeId self, const PhastlaneParams &params)
    : self_(self),
      capacity_(params.routerBufferEntries),
      launchesPerQueue_(params.launchesPerQueue),
      sharedPool_(params.sharedBufferPool),
      policy_(params.bufferArbitration),
      admission_(params.admission),
      admissionBurst_(params.admissionBurst),
      admissionPeriod_(params.admissionPeriod)
{
    if (admission_ == AdmissionPolicy::TokenBucket)
        bucket_.reset(admissionBurst_, admissionPeriod_, 0);
}

int
RouterBuffers::sharedPoolFreeSlots(int occ) const
{
    // DAMQ with reserved slots: each queue is guaranteed half of its
    // partition; the remaining halves form a shared pool any queue
    // may borrow from.
    const int guaranteed = std::max(1, capacity_ / 2);
    const int shared_size =
        kAllPorts * (capacity_ - guaranteed);
    int shared_used = 0;
    for (const auto &queue : queues_) {
        shared_used += std::max(
            0, static_cast<int>(queue.size()) - guaranteed);
    }
    const int own_reserved = std::max(0, guaranteed - occ);
    return own_reserved + std::max(0, shared_size - shared_used);
}

void
RouterBuffers::push(Port q, OpticalPacket pkt, Cycle eligible_at)
{
    emplaceEntry(q, eligible_at).pkt = std::move(pkt);
}

BufferEntry &
RouterBuffers::emplaceEntry(Port q, Cycle eligible_at)
{
    PL_ASSERT(hasSpace(q), "pushing into a full router buffer");
    BufferEntry &e = queues_[portIndex(q)].emplace_back();
    e.state = EntryState::Waiting;
    e.eligibleAt = eligible_at;
    e.enqueuedAt = eligible_at;
    e.seq = nextSeq_++;
    ++total_;
    noteEligible(eligible_at);
    return e;
}

Cycle
RouterBuffers::earliestWaiting() const
{
    Cycle earliest = kNeverCycle;
    for (const auto &queue : queues_) {
        for (const auto &entry : queue) {
            if (entry.state == EntryState::Waiting)
                earliest = std::min(earliest, entry.eligibleAt);
        }
    }
    return earliest;
}

BufferEntry *
RouterBuffers::findLaunchedIn(Port q, PacketId id)
{
    for (auto &entry : queues_[portIndex(q)]) {
        if (entry.state == EntryState::Launched &&
            entry.pkt.branchId == id) {
            return &entry;
        }
    }
    return nullptr;
}

BufferEntry *
RouterBuffers::findLaunched(PacketId id, Port *queue_out)
{
    for (Port q : kAllPortList) {
        for (auto &entry : queues_[portIndex(q)]) {
            if (entry.state == EntryState::Launched &&
                entry.pkt.branchId == id) {
                if (queue_out)
                    *queue_out = q;
                return &entry;
            }
        }
    }
    return nullptr;
}

void
RouterBuffers::releaseLaunched(Port q, PacketId id)
{
    auto &queue = queues_[portIndex(q)];
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->state == EntryState::Launched &&
            it->pkt.branchId == id) {
            queue.erase(it);
            noteRemoved();
            return;
        }
    }
    panic("releaseLaunched: packet %llu not in queue %d at router %d",
          static_cast<unsigned long long>(id), portIndex(q), self_);
}

void
RouterBuffers::releaseLaunched(PacketId id)
{
    for (auto &queue : queues_) {
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            if (it->state == EntryState::Launched &&
                it->pkt.branchId == id) {
                queue.erase(it);
                noteRemoved();
                return;
            }
        }
    }
    panic("releaseLaunched: packet %llu not found at router %d",
          static_cast<unsigned long long>(id), self_);
}

void
RouterBuffers::restoreDropped(PacketId id, OpticalPacket updated,
                              Cycle eligible_at)
{
    BufferEntry *entry = findLaunched(id);
    if (!entry)
        panic("restoreDropped: packet %llu not found at router %d",
              static_cast<unsigned long long>(id), self_);
    // enqueuedAt is deliberately untouched: residence age accumulates
    // across drop/retry rounds so AgeBoost sees true starvation.
    entry->pkt = std::move(updated);
    entry->state = EntryState::Waiting;
    entry->eligibleAt = eligible_at;
    ++entry->attempts;
    noteEligible(eligible_at);
}

void
RouterBuffers::restoreDropped(Port q, PacketId id,
                              OpticalPacket updated, Cycle eligible_at)
{
    BufferEntry *entry = findLaunchedIn(q, id);
    if (!entry)
        panic("restoreDropped: packet %llu not in queue %d at router "
              "%d",
              static_cast<unsigned long long>(id), portIndex(q),
              self_);
    entry->pkt = std::move(updated);
    entry->state = EntryState::Waiting;
    entry->eligibleAt = eligible_at;
    ++entry->attempts;
    noteEligible(eligible_at);
}

} // namespace phastlane::core
