/**
 * @file
 * The electrical side of a Phastlane router: five buffer queues (N, E,
 * S, W input ports plus the local node queue) and the rotating
 * priority arbiter that re-launches buffered packets (paper Section
 * 2.1.1).
 */

#ifndef PHASTLANE_CORE_ROUTER_HPP
#define PHASTLANE_CORE_ROUTER_HPP

#include <algorithm>
#include <climits>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/control.hpp"
#include "core/packet.hpp"
#include "core/params.hpp"

namespace phastlane::core {

/** State of one buffered packet. */
enum class EntryState : uint8_t {
    /** Waiting for the arbiter (once eligibleAt is reached). */
    Waiting,
    /** Launched optically; the slot is held until the drop-signal
     *  window of the next cycle resolves. */
    Launched,
};

/** One router-buffer entry. */
struct BufferEntry {
    OpticalPacket pkt;
    EntryState state = EntryState::Waiting;

    /** Earliest cycle the arbiter may launch this entry. */
    Cycle eligibleAt = 0;

    /** Completed launch attempts (drives exponential backoff). */
    int attempts = 0;

    /** Insertion order (age) for oldest-first arbitration. */
    uint64_t seq = 0;

    /** Cycle the packet first became launchable from this buffer.
     *  Survives restoreDropped(), so it measures total residence —
     *  the age AdmissionPolicy::AgeBoost promotes on. */
    Cycle enqueuedAt = 0;

    /** Arbitration rounds this entry was eligible but not selected,
     *  since its last launch (the starvation measure). */
    uint32_t consecLosses = 0;

    /** Memoized desired output port. A buffered packet's residence
     *  router and destination never change, so the XY first hop is
     *  computed once on first arbitration instead of on every rescan
     *  while the entry waits out contention or backoff. Local is the
     *  "unset" sentinel: no buffered packet wants the local port. */
    Port desired = Port::Local;
};

/** Identifies a buffer entry for launch-outcome resolution. */
struct EntryRef {
    NodeId router = kInvalidNode;
    Port queue = Port::Local;
    PacketId packet = 0;
};

/** One arbitration winner: the entry, its output port, and the input
 *  queue it sits in (so launch-outcome resolution can go straight to
 *  that queue instead of scanning all five). */
struct LaunchPick {
    BufferEntry *entry;
    Port out;
    Port queue;
};

/**
 * Caller-owned arbitration scratch: the launch list plus the
 * oldest-first candidate buffer, reused across routers and cycles so
 * the per-router arbitrate() call allocates nothing in steady state.
 */
struct ArbitrationScratch {
    std::vector<LaunchPick> launches;
    std::vector<std::pair<uint64_t, std::pair<BufferEntry *, Port>>>
        candidates;
};

/**
 * Buffer queues and rotating arbiter of one router.
 *
 * Each queue is contiguous storage grown on demand (never reserved up
 * front: a campaign keeps many networks alive, some with 32/64-entry
 * or infinite buffers). Pushes, emplaceEntry() and releases may move
 * entries, so no BufferEntry pointer or reference is held across any
 * of them: arbitrate()'s LaunchPicks are used up before the next
 * push, and findLaunched*() / emplaceEntry() results are used at
 * once.
 */
class RouterBuffers
{
  public:
    RouterBuffers(NodeId self, const PhastlaneParams &params);

    NodeId self() const { return self_; }

    /** True when queue @p q can accept another packet (inline: this
     *  runs per arrival in the wavefront hot path). */
    bool hasSpace(Port q) const { return freeSlots(q) > 0; }

    /** Free slots in queue @p q (INT_MAX when infinite). */
    int freeSlots(Port q) const
    {
        if (capacity_ <= 0)
            return INT_MAX;
        const int occ = static_cast<int>(queues_[portIndex(q)].size());
        if (!sharedPool_)
            return capacity_ - occ;
        return sharedPoolFreeSlots(occ);
    }

    /** Current occupancy of queue @p q. */
    size_t occupancy(Port q) const
    {
        return queues_[portIndex(q)].size();
    }

    /** Total occupancy across all five queues. */
    size_t totalOccupancy() const { return total_; }

    /**
     * Insert a received packet into queue @p q; the caller must have
     * checked hasSpace(). @p eligible_at is the first cycle the
     * arbiter may re-launch it.
     */
    void push(Port q, OpticalPacket pkt, Cycle eligible_at);

    /**
     * Allocate an empty entry at the tail of queue @p q (same
     * bookkeeping as push()) and return it for the caller to fill its
     * pkt in place — the NIC-transfer path moves one packet instead
     * of a packet plus a whole BufferEntry.
     */
    BufferEntry &emplaceEntry(Port q, Cycle eligible_at);

    /**
     * Launch arbitration: pick up to four launch candidates for
     * distinct output ports among the Waiting entries whose
     * eligibleAt has passed, using the configured policy (rotating
     * priority over the queues, or globally oldest-first).
     * @p desired_port yields the output port an entry needs from this
     * router.
     *
     * Selected entries are flipped to Launched. Returns references to
     * the selected entries paired with their output port.
     */
    template <typename DesiredPortFn>
    std::vector<std::pair<BufferEntry *, Port>>
    arbitrate(Cycle now, DesiredPortFn &&desired_port);

    /**
     * Allocation-free arbitrate: results land in
     * @p scratch.launches (cleared first). Empty routers return
     * immediately after advancing the rotating pointer, so a
     * mostly-idle mesh pays O(1) per router.
     */
    template <typename DesiredPortFn>
    void arbitrate(Cycle now, DesiredPortFn &&desired_port,
                   ArbitrationScratch &scratch);

    /** True when no queue holds any entry (O(1)). */
    bool empty() const { return total_ == 0; }

    /** Largest consecLosses streak seen on any queue (starvation
     *  indicator; DESIGN.md §14). */
    uint64_t maxConsecutiveLosses() const { return maxConsecLossAll_; }

    /** Largest streak on the local queue only — i.e. for packets
     *  originated by this router's node (the per-source view). */
    uint64_t maxConsecutiveLossesLocal() const
    {
        return maxConsecLossLocal_;
    }

  private:
    /** DAMQ shared-pool slot accounting (the uncommon configuration;
     *  kept out of line). */
    int sharedPoolFreeSlots(int occ) const;

  public:

    /** Resolve a prior launch: release the entry on success. */
    void releaseLaunched(PacketId id);

    /** Queue-targeted release: the caller learned the source queue at
     *  launch time, so only that queue is searched. */
    void releaseLaunched(Port q, PacketId id);

    /**
     * Resolve a prior launch that was dropped downstream: restore the
     * entry to Waiting with the (possibly tap-reduced) packet state
     * and the retry eligibility cycle.
     */
    void restoreDropped(PacketId id, OpticalPacket updated,
                        Cycle eligible_at);

    /** Queue-targeted variant of restoreDropped(). */
    void restoreDropped(Port q, PacketId id, OpticalPacket updated,
                        Cycle eligible_at);

    /** Find the queue holding the Launched entry for @p id. */
    BufferEntry *findLaunched(PacketId id, Port *queue_out = nullptr);

    /** Find the Launched entry for @p id within queue @p q only. */
    BufferEntry *findLaunchedIn(Port q, PacketId id);

    /** Record that a Waiting entry may become launchable at @p c;
     *  keeps the arbitration skip horizon conservative when a caller
     *  rewrites eligibleAt directly through a findLaunched pointer. */
    void noteEligible(Cycle c)
    {
        nextEligible_ = std::min(nextEligible_, c);
        if (board_ != nullptr && c < *board_)
            *board_ = c;
    }

    /**
     * Bind this router's slot in its network's launch board
     * (DESIGN.md §13). The slot is a lower bound on the earliest cycle
     * arbitrate() could launch here, and kNeverCycle exactly while the
     * router is empty. The network skips the arbitrate() call while
     * the slot is in the future, and replays the skipped
     * rotating-pointer advances with syncRotate() before the next real
     * call. A router that was never bound (a standalone one in a unit
     * test) keeps no slot.
     */
    void bindBoard(Cycle *slot)
    {
        board_ = slot;
        *board_ = total_ == 0 ? kNeverCycle : nextEligible_;
    }

    /**
     * Set the rotating pointer to what it would be had arbitrate() run
     * once per cycle since cycle 0, advancing it by one per call: the
     * network calls this before every real arbitrate(), so skipped
     * cycles are invisible to the priority rotation.
     */
    void syncRotate(Cycle now)
    {
        if (policy_ != BufferArbitration::OldestFirst)
            rotate_ = static_cast<int>(now % kAllPorts);
    }

    /** The cycle of the last arbitrate() call that scanned the queues
     *  (kNeverCycle before the first) and the rotating pointer that
     *  scan started from: lets a checker confirm that every real
     *  arbitration of a network-stepped router saw cycle % 5. */
    Cycle lastScanAt() const { return lastScanAt_; }
    int lastScanRotate() const { return lastScanRotate_; }

    /** Earliest eligibleAt among Waiting entries (kNeverCycle when
     *  none): the true launch horizon the board slot bounds from
     *  below. O(occupancy); for checkers. */
    Cycle earliestWaiting() const;

  private:
    NodeId self_;
    int capacity_; // <= 0: infinite
    int launchesPerQueue_;
    bool sharedPool_;
    BufferArbitration policy_;
    /** Oldest entry first; released entries are erased in place, so
     *  the survivors keep their FIFO order. */
    std::array<std::vector<BufferEntry>, kAllPorts> queues_;
    int rotate_ = 0;
    uint64_t nextSeq_ = 0;
    size_t total_ = 0;
    /** Lower bound on the earliest eligibleAt among Waiting entries;
     *  kNeverCycle when every entry is Launched (or none exist). Lets
     *  arbitrate() skip the queue scan while all buffered packets sit
     *  in backoff or in flight. */
    Cycle nextEligible_ = 0;
    /** Slot in the network's launch board, or nullptr for a router
     *  outside a network. Mirrors the launch horizon so the network
     *  can skip whole routers without touching their queues. */
    Cycle *board_ = nullptr;
    Cycle lastScanAt_ = kNeverCycle;
    int lastScanRotate_ = 0;

    /** Admission policy (DESIGN.md §14): TokenBucket throttles
     *  local-queue (source-originated) launches through bucket_;
     *  transit queues are never throttled. The consume() sequence is
     *  exactly the arbitration scan order. */
    AdmissionPolicy admission_ = AdmissionPolicy::None;
    int admissionBurst_ = 0;
    int admissionPeriod_ = 1;
    AdmissionBucket bucket_;

    /** Starvation maxima (longest losing streak observed). */
    uint64_t maxConsecLossLocal_ = 0;
    uint64_t maxConsecLossAll_ = 0;

    /** Account one released entry; an emptied router clears its
     *  board slot so the network stops visiting it. */
    void noteRemoved()
    {
        if (--total_ == 0 && board_ != nullptr)
            *board_ = kNeverCycle;
    }

    /** Record an eligible-but-unselected arbitration round. */
    void noteLoss(BufferEntry &entry, Port q)
    {
        const uint64_t v = ++entry.consecLosses;
        if (v > maxConsecLossAll_)
            maxConsecLossAll_ = v;
        if (q == Port::Local && v > maxConsecLossLocal_)
            maxConsecLossLocal_ = v;
    }
};

template <typename DesiredPortFn>
void
RouterBuffers::arbitrate(Cycle now, DesiredPortFn &&desired_port,
                         ArbitrationScratch &scratch)
{
    auto &launches = scratch.launches;
    launches.clear();
    // Advance the rotating pointer even when skipping an empty router
    // (or one whose entries are all Launched or still in backoff): its
    // future priority order must not depend on whether earlier cycles
    // had launchable traffic.
    if (total_ == 0 || now < nextEligible_) {
        if (policy_ != BufferArbitration::OldestFirst)
            rotate_ = (rotate_ + 1) % kAllPorts;
        // Refresh a stale-low board slot (a drop restored an entry
        // into backoff) so the wasted visit does not recur every
        // cycle.
        if (board_ != nullptr)
            *board_ = total_ == 0 ? kNeverCycle : nextEligible_;
        return;
    }
    lastScanAt_ = now;
    lastScanRotate_ = rotate_;
    bool port_taken[kMeshPorts] = {false, false, false, false};
    Cycle next_eligible = kNeverCycle;

    auto try_launch = [&](BufferEntry &entry, Port q,
                          int &queue_budget) {
        if (entry.state == EntryState::Waiting &&
            entry.eligibleAt <= now) {
            bool selected = false;
            if (queue_budget > 0) {
                if (entry.desired == Port::Local)
                    entry.desired = desired_port(entry.pkt);
                const Port out = entry.desired;
                // The admission token is consumed last, only when the
                // launch would otherwise proceed — a blocked port must
                // not drain the bucket. The entry stays Waiting and
                // eligible, so the skip horizon keeps the router hot
                // and the next arbitration retries.
                if (out != Port::Local &&
                    !port_taken[portIndex(out)] &&
                    (admission_ != AdmissionPolicy::TokenBucket ||
                     q != Port::Local ||
                     bucket_.consume(admissionBurst_, admissionPeriod_,
                                     now))) {
                    port_taken[portIndex(out)] = true;
                    entry.state = EntryState::Launched;
                    launches.push_back(LaunchPick{&entry, out, q});
                    --queue_budget;
                    entry.consecLosses = 0;
                    selected = true;
                }
            }
            if (!selected)
                noteLoss(entry, q);
        }
        // Whatever is still Waiting after this decision bounds the
        // next cycle's skip horizon.
        if (entry.state == EntryState::Waiting)
            next_eligible = std::min(next_eligible, entry.eligibleAt);
    };

    if (policy_ == BufferArbitration::OldestFirst) {
        // Globally oldest eligible entry first (extension).
        auto &candidates = scratch.candidates;
        candidates.clear();
        for (int qi = 0; qi < kAllPorts; ++qi) {
            const Port q = portFromIndex(qi);
            for (auto &entry : queues_[qi]) {
                if (entry.state != EntryState::Waiting)
                    continue;
                if (entry.eligibleAt <= now) {
                    candidates.emplace_back(
                        entry.seq, std::make_pair(&entry, q));
                } else {
                    next_eligible =
                        std::min(next_eligible, entry.eligibleAt);
                }
            }
        }
        std::sort(candidates.begin(), candidates.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        int budget = 4; // one launch per output port at most
        for (auto &[seq, cand] : candidates)
            try_launch(*cand.first, cand.second, budget);
    } else {
        // Rotating pointer over the five queues; within a queue,
        // oldest-first; at most launchesPerQueue_ per queue.
        for (int qi = 0; qi < kAllPorts; ++qi) {
            const Port q = portFromIndex((rotate_ + qi) % kAllPorts);
            int queue_budget = launchesPerQueue_;
            for (auto &entry : queues_[portIndex(q)])
                try_launch(entry, q, queue_budget);
        }
        rotate_ = (rotate_ + 1) % kAllPorts;
    }
    nextEligible_ = next_eligible;
    // Entries launched now resolve at the start of the next cycle:
    // a release that empties the router clears the slot, and a drop
    // lowers it through noteEligible(). Until then a router holding
    // only launched entries keeps a finite slot, so kNeverCycle means
    // empty.
    if (board_ != nullptr)
        *board_ = next_eligible == kNeverCycle ? now + 1 : next_eligible;
}

template <typename DesiredPortFn>
std::vector<std::pair<BufferEntry *, Port>>
RouterBuffers::arbitrate(Cycle now, DesiredPortFn &&desired_port)
{
    ArbitrationScratch scratch;
    arbitrate(now, std::forward<DesiredPortFn>(desired_port), scratch);
    std::vector<std::pair<BufferEntry *, Port>> out;
    out.reserve(scratch.launches.size());
    for (const auto &pick : scratch.launches)
        out.emplace_back(pick.entry, pick.out);
    return out;
}

} // namespace phastlane::core

#endif // PHASTLANE_CORE_ROUTER_HPP
