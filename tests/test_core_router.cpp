/**
 * @file
 * Router buffer / rotating arbiter tests (paper Section 2.1.1), a
 * randomized differential test of RouterBuffers against a naive list
 * model of the same rules, and a heap-allocation tripwire over the
 * network's launch path.
 */

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <list>
#include <new>
#include <set>
#include <tuple>
#include <vector>
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/network.hpp"
#include "core/router.hpp"

/** Global operator new calls so far (the allocation tripwire). */
static uint64_t g_heapAllocs = 0;

void *
operator new(std::size_t n)
{
    ++g_heapAllocs;
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace phastlane::core {
namespace {

PhastlaneParams
smallParams(int entries)
{
    PhastlaneParams p;
    p.routerBufferEntries = entries;
    return p;
}

OpticalPacket
mkPacket(uint64_t branch, NodeId dst)
{
    OpticalPacket pkt;
    pkt.base.id = branch;
    pkt.branchId = branch;
    pkt.finalDst = dst;
    return pkt;
}

TEST(RouterBuffers, CapacityEnforced)
{
    RouterBuffers rb(0, smallParams(2));
    EXPECT_TRUE(rb.hasSpace(Port::North));
    rb.push(Port::North, mkPacket(1, 5), 0);
    rb.push(Port::North, mkPacket(2, 5), 0);
    EXPECT_FALSE(rb.hasSpace(Port::North));
    EXPECT_EQ(rb.freeSlots(Port::North), 0);
    // Other queues unaffected.
    EXPECT_TRUE(rb.hasSpace(Port::South));
    EXPECT_EQ(rb.totalOccupancy(), 2u);
}

TEST(RouterBuffers, InfiniteBuffers)
{
    RouterBuffers rb(0, smallParams(0));
    for (int i = 0; i < 1000; ++i)
        rb.push(Port::Local, mkPacket(static_cast<uint64_t>(i), 5), 0);
    EXPECT_TRUE(rb.hasSpace(Port::Local));
    EXPECT_EQ(rb.occupancy(Port::Local), 1000u);
}

TEST(RouterBuffers, ArbitrateHonorsEligibility)
{
    RouterBuffers rb(0, smallParams(4));
    rb.push(Port::North, mkPacket(1, 5), 10);
    auto launches = rb.arbitrate(5, [](const OpticalPacket &) {
        return Port::East;
    });
    EXPECT_TRUE(launches.empty());
    launches = rb.arbitrate(10, [](const OpticalPacket &) {
        return Port::East;
    });
    ASSERT_EQ(launches.size(), 1u);
    EXPECT_EQ(launches[0].second, Port::East);
    EXPECT_EQ(launches[0].first->state, EntryState::Launched);
}

TEST(RouterBuffers, OnePacketPerOutputPort)
{
    RouterBuffers rb(0, smallParams(4));
    // Two packets in different queues wanting the same output port.
    rb.push(Port::North, mkPacket(1, 5), 0);
    rb.push(Port::South, mkPacket(2, 5), 0);
    auto launches = rb.arbitrate(0, [](const OpticalPacket &) {
        return Port::East;
    });
    EXPECT_EQ(launches.size(), 1u);
}

TEST(RouterBuffers, UpToFourLaunchesAcrossPorts)
{
    RouterBuffers rb(0, smallParams(8));
    const Port outs[4] = {Port::North, Port::East, Port::South,
                          Port::West};
    for (int i = 0; i < 4; ++i) {
        OpticalPacket p = mkPacket(static_cast<uint64_t>(i + 1), 5);
        p.base.tag = static_cast<uint64_t>(i);
        rb.push(Port::Local, p, 0);
    }
    auto launches = rb.arbitrate(0, [&](const OpticalPacket &pkt) {
        return outs[pkt.base.tag];
    });
    EXPECT_EQ(launches.size(), 4u);
}

TEST(RouterBuffers, LaunchedEntriesAreSkipped)
{
    RouterBuffers rb(0, smallParams(4));
    rb.push(Port::North, mkPacket(1, 5), 0);
    auto first = rb.arbitrate(0, [](const OpticalPacket &) {
        return Port::East;
    });
    ASSERT_EQ(first.size(), 1u);
    auto second = rb.arbitrate(1, [](const OpticalPacket &) {
        return Port::East;
    });
    EXPECT_TRUE(second.empty());
}

TEST(RouterBuffers, ReleaseFreesTheSlot)
{
    RouterBuffers rb(0, smallParams(1));
    rb.push(Port::North, mkPacket(7, 5), 0);
    rb.arbitrate(0, [](const OpticalPacket &) { return Port::East; });
    EXPECT_FALSE(rb.hasSpace(Port::North));
    rb.releaseLaunched(7);
    EXPECT_TRUE(rb.hasSpace(Port::North));
    EXPECT_EQ(rb.totalOccupancy(), 0u);
}

TEST(RouterBuffers, RestoreDroppedRetriesLater)
{
    RouterBuffers rb(0, smallParams(2));
    rb.push(Port::North, mkPacket(7, 5), 0);
    rb.arbitrate(0, [](const OpticalPacket &) { return Port::East; });
    OpticalPacket updated = mkPacket(7, 5);
    updated.taps = {3};
    rb.restoreDropped(7, updated, 20);
    // Not eligible before cycle 20.
    auto launches = rb.arbitrate(10, [](const OpticalPacket &) {
        return Port::East;
    });
    EXPECT_TRUE(launches.empty());
    launches = rb.arbitrate(20, [](const OpticalPacket &) {
        return Port::East;
    });
    ASSERT_EQ(launches.size(), 1u);
    EXPECT_EQ(launches[0].first->pkt.taps, std::vector<NodeId>{3});
    EXPECT_EQ(launches[0].first->attempts, 1);
}

TEST(RouterBuffers, FindLaunchedByBranchId)
{
    RouterBuffers rb(0, smallParams(4));
    rb.push(Port::North, mkPacket(1, 5), 0);
    rb.push(Port::East, mkPacket(2, 6), 0);
    rb.arbitrate(0, [](const OpticalPacket &p) {
        return p.branchId == 1 ? Port::South : Port::West;
    });
    Port q = Port::Local;
    BufferEntry *e = rb.findLaunched(2, &q);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(q, Port::East);
    EXPECT_EQ(rb.findLaunched(99), nullptr);
}

TEST(RouterBuffers, RotatingPointerGivesEveryQueueATurn)
{
    // Five queues all wanting the same output port: over five
    // arbitration rounds each queue must win at least once.
    RouterBuffers rb(0, smallParams(4));
    for (Port q : kAllPortList)
        rb.push(q, mkPacket(static_cast<uint64_t>(portIndex(q)) + 1,
                            5), 0);
    std::set<uint64_t> winners;
    for (Cycle c = 0; c < 5; ++c) {
        auto launches = rb.arbitrate(c, [](const OpticalPacket &) {
            return Port::East;
        });
        ASSERT_EQ(launches.size(), 1u);
        winners.insert(launches[0].first->pkt.branchId);
        rb.releaseLaunched(launches[0].first->pkt.branchId);
    }
    EXPECT_EQ(winners.size(), 5u);
}

TEST(RouterBuffers, RotationOrderIsPinned)
{
    // Regression pin for the rotating arbiter: priority starts at the
    // North queue and advances exactly one queue per arbitration
    // round, so with every queue holding a packet that wants the same
    // output port the winners come out in queue-index order.
    RouterBuffers rb(0, smallParams(4));
    for (Port q : kAllPortList)
        rb.push(q, mkPacket(static_cast<uint64_t>(portIndex(q)) + 1,
                            5), 0);
    for (Cycle c = 0; c < 5; ++c) {
        auto launches = rb.arbitrate(c, [](const OpticalPacket &) {
            return Port::East;
        });
        ASSERT_EQ(launches.size(), 1u);
        EXPECT_EQ(launches[0].first->pkt.branchId, c + 1)
            << "round " << c << " must be queue " << c << "'s turn";
        rb.releaseLaunched(launches[0].first->pkt.branchId);
    }
}

TEST(RouterBuffers, RotationAdvancesOnIdleRounds)
{
    // The pointer moves every round, launches or not: after one empty
    // round the East queue (index 1) holds priority, so East beats
    // North for a contested port even though North has a lower index.
    RouterBuffers rb(0, smallParams(4));
    auto empty = rb.arbitrate(0, [](const OpticalPacket &) {
        return Port::East;
    });
    EXPECT_TRUE(empty.empty());
    rb.push(Port::North, mkPacket(1, 5), 0);
    rb.push(Port::East, mkPacket(2, 5), 0);
    auto launches = rb.arbitrate(1, [](const OpticalPacket &) {
        return Port::South;
    });
    ASSERT_EQ(launches.size(), 1u);
    EXPECT_EQ(launches[0].first->pkt.branchId, 2u);
}

TEST(RouterBuffers, EmptiedQueueDoesNotSkipTheNextTurn)
{
    // Releasing the winner (emptying its queue) mid-rotation must not
    // cost the following queue its turn: with North drained after
    // round 0, round 1 belongs to East, round 2 to South.
    RouterBuffers rb(0, smallParams(4));
    rb.push(Port::North, mkPacket(1, 5), 0);
    rb.push(Port::East, mkPacket(2, 5), 0);
    rb.push(Port::South, mkPacket(3, 5), 0);
    for (Cycle c = 0; c < 3; ++c) {
        auto launches = rb.arbitrate(c, [](const OpticalPacket &) {
            return Port::West;
        });
        ASSERT_EQ(launches.size(), 1u);
        EXPECT_EQ(launches[0].first->pkt.branchId, c + 1);
        rb.releaseLaunched(launches[0].first->pkt.branchId);
    }
}

TEST(RouterBuffers, OldestFirstWinsAcrossQueues)
{
    // OldestFirst arbitration ranks by global insertion age, not
    // queue index: a South-queue packet pushed first beats a younger
    // North-queue packet for a contested port, round after round.
    PhastlaneParams p = smallParams(4);
    p.bufferArbitration = BufferArbitration::OldestFirst;
    RouterBuffers rb(0, p);
    rb.push(Port::South, mkPacket(1, 5), 0);
    rb.push(Port::North, mkPacket(2, 5), 0);
    auto launches = rb.arbitrate(0, [](const OpticalPacket &) {
        return Port::East;
    });
    ASSERT_EQ(launches.size(), 1u);
    EXPECT_EQ(launches[0].first->pkt.branchId, 1u);
    // The loser is untouched and wins once the port frees up.
    rb.releaseLaunched(1);
    launches = rb.arbitrate(1, [](const OpticalPacket &) {
        return Port::East;
    });
    ASSERT_EQ(launches.size(), 1u);
    EXPECT_EQ(launches[0].first->pkt.branchId, 2u);
}

TEST(RouterBuffers, OldestFirstRespectsPortExclusivity)
{
    // When the two oldest entries contend for one port, the younger
    // of them is skipped but a still-younger entry aimed at a free
    // port launches in the same round.
    PhastlaneParams p = smallParams(4);
    p.bufferArbitration = BufferArbitration::OldestFirst;
    RouterBuffers rb(0, p);
    OpticalPacket a = mkPacket(1, 5);
    a.base.tag = 0; // -> East
    OpticalPacket b = mkPacket(2, 5);
    b.base.tag = 0; // -> East (conflict with a)
    OpticalPacket c = mkPacket(3, 5);
    c.base.tag = 1; // -> West
    rb.push(Port::North, a, 0);
    rb.push(Port::South, b, 0);
    rb.push(Port::Local, c, 0);
    auto launches = rb.arbitrate(0, [](const OpticalPacket &pkt) {
        return pkt.base.tag == 0 ? Port::East : Port::West;
    });
    ASSERT_EQ(launches.size(), 2u);
    EXPECT_EQ(launches[0].first->pkt.branchId, 1u);
    EXPECT_EQ(launches[1].first->pkt.branchId, 3u);
    EXPECT_EQ(rb.findLaunched(2), nullptr);
}

TEST(RouterBuffers, OldestFirstHonorsEligibilityAndState)
{
    // A not-yet-eligible older entry must not block a younger
    // eligible one, and Launched entries never re-launch.
    PhastlaneParams p = smallParams(4);
    p.bufferArbitration = BufferArbitration::OldestFirst;
    RouterBuffers rb(0, p);
    rb.push(Port::North, mkPacket(1, 5), 50); // oldest, not eligible
    rb.push(Port::East, mkPacket(2, 5), 0);
    auto launches = rb.arbitrate(0, [](const OpticalPacket &) {
        return Port::South;
    });
    ASSERT_EQ(launches.size(), 1u);
    EXPECT_EQ(launches[0].first->pkt.branchId, 2u);
    // Entry 2 is now Launched; nothing is eligible at cycle 1.
    launches = rb.arbitrate(1, [](const OpticalPacket &) {
        return Port::South;
    });
    EXPECT_TRUE(launches.empty());
}

TEST(RouterBuffers, LaunchesPerQueueLimit)
{
    PhastlaneParams p = smallParams(8);
    p.launchesPerQueue = 1;
    RouterBuffers rb(0, p);
    // Two local packets wanting different ports: only one may launch
    // per cycle with the limit at 1.
    OpticalPacket a = mkPacket(1, 5);
    a.base.tag = 0;
    OpticalPacket b = mkPacket(2, 5);
    b.base.tag = 1;
    rb.push(Port::Local, a, 0);
    rb.push(Port::Local, b, 0);
    auto launches = rb.arbitrate(0, [](const OpticalPacket &pkt) {
        return pkt.base.tag == 0 ? Port::East : Port::West;
    });
    EXPECT_EQ(launches.size(), 1u);
}

TEST(AdmissionBucketTest, DeterministicLazyAccrual)
{
    AdmissionBucket b;
    b.reset(/*burst=*/2, /*period=*/3, /*now=*/0);
    // The bucket starts full; the first refill is due one period out.
    EXPECT_TRUE(b.consume(2, 3, 0));
    EXPECT_TRUE(b.consume(2, 3, 0));
    EXPECT_FALSE(b.consume(2, 3, 1));
    EXPECT_FALSE(b.consume(2, 3, 2));
    // Cycle 3: one token accrued.
    EXPECT_TRUE(b.consume(2, 3, 3));
    EXPECT_FALSE(b.consume(2, 3, 4));
    // A long idle gap accrues many periods but caps at the burst.
    EXPECT_TRUE(b.consume(2, 3, 30));
    EXPECT_TRUE(b.consume(2, 3, 30));
    EXPECT_FALSE(b.consume(2, 3, 30));
}

TEST(AdmissionBucketTest, AccrualIsIndependentOfQueryPattern)
{
    // Querying every cycle and querying once after a gap must leave
    // the bucket in the same state (lazy accrual determinism).
    AdmissionBucket stepped, jumped;
    stepped.reset(1, 5, 0);
    jumped.reset(1, 5, 0);
    EXPECT_TRUE(stepped.consume(1, 5, 0));
    EXPECT_TRUE(jumped.consume(1, 5, 0));
    for (uint64_t t = 1; t < 17; ++t)
        stepped.consume(1, 5, t);
    // stepped took tokens at t = 5, 10, 15; jumped only sees t = 17.
    EXPECT_FALSE(stepped.consume(1, 5, 17));
    EXPECT_TRUE(jumped.consume(1, 5, 17));
}

TEST(RouterBuffers, TokenBucketThrottlesLocalLaunches)
{
    PhastlaneParams p = smallParams(8);
    p.admission = AdmissionPolicy::TokenBucket;
    p.admissionBurst = 1;
    p.admissionPeriod = 4;
    RouterBuffers rb(0, p);
    OpticalPacket a = mkPacket(1, 5);
    a.base.tag = 0;
    OpticalPacket b = mkPacket(2, 5);
    b.base.tag = 1;
    rb.push(Port::Local, a, 0);
    rb.push(Port::Local, b, 0);
    // Burst 1: only one source-originated launch this cycle even
    // though both want distinct free ports.
    auto launches = rb.arbitrate(0, [](const OpticalPacket &pkt) {
        return pkt.base.tag == 0 ? Port::East : Port::West;
    });
    EXPECT_EQ(launches.size(), 1u);
    // No token until cycle 4.
    launches = rb.arbitrate(1, [](const OpticalPacket &pkt) {
        return pkt.base.tag == 0 ? Port::East : Port::West;
    });
    EXPECT_TRUE(launches.empty());
    launches = rb.arbitrate(4, [](const OpticalPacket &pkt) {
        return pkt.base.tag == 0 ? Port::East : Port::West;
    });
    EXPECT_EQ(launches.size(), 1u);
}

TEST(RouterBuffers, TokenBucketNeverThrottlesTransitQueues)
{
    PhastlaneParams p = smallParams(8);
    p.admission = AdmissionPolicy::TokenBucket;
    p.admissionBurst = 1;
    p.admissionPeriod = 100;
    RouterBuffers rb(0, p);
    // Drain the bucket with a local launch first.
    rb.push(Port::Local, mkPacket(1, 5), 0);
    auto launches = rb.arbitrate(0, [](const OpticalPacket &) {
        return Port::East;
    });
    ASSERT_EQ(launches.size(), 1u);
    // Transit (buffered-in-flight) packets are not admission-gated:
    // both launch with the bucket empty.
    OpticalPacket a = mkPacket(2, 5);
    a.base.tag = 0;
    OpticalPacket b = mkPacket(3, 5);
    b.base.tag = 1;
    rb.push(Port::North, a, 1);
    rb.push(Port::South, b, 1);
    launches = rb.arbitrate(1, [](const OpticalPacket &pkt) {
        return pkt.base.tag == 0 ? Port::West : Port::South;
    });
    EXPECT_EQ(launches.size(), 2u);
}

TEST(RouterBuffers, StarvationCounterTracksLosingStreaks)
{
    PhastlaneParams p = smallParams(8);
    RouterBuffers rb(0, p);
    // Three local packets contending for one output port: each
    // arbitration launches one and the rest record a loss.
    rb.push(Port::Local, mkPacket(1, 5), 0);
    rb.push(Port::Local, mkPacket(2, 5), 0);
    rb.push(Port::Local, mkPacket(3, 5), 0);
    auto all_east = [](const OpticalPacket &) { return Port::East; };
    EXPECT_EQ(rb.arbitrate(0, all_east).size(), 1u);
    EXPECT_EQ(rb.maxConsecutiveLosses(), 1u);
    EXPECT_EQ(rb.maxConsecutiveLossesLocal(), 1u);
    // Free the winner's slot; the next round launches one of the two
    // losers while the last packet's streak grows to 2.
    rb.releaseLaunched(1);
    auto launches = rb.arbitrate(1, all_east);
    ASSERT_EQ(launches.size(), 1u);
    EXPECT_EQ(launches[0].first->consecLosses, 0u);
    EXPECT_EQ(rb.maxConsecutiveLosses(), 2u);
    // The high-water mark persists after the streak ends.
    rb.releaseLaunched(launches[0].first->pkt.branchId);
    ASSERT_EQ(rb.arbitrate(2, all_east).size(), 1u);
    EXPECT_EQ(rb.maxConsecutiveLosses(), 2u);
}

TEST(RouterBuffers, EnqueuedAtStampsEligibility)
{
    PhastlaneParams p = smallParams(4);
    RouterBuffers rb(0, p);
    rb.push(Port::Local, mkPacket(1, 5), 17);
    auto launches = rb.arbitrate(17, [](const OpticalPacket &) {
        return Port::East;
    });
    ASSERT_EQ(launches.size(), 1u);
    // AgeBoost measures queueing age from the eligibility stamp.
    EXPECT_EQ(launches[0].first->enqueuedAt, 17u);
}

/** (branch id, output port, queue) of one launch. */
using Pick = std::tuple<uint64_t, Port, Port>;

/**
 * The RouterBuffers rules restated as plainly as possible: std::list
 * queues, a full rescan every arbitration (no skip horizon, no
 * memoized port), and the desired port stored with the entry.
 */
class ModelBuffers
{
  public:
    explicit ModelBuffers(const PhastlaneParams &p)
        : capacity_(p.routerBufferEntries), shared_(p.sharedBufferPool),
          perQueue_(p.launchesPerQueue), policy_(p.bufferArbitration)
    {
    }

    int size(Port q) const
    {
        return static_cast<int>(queues_[portIndex(q)].size());
    }

    int freeSlots(Port q) const
    {
        if (capacity_ <= 0)
            return INT_MAX;
        if (!shared_)
            return capacity_ - size(q);
        const int guaranteed = std::max(1, capacity_ / 2);
        int borrowed = 0;
        for (Port p : kAllPortList)
            borrowed += std::max(0, size(p) - guaranteed);
        return std::max(0, guaranteed - size(q)) +
               std::max(0, kAllPorts * (capacity_ - guaranteed) -
                               borrowed);
    }

    void push(Port q, uint64_t id, Port desired, Cycle eligible_at)
    {
        queues_[portIndex(q)].push_back(
            Entry{id, desired, eligible_at, false, seq_++, 0});
    }

    std::vector<Pick> arbitrate(Cycle now)
    {
        std::vector<Pick> picks;
        bool taken[kMeshPorts] = {false, false, false, false};
        const auto consider = [&](Entry &e, Port q, int &budget) {
            if (e.launched || e.eligibleAt > now)
                return;
            if (budget > 0 && !taken[portIndex(e.desired)]) {
                taken[portIndex(e.desired)] = true;
                e.launched = true;
                e.losses = 0;
                --budget;
                picks.emplace_back(e.id, e.desired, q);
                return;
            }
            ++e.losses;
            maxAll_ = std::max(maxAll_, e.losses);
            if (q == Port::Local)
                maxLocal_ = std::max(maxLocal_, e.losses);
        };
        if (policy_ == BufferArbitration::OldestFirst) {
            std::vector<std::pair<Entry *, Port>> all;
            for (Port q : kAllPortList) {
                for (Entry &e : queues_[portIndex(q)])
                    all.emplace_back(&e, q);
            }
            std::sort(all.begin(), all.end(),
                      [](const auto &a, const auto &b) {
                          return a.first->seq < b.first->seq;
                      });
            int budget = kMeshPorts;
            for (auto &[e, q] : all)
                consider(*e, q, budget);
        } else {
            for (int i = 0; i < kAllPorts; ++i) {
                const Port q = portFromIndex((rotate_ + i) % kAllPorts);
                int budget = perQueue_;
                for (Entry &e : queues_[portIndex(q)])
                    consider(e, q, budget);
            }
            rotate_ = (rotate_ + 1) % kAllPorts;
        }
        return picks;
    }

    void release(Port q, uint64_t id)
    {
        queues_[portIndex(q)].erase(find(q, id));
    }

    void restore(Port q, uint64_t id, Cycle eligible_at)
    {
        const auto it = find(q, id);
        it->launched = false;
        it->eligibleAt = eligible_at;
    }

    uint64_t maxAll() const { return maxAll_; }
    uint64_t maxLocal() const { return maxLocal_; }

  private:
    struct Entry {
        uint64_t id;
        Port desired;
        Cycle eligibleAt;
        bool launched;
        uint64_t seq;
        uint64_t losses;
    };

    std::list<Entry>::iterator find(Port q, uint64_t id)
    {
        auto &queue = queues_[portIndex(q)];
        const auto it = std::find_if(
            queue.begin(), queue.end(),
            [&](const Entry &e) { return e.launched && e.id == id; });
        EXPECT_NE(it, queue.end()) << "model lost launch " << id;
        return it;
    }

    int capacity_;
    bool shared_;
    int perQueue_;
    BufferArbitration policy_;
    std::array<std::list<Entry>, kAllPorts> queues_;
    int rotate_ = 0;
    uint64_t seq_ = 0;
    uint64_t maxAll_ = 0;
    uint64_t maxLocal_ = 0;
};

/**
 * Drive RouterBuffers and the model through @p cycles of random
 * pushes, emplaceEntry()s, arbitrations, releases and drop restores
 * (both the queue-targeted and the searching variants), comparing
 * every pick, every queue's occupancy and free slots, and the
 * starvation maxima. The packet's finalDst encodes its desired port.
 * Returns the peak total occupancy.
 */
size_t
runAgainstModel(const PhastlaneParams &p, uint64_t seed, int cycles,
                int max_pushes)
{
    RouterBuffers rb(0, p);
    ModelBuffers model(p);
    Rng rng(seed);
    ArbitrationScratch scratch;
    const auto desired = [](const OpticalPacket &pkt) {
        return portFromIndex(static_cast<int>(pkt.finalDst));
    };
    std::vector<std::pair<Port, uint64_t>> launched;
    std::vector<std::pair<Port, uint64_t>> still;
    uint64_t next_id = 1;
    size_t peak = 0;
    for (Cycle now = 0; now < static_cast<Cycle>(cycles); ++now) {
        // Resolve outstanding launches: most free their slot, some are
        // dropped and retry later, a few stay in flight a while.
        still.clear();
        for (const auto &[q, id] : launched) {
            const double r = rng.uniform();
            const bool targeted = rng.bernoulli(0.5);
            if (r < 0.6) {
                if (targeted)
                    rb.releaseLaunched(q, id);
                else
                    rb.releaseLaunched(id);
                model.release(q, id);
            } else if (r < 0.9) {
                const Cycle at =
                    now + 1 + static_cast<Cycle>(rng.uniformInt(0, 3));
                const BufferEntry *e = rb.findLaunchedIn(q, id);
                EXPECT_NE(e, nullptr) << "launch " << id;
                if (e == nullptr)
                    return peak;
                OpticalPacket updated = e->pkt;
                if (targeted)
                    rb.restoreDropped(q, id, updated, at);
                else
                    rb.restoreDropped(id, updated, at);
                model.restore(q, id, at);
            } else {
                still.emplace_back(q, id);
            }
        }
        launched.swap(still);

        const int pushes =
            static_cast<int>(rng.uniformInt(0, max_pushes));
        for (int k = 0; k < pushes; ++k) {
            const Port q = portFromIndex(
                static_cast<int>(rng.uniformInt(0, kAllPorts - 1)));
            EXPECT_EQ(rb.freeSlots(q), model.freeSlots(q));
            if (model.freeSlots(q) <= 0)
                continue;
            const uint64_t id = next_id++;
            const Port want = portFromIndex(
                static_cast<int>(rng.uniformInt(0, kMeshPorts - 1)));
            const Cycle at = now + static_cast<Cycle>(rng.uniformInt(0, 2));
            OpticalPacket pkt = mkPacket(id, portIndex(want));
            if (rng.bernoulli(0.5))
                rb.push(q, pkt, at);
            else
                rb.emplaceEntry(q, at).pkt = pkt;
            model.push(q, id, want, at);
        }

        rb.arbitrate(now, desired, scratch);
        std::vector<Pick> got;
        for (const LaunchPick &pick : scratch.launches) {
            got.emplace_back(pick.entry->pkt.branchId, pick.out,
                             pick.queue);
            launched.emplace_back(pick.queue, pick.entry->pkt.branchId);
        }
        const std::vector<Pick> want = model.arbitrate(now);
        EXPECT_EQ(got, want) << "cycle " << now;
        size_t total = 0;
        for (Port q : kAllPortList) {
            EXPECT_EQ(rb.occupancy(q), static_cast<size_t>(model.size(q)))
                << "cycle " << now << " queue " << portName(q);
            total += rb.occupancy(q);
        }
        EXPECT_EQ(rb.totalOccupancy(), total);
        EXPECT_EQ(rb.maxConsecutiveLosses(), model.maxAll());
        EXPECT_EQ(rb.maxConsecutiveLossesLocal(), model.maxLocal());
        if (::testing::Test::HasFailure())
            return peak;
        peak = std::max(peak, total);
    }
    return peak;
}

TEST(RouterBuffersModel, CapacityOne)
{
    for (uint64_t seed : {1, 2, 3})
        runAgainstModel(smallParams(1), seed, 400, 4);
}

TEST(RouterBuffersModel, CapacityTen)
{
    for (uint64_t seed : {1, 2, 3}) {
        EXPECT_GE(runAgainstModel(smallParams(10), seed, 400, 6), 30u);
        PhastlaneParams one = smallParams(10);
        one.launchesPerQueue = 1;
        runAgainstModel(one, seed, 400, 6);
        PhastlaneParams oldest = smallParams(10);
        oldest.bufferArbitration = BufferArbitration::OldestFirst;
        runAgainstModel(oldest, seed, 400, 6);
    }
}

TEST(RouterBuffersModel, InfiniteCapacityGrowsPast200)
{
    // Offered pushes outrun the four output ports, so the queues grow
    // well past any fixed buffer size.
    EXPECT_GT(runAgainstModel(smallParams(0), 1, 300, 10), 200u);
    PhastlaneParams oldest = smallParams(0);
    oldest.bufferArbitration = BufferArbitration::OldestFirst;
    EXPECT_GT(runAgainstModel(oldest, 2, 300, 10), 200u);
}

TEST(RouterBuffersModel, SharedPool)
{
    PhastlaneParams p = smallParams(10);
    p.sharedBufferPool = true;
    for (uint64_t seed : {1, 2, 3})
        EXPECT_GE(runAgainstModel(p, seed, 400, 8), 30u);
}

TEST(LaunchPathAllocations, FarFewerThanLaunches)
{
    // A seeded 32x32 uniform unicast run past the knee: after a
    // warm-up that grows the queues, scratch lists and delivery
    // vector to their steady size, the launch path (program memo,
    // contiguous buffers) allocates nothing; what remains is mostly
    // the NIC queue, a deque that allocates a block per few accepted
    // packets — about one allocation per 24 launches. Deque-backed
    // router queues allocated one per 2-3 launches here.
    PhastlaneParams p;
    p.meshWidth = 32;
    p.meshHeight = 32;
    p.seed = 7;
    PhastlaneNetwork net(p);
    Rng rng(11);
    PacketId next_id = 1;
    const auto run = [&](int cycles) {
        for (int c = 0; c < cycles; ++c) {
            for (NodeId n = 0; n < net.nodeCount(); ++n) {
                if (!rng.bernoulli(0.08))
                    continue;
                Packet pkt;
                pkt.id = next_id++;
                pkt.src = n;
                pkt.dst = static_cast<NodeId>(
                    rng.uniformInt(0, net.nodeCount() - 2));
                if (pkt.dst >= n)
                    ++pkt.dst;
                net.inject(pkt);
            }
            net.step();
        }
    };
    run(200);
    const PhastlaneCounters before = net.phastlaneCounters();
    const uint64_t allocs_before = g_heapAllocs;
    run(300);
    const uint64_t allocs = g_heapAllocs - allocs_before;
    const PhastlaneCounters &after = net.phastlaneCounters();
    const uint64_t launches = after.launches - before.launches;
    const uint64_t pushes =
        (after.blockedBuffered - before.blockedBuffered) +
        (after.interimAccepts - before.interimAccepts);
    ASSERT_GT(launches, 50000u);
    ASSERT_GT(pushes, 20000u);
    EXPECT_LT(allocs * 10, launches)
        << allocs << " allocations over " << launches << " launches and "
        << pushes << " buffer pushes";
}

} // namespace
} // namespace phastlane::core
