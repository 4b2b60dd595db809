#include "core/network.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/log.hpp"

namespace phastlane::core {

PhastlaneNetwork::StepScratch::StepScratch(int node_count)
    : claims(node_count), reqOnce(node_count), reqMulti(node_count),
      reqWin(node_count)
{
    const size_t flat_ports =
        static_cast<size_t>(node_count) * kMeshPorts;
    bestRank.assign(flat_ports, 0);
    bestFlight.assign(flat_ports, 0);
    bestEpoch.assign(flat_ports, 0);
    reqHead.assign(flat_ports, 0);
    reqTail.assign(flat_ports, 0);
    reqEpoch.assign(flat_ports, 0);
}

PhastlaneNetwork::PhastlaneNetwork(const PhastlaneParams &params)
    : params_(params),
      mesh_(params.meshWidth, params.meshHeight),
      rng_(params.seed),
      returnPaths_(mesh_.nodeCount()),
      bitMesh_(params.meshWidth, params.meshHeight),
      unicastProgs_(mesh_, params.maxHopsPerCycle),
      scratch_(mesh_.nodeCount())
{
    if (params_.maxHopsPerCycle < 1)
        fatal("maxHopsPerCycle must be at least 1");
    if (params_.admission == AdmissionPolicy::TokenBucket &&
        (params_.admissionBurst < 1 || params_.admissionPeriod < 1))
        fatal("TokenBucket admission requires admissionBurst >= 1 "
              "and admissionPeriod >= 1");
    if (params_.admission == AdmissionPolicy::AgeBoost &&
        params_.admissionAgeThreshold < 0)
        fatal("AgeBoost admission requires admissionAgeThreshold "
              ">= 0");
    nics_.reserve(static_cast<size_t>(mesh_.nodeCount()));
    routers_.reserve(static_cast<size_t>(mesh_.nodeCount()));
    failedRouters_.assign(static_cast<size_t>(mesh_.nodeCount()), 0);
    for (NodeId n = 0; n < mesh_.nodeCount(); ++n) {
        nics_.emplace_back(n, params_, mesh_);
        routers_.emplace_back(n, params_);
        // Hard router failures are drawn once, at construction, so the
        // failure set is a pure function of (faultSeed, routerFailRate)
        // and identical in the ReferenceNetwork oracle.
        if (faultRoll(params_.faults, params_.faults.routerFailRate,
                      FaultKind::RouterFail,
                      static_cast<uint64_t>(n), 0, 0)) {
            failedRouters_[static_cast<size_t>(n)] = 1;
        }
    }
    const size_t flat_ports =
        static_cast<size_t>(mesh_.nodeCount()) * kMeshPorts;
    portClaimCounts_.assign(flat_ports, 0);
    launchBoard_.assign(static_cast<size_t>(mesh_.nodeCount()),
                        kNeverCycle);
    for (size_t r = 0; r < routers_.size(); ++r)
        routers_[r].bindBoard(&launchBoard_[r]);
    nicBusy_.assign((static_cast<size_t>(mesh_.nodeCount()) + 63) / 64,
                    0);
}

bool
PhastlaneNetwork::nicHasSpace(NodeId n) const
{
    PL_ASSERT(mesh_.valid(n), "invalid node %d", n);
    // Conservative: report space for a full broadcast so callers can
    // use the boolean for either message type.
    Packet probe;
    probe.src = n;
    probe.broadcast = true;
    return nics_[static_cast<size_t>(n)].hasSpaceFor(probe);
}

bool
PhastlaneNetwork::inject(const Packet &pkt)
{
    PL_ASSERT(mesh_.valid(pkt.src), "invalid source %d", pkt.src);
    auto &nic = nics_[static_cast<size_t>(pkt.src)];
    if (!nic.hasSpaceFor(pkt))
        return false;
    if (routerFailed(pkt.src)) {
        // Dead source: the message is accepted (the node's software
        // has no way to know its router died) but nothing is ever
        // transmitted; every delivery unit is accounted lost
        // immediately so the network still quiesces.
        ++counters_.messagesAccepted;
        const int units = pkt.deliveryCount(mesh_.nodeCount());
        events_.lostUnits += static_cast<uint64_t>(units);
        if (observer_) {
            observer_->onAccept(pkt, 0, units);
            observer_->onLost(pkt, 0, pkt.src, units,
                              LostCause::DeadSource);
        }
        return true;
    }
    const size_t nic_before = nic.occupancy();
    nic.accept(pkt, cycle_, nextBranchId_);
    nicBusy_[static_cast<size_t>(pkt.src) >> 6] |=
        uint64_t{1} << (static_cast<size_t>(pkt.src) & 63);
    ++counters_.messagesAccepted;
    outstanding_ +=
        static_cast<uint64_t>(pkt.deliveryCount(mesh_.nodeCount()));
    if (observer_) {
        observer_->onAccept(
            pkt, static_cast<int>(nic.occupancy() - nic_before),
            pkt.deliveryCount(mesh_.nodeCount()));
    }
    return true;
}

uint64_t
PhastlaneNetwork::bufferedPackets() const
{
    uint64_t total = 0;
    for (const auto &r : routers_)
        total += r.totalOccupancy();
    return total;
}

uint64_t
PhastlaneNetwork::nicQueuedPackets() const
{
    uint64_t total = 0;
    for (const auto &nic : nics_)
        total += nic.occupancy();
    return total;
}

Port
PhastlaneNetwork::desiredPort(NodeId at, const OpticalPacket &pkt) const
{
    PL_ASSERT(at != pkt.finalDst,
              "buffered packet already at its destination");
    return mesh_.xyFirstHop(at, pkt.finalDst);
}

ControlProgram
PhastlaneNetwork::buildProgram(NodeId from, const OpticalPacket &pkt)
{
    if (pkt.multicast) {
        return buildMulticastProgram(
            mesh_, from,
            std::span<const NodeId>(pkt.taps).subspan(pkt.tapCursor),
            params_.maxHopsPerCycle);
    }
    return unicastProgs_.get(from, pkt.finalDst);
}

Cycle
PhastlaneNetwork::dropRetryCycle(int attempts)
{
    // The drop signal arrives in the cycle being processed; the
    // earliest relaunch is the next one, plus any configured backoff.
    Cycle extra = static_cast<Cycle>(params_.backoffBase);
    const int64_t window = backoffWindow(params_, attempts);
    if (window > 0)
        extra += static_cast<Cycle>(rng_.uniformInt(0, window));
    return cycle_ + 1 + extra;
}

bool
PhastlaneNetwork::claimed(NodeId router, Port out) const
{
    return scratch_.claims.test(router, out);
}

void
PhastlaneNetwork::setClaim(NodeId router, Port out)
{
    scratch_.claims.set(router, out);
    ++portClaimCounts_[static_cast<size_t>(router) * kMeshPorts +
                       portIndex(out)];
}

void
PhastlaneNetwork::deliver(const OpticalPacket &pkt, NodeId node)
{
    Delivery d;
    d.packet = pkt.base;
    d.node = node;
    d.at = cycle_;
    d.acceptedAt = pkt.acceptedAt;
    d.injectedAt = pkt.firstInjectedAt;
    deliveries_.push_back(std::move(d));
    ++counters_.deliveries;
    PL_ASSERT(outstanding_ > 0, "delivery without outstanding message");
    --outstanding_;
    if (observer_)
        observer_->onDeliver(deliveries_.back());
}

void
PhastlaneNetwork::resolveOutcomes()
{
    // Releases draw no randomness and touch only their own entry, so
    // resolving them ahead of the drops (which keep their relative
    // order, and with it the backoff RNG stream) is observably
    // identical to the historical interleaved order.
    for (const EntryRef &ref : pendingReleases_) {
        routers_[static_cast<size_t>(ref.router)].releaseLaunched(
            ref.queue, ref.packet);
    }
    pendingReleases_.clear();
    for (auto &o : pendingDrops_) {
        auto &rb = routers_[static_cast<size_t>(o.ref.router)];
        {
            BufferEntry *e = rb.findLaunchedIn(o.ref.queue,
                                               o.ref.packet);
            PL_ASSERT(e, "dropped launch lost its buffer entry");
            if (o.updated.multicast &&
                faultRoll(params_.faults,
                          params_.faults.dropperIdCorruptRate,
                          FaultKind::DropperIdCorrupt,
                          o.updated.branchId,
                          static_cast<uint64_t>(cycle_), 0)) {
                // The dropper's Node ID arrived corrupted: the holder
                // cannot clear the Multicast bits its dropped attempt
                // already served, so it keeps its stored (pre-launch)
                // branch state and retransmits it whole. Taps the
                // failed attempt did serve are recorded in dedupBelow
                // for receiver-side duplicate suppression. The retry
                // cycle is drawn exactly as in the clean path so the
                // backoff RNG stays in lockstep with the oracle.
                ++events_.faultCorruptions;
                e->pkt.dedupBelow = std::max(e->pkt.dedupBelow,
                                             o.updated.tapCursor);
                e->state = EntryState::Waiting;
                e->eligibleAt = dropRetryCycle(e->attempts + 1);
                ++e->attempts;
                rb.noteEligible(e->eligibleAt);
            } else {
                rb.restoreDropped(o.ref.queue, o.ref.packet,
                                  std::move(o.updated),
                                  dropRetryCycle(e->attempts + 1));
            }
        }
    }
    pendingDrops_.clear();
}

void
PhastlaneNetwork::nicToLocalQueues()
{
    // NICs fill only through inject(), which sets their bit, and drain
    // only here, which clears it once the queue is empty, so the set
    // bits are exactly the non-empty NICs. Walking them in ascending
    // node order visits what a scan of every node would act on, in
    // the same order.
    for (size_t w = 0; w < nicBusy_.size(); ++w) {
        uint64_t bits = nicBusy_[w];
        while (bits != 0) {
            const int b = __builtin_ctzll(bits);
            bits &= bits - 1;
            const size_t n = w * 64 + static_cast<size_t>(b);
            auto &nic = nics_[n];
            auto &rb = routers_[n];
            // The electrical NIC-to-router transfer costs one cycle;
            // the packet becomes launchable in the next arbitration.
            for (int i = 0; i < params_.nicTransfersPerCycle &&
                            !nic.empty() && rb.hasSpace(Port::Local);
                 ++i) {
                nic.popHeadInto(
                    rb.emplaceEntry(Port::Local, cycle_ + 1).pkt);
            }
            if (nic.empty())
                nicBusy_[w] &= ~(uint64_t{1} << b);
        }
    }
}

void
PhastlaneNetwork::launchPhase()
{
    scratch_.flights.clear();
    for (NodeId r = 0; r < mesh_.nodeCount(); ++r) {
        // A slot in the future means arbitrate() would return at once,
        // its only effect the rotating-pointer advance that
        // syncRotate() replays before the next real call.
        if (launchBoard_[static_cast<size_t>(r)] > cycle_)
            continue;
        routers_[static_cast<size_t>(r)].syncRotate(cycle_);
        launchRouter(r);
    }
}

void
PhastlaneNetwork::launchRouter(NodeId r)
{
    std::vector<Flight> &flights = scratch_.flights;
    {
        auto &rb = routers_[static_cast<size_t>(r)];
        rb.arbitrate(
            cycle_,
            [&](const OpticalPacket &pkt) {
                return desiredPort(r, pkt);
            },
            scratch_.arb);
        for (auto &[entry, out, queue] : scratch_.arb.launches) {
            ++events_.launches;
            ++events_.bufferReads;
            ++pl_.launches;
            if (entry->attempts > 0) {
                ++events_.retransmissions;
                ++pl_.retransmissions;
            }
            if (entry->pkt.firstInjectedAt == kNeverCycle) {
                entry->pkt.firstInjectedAt = cycle_;
                ++counters_.packetsInjected;
            }

            // Built in place: a Flight carries its inline program and
            // return path, so a build-then-push would copy it whole.
            Flight &f = flights.emplace_back();
            f.pkt = entry->pkt;
            // AgeBoost is recomputed at every launch from residence
            // age, never persisted: a retransmission may gain (or, on
            // re-buffering, lose) the promotion.
            f.pkt.boosted =
                params_.admission == AdmissionPolicy::AgeBoost &&
                cycle_ - entry->enqueuedAt >=
                    static_cast<Cycle>(params_.admissionAgeThreshold);
            f.prog = buildProgram(r, entry->pkt);
            f.launchRouter = r;
            f.at = mesh_.neighbor(r, out);
            PL_ASSERT(f.at != kInvalidNode, "launch off the mesh edge");
            f.inPort = opposite(out);
            f.hops = 1;
            f.holder = EntryRef{r, queue, entry->pkt.branchId};
            setClaim(r, out);
            if (observer_)
                observer_->onLaunch(f.pkt, r, out, entry->attempts);
        }
    }
}

void
PhastlaneNetwork::serveTapAt(Flight &f)
{
    // Broadcast tap: a fraction of the optical power is received and
    // a copy delivered to this node — unless the tap was already
    // served by a pre-corruption attempt (duplicate suppression) or
    // the receive resonator missed the capture (injected fault).
    PL_ASSERT(!f.pkt.tapsDone() && f.pkt.nextTap() == f.at,
              "tap bookkeeping out of sync at node %d", f.at);
    if (f.pkt.tapCursor < f.pkt.dedupBelow) {
        f.pkt.serveTap();
        ++events_.duplicatesSuppressed;
        if (observer_)
            observer_->onDuplicate(f.pkt, f.at);
        return;
    }
    if (faultRoll(params_.faults, params_.faults.missedReceiveRate,
                  FaultKind::MissedReceive, f.pkt.branchId,
                  static_cast<uint64_t>(cycle_),
                  static_cast<uint64_t>(f.at))) {
        f.pkt.serveTap();
        ++events_.faultMissedReceives;
        loseUnits(f.pkt, f.at, 1, LostCause::MissedReceive);
        return;
    }
    deliver(f.pkt, f.at);
    f.pkt.serveTap();
    ++events_.tapReceives;
    if (observer_)
        observer_->onTap(f.pkt, f.at);
}

int
PhastlaneNetwork::unitsOutstanding(const OpticalPacket &pkt) const
{
    if (!pkt.multicast)
        return 1;
    const uint32_t served = std::max(pkt.tapCursor, pkt.dedupBelow);
    const uint32_t total = static_cast<uint32_t>(pkt.taps.size());
    return served >= total ? 0 : static_cast<int>(total - served);
}

void
PhastlaneNetwork::loseUnits(const OpticalPacket &pkt, NodeId router,
                            int units, LostCause cause)
{
    if (units > 0) {
        events_.lostUnits += static_cast<uint64_t>(units);
        PL_ASSERT(outstanding_ >= static_cast<uint64_t>(units),
                  "lost more units than outstanding");
        outstanding_ -= static_cast<uint64_t>(units);
    }
    // The observer fires even for a zero-unit loss: checkers track
    // the buffer-slot release that accompanies the event.
    if (observer_)
        observer_->onLost(pkt.base, pkt.branchId, router, units,
                          cause);
}

void
PhastlaneNetwork::deadRouterArrival(Flight &f)
{
    // Hard-failed router: the packet is absorbed and never forwarded,
    // no drop signal returns, and the holder's "no signal means
    // success" rule frees the buffer slot next cycle. Every remaining
    // delivery unit of the branch is lost.
    ++events_.faultDeadArrivals;
    loseUnits(f.pkt, f.at, unitsOutstanding(f.pkt),
              LostCause::DeadRouter);
    pendingReleases_.push_back(f.holder);
    f.active = false;
}

bool
PhastlaneNetwork::handleArrival(Flight &f)
{
    const ControlGroup g = f.prog.front();
    PL_ASSERT(f.hops <= params_.maxHopsPerCycle,
              "flight exceeded the per-cycle hop limit");

    if (failedRouters_[static_cast<size_t>(f.at)] != 0) {
        deadRouterArrival(f);
        return true;
    }

    if (g.multicast)
        serveTapAt(f);

    if (g.local) {
        f.prog.translate();
        if (f.prog.empty()) {
            // Final router of this packet/branch.
            if (!g.multicast) {
                // Unicast destination: deliver through the local
                // receive resonators (multicast finals were already
                // delivered by the tap above).
                PL_ASSERT(f.at == f.pkt.finalDst,
                          "unicast final at wrong node");
                if (faultRoll(params_.faults,
                              params_.faults.missedReceiveRate,
                              FaultKind::MissedReceive,
                              f.pkt.branchId,
                              static_cast<uint64_t>(cycle_),
                              static_cast<uint64_t>(f.at))) {
                    ++events_.faultMissedReceives;
                    loseUnits(f.pkt, f.at, 1, LostCause::MissedReceive);
                } else {
                    deliver(f.pkt, f.at);
                }
            }
            ++events_.receives;
            pendingReleases_.push_back(f.holder);
            f.active = false;
            if (observer_)
                observer_->onBranchFinal(f.pkt, f.at);
        } else {
            // Interim node: buffer and assume responsibility.
            receiveOrDrop(f, true);
        }
        return true;
    }
    return false;
}

void
PhastlaneNetwork::receiveOrDrop(Flight &f, bool interim)
{
    auto &rb = routers_[static_cast<size_t>(f.at)];
    if (rb.hasSpace(f.inPort)) {
        ++events_.receives;
        ++events_.bufferWrites;
        if (interim)
            ++pl_.interimAccepts;
        else
            ++pl_.blockedBuffered;
        // Re-launchable from the next cycle's arbitration.
        rb.push(f.inPort, f.pkt, cycle_ + 1);
        pendingReleases_.push_back(f.holder);
        if (observer_)
            observer_->onBufferReceive(f.pkt, f.at, f.inPort, interim);
    } else if (faultRoll(params_.faults,
                         params_.faults.dropSignalLossRate,
                         FaultKind::DropSignalLoss, f.pkt.branchId,
                         static_cast<uint64_t>(cycle_),
                         static_cast<uint64_t>(f.at))) {
        // Dropped, but the Packet-Dropped return signal is lost in
        // flight: no reverse links latch, the holder sees silence and
        // frees the slot under the "no signal means success" rule, and
        // the packet's undelivered units are permanently lost (the
        // base protocol has no end-to-end ack; see ReliableNic for
        // the recovery layer).
        ++events_.drops;
        ++pl_.drops;
        ++events_.dropSignalsLost;
        pendingReleases_.push_back(f.holder);
        if (observer_)
            observer_->onDrop(f.pkt, f.at, f.holder.router, 0, true);
        loseUnits(f.pkt, f.at, unitsOutstanding(f.pkt),
                  LostCause::SignalLost);
    } else {
        // Dropped: the return path carries the Packet Dropped signal
        // and this router's Node ID back to the holder next cycle,
        // over the reverse connections latched behind the packet.
        ++events_.drops;
        ++pl_.drops;
        const int signal_hops =
            returnPaths_.signalDrop(f.path.data(), f.pathLen);
        events_.dropSignalHops += static_cast<uint64_t>(signal_hops);
        pendingDrops_.push_back(LaunchOutcome{f.holder, f.pkt});
        if (observer_)
            observer_->onDrop(f.pkt, f.at, f.holder.router, signal_hops,
                              false);
    }
    f.active = false;
}

void
PhastlaneNetwork::collectPassRequests(
    std::vector<Flight> &flights, const std::vector<size_t> &active,
    std::vector<PassRequest> &requests)
{
    // Arrival-side actions; collect pass requests. Iteration order is
    // part of the model's contract: it fixes the order of deferred
    // outcomes (and thus next cycle's backoff RNG draws), so both
    // FCFS engines share this exact loop.
    for (size_t i : active) {
        Flight &f = flights[i];
        if (handleArrival(f))
            continue;
        if (faultRoll(params_.faults, params_.faults.misTurnRate,
                      FaultKind::MisTurn, f.pkt.branchId,
                      static_cast<uint64_t>(cycle_),
                      static_cast<uint64_t>(f.at))) {
            // Pass resonator mis-tuned: instead of transiting, the
            // packet diverts into this router's electrical buffer
            // (or is dropped if it is full) and retries from here.
            ++events_.faultMisTurns;
            receiveOrDrop(f, false);
            continue;
        }
        const ControlGroup g = f.prog.front();
        PassRequest r;
        r.flight = i;
        r.router = f.at;
        const Turn t = g.turn();
        r.out = applyTurn(f.inPort, t);
        r.straight = (t == Turn::Straight);
        r.boosted = f.pkt.boosted;
        requests.push_back(r);
    }
}

void
PhastlaneNetwork::applyPassWin(std::vector<Flight> &flights,
                               size_t flight_idx, NodeId router,
                               Port out, std::vector<size_t> &next)
{
    Flight &f = flights[flight_idx];
    setClaim(router, out);
    ++events_.passTraversals;
    if (observer_)
        observer_->onPass(f.pkt, router);
    returnPaths_.registerHop(router, f.inPort, out);
    f.recordHop(ReturnHop{router, f.inPort, out});
    f.prog.translate();
    f.at = mesh_.neighbor(router, out);
    PL_ASSERT(f.at != kInvalidNode, "route left the mesh");
    f.inPort = opposite(out);
    ++f.hops;
    next.push_back(flight_idx);
}

void
PhastlaneNetwork::propagateSubstepFcfs(std::vector<Flight> &flights)
{
    std::vector<size_t> &active = scratch_.active;
    std::vector<size_t> &next = scratch_.nextActive;
    std::vector<PassRequest> &requests = scratch_.requests;
    std::vector<uint32_t> &order = scratch_.order;

    active.clear();
    for (size_t i = 0; i < flights.size(); ++i)
        active.push_back(i);

    while (!active.empty()) {
        requests.clear();
        next.clear();
        collectPassRequests(flights, active, requests);

        // Resolve claims per (router, output port): group the
        // requests by flat port index. The stable sort reproduces the
        // (router, port)-ordered, arrival-ordered iteration the old
        // std::map performed, without any per-substep allocation.
        const auto flatKey = [&](uint32_t ri) {
            const PassRequest &r = requests[ri];
            return static_cast<size_t>(r.router) * kMeshPorts +
                   portIndex(r.out);
        };
        order.resize(requests.size());
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [&](uint32_t a, uint32_t b) {
                             return flatKey(a) < flatKey(b);
                         });

        for (size_t g0 = 0; g0 < order.size();) {
            size_t g1 = g0 + 1;
            while (g1 < order.size() &&
                   flatKey(order[g1]) == flatKey(order[g0]))
                ++g1;
            const NodeId router = requests[order[g0]].router;
            const Port out = requests[order[g0]].out;

            size_t winner = SIZE_MAX;
            if (!claimed(router, out)) {
                winner = order[g0];
                if (params_.opticalArbitration ==
                    OpticalArbitration::FixedPriority) {
                    const bool invert =
                        params_.faults.invertStraightPriority;
                    const auto rank = [&](size_t ri) {
                        const PassRequest &r = requests[ri];
                        return std::make_pair(
                            (r.straight || r.boosted) != invert ? 0
                                                                : 1,
                            portIndex(flights[r.flight].inPort));
                    };
                    for (size_t k = g0; k < g1; ++k) {
                        if (rank(order[k]) < rank(winner))
                            winner = order[k];
                    }
                } else {
                    // Rotating priority over input ports (ablation).
                    const int start =
                        static_cast<int>(cycle_ % kMeshPorts);
                    auto rrRank = [&](size_t ri) {
                        const int p = portIndex(
                            flights[requests[ri].flight].inPort);
                        return (p - start + kMeshPorts) % kMeshPorts;
                    };
                    for (size_t k = g0; k < g1; ++k) {
                        if (rrRank(order[k]) < rrRank(winner))
                            winner = order[k];
                    }
                }
            }
            for (size_t k = g0; k < g1; ++k) {
                const size_t ri = order[k];
                if (ri == winner) {
                    applyPassWin(flights, requests[ri].flight, router,
                                 out, next);
                } else {
                    receiveOrDrop(flights[requests[ri].flight], false);
                }
            }
            g0 = g1;
        }
        std::swap(active, next);
    }
}

void
PhastlaneNetwork::propagateBitplane(std::vector<Flight> &flights)
{
    // Word-parallel FCFS wavefront (DESIGN.md §11). Phase A (arrival
    // handling, request collection) is shared verbatim with the scalar
    // engine; phase B replaces its sort-and-group claim resolution:
    //
    //  - one bit per router, one plane per output port, records which
    //    (router, port) pairs are requested (scratch_.reqOnce) and which are
    //    requested more than once (scratch_.reqMulti);
    //  - uncontested grants fall out of plane algebra, 64 routers per
    //    word op: win = once & ~multi & ~claimed;
    //  - the sweep visits requested routers via ctz scans of the OR of
    //    the request planes — ascending router id, then ascending port
    //    index, which is exactly the scalar engine's flat-key order —
    //    so contested ports (the rare case) walk their arrival-ordered
    //    request chain with the same straight-over-turn rank logic.
    //
    // Every observable effect (claims, return-path latches, deferred
    // outcomes, RNG draws, deliveries) is applied in the scalar order;
    // the differential oracle and golden pins hold the two engines to
    // bit-identical results.
    std::vector<size_t> &active = scratch_.active;
    std::vector<size_t> &next = scratch_.nextActive;
    std::vector<PassRequest> &requests = scratch_.requests;

    active.clear();
    for (size_t i = 0; i < flights.size(); ++i)
        active.push_back(i);

    const int words = bitMesh_.words();
    const bool fixed_priority = params_.opticalArbitration ==
                                OpticalArbitration::FixedPriority;
    const bool invert = params_.faults.invertStraightPriority;

    while (!active.empty()) {
        requests.clear();
        next.clear();
        collectPassRequests(flights, active, requests);

        // Build the request planes and, per requested port, the
        // arrival-ordered request chain (epoch-tagged so the flat
        // head/tail tables never need clearing).
        scratch_.reqOnce.clear();
        scratch_.reqMulti.clear();
        scratch_.reqNext.resize(requests.size());
        ++scratch_.reqEpochCur;
        for (uint32_t ri = 0;
             ri < static_cast<uint32_t>(requests.size()); ++ri) {
            const PassRequest &r = requests[ri];
            const size_t key =
                static_cast<size_t>(r.router) * kMeshPorts +
                portIndex(r.out);
            scratch_.reqNext[ri] = UINT32_MAX;
            if (scratch_.reqEpoch[key] != scratch_.reqEpochCur) {
                scratch_.reqEpoch[key] = scratch_.reqEpochCur;
                scratch_.reqHead[key] = ri;
                scratch_.reqTail[key] = ri;
                scratch_.reqOnce.set(r.router, r.out);
            } else {
                scratch_.reqNext[scratch_.reqTail[key]] = ri;
                scratch_.reqTail[key] = ri;
                scratch_.reqMulti.set(r.router, r.out);
            }
        }

        // Uncontested-grant planes: win = once & ~multi & ~claimed.
        for (int pi = 0; pi < kMeshPorts; ++pi) {
            const Port p = portFromIndex(pi);
            bitplane::andnot2(scratch_.reqOnce.plane(p), scratch_.reqMulti.plane(p),
                              scratch_.claims.plane(p), scratch_.reqWin.plane(p),
                              words);
        }

        for (int w = 0; w < words; ++w) {
            uint64_t any = scratch_.reqOnce.plane(Port::North)[w] |
                           scratch_.reqOnce.plane(Port::East)[w] |
                           scratch_.reqOnce.plane(Port::South)[w] |
                           scratch_.reqOnce.plane(Port::West)[w];
            while (any != 0) {
                const int bit = __builtin_ctzll(any);
                any &= any - 1;
                const NodeId router =
                    static_cast<NodeId>(w * 64 + bit);
                const uint64_t m = uint64_t{1} << bit;
                for (int pi = 0; pi < kMeshPorts; ++pi) {
                    const Port out = portFromIndex(pi);
                    if ((scratch_.reqOnce.plane(out)[w] & m) == 0)
                        continue;
                    const size_t key =
                        static_cast<size_t>(router) * kMeshPorts +
                        static_cast<size_t>(pi);
                    if ((scratch_.reqWin.plane(out)[w] & m) != 0) {
                        // Single requester, port free: grant without
                        // touching the rank logic.
                        applyPassWin(flights,
                                     requests[scratch_.reqHead[key]].flight,
                                     router, out, next);
                        continue;
                    }
                    // Contested port, or one pre-claimed in the
                    // launch phase (then every requester loses).
                    uint32_t winner = UINT32_MAX;
                    if (!claimed(router, out)) {
                        winner = scratch_.reqHead[key];
                        if (fixed_priority) {
                            const auto rank = [&](uint32_t ri) {
                                const PassRequest &r = requests[ri];
                                return std::make_pair(
                                    (r.straight || r.boosted) !=
                                            invert
                                        ? 0
                                        : 1,
                                    portIndex(
                                        flights[r.flight].inPort));
                            };
                            for (uint32_t ri = scratch_.reqNext[winner];
                                 ri != UINT32_MAX; ri = scratch_.reqNext[ri]) {
                                if (rank(ri) < rank(winner))
                                    winner = ri;
                            }
                        } else {
                            // Rotating priority over input ports
                            // (ablation).
                            const int start =
                                static_cast<int>(cycle_ % kMeshPorts);
                            const auto rrRank = [&](uint32_t ri) {
                                const int p = portIndex(
                                    flights[requests[ri].flight]
                                        .inPort);
                                return (p - start + kMeshPorts) %
                                       kMeshPorts;
                            };
                            for (uint32_t ri = scratch_.reqNext[winner];
                                 ri != UINT32_MAX; ri = scratch_.reqNext[ri]) {
                                if (rrRank(ri) < rrRank(winner))
                                    winner = ri;
                            }
                        }
                    }
                    for (uint32_t ri = scratch_.reqHead[key];
                         ri != UINT32_MAX; ri = scratch_.reqNext[ri]) {
                        if (ri == winner) {
                            applyPassWin(flights, requests[ri].flight,
                                         router, out, next);
                        } else {
                            receiveOrDrop(
                                flights[requests[ri].flight], false);
                        }
                    }
                }
            }
        }
        std::swap(active, next);
    }
}

void
PhastlaneNetwork::propagateGlobalPriority(std::vector<Flight> &flights)
{
    // Idealized intra-cycle priority (ablation): straight packets
    // evict turning packets' claims regardless of arrival order.
    // Resolved as a monotone fixed point: once blocked, a flight stays
    // blocked, which is conservative when its blocker is itself
    // blocked upstream.
    const size_t n = flights.size();
    std::vector<Itinerary> &its = scratch_.its;
    its.resize(n);
    for (size_t i = 0; i < n; ++i) {
        its[i].claims.clear();
        its[i].entered.clear();
        its[i].inPorts.clear();
        its[i].stop = 0;
    }
    for (size_t i = 0; i < n; ++i) {
        Flight f = flights[i]; // walk a copy of the program
        Itinerary &it = its[i];
        while (true) {
            it.entered.push_back(f.at);
            it.inPorts.push_back(f.inPort);
            const ControlGroup g = f.prog.front();
            if (g.local) {
                it.stop = it.entered.size() - 1;
                break;
            }
            const Port out = applyTurn(f.inPort, g.turn());
            it.claims.push_back(
                ItineraryClaim{f.at, out,
                               g.turn() == Turn::Straight,
                               f.pkt.boosted, f.inPort});
            f.prog.translate();
            f.at = mesh_.neighbor(f.at, out);
            PL_ASSERT(f.at != kInvalidNode, "route left the mesh");
            f.inPort = opposite(out);
        }
    }

    // blocked[i] = index of the first losing claim (SIZE_MAX: none).
    std::vector<size_t> &blocked = scratch_.blocked;
    blocked.assign(n, SIZE_MAX);
    // Rank per claim, lower wins: straight-ness, then input port,
    // then flight index -- packed into one word so the flat winner
    // table below needs a single compare.
    const bool invert = params_.faults.invertStraightPriority;
    const auto packedRank = [invert](const ItineraryClaim &c,
                                     size_t i) {
        return (static_cast<uint64_t>(
                    (c.straight || c.boosted) != invert ? 0 : 1)
                << 62) |
               (static_cast<uint64_t>(portIndex(c.inPort)) << 56) |
               static_cast<uint64_t>(i);
    };
    bool changed = true;
    while (changed) {
        changed = false;
        // Winner per (router, port) among still-active claims;
        // launches (claim index 0 at the launch router) outrank
        // everything, then straight, then turn, then input port.
        // scratch_.bestEpoch tags which flat slots are live this round, so
        // the tables need no clearing between fixed-point rounds.
        ++scratch_.resolveEpoch;
        for (size_t i = 0; i < n; ++i) {
            const auto &cl = its[i].claims;
            const size_t limit = std::min(blocked[i], cl.size());
            for (size_t k = 0; k < limit; ++k) {
                // Ports claimed in the launch phase (buffered-packet
                // launches) outrank every optical arrival and are
                // handled separately below.
                if (claimed(cl[k].router, cl[k].out))
                    continue;
                const size_t key =
                    static_cast<size_t>(cl[k].router) * kMeshPorts +
                    portIndex(cl[k].out);
                const uint64_t rank = packedRank(cl[k], i);
                if (scratch_.bestEpoch[key] != scratch_.resolveEpoch ||
                    rank < scratch_.bestRank[key]) {
                    scratch_.bestEpoch[key] = scratch_.resolveEpoch;
                    scratch_.bestRank[key] = rank;
                    scratch_.bestFlight[key] = static_cast<uint32_t>(i);
                }
            }
        }
        for (size_t i = 0; i < n; ++i) {
            const auto &cl = its[i].claims;
            const size_t limit = std::min(blocked[i], cl.size());
            for (size_t k = 0; k < limit; ++k) {
                const size_t key =
                    static_cast<size_t>(cl[k].router) * kMeshPorts +
                    portIndex(cl[k].out);
                const bool loses =
                    claimed(cl[k].router, cl[k].out) ||
                    scratch_.bestFlight[key] != i;
                if (loses) {
                    blocked[i] = k;
                    changed = true;
                    break;
                }
            }
        }
    }

    // Apply the realized paths in flight order.
    for (size_t i = 0; i < n; ++i) {
        Flight &f = flights[i];
        const Itinerary &it = its[i];
        const size_t stop_idx =
            blocked[i] == SIZE_MAX ? it.stop : blocked[i];
        // Walk the flight to its stopping router, handling taps and
        // the terminal action through the same per-arrival logic.
        for (size_t k = 0;; ++k) {
            PL_ASSERT(f.at == it.entered[k], "itinerary mismatch");
            if (k == stop_idx && blocked[i] != SIZE_MAX) {
                if (failedRouters_[static_cast<size_t>(f.at)] != 0) {
                    deadRouterArrival(f);
                    break;
                }
                // Tap (if any) still happens on arrival, then the
                // blocked packet is received or dropped.
                const ControlGroup gb = f.prog.front();
                if (gb.multicast)
                    serveTapAt(f);
                receiveOrDrop(f, false);
                break;
            }
            if (handleArrival(f))
                break;
            if (faultRoll(params_.faults, params_.faults.misTurnRate,
                          FaultKind::MisTurn, f.pkt.branchId,
                          static_cast<uint64_t>(cycle_),
                          static_cast<uint64_t>(f.at))) {
                // Mis-tuned pass resonator (as in the FCFS model).
                // The itinerary's downstream claims were already
                // resolved as if the packet passed; leaving them
                // claimed is conservative and this ablation model has
                // no lockstep oracle to disagree with.
                ++events_.faultMisTurns;
                receiveOrDrop(f, false);
                break;
            }
            const ControlGroup g = f.prog.front();
            const Port out = applyTurn(f.inPort, g.turn());
            setClaim(f.at, out);
            ++events_.passTraversals;
            if (observer_)
                observer_->onPass(f.pkt, f.at);
            returnPaths_.registerHop(f.at, f.inPort, out);
            f.recordHop(ReturnHop{f.at, f.inPort, out});
            f.prog.translate();
            f.at = mesh_.neighbor(f.at, out);
            f.inPort = opposite(out);
            ++f.hops;
        }
    }
}

void
PhastlaneNetwork::step()
{
    if (observer_)
        observer_->onCycleBegin(cycle_);
    deliveries_.clear();
    scratch_.claims.clear();
    returnPaths_.beginCycle();

    resolveOutcomes();
    nicToLocalQueues();
    launchPhase();
    switch (params_.wavefront) {
      case WavefrontModel::SubstepFcfs:
        propagateSubstepFcfs(scratch_.flights);
        break;
      case WavefrontModel::BitplaneFcfs:
        propagateBitplane(scratch_.flights);
        break;
      case WavefrontModel::GlobalPriority:
        propagateGlobalPriority(scratch_.flights);
        break;
    }

    events_.routerCycles += static_cast<uint64_t>(mesh_.nodeCount());
    if (observer_)
        observer_->onCycleEnd(cycle_);
    ++cycle_;
}

} // namespace phastlane::core
