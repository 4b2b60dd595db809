#include "electrical/network.hpp"

#include <algorithm>
#include <cstdio>

#include "common/log.hpp"

namespace phastlane::electrical {

ElectricalNetwork::ElectricalNetwork(const ElectricalParams &params)
    : params_(params), mesh_(params.meshWidth, params.meshHeight)
{
    if (params_.routerDelay < 2)
        fatal("routerDelay must be at least 2 cycles");
    if (params_.vcDepth != 1)
        fatal("only single-entry VCs are modeled (wait-for-tail)");
    if (params_.outputSpeedup != 1)
        fatal("only crossbar output speedup 1 is modeled");
    if (params_.inputSpeedup < 1)
        fatal("crossbar input speedup must be at least 1");
    if (kAllPorts * params_.vcsPerPort > 64)
        fatal("at most %d VCs per port fit the 64-bit allocator masks",
              64 / kAllPorts);
    routers_.reserve(static_cast<size_t>(mesh_.nodeCount()));
    nics_.reserve(static_cast<size_t>(mesh_.nodeCount()));
    for (NodeId n = 0; n < mesh_.nodeCount(); ++n) {
        routers_.emplace_back(n, params_);
        nics_.emplace_back(n, params_);
    }
    busyVcs_.assign(static_cast<size_t>(mesh_.nodeCount()), 0);
    linkCounts_.assign(
        static_cast<size_t>(mesh_.nodeCount()) * kMeshPorts, 0);
}

bool
ElectricalNetwork::nicHasSpace(NodeId n) const
{
    PL_ASSERT(mesh_.valid(n), "invalid node %d", n);
    return nics_[static_cast<size_t>(n)].hasSpace();
}

bool
ElectricalNetwork::inject(const Packet &pkt)
{
    PL_ASSERT(mesh_.valid(pkt.src), "invalid source %d", pkt.src);
    auto &nic = nics_[static_cast<size_t>(pkt.src)];
    if (!nic.hasSpace())
        return false;
    PL_ASSERT(pkt.broadcast || pkt.dst != pkt.src,
              "unicast to self at node %d", pkt.src);
    nic.accept(pkt, cycle_);
    ++counters_.messagesAccepted;
    outstanding_ +=
        static_cast<uint64_t>(pkt.deliveryCount(mesh_.nodeCount()));
    return true;
}

void
ElectricalNetwork::deliver(const EFlit &flit, NodeId node)
{
    Delivery d;
    d.packet = *flit.msg;
    d.node = node;
    d.at = cycle_;
    d.acceptedAt = flit.acceptedAt;
    d.injectedAt = flit.injectedAt;
    deliveries_.push_back(std::move(d));
    ++counters_.deliveries;
    ++events_.ejections;
    PL_ASSERT(outstanding_ > 0, "delivery without outstanding message");
    --outstanding_;
    lastProgress_ = cycle_;

    // Tree-setup clone delivered: count down toward tree readiness.
    // Clones from later broadcasts streamed while the tree was still
    // building may arrive after the countdown finished; they install
    // idempotently and are ignored here.
    if (flit.installsTree &&
        nics_[static_cast<size_t>(flit.tree)].treeState() ==
            TreeState::Building) {
        auto &src_nic = nics_[static_cast<size_t>(flit.tree)];
        int &pending = src_nic.pendingSetupDeliveries();
        if (pending > 0 && --pending == 0)
            src_nic.setTreeState(TreeState::Ready);
    }
}

void
ElectricalNetwork::releaseInputVc(NodeId r, Port p, int vc)
{
    auto &router = routers_[static_cast<size_t>(r)];
    InputVc &ivc = router.inputVc(p, vc);
    PL_ASSERT(ivc.busy(), "releasing an empty input VC");
    --busyVcs_[static_cast<size_t>(r)];
    ivc.flit.reset();
    ivc.pendingMesh = 0;
    ivc.ejecting = false;
    ivc.resetBranches();

    if (p != Port::Local) {
        // Credit to the upstream router, visible next cycle
        // (wait-for-tail: the output VC is reallocatable only now).
        const NodeId up = mesh_.neighbor(r, p);
        PL_ASSERT(up != kInvalidNode, "credit to a nonexistent router");
        OutputVc &ovc =
            routers_[static_cast<size_t>(up)].outputVc(opposite(p), vc);
        PL_ASSERT(ovc.state == OutputVc::State::Occupied,
                  "credit for a non-occupied output VC");
        ovc.state = OutputVc::State::Free;
        ovc.freeAt = cycle_ + 1;
    }
}

void
ElectricalNetwork::processArrival(PendingArrival &&a)
{
    auto &router = routers_[static_cast<size_t>(a.router)];
    InputVc &ivc = router.inputVc(a.port, a.vc);
    PL_ASSERT(!ivc.busy(), "arrival into an occupied VC at node %d",
              a.router);
    ++events_.bufferWrites;
    ++busyVcs_[static_cast<size_t>(a.router)];
    ivc.flit = std::move(a.flit);
    ivc.arrivedAt = cycle_;
    ivc.pendingMesh = 0;
    ivc.ejecting = false;
    ivc.resetBranches();

    const EFlit &f = *ivc.flit;
    if (f.treeMulticast) {
        ++events_.treeLookups;
        const TreeEntry *entry = router.treeTable().find(f.tree);
        if (!entry) {
            panic("multicast flit hit a missing tree entry at node %d "
                  "(tree %d, %llu evictions)", a.router, f.tree,
                  static_cast<unsigned long long>(
                      router.treeTable().evictions()));
        }
        ivc.pendingMesh = entry->meshPorts;
        PL_ASSERT(entry->local || ivc.pendingMesh != 0,
                  "tree entry with no action at node %d", a.router);
        if (entry->local) {
            ejectionsNext_.push_back(PendingEjection{
                a.router, a.port, a.vc, true,
                ivc.pendingMesh == 0, f});
            if (ivc.pendingMesh == 0)
                ivc.ejecting = true;
        }
    } else if (f.dst == a.router) {
        ivc.ejecting = true;
        if (f.installsTree)
            router.treeTable().installLocal(f.tree);
        ejectionsNext_.push_back(
            PendingEjection{a.router, a.port, a.vc, true, true, f});
    } else {
        ivc.pendingMesh = static_cast<uint8_t>(
            1u << portIndex(mesh_.xyFirstHop(a.router, f.dst)));
    }
}

void
ElectricalNetwork::processEjection(const PendingEjection &e)
{
    if (e.deliver)
        deliver(e.flit, e.router);
    if (e.release)
        releaseInputVc(e.router, e.port, e.vc);
}

void
ElectricalNetwork::injectFlit(NodeId n, EFlit flit)
{
    auto &router = routers_[static_cast<size_t>(n)];
    const int v = router.freeInputVc(Port::Local);
    PL_ASSERT(v >= 0, "injectFlit without a free VC");
    flit.flitId = nextFlitId_++;
    flit.injectedAt = cycle_;
    ++counters_.packetsInjected;
    lastProgress_ = cycle_;
    processArrival(PendingArrival{n, Port::Local, v, std::move(flit)});
}

void
ElectricalNetwork::handleSaWinners(NodeId r)
{
    auto &router = routers_[static_cast<size_t>(r)];
    for (const SaWinner &w : router.allocateSwitch(cycle_)) {
        InputVc &ivc = router.inputVc(w.inPort, w.inVc);
        PL_ASSERT(ivc.busy() &&
                      ivc.branchVc[portIndex(w.outPort)] == w.outVc,
                  "SA winner without a matching branch");
        EFlit copy = *ivc.flit;
        copy.flitId = nextFlitId_++;

        ++events_.bufferReads;
        ++events_.xbarTraversals;
        ++events_.linkTraversals;
        ++events_.saGrants;
        ++linkCounts_[static_cast<size_t>(r) * kMeshPorts +
                      portIndex(w.outPort)];
        lastProgress_ = cycle_;

        if (copy.installsTree)
            router.treeTable().installPort(copy.tree, w.outPort);

        const NodeId dest = mesh_.neighbor(r, w.outPort);
        PL_ASSERT(dest != kInvalidNode, "flit sent off the mesh");
        // Switch traversal this cycle, then one cycle on the channel.
        arrivalsAfter_.push_back(PendingArrival{
            dest, opposite(w.outPort), w.outVc, std::move(copy)});

        router.outputVc(w.outPort, w.outVc).state =
            OutputVc::State::Occupied;

        ivc.pendingMesh &= static_cast<uint8_t>(
            ~(1u << portIndex(w.outPort)));
        ivc.branchVc[portIndex(w.outPort)] = -1;
        if (ivc.pendingMesh == 0 && !ivc.ejecting)
            releaseInputVc(r, w.inPort, w.inVc);
    }
}

std::string
ElectricalNetwork::describeStuck(size_t max_vcs) const
{
    struct Held {
        Cycle arrivedAt;
        NodeId router;
        int port;
        int vc;
    };
    std::vector<Held> held;
    for (NodeId r = 0; r < mesh_.nodeCount(); ++r) {
        const auto &router = routers_[static_cast<size_t>(r)];
        for (int pi = 0; pi < kAllPorts; ++pi) {
            for (int v = 0; v < params_.vcsPerPort; ++v) {
                const InputVc &ivc = router.inputVc(portFromIndex(pi), v);
                if (ivc.busy())
                    held.push_back(Held{ivc.arrivedAt, r, pi, v});
            }
        }
    }
    // Oldest first; ties stay in router, port, VC order.
    std::stable_sort(held.begin(), held.end(),
                     [](const Held &a, const Held &b) {
                         return a.arrivedAt < b.arrivedAt;
                     });
    const size_t n = std::min(max_vcs, held.size());

    std::string out;
    char buf[192];
    for (size_t i = 0; i < n; ++i) {
        const Held &h = held[i];
        const auto &router = routers_[static_cast<size_t>(h.router)];
        const InputVc &ivc = router.inputVc(portFromIndex(h.port), h.vc);
        const EFlit &f = *ivc.flit;
        std::snprintf(buf, sizeof buf,
                      "\n  router %d in %s vc %d: arrivedAt %llu dst %d "
                      "tree %d pendingMesh 0x%x ejecting %d",
                      h.router, portName(portFromIndex(h.port)), h.vc,
                      static_cast<unsigned long long>(h.arrivedAt), f.dst,
                      f.tree, ivc.pendingMesh, ivc.ejecting ? 1 : 0);
        out += buf;
        for (int po = 0; po < kMeshPorts; ++po) {
            if ((ivc.pendingMesh & (1u << po)) == 0)
                continue;
            const Port port = portFromIndex(po);
            const int bvc = ivc.branchVc[static_cast<size_t>(po)];
            if (bvc >= 0) {
                // Holds an output VC: waiting on switch allocation.
                std::snprintf(buf, sizeof buf,
                              "\n    -> %s branchVc %d (assigned, "
                              "waiting on SA)",
                              portName(port), bvc);
                out += buf;
                continue;
            }
            // No output VC yet: waiting on VC allocation.
            int free = 0, assigned = 0, occupied = 0;
            Cycle next_free = 0;
            for (int v = 0; v < params_.vcsPerPort; ++v) {
                const OutputVc &ovc = router.outputVc(port, v);
                switch (ovc.state) {
                  case OutputVc::State::Free:
                    if (free++ == 0 || ovc.freeAt < next_free)
                        next_free = ovc.freeAt;
                    break;
                  case OutputVc::State::Assigned: ++assigned; break;
                  case OutputVc::State::Occupied: ++occupied; break;
                }
            }
            std::snprintf(buf, sizeof buf,
                          "\n    -> %s branchVc -1 (waiting on VA): "
                          "output VCs free %d (earliest credit at %llu) "
                          "assigned %d occupied %d",
                          portName(port), free,
                          static_cast<unsigned long long>(next_free),
                          assigned, occupied);
            out += buf;
        }
    }
    if (held.size() > n) {
        std::snprintf(buf, sizeof buf, "\n  ... %zu more busy input VCs",
                      held.size() - n);
        out += buf;
    }

    // Messages not yet in the network, and flits between routers.
    static const char *const kTreeStates[] = {"not built", "building",
                                              "ready"};
    size_t nics = 0;
    for (NodeId node = 0; node < mesh_.nodeCount(); ++node) {
        const auto &nic = nics_[static_cast<size_t>(node)];
        if (nic.empty() && nic.setupTargets().empty())
            continue;
        if (nics++ == max_vcs)
            continue;
        std::snprintf(buf, sizeof buf,
                      "\n  nic %d: %zu queued, %zu setup clones left, "
                      "tree %s, %d setup deliveries pending",
                      node, nic.occupancy(), nic.setupTargets().size(),
                      kTreeStates[static_cast<int>(nic.treeState())],
                      nic.pendingSetupDeliveries());
        out += buf;
    }
    const size_t on_links = arrivalsNext_.size() + arrivalsAfter_.size() +
                            ejectionsNext_.size();
    std::snprintf(buf, sizeof buf,
                  "\n  %zu busy input VCs, %zu NICs with work, %zu flits "
                  "on links or ejecting",
                  held.size(), nics, on_links);
    out += buf;
    if (held.empty() && nics == 0 && on_links == 0)
        out += "\n  nothing holds a flit: the outstanding deliveries "
               "were lost, not blocked";
    return out;
}

void
ElectricalNetwork::step()
{
    deliveries_.clear();

    std::swap(arrivalsNow_, arrivalsNext_);
    std::swap(arrivalsNext_, arrivalsAfter_);
    std::swap(ejectionsNow_, ejectionsNext_);
    arrivalsAfter_.clear();
    ejectionsNext_.clear();

    for (auto &a : arrivalsNow_)
        processArrival(std::move(a));
    for (const auto &e : ejectionsNow_)
        processEjection(e);

    // NIC injection: one flit per node per cycle.
    for (NodeId n = 0; n < mesh_.nodeCount(); ++n) {
        auto &nic = nics_[static_cast<size_t>(n)];
        auto &router = routers_[static_cast<size_t>(n)];

        // Streaming setup clones takes precedence over new heads.
        if (!nic.setupTargets().empty()) {
            if (router.freeInputVc(Port::Local) < 0)
                continue;
            const NodeId target = nic.setupTargets().back();
            nic.setupTargets().pop_back();
            EFlit f;
            f.msg = nic.setupMsg();
            f.dst = target;
            f.tree = static_cast<TreeId>(n);
            f.installsTree = true;
            f.acceptedAt = nic.setupAcceptedAt();
            ++el_.setupUnicasts;
            injectFlit(n, std::move(f));
            continue;
        }

        if (nic.empty())
            continue;
        const NicEntry &head = nic.head();
        if (!head.msg->broadcast) {
            if (router.freeInputVc(Port::Local) < 0)
                continue;
            EFlit f;
            f.msg = head.msg;
            f.dst = head.msg->dst;
            f.acceptedAt = head.acceptedAt;
            injectFlit(n, std::move(f));
            nic.popHead();
            continue;
        }
        // Broadcast head.
        if (nic.treeState() == TreeState::Ready) {
            if (router.freeInputVc(Port::Local) < 0)
                continue;
            EFlit f;
            f.msg = head.msg;
            f.tree = static_cast<TreeId>(n);
            f.treeMulticast = true;
            f.acceptedAt = head.acceptedAt;
            ++el_.treeMulticasts;
            injectFlit(n, std::move(f));
            nic.popHead();
        } else {
            // Not built (or still building): stream this broadcast as
            // tree-installing unicast clones.
            // Readiness is determined by the FIRST stream's
            // deliveries; later broadcasts streamed while the tree is
            // still building reinstall entries idempotently without
            // extending the countdown.
            if (nic.treeState() == TreeState::NotBuilt) {
                nic.setTreeState(TreeState::Building);
                nic.pendingSetupDeliveries() = mesh_.nodeCount() - 1;
            }
            std::vector<NodeId> targets;
            targets.reserve(
                static_cast<size_t>(mesh_.nodeCount() - 1));
            // Reverse order: setupTargets() is consumed from the back.
            for (NodeId t = static_cast<NodeId>(mesh_.nodeCount()) - 1;
                 t >= 0; --t) {
                if (t != n)
                    targets.push_back(t);
            }
            nic.startSetupStream(std::move(targets), head.msg,
                                 head.acceptedAt);
            nic.popHead();
            // The first clone goes out next loop iteration-equivalent:
            // fall through by reprocessing this node now.
            if (router.freeInputVc(Port::Local) >= 0) {
                const NodeId target = nic.setupTargets().back();
                nic.setupTargets().pop_back();
                EFlit f;
                f.msg = nic.setupMsg();
                f.dst = target;
                f.tree = static_cast<TreeId>(n);
                f.installsTree = true;
                f.acceptedAt = nic.setupAcceptedAt();
                ++el_.setupUnicasts;
                injectFlit(n, std::move(f));
            }
        }
    }

    // A router holding no flit has nothing to allocate.
    for (NodeId r = 0; r < mesh_.nodeCount(); ++r) {
        if (busyVcs_[static_cast<size_t>(r)] == 0)
            continue;
        events_.vaGrants += static_cast<uint64_t>(
            routers_[static_cast<size_t>(r)].allocateVcs(cycle_));
    }
    for (NodeId r = 0; r < mesh_.nodeCount(); ++r) {
        if (busyVcs_[static_cast<size_t>(r)] != 0)
            handleSaWinners(r);
    }

    events_.routerCycles += static_cast<uint64_t>(mesh_.nodeCount());

    if (outstanding_ > 0 &&
        cycle_ - lastProgress_ > params_.watchdogCycles) {
        panic("electrical network made no progress for %llu cycles "
              "(%llu outstanding deliveries) at cycle %llu; oldest "
              "busy input VCs first:%s",
              static_cast<unsigned long long>(params_.watchdogCycles),
              static_cast<unsigned long long>(outstanding_),
              static_cast<unsigned long long>(cycle_),
              describeStuck(4).c_str());
    }
    ++cycle_;
}

} // namespace phastlane::electrical
