#include "electrical/router.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"

namespace phastlane::electrical {

ElectricalRouter::ElectricalRouter(NodeId self,
                                   const ElectricalParams &params)
    : self_(self),
      params_(params),
      inputs_(static_cast<size_t>(kAllPorts * params.vcsPerPort)),
      outputs_(static_cast<size_t>(kMeshPorts * params.vcsPerPort)),
      table_(params.vctmTableEntries)
{
    PL_ASSERT(kAllPorts * params.vcsPerPort <= 64,
              "%d VCs per port overflow the 64-bit allocator masks",
              params.vcsPerPort);
}

InputVc &
ElectricalRouter::inputVc(Port p, int v)
{
    return inputs_[static_cast<size_t>(
        portIndex(p) * params_.vcsPerPort + v)];
}

const InputVc &
ElectricalRouter::inputVc(Port p, int v) const
{
    return inputs_[static_cast<size_t>(
        portIndex(p) * params_.vcsPerPort + v)];
}

OutputVc &
ElectricalRouter::outputVc(Port p, int v)
{
    PL_ASSERT(p != Port::Local, "no output VCs on the local port");
    return outputs_[static_cast<size_t>(
        portIndex(p) * params_.vcsPerPort + v)];
}

const OutputVc &
ElectricalRouter::outputVc(Port p, int v) const
{
    PL_ASSERT(p != Port::Local, "no output VCs on the local port");
    return outputs_[static_cast<size_t>(
        portIndex(p) * params_.vcsPerPort + v)];
}

int
ElectricalRouter::freeInputVc(Port p) const
{
    for (int v = 0; v < params_.vcsPerPort; ++v) {
        if (!inputVc(p, v).busy())
            return v;
    }
    return -1;
}

Cycle
ElectricalRouter::vaStage(Cycle arrival) const
{
    const int off = std::max(0, params_.routerDelay - 2);
    return arrival + static_cast<Cycle>(off);
}

Cycle
ElectricalRouter::saStage(Cycle arrival) const
{
    return arrival + static_cast<Cycle>(params_.routerDelay - 1);
}

namespace {

/** Bits [0, n) set, for n in [0, 64). */
constexpr uint64_t
lowBits(int n)
{
    return (uint64_t{1} << n) - 1;
}

/**
 * Calls @p f(bit) for the set bits of @p mask in round-robin order
 * from bit @p ptr: ptr, ptr+1, ..., then 0, ..., ptr-1. That is the
 * ascending order of rank (bit - ptr) mod total for any total above
 * the highest set bit. Stops early when @p f returns false.
 */
template <typename F>
void
forEachFrom(uint64_t mask, int ptr, F &&f)
{
    for (uint64_t m : {mask & ~lowBits(ptr), mask & lowBits(ptr)}) {
        for (; m != 0; m &= m - 1) {
            if (!f(std::countr_zero(m)))
                return;
        }
    }
}

/** First set bit of @p mask in forEachFrom() order; -1 when empty. */
int
firstFrom(uint64_t mask, int ptr)
{
    const uint64_t upper = mask & ~lowBits(ptr);
    const uint64_t m = upper != 0 ? upper : mask;
    return m != 0 ? std::countr_zero(m) : -1;
}

} // namespace

int
ElectricalRouter::allocateVcs(Cycle now)
{
    const int V = params_.vcsPerPort;
    const int total = kAllPorts * V;
    // Requests: bit gi of req[po] = input VC gi has an unallocated
    // branch toward output port po.
    std::array<uint64_t, kMeshPorts> req{};
    for (int gi = 0; gi < total; ++gi) {
        const InputVc &vc = inputs_[static_cast<size_t>(gi)];
        if (!vc.busy() || vc.ejecting || now < vaStage(vc.arrivedAt))
            continue;
        for (unsigned m = vc.pendingMesh & lowBits(kMeshPorts); m != 0;
             m &= m - 1) {
            const int po = std::countr_zero(m);
            if (vc.branchVc[static_cast<size_t>(po)] < 0)
                req[static_cast<size_t>(po)] |= uint64_t{1} << gi;
        }
    }
    int grants = 0;
    for (int po = 0; po < kMeshPorts; ++po) {
        const uint64_t reqs = req[static_cast<size_t>(po)];
        if (reqs == 0)
            continue;
        // Free output VCs (credit returned, not assigned).
        OutputVc *ovcs = &outputs_[static_cast<size_t>(po * V)];
        uint64_t free_vcs = 0;
        for (int v = 0; v < V; ++v) {
            if (ovcs[v].state == OutputVc::State::Free &&
                ovcs[v].freeAt <= now)
                free_vcs |= uint64_t{1} << v;
        }
        if (free_vcs == 0)
            continue;
        // Requesters in round-robin order from the port's pointer
        // take the free VCs in ascending order.
        int last = -1;
        forEachFrom(reqs, ptr_.va[static_cast<size_t>(po)], [&](int gi) {
            if (free_vcs == 0)
                return false;
            const int v = std::countr_zero(free_vcs);
            free_vcs &= free_vcs - 1;
            inputs_[static_cast<size_t>(gi)]
                .branchVc[static_cast<size_t>(po)] = v;
            ovcs[v].state = OutputVc::State::Assigned;
            ++grants;
            last = gi;
            return true;
        });
        ptr_.va[static_cast<size_t>(po)] = (last + 1) % total;
    }
    return grants;
}

SaWinners
ElectricalRouter::allocateSwitch(Cycle now)
{
    const int V = params_.vcsPerPort;
    const int total = kAllPorts * V;
    SaWinners winners;

    // Eligible requests: bit gi of req[po] = input VC gi holds an
    // output VC on po and has reached its SA stage.
    std::array<uint64_t, kMeshPorts> req{};
    for (int gi = 0; gi < total; ++gi) {
        const InputVc &vc = inputs_[static_cast<size_t>(gi)];
        if (!vc.busy() || now < saStage(vc.arrivedAt))
            continue;
        for (int po = 0; po < kMeshPorts; ++po) {
            if (vc.branchVc[static_cast<size_t>(po)] >= 0)
                req[static_cast<size_t>(po)] |= uint64_t{1} << gi;
        }
    }
    if ((req[0] | req[1] | req[2] | req[3]) == 0)
        return winners;

    int input_grants[kAllPorts] = {0, 0, 0, 0, 0};
    // Input VCs of ports that have used up their input speedup.
    uint64_t capped = 0;
    // Output ports already matched (output speedup 1).
    unsigned output_matched = 0;

    const int iterations = std::max(1, params_.allocIterations);
    for (int iter = 0; iter < iterations; ++iter) {
        // Grant: every unmatched output offers to one requester.
        int grant_to[kMeshPorts] = {-1, -1, -1, -1};
        for (int po = 0; po < kMeshPorts; ++po) {
            if ((output_matched & (1u << po)) == 0)
                grant_to[po] =
                    firstFrom(req[static_cast<size_t>(po)] & ~capped,
                              ptr_.sa[static_cast<size_t>(po)]);
        }
        // Accept: each input port accepts grants in round-robin
        // order of output ports, within its speedup budget.
        bool any = false;
        for (int pi = 0; pi < kAllPorts; ++pi) {
            // The scan reads the accept pointer as moved by this
            // port's earlier accepts in the same loop.
            int &accept = ptr_.accept[static_cast<size_t>(pi)];
            for (int k = 0; k < kMeshPorts; ++k) {
                const int po = (accept + k) % kMeshPorts;
                const int gi = grant_to[po];
                if (gi < 0 || gi / V != pi)
                    continue;
                if (input_grants[pi] >= params_.inputSpeedup)
                    continue;
                const InputVc &vc = inputs_[static_cast<size_t>(gi)];
                winners.push(SaWinner{
                    portFromIndex(pi), gi % V, portFromIndex(po),
                    vc.branchVc[static_cast<size_t>(po)]});
                output_matched |= 1u << po;
                if (++input_grants[pi] >= params_.inputSpeedup)
                    capped |= lowBits(V) << (pi * V);
                grant_to[po] = -1;
                any = true;
                // iSLIP pointer update: only on first-iteration
                // matches, to preserve desynchronization.
                if (iter == 0) {
                    ptr_.sa[static_cast<size_t>(po)] = (gi + 1) % total;
                    accept = (po + 1) % kMeshPorts;
                }
            }
        }
        if (!any)
            break;
    }
    return winners;
}

} // namespace phastlane::electrical
