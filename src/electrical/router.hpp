/**
 * @file
 * One electrical input-queued VC router: input VC state, output VC
 * credit tracking, and the iSLIP-style separable VC and switch
 * allocators (paper Table 2).
 */

#ifndef PHASTLANE_ELECTRICAL_ROUTER_HPP
#define PHASTLANE_ELECTRICAL_ROUTER_HPP

#include <array>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "electrical/flit.hpp"
#include "electrical/params.hpp"
#include "electrical/vctm.hpp"

namespace phastlane::electrical {

/** State of one input virtual channel (depth 1). */
struct InputVc {
    std::optional<EFlit> flit;
    Cycle arrivedAt = 0;

    /** Mesh output ports this flit still has to be sent to (bitmask
     *  over portIndex; one bit for unicast, several for a VCTM
     *  fork). */
    uint8_t pendingMesh = 0;

    /** Pure ejection (or multicast leaf): VC frees one cycle after
     *  arrival without touching the crossbar. */
    bool ejecting = false;

    /**
     * Output VC held per pending branch (-1 = not yet allocated).
     * Branches allocate and traverse independently; the crossbar's
     * input speedup of 4 lets a VCTM fork replicate to several output
     * ports in the same cycle.
     */
    std::array<int, kMeshPorts> branchVc{-1, -1, -1, -1};

    bool busy() const { return flit.has_value(); }

    void
    resetBranches()
    {
        branchVc = {-1, -1, -1, -1};
    }
};

/** Credit state of one downstream (output-side) VC slot. */
struct OutputVc {
    enum class State : uint8_t {
        Free,       ///< allocatable once freeAt has passed
        Assigned,   ///< granted by VA, flit not yet departed
        Occupied,   ///< flit sits in the downstream buffer
    };
    State state = State::Free;
    Cycle freeAt = 0; ///< credit visibility time while Free
};

/** One switch-allocation winner. */
struct SaWinner {
    Port inPort;
    int inVc;
    Port outPort;
    int outVc;
};

/** The switch-allocation winners of one cycle, in grant order. With
 *  output speedup 1 each mesh output port is won at most once. */
class SaWinners
{
  public:
    void push(const SaWinner &w) { list_[count_++] = w; }
    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    const SaWinner &operator[](size_t i) const { return list_[i]; }
    const SaWinner *begin() const { return list_.data(); }
    const SaWinner *end() const { return list_.data() + count_; }

  private:
    std::array<SaWinner, kMeshPorts> list_{};
    size_t count_ = 0;
};

/** Round-robin priority state of the VC and switch allocators. */
struct AllocPointers {
    /** VA: first-priority input VC (port * V + vc) per output port. */
    std::array<int, kMeshPorts> va{};
    /** SA grant pointer (port * V + vc) per output port. */
    std::array<int, kMeshPorts> sa{};
    /** SA accept pointer (mesh output port) per input port. */
    std::array<int, kAllPorts> accept{};

    bool operator==(const AllocPointers &) const = default;
};

/**
 * Router state plus allocation logic. Inter-router flit movement and
 * credit notification are orchestrated by ElectricalNetwork.
 */
class ElectricalRouter
{
  public:
    ElectricalRouter(NodeId self, const ElectricalParams &params);

    NodeId self() const { return self_; }

    InputVc &inputVc(Port p, int v);
    const InputVc &inputVc(Port p, int v) const;
    OutputVc &outputVc(Port p, int v);
    const OutputVc &outputVc(Port p, int v) const;

    /** A free input VC index at @p p, or -1 when all are busy. */
    int freeInputVc(Port p) const;

    VctmTable &treeTable() { return table_; }

    /** The allocators' round-robin pointers. */
    AllocPointers &pointers() { return ptr_; }
    const AllocPointers &pointers() const { return ptr_; }

    /**
     * VC allocation (iSLIP-style, output-first, single iteration):
     * input VCs holding a flit whose VA stage has been reached and
     * that have an unserved branch request an output VC on the
     * branch's port; free output VCs are granted round-robin.
     * Returns the number of grants. Makes no heap allocation.
     */
    int allocateVcs(Cycle now);

    /**
     * Switch allocation (iSLIP): branches holding an output VC and
     * past their SA stage compete per output port through the
     * configured number of grant/accept iterations, limited by the
     * input speedup (output speedup 1). Round-robin grant and accept
     * pointers advance only on first-iteration matches, per the iSLIP
     * pointer-update rule. The caller moves winners' output VCs to
     * Occupied and releases branches and input VCs. Makes no heap
     * allocation.
     */
    SaWinners allocateSwitch(Cycle now);

    /** Earliest cycle a flit that arrived at @p arrival may do VA. */
    Cycle vaStage(Cycle arrival) const;

    /** Earliest cycle it may do SA (departure cycle; +1 link). */
    Cycle saStage(Cycle arrival) const;

  private:
    NodeId self_;
    const ElectricalParams &params_;
    std::vector<InputVc> inputs_;   ///< [port * V + vc]
    std::vector<OutputVc> outputs_; ///< [meshPort * V + vc]
    AllocPointers ptr_;
    VctmTable table_;
};

} // namespace phastlane::electrical

#endif // PHASTLANE_ELECTRICAL_ROUTER_HPP
