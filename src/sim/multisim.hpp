/**
 * @file
 * MultiSim: lockstep batched execution of independent simulations
 * (DESIGN.md §13).
 *
 * A MultiSim owns nothing but the schedule: callers register Jobs —
 * a driver (traffic generator, harvesting, completion test) wrapped
 * around a batch-eligible PhastlaneNetwork — and runAll() advances
 * them cycle-by-cycle in gangs of up to the batch limit through a
 * core::NetworkBatch. Per-cycle driver work stays per-job (preStep /
 * postStep straddle each batched network cycle), so a job's observable
 * behavior — counters, delivery cycles, RNG streams — is bit-identical
 * to running it alone with net.step() in a loop.
 *
 * Jobs whose networks share a mesh shape are ganged together even when
 * registered apart; gangs run to completion one after another. A job
 * that finishes early (e.g. a saturated sweep point) simply stops
 * being stepped while the rest of its gang runs on.
 */

#ifndef PHASTLANE_SIM_MULTISIM_HPP
#define PHASTLANE_SIM_MULTISIM_HPP

#include <vector>

#include "core/batch.hpp"
#include "net/network.hpp"

namespace phastlane::sim {

/** True when @p net can run under a NetworkBatch: a PhastlaneNetwork
 *  with no observer and an FCFS wavefront. */
bool batchable(const Network &net);

/**
 * Lockstep scheduler over driver Jobs (see file comment).
 */
class MultiSim
{
  public:
    /** Instances per gang when the caller does not choose: large
     *  enough to amortize the shared scratch, small enough that a
     *  gang's hot state stays cache-resident. */
    static constexpr int kDefaultBatch = 64;

    /** Consecutive cycles an instance runs before the scheduler moves
     *  to the next one. Strict 1-cycle round-robin over a large gang
     *  reloads each instance's router/NIC state from a far cache level
     *  on every one of its cycles; a quantum amortizes that migration
     *  over many cycles while the gang still advances together to
     *  within one quantum. Results are independent of the quantum
     *  (jobs are isolated), so this is purely a locality knob: big
     *  enough that reload cost per cycle is negligible, small next to
     *  any realistic job length. */
    static constexpr int kCycleQuantum = 256;

    /** One simulation under batched execution. The MultiSim calls
     *  preStep / postStep around every network cycle and stops
     *  stepping once done() turns true; the caller finalizes results
     *  after runAll() (the Job outlives the MultiSim). */
    class Job
    {
      public:
        virtual ~Job() = default;

        /** The network this job drives; must satisfy batchable(). */
        virtual core::PhastlaneNetwork &network() = 0;

        /** True when the job needs no more cycles. Checked before
         *  every cycle, exactly like a serial driver loop's
         *  condition. */
        virtual bool done() = 0;

        /** Injection side of the next cycle (runs before step). */
        virtual void preStep() = 0;

        /** Harvest side of the cycle (runs after step). */
        virtual void postStep() = 0;
    };

    /** @param batch_limit Max instances per gang; <= 0 selects
     *         kDefaultBatch, 1 degenerates to serial stepping. */
    explicit MultiSim(int batch_limit = 0)
        : batchLimit_(batch_limit <= 0 ? kDefaultBatch : batch_limit)
    {
    }

    /** Register @p job (caller keeps ownership; must outlive
     *  runAll()). The job's network must be batch-eligible. */
    void add(Job &job);

    /** Run every registered job to completion, gang by gang. */
    void runAll();

    int batchLimit() const { return batchLimit_; }

  private:
    void runGang(const std::vector<Job *> &gang);

    int batchLimit_;
    std::vector<Job *> jobs_;
};

} // namespace phastlane::sim

#endif // PHASTLANE_SIM_MULTISIM_HPP
