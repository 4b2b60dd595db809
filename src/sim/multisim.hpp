/**
 * @file
 * The campaign job runner (DESIGN.md §13): runJobs() executes a
 * campaign's independent simulations, and MultiSim steps batchable
 * ones in lockstep gangs.
 *
 * A Job is a driver (traffic generator, harvesting, completion test)
 * wrapped around a network. runJobs() is the one place that decides
 * how jobs execute: ganged through a MultiSim, stepped alone, or
 * spread over a parallelFor. Per-cycle driver work stays per job
 * (preStep / postStep straddle each network cycle), so a job's
 * observable behavior — counters, delivery cycles, RNG streams — is
 * bit-identical in every mode to running it alone with net.step() in
 * a loop.
 *
 * Within a MultiSim, jobs whose networks share a mesh shape are ganged
 * together even when registered apart; gangs run to completion one
 * after another. A job that finishes early (e.g. a saturated sweep
 * point) simply stops being stepped while the rest of its gang runs
 * on.
 */

#ifndef PHASTLANE_SIM_MULTISIM_HPP
#define PHASTLANE_SIM_MULTISIM_HPP

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/batch.hpp"
#include "core/network.hpp"
#include "net/network.hpp"
#include "obs/observe.hpp"

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

    /** One simulation. The runner calls preStep / postStep around
     *  every network cycle and stops stepping once done() turns true;
     *  the caller then harvests the results from the Job. */
    class Job
    {
      public:
        virtual ~Job() = default;

        /** The network this job drives. Only jobs whose network
         *  satisfies batchable() can join a MultiSim gang. */
        virtual Network &network() = 0;

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

/**
 * A network plus a step-wise driver (traffic::SyntheticDriver,
 * traffic::CoherenceDriver): the driver's begin / done / preStep /
 * postStep loop as a Job. Harvest with driver().finish() once the job
 * is done.
 */
template <class Driver>
class DriverJob final : public MultiSim::Job
{
  public:
    /** Owns @p net; @p args follow the network in Driver's
     *  constructor. */
    template <class... Args>
    explicit DriverJob(std::unique_ptr<Network> net, Args &&...args)
        : net_(std::move(net)),
          driver_(*net_, std::forward<Args>(args)...)
    {
        driver_.begin();
    }

    /** Record every cycle into @p registry when the network is a
     *  PhastlaneNetwork (no-op otherwise). The observer makes the
     *  job non-batchable, so runJobs() steps it alone. */
    void recordMetrics(obs::MetricsRegistry &registry)
    {
        auto *pl = dynamic_cast<core::PhastlaneNetwork *>(net_.get());
        if (!pl)
            return;
        metrics_ = std::make_unique<obs::MetricsObserver>(*pl, registry);
        pl->setObserver(metrics_.get());
    }

    Driver &driver() { return driver_; }

    Network &network() override { return *net_; }
    bool done() override { return driver_.done(); }
    void preStep() override { driver_.preStep(); }
    void postStep() override { driver_.postStep(); }

  private:
    std::unique_ptr<Network> net_;
    Driver driver_;
    std::unique_ptr<obs::MetricsObserver> metrics_;
};

/** Builds job @p i of a campaign. */
using MakeJob = std::function<std::unique_ptr<MultiSim::Job>(size_t)>;

/** Harvests job @p i once it is done; false means no job after i is
 *  wanted. */
using FinishJob = std::function<bool(size_t, MultiSim::Job &)>;

/**
 * Run jobs 0..n-1 of a campaign, each built by make(i) and harvested
 * by finish(i, job), and return how many leading jobs count: one past
 * the lowest i whose finish returned false, else n. Every job that is
 * built is run, finished and destroyed. Once a finish has returned
 * false no further job is built, except in a parallel run without
 * @p may_stop, which builds all n. The mode:
 *
 * - parallel (resolveThreadCount(threads) > 1 and n > 1): each job is
 *   built, run and finished on a worker (make and finish must be
 *   safe to call concurrently for distinct i). With @p may_stop the
 *   jobs go in waves of `threads`, so nothing past the wave holding
 *   the stop starts; without it, one parallelFor covers all n;
 * - ganged (otherwise, when batch != 1 and n > 1): jobs are built in
 *   index order; batchable ones collect into gangs of up to `batch`
 *   (<= 0: MultiSim::kDefaultBatch) that run through a MultiSim and
 *   finish in index order, the others run and finish alone as they
 *   are built, so at most one non-batchable network is live;
 * - serial: build, run alone, finish, one job at a time.
 *
 * Results are bit-identical across modes and (threads, batch) pairs.
 */
size_t runJobs(size_t n, int threads, int batch, const MakeJob &make,
               const FinishJob &finish, bool may_stop);

} // namespace phastlane::sim

#endif // PHASTLANE_SIM_MULTISIM_HPP
