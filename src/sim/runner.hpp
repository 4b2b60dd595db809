/**
 * @file
 * The campaign job runner (DESIGN.md §13): runJobs() executes a
 * campaign's independent simulations.
 *
 * A Job is a driver (traffic generator, harvesting, completion test)
 * wrapped around a network. runJobs() is the one place that decides
 * how jobs execute: one after another, or spread over a parallelFor.
 * Per-cycle driver work stays per job (preStep / postStep straddle
 * each network cycle), so a job's observable behavior — counters,
 * delivery cycles, RNG streams — is bit-identical in every mode to
 * running it alone with net.step() in a loop.
 */

#ifndef PHASTLANE_SIM_RUNNER_HPP
#define PHASTLANE_SIM_RUNNER_HPP

#include <functional>
#include <memory>
#include <utility>

#include "core/network.hpp"
#include "net/network.hpp"
#include "obs/observe.hpp"

namespace phastlane::sim {

/** One simulation. The runner calls preStep / postStep around every
 *  network cycle and stops stepping once done() turns true; the
 *  caller then harvests the results from the Job. */
class Job
{
  public:
    virtual ~Job() = default;

    /** The network this job drives. */
    virtual Network &network() = 0;

    /** True when the job needs no more cycles. Checked before every
     *  cycle, exactly like a serial driver loop's condition. */
    virtual bool done() = 0;

    /** Injection side of the next cycle (runs before step). */
    virtual void preStep() = 0;

    /** Harvest side of the cycle (runs after step). */
    virtual void postStep() = 0;
};

/**
 * A network plus a step-wise driver (traffic::SyntheticDriver,
 * traffic::CoherenceDriver): the driver's begin / done / preStep /
 * postStep loop as a Job. Harvest with driver().finish() once the job
 * is done.
 */
template <class Driver>
class DriverJob final : public Job
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
     *  PhastlaneNetwork (no-op otherwise). */
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
using MakeJob = std::function<std::unique_ptr<Job>(size_t)>;

/** Harvests job @p i once it is done; false means no job after i is
 *  wanted. */
using FinishJob = std::function<bool(size_t, Job &)>;

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
 * - serial: build, run, finish and destroy one job at a time, so a
 *   serial campaign holds one live network.
 *
 * Results are bit-identical across modes and thread counts.
 */
size_t runJobs(size_t n, int threads, const MakeJob &make,
               const FinishJob &finish, bool may_stop);

} // namespace phastlane::sim

#endif // PHASTLANE_SIM_RUNNER_HPP
