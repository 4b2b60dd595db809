/**
 * @file
 * What sim::runJobs builds, keeps alive and finishes in each of its
 * modes (DESIGN.md §13), and the rule a serial campaign lives by: one
 * live network at a time.
 */

#include <gtest/gtest.h>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "core/network.hpp"
#include "sim/experiment.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "traffic/splash.hpp"

namespace phastlane::sim {
namespace {

struct JobLedger {
    std::atomic<int> built{0};
    std::atomic<int> live{0};
    std::atomic<int> peakLive{0};
    std::mutex mu;
    std::vector<size_t> finished;
};

/** A few cycles on a 2x2 mesh; construction and destruction are
 *  tallied in the ledger. */
class LedgerJob final : public Job
{
  public:
    explicit LedgerJob(JobLedger &ledger)
        : ledger_(ledger), net_(params())
    {
        ++ledger_.built;
        const int now = ++ledger_.live;
        int peak = ledger_.peakLive.load();
        while (now > peak &&
               !ledger_.peakLive.compare_exchange_weak(peak, now)) {
        }
    }
    ~LedgerJob() override { --ledger_.live; }

    Network &network() override { return net_; }
    bool done() override { return net_.now() >= 3; }
    void preStep() override {}
    void postStep() override {}

  private:
    static core::PhastlaneParams params()
    {
        core::PhastlaneParams p;
        p.meshWidth = 2;
        p.meshHeight = 2;
        return p;
    }

    JobLedger &ledger_;
    core::PhastlaneNetwork net_;
};

/** runJobs over @p n LedgerJobs whose finish returns false at
 *  @p stop_at (n: never). */
size_t
runLedger(JobLedger &ledger, size_t n, int threads, size_t stop_at,
          bool may_stop)
{
    return runJobs(
        n, threads,
        [&](size_t) { return std::make_unique<LedgerJob>(ledger); },
        [&](size_t i, Job &job) {
            EXPECT_TRUE(job.done()) << "job " << i;
            std::lock_guard<std::mutex> lock(ledger.mu);
            ledger.finished.push_back(i);
            return i != stop_at;
        },
        may_stop);
}

/** No extra jobs: nothing is built after the job whose finish says
 *  stop, beyond the wave that already holds it. */
TEST(RunJobs, StopBuildsNothingPastTheGangOrWaveHoldingIt)
{
    struct Case {
        int threads;
        bool may_stop;
        int built;
    };
    // Ten jobs, stop at job 3.
    for (const Case c : {Case{1, true, 4},    // serial
                         Case{3, true, 6},    // waves of three
                         Case{3, false, 10}}) // one parallelFor
    {
        SCOPED_TRACE(::testing::Message() << "threads=" << c.threads
                                          << " may_stop=" << c.may_stop);
        JobLedger ledger;
        EXPECT_EQ(runLedger(ledger, 10, c.threads, 3, c.may_stop), 4u);
        EXPECT_EQ(ledger.built.load(), c.built);
        EXPECT_EQ(ledger.finished.size(),
                  static_cast<size_t>(c.built));
        EXPECT_EQ(ledger.live.load(), 0);
    }
}

/** A serial run finishes jobs in index order, and every job when none
 *  says stop. */
TEST(RunJobs, FinishesInIndexOrder)
{
    JobLedger ledger;
    EXPECT_EQ(runLedger(ledger, 7, 1, 7, true), 7u);
    EXPECT_EQ(ledger.finished,
              (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6}));
}

/** A serial run holds one job at a time, a parallel one at most one
 *  per worker. */
TEST(RunJobs, HoldsOneLiveJobPerWorker)
{
    JobLedger serial;
    EXPECT_EQ(runLedger(serial, 6, 1, 6, false), 6u);
    EXPECT_EQ(serial.peakLive.load(), 1);

    JobLedger parallel;
    EXPECT_EQ(runLedger(parallel, 12, 3, 12, false), 12u);
    EXPECT_LE(parallel.peakLive.load(), 3);
}

/** The campaign entry points keep the serial rule end to end: a
 *  serial runExperiment (optical and electrical cells) and a serial
 *  runSweep never hold more than one live network. */
TEST(SerialCampaign, HoldsOneLiveNetwork)
{
    ASSERT_EQ(Network::liveCount(), 0);

    ExperimentSpec spec;
    spec.configs = {"Electrical3", "Optical4", "Optical4B32"};
    const auto suite = traffic::splashSuite();
    spec.benchmarks = {suite.at(0), suite.at(1)};
    spec.txnsPerNode = 5;
    spec.threads = 1;
    Network::resetPeakLiveCount();
    EXPECT_EQ(runExperiment(spec).size(), 6u);
    EXPECT_EQ(Network::peakLiveCount(), 1);

    SweepConfig sc;
    sc.rates = {0.02, 0.05, 0.10};
    sc.warmupCycles = 50;
    sc.measureCycles = 200;
    sc.stopAtSaturation = false;
    sc.threads = 1;
    Network::resetPeakLiveCount();
    EXPECT_EQ(runSweep(makeConfig("Optical4"), sc).size(), 3u);
    EXPECT_EQ(Network::peakLiveCount(), 1);

    EXPECT_EQ(Network::liveCount(), 0);
}

} // namespace
} // namespace phastlane::sim
