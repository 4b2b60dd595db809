/**
 * @file
 * Batched-vs-serial differential campaign (DESIGN.md §13): stepping N
 * independent networks in lockstep gangs through sim::MultiSim /
 * core::NetworkBatch must be bit-identical to running each instance
 * alone — same per-packet delivery cycles, same event counters, same
 * per-port claim tallies — across batch sizes (1/3/8/64), mixed mesh
 * shapes, seeds, fault configs, and both FCFS wavefront models.
 * PL_CHECK_LONG=1 widens the campaign (more seeds, longer 64-wide
 * soak). The RunJobs tests pin what sim::runJobs builds and keeps
 * alive in each of its modes.
 */

#include <gtest/gtest.h>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/batch.hpp"
#include "core/network.hpp"
#include "core/observer.hpp"
#include "sim/multisim.hpp"

namespace phastlane::sim {
namespace {

bool
longCampaign()
{
    const char *v = std::getenv("PL_CHECK_LONG");
    return v && v[0] == '1';
}

/** Everything the campaign pins per instance: per-(packet, node)
 *  delivery cycles, the full counter set, and the cumulative
 *  port-claim tallies. */
struct RunResult {
    std::map<std::pair<PacketId, NodeId>, Cycle> delivered;
    core::OpticalEvents events;
    core::PhastlaneCounters pl;
    NetworkCounters counters;
    std::vector<uint64_t> portClaims;
    uint64_t inFlight = 0;
    Cycle endCycle = 0;
};

/**
 * One instance of the campaign workload as a MultiSim::Job: inject a
 * deterministic mixed unicast/broadcast stream for @p cycles network
 * cycles, then drain. The exact same object drives the serial
 * reference (runSerial below) and the batched runs, so the injection
 * stream per (params, seed) is identical by construction.
 */
class DiffJob final : public MultiSim::Job
{
  public:
    DiffJob(const core::PhastlaneParams &p, int cycles, int seed)
        : net_(p), rng_(500 + seed), cycles_(cycles)
    {
    }

    core::PhastlaneNetwork &network() override { return net_; }

    bool done() override
    {
        if (cyclesRun_ < cycles_)
            return false;
        return net_.inFlight() == 0 || guard_ >= 200000;
    }

    void preStep() override
    {
        if (cyclesRun_ >= cycles_)
            return;
        for (NodeId n = 0; n < net_.nodeCount(); ++n) {
            if (!rng_.bernoulli(0.10))
                continue;
            Packet pkt;
            pkt.id = id_++;
            pkt.src = n;
            if (rng_.bernoulli(0.06)) {
                pkt.broadcast = true;
            } else {
                NodeId d = static_cast<NodeId>(
                    rng_.uniformInt(0, net_.nodeCount() - 1));
                pkt.dst = d == n ? (d + 1) % net_.nodeCount() : d;
            }
            net_.inject(pkt);
        }
    }

    void postStep() override
    {
        for (const auto &d : net_.deliveries())
            result_.delivered[{d.packet.id, d.node}] = d.at;
        if (cyclesRun_ < cycles_)
            ++cyclesRun_;
        else
            ++guard_;
    }

    RunResult finish()
    {
        result_.events = net_.events();
        result_.pl = net_.phastlaneCounters();
        result_.counters = net_.counters();
        result_.portClaims = net_.portClaimCounts();
        result_.inFlight = net_.inFlight();
        result_.endCycle = net_.now();
        return result_;
    }

  private:
    core::PhastlaneNetwork net_;
    Rng rng_;
    int cycles_;
    int cyclesRun_ = 0;
    int guard_ = 0;
    PacketId id_ = 1;
    RunResult result_;
};

/** The serial reference: the plain driver loop every batched gang
 *  must reproduce. */
RunResult
runSerial(const core::PhastlaneParams &p, int cycles, int seed)
{
    DiffJob job(p, cycles, seed);
    while (!job.done()) {
        job.preStep();
        job.network().step();
        job.postStep();
    }
    return job.finish();
}

void
expectIdentical(const RunResult &a, const RunResult &b,
                const std::string &label)
{
    EXPECT_EQ(a.delivered, b.delivered) << label;
    EXPECT_EQ(a.events.launches, b.events.launches) << label;
    EXPECT_EQ(a.events.passTraversals, b.events.passTraversals)
        << label;
    EXPECT_EQ(a.events.receives, b.events.receives) << label;
    EXPECT_EQ(a.events.tapReceives, b.events.tapReceives) << label;
    EXPECT_EQ(a.events.bufferWrites, b.events.bufferWrites) << label;
    EXPECT_EQ(a.events.bufferReads, b.events.bufferReads) << label;
    EXPECT_EQ(a.events.drops, b.events.drops) << label;
    EXPECT_EQ(a.events.dropSignalHops, b.events.dropSignalHops)
        << label;
    EXPECT_EQ(a.events.retransmissions, b.events.retransmissions)
        << label;
    EXPECT_EQ(a.events.routerCycles, b.events.routerCycles) << label;
    EXPECT_EQ(a.events.lostUnits, b.events.lostUnits) << label;
    EXPECT_EQ(a.events.faultMisTurns, b.events.faultMisTurns)
        << label;
    EXPECT_EQ(a.events.faultMissedReceives,
              b.events.faultMissedReceives)
        << label;
    EXPECT_EQ(a.events.faultCorruptions, b.events.faultCorruptions)
        << label;
    EXPECT_EQ(a.events.faultDeadArrivals, b.events.faultDeadArrivals)
        << label;
    EXPECT_EQ(a.events.duplicatesSuppressed,
              b.events.duplicatesSuppressed)
        << label;
    EXPECT_EQ(a.pl.drops, b.pl.drops) << label;
    EXPECT_EQ(a.pl.retransmissions, b.pl.retransmissions) << label;
    EXPECT_EQ(a.pl.blockedBuffered, b.pl.blockedBuffered) << label;
    EXPECT_EQ(a.pl.interimAccepts, b.pl.interimAccepts) << label;
    EXPECT_EQ(a.pl.launches, b.pl.launches) << label;
    EXPECT_EQ(a.counters.messagesAccepted,
              b.counters.messagesAccepted)
        << label;
    EXPECT_EQ(a.counters.packetsInjected, b.counters.packetsInjected)
        << label;
    EXPECT_EQ(a.counters.deliveries, b.counters.deliveries) << label;
    EXPECT_EQ(a.portClaims, b.portClaims) << label;
    EXPECT_EQ(a.inFlight, b.inFlight) << label;
    EXPECT_EQ(a.endCycle, b.endCycle) << label;
}

core::PhastlaneParams
baseParams(int w, int h, uint64_t seed)
{
    core::PhastlaneParams p;
    p.meshWidth = w;
    p.meshHeight = h;
    p.routerBufferEntries = 4;
    p.seed = seed;
    return p;
}

/**
 * The core campaign: for every mesh shape, pin each instance's serial
 * result, then require every batch limit to reproduce every instance
 * bit-for-bit. Instances within one shape differ by network seed and
 * traffic seed, so the gang genuinely holds divergent simulations.
 */
TEST(MultiSimDifferential, MatchesSerialAcrossBatchSizes)
{
    struct MeshCase {
        int w, h, cycles;
    };
    std::vector<MeshCase> meshes = {{4, 4, 120}, {8, 8, 100},
                                    {9, 7, 100}};
    if (longCampaign())
        meshes.push_back({16, 16, 60});
    const int instances = longCampaign() ? 12 : 8;
    for (const auto &mc : meshes) {
        std::vector<RunResult> serial(instances);
        for (int i = 0; i < instances; ++i) {
            serial[i] = runSerial(
                baseParams(mc.w, mc.h,
                           1000 + static_cast<uint64_t>(i)),
                mc.cycles, i + 1);
        }
        for (int limit : {1, 3, 8}) {
            MultiSim ms(limit);
            std::vector<std::unique_ptr<DiffJob>> jobs;
            for (int i = 0; i < instances; ++i) {
                jobs.push_back(std::make_unique<DiffJob>(
                    baseParams(mc.w, mc.h,
                               1000 + static_cast<uint64_t>(i)),
                    mc.cycles, i + 1));
                ms.add(*jobs.back());
            }
            ms.runAll();
            for (int i = 0; i < instances; ++i) {
                expectIdentical(
                    serial[i], jobs[i]->finish(),
                    std::to_string(mc.w) + "x" +
                        std::to_string(mc.h) + " batch " +
                        std::to_string(limit) + " instance " +
                        std::to_string(i));
            }
        }
    }
}

/** The perf-gate shape: a full 64-instance 8x8 gang, every instance
 *  pinned against its serial run. PL_CHECK_LONG=1 doubles the
 *  traffic window. */
TEST(MultiSimDifferential, Batch64Soak)
{
    const int cycles = longCampaign() ? 120 : 40;
    const int instances = 64;
    MultiSim ms(64);
    std::vector<std::unique_ptr<DiffJob>> jobs;
    for (int i = 0; i < instances; ++i) {
        jobs.push_back(std::make_unique<DiffJob>(
            baseParams(8, 8, 7000 + static_cast<uint64_t>(i)),
            cycles, i + 1));
        ms.add(*jobs.back());
    }
    ms.runAll();
    for (int i = 0; i < instances; ++i) {
        expectIdentical(
            runSerial(baseParams(8, 8,
                                 7000 + static_cast<uint64_t>(i)),
                      cycles, i + 1),
            jobs[i]->finish(),
            "batch64 instance " + std::to_string(i));
    }
}

/** Mixed mesh shapes registered interleaved in one MultiSim: the
 *  scheduler gangs by shape and every instance still matches its
 *  serial run. */
TEST(MultiSimDifferential, MixedMeshShapesGangByShape)
{
    struct Spec {
        int w, h, seed;
    };
    // Interleave three shapes so gang formation has to regroup them.
    const std::vector<Spec> specs = {
        {4, 4, 1}, {8, 8, 2}, {9, 7, 3}, {4, 4, 4}, {8, 8, 5},
        {9, 7, 6}, {4, 4, 7}, {8, 8, 8}, {9, 7, 9},
    };
    MultiSim ms(4);
    std::vector<std::unique_ptr<DiffJob>> jobs;
    for (const auto &s : specs) {
        jobs.push_back(std::make_unique<DiffJob>(
            baseParams(s.w, s.h, 3000 + static_cast<uint64_t>(s.seed)),
            90, s.seed));
        ms.add(*jobs.back());
    }
    ms.runAll();
    for (size_t i = 0; i < specs.size(); ++i) {
        const auto &s = specs[i];
        expectIdentical(
            runSerial(baseParams(s.w, s.h,
                                 3000 + static_cast<uint64_t>(s.seed)),
                      90, s.seed),
            jobs[i]->finish(),
            "mixed shape " + std::to_string(s.w) + "x" +
                std::to_string(s.h) + " seed " +
                std::to_string(s.seed));
    }
}

/** Fault injection (stateless per-event hashes) and exponential
 *  backoff stay bit-identical under batching, including gangs whose
 *  instances carry different fault seeds. */
TEST(MultiSimDifferential, FaultConfigsStayInLockstep)
{
    const int instances = longCampaign() ? 8 : 6;
    auto faulty = [](int i) {
        core::PhastlaneParams p = baseParams(
            9, 7, 4242 + static_cast<uint64_t>(i));
        p.routerBufferEntries = 2; // force drops and retries
        p.exponentialBackoff = true;
        p.backoffBase = 1;
        p.faults.misTurnRate = 0.02;
        p.faults.missedReceiveRate = 0.01;
        p.faults.dropSignalLossRate = 0.01;
        p.faults.dropperIdCorruptRate = 0.05;
        p.faults.routerFailRate = 0.02;
        p.faults.faultSeed = 99 + static_cast<uint64_t>(i);
        return p;
    };
    std::vector<RunResult> serial(instances);
    for (int i = 0; i < instances; ++i)
        serial[i] = runSerial(faulty(i), 120, i + 1);
    for (int limit : {3, 8}) {
        MultiSim ms(limit);
        std::vector<std::unique_ptr<DiffJob>> jobs;
        for (int i = 0; i < instances; ++i) {
            jobs.push_back(
                std::make_unique<DiffJob>(faulty(i), 120, i + 1));
            ms.add(*jobs.back());
        }
        ms.runAll();
        for (int i = 0; i < instances; ++i) {
            expectIdentical(serial[i], jobs[i]->finish(),
                            "faults batch " + std::to_string(limit) +
                                " instance " + std::to_string(i));
        }
    }
}

/** Both FCFS wavefront models batch; a gang may even mix them (the
 *  batch keys on mesh shape only — each instance steps its own
 *  engine). */
TEST(MultiSimDifferential, BothFcfsWavefrontModels)
{
    auto withModel = [](core::WavefrontModel m, int i) {
        core::PhastlaneParams p = baseParams(
            8, 8, 5000 + static_cast<uint64_t>(i));
        p.wavefront = m;
        return p;
    };
    const int per_model = 3;
    std::vector<RunResult> serial;
    std::vector<core::PhastlaneParams> params;
    for (int i = 0; i < per_model; ++i) {
        params.push_back(
            withModel(core::WavefrontModel::BitplaneFcfs, i));
        params.push_back(
            withModel(core::WavefrontModel::SubstepFcfs, i));
    }
    for (size_t i = 0; i < params.size(); ++i)
        serial.push_back(
            runSerial(params[i], 100, static_cast<int>(i) + 1));
    MultiSim ms(static_cast<int>(params.size()));
    std::vector<std::unique_ptr<DiffJob>> jobs;
    for (size_t i = 0; i < params.size(); ++i) {
        jobs.push_back(std::make_unique<DiffJob>(
            params[i], 100, static_cast<int>(i) + 1));
        ms.add(*jobs.back());
    }
    ms.runAll();
    for (size_t i = 0; i < params.size(); ++i) {
        expectIdentical(serial[i], jobs[i]->finish(),
                        "wavefront mix instance " +
                            std::to_string(i));
    }
}

/** Eligibility rules (DESIGN.md §13): attached observers and the
 *  GlobalPriority ablation are not batchable and must fall back
 *  per-instance in the sweep drivers. */
TEST(MultiSimEligibility, RejectsObserversAndGlobalPriority)
{
    core::PhastlaneNetwork plain(baseParams(4, 4, 1));
    EXPECT_TRUE(batchable(plain));
    EXPECT_TRUE(core::NetworkBatch::eligible(plain));

    core::PhastlaneParams global = baseParams(4, 4, 1);
    global.wavefront = core::WavefrontModel::GlobalPriority;
    core::PhastlaneNetwork globalNet(global);
    EXPECT_FALSE(batchable(globalNet));

    struct NullObserver : core::StepObserver {
    } obs;
    core::PhastlaneNetwork observed(baseParams(4, 4, 1));
    observed.setObserver(&obs);
    EXPECT_FALSE(batchable(observed));
    observed.setObserver(nullptr);
    EXPECT_TRUE(batchable(observed));
}

/** Gang compatibility keys on node count: same shape gangs together,
 *  different shapes never share a batch. */
TEST(MultiSimEligibility, CompatibilityKeysOnNodeCount)
{
    core::PhastlaneNetwork a(baseParams(4, 4, 1));
    core::PhastlaneNetwork b(baseParams(4, 4, 2));
    core::PhastlaneNetwork c(baseParams(8, 8, 3));
    core::NetworkBatch batch;
    EXPECT_TRUE(batch.compatible(a)); // empty batch accepts anything
    batch.attach(a);
    EXPECT_TRUE(batch.compatible(b));
    EXPECT_FALSE(batch.compatible(c));
    batch.detachAll();
}

/** A gang where some instances finish (drain) cycles before others:
 *  early-done jobs stop being stepped and their final state is
 *  untouched while the rest run on. Different traffic windows force
 *  staggered completion. */
TEST(MultiSimDifferential, StaggeredCompletionInOneGang)
{
    const std::vector<int> windows = {20, 60, 120, 40};
    std::vector<RunResult> serial;
    for (size_t i = 0; i < windows.size(); ++i) {
        serial.push_back(runSerial(
            baseParams(8, 8, 6000 + static_cast<uint64_t>(i)),
            windows[i], static_cast<int>(i) + 1));
    }
    MultiSim ms(static_cast<int>(windows.size()));
    std::vector<std::unique_ptr<DiffJob>> jobs;
    for (size_t i = 0; i < windows.size(); ++i) {
        jobs.push_back(std::make_unique<DiffJob>(
            baseParams(8, 8, 6000 + static_cast<uint64_t>(i)),
            windows[i], static_cast<int>(i) + 1));
        ms.add(*jobs.back());
    }
    ms.runAll();
    for (size_t i = 0; i < windows.size(); ++i) {
        expectIdentical(serial[i], jobs[i]->finish(),
                        "staggered window " +
                            std::to_string(windows[i]));
    }
}

/** What a runJobs call built, finished and held alive at once. */
struct JobLedger {
    std::atomic<int> built{0};
    std::atomic<int> live{0};
    std::atomic<int> peakLive{0};
    std::mutex mu;
    std::vector<size_t> finished;
};

/** A few cycles on a 2x2 mesh; GlobalPriority makes it non-batchable.
 *  Construction and destruction are tallied in the ledger. */
class LedgerJob final : public MultiSim::Job
{
  public:
    LedgerJob(JobLedger &ledger, bool can_batch)
        : ledger_(ledger), net_(params(can_batch))
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
    static core::PhastlaneParams params(bool can_batch)
    {
        core::PhastlaneParams p = baseParams(2, 2, 1);
        if (!can_batch)
            p.wavefront = core::WavefrontModel::GlobalPriority;
        return p;
    }

    JobLedger &ledger_;
    core::PhastlaneNetwork net_;
};

/** runJobs over @p n LedgerJobs whose finish returns false at
 *  @p stop_at (n: never); @p can_batch(i) picks each job's kind. */
size_t
runLedger(JobLedger &ledger, size_t n, int threads, int batch,
          size_t stop_at, bool may_stop,
          bool (*can_batch)(size_t) = [](size_t) { return true; })
{
    return runJobs(
        n, threads, batch,
        [&](size_t i) {
            return std::make_unique<LedgerJob>(ledger, can_batch(i));
        },
        [&](size_t i, MultiSim::Job &job) {
            EXPECT_TRUE(job.done()) << "job " << i;
            std::lock_guard<std::mutex> lock(ledger.mu);
            ledger.finished.push_back(i);
            return i != stop_at;
        },
        may_stop);
}

/** No extra jobs: nothing is built after the job whose finish says
 *  stop, beyond the gang or wave that already holds it. */
TEST(RunJobs, StopBuildsNothingPastTheGangOrWaveHoldingIt)
{
    struct Case {
        int threads;
        int batch;
        bool may_stop;
        int built;
    };
    // Ten jobs, stop at job 3.
    for (const Case c : {Case{1, 1, true, 4},    // serial
                         Case{1, 2, true, 4},    // gangs {0,1} {2,3}
                         Case{1, 3, true, 6},    // gangs {0,1,2} {3,4,5}
                         Case{1, 0, true, 10},   // one default gang
                         Case{3, 0, true, 6},    // waves of three
                         Case{3, 0, false, 10}}) // one parallelFor
    {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << c.threads << " batch=" << c.batch
                     << " may_stop=" << c.may_stop);
        JobLedger ledger;
        EXPECT_EQ(runLedger(ledger, 10, c.threads, c.batch, 3,
                            c.may_stop),
                  4u);
        EXPECT_EQ(ledger.built.load(), c.built);
        EXPECT_EQ(ledger.finished.size(),
                  static_cast<size_t>(c.built));
        EXPECT_EQ(ledger.live.load(), 0);
    }
}

/** Serial and ganged runs finish batchable jobs in index order, and
 *  every job when none says stop. */
TEST(RunJobs, FinishesInIndexOrder)
{
    for (const int batch : {1, 2, 0}) {
        JobLedger ledger;
        EXPECT_EQ(runLedger(ledger, 7, 1, batch, 7, true), 7u);
        EXPECT_EQ(ledger.finished,
                  (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6}))
            << "batch=" << batch;
    }
}

/** A job that cannot batch runs and finishes as soon as it is built,
 *  so a ganged run holds at most one of them beside the open gang. */
TEST(RunJobs, NonBatchableJobsRunAloneAsBuilt)
{
    JobLedger all_solo;
    EXPECT_EQ(runLedger(all_solo, 6, 1, 0, 6, false,
                        [](size_t) { return false; }),
              6u);
    EXPECT_EQ(all_solo.peakLive.load(), 1);

    // Odd jobs cannot batch: they finish before the gang of even ones
    // that was built around them.
    JobLedger mixed;
    EXPECT_EQ(runLedger(mixed, 6, 1, 0, 6, false,
                        [](size_t i) { return i % 2 == 0; }),
              6u);
    EXPECT_EQ(mixed.finished,
              (std::vector<size_t>{1, 3, 5, 0, 2, 4}));
    EXPECT_EQ(mixed.peakLive.load(), 4); // gang of three plus one

    // A parallel run holds at most one job per worker.
    JobLedger parallel;
    EXPECT_EQ(runLedger(parallel, 12, 3, 0, 12, false), 12u);
    EXPECT_LE(parallel.peakLive.load(), 3);
}

} // namespace
} // namespace phastlane::sim
