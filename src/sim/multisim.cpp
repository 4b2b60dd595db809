#include "sim/multisim.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/parallel.hpp"

namespace phastlane::sim {

bool
batchable(const Network &net)
{
    const auto *pl = dynamic_cast<const core::PhastlaneNetwork *>(&net);
    return pl != nullptr && core::NetworkBatch::eligible(*pl);
}

void
MultiSim::add(Job &job)
{
    PL_ASSERT(batchable(job.network()),
              "job network is not batch-eligible");
    jobs_.push_back(&job);
}

void
MultiSim::runAll()
{
    // Gang jobs of the same mesh size together (registration order is
    // preserved within a gang; jobs are independent, so cross-gang
    // execution order is unobservable). NetworkBatch keys shape on
    // the node count — that is all the shared scratch depends on.
    std::vector<Job *> pending = jobs_;
    while (!pending.empty()) {
        const int shape = pending.front()->network().nodeCount();
        std::vector<Job *> gang;
        std::vector<Job *> rest;
        for (Job *j : pending) {
            if (j->network().nodeCount() == shape &&
                static_cast<int>(gang.size()) < batchLimit_) {
                gang.push_back(j);
            } else {
                rest.push_back(j);
            }
        }
        runGang(gang);
        pending.swap(rest);
    }
    jobs_.clear();
}

void
MultiSim::runGang(const std::vector<Job *> &gang)
{
    // add() checked batchable(), so every network is a Phastlane one.
    core::NetworkBatch batch;
    for (Job *j : gang)
        batch.attach(static_cast<core::PhastlaneNetwork &>(j->network()));

    // Round-robin in quanta of kCycleQuantum cycles per instance: the
    // gang still advances together (no instance runs ahead by more
    // than one quantum), but each instance's hot state stays
    // cache-resident for a whole quantum instead of being evicted by
    // the other B-1 instances between consecutive cycles. Jobs are
    // independent, so the interleaving is unobservable in the results.
    std::vector<uint8_t> live(gang.size(), 1);
    size_t live_count = gang.size();
    while (live_count > 0) {
        for (size_t i = 0; i < gang.size(); ++i) {
            if (!live[i])
                continue;
            Job &job = *gang[i];
            for (int q = 0; q < kCycleQuantum; ++q) {
                if (job.done()) {
                    live[i] = 0;
                    --live_count;
                    break;
                }
                job.preStep();
                batch.stepInstance(i);
                job.postStep();
            }
        }
    }
    batch.detachAll();
}

namespace {

/** The serial driver loop: step @p job alone until it is done. */
void
runAlone(MultiSim::Job &job)
{
    Network &net = job.network();
    while (!job.done()) {
        job.preStep();
        net.step();
        job.postStep();
    }
}

} // namespace

size_t
runJobs(size_t n, int threads, int batch, const MakeJob &make,
        const FinishJob &finish, bool may_stop)
{
    const int t = resolveThreadCount(threads);
    if (t > 1 && n > 1) {
        const size_t wave = may_stop ? static_cast<size_t>(t) : n;
        for (size_t start = 0; start < n; start += wave) {
            const size_t m = std::min(wave, n - start);
            std::vector<uint8_t> keep(m, 1);
            parallelFor(
                m,
                [&](size_t k) {
                    auto job = make(start + k);
                    runAlone(*job);
                    keep[k] = finish(start + k, *job) ? 1 : 0;
                },
                t);
            for (size_t k = 0; k < m; ++k) {
                if (!keep[k])
                    return start + k + 1;
            }
        }
        return n;
    }

    if (batch == 1 || n <= 1) {
        for (size_t i = 0; i < n; ++i) {
            auto job = make(i);
            runAlone(*job);
            if (!finish(i, *job))
                return i + 1;
        }
        return n;
    }

    // Ganged: a gang runs once it is full, or once no more jobs will
    // be built; its jobs then finish in index order.
    const size_t limit = static_cast<size_t>(
        batch <= 0 ? MultiSim::kDefaultBatch : batch);
    std::vector<std::pair<size_t, std::unique_ptr<MultiSim::Job>>> gang;
    size_t kept = n;
    const auto runGang = [&] {
        MultiSim ms(static_cast<int>(limit));
        for (auto &entry : gang)
            ms.add(*entry.second);
        ms.runAll();
        for (auto &[i, job] : gang) {
            if (!finish(i, *job))
                kept = std::min(kept, i + 1);
        }
        gang.clear();
    };
    for (size_t i = 0; i < n && kept == n; ++i) {
        auto job = make(i);
        if (!batchable(job->network())) {
            runAlone(*job);
            if (!finish(i, *job))
                kept = i + 1;
            continue;
        }
        gang.emplace_back(i, std::move(job));
        if (gang.size() == limit)
            runGang();
    }
    if (!gang.empty())
        runGang();
    return kept;
}

} // namespace phastlane::sim
