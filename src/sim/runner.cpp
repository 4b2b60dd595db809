#include "sim/runner.hpp"

#include <algorithm>
#include <vector>

#include "common/parallel.hpp"

namespace phastlane::sim {

namespace {

/** The serial driver loop: step @p job alone until it is done. */
void
runAlone(Job &job)
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
runJobs(size_t n, int threads, const MakeJob &make,
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

    for (size_t i = 0; i < n; ++i) {
        auto job = make(i);
        runAlone(*job);
        if (!finish(i, *job))
            return i + 1;
    }
    return n;
}

} // namespace phastlane::sim
