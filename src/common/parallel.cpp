#include "common/parallel.hpp"

#include <algorithm>
#include <cstdlib>

namespace phastlane {

int
resolveThreadCount(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("PL_THREADS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0)
            return static_cast<int>(std::min<long>(v, 1024));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

uint64_t
derivePointSeed(uint64_t base, uint64_t index)
{
    // SplitMix64 finalizer over (base advanced by index): the same
    // mixing the Rng seeding uses, so per-point streams never overlap
    // even for adjacent indices.
    uint64_t z = base + (index + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

ThreadPool::ThreadPool(int threads)
    : workerCount_(std::max(1, threads > 0 ? threads
                                           : resolveThreadCount(0)))
{
    threads_.reserve(static_cast<size_t>(workerCount_) - 1);
    for (int i = 1; i < workerCount_; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ThreadPool::runClaims()
{
    while (true) {
        // A worker still finishing an earlier run may claim from the
        // next one: run() publishes body_ before it resets the count,
        // so any successful claim sees the matching body.
        const int64_t k =
            unclaimed_.fetch_sub(1, std::memory_order_acq_rel);
        if (k <= 0)
            return;
        try {
            (*body_)(static_cast<size_t>(k - 1));
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMu_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(mu_);
            done_.notify_all();
        }
    }
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            wake_.wait(lock, [&] {
                return stopping_ || generation_ != seen;
            });
            if (stopping_)
                return;
            seen = generation_;
        }
        runClaims();
    }
}

void
ThreadPool::run(size_t n, const std::function<void(size_t)> &body)
{
    if (n == 0)
        return;
    if (workerCount_ == 1 || n == 1) {
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        body_ = &body;
        firstError_ = nullptr;
        remaining_.store(n, std::memory_order_relaxed);
        unclaimed_.store(static_cast<int64_t>(n),
                         std::memory_order_release);
        ++generation_;
    }
    wake_.notify_all();

    // The caller works too.
    runClaims();
    {
        std::unique_lock<std::mutex> lock(mu_);
        done_.wait(lock, [&] {
            return remaining_.load(std::memory_order_acquire) == 0;
        });
        body_ = nullptr;
    }
    if (firstError_)
        std::rethrow_exception(firstError_);
}

void
parallelFor(size_t n, const std::function<void(size_t)> &body,
            int threads)
{
    // Points are CPU-bound: workers beyond the core count only
    // time-slice, so a long point sharing a core finishes late.
    const size_t cores =
        std::max(1u, std::thread::hardware_concurrency());
    const size_t t = std::min(
        {static_cast<size_t>(resolveThreadCount(threads)), n, cores});
    if (t <= 1) {
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    ThreadPool pool(static_cast<int>(t));
    pool.run(n, body);
}

} // namespace phastlane
