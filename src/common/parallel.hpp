/**
 * @file
 * Parallel simulation dispatch: a small thread pool and a parallelFor
 * helper used to spread independent simulation points (sweep rates,
 * experiment cells, benchmark grids) across cores.
 *
 * Determinism contract: every task owns its slot in a pre-sized result
 * vector and its own network/driver/RNG, so results are bit-identical
 * to serial execution regardless of the thread count or the order in
 * which indices happen to run. Nothing here introduces shared mutable
 * simulation state.
 *
 * Thread-count resolution (resolveThreadCount): an explicit request
 * wins; otherwise the PL_THREADS environment variable; otherwise the
 * hardware concurrency.
 */

#ifndef PHASTLANE_COMMON_PARALLEL_HPP
#define PHASTLANE_COMMON_PARALLEL_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace phastlane {

/**
 * A thread pool for index-space parallelism.
 *
 * run(n, body) hands out the indices of [0, n) one at a time from a
 * shared counter, highest index first. Campaigns list their points in
 * rising load (sweep rates climb toward saturation), so the last
 * indices are the longest; claiming them first is longest-first
 * scheduling, and the short points fill in behind them instead of a
 * long one starting last and running alone. The calling thread
 * participates as worker 0, so a pool of size T uses T-1 background
 * threads.
 */
class ThreadPool
{
  public:
    /** @param threads Total workers including the caller; <= 0 picks
     *  resolveThreadCount(0). */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total worker count (background threads + the caller). */
    int size() const { return workerCount_; }

    /**
     * Invoke body(i) exactly once for every i in [0, n), across the
     * pool, returning when all indices completed. Exceptions thrown
     * by @p body are captured and the first one rethrown here. Must
     * not be called concurrently from multiple threads.
     */
    void run(size_t n, const std::function<void(size_t)> &body);

  private:
    void workerLoop();
    /** Claim and run indices until none are left. */
    void runClaims();

    int workerCount_;
    std::vector<std::thread> threads_;

    std::mutex mu_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(size_t)> *body_ = nullptr;
    /** Indices not yet claimed; claim k runs index k - 1, and the
     *  count goes negative once every index is taken. */
    std::atomic<int64_t> unclaimed_{0};
    /** Indices not yet finished; the caller waits for zero. */
    std::atomic<size_t> remaining_{0};
    uint64_t generation_ = 0;
    bool stopping_ = false;

    std::mutex errorMu_;
    std::exception_ptr firstError_;
};

/**
 * Resolve an effective simulation thread count: @p requested when
 * positive, else the PL_THREADS environment variable when set to a
 * positive integer, else std::thread::hardware_concurrency() (at
 * least 1).
 */
int resolveThreadCount(int requested);

/**
 * One-shot parallel loop: body(i) for i in [0, n) over @p threads
 * workers (resolved via resolveThreadCount, capped at the hardware
 * concurrency and at n). One worker runs inline with no thread
 * machinery at all.
 */
void parallelFor(size_t n, const std::function<void(size_t)> &body,
                 int threads = 0);

/**
 * Deterministic per-point seed derivation (SplitMix64 over the pair):
 * statistically independent streams for distinct indices, identical
 * on every platform and thread count.
 */
uint64_t derivePointSeed(uint64_t base, uint64_t index);

} // namespace phastlane

#endif // PHASTLANE_COMMON_PARALLEL_HPP
