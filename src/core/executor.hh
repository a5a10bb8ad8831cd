/**
 * @file
 * Fork-join executor for suite-scale fan-out.
 *
 * The paper's experiments sweep thousands of (profile x machine x
 * seed) runs; every run builds a fresh sim::Machine and workload
 * state, so runs are embarrassingly parallel (see
 * docs/ARCHITECTURE.md, "Parallel execution & run ledger"). The
 * Executor turns that invariant into wall-clock speedup: each batch
 * splits its indices into contiguous blocks, one per executor, and
 * starts the threads that drain them. An executor takes its own
 * block's indices first, then the other blocks' in ring order.
 */

#ifndef NETCHAR_CORE_EXECUTOR_HH
#define NETCHAR_CORE_EXECUTOR_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

namespace netchar
{

/** One task that threw during a forEach batch. */
struct TaskFailure
{
    /** Index the task ran as. */
    std::size_t index = 0;
    /** what() of the thrown exception ("unknown exception" for a
     *  non-std throw). */
    std::string what;
    /** The exception itself, for callers that want to rethrow. */
    std::exception_ptr error;
};

/**
 * Fixed-concurrency fork-join executor. The thread calling forEach()
 * is one of the executors (it drains the last block), so a batch of
 * n indices at concurrency N starts min(N, n) - 1 helper threads and
 * runs at most N tasks at once; the helpers are joined before the
 * call returns. When N >= n every task gets its own thread, so the
 * tasks of one batch may wait on each other.
 */
class Executor
{
  public:
    /**
     * @param concurrency Maximum tasks in flight, counting the
     *        submitting thread; 0 picks one per hardware thread
     *        (minimum 1). concurrency == 1 degenerates to a serial
     *        loop on the calling thread.
     */
    explicit Executor(unsigned concurrency = 0);

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /** Maximum tasks in flight (helper threads + caller). */
    unsigned concurrency() const { return concurrency_; }

    /**
     * Run fn(i) for every i in [0, n), distributed over the
     * executors; the calling thread participates. Blocks until every
     * index has finished. Every index runs exactly once even when
     * some throw; after the batch drains, the exception thrown by
     * the *lowest* index (deterministic under any interleaving) is
     * rethrown — the other failures are dropped. Use
     * forEachCollect() when every failure must be attributed.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn);

    /**
     * As forEach(), but never rethrows: every task that threw is
     * returned as a TaskFailure, sorted by index (deterministic
     * under any interleaving). Empty = every index succeeded.
     */
    std::vector<TaskFailure>
    forEachCollect(std::size_t n,
                   const std::function<void(std::size_t)> &fn);

    /** Tasks executed by a thread other than their block's own. */
    std::uint64_t stealCount() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

    /**
     * Executor index of the current thread: 0..concurrency-2 inside
     * a helper, concurrency-1 on the thread inside forEach(), -1
     * elsewhere. For run-ledger attribution.
     */
    static int workerId();

  private:
    unsigned concurrency_;
    std::atomic<std::uint64_t> steals_{0};
};

} // namespace netchar

#endif // NETCHAR_CORE_EXECUTOR_HH
