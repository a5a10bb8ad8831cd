#include "core/executor.hh"

#include <algorithm>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>

namespace netchar
{

namespace
{

/** Executor index of this thread; see Executor::workerId(). */
thread_local int tls_worker_id = -1;

/** RAII executor-id assignment for the threads of a batch. */
struct ScopedWorkerId
{
    int previous;
    explicit ScopedWorkerId(int id) : previous(tls_worker_id)
    {
        tls_worker_id = id;
    }
    ~ScopedWorkerId() { tls_worker_id = previous; }
};

/** One contiguous block of a batch: the next index to take, and the
 *  block's end. The cursor runs past `end` once the block is dry. */
struct Block
{
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
};

} // namespace

int
Executor::workerId()
{
    return tls_worker_id;
}

Executor::Executor(unsigned concurrency)
    : concurrency_(concurrency != 0
                       ? concurrency
                       : std::max(1u, std::thread::hardware_concurrency()))
{
}

std::vector<TaskFailure>
Executor::forEachCollect(std::size_t n,
                         const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return {};

    // One contiguous block per executor, so the common case is each
    // executor draining its own block; an executor whose block is dry
    // takes from the others in ring order.
    const std::size_t k = std::min<std::size_t>(concurrency_, n);
    std::vector<Block> blocks(k);
    for (std::size_t b = 0; b < k; ++b) {
        blocks[b].next.store(b * n / k, std::memory_order_relaxed);
        blocks[b].end = (b + 1) * n / k;
    }

    std::mutex failureMutex;
    std::vector<TaskFailure> failures;
    // Called inside a catch handler: current_exception() is the
    // task's.
    const auto fail = [&](std::size_t index, std::string what) {
        std::lock_guard<std::mutex> lock(failureMutex);
        failures.push_back(
            {index, std::move(what), std::current_exception()});
    };
    const auto drain = [&](std::size_t self) {
        for (std::size_t off = 0; off < k; ++off) {
            Block &block = blocks[(self + off) % k];
            for (std::size_t i;
                 (i = block.next.fetch_add(
                      1, std::memory_order_relaxed)) < block.end;) {
                if (off != 0)
                    steals_.fetch_add(1, std::memory_order_relaxed);
                try {
                    fn(i);
                } catch (const std::exception &ex) {
                    fail(i, ex.what());
                } catch (...) {
                    fail(i, "unknown exception");
                }
            }
        }
    };

    {
        std::vector<std::jthread> helpers;
        helpers.reserve(k - 1);
        try {
            for (std::size_t b = 0; b + 1 < k; ++b)
                helpers.emplace_back([&drain, b] {
                    ScopedWorkerId id(static_cast<int>(b));
                    drain(b);
                });
        } catch (const std::system_error &) {
            // No more threads: the executors already running, the
            // caller included, drain every block between them.
        }
        // The calling thread drains the last block, then helps.
        ScopedWorkerId id(static_cast<int>(concurrency_ - 1));
        drain(k - 1);
    } // joins the helpers

    // Every failure, in index order (deterministic under any
    // interleaving), not just the lowest one.
    std::sort(failures.begin(), failures.end(),
              [](const TaskFailure &a, const TaskFailure &b) {
                  return a.index < b.index;
              });
    return failures;
}

void
Executor::forEach(std::size_t n,
                  const std::function<void(std::size_t)> &fn)
{
    const auto failures = forEachCollect(n, fn);
    if (!failures.empty())
        std::rethrow_exception(failures.front().error);
}

} // namespace netchar
