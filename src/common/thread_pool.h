/**
 * @file
 * Reusable fixed-size thread pool.
 *
 * The execution substrate of the parallel DPP data plane: a Worker
 * runs its extract and transform stages on pool threads
 * (Section III-B1 — "each worker runs many threads"), and Tectonic
 * runs its hedged reads on one. Deliberately minimal: submit
 * closures, wait for quiesce, join on destruction. No futures, no
 * priorities — stages that need results communicate through
 * BoundedQueue.
 *
 * Thread safety: all public methods may be called from any thread,
 * except the destructor, which must not race with submit().
 */

#ifndef DSI_COMMON_THREAD_POOL_H
#define DSI_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dsi {

/** Fixed-size pool executing submitted closures FIFO. */
class ThreadPool
{
  public:
    /** Spawn `threads` workers (>= 1 enforced). */
    explicit ThreadPool(size_t threads);

    /** Drains pending tasks, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task. Dies if the pool is already shutting down. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    /** Number of pool threads. */
    size_t size() const { return threads_.size(); }

    /** Tasks queued but not yet started. */
    size_t pending() const;

  private:
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable task_ready_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> tasks_;
    std::vector<std::thread> threads_;
    size_t active_ = 0;     ///< tasks currently executing
    bool shutdown_ = false;
};

} // namespace dsi

#endif // DSI_COMMON_THREAD_POOL_H
