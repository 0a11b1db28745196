#include "thread_pool.h"

#include "common/logging.h"

namespace dsi {

ThreadPool::ThreadPool(size_t threads)
{
    if (threads == 0)
        threads = 1;
    threads_.reserve(threads);
    for (size_t i = 0; i < threads; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock lock(mutex_);
        shutdown_ = true;
    }
    task_ready_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock lock(mutex_);
        dsi_assert(!shutdown_, "submit() on a shut-down ThreadPool");
        tasks_.push_back(std::move(task));
    }
    task_ready_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock lock(mutex_);
    idle_.wait(lock, [this] { return tasks_.empty() && active_ == 0; });
}

size_t
ThreadPool::pending() const
{
    std::unique_lock lock(mutex_);
    return tasks_.size();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(mutex_);
            task_ready_.wait(lock, [this] {
                return shutdown_ || !tasks_.empty();
            });
            if (tasks_.empty())
                return; // shutdown with an empty queue
            task = std::move(tasks_.front());
            tasks_.pop_front();
            ++active_;
        }
        task();
        {
            std::unique_lock lock(mutex_);
            --active_;
            if (tasks_.empty() && active_ == 0)
                idle_.notify_all();
        }
    }
}

} // namespace dsi
