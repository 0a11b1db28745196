/**
 * @file
 * Thread-safe free list of reusable heap objects.
 *
 * The DPP worker's stripe batches are large (many columns, each a
 * heap-backed vector); allocating them fresh per stripe made malloc a
 * measurable slice of the extract stage. An ObjectPool recycles the
 * objects instead: a released RowBatch keeps its columns' heap blocks,
 * and the reader's capacity-recycling (FileReader::recycleBatch)
 * reuses them on the next acquire. perfbench's threaded workloads run
 * through the pool; no benchmark isolates its effect.
 *
 * Retained-memory bound: recycled objects keep the heap capacity of
 * the *largest* payload they ever carried, so a single huge stripe
 * used to pin its footprint in the pool forever. A pool constructed
 * with a byte cap and a sizer evicts idle objects (oldest first) until
 * the retained total fits back under the cap — shrink-on-release.
 */

#ifndef DSI_COMMON_POOL_H
#define DSI_COMMON_POOL_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>

namespace dsi {

/**
 * A bounded pool of default-constructed T. acquire() prefers a
 * recycled object; release() returns one for reuse (dropped when the
 * pool already holds `max_idle` objects, or evicted oldest-first when
 * the retained-bytes cap would be exceeded). Objects are handed back
 * *dirty* — consumers that care must reset state themselves (the DWRF
 * reader does this as part of decoding).
 */
template <typename T>
class ObjectPool
{
  public:
    /** Measures the heap bytes an idle object keeps alive. */
    using Sizer = std::function<size_t(const T &)>;

    /**
     * `max_retained_bytes` caps the total heap held by *idle* objects
     * (0 = unbounded); it needs a `sizer` to be effective. Objects in
     * flight are never measured — only what release() parks.
     */
    explicit ObjectPool(size_t max_idle = 16,
                        size_t max_retained_bytes = 0,
                        Sizer sizer = nullptr)
        : max_idle_(max_idle), max_retained_bytes_(max_retained_bytes),
          sizer_(std::move(sizer))
    {
    }

    std::unique_ptr<T> acquire()
    {
        {
            std::scoped_lock lock(mutex_);
            if (!free_.empty()) {
                std::unique_ptr<T> obj = std::move(free_.back().first);
                retained_bytes_ -= free_.back().second;
                free_.pop_back();
                ++reused_;
                return obj;
            }
            ++allocated_;
        }
        return std::make_unique<T>();
    }

    /** Return an object for reuse; null is ignored. */
    void release(std::unique_ptr<T> obj)
    {
        if (!obj)
            return;
        size_t bytes = sizer_ ? sizer_(*obj) : 0;
        std::scoped_lock lock(mutex_);
        if (free_.size() >= max_idle_)
            return; // dropped; the unique_ptr frees it
        free_.emplace_back(std::move(obj), bytes);
        retained_bytes_ += bytes;
        // Shrink-on-release: evict the *oldest* idle objects first —
        // the most recently released one is the best-sized for the
        // workload that just produced it.
        if (max_retained_bytes_ > 0) {
            while (retained_bytes_ > max_retained_bytes_ &&
                   !free_.empty()) {
                retained_bytes_ -= free_.front().second;
                free_.pop_front();
                ++evicted_;
            }
        }
    }

    /** Objects ever constructed by acquire(). */
    uint64_t allocated() const
    {
        std::scoped_lock lock(mutex_);
        return allocated_;
    }

    /** Acquires served from the free list. */
    uint64_t reused() const
    {
        std::scoped_lock lock(mutex_);
        return reused_;
    }

    /** Idle objects evicted by the retained-bytes cap. */
    uint64_t evicted() const
    {
        std::scoped_lock lock(mutex_);
        return evicted_;
    }

    /** Heap bytes currently pinned by idle objects (sizer-measured). */
    size_t retainedBytes() const
    {
        std::scoped_lock lock(mutex_);
        return retained_bytes_;
    }

    size_t idle() const
    {
        std::scoped_lock lock(mutex_);
        return free_.size();
    }

  private:
    mutable std::mutex mutex_;
    std::deque<std::pair<std::unique_ptr<T>, size_t>> free_;
    size_t max_idle_;
    size_t max_retained_bytes_;
    Sizer sizer_;
    size_t retained_bytes_ = 0;
    uint64_t allocated_ = 0;
    uint64_t reused_ = 0;
    uint64_t evicted_ = 0;
};

} // namespace dsi

#endif // DSI_COMMON_POOL_H
