/**
 * @file
 * Statistics utilities: running moments, exact percentile samples,
 * logarithmic histograms, and CDF construction.
 *
 * The paper reports results as means/stds with percentiles (Table VI),
 * CDFs (Fig. 7), and utilization time series (Figs. 8, 9); these types
 * back all of those outputs.
 */

#ifndef DSI_COMMON_STATS_H
#define DSI_COMMON_STATS_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dsi {

/** Streaming mean/variance/min/max via Welford's algorithm. */
class RunningStats
{
  public:
    void add(double x);
    void merge(const RunningStats &other);

    uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const;
    double max() const;
    double sum() const { return sum_; }

  private:
    uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Exact percentile computation over retained samples. Suitable for the
 * sample counts our experiments produce (millions); sorts lazily so
 * repeated queries after a sort are cheap.
 *
 * Thread safety: every accessor is mutex-guarded — percentile() sorts
 * the sample vector behind `const`, so even two concurrent *readers*
 * would race without the lock. samples() returns an unguarded
 * reference and is only stable once writers and sorters have
 * quiesced.
 */
class PercentileSampler
{
  public:
    PercentileSampler() = default;
    PercentileSampler(const PercentileSampler &other);
    PercentileSampler &operator=(const PercentileSampler &other);

    void add(double x)
    {
        std::scoped_lock lock(mutex_);
        samples_.push_back(x);
        dirty_ = true;
    }
    void reserve(size_t n)
    {
        std::scoped_lock lock(mutex_);
        samples_.reserve(n);
    }

    uint64_t count() const
    {
        std::scoped_lock lock(mutex_);
        return samples_.size();
    }
    double mean() const;
    double stddev() const;

    /** p in [0, 100]. Linear interpolation between closest ranks. */
    double percentile(double p) const;

    const std::vector<double> &samples() const { return samples_; }

  private:
    /** Sort if needed; callers must hold mutex_. */
    void ensureSortedLocked() const;

    mutable std::mutex mutex_; ///< guards samples_ and dirty_
    mutable std::vector<double> samples_;
    mutable bool dirty_ = false;
};

/**
 * Fixed-size latency histogram for long-lived paths: memory does not
 * grow with the number of samples (PercentileSampler keeps every one).
 *
 * Buckets are log-spaced, kBucketsPerOctave per power of two: bucket
 * k covers [kMin * 2^(k/8), kMin * 2^((k+1)/8)) seconds. A
 * percentile is answered by walking the bucket counts to the rank
 * and reporting that bucket's geometric midpoint, so for a sample
 * inside [kMin, kMax) the estimate is within kRelativeError
 * (2^(1/16) - 1 < 4.43%) of the exact order statistic. Samples
 * below kMin (including zero) report 0; samples at or above kMax
 * report kMax's bucket.
 *
 * Thread safety: add() and the accessors may run concurrently (the
 * counts are relaxed atomics); a percentile taken during adds may
 * miss the adds still in flight.
 */
class LatencyHistogram
{
  public:
    static constexpr int kBucketsPerOctave = 8;
    static constexpr int kMinExp = -32; ///< kMin = 2^-32 s (~0.23 ns)
    static constexpr int kMaxExp = 32;  ///< kMax = 2^32 s
    static constexpr double kRelativeError = 0.0443; // >= 2^(1/16) - 1

    void add(double seconds);

    uint64_t count() const
    {
        return total_.load(std::memory_order_relaxed);
    }

    /** p in [0, 100]: estimate of the sample at rank p/100 * (n-1). */
    double percentile(double p) const;

  private:
    static constexpr int kBuckets =
        (kMaxExp - kMinExp) * kBucketsPerOctave;

    std::atomic<uint64_t> underflow_{0}; ///< samples below kMin
    std::atomic<uint64_t> counts_[kBuckets] = {};
    std::atomic<uint64_t> total_{0};
};

/** One bucket of a histogram: [lo, hi) with a count. */
struct HistogramBucket
{
    double lo;
    double hi;
    uint64_t count;
};

/**
 * Log2-bucketed histogram for long-tailed quantities (IO sizes,
 * durations). Bucket k covers [2^k, 2^(k+1)).
 */
class LogHistogram
{
  public:
    void add(double x, uint64_t weight = 1);

    uint64_t total() const { return total_; }
    std::vector<HistogramBucket> buckets() const;

    /** Render as an ASCII table with normalized bar widths. */
    std::string render(const std::string &label, int width = 40) const;

  private:
    static constexpr int kMinExp = -1; // [0,1) catch-all bucket
    static constexpr int kMaxExp = 50;
    uint64_t counts_[kMaxExp - kMinExp + 1] = {};
    uint64_t total_ = 0;
};

/** A single (x, y) point of a CDF. */
struct CdfPoint
{
    double x;
    double y;
};

/**
 * Weighted CDF: given (value, weight) pairs, reports what fraction of
 * total weight the top-x fraction of values absorbs. This is exactly
 * the "popular bytes → throughput absorbed" curve of Fig. 7.
 */
class WeightedCdf
{
  public:
    void add(double weight) { weights_.push_back(weight); }

    /**
     * Build the Lorenz-style curve: x = fraction of items (most popular
     * first), y = fraction of cumulative weight.
     */
    std::vector<CdfPoint> build(size_t points = 101) const;

    /** Smallest item-fraction whose weight share reaches `target`. */
    double fractionForShare(double target) const;

  private:
    std::vector<double> sortedDesc() const;

    std::vector<double> weights_;
};

} // namespace dsi

#endif // DSI_COMMON_STATS_H
