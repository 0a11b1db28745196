/**
 * @file
 * Logic of the pipeline benchmark that its self-tests check
 * (perfbench/selftest.cc): the order-independent batch digest behind
 * the correctness gate, the in-memory span log and its self-time
 * arithmetic, and the percentile/quartile summaries every reported
 * figure goes through.
 */
#ifndef DSI_PERFBENCH_BENCH_CORE_H
#define DSI_PERFBENCH_BENCH_CORE_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "dwrf/row.h"

namespace perfbench {

// ---------------------------------------------------------------
// Digest
// ---------------------------------------------------------------

/** Streaming 64-bit hash over words and byte ranges. */
class Hasher
{
  public:
    explicit Hasher(uint64_t seed) : h_(seed ^ 0x6a09e667f3bcc908ULL) {}

    void word(uint64_t w)
    {
        h_ ^= w * 0xff51afd7ed558ccdULL;
        h_ = (h_ << 31 | h_ >> 33) * 0xc4ceb9fe1a85ec53ULL;
        ++words_;
    }

    /** Length-prefixed bytes (so adjacent ranges cannot alias). */
    void bytes(const void *data, size_t n)
    {
        word(n);
        const auto *p = static_cast<const uint8_t *>(data);
        size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            uint64_t w;
            std::memcpy(&w, p + i, 8);
            word(w);
        }
        uint64_t tail = 0;
        if (n > i)
            std::memcpy(&tail, p + i, n - i);
        word(tail);
    }

    template <typename T>
    void vec(const std::vector<T> &v)
    {
        bytes(v.data(), v.size() * sizeof(T));
    }

    /** splitmix64 finalizer over the running state. */
    uint64_t finish() const
    {
        uint64_t z = h_ + words_ * 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    uint64_t h_;
    uint64_t words_ = 0;
};

/**
 * Bitwise hash of one batch: row count, labels, then every dense and
 * sparse column in feature-id order (so two batches that hold the
 * same columns in another order hash alike), covering presence
 * bitmaps, list offsets, ids and float bit patterns.
 */
inline uint64_t
hashBatch(const dsi::dwrf::RowBatch &b, uint64_t seed)
{
    Hasher h(seed);
    h.word(b.rows);
    h.vec(b.labels);
    std::vector<const dsi::dwrf::DenseColumn *> dense;
    for (const auto &c : b.dense)
        dense.push_back(&c);
    std::sort(dense.begin(), dense.end(),
              [](auto *x, auto *y) { return x->id < y->id; });
    h.word(dense.size());
    for (const auto *c : dense) {
        h.word(c->id);
        h.vec(c->present);
        h.vec(c->values);
    }
    std::vector<const dsi::dwrf::SparseColumn *> sparse;
    for (const auto &c : b.sparse)
        sparse.push_back(&c);
    std::sort(sparse.begin(), sparse.end(),
              [](auto *x, auto *y) { return x->id < y->id; });
    h.word(sparse.size());
    for (const auto *c : sparse) {
        h.word(c->id);
        h.vec(c->offsets);
        h.vec(c->values);
        h.vec(c->scores);
    }
    return h.finish();
}

/**
 * Order-independent digest of a multiset of batches: two 64-bit lane
 * sums of independently seeded batch hashes, plus batch and row
 * counts. Delivery order across threads does not change it; any bit
 * flip in any delivered batch does.
 */
struct Digest
{
    uint64_t lane_a = 0;
    uint64_t lane_b = 0;
    uint64_t batches = 0;
    uint64_t rows = 0;

    void add(const dsi::dwrf::RowBatch &b)
    {
        lane_a += hashBatch(b, 0x1);
        lane_b += hashBatch(b, 0x2);
        ++batches;
        rows += b.rows;
    }

    bool operator==(const Digest &) const = default;

    std::string hex() const
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                      static_cast<unsigned long long>(lane_a),
                      static_cast<unsigned long long>(lane_b));
        return buf;
    }
};

// ---------------------------------------------------------------
// Spans
// ---------------------------------------------------------------

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded span; parent is an index into the log, or -1. */
struct Span
{
    const char *name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
};

/**
 * In-memory span log of one single-threaded replay. begin()/end()
 * nest through an explicit stack, so a span's parent is whatever
 * span was open when it began. Disabled logs record nothing and
 * never read the clock.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    int32_t begin(const char *name)
    {
        if (!enabled_)
            return -1;
        int32_t parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, nowNs(), 0, parent});
        auto id = static_cast<int32_t>(spans_.size() - 1);
        stack_.push_back(id);
        return id;
    }

    void end(int32_t id)
    {
        if (id < 0)
            return;
        spans_[static_cast<size_t>(id)].end_ns = nowNs();
        stack_.pop_back();
    }

    /** Record a finished span directly (tests, explicit parents). */
    int32_t add(const char *name, int64_t start_ns, int64_t end_ns,
                int32_t parent)
    {
        spans_.push_back({name, start_ns, end_ns, parent});
        return static_cast<int32_t>(spans_.size() - 1);
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
};

/** RAII span over one call into a layer. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name)
        : log_(log), id_(log.begin(name))
    {
    }
    ~Scope() { log_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &log_;
    int32_t id_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its children cover. Children are clipped to the
 * parent's interval and overlapping children are merged first, so
 * concurrent or overhanging children are never subtracted twice.
 */
inline std::vector<int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
        spans.size());
    for (const auto &s : spans) {
        if (s.parent < 0)
            continue;
        const Span &p = spans[static_cast<size_t>(s.parent)];
        int64_t a = std::max(s.start_ns, p.start_ns);
        int64_t b = std::min(s.end_ns, p.end_ns);
        if (b > a)
            kids[static_cast<size_t>(s.parent)].push_back({a, b});
    }
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0;
        int64_t cur_a = 0, cur_b = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open)
                covered += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open)
            covered += cur_b - cur_a;
        self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
    }
    return self;
}

/** Per-name totals of a span log. */
struct SpanTotals
{
    uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
};

inline std::map<std::string, SpanTotals>
totalsByName(const std::vector<Span> &spans)
{
    std::map<std::string, SpanTotals> out;
    auto self = selfTimesNs(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
        auto &t = out[spans[i].name];
        ++t.count;
        t.total_s += (spans[i].end_ns - spans[i].start_ns) * 1e-9;
        t.self_s += self[i] * 1e-9;
    }
    return out;
}

// ---------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------

/**
 * Nearest-rank percentile with its sample count and the number of
 * samples ranked above it. A percentile is `resolved` when at least
 * ten samples lie beyond it; below that it is one outlier away from
 * another value, and the report says so.
 */
struct Percentile
{
    double value = 0;
    size_t samples = 0;
    size_t beyond = 0;
    bool resolved() const { return beyond >= 10; }
};

inline Percentile
percentile(std::vector<double> v, double p)
{
    Percentile r;
    r.samples = v.size();
    if (v.empty())
        return r;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    r.value = v[rank - 1];
    r.beyond = v.size() - rank;
    return r;
}

/**
 * Each unit's (pass's, round's) median, averaged over the units that
 * have samples. When a run mixes fast and slow spells, a pooled median
 * jumps from one spell's value to the other's as their shares cross
 * one half; this average moves in proportion to the shares.
 */
inline double
meanOfUnitMedians(const std::vector<std::vector<double>> &units)
{
    double sum = 0;
    size_t n = 0;
    for (const auto &u : units) {
        if (u.empty())
            continue;
        sum += percentile(u, 50).value;
        ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

/** Median and quartiles (linear interpolation between ranks). */
struct Quartiles
{
    double q1 = 0, median = 0, q3 = 0;
    size_t samples = 0;
};

inline Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    q.samples = v.size();
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    auto at = [&](double f) {
        double pos = f * static_cast<double>(v.size() - 1);
        auto lo = static_cast<size_t>(pos);
        size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
    };
    q.q1 = at(0.25);
    q.median = at(0.5);
    q.q3 = at(0.75);
    return q;
}

} // namespace perfbench

#endif // DSI_PERFBENCH_BENCH_CORE_H
