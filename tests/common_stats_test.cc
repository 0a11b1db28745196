/**
 * @file
 * Unit tests for statistics utilities, the metric registry, and the
 * table printer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "common/types.h"

/** Heap allocations made by this test binary so far. */
static std::atomic<uint64_t> g_allocations{0};

void *
operator new(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace dsi {
namespace {

TEST(RunningStats, BasicMoments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.138, 0.001); // sample stddev
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MergeEqualsCombined)
{
    Rng rng(3);
    RunningStats a, b, all;
    for (int i = 0; i < 1000; ++i) {
        double x = rng.nextGaussian() * 3 + 1;
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(PercentileSampler, ExactQuantiles)
{
    PercentileSampler p;
    for (int i = 1; i <= 100; ++i)
        p.add(i);
    EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(p.percentile(100), 100.0);
    EXPECT_NEAR(p.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(p.percentile(25), 25.75, 1e-9);
    EXPECT_NEAR(p.percentile(95), 95.05, 1e-9);
}

TEST(PercentileSampler, InterleavedAddAndQuery)
{
    PercentileSampler p;
    p.add(10);
    EXPECT_DOUBLE_EQ(p.percentile(50), 10.0);
    p.add(20);
    p.add(30);
    EXPECT_DOUBLE_EQ(p.percentile(50), 20.0);
    EXPECT_DOUBLE_EQ(p.percentile(100), 30.0);
}

TEST(LatencyHistogram, FootprintIsFixed)
{
    // The histogram owns no heap memory: a million adds allocate
    // nothing, so the footprint stays sizeof(LatencyHistogram).
    static_assert(std::is_trivially_destructible_v<LatencyHistogram>);
    LatencyHistogram h;
    Rng rng(3);
    uint64_t before = g_allocations.load();
    for (int i = 0; i < 1000000; ++i)
        h.add(rng.nextLogNormal(1e-3, 1.0));
    EXPECT_EQ(g_allocations.load(), before);
    EXPECT_EQ(h.count(), 1000000u);
}

TEST(LatencyHistogram, PercentilesWithinStatedError)
{
    // Log-normal latencies around 1 ms: the estimate of each
    // percentile is within kRelativeError of the exact order
    // statistic at the same rank.
    LatencyHistogram h;
    std::vector<double> exact;
    Rng rng(11);
    for (int i = 0; i < 1000000; ++i) {
        double x = rng.nextLogNormal(1e-3, 1.2);
        h.add(x);
        exact.push_back(x);
    }
    std::sort(exact.begin(), exact.end());
    for (double p : {1.0, 50.0, 90.0, 99.0, 99.9}) {
        double want = exact[static_cast<size_t>(
            p / 100.0 * static_cast<double>(exact.size() - 1))];
        EXPECT_NEAR(h.percentile(p), want,
                    want * LatencyHistogram::kRelativeError)
            << "p" << p;
    }
}

TEST(LatencyHistogram, EdgesOfTheRange)
{
    LatencyHistogram h;
    EXPECT_EQ(h.percentile(99), 0.0); // empty
    h.add(0.0);
    h.add(-1.0);
    EXPECT_EQ(h.percentile(100), 0.0); // below kMin reports 0
    for (int i = 0; i < 8; ++i)
        h.add(1e12); // beyond kMax: clamped into the top bucket
    EXPECT_GT(h.percentile(100), 0.9 * std::ldexp(1.0, 32));
    // A constant sample reads back within the stated error.
    LatencyHistogram c;
    for (int i = 0; i < 100; ++i)
        c.add(0.25e-3);
    EXPECT_NEAR(c.percentile(50), 0.25e-3,
                0.25e-3 * LatencyHistogram::kRelativeError);
}

TEST(LogHistogram, BucketsCoverValues)
{
    LogHistogram h;
    h.add(0.5);
    h.add(1.0);
    h.add(3.0);
    h.add(1024.0);
    h.add(1500.0, 2);
    auto buckets = h.buckets();
    EXPECT_EQ(h.total(), 6u);
    uint64_t sum = 0;
    for (const auto &b : buckets) {
        EXPECT_LT(b.lo, b.hi);
        sum += b.count;
    }
    EXPECT_EQ(sum, 6u);
    // 1024 and 1500 share the [1024, 2048) bucket with weight 3.
    bool found = false;
    for (const auto &b : buckets)
        if (b.lo == 1024.0)
            found = b.count == 3;
    EXPECT_TRUE(found);
}

TEST(WeightedCdf, UniformWeightsAreLinear)
{
    WeightedCdf cdf;
    for (int i = 0; i < 100; ++i)
        cdf.add(1.0);
    auto curve = cdf.build(11);
    ASSERT_EQ(curve.size(), 11u);
    for (const auto &pt : curve)
        EXPECT_NEAR(pt.y, pt.x, 1e-9);
}

TEST(WeightedCdf, SkewedWeightsFrontload)
{
    // One item holds ~91% of the weight (90 of 99 total).
    WeightedCdf cdf;
    cdf.add(90.0);
    for (int i = 0; i < 9; ++i)
        cdf.add(1.0);
    EXPECT_NEAR(cdf.fractionForShare(0.9), 0.1, 1e-9);
    auto curve = cdf.build(11);
    EXPECT_NEAR(curve[1].y, 90.0 / 99.0, 1e-9);
}

TEST(WeightedCdf, FractionForShareMonotone)
{
    Rng rng(5);
    WeightedCdf cdf;
    for (int i = 0; i < 500; ++i)
        cdf.add(rng.nextExp(1.0));
    double last = 0;
    for (double share : {0.1, 0.3, 0.5, 0.8, 0.95}) {
        double f = cdf.fractionForShare(share);
        EXPECT_GE(f, last);
        last = f;
    }
}

TEST(Metrics, CountersAccumulate)
{
    Metrics m;
    m.inc("bytes", 10);
    m.inc("bytes", 5);
    m.inc("ios");
    EXPECT_DOUBLE_EQ(m.counter("bytes"), 15.0);
    EXPECT_DOUBLE_EQ(m.counter("ios"), 1.0);
    EXPECT_DOUBLE_EQ(m.counter("missing"), 0.0);
    EXPECT_TRUE(m.hasCounter("bytes"));
    EXPECT_FALSE(m.hasCounter("missing"));
}

TEST(Metrics, MergeAddsCountersMaxesGauges)
{
    Metrics a, b;
    a.inc("x", 1);
    b.inc("x", 2);
    a.set("g", 5);
    b.set("g", 3);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.counter("x"), 3.0);
    EXPECT_DOUBLE_EQ(a.gauge("g"), 5.0);
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t({"Model", "GB/s"});
    t.addRow({"RM1", "16.50"});
    t.addRow({"RM2", "4.69"});
    std::string out = t.render();
    EXPECT_NE(out.find("Model"), std::string::npos);
    EXPECT_NE(out.find("RM1"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Types, ByteLiteralsAndConversions)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(1_MiB, 1024u * 1024u);
    EXPECT_EQ(2_GiB, 2ull << 30);
    EXPECT_NEAR(toGB(1000000000ull), 1.0, 1e-12);
    EXPECT_NEAR(toPB(13.45e15), 13.45, 1e-9);
}

TEST(Types, FormatBytes)
{
    EXPECT_EQ(formatBytes(18), "18");
    EXPECT_EQ(formatBytes(1240), "1.24K");
    EXPECT_EQ(formatBytes(97700), "97.7K");
    EXPECT_EQ(formatBytes(23200), "23.2K");
}

} // namespace
} // namespace dsi
