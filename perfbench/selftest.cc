/**
 * @file
 * Self-tests of the benchmark's own logic (bench_core.h): the
 * correctness digest, span self-time arithmetic and percentile
 * reporting. perfbench/run.py runs them before every benchmark run;
 * `python3 perfbench/run.py --selftest` runs them alone. Exits
 * non-zero on the first failed check.
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_core.h"
#include "dwrf/row.h"

using namespace perfbench;
using dsi::dwrf::RowBatch;

namespace {

int g_failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++g_failures;
}

RowBatch
sampleBatch(uint32_t seed)
{
    RowBatch b;
    b.rows = 3;
    b.labels = {0.5f + seed, 1.0f, 0.0f};
    dsi::dwrf::DenseColumn d;
    d.id = 7;
    d.present = {0b101};
    d.values = {1.5f, 0.0f, 2.5f};
    b.dense.push_back(d);
    dsi::dwrf::SparseColumn s;
    s.id = 9;
    s.offsets = {0, 2, 2, 3};
    s.values = {11, 12, 13 + seed};
    b.sparse.push_back(s);
    return b;
}

void
testDigest()
{
    RowBatch a = sampleBatch(1), b = sampleBatch(2), c = sampleBatch(3);
    Digest fwd, rev;
    fwd.add(a);
    fwd.add(b);
    fwd.add(c);
    rev.add(c);
    rev.add(a);
    rev.add(b);
    check(fwd == rev, "digest is independent of delivery order");

    // Every single-bit flip of a float label, a dense value, a
    // presence bit or a sparse id changes the digest.
    bool all_differ = true;
    for (int bit = 0; bit < 32; ++bit) {
        auto flipFloat = [bit](float &f) {
            uint32_t u;
            std::memcpy(&u, &f, 4);
            u ^= 1u << bit;
            std::memcpy(&f, &u, 4);
        };
        RowBatch x = b;
        flipFloat(x.labels[1]);
        RowBatch y = b;
        flipFloat(y.dense[0].values[2]);
        RowBatch z = b;
        z.sparse[0].values[0] ^= int64_t{1} << bit;
        for (const RowBatch *m : {&x, &y, &z}) {
            Digest d;
            d.add(a);
            d.add(*m);
            d.add(c);
            all_differ = all_differ && !(d == fwd);
        }
    }
    RowBatch p = b;
    p.dense[0].present[0] ^= 0b10;
    Digest dp;
    dp.add(a);
    dp.add(p);
    dp.add(c);
    check(all_differ && !(dp == fwd), "any one-bit flip changes the digest");

    // Moving a value between adjacent lists (same flattened ids,
    // other offsets) is a different batch.
    RowBatch q = b;
    q.sparse[0].offsets = {0, 1, 2, 3};
    check(hashBatch(q, 1) != hashBatch(b, 1),
          "list boundaries are part of the hash");

    // Column order does not matter; column identity does.
    RowBatch two = b;
    dsi::dwrf::DenseColumn d2 = two.dense[0];
    d2.id = 3;
    two.dense.push_back(d2);
    RowBatch swapped = two;
    std::swap(swapped.dense[0], swapped.dense[1]);
    check(hashBatch(two, 1) == hashBatch(swapped, 1),
          "hash canonicalises column order");

    // A duplicated batch is not the same multiset as a single one.
    Digest once, twice;
    once.add(a);
    twice.add(a);
    twice.add(a);
    check(!(once == twice), "digest counts duplicate deliveries");
}

void
testSelfTime()
{
    // root [0,100) with children [10,30) and [20,50) (overlapping),
    // and [90,120) (overhanging the parent's end); grandchild
    // [12,18) inside the first child.
    SpanLog log(true);
    int32_t root = log.add("root", 0, 100, -1);
    int32_t c1 = log.add("a.child", 10, 30, root);
    log.add("a.child", 20, 50, root);
    log.add("b.late", 90, 120, root);
    log.add("c.grand", 12, 18, c1);
    auto self = selfTimesNs(log.spans());
    // Children cover [10,50) + [90,100) = 50 of the root's 100.
    check(self[0] == 50, "root self time merges overlapping children "
                         "and clips overhanging ones");
    check(self[1] == 14, "child self time subtracts its grandchild");
    check(self[2] == 30 && self[3] == 30 && self[4] == 6,
          "leaf self time is its duration");

    auto totals = totalsByName(log.spans());
    check(totals["a.child"].count == 2 &&
              std::abs(totals["a.child"].self_s - 44e-9) < 1e-15,
          "per-name totals add self times");

    // Nested begin/end through the stack.
    SpanLog nested(true);
    int32_t outer = nested.begin("outer");
    int32_t inner = nested.begin("inner");
    nested.end(inner);
    nested.end(outer);
    check(nested.spans()[1].parent == outer,
          "begin() parents on the open span");
    SpanLog off(false);
    check(off.begin("x") == -1 && off.spans().empty(),
          "a disabled log records nothing");
}

void
testPercentiles()
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    auto p99 = percentile(v, 99);
    check(p99.value == 990 && p99.samples == 1000 && p99.beyond == 10 &&
              p99.resolved(),
          "p99 of 1..1000 is 990 with 10 samples beyond");
    v.pop_back();
    auto short99 = percentile(v, 99);
    check(short99.samples == 999 && short99.beyond == 9 &&
              !short99.resolved(),
          "p99 with fewer than ten samples beyond is unresolved");
    auto p50 = percentile({3, 1, 2}, 50);
    check(p50.value == 2 && p50.samples == 3 && p50.beyond == 1,
          "p50 reports its value and sample count");
    check(percentile({}, 50).samples == 0, "empty input has no samples");
    // Ten units: k slow (all gaps 20) and 10 - k fast (all gaps 10).
    auto mix = [](int slow) {
        std::vector<std::vector<double>> units;
        for (int u = 0; u < 10; ++u)
            units.push_back(std::vector<double>(8, u < slow ? 20.0 : 10.0));
        return units;
    };
    check(meanOfUnitMedians(mix(4)) == 14 && meanOfUnitMedians(mix(6)) == 16,
          "unit-median mean moves with the slow share");
    check(meanOfUnitMedians({{}, {5, 1, 3}}) == 3 &&
              meanOfUnitMedians({}) == 0,
          "unit-median mean skips empty units");
    auto q = quartiles({1, 2, 3, 4, 5});
    check(q.q1 == 2 && q.median == 3 && q.q3 == 4 && q.samples == 5,
          "quartiles of 1..5");
}

} // namespace

int
main()
{
    testDigest();
    testSelfTime();
    testPercentiles();
    std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "passed",
                g_failures);
    return g_failures ? 1 : 0;
}
