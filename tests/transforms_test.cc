/**
 * @file
 * Unit tests for every Table XI transformation, spec serialization,
 * and graph compilation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <unordered_set>

#include "common/rng.h"
#include "transforms/graph.h"
#include "transforms/ops.h"
#include "warehouse/datagen.h"

namespace dsi::transforms {
namespace {

/** Batch with one dense feature (id 1) and two sparse (ids 10, 11). */
dwrf::RowBatch
testBatch()
{
    std::vector<dwrf::Row> rows(3);
    rows[0].label = 1;
    rows[0].dense = {{1, 0.25f}};
    rows[0].sparse.push_back({10, {5, 7, 9}, {}});
    rows[0].sparse.push_back({11, {7, 8}, {}});
    rows[1].label = 0;
    rows[1].dense = {{1, 0.75f}};
    rows[1].sparse.push_back({10, {-3, 5}, {}});
    rows[1].sparse.push_back({11, {2}, {}});
    rows[2].label = 0; // row with nothing but dense
    rows[2].dense = {{1, 42.0f}};
    return dwrf::batchFromRows(rows);
}

TransformSpec
spec(OpKind kind, std::vector<FeatureId> inputs, FeatureId out)
{
    TransformSpec s;
    s.kind = kind;
    s.inputs = std::move(inputs);
    s.output = out;
    return s;
}

TEST(Ops, ClampBoundsValues)
{
    auto batch = testBatch();
    auto s = spec(OpKind::Clamp, {1}, 100);
    s.p0 = 0.3;
    s.p1 = 1.0;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findDense(100);
    ASSERT_NE(out, nullptr);
    EXPECT_FLOAT_EQ(out->values[0], 0.3f);
    EXPECT_FLOAT_EQ(out->values[1], 0.75f);
    EXPECT_FLOAT_EQ(out->values[2], 1.0f);
    EXPECT_EQ(stats.values_consumed, 3u);
}

TEST(Ops, LogitMapsUnitInterval)
{
    auto batch = testBatch();
    auto s = spec(OpKind::Logit, {1}, 100);
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findDense(100);
    ASSERT_NE(out, nullptr);
    EXPECT_NEAR(out->values[0], std::log(0.25 / 0.75), 1e-5);
    EXPECT_NEAR(out->values[1], std::log(0.75 / 0.25), 1e-5);
    // 42 clamps to 1 - eps -> large positive.
    EXPECT_GT(out->values[2], 10.0f);
}

TEST(Ops, BoxCoxLambdaZeroIsLog)
{
    auto batch = testBatch();
    auto s = spec(OpKind::BoxCox, {1}, 100);
    s.p0 = 0.0;
    s.p1 = 1.0;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    EXPECT_NEAR(batch.findDense(100)->values[0], std::log(1.25), 1e-5);
}

TEST(Ops, BucketizeProducesBucketIndices)
{
    auto batch = testBatch();
    auto s = spec(OpKind::Bucketize, {1}, 100);
    s.p0 = 0.0;
    s.p1 = 0.5;
    s.u0 = 4;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findDense(100);
    EXPECT_FLOAT_EQ(out->values[0], 0.0f); // 0.25 -> bucket 0
    EXPECT_FLOAT_EQ(out->values[1], 1.0f); // 0.75 -> bucket 1
    EXPECT_FLOAT_EQ(out->values[2], 3.0f); // 42 clamps to last
}

TEST(Ops, OnehotEmitsSingleCategorical)
{
    auto batch = testBatch();
    auto s = spec(OpKind::Onehot, {1}, 100);
    s.p0 = 0.0;
    s.p1 = 0.5;
    s.u0 = 8;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->length(0), 1u);
    EXPECT_EQ(out->values[out->offsets[1]], 1); // 0.75 / 0.5 -> 1
}

TEST(Ops, GetLocalHourWrapsDay)
{
    auto batch = testBatch();
    // Treat dense value 42 as a timestamp; offset 3 hours.
    auto s = spec(OpKind::GetLocalHour, {1}, 100);
    s.u0 = 3;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findDense(100);
    EXPECT_FLOAT_EQ(out->values[2], 3.0f); // 42s + 3h -> hour 3
    for (float v : out->values) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LT(v, 24.0f);
    }
}

TEST(Ops, SigridHashBoundsAndDeterminism)
{
    auto batch = testBatch();
    auto s = spec(OpKind::SigridHash, {10}, 100);
    s.u0 = 77;
    s.u1 = 1000;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->values.size(), 5u); // 3 + 2 + 0
    for (int64_t v : out->values) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 1000);
    }
    // Same input id twice hashes identically.
    EXPECT_EQ(sigridHash64(5, 77), sigridHash64(5, 77));
    EXPECT_NE(sigridHash64(5, 77), sigridHash64(5, 78));
}

TEST(Ops, FirstXTruncates)
{
    auto batch = testBatch();
    auto s = spec(OpKind::FirstX, {10}, 100);
    s.u0 = 2;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    EXPECT_EQ(out->length(0), 2u);
    EXPECT_EQ(out->length(1), 2u);
    EXPECT_EQ(out->values[0], 5);
    EXPECT_EQ(out->values[1], 7);
}

TEST(Ops, PositiveModulusAlwaysNonNegative)
{
    auto batch = testBatch();
    auto s = spec(OpKind::PositiveModulus, {10}, 100);
    s.u0 = 7;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    for (int64_t v : out->values) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 7);
    }
    // -3 mod 7 -> 4
    EXPECT_EQ(out->values[out->offsets[1]], 4);
}

TEST(Ops, MapIdRemapsDictionary)
{
    auto batch = testBatch();
    auto s = spec(OpKind::MapId, {10}, 100);
    s.u0 = 8; // ids < 8 remap to id+1, others to default
    s.u1 = 0;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    EXPECT_EQ(out->values[0], 6); // 5 -> 6
    EXPECT_EQ(out->values[2], 0); // 9 -> default
}

TEST(Ops, EnumerateAddsPositionScores)
{
    auto batch = testBatch();
    auto s = spec(OpKind::Enumerate, {10}, 100);
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    ASSERT_EQ(out->scores.size(), out->values.size());
    EXPECT_FLOAT_EQ(out->scores[0], 0.0f);
    EXPECT_FLOAT_EQ(out->scores[2], 2.0f);
}

TEST(Ops, ComputeScoreAffine)
{
    std::vector<dwrf::Row> rows(1);
    rows[0].sparse.push_back({10, {1, 2}, {0.5f, 1.5f}});
    auto batch = dwrf::batchFromRows(rows);
    auto s = spec(OpKind::ComputeScore, {10}, 100);
    s.p0 = 2.0;
    s.p1 = 1.0;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    EXPECT_FLOAT_EQ(out->scores[0], 2.0f);
    EXPECT_FLOAT_EQ(out->scores[1], 4.0f);
}

TEST(Ops, CartesianCrossesListsWithCap)
{
    auto batch = testBatch();
    auto s = spec(OpKind::Cartesian, {10, 11}, 100);
    s.u0 = 4; // cap
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    EXPECT_EQ(out->length(0), 4u); // 3x2 capped to 4
    EXPECT_EQ(out->length(1), 2u); // 2x1
    EXPECT_EQ(out->length(2), 0u);
}

TEST(Ops, IdListTransformIntersects)
{
    auto batch = testBatch();
    auto s = spec(OpKind::IdListTransform, {10, 11}, 100);
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    ASSERT_EQ(out->length(0), 1u);
    EXPECT_EQ(out->values[0], 7); // {5,7,9} n {7,8}
    EXPECT_EQ(out->length(1), 0u);
}

TEST(Ops, NGramEmitsWindows)
{
    auto batch = testBatch();
    auto s = spec(OpKind::NGram, {10}, 100);
    s.u0 = 2;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    const auto *out = batch.findSparse(100);
    EXPECT_EQ(out->length(0), 2u); // 3 ids -> 2 bigrams
    EXPECT_EQ(out->length(1), 1u);
    for (int64_t v : out->values)
        EXPECT_GE(v, 0);
}

TEST(Ops, SamplingKeepsApproxFraction)
{
    std::vector<dwrf::Row> rows(4000);
    for (size_t i = 0; i < rows.size(); ++i)
        rows[i].dense = {{1, static_cast<float>(i)}};
    auto batch = dwrf::batchFromRows(rows);
    auto s = spec(OpKind::Sampling, {}, 0);
    s.p0 = 0.25;
    s.u0 = 9;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    EXPECT_NEAR(batch.rows, 1000u, 120u);
    EXPECT_EQ(stats.rows_in, 4000u);
    EXPECT_EQ(stats.rows_out, batch.rows);
    // Columns stay consistent.
    ASSERT_EQ(batch.dense.size(), 1u);
    EXPECT_EQ(batch.dense[0].values.size(), batch.rows);
}

TEST(Ops, MissingInputIsTolerated)
{
    auto batch = testBatch();
    auto s = spec(OpKind::SigridHash, {999}, 100);
    s.u1 = 10;
    TransformStats stats;
    compileTransform(s)->apply(batch, stats);
    EXPECT_EQ(batch.findSparse(100), nullptr);
    EXPECT_EQ(stats.values_consumed, 0u);
}

TEST(Ops, WrongArityDies)
{
    auto s = spec(OpKind::Cartesian, {10}, 100);
    EXPECT_DEATH(compileTransform(s), "expects 2 inputs");
}

TEST(Ops, ClassesMatchPaperCatalog)
{
    EXPECT_EQ(opClassOf(OpKind::Bucketize),
              OpClass::FeatureGeneration);
    EXPECT_EQ(opClassOf(OpKind::NGram), OpClass::FeatureGeneration);
    EXPECT_EQ(opClassOf(OpKind::MapId), OpClass::FeatureGeneration);
    EXPECT_EQ(opClassOf(OpKind::SigridHash),
              OpClass::SparseNormalization);
    EXPECT_EQ(opClassOf(OpKind::FirstX),
              OpClass::SparseNormalization);
    EXPECT_EQ(opClassOf(OpKind::Logit), OpClass::DenseNormalization);
    EXPECT_EQ(opClassOf(OpKind::BoxCox), OpClass::DenseNormalization);
    EXPECT_EQ(opClassOf(OpKind::Onehot), OpClass::DenseNormalization);
    EXPECT_EQ(opClassOf(OpKind::Sampling), OpClass::Sampling);
}

TEST(Graph, CompiledGraphIsDeterministic)
{
    warehouse::SchemaParams p;
    p.float_features = 12;
    p.sparse_features = 8;
    p.avg_length = 6;
    auto schema = warehouse::makeSchema(p);
    auto pop = warehouse::featurePopularity(schema, 1.0, 4);
    auto proj = warehouse::chooseProjection(schema, pop, 6, 4, 4);
    transforms::ModelGraphParams gp;
    gp.derived_features = 4;
    auto graph = makeModelGraph(schema, proj, gp);

    warehouse::RowGenerator gen(schema, 9);
    auto base = dwrf::batchFromRows(gen.batch(64));

    auto run = [&]() {
        CompiledGraph compiled(graph);
        dwrf::RowBatch batch = base;
        compiled.apply(batch);
        uint64_t fingerprint = batch.rows;
        for (const auto &c : batch.sparse)
            for (int64_t v : c.values)
                fingerprint =
                    sigridHash64(fingerprint, static_cast<uint64_t>(v));
        return fingerprint;
    };
    EXPECT_EQ(run(), run());
}

TEST(Graph, SameGraphAfterSerializationProducesSameOutput)
{
    warehouse::SchemaParams p;
    p.float_features = 8;
    p.sparse_features = 6;
    p.avg_length = 5;
    auto schema = warehouse::makeSchema(p);
    auto pop = warehouse::featurePopularity(schema, 1.0, 4);
    auto proj = warehouse::chooseProjection(schema, pop, 4, 3, 4);
    transforms::ModelGraphParams gp;
    gp.derived_features = 2;
    auto graph = makeModelGraph(schema, proj, gp);
    auto wire = TransformGraph::deserialize(graph.serialize());
    ASSERT_TRUE(wire.has_value());

    warehouse::RowGenerator gen(schema, 3);
    auto batch_a = dwrf::batchFromRows(gen.batch(32));
    auto batch_b = batch_a;
    CompiledGraph(graph).apply(batch_a);
    CompiledGraph(*wire).apply(batch_b);
    ASSERT_EQ(batch_a.sparse.size(), batch_b.sparse.size());
    for (size_t i = 0; i < batch_a.sparse.size(); ++i)
        EXPECT_EQ(batch_a.sparse[i].values, batch_b.sparse[i].values);
}

TEST(Spec, SerializeRoundTrip)
{
    TransformSpec s;
    s.kind = OpKind::Cartesian;
    s.output = 12345;
    s.inputs = {7, 9};
    s.p0 = 1.5;
    s.p1 = -2.0;
    s.u0 = 64;
    s.u1 = 0xabcdef;
    dwrf::Buffer buf;
    s.serialize(buf);
    TransformSpec back;
    size_t pos = 0;
    ASSERT_TRUE(TransformSpec::deserialize(buf, pos, back));
    EXPECT_EQ(back.kind, s.kind);
    EXPECT_EQ(back.output, s.output);
    EXPECT_EQ(back.inputs, s.inputs);
    EXPECT_FLOAT_EQ(back.p0, 1.5f);
    EXPECT_EQ(back.u1, s.u1);
    EXPECT_EQ(pos, buf.size());
}

TEST(Graph, SerializeRoundTripAndCompile)
{
    TransformGraph graph;
    auto s1 = spec(OpKind::SigridHash, {10}, 100);
    s1.u1 = 64;
    graph.add(s1);
    auto s2 = spec(OpKind::FirstX, {100}, 101);
    s2.u0 = 2;
    graph.add(s2);

    auto bytes = graph.serialize();
    auto back = TransformGraph::deserialize(bytes);
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->size(), 2u);

    CompiledGraph compiled(*back);
    auto batch = testBatch();
    auto stats = compiled.apply(batch);
    // Chained: output of hash feeds FirstX.
    const auto *out = batch.findSparse(101);
    ASSERT_NE(out, nullptr);
    EXPECT_LE(out->length(0), 2u);
    EXPECT_GT(stats.values_consumed, 0u);
}

TEST(Graph, MalformedBytesRejected)
{
    dwrf::Buffer junk{0x02, 0xff};
    EXPECT_FALSE(TransformGraph::deserialize(junk).has_value());
}

TEST(Graph, MakeModelGraphShape)
{
    warehouse::SchemaParams p;
    p.float_features = 30;
    p.sparse_features = 20;
    p.avg_length = 8;
    auto schema = warehouse::makeSchema(p);
    auto pop = warehouse::featurePopularity(schema, 1.0, 5);
    auto proj = warehouse::chooseProjection(schema, pop, 10, 8, 77);

    ModelGraphParams gp;
    gp.derived_features = 6;
    auto graph = makeModelGraph(schema, proj, gp);
    EXPECT_GT(graph.size(), 6u * gp.min_chain);
    EXPECT_GT(graph.countClass(OpClass::FeatureGeneration), 0u);
    EXPECT_GT(graph.countClass(OpClass::SparseNormalization), 0u);
    EXPECT_GT(graph.countClass(OpClass::DenseNormalization), 0u);

    // Graph must execute cleanly on generated data.
    warehouse::RowGenerator gen(schema, 3);
    auto batch = dwrf::batchFromRows(gen.batch(64));
    CompiledGraph compiled(graph);
    auto stats = compiled.apply(batch);
    EXPECT_GT(stats.values_produced, 0u);
    // Feature generation should dominate consumed values.
    EXPECT_GT(stats.classShare(OpClass::FeatureGeneration), 0.4);
}

// --- Differential check of the column-at-a-time sparse kernels ---

/**
 * The scalar per-row sparse kernels the column-at-a-time ops replaced,
 * kept verbatim as the bit-identity reference: each maps one row's
 * list(s) and appends to `out`.
 */
namespace reference {

using dwrf::SparseColumn;

void
sigridHash(const TransformSpec &spec, const int64_t *values,
           const float *, uint32_t len, SparseColumn &out)
{
    uint64_t max_value = spec.u1 > 0 ? spec.u1 : (1ULL << 31);
    for (uint32_t i = 0; i < len; ++i) {
        uint64_t h =
            sigridHash64(static_cast<uint64_t>(values[i]), spec.u0);
        out.values.push_back(static_cast<int64_t>(h % max_value));
    }
}

void
positiveModulus(const TransformSpec &spec, const int64_t *values,
                const float *, uint32_t len, SparseColumn &out)
{
    int64_t m = spec.u0 > 0 ? static_cast<int64_t>(spec.u0) : 1000000;
    for (uint32_t i = 0; i < len; ++i) {
        int64_t v = values[i] % m;
        out.values.push_back(v < 0 ? v + m : v);
    }
}

void
firstX(const TransformSpec &spec, const int64_t *values,
       const float *scores, uint32_t len, SparseColumn &out)
{
    uint32_t keep = std::min<uint32_t>(
        len, spec.u0 > 0 ? static_cast<uint32_t>(spec.u0) : 1);
    for (uint32_t i = 0; i < keep; ++i) {
        out.values.push_back(values[i]);
        if (scores)
            out.scores.push_back(scores[i]);
    }
}

void
mapId(const TransformSpec &spec, const int64_t *values, const float *,
      uint32_t len, SparseColumn &out)
{
    int64_t dict = static_cast<int64_t>(spec.u0);
    for (uint32_t i = 0; i < len; ++i) {
        out.values.push_back(values[i] < dict
                                 ? values[i] + 1
                                 : static_cast<int64_t>(spec.u1));
    }
}

void
nGram(const TransformSpec &spec, const int64_t *values, const float *,
      uint32_t len, SparseColumn &out)
{
    uint32_t n = spec.u0 >= 2 ? static_cast<uint32_t>(spec.u0) : 2;
    if (len < n)
        return;
    for (uint32_t i = 0; i + n <= len; ++i) {
        uint64_t h = spec.u1;
        for (uint32_t k = 0; k < n; ++k)
            h = sigridHash64(static_cast<uint64_t>(values[i + k]), h);
        out.values.push_back(static_cast<int64_t>(h >> 1));
    }
}

void
enumerate(const TransformSpec &, const int64_t *values, const float *,
          uint32_t len, SparseColumn &out)
{
    for (uint32_t i = 0; i < len; ++i) {
        out.values.push_back(values[i]);
        out.scores.push_back(static_cast<float>(i));
    }
}

void
computeScore(const TransformSpec &spec, const int64_t *values,
             const float *scores, uint32_t len, SparseColumn &out)
{
    for (uint32_t i = 0; i < len; ++i) {
        out.values.push_back(values[i]);
        double s = scores ? scores[i] : 1.0;
        out.scores.push_back(static_cast<float>(s * spec.p0 + spec.p1));
    }
}

void
cartesian(const TransformSpec &spec, const int64_t *a, uint32_t alen,
          const int64_t *b, uint32_t blen, SparseColumn &out)
{
    uint64_t cap = spec.u0 > 0 ? spec.u0 : 128;
    uint64_t emitted = 0;
    for (uint32_t i = 0; i < alen && emitted < cap; ++i) {
        for (uint32_t j = 0; j < blen && emitted < cap; ++j) {
            uint64_t h = sigridHash64(static_cast<uint64_t>(a[i]),
                                      static_cast<uint64_t>(b[j]) ^
                                          spec.u1);
            out.values.push_back(static_cast<int64_t>(h >> 1));
            ++emitted;
        }
    }
}

void
idListTransform(const TransformSpec &, const int64_t *a, uint32_t alen,
                const int64_t *b, uint32_t blen, SparseColumn &out)
{
    std::unordered_set<int64_t> bset(b, b + blen);
    std::unordered_set<int64_t> emitted;
    for (uint32_t i = 0; i < alen; ++i) {
        if (bset.count(a[i]) && emitted.insert(a[i]).second)
            out.values.push_back(a[i]);
    }
}

using UnaryFn = void (*)(const TransformSpec &, const int64_t *,
                         const float *, uint32_t, SparseColumn &);
using BinaryFn = void (*)(const TransformSpec &, const int64_t *,
                          uint32_t, const int64_t *, uint32_t,
                          SparseColumn &);

void
account(const TransformSpec &spec, TransformStats &stats,
        uint64_t consumed, uint64_t produced)
{
    stats.values_consumed += consumed;
    stats.values_produced += produced;
    stats.class_values[static_cast<int>(opClassOf(spec.kind))] +=
        consumed;
}

/** The per-row SparseUnaryOp::apply driver. */
void
applyUnary(const TransformSpec &spec, UnaryFn fn, dwrf::RowBatch &batch,
           TransformStats &stats)
{
    const SparseColumn *in = batch.findSparse(spec.inputs[0]);
    if (!in)
        return;
    SparseColumn out;
    out.id = spec.output;
    out.offsets.assign(batch.rows + 1, 0);
    uint64_t consumed = 0;
    for (uint32_t r = 0; r < batch.rows; ++r) {
        uint32_t lo = in->offsets[r];
        uint32_t len = in->offsets[r + 1] - lo;
        consumed += len;
        fn(spec, in->values.data() + lo,
           in->scores.empty() ? nullptr : in->scores.data() + lo, len,
           out);
        out.offsets[r + 1] = static_cast<uint32_t>(out.values.size());
    }
    account(spec, stats, consumed, out.values.size());
    batch.sparse.push_back(std::move(out));
}

/** The per-row SparseBinaryOp::apply driver. */
void
applyBinary(const TransformSpec &spec, BinaryFn fn,
            dwrf::RowBatch &batch, TransformStats &stats)
{
    const SparseColumn *a = batch.findSparse(spec.inputs[0]);
    const SparseColumn *b = batch.findSparse(spec.inputs[1]);
    if (!a || !b)
        return;
    SparseColumn out;
    out.id = spec.output;
    out.offsets.assign(batch.rows + 1, 0);
    uint64_t consumed = 0;
    for (uint32_t r = 0; r < batch.rows; ++r) {
        uint32_t alo = a->offsets[r];
        uint32_t alen = a->offsets[r + 1] - alo;
        uint32_t blo = b->offsets[r];
        uint32_t blen = b->offsets[r + 1] - blo;
        consumed += alen + blen;
        fn(spec, a->values.data() + alo, alen, b->values.data() + blo,
           blen, out);
        out.offsets[r + 1] = static_cast<uint32_t>(out.values.size());
    }
    account(spec, stats, consumed, out.values.size());
    batch.sparse.push_back(std::move(out));
}

void
apply(const TransformSpec &spec, dwrf::RowBatch &batch,
      TransformStats &stats)
{
    switch (spec.kind) {
      case OpKind::SigridHash:
        return applyUnary(spec, sigridHash, batch, stats);
      case OpKind::PositiveModulus:
        return applyUnary(spec, positiveModulus, batch, stats);
      case OpKind::FirstX:
        return applyUnary(spec, firstX, batch, stats);
      case OpKind::MapId:
        return applyUnary(spec, mapId, batch, stats);
      case OpKind::NGram:
        return applyUnary(spec, nGram, batch, stats);
      case OpKind::Enumerate:
        return applyUnary(spec, enumerate, batch, stats);
      case OpKind::ComputeScore:
        return applyUnary(spec, computeScore, batch, stats);
      case OpKind::Cartesian:
        return applyBinary(spec, cartesian, batch, stats);
      case OpKind::IdListTransform:
        return applyBinary(spec, idListTransform, batch, stats);
      default:
        FAIL() << "no reference for " << opKindName(spec.kind);
    }
}

} // namespace reference

// Sparse feature ids of the differential batches.
constexpr FeatureId kNarrowIds = 10; ///< ids in [-12, 12]: many repeats
constexpr FeatureId kLongIds = 11;   ///< up to 3x the IdList crossover
constexpr FeatureId kWideIds = 12;   ///< full-range (negative) int64

/** Random batch over kNarrowIds / kLongIds / kWideIds. */
dwrf::RowBatch
randomBatch(Rng &rng, uint32_t rows, bool scored)
{
    auto list = [&](FeatureId id, uint32_t max_len, bool wide) {
        dwrf::SparseFeature f;
        f.id = id;
        uint32_t len = rng.nextBool(0.2)
                           ? 0
                           : static_cast<uint32_t>(
                                 1 + rng.nextUint(max_len));
        for (uint32_t i = 0; i < len; ++i) {
            f.values.push_back(
                wide ? static_cast<int64_t>(rng.next())
                     : static_cast<int64_t>(rng.nextUint(25)) - 12);
            if (scored)
                f.scores.push_back(
                    static_cast<float>(rng.nextRange(-4.0, 4.0)));
        }
        return f;
    };
    std::vector<dwrf::Row> out(rows);
    for (auto &row : out) {
        row.label = static_cast<float>(rng.nextUint(2));
        row.sparse.push_back(list(kNarrowIds, 40, false));
        row.sparse.push_back(list(kLongIds, 3 * kIdListSortMinB, false));
        row.sparse.push_back(list(kWideIds, 30, true));
    }
    auto batch = dwrf::batchFromRows(out);
    // batchFromRows drops a feature no row carries; keep all three
    // columns present so every spec has its inputs.
    for (FeatureId id : {kNarrowIds, kLongIds, kWideIds}) {
        if (!batch.findSparse(id)) {
            dwrf::SparseColumn c;
            c.id = id;
            c.offsets.assign(batch.rows + 1, 0);
            batch.sparse.push_back(std::move(c));
        }
    }
    return batch;
}

/**
 * The same batch with every sparse column's rows starting `pad`
 * values into its arrays (offsets[0] == pad) and `pad` junk values
 * after the last row: the layout of a column viewed in place.
 */
dwrf::RowBatch
withOffsetBase(dwrf::RowBatch batch, uint32_t pad)
{
    for (auto &c : batch.sparse) {
        for (auto &o : c.offsets)
            o += pad;
        c.values.insert(c.values.begin(), pad, int64_t{-777});
        c.values.insert(c.values.end(), pad, int64_t{888});
        if (!c.scores.empty()) {
            c.scores.insert(c.scores.begin(), pad, -7.5f);
            c.scores.insert(c.scores.end(), pad, 9.5f);
        }
    }
    return batch;
}

/** Every sparse op, with parameters on both sides of each branch. */
std::vector<TransformSpec>
sparseSpecs()
{
    std::vector<TransformSpec> out;
    FeatureId next = 1000;
    auto add = [&](OpKind kind, std::vector<FeatureId> in, uint64_t u0,
                   uint64_t u1, double p0 = 0.0, double p1 = 0.0) {
        auto s = spec(kind, std::move(in), next++);
        s.u0 = u0;
        s.u1 = u1;
        s.p0 = p0;
        s.p1 = p1;
        out.push_back(s);
    };
    for (FeatureId in : {kNarrowIds, kLongIds, kWideIds}) {
        add(OpKind::SigridHash, {in}, 0x1234567, 1u << 22); // 2^k
        add(OpKind::SigridHash, {in}, 99, 1000003);         // not 2^k
        add(OpKind::SigridHash, {in}, 5, 0);                // default
        add(OpKind::PositiveModulus, {in}, 1u << 20, 0);
        add(OpKind::PositiveModulus, {in}, 7, 0);
        add(OpKind::PositiveModulus, {in}, 0, 0);
        for (uint64_t x : {0, 1, 3, 50})
            add(OpKind::FirstX, {in}, x, 0);
        add(OpKind::MapId, {in}, 5, 1);
        add(OpKind::MapId, {in}, 1u << 18, 0);
        for (uint64_t n : {0, 2, 3, 5})
            add(OpKind::NGram, {in}, n, 0xfeed + n);
        add(OpKind::Enumerate, {in}, 0, 0);
        add(OpKind::ComputeScore, {in}, 0, 0, 0.5, -1.25);
        add(OpKind::ComputeScore, {in}, 0, 0, 3.1, 0.7);
    }
    const std::vector<std::vector<FeatureId>> pairs = {
        {kNarrowIds, kLongIds}, {kLongIds, kNarrowIds},
        {kNarrowIds, kNarrowIds}, {kLongIds, kLongIds},
        {kWideIds, kLongIds}, {kWideIds, kWideIds}};
    for (const auto &in : pairs) {
        add(OpKind::IdListTransform, in, 0, 0);
        for (uint64_t cap : {0, 64, 5})
            add(OpKind::Cartesian, in, cap, 0xabc + cap);
    }
    return out;
}

void
expectSameBatch(const dwrf::RowBatch &want, const dwrf::RowBatch &got,
                const TransformSpec &s)
{
    SCOPED_TRACE(std::string(opKindName(s.kind)) + " u0=" +
                 std::to_string(s.u0) + " u1=" + std::to_string(s.u1));
    EXPECT_EQ(got.rows, want.rows);
    ASSERT_EQ(got.sparse.size(), want.sparse.size());
    for (size_t i = 0; i < want.sparse.size(); ++i) {
        const auto &w = want.sparse[i];
        const auto &g = got.sparse[i];
        EXPECT_EQ(g.id, w.id);
        EXPECT_EQ(g.offsets, w.offsets);
        EXPECT_EQ(g.values, w.values);
        ASSERT_EQ(g.scores.size(), w.scores.size());
        EXPECT_EQ(0, std::memcmp(g.scores.data(), w.scores.data(),
                                 w.scores.size() * sizeof(float)))
            << "scores differ bitwise";
    }
}

void
expectSameStats(const TransformStats &want, const TransformStats &got)
{
    EXPECT_EQ(got.values_produced, want.values_produced);
    EXPECT_EQ(got.values_consumed, want.values_consumed);
    EXPECT_EQ(got.rows_in, want.rows_in);
    EXPECT_EQ(got.rows_out, want.rows_out);
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(got.class_values[c], want.class_values[c]);
}

/** Run every sparse spec through both kernels on `input`. */
void
expectKernelsMatchReference(const dwrf::RowBatch &input)
{
    for (const auto &s : sparseSpecs()) {
        dwrf::RowBatch want = input;
        dwrf::RowBatch got = input;
        TransformStats want_stats, got_stats;
        reference::apply(s, want, want_stats);
        compileTransform(s)->apply(got, got_stats);
        expectSameBatch(want, got, s);
        expectSameStats(want_stats, got_stats);
    }
}

TEST(Kernels, MatchScalarReferenceOnRandomBatches)
{
    Rng rng(2024);
    uint64_t short_b = 0, long_b = 0;
    for (uint32_t rows : {1u, 7u, 64u, 300u}) {
        for (bool scored : {false, true}) {
            auto batch = randomBatch(rng, rows, scored);
            const auto *b = batch.findSparse(kLongIds);
            for (uint32_t r = 0; r < batch.rows; ++r) {
                uint32_t len = b->length(r);
                (len >= kIdListSortMinB ? long_b : short_b) += len > 0;
            }
            expectKernelsMatchReference(batch);
        }
    }
    // IdListTransform took both of its paths.
    EXPECT_GT(short_b, 20u);
    EXPECT_GT(long_b, 20u);
}

TEST(Kernels, MatchScalarReferenceOnSlicesAndOffsetBases)
{
    Rng rng(77);
    for (bool scored : {false, true}) {
        auto batch = randomBatch(rng, 200, scored);
        // sliceBatch rebases a slice's offsets to zero...
        auto slice = dwrf::sliceBatch(batch, 37, 100);
        ASSERT_EQ(slice.rows, 100u);
        expectKernelsMatchReference(slice);
        // ...a column read in place keeps its base (offsets[0] != 0)
        // and carries values outside its rows.
        auto based = withOffsetBase(slice, 13);
        ASSERT_EQ(based.findSparse(kNarrowIds)->offsets[0], 13u);
        expectKernelsMatchReference(based);
    }
}

TEST(Kernels, MatchScalarReferenceOnEmptyBatches)
{
    dwrf::RowBatch empty;
    for (FeatureId id : {kNarrowIds, kLongIds, kWideIds}) {
        dwrf::SparseColumn c;
        c.id = id;
        c.offsets = {0};
        empty.sparse.push_back(c);
    }
    expectKernelsMatchReference(empty);
    // Rows present, every list empty.
    Rng rng(5);
    auto batch = randomBatch(rng, 16, true);
    for (auto &c : batch.sparse) {
        c.offsets.assign(batch.rows + 1, 0);
        c.values.clear();
        c.scores.clear();
    }
    expectKernelsMatchReference(batch);
}

/** FNV-1a over every byte of a batch's columns and labels. */
uint64_t
batchDigest(const dwrf::RowBatch &batch)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const void *data, size_t n) {
        const auto *p = static_cast<const uint8_t *>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    };
    mix(&batch.rows, sizeof(batch.rows));
    mix(batch.labels.data(), batch.labels.size() * sizeof(float));
    for (const auto &c : batch.dense) {
        mix(&c.id, sizeof(c.id));
        mix(c.present.data(), c.present.size());
        mix(c.values.data(), c.values.size() * sizeof(float));
    }
    for (const auto &c : batch.sparse) {
        mix(&c.id, sizeof(c.id));
        mix(c.offsets.data(), c.offsets.size() * sizeof(uint32_t));
        mix(c.values.data(), c.values.size() * sizeof(int64_t));
        mix(c.scores.data(), c.scores.size() * sizeof(float));
    }
    return h;
}

/** The transform_heavy benchmark's table and 16-feature graph. */
struct HeavyGraphFixture
{
    warehouse::TableSchema schema;
    TransformGraph graph;
    std::vector<dwrf::RowBatch> inputs;

    HeavyGraphFixture()
    {
        warehouse::SchemaParams p;
        p.float_features = 16;
        p.sparse_features = 8;
        p.avg_length = 12;
        p.coverage_u = 0.6;
        p.seed = 43;
        schema = warehouse::makeSchema(p);
        std::vector<FeatureId> projection;
        for (const auto &f : schema.features)
            projection.push_back(f.id);
        ModelGraphParams gp;
        gp.derived_features = 16;
        gp.seed = p.seed ^ 0x33;
        graph = makeModelGraph(schema, projection, gp);
        warehouse::RowGenerator gen(schema, 11);
        for (int i = 0; i < 4; ++i)
            inputs.push_back(dwrf::batchFromRows(gen.batch(256)));
    }
};

TEST(Kernels, ModelGraphOutputDigestIsPinned)
{
    // Recorded with the scalar per-row kernels: the column-at-a-time
    // ops must deliver the same bytes and the same stats.
    HeavyGraphFixture fx;
    CompiledGraph compiled(fx.graph);
    uint64_t digest = 0;
    for (const auto &input : fx.inputs) {
        dwrf::RowBatch batch = input;
        compiled.apply(batch);
        digest = sigridHash64(batchDigest(batch), digest);
    }
    const TransformStats &t = compiled.totalStats();
    EXPECT_EQ(digest, 0xcfc78287d9204353ULL);
    EXPECT_EQ(t.values_consumed, 515396u);
    EXPECT_EQ(t.values_produced, 363922u);
}

TEST(Kernels, CompiledGraphsRunConcurrentlyOverSharedInputs)
{
    // One CompiledGraph per thread over the same read-only inputs: a
    // kernel that kept scratch outside its apply() call would race
    // here (the TSan suite runs this test) or corrupt the outputs.
    HeavyGraphFixture fx;
    std::vector<uint64_t> want;
    {
        CompiledGraph compiled(fx.graph);
        for (const auto &input : fx.inputs) {
            dwrf::RowBatch batch = input;
            compiled.apply(batch);
            want.push_back(batchDigest(batch));
        }
    }
    constexpr int kThreads = 4;
    constexpr int kRounds = 3;
    std::vector<std::vector<uint64_t>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            CompiledGraph compiled(fx.graph);
            for (int round = 0; round < kRounds; ++round) {
                for (const auto &input : fx.inputs) {
                    dwrf::RowBatch batch = input;
                    compiled.apply(batch);
                    got[t].push_back(batchDigest(batch));
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(got[t].size(), kRounds * want.size());
        for (size_t i = 0; i < got[t].size(); ++i)
            EXPECT_EQ(got[t][i], want[i % want.size()]);
    }
}

} // namespace
} // namespace dsi::transforms
