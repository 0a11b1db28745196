/**
 * @file
 * Property, fuzz, and file-level tests for the RecD list-dictionary
 * codec (src/dwrf/dedup.h).
 *
 * The codec must be *lossless* under every corpus shape (empty lists,
 * single-element lists, all-identical, adversarial near-duplicates),
 * reject every truncation and count mismatch, survive random bit
 * flips without crashing, and — at the file level — produce byte-
 * identical decoded batches to the plain encoding while shrinking
 * storage on duplicated corpora. Corrupt shared-dictionary bytes must
 * surface through the reader's checksum path (reportCorruption), not
 * as silently wrong data.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "dwrf/dedup.h"
#include "dwrf/reader.h"
#include "dwrf/source.h"
#include "dwrf/writer.h"
#include "test_fixtures.h"
#include "warehouse/datagen.h"

namespace dsi::dwrf {
namespace {

/** Build a SparseColumn from explicit lists (scores optional). */
SparseColumn
makeColumn(const std::vector<std::vector<int64_t>> &lists,
           const std::vector<std::vector<float>> *scores = nullptr)
{
    SparseColumn col;
    col.id = 42;
    col.offsets.assign(lists.size() + 1, 0);
    for (size_t r = 0; r < lists.size(); ++r) {
        col.values.insert(col.values.end(), lists[r].begin(),
                          lists[r].end());
        if (scores != nullptr) {
            col.scores.insert(col.scores.end(), (*scores)[r].begin(),
                              (*scores)[r].end());
        }
        col.offsets[r + 1] = static_cast<uint32_t>(col.values.size());
    }
    return col;
}

/**
 * Encode `col` through a builder with `limits`, decode the dictionary
 * and the stripe stream back, and return the reconstructed column.
 * Asserts every decode step succeeds.
 */
SparseColumn
roundTrip(const SparseColumn &col, uint32_t rows,
          ListDictLimits limits = {},
          ListDictColumnEncode *enc_out = nullptr,
          ListDictDecodeStats *stats_out = nullptr)
{
    ListDictBuilder dict(limits);
    ListDictColumnEncode enc = encodeListDictColumn(col, rows, dict);
    if (enc_out != nullptr)
        *enc_out = enc;

    DecodedListDict decoded;
    const DecodedListDict *dptr = nullptr;
    if (dict.size() > 0) {
        Buffer dict_stream = dict.encode();
        EXPECT_TRUE(decodeSharedListDict(dict_stream, decoded));
        dptr = &decoded;
    }
    SparseColumn back;
    back.id = col.id;
    EXPECT_TRUE(
        decodeListDictColumn(enc.stream, rows, dptr, back, stats_out));
    return back;
}

void
expectColumnsEqual(const SparseColumn &a, const SparseColumn &b)
{
    ASSERT_EQ(a.offsets, b.offsets);
    ASSERT_EQ(a.values, b.values);
    ASSERT_EQ(a.scores.size(), b.scores.size());
    // Bitwise score compare (float == would miss NaN payloads).
    if (!a.scores.empty()) {
        EXPECT_EQ(std::memcmp(a.scores.data(), b.scores.data(),
                              a.scores.size() * sizeof(float)),
                  0);
    }
}

TEST(ListDictCodec, RoundTripEdgeShapes)
{
    // Empty lists, single elements, all-identical, and adversarial
    // near-duplicates: shared prefixes, one-element tails, equal
    // values with different scores.
    std::vector<std::vector<int64_t>> lists{
        {},
        {7},
        {7},
        {},
        {1, 2, 3},
        {1, 2, 3},
        {1, 2, 3, 4},   // near-dup: extra tail element
        {1, 2},         // near-dup: prefix
        {2, 1, 3},      // near-dup: permutation
        {7},
        {},
    };
    SparseColumn col = makeColumn(lists);
    expectColumnsEqual(
        col, roundTrip(col, static_cast<uint32_t>(lists.size())));

    // Same value lists, distinguished only by scores: must stay
    // distinct entries (scores are part of the identity).
    std::vector<std::vector<int64_t>> vlists{
        {5, 6}, {5, 6}, {5, 6}, {5, 6}};
    std::vector<std::vector<float>> slists{
        {0.5f, 0.5f}, {0.5f, 0.25f}, {0.5f, 0.5f}, {0.5f, 0.25f}};
    SparseColumn scored = makeColumn(vlists, &slists);
    ListDictColumnEncode enc;
    expectColumnsEqual(scored, roundTrip(scored, 4, {}, &enc));
    EXPECT_EQ(enc.dict_refs, 4u);

    // A scored stripe whose every list is a dictionary hit: its inline
    // scores block is empty, and decoding it copies zero floats into
    // an empty (null-data) vector.
    std::vector<std::vector<int64_t>> hit_lists{
        {9}, {9}, {3, 4}, {9}, {3, 4}};
    std::vector<std::vector<float>> hit_scores{
        {0.75f}, {0.75f}, {0.5f, 0.25f}, {0.75f}, {0.5f, 0.25f}};
    SparseColumn all_hits = makeColumn(hit_lists, &hit_scores);
    ListDictDecodeStats decode_stats;
    expectColumnsEqual(all_hits,
                       roundTrip(all_hits, 5, {}, &enc, &decode_stats));
    EXPECT_EQ(enc.inline_lists, 0u);
    EXPECT_EQ(decode_stats.inline_lists, 0u);
    EXPECT_EQ(decode_stats.dict_refs, 5u);
}

TEST(ListDictCodec, AllIdenticalListsInternOnce)
{
    std::vector<std::vector<int64_t>> lists(64, {11, 12, 13});
    SparseColumn col = makeColumn(lists);
    ListDictBuilder dict;
    ListDictColumnEncode enc = encodeListDictColumn(col, 64, dict);
    EXPECT_EQ(dict.size(), 1u);
    EXPECT_EQ(enc.dict_refs, 64u);
    EXPECT_EQ(enc.inline_lists, 0u);
}

TEST(ListDictCodec, RoundTripRandomCorpora)
{
    // Randomized lists drawn from a small pool (guaranteed repeats)
    // plus fresh noise lists; scored and unscored variants.
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed * 0x5eedULL);
        bool use_scores = seed % 2 == 0;
        uint32_t rows = 1 + rng.nextUint(200);
        std::vector<std::vector<int64_t>> pool;
        for (int p = 0; p < 8; ++p) {
            std::vector<int64_t> list(rng.nextUint(6));
            for (auto &v : list)
                v = static_cast<int64_t>(rng.nextUint(1000)) - 500;
            pool.push_back(std::move(list));
        }
        std::vector<std::vector<int64_t>> lists;
        std::vector<std::vector<float>> scores;
        for (uint32_t r = 0; r < rows; ++r) {
            std::vector<int64_t> list;
            if (rng.nextBool(0.7)) {
                list = pool[rng.nextUint(pool.size())];
            } else {
                list.resize(rng.nextUint(5));
                for (auto &v : list)
                    v = static_cast<int64_t>(rng.next());
            }
            std::vector<float> sc(list.size());
            for (auto &s : sc)
                s = static_cast<float>(rng.nextDouble());
            lists.push_back(std::move(list));
            scores.push_back(std::move(sc));
        }
        SparseColumn col =
            makeColumn(lists, use_scores ? &scores : nullptr);
        expectColumnsEqual(col, roundTrip(col, rows));
    }
}

TEST(ListDictCodec, CapForcedInlineStaysLossless)
{
    // A dictionary capped at 2 entries forces most lists inline; the
    // mixed dict/inline stream must still round-trip exactly.
    std::vector<std::vector<int64_t>> lists;
    for (int64_t i = 0; i < 40; ++i)
        lists.push_back({i % 7, i % 7 + 1}); // 7 distinct lists
    SparseColumn col = makeColumn(lists);

    ListDictLimits tiny;
    tiny.max_entries = 2;
    ListDictColumnEncode enc;
    ListDictDecodeStats stats;
    expectColumnsEqual(col, roundTrip(col, 40, tiny, &enc, &stats));
    EXPECT_GT(enc.dict_refs, 0u);
    EXPECT_GT(enc.inline_lists, 0u);
    EXPECT_EQ(stats.dict_refs, enc.dict_refs);
    EXPECT_EQ(stats.inline_lists, enc.inline_lists);

    // Byte cap instead of entry cap: same losslessness.
    ListDictLimits small_bytes;
    small_bytes.max_payload_bytes = 3 * sizeof(int64_t);
    expectColumnsEqual(col, roundTrip(col, 40, small_bytes));
}

TEST(ListDictCodec, OutOfRangeCodesRejected)
{
    std::vector<std::vector<int64_t>> lists{{1}, {2}, {1}, {2}};
    SparseColumn col = makeColumn(lists);
    ListDictBuilder dict;
    ListDictColumnEncode enc = encodeListDictColumn(col, 4, dict);
    ASSERT_EQ(dict.size(), 2u);

    // No dictionary at all: every code is out of range.
    SparseColumn out;
    EXPECT_FALSE(decodeListDictColumn(enc.stream, 4, nullptr, out));

    // A smaller dictionary than the codes reference.
    ListDictBuilder one;
    std::vector<int64_t> single{1};
    ASSERT_TRUE(one.intern(single, {}, false).has_value());
    Buffer one_stream = one.encode();
    DecodedListDict small;
    ASSERT_TRUE(decodeSharedListDict(one_stream, small));
    EXPECT_FALSE(decodeListDictColumn(enc.stream, 4, &small, out));

    // Row-count mismatch between stream and caller.
    DecodedListDict full;
    Buffer dict_stream = dict.encode();
    ASSERT_TRUE(decodeSharedListDict(dict_stream, full));
    EXPECT_FALSE(decodeListDictColumn(enc.stream, 5, &full, out));
    EXPECT_TRUE(decodeListDictColumn(enc.stream, 4, &full, out));
}

TEST(ListDictCodec, ScorednessMismatchRejected)
{
    // An unscored stripe column must not gather from a scored
    // dictionary (it would drop scores) and vice versa (it would
    // invent them).
    std::vector<std::vector<int64_t>> lists{{3, 4}, {3, 4}};
    SparseColumn col = makeColumn(lists);
    ListDictBuilder dict;
    ListDictColumnEncode enc = encodeListDictColumn(col, 2, dict);

    ListDictBuilder scored_dict;
    std::vector<int64_t> values{3, 4};
    std::vector<float> scores{0.1f, 0.2f};
    ASSERT_TRUE(
        scored_dict.intern(values, scores, true).has_value());
    Buffer scored_stream = scored_dict.encode();
    DecodedListDict scored;
    ASSERT_TRUE(decodeSharedListDict(scored_stream, scored));

    SparseColumn out;
    EXPECT_FALSE(decodeListDictColumn(enc.stream, 2, &scored, out));
}

TEST(ListDictCodec, BuilderRejectsScorednessFlip)
{
    ListDictBuilder dict;
    std::vector<int64_t> values{1, 2};
    std::vector<float> scores{0.5f, 0.5f};
    ASSERT_TRUE(dict.intern(values, scores, true).has_value());
    // Once pinned scored, an unscored intern falls back to inline.
    EXPECT_FALSE(dict.intern(values, {}, false).has_value());
}

TEST(ListDictCodec, RejectsEveryTruncation)
{
    std::vector<std::vector<int64_t>> lists{
        {}, {9}, {9}, {1, 2, 3}, {1, 2, 3}, {4, 5}};
    std::vector<std::vector<float>> scores{
        {}, {.1f}, {.1f}, {.2f, .3f, .4f}, {.2f, .3f, .4f}, {.5f, .6f}};
    SparseColumn col = makeColumn(lists, &scores);
    ListDictBuilder dict;
    ListDictColumnEncode enc = encodeListDictColumn(
        col, static_cast<uint32_t>(lists.size()), dict);
    Buffer dict_stream = dict.encode();

    for (size_t len = 0; len < dict_stream.size(); ++len) {
        DecodedListDict out;
        EXPECT_FALSE(decodeSharedListDict(
            ByteSpan(dict_stream.data(), len), out))
            << "dict prefix " << len << " accepted";
    }
    DecodedListDict full;
    ASSERT_TRUE(decodeSharedListDict(dict_stream, full));
    for (size_t len = 0; len < enc.stream.size(); ++len) {
        SparseColumn out;
        EXPECT_FALSE(decodeListDictColumn(
            ByteSpan(enc.stream.data(), len),
            static_cast<uint32_t>(lists.size()), &full, out))
            << "column prefix " << len << " accepted";
    }
}

TEST(ListDictCodec, SurvivesRandomBitFlips)
{
    // Single-bit corruptions must never crash or read out of bounds
    // (ASan-checked in CI); they either decode to *something* or are
    // rejected — and if the dictionary stream decodes differently,
    // the column decode must still stay in bounds.
    std::vector<std::vector<int64_t>> lists;
    for (int64_t i = 0; i < 32; ++i)
        lists.push_back({i % 5, i % 3, 1000 + i % 5});
    SparseColumn col = makeColumn(lists);
    ListDictBuilder dict;
    ListDictColumnEncode enc = encodeListDictColumn(col, 32, dict);
    Buffer dict_stream = dict.encode();
    DecodedListDict clean;
    ASSERT_TRUE(decodeSharedListDict(dict_stream, clean));

    Rng rng(0xF11Fu);
    for (int trial = 0; trial < 300; ++trial) {
        Buffer corrupt = dict_stream;
        size_t byte = rng.nextUint(corrupt.size());
        corrupt[byte] ^= static_cast<uint8_t>(1u << rng.nextUint(8));
        DecodedListDict out;
        bool ok = decodeSharedListDict(corrupt, out);
        if (ok) {
            // Whatever decoded, column gather against it must stay
            // memory-safe (reject or produce consistent output).
            SparseColumn back;
            decodeListDictColumn(enc.stream, 32, &out, back);
        }
    }
    for (int trial = 0; trial < 300; ++trial) {
        Buffer corrupt = enc.stream;
        size_t byte = rng.nextUint(corrupt.size());
        corrupt[byte] ^= static_cast<uint8_t>(1u << rng.nextUint(8));
        SparseColumn back;
        decodeListDictColumn(corrupt, 32, &clean, back);
    }
}

// ---------------------------------------------------------------------
// File level: writer + reader through real DWRF files.

warehouse::SchemaParams
dedupParams()
{
    warehouse::SchemaParams p;
    p.name = "dedup";
    p.float_features = 6;
    p.sparse_features = 6;
    p.avg_length = 8;
    p.coverage_u = 0.6;
    p.seed = 91;
    return p;
}

/** Rows with heavily duplicated payloads (the RecD shape). */
std::vector<Row>
dupRows(uint32_t n)
{
    warehouse::TableSchema schema = warehouse::makeSchema(dedupParams());
    warehouse::DupParams dp;
    dp.pool_size = 64;
    dp.alpha = 1.1;
    dp.seed = 17;
    warehouse::DupRowGenerator gen(schema, dp);
    return gen.batch(n);
}

Buffer
writeFile(const std::vector<Row> &rows, bool dedup)
{
    WriterOptions wo;
    wo.rows_per_stripe = 512;
    wo.dedup = dedup;
    FileWriter writer(wo);
    writer.appendRows(rows);
    return writer.finish();
}

/** Read every stripe of `file` with the full projection. */
std::vector<RowBatch>
readAll(const Buffer &file, ReadStats *stats_out = nullptr,
        ReadStatus *status_out = nullptr)
{
    MemorySource source(file);
    FileReader reader(source, ReadOptions{});
    EXPECT_TRUE(reader.valid());
    std::vector<RowBatch> batches;
    for (size_t s = 0; s < reader.stripeCount(); ++s) {
        RowBatch batch;
        ReadStatus st = reader.readStripe(s, batch);
        if (status_out != nullptr)
            *status_out = st;
        if (st != ReadStatus::Ok)
            break;
        batches.push_back(std::move(batch));
    }
    if (stats_out != nullptr)
        *stats_out = reader.stats();
    return batches;
}

void
expectBatchesEqual(const std::vector<RowBatch> &a,
                   const std::vector<RowBatch> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].rows, b[i].rows);
        ASSERT_EQ(a[i].labels, b[i].labels);
        ASSERT_EQ(a[i].dense.size(), b[i].dense.size());
        for (size_t c = 0; c < a[i].dense.size(); ++c) {
            EXPECT_EQ(a[i].dense[c].id, b[i].dense[c].id);
            EXPECT_EQ(a[i].dense[c].present, b[i].dense[c].present);
            EXPECT_EQ(a[i].dense[c].values, b[i].dense[c].values);
        }
        ASSERT_EQ(a[i].sparse.size(), b[i].sparse.size());
        for (size_t c = 0; c < a[i].sparse.size(); ++c) {
            EXPECT_EQ(a[i].sparse[c].id, b[i].sparse[c].id);
            expectColumnsEqual(a[i].sparse[c], b[i].sparse[c]);
        }
    }
}

TEST(DedupFile, DecodesIdenticallyToPlainAndShrinks)
{
    auto rows = dupRows(2048);
    Buffer plain = writeFile(rows, false);
    Buffer dedup = writeFile(rows, true);

    // Duplicated corpus: the dictionary encoding must shrink the file.
    EXPECT_LT(dedup.size(), plain.size());

    ReadStats plain_stats, dedup_stats;
    auto plain_batches = readAll(plain, &plain_stats);
    auto dedup_batches = readAll(dedup, &dedup_stats);
    expectBatchesEqual(plain_batches, dedup_batches);

    EXPECT_EQ(plain_stats.dict_streams, 0u);
    EXPECT_GT(dedup_stats.dict_streams, 0u);
    EXPECT_GT(dedup_stats.dict_list_refs, 0u);
}

TEST(DedupFile, RecdCorpusMeetsStorageSavingsBar)
{
    // RecD's win is stored bytes, which are deterministic: on the RecD
    // corpus (the shape bench/codec_bench reports) list-dictionary
    // DWRF must store at least 1.5x fewer bytes than plain encoding.
    warehouse::DupCorpusShape shape;
    auto plain = warehouse::buildDupMiniCorpus(shape, false);
    auto dict = warehouse::buildDupMiniCorpus(shape, true);
    double plain_bytes = static_cast<double>(plain.table().totalBytes());
    double dict_bytes = static_cast<double>(dict.table().totalBytes());
    EXPECT_GE(plain_bytes / dict_bytes, 1.5)
        << "plain " << plain_bytes << " B, dict " << dict_bytes << " B";
}

TEST(DedupFile, WriterStatsAccountEveryList)
{
    auto rows = dupRows(1024);
    WriterOptions wo;
    wo.rows_per_stripe = 256;
    wo.dedup = true;
    FileWriter writer(wo);
    writer.appendRows(rows);
    Buffer file = writer.finish();

    const DedupWriteStats &ws = writer.dedupStats();
    EXPECT_GT(ws.dedup_columns, 0u);
    EXPECT_GT(ws.dict_entries, 0u);
    EXPECT_GT(ws.lists_referenced, 0u);
    EXPECT_GT(ws.dict_stream_bytes, 0u);
    EXPECT_FALSE(writer.footer().shared_dicts.empty());

    // With generous caps every list resolves through a dictionary.
    EXPECT_EQ(ws.lists_inline, 0u);
}

TEST(DedupFile, SharedDictLoadsOncePerFile)
{
    // Cross-stripe reuse: many stripes, each referencing the same
    // per-feature dictionaries — fetched and decoded exactly once.
    auto rows = dupRows(2048);
    WriterOptions wo;
    wo.rows_per_stripe = 256; // 8 stripes
    wo.dedup = true;
    FileWriter writer(wo);
    writer.appendRows(rows);
    Buffer file = writer.finish();
    size_t dict_count = writer.footer().shared_dicts.size();
    ASSERT_GT(dict_count, 0u);

    ReadStats stats;
    auto batches = readAll(file, &stats);
    EXPECT_EQ(batches.size(), 8u);
    EXPECT_EQ(stats.dict_streams, dict_count);
}

TEST(DedupFile, CapOverflowRoundTripsThroughInlineResidue)
{
    auto rows = dupRows(1024);
    WriterOptions plain_wo;
    plain_wo.rows_per_stripe = 256;
    FileWriter plain_writer(plain_wo);
    plain_writer.appendRows(rows);
    Buffer plain = plain_writer.finish();

    WriterOptions wo;
    wo.rows_per_stripe = 256;
    wo.dedup = true;
    wo.dedup_limits.max_entries = 8; // force inline residue
    FileWriter writer(wo);
    writer.appendRows(rows);
    Buffer dedup = writer.finish();
    EXPECT_GT(writer.dedupStats().lists_inline, 0u);

    expectBatchesEqual(readAll(plain), readAll(dedup));
}

TEST(DedupFile, CorruptSharedDictIsCaughtByChecksum)
{
    auto rows = dupRows(1024);
    Buffer file = writeFile(rows, true);

    // Locate the first shared dictionary's stored bytes via a clean
    // footer parse, then flip one bit inside them.
    MemorySource probe(file);
    FileReader probe_reader(probe, ReadOptions{});
    ASSERT_TRUE(probe_reader.valid());
    const auto &dicts = probe_reader.footer().shared_dicts;
    ASSERT_FALSE(dicts.empty());
    Buffer corrupt = file;
    corrupt[dicts[0].offset + dicts[0].length / 2] ^= 0x10;

    MemorySource source(corrupt);
    FileReader reader(source, ReadOptions{});
    ASSERT_TRUE(reader.valid());
    RowBatch batch;
    ReadStatus status = reader.readStripe(0, batch);
    EXPECT_EQ(status, ReadStatus::ChecksumMismatch);
    EXPECT_GE(reader.stats().checksum_mismatches, 1u);
    EXPECT_GE(reader.stats().stripe_retries, 1u);
}

TEST(DedupFile, DedupOffCorpusPaysOnlyCodeOverhead)
{
    // On a dup-free corpus the always-dict policy costs a little code
    // overhead but must stay lossless and bounded (< 15% growth).
    warehouse::TableSchema schema =
        warehouse::makeSchema(dedupParams());
    warehouse::RowGenerator gen(schema, 23);
    auto rows = gen.batch(1024);

    Buffer plain = writeFile(rows, false);
    Buffer dedup = writeFile(rows, true);
    expectBatchesEqual(readAll(plain), readAll(dedup));
    EXPECT_LT(dedup.size(),
              plain.size() + plain.size() / 7 + 1024);
}

} // namespace
} // namespace dsi::dwrf
