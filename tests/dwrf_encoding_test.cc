/**
 * @file
 * Round-trip and property tests for stream encodings, the LZ codec,
 * the stream cipher and the CRC32-C kernels, plus byte-identity pins
 * on the LZ and value-dictionary encoders: their digests are fixed,
 * so a faster kernel must store exactly the bytes the original did.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "common/rng.h"
#include "dwrf/checksum.h"
#include "dwrf/cipher.h"
#include "dwrf/compress.h"
#include "dwrf/encoding.h"
#include "warehouse/datagen.h"

namespace dsi::dwrf {
namespace {

TEST(Varint, RoundTripEdgeValues)
{
    Buffer buf;
    std::vector<uint64_t> values{0, 1, 127, 128, 16383, 16384,
                                 UINT32_MAX, UINT64_MAX};
    for (uint64_t v : values)
        putVarint(buf, v);
    size_t pos = 0;
    for (uint64_t v : values) {
        uint64_t got;
        ASSERT_TRUE(getVarint(buf, pos, got));
        EXPECT_EQ(got, v);
    }
    EXPECT_EQ(pos, buf.size());
}

TEST(Varint, TruncatedInputFails)
{
    Buffer buf;
    putVarint(buf, UINT64_MAX);
    buf.pop_back();
    size_t pos = 0;
    uint64_t v;
    EXPECT_FALSE(getVarint(buf, pos, v));
}

TEST(Zigzag, SignedRoundTrip)
{
    for (int64_t v : {0L, 1L, -1L, 63L, -64L, INT64_MAX, INT64_MIN}) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v);
    }
    // Small magnitudes map to small codes.
    EXPECT_LE(zigzagEncode(-3), 6u);
}

TEST(FixedWidth, RoundTrip)
{
    Buffer buf;
    putU32(buf, 0xdeadbeef);
    putU64(buf, 0x0123456789abcdefULL);
    putFloat(buf, 3.25f);
    size_t pos = 0;
    uint32_t a;
    uint64_t b;
    float f;
    ASSERT_TRUE(getU32(buf, pos, a));
    ASSERT_TRUE(getU64(buf, pos, b));
    ASSERT_TRUE(getFloat(buf, pos, f));
    EXPECT_EQ(a, 0xdeadbeefu);
    EXPECT_EQ(b, 0x0123456789abcdefULL);
    EXPECT_FLOAT_EQ(f, 3.25f);
}

TEST(Rle, ZeroRunsCompressWell)
{
    // Sparse-length streams are mostly zeros (absent features).
    std::vector<int64_t> lengths(10000, 0);
    lengths[17] = 25;
    lengths[9000] = 12;
    Buffer out;
    rleEncode(lengths, out);
    EXPECT_LT(out.size(), 100u);
    std::vector<int64_t> back;
    ASSERT_TRUE(rleDecode(out, back));
    EXPECT_EQ(back, lengths);
}

TEST(Rle, ArithmeticRunsDetected)
{
    std::vector<int64_t> v;
    for (int64_t i = 0; i < 1000; ++i)
        v.push_back(5 + 3 * i);
    Buffer out;
    rleEncode(v, out);
    EXPECT_LT(out.size(), 16u);
    std::vector<int64_t> back;
    ASSERT_TRUE(rleDecode(out, back));
    EXPECT_EQ(back, v);
}

TEST(Rle, RandomValuesRoundTrip)
{
    Rng rng(77);
    std::vector<int64_t> v;
    for (int i = 0; i < 5000; ++i)
        v.push_back(static_cast<int64_t>(rng.next()) >> rng.nextUint(40));
    Buffer out;
    rleEncode(v, out);
    std::vector<int64_t> back;
    ASSERT_TRUE(rleDecode(out, back));
    EXPECT_EQ(back, v);
}

TEST(Rle, EmptyInput)
{
    Buffer out;
    rleEncode({}, out);
    std::vector<int64_t> back;
    ASSERT_TRUE(rleDecode(out, back));
    EXPECT_TRUE(back.empty());
}

TEST(ValueEncoding, SkewedValuesUseDictionaryAndShrink)
{
    // Hashed categorical ids (8-byte magnitudes) drawn from a hot
    // Zipf set repeat heavily: dictionary beats direct varints.
    std::vector<int64_t> values =
        warehouse::zipfSkewedIds(20000, 5);

    Buffer dict_encoded;
    encodeValues(values, dict_encoded);
    EXPECT_EQ(dict_encoded[0], 0x01); // dictionary tag

    Buffer direct;
    putVarint(direct, values.size());
    for (int64_t v : values)
        putSignedVarint(direct, v);
    EXPECT_LT(dict_encoded.size(), direct.size());

    std::vector<int64_t> back;
    ASSERT_TRUE(decodeValues(dict_encoded, back));
    EXPECT_EQ(back, values);
}

TEST(ValueEncoding, HighCardinalityFallsBackToDirect)
{
    // All-distinct small ids: a dictionary would only add overhead.
    std::vector<int64_t> values;
    for (int64_t i = 0; i < 10000; ++i)
        values.push_back(i * 7919);
    Buffer out;
    encodeValues(values, out);
    EXPECT_EQ(out[0], 0x00); // direct tag
    std::vector<int64_t> back;
    ASSERT_TRUE(decodeValues(out, back));
    EXPECT_EQ(back, values);
}

TEST(ValueEncoding, EmptyAndSingleValue)
{
    for (const std::vector<int64_t> &values :
         {std::vector<int64_t>{}, std::vector<int64_t>{-42}}) {
        Buffer out;
        encodeValues(values, out);
        std::vector<int64_t> back;
        ASSERT_TRUE(decodeValues(out, back));
        EXPECT_EQ(back, values);
    }
}

TEST(ValueEncoding, MalformedRejected)
{
    std::vector<int64_t> back;
    EXPECT_FALSE(decodeValues({}, back));
    Buffer bad_tag{0x07, 0x01};
    EXPECT_FALSE(decodeValues(bad_tag, back));
    // Dict index out of range: tag=1, n=1, d=1, dict={0}, index=5.
    Buffer oob{0x01, 0x01, 0x01, 0x00, 0x05};
    EXPECT_FALSE(decodeValues(oob, back));
    // Trailing garbage.
    Buffer trail{0x00, 0x01, 0x02, 0xff};
    EXPECT_FALSE(decodeValues(trail, back));
}

// -------------------------------------------------------------------
// Bulk/scalar differential tests: the bulk kernels (getVarintBlock,
// getSignedVarintBlock, rleDecode, decodeValues) promise bit-identical
// accept/reject and output to their scalar references on EVERY input,
// including truncated, overlong, and adversarial streams. These tests
// are the proof backing bench/codec_bench's decode table: the speedups
// come from the same answers computed faster.

/**
 * Reference decode: scalar getVarint in a loop, up to `max_values`.
 * The cursor is restored to the start of a failed varint so it lands
 * exactly where the block decoders leave `pos`.
 */
std::pair<std::vector<uint64_t>, size_t>
scalarVarintRef(ByteSpan in, size_t max_values)
{
    std::vector<uint64_t> values;
    size_t pos = 0;
    while (values.size() < max_values) {
        size_t before = pos;
        uint64_t v;
        if (!getVarint(in, pos, v)) {
            pos = before;
            break;
        }
        values.push_back(v);
    }
    return {values, pos};
}

void
expectVarintBlockMatchesScalar(const Buffer &stream, size_t capacity)
{
    auto [want, want_pos] = scalarVarintRef(stream, capacity);
    std::vector<uint64_t> got(capacity);
    size_t pos = 0;
    size_t n = getVarintBlock(stream, pos, got);
    ASSERT_EQ(n, want.size());
    EXPECT_EQ(pos, want_pos);
    got.resize(n);
    EXPECT_EQ(got, want);
}

TEST(BulkDifferential, VarintBlockOnRandomStreams)
{
    Rng rng(2024);
    for (int iter = 0; iter < 50; ++iter) {
        Buffer stream;
        size_t count = rng.nextUint(200);
        for (size_t i = 0; i < count; ++i) {
            // Mix magnitudes so 1-byte, 2-byte, and long forms all
            // appear and the speculative path keeps realigning.
            int bits = static_cast<int>(rng.nextUint(64)) + 1;
            putVarint(stream, rng.next() >> (64 - bits));
        }
        expectVarintBlockMatchesScalar(stream, count);
        expectVarintBlockMatchesScalar(stream, count / 2); // short out
        expectVarintBlockMatchesScalar(stream, count + 8); // starved
    }
}

TEST(BulkDifferential, VarintBlockOnTruncatedStreams)
{
    Buffer stream;
    for (uint64_t v : std::vector<uint64_t>{0, 127, 128, 16384,
                                            UINT64_MAX}) {
        putVarint(stream, v);
    }
    // Cut the stream at every byte boundary; block and scalar must
    // agree on how many values survive and where the cursor stops.
    for (size_t cut = 0; cut <= stream.size(); ++cut) {
        Buffer prefix(stream.begin(), stream.begin() + cut);
        expectVarintBlockMatchesScalar(prefix, 16);
    }
}

TEST(BulkDifferential, VarintBlockOnAdversarialForms)
{
    // Overlong-but-terminating, unterminated, and >10-byte forms.
    std::vector<Buffer> streams = {
        {0x80, 0x00},                               // overlong zero
        {0x80, 0x80, 0x00},                         // longer overlong
        {0x80},                                     // unterminated
        {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
        Buffer(10, 0xff),                           // never terminates
        Buffer(12, 0x80),                           // ditto, longer
    };
    // And the same forms embedded mid-stream after short varints.
    for (size_t i = 0, n = streams.size(); i < n; ++i) {
        Buffer embedded{0x05, 0x90, 0x03};
        for (uint8_t b : streams[i])
            embedded.push_back(b);
        streams.push_back(embedded);
    }
    for (const Buffer &s : streams)
        expectVarintBlockMatchesScalar(s, 16);
}

TEST(BulkDifferential, SignedVarintBlockMatchesScalar)
{
    Rng rng(77);
    Buffer stream;
    std::vector<int64_t> want;
    for (int i = 0; i < 500; ++i) {
        auto v = static_cast<int64_t>(rng.next() >>
                                      rng.nextUint(63));
        if (rng.nextUint(2) == 0)
            v = -v;
        want.push_back(v);
        putSignedVarint(stream, v);
    }
    std::vector<int64_t> got(want.size());
    size_t pos = 0;
    ASSERT_EQ(getSignedVarintBlock(stream, pos, got), want.size());
    EXPECT_EQ(pos, stream.size());
    EXPECT_EQ(got, want);
}

TEST(BulkDifferential, RleMatchesScalarOnRunBoundaries)
{
    // Shapes straddling every kernel threshold: minimum runs (3),
    // runs and literal groups around the 16-value inline cutoff, zero
    // runs, arithmetic runs, and a trailing partial group.
    std::vector<std::vector<int64_t>> shapes;
    for (size_t run : {3u, 15u, 16u, 17u, 100u}) {
        for (int64_t base : {0ll, 7ll, -3ll}) {
            for (int64_t delta : {0ll, 1ll, -2ll}) {
                std::vector<int64_t> vals;
                int64_t v = base;
                for (size_t k = 0; k < run; ++k) {
                    vals.push_back(v);
                    v += delta;
                }
                vals.push_back(999); // literal tail after the run
                shapes.push_back(std::move(vals));
            }
        }
    }
    Rng rng(5150);
    for (size_t lits : {1u, 2u, 15u, 16u, 17u, 64u}) {
        std::vector<int64_t> vals;
        for (size_t k = 0; k < lits; ++k)
            vals.push_back(static_cast<int64_t>(rng.next() >> 40) -
                           (1 << 23));
        shapes.push_back(std::move(vals));
    }
    for (const auto &vals : shapes) {
        Buffer enc;
        rleEncode(vals, enc);
        std::vector<int64_t> scalar, bulk;
        ASSERT_TRUE(rleDecodeScalar(enc, scalar));
        ASSERT_TRUE(rleDecode(enc, bulk));
        EXPECT_EQ(scalar, vals);
        EXPECT_EQ(bulk, vals);
    }
}

TEST(BulkDifferential, RleMatchesScalarOnCorruptStreams)
{
    std::vector<int64_t> vals;
    Rng rng(31337);
    for (int i = 0; i < 200; ++i)
        vals.push_back(rng.nextUint(100) < 70
                           ? 0
                           : static_cast<int64_t>(rng.nextUint(50)));
    Buffer enc;
    rleEncode(vals, enc);
    // Truncations and single-byte mutations: both decoders must agree
    // on accept/reject, and on the values whenever both accept.
    for (size_t cut = 0; cut < enc.size(); cut += 3) {
        Buffer prefix(enc.begin(), enc.begin() + cut);
        std::vector<int64_t> scalar, bulk;
        bool sok = rleDecodeScalar(prefix, scalar);
        bool bok = rleDecode(prefix, bulk);
        ASSERT_EQ(sok, bok) << "cut=" << cut;
        if (sok) {
            EXPECT_EQ(scalar, bulk) << "cut=" << cut;
        }
    }
    for (size_t flip = 0; flip < enc.size(); flip += 2) {
        Buffer bad = enc;
        bad[flip] ^= 0x41;
        std::vector<int64_t> scalar, bulk;
        bool sok = rleDecodeScalar(bad, scalar);
        bool bok = rleDecode(bad, bulk);
        ASSERT_EQ(sok, bok) << "flip=" << flip;
        if (sok) {
            EXPECT_EQ(scalar, bulk) << "flip=" << flip;
        }
    }
}

void
expectDecodeValuesAgree(const Buffer &stream)
{
    std::vector<int64_t> scalar, bulk;
    bool sok = decodeValuesScalar(stream, scalar);
    bool bok = decodeValues(stream, bulk);
    ASSERT_EQ(sok, bok);
    if (sok) {
        EXPECT_EQ(scalar, bulk);
    }
}

TEST(BulkDifferential, DecodeValuesOnDictAndDirectStreams)
{
    Rng rng(9090);
    // Dict shape: heavy duplication; direct shape: unique large ids.
    for (bool dict : {true, false}) {
        std::vector<int64_t> vals;
        for (int i = 0; i < 3000; ++i) {
            vals.push_back(
                dict ? static_cast<int64_t>(rng.nextUint(300))
                     : static_cast<int64_t>(rng.next() >> 1));
        }
        Buffer enc;
        encodeValues(vals, enc);
        std::vector<int64_t> back;
        ASSERT_TRUE(decodeValues(enc, back));
        EXPECT_EQ(back, vals);
        expectDecodeValuesAgree(enc);
        for (size_t cut = 0; cut < enc.size(); cut += 7) {
            Buffer prefix(enc.begin(), enc.begin() + cut);
            expectDecodeValuesAgree(prefix);
        }
        for (size_t flip = 0; flip < enc.size(); flip += 5) {
            Buffer bad = enc;
            bad[flip] ^= 0x81;
            expectDecodeValuesAgree(bad);
        }
    }
}

TEST(BulkDifferential, DecodeValuesOnOverlongIndices)
{
    // Hand-built dict stream using overlong index encodings the
    // encoder never emits but the scalar decoder accepts: tag=1, n=3,
    // d=2, dict={-1, 3}, indices {1, overlong 0, overlong 1}.
    Buffer s{0x01, 0x03, 0x02};
    putSignedVarint(s, -1);
    putSignedVarint(s, 3);
    s.push_back(0x01);             // index 1
    for (uint8_t b : {0x80, 0x00})             // index 0, 2-byte form
        s.push_back(b);
    for (uint8_t b : {0x81, 0x80, 0x00})       // index 1, 3-byte form
        s.push_back(b);
    std::vector<int64_t> scalar, bulk;
    ASSERT_TRUE(decodeValuesScalar(s, scalar));
    ASSERT_TRUE(decodeValues(s, bulk));
    EXPECT_EQ(scalar, (std::vector<int64_t>{3, -1, 3}));
    EXPECT_EQ(bulk, scalar);
}

TEST(BulkDifferential, EncodeBulkDecodeRoundTripProperty)
{
    // Property: for arbitrary value distributions, encode ->
    // bulk-decode is the identity (and the scalar decoder agrees).
    Rng rng(60601);
    for (int iter = 0; iter < 40; ++iter) {
        size_t n = rng.nextUint(2000);
        uint32_t mode = static_cast<uint32_t>(rng.nextUint(4));
        std::vector<int64_t> vals;
        vals.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            switch (mode) {
              case 0: // constant
                vals.push_back(42);
                break;
              case 1: // small dup-heavy (dict)
                vals.push_back(
                    static_cast<int64_t>(rng.nextUint(64)));
                break;
              case 2: // hashed ids (dict, large values)
                vals.push_back(static_cast<int64_t>(
                    rng.nextUint(500) * 0x9e3779b97f4a7c15ULL >> 1));
                break;
              default: // unique (direct), signed
                vals.push_back(static_cast<int64_t>(rng.next()));
                break;
            }
        }
        Buffer enc;
        encodeValues(vals, enc);
        std::vector<int64_t> bulk, scalar;
        ASSERT_TRUE(decodeValues(enc, bulk));
        ASSERT_TRUE(decodeValuesScalar(enc, scalar));
        EXPECT_EQ(bulk, vals);
        EXPECT_EQ(scalar, vals);

        Buffer renc;
        rleEncode(vals, renc);
        std::vector<int64_t> rbulk, rscalar;
        ASSERT_TRUE(rleDecode(renc, rbulk));
        ASSERT_TRUE(rleDecodeScalar(renc, rscalar));
        EXPECT_EQ(rbulk, vals);
        EXPECT_EQ(rscalar, vals);
    }
}

class CodecParamTest : public ::testing::TestWithParam<Codec>
{
};

TEST_P(CodecParamTest, EmptyRoundTrip)
{
    Buffer out;
    compress(GetParam(), {}, out);
    auto back = decompress(GetParam(), out);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->empty());
}

TEST_P(CodecParamTest, RandomBytesRoundTrip)
{
    Rng rng(123);
    for (size_t len : {1u, 2u, 100u, 4096u, 100000u}) {
        Buffer in(len);
        for (auto &b : in)
            b = static_cast<uint8_t>(rng.next());
        Buffer out;
        compress(GetParam(), in, out);
        auto back = decompress(GetParam(), out);
        ASSERT_TRUE(back.has_value()) << "len=" << len;
        EXPECT_EQ(*back, in) << "len=" << len;
    }
}

TEST_P(CodecParamTest, RepetitiveBytesRoundTrip)
{
    Buffer in;
    for (int i = 0; i < 3000; ++i) {
        const char *s = "feature_stream_payload_";
        in.insert(in.end(), s, s + 24);
    }
    Buffer out;
    compress(GetParam(), in, out);
    auto back = decompress(GetParam(), out);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, in);
}

INSTANTIATE_TEST_SUITE_P(Codecs, CodecParamTest,
                         ::testing::Values(Codec::None, Codec::Lz));

TEST(Lz, CompressesRedundantData)
{
    Buffer in;
    for (int i = 0; i < 1000; ++i) {
        const char *s = "abcdefgh";
        in.insert(in.end(), s, s + 8);
    }
    Buffer out;
    compress(Codec::Lz, in, out);
    EXPECT_LT(out.size(), in.size() / 10);
}

TEST(Lz, OverlappingMatchesDecodeCorrectly)
{
    // 'aaaa...' forces self-overlapping match copies.
    Buffer in(5000, 'a');
    Buffer out;
    compress(Codec::Lz, in, out);
    EXPECT_LT(out.size(), 64u);
    auto back = decompress(Codec::Lz, out);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, in);
}

TEST(Lz, MalformedInputRejected)
{
    Buffer junk{0xff, 0xff, 0xff, 0xff, 0x01, 0x02};
    auto out = decompress(Codec::Lz, junk);
    EXPECT_FALSE(out.has_value());
}

TEST(Cipher, ApplyTwiceRestores)
{
    Rng rng(9);
    Buffer data(999);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.next());
    Buffer orig = data;
    StreamCipher c(0x1234);
    c.apply(42, data);
    EXPECT_NE(data, orig);
    c.apply(42, data);
    EXPECT_EQ(data, orig);
}

TEST(Cipher, DifferentNoncesDiffer)
{
    Buffer a(256, 0), b(256, 0);
    StreamCipher c(0x1234);
    c.apply(1, a);
    c.apply(2, b);
    EXPECT_NE(a, b);
}

TEST(Cipher, DifferentKeysDiffer)
{
    Buffer a(256, 0), b(256, 0);
    StreamCipher c1(0x1111), c2(0x2222);
    c1.apply(7, a);
    c2.apply(7, b);
    EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------
// CRC32-C: hardware kernel against the portable table.

TEST(Crc32, KnownAnswer)
{
    // RFC 3720 (iSCSI) check value for CRC32-C.
    std::string_view check = "123456789";
    ByteSpan bytes(reinterpret_cast<const uint8_t *>(check.data()),
                   check.size());
    EXPECT_EQ(crc32(bytes), 0xE3069283u);
    EXPECT_EQ(crc32Portable(bytes), 0xE3069283u);
    EXPECT_EQ(crc32(ByteSpan{}), 0u);
    EXPECT_EQ(crc32Portable(ByteSpan{}), 0u);
}

TEST(Crc32, HardwareMatchesPortableOnEveryLengthAndAlignment)
{
    if (!crc32IsHardware())
        std::cout << "note: no SSE4.2; crc32() is the portable path\n";
    Rng rng(3720);
    Buffer data((1u << 20) + 8);
    for (auto &b : data)
        b = static_cast<uint8_t>(rng.next());
    for (size_t align = 0; align < 8; ++align) {
        for (size_t len = 0; len <= 1024; ++len) {
            ByteSpan span(data.data() + align, len);
            ASSERT_EQ(crc32(span), crc32Portable(span))
                << "align=" << align << " len=" << len;
        }
        ByteSpan mib(data.data() + align, 1u << 20);
        EXPECT_EQ(crc32(mib), crc32Portable(mib)) << "align=" << align;
    }
}

// ---------------------------------------------------------------------
// Byte identity of the encoders. The digests below were recorded from
// the original kernels (fresh hash table per LZ call, std::map value
// dictionary); any change to them changes stored bytes, footer
// checksums and storage block stamps.

uint64_t
fnv1a(const Buffer &bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

Buffer
randomBytes(Rng &rng, size_t n)
{
    Buffer out(n);
    for (auto &b : out)
        b = static_cast<uint8_t>(rng.next());
    return out;
}

/** Seeded LZ inputs: tiny, runs, random, and past the 64 KiB offset cap. */
std::vector<Buffer>
lzCorpus()
{
    Rng rng(1301);
    std::vector<Buffer> corpus;
    corpus.push_back({});
    corpus.push_back({0x42});
    corpus.push_back({0x42, 0x42});
    corpus.push_back({0x01, 0x02, 0x03});
    corpus.push_back(Buffer(5000, 'a'));
    Buffer runs; // runs of random length and byte
    for (int r = 0; r < 400; ++r)
        runs.insert(runs.end(), 1 + rng.nextUint(60),
                    static_cast<uint8_t>(rng.next()));
    corpus.push_back(std::move(runs));
    corpus.push_back(randomBytes(rng, 4096));
    corpus.push_back(randomBytes(rng, 100000));
    Buffer text;
    for (int i = 0; i < 3000; ++i) {
        std::string_view s = "feature_stream_payload_";
        text.insert(text.end(), s.begin(), s.end());
    }
    corpus.push_back(std::move(text));
    // A block repeated beyond the offset cap (no match allowed), then
    // once at exactly the cap and once just past it.
    Buffer far = randomBytes(rng, 30000);
    Buffer filler = randomBytes(rng, 70000);
    Buffer capped = far;
    capped.insert(capped.end(), filler.begin(), filler.end());
    capped.insert(capped.end(), far.begin(), far.end());
    Buffer probe(capped.end() - 64, capped.end());
    Buffer gap = randomBytes(rng, 0xffff - 64);
    capped.insert(capped.end(), gap.begin(), gap.end());
    capped.insert(capped.end(), probe.begin(), probe.end());
    gap = randomBytes(rng, 0xffff - 63);
    capped.insert(capped.end(), gap.begin(), gap.end());
    capped.insert(capped.end(), probe.begin(), probe.end());
    corpus.push_back(std::move(capped));
    // Four-symbol bytes: dense short matches over 200 KiB.
    Buffer alphabet(200000);
    for (auto &b : alphabet)
        b = static_cast<uint8_t>('w' + rng.nextUint(4));
    corpus.push_back(std::move(alphabet));
    // A dictionary-encoded id stream, as feature streams look.
    std::vector<int64_t> ids;
    for (int i = 0; i < 20000; ++i) {
        uint64_t rank = rng.nextUint(64) * rng.nextUint(64);
        ids.push_back(static_cast<int64_t>(rank * 0x9e3779b97f4a7c15ULL));
    }
    Buffer id_stream;
    encodeValues(ids, id_stream);
    corpus.push_back(std::move(id_stream));
    return corpus;
}

constexpr uint64_t kLzDigests[] = {
    0xaf63bd4c8601b7dfULL, 0xb4f3f9774bc1c57dULL, 0x7aa1704010c46fdfULL,
    0xf6890dfa3a42bca7ULL, 0x9ab1f20ddd99d167ULL, 0x77397b1b66640465ULL,
    0x8798e6e20ecb06d3ULL, 0x6b815101488e56f3ULL, 0x1ee10cf4db8d0bdaULL,
    0x83f6a68a86af0333ULL, 0x81958c29ba61e105ULL, 0x1de18e2c279af444ULL,
};

std::vector<uint64_t>
lzDigests(const std::vector<Buffer> &corpus)
{
    std::vector<uint64_t> out;
    for (const Buffer &in : corpus) {
        Buffer enc;
        compress(Codec::Lz, in, enc);
        out.push_back(fnv1a(enc));
    }
    return out;
}

std::string
hexList(const std::vector<uint64_t> &digests)
{
    std::string s;
    char buf[32];
    for (uint64_t d : digests) {
        std::snprintf(buf, sizeof(buf), "0x%016llxULL, ",
                      static_cast<unsigned long long>(d));
        s += buf;
    }
    return s;
}

TEST(CodecIdentity, LzBytesMatchPinnedDigests)
{
    const auto corpus = lzCorpus();
    ASSERT_EQ(corpus.size(), std::size(kLzDigests));
    const auto got = lzDigests(corpus);
    EXPECT_EQ(got, std::vector<uint64_t>(std::begin(kLzDigests),
                                         std::end(kLzDigests)))
        << "digests: " << hexList(got);
    for (const Buffer &in : corpus) {
        Buffer enc;
        compress(Codec::Lz, in, enc);
        auto back = decompress(Codec::Lz, enc);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, in);
    }
}

TEST(CodecIdentity, LzTableReuseMatchesFreshThread)
{
    // Large, small, large on one thread: the second large call sees a
    // table full of the earlier calls' entries and must still emit
    // what a thread with a fresh table emits.
    const auto corpus = lzCorpus();
    const Buffer &large = corpus[9];
    const Buffer &small = corpus[6];
    auto encode = [](const Buffer &in) {
        Buffer enc;
        compress(Codec::Lz, in, enc);
        return enc;
    };
    Buffer fresh_large, fresh_small;
    std::thread([&] { fresh_large = encode(large); }).join();
    std::thread([&] { fresh_small = encode(small); }).join();
    EXPECT_EQ(encode(large), fresh_large);
    EXPECT_EQ(encode(small), fresh_small);
    EXPECT_EQ(encode(large), fresh_large);
}

TEST(CodecIdentity, LzConcurrentCompressorsMatchPinnedDigests)
{
    const auto corpus = lzCorpus();
    const std::vector<uint64_t> want(std::begin(kLzDigests),
                                     std::end(kLzDigests));
    constexpr size_t kThreads = 8;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Each thread walks the corpus from a different start.
            for (int pass = 0; pass < 3; ++pass) {
                for (size_t k = 0; k < corpus.size(); ++k) {
                    size_t i = (k + t) % corpus.size();
                    Buffer enc;
                    compress(Codec::Lz, corpus[i], enc);
                    mismatches[t] += fnv1a(enc) != want[i];
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

/** Hand-built LZ block: literals, then one match. */
Buffer
lzBlock(std::string_view literals, uint64_t match_len, uint64_t offset)
{
    Buffer b;
    putVarint(b, literals.size() + match_len);
    putVarint(b, literals.size());
    b.insert(b.end(), literals.begin(), literals.end());
    putVarint(b, match_len);
    putVarint(b, offset);
    return b;
}

TEST(Lz, SelfOverlappingAndAdjacentMatchesDecode)
{
    const std::string_view pattern = "ABCDEFGH";
    for (uint64_t offset = 1; offset <= 8; ++offset) {
        const uint64_t match_len = 29; // > offset: self-overlapping
        auto back = decompress(
            Codec::Lz, lzBlock(pattern.substr(0, offset), match_len,
                               offset));
        ASSERT_TRUE(back.has_value()) << "offset=" << offset;
        ASSERT_EQ(back->size(), offset + match_len);
        for (size_t i = 0; i < back->size(); ++i)
            EXPECT_EQ((*back)[i], pattern[i % offset])
                << "offset=" << offset << " i=" << i;
    }
    // offset == match_len: the copy ends exactly where it starts
    // writing, so source and destination just touch.
    for (uint64_t len : {1u, 4u, 8u, 300u}) {
        std::string literals;
        for (uint64_t i = 0; i < len; ++i)
            literals.push_back(static_cast<char>('a' + i % 26));
        auto back = decompress(Codec::Lz, lzBlock(literals, len, len));
        ASSERT_TRUE(back.has_value()) << "len=" << len;
        EXPECT_EQ(std::string(back->begin(), back->end()),
                  literals + literals);
    }
}

/** Seeded encodeValues inputs around the dict-or-direct boundaries. */
std::vector<std::vector<int64_t>>
valueCorpus()
{
    Rng rng(4096);
    std::vector<std::vector<int64_t>> corpus;
    corpus.push_back({});
    corpus.push_back({-42});
    for (int64_t distinct : {4096, 4097}) { // dict cap: in, then out
        std::vector<int64_t> v;
        for (int rep = 0; rep < 3; ++rep)
            for (int64_t i = 0; i < distinct; ++i)
                v.push_back((i * 7919) - 5000);
        corpus.push_back(std::move(v));
    }
    std::vector<int64_t> all_distinct; // d == n
    for (int i = 0; i < 1000; ++i)
        all_distinct.push_back(static_cast<int64_t>(rng.next()));
    corpus.push_back(std::move(all_distinct));
    // zigzag(100) takes two bytes: three copies cost 6 bytes either
    // way (a tie, so direct), four favour the dictionary (7 vs 8).
    corpus.push_back({100, 100, 100});
    corpus.push_back({100, 100, 100, 100});
    std::vector<int64_t> skewed;
    for (int i = 0; i < 20000; ++i) {
        uint64_t rank = rng.nextUint(64) * rng.nextUint(64);
        skewed.push_back(static_cast<int64_t>(rank * 0x9e3779b97f4a7c15ULL));
    }
    corpus.push_back(std::move(skewed));
    std::vector<int64_t> extremes;
    for (int i = 0; i < 500; ++i) {
        int64_t pick[] = {INT64_MIN, INT64_MAX, -1, 0, 1,
                          static_cast<int64_t>(rng.nextUint(1u << 20))};
        extremes.push_back(pick[rng.nextUint(6)]);
    }
    corpus.push_back(std::move(extremes));
    return corpus;
}

constexpr uint64_t kValueDigests[] = {
    0x08328807b4eb6fedULL, 0xd949db186c0c9c6bULL, 0x404ac13c34b861d8ULL,
    0x115f7683ff8cca93ULL, 0xcba6133da287545fULL, 0xcda7e0209c80eed7ULL,
    0x1b6aadb33e82ec98ULL, 0x3086b059160b355eULL, 0x7373a3110f64512fULL,
};

TEST(CodecIdentity, EncodeValuesBytesMatchPinnedDigests)
{
    const auto corpus = valueCorpus();
    ASSERT_EQ(corpus.size(), std::size(kValueDigests));
    std::vector<uint64_t> got;
    std::vector<uint8_t> tags;
    for (const auto &values : corpus) {
        Buffer enc;
        encodeValues(values, enc);
        got.push_back(fnv1a(enc));
        tags.push_back(enc[0]);
        std::vector<int64_t> back;
        ASSERT_TRUE(decodeValues(enc, back));
        EXPECT_EQ(back, values);
    }
    EXPECT_EQ(got, std::vector<uint64_t>(std::begin(kValueDigests),
                                         std::end(kValueDigests)))
        << "digests: " << hexList(got);
    // Representation choices at the boundaries (0 direct, 1 dict).
    EXPECT_EQ(tags[2], 0x01); // 4096 distinct: at the dict cap
    EXPECT_EQ(tags[3], 0x00); // 4097 distinct: past it
    EXPECT_EQ(tags[4], 0x00); // d == n
    EXPECT_EQ(tags[5], 0x00); // tie goes to direct
    EXPECT_EQ(tags[6], 0x01);
    EXPECT_EQ(tags[7], 0x01);
}

} // namespace
} // namespace dsi::dwrf
