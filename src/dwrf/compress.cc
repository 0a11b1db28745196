#include "compress.h"

#include <cstring>

#include "common/logging.h"

namespace dsi::dwrf {

namespace {

// LZ token format (LZ4-flavoured):
//   <varint literal_len> <literals> <varint match_len> <varint offset>
// A match_len of 0 terminates only at end-of-input (no match emitted).
// Matches are at least kMinMatch bytes; offset is distance back into
// the already-decoded output.
constexpr size_t kMinMatch = 4;
constexpr size_t kHashBits = 15;
constexpr size_t kHashSize = 1 << kHashBits;
constexpr size_t kMaxOffset = 0xffff;

inline uint32_t
hash4(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
}

/**
 * Hash table reused by every lzCompress call on this thread. Entries
 * hold `base + pos`; each call takes a fresh base above every value an
 * earlier call stored, so older entries read as empty without clearing
 * the table (zero, below the first base, is empty too).
 */
struct LzTable
{
    std::vector<uint64_t> slots = std::vector<uint64_t>(kHashSize, 0);
    uint64_t next_base = 1;
};

void
lzCompress(ByteSpan in, Buffer &out)
{
    const size_t n = in.size();
    putVarint(out, n); // uncompressed size header
    if (n == 0)
        return;

    thread_local LzTable lz;
    std::vector<uint64_t> &table = lz.slots;
    const uint64_t base = lz.next_base;
    lz.next_base += n;
    size_t pos = 0;
    size_t lit_start = 0;

    auto emit = [&](size_t lit_end, size_t match_len, size_t offset) {
        putVarint(out, lit_end - lit_start);
        out.insert(out.end(), in.begin() + lit_start,
                   in.begin() + lit_end);
        putVarint(out, match_len);
        if (match_len > 0)
            putVarint(out, offset);
        lit_start = lit_end + match_len;
    };

    while (pos + kMinMatch <= n) {
        uint32_t h = hash4(&in[pos]);
        const uint64_t slot = table[h];
        table[h] = base + pos;

        if (slot >= base && pos - (slot - base) <= kMaxOffset &&
            std::memcmp(&in[slot - base], &in[pos], kMinMatch) == 0) {
            const size_t cand = slot - base;
            size_t match_len = kMinMatch;
            while (pos + match_len < n &&
                   in[cand + match_len] == in[pos + match_len]) {
                ++match_len;
            }
            emit(pos, match_len, pos - cand);
            // Re-index a couple of positions inside the match to keep
            // the table warm without the full O(n) insert cost.
            size_t end = pos + match_len;
            for (size_t p = pos + 1; p < end && p + kMinMatch <= n;
                 p += match_len >= 64 ? 16 : 1) {
                table[hash4(&in[p])] = base + p;
            }
            pos = end;
        } else {
            ++pos;
        }
    }
    // Trailing literals.
    if (lit_start < n)
        emit(n, 0, 0);
}

std::optional<Buffer>
lzDecompress(ByteSpan in)
{
    size_t pos = 0;
    uint64_t out_size;
    if (!getVarint(in, pos, out_size))
        return std::nullopt;
    Buffer out;
    out.reserve(out_size);

    while (out.size() < out_size) {
        uint64_t lit_len;
        if (!getVarint(in, pos, lit_len))
            return std::nullopt;
        if (pos + lit_len > in.size() ||
            out.size() + lit_len > out_size) {
            return std::nullopt;
        }
        out.insert(out.end(), in.begin() + pos,
                   in.begin() + pos + lit_len);
        pos += lit_len;
        if (out.size() == out_size)
            break;

        uint64_t match_len;
        if (!getVarint(in, pos, match_len))
            return std::nullopt;
        if (match_len == 0)
            continue;
        uint64_t offset;
        if (!getVarint(in, pos, offset))
            return std::nullopt;
        if (offset == 0 || offset > out.size() ||
            out.size() + match_len > out_size) {
            return std::nullopt;
        }
        const size_t src = out.size() - offset;
        if (offset >= match_len) {
            // Source and destination are disjoint: one bulk copy.
            out.resize(out.size() + match_len);
            std::memcpy(out.data() + src + offset, out.data() + src,
                        match_len);
        } else {
            // Self-overlapping match (RLE-style): each byte may read
            // one written earlier in this same copy.
            for (uint64_t k = 0; k < match_len; ++k)
                out.push_back(out[src + k]);
        }
    }
    return out;
}

} // namespace

void
compress(Codec codec, ByteSpan in, Buffer &out)
{
    switch (codec) {
      case Codec::None:
        putVarint(out, in.size());
        out.insert(out.end(), in.begin(), in.end());
        return;
      case Codec::Lz:
        lzCompress(in, out);
        return;
    }
    dsi_panic("unknown codec %d", static_cast<int>(codec));
}

std::optional<Buffer>
decompress(Codec codec, ByteSpan in)
{
    switch (codec) {
      case Codec::None: {
        size_t pos = 0;
        uint64_t n;
        if (!getVarint(in, pos, n) || pos + n != in.size())
            return std::nullopt;
        return Buffer(in.begin() + pos, in.end());
      }
      case Codec::Lz:
        return lzDecompress(in);
    }
    dsi_panic("unknown codec %d", static_cast<int>(codec));
}

} // namespace dsi::dwrf
