/**
 * @file
 * Block compression for DWRF streams.
 *
 * Production DWRF compresses each stream (zstd in Meta's fleet). We
 * implement an LZ4-style byte-oriented LZ77 codec from scratch — fast,
 * dependency-free, and with realistic (~1.5-2.5x on feature data)
 * ratios so the compressed-vs-uncompressed byte flows of Table IX have
 * the right shape.
 */

#ifndef DSI_DWRF_COMPRESS_H
#define DSI_DWRF_COMPRESS_H

#include <cstdint>
#include <optional>

#include "dwrf/encoding.h"

namespace dsi::dwrf {

/** Stream compression codec identifier (stored in file footers). */
enum class Codec : uint8_t
{
    None = 0, ///< store raw bytes
    Lz = 1,   ///< hash-chain LZ77, LZ4-like token format
};

/**
 * Compress `in` with `codec`, appending to `out`. The output is a
 * self-describing block: callers only need the same codec to decode.
 */
void compress(Codec codec, ByteSpan in, Buffer &out);

/**
 * Decompress a block produced by compress(). Returns std::nullopt on
 * malformed input.
 *
 * The block's leading varint (the raw size) is trusted: Codec::Lz
 * reserves that many bytes up front, so a corrupt header can ask for
 * an allocation that fails. Callers holding untrusted bytes check the
 * header against a size they know first (FileReader::openStream
 * compares it with the footer's StreamInfo::raw_length).
 */
std::optional<Buffer> decompress(Codec codec, ByteSpan in);

} // namespace dsi::dwrf

#endif // DSI_DWRF_COMPRESS_H
