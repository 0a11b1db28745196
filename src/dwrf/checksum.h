/**
 * @file
 * CRC32 (Castagnoli polynomial) for stream integrity.
 *
 * Production storage verifies every stream read; a corrupted block is
 * re-fetched from another replica. Our reader verifies each stored
 * stream against the footer checksum; on mismatch it returns
 * ReadStatus::ChecksumMismatch, reports the bad range through
 * RandomAccessSource::reportCorruption (so a replicated backend can
 * read-repair it), and retries the stripe. The same CRC stamps
 * Tectonic blocks and checkpoint-journal records.
 *
 * crc32() runs the SSE4.2 `crc32` instruction eight bytes at a time
 * when the CPU has it (checked once with cpuid on first call) and the
 * bytewise table otherwise. Both produce the same value for every
 * input; crc32Portable() is the table path, kept as the fallback and
 * as the differential reference in tests.
 */

#ifndef DSI_DWRF_CHECKSUM_H
#define DSI_DWRF_CHECKSUM_H

#include <cstdint>

#include "dwrf/encoding.h"

namespace dsi::dwrf {

/** CRC32-C of a byte span (hardware path when available). */
uint32_t crc32(ByteSpan data);

/** CRC32-C through the bytewise table; same result as crc32(). */
uint32_t crc32Portable(ByteSpan data);

/** True when crc32() dispatches to the SSE4.2 instruction. */
bool crc32IsHardware();

} // namespace dsi::dwrf

#endif // DSI_DWRF_CHECKSUM_H
