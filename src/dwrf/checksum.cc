#include "checksum.h"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <nmmintrin.h>
#endif

namespace dsi::dwrf {

namespace {

constexpr uint32_t kPoly = 0x82f63b78; // CRC32-C, reflected

struct Crc32Table
{
    uint32_t entries[256];

    constexpr Crc32Table() : entries()
    {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t crc = i;
            for (int k = 0; k < 8; ++k)
                crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
            entries[i] = crc;
        }
    }
};

constexpr Crc32Table kTable;

using CrcFn = uint32_t (*)(ByteSpan);

#if defined(__x86_64__)

// The crc32 instruction implements exactly the reflected CRC32-C
// update of the table loop, one u64 (eight input bytes, little-endian)
// per step; the tail goes a byte at a time.
__attribute__((target("sse4.2"))) uint32_t
crc32Sse42(ByteSpan data)
{
    const uint8_t *p = data.data();
    size_t n = data.size();
    uint64_t crc = 0xffffffff;
    for (; n >= 8; p += 8, n -= 8) {
        uint64_t word;
        std::memcpy(&word, p, 8);
        crc = _mm_crc32_u64(crc, word);
    }
    auto tail = static_cast<uint32_t>(crc);
    for (; n > 0; ++p, --n)
        tail = _mm_crc32_u8(tail, *p);
    return tail ^ 0xffffffff;
}

CrcFn
resolveCrc()
{
    unsigned eax, ebx, ecx, edx;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) && (ecx & bit_SSE4_2))
        return crc32Sse42;
    return crc32Portable;
}

#else

CrcFn
resolveCrc()
{
    return crc32Portable;
}

#endif

// A function-local static, so the first caller resolves it whatever
// the static-initialization order of the calling translation unit.
CrcFn
crcKernel()
{
    static const CrcFn fn = resolveCrc();
    return fn;
}

} // namespace

uint32_t
crc32Portable(ByteSpan data)
{
    uint32_t crc = 0xffffffff;
    for (uint8_t b : data)
        crc = (crc >> 8) ^ kTable.entries[(crc ^ b) & 0xff];
    return crc ^ 0xffffffff;
}

uint32_t
crc32(ByteSpan data)
{
    return crcKernel()(data);
}

bool
crc32IsHardware()
{
    return crcKernel() != &crc32Portable;
}

} // namespace dsi::dwrf
