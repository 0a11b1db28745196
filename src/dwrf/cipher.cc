#include "cipher.h"

#include <bit>
#include <cstring>

#include "common/rng.h"

namespace dsi::dwrf {

// Keystream byte b of a draw is bits [8b, 8b+8) of the u64; the word
// XOR below applies it to input byte b only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "StreamCipher::apply assumes a little-endian host");

void
StreamCipher::apply(uint64_t nonce, Buffer &data) const
{
    Rng keystream(key_ ^ (nonce * 0x9e3779b97f4a7c15ULL));
    uint8_t *p = data.data();
    const size_t n = data.size();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t word;
        std::memcpy(&word, p + i, 8);
        word ^= keystream.next();
        std::memcpy(p + i, &word, 8);
    }
    if (i < n) {
        uint64_t ks = keystream.next();
        for (int b = 0; i < n; ++i, ++b)
            p[i] ^= static_cast<uint8_t>(ks >> (8 * b));
    }
}

} // namespace dsi::dwrf
