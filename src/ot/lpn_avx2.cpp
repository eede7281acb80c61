/**
 * @file
 * AVX2 bit kernel of the LPN gather-XOR. This translation unit is the
 * only one compiled with -mavx2; dispatch in lpn.cpp is guarded by a
 * runtime CPUID check (mirroring the AES-NI engine in
 * crypto/aes_ni.cpp), so the binary still runs on SSE2-only machines.
 */

#include "ot/lpn.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__)
#include <immintrin.h>
#define IRONMAN_HAVE_AVX2_BUILD 1
#endif

namespace ironman::ot::detail {

bool
lpnAvx2Supported()
{
#ifdef IRONMAN_HAVE_AVX2_BUILD
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

#ifdef IRONMAN_HAVE_AVX2_BUILD

namespace {

constexpr size_t kLane = LpnIndexTape::kLane;

} // namespace

void
lpnBitGatherXorAvx2(const uint64_t *in_words, uint64_t *inout_words,
                    const uint32_t *tape, size_t rows, unsigned d)
{
    // One 8-row lane group per iteration: vpgatherdd fetches the
    // 32-bit words holding each tap's bit, vpsrlvd aligns the bits to
    // lane bit 0, and the group's eight result bits leave as one
    // movemask byte.
    const int *in32 = reinterpret_cast<const int *>(in_words);
    uint8_t *out_bytes = reinterpret_cast<uint8_t *>(inout_words);
    const __m256i low5 = _mm256_set1_epi32(31);
    size_t r = 0;
    for (; r + kLane <= rows; r += kLane) {
        const uint32_t *g = tape + (r / kLane) * size_t(d) * kLane;
        __m256i acc = _mm256_setzero_si256();
        for (unsigned i = 0; i < d; ++i) {
            const __m256i idx = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(g + i * kLane));
            const __m256i words = _mm256_i32gather_epi32(
                in32, _mm256_srli_epi32(idx, 5), 4);
            acc = _mm256_xor_si256(
                acc, _mm256_srlv_epi32(words,
                                       _mm256_and_si256(idx, low5)));
        }
        const int mask = _mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_slli_epi32(acc, 31)));
        out_bytes[r / 8] ^= uint8_t(mask);
    }
    for (; r < rows; ++r) {
        const uint32_t *g = tape + (r / kLane) * size_t(d) * kLane +
                            (r % kLane);
        uint64_t bit = 0;
        for (unsigned i = 0; i < d; ++i) {
            const uint32_t idx = g[i * kLane];
            bit ^= (in_words[idx >> 6] >> (idx & 63)) & 1;
        }
        inout_words[r >> 6] ^= bit << (r & 63);
    }
}

#else // !IRONMAN_HAVE_AVX2_BUILD

void
lpnBitGatherXorAvx2(const uint64_t *, uint64_t *, const uint32_t *,
                    size_t, unsigned)
{
    // Unreachable: lpnAvx2Supported() returned false.
}

#endif

} // namespace ironman::ot::detail
