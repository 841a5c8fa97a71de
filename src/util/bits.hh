/**
 * @file
 * Bit-manipulation helpers shared by the hash tables and cache models.
 */

#ifndef DARKSIDE_UTIL_BITS_HH
#define DARKSIDE_UTIL_BITS_HH

#include <cstdint>

namespace darkside {

/** @return true when x is a power of two (and non-zero). */
constexpr bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** @return floor(log2(x)); requires x > 0. */
constexpr unsigned
floorLog2(std::uint64_t x)
{
    unsigned l = 0;
    while (x >>= 1)
        ++l;
    return l;
}

/** @return the smallest power of two >= x; requires x >= 1. */
constexpr std::uint64_t
ceilPowerOfTwo(std::uint64_t x)
{
    std::uint64_t p = 1;
    while (p < x)
        p <<= 1;
    return p;
}

/**
 * Mix a 64-bit key into a well-distributed hash (finalizer from
 * MurmurHash3). The Viterbi accelerator's XOR folding hash
 * (UNFOLD Sec. III-A) is implemented separately in nbest/; this mix is
 * used where an implementation-quality hash is wanted (std containers).
 */
constexpr std::uint64_t
mix64(std::uint64_t k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return k;
}

/**
 * The hardware hash used by UNFOLD-style hypothesis tables: XOR-fold the
 * state id down to the index width. Cheap in gates (a XOR tree), which is
 * why the accelerator uses it; the quality is what Figs. 7/9 measure.
 * The loop stops once the key's remaining high bits are all zero: the
 * folds past them add nothing, so the index equals folding all 64 bits.
 *
 * @param key the hypothesis' WFST state id
 * @param index_bits log2 of the number of sets/entries (< 64)
 */
constexpr std::uint32_t
xorFoldHash(std::uint64_t key, unsigned index_bits)
{
    if (index_bits == 0)
        return 0; // a single set/entry: everything maps to it
    std::uint64_t h = key;
    for (std::uint64_t rest = key >> index_bits; rest != 0;
         rest >>= index_bits)
        h ^= rest;
    return static_cast<std::uint32_t>(h & ((1ull << index_bits) - 1));
}

} // namespace darkside

#endif // DARKSIDE_UTIL_BITS_HH
