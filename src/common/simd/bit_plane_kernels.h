// The bit-plane kernels (simd.h), written once in portable C++ and
// compiled into each backend's translation unit: the scalar table gets
// them as they stand, the AVX2 table gets the same source built with
// -mavx2, where std::popcount becomes one POPCNT instruction (every
// AVX2 CPU has POPCNT). Everything here has internal linkage, so the two
// builds never merge at link time.
//
// A 64-value group of a 1- or 2-bit stream is split into bit planes
// (value bit 0 and value bit 1 of all 64 values, one word each) with
// shift-and-mask steps, then counted with popcounts.

#ifndef CORRA_COMMON_SIMD_BIT_PLANE_KERNELS_H_
#define CORRA_COMMON_SIMD_BIT_PLANE_KERNELS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace corra::simd::internal {

namespace {

// Calls body(group, mask) for every 64-value group overlapping [begin,
// begin + count); `mask` selects the group's values inside the range.
template <typename Body>
inline void ForEachGroup64(size_t begin, size_t count, Body&& body) {
  if (count == 0) {
    return;
  }
  const size_t end = begin + count;
  const size_t first = begin >> 6;
  const size_t last = (end - 1) >> 6;
  for (size_t g = first; g <= last; ++g) {
    uint64_t mask = ~uint64_t{0};
    if (g == first) {
      mask &= ~uint64_t{0} << (begin & 63);
    }
    if (g == last) {
      mask &= ~uint64_t{0} >> (63 - ((end - 1) & 63));
    }
    body(g, mask);
  }
}

// Bits 0, 2, 4, ... of x packed into the low 32 bits (pext by
// 0x5555...).
inline uint64_t EvenBits(uint64_t x) {
  x &= 0x5555555555555555ULL;
  x = (x | (x >> 1)) & 0x3333333333333333ULL;
  x = (x | (x >> 2)) & 0x0F0F0F0F0F0F0F0FULL;
  x = (x | (x >> 4)) & 0x00FF00FF00FF00FFULL;
  x = (x | (x >> 8)) & 0x0000FFFF0000FFFFULL;
  return (x | (x >> 16)) & 0x00000000FFFFFFFFULL;
}

// The bit planes of 64-value group `g` of a 1- or 2-bit stream: bit j
// of *lo is value j's bit 0, bit j of *hi its bit 1 (0 at width 1).
inline void SplitPlanes(const uint8_t* data, int bit_width, size_t g,
                        uint64_t* lo, uint64_t* hi) {
  const uint8_t* group = data + 8 * static_cast<size_t>(bit_width) * g;
  uint64_t a;
  std::memcpy(&a, group, sizeof(a));
  if (bit_width == 1) {
    *lo = a;
    *hi = 0;
    return;
  }
  uint64_t b;
  std::memcpy(&b, group + 8, sizeof(b));
  *lo = EvenBits(a) | (EvenBits(b) << 32);
  *hi = EvenBits(a >> 1) | (EvenBits(b >> 1) << 32);
}

// Rows whose 2-bit value (lo, hi) is in the set `t` (t[c] all ones when
// value c is a member, else zero).
inline uint64_t MemberMask(uint64_t lo, uint64_t hi, const uint64_t* t) {
  return (~lo & ~hi & t[0]) | (lo & ~hi & t[1]) | (~lo & hi & t[2]) |
         (lo & hi & t[3]);
}

inline uint64_t Popcount(uint64_t x) {
  return static_cast<uint64_t>(std::popcount(x));
}

void CountValuesPortable(const uint8_t* data, int bit_width, size_t begin,
                         size_t count, uint64_t* counts) {
  uint64_t n1 = 0, n2 = 0, n3 = 0;
  ForEachGroup64(begin, count, [&](size_t g, uint64_t mask) {
    uint64_t lo, hi;
    SplitPlanes(data, bit_width, g, &lo, &hi);
    n1 += Popcount(lo & ~hi & mask);
    n2 += Popcount(~lo & hi & mask);
    n3 += Popcount(lo & hi & mask);
  });
  counts[0] = count - n1 - n2 - n3;
  counts[1] = n1;
  if (bit_width == 2) {
    counts[2] = n2;
    counts[3] = n3;
  }
}

void CountSelectedBitsPortable(const uint8_t* codes, int code_bits,
                               const uint8_t* bits, size_t begin,
                               size_t count, uint32_t members,
                               uint64_t* selected) {
  uint64_t t[4];
  for (uint32_t c = 0; c < 4; ++c) {
    t[c] = uint64_t{0} - ((members >> c) & 1u);
  }
  uint64_t zeros = 0, ones = 0;
  ForEachGroup64(begin, count, [&](size_t g, uint64_t mask) {
    uint64_t lo, hi;
    SplitPlanes(codes, code_bits, g, &lo, &hi);
    const uint64_t member = MemberMask(lo, hi, t) & mask;
    uint64_t b;
    std::memcpy(&b, bits + 8 * g, sizeof(b));
    zeros += Popcount(member & ~b);
    ones += Popcount(member & b);
  });
  selected[0] = zeros;
  selected[1] = ones;
}

}  // namespace

}  // namespace corra::simd::internal

#endif  // CORRA_COMMON_SIMD_BIT_PLANE_KERNELS_H_
