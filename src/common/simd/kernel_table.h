// Internal dispatch table of the SIMD kernel layer (see simd.h).
//
// One KernelTable per backend: simd_scalar.cc always provides one,
// simd_avx2.cc provides one unless compiled out (CORRA_FORCE_SCALAR
// build option or a non-x86 target). simd.cc picks the active table
// once per process.

#ifndef CORRA_COMMON_SIMD_KERNEL_TABLE_H_
#define CORRA_COMMON_SIMD_KERNEL_TABLE_H_

#include <cstddef>
#include <cstdint>

namespace corra::simd::internal {

/// Unpacks exactly 64 values of a fixed width (the table index) from the
/// byte-aligned position `in`. 64 values x W bits = 8*W bytes, so every
/// 64-value block of a packed stream starts on a byte boundary — the
/// property that lets the kernels be specialized per width with all bit
/// positions known at compile time.
using Unpack64Fn = void (*)(const uint8_t* in, uint64_t* out);

/// Widths served by the specialized 64-value kernels; wider values take
/// the generic sequential-cursor path.
inline constexpr int kMaxKernelWidth = 32;

/// Values per specialized unpack kernel call.
inline constexpr size_t kUnpackBlock = 64;

struct KernelTable {
  Unpack64Fn unpack64[kMaxKernelWidth + 1];  // Indexed by bit width.
  size_t (*filter_i64)(const int64_t*, size_t, int64_t, int64_t, uint32_t,
                       uint32_t*);
  size_t (*filter_u64)(const uint64_t*, size_t, uint64_t, uint64_t, uint32_t,
                       uint32_t*);
  uint64_t (*sum_u64)(const uint64_t*, size_t);
  void (*minmax_i64)(const int64_t*, size_t, int64_t*, int64_t*);
  void (*minmax_u64)(const uint64_t*, size_t, uint64_t*, uint64_t*);
  void (*translate_codes)(const int64_t*, const uint64_t*, size_t, int64_t*);
  void (*add_const)(int64_t*, size_t, int64_t);
  void (*add_ref_base)(const int64_t*, const uint64_t*, int64_t, size_t,
                       int64_t*);
  void (*add_ref_zigzag)(const int64_t*, const uint64_t*, size_t, int64_t*);
  void (*zigzag_prefix_sum)(const uint64_t*, size_t, int64_t, int64_t*);
  int64_t (*zigzag_sum_packed)(const uint8_t*, int, size_t, size_t);
  void (*delta_decode)(const uint8_t*, int, size_t, size_t, int64_t,
                       int64_t*);
  int64_t (*delta_point)(const uint8_t*, int, const int64_t*, int, size_t,
                         size_t);
  void (*delta_gather)(const uint8_t*, int, const int64_t*, int, size_t,
                       const uint32_t*, size_t, int64_t*);
  int64_t (*delta_point_inline)(const uint8_t*, int, int, size_t, size_t,
                                size_t);
  void (*delta_gather_inline)(const uint8_t*, int, int, size_t, size_t,
                              const uint32_t*, size_t, int64_t*);
  void (*expand_runs)(const int64_t*, const uint32_t*, size_t, size_t,
                      size_t, int64_t*);
  void (*gather_bits)(const uint8_t*, int, const uint32_t*, size_t,
                      uint64_t*);
  void (*count_values)(const uint8_t*, int, size_t, size_t, uint64_t*);
  void (*count_selected_bits)(const uint8_t*, int, const uint8_t*, size_t,
                              size_t, uint32_t, uint64_t*);
  const char* name;
};

/// The always-available unrolled scalar table.
const KernelTable& ScalarTable();

/// The AVX2 table, or nullptr when compiled out.
const KernelTable* Avx2Table();

/// The table runtime dispatch selected (CPU probe + CORRA_FORCE_SCALAR).
const KernelTable& ActiveTable();

/// Shared driver: scalar head until the next 64-value boundary, then the
/// table's specialized kernel per full block, then a scalar tail. Widths
/// outside [1, kMaxKernelWidth] take the generic path.
void UnpackRangeWith(const KernelTable& table, const uint8_t* data,
                     int bit_width, size_t begin, size_t count,
                     uint64_t* out);

}  // namespace corra::simd::internal

#endif  // CORRA_COMMON_SIMD_KERNEL_TABLE_H_
