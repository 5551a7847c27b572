// Runtime dispatch of the SIMD kernel layer: probe the CPU once, honor
// the CORRA_FORCE_SCALAR escape hatch, and expose the public kernels as
// thin wrappers over the selected table.

#include "common/simd/simd.h"

#include <cstdlib>
#include <cstring>

#include "common/simd/kernel_table.h"

namespace corra::simd {

namespace internal {

namespace {

bool ForceScalarFromEnv() {
  // Set to anything but "0" — including the empty string — to force the
  // scalar table, matching the documented contract in simd.h.
  const char* value = std::getenv("CORRA_FORCE_SCALAR");
  return value != nullptr && std::strcmp(value, "0") != 0;
}

bool CpuHasAvx2() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const KernelTable& SelectTable() {
  if (const KernelTable* avx2 = Avx2Table();
      avx2 != nullptr && CpuHasAvx2() && !ForceScalarFromEnv()) {
    return *avx2;
  }
  return ScalarTable();
}

}  // namespace

const KernelTable& ActiveTable() {
  // Resolved once; every later call is a single load.
  static const KernelTable& table = SelectTable();
  return table;
}

}  // namespace internal

using internal::ActiveTable;
using internal::ScalarTable;

Backend ActiveBackend() {
  return &ActiveTable() == &ScalarTable() ? Backend::kScalar : Backend::kAvx2;
}

const char* BackendName() { return ActiveTable().name; }

void UnpackRange(const uint8_t* data, int bit_width, size_t begin,
                 size_t count, uint64_t* out) {
  internal::UnpackRangeWith(ActiveTable(), data, bit_width, begin, count,
                            out);
}

void UnpackRangeScalar(const uint8_t* data, int bit_width, size_t begin,
                       size_t count, uint64_t* out) {
  internal::UnpackRangeWith(ScalarTable(), data, bit_width, begin, count,
                            out);
}

size_t FilterInRange(const int64_t* values, size_t count, int64_t lo,
                     int64_t hi, uint32_t row_base, uint32_t* out_rows) {
  return ActiveTable().filter_i64(values, count, lo, hi, row_base, out_rows);
}

size_t FilterInRangeScalar(const int64_t* values, size_t count, int64_t lo,
                           int64_t hi, uint32_t row_base,
                           uint32_t* out_rows) {
  return ScalarTable().filter_i64(values, count, lo, hi, row_base, out_rows);
}

size_t FilterInRangeU64(const uint64_t* codes, size_t count, uint64_t lo,
                        uint64_t hi, uint32_t row_base, uint32_t* out_rows) {
  return ActiveTable().filter_u64(codes, count, lo, hi, row_base, out_rows);
}

size_t FilterInRangeU64Scalar(const uint64_t* codes, size_t count,
                              uint64_t lo, uint64_t hi, uint32_t row_base,
                              uint32_t* out_rows) {
  return ScalarTable().filter_u64(codes, count, lo, hi, row_base, out_rows);
}

uint64_t SumU64(const uint64_t* values, size_t count) {
  return ActiveTable().sum_u64(values, count);
}

uint64_t SumU64Scalar(const uint64_t* values, size_t count) {
  return ScalarTable().sum_u64(values, count);
}

void MinMaxI64(const int64_t* values, size_t count, int64_t* min,
               int64_t* max) {
  ActiveTable().minmax_i64(values, count, min, max);
}

void MinMaxI64Scalar(const int64_t* values, size_t count, int64_t* min,
                     int64_t* max) {
  ScalarTable().minmax_i64(values, count, min, max);
}

void MinMaxU64(const uint64_t* values, size_t count, uint64_t* min,
               uint64_t* max) {
  ActiveTable().minmax_u64(values, count, min, max);
}

void MinMaxU64Scalar(const uint64_t* values, size_t count, uint64_t* min,
                     uint64_t* max) {
  ScalarTable().minmax_u64(values, count, min, max);
}

void TranslateCodes(const int64_t* dict, const uint64_t* codes, size_t count,
                    int64_t* out) {
  ActiveTable().translate_codes(dict, codes, count, out);
}

void TranslateCodesScalar(const int64_t* dict, const uint64_t* codes,
                          size_t count, int64_t* out) {
  ScalarTable().translate_codes(dict, codes, count, out);
}

void AddConst(int64_t* values, size_t count, int64_t base) {
  ActiveTable().add_const(values, count, base);
}

void AddConstScalar(int64_t* values, size_t count, int64_t base) {
  ScalarTable().add_const(values, count, base);
}

void AddRefAndBase(const int64_t* ref, const uint64_t* deltas, int64_t base,
                   size_t count, int64_t* out) {
  ActiveTable().add_ref_base(ref, deltas, base, count, out);
}

void AddRefAndBaseScalar(const int64_t* ref, const uint64_t* deltas,
                         int64_t base, size_t count, int64_t* out) {
  ScalarTable().add_ref_base(ref, deltas, base, count, out);
}

void AddRefZigZag(const int64_t* ref, const uint64_t* zigzag, size_t count,
                  int64_t* out) {
  ActiveTable().add_ref_zigzag(ref, zigzag, count, out);
}

void AddRefZigZagScalar(const int64_t* ref, const uint64_t* zigzag,
                        size_t count, int64_t* out) {
  ScalarTable().add_ref_zigzag(ref, zigzag, count, out);
}

void ZigZagPrefixSum(const uint64_t* zigzag, size_t count, int64_t seed,
                     int64_t* out) {
  ActiveTable().zigzag_prefix_sum(zigzag, count, seed, out);
}

void ZigZagPrefixSumScalar(const uint64_t* zigzag, size_t count, int64_t seed,
                           int64_t* out) {
  ScalarTable().zigzag_prefix_sum(zigzag, count, seed, out);
}

int64_t ZigZagSumPacked(const uint8_t* data, int bit_width, size_t begin,
                        size_t count) {
  return ActiveTable().zigzag_sum_packed(data, bit_width, begin, count);
}

int64_t ZigZagSumPackedScalar(const uint8_t* data, int bit_width,
                              size_t begin, size_t count) {
  return ScalarTable().zigzag_sum_packed(data, bit_width, begin, count);
}

void DeltaDecodePacked(const uint8_t* data, int bit_width, size_t begin,
                       size_t count, int64_t seed, int64_t* out) {
  ActiveTable().delta_decode(data, bit_width, begin, count, seed, out);
}

void DeltaDecodePackedScalar(const uint8_t* data, int bit_width, size_t begin,
                             size_t count, int64_t seed, int64_t* out) {
  ScalarTable().delta_decode(data, bit_width, begin, count, seed, out);
}

DeltaPointFn ResolveDeltaPointKernel() { return ActiveTable().delta_point; }

int64_t DeltaPointPacked(const uint8_t* data, int bit_width,
                         const int64_t* checkpoints, int interval_shift,
                         size_t column_rows, size_t row) {
  return ActiveTable().delta_point(data, bit_width, checkpoints,
                                   interval_shift, column_rows, row);
}

int64_t DeltaPointPackedScalar(const uint8_t* data, int bit_width,
                               const int64_t* checkpoints, int interval_shift,
                               size_t column_rows, size_t row) {
  return ScalarTable().delta_point(data, bit_width, checkpoints,
                                   interval_shift, column_rows, row);
}

void DeltaGatherPacked(const uint8_t* data, int bit_width,
                       const int64_t* checkpoints, int interval_shift,
                       size_t column_rows, const uint32_t* rows, size_t count,
                       int64_t* out) {
  ActiveTable().delta_gather(data, bit_width, checkpoints, interval_shift,
                             column_rows, rows, count, out);
}

void DeltaGatherPackedScalar(const uint8_t* data, int bit_width,
                             const int64_t* checkpoints, int interval_shift,
                             size_t column_rows, const uint32_t* rows,
                             size_t count, int64_t* out) {
  ScalarTable().delta_gather(data, bit_width, checkpoints, interval_shift,
                             column_rows, rows, count, out);
}

DeltaPointInlineFn ResolveDeltaPointInlineKernel() {
  return ActiveTable().delta_point_inline;
}

int64_t DeltaPointInline(const uint8_t* data, int bit_width,
                         int interval_shift, size_t window_stride,
                         size_t column_rows, size_t row) {
  return ActiveTable().delta_point_inline(data, bit_width, interval_shift,
                                          window_stride, column_rows, row);
}

int64_t DeltaPointInlineScalar(const uint8_t* data, int bit_width,
                               int interval_shift, size_t window_stride,
                               size_t column_rows, size_t row) {
  return ScalarTable().delta_point_inline(data, bit_width, interval_shift,
                                          window_stride, column_rows, row);
}

void DeltaGatherInline(const uint8_t* data, int bit_width,
                       int interval_shift, size_t window_stride,
                       size_t column_rows, const uint32_t* rows, size_t count,
                       int64_t* out) {
  ActiveTable().delta_gather_inline(data, bit_width, interval_shift,
                                    window_stride, column_rows, rows, count,
                                    out);
}

void DeltaGatherInlineScalar(const uint8_t* data, int bit_width,
                             int interval_shift, size_t window_stride,
                             size_t column_rows, const uint32_t* rows,
                             size_t count, int64_t* out) {
  ScalarTable().delta_gather_inline(data, bit_width, interval_shift,
                                    window_stride, column_rows, rows, count,
                                    out);
}

void ExpandRuns(const int64_t* run_values, const uint32_t* run_ends,
                size_t run_begin, size_t row_begin, size_t count,
                int64_t* out) {
  ActiveTable().expand_runs(run_values, run_ends, run_begin, row_begin,
                            count, out);
}

void ExpandRunsScalar(const int64_t* run_values, const uint32_t* run_ends,
                      size_t run_begin, size_t row_begin, size_t count,
                      int64_t* out) {
  ScalarTable().expand_runs(run_values, run_ends, run_begin, row_begin,
                            count, out);
}

void GatherBits(const uint8_t* data, int bit_width, const uint32_t* rows,
                size_t count, uint64_t* out) {
  ActiveTable().gather_bits(data, bit_width, rows, count, out);
}

void GatherBitsScalar(const uint8_t* data, int bit_width,
                      const uint32_t* rows, size_t count, uint64_t* out) {
  ScalarTable().gather_bits(data, bit_width, rows, count, out);
}

void CountValues(const uint8_t* data, int bit_width, size_t begin,
                 size_t count, uint64_t* counts) {
  ActiveTable().count_values(data, bit_width, begin, count, counts);
}

void CountValuesScalar(const uint8_t* data, int bit_width, size_t begin,
                       size_t count, uint64_t* counts) {
  ScalarTable().count_values(data, bit_width, begin, count, counts);
}

void CountSelectedBits(const uint8_t* codes, int code_bits,
                       const uint8_t* bits, size_t begin, size_t count,
                       uint32_t members, uint64_t* selected) {
  ActiveTable().count_selected_bits(codes, code_bits, bits, begin, count,
                                    members, selected);
}

void CountSelectedBitsScalar(const uint8_t* codes, int code_bits,
                             const uint8_t* bits, size_t begin, size_t count,
                             uint32_t members, uint64_t* selected) {
  ScalarTable().count_selected_bits(codes, code_bits, bits, begin, count,
                                    members, selected);
}

}  // namespace corra::simd
