// The SIMD kernel layer: the branchless building blocks every morsel of
// the batch decode pipeline bottoms out in.
//
// Kernel families, each with an AVX2 implementation selected by
// runtime CPU dispatch and an unrolled scalar fallback:
//
//   * Unpack kernels  — per-bit-width specialized bit-unpackers (widths
//     0..32 via a generated kernel table processing 64 values per call;
//     a generic sequential-cursor path covers 33..64). BitReader::
//     DecodeRange is a thin wrapper over UnpackRange, so BitPack, FOR,
//     Dict, Delta, DFOR, Diff and every other bit-packed scheme inherit
//     the same kernels.
//   * Predicate kernels — range compares producing selection-vector
//     positions directly (compare -> movemask -> permutation-table
//     left-pack), used by query/filter.cc in value space and — for
//     FOR/Dict — in *code* space with the predicate rebased, so
//     non-matching morsels are never reconstructed.
//   * Aggregate kernels — 4-lane sum/min/max folds with one horizontal
//     reduce per call, used by query/aggregate.cc.
//   * Bit-plane kernels — popcount counts over 1- and 2-bit packed
//     streams, used by the compressed-domain sums (SumRange) of FOR,
//     Dict and MultiRef.
//
// Dispatch: the first call probes the CPU once. The environment variable
// CORRA_FORCE_SCALAR (any value but "0") forces the scalar table at run
// time; building with -DCORRA_FORCE_SCALAR=ON compiles the AVX2 table
// out entirely. Every kernel also has a *Scalar twin so tests can prove
// the two paths agree bit-for-bit in a single process.
//
// Alignment contract: packed buffers must carry bit_util::kDecodePadBytes
// (32) readable bytes past the payload, because the AVX2 unpackers issue
// full 32-byte loads whose tails may cross the last packed byte.
// BitWriter::Finish appends them as zeros; a loaded column's payload is a
// view into its block buffer, whose following bytes or trailing slack
// provide them. Kernels load those bytes but never let them reach a
// result. Payloads need no particular alignment: every load is unaligned.

#ifndef CORRA_COMMON_SIMD_SIMD_H_
#define CORRA_COMMON_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace corra::simd {

/// Kernel backend picked by runtime dispatch.
enum class Backend {
  kScalar,
  kAvx2,
};

/// The backend the dispatched kernels run on (resolved once per process).
Backend ActiveBackend();

/// Human-readable name of the active backend ("scalar" / "avx2").
const char* BackendName();

// --- Unpack kernels ---------------------------------------------------------

/// Unpacks `count` fixed-width values starting at value index `begin`
/// from the bit-packed stream `data` (width 0..64, values laid out back
/// to back from bit 0, as written by BitWriter). `data` must include
/// bit_util::kDecodePadBytes of readable slack past the payload.
void UnpackRange(const uint8_t* data, int bit_width, size_t begin,
                 size_t count, uint64_t* out);

/// Forced-scalar twin of UnpackRange (equivalence tests, diagnostics).
void UnpackRangeScalar(const uint8_t* data, int bit_width, size_t begin,
                       size_t count, uint64_t* out);

// --- Predicate kernels ------------------------------------------------------

/// Writes the row ids `row_base + i` of every `values[i]` in [lo, hi]
/// to `out_rows` (ascending) and returns how many matched. `out_rows`
/// must hold `count` entries; the kernel never writes past the slot of
/// the last processed element's potential match.
size_t FilterInRange(const int64_t* values, size_t count, int64_t lo,
                     int64_t hi, uint32_t row_base, uint32_t* out_rows);
size_t FilterInRangeScalar(const int64_t* values, size_t count, int64_t lo,
                           int64_t hi, uint32_t row_base,
                           uint32_t* out_rows);

/// Unsigned variant for code-space predicates (FOR offsets, Dict codes):
/// matches codes[i] in [lo, hi] with full-range uint64 compares.
size_t FilterInRangeU64(const uint64_t* codes, size_t count, uint64_t lo,
                        uint64_t hi, uint32_t row_base, uint32_t* out_rows);
size_t FilterInRangeU64Scalar(const uint64_t* codes, size_t count,
                              uint64_t lo, uint64_t hi, uint32_t row_base,
                              uint32_t* out_rows);

// --- Aggregate kernels ------------------------------------------------------

/// Sum with wrap-around (two's complement: also the correct int64 sum).
uint64_t SumU64(const uint64_t* values, size_t count);
uint64_t SumU64Scalar(const uint64_t* values, size_t count);

/// Min and max of a non-empty span in one pass (count >= 1).
void MinMaxI64(const int64_t* values, size_t count, int64_t* min,
               int64_t* max);
void MinMaxI64Scalar(const int64_t* values, size_t count, int64_t* min,
                     int64_t* max);
void MinMaxU64(const uint64_t* values, size_t count, uint64_t* min,
               uint64_t* max);
void MinMaxU64Scalar(const uint64_t* values, size_t count, uint64_t* min,
                     uint64_t* max);

// --- Value-reconstruction kernels -------------------------------------------

/// out[i] = dict[codes[i]] — the per-morsel dictionary gather. Codes
/// must be < the dictionary size.
void TranslateCodes(const int64_t* dict, const uint64_t* codes, size_t count,
                    int64_t* out);
void TranslateCodesScalar(const int64_t* dict, const uint64_t* codes,
                          size_t count, int64_t* out);

/// values[i] += base in place — the FOR rebase pass.
void AddConst(int64_t* values, size_t count, int64_t base);
void AddConstScalar(int64_t* values, size_t count, int64_t base);

/// out[i] = ref[i] + base + (int64)deltas[i] — the Diff (raw/window) and
/// DFOR reconstruction: reference morsel plus unpacked diff codes.
void AddRefAndBase(const int64_t* ref, const uint64_t* deltas, int64_t base,
                   size_t count, int64_t* out);
void AddRefAndBaseScalar(const int64_t* ref, const uint64_t* deltas,
                         int64_t base, size_t count, int64_t* out);

/// out[i] = ref[i] + ZigZagDecode(zigzag[i]) — the Diff zig-zag mode.
void AddRefZigZag(const int64_t* ref, const uint64_t* zigzag, size_t count,
                  int64_t* out);
void AddRefZigZagScalar(const int64_t* ref, const uint64_t* zigzag,
                        size_t count, int64_t* out);

// --- Sparse-decode kernels ------------------------------------------------

/// out[i] = seed + ZigZagDecode(zigzag[0]) + ... + ZigZagDecode(zigzag[i])
/// (wrap-around arithmetic) — the Delta reconstruction: a running prefix
/// sum over zig-zag deltas seeded with a checkpoint value. The AVX2
/// backend runs a log-step in-register prefix sum (shift-add within the
/// 128-bit lanes, then a cross-lane carry broadcast), so the loop-carried
/// dependency is per 8 values instead of per value.
void ZigZagPrefixSum(const uint64_t* zigzag, size_t count, int64_t seed,
                     int64_t* out);
void ZigZagPrefixSumScalar(const uint64_t* zigzag, size_t count, int64_t seed,
                           int64_t* out);

/// Wrap-around sum of ZigZagDecode over `count` consecutive values of the
/// bit-packed stream, starting at value index `begin` — the Delta
/// point-access fold (checkpoint + fold of the replay window) and the
/// zig-zag Diff column's range sum, fused with
/// the unpack so the replay never materializes: narrow widths (<= 14)
/// decode four values per 8-byte load with one variable shift, medium
/// widths (<= 28) two per load, and the whole fold is ~3 instructions per
/// delta. `data` must carry bit_util::kDecodePadBytes of readable slack.
int64_t ZigZagSumPacked(const uint8_t* data, int bit_width, size_t begin,
                        size_t count);
int64_t ZigZagSumPackedScalar(const uint8_t* data, int bit_width,
                              size_t begin, size_t count);

/// Expands run-length runs into the dense row range [row_begin,
/// row_begin + count): run r covers rows [run_ends[r-1], run_ends[r]),
/// and `run_begin` must be the run containing row_begin. Runs are
/// emitted with full-width broadcast stores instead of a per-row loop.
void ExpandRuns(const int64_t* run_values, const uint32_t* run_ends,
                size_t run_begin, size_t row_begin, size_t count,
                int64_t* out);
void ExpandRunsScalar(const int64_t* run_values, const uint32_t* run_ends,
                      size_t run_begin, size_t row_begin, size_t count,
                      int64_t* out);

/// Fused Delta range decode: out[i] = seed + ZigZagDecode(delta[begin]) +
/// ... + ZigZagDecode(delta[begin + i]) for i in [0, count), reading the
/// deltas straight from the bit-packed stream (unpack, zig-zag decode,
/// and log-step prefix sum in one pass — the packed window is never
/// materialized). `data` must carry bit_util::kDecodePadBytes of slack.
void DeltaDecodePacked(const uint8_t* data, int bit_width, size_t begin,
                       size_t count, int64_t seed, int64_t* out);
void DeltaDecodePackedScalar(const uint8_t* data, int bit_width, size_t begin,
                             size_t count, int64_t seed, int64_t* out);

/// Signature of the per-backend Delta point kernel (DeltaPointPacked).
using DeltaPointFn = int64_t (*)(const uint8_t* data, int bit_width,
                                 const int64_t* checkpoints,
                                 int interval_shift, size_t column_rows,
                                 size_t row);

/// The active backend's Delta point kernel, for callers that cache the
/// resolved pointer next to their column state: point access is the one
/// kernel invoked per *row* rather than per range, so the wrapper hop
/// and dispatch-table load are a measurable share of its budget.
DeltaPointFn ResolveDeltaPointKernel();

/// Single-row Delta point access: the reconstructed value at `row` of a
/// checkpointed zig-zag delta stream (same layout as DeltaGatherPacked).
/// Seeks from the *nearest* checkpoint — a forward fold from the
/// covering checkpoint or a backward fold from the next one — with the
/// direction chosen by conditional select, so the expected replay is
/// interval/4 deltas and the only hard-to-predict branch is the fold's
/// loop exit.
int64_t DeltaPointPacked(const uint8_t* data, int bit_width,
                         const int64_t* checkpoints, int interval_shift,
                         size_t column_rows, size_t row);
int64_t DeltaPointPackedScalar(const uint8_t* data, int bit_width,
                               const int64_t* checkpoints, int interval_shift,
                               size_t column_rows, size_t row);

/// Batched Delta sparse gather: out[i] = the reconstructed value at row
/// rows[i] of a checkpointed zig-zag delta stream. `checkpoints[k]` is
/// the absolute value at row k << interval_shift; `column_rows` is the
/// stream's total row count. The whole selection walk runs inside one
/// kernel call: a running (position, value) cursor advances by fused
/// packed zig-zag folds over each gap, re-anchoring through the nearest
/// checkpoint (forward or backward) whenever that is closer — so the
/// per-row cost is bounded by interval/2 deltas and there is no
/// per-position call overhead. Tolerates out-of-order positions (they
/// re-anchor). `data` must carry bit_util::kDecodePadBytes of slack.
void DeltaGatherPacked(const uint8_t* data, int bit_width,
                       const int64_t* checkpoints, int interval_shift,
                       size_t column_rows, const uint32_t* rows, size_t count,
                       int64_t* out);
void DeltaGatherPackedScalar(const uint8_t* data, int bit_width,
                             const int64_t* checkpoints, int interval_shift,
                             size_t column_rows, const uint32_t* rows,
                             size_t count, int64_t* out);

// --- Inline-checkpoint Delta kernels ----------------------------------------
//
// Wire/memory layout shared by the kernels below (the DeltaColumn
// "inline" layout): the stream is an array of fixed-stride windows, one
// per checkpoint interval. Window k starts at byte k * window_stride and
// holds
//
//   [ 8-byte little-endian absolute value of row k << interval_shift ]
//   [ interval zig-zag delta slots, bit-packed from bit 0: slot j is
//     the delta of row (k << interval_shift) + 1 + j ]
//
// window_stride = 8 + RoundUpPow2(CeilDiv(interval * bit_width, 8), 8),
// so every window's checkpoint load is 8-byte aligned relative to the
// stream base and the whole window (checkpoint + expected replay) sits
// in one contiguous cache line for typical widths at interval 32. The
// last slot of window k is the delta *into* row (k+1) << interval_shift,
// so a backward seek folds entirely inside window k and anchors on the
// next window's head — one contiguous touch either direction, where the
// out-of-band layout pays two dependent lines (checkpoint array +
// packed stream). Every window, including a partial last one, occupies
// the full stride (unused slots are zero), and the stream must carry
// bit_util::kDecodePadBytes of readable slack past the last window.

/// Signature of the per-backend inline-layout Delta point kernel.
using DeltaPointInlineFn = int64_t (*)(const uint8_t* data, int bit_width,
                                       int interval_shift,
                                       size_t window_stride,
                                       size_t column_rows, size_t row);

/// The active backend's inline-layout point kernel (same caching
/// rationale as ResolveDeltaPointKernel).
DeltaPointInlineFn ResolveDeltaPointInlineKernel();

/// Single-row point access on the inline-checkpoint layout: one window
/// address computation, one in-window checkpoint load, one fused masked
/// fold over at most interval/2 delta slots — no out-of-band metadata is
/// ever touched.
int64_t DeltaPointInline(const uint8_t* data, int bit_width,
                         int interval_shift, size_t window_stride,
                         size_t column_rows, size_t row);
int64_t DeltaPointInlineScalar(const uint8_t* data, int bit_width,
                               int interval_shift, size_t window_stride,
                               size_t column_rows, size_t row);

/// Batched sparse gather on the inline-checkpoint layout: out[i] = the
/// reconstructed value at rows[i], each position one independent
/// single-window fold through the nearest inline checkpoint (forward or
/// backward). No cursor state: the fold is already bounded by
/// interval/2 in-window slots, a reuse-or-reanchor branch would
/// mispredict at mid densities, and independent folds pipeline across
/// positions. Order-immune (out-of-order and duplicate positions cost
/// nothing extra).
void DeltaGatherInline(const uint8_t* data, int bit_width,
                       int interval_shift, size_t window_stride,
                       size_t column_rows, const uint32_t* rows, size_t count,
                       int64_t* out);
void DeltaGatherInlineScalar(const uint8_t* data, int bit_width,
                             int interval_shift, size_t window_stride,
                             size_t column_rows, const uint32_t* rows,
                             size_t count, int64_t* out);

/// Positioned gather from a bit-packed stream: out[i] = the value at
/// position rows[i] (width 0..64; rows need not be sorted). This is the
/// selection-driven counterpart of UnpackRange — selected values are
/// reconstructed directly from their bit offsets (vpgatherqq + variable
/// shift on AVX2), never materializing the rows in between. `data` must
/// carry bit_util::kDecodePadBytes of readable slack.
void GatherBits(const uint8_t* data, int bit_width, const uint32_t* rows,
                size_t count, uint64_t* out);
void GatherBitsScalar(const uint8_t* data, int bit_width,
                      const uint32_t* rows, size_t count, uint64_t* out);

// --- Bit-plane kernels --------------------------------------------------------
//
// Counting kernels over 1- and 2-bit packed streams that never unpack a
// value: each 64-value group is split into bit planes (value bit 0 and
// value bit 1 of all 64 values, one word each) and counted with
// popcounts. Both tables run one portable source
// (bit_plane_kernels.h); the AVX2 build of it counts with POPCNT.
// `data` must carry bit_util::kDecodePadBytes of readable slack.

/// counts[v] = how many of the values [begin, begin + count) of a 1- or
/// 2-bit packed stream equal v (`counts` holds 1 << bit_width entries).
void CountValues(const uint8_t* data, int bit_width, size_t begin,
                 size_t count, uint64_t* counts);
void CountValuesScalar(const uint8_t* data, int bit_width, size_t begin,
                       size_t count, uint64_t* counts);

/// The MultiRef masked-group count: over rows [begin, begin + count),
/// counts the rows whose code in the 1- or 2-bit stream `codes` is in
/// `members` (bit c set => code c) by the value of their bit in the
/// 1-bit stream `bits`: selected[0] rows with a 0 bit, selected[1] with
/// a 1 bit. Per 64 rows: the code planes, a membership mask, and two
/// popcounts.
void CountSelectedBits(const uint8_t* codes, int code_bits,
                       const uint8_t* bits, size_t begin, size_t count,
                       uint32_t members, uint64_t* selected);
void CountSelectedBitsScalar(const uint8_t* codes, int code_bits,
                             const uint8_t* bits, size_t begin, size_t count,
                             uint32_t members, uint64_t* selected);

}  // namespace corra::simd

#endif  // CORRA_COMMON_SIMD_SIMD_H_
