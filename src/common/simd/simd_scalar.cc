// Scalar backend of the SIMD kernel layer, plus the width-generic unpack
// driver shared by every backend.
//
// The 64-value unpack kernels are generated per bit width from one
// template: the block's 8*W payload bytes are loaded into whole words
// once, then all 64 extractions run with compile-time word indices and
// shifts (the classic fully unrolled "fastunpack" shape, which the
// compiler schedules branch-free and partially vectorizes). This is the
// fallback the AVX2 table must agree with bit-for-bit — and the floor
// the dispatcher guarantees on machines without AVX2.

#include <array>
#include <cstring>
#include <utility>

#include "common/simd/bit_plane_kernels.h"
#include "common/simd/kernel_table.h"

namespace corra::simd::internal {

namespace {

constexpr uint64_t WidthMask(int width) {
  return width >= 64 ? ~uint64_t{0}
                     : (uint64_t{1} << width) - 1;
}

// One compile-time extraction: value J of a 64-value block of width W,
// given the block's payload preloaded into `words` (W whole words).
template <int W, size_t J>
inline uint64_t ExtractAt(const uint64_t* words) {
  constexpr size_t bit = static_cast<size_t>(W) * J;
  constexpr size_t word = bit >> 6;
  constexpr int shift = static_cast<int>(bit & 63);
  uint64_t v = words[word] >> shift;
  if constexpr (shift + W > 64) {
    v |= words[word + 1] << (64 - shift);
  }
  return v & WidthMask(W);
}

template <int W>
void Unpack64Scalar(const uint8_t* in, uint64_t* out) {
  if constexpr (W == 0) {
    std::memset(out, 0, kUnpackBlock * sizeof(uint64_t));
  } else {
    uint64_t words[W];
    std::memcpy(words, in, sizeof(words));  // Exactly the block's 8*W bytes.
    [&]<size_t... J>(std::index_sequence<J...>) {
      ((out[J] = ExtractAt<W, J>(words)), ...);
    }(std::make_index_sequence<kUnpackBlock>{});
  }
}

constexpr auto kScalarUnpack =
    []<size_t... W>(std::index_sequence<W...>) {
      return std::array<Unpack64Fn, kMaxKernelWidth + 1>{
          &Unpack64Scalar<static_cast<int>(W)>...};
    }(std::make_index_sequence<kMaxKernelWidth + 1>{});

// Branchless staged select: out_rows[n] = row; n += matched. A matching
// row costs a store instead of a mispredicted branch.
size_t FilterI64Scalar(const int64_t* values, size_t count, int64_t lo,
                       int64_t hi, uint32_t row_base, uint32_t* out_rows) {
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    out_rows[n] = row_base + static_cast<uint32_t>(i);
    n += static_cast<size_t>(values[i] >= lo && values[i] <= hi);
  }
  return n;
}

size_t FilterU64Scalar(const uint64_t* codes, size_t count, uint64_t lo,
                       uint64_t hi, uint32_t row_base, uint32_t* out_rows) {
  size_t n = 0;
  for (size_t i = 0; i < count; ++i) {
    out_rows[n] = row_base + static_cast<uint32_t>(i);
    n += static_cast<size_t>(codes[i] >= lo && codes[i] <= hi);
  }
  return n;
}

uint64_t SumU64ScalarImpl(const uint64_t* values, size_t count) {
  // Four independent accumulators break the loop-carried dependency so
  // the adds pipeline; the compiler turns this into SSE2 lanes.
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    s0 += values[i];
    s1 += values[i + 1];
    s2 += values[i + 2];
    s3 += values[i + 3];
  }
  for (; i < count; ++i) {
    s0 += values[i];
  }
  return s0 + s1 + s2 + s3;
}

void MinMaxI64ScalarImpl(const int64_t* values, size_t count, int64_t* min,
                         int64_t* max) {
  int64_t lo = values[0];
  int64_t hi = values[0];
  for (size_t i = 1; i < count; ++i) {
    lo = values[i] < lo ? values[i] : lo;
    hi = values[i] > hi ? values[i] : hi;
  }
  *min = lo;
  *max = hi;
}

void MinMaxU64ScalarImpl(const uint64_t* values, size_t count, uint64_t* min,
                         uint64_t* max) {
  uint64_t lo = values[0];
  uint64_t hi = values[0];
  for (size_t i = 1; i < count; ++i) {
    lo = values[i] < lo ? values[i] : lo;
    hi = values[i] > hi ? values[i] : hi;
  }
  *min = lo;
  *max = hi;
}

void TranslateCodesScalarImpl(const int64_t* dict, const uint64_t* codes,
                              size_t count, int64_t* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = dict[codes[i]];
  }
}

void AddConstScalarImpl(int64_t* values, size_t count, int64_t base) {
  for (size_t i = 0; i < count; ++i) {
    values[i] = static_cast<int64_t>(static_cast<uint64_t>(values[i]) +
                                     static_cast<uint64_t>(base));
  }
}

void AddRefBaseScalarImpl(const int64_t* ref, const uint64_t* deltas,
                          int64_t base, size_t count, int64_t* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = static_cast<int64_t>(static_cast<uint64_t>(ref[i]) +
                                  static_cast<uint64_t>(base) + deltas[i]);
  }
}

void AddRefZigZagScalarImpl(const int64_t* ref, const uint64_t* zigzag,
                            size_t count, int64_t* out) {
  for (size_t i = 0; i < count; ++i) {
    // ZigZagDecode inlined so this file has no bit_util dependency.
    const uint64_t z = zigzag[i];
    const uint64_t delta = (z >> 1) ^ (~(z & 1) + 1);
    out[i] = static_cast<int64_t>(static_cast<uint64_t>(ref[i]) + delta);
  }
}

// ZigZagDecode inlined so this file has no bit_util dependency.
inline uint64_t ZigZagDecodeOne(uint64_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

void ZigZagPrefixSumScalarImpl(const uint64_t* zigzag, size_t count,
                               int64_t seed, int64_t* out) {
  // The sum itself is a serial dependency; unrolling by 2 lets the
  // zig-zag decodes of the next pair overlap the adds of the current one.
  uint64_t acc = static_cast<uint64_t>(seed);
  size_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const uint64_t d0 = ZigZagDecodeOne(zigzag[i]);
    const uint64_t d1 = ZigZagDecodeOne(zigzag[i + 1]);
    out[i] = static_cast<int64_t>(acc + d0);
    acc += d0 + d1;
    out[i + 1] = static_cast<int64_t>(acc);
  }
  if (i < count) {
    acc += ZigZagDecodeOne(zigzag[i]);
    out[i] = static_cast<int64_t>(acc);
  }
}

int64_t ZigZagSumPackedScalarImpl(const uint8_t* data, int bit_width,
                                  size_t begin, size_t count) {
  if (bit_width == 0 || count == 0) {
    return 0;
  }
  const uint64_t mask = WidthMask(bit_width);
  const size_t w = static_cast<size_t>(bit_width);
  size_t bit = begin * w;
  uint64_t acc0 = 0;
  uint64_t acc1 = 0;
  size_t i = 0;
  if (bit_width <= 28) {
    // Two values per 8-byte load: shift + width stays <= 63 for the
    // second value too (in-word shift <= 7 + 2*28).
    for (; i + 2 <= count; i += 2, bit += 2 * w) {
      uint64_t word;
      std::memcpy(&word, data + (bit >> 3), sizeof(word));
      const int shift = static_cast<int>(bit & 7);
      acc0 += ZigZagDecodeOne((word >> shift) & mask);
      acc1 += ZigZagDecodeOne((word >> (shift + bit_width)) & mask);
    }
  } else if (bit_width > 57) {
    // A value can straddle 9 bytes; splice the tail from the next word.
    for (; i < count; ++i, bit += w) {
      const size_t byte = bit >> 3;
      const int shift = static_cast<int>(bit & 7);
      uint64_t word;
      std::memcpy(&word, data + byte, sizeof(word));
      uint64_t v = word >> shift;
      if (shift + bit_width > 64) {
        uint64_t next;
        std::memcpy(&next, data + byte + 8, sizeof(next));
        v |= next << (64 - shift);
      }
      acc0 += ZigZagDecodeOne(v & mask);
    }
  }
  for (; i < count; ++i, bit += w) {
    uint64_t word;
    std::memcpy(&word, data + (bit >> 3), sizeof(word));
    acc0 += ZigZagDecodeOne((word >> (bit & 7)) & mask);
  }
  return static_cast<int64_t>(acc0 + acc1);
}

void DeltaDecodeScalarImpl(const uint8_t* data, int bit_width, size_t begin,
                           size_t count, int64_t seed, int64_t* out) {
  if (bit_width == 0) {
    for (size_t i = 0; i < count; ++i) {
      out[i] = seed;
    }
    return;
  }
  // Chunked unpack + prefix sum through the existing kernels: the chunk
  // stays L1-resident and both passes are already unrolled.
  uint64_t deltas[512];
  size_t done = 0;
  while (done < count) {
    const size_t len = count - done < 512 ? count - done : 512;
    UnpackRangeWith(ScalarTable(), data, bit_width, begin + done, len,
                    deltas);
    ZigZagPrefixSumScalarImpl(deltas, len, seed, out + done);
    seed = out[done + len - 1];
    done += len;
  }
}


int64_t DeltaPointScalarImpl(const uint8_t* data, int bit_width,
                      const int64_t* checkpoints, int interval_shift,
                      size_t column_rows, size_t row) {
  // Nearest-checkpoint seek with the fold direction picked by
  // conditional select (no hard-to-predict branch before the fold).
  const size_t interval = size_t{1} << interval_shift;
  const size_t checkpoint = row >> interval_shift;
  const size_t checkpoint_row = checkpoint << interval_shift;
  const size_t next_row = checkpoint_row + interval;
  const size_t forward = row - checkpoint_row;
  const bool backward = forward > interval / 2 && next_row < column_rows;
  const size_t begin = backward ? row + 1 : checkpoint_row + 1;
  const size_t count = backward ? next_row - row : forward;
  const uint64_t anchor =
      static_cast<uint64_t>(checkpoints[checkpoint + (backward ? 1 : 0)]);
  const uint64_t sum =
      static_cast<uint64_t>(ZigZagSumPackedScalarImpl(data, bit_width, begin, count));
  return static_cast<int64_t>(anchor + (backward ? ~sum + 1 : sum));
}

void DeltaGatherScalarImpl(const uint8_t* data, int bit_width,
                           const int64_t* checkpoints, int interval_shift,
                           size_t column_rows, const uint32_t* rows,
                           size_t count, int64_t* out) {
  // Running-cursor walk over the selection; every gap is one fused
  // packed zig-zag fold, and a position that is closer to a checkpoint
  // than to the cursor (or behind the cursor) re-anchors through the
  // nearest checkpoint instead.
  const size_t interval = size_t{1} << interval_shift;
  size_t pos = 0;
  uint64_t value = 0;
  bool primed = false;
  for (size_t i = 0; i < count; ++i) {
    const size_t row = rows[i];
    const size_t checkpoint = row >> interval_shift;
    const size_t checkpoint_row = checkpoint << interval_shift;
    if (!primed || row < pos || checkpoint_row > pos) {
      const size_t next_row = checkpoint_row + interval;
      const size_t forward = row - checkpoint_row;
      if (forward <= interval / 2 || next_row >= column_rows) {
        value = static_cast<uint64_t>(checkpoints[checkpoint]) +
                static_cast<uint64_t>(ZigZagSumPackedScalarImpl(
                    data, bit_width, checkpoint_row + 1, forward));
      } else {
        value = static_cast<uint64_t>(checkpoints[checkpoint + 1]) -
                static_cast<uint64_t>(ZigZagSumPackedScalarImpl(
                    data, bit_width, row + 1, next_row - row));
      }
      pos = row;
      primed = true;
    } else if (row > pos) {
      value += static_cast<uint64_t>(
          ZigZagSumPackedScalarImpl(data, bit_width, pos + 1, row - pos));
      pos = row;
    }
    out[i] = static_cast<int64_t>(value);
  }
}

// Inline-checkpoint layout (see simd.h): window k = 8-byte absolute
// value of row k << shift, then `interval` bit-packed zig-zag delta
// slots; slot j covers row (k << shift) + 1 + j, so the last slot is the
// delta into the *next* window's checkpoint row and a backward seek
// never leaves the window's delta region.
int64_t DeltaPointInlineScalarImpl(const uint8_t* data, int bit_width,
                                   int interval_shift, size_t window_stride,
                                   size_t column_rows, size_t row) {
  const size_t interval = size_t{1} << interval_shift;
  const size_t k = row >> interval_shift;
  const uint8_t* window = data + k * window_stride;
  const size_t forward = row - (k << interval_shift);
  const size_t next_first = (k + 1) << interval_shift;
  const bool backward = forward > interval / 2 && next_first < column_rows;
  if (backward) {
    // Anchor on the next window's inline checkpoint (directly after this
    // window's delta region) and fold the remaining slots backward.
    uint64_t anchor;
    std::memcpy(&anchor, window + window_stride, sizeof(anchor));
    const uint64_t sum = static_cast<uint64_t>(ZigZagSumPackedScalarImpl(
        window + 8, bit_width, forward, interval - forward));
    return static_cast<int64_t>(anchor - sum);
  }
  uint64_t anchor;
  std::memcpy(&anchor, window, sizeof(anchor));
  const uint64_t sum = static_cast<uint64_t>(
      ZigZagSumPackedScalarImpl(window + 8, bit_width, 0, forward));
  return static_cast<int64_t>(anchor + sum);
}

void DeltaGatherInlineScalarImpl(const uint8_t* data, int bit_width,
                                 int interval_shift, size_t window_stride,
                                 size_t column_rows, const uint32_t* rows,
                                 size_t count, int64_t* out) {
  // Every position is one independent single-window fold. A running
  // cursor (as in the out-of-band gather) buys nothing here: the fold
  // is already bounded by interval/2 slots inside one window, and the
  // cursor's reuse-or-reanchor branch is data-dependent — at mid
  // densities it mispredicts ~50/50 and costs more than the fold it
  // skips (measured). Independent folds also pipeline across positions.
  for (size_t i = 0; i < count; ++i) {
    out[i] = DeltaPointInlineScalarImpl(data, bit_width, interval_shift,
                                        window_stride, column_rows, rows[i]);
  }
}

void ExpandRunsScalarImpl(const int64_t* run_values, const uint32_t* run_ends,
                          size_t run_begin, size_t row_begin, size_t count,
                          int64_t* out) {
  const size_t end = row_begin + count;
  size_t run = run_begin;
  size_t row = row_begin;
  while (row < end) {
    const size_t stop = run_ends[run] < end ? run_ends[run] : end;
    const int64_t v = run_values[run];
    size_t n = stop - row;
    int64_t* dst = out + (row - row_begin);
    // Word-at-a-time fill; the compiler widens this to vector stores.
    for (; n >= 4; n -= 4, dst += 4) {
      dst[0] = v;
      dst[1] = v;
      dst[2] = v;
      dst[3] = v;
    }
    for (; n > 0; --n, ++dst) {
      *dst = v;
    }
    row = stop;
    ++run;
  }
}

void GatherBitsScalarImpl(const uint8_t* data, int bit_width,
                          const uint32_t* rows, size_t count, uint64_t* out) {
  if (bit_width == 0) {
    std::memset(out, 0, count * sizeof(uint64_t));
    return;
  }
  const uint64_t mask = WidthMask(bit_width);
  if (bit_width > 57) {
    // A value can straddle 9 bytes; splice the tail from the next word.
    for (size_t i = 0; i < count; ++i) {
      const size_t bit_pos =
          static_cast<size_t>(rows[i]) * static_cast<size_t>(bit_width);
      const size_t byte = bit_pos >> 3;
      const int shift = static_cast<int>(bit_pos & 7);
      uint64_t word;
      std::memcpy(&word, data + byte, sizeof(word));
      uint64_t v = word >> shift;
      if (shift + bit_width > 64) {
        uint64_t next;
        std::memcpy(&next, data + byte + 8, sizeof(next));
        v |= next << (64 - shift);
      }
      out[i] = v & mask;
    }
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    const size_t bit_pos =
        static_cast<size_t>(rows[i]) * static_cast<size_t>(bit_width);
    uint64_t word;
    std::memcpy(&word, data + (bit_pos >> 3), sizeof(word));
    out[i] = (word >> (bit_pos & 7)) & mask;
  }
}

constexpr KernelTable MakeScalarTable() {
  KernelTable table{};
  for (int w = 0; w <= kMaxKernelWidth; ++w) {
    table.unpack64[w] = kScalarUnpack[static_cast<size_t>(w)];
  }
  table.filter_i64 = &FilterI64Scalar;
  table.filter_u64 = &FilterU64Scalar;
  table.sum_u64 = &SumU64ScalarImpl;
  table.minmax_i64 = &MinMaxI64ScalarImpl;
  table.minmax_u64 = &MinMaxU64ScalarImpl;
  table.translate_codes = &TranslateCodesScalarImpl;
  table.add_const = &AddConstScalarImpl;
  table.add_ref_base = &AddRefBaseScalarImpl;
  table.add_ref_zigzag = &AddRefZigZagScalarImpl;
  table.zigzag_prefix_sum = &ZigZagPrefixSumScalarImpl;
  table.zigzag_sum_packed = &ZigZagSumPackedScalarImpl;
  table.delta_decode = &DeltaDecodeScalarImpl;
  table.delta_point = &DeltaPointScalarImpl;
  table.delta_gather = &DeltaGatherScalarImpl;
  table.delta_point_inline = &DeltaPointInlineScalarImpl;
  table.delta_gather_inline = &DeltaGatherInlineScalarImpl;
  table.expand_runs = &ExpandRunsScalarImpl;
  table.gather_bits = &GatherBitsScalarImpl;
  table.count_values = &CountValuesPortable;
  table.count_selected_bits = &CountSelectedBitsPortable;
  table.name = "scalar";
  return table;
}

constexpr KernelTable kScalarTable = MakeScalarTable();

// Sequential-cursor decode for widths the kernel table does not cover
// (33..64) and for the sub-block head/tail of narrow widths.
void UnpackGeneric(const uint8_t* data, int bit_width, size_t begin,
                   size_t count, uint64_t* out) {
  const uint64_t mask = WidthMask(bit_width);
  size_t bit_pos = begin * static_cast<size_t>(bit_width);
  if (bit_width > 57) {
    // A value can straddle 9 bytes; splice the tail from the next word.
    for (size_t i = 0; i < count; ++i, bit_pos += bit_width) {
      const size_t byte = bit_pos >> 3;
      const int shift = static_cast<int>(bit_pos & 7);
      uint64_t word;
      std::memcpy(&word, data + byte, sizeof(word));
      uint64_t v = word >> shift;
      if (shift + bit_width > 64) {
        uint64_t next;
        std::memcpy(&next, data + byte + 8, sizeof(next));
        v |= next << (64 - shift);
      }
      out[i] = v & mask;
    }
    return;
  }
  for (size_t i = 0; i < count; ++i, bit_pos += bit_width) {
    uint64_t word;
    std::memcpy(&word, data + (bit_pos >> 3), sizeof(word));
    out[i] = (word >> (bit_pos & 7)) & mask;
  }
}

}  // namespace

const KernelTable& ScalarTable() { return kScalarTable; }

void UnpackRangeWith(const KernelTable& table, const uint8_t* data,
                     int bit_width, size_t begin, size_t count,
                     uint64_t* out) {
  if (count == 0) {
    return;
  }
  if (bit_width == 0) {
    std::memset(out, 0, count * sizeof(uint64_t));
    return;
  }
  if (bit_width > kMaxKernelWidth) {
    UnpackGeneric(data, bit_width, begin, count, out);
    return;
  }
  // Head: decode up to the next 64-value boundary, where the stream is
  // byte-aligned and the specialized kernels take over.
  const size_t misalign = begin % kUnpackBlock;
  if (misalign != 0) {
    const size_t head = kUnpackBlock - misalign < count
                            ? kUnpackBlock - misalign
                            : count;
    UnpackGeneric(data, bit_width, begin, head, out);
    begin += head;
    count -= head;
    out += head;
  }
  const Unpack64Fn kernel = table.unpack64[bit_width];
  while (count >= kUnpackBlock) {
    // begin is a multiple of 64, so begin * width is a whole byte count.
    kernel(data + ((begin * static_cast<size_t>(bit_width)) >> 3), out);
    begin += kUnpackBlock;
    count -= kUnpackBlock;
    out += kUnpackBlock;
  }
  if (count > 0) {
    UnpackGeneric(data, bit_width, begin, count, out);
  }
}

}  // namespace corra::simd::internal
