// Fixed-width bit packing primitives.
//
// PackedArray stores `n` unsigned values of a fixed bit width back to back.
// It supports O(1) random access via a single unaligned 64-bit load (the
// buffer is padded accordingly), which is the property the paper's baseline
// (FOR/Dict + bit-packing) relies on for fast selective scans.

#ifndef CORRA_COMMON_BIT_STREAM_H_
#define CORRA_COMMON_BIT_STREAM_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace corra {

/// Append-only writer of fixed-width values into a byte vector.
class BitWriter {
 public:
  /// Creates a writer producing values of `bit_width` bits (0..64).
  /// With bit_width == 0 the writer stores nothing (all values are zero).
  explicit BitWriter(int bit_width);

  /// Appends `value`; the top bits beyond `bit_width` must be zero.
  void Append(uint64_t value);

  /// Appends every element of `values`.
  void AppendAll(std::span<const uint64_t> values);

  /// Number of values appended so far.
  size_t size() const { return count_; }
  int bit_width() const { return bit_width_; }

  /// Finalizes and returns the packed bytes (padded for unaligned reads).
  /// The writer is left in a moved-from state.
  std::vector<uint8_t> Finish() &&;

 private:
  int bit_width_;
  size_t count_ = 0;
  uint64_t pending_ = 0;  // Bits not yet flushed to bytes_.
  int pending_bits_ = 0;
  std::vector<uint8_t> bytes_;
};

/// Random-access reader over bytes produced by BitWriter (or any
/// identically laid out buffer). Does not own the bytes.
class BitReader {
 public:
  BitReader() = default;

  /// `data` must stay alive while the reader is used and must be
  /// followed by bit_util::kDecodePadBytes of readable slack (the SIMD
  /// unpack kernels behind DecodeRange issue full 32-byte loads near the
  /// payload end): the zeros BitWriter::Finish appends, or the block
  /// buffer bytes after a loaded payload. Their content is never used.
  BitReader(const uint8_t* data, int bit_width, size_t count)
      : data_(data), bit_width_(bit_width), count_(count) {}

  /// Value at position `i` (unchecked; i < size()).
  uint64_t Get(size_t i) const {
    if (bit_width_ == 0) {
      return 0;
    }
    const size_t bit_pos = i * static_cast<size_t>(bit_width_);
    const size_t byte = bit_pos >> 3;
    const int shift = static_cast<int>(bit_pos & 7);
    uint64_t word;
    std::memcpy(&word, data_ + byte, sizeof(word));
    uint64_t v = word >> shift;
    if (shift + bit_width_ > 64) {
      // Widths > 57 bits can straddle 9 bytes; splice in the tail. `shift`
      // is >= 1 here, so the left shift below is well defined.
      uint64_t next;
      std::memcpy(&next, data_ + byte + 8, sizeof(next));
      v |= next << (64 - shift);
    }
    return v & mask();
  }

  /// Decodes all values into `out` (must have room for size() values).
  void DecodeAll(uint64_t* out) const;

  /// Decodes the `count` values starting at position `begin` into `out`
  /// (must have room for `count` values; begin + count <= size()). The
  /// ranged building block of the morsel decode pipeline: a thin wrapper
  /// over the SIMD kernel layer's per-bit-width unpackers (see
  /// common/simd/simd.h). `data` must carry bit_util::kDecodePadBytes of
  /// readable slack (see the constructor).
  void DecodeRange(size_t begin, size_t count, uint64_t* out) const;

  /// True iff every value in the stream is below `limit`. Deserialize
  /// bounds stored codes against their table with it: free when no
  /// bit_width()-bit value can reach `limit`, otherwise one pass of
  /// chunked SIMD unpacks and a branch-free compare.
  bool AllBelow(uint64_t limit) const;

  size_t size() const { return count_; }
  int bit_width() const { return bit_width_; }

 private:
  uint64_t mask() const { return ~uint64_t{0} >> (64 - bit_width_); }

  const uint8_t* data_ = nullptr;
  int bit_width_ = 0;
  size_t count_ = 0;
};

}  // namespace corra

#endif  // CORRA_COMMON_BIT_STREAM_H_
