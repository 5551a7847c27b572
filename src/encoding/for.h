// Frame-of-Reference encoding: store min(values) once and bit-pack the
// non-negative offsets to it. Together with Dict this forms the paper's
// single-column baseline ("FOR- or Dict-encoding schemes, followed by a
// bit-packing"), chosen for its O(1) random access.

#ifndef CORRA_ENCODING_FOR_H_
#define CORRA_ENCODING_FOR_H_

#include <memory>
#include <span>
#include <vector>

#include "common/bit_stream.h"
#include "encoding/encoded_column.h"

namespace corra::enc {

class ForColumn final : public EncodedColumn {
 public:
  /// Encodes `values` relative to their minimum. Fails only when the value
  /// range does not fit in an unsigned 64-bit delta (e.g. INT64_MIN mixed
  /// with INT64_MAX).
  static Result<std::unique_ptr<ForColumn>> Encode(
      std::span<const int64_t> values);

  /// Compressed size `values` would have (payload + base), without
  /// encoding. SIZE_MAX when inapplicable.
  static size_t EstimateSizeBytes(std::span<const int64_t> values);

  static Result<std::unique_ptr<ForColumn>> Deserialize(BufferReader* reader);

  Scheme scheme() const override { return Scheme::kFor; }
  size_t size() const override { return reader_.size(); }
  size_t SizeBytes() const override;
  int64_t Get(size_t row) const override {
    // Unsigned, like simd::AddConst: base + offset wraps to the value.
    return static_cast<int64_t>(static_cast<uint64_t>(base_) +
                                reader_.Get(row));
  }
  void GatherRange(std::span<const uint32_t> rows,
                   int64_t* out) const override;
  void DecodeAll(int64_t* out) const override;
  void DecodeRange(size_t row_begin, size_t count,
                   int64_t* out) const override;
  uint64_t SumRange(size_t row_begin, size_t count) const override {
    // count * base plus the sum of the packed offsets: no per-row
    // rebase, and O(1) at width 0.
    return static_cast<uint64_t>(base_) * count +
           reader_.Sum(row_begin, count);
  }
  void Serialize(BufferWriter* writer) const override;

  int64_t base() const { return base_; }
  int bit_width() const { return reader_.bit_width(); }

  /// Unpacks the raw (un-rebased) offsets of [row_begin, row_begin +
  /// count) — the packed-domain ranged kernel filter pushdown compares
  /// against a rebased predicate.
  void DecodeOffsets(size_t row_begin, size_t count, uint64_t* out) const {
    reader_.DecodeRange(row_begin, count, out);
  }

 private:
  ForColumn(int64_t base, SharedBytes bytes, int bit_width, size_t count);

  int64_t base_ = 0;
  SharedBytes bytes_;
  BitReader reader_;
};

}  // namespace corra::enc

#endif  // CORRA_ENCODING_FOR_H_
