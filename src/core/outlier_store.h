// Outlier storage architecture (paper Sec. 2.1/2.3, Fig. 4).
//
// Rows whose value cannot be produced by the horizontal encoding are kept
// aside as (row index, original value) pairs. Indices are sorted, so
// decompression checks membership with a binary search (point access) or a
// linear merge (batched access). Because the *indices* identify outliers,
// no sentinel code is needed in the main code stream — the paper's argument
// for keeping 2-bit codes despite having a fifth "none" case.
//
// Values are stored frame-of-reference bit-packed, indices as uint32.

#ifndef CORRA_CORE_OUTLIER_STORE_H_
#define CORRA_CORE_OUTLIER_STORE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/bit_stream.h"
#include "common/buffer.h"
#include "common/result.h"

namespace corra {

class OutlierStore {
 public:
  /// An empty store (no outliers).
  OutlierStore() = default;

  OutlierStore(const OutlierStore&) = delete;
  OutlierStore& operator=(const OutlierStore&) = delete;
  OutlierStore(OutlierStore&&) = default;
  OutlierStore& operator=(OutlierStore&&) = default;

  /// Builds a store from parallel arrays. `rows` must be strictly
  /// increasing.
  static Result<OutlierStore> Build(std::span<const uint32_t> rows,
                                    std::span<const int64_t> values);

  static Result<OutlierStore> Deserialize(BufferReader* reader);
  void Serialize(BufferWriter* writer) const;

  /// The outlier value at `row`, or nullopt if `row` is not an outlier.
  /// O(log n) binary search.
  std::optional<int64_t> Find(uint32_t row) const;

  /// True iff `row` is an outlier.
  bool Contains(uint32_t row) const { return Find(row).has_value(); }

  /// Patches `out` (values for the sorted row positions `rows`) with any
  /// outlier values, using a linear merge over both sorted sequences.
  void Patch(std::span<const uint32_t> rows, int64_t* out) const;

  /// Patches `out` (values for the dense row range [row_begin,
  /// row_begin + count)) with any outlier values: one binary search to
  /// locate the first covered outlier, then a linear walk.
  void PatchRange(size_t row_begin, size_t count, int64_t* out) const;

  /// Indices [first, last) of the outliers whose rows lie in the dense
  /// row range [row_begin, row_begin + count), by binary search.
  std::pair<size_t, size_t> IndexRange(size_t row_begin,
                                       size_t count) const;

  /// Wrap-around sum of the values of outliers [first, last).
  uint64_t SumValues(size_t first, size_t last) const {
    return static_cast<uint64_t>(base_) * (last - first) +
           values_.Sum(first, last - first);
  }

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  /// Row indices of all outliers (ascending).
  std::span<const uint32_t> rows() const { return rows_; }

  /// Compressed footprint: uint32 indices + FOR-packed values.
  size_t SizeBytes() const;

  /// Row index of the i-th outlier (ascending).
  uint32_t row(size_t i) const { return rows_[i]; }
  /// Value of the i-th outlier.
  int64_t value(size_t i) const {
    // Unsigned, like ForColumn::Get: base + offset wraps to the value.
    return static_cast<int64_t>(static_cast<uint64_t>(base_) +
                                values_.Get(i));
  }

 private:
  std::vector<uint32_t> rows_;       // Strictly increasing.
  int64_t base_ = 0;                 // FOR base of the packed values.
  SharedBytes value_bytes_;          // Bit-packed value offsets.
  BitReader values_;
};

}  // namespace corra

#endif  // CORRA_CORE_OUTLIER_STORE_H_
