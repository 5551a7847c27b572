// Hierarchical encoding — the paper's Sec. 2.2 (Fig. 3, Alg. 1).
//
// For column pairs with hierarchical structure (city -> zip_code), each
// distinct reference value owns a small local dictionary of the target
// values observed under it. The metadata is exactly the paper's layout:
//
//   values  : all local dictionaries concatenated ("zip_codes" array)
//   offsets : start of each reference value's slice ("offsets" array)
//
// A row stores only its *local* index, whose bit width is dictated by the
// largest local dictionary — typically far below the global distinct count
// (a city has dozens of zip codes; the state has tens of thousands).
//
// Decompression is Alg. 1 verbatim:
//   ref  <- Fetch(city)[tid]
//   diff <- Fetch(zip_code)[tid]
//   return values[offsets[ref] + diff]
//
// Precondition: the reference column's logical values are dense codes in
// [0, C) — e.g. dictionary codes of a string column, or LDBC's countryid.
// CorraCompressor dict-encodes reference columns that are not yet dense.

#ifndef CORRA_CORE_HIERARCHICAL_ENCODING_H_
#define CORRA_CORE_HIERARCHICAL_ENCODING_H_

#include <memory>
#include <span>
#include <vector>

#include "common/bit_stream.h"
#include "core/horizontal.h"

namespace corra {

class HierarchicalColumn final : public SingleRefColumn {
 public:
  /// Encodes `target` against the dense reference codes `ref_codes`
  /// (same length, each in [0, max_code]). `ref_index` is the block-local
  /// index of the reference column.
  static Result<std::unique_ptr<HierarchicalColumn>> Encode(
      std::span<const int64_t> target, std::span<const int64_t> ref_codes,
      uint32_t ref_index);

  /// Compressed size `target` would have under hierarchical encoding
  /// against `ref_codes`, without building the packed payload.
  /// SIZE_MAX when inapplicable (non-dense reference).
  static size_t EstimateSizeBytes(std::span<const int64_t> target,
                                  std::span<const int64_t> ref_codes);

  static Result<std::unique_ptr<HierarchicalColumn>> Deserialize(
      BufferReader* reader);

  enc::Scheme scheme() const override { return enc::Scheme::kHierarchical; }
  size_t size() const override { return local_.size(); }
  size_t SizeBytes() const override;
  int64_t Get(size_t row) const override;
  void GatherWithReference(std::span<const uint32_t> rows,
                           const int64_t* ref_values,
                           int64_t* out) const override;
  void DecodeRangeWithReference(size_t row_begin, size_t count,
                                const int64_t* ref_values,
                                int64_t* out) const override;
  void Serialize(BufferWriter* writer) const override;

  /// Exhaustively checks that every row's (ref code, local index) pair is
  /// within bounds. O(n); used after deserializing untrusted bytes.
  Status VerifyWithReference() const;

  int bit_width() const { return local_.bit_width(); }
  /// Number of distinct reference codes covered by the metadata.
  size_t ref_cardinality() const { return offsets_.size() - 1; }
  /// Total distinct (ref, target) pairs — the length of the values array.
  size_t value_count() const { return values_.size(); }

 private:
  HierarchicalColumn(uint32_t ref_index, std::vector<int64_t> values,
                     std::vector<uint32_t> offsets,
                     SharedBytes bytes, int bit_width, size_t count);

  // Clamped index into values_ of (reference code, local index).
  size_t ValueIndex(int64_t ref_code, uint64_t local) const;

  std::vector<int64_t> values_;    // Concatenated local dictionaries.
  std::vector<uint32_t> offsets_;  // ref_cardinality()+1 entries.
  SharedBytes bytes_;              // Bit-packed local indices.
  BitReader local_;
};

}  // namespace corra

#endif  // CORRA_CORE_HIERARCHICAL_ENCODING_H_
