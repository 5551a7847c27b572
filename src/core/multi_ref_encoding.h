// Non-hierarchical encoding with multiple reference columns — Sec. 2.3.
//
// The target column (Taxi's total_amount) is usually an arithmetic
// combination of *groups* of reference columns:
//
//   group A: mta_tax + fare_amount + improvement_surcharge + extra
//            + tip_amount + tolls_amount
//   group B: congestion_surcharge
//   group C: airport_fee
//
//   code 00 -> A          (31.19% of rows)
//   code 01 -> A + B      (62.44%)
//   code 10 -> A + C      ( 2.69%)
//   code 11 -> A + B + C  ( 3.33%)
//   outlier  (no formula)  ( 0.32%)         [paper Table 1]
//
// Each row stores only the 2-bit code of the formula reconstructing it;
// rows matching no formula go to the outlier store (Fig. 4). Because the
// outlier indices identify outliers, no fifth sentinel code is needed and
// 2 bits suffice — the paper's closing argument in Sec. 2.3.
//
// The implementation generalizes the example: any number of groups G <= 8,
// any formula set (bitmasks over groups), any code width 1..8 bits.
//
// SUM never decodes the target (SumRange). Each row adds the formula its
// code names, so the sum over a range is a sum over the references: a
// group every formula adds (A) contributes its columns' own SumRange,
// each in its compressed domain; a group only some formulas add (B, C)
// contributes its value only on rows whose code selects it. For codes
// of at most 2 bits and a 1-bit Dict column (congestion_surcharge and
// airport_fee in taxi), those rows are counted per dictionary value
// from the bit planes of both streams. Each outlier in the range then
// swaps its formula's value for its own. A MultiRef with any other
// column in such a group sums by decode-and-fold instead.

#ifndef CORRA_CORE_MULTI_REF_ENCODING_H_
#define CORRA_CORE_MULTI_REF_ENCODING_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/bit_stream.h"
#include "core/outlier_store.h"
#include "encoding/encoded_column.h"

namespace corra {

namespace enc {
class DictColumn;
}  // namespace enc

/// The arithmetic logic of a multi-reference encoding: which columns form
/// which group, and which group subsets are expressible as row codes.
struct FormulaTable {
  /// Block-local column indices per group. Group g's contribution to a row
  /// is the sum of its columns' values at that row.
  std::vector<std::vector<uint32_t>> groups;
  /// One bitmask per code value: bit g set => add group g's sum.
  std::vector<uint8_t> formulas;
  /// Bits stored per row (1..8); formulas.size() <= 2^code_bits.
  int code_bits = 2;

  /// Structural validation (group/formula/bit-width consistency).
  Status Validate() const;
};

/// Resolves a block-local column index to its values at encode time.
using ColumnResolver = std::function<std::span<const int64_t>(uint32_t)>;

class MultiRefColumn final : public enc::EncodedColumn {
 public:
  /// Encodes `target` using the formulas in `table`; reference values are
  /// obtained through `resolver`. Rows matching no formula become
  /// outliers. Fails if the outlier fraction exceeds
  /// `max_outlier_fraction`.
  static Result<std::unique_ptr<MultiRefColumn>> Encode(
      std::span<const int64_t> target, const ColumnResolver& resolver,
      const FormulaTable& table, double max_outlier_fraction = 0.05);

  /// Learns the most frequent formulas from the data (the "automatic
  /// correlation detection" the paper lists as future work): counts, on up
  /// to `sample_limit` rows, how often each non-empty subset of groups sums
  /// to the target, and keeps the 2^code_bits most frequent subsets.
  static Result<FormulaTable> DeriveFormulas(
      std::span<const int64_t> target, const ColumnResolver& resolver,
      std::vector<std::vector<uint32_t>> groups, int code_bits = 2,
      size_t sample_limit = 65536);

  static Result<std::unique_ptr<MultiRefColumn>> Deserialize(
      BufferReader* reader);

  enc::Scheme scheme() const override { return enc::Scheme::kMultiRef; }
  size_t size() const override { return codes_.size(); }
  size_t SizeBytes() const override;
  int64_t Get(size_t row) const override;
  void GatherRange(std::span<const uint32_t> rows,
                   int64_t* out) const override;
  void DecodeRange(size_t row_begin, size_t count,
                   int64_t* out) const override;
  uint64_t SumRange(size_t row_begin, size_t count) const override;
  void Serialize(BufferWriter* writer) const override;

  std::vector<uint32_t> ReferenceIndices() const override;
  Status BindReferences(
      std::span<const enc::EncodedColumn* const> references) override;

  const FormulaTable& table() const { return table_; }
  const OutlierStore& outliers() const { return outliers_; }
  double outlier_fraction() const {
    return size() == 0 ? 0.0
                       : static_cast<double>(outliers_.size()) /
                             static_cast<double>(size());
  }

  /// Per-code row counts (excluding outlier rows) plus the outlier count —
  /// the measured version of the paper's Table 1.
  struct CodeStats {
    std::vector<size_t> code_counts;
    size_t outlier_count = 0;
  };
  CodeStats ComputeCodeStats() const;

 private:
  MultiRefColumn(FormulaTable table, SharedBytes bytes, size_t count,
                 OutlierStore outliers);

  // Writes the formula sums of `len` (<= enc::kMorselRows) rows with
  // formula codes `codes` into `out`, shared by DecodeRange and
  // GatherRange. `fetch(column, dst)` materializes those rows of one
  // bound reference column into `dst`.
  template <typename Fetch>
  void Combine(const uint64_t* codes, size_t len, const Fetch& fetch,
               int64_t* out) const;

  // The formula sums at the sorted positions `rows`, outliers not
  // patched: GatherRange patches them, SumRange corrects for them.
  void GatherFormulas(std::span<const uint32_t> rows, int64_t* out) const;

  // `col` as a 1-bit Dict when SumRange can count it from bit planes
  // (codes of at most 2 bits), else null.
  const enc::DictColumn* PlaneColumn(const enc::EncodedColumn* col) const;

  FormulaTable table_;
  SharedBytes bytes_;  // Bit-packed formula codes.
  BitReader codes_;
  OutlierStore outliers_;
  // Groups every formula adds, and groups only some formulas add.
  uint8_t always_groups_ = 0;
  uint8_t masked_groups_ = 0;
  // lane_masks_[g * formulas.size() + code]: all ones when formula
  // `code` adds group g, else zero.
  std::vector<uint64_t> lane_masks_;
  // Bound reference columns, aligned with table_.groups.
  std::vector<std::vector<const enc::EncodedColumn*>> bound_groups_;
};

}  // namespace corra

#endif  // CORRA_CORE_MULTI_REF_ENCODING_H_
