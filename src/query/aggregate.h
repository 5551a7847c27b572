// Aggregate pushdown over encoded columns: SUM / MIN / MAX evaluated on
// the compressed representation where the scheme allows shortcuts.
//
//   * SUM: EncodedColumn::SumRange. FOR folds the packed offsets and adds
//     n * base once; Dict counts 1- and 2-bit codes from bit planes and
//     fuses lookup and fold for wider ones; Diff and MultiRef add up
//     their references' own SumRange (the correlation, applied to
//     computation), so the target is never decoded; every other scheme
//     folds ranged decodes.
//   * MIN / MAX: Dict folds the bit-packed codes; everything else folds
//     ranged decodes over morsels (one DecodeRange dispatch per 2048
//     rows; see query/morsel.h).
//
// AggregateAt folds at a selection (a filtered scan's matches): a
// contiguous one is a SumRange (or a ranged min/max fold), any other is
// folded over positioned gathers morsel by morsel, without materializing
// the selected values.
//
// Sums are computed in unsigned 64-bit arithmetic (wrap-around), which is
// exact modulo 2^64 and matches what a fold over the decoded values
// produces.

#ifndef CORRA_QUERY_AGGREGATE_H_
#define CORRA_QUERY_AGGREGATE_H_

#include <cstdint>
#include <optional>
#include <span>

#include "encoding/encoded_column.h"

namespace corra::query {

/// Sum of all values (wrap-around int64). 0 for an empty column.
int64_t SumColumn(const enc::EncodedColumn& column);

/// Minimum / maximum value; nullopt for an empty column.
std::optional<int64_t> MinColumn(const enc::EncodedColumn& column);
std::optional<int64_t> MaxColumn(const enc::EncodedColumn& column);

/// Both extrema in one decode pass (the block-stats writer's kernel).
struct MinMax {
  int64_t min;
  int64_t max;
};
std::optional<MinMax> MinMaxColumn(const enc::EncodedColumn& column);

enum class AggregateOp { kSum, kMin, kMax };

/// `op` over the values of `column` at the positions `rows`, which must
/// be strictly increasing and < column.size() (FilterToSelection output).
/// A contiguous selection is summed by SumRange or min/max-folded over
/// ranged decodes, any other is folded over positioned gathers, one
/// morsel-sized chunk at a time; the decode and
/// gather row counters move as ScanColumn's would. The sum wraps like
/// SumColumn's and is 0 for an empty selection; min and max are nullopt
/// for one.
std::optional<int64_t> AggregateAt(const enc::EncodedColumn& column,
                                   std::span<const uint32_t> rows,
                                   AggregateOp op);

}  // namespace corra::query

#endif  // CORRA_QUERY_AGGREGATE_H_
