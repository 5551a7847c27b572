#include "query/aggregate.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <type_traits>

#include "common/simd/simd.h"
#include "core/ref_dispatch.h"
#include "encoding/dictionary.h"
#include "query/kernel_counters.h"
#include "query/morsel.h"

namespace corra::query {

namespace {

// All folds run one SIMD aggregate kernel per morsel (4-lane
// accumulators, one horizontal reduce per call) instead of a scalar
// per-row fold; see common/simd/simd.h.

// Ranged decode-and-minmax fallback for any scheme.
void MinMaxGeneric(const enc::EncodedColumn& column, int64_t* min,
                   int64_t* max) {
  int64_t lo = column.Get(0);
  int64_t hi = lo;
  ForEachDecodedMorsel(
      column, 0, column.size(),
      [&](size_t, const int64_t* values, size_t len) {
        int64_t morsel_min;
        int64_t morsel_max;
        simd::MinMaxI64(values, len, &morsel_min, &morsel_max);
        lo = std::min(lo, morsel_min);
        hi = std::max(hi, morsel_max);
      });
  *min = lo;
  *max = hi;
}

// Extreme *used* dictionary codes in one pass over the packed codes.
void MinMaxCodes(const enc::DictColumn& column, uint64_t* min_code,
                 uint64_t* max_code) {
  uint64_t lo = ~uint64_t{0};
  uint64_t hi = 0;
  uint64_t codes[kMorselRows];
  ForEachMorsel(0, column.size(), [&](size_t begin, size_t len) {
    column.DecodeCodes(begin, len, codes);
    uint64_t morsel_min;
    uint64_t morsel_max;
    simd::MinMaxU64(codes, len, &morsel_min, &morsel_max);
    lo = std::min(lo, morsel_min);
    hi = std::max(hi, morsel_max);
  });
  *min_code = lo;
  *max_code = hi;
}

}  // namespace

int64_t SumColumn(const enc::EncodedColumn& column) {
  return static_cast<int64_t>(column.SumRange(0, column.size()));
}

std::optional<int64_t> MinColumn(const enc::EncodedColumn& column) {
  const size_t n = column.size();
  if (n == 0) {
    return std::nullopt;
  }
  int64_t result = 0;
  DispatchRef(column, [&](const auto& col) {
    using Column = std::decay_t<decltype(col)>;
    if constexpr (std::is_same_v<Column, enc::DictColumn>) {
      // The dictionary is sorted; the smallest *used* code gives the
      // min. Every dictionary entry produced by Encode is used, so code
      // 0 works; after deserialization that invariant is unchecked, so
      // scan codes.
      uint64_t min_code;
      uint64_t max_code;
      MinMaxCodes(col, &min_code, &max_code);
      result = col.dictionary()[min_code];
    } else {
      int64_t max_unused;
      MinMaxGeneric(col, &result, &max_unused);
    }
  });
  return result;
}

std::optional<int64_t> MaxColumn(const enc::EncodedColumn& column) {
  const size_t n = column.size();
  if (n == 0) {
    return std::nullopt;
  }
  int64_t result = 0;
  DispatchRef(column, [&](const auto& col) {
    using Column = std::decay_t<decltype(col)>;
    if constexpr (std::is_same_v<Column, enc::DictColumn>) {
      uint64_t min_code;
      uint64_t max_code;
      MinMaxCodes(col, &min_code, &max_code);
      result = col.dictionary()[max_code];
    } else {
      int64_t min_unused;
      MinMaxGeneric(col, &min_unused, &result);
    }
  });
  return result;
}

std::optional<MinMax> MinMaxColumn(const enc::EncodedColumn& column) {
  if (column.size() == 0) {
    return std::nullopt;
  }
  MinMax result{};
  DispatchRef(column, [&](const auto& col) {
    using Column = std::decay_t<decltype(col)>;
    if constexpr (std::is_same_v<Column, enc::DictColumn>) {
      // One fused pass over the packed codes finds both extreme used
      // codes.
      uint64_t min_code;
      uint64_t max_code;
      MinMaxCodes(col, &min_code, &max_code);
      result = MinMax{col.dictionary()[min_code],
                      col.dictionary()[max_code]};
    } else {
      result = MinMax{};
      MinMaxGeneric(col, &result.min, &result.max);
    }
  });
  return result;
}

std::optional<int64_t> AggregateAt(const enc::EncodedColumn& column,
                                   std::span<const uint32_t> rows,
                                   AggregateOp op) {
  assert(std::adjacent_find(rows.begin(), rows.end(),
                            std::greater_equal<>()) == rows.end());
  if (rows.empty()) {
    return op == AggregateOp::kSum ? std::optional<int64_t>(0)
                                   : std::nullopt;
  }
  if (rows.size() == 1) {
    return column.Get(rows[0]);  // A point read, as in ScanColumn.
  }
  uint64_t sum = 0;
  int64_t lo = INT64_MAX;
  int64_t hi = INT64_MIN;
  auto fold = [&](const int64_t* values, size_t len) {
    if (op == AggregateOp::kSum) {
      sum += simd::SumU64(reinterpret_cast<const uint64_t*>(values), len);
      return;
    }
    int64_t morsel_min;
    int64_t morsel_max;
    simd::MinMaxI64(values, len, &morsel_min, &morsel_max);
    lo = std::min(lo, morsel_min);
    hi = std::max(hi, morsel_max);
  };
  // Strictly increasing positions spanning exactly rows.size() rows are
  // a dense range: a sum runs in the compressed domain, min and max fold
  // ranged decodes.
  if (rows.back() - rows.front() + 1 == rows.size()) {
    CountDecodeRows(column.scheme(), rows.size());
    if (op == AggregateOp::kSum) {
      sum = column.SumRange(rows.front(), rows.size());
    } else {
      ForEachDecodedMorsel(column, rows.front(), rows.size(),
                           [&](size_t, const int64_t* values, size_t len) {
                             fold(values, len);
                           });
    }
  } else {
    CountGatherRows(column.scheme(), rows.size());
    int64_t values[kMorselRows];
    ForEachMorsel(0, rows.size(), [&](size_t begin, size_t len) {
      column.GatherRange(rows.subspan(begin, len), values);
      fold(values, len);
    });
  }
  switch (op) {
    case AggregateOp::kSum:
      return static_cast<int64_t>(sum);
    case AggregateOp::kMin:
      return lo;
    case AggregateOp::kMax:
      return hi;
  }
  return std::nullopt;
}

}  // namespace corra::query
