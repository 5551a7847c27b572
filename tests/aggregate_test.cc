// Aggregate pushdown (query/aggregate.h) and parallel compression.

#include "query/aggregate.h"

#include <gtest/gtest.h>

#include "core/c3/dfor.h"
#include "core/c3/numerical.h"
#include "core/c3/one_to_one.h"
#include "core/corra_compressor.h"
#include "core/diff_encoding.h"
#include "core/hierarchical_encoding.h"
#include "core/multi_ref_encoding.h"
#include "encoding/bitpack.h"
#include "encoding/delta.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "encoding/plain.h"
#include "encoding/rle.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace corra::query {
namespace {

using test::Dist;
using test::MakeValues;

struct Expected {
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
};

Expected Reference(const std::vector<int64_t>& values) {
  Expected e;
  e.min = values.empty() ? 0 : values[0];
  e.max = e.min;
  uint64_t sum = 0;
  for (int64_t v : values) {
    sum += static_cast<uint64_t>(v);
    e.min = std::min(e.min, v);
    e.max = std::max(e.max, v);
  }
  e.sum = static_cast<int64_t>(sum);
  return e;
}

class AggregateTest : public ::testing::TestWithParam<Dist> {};

TEST_P(AggregateTest, ForFastPath) {
  const auto values = MakeValues(GetParam(), 3000, 1);
  const Expected expected = Reference(values);
  auto column = enc::ForColumn::Encode(values).value();
  EXPECT_EQ(SumColumn(*column), expected.sum);
  EXPECT_EQ(MinColumn(*column), expected.min);
  EXPECT_EQ(MaxColumn(*column), expected.max);
}

TEST_P(AggregateTest, DictFastPath) {
  const auto values = MakeValues(GetParam(), 3000, 2);
  const Expected expected = Reference(values);
  auto column = enc::DictColumn::Encode(values).value();
  EXPECT_EQ(SumColumn(*column), expected.sum);
  EXPECT_EQ(MinColumn(*column), expected.min);
  EXPECT_EQ(MaxColumn(*column), expected.max);
}

TEST_P(AggregateTest, GenericPath) {
  const auto values = MakeValues(GetParam(), 3000, 3);
  const Expected expected = Reference(values);
  auto column = enc::DeltaColumn::Encode(values).value();
  EXPECT_EQ(SumColumn(*column), expected.sum);
  EXPECT_EQ(MinColumn(*column), expected.min);
  EXPECT_EQ(MaxColumn(*column), expected.max);
}

// Selections FilterToSelection can return: empty, one row, contiguous
// runs (inside a morsel, straddling one, the whole column), and sparse or
// dense random ones longer than a morsel.
std::vector<std::vector<uint32_t>> AggregateSelections(size_t n) {
  std::vector<std::vector<uint32_t>> selections = {{}, {7}};
  auto run = [](size_t begin, size_t count) {
    std::vector<uint32_t> rows(count);
    for (size_t i = 0; i < count; ++i) {
      rows[i] = static_cast<uint32_t>(begin + i);
    }
    return rows;
  };
  selections.push_back(run(10, 2));
  selections.push_back(run(2000, 100));
  selections.push_back(run(0, n));
  Rng rng(12);
  for (const double rate : {0.05, 0.9}) {
    std::vector<uint32_t> rows;
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextDouble() < rate) {
        rows.push_back(static_cast<uint32_t>(i));
      }
    }
    selections.push_back(std::move(rows));
  }
  return selections;
}

uint64_t KernelRows(const char* counter, enc::Scheme scheme) {
  return obs::Registry::Default()
      .counter(std::string(counter) + "{scheme=\"" +
               std::string(enc::SchemeToString(scheme)) + "\"}")
      .Value();
}

TEST_P(AggregateTest, AggregateAtMatchesFoldOverSelection) {
  const size_t n = 5000;  // More than two morsels.
  const auto values = MakeValues(GetParam(), n, 4);
  std::vector<std::unique_ptr<enc::EncodedColumn>> columns;
  columns.push_back(enc::ForColumn::Encode(values).value());
  columns.push_back(enc::DictColumn::Encode(values).value());
  columns.push_back(enc::DeltaColumn::Encode(values).value());
  columns.push_back(enc::PlainColumn::Encode(values));
  for (const auto& column : columns) {
    for (const auto& rows : AggregateSelections(n)) {
      SCOPED_TRACE(std::string(enc::SchemeToString(column->scheme())) +
                   ", " + std::to_string(rows.size()) + " rows");
      std::vector<int64_t> selected;
      for (uint32_t row : rows) {
        selected.push_back(values[row]);
      }
      const Expected expected = Reference(selected);
      const uint64_t decoded =
          KernelRows("query.decode_rows", column->scheme());
      const uint64_t gathered =
          KernelRows("query.gather_rows", column->scheme());
      EXPECT_EQ(AggregateAt(*column, rows, AggregateOp::kSum), expected.sum);
      const auto min = AggregateAt(*column, rows, AggregateOp::kMin);
      const auto max = AggregateAt(*column, rows, AggregateOp::kMax);
      if (rows.empty()) {
        EXPECT_FALSE(min.has_value());
        EXPECT_FALSE(max.has_value());
      } else {
        EXPECT_EQ(min, expected.min);
        EXPECT_EQ(max, expected.max);
      }
      if (!obs::Enabled()) {
        continue;
      }
      // Three calls, counted as ScanColumn counts: a point read moves no
      // counter, a contiguous run counts as decoded, the rest as
      // gathered.
      const bool contiguous =
          rows.size() > 1 && rows.back() - rows.front() + 1 == rows.size();
      const bool sparse = rows.size() > 1 && !contiguous;
      EXPECT_EQ(KernelRows("query.decode_rows", column->scheme()) - decoded,
                contiguous ? 3 * rows.size() : 0);
      EXPECT_EQ(KernelRows("query.gather_rows", column->scheme()) - gathered,
                sparse ? 3 * rows.size() : 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, AggregateTest,
                         ::testing::Values(Dist::kConstant,
                                           Dist::kSmallRange,
                                           Dist::kNegative, Dist::kLowCard,
                                           Dist::kSorted, Dist::kExtremes),
                         [](const auto& param_info) {
                           return test::DistName(param_info.param);
                         });

TEST(AggregateTest, EmptyColumn) {
  auto column = enc::ForColumn::Encode(std::span<const int64_t>{}).value();
  EXPECT_EQ(SumColumn(*column), 0);
  EXPECT_FALSE(MinColumn(*column).has_value());
  EXPECT_FALSE(MaxColumn(*column).has_value());
}

TEST(AggregateTest, WorksOnDiffEncodedColumns) {
  Rng rng(4);
  const size_t n = 5000;
  std::vector<int64_t> ship(n);
  std::vector<int64_t> receipt(n);
  for (size_t i = 0; i < n; ++i) {
    ship[i] = rng.Uniform(8035, 10591);
    receipt[i] = ship[i] + rng.Uniform(1, 30);
  }
  const Expected expected = Reference(receipt);
  Table table;
  ASSERT_TRUE(table.AddColumn(Column::Date("ship", ship)).ok());
  ASSERT_TRUE(table.AddColumn(Column::Date("receipt", receipt)).ok());
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kDiff;
  plan.columns[1].reference = 0;
  auto compressed = CorraCompressor::Compress(table, plan).value();
  EXPECT_EQ(SumColumn(compressed.block(0).column(1)), expected.sum);
  EXPECT_EQ(MinColumn(compressed.block(0).column(1)), expected.min);
  EXPECT_EQ(MaxColumn(compressed.block(0).column(1)), expected.max);
}

// ---- SumRange vs decode-and-fold -------------------------------------------

constexpr size_t kSumRows = 5000;  // More than two morsels.

// Checks SumRange against a wrapping fold of the decoded column over
// windows that begin at every offset modulo 64 of [96, 160) and end at
// every offset modulo 64 of [608, 672) (every head and tail mask of the
// 64-row bit-plane groups), short windows, windows across the first
// morsel boundary, the whole column, and windows that begin or end on
// each row of `edge_rows` (the outliers).
void ExpectSumRangeMatchesDecode(const enc::EncodedColumn& column,
                                 const std::vector<uint32_t>& edge_rows = {}) {
  const size_t n = column.size();
  ASSERT_GE(n, size_t{2100});
  std::vector<int64_t> decoded(n);
  column.DecodeRange(0, n, decoded.data());
  std::vector<uint64_t> prefix(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + static_cast<uint64_t>(decoded[i]);
  }
  auto check = [&](size_t begin, size_t end) {
    ASSERT_EQ(column.SumRange(begin, end - begin), prefix[end] - prefix[begin])
        << enc::SchemeToString(column.scheme()) << " [" << begin << ", "
        << end << ")";
  };
  for (size_t begin = 96; begin < 160; ++begin) {
    for (size_t end = 608; end < 672; ++end) {
      check(begin, end);
    }
    for (size_t len = 0; len < 4; ++len) {
      check(begin, begin + len);
    }
  }
  check(2000, 2100);
  check(1, n - 1);
  check(0, n);
  for (uint32_t row : edge_rows) {
    check(row, row + 1);
    check(row, std::min<size_t>(n, row + 700));
    check(row >= 700 ? row - 699 : 0, row + 1);
  }
}

// `n` values cycling near INT64_MAX and INT64_MIN, so every sum wraps.
std::vector<int64_t> WrappingValues(size_t n, int64_t spread, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = rng.NextDouble() < 0.5 ? INT64_MAX - rng.Uniform(0, spread)
                                       : INT64_MIN + rng.Uniform(0, spread);
  }
  return values;
}

// Values that FOR and Dict pack at exactly `width` bits (0 to 3), all
// near INT64_MAX so the sums wrap.
std::vector<int64_t> NarrowValues(int width, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> values(n);
  const int64_t top = (int64_t{1} << width) - 1;
  for (size_t i = 0; i < n; ++i) {
    values[i] = INT64_MAX - 7 + rng.Uniform(0, top);
  }
  values[0] = INT64_MAX - 7;        // Both ends of the range, so the
  values[n - 1] = INT64_MAX - 7 + top;  // width is exactly `width`.
  return values;
}

TEST(SumRangeTest, ForAndDictAtNarrowAndWideWidths) {
  for (int width = 0; width <= 3; ++width) {
    SCOPED_TRACE("width " + std::to_string(width));
    const auto values = NarrowValues(width, kSumRows, 10 + width);
    auto for_column = enc::ForColumn::Encode(values).value();
    ASSERT_EQ(for_column->bit_width(), width);
    ExpectSumRangeMatchesDecode(*for_column);
    auto dict_column = enc::DictColumn::Encode(values).value();
    ASSERT_EQ(dict_column->bit_width(), width);
    ExpectSumRangeMatchesDecode(*dict_column);
  }
  // Wide: FOR over the whole int64 range (width 64), Dict at 13 bits.
  const auto wrapping = WrappingValues(kSumRows, 1000, 14);
  ExpectSumRangeMatchesDecode(*enc::ForColumn::Encode(wrapping).value());
  ExpectSumRangeMatchesDecode(*enc::DictColumn::Encode(wrapping).value());
}

TEST(SumRangeTest, OtherVerticalSchemes) {
  const auto extremes = test::MakeValues(Dist::kExtremes, kSumRows, 15);
  ExpectSumRangeMatchesDecode(*enc::PlainColumn::Encode(extremes));
  const auto small = test::MakeValues(Dist::kSmallRange, kSumRows, 16);
  ExpectSumRangeMatchesDecode(*enc::BitPackColumn::Encode(small).value());
  for (const auto layout : {enc::DeltaLayout::kPacked,
                            enc::DeltaLayout::kInline}) {
    ExpectSumRangeMatchesDecode(
        *enc::DeltaColumn::Encode(
             extremes, enc::DeltaColumn::kDefaultCheckpointInterval, layout)
             .value());
  }
  const auto runs = test::MakeValues(Dist::kRunHeavy, kSumRows, 17);
  ExpectSumRangeMatchesDecode(*enc::RleColumn::Encode(runs).value());
}

// A horizontal column bound to one reference column.
struct BoundColumn {
  std::unique_ptr<enc::EncodedColumn> reference;
  std::unique_ptr<enc::EncodedColumn> target;
};

BoundColumn Bind(std::unique_ptr<enc::EncodedColumn> reference,
                 std::unique_ptr<enc::EncodedColumn> target) {
  const enc::EncodedColumn* refs[] = {reference.get()};
  EXPECT_TRUE(target->BindReferences(refs).ok());
  return BoundColumn{std::move(reference), std::move(target)};
}

// Rows 0, 63, 64, 127, 128, 2047, 2048 and the last: outliers that sit
// on the first or last row of the windows ExpectSumRangeMatchesDecode
// builds around them, and on 64-row group and morsel edges.
std::vector<uint32_t> EdgeOutlierRows(size_t n) {
  return {0, 63, 64, 127, 128, 2047, 2048, static_cast<uint32_t>(n - 1)};
}

TEST(SumRangeTest, DiffInEveryMode) {
  const size_t n = kSumRows;
  Rng rng(18);
  // The reference sits near INT64_MAX, so reference + diff wraps.
  std::vector<int64_t> reference(n);
  for (auto& v : reference) {
    v = INT64_MAX - rng.Uniform(0, 100);
  }
  auto wrap_add = [](int64_t a, int64_t b) {
    return static_cast<int64_t>(static_cast<uint64_t>(a) +
                                static_cast<uint64_t>(b));
  };
  std::vector<int64_t> positive(n);
  std::vector<int64_t> negative(n);
  std::vector<int64_t> spiky(n);
  for (size_t i = 0; i < n; ++i) {
    positive[i] = wrap_add(reference[i], rng.Uniform(1, 30));
    negative[i] = wrap_add(reference[i], -rng.Uniform(1, 30));
    spiky[i] = wrap_add(reference[i], rng.Uniform(1000, 1030));
  }
  const auto edges = EdgeOutlierRows(n);
  for (uint32_t row : edges) {
    spiky[row] = wrap_add(spiky[row], rng.Uniform(100000, 200000));
  }
  DiffOptions options;
  options.use_outliers = true;
  const struct {
    const std::vector<int64_t>* target;
    DiffOptions options;
    DiffMode mode;
  } cases[] = {{&positive, {}, DiffMode::kRaw},
               {&negative, {}, DiffMode::kZigZag},
               {&spiky, options, DiffMode::kWindow}};
  for (const auto& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.mode));
    auto bound = Bind(enc::ForColumn::Encode(reference).value(),
                      DiffEncodedColumn::Encode(*c.target, reference, 0,
                                                c.options)
                          .value());
    const auto& diff = static_cast<const DiffEncodedColumn&>(*bound.target);
    ASSERT_EQ(diff.mode(), c.mode);
    if (c.mode == DiffMode::kWindow) {
      ASSERT_EQ(diff.outliers().size(), edges.size());
    }
    ExpectSumRangeMatchesDecode(*bound.target, edges);
  }
}

TEST(SumRangeTest, HierarchicalAndC3Schemes) {
  const size_t n = kSumRows;
  Rng rng(19);
  std::vector<int64_t> city(n);
  std::vector<int64_t> zip(n);
  std::vector<int64_t> reference(n);
  std::vector<int64_t> affine(n);
  std::vector<int64_t> mapped(n);
  for (size_t i = 0; i < n; ++i) {
    city[i] = rng.Uniform(0, 99);
    zip[i] = INT64_MAX - city[i] * 30 - rng.Uniform(0, 29);
    reference[i] = rng.Uniform(8035, 10591);
    affine[i] = 3 * reference[i] + rng.Uniform(-20, 20);
    mapped[i] = city[i] * 7 + 1;
  }
  std::vector<uint32_t> mapped_outliers = EdgeOutlierRows(n);
  for (uint32_t row : mapped_outliers) {
    mapped[row] += 3;
  }
  ExpectSumRangeMatchesDecode(
      *Bind(enc::ForColumn::Encode(city).value(),
            HierarchicalColumn::Encode(zip, city, 0).value())
           .target);
  ExpectSumRangeMatchesDecode(
      *Bind(enc::ForColumn::Encode(reference).value(),
            c3::DforColumn::Encode(affine, reference, 0).value())
           .target);
  ExpectSumRangeMatchesDecode(
      *Bind(enc::ForColumn::Encode(reference).value(),
            c3::NumericalColumn::Encode(affine, reference, 0).value())
           .target);
  ExpectSumRangeMatchesDecode(
      *Bind(enc::ForColumn::Encode(city).value(),
            c3::OneToOneColumn::Encode(mapped, city, 0).value())
           .target,
      mapped_outliers);
}

// A MultiRef column over randomly drawn formulas, with reference columns
// cycling through a 1-bit Dict (the bit-plane path when code_bits <= 2),
// FOR, Plain and a wide Dict, all valued near INT64_MIN or INT64_MAX.
// The edge rows plus ~1% of the rest are outliers.
void ExpectMultiRefSumMatches(const std::vector<size_t>& group_sizes,
                              const std::vector<uint8_t>& formulas,
                              int code_bits, uint64_t seed) {
  SCOPED_TRACE("code_bits " + std::to_string(code_bits) + ", seed " +
               std::to_string(seed));
  const size_t n = kSumRows;
  Rng rng(seed);
  FormulaTable table;
  table.formulas = formulas;
  table.code_bits = code_bits;
  std::vector<std::vector<int64_t>> columns;
  std::vector<std::unique_ptr<enc::EncodedColumn>> refs;
  for (size_t size : group_sizes) {
    std::vector<uint32_t> group;
    for (size_t c = 0; c < size; ++c) {
      const size_t kind = columns.size() % 4;
      group.push_back(static_cast<uint32_t>(columns.size()));
      std::vector<int64_t> values = WrappingValues(n, 1000, rng.Next());
      if (kind == 0) {
        for (int64_t& v : values) {  // Two distinct values: 1-bit Dict.
          v = v < 0 ? INT64_MIN + 3 : INT64_MAX - 5;
        }
        refs.push_back(enc::DictColumn::Encode(values).value());
      } else if (kind == 1) {
        refs.push_back(enc::ForColumn::Encode(values).value());
      } else if (kind == 2) {
        refs.push_back(enc::PlainColumn::Encode(values));
      } else {
        refs.push_back(enc::DictColumn::Encode(values).value());
      }
      columns.push_back(std::move(values));
    }
    table.groups.push_back(std::move(group));
  }
  auto formula_sum = [&](uint8_t mask, size_t row) {
    uint64_t sum = 0;
    for (size_t g = 0; g < table.groups.size(); ++g) {
      if (mask & (1u << g)) {
        for (uint32_t col : table.groups[g]) {
          sum += static_cast<uint64_t>(columns[col][row]);
        }
      }
    }
    return static_cast<int64_t>(sum);
  };
  const std::vector<uint32_t> edges = EdgeOutlierRows(n);
  std::vector<uint32_t> outlier_rows;
  std::vector<int64_t> target(n);
  for (size_t i = 0; i < n; ++i) {
    const bool outlier =
        std::find(edges.begin(), edges.end(), i) != edges.end() ||
        rng.NextDouble() < 0.01;
    if (!outlier) {
      const size_t code = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(formulas.size()) - 1));
      target[i] = formula_sum(formulas[code], i);
      continue;
    }
    bool matches = true;  // Draw a value no formula produces.
    while (matches) {
      target[i] = static_cast<int64_t>(rng.Next());
      matches = false;
      for (uint8_t mask : formulas) {
        matches = matches || formula_sum(mask, i) == target[i];
      }
    }
    outlier_rows.push_back(static_cast<uint32_t>(i));
  }
  auto column = MultiRefColumn::Encode(
                    target,
                    [&](uint32_t col) -> std::span<const int64_t> {
                      return columns[col];
                    },
                    table, 0.05)
                    .value();
  ASSERT_EQ(column->outliers().size(), outlier_rows.size());
  std::vector<const enc::EncodedColumn*> bound;
  for (const auto& ref : refs) {
    bound.push_back(ref.get());
  }
  ASSERT_TRUE(column->BindReferences(bound).ok());
  uint64_t expected = 0;
  for (int64_t v : target) {
    expected += static_cast<uint64_t>(v);
  }
  EXPECT_EQ(column->SumRange(0, n), expected);
  ExpectSumRangeMatchesDecode(*column, outlier_rows);
}

TEST(SumRangeTest, MultiRefGroupsInEverySomeAndNoFormula) {
  // Group 0 in every formula, group 1 in some, group 2 in none.
  ExpectMultiRefSumMatches({3, 4, 2}, {0b001, 0b011}, 1, 1);
  ExpectMultiRefSumMatches({3, 4, 2}, {0b001, 0b011, 0b001, 0b011}, 2, 2);
  // The paper's taxi shape: A always, B and C masked, four formulas.
  ExpectMultiRefSumMatches({6, 1, 1}, {0b001, 0b011, 0b101, 0b111}, 2, 3);
  // No group in every formula.
  ExpectMultiRefSumMatches({1, 2}, {0b01, 0b10}, 1, 4);
  ExpectMultiRefSumMatches({2, 1, 5}, {0b001, 0b010, 0b110}, 2, 5);
  // Eight groups under 8-bit codes: no bit-plane path.
  std::vector<uint8_t> all_subsets;
  for (int mask = 1; mask < 256; ++mask) {
    all_subsets.push_back(static_cast<uint8_t>(mask));
  }
  ExpectMultiRefSumMatches({1, 2, 1, 1, 3, 1, 1, 2}, all_subsets, 8, 6);
  ExpectMultiRefSumMatches({4, 1, 1}, {0b001, 0b011, 0b101}, 8, 7);
}

TEST(SumRangeTest, SumColumnAndAggregateAtMatchTargetSum) {
  // The aggregate entry points give the target's wrapped sum on a
  // MultiRef column whose masked group takes the bit-plane path.
  std::vector<int64_t> values = WrappingValues(kSumRows, 3, 20);
  for (int64_t& v : values) {  // Two distinct values: a 1-bit Dict.
    v = v < 0 ? INT64_MIN : INT64_MAX;
  }
  auto ref = enc::DictColumn::Encode(values).value();
  ASSERT_EQ(ref->bit_width(), 1);
  // Group 0 in every formula, group 1 (the same column) in every third
  // row's formula.
  std::vector<int64_t> target(kSumRows);
  for (size_t i = 0; i < kSumRows; ++i) {
    target[i] = static_cast<int64_t>(static_cast<uint64_t>(values[i]) *
                                     (i % 3 == 0 ? 2 : 1));
  }
  FormulaTable table;
  table.groups = {{0}, {1}};
  table.formulas = {0b01, 0b11};
  table.code_bits = 1;
  auto column = MultiRefColumn::Encode(
                    target,
                    [&](uint32_t) -> std::span<const int64_t> {
                      return values;
                    },
                    table)
                    .value();
  const enc::EncodedColumn* refs[] = {ref.get(), ref.get()};
  ASSERT_TRUE(column->BindReferences(refs).ok());
  uint64_t expected = 0;
  for (int64_t v : target) {
    expected += static_cast<uint64_t>(v);
  }
  EXPECT_EQ(static_cast<uint64_t>(SumColumn(*column)), expected);
  std::vector<uint32_t> rows;
  expected = 0;
  for (uint32_t r = 65; r < 3001; ++r) {
    rows.push_back(r);
    expected += static_cast<uint64_t>(target[r]);
  }
  EXPECT_EQ(static_cast<uint64_t>(
                AggregateAt(*column, rows, AggregateOp::kSum).value()),
            expected);
}

// ---- Parallel compression --------------------------------------------------

Table MakeWideTable(size_t rows) {
  Rng rng(9);
  std::vector<int64_t> a(rows);
  std::vector<int64_t> b(rows);
  for (size_t i = 0; i < rows; ++i) {
    a[i] = rng.Uniform(0, 100000);
    b[i] = a[i] + rng.Uniform(0, 100);
  }
  Table table;
  EXPECT_TRUE(table.AddColumn(Column::Int64("a", std::move(a))).ok());
  EXPECT_TRUE(table.AddColumn(Column::Int64("b", std::move(b))).ok());
  return table;
}

TEST(ParallelCompressionTest, IdenticalToSerial) {
  const Table table = MakeWideTable(10000);
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.block_rows = 1000;  // 10 blocks.
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kDiff;
  plan.columns[1].reference = 0;

  auto serial = CorraCompressor::Compress(table, plan).value();
  plan.num_threads = 4;
  auto parallel = CorraCompressor::Compress(table, plan).value();

  ASSERT_EQ(serial.num_blocks(), parallel.num_blocks());
  for (size_t b = 0; b < serial.num_blocks(); ++b) {
    // Byte-identical blocks: parallelism must not change the output.
    EXPECT_EQ(serial.block(b).Serialize(), parallel.block(b).Serialize())
        << "block " << b;
  }
}

TEST(ParallelCompressionTest, MoreThreadsThanBlocks) {
  const Table table = MakeWideTable(500);
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.block_rows = 200;  // 3 blocks.
  plan.num_threads = 16;
  auto compressed = CorraCompressor::Compress(table, plan);
  ASSERT_TRUE(compressed.ok());
  EXPECT_EQ(compressed.value().num_blocks(), 3u);
  EXPECT_EQ(compressed.value().DecodeColumn(0),
            std::vector<int64_t>(table.column(0).values().begin(),
                                 table.column(0).values().end()));
}

TEST(ParallelCompressionTest, ErrorInOneBlockPropagates) {
  // A multi-ref plan whose formulas only fit the first blocks: the rows
  // of the last block break the formula, so its encode must fail and the
  // failure must surface from the parallel path.
  const size_t rows = 3000;
  std::vector<int64_t> a(rows);
  std::vector<int64_t> total(rows);
  for (size_t i = 0; i < rows; ++i) {
    a[i] = static_cast<int64_t>(i % 100);
    total[i] = i < 2000 ? a[i] : a[i] + 12345;  // Last block: no match.
  }
  Table table;
  ASSERT_TRUE(table.AddColumn(Column::Int64("a", std::move(a))).ok());
  ASSERT_TRUE(
      table.AddColumn(Column::Int64("total", std::move(total))).ok());
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.block_rows = 1000;
  plan.num_threads = 3;
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = enc::Scheme::kMultiRef;
  plan.columns[1].formulas.groups = {{0}};
  plan.columns[1].formulas.formulas = {0b1};
  plan.columns[1].formulas.code_bits = 1;
  plan.columns[1].max_outlier_fraction = 0.01;
  auto compressed = CorraCompressor::Compress(table, plan);
  EXPECT_FALSE(compressed.ok());
  EXPECT_TRUE(compressed.status().IsInvalidArgument());
}

}  // namespace
}  // namespace corra::query
