// Aggregate pushdown (query/aggregate.h) and parallel compression.

#include "query/aggregate.h"

#include <gtest/gtest.h>

#include "core/corra_compressor.h"
#include "encoding/bitpack.h"
#include "encoding/delta.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "encoding/plain.h"
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
