// Micro-benchmarks for the encoding substrate, the Corra schemes, and
// the morsel-based query kernels: full decode, ranged decode, point
// access, selective gather, filter, and aggregate throughput. Not a
// paper figure — used to sanity-check the O(1) random-access claims
// behind the baseline choice and to track the decode pipeline's
// throughput across PRs (run with --json; CI archives the output).
//
// Flags: --rows N (default 1M), --runs N (min repetitions), --json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "core/corra_compressor.h"
#include "core/diff_encoding.h"
#include "core/hierarchical_encoding.h"
#include "datagen/taxi.h"
#include "encoding/delta.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "encoding/rle.h"
#include "query/aggregate.h"
#include "query/filter.h"
#include "query/latency.h"
#include "query/morsel.h"
#include "query/selection_vector.h"

namespace corra {
namespace {

// Repeats `fn` until at least 0.25s of wall clock and `min_reps`
// repetitions have elapsed, then reports the mean.
template <typename Fn>
void RunBench(bench::Reporter* reporter, const std::string& name,
              size_t rows, size_t min_reps, Fn&& fn) {
  fn();  // Warm-up (first-touch pages, caches).
  query::Stopwatch watch;
  size_t reps = 0;
  double elapsed = 0;
  do {
    fn();
    ++reps;
    elapsed = watch.ElapsedSeconds();
  } while (elapsed < 0.25 || reps < min_reps);
  reporter->Add(name, rows, elapsed, reps);
}

std::vector<int64_t> DateLikeValues(size_t n) {
  Rng rng(42);
  std::vector<int64_t> values(n);
  for (auto& v : values) {
    v = rng.Uniform(8035, 10591);
  }
  return values;
}

std::vector<int64_t> OffsetValues(const std::vector<int64_t>& base,
                                  int64_t lo, int64_t hi) {
  Rng rng(43);
  std::vector<int64_t> values(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    values[i] = base[i] + rng.Uniform(lo, hi);
  }
  return values;
}

std::vector<int64_t> RunLengthValues(size_t n) {
  Rng rng(11);
  std::vector<int64_t> values(n);
  int64_t current = 0;
  size_t remaining = 0;
  for (auto& v : values) {
    if (remaining == 0) {
      current = rng.Uniform(0, 100);
      remaining = static_cast<size_t>(rng.Uniform(10, 200));
    }
    v = current;
    --remaining;
  }
  return values;
}

// Sweeps the whole column through DecodeRange in morsel-sized windows —
// the access pattern of every generic query kernel.
void DecodeRangeSweep(const enc::EncodedColumn& column, int64_t* sink) {
  int64_t buffer[query::kMorselRows];
  int64_t acc = 0;
  query::ForEachMorsel(0, column.size(), [&](size_t begin, size_t len) {
    column.DecodeRange(begin, len, buffer);
    acc += buffer[0] + buffer[len - 1];
  });
  *sink = acc;
}

// One taxi block compressed with the paper's plan: dropoff Diff against
// pickup, total_amount MultiRef over groups A / B / C with 2-bit codes.
CompressedTable CompressTaxiBlock(size_t rows) {
  using C = datagen::TaxiColumns;
  CompressionPlan plan = CompressionPlan::AllAuto(11);
  plan.block_rows = rows;
  plan.columns[C::kDropoff].auto_vertical = false;
  plan.columns[C::kDropoff].scheme = enc::Scheme::kDiff;
  plan.columns[C::kDropoff].reference = C::kPickup;
  auto& total = plan.columns[C::kTotalAmount];
  total.auto_vertical = false;
  total.scheme = enc::Scheme::kMultiRef;
  total.formulas.groups = {
      {C::kMtaTax, C::kFareAmount, C::kImprovementSurcharge, C::kExtra,
       C::kTipAmount, C::kTollsAmount},
      {C::kCongestionSurcharge},
      {C::kAirportFee}};
  total.formulas.formulas = {0b001, 0b011, 0b101, 0b111};
  total.formulas.code_bits = 2;
  total.max_outlier_fraction = 0.02;
  return CorraCompressor::Compress(datagen::MakeTaxiTable(rows).value(), plan)
      .value();
}

void RunAll(const bench::Flags& flags) {
  const size_t rows = flags.rows > 0 ? flags.rows : (size_t{1} << 20);
  const size_t reps = flags.runs;
  bench::Reporter reporter(flags);

  const auto reference = DateLikeValues(rows);
  const auto target = OffsetValues(reference, 1, 30);
  const auto runs_data = RunLengthValues(rows);

  auto for_column = enc::ForColumn::Encode(reference).value();
  auto dict_column = enc::DictColumn::Encode(reference).value();
  auto delta_column = enc::DeltaColumn::Encode(reference).value();
  auto delta_inline_column =
      enc::DeltaColumn::Encode(
          reference, enc::DeltaColumn::kDefaultInlineCheckpointInterval,
          enc::DeltaLayout::kInline)
          .value();
  auto rle_column = enc::RleColumn::Encode(runs_data).value();
  auto diff_column = DiffEncodedColumn::Encode(target, reference, 0).value();
  const enc::EncodedColumn* diff_refs[] = {for_column.get()};
  (void)diff_column->BindReferences(diff_refs);

  Rng hier_rng(9);
  std::vector<int64_t> city(rows);
  std::vector<int64_t> zip(rows);
  for (size_t i = 0; i < rows; ++i) {
    city[i] = hier_rng.Uniform(0, 2499);
    zip[i] = 10000 + city[i] * 30 + hier_rng.Uniform(0, 29);
  }
  auto city_column = enc::ForColumn::Encode(city).value();
  auto hier_column = HierarchicalColumn::Encode(zip, city, 0).value();
  const enc::EncodedColumn* hier_refs[] = {city_column.get()};
  (void)hier_column->BindReferences(hier_refs);

  std::vector<int64_t> out(rows);
  int64_t sink = 0;

  // Encode.
  RunBench(&reporter, "encode/for", rows, reps, [&] {
    sink += static_cast<int64_t>(enc::ForColumn::Encode(reference)
                                     .value()
                                     ->SizeBytes());
  });

  // Full decode (DecodeAll == one DecodeRange over the column).
  RunBench(&reporter, "decode_all/for", rows, reps,
           [&] { for_column->DecodeAll(out.data()); });
  RunBench(&reporter, "decode_all/dict", rows, reps,
           [&] { dict_column->DecodeAll(out.data()); });
  RunBench(&reporter, "decode_all/delta", rows, reps,
           [&] { delta_column->DecodeAll(out.data()); });
  RunBench(&reporter, "decode_all/rle", rows, reps,
           [&] { rle_column->DecodeAll(out.data()); });
  RunBench(&reporter, "decode_all/diff", rows, reps,
           [&] { diff_column->DecodeAll(out.data()); });
  RunBench(&reporter, "decode_all/hierarchical", rows, reps,
           [&] { hier_column->DecodeAll(out.data()); });

  // Morsel-wise ranged decode (the generic kernel access pattern).
  RunBench(&reporter, "decode_range/for", rows, reps,
           [&] { DecodeRangeSweep(*for_column, &sink); });
  RunBench(&reporter, "decode_range/dict", rows, reps,
           [&] { DecodeRangeSweep(*dict_column, &sink); });
  RunBench(&reporter, "decode_range/delta", rows, reps,
           [&] { DecodeRangeSweep(*delta_column, &sink); });
  // The inline layout's dense-decode cost (one re-anchor per interval):
  // the price point-heavy workloads pay for single-window point access.
  RunBench(&reporter, "decode_range_inline/delta", rows, reps,
           [&] { DecodeRangeSweep(*delta_inline_column, &sink); });
  RunBench(&reporter, "decode_range/rle", rows, reps,
           [&] { DecodeRangeSweep(*rle_column, &sink); });
  RunBench(&reporter, "decode_range/diff", rows, reps,
           [&] { DecodeRangeSweep(*diff_column, &sink); });
  RunBench(&reporter, "decode_range/hierarchical", rows, reps,
           [&] { DecodeRangeSweep(*hier_column, &sink); });

  // Point access: FOR is O(1); Delta pays its checkpoint scan — the
  // paper's argument for restricting the baseline to FOR/Dict.
  {
    Rng rng(7);
    std::vector<uint32_t> points(1 << 16);
    for (auto& p : points) {
      p = static_cast<uint32_t>(rng.Uniform(0, static_cast<int64_t>(rows) - 1));
    }
    RunBench(&reporter, "point_access/for", points.size(), reps, [&] {
      int64_t acc = 0;
      for (uint32_t p : points) {
        acc += for_column->Get(p);
      }
      sink += acc;
    });
    RunBench(&reporter, "point_access/delta", points.size(), reps, [&] {
      int64_t acc = 0;
      for (uint32_t p : points) {
        acc += delta_column->Get(p);
      }
      sink += acc;
    });
    RunBench(&reporter, "point_access_inline/delta", points.size(), reps,
             [&] {
               int64_t acc = 0;
               for (uint32_t p : points) {
                 acc += delta_inline_column->Get(p);
               }
               sink += acc;
             });
    RunBench(&reporter, "point_access/rle", points.size(), reps, [&] {
      int64_t acc = 0;
      for (uint32_t p : points) {
        acc += rle_column->Get(p);
      }
      sink += acc;
    });
  }

  // Selective gather at 10% selectivity — the sparse-decode fast path
  // (EncodedColumn::GatherRange) of every scheme family.
  {
    Rng rng(8);
    const auto selection =
        query::GenerateSelectionVector(rows, 0.1, &rng);
    std::vector<int64_t> gathered(selection.size());
    std::vector<int64_t> ref_values(selection.size());
    for_column->Gather(selection, ref_values.data());
    RunBench(&reporter, "gather_0.1/for", selection.size(), reps,
             [&] { for_column->Gather(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.1/dict", selection.size(), reps,
             [&] { dict_column->Gather(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.1/rle", selection.size(), reps,
             [&] { rle_column->Gather(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.1/diff", selection.size(), reps,
             [&] { diff_column->Gather(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.1/diff_with_ref", selection.size(), reps,
             [&] {
               diff_column->GatherWithReference(selection, ref_values.data(),
                                                gathered.data());
             });
    RunBench(&reporter, "gather_0.1/hierarchical", selection.size(), reps,
             [&] { hier_column->Gather(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.1/delta", selection.size(), reps,
             [&] { delta_column->Gather(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.1_inline/delta", selection.size(), reps,
             [&] {
               delta_inline_column->Gather(selection, gathered.data());
             });
  }

  // Sparse gather at 1% — positioned kernels with long gaps (Delta takes
  // its cursor path here, bit-packed schemes the vpgatherqq path).
  {
    Rng rng(12);
    const auto selection =
        query::GenerateSelectionVector(rows, 0.01, &rng);
    std::vector<int64_t> gathered(selection.size());
    RunBench(&reporter, "gather_0.01/for", selection.size(), reps,
             [&] { for_column->Gather(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.01/diff", selection.size(), reps,
             [&] { diff_column->Gather(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.01/delta", selection.size(), reps,
             [&] { delta_column->Gather(selection, gathered.data()); });
    RunBench(&reporter, "gather_0.01_inline/delta", selection.size(), reps,
             [&] {
               delta_inline_column->Gather(selection, gathered.data());
             });
  }

  // Query kernels: range filter (~20% selectivity) and aggregates, all
  // morsel-pipelined.
  RunBench(&reporter, "filter/for", rows, reps, [&] {
    sink += static_cast<int64_t>(
        query::FilterToSelection(*for_column, 9000, 9500).size());
  });
  RunBench(&reporter, "filter/dict", rows, reps, [&] {
    sink += static_cast<int64_t>(
        query::FilterToSelection(*dict_column, 9000, 9500).size());
  });
  RunBench(&reporter, "filter/diff", rows, reps, [&] {
    sink += static_cast<int64_t>(
        query::FilterToSelection(*diff_column, 9040, 9560).size());
  });
  RunBench(&reporter, "sum/for", rows, reps,
           [&] { sink += query::SumColumn(*for_column); });
  RunBench(&reporter, "sum/dict", rows, reps,
           [&] { sink += query::SumColumn(*dict_column); });
  RunBench(&reporter, "sum/diff", rows, reps,
           [&] { sink += query::SumColumn(*diff_column); });
  // MultiRef SUM in the compressed domain, and the same column through
  // the base class's decode-and-fold SumRange: a same-binary A/B.
  {
    const CompressedTable taxi = CompressTaxiBlock(rows);
    const enc::EncodedColumn& total =
        taxi.block(0).column(datagen::TaxiColumns::kTotalAmount);
    RunBench(&reporter, "sum/multiref", rows, reps,
             [&] { sink += query::SumColumn(total); });
    RunBench(&reporter, "sum_decoded/multiref", rows, reps, [&] {
      sink += static_cast<int64_t>(
          total.enc::EncodedColumn::SumRange(0, total.size()));
    });
  }
  RunBench(&reporter, "min/diff", rows, reps, [&] {
    sink += query::MinColumn(*diff_column).value_or(0);
  });

  reporter.Finish();
  if (sink == 42) {  // Defeat dead-code elimination; never true in practice.
    std::fprintf(stderr, "sink %lld\n", static_cast<long long>(sink));
  }
}

}  // namespace
}  // namespace corra

int main(int argc, char** argv) {
  const corra::bench::Flags flags = corra::bench::ParseFlags(argc, argv);
  if (!flags.json) {
    corra::bench::PrintHeader("bench_encodings: encode/decode/scan kernels");
  }
  corra::RunAll(flags);
  return 0;
}
