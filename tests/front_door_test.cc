// Serving front door: single-block requests run on the caller's thread
// (identical results to an inline service, never queued), concurrent
// multi-block requests fanned out to the pool stay byte-identical to
// independent execution across every encoding scheme, pooled and
// inline services fail the same way, and admission control
// fast-rejects over-limit and expired requests.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "core/corra_compressor.h"
#include "serve/block_cache.h"
#include "serve/scan_service.h"
#include "serve/table_reader.h"
#include "storage/file_io.h"

namespace corra::serve {
namespace {

// A 12-column table where every column is pinned (auto_vertical off) to
// a distinct scheme, covering all 12: pooled block tasks must reproduce
// each scheme's decode exactly.
class FrontDoorTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 8000;
  static constexpr size_t kBlockRows = 1000;
  static constexpr size_t kColumns = 12;

  void SetUp() override {
#ifdef CORRA_OBS_OFF
    // The counter/span assertions below (rejected, deadline_missed,
    // BlockSpan::queue_ns) need live telemetry.
    GTEST_SKIP() << "observability compiled out (CORRA_OBS_OFF)";
#else
    obs::SetEnabled(true);
#endif
    WriteTable();
  }

  void TearDown() override { std::remove(path_.c_str()); }

  void WriteTable() {
    path_ = ::testing::TempDir() + "corra_front_door_test.corf";
    Rng rng(77);
    raw_.assign(kColumns, std::vector<int64_t>(kRows));
    for (size_t i = 0; i < kRows; ++i) {
      const int64_t ship = rng.Uniform(8035, 10591);
      const int64_t city = rng.Uniform(0, 49);
      const int64_t a = rng.Uniform(100, 999);
      raw_[0][i] = ship;                             // kFor
      raw_[1][i] = ship + rng.Uniform(1, 30);        // kDiff (ref 0)
      raw_[2][i] = city;                             // kDict
      raw_[3][i] = 10000 + city * 37 + rng.Uniform(0, 10);  // kHierarchical
      raw_[4][i] = a;                                // kPlain
      raw_[5][i] = 250;                              // kRle
      raw_[6][i] = rng.Bernoulli(0.5) ? a : a + 250;  // kMultiRef
      raw_[7][i] = static_cast<int64_t>(i) * 3 + rng.Uniform(0, 2);  // kDelta
      raw_[8][i] = rng.Uniform(100, 25000);          // kBitPack
      raw_[9][i] = city * 1000 + 17;                 // kC3OneToOne (ref 2)
      raw_[10][i] = ship + rng.Uniform(1, 30);       // kC3Dfor (ref 0)
      raw_[11][i] = ship + rng.Uniform(1, 30);       // kC3Numerical (ref 0)
    }

    Table table;
    const char* names[kColumns] = {"ship", "receipt", "city",  "zip",
                                   "a",    "b",       "total", "seq",
                                   "fare", "cityref", "recv2", "recv3"};
    for (size_t c = 0; c < kColumns; ++c) {
      ASSERT_TRUE(table.AddColumn(Column::Int64(names[c], raw_[c])).ok());
    }

    CompressionPlan plan = CompressionPlan::AllAuto(kColumns);
    plan.block_rows = kBlockRows;
    const enc::Scheme schemes[kColumns] = {
        enc::Scheme::kFor,          enc::Scheme::kDiff,
        enc::Scheme::kDict,         enc::Scheme::kHierarchical,
        enc::Scheme::kPlain,        enc::Scheme::kRle,
        enc::Scheme::kMultiRef,     enc::Scheme::kDelta,
        enc::Scheme::kBitPack,      enc::Scheme::kC3OneToOne,
        enc::Scheme::kC3Dfor,       enc::Scheme::kC3Numerical};
    for (size_t c = 0; c < kColumns; ++c) {
      plan.columns[c].auto_vertical = false;
      plan.columns[c].scheme = schemes[c];
    }
    plan.columns[1].reference = 0;
    plan.columns[3].reference = 2;
    plan.columns[6].formulas.groups = {{4}, {5}};
    plan.columns[6].formulas.formulas = {0b01, 0b11};
    plan.columns[6].formulas.code_bits = 1;
    plan.columns[9].reference = 2;
    plan.columns[10].reference = 0;
    plan.columns[11].reference = 0;

    auto compressed = CorraCompressor::Compress(table, plan);
    ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
    ASSERT_EQ(compressed.value().num_blocks(), kRows / kBlockRows);
    for (size_t c = 0; c < kColumns; ++c) {
      ASSERT_EQ(compressed.value().block(0).column(c).scheme(), schemes[c])
          << "column " << c;
    }
    ASSERT_TRUE(WriteCompressedTable(compressed.value(), path_).ok());
  }

  // Random sorted-unique global positions; roughly `per_block` rows per
  // covered block so selections overlap across concurrent callers.
  std::vector<uint64_t> RandomPositions(Rng& rng, size_t count) const {
    std::vector<uint64_t> rows(count);
    for (auto& row : rows) {
      row = static_cast<uint64_t>(rng.Uniform(0, kRows - 1));
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    return rows;
  }

  // Sorted-unique positions that all fall inside block `block`.
  std::vector<uint64_t> BlockPositions(Rng& rng, size_t block,
                                       size_t count) const {
    std::vector<uint64_t> rows(count);
    for (auto& row : rows) {
      row = block * kBlockRows +
            static_cast<uint64_t>(rng.Uniform(0, kBlockRows - 1));
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    return rows;
  }

  // Distinct blocks a sorted position list touches.
  static size_t BlocksTouched(const std::vector<uint64_t>& rows) {
    size_t blocks = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i == 0 || rows[i] / kBlockRows != rows[i - 1] / kBlockRows) {
        ++blocks;
      }
    }
    return blocks;
  }

  // A filtered scan whose predicate on the monotone `seq` column
  // survives stats pruning in `block` only.
  ScanRequest SingleBlockScan(size_t block) const {
    ScanRequest request;
    request.filter_column = 7;
    request.filter_lo = raw_[7][block * kBlockRows + 100];
    request.filter_hi = raw_[7][block * kBlockRows + 700];
    request.project_columns = {1, 6, 9};
    request.return_positions = true;
    request.aggregate = AggregateOp::kSum;
    request.aggregate_column = 4;
    return request;
  }

  std::string path_;
  std::vector<std::vector<int64_t>> raw_;
};

// Many concurrent multi-block gathers with overlapping row sets and
// mixed column subsets, fanned out to the pool: every result must be
// byte-identical to the raw vectors, and between them the callers
// gather every column, so all 12 schemes serve pooled block tasks.
TEST_F(FrontDoorTest, ConcurrentMultiBlockGathersAreByteIdentical) {
  obs::Registry registry;
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.registry = &registry});
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ScanService service({.num_threads = 4, .registry = &registry});

  constexpr size_t kThreads = 8;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (size_t iter = 0; iter < 20; ++iter) {
        const std::vector<uint64_t> rows = RandomPositions(rng, 600);
        if (BlocksTouched(rows) < 2) {
          failures.fetch_add(1);  // Would bypass the pool.
          return;
        }
        // A different column subset per call; (t + iter) % kColumns
        // walks every column across the callers.
        std::vector<size_t> cols = {(t + iter) % kColumns};
        for (size_t c = 0; c < kColumns; ++c) {
          if (c != cols[0] && rng.Bernoulli(0.4)) {
            cols.push_back(c);
          }
        }
        auto result = service.Gather(*reader.value(), cols, rows);
        if (!result.ok()) {
          failures.fetch_add(1);
          return;
        }
        for (size_t c = 0; c < cols.size(); ++c) {
          for (size_t i = 0; i < rows.size(); ++i) {
            if (result.value()[c][i] != raw_[cols[c]][rows[i]]) {
              failures.fetch_add(1);
              return;
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(registry.gauge("serve.inflight_requests").Value(), 0);
  EXPECT_EQ(cache->GetStats().pinned_blocks, 0u);
}

// Concurrent multi-block Execute requests (filter + projections) on a
// pooled service: results must match the single-threaded inline service
// exactly.
TEST_F(FrontDoorTest, ConcurrentExecutesMatchInlineService) {
  auto cache = std::make_shared<BlockCache>();
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService pooled({.num_threads = 4});
  ScanService inline_service({.num_threads = 0});

  auto request_for = [](size_t t) {
    ScanRequest request;
    request.filter_column = 0;
    request.filter_lo = 8035 + static_cast<int64_t>(t) * 100;
    request.filter_hi = 9500 + static_cast<int64_t>(t) * 50;
    request.project_columns = {1, 6, 9};
    request.return_positions = true;
    return request;
  };

  std::vector<ScanResult> expected(8);
  for (size_t t = 0; t < 8; ++t) {
    auto result = inline_service.Execute(*reader.value(), request_for(t));
    ASSERT_TRUE(result.ok());
    expected[t] = std::move(result).value();
    // Matches in several blocks, so the pooled run fans out.
    ASSERT_FALSE(expected[t].positions.empty());
    ASSERT_NE(expected[t].positions.front() / kBlockRows,
              expected[t].positions.back() / kBlockRows);
  }

  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t iter = 0; iter < 5; ++iter) {
        auto result = pooled.Execute(*reader.value(), request_for(t));
        if (!result.ok() ||
            result.value().positions != expected[t].positions ||
            result.value().columns != expected[t].columns ||
            result.value().rows_matched != expected[t].rows_matched) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0u);
}

// Admission control: with max_inflight_requests = 1 and many concurrent
// clients, over-limit arrivals are rejected fast with ResourceExhausted
// (never a wrong result), admitted ones still succeed, and the rejected
// counter proves the path fired.
TEST_F(FrontDoorTest, OverLimitRequestsAreFastRejected) {
  obs::Registry registry;
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.registry = &registry});
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 2,
                       .registry = &registry,
                       .max_inflight_requests = 1});

  std::atomic<size_t> ok_count{0};
  std::atomic<size_t> rejected_count{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(900 + t);
      for (size_t iter = 0; iter < 20; ++iter) {
        const std::vector<uint64_t> rows = RandomPositions(rng, 200);
        const std::vector<size_t> cols = {2, 3};
        auto result = service.Gather(*reader.value(), cols, rows);
        if (result.ok()) {
          ok_count.fetch_add(1);
          for (size_t c = 0; c < cols.size(); ++c) {
            for (size_t i = 0; i < rows.size(); ++i) {
              if (result.value()[c][i] != raw_[cols[c]][rows[i]]) {
                failures.fetch_add(1);
                return;
              }
            }
          }
        } else if (result.status().IsResourceExhausted()) {
          rejected_count.fetch_add(1);
        } else {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(ok_count.load(), 0u);   // The admitted path still serves.
  EXPECT_GT(rejected_count.load(), 0u);  // 8 clients vs 1 slot must clash.
  EXPECT_EQ(registry.counter("serve.rejected").Value(),
            rejected_count.load());
  // Rejections released their slots: nothing left in flight.
  EXPECT_EQ(registry.gauge("serve.inflight_requests").Value(), 0);
}

// An already-expired deadline is rejected before any block is touched:
// no cache traffic, DeadlineExceeded out, deadline_missed counted.
TEST_F(FrontDoorTest, ExpiredDeadlineNeverReachesDecode) {
  obs::Registry registry;
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.registry = &registry});
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 2, .registry = &registry});

  GatherOptions options;
  options.deadline_ns = obs::MonotonicNs() - 1;  // Already in the past.
  const std::vector<uint64_t> rows = {0, 1, kRows - 1};
  const std::vector<size_t> cols = {0, 7};
  auto gathered = service.Gather(*reader.value(), cols, rows, options);
  ASSERT_FALSE(gathered.ok());
  EXPECT_TRUE(gathered.status().IsDeadlineExceeded())
      << gathered.status().ToString();

  ScanRequest request;
  request.project_columns = {4};
  request.deadline_ns = obs::MonotonicNs() - 1;
  auto executed = service.Execute(*reader.value(), request);
  ASSERT_FALSE(executed.ok());
  EXPECT_TRUE(executed.status().IsDeadlineExceeded());

  EXPECT_EQ(registry.counter("serve.deadline_missed").Value(), 2u);
  // Neither request may have pinned, loaded, or decoded anything.
  const BlockCacheStats stats = cache->GetStats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(registry.gauge("serve.inflight_requests").Value(), 0);
}

// A generous deadline must not reject or alter results.
TEST_F(FrontDoorTest, FutureDeadlineIsHarmless) {
  auto cache = std::make_shared<BlockCache>();
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 2});

  GatherOptions options;
  options.deadline_ns = obs::MonotonicNs() + 60'000'000'000ull;  // +60 s.
  const std::vector<uint64_t> rows = {5, 1234, 4567, 7999};
  const std::vector<size_t> cols = {1, 6, 11};
  auto gathered = service.Gather(*reader.value(), cols, rows, options);
  ASSERT_TRUE(gathered.ok()) << gathered.status().ToString();
  for (size_t c = 0; c < cols.size(); ++c) {
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(gathered.value()[c][i], raw_[cols[c]][rows[i]]);
    }
  }
}

// A pooled full scan on a cold cache stays exact and loads each block
// exactly once (ledger intact).
TEST_F(FrontDoorTest, PooledColdScanLoadsEachBlockOnce) {
  obs::Registry registry;
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.registry = &registry});
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 2, .registry = &registry});

  ScanRequest request;
  request.project_columns = {0, 3, 7};
  request.return_positions = false;
  auto result = service.Execute(*reader.value(), request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().rows_scanned, kRows);
  for (size_t c = 0; c < request.project_columns.size(); ++c) {
    ASSERT_EQ(result.value().columns[c].size(), kRows);
    for (size_t i = 0; i < kRows; ++i) {
      ASSERT_EQ(result.value().columns[c][i],
                raw_[request.project_columns[c]][i]);
    }
  }

  // Every block was loaded exactly once.
  const BlockCacheStats stats = cache->GetStats();
  EXPECT_EQ(stats.misses, kRows / kBlockRows);
  EXPECT_EQ(stats.failed_loads, 0u);
  EXPECT_EQ(stats.misses,
            stats.cached_blocks + stats.loading_blocks + stats.evictions +
                stats.failed_loads + stats.erased_blocks);
}

bool SameScan(const ScanResult& a, const ScanResult& b) {
  return a.rows_scanned == b.rows_scanned &&
         a.rows_matched == b.rows_matched &&
         a.blocks_skipped == b.blocks_skipped && a.positions == b.positions &&
         a.columns == b.columns && a.agg_sum == b.agg_sum &&
         a.agg_min == b.agg_min && a.agg_max == b.agg_max;
}

// True when exactly one block did work and its span shows no queue
// handoff (the caller's-thread path).
bool RanOnCallersThread(const obs::RequestTrace& trace) {
  size_t worked = 0;
  for (const obs::BlockSpan& span : trace.blocks) {
    if (span.pruned) {
      continue;
    }
    ++worked;
    if (span.queue_ns != 0) {
      return false;
    }
  }
  return worked == 1;
}

// Single-block gathers and single-block filtered scans from many
// concurrent callers run on the caller's thread even on a pooled
// service: results match an inline service exactly and no span waits in
// a queue. A multi-block request on the same service still fans out to
// the pool.
TEST_F(FrontDoorTest, SingleBlockRequestsRunOnCallersThread) {
  obs::Registry registry;
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.registry = &registry});
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ScanService pooled({.num_threads = 4, .registry = &registry});
  obs::Registry inline_registry;
  ScanService inline_service(
      {.num_threads = 0, .registry = &inline_registry});

  constexpr size_t kThreads = 8;
  constexpr size_t kBlocks = kRows / kBlockRows;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(7000 + t);
      for (size_t iter = 0; iter < 25; ++iter) {
        const size_t block = static_cast<size_t>(rng.Uniform(0, kBlocks - 1));
        const std::vector<uint64_t> rows = BlockPositions(rng, block, 128);
        const std::vector<size_t> cols = {(t + iter) % kColumns, 1};
        obs::RequestTrace trace;
        auto got =
            pooled.Gather(*reader.value(), cols, rows, {.trace = &trace});
        auto want = inline_service.Gather(*reader.value(), cols, rows);
        if (!got.ok() || !want.ok() || got.value() != want.value() ||
            !RanOnCallersThread(trace)) {
          failures.fetch_add(1);
          return;
        }

        ScanRequest request = SingleBlockScan(block);
        request.collect_trace = true;
        auto scanned = pooled.Execute(*reader.value(), request);
        auto expected = inline_service.Execute(*reader.value(), request);
        if (!scanned.ok() || !expected.ok() ||
            !SameScan(scanned.value(), expected.value()) ||
            scanned.value().blocks_skipped != kBlocks - 1 ||
            !scanned.value().trace ||
            !RanOnCallersThread(*scanned.value().trace)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0u);

  Rng rng(7100);
  const std::vector<uint64_t> rows = RandomPositions(rng, 600);
  ASSERT_GE(BlocksTouched(rows), 2u);
  const std::vector<size_t> cols = {0, 7};
  obs::RequestTrace trace;
  auto multi = pooled.Gather(*reader.value(), cols, rows, {.trace = &trace});
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  EXPECT_TRUE(std::any_of(
      trace.blocks.begin(), trace.blocks.end(),
      [](const obs::BlockSpan& span) { return span.queue_ns > 0; }))
      << "multi-block gather never went through the pool";
}

// Pooled and inline services fail the same way, whether a request
// touches one block (the caller's-thread path) or several (one pool task
// per block on the pooled service). Each run gets its own cache, so a
// failed load's quarantine on one service cannot shape what the other
// sees. These compare Status and failed_blocks only, so unlike the
// fixture above they also run with observability compiled out.
class SingleBlockFailureTest : public FrontDoorTest {
 protected:
  void SetUp() override { WriteTable(); }

  Result<ScanResult> Execute(size_t num_threads, const ScanRequest& request) {
    auto cache = std::make_shared<BlockCache>();
    auto reader = TableReader::Open(path_, cache);
    if (!reader.ok()) {
      return reader.status();
    }
    ScanService service({.num_threads = num_threads});
    return service.Execute(*reader.value(), request);
  }

  // `deadline_in_ns` (0 = none) starts counting once the service is
  // up, right before the call.
  Status Gather(size_t num_threads, std::span<const uint64_t> rows,
                uint64_t deadline_in_ns) {
    auto cache = std::make_shared<BlockCache>();
    auto reader = TableReader::Open(path_, cache);
    if (!reader.ok()) {
      return reader.status();
    }
    ScanService service({.num_threads = num_threads});
    const std::vector<size_t> cols = {0, 1};
    const uint64_t deadline_ns =
        deadline_in_ns == 0 ? 0 : obs::MonotonicNs() + deadline_in_ns;
    return service
        .Gather(*reader.value(), cols, rows, {.deadline_ns = deadline_ns})
        .status();
  }

  // A gather of `rows` whose deadline passes after admission but before
  // any block is pinned. Splitting a million positions takes
  // milliseconds after admission, so a deadline a few microseconds out
  // expires in that gap; a run preempted long enough to miss admission
  // itself is retried with a longer margin.
  Status ExpireAfterAdmission(size_t num_threads,
                              std::span<const uint64_t> rows) {
    Status status;
    for (uint64_t margin_ns = 50'000; margin_ns <= 1'600'000;
         margin_ns *= 2) {
      status = Gather(num_threads, rows, margin_ns);
      if (status.message().find("admission") == std::string::npos) {
        break;
      }
    }
    return status;
  }

  void ExpectSameLoadError(const ScanRequest& request,
                           std::span<const uint64_t> rows) {
    const auto pooled = Execute(4, request);
    const auto inline_run = Execute(0, request);
    ASSERT_FALSE(pooled.ok());
    EXPECT_TRUE(pooled.status().IsIOError()) << pooled.status().ToString();
    EXPECT_EQ(pooled.status().ToString(), inline_run.status().ToString());

    const Status pooled_gather = Gather(4, rows, 0);
    EXPECT_TRUE(pooled_gather.IsIOError()) << pooled_gather.ToString();
    EXPECT_EQ(pooled_gather.ToString(), Gather(0, rows, 0).ToString());
  }

  // `request` with allow_partial under a load error on every block:
  // both services report `failed` (ascending) as the failed blocks, with
  // the same statuses.
  void ExpectSamePartialResult(ScanRequest request,
                               const std::vector<uint64_t>& failed) {
    request.allow_partial = true;
    const auto pooled = Execute(4, request);
    const auto inline_run = Execute(0, request);
    ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
    ASSERT_TRUE(inline_run.ok()) << inline_run.status().ToString();
    ASSERT_EQ(pooled.value().failed_blocks.size(), failed.size());
    ASSERT_EQ(inline_run.value().failed_blocks.size(), failed.size());
    for (size_t i = 0; i < failed.size(); ++i) {
      const ScanResult::BlockError& got = pooled.value().failed_blocks[i];
      const ScanResult::BlockError& want =
          inline_run.value().failed_blocks[i];
      EXPECT_EQ(got.block, failed[i]);
      EXPECT_EQ(got.block, want.block);
      EXPECT_TRUE(got.status.IsIOError()) << got.status.ToString();
      EXPECT_EQ(got.status.ToString(), want.status.ToString());
    }
    EXPECT_TRUE(SameScan(pooled.value(), inline_run.value()));
    EXPECT_EQ(pooled.value().rows_matched, 0u);
  }
};

TEST_F(SingleBlockFailureTest, LoadErrorFailsTheSameWay) {
  if (!fail::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out (CORRA_FAILPOINTS_OFF)";
  }
  fail::ScopedFailpoint fp("cache.load_error", "every:1");
  ASSERT_TRUE(fp.status().ok());

  Rng rng(11);
  ExpectSameLoadError(SingleBlockScan(3), BlockPositions(rng, 3, 64));
}

TEST_F(SingleBlockFailureTest, LoadErrorUnderAllowPartialDegradesTheSameWay) {
  if (!fail::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out (CORRA_FAILPOINTS_OFF)";
  }
  fail::ScopedFailpoint fp("cache.load_error", "every:1");
  ASSERT_TRUE(fp.status().ok());

  ExpectSamePartialResult(SingleBlockScan(3), {3});
}

TEST_F(SingleBlockFailureTest, DeadlineAfterAdmissionFailsTheSameWay) {
  const std::vector<uint64_t> rows(1'000'000, 3 * kBlockRows + 17);
  const Status pooled = ExpireAfterAdmission(4, rows);
  const Status inline_run = ExpireAfterAdmission(0, rows);
  EXPECT_TRUE(pooled.IsDeadlineExceeded()) << pooled.ToString();
  EXPECT_EQ(pooled.message().find("admission"), std::string::npos)
      << pooled.ToString();
  EXPECT_EQ(pooled.ToString(), inline_run.ToString());
}

// The same failures on requests that touch several blocks, which the
// pooled service runs as one pool task per block.
class MultiBlockFailureTest : public SingleBlockFailureTest {
 protected:
  // A filtered scan whose predicate on the monotone `seq` column
  // survives stats pruning in blocks 2-5 only.
  ScanRequest MultiBlockScan() const {
    ScanRequest request = SingleBlockScan(2);
    request.filter_hi = raw_[7][5 * kBlockRows + 700];
    return request;
  }

  // `copies` positions in each of blocks 1, 4 and 6, sorted.
  static std::vector<uint64_t> MultiBlockRows(size_t copies) {
    std::vector<uint64_t> rows;
    rows.reserve(3 * copies);
    for (uint64_t block : {1, 4, 6}) {
      rows.insert(rows.end(), copies, block * kBlockRows + 17);
    }
    return rows;
  }
};

TEST_F(MultiBlockFailureTest, LoadErrorFailsTheSameWay) {
  if (!fail::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out (CORRA_FAILPOINTS_OFF)";
  }
  fail::ScopedFailpoint fp("cache.load_error", "every:1");
  ASSERT_TRUE(fp.status().ok());

  ExpectSameLoadError(MultiBlockScan(), MultiBlockRows(64));
}

TEST_F(MultiBlockFailureTest, LoadErrorUnderAllowPartialDegradesTheSameWay) {
  if (!fail::CompiledIn()) {
    GTEST_SKIP() << "failpoints compiled out (CORRA_FAILPOINTS_OFF)";
  }
  fail::ScopedFailpoint fp("cache.load_error", "every:1");
  ASSERT_TRUE(fp.status().ok());

  ExpectSamePartialResult(MultiBlockScan(), {2, 3, 4, 5});
}

TEST_F(MultiBlockFailureTest, DeadlineAfterAdmissionFailsTheSameWay) {
  const std::vector<uint64_t> rows = MultiBlockRows(400'000);
  const Status pooled = ExpireAfterAdmission(4, rows);
  const Status inline_run = ExpireAfterAdmission(0, rows);
  EXPECT_TRUE(pooled.IsDeadlineExceeded()) << pooled.ToString();
  EXPECT_EQ(pooled.message().find("admission"), std::string::npos)
      << pooled.ToString();
  EXPECT_EQ(pooled.ToString(), inline_run.ToString());
}

}  // namespace
}  // namespace corra::serve
