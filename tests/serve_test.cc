// Out-of-core serving layer: BlockCache LRU/pinning semantics,
// TableReader lazy loads, and ScanService equivalence with full
// in-memory scans — including under tiny caches and concurrent clients.

#include "serve/scan_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/random.h"
#include "core/corra_compressor.h"
#include "encoding/dictionary.h"
#include "query/filter.h"
#include "query/selection_vector.h"
#include "query/table_scan.h"
#include "serve/block_cache.h"
#include "serve/table_reader.h"
#include "storage/file_io.h"
#include "test_util.h"

namespace corra::serve {
namespace {

// A deserializable one-column block whose first value identifies it.
// The tail is pseudo-random so the block has a nonzero encoded size.
std::shared_ptr<const Block> MakeMarkerBlock(int64_t marker) {
  Rng rng(static_cast<uint64_t>(marker) + 1);
  std::vector<int64_t> values(64);
  values[0] = marker;
  for (size_t i = 1; i < values.size(); ++i) {
    values[i] = rng.Uniform(0, 1 << 20);
  }
  Table table;
  EXPECT_TRUE(table.AddColumn(Column::Int64("marker", values)).ok());
  auto compressed =
      CorraCompressor::Compress(table, CompressionPlan::AllAuto(1));
  EXPECT_TRUE(compressed.ok());
  auto reloaded =
      Block::Deserialize(compressed.value().block(0).Serialize());
  EXPECT_TRUE(reloaded.ok());
  return std::make_shared<const Block>(std::move(reloaded).value());
}

BlockCache::Loader MarkerLoader(int64_t marker, std::atomic<int>* loads) {
  return [marker, loads]() -> Result<std::shared_ptr<const Block>> {
    loads->fetch_add(1);
    return MakeMarkerBlock(marker);
  };
}

TEST(BlockCacheTest, HitsMissesAndLruEviction) {
  BlockCache cache({.capacity_blocks = 2, .capacity_bytes = 0, .shards = 1});
  ASSERT_EQ(cache.num_shards(), 1u);
  std::atomic<int> loads{0};

  { auto a = cache.GetOrLoad({1, 0}, MarkerLoader(10, &loads)); ASSERT_TRUE(a.ok()); }
  { auto b = cache.GetOrLoad({1, 1}, MarkerLoader(11, &loads)); ASSERT_TRUE(b.ok()); }
  EXPECT_EQ(loads.load(), 2);

  // Touch block 0 so block 1 becomes the LRU victim.
  {
    auto a = cache.GetOrLoad({1, 0}, MarkerLoader(10, &loads));
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.value()->column(0).Get(0), 10);
  }
  EXPECT_EQ(loads.load(), 2);  // Hit: loader not run.

  { auto c = cache.GetOrLoad({1, 2}, MarkerLoader(12, &loads)); ASSERT_TRUE(c.ok()); }
  EXPECT_EQ(loads.load(), 3);

  EXPECT_TRUE(cache.Contains({1, 0}));
  EXPECT_FALSE(cache.Contains({1, 1}));  // Evicted as LRU.
  EXPECT_TRUE(cache.Contains({1, 2}));

  const BlockCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.cached_blocks, 2u);
  EXPECT_EQ(stats.pinned_blocks, 0u);
  EXPECT_GT(stats.cached_bytes, 0u);
}

TEST(BlockCacheTest, PinnedBlocksAreNotEvicted) {
  BlockCache cache({.capacity_blocks = 1, .capacity_bytes = 0, .shards = 4});
  ASSERT_EQ(cache.num_shards(), 1u);  // Clamped to capacity.
  std::atomic<int> loads{0};

  auto a = cache.GetOrLoad({1, 0}, MarkerLoader(10, &loads));
  ASSERT_TRUE(a.ok());
  {
    // Over budget, but both blocks are pinned: no eviction.
    auto b = cache.GetOrLoad({1, 1}, MarkerLoader(11, &loads));
    ASSERT_TRUE(b.ok());
    const BlockCacheStats stats = cache.GetStats();
    EXPECT_EQ(stats.cached_blocks, 2u);
    EXPECT_EQ(stats.pinned_blocks, 2u);
    EXPECT_EQ(stats.evictions, 0u);
  }
  // b's pin dropped: the shard shrinks back to capacity, evicting b
  // (a is still pinned).
  EXPECT_TRUE(cache.Contains({1, 0}));
  EXPECT_FALSE(cache.Contains({1, 1}));
  EXPECT_EQ(cache.GetStats().evictions, 1u);

  // The pinned block's payload stays readable through the handle.
  EXPECT_EQ(a.value()->column(0).Get(0), 10);
  a.value().Release();
  EXPECT_TRUE(cache.Contains({1, 0}));
}

TEST(BlockCacheTest, HandleOutlivingCacheUnwindsGaugesExactly) {
  // Regression for the State destructor's final gauge accounting: it
  // reads per-shard entry state (pins, residency, quarantine size) and
  // must do so under each shard's lock — the destructor can run on
  // whichever thread drops the last Handle, which is not necessarily
  // the thread that last mutated the shard.
#ifdef CORRA_OBS_OFF
  GTEST_SKIP() << "observability compiled out (CORRA_OBS_OFF)";
#else
  obs::Registry registry;
  obs::SetEnabled(true);
  std::atomic<int> loads{0};
  BlockCache::Handle survivor;
  {
    BlockCacheOptions options;
    options.capacity_blocks = 4;
    options.registry = &registry;
    BlockCache cache(options);
    auto pinned = cache.GetOrLoad({1, 0}, MarkerLoader(10, &loads));
    ASSERT_TRUE(pinned.ok());
    auto released = cache.GetOrLoad({1, 1}, MarkerLoader(11, &loads));
    ASSERT_TRUE(released.ok());
    released.value().Release();
    survivor = std::move(pinned).value();
    EXPECT_EQ(registry.gauge("cache.cached_blocks").Value(), 2);
    EXPECT_EQ(registry.gauge("cache.pinned_blocks").Value(), 1);
    // The cache dies here; the survivor handle keeps the shared State
    // (and the pinned block) alive.
  }
  EXPECT_EQ(survivor->column(0).Get(0), 10);
  // Dropping the last handle unpins, then destroys State, which gives
  // back the residency gauges for both blocks — exactly to zero.
  survivor.Release();
  EXPECT_EQ(registry.gauge("cache.cached_blocks").Value(), 0);
  EXPECT_EQ(registry.gauge("cache.cached_bytes").Value(), 0);
  EXPECT_EQ(registry.gauge("cache.pinned_blocks").Value(), 0);
  EXPECT_EQ(registry.gauge("cache.pinned_bytes").Value(), 0);
#endif  // CORRA_OBS_OFF
}

TEST(BlockCacheTest, AllPinnedPastCapacityAccountingStaysConsistent) {
  // Regression: capacity_bytes = 0 (unlimited) with pinned blocks far
  // past capacity_blocks. While every resident block is pinned the LRU
  // is empty, so nothing may be evicted (or counted as evicted); as the
  // pins drop one by one, the cache must drain back to capacity with
  // every loaded block accounted for as either resident or evicted.
  BlockCache cache({.capacity_blocks = 2, .capacity_bytes = 0, .shards = 1});
  std::atomic<int> loads{0};

  std::vector<BlockCache::Handle> pins;
  for (int64_t b = 0; b < 5; ++b) {
    auto handle = cache.GetOrLoad({1, static_cast<uint64_t>(b)},
                                  MarkerLoader(100 + b, &loads));
    ASSERT_TRUE(handle.ok());
    pins.push_back(std::move(handle).value());
  }
  {
    const BlockCacheStats stats = cache.GetStats();
    EXPECT_EQ(stats.cached_blocks, 5u);
    EXPECT_EQ(stats.pinned_blocks, 5u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.misses, 5u);
    EXPECT_GT(stats.cached_bytes, 0u);
  }
  for (size_t released = 1; released <= pins.size(); ++released) {
    pins[released - 1].Release();
    const BlockCacheStats stats = cache.GetStats();
    EXPECT_EQ(stats.pinned_blocks, 5 - released);
    // Every loaded block is either still resident or was evicted,
    // exactly once (no double-counted evictions, no lost entries).
    EXPECT_EQ(stats.misses, stats.evictions + stats.cached_blocks);
    // Residency never exceeds pins + capacity.
    EXPECT_LE(stats.cached_blocks, (5 - released) + 2);
  }
  const BlockCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.cached_blocks, 2u);
  EXPECT_EQ(stats.evictions, 3u);
  EXPECT_EQ(stats.pinned_blocks, 0u);
}

TEST(BlockCacheTest, ConcurrentUnpinAndInsertKeepAccountingConsistent) {
  // Regression for the cross-shard eviction race: an unpin re-filing its
  // entry and an insert in another shard could both observe the same
  // one-block overshoot and both evict, double-counting the eviction
  // and draining the cache below budget. Hammer unpins and inserts from
  // several threads, then check the global ledger: every miss is either
  // a resident block or exactly one eviction.
  BlockCache cache({.capacity_blocks = 8, .capacity_bytes = 0, .shards = 4});
  std::atomic<int> loads{0};
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &loads, t] {
      Rng rng(static_cast<uint64_t>(t) + 77);
      std::vector<BlockCache::Handle> held;
      for (int op = 0; op < kOpsPerThread; ++op) {
        const uint64_t block = static_cast<uint64_t>(rng.Uniform(0, 31));
        auto handle = cache.GetOrLoad(
            {1, block}, MarkerLoader(static_cast<int64_t>(block), &loads));
        ASSERT_TRUE(handle.ok());
        held.push_back(std::move(handle).value());
        if (held.size() > 3 || rng.Uniform(0, 3) == 0) {
          // Release out of order so unpins interleave with inserts.
          const size_t victim =
              static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(
                                                     held.size() - 1)));
          held[victim].Release();
          held.erase(held.begin() + static_cast<long>(victim));
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const BlockCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.pinned_blocks, 0u);
  EXPECT_EQ(stats.misses, stats.evictions + stats.cached_blocks);
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(loads.load()));
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  // The full ledger form (no loads in flight, nothing erased or failed
  // here, so the extra terms are zero — but they must *be* zero).
  EXPECT_EQ(stats.loading_blocks, 0u);
  EXPECT_EQ(stats.erased_blocks, 0u);
  EXPECT_EQ(stats.failed_loads, 0u);
  EXPECT_EQ(stats.misses, stats.cached_blocks + stats.loading_blocks +
                              stats.evictions + stats.failed_loads +
                              stats.erased_blocks);
}

TEST(BlockCacheTest, EraseFileCountsIntoTheLedger) {
  BlockCache cache({.capacity_blocks = 8, .capacity_bytes = 0, .shards = 2});
  std::atomic<int> loads{0};
  for (uint64_t b = 0; b < 3; ++b) {
    auto handle =
        cache.GetOrLoad({1, b}, MarkerLoader(static_cast<int64_t>(b), &loads));
    ASSERT_TRUE(handle.ok());
  }
  auto other = cache.GetOrLoad({2, 0}, MarkerLoader(20, &loads));
  ASSERT_TRUE(other.ok());
  // Keep one file-1 block pinned across the erase: it must survive as a
  // doomed entry until the pin drops, then count as erased.
  auto pinned = cache.GetOrLoad({1, 1}, MarkerLoader(1, &loads));
  ASSERT_TRUE(pinned.ok());

  cache.EraseFile(1);
  {
    const BlockCacheStats stats = cache.GetStats();
    EXPECT_EQ(stats.erased_blocks, 2u);   // Unpinned file-1 entries.
    EXPECT_EQ(stats.cached_blocks, 2u);   // {2,0} plus the doomed pin.
    EXPECT_EQ(stats.pinned_blocks, 2u);
    EXPECT_EQ(stats.misses, stats.cached_blocks + stats.loading_blocks +
                                stats.evictions + stats.failed_loads +
                                stats.erased_blocks);
  }
  EXPECT_FALSE(cache.Contains({1, 0}));
  EXPECT_TRUE(cache.Contains({2, 0}));

  pinned.value().Release();
  {
    const BlockCacheStats stats = cache.GetStats();
    EXPECT_EQ(stats.erased_blocks, 3u);  // Doomed entry dropped on unpin.
    EXPECT_EQ(stats.cached_blocks, 1u);
    EXPECT_EQ(stats.misses, stats.cached_blocks + stats.loading_blocks +
                                stats.evictions + stats.failed_loads +
                                stats.erased_blocks);
  }
  EXPECT_FALSE(cache.Contains({1, 1}));
}

TEST(BlockCacheTest, SnapshotLedgerHoldsExactlyUnderChurn) {
  // The point of the all-shards-locked snapshot: while loads, unpins,
  // evictions, failures, and file erases race from several threads,
  // *every* GetStats observes the exact ledger — not a transiently
  // inconsistent mid-update view.
  BlockCache cache({.capacity_blocks = 6, .capacity_bytes = 0, .shards = 4});
  std::atomic<int> loads{0};
  std::atomic<bool> stop{false};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &loads, t] {
      Rng rng(static_cast<uint64_t>(t) + 11);
      for (int op = 0; op < 300; ++op) {
        const uint64_t file = 1 + static_cast<uint64_t>(rng.Uniform(0, 1));
        const uint64_t block = static_cast<uint64_t>(rng.Uniform(0, 15));
        if (rng.Uniform(0, 19) == 0) {
          // Occasional failure: the loader error must count once.
          auto failing = cache.GetOrLoad({3, block}, [] {
            return Result<std::shared_ptr<const Block>>(
                Status::Corruption("synthetic"));
          });
          EXPECT_FALSE(failing.ok());
          continue;
        }
        auto handle = cache.GetOrLoad(
            {file, block},
            MarkerLoader(static_cast<int64_t>(file * 100 + block), &loads));
        ASSERT_TRUE(handle.ok());
        if (rng.Uniform(0, 9) == 0) {
          cache.EraseFile(2);  // Erase under out-held pins included.
        }
        handle.value().Release();
      }
    });
  }
  std::thread poller([&cache, &stop] {
    uint64_t last_misses = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const BlockCacheStats stats = cache.GetStats();
      ASSERT_EQ(stats.misses, stats.cached_blocks + stats.loading_blocks +
                                  stats.evictions + stats.failed_loads +
                                  stats.erased_blocks)
          << "ledger broke mid-churn";
      ASSERT_GE(stats.misses, last_misses);  // Monotone under the locks.
      last_misses = stats.misses;
      std::this_thread::yield();
    }
  });
  for (auto& thread : threads) {
    thread.join();
  }
  stop.store(true, std::memory_order_relaxed);
  poller.join();
  const BlockCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.loading_blocks, 0u);
  EXPECT_EQ(stats.pinned_blocks, 0u);
  EXPECT_GT(stats.failed_loads, 0u);
  EXPECT_EQ(stats.misses, stats.cached_blocks + stats.loading_blocks +
                              stats.evictions + stats.failed_loads +
                              stats.erased_blocks);
}

TEST(BlockCacheTest, FailedLoadIsNotCachedAndPropagates) {
  BlockCache cache({.capacity_blocks = 4, .capacity_bytes = 0, .shards = 1});
  std::atomic<int> loads{0};

  auto failing = cache.GetOrLoad({7, 0}, [] {
    return Result<std::shared_ptr<const Block>>(
        Status::Corruption("synthetic load failure"));
  });
  EXPECT_FALSE(failing.ok());
  EXPECT_TRUE(failing.status().IsCorruption());
  EXPECT_FALSE(cache.Contains({7, 0}));
  EXPECT_EQ(cache.GetStats().failed_loads, 1u);

  // A persistent failure quarantines the key: requests inside the TTL
  // fail fast with the original status, and the loader never runs.
  auto fastfail = cache.GetOrLoad({7, 0}, MarkerLoader(70, &loads));
  EXPECT_FALSE(fastfail.ok());
  EXPECT_TRUE(fastfail.status().IsCorruption());
  EXPECT_EQ(loads.load(), 0);
  {
    const BlockCacheStats stats = cache.GetStats();
    EXPECT_EQ(stats.quarantine_fastfails, 1u);
    EXPECT_EQ(stats.quarantined, 1u);
    // A fast-fail is neither a hit nor a miss: the ledger is untouched.
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 0u);
  }

  // The key becomes loadable again once the quarantine lifts.
  cache.ClearQuarantine();
  EXPECT_EQ(cache.GetStats().quarantined, 0u);
  auto ok = cache.GetOrLoad({7, 0}, MarkerLoader(70, &loads));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value()->column(0).Get(0), 70);
  EXPECT_EQ(loads.load(), 1);
}

TEST(BlockCacheTest, QuarantineDisabledKeepsKeysLoadable) {
  BlockCache cache({.capacity_blocks = 4,
                    .capacity_bytes = 0,
                    .shards = 1,
                    .quarantine_ttl_ms = 0});
  std::atomic<int> loads{0};
  auto failing = cache.GetOrLoad({7, 0}, [] {
    return Result<std::shared_ptr<const Block>>(
        Status::IOError("synthetic load failure"));
  });
  EXPECT_FALSE(failing.ok());
  // Pre-quarantine behavior: the very next request re-runs the loader.
  auto ok = cache.GetOrLoad({7, 0}, MarkerLoader(70, &loads));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(loads.load(), 1);
  EXPECT_EQ(cache.GetStats().quarantine_fastfails, 0u);
}

TEST(BlockCacheTest, QuarantineTtlExpiresAndSkipsTransientStatuses) {
  BlockCache cache({.capacity_blocks = 4,
                    .capacity_bytes = 0,
                    .shards = 1,
                    .quarantine_ttl_ms = 20});
  std::atomic<int> loads{0};

  // Transient statuses (anything but Corruption/IOError) never
  // quarantine: a retry may well succeed.
  auto transient = cache.GetOrLoad({7, 0}, [] {
    return Result<std::shared_ptr<const Block>>(
        Status::ResourceExhausted("loader backpressure"));
  });
  EXPECT_FALSE(transient.ok());
  EXPECT_EQ(cache.GetStats().quarantined, 0u);
  {
    auto ok = cache.GetOrLoad({7, 0}, MarkerLoader(70, &loads));
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(loads.load(), 1);
  }

  // A persistent failure quarantines — and the TTL lifts it without any
  // explicit clear.
  auto failing = cache.GetOrLoad({8, 0}, [] {
    return Result<std::shared_ptr<const Block>>(
        Status::IOError("synthetic load failure"));
  });
  EXPECT_FALSE(failing.ok());
  EXPECT_FALSE(cache.GetOrLoad({8, 0}, MarkerLoader(80, &loads)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto ok = cache.GetOrLoad({8, 0}, MarkerLoader(80, &loads));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value()->column(0).Get(0), 80);
}

TEST(BlockCacheTest, QuarantineCapacityDropsOldestFirst) {
  BlockCache cache({.capacity_blocks = 8,
                    .capacity_bytes = 0,
                    .shards = 1,
                    .quarantine_capacity = 2});
  std::atomic<int> loads{0};
  for (uint64_t b = 0; b < 3; ++b) {
    auto failing = cache.GetOrLoad({9, b}, [] {
      return Result<std::shared_ptr<const Block>>(
          Status::IOError("synthetic load failure"));
    });
    EXPECT_FALSE(failing.ok());
  }
  // Capacity 2: block 0 (oldest) was dropped and is loadable again;
  // blocks 1 and 2 still fast-fail.
  EXPECT_EQ(cache.GetStats().quarantined, 2u);
  EXPECT_TRUE(cache.GetOrLoad({9, 0}, MarkerLoader(90, &loads)).ok());
  EXPECT_FALSE(cache.GetOrLoad({9, 1}, MarkerLoader(91, &loads)).ok());
  EXPECT_FALSE(cache.GetOrLoad({9, 2}, MarkerLoader(92, &loads)).ok());
  EXPECT_EQ(loads.load(), 1);
}

TEST(BlockCacheTest, EraseFileSweepsItsQuarantineEntries) {
  BlockCache cache({.capacity_blocks = 8, .capacity_bytes = 0, .shards = 1});
  std::atomic<int> loads{0};
  for (uint64_t file : {10u, 11u}) {
    auto failing = cache.GetOrLoad({file, 0}, [] {
      return Result<std::shared_ptr<const Block>>(
          Status::IOError("synthetic load failure"));
    });
    EXPECT_FALSE(failing.ok());
  }
  EXPECT_EQ(cache.GetStats().quarantined, 2u);
  cache.EraseFile(10);
  EXPECT_EQ(cache.GetStats().quarantined, 1u);
  EXPECT_TRUE(cache.GetOrLoad({10, 0}, MarkerLoader(100, &loads)).ok());
  EXPECT_FALSE(cache.GetOrLoad({11, 0}, MarkerLoader(110, &loads)).ok());
}

// The waiter-wakeup audit: concurrent requests for one key during a
// failing load must all wake with the error (none may hang), the loader
// must have run exactly once for the flight, and failed_loads must
// count exactly once. Run under TSan in CI.
TEST(BlockCacheTest, AllWaitersWakeWithErrorOnFailedLoad) {
  BlockCache cache({.capacity_blocks = 8, .capacity_bytes = 0, .shards = 1});
  std::atomic<int> loads{0};
  std::atomic<int> release{0};

  // Leader: a slow failing load the waiters pile onto.
  std::thread leader([&] {
    auto result = cache.GetOrLoad({12, 0}, [&] {
      loads.fetch_add(1);
      release.store(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      return Result<std::shared_ptr<const Block>>(
          Status::IOError("synthetic slow load failure"));
    });
    EXPECT_FALSE(result.ok());
  });
  while (release.load() == 0) {
    std::this_thread::yield();
  }

  constexpr int kWaiters = 8;
  std::vector<std::thread> waiters;
  std::atomic<int> woken_with_error{0};
  waiters.reserve(kWaiters);
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      auto result = cache.GetOrLoad({12, 0}, [&] {
        loads.fetch_add(1);  // Must not run: single flight + quarantine.
        return Result<std::shared_ptr<const Block>>(
            Status::IOError("unexpected second load"));
      });
      if (!result.ok() && result.status().IsIOError()) {
        woken_with_error.fetch_add(1);
      }
    });
  }
  for (std::thread& t : waiters) {
    t.join();
  }
  leader.join();

  EXPECT_EQ(woken_with_error.load(), kWaiters);
  EXPECT_EQ(loads.load(), 1);
  const BlockCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.failed_loads, 1u);
  EXPECT_EQ(stats.misses, 1u);
  // Ledger: the one miss was removed by exactly the one failed load.
  EXPECT_EQ(stats.misses, stats.cached_blocks + stats.loading_blocks +
                              stats.evictions + stats.failed_loads +
                              stats.erased_blocks);
}

TEST(BlockCacheTest, ByteBudgetTriggersEviction) {
  // Marker blocks are identical in size; budget one block's bytes.
  const size_t one_block = MakeMarkerBlock(0)->GetStats().encoded_bytes;
  BlockCache cache({.capacity_blocks = 0,
                    .capacity_bytes = one_block,
                    .shards = 1});
  std::atomic<int> loads{0};
  { auto a = cache.GetOrLoad({1, 0}, MarkerLoader(1, &loads)); ASSERT_TRUE(a.ok()); }
  { auto b = cache.GetOrLoad({1, 1}, MarkerLoader(2, &loads)); ASSERT_TRUE(b.ok()); }
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_LE(cache.GetStats().cached_bytes, one_block);
}

TEST(BlockCacheTest, ByteBudgetIsGlobalNotPerShardSliced) {
  // Budget for ~5 blocks spread over 8 shards: a per-shard slice would
  // be smaller than one block and evict everything on unpin; the global
  // budget must keep all 4 working-set blocks resident.
  const size_t one_block = MakeMarkerBlock(0)->GetStats().encoded_bytes;
  ASSERT_GT(one_block, 0u);
  BlockCache cache({.capacity_blocks = 0,
                    .capacity_bytes = 5 * one_block,
                    .shards = 8});
  std::atomic<int> loads{0};
  for (uint64_t b = 0; b < 4; ++b) {
    auto handle =
        cache.GetOrLoad({1, b}, MarkerLoader(static_cast<int64_t>(b), &loads));
    ASSERT_TRUE(handle.ok());
  }
  EXPECT_EQ(loads.load(), 4);
  // Second pass: everything is still resident.
  for (uint64_t b = 0; b < 4; ++b) {
    auto handle =
        cache.GetOrLoad({1, b}, MarkerLoader(static_cast<int64_t>(b), &loads));
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ((*handle.value()).column(0).Get(0), static_cast<int64_t>(b));
  }
  EXPECT_EQ(loads.load(), 4);
  const BlockCacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.cached_blocks, 4u);
}

TEST(BlockCacheTest, RegisterFileIdsAreUnique) {
  BlockCache cache;
  const uint64_t a = cache.RegisterFile();
  const uint64_t b = cache.RegisterFile();
  EXPECT_NE(a, b);
}

// --- File-backed fixture ----------------------------------------------------

class ServeTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 4000;
  static constexpr size_t kBlockRows = 1000;

  void SetUp() override {
    path_ = ::testing::TempDir() + "corra_serve_test.corf";
    Rng rng(21);
    ship_.resize(kRows);
    receipt_.resize(kRows);
    fare_.resize(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      ship_[i] = rng.Uniform(8035, 10591);
      receipt_[i] = ship_[i] + rng.Uniform(1, 30);
      fare_[i] = rng.Uniform(100, 25000);
    }
    Table table;
    ASSERT_TRUE(table.AddColumn(Column::Date("ship", ship_)).ok());
    ASSERT_TRUE(table.AddColumn(Column::Date("receipt", receipt_)).ok());
    ASSERT_TRUE(table.AddColumn(Column::Money("fare", fare_)).ok());
    CompressionPlan plan = CompressionPlan::AllAuto(3);
    plan.block_rows = kBlockRows;
    plan.columns[1].auto_vertical = false;
    plan.columns[1].scheme = enc::Scheme::kDiff;
    plan.columns[1].reference = 0;
    auto compressed = CorraCompressor::Compress(table, plan);
    ASSERT_TRUE(compressed.ok());
    ASSERT_EQ(compressed.value().num_blocks(), 4u);
    ASSERT_TRUE(WriteCompressedTable(compressed.value(), path_).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Oracle: global positions with ship in [lo, hi] plus the three
  // columns' values there, straight from the raw vectors.
  struct Expected {
    std::vector<uint64_t> positions;
    std::vector<int64_t> ship, receipt, fare;
  };
  Expected ExpectedScan(int64_t lo, int64_t hi) const {
    Expected e;
    for (size_t i = 0; i < kRows; ++i) {
      if (ship_[i] >= lo && ship_[i] <= hi) {
        e.positions.push_back(i);
        e.ship.push_back(ship_[i]);
        e.receipt.push_back(receipt_[i]);
        e.fare.push_back(fare_[i]);
      }
    }
    return e;
  }

  static ScanRequest FilterScanRequest(int64_t lo, int64_t hi) {
    ScanRequest request;
    request.filter_column = 0;
    request.filter_lo = lo;
    request.filter_hi = hi;
    request.project_columns = {0, 1, 2};
    request.return_positions = true;
    return request;
  }

  std::string path_;
  std::vector<int64_t> ship_, receipt_, fare_;
};

TEST_F(ServeTest, ReaderExposesDirectoryMetadata) {
  auto cache = std::make_shared<BlockCache>();
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->schema().num_fields(), 3u);
  EXPECT_EQ(reader.value()->schema().field(1).name, "receipt");
  EXPECT_EQ(reader.value()->num_blocks(), 4u);
  EXPECT_EQ(reader.value()->num_rows(), kRows);
  const auto offsets = reader.value()->block_row_offsets();
  ASSERT_EQ(offsets.size(), 5u);
  for (size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(offsets[b], b * kBlockRows);
    EXPECT_EQ(reader.value()->block_rows(b), kBlockRows);
  }
  // Nothing was loaded to answer any of the above.
  EXPECT_EQ(cache->GetStats().misses, 0u);

  auto beyond = reader.value()->GetBlock(4);
  EXPECT_TRUE(beyond.status().IsOutOfRange());

  auto block = reader.value()->GetBlock(2);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block.value()->rows(), kBlockRows);
  EXPECT_EQ(block.value()->column(1).Get(5), receipt_[2 * kBlockRows + 5]);

  // Per-block stats back cache admission accounting.
  const Block::Stats stats = block.value()->GetStats();
  EXPECT_EQ(stats.rows, kBlockRows);
  EXPECT_EQ(stats.columns, 3u);
  EXPECT_EQ(stats.encoded_bytes, block.value()->SizeBytes());
}

TEST_F(ServeTest, PinnedBlocksOfClosedReaderAreDroppedOnRelease) {
  // A block pinned across its reader's destruction must not linger as
  // an unreachable cache resident after the pin drops.
  auto cache = std::make_shared<BlockCache>();
  BlockCache::Handle handle;
  {
    auto reader = TableReader::Open(path_, cache);
    ASSERT_TRUE(reader.ok());
    auto block = reader.value()->GetBlock(0);
    ASSERT_TRUE(block.ok());
    handle = std::move(block).value();
  }
  // Reader gone, pin still out: the entry is resident but doomed.
  EXPECT_EQ(cache->GetStats().cached_blocks, 1u);
  EXPECT_EQ(handle->column(0).Get(0), ship_[0]);
  handle.Release();
  const BlockCacheStats stats = cache->GetStats();
  EXPECT_EQ(stats.cached_blocks, 0u);
  EXPECT_EQ(stats.cached_bytes, 0u);
}

TEST_F(ServeTest, HandleMayOutliveCache) {
  // A pinned handle keeps the cache's internal state alive; releasing
  // it after the cache and reader are gone must be safe.
  BlockCache::Handle handle;
  {
    auto cache = std::make_shared<BlockCache>();
    auto reader = TableReader::Open(path_, cache);
    ASSERT_TRUE(reader.ok());
    auto block = reader.value()->GetBlock(1);
    ASSERT_TRUE(block.ok());
    handle = std::move(block).value();
  }
  ASSERT_TRUE(static_cast<bool>(handle));
  EXPECT_EQ(handle->column(0).Get(0), ship_[kBlockRows]);
  handle.Release();
}

TEST_F(ServeTest, EvictedBlockStaysDecodableWhileHeld) {
  // A loaded block's columns view the buffer its payload was read into.
  // Holding the block must keep that buffer alive after a one-block
  // cache evicts it to make room for the next block.
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.capacity_blocks = 1, .capacity_bytes = 0,
                        .shards = 1});
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  std::shared_ptr<const Block> held;
  {
    auto pinned = reader.value()->GetBlock(0);
    ASSERT_TRUE(pinned.ok());
    held = pinned.value().block();
  }  // Unpinned: block 0 is now evictable.
  ASSERT_TRUE(reader.value()->GetBlock(1).ok());
  const BlockCacheStats stats = cache->GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.cached_blocks, 1u);
  const std::vector<int64_t>* expected[] = {&ship_, &receipt_, &fare_};
  for (size_t c = 0; c < held->num_columns(); ++c) {
    std::vector<int64_t> decoded(held->rows());
    held->column(c).DecodeAll(decoded.data());
    EXPECT_TRUE(std::equal(decoded.begin(), decoded.end(),
                           expected[c]->begin()))
        << "column " << c;
  }
}

// Acceptance (a): ScanService over a lazily read file is byte-identical
// to materializing the whole table and scanning it in memory.
TEST_F(ServeTest, ScanMatchesFullInMemoryScan) {
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.capacity_blocks = 8, .capacity_bytes = 0,
                        .shards = 4});
  auto reader = TableReader::Open(path_, cache,
                                  TableReaderOptions{.verify_blocks = true});
  ASSERT_TRUE(reader.ok());
  ScanService service(ScanService::Options{.num_threads = 3});

  auto result = service.Execute(*reader.value(), FilterScanRequest(9000, 9400));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // In-memory oracle: full load + per-block filter + table scan.
  auto full = ReadCompressedTable(path_, /*verify=*/true);
  ASSERT_TRUE(full.ok());
  std::vector<uint64_t> expected_positions;
  std::vector<uint32_t> expected_positions32;
  uint64_t base = 0;
  for (size_t b = 0; b < full.value().num_blocks(); ++b) {
    const Block& block = full.value().block(b);
    for (uint32_t row :
         query::FilterToSelection(block.column(0), 9000, 9400)) {
      expected_positions.push_back(base + row);
      expected_positions32.push_back(static_cast<uint32_t>(base + row));
    }
    base += block.rows();
  }
  EXPECT_EQ(result.value().positions, expected_positions);
  EXPECT_EQ(result.value().rows_matched, expected_positions.size());
  EXPECT_EQ(result.value().rows_scanned, kRows);
  for (size_t c = 0; c < 3; ++c) {
    auto expected_values =
        query::ScanTableColumn(full.value(), c, expected_positions32);
    ASSERT_TRUE(expected_values.ok());
    EXPECT_EQ(result.value().columns[c], expected_values.value())
        << "column " << c;
  }
  // And against the raw-vector oracle.
  const Expected oracle = ExpectedScan(9000, 9400);
  EXPECT_EQ(result.value().positions, oracle.positions);
  EXPECT_EQ(result.value().columns[0], oracle.ship);
  EXPECT_EQ(result.value().columns[1], oracle.receipt);
  EXPECT_EQ(result.value().columns[2], oracle.fare);
}

TEST_F(ServeTest, AggregatesMatchDecodedFold) {
  auto cache = std::make_shared<BlockCache>();
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service(ScanService::Options{.num_threads = 2});

  // Unfiltered: compressed-domain pushdown across blocks.
  ScanRequest sum_all;
  sum_all.aggregate = AggregateOp::kSum;
  sum_all.aggregate_column = 2;
  auto sum_result = service.Execute(*reader.value(), sum_all);
  ASSERT_TRUE(sum_result.ok());
  uint64_t expected_sum = 0;
  for (int64_t v : fare_) {
    expected_sum += static_cast<uint64_t>(v);
  }
  EXPECT_EQ(sum_result.value().agg_sum,
            static_cast<int64_t>(expected_sum));

  ScanRequest min_all = sum_all;
  min_all.aggregate = AggregateOp::kMin;
  ScanRequest max_all = sum_all;
  max_all.aggregate = AggregateOp::kMax;
  auto min_result = service.Execute(*reader.value(), min_all);
  auto max_result = service.Execute(*reader.value(), max_all);
  ASSERT_TRUE(min_result.ok());
  ASSERT_TRUE(max_result.ok());
  EXPECT_EQ(min_result.value().agg_min,
            *std::min_element(fare_.begin(), fare_.end()));
  EXPECT_EQ(max_result.value().agg_max,
            *std::max_element(fare_.begin(), fare_.end()));

  // Filtered: decode-and-fold at matching rows only.
  ScanRequest filtered_sum;
  filtered_sum.filter_column = 0;
  filtered_sum.filter_lo = 9000;
  filtered_sum.filter_hi = 9400;
  filtered_sum.aggregate = AggregateOp::kSum;
  filtered_sum.aggregate_column = 2;
  auto filtered = service.Execute(*reader.value(), filtered_sum);
  ASSERT_TRUE(filtered.ok());
  const Expected oracle = ExpectedScan(9000, 9400);
  uint64_t expected_filtered_sum = 0;
  for (int64_t v : oracle.fare) {
    expected_filtered_sum += static_cast<uint64_t>(v);
  }
  EXPECT_EQ(filtered.value().agg_sum,
            static_cast<int64_t>(expected_filtered_sum));
  EXPECT_EQ(filtered.value().rows_matched, oracle.positions.size());

  // Aggregating a column that is also projected must produce the same
  // sum and values.
  ScanRequest projected_sum = filtered_sum;
  projected_sum.project_columns = {2};
  auto both = service.Execute(*reader.value(), projected_sum);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both.value().agg_sum,
            static_cast<int64_t>(expected_filtered_sum));
  EXPECT_EQ(both.value().columns[0], oracle.fare);
}

// Filtered Sum/Min/Max against a raw-vector oracle, over a vertical and
// a multi-reference column: contiguous matches (a range over a sorted
// column), scattered matches, and blocks whose stats overlap the
// predicate but hold no match (so the per-block selection is empty).
TEST(ScanServiceAggregateTest, FilteredAggregatesMatchOracle) {
  constexpr size_t kRows = 6000;
  constexpr size_t kBlockRows = 2500;  // Blocks span more than a morsel.
  Rng rng(33);
  std::vector<std::vector<int64_t>> cols(6, std::vector<int64_t>(kRows));
  for (size_t i = 0; i < kRows; ++i) {
    cols[0][i] = static_cast<int64_t>(i / 3);    // Sorted.
    cols[1][i] = 2 * rng.Uniform(0, 5000);       // Even only.
    cols[2][i] = rng.Uniform(-5000, 5000);
    cols[3][i] = rng.Uniform(0, 300);
    cols[4][i] = rng.Uniform(100, 200);
    const double u = rng.NextDouble();
    cols[5][i] = u < 0.02   ? rng.Uniform(1 << 20, 1 << 21)  // Outlier.
                 : u < 0.4  ? cols[2][i]
                 : u < 0.9  ? cols[2][i] + cols[3][i]
                            : cols[2][i] + cols[3][i] + cols[4][i];
  }
  Table table;
  for (size_t c = 0; c < cols.size(); ++c) {
    ASSERT_TRUE(
        table.AddColumn(Column::Int64("c" + std::to_string(c), cols[c]))
            .ok());
  }
  CompressionPlan plan = CompressionPlan::AllAuto(cols.size());
  plan.block_rows = kBlockRows;
  ColumnPlan& total = plan.columns[5];
  total.auto_vertical = false;
  total.scheme = enc::Scheme::kMultiRef;
  total.formulas.groups = {{2}, {3}, {4}};
  total.formulas.formulas = {0b001, 0b011, 0b111};
  total.formulas.code_bits = 2;
  auto compressed = CorraCompressor::Compress(table, plan);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  ASSERT_EQ(compressed.value().block(0).column(5).scheme(),
            enc::Scheme::kMultiRef);
  const std::string path =
      ::testing::TempDir() + "corra_serve_aggregate_test.corf";
  ASSERT_TRUE(WriteCompressedTable(compressed.value(), path).ok());
  auto reader = TableReader::Open(path, std::make_shared<BlockCache>());
  ASSERT_TRUE(reader.ok());
  ScanService service(ScanService::Options{.num_threads = 2});

  struct Filter {
    const char* name;
    size_t column;
    int64_t lo, hi;
  };
  const Filter filters[] = {
      {"contiguous", 0, 300, 1200},   // Rows 900..3602, two blocks.
      {"scattered", 1, 2000, 6000},
      {"no match", 1, 2001, 2001},    // Odd: overlaps stats, never hit.
  };
  for (const Filter& filter : filters) {
    for (const size_t agg_col : {size_t{2}, size_t{5}}) {
      SCOPED_TRACE(std::string(filter.name) + ", column " +
                   std::to_string(agg_col));
      uint64_t sum = 0;
      std::optional<int64_t> min, max;
      uint64_t matched = 0;
      for (size_t i = 0; i < kRows; ++i) {
        const int64_t key = cols[filter.column][i];
        if (key < filter.lo || key > filter.hi) {
          continue;
        }
        const int64_t v = cols[agg_col][i];
        sum += static_cast<uint64_t>(v);
        min = min ? std::min(*min, v) : v;
        max = max ? std::max(*max, v) : v;
        ++matched;
      }
      ScanRequest request;
      request.filter_column = filter.column;
      request.filter_lo = filter.lo;
      request.filter_hi = filter.hi;
      request.aggregate_column = agg_col;
      for (const AggregateOp op :
           {AggregateOp::kSum, AggregateOp::kMin, AggregateOp::kMax}) {
        request.aggregate = op;
        auto result = service.Execute(*reader.value(), request);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result.value().rows_matched, matched);
        switch (op) {
          case AggregateOp::kSum:
            EXPECT_EQ(result.value().agg_sum, static_cast<int64_t>(sum));
            break;
          case AggregateOp::kMin:
            EXPECT_EQ(result.value().agg_min, min);
            break;
          case AggregateOp::kMax:
            EXPECT_EQ(result.value().agg_max, max);
            break;
        }
        if (filter.column == 1) {
          EXPECT_EQ(result.value().blocks_skipped, 0u);
        }
      }
    }
  }
  std::remove(path.c_str());
}

// A filtered SUM over a taxi-shaped MultiRef column (group A in every
// formula; B and C, each a 1-bit Dict, in some) whose filter selects
// contiguous rows that start and end off the 64-row group grid inside
// each block: the service's SumRange path, compared with a fold of the
// decoded column.
TEST(ScanServiceAggregateTest, FilteredMultiRefSumMatchesDecodeOracle) {
  constexpr size_t kRows = 6000;
  constexpr size_t kBlockRows = 2500;
  Rng rng(35);
  std::vector<std::vector<int64_t>> cols(5, std::vector<int64_t>(kRows));
  for (size_t i = 0; i < kRows; ++i) {
    cols[0][i] = static_cast<int64_t>(i);  // Sorted: a range is contiguous.
    cols[1][i] = rng.Uniform(250, 9000);
    cols[2][i] = rng.Bernoulli(0.6) ? 250 : 0;
    cols[3][i] = rng.Bernoulli(0.1) ? 125 : 0;
    const double u = rng.NextDouble();
    cols[4][i] = u < 0.005  ? rng.Uniform(1 << 20, 1 << 21)  // Outlier.
                 : u < 0.3  ? cols[1][i]
                 : u < 0.9  ? cols[1][i] + cols[2][i]
                 : u < 0.95 ? cols[1][i] + cols[3][i]
                            : cols[1][i] + cols[2][i] + cols[3][i];
  }
  Table table;
  for (size_t c = 0; c < cols.size(); ++c) {
    ASSERT_TRUE(
        table.AddColumn(Column::Int64("c" + std::to_string(c), cols[c]))
            .ok());
  }
  CompressionPlan plan = CompressionPlan::AllAuto(cols.size());
  plan.block_rows = kBlockRows;
  ColumnPlan& total = plan.columns[4];
  total.auto_vertical = false;
  total.scheme = enc::Scheme::kMultiRef;
  total.formulas.groups = {{1}, {2}, {3}};
  total.formulas.formulas = {0b001, 0b011, 0b101, 0b111};
  total.formulas.code_bits = 2;
  auto compressed = CorraCompressor::Compress(table, plan);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  for (size_t b = 0; b < compressed.value().num_blocks(); ++b) {
    const Block& block = compressed.value().block(b);
    ASSERT_EQ(block.column(4).scheme(), enc::Scheme::kMultiRef);
    for (size_t c : {2, 3}) {  // The bit-plane path's reference shape.
      ASSERT_EQ(block.column(c).scheme(), enc::Scheme::kDict);
      ASSERT_EQ(static_cast<const enc::DictColumn&>(block.column(c))
                    .bit_width(),
                1);
    }
  }
  const std::vector<int64_t> decoded = compressed.value().DecodeColumn(4);
  const std::string path =
      ::testing::TempDir() + "corra_serve_multiref_sum_test.corf";
  ASSERT_TRUE(WriteCompressedTable(compressed.value(), path).ok());
  auto reader = TableReader::Open(path, std::make_shared<BlockCache>());
  ASSERT_TRUE(reader.ok());
  ScanService service(ScanService::Options{.num_threads = 2});
  // Rows [lo, hi]: inside block 0 from local row 37; inside block 1 from
  // local row 37; from local row 1000 of block 0 across all of block 1
  // into block 2.
  const std::pair<int64_t, int64_t> windows[] = {
      {37, 2100}, {2537, 4444}, {1000, 5555}};
  for (const auto& [lo, hi] : windows) {
    SCOPED_TRACE(std::to_string(lo) + ".." + std::to_string(hi));
    ASSERT_NE(lo % 64, 0);
    uint64_t expected = 0;
    for (int64_t row = lo; row <= hi; ++row) {
      expected += static_cast<uint64_t>(decoded[static_cast<size_t>(row)]);
    }
    ScanRequest request;
    request.filter_column = 0;
    request.filter_lo = lo;
    request.filter_hi = hi;
    request.aggregate = AggregateOp::kSum;
    request.aggregate_column = 4;
    auto result = service.Execute(*reader.value(), request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().rows_matched, static_cast<size_t>(hi - lo + 1));
    EXPECT_EQ(result.value().agg_sum, static_cast<int64_t>(expected));
  }
  std::remove(path.c_str());
}

// Acceptance (b): with cache capacity below the file's block count,
// evictions occur and every scan still returns correct results.
TEST_F(ServeTest, TinyCacheEvictsAndStaysCorrect) {
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.capacity_blocks = 2, .capacity_bytes = 0,
                        .shards = 4});
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service(ScanService::Options{.num_threads = 2});

  const Expected oracle = ExpectedScan(8500, 10000);
  for (int round = 0; round < 3; ++round) {
    auto result =
        service.Execute(*reader.value(), FilterScanRequest(8500, 10000));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().positions, oracle.positions) << "round " << round;
    EXPECT_EQ(result.value().columns[1], oracle.receipt) << "round " << round;
  }
  const BlockCacheStats stats = cache->GetStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.misses, 4u);  // Blocks were reloaded after eviction.
  EXPECT_LE(stats.cached_blocks, 2u);
}

// Acceptance (c): concurrent scan requests over one shared reader and a
// small cache complete without races (run under ASan/UBSan in CI) and
// all return correct results.
TEST_F(ServeTest, ConcurrentScansShareOneReader) {
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.capacity_blocks = 2, .capacity_bytes = 0,
                        .shards = 2});
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service(ScanService::Options{.num_threads = 4});

  constexpr int kClients = 8;
  constexpr int kRounds = 5;
  std::vector<Expected> oracles;
  std::vector<ScanRequest> requests;
  for (int c = 0; c < kClients; ++c) {
    const int64_t lo = 8100 + 300 * c;
    const int64_t hi = lo + 700;
    oracles.push_back(ExpectedScan(lo, hi));
    requests.push_back(FilterScanRequest(lo, hi));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        auto result = service.Execute(*reader.value(), requests[c]);
        if (!result.ok() ||
            result.value().positions != oracles[c].positions ||
            result.value().columns[1] != oracles[c].receipt ||
            result.value().columns[2] != oracles[c].fare) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const BlockCacheStats stats = cache->GetStats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_EQ(stats.pinned_blocks, 0u);  // All scans released their pins.
}

TEST_F(ServeTest, GatherMatchesTableScan) {
  auto cache = std::make_shared<BlockCache>();
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service(ScanService::Options{.num_threads = 2});

  Rng rng(5);
  const std::vector<uint32_t> rows32 =
      query::GenerateSelectionVector(kRows, 0.05, &rng);
  const std::vector<uint64_t> rows64(rows32.begin(), rows32.end());
  const std::vector<size_t> cols = {1, 2};

  auto gathered = service.Gather(*reader.value(), cols, rows64);
  ASSERT_TRUE(gathered.ok()) << gathered.status().ToString();

  auto full = ReadCompressedTable(path_);
  ASSERT_TRUE(full.ok());
  for (size_t c = 0; c < cols.size(); ++c) {
    auto expected = query::ScanTableColumn(full.value(), cols[c], rows32);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(gathered.value()[c], expected.value());
  }
}

TEST_F(ServeTest, GatherTouchesOnlyOwningBlocks) {
  auto cache = std::make_shared<BlockCache>();
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service(ScanService::Options{.num_threads = 0});

  // All positions inside block 1.
  const std::vector<uint64_t> rows = {1005, 1500, 1999};
  const std::vector<size_t> cols = {0};
  auto gathered = service.Gather(*reader.value(), cols, rows);
  ASSERT_TRUE(gathered.ok());
  EXPECT_EQ(gathered.value()[0],
            (std::vector<int64_t>{ship_[1005], ship_[1500], ship_[1999]}));
  EXPECT_EQ(cache->GetStats().misses, 1u);  // Only block 1 was loaded.
  EXPECT_FALSE(cache->Contains({reader.value()->file_id(), 0}));
  EXPECT_TRUE(cache->Contains({reader.value()->file_id(), 1}));
}

TEST_F(ServeTest, InvalidRequestsAreRejected) {
  auto cache = std::make_shared<BlockCache>();
  auto reader = TableReader::Open(path_, cache);
  ASSERT_TRUE(reader.ok());
  ScanService service(ScanService::Options{.num_threads = 0});

  ScanRequest bad_filter;
  bad_filter.filter_column = 9;
  EXPECT_TRUE(service.Execute(*reader.value(), bad_filter)
                  .status()
                  .IsInvalidArgument());

  ScanRequest bad_project;
  bad_project.project_columns = {3};
  EXPECT_TRUE(service.Execute(*reader.value(), bad_project)
                  .status()
                  .IsInvalidArgument());

  // Unsorted and out-of-range gathers.
  const std::vector<size_t> cols = {0};
  const std::vector<uint64_t> unsorted = {5, 3};
  const std::vector<uint64_t> beyond = {kRows};
  EXPECT_TRUE(service.Gather(*reader.value(), cols, unsorted)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(service.Gather(*reader.value(), cols, beyond)
                  .status()
                  .IsOutOfRange());
}

// Block skipping via CORF v3 per-block stats: a sorted key column gives
// every block a disjoint value range, so a narrow filter prunes all but
// one block — and the result must be byte-identical to the same scan
// without stats (a v2 file of the same table).
class BlockSkipTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 4000;
  static constexpr size_t kBlockRows = 1000;

  void SetUp() override {
    v3_path_ = ::testing::TempDir() + "corra_skip_v3.corf";
    v2_path_ = ::testing::TempDir() + "corra_skip_v2.corf";
    Rng rng(77);
    key_.resize(kRows);
    payload_.resize(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      key_[i] = static_cast<int64_t>(i);  // Sorted: disjoint block ranges.
      payload_[i] = rng.Uniform(100, 25000);
    }
    Table table;
    ASSERT_TRUE(table.AddColumn(Column::Int64("key", key_)).ok());
    ASSERT_TRUE(table.AddColumn(Column::Money("payload", payload_)).ok());
    CompressionPlan plan = CompressionPlan::AllAuto(2);
    plan.block_rows = kBlockRows;
    auto compressed = CorraCompressor::Compress(table, plan);
    ASSERT_TRUE(compressed.ok());
    ASSERT_EQ(compressed.value().num_blocks(), 4u);
    ASSERT_TRUE(WriteCompressedTable(compressed.value(), v3_path_).ok());
    test::WriteCompressedTableV2(compressed.value(), v2_path_);
  }

  void TearDown() override {
    std::remove(v3_path_.c_str());
    std::remove(v2_path_.c_str());
  }

  std::string v3_path_, v2_path_;
  std::vector<int64_t> key_, payload_;
};

TEST_F(BlockSkipTest, SkippedScanIsByteIdenticalToUnskipped) {
  ScanService service(ScanService::Options{.num_threads = 2});

  ScanRequest request;
  request.filter_column = 0;
  request.filter_lo = 1200;
  request.filter_hi = 1800;  // Entirely inside block 1's [1000, 2000).
  request.project_columns = {0, 1};
  request.return_positions = true;
  request.aggregate = AggregateOp::kSum;
  request.aggregate_column = 1;

  auto v3_cache = std::make_shared<BlockCache>();
  auto v3_reader = TableReader::Open(v3_path_, v3_cache);
  ASSERT_TRUE(v3_reader.ok());
  ASSERT_TRUE(v3_reader.value()->info().has_column_stats);
  auto skipped = service.Execute(*v3_reader.value(), request);
  ASSERT_TRUE(skipped.ok()) << skipped.status().ToString();

  auto v2_cache = std::make_shared<BlockCache>();
  auto v2_reader = TableReader::Open(v2_path_, v2_cache);
  ASSERT_TRUE(v2_reader.ok());
  ASSERT_FALSE(v2_reader.value()->info().has_column_stats);
  auto unskipped = service.Execute(*v2_reader.value(), request);
  ASSERT_TRUE(unskipped.ok()) << unskipped.status().ToString();

  // Identical results in every value field...
  EXPECT_EQ(skipped.value().rows_scanned, unskipped.value().rows_scanned);
  EXPECT_EQ(skipped.value().rows_matched, unskipped.value().rows_matched);
  EXPECT_EQ(skipped.value().positions, unskipped.value().positions);
  ASSERT_EQ(skipped.value().columns.size(), unskipped.value().columns.size());
  for (size_t c = 0; c < skipped.value().columns.size(); ++c) {
    EXPECT_EQ(skipped.value().columns[c], unskipped.value().columns[c]);
  }
  EXPECT_EQ(skipped.value().agg_sum, unskipped.value().agg_sum);

  // ...and both match the raw-vector oracle.
  EXPECT_EQ(skipped.value().rows_matched, 601u);
  ASSERT_EQ(skipped.value().positions.size(), 601u);
  int64_t expected_sum = 0;
  for (size_t i = 0; i < 601; ++i) {
    EXPECT_EQ(skipped.value().positions[i], 1200 + i);
    EXPECT_EQ(skipped.value().columns[0][i], key_[1200 + i]);
    EXPECT_EQ(skipped.value().columns[1][i], payload_[1200 + i]);
    expected_sum += payload_[1200 + i];
  }
  EXPECT_EQ(skipped.value().agg_sum, expected_sum);

  // The stats reader pruned 3 of 4 blocks and never fetched them.
  EXPECT_EQ(skipped.value().blocks_skipped, 3u);
  EXPECT_EQ(v3_cache->GetStats().misses, 1u);
  EXPECT_EQ(unskipped.value().blocks_skipped, 0u);
  EXPECT_EQ(v2_cache->GetStats().misses, 4u);
}

TEST_F(BlockSkipTest, FullyDisjointFilterTouchesNoBlock) {
  ScanService service(ScanService::Options{.num_threads = 0});
  auto cache = std::make_shared<BlockCache>();
  auto reader = TableReader::Open(v3_path_, cache);
  ASSERT_TRUE(reader.ok());

  ScanRequest request;
  request.filter_column = 0;
  request.filter_lo = 100000;
  request.filter_hi = 200000;
  request.project_columns = {1};
  request.return_positions = true;
  auto result = service.Execute(*reader.value(), request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().blocks_skipped, 4u);
  EXPECT_EQ(result.value().rows_scanned, kRows);
  EXPECT_EQ(result.value().rows_matched, 0u);
  EXPECT_TRUE(result.value().positions.empty());
  ASSERT_EQ(result.value().columns.size(), 1u);
  EXPECT_TRUE(result.value().columns[0].empty());
  EXPECT_EQ(cache->GetStats().misses, 0u);  // Nothing ever read.
}

// Partial-result degradation (ScanRequest::allow_partial) around a
// block whose payload is corrupt on disk.
class PartialScanTest : public ServeTest {
 protected:
  static constexpr size_t kBadBlock = 2;  // Global rows 2000..2999.

  void SetUp() override {
    ServeTest::SetUp();
    // Flip one byte in the middle of the bad block's payload; with
    // verify_blocks the checksum rejects it on every read (the one
    // re-read sees the same damaged bytes).
    auto info = ReadFileInfo(path_);
    ASSERT_TRUE(info.ok());
    const uint64_t target = info.value().block_offsets[kBadBlock] +
                            info.value().block_lengths[kBadBlock] / 2;
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<long>(target));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<long>(target));
    f.write(&byte, 1);
  }

  // The oracle restricted to rows outside the bad block.
  Expected ExpectedHealthyScan(int64_t lo, int64_t hi) const {
    const Expected full = ExpectedScan(lo, hi);
    Expected healthy;
    for (size_t i = 0; i < full.positions.size(); ++i) {
      const uint64_t pos = full.positions[i];
      if (pos / kBlockRows == kBadBlock) {
        continue;
      }
      healthy.positions.push_back(pos);
      healthy.ship.push_back(full.ship[i]);
      healthy.receipt.push_back(full.receipt[i]);
      healthy.fare.push_back(full.fare[i]);
    }
    return healthy;
  }

  static void ExpectMatchesHealthy(const ScanResult& result,
                                   const Expected& healthy) {
    EXPECT_EQ(result.positions, healthy.positions);
    ASSERT_EQ(result.columns.size(), 3u);
    EXPECT_EQ(result.columns[0], healthy.ship);
    EXPECT_EQ(result.columns[1], healthy.receipt);
    EXPECT_EQ(result.columns[2], healthy.fare);
  }
};

TEST_F(PartialScanTest, AllowPartialDegradesAroundABadBlock) {
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.capacity_blocks = 8});
  auto reader =
      TableReader::Open(path_, cache, {.verify_blocks = true});
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 0});

  // Without allow_partial the bad block fails the whole scan.
  ScanRequest request = FilterScanRequest(8035, 10591);
  auto strict = service.Execute(*reader.value(), request);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsCorruption());

  // With it, every healthy block's results come back byte-identical
  // and the bad block is reported with its original status.
  request.allow_partial = true;
  auto partial = service.Execute(*reader.value(), request);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  ASSERT_EQ(partial.value().failed_blocks.size(), 1u);
  EXPECT_EQ(partial.value().failed_blocks[0].block, kBadBlock);
  EXPECT_TRUE(partial.value().failed_blocks[0].status.IsCorruption());
  EXPECT_NE(partial.value().failed_blocks[0].status.message().find(
                "block 2"),
            std::string::npos);
  ExpectMatchesHealthy(partial.value(), ExpectedHealthyScan(8035, 10591));
  EXPECT_EQ(partial.value().rows_scanned, kRows - kBlockRows);
}

TEST_F(PartialScanTest, QuarantineFastFailKeepsTheOriginalStatus) {
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.capacity_blocks = 8});
  auto reader =
      TableReader::Open(path_, cache, {.verify_blocks = true});
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 0});
  ScanRequest request = FilterScanRequest(8035, 10591);
  request.allow_partial = true;

  auto first = service.Execute(*reader.value(), request);
  ASSERT_TRUE(first.ok());
  // Second scan: the bad block is quarantined, so its failure comes
  // from the fast path — but carries the same Corruption status, so
  // the manifest is indistinguishable from the first scan's.
  auto second = service.Execute(*reader.value(), request);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value().failed_blocks.size(), 1u);
  EXPECT_TRUE(second.value().failed_blocks[0].status.IsCorruption());
  EXPECT_EQ(second.value().failed_blocks[0].status.message(),
            first.value().failed_blocks[0].status.message());
  EXPECT_GE(cache->GetStats().quarantine_fastfails, 1u);
  ExpectMatchesHealthy(second.value(), ExpectedHealthyScan(8035, 10591));
}

TEST_F(PartialScanTest, DeadlineIsNeverDowngradedToPartial) {
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.capacity_blocks = 8});
  auto reader =
      TableReader::Open(path_, cache, {.verify_blocks = true});
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 0});
  ScanRequest request = FilterScanRequest(8035, 10591);
  request.allow_partial = true;
  request.deadline_ns = 1;  // Long expired.
  auto result = service.Execute(*reader.value(), request);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
}

TEST_F(PartialScanTest, ConcurrentPooledRequestsAllSeeTheFailure) {
  // Concurrent allow_partial scans through the pooled service: each
  // request's task for the bad block fails its own pin (a load, a wait
  // on another request's load, or the quarantine fast path) and must
  // report it; all requests degrade identically, none hang.
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.capacity_blocks = 8});
  auto reader =
      TableReader::Open(path_, cache, {.verify_blocks = true});
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 4});
  const Expected healthy = ExpectedHealthyScan(8035, 10591);

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<int> degraded{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      ScanRequest request = FilterScanRequest(8035, 10591);
      request.allow_partial = true;
      auto result = service.Execute(*reader.value(), request);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result.value().failed_blocks.size(), 1u);
      EXPECT_EQ(result.value().failed_blocks[0].block, kBadBlock);
      ExpectMatchesHealthy(result.value(), healthy);
      degraded.fetch_add(1);
    });
  }
  for (std::thread& thread : clients) {
    thread.join();
  }
  EXPECT_EQ(degraded.load(), kClients);
}

TEST_F(PartialScanTest, PartialResultsCounterTracksDegradedScans) {
  obs::Registry registry;
  auto cache = std::make_shared<BlockCache>(
      BlockCacheOptions{.capacity_blocks = 8, .registry = &registry});
  auto reader =
      TableReader::Open(path_, cache, {.verify_blocks = true});
  ASSERT_TRUE(reader.ok());
  ScanService service({.num_threads = 0, .registry = &registry});
  ScanRequest request = FilterScanRequest(8035, 10591);
  request.allow_partial = true;
  ASSERT_TRUE(service.Execute(*reader.value(), request).ok());
  ASSERT_TRUE(service.Execute(*reader.value(), request).ok());
  if (obs::Enabled()) {
    EXPECT_EQ(registry.counter("serve.partial_results").Value(), 2u);
    EXPECT_GE(registry.counter("cache.quarantine_fastfails").Value(), 1u);
    EXPECT_EQ(registry.gauge("cache.quarantined_blocks").Value(), 1);
  }
}

TEST_F(ServeTest, TwoReadersShareOneCacheWithoutCollisions) {
  const std::string path2 = ::testing::TempDir() + "corra_serve_test2.corf";
  // Second file: one block, distinct values.
  Table table;
  ASSERT_TRUE(
      table.AddColumn(Column::Int64("other", {5, 6, 7, 8})).ok());
  auto compressed =
      CorraCompressor::Compress(table, CompressionPlan::AllAuto(1));
  ASSERT_TRUE(compressed.ok());
  ASSERT_TRUE(WriteCompressedTable(compressed.value(), path2).ok());

  auto cache = std::make_shared<BlockCache>();
  auto reader1 = TableReader::Open(path_, cache);
  auto reader2 = TableReader::Open(path2, cache);
  ASSERT_TRUE(reader1.ok());
  ASSERT_TRUE(reader2.ok());
  EXPECT_NE(reader1.value()->file_id(), reader2.value()->file_id());

  {
    auto b1 = reader1.value()->GetBlock(0);
    auto b2 = reader2.value()->GetBlock(0);
    ASSERT_TRUE(b1.ok());
    ASSERT_TRUE(b2.ok());
    EXPECT_EQ(b1.value()->column(0).Get(0), ship_[0]);
    EXPECT_EQ(b2.value()->column(0).Get(0), 5);
  }
  EXPECT_EQ(cache->GetStats().cached_blocks, 2u);

  // Closing a reader drops its (unpinned) blocks from the cache.
  reader2 = Status::NotFound("closed");
  EXPECT_EQ(cache->GetStats().cached_blocks, 1u);

  std::remove(path2.c_str());
}

}  // namespace
}  // namespace corra::serve
