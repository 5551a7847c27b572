// Self-contained blocks: build, bind, serialize, reload, reject damage.

#include "storage/block.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/bit_util.h"
#include "common/random.h"
#include "common/simd/simd.h"
#include "core/c3/dfor.h"
#include "core/c3/numerical.h"
#include "core/c3/one_to_one.h"
#include "core/diff_encoding.h"
#include "core/hierarchical_encoding.h"
#include "core/multi_ref_encoding.h"
#include "encoding/bitpack.h"
#include "encoding/delta.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "encoding/plain.h"
#include "query/aggregate.h"
#include "query/filter.h"
#include "test_util.h"

namespace corra {
namespace {

// Builds a two-column block: FOR reference + diff-encoded target.
Result<Block> MakeDiffBlock(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> reference(n);
  std::vector<int64_t> target(n);
  for (size_t i = 0; i < n; ++i) {
    reference[i] = rng.Uniform(8035, 10591);
    target[i] = reference[i] + rng.Uniform(1, 30);
  }
  std::vector<BlockColumn> columns(2);
  CORRA_ASSIGN_OR_RETURN(columns[0].encoded,
                         enc::ForColumn::Encode(reference));
  CORRA_ASSIGN_OR_RETURN(
      columns[1].encoded,
      DiffEncodedColumn::Encode(target, reference, /*ref_index=*/0));
  return Block::Build(std::move(columns));
}

TEST(BlockTest, BuildBindsDiffColumn) {
  auto block = MakeDiffBlock(1000, 1);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_EQ(block.value().num_columns(), 2u);
  EXPECT_EQ(block.value().rows(), 1000u);
  // The diff column's Get works => the reference was bound.
  const int64_t ref = block.value().column(0).Get(5);
  const int64_t target = block.value().column(1).Get(5);
  EXPECT_GE(target - ref, 1);
  EXPECT_LE(target - ref, 30);
}

TEST(BlockTest, RejectsEmpty) {
  EXPECT_FALSE(Block::Build({}).ok());
}

TEST(BlockTest, RejectsRowCountMismatch) {
  std::vector<BlockColumn> columns(2);
  columns[0].encoded = enc::PlainColumn::Encode(std::vector<int64_t>{1, 2});
  columns[1].encoded = enc::PlainColumn::Encode(std::vector<int64_t>{1});
  EXPECT_FALSE(Block::Build(std::move(columns)).ok());
}

TEST(BlockTest, RejectsOutOfRangeReference) {
  const std::vector<int64_t> values = {1, 2, 3};
  std::vector<BlockColumn> columns(1);
  auto diff = DiffEncodedColumn::Encode(values, values, /*ref_index=*/5);
  ASSERT_TRUE(diff.ok());
  columns[0].encoded = std::move(diff).value();
  EXPECT_FALSE(Block::Build(std::move(columns)).ok());
}

TEST(BlockTest, RejectsSelfReference) {
  const std::vector<int64_t> values = {1, 2, 3};
  std::vector<BlockColumn> columns(1);
  auto diff = DiffEncodedColumn::Encode(values, values, /*ref_index=*/0);
  ASSERT_TRUE(diff.ok());
  columns[0].encoded = std::move(diff).value();
  EXPECT_FALSE(Block::Build(std::move(columns)).ok());
}

TEST(BlockTest, RejectsReferenceCycle) {
  const std::vector<int64_t> values = {1, 2, 3};
  std::vector<BlockColumn> columns(2);
  auto d0 = DiffEncodedColumn::Encode(values, values, /*ref_index=*/1);
  auto d1 = DiffEncodedColumn::Encode(values, values, /*ref_index=*/0);
  ASSERT_TRUE(d0.ok());
  ASSERT_TRUE(d1.ok());
  columns[0].encoded = std::move(d0).value();
  columns[1].encoded = std::move(d1).value();
  auto block = Block::Build(std::move(columns));
  ASSERT_FALSE(block.ok());
  EXPECT_TRUE(block.status().IsCorruption());
}

TEST(BlockTest, ChainedReferencesBindInOrder) {
  // c -> b -> a: allowed by the binder (the optimizer's chain extension).
  Rng rng(2);
  const size_t n = 500;
  std::vector<int64_t> a(n);
  std::vector<int64_t> b(n);
  std::vector<int64_t> c(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.Uniform(0, 100000);
    b[i] = a[i] + rng.Uniform(0, 7);
    c[i] = b[i] + rng.Uniform(0, 7);
  }
  std::vector<BlockColumn> columns(3);
  auto ca = enc::ForColumn::Encode(a);
  auto cb = DiffEncodedColumn::Encode(b, a, 0);
  auto cc = DiffEncodedColumn::Encode(c, b, 1);
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(cb.ok());
  ASSERT_TRUE(cc.ok());
  columns[0].encoded = std::move(ca).value();
  columns[1].encoded = std::move(cb).value();
  columns[2].encoded = std::move(cc).value();
  auto block = Block::Build(std::move(columns));
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  for (size_t i = 0; i < n; i += 37) {
    EXPECT_EQ(block.value().column(2).Get(i), c[i]);
  }
}

TEST(BlockTest, SerializeDeserializeRoundTrip) {
  auto block = MakeDiffBlock(2000, 3);
  ASSERT_TRUE(block.ok());
  const auto bytes = block.value().Serialize();
  auto reloaded = Block::Deserialize(bytes);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_EQ(reloaded.value().num_columns(), 2u);
  ASSERT_EQ(reloaded.value().rows(), 2000u);
  for (size_t i = 0; i < 2000; i += 13) {
    EXPECT_EQ(reloaded.value().column(0).Get(i),
              block.value().column(0).Get(i));
    EXPECT_EQ(reloaded.value().column(1).Get(i),
              block.value().column(1).Get(i));
  }
  EXPECT_EQ(reloaded.value().SizeBytes(), block.value().SizeBytes());
}

TEST(BlockTest, DeserializedBlockIsSelfContained) {
  // Decoding must need nothing beyond the serialized bytes: destroy the
  // original block before using the reloaded one.
  std::vector<uint8_t> bytes;
  {
    auto block = MakeDiffBlock(500, 4);
    ASSERT_TRUE(block.ok());
    bytes = block.value().Serialize();
  }
  auto reloaded = Block::Deserialize(bytes);
  ASSERT_TRUE(reloaded.ok());
  std::vector<int64_t> decoded(500);
  reloaded.value().column(1).DecodeAll(decoded.data());
  for (size_t i = 0; i < 500; ++i) {
    const int64_t diff = decoded[i] - reloaded.value().column(0).Get(i);
    EXPECT_GE(diff, 1);
    EXPECT_LE(diff, 30);
  }
}

TEST(BlockTest, StringDictionaryTravelsWithBlock) {
  enc::StringDictionary dict;
  std::vector<int64_t> codes;
  for (const char* s : {"NYC", "Naples", "NYC", "Cortland"}) {
    codes.push_back(dict.GetOrInsert(s));
  }
  auto shared = std::make_shared<enc::StringDictionary>(std::move(dict));
  std::vector<BlockColumn> columns(1);
  auto encoded = enc::ForColumn::Encode(codes);
  ASSERT_TRUE(encoded.ok());
  columns[0].encoded = std::move(encoded).value();
  columns[0].dict = shared;
  auto block = Block::Build(std::move(columns));
  ASSERT_TRUE(block.ok());
  // Dict contributes to the column footprint.
  EXPECT_EQ(block.value().ColumnSizeBytes(0),
            block.value().column(0).SizeBytes() + shared->SizeBytes());

  const auto bytes = block.value().Serialize();
  auto reloaded = Block::Deserialize(bytes);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_NE(reloaded.value().dictionary(0), nullptr);
  EXPECT_EQ((*reloaded.value().dictionary(0))[0], "NYC");
  EXPECT_EQ((*reloaded.value().dictionary(0))[1], "Naples");
  EXPECT_EQ((*reloaded.value().dictionary(0))[2], "Cortland");
}

TEST(BlockTest, BadMagicRejected) {
  auto block = MakeDiffBlock(100, 5);
  ASSERT_TRUE(block.ok());
  auto bytes = block.value().Serialize();
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(Block::Deserialize(bytes).ok());
}

TEST(BlockTest, BadVersionRejected) {
  auto block = MakeDiffBlock(100, 6);
  ASSERT_TRUE(block.ok());
  auto bytes = block.value().Serialize();
  bytes[4] = 99;
  EXPECT_FALSE(Block::Deserialize(bytes).ok());
}

TEST(BlockTest, TruncationAnywhereRejected) {
  auto block = MakeDiffBlock(64, 7);
  ASSERT_TRUE(block.ok());
  const auto bytes = block.value().Serialize();
  for (size_t cut = 0; cut < bytes.size(); cut += 11) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(Block::Deserialize(truncated).ok()) << "cut " << cut;
  }
}

TEST(BlockTest, VerifyModeChecksHierarchicalIntegrity) {
  // Valid hierarchical block passes verify.
  Rng rng(8);
  const size_t n = 300;
  std::vector<int64_t> city(n);
  std::vector<int64_t> zip(n);
  for (size_t i = 0; i < n; ++i) {
    city[i] = rng.Uniform(0, 9);
    zip[i] = city[i] * 10 + rng.Uniform(0, 3);
  }
  std::vector<BlockColumn> columns(2);
  auto ref = enc::ForColumn::Encode(city);
  auto hier = HierarchicalColumn::Encode(zip, city, 0);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(hier.ok());
  columns[0].encoded = std::move(ref).value();
  columns[1].encoded = std::move(hier).value();
  auto block = Block::Build(std::move(columns));
  ASSERT_TRUE(block.ok());
  const auto bytes = block.value().Serialize();
  EXPECT_TRUE(Block::Deserialize(bytes, /*verify=*/true).ok());
}

TEST(BlockTest, HugeColumnCountRejectedBeforeAllocating) {
  // Regression: the header's column count used to size a reserve()
  // before any column was read, so a corrupt count asked for gigabytes
  // even with verification on. Each column takes at least two bytes.
  auto block = MakeDiffBlock(100, 9);
  ASSERT_TRUE(block.ok());
  auto bytes = block.value().Serialize();
  const uint32_t absurd = 0xFFFFFFFF;
  std::memcpy(bytes.data() + 5, &absurd, sizeof(absurd));  // After magic,
                                                           // version.
  for (bool verify : {false, true}) {
    auto reloaded = Block::Deserialize(bytes, verify);
    ASSERT_FALSE(reloaded.ok());
    EXPECT_TRUE(reloaded.status().IsCorruption())
        << reloaded.status().ToString();
  }
}

// --- Zero-copy load: columns view the block buffer --------------------------
//
// A loaded block's packed payloads are views into one block buffer, so
// the bytes past a payload are whatever follows it there: the next
// field, another column, or the buffer's zeroed trailing slack. These
// tests prove no kernel interprets those bytes, and that the views keep
// the buffer alive.

constexpr size_t kSlackRows = 3000;  // Not a multiple of 64 or a morsel.
constexpr size_t kPad = bit_util::kDecodePadBytes;

// One scheme under test: a block whose last column is the column under
// test (earlier columns are Plain references, which carry no packed
// payload), that column's values, and the lengths of its BitWriter-padded
// payloads in wire order.
struct SlackCase {
  std::string name;
  Block block;
  std::vector<int64_t> expected;
  std::vector<size_t> padded_payloads;
};

// Wire length of an OutlierStore's packed value payload.
size_t OutlierPayloadBytes(const OutlierStore& store) {
  std::vector<int64_t> values;
  for (size_t i = 0; i < store.size(); ++i) {
    values.push_back(store.value(i));
  }
  const int64_t base =
      values.empty() ? 0 : *std::min_element(values.begin(), values.end());
  return bit_util::PackedBytes(values.size(),
                               bit_util::MaxForBitWidth(values, base));
}

// The payload of a single-stream scheme T (one bit_width() stream).
template <typename T>
std::vector<size_t> OnePackedPayload(const enc::EncodedColumn& column) {
  return {bit_util::PackedBytes(column.size(),
                                static_cast<const T&>(column).bit_width())};
}

std::vector<SlackCase> MakeSlackCases() {
  const size_t n = kSlackRows;
  Rng rng(42);
  // References: dense codes (hierarchical / 1-to-1), and two value
  // columns (diff, DFOR, numerical, multi-ref groups).
  std::vector<std::vector<int64_t>> refs(3, std::vector<int64_t>(n));
  for (size_t i = 0; i < n; ++i) {
    refs[0][i] = rng.Uniform(0, 11);
    refs[1][i] = rng.Uniform(1000, 50000);
    refs[2][i] = rng.Uniform(0, 300);
  }
  std::vector<SlackCase> cases;
  auto add = [&](std::string name, std::vector<int64_t> expected,
                 Result<std::unique_ptr<enc::EncodedColumn>> column,
                 auto padded) {
    ASSERT_TRUE(column.ok()) << name << ": " << column.status().ToString();
    std::vector<size_t> padded_payloads = padded(*column.value());
    std::vector<BlockColumn> columns(refs.size() + 1);
    for (size_t r = 0; r < refs.size(); ++r) {
      columns[r].encoded = enc::PlainColumn::Encode(refs[r]);
    }
    columns.back().encoded = std::move(column).value();
    auto block = Block::Build(std::move(columns));
    ASSERT_TRUE(block.ok()) << name << ": " << block.status().ToString();
    cases.push_back({std::move(name), std::move(block).value(),
                     std::move(expected), std::move(padded_payloads)});
  };
  auto upcast = [](auto result) -> Result<std::unique_ptr<enc::EncodedColumn>> {
    if (!result.ok()) {
      return result.status();
    }
    return std::unique_ptr<enc::EncodedColumn>(std::move(result).value());
  };

  std::vector<int64_t> v(n);
  for (auto& x : v) {
    x = rng.Uniform(0, 5000);
  }
  add("BitPack", v, upcast(enc::BitPackColumn::Encode(v)),
      OnePackedPayload<enc::BitPackColumn>);

  for (auto& x : v) {
    x = rng.Uniform(-70000, 70000);
  }
  add("FOR", v, upcast(enc::ForColumn::Encode(v)),
      OnePackedPayload<enc::ForColumn>);

  // 37 distinct values: a 6-bit code stream the range probe must check.
  std::vector<int64_t> pool(37);
  for (auto& x : pool) {
    x = rng.Uniform(-1000000000, 1000000000);
  }
  for (auto& x : v) {
    x = pool[static_cast<size_t>(rng.Uniform(0, 36))];
  }
  add("Dict", v, upcast(enc::DictColumn::Encode(v)),
      OnePackedPayload<enc::DictColumn>);

  int64_t walk = 1000000;
  for (auto& x : v) {
    x = walk += rng.Uniform(-50, 50);
  }
  add("Delta", v, upcast(enc::DeltaColumn::Encode(v)),
      OnePackedPayload<enc::DeltaColumn>);
  // Inline windows are written without in-payload pad: nothing to find.
  add("DeltaInline", v,
      upcast(enc::DeltaColumn::Encode(
          v, enc::DeltaColumn::kDefaultInlineCheckpointInterval,
          enc::DeltaLayout::kInline)),
      [](const enc::EncodedColumn&) { return std::vector<size_t>{}; });

  for (size_t i = 0; i < n; ++i) {
    v[i] = refs[1][i] + (i % 97 == 0 ? 1000000 + static_cast<int64_t>(i)
                                     : rng.Uniform(1, 40));
  }
  add("Diff", v,
      upcast(DiffEncodedColumn::Encode(
          v, refs[1], 1,
          DiffOptions{.use_outliers = true, .max_outlier_fraction = 0.02})),
      [n](const enc::EncodedColumn& c) {
        const auto& diff = static_cast<const DiffEncodedColumn&>(c);
        EXPECT_GT(diff.outliers().size(), 0u);
        return std::vector<size_t>{bit_util::PackedBytes(n, diff.bit_width()),
                                   OutlierPayloadBytes(diff.outliers())};
      });

  for (size_t i = 0; i < n; ++i) {
    v[i] = refs[0][i] * 1000 + rng.Uniform(0, 4) * 7;
  }
  add("Hierarchical", v, upcast(HierarchicalColumn::Encode(v, refs[0], 0)),
      OnePackedPayload<HierarchicalColumn>);

  // Three formulas in a 2-bit code stream: the range probe must check.
  FormulaTable table;
  table.groups = {{1}, {2}};
  table.formulas = {0b01, 0b11, 0b10};
  table.code_bits = 2;
  for (size_t i = 0; i < n; ++i) {
    const double u = rng.NextDouble();
    v[i] = u < 0.02   ? refs[1][i] + refs[2][i] + 777 + static_cast<int64_t>(i)
           : u < 0.32 ? refs[1][i]
           : u < 0.82 ? refs[1][i] + refs[2][i]
                      : refs[2][i];
  }
  add("MultiRef", v,
      upcast(MultiRefColumn::Encode(
          v, [&refs](uint32_t c) { return std::span<const int64_t>(refs[c]); },
          table)),
      [n](const enc::EncodedColumn& c) {
        const auto& multi = static_cast<const MultiRefColumn&>(c);
        EXPECT_GT(multi.outliers().size(), 0u);
        return std::vector<size_t>{bit_util::PackedBytes(n, 2),
                                   OutlierPayloadBytes(multi.outliers())};
      });

  for (size_t i = 0; i < n; ++i) {
    // The last frame is far wider than the first two.
    v[i] = refs[1][i] +
           (i >= 2048 ? rng.Uniform(0, 5000) : rng.Uniform(-20, 20));
  }
  add("DFOR", v, upcast(c3::DforColumn::Encode(v, refs[1], 1)),
      [n](const enc::EncodedColumn& c) {
        // SizeBytes is the packed bits plus 17 directory bytes per frame.
        const size_t frames = bit_util::CeilDiv(n, c3::DforColumn::kFrameSize);
        return std::vector<size_t>{c.SizeBytes() - frames * 17 + kPad};
      });

  for (size_t i = 0; i < n; ++i) {
    v[i] = 3 * refs[1][i] + rng.Uniform(0, 100);
  }
  add("Numerical", v, upcast(c3::NumericalColumn::Encode(v, refs[1], 1)),
      OnePackedPayload<c3::NumericalColumn>);

  for (size_t i = 0; i < n; ++i) {
    v[i] = refs[0][i] * 7 + 5 + (i % 101 == 0 ? 99999 : 0);
  }
  add("OneToOne", v, upcast(c3::OneToOneColumn::Encode(v, refs[0], 0)),
      [](const enc::EncodedColumn& c) {
        const auto& one = static_cast<const c3::OneToOneColumn&>(c);
        EXPECT_GT(one.outliers().size(), 0u);
        return std::vector<size_t>{OutlierPayloadBytes(one.outliers())};
      });
  return cases;
}

// Offsets of the length prefixes of `padded` payloads (in wire order) in
// `image`, searching from `from`: a prefix equal to the payload length
// whose payload ends in kPad zero bytes.
std::vector<size_t> FindPaddedPayloads(const std::vector<uint8_t>& image,
                                       size_t from,
                                       const std::vector<size_t>& padded) {
  std::vector<size_t> found;
  size_t at = from;
  for (size_t len : padded) {
    for (; at + 8 + len <= image.size(); ++at) {
      uint64_t prefix = 0;
      std::memcpy(&prefix, image.data() + at, sizeof(prefix));
      const auto end = image.begin() + static_cast<long>(at + 8 + len);
      if (prefix == len &&
          std::all_of(end - kPad, end, [](uint8_t b) { return b == 0; })) {
        break;
      }
    }
    EXPECT_LE(at + 8 + len, image.size()) << "no " << len << "-byte payload";
    found.push_back(at);
    at += 8 + len;
  }
  return found;
}

enum class Slack {
  kAsWritten,  // In-payload zero pad, as the writer produces it.
  kPoisoned,   // In-payload pad overwritten with 0xFF.
  kTrimmed,    // Payload cut to its data bytes (the legacy layout).
};

std::vector<uint8_t> ApplySlack(std::vector<uint8_t> image, size_t from,
                                const std::vector<size_t>& padded,
                                Slack slack) {
  const std::vector<size_t> at = FindPaddedPayloads(image, from, padded);
  for (size_t i = at.size(); i-- > 0;) {  // Back to front: offsets hold.
    const auto pad_begin =
        image.begin() + static_cast<long>(at[i] + 8 + padded[i] - kPad);
    if (slack == Slack::kPoisoned) {
      std::fill(pad_begin, pad_begin + kPad, 0xFF);
    } else if (slack == Slack::kTrimmed) {
      const uint64_t data_bytes = padded[i] - kPad;
      std::memcpy(image.data() + at[i], &data_bytes, sizeof(data_bytes));
      image.erase(pad_begin, pad_begin + kPad);
    }
  }
  return image;
}

// Loads `image` from a block buffer where it is followed by 0xFF bytes
// (`last` false) or by nothing but the buffer's trailing slack.
Result<Block> LoadBlock(const std::vector<uint8_t>& image, bool last) {
  if (last) {
    return Block::Deserialize(SharedBytes::CopyPadded(image));
  }
  std::vector<uint8_t> followed = image;
  followed.insert(followed.end(), 64, 0xFF);
  return Block::Deserialize(
      SharedBytes::CopyPadded(followed).Slice(0, image.size()));
}

// Every read path of `column` reproduces `expected`: Get, DecodeAll,
// DecodeRange, GatherRange, and the filter and aggregate kernels.
void ExpectEveryPathMatches(const enc::EncodedColumn& column,
                            const std::vector<int64_t>& expected) {
  const size_t n = expected.size();
  test::ExpectColumnMatches(column, expected);  // Get, DecodeAll, Gather.
  for (auto [begin, count] : std::vector<std::pair<size_t, size_t>>{
           {0, n}, {1, n - 1}, {n - 1, 1}, {n - 70, 70}, {1234, 777}}) {
    std::vector<int64_t> out(count);
    column.DecodeRange(begin, count, out.data());
    ASSERT_TRUE(std::equal(out.begin(), out.end(),
                           expected.begin() + static_cast<long>(begin)))
        << "DecodeRange " << begin << "+" << count;
  }
  std::vector<uint32_t> tail(100);
  for (size_t i = 0; i < tail.size(); ++i) {
    tail[i] = static_cast<uint32_t>(n - tail.size() + i);
  }
  for (const std::vector<uint32_t>& rows :
       {tail, std::vector<uint32_t>{0, 17, 500, 1999, uint32_t(n - 1)},
        std::vector<uint32_t>{uint32_t(n - 1)}}) {
    std::vector<int64_t> out(rows.size());
    column.GatherRange(rows, out.data());
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(out[i], expected[rows[i]]) << "GatherRange row " << rows[i];
    }
  }
  std::vector<int64_t> sorted = expected;
  std::sort(sorted.begin(), sorted.end());
  const int64_t lo = sorted[n / 4];
  const int64_t hi = sorted[3 * n / 4];
  std::vector<uint32_t> matching;
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) {
    if (expected[i] >= lo && expected[i] <= hi) {
      matching.push_back(static_cast<uint32_t>(i));
    }
    sum += static_cast<uint64_t>(expected[i]);
  }
  EXPECT_EQ(query::FilterToSelection(column, lo, hi), matching);
  EXPECT_EQ(query::CountInRange(column, lo, hi), matching.size());
  EXPECT_EQ(query::SumColumn(column), static_cast<int64_t>(sum));
  EXPECT_EQ(query::MinColumn(column), sorted.front());
  EXPECT_EQ(query::MaxColumn(column), sorted.back());
  const auto minmax = query::MinMaxColumn(column);
  ASSERT_TRUE(minmax.has_value());
  EXPECT_EQ(minmax->min, sorted.front());
  EXPECT_EQ(minmax->max, sorted.back());
}

TEST(BlockSlackTest, RunsOnTheRequestedKernelTable) {
  // ctest runs this binary twice: as is (AVX2 where available) and with
  // CORRA_FORCE_SCALAR set, so the slack tests cover both tables.
  const char* force = std::getenv("CORRA_FORCE_SCALAR");
  if (force != nullptr && std::string(force) != "0") {
    EXPECT_EQ(simd::ActiveBackend(), simd::Backend::kScalar);
  }
  std::printf("kernel table: %s\n", simd::BackendName());
}

TEST(BlockSlackTest, NoSchemeReadsTheBytesPastItsPayload) {
  for (const SlackCase& c : MakeSlackCases()) {
    const std::vector<uint8_t> image = c.block.Serialize();
    BufferWriter column_writer;
    c.block.column(c.block.num_columns() - 1).Serialize(&column_writer);
    const size_t column_at = image.size() - column_writer.size();
    for (Slack slack : {Slack::kAsWritten, Slack::kPoisoned, Slack::kTrimmed}) {
      for (bool last : {false, true}) {
        SCOPED_TRACE(c.name + " slack=" +
                     std::to_string(static_cast<int>(slack)) +
                     (last ? " last" : " mid-buffer"));
        auto block =
            LoadBlock(ApplySlack(image, column_at, c.padded_payloads, slack),
                      last);
        ASSERT_TRUE(block.ok()) << block.status().ToString();
        const Block& loaded = block.value();
        ExpectEveryPathMatches(loaded.column(loaded.num_columns() - 1),
                               c.expected);
        // Accounting follows counts and widths, not payload lengths.
        EXPECT_EQ(loaded.SizeBytes(), c.block.SizeBytes());
      }
    }
  }
}

TEST(BlockTest, OutlivesTheBytesItWasReadFrom) {
  // Deserialize(span) copies once into a block buffer the block owns:
  // scribbling over and freeing the caller's bytes changes nothing.
  for (const SlackCase& c : MakeSlackCases()) {
    SCOPED_TRACE(c.name);
    auto bytes = std::make_unique<std::vector<uint8_t>>(c.block.Serialize());
    auto block = Block::Deserialize(*bytes);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    std::fill(bytes->begin(), bytes->end(), 0xAB);
    bytes.reset();
    for (size_t col = 0; col < block.value().num_columns(); ++col) {
      std::vector<int64_t> decoded(block.value().rows());
      block.value().column(col).DecodeAll(decoded.data());
      std::vector<int64_t> original(c.block.rows());
      c.block.column(col).DecodeAll(original.data());
      EXPECT_EQ(decoded, original) << "column " << col;
    }
    const Block& loaded = block.value();
    std::vector<int64_t> last(c.expected.size());
    loaded.column(loaded.num_columns() - 1).DecodeAll(last.data());
    EXPECT_EQ(last, c.expected);
  }
}

}  // namespace
}  // namespace corra
