// Hierarchical encoding — Sec. 2.2 (Fig. 3, Alg. 1).

#include "core/hierarchical_encoding.h"

#include <gtest/gtest.h>

#include "common/bit_util.h"
#include "common/random.h"
#include "encoding/dictionary.h"
#include "encoding/for.h"
#include "storage/block.h"
#include "test_util.h"

namespace corra {
namespace {

// The paper's Fig. 3 example: (city, zip-code) rows of the DMV dataset.
struct Fig3Data {
  // city codes: 0=Cortland, 1=Naples, 2=NYC
  std::vector<int64_t> city = {0, 1, 1, 1, 2, 2};
  std::vector<int64_t> zip = {13045, 34102, 34112, 34102, 10016, 10001};
};

struct Bound {
  std::unique_ptr<enc::ForColumn> ref;
  std::unique_ptr<HierarchicalColumn> hier;
};

Bound MakeBound(const std::vector<int64_t>& target,
                const std::vector<int64_t>& ref_codes) {
  Bound b;
  auto ref = enc::ForColumn::Encode(ref_codes);
  EXPECT_TRUE(ref.ok());
  b.ref = std::move(ref).value();
  auto hier = HierarchicalColumn::Encode(target, ref_codes, 0);
  EXPECT_TRUE(hier.ok()) << hier.status().ToString();
  b.hier = std::move(hier).value();
  const enc::EncodedColumn* refs[] = {b.ref.get()};
  EXPECT_TRUE(b.hier->BindReferences(refs).ok());
  return b;
}

TEST(HierarchicalTest, PaperFig3Example) {
  Fig3Data data;
  auto b = MakeBound(data.zip, data.city);
  test::ExpectColumnMatches(*b.hier, data.zip);
  // Metadata: 5 distinct (city, zip) pairs; 3 cities.
  EXPECT_EQ(b.hier->value_count(), 5u);
  EXPECT_EQ(b.hier->ref_cardinality(), 3u);
  // Max local dictionary holds 2 zips -> 1 bit per row.
  EXPECT_EQ(b.hier->bit_width(), 1);
  EXPECT_TRUE(b.hier->VerifyWithReference().ok());
}

TEST(HierarchicalTest, RepeatedPairSharesLocalCode) {
  // (Naples, 34102) appears twice; both rows must carry the same local
  // index (the paper's "key insight" on repetition).
  Fig3Data data;
  auto b = MakeBound(data.zip, data.city);
  EXPECT_EQ(b.hier->Get(1), 34102);
  EXPECT_EQ(b.hier->Get(3), 34102);
}

TEST(HierarchicalTest, SingleCityDegenerate) {
  const std::vector<int64_t> city(100, 0);
  std::vector<int64_t> zip(100);
  Rng rng(1);
  for (auto& z : zip) {
    z = 10000 + rng.Uniform(0, 15);
  }
  auto b = MakeBound(zip, city);
  test::ExpectColumnMatches(*b.hier, zip);
  EXPECT_EQ(b.hier->ref_cardinality(), 1u);
}

TEST(HierarchicalTest, FunctionalDependencyNeedsZeroBits) {
  // One zip per city: local index always 0.
  std::vector<int64_t> city(1000);
  std::vector<int64_t> zip(1000);
  Rng rng(2);
  for (size_t i = 0; i < city.size(); ++i) {
    city[i] = rng.Uniform(0, 49);
    zip[i] = 90000 + city[i];
  }
  auto b = MakeBound(zip, city);
  EXPECT_EQ(b.hier->bit_width(), 0);
  test::ExpectColumnMatches(*b.hier, zip);
}

TEST(HierarchicalTest, RejectsNegativeRefCodes) {
  const std::vector<int64_t> city = {0, -1};
  const std::vector<int64_t> zip = {1, 2};
  EXPECT_FALSE(HierarchicalColumn::Encode(zip, city, 0).ok());
  EXPECT_EQ(HierarchicalColumn::EstimateSizeBytes(zip, city), SIZE_MAX);
}

TEST(HierarchicalTest, RejectsLengthMismatch) {
  const std::vector<int64_t> city = {0, 1};
  const std::vector<int64_t> zip = {1};
  EXPECT_FALSE(HierarchicalColumn::Encode(zip, city, 0).ok());
}

TEST(HierarchicalTest, GapsInRefCodesGetEmptySlices) {
  // Codes {0, 5}: cities 1-4 never occur but still need offsets slots.
  const std::vector<int64_t> city = {0, 5, 0, 5};
  const std::vector<int64_t> zip = {11, 22, 11, 33};
  auto b = MakeBound(zip, city);
  EXPECT_EQ(b.hier->ref_cardinality(), 6u);
  test::ExpectColumnMatches(*b.hier, zip);
}

TEST(HierarchicalTest, SizeBytesAccountsMetadata) {
  Fig3Data data;
  auto b = MakeBound(data.zip, data.city);
  // payload: 6 rows * 1 bit = 1 byte; values: 5 * 8; offsets: 4 * 4.
  EXPECT_EQ(b.hier->SizeBytes(), 1u + 40u + 16u);
}

TEST(HierarchicalTest, EstimateMatchesActual) {
  Rng rng(3);
  std::vector<int64_t> city(5000);
  std::vector<int64_t> zip(5000);
  for (size_t i = 0; i < city.size(); ++i) {
    city[i] = rng.Uniform(0, 199);
    zip[i] = city[i] * 100 + rng.Uniform(0, 30);
  }
  auto col = HierarchicalColumn::Encode(zip, city, 0);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(HierarchicalColumn::EstimateSizeBytes(zip, city),
            col.value()->SizeBytes());
}

TEST(HierarchicalTest, BeatsDictWhenLocallySmall) {
  // 200 cities x up to 32 zips = ~6400 distinct zips (13 dict bits), but
  // only 5 bits of local index.
  Rng rng(4);
  std::vector<int64_t> city(20000);
  std::vector<int64_t> zip(20000);
  for (size_t i = 0; i < city.size(); ++i) {
    city[i] = rng.Uniform(0, 199);
    zip[i] = city[i] * 1000 + rng.Uniform(0, 31);
  }
  auto hier = HierarchicalColumn::Encode(zip, city, 0);
  ASSERT_TRUE(hier.ok());
  auto dict = enc::DictColumn::Encode(zip);
  ASSERT_TRUE(dict.ok());
  EXPECT_LT(hier.value()->SizeBytes(), dict.value()->SizeBytes());
}

TEST(HierarchicalTest, SerializeRoundTrip) {
  Rng rng(5);
  std::vector<int64_t> city(3000);
  std::vector<int64_t> zip(3000);
  for (size_t i = 0; i < city.size(); ++i) {
    city[i] = rng.Uniform(0, 99);
    zip[i] = 10000 + city[i] * 50 + rng.Uniform(0, 20);
  }
  auto b = MakeBound(zip, city);
  auto reloaded = test::SerializeRoundTrip(*b.hier);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->scheme(), enc::Scheme::kHierarchical);
  const enc::EncodedColumn* refs[] = {b.ref.get()};
  ASSERT_TRUE(reloaded->BindReferences(refs).ok());
  test::ExpectColumnMatches(*reloaded, zip);
  EXPECT_EQ(reloaded->SizeBytes(), b.hier->SizeBytes());
}

TEST(HierarchicalTest, GatherWithReferenceMatchesGather) {
  Rng rng(6);
  std::vector<int64_t> city(4000);
  std::vector<int64_t> zip(4000);
  for (size_t i = 0; i < city.size(); ++i) {
    city[i] = rng.Uniform(0, 30);
    zip[i] = city[i] * 10 + rng.Uniform(0, 9);
  }
  auto b = MakeBound(zip, city);
  std::vector<uint32_t> rows;
  for (uint32_t i = 1; i < 4000; i += 11) {
    rows.push_back(i);
  }
  std::vector<int64_t> ref_values(rows.size());
  b.ref->Gather(rows, ref_values.data());
  std::vector<int64_t> via_ref(rows.size());
  b.hier->GatherWithReference(rows, ref_values.data(), via_ref.data());
  std::vector<int64_t> direct(rows.size());
  b.hier->Gather(rows, direct.data());
  EXPECT_EQ(via_ref, direct);
}

TEST(HierarchicalTest, OffsetsMonotoneInvariant) {
  // Deserializer must reject non-monotone offsets.
  Fig3Data data;
  auto b = MakeBound(data.zip, data.city);
  BufferWriter writer;
  b.hier->Serialize(&writer);
  auto bytes = std::move(writer).Finish();
  // Offsets follow the values array: scheme(1) + ref(4) + len(8) + 5*8
  // values + len(8), then 4 uint32 offsets {0,1,3,5}. Corrupt the second.
  const size_t offsets_data = 1 + 4 + 8 + 40 + 8;
  bytes[offsets_data + 4] = 0xEE;
  BufferReader reader(SharedBytes::CopyPadded(bytes));
  auto result = DeserializeEncodedColumn(&reader);
  EXPECT_FALSE(result.ok());
}

TEST(HierarchicalTest, VerifyCatchesOutOfRangeRefCode) {
  // Bind a reference whose codes exceed the metadata's cardinality.
  Fig3Data data;
  auto hier = HierarchicalColumn::Encode(data.zip, data.city, 0);
  ASSERT_TRUE(hier.ok());
  const std::vector<int64_t> bad_codes = {0, 1, 1, 9, 2, 2};  // 9 >= 3.
  auto bad_ref = enc::ForColumn::Encode(bad_codes);
  ASSERT_TRUE(bad_ref.ok());
  const enc::EncodedColumn* refs[] = {bad_ref.value().get()};
  ASSERT_TRUE(hier.value()->BindReferences(refs).ok());
  EXPECT_FALSE(hier.value()->VerifyWithReference().ok());
}

// A serialized block whose Hierarchical column (zip) was encoded against
// city codes {0, 1, 2} but whose stored reference column holds codes 3
// and 4, past the metadata. The block is structurally valid, so it loads
// with verify off; only VerifyWithReference can reject it.
std::vector<uint8_t> BlockWithOutOfRangeRefCodes() {
  Fig3Data data;
  const std::vector<int64_t> bad_city = {0, 3, 1, 4, 2, 3};
  std::vector<BlockColumn> columns(2);
  columns[0].encoded = enc::ForColumn::Encode(bad_city).value();
  columns[1].encoded =
      HierarchicalColumn::Encode(data.zip, data.city, 0).value();
  auto block = Block::Build(std::move(columns));
  EXPECT_TRUE(block.ok()) << block.status().ToString();
  return block.value().Serialize();
}

// Loads that block with verify off. Every value an unverified decode
// returns must still be one of the column's stored values.
Block LoadUnverified() {
  const auto bytes = BlockWithOutOfRangeRefCodes();
  EXPECT_FALSE(Block::Deserialize(bytes, /*verify=*/true).ok());
  auto block = Block::Deserialize(bytes, /*verify=*/false);
  EXPECT_TRUE(block.ok()) << block.status().ToString();
  return std::move(block).value();
}

void ExpectStoredZip(int64_t value) {
  const Fig3Data data;
  EXPECT_NE(std::find(data.zip.begin(), data.zip.end(), value),
            data.zip.end())
      << value;
}

TEST(HierarchicalTest, UnverifiedGetClampsOutOfRangeRefCode) {
  const Block block = LoadUnverified();
  for (size_t row = 0; row < block.rows(); ++row) {
    ExpectStoredZip(block.column(1).Get(row));
  }
}

TEST(HierarchicalTest, UnverifiedGatherClampsOutOfRangeRefCode) {
  const Block block = LoadUnverified();
  const std::vector<uint32_t> rows = {1, 3, 5};
  std::vector<int64_t> out(rows.size());
  block.column(1).GatherRange(rows, out.data());
  for (int64_t v : out) {
    ExpectStoredZip(v);
  }
}

TEST(HierarchicalTest, UnverifiedDecodeRangeClampsOutOfRangeRefCode) {
  const Block block = LoadUnverified();
  std::vector<int64_t> out(block.rows());
  block.column(1).DecodeRange(0, out.size(), out.data());
  for (int64_t v : out) {
    ExpectStoredZip(v);
  }
}

TEST(HierarchicalTest, DeserializeRejectsRowsWithoutMetadata) {
  // Rows with no values, under a single offset and under two: no clamp
  // could land in range, so neither may load.
  const std::vector<std::vector<int64_t>> values = {{}, {}};
  const std::vector<std::vector<uint32_t>> offsets = {{0}, {0, 0}};
  for (size_t c = 0; c < values.size(); ++c) {
    SCOPED_TRACE(c);
    BitWriter codes(1);
    for (int i = 0; i < 6; ++i) {
      codes.Append(0);
    }
    BufferWriter writer;
    writer.Write<uint8_t>(static_cast<uint8_t>(enc::Scheme::kHierarchical));
    writer.Write<uint32_t>(0);  // Reference index.
    writer.WriteInt64Array(values[c]);
    writer.WriteUint32Array(offsets[c]);
    writer.Write<uint8_t>(1);   // Width.
    writer.Write<uint64_t>(6);  // Rows.
    writer.WriteBytes(std::move(codes).Finish());
    BufferReader reader(SharedBytes::CopyPadded(std::move(writer).Finish()));
    const auto result = DeserializeEncodedColumn(&reader);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  }
}

// Property sweep: hierarchical reconstruction is exact for random
// hierarchies of varying fan-out.
class HierarchicalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HierarchicalPropertyTest, ExactReconstruction) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  const size_t n = 1000 + static_cast<size_t>(rng.Uniform(0, 3000));
  const int64_t cities = rng.Uniform(1, 300);
  const int64_t fanout = rng.Uniform(1, 60);
  std::vector<int64_t> city(n);
  std::vector<int64_t> zip(n);
  for (size_t i = 0; i < n; ++i) {
    city[i] = rng.Uniform(0, cities - 1);
    zip[i] = city[i] * 1000 + rng.Uniform(0, fanout - 1);
  }
  auto b = MakeBound(zip, city);
  test::ExpectColumnMatches(*b.hier, zip);
  EXPECT_TRUE(b.hier->VerifyWithReference().ok());
  // The local width is bounded by the fan-out.
  EXPECT_LE(b.hier->bit_width(),
            bit_util::BitWidth(static_cast<uint64_t>(fanout)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchicalPropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace corra
