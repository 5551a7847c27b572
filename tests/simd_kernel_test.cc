// Equivalence tests for the SIMD kernel layer (common/simd/simd.h).
//
// Every check runs the *dispatched* kernel (AVX2 on CPUs that have it)
// and its forced-scalar twin side by side and demands bit-identical
// results, so CI on an AVX2 machine proves the two backends agree; on a
// machine without AVX2 both resolve to the scalar table and the tests
// degrade to self-consistency plus the reference-model checks.
//
// The unpack sweep is exhaustive in bit width (0..64) and crosses every
// alignment case the driver distinguishes: begin offsets that are not
// 64-value aligned (scalar head), lengths straddling one or more
// 64-value kernel blocks, and tails shorter than a block.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "common/bit_stream.h"
#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra {
namespace {

// Enough values to cover several 64-value kernel blocks plus a ragged
// tail that never reaches a block boundary.
constexpr size_t kSweepCount = 64 * 5 + 37;

std::vector<uint64_t> RandomValues(int bit_width, size_t count,
                                   uint64_t seed) {
  std::mt19937_64 rng(seed);
  const uint64_t mask = bit_width >= 64
                            ? ~uint64_t{0}
                            : (uint64_t{1} << bit_width) - 1;
  std::vector<uint64_t> values(count);
  for (auto& v : values) {
    v = rng() & mask;
  }
  // Force boundary patterns into the mix so all-ones / all-zeros words
  // are always exercised.
  if (count > 4 && bit_width > 0) {
    values[0] = mask;
    values[1] = 0;
    values[count - 1] = mask;
    values[count - 2] = 0;
  }
  return values;
}

TEST(UnpackEquivalenceTest, ExhaustiveWidthsOffsetsAndLengths) {
  // Begin offsets: 64-value-block aligned, just off-aligned, byte-odd,
  // and deep in the stream; lengths: empty, sub-block, exactly one
  // block, block +/- 1, and multi-block straddles.
  const size_t begins[] = {0, 1, 2, 7, 8, 31, 63, 64, 65, 100, 127, 128, 200};
  const size_t lengths[] = {0, 1, 3, 63, 64, 65, 127, 128, 129, 192, 255};
  for (int width = 0; width <= 64; ++width) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const auto values =
        RandomValues(width, kSweepCount, 1000 + static_cast<uint64_t>(width));
    BitWriter writer(width);
    writer.AppendAll(values);
    const auto bytes = std::move(writer).Finish();
    ASSERT_GE(bytes.size(), bit_util::PackedBytes(kSweepCount, width));

    std::vector<uint64_t> dispatched(kSweepCount + 1, 0xDEADBEEF);
    std::vector<uint64_t> scalar(kSweepCount + 1, 0xDEADBEEF);
    for (size_t begin : begins) {
      for (size_t len : lengths) {
        if (begin + len > kSweepCount) {
          continue;
        }
        SCOPED_TRACE("begin=" + std::to_string(begin) +
                     " len=" + std::to_string(len));
        simd::UnpackRange(bytes.data(), width, begin, len,
                          dispatched.data());
        simd::UnpackRangeScalar(bytes.data(), width, begin, len,
                                scalar.data());
        for (size_t i = 0; i < len; ++i) {
          ASSERT_EQ(dispatched[i], values[begin + i]) << "i=" << i;
          ASSERT_EQ(scalar[i], values[begin + i]) << "i=" << i;
        }
      }
      // Also the full remaining stream from this offset (ragged tail).
      const size_t rest = kSweepCount - begin;
      simd::UnpackRange(bytes.data(), width, begin, rest, dispatched.data());
      simd::UnpackRangeScalar(bytes.data(), width, begin, rest,
                              scalar.data());
      for (size_t i = 0; i < rest; ++i) {
        ASSERT_EQ(dispatched[i], values[begin + i]) << "i=" << i;
        ASSERT_EQ(scalar[i], values[begin + i]) << "i=" << i;
      }
    }
  }
}

TEST(UnpackEquivalenceTest, BitReaderDecodeRangeMatchesGet) {
  for (int width : {0, 1, 3, 7, 8, 13, 17, 24, 31, 32, 33, 48, 57, 58, 64}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const auto values =
        RandomValues(width, kSweepCount, 77 + static_cast<uint64_t>(width));
    BitWriter writer(width);
    writer.AppendAll(values);
    const auto bytes = std::move(writer).Finish();
    BitReader reader(bytes.data(), width, kSweepCount);
    std::vector<uint64_t> out(kSweepCount);
    reader.DecodeRange(5, kSweepCount - 5, out.data());
    for (size_t i = 0; i < kSweepCount - 5; ++i) {
      ASSERT_EQ(out[i], reader.Get(5 + i)) << "i=" << i;
    }
  }
}

TEST(FilterKernelTest, MatchesScalarAndReferenceModel) {
  std::mt19937_64 rng(11);
  std::vector<int64_t> values(kSweepCount);
  for (auto& v : values) {
    // Small domain so the bounds actually select; sprinkle extremes.
    v = static_cast<int64_t>(rng() % 200) - 100;
  }
  values[3] = std::numeric_limits<int64_t>::min();
  values[4] = std::numeric_limits<int64_t>::max();
  const int64_t bounds[][2] = {{-50, 50},
                               {0, 0},
                               {100, -100},  // Empty (lo > hi).
                               {std::numeric_limits<int64_t>::min(),
                                std::numeric_limits<int64_t>::max()},
                               {std::numeric_limits<int64_t>::max(),
                                std::numeric_limits<int64_t>::max()}};
  for (const auto& b : bounds) {
    for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                       size_t{9}, size_t{100}, kSweepCount}) {
      SCOPED_TRACE("lo=" + std::to_string(b[0]) + " hi=" +
                   std::to_string(b[1]) + " len=" + std::to_string(len));
      std::vector<uint32_t> got(len + 1, 0xAAAA);
      std::vector<uint32_t> scalar(len + 1, 0xBBBB);
      const size_t n =
          simd::FilterInRange(values.data(), len, b[0], b[1], 1000,
                              got.data());
      const size_t n_scalar = simd::FilterInRangeScalar(
          values.data(), len, b[0], b[1], 1000, scalar.data());
      std::vector<uint32_t> expected;
      for (size_t i = 0; i < len; ++i) {
        if (values[i] >= b[0] && values[i] <= b[1]) {
          expected.push_back(1000 + static_cast<uint32_t>(i));
        }
      }
      ASSERT_EQ(n, expected.size());
      ASSERT_EQ(n_scalar, expected.size());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], expected[i]) << "i=" << i;
        ASSERT_EQ(scalar[i], expected[i]) << "i=" << i;
      }
    }
  }
}

TEST(FilterKernelTest, UnsignedUsesFullDomain) {
  std::mt19937_64 rng(12);
  std::vector<uint64_t> codes(kSweepCount);
  for (auto& c : codes) {
    c = rng();  // Full 64-bit range, including values >= 2^63.
  }
  codes[0] = 0;
  codes[1] = ~uint64_t{0};
  codes[2] = uint64_t{1} << 63;
  const uint64_t bounds[][2] = {
      {0, ~uint64_t{0}},
      {uint64_t{1} << 63, ~uint64_t{0}},
      {0, (uint64_t{1} << 63) - 1},
      {42, 41},  // Empty.
      {uint64_t{1} << 62, uint64_t{3} << 62}};
  for (const auto& b : bounds) {
    SCOPED_TRACE("lo=" + std::to_string(b[0]) +
                 " hi=" + std::to_string(b[1]));
    std::vector<uint32_t> got(kSweepCount, 0);
    std::vector<uint32_t> scalar(kSweepCount, 0);
    const size_t n = simd::FilterInRangeU64(codes.data(), kSweepCount, b[0],
                                            b[1], 0, got.data());
    const size_t n_scalar = simd::FilterInRangeU64Scalar(
        codes.data(), kSweepCount, b[0], b[1], 0, scalar.data());
    std::vector<uint32_t> expected;
    for (size_t i = 0; i < kSweepCount; ++i) {
      if (codes[i] >= b[0] && codes[i] <= b[1]) {
        expected.push_back(static_cast<uint32_t>(i));
      }
    }
    ASSERT_EQ(n, expected.size());
    ASSERT_EQ(n_scalar, expected.size());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], expected[i]) << "i=" << i;
      ASSERT_EQ(scalar[i], expected[i]) << "i=" << i;
    }
  }
}

TEST(AggregateKernelTest, SumMatchesScalarAndWrapsLikeTwosComplement) {
  std::mt19937_64 rng(13);
  std::vector<uint64_t> values(kSweepCount);
  for (auto& v : values) {
    v = rng();  // Overflows the 64-bit sum many times over.
  }
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     kSweepCount}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    uint64_t expected = 0;
    for (size_t i = 0; i < len; ++i) {
      expected += values[i];
    }
    EXPECT_EQ(simd::SumU64(values.data(), len), expected);
    EXPECT_EQ(simd::SumU64Scalar(values.data(), len), expected);
  }
}

TEST(AggregateKernelTest, MinMaxSignedAndUnsigned) {
  std::mt19937_64 rng(14);
  std::vector<int64_t> signed_values(kSweepCount);
  std::vector<uint64_t> unsigned_values(kSweepCount);
  for (size_t i = 0; i < kSweepCount; ++i) {
    signed_values[i] = static_cast<int64_t>(rng());
    unsigned_values[i] = rng();
  }
  signed_values[5] = std::numeric_limits<int64_t>::min();
  signed_values[6] = std::numeric_limits<int64_t>::max();
  unsigned_values[5] = 0;
  unsigned_values[6] = ~uint64_t{0};
  for (size_t len : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                     size_t{9}, kSweepCount}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    int64_t expect_min = signed_values[0];
    int64_t expect_max = signed_values[0];
    for (size_t i = 1; i < len; ++i) {
      expect_min = std::min(expect_min, signed_values[i]);
      expect_max = std::max(expect_max, signed_values[i]);
    }
    int64_t got_min = 0, got_max = 0;
    simd::MinMaxI64(signed_values.data(), len, &got_min, &got_max);
    EXPECT_EQ(got_min, expect_min);
    EXPECT_EQ(got_max, expect_max);
    simd::MinMaxI64Scalar(signed_values.data(), len, &got_min, &got_max);
    EXPECT_EQ(got_min, expect_min);
    EXPECT_EQ(got_max, expect_max);

    uint64_t expect_umin = unsigned_values[0];
    uint64_t expect_umax = unsigned_values[0];
    for (size_t i = 1; i < len; ++i) {
      expect_umin = std::min(expect_umin, unsigned_values[i]);
      expect_umax = std::max(expect_umax, unsigned_values[i]);
    }
    uint64_t got_umin = 0, got_umax = 0;
    simd::MinMaxU64(unsigned_values.data(), len, &got_umin, &got_umax);
    EXPECT_EQ(got_umin, expect_umin);
    EXPECT_EQ(got_umax, expect_umax);
    simd::MinMaxU64Scalar(unsigned_values.data(), len, &got_umin,
                          &got_umax);
    EXPECT_EQ(got_umin, expect_umin);
    EXPECT_EQ(got_umax, expect_umax);
  }
}

TEST(ReconstructionKernelTest, TranslateAddConstAddRefZigZag) {
  std::mt19937_64 rng(15);
  std::vector<int64_t> dict(300);
  for (auto& d : dict) {
    d = static_cast<int64_t>(rng());
  }
  std::vector<uint64_t> codes(kSweepCount);
  for (auto& c : codes) {
    c = rng() % dict.size();
  }
  std::vector<int64_t> ref(kSweepCount);
  std::vector<uint64_t> deltas(kSweepCount);
  for (size_t i = 0; i < kSweepCount; ++i) {
    ref[i] = static_cast<int64_t>(rng());
    deltas[i] = rng();
  }
  for (size_t len : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                     kSweepCount}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    std::vector<int64_t> got(len + 1, -1);
    std::vector<int64_t> scalar(len + 1, -2);

    simd::TranslateCodes(dict.data(), codes.data(), len, got.data());
    simd::TranslateCodesScalar(dict.data(), codes.data(), len,
                               scalar.data());
    for (size_t i = 0; i < len; ++i) {
      ASSERT_EQ(got[i], dict[codes[i]]) << "i=" << i;
      ASSERT_EQ(scalar[i], dict[codes[i]]) << "i=" << i;
    }

    got.assign(ref.begin(), ref.begin() + static_cast<long>(len));
    scalar = got;
    simd::AddConst(got.data(), len, int64_t{-987654321});
    simd::AddConstScalar(scalar.data(), len, int64_t{-987654321});
    for (size_t i = 0; i < len; ++i) {
      const int64_t expected = static_cast<int64_t>(
          static_cast<uint64_t>(ref[i]) -
          static_cast<uint64_t>(987654321));
      ASSERT_EQ(got[i], expected) << "i=" << i;
      ASSERT_EQ(scalar[i], expected) << "i=" << i;
    }

    got.assign(len + 1, -1);
    scalar.assign(len + 1, -2);
    simd::AddRefAndBase(ref.data(), deltas.data(), 12345, len, got.data());
    simd::AddRefAndBaseScalar(ref.data(), deltas.data(), 12345, len,
                              scalar.data());
    for (size_t i = 0; i < len; ++i) {
      const int64_t expected = static_cast<int64_t>(
          static_cast<uint64_t>(ref[i]) + 12345 + deltas[i]);
      ASSERT_EQ(got[i], expected) << "i=" << i;
      ASSERT_EQ(scalar[i], expected) << "i=" << i;
    }

    got.assign(len + 1, -1);
    scalar.assign(len + 1, -2);
    simd::AddRefZigZag(ref.data(), deltas.data(), len, got.data());
    simd::AddRefZigZagScalar(ref.data(), deltas.data(), len, scalar.data());
    for (size_t i = 0; i < len; ++i) {
      const int64_t expected = static_cast<int64_t>(
          static_cast<uint64_t>(ref[i]) +
          static_cast<uint64_t>(bit_util::ZigZagDecode(deltas[i])));
      ASSERT_EQ(got[i], expected) << "i=" << i;
      ASSERT_EQ(scalar[i], expected) << "i=" << i;
    }
  }
}

TEST(SparseDecodeKernelTest, ZigZagPrefixSumMatchesScalarAndModel) {
  std::mt19937_64 rng(21);
  std::vector<uint64_t> zigzag(kSweepCount);
  for (auto& z : zigzag) {
    z = rng();  // Arbitrary, including huge zig-zag codes (wrap-around).
  }
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     size_t{16}, size_t{17}, kSweepCount}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    const int64_t seed = -123456789;
    std::vector<int64_t> got(len + 1, -1);
    std::vector<int64_t> scalar(len + 1, -2);
    simd::ZigZagPrefixSum(zigzag.data(), len, seed, got.data());
    simd::ZigZagPrefixSumScalar(zigzag.data(), len, seed, scalar.data());
    uint64_t acc = static_cast<uint64_t>(seed);
    for (size_t i = 0; i < len; ++i) {
      acc += static_cast<uint64_t>(bit_util::ZigZagDecode(zigzag[i]));
      ASSERT_EQ(got[i], static_cast<int64_t>(acc)) << "i=" << i;
      ASSERT_EQ(scalar[i], static_cast<int64_t>(acc)) << "i=" << i;
    }
  }
}

TEST(SparseDecodeKernelTest, ZigZagSumPackedAndDeltaDecodeAllWidths) {
  const size_t begins[] = {0, 1, 7, 13, 63, 64, 65, 130};
  const size_t lengths[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 33, 64, 200};
  for (int width = 0; width <= 64; ++width) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const auto values =
        RandomValues(width, kSweepCount, 300 + static_cast<uint64_t>(width));
    BitWriter writer(width);
    writer.AppendAll(values);
    const auto bytes = std::move(writer).Finish();
    for (size_t begin : begins) {
      for (size_t len : lengths) {
        if (begin + len > kSweepCount) {
          continue;
        }
        SCOPED_TRACE("begin=" + std::to_string(begin) +
                     " len=" + std::to_string(len));
        uint64_t expected_sum = 0;
        for (size_t i = 0; i < len; ++i) {
          expected_sum += static_cast<uint64_t>(
              bit_util::ZigZagDecode(values[begin + i]));
        }
        ASSERT_EQ(simd::ZigZagSumPacked(bytes.data(), width, begin, len),
                  static_cast<int64_t>(expected_sum));
        ASSERT_EQ(
            simd::ZigZagSumPackedScalar(bytes.data(), width, begin, len),
            static_cast<int64_t>(expected_sum));

        const int64_t seed = 424242;
        std::vector<int64_t> got(len + 1, -1);
        std::vector<int64_t> scalar(len + 1, -2);
        simd::DeltaDecodePacked(bytes.data(), width, begin, len, seed,
                                got.data());
        simd::DeltaDecodePackedScalar(bytes.data(), width, begin, len, seed,
                                      scalar.data());
        uint64_t acc = static_cast<uint64_t>(seed);
        for (size_t i = 0; i < len; ++i) {
          acc += static_cast<uint64_t>(
              bit_util::ZigZagDecode(values[begin + i]));
          ASSERT_EQ(got[i], static_cast<int64_t>(acc)) << "i=" << i;
          ASSERT_EQ(scalar[i], static_cast<int64_t>(acc)) << "i=" << i;
        }
      }
    }
  }
}

TEST(SparseDecodeKernelTest, DeltaPointAndGatherMatchPrefixModel) {
  // A checkpointed stream exactly as DeltaColumn lays it out: slot 0
  // unused (0), slot i the zig-zag delta value[i] - value[i-1], plus a
  // checkpoint of the absolute value every interval rows.
  constexpr size_t kRows = 64 * 40 + 17;
  for (int width : {0, 1, 5, 11, 13, 14, 15, 23, 28, 29, 40, 58, 64}) {
    for (const int shift : {4, 5, 6, 7}) {
      const size_t interval = size_t{1} << shift;
      SCOPED_TRACE("width=" + std::to_string(width) +
                   " interval=" + std::to_string(interval));
      const auto deltas =
          RandomValues(width, kRows, 900 + static_cast<uint64_t>(width));
      BitWriter writer(width);
      std::vector<int64_t> model(kRows);
      std::vector<int64_t> checkpoints;
      uint64_t acc = 0;
      for (size_t i = 0; i < kRows; ++i) {
        if (i > 0) {
          acc += static_cast<uint64_t>(bit_util::ZigZagDecode(deltas[i]));
        }
        model[i] = static_cast<int64_t>(acc);
        if (i % interval == 0) {
          checkpoints.push_back(model[i]);
        }
        writer.Append(i == 0 ? 0 : deltas[i]);
      }
      const auto bytes = std::move(writer).Finish();

      std::mt19937_64 rng(55);
      for (int probe = 0; probe < 200; ++probe) {
        const size_t row = rng() % kRows;
        ASSERT_EQ(simd::DeltaPointPacked(bytes.data(), width,
                                         checkpoints.data(), shift, kRows,
                                         row),
                  model[row])
            << "row=" << row;
        ASSERT_EQ(simd::DeltaPointPackedScalar(bytes.data(), width,
                                               checkpoints.data(), shift,
                                               kRows, row),
                  model[row])
            << "row=" << row;
      }

      // Sorted, unsorted, empty, and single-row selections through the
      // batched gather kernel.
      std::vector<uint32_t> rows;
      for (size_t i = 0; i < kRows; ++i) {
        if (rng() % 7 == 0) {
          rows.push_back(static_cast<uint32_t>(i));
        }
      }
      const std::vector<uint32_t> unsorted = {
          static_cast<uint32_t>(kRows - 1), 3, 700, 699, 0, 64, 63};
      for (const auto& selection :
           {rows, unsorted, std::vector<uint32_t>{},
            std::vector<uint32_t>{static_cast<uint32_t>(kRows / 2)}}) {
        std::vector<int64_t> got(selection.size() + 1, -1);
        std::vector<int64_t> scalar(selection.size() + 1, -2);
        simd::DeltaGatherPacked(bytes.data(), width, checkpoints.data(),
                                shift, kRows, selection.data(),
                                selection.size(), got.data());
        simd::DeltaGatherPackedScalar(bytes.data(), width,
                                      checkpoints.data(), shift, kRows,
                                      selection.data(), selection.size(),
                                      scalar.data());
        for (size_t i = 0; i < selection.size(); ++i) {
          ASSERT_EQ(got[i], model[selection[i]]) << "i=" << i;
          ASSERT_EQ(scalar[i], model[selection[i]]) << "i=" << i;
        }
      }
    }
  }
}

TEST(SparseDecodeKernelTest, DeltaInlinePointAndGatherMatchPrefixModel) {
  // An inline-checkpoint window stream built by an independent reference
  // packer (the layout contract in simd.h): window k starts at byte
  // k * stride and holds the 8-byte absolute value of row k * interval
  // followed by `interval` zig-zag delta slots packed from bit 0, slot j
  // covering row k * interval + 1 + j. Every window (incl. the partial
  // last one) occupies the full stride.
  constexpr size_t kRows = 64 * 40 + 17;
  for (int width : {0, 1, 5, 11, 13, 14, 15, 23, 28, 29, 40, 58, 64}) {
    for (const int shift : {4, 5, 6, 7}) {
      const size_t interval = size_t{1} << shift;
      SCOPED_TRACE("width=" + std::to_string(width) +
                   " interval=" + std::to_string(interval));
      const auto deltas =
          RandomValues(width, kRows, 1700 + static_cast<uint64_t>(width) +
                                         static_cast<uint64_t>(shift));
      // (distinct per-shift seed: interval 16 exercises the 8-slot
      // unrolled masked fold.)
      std::vector<int64_t> model(kRows);
      uint64_t acc = 0;
      for (size_t i = 0; i < kRows; ++i) {
        if (i > 0) {
          acc += static_cast<uint64_t>(bit_util::ZigZagDecode(deltas[i]));
        }
        model[i] = static_cast<int64_t>(acc);
      }
      const size_t stride =
          8 + bit_util::RoundUpPow2(
                  bit_util::CeilDiv(interval * static_cast<size_t>(width), 8),
                  8);
      const size_t windows = (kRows - 1) / interval + 1;
      std::vector<uint8_t> stream(windows * stride + bit_util::kDecodePadBytes,
                                  0);
      for (size_t k = 0; k < windows; ++k) {
        const size_t first = k * interval;
        std::memcpy(stream.data() + k * stride, &model[first],
                    sizeof(int64_t));
        // Pack the window's slots with BitWriter (independently tested)
        // and splice the payload into the window's delta region.
        BitWriter slots(width);
        const size_t last = std::min(first + interval, kRows - 1);
        for (size_t row = first + 1; row <= last; ++row) {
          slots.Append(deltas[row]);
        }
        const size_t payload =
            bit_util::PackedDataBytes(last - first, width);
        const auto packed = std::move(slots).Finish();
        std::memcpy(stream.data() + k * stride + 8, packed.data(), payload);
      }

      std::mt19937_64 rng(56);
      for (int probe = 0; probe < 200; ++probe) {
        const size_t row = rng() % kRows;
        ASSERT_EQ(simd::DeltaPointInline(stream.data(), width, shift, stride,
                                         kRows, row),
                  model[row])
            << "row=" << row;
        ASSERT_EQ(simd::DeltaPointInlineScalar(stream.data(), width, shift,
                                               stride, kRows, row),
                  model[row])
            << "row=" << row;
      }

      // Sorted, unsorted, empty, and single-row selections through the
      // batched gather kernel.
      std::vector<uint32_t> rows;
      for (size_t i = 0; i < kRows; ++i) {
        if (rng() % 7 == 0) {
          rows.push_back(static_cast<uint32_t>(i));
        }
      }
      const std::vector<uint32_t> unsorted = {
          static_cast<uint32_t>(kRows - 1), 3, 700, 699, 0, 64, 63};
      for (const auto& selection :
           {rows, unsorted, std::vector<uint32_t>{},
            std::vector<uint32_t>{static_cast<uint32_t>(kRows / 2)}}) {
        std::vector<int64_t> got(selection.size() + 1, -1);
        std::vector<int64_t> scalar(selection.size() + 1, -2);
        simd::DeltaGatherInline(stream.data(), width, shift, stride, kRows,
                                selection.data(), selection.size(),
                                got.data());
        simd::DeltaGatherInlineScalar(stream.data(), width, shift, stride,
                                      kRows, selection.data(),
                                      selection.size(), scalar.data());
        for (size_t i = 0; i < selection.size(); ++i) {
          ASSERT_EQ(got[i], model[selection[i]]) << "i=" << i;
          ASSERT_EQ(scalar[i], model[selection[i]]) << "i=" << i;
        }
      }
    }
  }
}

TEST(SparseDecodeKernelTest, ExpandRunsMatchesModel) {
  // Runs of varying lengths incl. single-row runs and a long tail run.
  std::vector<int64_t> run_values;
  std::vector<uint32_t> run_ends;
  std::mt19937_64 rng(66);
  uint32_t end = 0;
  while (end < 5000) {
    end += 1 + static_cast<uint32_t>(rng() % 40);
    run_values.push_back(static_cast<int64_t>(rng()));
    run_ends.push_back(end);
  }
  const size_t rows = run_ends.back();
  auto run_of = [&](size_t row) {
    size_t r = 0;
    while (run_ends[r] <= row) {
      ++r;
    }
    return r;
  };
  for (const auto& [begin, count] :
       {std::pair<size_t, size_t>{0, rows}, {0, 1}, {rows - 1, 1},
        {17, 1000}, {run_ends[3], 5}, {run_ends[4] - 1, 2}, {100, 0}}) {
    SCOPED_TRACE("begin=" + std::to_string(begin) +
                 " count=" + std::to_string(count));
    std::vector<int64_t> got(count + 1, -1);
    std::vector<int64_t> scalar(count + 1, -2);
    if (count > 0) {
      simd::ExpandRuns(run_values.data(), run_ends.data(), run_of(begin),
                       begin, count, got.data());
      simd::ExpandRunsScalar(run_values.data(), run_ends.data(),
                             run_of(begin), begin, count, scalar.data());
    }
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(got[i], run_values[run_of(begin + i)]) << "i=" << i;
      ASSERT_EQ(scalar[i], run_values[run_of(begin + i)]) << "i=" << i;
    }
    ASSERT_EQ(got[count], -1);
    ASSERT_EQ(scalar[count], -2);
  }
}

TEST(SparseDecodeKernelTest, GatherBitsAllWidthsAndPositions) {
  for (int width = 0; width <= 64; ++width) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const auto values =
        RandomValues(width, kSweepCount, 500 + static_cast<uint64_t>(width));
    BitWriter writer(width);
    writer.AppendAll(values);
    const auto bytes = std::move(writer).Finish();
    std::mt19937_64 rng(77);
    std::vector<uint32_t> rows;
    for (int i = 0; i < 100; ++i) {
      rows.push_back(static_cast<uint32_t>(rng() % kSweepCount));
    }
    rows.push_back(0);
    rows.push_back(kSweepCount - 1);  // Last position: pad-boundary load.
    for (size_t len : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                       rows.size()}) {
      SCOPED_TRACE("len=" + std::to_string(len));
      std::vector<uint64_t> got(len + 1, 0xDEAD);
      std::vector<uint64_t> scalar(len + 1, 0xBEEF);
      simd::GatherBits(bytes.data(), width, rows.data(), len, got.data());
      simd::GatherBitsScalar(bytes.data(), width, rows.data(), len,
                             scalar.data());
      for (size_t i = 0; i < len; ++i) {
        ASSERT_EQ(got[i], values[rows[i]]) << "i=" << i;
        ASSERT_EQ(scalar[i], values[rows[i]]) << "i=" << i;
      }
    }
  }
}

// Begin offsets and lengths around 64-value group boundaries, for the
// bit-plane kernels' head and tail masks.
constexpr size_t kPlaneBegins[] = {0, 1, 2, 31, 32, 63, 64, 65, 127, 128, 129};
constexpr size_t kPlaneLengths[] = {0,  1,  2,   31,  63,  64,
                                    65, 127, 128, 129, 191, 200};

TEST(BitPlaneKernelTest, CountValuesMatchesScalarAndModel) {
  for (int width : {1, 2}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const auto values =
        RandomValues(width, kSweepCount, 900 + static_cast<uint64_t>(width));
    BitWriter writer(width);
    writer.AppendAll(values);
    const auto bytes = std::move(writer).Finish();
    for (size_t begin : kPlaneBegins) {
      for (size_t len : kPlaneLengths) {
        if (begin + len > kSweepCount) {
          continue;
        }
        SCOPED_TRACE("begin=" + std::to_string(begin) +
                     " len=" + std::to_string(len));
        uint64_t model[4] = {0, 0, 0, 0};
        for (size_t i = begin; i < begin + len; ++i) {
          ++model[values[i]];
        }
        uint64_t got[4] = {0, 0, 0, 0};
        uint64_t scalar[4] = {0, 0, 0, 0};
        simd::CountValues(bytes.data(), width, begin, len, got);
        simd::CountValuesScalar(bytes.data(), width, begin, len, scalar);
        for (size_t v = 0; v < (size_t{1} << width); ++v) {
          ASSERT_EQ(got[v], model[v]) << "v=" << v;
          ASSERT_EQ(scalar[v], model[v]) << "v=" << v;
        }
      }
    }
  }
}

TEST(BitPlaneKernelTest, CountSelectedBitsMatchesScalarAndModel) {
  const auto bits = RandomValues(1, kSweepCount, 950);
  BitWriter bit_writer(1);
  bit_writer.AppendAll(bits);
  const auto bit_bytes = std::move(bit_writer).Finish();
  for (int code_bits : {1, 2}) {
    SCOPED_TRACE("code_bits=" + std::to_string(code_bits));
    const auto codes = RandomValues(code_bits, kSweepCount,
                                    960 + static_cast<uint64_t>(code_bits));
    BitWriter code_writer(code_bits);
    code_writer.AppendAll(codes);
    const auto code_bytes = std::move(code_writer).Finish();
    // Every subset of the 2^code_bits codes.
    for (uint32_t members = 0; members < (1u << (1u << code_bits));
         ++members) {
      for (size_t begin : kPlaneBegins) {
        for (size_t len : kPlaneLengths) {
          if (begin + len > kSweepCount) {
            continue;
          }
          SCOPED_TRACE("members=" + std::to_string(members) +
                       " begin=" + std::to_string(begin) +
                       " len=" + std::to_string(len));
          uint64_t model[2] = {0, 0};
          for (size_t i = begin; i < begin + len; ++i) {
            if ((members >> codes[i]) & 1u) {
              ++model[bits[i]];
            }
          }
          uint64_t got[2] = {~uint64_t{0}, ~uint64_t{0}};
          uint64_t scalar[2] = {~uint64_t{0}, ~uint64_t{0}};
          simd::CountSelectedBits(code_bytes.data(), code_bits,
                                  bit_bytes.data(), begin, len, members, got);
          simd::CountSelectedBitsScalar(code_bytes.data(), code_bits,
                                        bit_bytes.data(), begin, len, members,
                                        scalar);
          ASSERT_EQ(got[0], model[0]);
          ASSERT_EQ(got[1], model[1]);
          ASSERT_EQ(scalar[0], model[0]);
          ASSERT_EQ(scalar[1], model[1]);
        }
      }
    }
  }
}

TEST(BitPlaneKernelTest, BitReaderSumMatchesModelAtEveryWidth) {
  for (int width : {0, 1, 2, 3, 7, 17, 32, 33, 58, 64}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    const auto values =
        RandomValues(width, kSweepCount, 980 + static_cast<uint64_t>(width));
    BitWriter writer(width);
    writer.AppendAll(values);
    const auto bytes = std::move(writer).Finish();
    const BitReader reader(bytes.data(), width, kSweepCount);
    for (size_t begin : kPlaneBegins) {
      for (size_t len : kPlaneLengths) {
        if (begin + len > kSweepCount) {
          continue;
        }
        uint64_t model = 0;  // Wraps at width 64.
        for (size_t i = begin; i < begin + len; ++i) {
          model += values[i];
        }
        ASSERT_EQ(reader.Sum(begin, len), model)
            << "begin=" << begin << " len=" << len;
      }
    }
  }
}

TEST(DispatchTest, BackendNameIsConsistent) {
  const simd::Backend backend = simd::ActiveBackend();
  if (backend == simd::Backend::kScalar) {
    EXPECT_STREQ(simd::BackendName(), "scalar");
  } else {
    EXPECT_STREQ(simd::BackendName(), "avx2");
  }
#if defined(CORRA_FORCE_SCALAR)
  EXPECT_EQ(backend, simd::Backend::kScalar);
#endif
}

}  // namespace
}  // namespace corra
