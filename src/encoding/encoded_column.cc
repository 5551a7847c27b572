#include "encoding/encoded_column.h"

#include "common/simd/simd.h"

namespace corra::enc {

std::string_view SchemeToString(Scheme scheme) {
  switch (scheme) {
    case Scheme::kPlain:
      return "Plain";
    case Scheme::kBitPack:
      return "BitPack";
    case Scheme::kFor:
      return "FOR";
    case Scheme::kDict:
      return "Dict";
    case Scheme::kDelta:
      return "Delta";
    case Scheme::kRle:
      return "RLE";
    case Scheme::kDiff:
      return "Corra-Diff";
    case Scheme::kHierarchical:
      return "Corra-Hierarchical";
    case Scheme::kMultiRef:
      return "Corra-MultiRef";
    case Scheme::kC3Dfor:
      return "C3-DFOR";
    case Scheme::kC3Numerical:
      return "C3-Numerical";
    case Scheme::kC3OneToOne:
      return "C3-1to1";
  }
  return "Unknown";
}

void EncodedColumn::GatherRange(std::span<const uint32_t> rows,
                                int64_t* out) const {
  for (size_t i = 0; i < rows.size(); ++i) {
    out[i] = Get(rows[i]);
  }
}

void EncodedColumn::DecodeAll(int64_t* out) const {
  DecodeRange(0, size(), out);
}

void EncodedColumn::DecodeRange(size_t row_begin, size_t count,
                                int64_t* out) const {
  for (size_t i = 0; i < count; ++i) {
    out[i] = Get(row_begin + i);
  }
}

uint64_t EncodedColumn::SumRange(size_t row_begin, size_t count) const {
  int64_t values[kMorselRows];
  uint64_t sum = 0;
  while (count > 0) {
    const size_t len = count < kMorselRows ? count : kMorselRows;
    DecodeRange(row_begin, len, values);
    sum += simd::SumU64(reinterpret_cast<const uint64_t*>(values), len);
    row_begin += len;
    count -= len;
  }
  return sum;
}

Status EncodedColumn::BindReferences(
    std::span<const EncodedColumn* const> references) {
  if (!references.empty()) {
    return Status::InvalidArgument(
        "vertical scheme does not take references");
  }
  return Status::OK();
}

}  // namespace corra::enc
