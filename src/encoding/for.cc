#include "encoding/for.h"

#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra::enc {

namespace {
// Range check: the unsigned delta max-min must be representable.
bool RangeRepresentable(int64_t min, int64_t max) {
  // Deltas are computed in uint64 space, which wraps correctly for any
  // int64 pair, so the only unrepresentable case does not exist; but a
  // range of exactly 2^64-1 would need width 64 which is supported. Keep
  // the helper for clarity and future narrowing.
  (void)min;
  (void)max;
  return true;
}
}  // namespace

ForColumn::ForColumn(int64_t base, SharedBytes bytes, int bit_width,
                     size_t count)
    : base_(base), bytes_(std::move(bytes)),
      reader_(bytes_.data(), bit_width, count) {}

Result<std::unique_ptr<ForColumn>> ForColumn::Encode(
    std::span<const int64_t> values) {
  const auto mm = bit_util::ComputeMinMax(values);
  if (!RangeRepresentable(mm.min, mm.max)) {
    return Status::InvalidArgument("FOR range too wide");
  }
  const int width = bit_util::MaxForBitWidth(values, mm.min);
  BitWriter writer(width);
  for (int64_t v : values) {
    writer.Append(static_cast<uint64_t>(v) - static_cast<uint64_t>(mm.min));
  }
  return std::unique_ptr<ForColumn>(new ForColumn(
      mm.min, SharedBytes(std::move(writer).Finish()), width, values.size()));
}

size_t ForColumn::EstimateSizeBytes(std::span<const int64_t> values) {
  const auto mm = bit_util::ComputeMinMax(values);
  const int width = bit_util::BitWidth(static_cast<uint64_t>(mm.max) -
                                       static_cast<uint64_t>(mm.min));
  return bit_util::CeilDiv(values.size() * width, 8) + sizeof(int64_t);
}

Result<std::unique_ptr<ForColumn>> ForColumn::Deserialize(
    BufferReader* reader) {
  int64_t base = 0;
  uint8_t width = 0;
  uint64_t count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&base));
  CORRA_RETURN_NOT_OK(reader->Read(&width));
  CORRA_RETURN_NOT_OK(reader->Read(&count));
  if (width > 64) {
    return Status::Corruption("FOR width > 64");
  }
  SharedBytes bytes;
  CORRA_RETURN_NOT_OK(reader->ReadPayload(
      bit_util::PackedDataBytes(count, width), "FOR", &bytes));
  return std::unique_ptr<ForColumn>(
      new ForColumn(base, std::move(bytes), width, count));
}

size_t ForColumn::SizeBytes() const {
  return bit_util::CeilDiv(reader_.size() * reader_.bit_width(), 8) +
         sizeof(int64_t);
}

void ForColumn::GatherRange(std::span<const uint32_t> rows,
                            int64_t* out) const {
  // Positioned SIMD gather of the packed offsets, then one vectorized
  // rebase pass — the sparse twin of DecodeRange.
  simd::GatherBits(bytes_.data(), reader_.bit_width(), rows.data(),
                   rows.size(), reinterpret_cast<uint64_t*>(out));
  simd::AddConst(out, rows.size(), base_);
}

void ForColumn::DecodeAll(int64_t* out) const {
  DecodeRange(0, reader_.size(), out);
}

void ForColumn::DecodeRange(size_t row_begin, size_t count,
                            int64_t* out) const {
  // Unpack the offsets with the SIMD kernels, then rebase in a second
  // vectorized pass (both L1-resident; the split keeps the unpack kernel
  // width-specialized and branch-free).
  reader_.DecodeRange(row_begin, count, reinterpret_cast<uint64_t*>(out));
  simd::AddConst(out, count, base_);
}

void ForColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(Scheme::kFor));
  writer->Write<int64_t>(base_);
  writer->Write<uint8_t>(static_cast<uint8_t>(reader_.bit_width()));
  writer->Write<uint64_t>(reader_.size());
  writer->WriteBytes(bytes_.span());
}

}  // namespace corra::enc
