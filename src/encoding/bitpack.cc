#include "encoding/bitpack.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra::enc {

BitPackColumn::BitPackColumn(SharedBytes bytes, int bit_width,
                             size_t count)
    : bytes_(std::move(bytes)),
      reader_(bytes_.data(), bit_width, count) {}

Result<std::unique_ptr<BitPackColumn>> BitPackColumn::Encode(
    std::span<const int64_t> values) {
  uint64_t max_value = 0;
  for (int64_t v : values) {
    if (v < 0) {
      return Status::InvalidArgument(
          "BitPack requires non-negative values; use FOR instead");
    }
    max_value = std::max(max_value, static_cast<uint64_t>(v));
  }
  const int width = bit_util::BitWidth(max_value);
  BitWriter writer(width);
  for (int64_t v : values) {
    writer.Append(static_cast<uint64_t>(v));
  }
  return std::unique_ptr<BitPackColumn>(
      new BitPackColumn(SharedBytes(std::move(writer).Finish()), width,
                        values.size()));
}

size_t BitPackColumn::EstimateSizeBytes(std::span<const int64_t> values) {
  uint64_t max_value = 0;
  for (int64_t v : values) {
    if (v < 0) {
      return SIZE_MAX;
    }
    max_value = std::max(max_value, static_cast<uint64_t>(v));
  }
  const int width = bit_util::BitWidth(max_value);
  return bit_util::CeilDiv(values.size() * width, 8);
}

Result<std::unique_ptr<BitPackColumn>> BitPackColumn::Deserialize(
    BufferReader* reader) {
  uint8_t width = 0;
  uint64_t count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&width));
  CORRA_RETURN_NOT_OK(reader->Read(&count));
  if (width > 64) {
    return Status::Corruption("BitPack width > 64");
  }
  SharedBytes bytes;
  CORRA_RETURN_NOT_OK(reader->ReadPayload(
      bit_util::PackedDataBytes(count, width), "BitPack", &bytes));
  return std::unique_ptr<BitPackColumn>(
      new BitPackColumn(std::move(bytes), width, count));
}

size_t BitPackColumn::SizeBytes() const {
  return bit_util::CeilDiv(reader_.size() * reader_.bit_width(), 8);
}

void BitPackColumn::GatherRange(std::span<const uint32_t> rows,
                                int64_t* out) const {
  // Positioned SIMD gather straight from the packed stream.
  simd::GatherBits(bytes_.data(), reader_.bit_width(), rows.data(),
                   rows.size(), reinterpret_cast<uint64_t*>(out));
}

void BitPackColumn::DecodeAll(int64_t* out) const {
  reader_.DecodeAll(reinterpret_cast<uint64_t*>(out));
}

void BitPackColumn::DecodeRange(size_t row_begin, size_t count,
                                int64_t* out) const {
  reader_.DecodeRange(row_begin, count, reinterpret_cast<uint64_t*>(out));
}

void BitPackColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(Scheme::kBitPack));
  writer->Write<uint8_t>(static_cast<uint8_t>(reader_.bit_width()));
  writer->Write<uint64_t>(reader_.size());
  writer->WriteBytes(bytes_.span());
}

}  // namespace corra::enc
