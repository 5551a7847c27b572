#include "encoding/dictionary.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra::enc {

DictColumn::DictColumn(std::vector<int64_t> dict, SharedBytes bytes,
                       int bit_width, size_t count)
    : dict_(std::move(dict)),
      bytes_(std::move(bytes)),
      reader_(bytes_.data(), bit_width, count) {}

Result<std::unique_ptr<DictColumn>> DictColumn::Encode(
    std::span<const int64_t> values) {
  std::vector<int64_t> dict(values.begin(), values.end());
  std::sort(dict.begin(), dict.end());
  dict.erase(std::unique(dict.begin(), dict.end()), dict.end());

  std::unordered_map<int64_t, uint64_t> code_of;
  code_of.reserve(dict.size());
  for (size_t i = 0; i < dict.size(); ++i) {
    code_of.emplace(dict[i], i);
  }

  const int width =
      bit_util::BitWidth(dict.empty() ? 0 : dict.size() - 1);
  BitWriter writer(width);
  for (int64_t v : values) {
    writer.Append(code_of.find(v)->second);
  }
  return std::unique_ptr<DictColumn>(new DictColumn(
      std::move(dict), SharedBytes(std::move(writer).Finish()), width,
      values.size()));
}

size_t DictColumn::EstimateSizeBytes(std::span<const int64_t> values) {
  std::unordered_set<int64_t> distinct(values.begin(), values.end());
  const size_t cardinality = distinct.size();
  const int width =
      bit_util::BitWidth(cardinality == 0 ? 0 : cardinality - 1);
  return bit_util::CeilDiv(values.size() * width, 8) +
         cardinality * sizeof(int64_t);
}

Result<std::unique_ptr<DictColumn>> DictColumn::Deserialize(
    BufferReader* reader) {
  std::vector<int64_t> dict;
  CORRA_RETURN_NOT_OK(reader->ReadInt64Array(&dict));
  uint8_t width = 0;
  uint64_t count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&width));
  CORRA_RETURN_NOT_OK(reader->Read(&count));
  if (width > 64) {
    return Status::Corruption("Dict width > 64");
  }
  SharedBytes bytes;
  CORRA_RETURN_NOT_OK(reader->ReadPayload(
      bit_util::PackedDataBytes(count, width), "Dict", &bytes));
  // Reject codes that exceed the dictionary, so a corrupted payload cannot
  // cause out-of-bounds reads later.
  if (!BitReader(bytes.data(), width, count).AllBelow(dict.size())) {
    return Status::Corruption("Dict code out of range");
  }
  return std::unique_ptr<DictColumn>(
      new DictColumn(std::move(dict), std::move(bytes), width, count));
}

size_t DictColumn::SizeBytes() const {
  return bit_util::CeilDiv(reader_.size() * reader_.bit_width(), 8) +
         dict_.size() * sizeof(int64_t);
}

void DictColumn::GatherRange(std::span<const uint32_t> rows,
                             int64_t* out) const {
  // Positioned gather of the packed codes into a stack chunk, then one
  // SIMD dictionary translate per chunk (same split as DecodeRange).
  uint64_t codes[kMorselRows];
  const int64_t* dict = dict_.data();
  size_t done = 0;
  while (done < rows.size()) {
    const size_t len = std::min(rows.size() - done, kMorselRows);
    simd::GatherBits(bytes_.data(), reader_.bit_width(), rows.data() + done,
                     len, codes);
    simd::TranslateCodes(dict, codes, len, out + done);
    done += len;
  }
}

void DictColumn::DecodeAll(int64_t* out) const {
  DecodeRange(0, reader_.size(), out);
}

void DictColumn::DecodeRange(size_t row_begin, size_t count,
                             int64_t* out) const {
  // Unpack the codes of one morsel-sized chunk into a stack buffer, then
  // gather through the dictionary with one SIMD translate per chunk. The
  // separate code buffer (instead of translating `out` in place) keeps
  // the unpack kernel's stores and the gather's loads independent, and
  // the chunk L1-resident.
  uint64_t codes[kMorselRows];
  const int64_t* dict = dict_.data();
  while (count > 0) {
    const size_t len = count < kMorselRows ? count : kMorselRows;
    reader_.DecodeRange(row_begin, len, codes);
    simd::TranslateCodes(dict, codes, len, out);
    row_begin += len;
    count -= len;
    out += len;
  }
}

void DictColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(Scheme::kDict));
  writer->WriteInt64Array(dict_);
  writer->Write<uint8_t>(static_cast<uint8_t>(reader_.bit_width()));
  writer->Write<uint64_t>(reader_.size());
  writer->WriteBytes(bytes_.span());
}

}  // namespace corra::enc
