#include "core/outlier_store.h"

#include <algorithm>

#include "common/bit_util.h"

namespace corra {

Result<OutlierStore> OutlierStore::Build(std::span<const uint32_t> rows,
                                         std::span<const int64_t> values) {
  if (rows.size() != values.size()) {
    return Status::InvalidArgument("outlier rows/values length mismatch");
  }
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i] <= rows[i - 1]) {
      return Status::InvalidArgument("outlier rows must strictly increase");
    }
  }
  OutlierStore store;
  store.rows_.assign(rows.begin(), rows.end());
  const auto mm = bit_util::ComputeMinMax(values);
  store.base_ = values.empty() ? 0 : mm.min;
  const int width = bit_util::MaxForBitWidth(values, store.base_);
  BitWriter writer(width);
  for (int64_t v : values) {
    writer.Append(static_cast<uint64_t>(v) -
                  static_cast<uint64_t>(store.base_));
  }
  store.value_bytes_ = SharedBytes(std::move(writer).Finish());
  store.values_ = BitReader(store.value_bytes_.data(), width, values.size());
  return store;
}

Result<OutlierStore> OutlierStore::Deserialize(BufferReader* reader) {
  std::vector<uint32_t> rows;
  CORRA_RETURN_NOT_OK(reader->ReadUint32Array(&rows));
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i] <= rows[i - 1]) {
      return Status::Corruption("outlier rows not strictly increasing");
    }
  }
  int64_t base = 0;
  uint8_t width = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&base));
  CORRA_RETURN_NOT_OK(reader->Read(&width));
  if (width > 64) {
    return Status::Corruption("outlier value width > 64");
  }
  OutlierStore store;
  CORRA_RETURN_NOT_OK(reader->ReadPayload(
      bit_util::PackedDataBytes(rows.size(), width), "outlier values",
      &store.value_bytes_));
  store.rows_ = std::move(rows);
  store.base_ = base;
  store.values_ =
      BitReader(store.value_bytes_.data(), width, store.rows_.size());
  return store;
}

void OutlierStore::Serialize(BufferWriter* writer) const {
  writer->WriteUint32Array(rows_);
  writer->Write<int64_t>(base_);
  writer->Write<uint8_t>(static_cast<uint8_t>(values_.bit_width()));
  writer->WriteBytes(value_bytes_.span());
}

std::optional<int64_t> OutlierStore::Find(uint32_t row) const {
  const auto it = std::lower_bound(rows_.begin(), rows_.end(), row);
  if (it == rows_.end() || *it != row) {
    return std::nullopt;
  }
  return value(static_cast<size_t>(it - rows_.begin()));
}

void OutlierStore::Patch(std::span<const uint32_t> rows, int64_t* out) const {
  if (rows_.empty() || rows.empty()) {
    return;
  }
  // Both sequences are sorted: advance through the outlier list once.
  size_t o = std::lower_bound(rows_.begin(), rows_.end(), rows.front()) -
             rows_.begin();
  for (size_t i = 0; i < rows.size() && o < rows_.size(); ++i) {
    while (o < rows_.size() && rows_[o] < rows[i]) {
      ++o;
    }
    // `o` stays put on a match: a repeated position is patched again.
    if (o < rows_.size() && rows_[o] == rows[i]) {
      out[i] = value(o);
    }
  }
}

void OutlierStore::PatchRange(size_t row_begin, size_t count,
                              int64_t* out) const {
  if (rows_.empty() || count == 0) {
    return;
  }
  const size_t end = row_begin + count;
  size_t o = std::lower_bound(rows_.begin(), rows_.end(),
                              static_cast<uint32_t>(row_begin)) -
             rows_.begin();
  for (; o < rows_.size() && rows_[o] < end; ++o) {
    out[rows_[o] - row_begin] = value(o);
  }
}

std::pair<size_t, size_t> OutlierStore::IndexRange(size_t row_begin,
                                                   size_t count) const {
  const auto first = std::lower_bound(rows_.begin(), rows_.end(), row_begin);
  const auto last = std::lower_bound(first, rows_.end(), row_begin + count);
  return {static_cast<size_t>(first - rows_.begin()),
          static_cast<size_t>(last - rows_.begin())};
}

size_t OutlierStore::SizeBytes() const {
  return rows_.size() * sizeof(uint32_t) +
         bit_util::CeilDiv(rows_.size() * values_.bit_width(), 8) +
         (rows_.empty() ? 0 : sizeof(int64_t));
}

}  // namespace corra
