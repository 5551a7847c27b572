#include "core/hierarchical_encoding.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra {

namespace {

// Upper bound on the reference cardinality: a reference column with more
// distinct codes than this is not "hierarchical" in any useful sense, and
// the offsets metadata would dwarf the savings.
constexpr int64_t kMaxRefCardinality = int64_t{1} << 26;

}  // namespace

HierarchicalColumn::HierarchicalColumn(uint32_t ref_index,
                                       std::vector<int64_t> values,
                                       std::vector<uint32_t> offsets,
                                       SharedBytes bytes, int bit_width,
                                       size_t count)
    : SingleRefColumn(ref_index),
      values_(std::move(values)),
      offsets_(std::move(offsets)),
      bytes_(std::move(bytes)),
      local_(bytes_.data(), bit_width, count) {}

Result<std::unique_ptr<HierarchicalColumn>> HierarchicalColumn::Encode(
    std::span<const int64_t> target, std::span<const int64_t> ref_codes,
    uint32_t ref_index) {
  if (target.size() != ref_codes.size()) {
    return Status::InvalidArgument("target/reference length mismatch");
  }
  int64_t max_code = -1;
  for (int64_t c : ref_codes) {
    if (c < 0) {
      return Status::InvalidArgument(
          "hierarchical reference codes must be non-negative");
    }
    max_code = std::max(max_code, c);
  }
  if (max_code >= kMaxRefCardinality) {
    return Status::InvalidArgument("reference cardinality too large");
  }
  const size_t cardinality = static_cast<size_t>(max_code + 1);

  // Per-reference local dictionaries, in first-seen order (the paper builds
  // them "on the fly" with a hashtable during compression).
  std::vector<std::vector<int64_t>> local_values(cardinality);
  std::vector<std::unordered_map<int64_t, uint32_t>> local_index(cardinality);
  std::vector<uint32_t> local_codes(target.size());
  uint32_t max_local = 0;
  for (size_t i = 0; i < target.size(); ++i) {
    const size_t ref = static_cast<size_t>(ref_codes[i]);
    auto& index = local_index[ref];
    auto [it, inserted] =
        index.emplace(target[i], static_cast<uint32_t>(index.size()));
    if (inserted) {
      local_values[ref].push_back(target[i]);
    }
    local_codes[i] = it->second;
    max_local = std::max(max_local, it->second);
  }

  // Flatten into the paper's (values, offsets) metadata.
  std::vector<uint32_t> offsets(cardinality + 1, 0);
  size_t total = 0;
  for (size_t c = 0; c < cardinality; ++c) {
    offsets[c] = static_cast<uint32_t>(total);
    total += local_values[c].size();
  }
  offsets[cardinality] = static_cast<uint32_t>(total);
  std::vector<int64_t> values;
  values.reserve(total);
  for (auto& lv : local_values) {
    values.insert(values.end(), lv.begin(), lv.end());
  }

  const int width = bit_util::BitWidth(max_local);
  BitWriter writer(width);
  for (uint32_t code : local_codes) {
    writer.Append(code);
  }
  return std::unique_ptr<HierarchicalColumn>(new HierarchicalColumn(
      ref_index, std::move(values), std::move(offsets),
      SharedBytes(std::move(writer).Finish()), width, target.size()));
}

size_t HierarchicalColumn::EstimateSizeBytes(
    std::span<const int64_t> target, std::span<const int64_t> ref_codes) {
  if (target.size() != ref_codes.size()) {
    return SIZE_MAX;
  }
  int64_t max_code = -1;
  for (int64_t c : ref_codes) {
    if (c < 0) {
      return SIZE_MAX;
    }
    max_code = std::max(max_code, c);
  }
  if (max_code >= kMaxRefCardinality) {
    return SIZE_MAX;
  }
  const size_t cardinality = static_cast<size_t>(max_code + 1);
  std::vector<std::unordered_map<int64_t, uint32_t>> local_index(cardinality);
  uint32_t max_local = 0;
  size_t total_values = 0;
  for (size_t i = 0; i < target.size(); ++i) {
    auto& index = local_index[static_cast<size_t>(ref_codes[i])];
    auto [it, inserted] =
        index.emplace(target[i], static_cast<uint32_t>(index.size()));
    if (inserted) {
      ++total_values;
    }
    max_local = std::max(max_local, it->second);
  }
  const int width = bit_util::BitWidth(max_local);
  return bit_util::CeilDiv(target.size() * width, 8) +
         total_values * sizeof(int64_t) +
         (cardinality + 1) * sizeof(uint32_t);
}

Result<std::unique_ptr<HierarchicalColumn>> HierarchicalColumn::Deserialize(
    BufferReader* reader) {
  uint32_t ref_index = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&ref_index));
  std::vector<int64_t> values;
  CORRA_RETURN_NOT_OK(reader->ReadInt64Array(&values));
  std::vector<uint32_t> offsets;
  CORRA_RETURN_NOT_OK(reader->ReadUint32Array(&offsets));
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != values.size()) {
    return Status::Corruption("hierarchical offsets inconsistent");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::Corruption("hierarchical offsets not monotone");
    }
  }
  uint8_t width = 0;
  uint64_t count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&width));
  CORRA_RETURN_NOT_OK(reader->Read(&count));
  if (width > 64) {
    return Status::Corruption("hierarchical width > 64");
  }
  if (count > 0 && (values.empty() || offsets.size() < 2)) {
    // No reference code or flattened index could be clamped into range.
    return Status::Corruption("hierarchical rows without metadata");
  }
  SharedBytes bytes;
  CORRA_RETURN_NOT_OK(reader->ReadPayload(
      bit_util::PackedDataBytes(count, width), "hierarchical", &bytes));
  return std::unique_ptr<HierarchicalColumn>(new HierarchicalColumn(
      ref_index, std::move(values), std::move(offsets), std::move(bytes),
      width, count));
}

size_t HierarchicalColumn::SizeBytes() const {
  return bit_util::CeilDiv(local_.size() * local_.bit_width(), 8) +
         values_.size() * sizeof(int64_t) +
         offsets_.size() * sizeof(uint32_t);
}

// Every lookup below clamps the reference code to the last offsets
// slot and the flattened index to the last value, with branch-free
// mins: on an unverified payload (verify off) corrupt codes then read
// wrong values, never out of bounds. Detecting them is
// VerifyWithReference's job. Deserialize guarantees both vectors are
// non-empty (offsets_ has >= 2 entries) whenever the column has rows.
size_t HierarchicalColumn::ValueIndex(int64_t ref_code,
                                      uint64_t local) const {
  const size_t ref =
      std::min(static_cast<size_t>(ref_code), offsets_.size() - 2);
  return std::min(static_cast<size_t>(offsets_[ref] + local),
                  values_.size() - 1);
}

int64_t HierarchicalColumn::Get(size_t row) const {
  assert(ref_ != nullptr && "reference not bound");
  return values_[ValueIndex(ref_->Get(row), local_.Get(row))];
}

void HierarchicalColumn::GatherWithReference(std::span<const uint32_t> rows,
                                             const int64_t* ref_values,
                                             int64_t* out) const {
  // Positioned SIMD gather of the packed local indices, then Alg. 1's
  // metadata translation over the staged chunk.
  uint64_t local[enc::kMorselRows];
  size_t done = 0;
  while (done < rows.size()) {
    const size_t len = std::min(rows.size() - done, enc::kMorselRows);
    simd::GatherBits(bytes_.data(), local_.bit_width(), rows.data() + done,
                     len, local);
    for (size_t i = 0; i < len; ++i) {
      out[done + i] = values_[ValueIndex(ref_values[done + i], local[i])];
    }
    done += len;
  }
}

void HierarchicalColumn::DecodeRangeWithReference(size_t row_begin,
                                                  size_t count,
                                                  const int64_t* ref_values,
                                                  int64_t* out) const {
  // Alg. 1 over a morsel: unpack the local indices sequentially into
  // `out`, then translate each (ref code, local index) pair through the
  // flattened metadata in place.
  local_.DecodeRange(row_begin, count, reinterpret_cast<uint64_t*>(out));
  for (size_t i = 0; i < count; ++i) {
    out[i] = values_[ValueIndex(ref_values[i], static_cast<uint64_t>(out[i]))];
  }
}

Status HierarchicalColumn::VerifyWithReference() const {
  if (ref_ == nullptr) {
    return Status::InvalidArgument("reference not bound");
  }
  const size_t n = local_.size();
  for (size_t i = 0; i < n; ++i) {
    const int64_t ref = ref_->Get(i);
    if (ref < 0 ||
        static_cast<size_t>(ref) >= offsets_.size() - 1) {
      return Status::Corruption("reference code out of metadata range");
    }
    const uint64_t local = local_.Get(i);
    const size_t begin = offsets_[static_cast<size_t>(ref)];
    const size_t end = offsets_[static_cast<size_t>(ref) + 1];
    if (begin + local >= end) {
      return Status::Corruption("local index exceeds local dictionary");
    }
  }
  return Status::OK();
}

void HierarchicalColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(enc::Scheme::kHierarchical));
  writer->Write<uint32_t>(ref_index_);
  writer->WriteInt64Array(values_);
  writer->WriteUint32Array(offsets_);
  writer->Write<uint8_t>(static_cast<uint8_t>(local_.bit_width()));
  writer->Write<uint64_t>(local_.size());
  writer->WriteBytes(bytes_.span());
}

}  // namespace corra
