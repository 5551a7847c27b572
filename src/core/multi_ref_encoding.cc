#include "core/multi_ref_encoding.h"

#include <algorithm>
#include <cassert>

#include "common/bit_util.h"
#include "common/simd/simd.h"
#include "encoding/dictionary.h"

namespace corra {

Status FormulaTable::Validate() const {
  if (code_bits < 1 || code_bits > 8) {
    return Status::InvalidArgument("code_bits must be in [1, 8]");
  }
  if (groups.empty() || groups.size() > 8) {
    return Status::InvalidArgument("need 1..8 reference groups");
  }
  for (const auto& group : groups) {
    if (group.empty()) {
      return Status::InvalidArgument("empty reference group");
    }
  }
  if (formulas.empty() ||
      formulas.size() > (size_t{1} << code_bits)) {
    return Status::InvalidArgument("formula count must be in [1, 2^bits]");
  }
  const uint8_t mask_limit =
      static_cast<uint8_t>((1u << groups.size()) - 1);
  for (uint8_t mask : formulas) {
    if (mask == 0 || mask > mask_limit) {
      return Status::InvalidArgument("formula mask out of range");
    }
  }
  return Status::OK();
}

namespace {

// Materializes, per group, the per-row sum of its member columns. Sums
// wrap around (uint64), like every decode path.
Result<std::vector<std::vector<uint64_t>>> ComputeGroupSums(
    size_t row_count, const ColumnResolver& resolver,
    const std::vector<std::vector<uint32_t>>& groups) {
  std::vector<std::vector<uint64_t>> sums(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    sums[g].assign(row_count, 0);
    for (uint32_t col : groups[g]) {
      const std::span<const int64_t> values = resolver(col);
      if (values.size() != row_count) {
        return Status::InvalidArgument(
            "reference column length mismatch in group");
      }
      for (size_t i = 0; i < row_count; ++i) {
        sums[g][i] += static_cast<uint64_t>(values[i]);
      }
    }
  }
  return sums;
}

}  // namespace

MultiRefColumn::MultiRefColumn(FormulaTable table, SharedBytes bytes,
                               size_t count, OutlierStore outliers)
    : table_(std::move(table)),
      bytes_(std::move(bytes)),
      codes_(bytes_.data(), table_.code_bits, count),
      outliers_(std::move(outliers)) {
  uint8_t any_groups = 0;
  always_groups_ = 0xFF;
  for (uint8_t formula : table_.formulas) {
    always_groups_ &= formula;
    any_groups |= formula;
  }
  masked_groups_ = any_groups & ~always_groups_;
  const size_t num_codes = table_.formulas.size();
  lane_masks_.resize(table_.groups.size() * num_codes);
  for (size_t g = 0; g < table_.groups.size(); ++g) {
    for (size_t code = 0; code < num_codes; ++code) {
      lane_masks_[g * num_codes + code] =
          uint64_t{0} - ((table_.formulas[code] >> g) & 1u);
    }
  }
}

Result<std::unique_ptr<MultiRefColumn>> MultiRefColumn::Encode(
    std::span<const int64_t> target, const ColumnResolver& resolver,
    const FormulaTable& table, double max_outlier_fraction) {
  CORRA_RETURN_NOT_OK(table.Validate());
  if (target.size() > UINT32_MAX) {
    return Status::InvalidArgument("block too large for multi-ref encoding");
  }
  CORRA_ASSIGN_OR_RETURN(
      auto group_sums,
      ComputeGroupSums(target.size(), resolver, table.groups));

  BitWriter writer(table.code_bits);
  std::vector<uint32_t> outlier_rows;
  std::vector<int64_t> outlier_values;
  for (size_t i = 0; i < target.size(); ++i) {
    int matched_code = -1;
    for (size_t c = 0; c < table.formulas.size(); ++c) {
      const uint8_t mask = table.formulas[c];
      uint64_t sum = 0;
      for (size_t g = 0; g < table.groups.size(); ++g) {
        if (mask & (1u << g)) {
          sum += group_sums[g][i];
        }
      }
      if (sum == static_cast<uint64_t>(target[i])) {
        matched_code = static_cast<int>(c);
        break;
      }
    }
    if (matched_code < 0) {
      outlier_rows.push_back(static_cast<uint32_t>(i));
      outlier_values.push_back(target[i]);
      writer.Append(0);  // Placeholder; outlier indices disambiguate.
    } else {
      writer.Append(static_cast<uint64_t>(matched_code));
    }
  }
  if (!target.empty() &&
      static_cast<double>(outlier_rows.size()) /
              static_cast<double>(target.size()) >
          max_outlier_fraction) {
    return Status::InvalidArgument(
        "outlier fraction exceeds limit; formulas do not fit the data");
  }
  CORRA_ASSIGN_OR_RETURN(OutlierStore store,
                         OutlierStore::Build(outlier_rows, outlier_values));
  return std::unique_ptr<MultiRefColumn>(new MultiRefColumn(
      table, SharedBytes(std::move(writer).Finish()), target.size(),
      std::move(store)));
}

Result<FormulaTable> MultiRefColumn::DeriveFormulas(
    std::span<const int64_t> target, const ColumnResolver& resolver,
    std::vector<std::vector<uint32_t>> groups, int code_bits,
    size_t sample_limit) {
  FormulaTable probe;
  probe.groups = groups;
  probe.formulas = {1};  // Dummy; full validation happens below.
  probe.code_bits = code_bits;
  CORRA_RETURN_NOT_OK(probe.Validate());

  const size_t sample =
      std::min(target.size(), std::max<size_t>(sample_limit, 1));
  CORRA_ASSIGN_OR_RETURN(auto group_sums,
                         ComputeGroupSums(target.size(), resolver, groups));

  const size_t mask_count = size_t{1} << groups.size();
  std::vector<size_t> hits(mask_count, 0);
  for (size_t i = 0; i < sample; ++i) {
    for (size_t mask = 1; mask < mask_count; ++mask) {
      uint64_t sum = 0;
      for (size_t g = 0; g < groups.size(); ++g) {
        if (mask & (size_t{1} << g)) {
          sum += group_sums[g][i];
        }
      }
      if (sum == static_cast<uint64_t>(target[i])) {
        ++hits[mask];
      }
    }
  }
  // Keep the 2^code_bits most frequent masks (frequency-descending, mask-
  // ascending tiebreak), dropping masks that never matched.
  std::vector<uint8_t> candidates;
  for (size_t mask = 1; mask < mask_count; ++mask) {
    if (hits[mask] > 0) {
      candidates.push_back(static_cast<uint8_t>(mask));
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&hits](uint8_t a, uint8_t b) {
              if (hits[a] != hits[b]) {
                return hits[a] > hits[b];
              }
              return a < b;
            });
  if (candidates.empty()) {
    return Status::NotFound("no arithmetic formula matches any sampled row");
  }
  const size_t keep =
      std::min(candidates.size(), size_t{1} << code_bits);
  candidates.resize(keep);

  FormulaTable table;
  table.groups = std::move(groups);
  table.formulas = std::move(candidates);
  table.code_bits = code_bits;
  return table;
}

Result<std::unique_ptr<MultiRefColumn>> MultiRefColumn::Deserialize(
    BufferReader* reader) {
  FormulaTable table;
  uint8_t code_bits = 0;
  uint8_t group_count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&code_bits));
  CORRA_RETURN_NOT_OK(reader->Read(&group_count));
  table.code_bits = code_bits;
  table.groups.resize(group_count);
  for (auto& group : table.groups) {
    CORRA_RETURN_NOT_OK(reader->ReadUint32Array(&group));
  }
  std::span<const uint8_t> formula_bytes;
  CORRA_RETURN_NOT_OK(reader->ReadBytes(&formula_bytes));
  table.formulas.assign(formula_bytes.begin(), formula_bytes.end());
  CORRA_RETURN_NOT_OK(table.Validate());

  uint64_t count = 0;
  CORRA_RETURN_NOT_OK(reader->Read(&count));
  SharedBytes bytes;
  CORRA_RETURN_NOT_OK(reader->ReadPayload(
      bit_util::PackedDataBytes(count, table.code_bits), "multi-ref code",
      &bytes));
  // Codes must index into the formula table.
  if (!BitReader(bytes.data(), table.code_bits, count)
           .AllBelow(table.formulas.size())) {
    return Status::Corruption("multi-ref code out of range");
  }
  CORRA_ASSIGN_OR_RETURN(OutlierStore outliers,
                         OutlierStore::Deserialize(reader));
  if (!outliers.empty() && outliers.row(outliers.size() - 1) >= count) {
    return Status::Corruption("multi-ref outlier row out of range");
  }
  return std::unique_ptr<MultiRefColumn>(new MultiRefColumn(
      std::move(table), std::move(bytes), count, std::move(outliers)));
}

std::vector<uint32_t> MultiRefColumn::ReferenceIndices() const {
  std::vector<uint32_t> indices;
  for (const auto& group : table_.groups) {
    indices.insert(indices.end(), group.begin(), group.end());
  }
  return indices;
}

Status MultiRefColumn::BindReferences(
    std::span<const enc::EncodedColumn* const> references) {
  size_t expected = 0;
  for (const auto& group : table_.groups) {
    expected += group.size();
  }
  if (references.size() != expected) {
    return Status::InvalidArgument("multi-ref reference count mismatch");
  }
  bound_groups_.assign(table_.groups.size(), {});
  size_t next = 0;
  for (size_t g = 0; g < table_.groups.size(); ++g) {
    for (size_t c = 0; c < table_.groups[g].size(); ++c, ++next) {
      const enc::EncodedColumn* col = references[next];
      if (col == nullptr || col->size() != size()) {
        return Status::InvalidArgument("bad multi-ref reference column");
      }
      bound_groups_[g].push_back(col);
    }
  }
  return Status::OK();
}

int64_t MultiRefColumn::Get(size_t row) const {
  assert(!bound_groups_.empty() && "references not bound");
  if (const auto v = outliers_.Find(static_cast<uint32_t>(row))) {
    return *v;
  }
  const uint8_t mask = table_.formulas[codes_.Get(row)];
  uint64_t sum = 0;  // Wraps like the ranged paths.
  for (size_t g = 0; g < bound_groups_.size(); ++g) {
    if (mask & (1u << g)) {
      for (const enc::EncodedColumn* col : bound_groups_[g]) {
        sum += static_cast<uint64_t>(col->Get(row));
      }
    }
  }
  return static_cast<int64_t>(sum);
}

template <typename Fetch>
void MultiRefColumn::Combine(const uint64_t* codes, size_t len,
                             const Fetch& fetch, int64_t* out) const {
  // Column at a time, with no per-row branch: a group every formula adds
  // is summed unconditionally (its first column materializes straight
  // into `out`), a group some formulas add goes through an all-ones/zero
  // lane mask per row, and a group no formula adds is never read. The
  // sums wrap around like SumColumn's.
  uint64_t* sums = reinterpret_cast<uint64_t*>(out);
  int64_t values[enc::kMorselRows];
  bool written = false;
  for (size_t g = 0; g < bound_groups_.size(); ++g) {
    if (!((always_groups_ >> g) & 1u)) {
      continue;
    }
    for (const enc::EncodedColumn* col : bound_groups_[g]) {
      if (!written) {
        fetch(*col, out);
        written = true;
        continue;
      }
      fetch(*col, values);
      for (size_t i = 0; i < len; ++i) {
        sums[i] += static_cast<uint64_t>(values[i]);
      }
    }
  }
  if (!written) {
    std::fill_n(out, len, 0);
  }
  uint64_t lanes[enc::kMorselRows];
  const size_t num_codes = table_.formulas.size();
  for (size_t g = 0; g < bound_groups_.size(); ++g) {
    if (!((masked_groups_ >> g) & 1u)) {
      continue;
    }
    const uint64_t* group_lanes = lane_masks_.data() + g * num_codes;
    for (size_t i = 0; i < len; ++i) {
      lanes[i] = group_lanes[codes[i]];
    }
    for (const enc::EncodedColumn* col : bound_groups_[g]) {
      fetch(*col, values);
      for (size_t i = 0; i < len; ++i) {
        sums[i] += static_cast<uint64_t>(values[i]) & lanes[i];
      }
    }
  }
}

void MultiRefColumn::GatherFormulas(std::span<const uint32_t> rows,
                                    int64_t* out) const {
  // Morsel-sized chunks: one positioned GatherRange per reference column
  // per chunk (each scheme's sparse fast path) and one bulk gather of
  // the formula codes.
  uint64_t codes[enc::kMorselRows];
  for (size_t begin = 0; begin < rows.size(); begin += enc::kMorselRows) {
    const auto chunk =
        rows.subspan(begin, std::min(enc::kMorselRows, rows.size() - begin));
    simd::GatherBits(bytes_.data(), codes_.bit_width(), chunk.data(),
                     chunk.size(), codes);
    Combine(
        codes, chunk.size(),
        [chunk](const enc::EncodedColumn& col, int64_t* dst) {
          col.GatherRange(chunk, dst);
        },
        out + begin);
  }
}

void MultiRefColumn::GatherRange(std::span<const uint32_t> rows,
                                 int64_t* out) const {
  assert(!bound_groups_.empty() && "references not bound");
  GatherFormulas(rows, out);
  outliers_.Patch(rows, out);
}

void MultiRefColumn::DecodeRange(size_t row_begin, size_t count,
                                 int64_t* out) const {
  assert(!bound_groups_.empty() && "references not bound");
  // Morsel at a time, so each reference column's ranged decode stays
  // cache-resident while it is combined.
  uint64_t codes[enc::kMorselRows];
  while (count > 0) {
    const size_t len = std::min(count, enc::kMorselRows);
    codes_.DecodeRange(row_begin, len, codes);
    Combine(
        codes, len,
        [row_begin, len](const enc::EncodedColumn& col, int64_t* dst) {
          col.DecodeRange(row_begin, len, dst);
        },
        out);
    outliers_.PatchRange(row_begin, len, out);
    row_begin += len;
    out += len;
    count -= len;
  }
}

const enc::DictColumn* MultiRefColumn::PlaneColumn(
    const enc::EncodedColumn* col) const {
  if (table_.code_bits > 2 || col->scheme() != enc::Scheme::kDict) {
    return nullptr;
  }
  const auto* dict = static_cast<const enc::DictColumn*>(col);
  return dict->bit_width() == 1 ? dict : nullptr;
}

uint64_t MultiRefColumn::SumRange(size_t row_begin, size_t count) const {
  assert(!bound_groups_.empty() && "references not bound");
  // Every row adds the formula its code names, so the sum over rows is a
  // sum over the reference columns, each summed in its own compressed
  // domain. Outlier rows are corrected at the end. Wraps like the
  // ranged decode.
  for (size_t g = 0; g < bound_groups_.size(); ++g) {
    if ((masked_groups_ >> g) & 1u) {
      for (const enc::EncodedColumn* col : bound_groups_[g]) {
        if (PlaneColumn(col) == nullptr) {
          // Only bit-plane columns are summed per code; anything else
          // takes the decode-and-fold.
          return EncodedColumn::SumRange(row_begin, count);
        }
      }
    }
  }
  uint64_t sum = 0;
  const size_t num_codes = table_.formulas.size();
  for (size_t g = 0; g < bound_groups_.size(); ++g) {
    if ((always_groups_ >> g) & 1u) {
      // Every formula adds this group: whole-range sums.
      for (const enc::EncodedColumn* col : bound_groups_[g]) {
        sum += col->SumRange(row_begin, count);
      }
      continue;
    }
    if (!((masked_groups_ >> g) & 1u)) {
      continue;  // No formula adds it.
    }
    uint32_t members = 0;  // Codes (at most 4) whose formula adds g.
    for (size_t code = 0; code < num_codes; ++code) {
      members |= static_cast<uint32_t>((table_.formulas[code] >> g) & 1u)
                 << code;
    }
    for (const enc::EncodedColumn* col : bound_groups_[g]) {
      // A 1-bit Dict under 1- or 2-bit codes: count the selected rows
      // by their dictionary bit straight from the bit planes.
      const enc::DictColumn* dict = PlaneColumn(col);
      uint64_t selected[2];
      simd::CountSelectedBits(bytes_.data(), table_.code_bits,
                              dict->code_data(), row_begin, count, members,
                              selected);
      // Deserialize bounds every code below the dictionary's size.
      const auto values = dict->dictionary();
      for (size_t bit = 0; bit < std::min<size_t>(2, values.size()); ++bit) {
        sum += selected[bit] * static_cast<uint64_t>(values[bit]);
      }
    }
  }
  // An outlier row holds its own value, not its placeholder formula's:
  // swap one for the other.
  const auto [first, last] = outliers_.IndexRange(row_begin, count);
  if (first == last) {
    return sum;
  }
  sum += outliers_.SumValues(first, last);
  const auto rows = outliers_.rows().subspan(first, last - first);
  int64_t formula[enc::kMorselRows];
  for (size_t done = 0; done < rows.size(); done += enc::kMorselRows) {
    const auto chunk =
        rows.subspan(done, std::min(rows.size() - done, enc::kMorselRows));
    GatherFormulas(chunk, formula);
    sum -= simd::SumU64(reinterpret_cast<const uint64_t*>(formula),
                        chunk.size());
  }
  return sum;
}

size_t MultiRefColumn::SizeBytes() const {
  size_t metadata = 2;  // code_bits + group count
  for (const auto& group : table_.groups) {
    metadata += group.size() * sizeof(uint32_t);
  }
  metadata += table_.formulas.size();
  return bit_util::CeilDiv(codes_.size() * codes_.bit_width(), 8) +
         outliers_.SizeBytes() + metadata;
}

MultiRefColumn::CodeStats MultiRefColumn::ComputeCodeStats() const {
  CodeStats stats;
  stats.code_counts.assign(table_.formulas.size(), 0);
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) {
    ++stats.code_counts[codes_.Get(i)];
  }
  // Outlier rows carry placeholder code 0; reassign them.
  for (size_t o = 0; o < outliers_.size(); ++o) {
    --stats.code_counts[codes_.Get(outliers_.row(o))];
    ++stats.outlier_count;
  }
  return stats;
}

void MultiRefColumn::Serialize(BufferWriter* writer) const {
  writer->Write<uint8_t>(static_cast<uint8_t>(enc::Scheme::kMultiRef));
  writer->Write<uint8_t>(static_cast<uint8_t>(table_.code_bits));
  writer->Write<uint8_t>(static_cast<uint8_t>(table_.groups.size()));
  for (const auto& group : table_.groups) {
    writer->WriteUint32Array(group);
  }
  writer->WriteBytes(std::span<const uint8_t>(table_.formulas.data(),
                                              table_.formulas.size()));
  writer->Write<uint64_t>(codes_.size());
  writer->WriteBytes(bytes_.span());
  outliers_.Serialize(writer);
}

}  // namespace corra
