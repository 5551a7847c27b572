// Dictionary encoding: the sorted distinct values are stored once, each row
// stores a bit-packed code. The second member of the paper's baseline pool;
// wins over FOR when the distinct count is far below the value range (e.g.
// zip codes, dict-coded strings, IPs).

#ifndef CORRA_ENCODING_DICTIONARY_H_
#define CORRA_ENCODING_DICTIONARY_H_

#include <memory>
#include <span>
#include <vector>

#include "common/bit_stream.h"
#include "encoding/encoded_column.h"

namespace corra::enc {

class DictColumn final : public EncodedColumn {
 public:
  /// Builds the dictionary and packs one code per row.
  static Result<std::unique_ptr<DictColumn>> Encode(
      std::span<const int64_t> values);

  /// Compressed size `values` would have (codes + dictionary), without
  /// encoding them. Performs a distinct-count pass.
  static size_t EstimateSizeBytes(std::span<const int64_t> values);

  static Result<std::unique_ptr<DictColumn>> Deserialize(
      BufferReader* reader);

  Scheme scheme() const override { return Scheme::kDict; }
  size_t size() const override { return reader_.size(); }
  size_t SizeBytes() const override;
  int64_t Get(size_t row) const override {
    return dict_[reader_.Get(row)];
  }
  void GatherRange(std::span<const uint32_t> rows,
                   int64_t* out) const override;
  void DecodeAll(int64_t* out) const override;
  void DecodeRange(size_t row_begin, size_t count,
                   int64_t* out) const override;
  void Serialize(BufferWriter* writer) const override;

  /// The code stored at `row` (an index into dictionary()).
  uint64_t GetCode(size_t row) const { return reader_.Get(row); }
  /// Unpacks the codes of [row_begin, row_begin + count) into `out` —
  /// the code-domain ranged kernel used by filter and aggregate pushdown
  /// (compare/fold codes, never touch values).
  void DecodeCodes(size_t row_begin, size_t count, uint64_t* out) const {
    reader_.DecodeRange(row_begin, count, out);
  }
  std::span<const int64_t> dictionary() const { return dict_; }
  int bit_width() const { return reader_.bit_width(); }

 private:
  DictColumn(std::vector<int64_t> dict, SharedBytes bytes, int bit_width,
             size_t count);

  std::vector<int64_t> dict_;  // Sorted distinct values.
  SharedBytes bytes_;
  BitReader reader_;
};

}  // namespace corra::enc

#endif  // CORRA_ENCODING_DICTIONARY_H_
