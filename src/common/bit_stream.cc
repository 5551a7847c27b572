#include "common/bit_stream.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/simd/simd.h"

namespace corra {

BitWriter::BitWriter(int bit_width) : bit_width_(bit_width) {}

void BitWriter::Append(uint64_t value) {
  ++count_;
  if (bit_width_ == 0) {
    return;
  }
  pending_ |= value << pending_bits_;
  pending_bits_ += bit_width_;
  if (pending_bits_ >= 64) {
    // Flush a full 64-bit word; carry the overflow bits.
    uint64_t word = pending_;
    const size_t old = bytes_.size();
    bytes_.resize(old + 8);
    std::memcpy(bytes_.data() + old, &word, 8);
    pending_bits_ -= 64;
    const int consumed = bit_width_ - pending_bits_;
    pending_ = consumed >= 64 ? 0 : value >> consumed;
  }
}

void BitWriter::AppendAll(std::span<const uint64_t> values) {
  for (uint64_t v : values) {
    Append(v);
  }
}

std::vector<uint8_t> BitWriter::Finish() && {
  if (bit_width_ > 0) {
    while (pending_bits_ > 0) {
      bytes_.push_back(static_cast<uint8_t>(pending_ & 0xFF));
      pending_ >>= 8;
      pending_bits_ -= 8;
    }
  }
  // Pad so BitReader::Get can always issue a full 64-bit load.
  const size_t padded = bit_util::PackedBytes(count_, bit_width_);
  bytes_.resize(padded, 0);
  return std::move(bytes_);
}

void BitReader::DecodeAll(uint64_t* out) const {
  DecodeRange(0, count_, out);
}

void BitReader::DecodeRange(size_t begin, size_t count,
                            uint64_t* out) const {
  // Thin wrapper over the SIMD kernel layer: per-bit-width specialized
  // 64-value unpackers (AVX2 under runtime dispatch, unrolled scalar
  // otherwise) for widths <= 32, sequential-cursor decode above that.
  simd::UnpackRange(data_, bit_width_, begin, count, out);
}

bool BitReader::AllBelow(uint64_t limit) const {
  if (count_ == 0 || (bit_width_ < 64 && limit >> bit_width_ != 0)) {
    return true;  // Every bit_width_-bit value is below `limit`.
  }
  constexpr size_t kChunk = 1024;  // 8 KB of unpacked values: L1-resident.
  uint64_t values[kChunk];
  for (size_t begin = 0; begin < count_; begin += kChunk) {
    const size_t len = std::min(kChunk, count_ - begin);
    simd::UnpackRange(data_, bit_width_, begin, len, values);
    uint64_t over = 0;
    for (size_t i = 0; i < len; ++i) {
      over |= static_cast<uint64_t>(values[i] >= limit);
    }
    if (over != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace corra
