// Byte-buffer serialization primitives used by the block format.
//
// BufferWriter appends primitive values and byte ranges to a growable
// vector; BufferReader consumes them with strict bounds checking so that a
// corrupted or truncated block is reported as Status::Corruption instead of
// reading out of bounds. SharedBytes is the handle decoded columns keep
// their packed payloads in: a view that shares ownership of the block
// buffer it points into, so loading a block copies no payload.

#ifndef CORRA_COMMON_BUFFER_H_
#define CORRA_COMMON_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace corra {

/// An immutable byte range that shares ownership of the allocation it
/// points into. Copies and slices are cheap (one reference count), and
/// data() never moves, so readers may keep raw pointers into it.
class SharedBytes {
 public:
  SharedBytes() = default;

  /// Takes ownership of `bytes` without copying them.
  explicit SharedBytes(std::vector<uint8_t> bytes);

  /// Allocates a block buffer: `size` uninitialized bytes followed by
  /// bit_util::kDecodePadBytes of zeroed slack. `*writable` receives the
  /// first byte; fill [0, size) before sharing the result.
  static SharedBytes AllocatePadded(size_t size, uint8_t** writable);

  /// A block buffer (see AllocatePadded) holding a copy of `bytes`.
  static SharedBytes CopyPadded(std::span<const uint8_t> bytes);

  const uint8_t* data() const { return data_.get(); }
  size_t size() const { return size_; }
  std::span<const uint8_t> span() const { return {data_.get(), size_}; }

  /// The sub-range [offset, offset + length), sharing ownership.
  SharedBytes Slice(size_t offset, size_t length) const {
    return SharedBytes(std::shared_ptr<const uint8_t>(data_, data() + offset),
                       length);
  }

 private:
  SharedBytes(std::shared_ptr<const uint8_t> data, size_t size)
      : data_(std::move(data)), size_(size) {}

  std::shared_ptr<const uint8_t> data_;  // Aliases the owning allocation.
  size_t size_ = 0;
};

/// Append-only little-endian serializer.
class BufferWriter {
 public:
  BufferWriter() = default;

  /// Appends a fixed-width primitive (integral types only).
  template <typename T>
  void Write(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t old = bytes_.size();
    bytes_.resize(old + sizeof(T));
    std::memcpy(bytes_.data() + old, &value, sizeof(T));
  }

  /// Appends a length-prefixed (uint64) byte blob.
  void WriteBytes(std::span<const uint8_t> data);

  /// Appends a length-prefixed string.
  void WriteString(std::string_view s);

  /// Appends a length-prefixed array of int64 values.
  void WriteInt64Array(std::span<const int64_t> values);

  /// Appends a length-prefixed array of uint32 values.
  void WriteUint32Array(std::span<const uint32_t> values);

  size_t size() const { return bytes_.size(); }

  /// Returns the accumulated bytes, leaving the writer empty.
  std::vector<uint8_t> Finish() && { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Bounds-checked little-endian deserializer over a byte span.
class BufferReader {
 public:
  /// Reads `data` without owning it. Such a reader cannot hand out
  /// payload views: ReadPayload fails.
  explicit BufferReader(std::span<const uint8_t> data) : data_(data) {}

  /// Reads a block buffer made by SharedBytes::AllocatePadded or
  /// CopyPadded. ReadPayload views share its ownership, and its trailing
  /// slack gives every view the decode slack past its end.
  explicit BufferReader(SharedBytes buffer)
      : data_(buffer.span()), owner_(std::move(buffer)) {}

  /// Reads a fixed-width primitive into `out`.
  template <typename T>
  Status Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > data_.size()) {
      return Status::Corruption("buffer truncated reading primitive");
    }
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  /// Reads a length-prefixed blob written by WriteBytes. The returned span
  /// aliases the underlying buffer.
  Status ReadBytes(std::span<const uint8_t>* out);

  /// Reads a length-prefixed packed payload written by WriteBytes as a
  /// view into the owning buffer. Fails with Corruption naming `what`
  /// when the payload is shorter than `min_bytes`. The view is followed
  /// by at least bit_util::kDecodePadBytes readable bytes — neighbouring
  /// block data or the buffer's zeroed slack — which decoders may load
  /// but never interpret.
  Status ReadPayload(size_t min_bytes, const char* what, SharedBytes* out);

  /// Reads a length-prefixed string written by WriteString.
  Status ReadString(std::string* out);

  /// Reads a length-prefixed int64 array written by WriteInt64Array.
  Status ReadInt64Array(std::vector<int64_t>* out);

  /// Reads exactly `count` raw int64 values (no length prefix). Used by
  /// readers that already consumed the length — e.g. format sniffers
  /// that distinguish a legacy array length from an extension marker.
  Status ReadInt64Values(size_t count, std::vector<int64_t>* out);

  /// Reads a length-prefixed uint32 array written by WriteUint32Array.
  Status ReadUint32Array(std::vector<uint32_t>* out);

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  // Validates a length prefix against the remaining bytes.
  Status ReadLength(size_t element_size, size_t* out_count);

  std::span<const uint8_t> data_;
  SharedBytes owner_;  // Empty for a non-owning reader.
  size_t pos_ = 0;
};

}  // namespace corra

#endif  // CORRA_COMMON_BUFFER_H_
