// Delta encoding with checkpoints.
//
// Each value is stored as the zig-zag difference to its predecessor;
// absolute values are checkpointed every `checkpoint_interval` rows so
// random access costs at most one checkpoint plus a bounded replay. The
// paper excludes Delta from its baseline precisely because of this
// checkpoint cost — implementing it lets the scheme selector demonstrate
// that choice instead of asserting it.
//
// Two physical layouts (see DeltaLayout):
//
//  * kPacked (default): one contiguous bit-packed delta stream plus an
//    out-of-band checkpoint array. Dense scans are one checkpoint seek
//    plus a single fused unpack+zigzag+prefix-sum kernel sweep over the
//    stream (simd::DeltaDecodePacked) — the layout analytic workloads
//    want.
//  * kInline: the absolute checkpoint value is interleaved *into* the
//    stream at the head of each interval's packed window (fixed window
//    stride, bit offsets realigned per window — see the layout contract
//    in common/simd/simd.h). Point access and sparse gathers touch one
//    contiguous window instead of checkpoint-array + stream — two
//    dependent cache lines become one — which is the whole remaining
//    fixed cost of kPacked point access. The price: dense decodes must
//    re-anchor once per interval, and the stride padding costs a little
//    space. Point-heavy serving workloads pick this layout through the
//    selector's WorkloadHint.
//
// Sparse decode: DecodeRange is one checkpoint seek plus fused
// unpack+zigzag+prefix-sum kernel calls (simd::DeltaDecodePacked); Get
// is one nearest-checkpoint fixed-trip masked fold (simd::
// DeltaPointPacked / simd::DeltaPointInline); GatherRange splits by
// selection density between fused window reconstruction and a batched
// running-cursor kernel (simd::DeltaGatherPacked / DeltaGatherInline).
// No path materializes a packed window or bottoms out in per-delta bit
// fetches.

#ifndef CORRA_ENCODING_DELTA_H_
#define CORRA_ENCODING_DELTA_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bit_stream.h"
#include "common/simd/simd.h"
#include "encoding/encoded_column.h"

namespace corra::enc {

/// Physical layout of the checkpoint index (see file comment).
enum class DeltaLayout : uint8_t {
  /// Out-of-band checkpoint array + one contiguous packed stream.
  kPacked,
  /// Checkpoints interleaved at the head of each interval's window.
  kInline,
};

class DeltaColumn final : public EncodedColumn {
 public:
  /// Default rows between consecutive absolute-value checkpoints.
  ///
  /// Space/point-latency trade-off: each checkpoint costs 8 bytes, so
  /// the metadata overhead is 64 / interval bits per row, while point
  /// access replays at most interval / 2 deltas (Get seeks from the
  /// nearest checkpoint in either direction — expected replay is
  /// interval / 4, folded by the fixed-trip masked SIMD kernel). Both
  /// dimensions, measured at 1M rows of 13-bit deltas on the AVX2 dev
  /// box (random point accesses; total column size incl. checkpoints;
  /// kPacked layout):
  ///
  ///   interval   overhead      point access   column size
  ///        32    2.0  bit/row   ~16 ns/row    1.97 MB  <- default
  ///        64    1.0  bit/row   ~21 ns/row    1.84 MB
  ///       128    0.5  bit/row   ~38 ns/row    1.77 MB
  ///       256    0.25 bit/row   ~64 ns/row    1.74 MB
  ///      1024    0.06 bit/row  ~234 ns/row    1.71 MB
  ///
  /// 32 is the densified default: point latency is dominated by the
  /// fixed per-access cost (dispatch, two L2 lines, fold prologue) at an
  /// 8-delta expected replay, so a denser index would buy nothing,
  /// while each doubling of the interval adds the full marginal fold
  /// cost. The price is ~2 bits/row of metadata (+15% on a 13-bit-delta
  /// column) — columns that are only ever scanned (DecodeRange
  /// amortizes one seek per range) should pass a larger interval to
  /// Encode and reclaim that space.
  ///
  /// The kInline layout ladder (13-bit deltas, same box; stride is the
  /// fixed per-window byte count, one window per interval; point access
  /// quoted L2-resident at 64K rows / out-of-cache at 1M rows):
  ///
  ///   interval   stride   bytes/row   point access
  ///        16     40 B      2.50       ~9.9 / ~14.8 ns   <- inline default
  ///        32     64 B      2.00      ~12.5 / ~17   ns
  ///        64    112 B      1.75      ~17   / ~22   ns
  ///
  /// The inline default is 16: the whole point of the layout is
  /// single-window point latency, so it spends space on a denser index
  /// (the masked fold halves to a 2-iteration 8-slot half-window, and
  /// window + anchor stay well inside one cache line). For comparison,
  /// kPacked at its default interval measures ~15-17 ns point access at
  /// either row count — the out-of-band checkpoint array costs a second
  /// dependent cache line that the inline window folds away. Dense
  /// DecodeRange re-anchors once per interval (~1.2 vs ~0.5 ns/row),
  /// which is why the selector only picks kInline under
  /// WorkloadHint::kPointServing.
  static constexpr size_t kDefaultCheckpointInterval = 32;
  static constexpr size_t kDefaultInlineCheckpointInterval = 16;

  /// The default interval for `layout` — the one place the
  /// layout-to-default mapping lives, so encoders and size estimators
  /// can never disagree on it.
  static constexpr size_t DefaultIntervalFor(DeltaLayout layout) {
    return layout == DeltaLayout::kInline ? kDefaultInlineCheckpointInterval
                                          : kDefaultCheckpointInterval;
  }

  /// Bounds on configurable intervals. Intervals must be powers of two
  /// so the per-access checkpoint mapping stays a shift (a runtime
  /// division would cost more than the replay it locates), and at most
  /// one morsel so reconstruction windows stay L1-sized. The minimum
  /// dropped from 32 to 16 alongside the inline layout (both layouts
  /// accept it; the packed ladder simply never profits from 16).
  static constexpr size_t kMinCheckpointInterval = 16;
  static constexpr size_t kMaxCheckpointInterval = kMorselRows;

  /// Encodes `values` with a checkpoint every `checkpoint_interval` rows
  /// (see kDefaultCheckpointInterval for the trade-off) under the given
  /// physical layout. The interval must be a power of two in
  /// [kMinCheckpointInterval, kMaxCheckpointInterval].
  static Result<std::unique_ptr<DeltaColumn>> Encode(
      std::span<const int64_t> values,
      size_t checkpoint_interval = kDefaultCheckpointInterval,
      DeltaLayout layout = DeltaLayout::kPacked);

  /// Compressed size estimate (deltas + checkpoints; for kInline, the
  /// stride-padded window array).
  static size_t EstimateSizeBytes(
      std::span<const int64_t> values,
      size_t checkpoint_interval = kDefaultCheckpointInterval,
      DeltaLayout layout = DeltaLayout::kPacked);

  static Result<std::unique_ptr<DeltaColumn>> Deserialize(
      BufferReader* reader);

  Scheme scheme() const override { return Scheme::kDelta; }
  size_t size() const override { return count_; }
  size_t SizeBytes() const override;
  int64_t Get(size_t row) const override;
  void GatherRange(std::span<const uint32_t> rows,
                   int64_t* out) const override;
  void DecodeAll(int64_t* out) const override;
  void DecodeRange(size_t row_begin, size_t count,
                   int64_t* out) const override;
  void Serialize(BufferWriter* writer) const override;

  int bit_width() const { return bit_width_; }
  size_t checkpoint_interval() const { return interval_; }
  DeltaLayout layout() const { return layout_; }

 private:
  DeltaColumn(std::vector<int64_t> checkpoints, SharedBytes bytes,
              int bit_width, size_t count, size_t interval,
              DeltaLayout layout);

  // The logical value at `row`, replaying from the nearest checkpoint
  // with an aligned bulk unpack + SIMD zig-zag fold.
  int64_t SeekValue(size_t row) const;

  // Start of window k's delta-slot region (kInline only).
  const uint8_t* WindowDeltas(size_t k) const {
    return bytes_.data() + k * window_stride_ + 8;
  }
  // Inline checkpoint value at the head of window k (kInline only).
  int64_t InlineCheckpoint(size_t k) const;

  std::vector<int64_t> checkpoints_;  // kPacked: absolute value at row
                                      // k*interval. Empty for kInline.
  SharedBytes bytes_;  // kPacked: zig-zag deltas, bit-packed.
                       // kInline: fixed-stride windows.
  int bit_width_ = 0;
  size_t count_ = 0;
  size_t interval_ = kDefaultCheckpointInterval;
  // log2(interval_): the per-access checkpoint mapping is a shift. There
  // is exactly one derivation — the constructor computes it from
  // `interval_` — so no construction path (legacy deserialization,
  // non-default Encode intervals, the inline layout) can ever pair an
  // interval with a stale shift and silently map rows to the wrong
  // checkpoint.
  int interval_shift_;
  DeltaLayout layout_ = DeltaLayout::kPacked;
  size_t window_stride_ = 0;  // Bytes per inline window (0 for kPacked).
  // Point-kernel pointers resolved once at construction: Get is the one
  // per-row hot path, so it skips the dispatch wrapper entirely. Only
  // the active layout's pointer is ever called.
  simd::DeltaPointFn point_kernel_ = nullptr;
  simd::DeltaPointInlineFn inline_point_kernel_ = nullptr;
};

}  // namespace corra::enc

#endif  // CORRA_ENCODING_DELTA_H_
