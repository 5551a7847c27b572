// The benchmark's own arithmetic: latency percentiles under the
// ten-samples-beyond rule, span self time, result checksums and the
// metric record. Kept free of workload code so perfbench_selftest can
// check each piece in isolation.

#ifndef CORRA_PERFBENCH_HARNESS_H_
#define CORRA_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- Percentiles -------------------------------------------------------------

/// Nearest-rank index of quantile q in a sorted sample of n values.
inline size_t RankIndex(size_t n, double q) {
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return rank == 0 ? 0 : std::min(rank, n) - 1;
}

/// Samples strictly beyond the nearest-rank q-quantile of n values.
inline size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - 1 - RankIndex(n, q);
}

/// The highest of p99 / p90 / p50 that has at least ten samples beyond
/// it; p50 when even the median has fewer (the caller records n).
inline double TailQuantile(size_t n) {
  for (double q : {0.99, 0.90}) {
    if (SamplesBeyond(n, q) >= 10) {
      return q;
    }
  }
  return 0.50;
}

/// Indices, ascending, of a loop's quiet windows given each window's
/// steal rate (CPU seconds the hypervisor gave to other guests per
/// second): the half with the lowest rates, rounded up, plus every
/// window tied with the highest of them. Every window when any rate is
/// negative (steal not reported).
inline std::vector<size_t> QuietWindows(std::span<const double> steal_rate) {
  std::vector<size_t> all(steal_rate.size());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = i;
  }
  if (all.empty() || *std::min_element(steal_rate.begin(),
                                       steal_rate.end()) < 0) {
    return all;
  }
  std::vector<double> sorted(steal_rate.begin(), steal_rate.end());
  std::sort(sorted.begin(), sorted.end());
  const double limit = sorted[(sorted.size() - 1) / 2];
  std::vector<size_t> quiet;
  for (size_t i : all) {
    if (steal_rate[i] <= limit) {
      quiet.push_back(i);
    }
  }
  return quiet;
}

/// Nearest-rank quantile of an already sorted sample (0 when empty).
inline double QuantileSorted(std::span<const double> sorted, double q) {
  return sorted.empty() ? 0.0 : sorted[RankIndex(sorted.size(), q)];
}

inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, 0.5);
}

// --- Spans -------------------------------------------------------------------

/// One timed call into a layer, recorded by the benchmark around the
/// call. `parent` indexes the same SpanLog (-1 for a root span).
struct Span {
  const char* name = "";
  const char* layer = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

/// In-memory span sink of one thread. A null SpanLog* means tracing is
/// off: SpanScope then reads no clock and records nothing.
class SpanLog {
 public:
  int32_t Open(const char* name, const char* layer, uint64_t request) {
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, layer, NowNs(), 0, parent, request});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void Close(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }
  /// Records an already timed child of the innermost open span, e.g. the
  /// loader time a GetBlock call reports through BlockFetchStats.
  void AddChild(const char* name, const char* layer, uint64_t start_ns,
                uint64_t end_ns, uint64_t request) {
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, layer, start_ns, end_ns, parent, request});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, const char* layer,
            uint64_t request)
      : log_(log), index_(log ? log->Open(name, layer, request) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) {
      log_->Close(index_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

/// Self time of every span: its duration minus the part of it covered
/// by the union of its children's intervals (children may overlap each
/// other or stick out of the parent; only the covered part counts).
inline std::vector<uint64_t> SelfTimes(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t lo = spans[i].start_ns;
    const uint64_t hi = std::max(spans[i].end_ns, lo);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = lo;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = hi - lo - covered;
  }
  return self;
}

// --- Result checksums --------------------------------------------------------

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Order-sensitive checksum term of one projected row: the row's global
/// position and both projected values. Results are checked by summing
/// the terms (wrap-around), which a prefix-sum array answers for any
/// contiguous row range in O(1).
inline uint64_t RowTerm(uint64_t row, int64_t a, int64_t b) {
  return Mix64(row * 0x9E3779B97F4A7C15ull ^
               Mix64(static_cast<uint64_t>(a) + 0x632BE59BD9B4E019ull) ^
               (static_cast<uint64_t>(b) << 1));
}

/// What a range-filter scan over a table sorted on the filter column
/// must return: the matching rows are exactly [first_row, first_row +
/// count).
struct ScanExpectation {
  uint64_t first_row = 0;
  uint64_t count = 0;
  uint64_t sum = 0;       // Wrap-around sum of the aggregated column.
  uint64_t checksum = 0;  // Sum of RowTerm over the projected columns.
};

/// Checks a projected answer (two columns, in row order) against the
/// expectation. Returns false on any difference.
inline bool CheckProjection(const ScanExpectation& want, uint64_t matched,
                            std::span<const int64_t> a,
                            std::span<const int64_t> b) {
  if (matched != want.count || a.size() != want.count ||
      b.size() != want.count) {
    return false;
  }
  uint64_t checksum = 0;
  for (size_t k = 0; k < a.size(); ++k) {
    checksum += RowTerm(want.first_row + k, a[k], b[k]);
  }
  return checksum == want.checksum;
}

inline bool CheckSum(const ScanExpectation& want, uint64_t matched,
                     int64_t sum) {
  return matched == want.count && static_cast<uint64_t>(sum) == want.sum;
}

// --- Metric records ----------------------------------------------------------

/// One self-describing measurement. `moves` names the end-to-end metric
/// and workload a per-layer metric is expected to move; `samples` is 0
/// when the metric does not apply to the workload (value then 0).
struct Record {
  std::string name;
  std::string layer;
  std::string unit;
  std::string better;
  double value = 0;
  uint64_t samples = 0;
  std::string moves;
};

}  // namespace perfbench

#endif  // CORRA_PERFBENCH_HARNESS_H_
