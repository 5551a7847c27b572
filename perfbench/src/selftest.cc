// perfbench_selftest: checks the benchmark's own arithmetic — tail
// percentile selection, span self time, and the correctness checker.
// perfbench/run.py runs it before every measurement; exit code 0 means
// every check held.

#include <cstdio>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAILED: %s\n", what);
    ++g_failures;
  }
}

void TestTailQuantile() {
  // Nearest rank: p99 of 1000 samples is the 990th value, leaving 10
  // beyond it; with 999 samples only 9 lie beyond, so p90 is reported.
  Expect(RankIndex(1000, 0.99) == 989, "p99 rank of 1000");
  Expect(SamplesBeyond(1000, 0.99) == 10, "10 beyond p99 of 1000");
  Expect(TailQuantile(1000) == 0.99, "1000 samples support p99");
  Expect(SamplesBeyond(999, 0.99) == 9, "9 beyond p99 of 999");
  Expect(TailQuantile(999) == 0.90, "999 samples fall back to p90");
  Expect(TailQuantile(100) == 0.90, "100 samples support p90");
  Expect(TailQuantile(99) == 0.50, "99 samples fall back to p50");
  Expect(TailQuantile(5) == 0.50, "tiny samples report p50");
  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) {
    sorted.push_back(i);
  }
  Expect(QuantileSorted(sorted, 0.99) == 990, "p99 of 1..1000 is 990");
  Expect(QuantileSorted(sorted, 0.5) == 500, "p50 of 1..1000 is 500");
  Expect(Median({3, 1, 2}) == 2, "median of three");
  Expect(QuantileSorted({}, 0.5) == 0, "empty sample");
  // Quiet windows: the lower half by steal, ties kept, all if unknown.
  using V = std::vector<size_t>;
  Expect(QuietWindows(std::vector<double>{0.3, 0.0, 0.2, 0.1}) == V{1, 3},
         "quiet half of four windows");
  Expect(QuietWindows(std::vector<double>{0.3, 0.0, 0.2, 0.1, 0.4}) ==
             V{1, 2, 3},
         "quiet half of five rounds up");
  Expect(QuietWindows(std::vector<double>{0.0, 0.0, 0.0, 0.5}) ==
             V{0, 1, 2},
         "windows tied with the quiet half are kept");
  Expect(QuietWindows(std::vector<double>{0.2, -1.0, 0.1}) == V{0, 1, 2},
         "unreported steal keeps every window");
  Expect(QuietWindows(std::vector<double>{}).empty(), "no windows");
}

Span At(uint64_t start, uint64_t end, int32_t parent) {
  return Span{"s", "l", start, end, parent, 0};
}

void TestSelfTime() {
  // Root [0,100) with nested children: A [10,40) holding A1 [20,30),
  // and B [35,60) overlapping A; C [90,120) sticks out of the root.
  const std::vector<Span> spans = {
      At(0, 100, -1),  // 0 root
      At(10, 40, 0),   // 1 A
      At(20, 30, 1),   // 2 A1 (grandchild)
      At(35, 60, 0),   // 3 B, overlaps A on [35,40)
      At(90, 120, 0),  // 4 C, half outside the root
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  // Root covered by [10,60) and [90,100): 50 + 10 = 60 of 100.
  Expect(self[0] == 40, "root self time excludes the union of children");
  Expect(self[1] == 20, "nested child self time excludes grandchild");
  Expect(self[2] == 10, "leaf self time is its duration");
  Expect(self[3] == 25, "overlapping sibling keeps its own duration");
  Expect(self[4] == 30, "child outside the parent keeps its duration");

  // A child entirely inside an earlier one adds no coverage.
  const std::vector<Span> inner = {At(0, 10, -1), At(0, 8, 0), At(2, 4, 0)};
  Expect(SelfTimes(inner)[0] == 2, "contained sibling is not double counted");

  // SpanLog nesting produces the parent links the computation uses.
  SpanLog log;
  {
    SpanScope outer(&log, "outer", "bench", 1);
    SpanScope inner_scope(&log, "inner", "serve", 1);
  }
  log.AddChild("orphan", "storage", 5, 6, 1);
  Expect(log.spans().size() == 3, "three spans recorded");
  Expect(log.spans()[0].parent == -1 && log.spans()[1].parent == 0,
         "scoped spans nest");
  Expect(log.spans()[2].parent == -1, "closed scopes leave no parent");
  Expect(log.spans()[1].end_ns >= log.spans()[1].start_ns,
         "span end after start");
  SpanScope off(nullptr, "untraced", "bench", 1);  // Must not crash.
}

void TestChecker() {
  // Rows [5, 8) match; projected values (a, b) and the summed column.
  const std::vector<int64_t> a = {10, 11, 12};
  const std::vector<int64_t> b = {-1, 0, 7};
  ScanExpectation want{5, 3, 0, 0};
  for (size_t k = 0; k < a.size(); ++k) {
    want.checksum += RowTerm(5 + k, a[k], b[k]);
  }
  want.sum = static_cast<uint64_t>(int64_t{-42});
  Expect(CheckProjection(want, 3, a, b), "correct projection accepted");
  Expect(CheckSum(want, 3, -42), "correct sum accepted");

  std::vector<int64_t> corrupt = a;
  corrupt[1] += 1;
  Expect(!CheckProjection(want, 3, corrupt, b), "corrupted value rejected");
  const std::vector<int64_t> swapped = {11, 10, 12};
  Expect(!CheckProjection(want, 3, swapped, b), "reordered rows rejected");
  Expect(!CheckProjection(want, 2, a, b), "wrong match count rejected");
  Expect(!CheckProjection(want, 3, std::vector<int64_t>{10, 11}, b),
         "short column rejected");
  ScanExpectation shifted = want;
  shifted.first_row = 6;
  Expect(!CheckProjection(shifted, 3, a, b),
         "rows at wrong positions rejected");
  Expect(!CheckSum(want, 3, -41), "corrupted sum rejected");
  Expect(!CheckSum(want, 4, -42), "sum with wrong match count rejected");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestTailQuantile();
  perfbench::TestSelfTime();
  perfbench::TestChecker();
  if (perfbench::g_failures != 0) {
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
