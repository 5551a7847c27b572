#include "workloads.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <span>
#include <thread>

#include "core/corra_compressor.h"
#include "datagen/dmv.h"
#include "datagen/ldbc.h"
#include "datagen/taxi.h"
#include "datagen/tpch.h"
#include "obs/metrics.h"
#include "query/filter.h"
#include "query/scan.h"
#include "serve/scan_service.h"
#include "storage/file_io.h"

namespace perfbench {
namespace {

using corra::CompressedTable;
using corra::CompressionPlan;
using corra::CorraCompressor;
using corra::Table;
using corra::datagen::TaxiColumns;

// --- Sizes -------------------------------------------------------------------
//
// Chosen so that one run (three set-ups plus the measured phase) stays
// well inside a minute on a 4-core VM; README.md records them.

// ingest: the four paper tables. Blocks of 250k rows (not the paper's
// 1M) give every table several blocks, so plan.num_threads = nproc has
// blocks to spread; the taxi table, whose compress is the slow one,
// then splits into four.
constexpr size_t kIngestBlockRows = 250'000;
constexpr size_t kIngestLineitemRows = 2'000'000;
constexpr size_t kIngestTaxiRows = 1'000'000;
constexpr size_t kIngestDmvRows = 1'000'000;
constexpr size_t kIngestLdbcRows = 2'000'000;

// scan-hot / scan-cold: the pickup-sorted taxi table, 32 blocks.
constexpr size_t kScanRows = 4'000'000;
constexpr size_t kScanBlockRows = 125'000;
constexpr size_t kScanClients = 2;
constexpr size_t kColdCacheBlocks = 2;
constexpr int64_t kDaySeconds = 86'400;
constexpr int64_t kMinWindow = kDaySeconds;        // 1 day
constexpr int64_t kMaxWindow = 91 * kDaySeconds;   // 1 quarter
constexpr size_t kWindowStrata = 64;

// point-gather: lineitem dates, point-serving layout, 32 blocks.
constexpr size_t kGatherRows = 4'000'000;
constexpr size_t kGatherBlockRows = 125'000;
constexpr size_t kGatherPositions = 128;
constexpr double kZipfS = 1.0;

constexpr int kSetupRepeats = 3;
// Unmeasured closed-loop load after set-up, so one-time costs of the
// first requests (allocator growth, lazily built state) go unmeasured.
constexpr double kWarmupSeconds = 1.0;
constexpr int kProbeRounds = 3;

// --- Small utilities ---------------------------------------------------------

struct Rng {
  uint64_t state;
  uint64_t Next() { return Mix64(state += 0x9E3779B97F4A7C15ull); }
  double Uniform() {  // [0, 1)
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

Rng RngFor(uint64_t seed, uint64_t stream, uint64_t index) {
  return Rng{Mix64(seed * 0xD1B54A32D192ED03ull ^ Mix64(stream + 1) ^
                   Mix64(index * 0x8CB92BA72F3D8DD7ull + 7))};
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Micros(uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

[[noreturn]] void Die(const std::string& what, const corra::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.message().c_str());
  std::exit(1);
}

template <typename T>
T Must(corra::Result<T> result, const std::string& what) {
  if (!result.ok()) {
    Die(what, result.status());
  }
  return std::move(result).value();
}

void MustOk(const corra::Status& status, const std::string& what) {
  if (!status.ok()) {
    Die(what, status);
  }
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Resets the kernel's peak-RSS mark to the current RSS (Linux
// /proc/self/clear_refs, value 5). Returns false where unsupported, in
// which case VmHWM keeps counting from process start.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

// CPU time the hypervisor gave to other guests while this machine's
// CPUs wanted to run (the `steal` column of the `cpu` line of
// /proc/stat), summed over all CPUs, in seconds; -1 where unsupported.
double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
           softirq = 0, steal = 0;
  if (!(in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal) ||
      cpu != "cpu") {
    return -1;
  }
  return static_cast<double>(steal) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Median of `kSetupRepeats` runs of `setup`; the state of the last run
// is what the workload then measures. Memory the set-ups freed is handed
// back to the OS before the measured phase.
double TimedSetups(const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const uint64_t t0 = NowNs();
    setup();
    seconds.push_back(Seconds(NowNs() - t0));
  }
  malloc_trim(0);
  return Median(seconds);
}

// --- Plans (the ones bench/bench_table2_compression.cc evaluates) ------------

CompressionPlan LineitemPlan() {
  CompressionPlan plan = CompressionPlan::AllAuto(4);
  for (size_t target : {size_t{2}, size_t{3}}) {  // commit, receipt
    plan.columns[target].auto_vertical = false;
    plan.columns[target].scheme = corra::enc::Scheme::kDiff;
    plan.columns[target].reference = 1;  // l_shipdate
  }
  return plan;
}

CompressionPlan TaxiPlan() {
  using C = TaxiColumns;
  CompressionPlan plan = CompressionPlan::AllAuto(11);
  plan.columns[C::kDropoff].auto_vertical = false;
  plan.columns[C::kDropoff].scheme = corra::enc::Scheme::kDiff;
  plan.columns[C::kDropoff].reference = C::kPickup;
  auto& total = plan.columns[C::kTotalAmount];
  total.auto_vertical = false;
  total.scheme = corra::enc::Scheme::kMultiRef;
  total.formulas.groups = {
      {C::kMtaTax, C::kFareAmount, C::kImprovementSurcharge, C::kExtra,
       C::kTipAmount, C::kTollsAmount},
      {C::kCongestionSurcharge},
      {C::kAirportFee}};
  total.formulas.formulas = {0b001, 0b011, 0b101, 0b111};
  total.formulas.code_bits = 2;
  total.max_outlier_fraction = 0.02;
  return plan;
}

CompressionPlan DmvPlan() {
  CompressionPlan plan = CompressionPlan::AllAuto(3);
  plan.columns[1].auto_vertical = false;  // city w.r.t. state
  plan.columns[1].scheme = corra::enc::Scheme::kHierarchical;
  plan.columns[1].reference = 0;
  plan.columns[2].auto_vertical = false;  // zip w.r.t. city
  plan.columns[2].scheme = corra::enc::Scheme::kHierarchical;
  plan.columns[2].reference = 1;
  return plan;
}

CompressionPlan LdbcPlan() {
  CompressionPlan plan = CompressionPlan::AllAuto(2);
  plan.columns[1].auto_vertical = false;
  plan.columns[1].scheme = corra::enc::Scheme::kHierarchical;
  plan.columns[1].reference = 0;
  return plan;
}

// --- Metric catalog ----------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string layer;
  std::string unit;
  std::string better;
  std::string moves;
};

const std::vector<MetricDef>& EndToEndCatalog() {
  static const std::vector<MetricDef> defs = {
      {"ops_s", "e2e", "1/s", "higher", ""},
      {"mrows_s", "e2e", "Mrows/s", "higher", ""},
      {"op_p50_us", "e2e", "us", "lower", ""},
      {"op_tail_us", "e2e", "us", "lower", ""},
      {"bytes_per_value", "e2e", "B", "lower", ""},
      {"peak_rss_mb", "e2e", "MB", "lower", ""},
      {"setup_s", "e2e", "s", "lower", ""},
      {"failed_frac", "e2e", "fraction", "lower", ""},
  };
  return defs;
}

struct PaperColumn {
  const char* table;
  const char* column;
  bool horizontal;  // One of the paper's Table 2 columns.
};

// The 20 columns of the four ingest tables, in generator order.
constexpr PaperColumn kPaperColumns[] = {
    {"lineitem", "l_orderdate", false},
    {"lineitem", "l_shipdate", false},
    {"lineitem", "l_commitdate", true},
    {"lineitem", "l_receiptdate", true},
    {"taxi", "pickup", false},
    {"taxi", "dropoff", true},
    {"taxi", "mta_tax", false},
    {"taxi", "fare_amount", false},
    {"taxi", "improvement_surcharge", false},
    {"taxi", "extra", false},
    {"taxi", "tip_amount", false},
    {"taxi", "tolls_amount", false},
    {"taxi", "congestion_surcharge", false},
    {"taxi", "airport_fee", false},
    {"taxi", "total_amount", true},
    {"dmv", "state", false},
    {"dmv", "city", true},
    {"dmv", "zip_code", true},
    {"ldbc", "countryid", false},
    {"ldbc", "ip", true},
};

std::string BytesPerValueName(const PaperColumn& c) {
  return std::string("encoding.bytes_per_value.") + c.table + "." + c.column;
}
std::string SavingName(const PaperColumn& c) {
  return std::string("core.saving.") + c.table + "." + c.column;
}

const std::vector<MetricDef>& PerLayerCatalog() {
  static const std::vector<MetricDef> defs = [] {
    const std::string cold_p50 = "op_p50_us@scan-cold";
    const std::string cold_ops = "ops_s@scan-cold";
    const std::string hot_ops = "ops_s@scan-hot";
    const std::string gather_p50 = "op_p50_us@point-gather";
    const std::string gather_tail = "op_tail_us@point-gather";
    const std::string ingest = "mrows_s@ingest";
    std::vector<MetricDef> d = {
        {"core.compress_s", "core", "s", "lower", ingest},
        {"storage.write_s", "storage", "s", "lower", ingest},
        {"storage.open_us", "storage", "us", "lower", "setup_s@all"},
        {"serve.pin_hit_us", "serve", "us", "lower",
         cold_p50 + " (flat @scan-hot)"},
        {"serve.pin_miss_us", "serve", "us", "lower",
         cold_p50 + " (flat @scan-hot)"},
        {"serve.cache_hit_ratio", "serve", "fraction", "higher", cold_ops},
        {"serve.cache_misses_per_op", "serve", "count", "lower", cold_ops},
        {"serve.cache_evictions_per_op", "serve", "count", "lower",
         cold_ops},
        {"serve.load_waits_per_op", "serve", "count", "lower", cold_ops},
        {"serve.prefetch_issued_per_op", "serve", "count", "lower",
         cold_ops},
        {"serve.blocks_touched_per_op", "serve", "count", "lower",
         "ops_s@scan-hot,scan-cold"},
        {"serve.prune_ratio", "serve", "fraction", "higher",
         "ops_s@scan-hot,scan-cold"},
        {"serve.fanout_gap_us", "serve", "us", "lower",
         gather_p50 + "; " + hot_ops},
        {"serve.coalesce_share", "serve", "fraction", "higher",
         gather_tail},
        {"serve.rejected_per_op", "serve", "count", "lower", gather_tail},
        {"storage.pread_us_per_mb", "storage", "us/MB", "lower", cold_p50},
        {"storage.deserialize_us_per_mb", "storage", "us/MB", "lower",
         cold_p50},
        {"storage.verify_us_per_mb", "storage", "us/MB", "lower",
         cold_p50},
        {"storage.read_bytes_per_op", "storage", "B", "lower", cold_p50},
        {"storage.read_retries", "storage", "count", "lower", cold_p50},
        {"query.filter_ns_per_row", "query", "ns/row", "lower", hot_ops},
        {"query.decode_ns_per_row", "query", "ns/row", "lower", hot_ops},
        {"query.aggregate_ns_per_row", "query", "ns/row", "lower",
         hot_ops},
        {"query.gather_ns_per_row", "query", "ns/row", "lower",
         gather_p50},
        {"query.filter_rows_per_op", "query", "rows", "lower", hot_ops},
        {"query.decode_rows_per_op", "query", "rows", "lower", hot_ops},
        {"query.gather_rows_per_op", "query", "rows", "lower",
         gather_p50},
        {"query.match_ratio", "query", "fraction", "higher", hot_ops},
        {"bench.self_us_per_op", "bench", "us", "lower", "none"},
        {"core.self_us_per_op", "core", "us", "lower", ingest},
        {"storage.self_us_per_op", "storage", "us", "lower",
         ingest + "; " + cold_p50},
        {"serve.self_us_per_op", "serve", "us", "lower",
         gather_p50 + "; " + cold_p50},
        {"query.self_us_per_op", "query", "us", "lower",
         hot_ops + "; " + gather_p50},
        {"bench.trace_overhead_frac", "bench", "fraction", "lower",
         "none (cost of the benchmark's own spans)"},
    };
    for (const PaperColumn& c : kPaperColumns) {
      d.push_back({BytesPerValueName(c), "encoding", "B", "lower",
                   "bytes_per_value@ingest"});
    }
    for (const PaperColumn& c : kPaperColumns) {
      if (c.horizontal) {
        d.push_back({SavingName(c), "core", "fraction", "higher",
                     "bytes_per_value@ingest"});
      }
    }
    return d;
  }();
  return defs;
}

// Measured values by metric name; a metric never set is reported as
// not applicable (value 0, samples 0).
struct Measured {
  std::map<std::string, std::pair<double, uint64_t>> values;
  void Set(const std::string& name, double value, uint64_t samples) {
    values[name] = {value, samples};
  }
};

void Emit(const std::vector<MetricDef>& catalog, const Measured& measured,
          Outcome* out) {
  for (const MetricDef& def : catalog) {
    const auto it = measured.values.find(def.name);
    Record r{def.name, def.layer, def.unit, def.better, 0, 0, def.moves};
    if (it != measured.values.end()) {
      r.value = it->second.first;
      r.samples = it->second.second;
    }
    out->records.push_back(std::move(r));
  }
}

// --- Closed loop -------------------------------------------------------------

struct OpStat {
  bool ok = false;
  uint64_t rows = 0;        // Rows of useful work (see README: mrows_s).
  uint64_t latency_ns = 0;  // The call into the system under test only.
};

// Runs one operation of client `client`; `index` numbers the client's
// requests across all phases so every phase sees fresh requests.
using OpFn = std::function<OpStat(size_t client, uint64_t index,
                                  SpanLog* log)>;

// One stretch of a measured loop: a whole 1-second window of a closed
// loop, or one ingest pass.
struct Window {
  std::vector<double> latencies_us;
  double ops = 0;
  double rows = 0;
  double seconds = 0;
  double steal_s = -1;  // -1 where the kernel does not report steal.
};

struct LoopResult {
  std::vector<double> latencies_us;
  std::vector<Window> windows;
  bool pass_windows = false;  // Each window is one operation (ingest).
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t rows = 0;
  double wall_s = 0;
  double peak_rss_mb = 0;  // Read before the per-client samples merge.
};

// `clients` threads, each issuing its next request only after the
// previous one returned, until `seconds` have passed. `reserve` latency
// slots are allocated per client up front, so the loop's own
// bookkeeping grows RSS smoothly instead of in reallocation steps.
LoopResult ClosedLoop(size_t clients, double seconds, const OpFn& op,
                      std::vector<uint64_t>* next_index,
                      std::vector<SpanLog>* logs, size_t reserve = 0) {
  const size_t windows = static_cast<size_t>(std::ceil(seconds)) + 1;
  struct ClientResult {
    std::vector<double> latencies_us;
    std::vector<uint64_t> per_second;
    std::vector<uint64_t> rows_per_second;
    uint64_t failed = 0;
    uint64_t rows = 0;
    uint64_t end_ns = 0;
  };
  std::vector<ClientResult> results(clients);
  for (ClientResult& r : results) {
    r.latencies_us.reserve(reserve);
    r.per_second.assign(windows, 0);
    r.rows_per_second.assign(windows, 0);
  }
  std::atomic<bool> go{false};
  std::atomic<uint64_t> start_ns{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const uint64_t start = start_ns.load();
      const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
      SpanLog* log = logs != nullptr ? &(*logs)[c] : nullptr;
      ClientResult& r = results[c];
      uint64_t& index = (*next_index)[c];
      uint64_t now = NowNs();
      while (now < deadline) {
        const OpStat s = op(c, index++, log);
        now = NowNs();
        r.latencies_us.push_back(Micros(s.latency_ns));
        const size_t window =
            std::min<size_t>((now - start) / 1'000'000'000, windows - 1);
        r.per_second[window]++;
        r.rows_per_second[window] += s.rows;
        r.rows += s.rows;
        r.failed += s.ok ? 0 : 1;
      }
      r.end_ns = now;
    });
  }
  const auto whole = static_cast<size_t>(seconds);
  std::vector<double> steal_marks = {StealSeconds()};
  start_ns.store(NowNs());
  go.store(true, std::memory_order_release);
  // This thread only waits, so it samples steal at each window boundary.
  for (size_t i = 1; i <= whole && steal_marks.front() >= 0; ++i) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
            start_ns.load() + i * uint64_t{1'000'000'000})));
    steal_marks.push_back(StealSeconds());
  }
  for (std::thread& t : threads) {
    t.join();
  }
  LoopResult out;
  out.peak_rss_mb = PeakRssMb();
  // Only whole windows count; the last one is cut by the deadline.
  out.windows.resize(whole);
  for (size_t i = 0; i < whole; ++i) {
    out.windows[i].seconds = 1.0;
    if (i + 1 < steal_marks.size()) {
      out.windows[i].steal_s = steal_marks[i + 1] - steal_marks[i];
    }
  }
  uint64_t end_ns = start_ns.load();
  for (ClientResult& r : results) {
    out.latencies_us.insert(out.latencies_us.end(), r.latencies_us.begin(),
                            r.latencies_us.end());
    // A client's latencies are in completion order, so window i is the
    // slice after the completions of windows 0..i-1.
    auto begin = r.latencies_us.begin();
    for (size_t i = 0; i < whole; ++i) {
      Window& w = out.windows[i];
      w.ops += static_cast<double>(r.per_second[i]);
      w.rows += static_cast<double>(r.rows_per_second[i]);
      const auto end = begin + static_cast<std::ptrdiff_t>(r.per_second[i]);
      w.latencies_us.insert(w.latencies_us.end(), begin, end);
      begin = end;
    }
    out.failed += r.failed;
    out.rows += r.rows;
    end_ns = std::max(end_ns, r.end_ns);
  }
  out.ops = out.latencies_us.size();
  out.wall_s = Seconds(end_ns - start_ns.load());
  return out;
}

// Numbers joined by spaces, for the run's parameters.
std::string Join(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

// End-to-end metrics of a measured loop, taken over its quiet windows:
// the half of its windows in which the hypervisor stole the least CPU
// time from this machine (QuietWindows), so a neighbour's burst moves
// them less. Throughput is the median over those windows. Ingest passes
// (about half a second each) are windows of one operation; ingest
// reports the rate of the median quiet pass instead.
void SetLoopMetrics(const LoopResult& loop, double bytes_per_value,
                    double setup_s, Measured* m, Outcome* out) {
  const size_t num_windows = loop.windows.size();
  std::vector<double> steal_rates, all_ops, all_steal;
  for (const Window& w : loop.windows) {
    steal_rates.push_back(w.steal_s < 0 ? -1.0 : w.steal_s / w.seconds);
    all_ops.push_back(w.ops);
    all_steal.push_back(w.steal_s);
  }
  const std::vector<size_t> quiet = QuietWindows(steal_rates);
  std::vector<double> latencies_us, ops, rows;
  for (size_t i : quiet) {
    const Window& w = loop.windows[i];
    latencies_us.insert(latencies_us.end(), w.latencies_us.begin(),
                        w.latencies_us.end());
    ops.push_back(w.ops);
    rows.push_back(w.rows);
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  const size_t n = latencies_us.size();
  const double tail_q = TailQuantile(n);
  // Where every quiet window supports the tail quantile on its own
  // (point-gather), p50 and tail are taken per window and their medians
  // over the quiet windows stand for the run, so one window of
  // interference among the quiet ones moves them little. Elsewhere they
  // are quantiles of the quiet windows' pooled operations.
  bool per_window = !loop.pass_windows && !quiet.empty();
  for (size_t i : quiet) {
    per_window = per_window &&
                 SamplesBeyond(loop.windows[i].latencies_us.size(), tail_q) >=
                     10;
  }
  std::vector<double> window_p50(num_windows), window_tail(num_windows);
  std::vector<double> quiet_p50, quiet_tail;
  if (per_window) {
    for (size_t i = 0; i < num_windows; ++i) {
      std::vector<double> sorted = loop.windows[i].latencies_us;
      std::sort(sorted.begin(), sorted.end());
      window_p50[i] = QuantileSorted(sorted, 0.5);
      window_tail[i] = QuantileSorted(sorted, tail_q);
    }
    for (size_t i : quiet) {
      quiet_p50.push_back(window_p50[i]);
      quiet_tail.push_back(window_tail[i]);
    }
  }
  const double p50_us = per_window ? Median(quiet_p50)
                                   : QuantileSorted(latencies_us, 0.5);
  const double tail_us = per_window ? Median(quiet_tail)
                                    : QuantileSorted(latencies_us, tail_q);
  if (!loop.pass_windows) {
    m->Set("ops_s", Median(ops), ops.size());
    m->Set("mrows_s", Median(rows) / 1e6, rows.size());
  } else {
    const double rows_per_op =
        static_cast<double>(loop.rows) / static_cast<double>(loop.ops);
    m->Set("ops_s", 1e6 / p50_us, n);
    m->Set("mrows_s", rows_per_op / p50_us, n);
  }
  m->Set("op_p50_us", p50_us, n);
  m->Set("op_tail_us", tail_us, n);
  m->Set("bytes_per_value", bytes_per_value, 1);
  m->Set("peak_rss_mb", loop.peak_rss_mb, 1);
  m->Set("setup_s", setup_s, kSetupRepeats);
  const size_t all = loop.latencies_us.size();
  m->Set("failed_frac",
         all == 0 ? 1.0
                  : static_cast<double>(loop.failed) / static_cast<double>(all),
         all);
  const std::string unit = loop.pass_windows ? "pass" : "1s_window";
  if (!loop.pass_windows) {
    out->params["ops_per_" + unit] = Join(all_ops);
  }
  out->params["steal_s_per_" + unit] =
      !steal_rates.empty() && steal_rates.front() < 0 ? "unsupported"
                                                      : Join(all_steal);
  std::vector<double> quiet_indices(quiet.begin(), quiet.end());
  out->params["quiet_windows"] = Join(quiet_indices);
  out->params["op_quantiles_taken_as"] =
      per_window ? "median over quiet windows of each window's quantile"
                 : "quantile of the quiet windows' pooled operations";
  if (per_window) {
    out->params["op_p50_us_per_" + unit] = Join(window_p50);
    out->params["op_tail_us_per_" + unit] = Join(window_tail);
  }
  out->params["op_tail_quantile"] = std::to_string(tail_q);
  out->params["op_samples"] = std::to_string(n);
  out->params["op_samples_beyond_tail"] =
      std::to_string(SamplesBeyond(n, tail_q));
}

// --- Traced-run helpers ------------------------------------------------------

std::map<std::string, uint64_t> CounterSnapshot() {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] :
       corra::obs::Registry::Default().Snapshot().counters) {
    out[name] = value;
  }
  return out;
}

// Growth of every counter whose name starts with `prefix` (label
// variants such as query.decode_rows{scheme="FOR"} are summed).
uint64_t CounterDelta(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      const std::string& prefix) {
  uint64_t delta = 0;
  for (const auto& [name, value] : after) {
    if (name.rfind(prefix, 0) != 0) {
      continue;
    }
    const auto it = before.find(name);
    delta += value - (it == before.end() ? 0 : it->second);
  }
  return delta;
}

double PerOp(uint64_t count, uint64_t ops) {
  return ops == 0 ? 0.0
                  : static_cast<double>(count) / static_cast<double>(ops);
}

// Times the storage layer's read path block by block: pread
// (ReadBlockBytes), Block::Deserialize of those bytes, and a verified
// ReadBlock, whose excess over the first two is the verification cost.
void ProbeStorage(const std::vector<std::string>& paths, Measured* m) {
  std::vector<double> pread, deser, verify;
  for (int round = 0; round < kProbeRounds; ++round) {
    uint64_t bytes = 0, pread_ns = 0, deser_ns = 0, verified_ns = 0;
    for (const std::string& path : paths) {
      corra::CorfFile file = Must(corra::CorfFile::Open(path), "open " + path);
      for (size_t b = 0; b < file.num_blocks(); ++b) {
        const uint64_t t0 = NowNs();
        std::vector<uint8_t> raw = Must(file.ReadBlockBytes(b), "pread");
        const uint64_t t1 = NowNs();
        corra::Block block =
            Must(corra::Block::Deserialize(raw, false), "deserialize");
        const uint64_t t2 = NowNs();
        corra::Block verified = Must(file.ReadBlock(b, true), "read verified");
        const uint64_t t3 = NowNs();
        bytes += raw.size();
        pread_ns += t1 - t0;
        deser_ns += t2 - t1;
        verified_ns += t3 - t2;
      }
    }
    const double mb = static_cast<double>(bytes) / 1e6;
    pread.push_back(Micros(pread_ns) / mb);
    deser.push_back(Micros(deser_ns) / mb);
    verify.push_back(Micros(verified_ns) / mb - pread.back() - deser.back());
  }
  m->Set("storage.pread_us_per_mb", Median(pread), kProbeRounds);
  m->Set("storage.deserialize_us_per_mb", Median(deser), kProbeRounds);
  m->Set("storage.verify_us_per_mb", Median(verify), kProbeRounds);
}

std::vector<Span> MergeLogs(std::vector<SpanLog>* logs) {
  std::vector<Span> all;
  for (SpanLog& log : *logs) {
    // Parent indices are per log; rebase them into the merged vector.
    const auto base = static_cast<int32_t>(all.size());
    for (Span s : log.spans()) {
      if (s.parent >= 0) {
        s.parent += base;
      }
      all.push_back(s);
    }
  }
  return all;
}

// Self time per layer over `spans`, per root operation (a span without
// parent whose name is `root`).
void SetSelfTimes(const std::vector<Span>& spans, const char* root,
                  Measured* m) {
  const std::vector<uint64_t> self = SelfTimes(spans);
  std::map<std::string, uint64_t> by_layer;
  uint64_t roots = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_layer[spans[i].layer] += self[i];
    if (spans[i].parent < 0 && std::string(spans[i].name) == root) {
      ++roots;
    }
  }
  for (const auto& [layer, ns] : by_layer) {
    m->Set(layer + ".self_us_per_op", Micros(ns) / std::max<uint64_t>(roots, 1),
           roots);
  }
}

void SetTraceOverhead(double untraced_us_per_op, double traced_us_per_op,
                      uint64_t samples, Measured* m) {
  m->Set("bench.trace_overhead_frac",
         traced_us_per_op / untraced_us_per_op - 1.0, samples);
}

// ============================================================================
// ingest
// ============================================================================

struct IngestTable {
  std::string name;
  Table table;
  CompressionPlan plan;
  std::string path;
  std::string first_file;  // Bytes of the set-up pass's file.
  std::vector<size_t> baseline_column_bytes;
};

// Compares a decompressed table with its source, string columns by
// value (Decompress may assign other dictionary codes).
bool SameTable(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const corra::Column& x = a.column(c);
    const corra::Column& y = b.column(c);
    if (x.dictionary() == nullptr) {
      if (!std::equal(x.values().begin(), x.values().end(),
                      y.values().begin(), y.values().end())) {
        return false;
      }
      continue;
    }
    if (y.dictionary() == nullptr) {
      return false;
    }
    for (size_t r = 0; r < x.size(); ++r) {
      if ((*x.dictionary())[static_cast<size_t>(x.values()[r])] !=
          (*y.dictionary())[static_cast<size_t>(y.values()[r])]) {
        return false;
      }
    }
  }
  return true;
}

struct PassTimes {
  uint64_t compress_ns = 0;
  uint64_t write_ns = 0;
  std::vector<uint64_t> open_ns;
};

// One ingest pass: compress, write and reopen every table in generator
// order.
void IngestPass(std::vector<IngestTable>* tables, SpanLog* log,
                uint64_t request, PassTimes* times) {
  SpanScope pass(log, "bench.pass", "bench", request);
  for (IngestTable& t : *tables) {
    uint64_t t0 = NowNs();
    CompressedTable compressed = [&] {
      SpanScope s(log, "core.compress", "core", request);
      return Must(CorraCompressor::Compress(t.table, t.plan),
                  "compress " + t.name);
    }();
    uint64_t t1 = NowNs();
    {
      SpanScope s(log, "storage.write", "storage", request);
      MustOk(corra::WriteCompressedTable(compressed, t.path),
             "write " + t.path);
    }
    uint64_t t2 = NowNs();
    {
      SpanScope s(log, "storage.open", "storage", request);
      Must(corra::CorfFile::Open(t.path), "reopen");
    }
    uint64_t t3 = NowNs();
    if (times != nullptr) {
      times->compress_ns += t1 - t0;
      times->write_ns += t2 - t1;
      times->open_ns.push_back(t3 - t2);
    }
  }
}

}  // namespace

Outcome RunIngest(const Config& config) {
  Outcome out;
  std::vector<IngestTable> tables;
  uint64_t rows_per_pass = 0;
  uint64_t values_per_pass = 0;
  bool setup_correct = true;

  const double setup_s = TimedSetups([&] {
    tables.clear();
    tables.push_back({"lineitem",
                      Must(corra::datagen::MakeLineitemTable(
                               kIngestLineitemRows, config.seed),
                           "lineitem"),
                      LineitemPlan(), "", "", {}});
    tables.push_back({"taxi",
                      Must(corra::datagen::MakeTaxiTable(kIngestTaxiRows,
                                                         config.seed),
                           "taxi"),
                      TaxiPlan(), "", "", {}});
    tables.push_back({"dmv",
                      Must(corra::datagen::MakeDmvTableFromCodes(
                               kIngestDmvRows, config.seed),
                           "dmv"),
                      DmvPlan(), "", "", {}});
    tables.push_back({"ldbc",
                      Must(corra::datagen::MakeLdbcTable(kIngestLdbcRows,
                                                         config.seed),
                           "ldbc"),
                      LdbcPlan(), "", "", {}});
    rows_per_pass = values_per_pass = 0;
    for (IngestTable& t : tables) {
      t.plan.num_threads = config.nproc;
      t.plan.block_rows = kIngestBlockRows;
      t.path = config.data_dir + "/ingest_" + t.name + ".corf";
      rows_per_pass += t.table.num_rows();
      values_per_pass += t.table.num_rows() * t.table.num_columns();
      // Vertical-only baseline for the Table 2 savings.
      CompressionPlan baseline =
          CompressionPlan::AllAuto(t.table.num_columns());
      baseline.num_threads = config.nproc;
      baseline.block_rows = kIngestBlockRows;
      CompressedTable base =
          Must(CorraCompressor::Compress(t.table, baseline), "baseline");
      t.baseline_column_bytes.clear();
      for (size_t c = 0; c < t.table.num_columns(); ++c) {
        t.baseline_column_bytes.push_back(base.ColumnSizeBytes(c));
      }
    }
    // Warm-up pass, checked by a full verified round trip; later passes
    // must reproduce its files byte for byte.
    IngestPass(&tables, nullptr, 0, nullptr);
    for (IngestTable& t : tables) {
      CompressedTable back =
          Must(corra::ReadCompressedTable(t.path, true), "read back");
      Table decoded = Must(CorraCompressor::Decompress(back), "decompress");
      setup_correct = setup_correct && SameTable(t.table, decoded);
      t.first_file = ReadFile(t.path);
    }
  });
  out.correct = setup_correct;
  out.attempted += 1;
  out.failed += setup_correct ? 0 : 1;

  uint64_t bytes_on_disk = 0;
  for (const IngestTable& t : tables) {
    bytes_on_disk += t.first_file.size();
  }
  const double bytes_per_value =
      static_cast<double>(bytes_on_disk) / static_cast<double>(values_per_pass);
  const bool rss_reset = ResetPeakRss();

  // Measured passes; each file is compared with the set-up pass's file
  // outside the timed region.
  uint64_t pass_index = 1;
  auto run_passes = [&](double seconds, SpanLog* log,
                        std::vector<PassTimes>* times) {
    LoopResult loop;
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    loop.pass_windows = true;
    while (NowNs() < deadline) {
      PassTimes pt;
      const double steal0 = StealSeconds();
      const uint64_t t0 = NowNs();
      IngestPass(&tables, log, pass_index++, &pt);
      const uint64_t t1 = NowNs();
      const double steal1 = StealSeconds();
      bool ok = true;
      for (const IngestTable& t : tables) {
        ok = ok && ReadFile(t.path) == t.first_file;
      }
      loop.latencies_us.push_back(Micros(t1 - t0));
      Window w;
      w.latencies_us = {Micros(t1 - t0)};
      w.ops = 1;
      w.rows = static_cast<double>(rows_per_pass);
      w.seconds = Seconds(t1 - t0);
      w.steal_s = steal0 < 0 ? -1.0 : steal1 - steal0;
      loop.windows.push_back(std::move(w));
      loop.rows += rows_per_pass;
      loop.failed += ok ? 0 : 1;
      if (times != nullptr) {
        times->push_back(std::move(pt));
      }
    }
    loop.ops = loop.latencies_us.size();
    loop.wall_s = Seconds(NowNs() - start);
    loop.peak_rss_mb = PeakRssMb();
    out.attempted += loop.ops;
    out.failed += loop.failed;
    return loop;
  };

  Measured m;
  if (!config.trace) {
    LoopResult loop = run_passes(config.seconds, nullptr, nullptr);
    SetLoopMetrics(loop, bytes_per_value, setup_s, &m, &out);
    Emit(EndToEndCatalog(), m, &out);
  } else {
    LoopResult plain = run_passes(config.seconds / 2, nullptr, nullptr);
    std::vector<SpanLog> logs(1);
    std::vector<PassTimes> times;
    LoopResult traced = run_passes(config.seconds / 2, &logs[0], &times);
    std::vector<double> compress_s, write_s, open_us;
    for (const PassTimes& pt : times) {
      compress_s.push_back(Seconds(pt.compress_ns));
      write_s.push_back(Seconds(pt.write_ns));
      for (uint64_t ns : pt.open_ns) {
        open_us.push_back(Micros(ns));
      }
    }
    m.Set("core.compress_s", Median(compress_s), compress_s.size());
    m.Set("storage.write_s", Median(write_s), write_s.size());
    m.Set("storage.open_us", Median(open_us), open_us.size());
    SetTraceOverhead(Median(plain.latencies_us), Median(traced.latencies_us),
                     traced.ops, &m);
    out.spans = MergeLogs(&logs);
    SetSelfTimes(out.spans, "bench.pass", &m);

    // Table 2: per-column bytes per value, and the saving of each
    // horizontal column over its vertical-only baseline.
    size_t next = 0;
    for (const IngestTable& t : tables) {
      CompressedTable back =
          Must(corra::ReadCompressedTable(t.path, false), "read back");
      for (size_t c = 0; c < t.table.num_columns(); ++c, ++next) {
        const PaperColumn& pc = kPaperColumns[next];
        if (t.name != pc.table ||
            t.table.column(c).name() != pc.column) {
          std::fprintf(stderr, "perfbench: column %s.%s is not %s.%s\n",
                       t.name.c_str(), t.table.column(c).name().c_str(),
                       pc.table, pc.column);
          std::exit(1);
        }
        const double size = static_cast<double>(back.ColumnSizeBytes(c));
        m.Set(BytesPerValueName(pc),
              size / static_cast<double>(t.table.num_rows()), 1);
        if (pc.horizontal) {
          m.Set(SavingName(pc),
                1.0 - size / static_cast<double>(t.baseline_column_bytes[c]),
                1);
        }
      }
    }
    std::vector<std::string> paths;
    for (const IngestTable& t : tables) {
      paths.push_back(t.path);
    }
    ProbeStorage(paths, &m);
    Emit(PerLayerCatalog(), m, &out);
    out.params["peak_rss_mb_traced"] = std::to_string(PeakRssMb());
  }
  out.correct = out.correct && out.failed == 0;
  out.params["rows.lineitem"] = std::to_string(kIngestLineitemRows);
  out.params["rows.taxi"] = std::to_string(kIngestTaxiRows);
  out.params["rows.dmv"] = std::to_string(kIngestDmvRows);
  out.params["rows.ldbc"] = std::to_string(kIngestLdbcRows);
  out.params["block_rows"] = std::to_string(kIngestBlockRows);
  out.params["compress_threads"] = std::to_string(config.nproc);
  out.params["clients"] = "1";
  out.params["peak_rss_reset"] = rss_reset ? "clear_refs" : "unsupported";
  for (IngestTable& t : tables) {
    std::remove(t.path.c_str());
  }
  return out;
}

// ============================================================================
// Read workloads: shared service plumbing
// ============================================================================

namespace {

// One opened CORF file behind a BlockCache and a default ScanService.
struct Served {
  std::shared_ptr<corra::serve::BlockCache> cache;
  std::unique_ptr<corra::serve::TableReader> reader;
  std::unique_ptr<corra::serve::ScanService> service;
  double bytes_per_value = 0;
};

Served Serve(const std::string& path, size_t capacity_blocks,
             uint64_t num_values) {
  Served s;
  corra::serve::BlockCacheOptions cache_options;
  cache_options.capacity_blocks = capacity_blocks;
  s.cache = std::make_shared<corra::serve::BlockCache>(cache_options);
  s.reader = Must(corra::serve::TableReader::Open(path, s.cache), "open");
  s.service = std::make_unique<corra::serve::ScanService>();
  s.bytes_per_value = static_cast<double>(FileBytes(path)) /
                      static_cast<double>(num_values);
  return s;
}

// Pins block `b` through the reader, as the service's block tasks do;
// on a miss the loader's time becomes a storage child span.
corra::serve::BlockCache::Handle PinBlock(const corra::serve::TableReader& r,
                                          size_t b, SpanLog* log,
                                          uint64_t request,
                                          std::vector<double>* hit_us,
                                          std::vector<double>* miss_us) {
  SpanScope pin(log, "serve.get_block", "serve", request);
  corra::serve::BlockFetchStats fetch;
  const uint64_t t0 = NowNs();
  auto handle = Must(r.GetBlock(b, &fetch), "get block");
  const uint64_t t1 = NowNs();
  (fetch.miss ? miss_us : hit_us)->push_back(Micros(t1 - t0));
  if (fetch.miss && log != nullptr) {
    log->AddChild("storage.fill", "storage", t1 - fetch.fill_ns, t1, request);
  }
  return handle;
}

struct QueryTimes {
  uint64_t filter_ns = 0, filter_rows = 0;
  uint64_t decode_ns = 0, decode_rows = 0;
  uint64_t gather_ns = 0, gather_rows = 0;
  uint64_t aggregate_ns = 0, aggregate_rows = 0;
  std::vector<double> hit_us, miss_us;
  std::vector<double> gap_us;  // Service minus replay, per request.
};

bool Contiguous(std::span<const uint32_t> rows) {
  return !rows.empty() && rows.back() - rows.front() + 1 == rows.size();
}

// query::ScanColumn, timed as a dense decode when the selection is one
// contiguous run (ScanColumn then takes the ranged path) and as a
// positioned gather otherwise.
std::vector<int64_t> TimedScanColumn(const corra::Block& block, size_t col,
                                     std::span<const uint32_t> rows,
                                     SpanLog* log, uint64_t request,
                                     QueryTimes* qt) {
  const bool dense = Contiguous(rows);
  SpanScope s(log, dense ? "query.decode" : "query.gather", "query", request);
  const uint64_t t0 = NowNs();
  std::vector<int64_t> values = corra::query::ScanColumn(block, col, rows);
  const uint64_t ns = NowNs() - t0;
  (dense ? qt->decode_ns : qt->gather_ns) += ns;
  (dense ? qt->decode_rows : qt->gather_rows) += rows.size();
  return values;
}

void SetQueryMetrics(const QueryTimes& qt, Measured* m) {
  auto per_row = [](uint64_t ns, uint64_t rows) {
    return rows == 0 ? 0.0
                     : static_cast<double>(ns) / static_cast<double>(rows);
  };
  m->Set("query.filter_ns_per_row", per_row(qt.filter_ns, qt.filter_rows),
         qt.filter_rows);
  m->Set("query.decode_ns_per_row", per_row(qt.decode_ns, qt.decode_rows),
         qt.decode_rows);
  m->Set("query.gather_ns_per_row", per_row(qt.gather_ns, qt.gather_rows),
         qt.gather_rows);
  m->Set("query.aggregate_ns_per_row",
         per_row(qt.aggregate_ns, qt.aggregate_rows), qt.aggregate_rows);
  m->Set("serve.pin_hit_us", Median(qt.hit_us), qt.hit_us.size());
  m->Set("serve.pin_miss_us", Median(qt.miss_us), qt.miss_us.size());
  m->Set("serve.fanout_gap_us", Median(qt.gap_us), qt.gap_us.size());
}

// Registry and cache deltas of the traced phase, per request.
void SetServeCounters(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      const corra::serve::BlockCacheStats& c0,
                      const corra::serve::BlockCacheStats& c1, uint64_t ops,
                      Measured* m) {
  const uint64_t hits = c1.hits - c0.hits;
  const uint64_t misses = c1.misses - c0.misses;
  m->Set("serve.cache_hit_ratio",
         hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses),
         hits + misses);
  m->Set("serve.cache_misses_per_op", PerOp(misses, ops), ops);
  m->Set("serve.cache_evictions_per_op",
         PerOp(c1.evictions - c0.evictions, ops), ops);
  m->Set("serve.load_waits_per_op", PerOp(c1.load_waits - c0.load_waits, ops),
         ops);
  auto delta = [&](const std::string& prefix) {
    return CounterDelta(before, after, prefix);
  };
  m->Set("serve.prefetch_issued_per_op",
         PerOp(delta("serve.prefetch_issued"), ops), ops);
  m->Set("serve.rejected_per_op", PerOp(delta("serve.rejected"), ops), ops);
  const uint64_t gathers = delta("serve.gather_requests");
  m->Set("serve.coalesce_share",
         PerOp(delta("serve.coalesced_requests"), gathers), gathers);
  m->Set("storage.read_bytes_per_op",
         PerOp(delta("storage.block_read_bytes"), ops), ops);
  m->Set("storage.read_retries",
         static_cast<double>(delta("storage.read_retries")), ops);
  m->Set("query.filter_rows_per_op", PerOp(delta("query.filter_rows"), ops),
         ops);
  m->Set("query.decode_rows_per_op", PerOp(delta("query.decode_rows"), ops),
         ops);
  m->Set("query.gather_rows_per_op", PerOp(delta("query.gather_rows"), ops),
         ops);
}

// Shape of the traced loop's scan requests, filled by the scan op.
struct ScanShape {
  std::atomic<uint64_t> blocks_touched{0};
  std::atomic<uint64_t> blocks_total{0};
  std::atomic<uint64_t> rows_matched{0};
  std::atomic<uint64_t> rows_in_touched_blocks{0};
};

// The phases every read workload runs. Untraced: one closed loop of
// config.seconds. Traced: 40% untraced loop, 40% traced loop (counters,
// cache stats, spans), 20% single-client replay comparing each request
// through the service with the same request made layer by layer.
struct ReadWorkload {
  size_t clients = 1;
  Served* served = nullptr;
  OpFn op;
  // Runs request `index` of client 0 layer by layer on this thread and
  // checks it; returns false on a wrong answer.
  std::function<bool(uint64_t index, SpanLog* log, QueryTimes* qt)> replay;
  // Scan workloads only: filled by `op` while it traces.
  ScanShape* shape = nullptr;
};

void RunReadPhases(const Config& config, ReadWorkload& w, double setup_s,
                   Outcome* out) {
  std::vector<uint64_t> next(w.clients, 0);
  const LoopResult warm =
      ClosedLoop(w.clients, kWarmupSeconds, w.op, &next, nullptr);
  out->attempted += warm.ops;
  out->failed += warm.failed;
  // Room for twice the warm-up's rate per client.
  const auto reserve = static_cast<size_t>(
      2.0 * static_cast<double>(warm.ops) * config.seconds / kWarmupSeconds /
      static_cast<double>(w.clients));
  out->params["peak_rss_reset"] =
      ResetPeakRss() ? "clear_refs" : "unsupported";
  Measured m;
  if (!config.trace) {
    LoopResult loop = ClosedLoop(w.clients, config.seconds, w.op, &next,
                                 nullptr, reserve);
    out->attempted += loop.ops;
    out->failed += loop.failed;
    SetLoopMetrics(loop, w.served->bytes_per_value, setup_s, &m, out);
    Emit(EndToEndCatalog(), m, out);
    return;
  }
  LoopResult plain = ClosedLoop(w.clients, config.seconds * 0.4, w.op, &next,
                                nullptr, reserve);
  std::vector<SpanLog> logs(w.clients + 1);
  const auto counters0 = CounterSnapshot();
  const auto cache0 = w.served->cache->GetStats();
  LoopResult traced = ClosedLoop(w.clients, config.seconds * 0.4, w.op,
                                 &next, &logs, reserve);
  const auto counters1 = CounterSnapshot();
  const auto cache1 = w.served->cache->GetStats();
  SetServeCounters(counters0, counters1, cache0, cache1, traced.ops, &m);
  if (w.shape != nullptr) {
    const ScanShape& sh = *w.shape;
    m.Set("serve.blocks_touched_per_op", PerOp(sh.blocks_touched, traced.ops),
          traced.ops);
    m.Set("serve.prune_ratio",
          PerOp(sh.blocks_total - sh.blocks_touched, sh.blocks_total),
          traced.ops);
    m.Set("query.match_ratio",
          PerOp(sh.rows_matched, sh.rows_in_touched_blocks), traced.ops);
  } else {
    m.Set("serve.blocks_touched_per_op", 1.0, traced.ops);
  }
  // Both loops run the same clients, so wall time per completed request
  // compares them.
  SetTraceOverhead(plain.wall_s / static_cast<double>(plain.ops),
                   traced.wall_s / static_cast<double>(traced.ops),
                   traced.ops, &m);

  // Replay: alternate which side goes first so cache state favours
  // neither.
  QueryTimes qt;
  SpanLog& replay_log = logs.back();
  uint64_t replayed = 0, replay_failed = 0;
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(config.seconds * 0.2 * 1e9);
  uint64_t& index = next[0];
  while (NowNs() < deadline) {
    const uint64_t i = index++;
    uint64_t service_ns = 0, replay_ns = 0;
    bool ok = true;
    for (int side = 0; side < 2; ++side) {
      const bool via_service = (side == 0) == (i % 2 == 0);
      const uint64_t t0 = NowNs();
      if (via_service) {
        const OpStat s = w.op(0, i, nullptr);
        ok = ok && s.ok;
        service_ns = NowNs() - t0;
      } else {
        SpanScope root(&replay_log, "bench.replay", "bench", i);
        ok = w.replay(i, &replay_log, &qt) && ok;
        replay_ns = NowNs() - t0;
      }
    }
    qt.gap_us.push_back(Micros(service_ns) - Micros(replay_ns));
    replay_failed += ok ? 0 : 1;
    ++replayed;
  }
  SetQueryMetrics(qt, &m);
  SetSelfTimes(replay_log.spans(), "bench.replay", &m);
  ProbeStorage({w.served->reader->path()}, &m);
  out->spans = MergeLogs(&logs);
  out->attempted += plain.ops + traced.ops + 2 * replayed;
  out->failed += plain.failed + traced.failed + replay_failed;
  out->params["replayed_requests"] = std::to_string(replayed);
  out->params["peak_rss_mb_traced"] = std::to_string(PeakRssMb());
  Emit(PerLayerCatalog(), m, out);
}

// ============================================================================
// scan-hot / scan-cold
// ============================================================================

// Takes `v` by value so each source column is freed once permuted.
std::vector<int64_t> Permute(std::vector<int64_t> v,
                             const std::vector<uint32_t>& perm) {
  std::vector<int64_t> out(v.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    out[i] = v[perm[i]];
  }
  return out;
}

struct ScanData {
  std::vector<int64_t> pickup;         // Sorted.
  std::vector<uint64_t> prefix_total;  // n + 1 wrap-around sums.
  std::vector<uint64_t> prefix_term;   // n + 1 sums of RowTerm.
  int64_t t_lo = 0, t_hi = 0;          // Range windows are drawn from.
  uint64_t num_values = 0;
};

// Generates the taxi table in pickup order (the order trip files
// arrive in) and the answers every range request is checked against.
Table MakeSortedTaxi(uint64_t seed, ScanData* data) {
  corra::datagen::TaxiTrips t =
      corra::datagen::GenerateTaxiTrips(kScanRows, seed);
  std::vector<uint32_t> perm(kScanRows);
  {
    // (pickup, row) pairs: ties keep generator order, as a stable sort.
    std::vector<std::pair<int64_t, uint32_t>> keyed(kScanRows);
    for (uint32_t r = 0; r < kScanRows; ++r) {
      keyed[r] = {t.pickup[r], r};
    }
    std::sort(keyed.begin(), keyed.end());
    for (size_t r = 0; r < kScanRows; ++r) {
      perm[r] = keyed[r].second;
    }
  }
  using corra::Column;
  auto sorted = [&perm](std::vector<int64_t>& v) {
    return Permute(std::move(v), perm);
  };
  std::vector<Column> cols;
  cols.push_back(Column::Timestamp("pickup", sorted(t.pickup)));
  cols.push_back(Column::Timestamp("dropoff", sorted(t.dropoff)));
  cols.push_back(Column::Money("mta_tax", sorted(t.mta_tax)));
  cols.push_back(Column::Money("fare_amount", sorted(t.fare_amount)));
  cols.push_back(Column::Money("improvement_surcharge",
                               sorted(t.improvement_surcharge)));
  cols.push_back(Column::Money("extra", sorted(t.extra)));
  cols.push_back(Column::Money("tip_amount", sorted(t.tip_amount)));
  cols.push_back(Column::Money("tolls_amount", sorted(t.tolls_amount)));
  cols.push_back(Column::Money("congestion_surcharge",
                               sorted(t.congestion_surcharge)));
  cols.push_back(Column::Money("airport_fee", sorted(t.airport_fee)));
  cols.push_back(Column::Money("total_amount", sorted(t.total_amount)));
  Table table;
  for (Column& c : cols) {
    MustOk(table.AddColumn(std::move(c)), "add column");
  }

  using C = TaxiColumns;
  const auto pickup = table.column(C::kPickup).values();
  const auto dropoff = table.column(C::kDropoff).values();
  const auto fare = table.column(C::kFareAmount).values();
  const auto total = table.column(C::kTotalAmount).values();
  data->pickup.assign(pickup.begin(), pickup.end());
  data->prefix_total.assign(kScanRows + 1, 0);
  data->prefix_term.assign(kScanRows + 1, 0);
  for (size_t r = 0; r < kScanRows; ++r) {
    data->prefix_total[r + 1] =
        data->prefix_total[r] + static_cast<uint64_t>(total[r]);
    data->prefix_term[r + 1] =
        data->prefix_term[r] + RowTerm(r, dropoff[r], fare[r]);
  }
  // Draw windows inside the bulk of the year; the generator's few
  // corrupted rows dated years off sit at both ends of the sorted file.
  data->t_lo = data->pickup[kScanRows / 1000];
  data->t_hi = data->pickup[kScanRows - 1 - kScanRows / 1000];
  data->num_values = kScanRows * table.num_columns();
  return table;
}

struct ScanReq {
  int64_t lo = 0;
  int64_t hi = 0;
  bool project = false;  // Else: sum total_amount.
};

// Request `index` of `client`: a pickup window whose length is
// log-uniform in [1 day, 1 quarter], stratified in blocks of
// kWindowStrata requests so every seed sees the same mix of lengths.
ScanReq MakeScanReq(uint64_t seed, size_t client, uint64_t index,
                    const ScanData& data) {
  const uint64_t epoch = index / kWindowStrata;
  Rng shuffle = RngFor(seed, client, epoch);
  std::array<uint32_t, kWindowStrata> strata;
  std::iota(strata.begin(), strata.end(), 0u);
  for (size_t i = kWindowStrata - 1; i > 0; --i) {
    std::swap(strata[i], strata[shuffle.Below(i + 1)]);
  }
  Rng rng = RngFor(seed, client + 1000, index);
  const double u =
      (strata[index % kWindowStrata] + rng.Uniform()) / kWindowStrata;
  const double log_lo = std::log(static_cast<double>(kMinWindow));
  const double log_hi = std::log(static_cast<double>(kMaxWindow));
  const auto window =
      static_cast<int64_t>(std::exp(log_lo + u * (log_hi - log_lo)));
  const int64_t span = std::max<int64_t>(data.t_hi - data.t_lo - window, 1);
  ScanReq req;
  req.lo = data.t_lo +
           static_cast<int64_t>(rng.Uniform() * static_cast<double>(span));
  req.hi = req.lo + window;
  req.project = index % 2 == 0;
  return req;
}

ScanExpectation Expect(const ScanData& data, const ScanReq& req) {
  const auto first =
      std::lower_bound(data.pickup.begin(), data.pickup.end(), req.lo);
  const auto last =
      std::upper_bound(data.pickup.begin(), data.pickup.end(), req.hi);
  const auto a = static_cast<size_t>(first - data.pickup.begin());
  const auto b = static_cast<size_t>(last - data.pickup.begin());
  return ScanExpectation{a, b - a, data.prefix_total[b] - data.prefix_total[a],
                         data.prefix_term[b] - data.prefix_term[a]};
}

corra::serve::ScanRequest ToRequest(const ScanReq& req) {
  using C = TaxiColumns;
  corra::serve::ScanRequest r;
  r.filter_column = C::kPickup;
  r.filter_lo = req.lo;
  r.filter_hi = req.hi;
  if (req.project) {
    r.project_columns = {C::kDropoff, C::kFareAmount};
  } else {
    r.aggregate = corra::serve::AggregateOp::kSum;
    r.aggregate_column = C::kTotalAmount;
  }
  return r;
}

}  // namespace

Outcome RunScan(const Config& config, bool hot) {
  Outcome out;
  ScanData data;
  Served served;
  const std::string path = config.data_dir + "/taxi_by_pickup.corf";
  size_t num_blocks = 0;

  const double setup_s = TimedSetups([&] {
    served = Served{};
    data = ScanData{};
    {
      Table table = MakeSortedTaxi(config.seed, &data);
      CompressionPlan plan = TaxiPlan();
      plan.block_rows = kScanBlockRows;
      plan.num_threads = config.nproc;
      CompressedTable compressed =
          Must(CorraCompressor::Compress(table, plan), "compress taxi");
      MustOk(corra::WriteCompressedTable(compressed, path), "write taxi");
      num_blocks = compressed.num_blocks();
    }
    served = Serve(path, hot ? num_blocks : kColdCacheBlocks, data.num_values);
    if (hot) {
      for (size_t b = 0; b < num_blocks; ++b) {
        Must(served.reader->GetBlock(b), "warm block");
      }
    }
  });
  ScanShape shape;
  ReadWorkload w;
  w.clients = kScanClients;
  w.served = &served;
  w.shape = &shape;
  w.op = [&](size_t client, uint64_t index, SpanLog* log) {
    const ScanReq req = MakeScanReq(config.seed, client, index, data);
    const uint64_t id = (uint64_t{client} << 40) | index;
    SpanScope root(log, "bench.request", "bench", id);
    OpStat s;
    const uint64_t t0 = NowNs();
    corra::Result<corra::serve::ScanResult> result = [&] {
      SpanScope span(log, "serve.execute", "serve", id);
      return served.service->Execute(*served.reader, ToRequest(req));
    }();
    s.latency_ns = NowNs() - t0;
    if (!result.ok()) {
      return s;
    }
    const corra::serve::ScanResult& r = result.value();
    const ScanExpectation want = Expect(data, req);
    s.ok = req.project ? CheckProjection(want, r.rows_matched, r.columns[0],
                                         r.columns[1])
                       : CheckSum(want, r.rows_matched, r.agg_sum);
    s.rows = r.rows_matched;
    if (log != nullptr) {
      shape.blocks_touched += num_blocks - r.blocks_skipped;
      shape.blocks_total += num_blocks;
      shape.rows_matched += r.rows_matched;
      for (size_t b = 0; b < num_blocks; ++b) {
        const auto& st = served.reader->info().Stats(b, TaxiColumns::kPickup);
        if (!(req.lo > st.max || req.hi < st.min)) {
          shape.rows_in_touched_blocks += served.reader->block_rows(b);
        }
      }
    }
    return s;
  };
  w.replay = [&](uint64_t index, SpanLog* log, QueryTimes* qt) {
    using C = TaxiColumns;
    const ScanReq req = MakeScanReq(config.seed, 0, index, data);
    const auto& reader = *served.reader;
    const auto offsets = reader.block_row_offsets();
    uint64_t matched = 0, checksum = 0, sum = 0;
    for (size_t b = 0; b < num_blocks; ++b) {
      const auto& st = reader.info().Stats(b, C::kPickup);
      if (req.lo > st.max || req.hi < st.min) {
        continue;
      }
      auto block = PinBlock(reader, b, log, index, &qt->hit_us, &qt->miss_us);
      std::vector<uint32_t> sel;
      {
        SpanScope s(log, "query.filter", "query", index);
        const uint64_t t0 = NowNs();
        sel = corra::query::FilterToSelection(block->column(C::kPickup),
                                              req.lo, req.hi);
        qt->filter_ns += NowNs() - t0;
        qt->filter_rows += block->rows();
      }
      matched += sel.size();
      if (req.project) {
        const auto a =
            TimedScanColumn(*block, C::kDropoff, sel, log, index, qt);
        const auto f =
            TimedScanColumn(*block, C::kFareAmount, sel, log, index, qt);
        for (size_t k = 0; k < sel.size(); ++k) {
          checksum += RowTerm(offsets[b] + sel[k], a[k], f[k]);
        }
      } else {
        SpanScope s(log, "query.aggregate", "query", index);
        const uint64_t t0 = NowNs();
        const auto v = corra::query::ScanColumn(*block, C::kTotalAmount, sel);
        for (int64_t x : v) {
          sum += static_cast<uint64_t>(x);
        }
        qt->aggregate_ns += NowNs() - t0;
        qt->aggregate_rows += sel.size();
      }
    }
    const ScanExpectation want = Expect(data, req);
    return matched == want.count &&
           (req.project ? checksum == want.checksum : sum == want.sum);
  };

  RunReadPhases(config, w, setup_s, &out);
  out.correct = out.failed == 0;
  out.params["rows"] = std::to_string(kScanRows);
  out.params["block_rows"] = std::to_string(kScanBlockRows);
  out.params["blocks"] = std::to_string(num_blocks);
  out.params["cache_capacity_blocks"] =
      std::to_string(hot ? num_blocks : kColdCacheBlocks);
  out.params["clients"] = std::to_string(kScanClients);
  out.params["window_days"] = "log-uniform [1, 91], 64 strata";
  out.params["request_mix"] =
      "1/2 project dropoff+fare_amount, 1/2 sum total_amount";
  out.params["compress_threads"] = std::to_string(config.nproc);
  served = Served{};
  std::remove(path.c_str());
  return out;
}

// ============================================================================
// point-gather
// ============================================================================

Outcome RunPointGather(const Config& config) {
  Outcome out;
  Served served;
  std::vector<int64_t> receipt, commit;
  std::vector<double> zipf_cdf;
  std::vector<size_t> block_of_rank;
  const std::string path = config.data_dir + "/lineitem_points.corf";
  constexpr size_t kCommit = 2, kReceipt = 3;
  const size_t clients = config.nproc;

  const double setup_s = TimedSetups([&] {
    served = Served{};
    Table table =
        Must(corra::datagen::MakeLineitemTable(kGatherRows, config.seed),
             "lineitem");
    receipt.assign(table.column(kReceipt).values().begin(),
                   table.column(kReceipt).values().end());
    commit.assign(table.column(kCommit).values().begin(),
                  table.column(kCommit).values().end());
    CompressionPlan plan = LineitemPlan();
    plan.block_rows = kGatherBlockRows;
    plan.num_threads = config.nproc;
    plan.workload = corra::enc::WorkloadHint::kPointServing;
    {
      CompressedTable compressed =
          Must(CorraCompressor::Compress(table, plan), "compress lineitem");
      MustOk(corra::WriteCompressedTable(compressed, path), "write lineitem");
    }
    const size_t num_blocks = (kGatherRows + kGatherBlockRows - 1) /
                              kGatherBlockRows;
    served = Serve(path, num_blocks, kGatherRows * table.num_columns());
    for (size_t b = 0; b < served.reader->num_blocks(); ++b) {
      Must(served.reader->GetBlock(b), "warm block");
    }
  });
  const size_t num_blocks = served.reader->num_blocks();
  double norm = 0;
  for (size_t r = 0; r < num_blocks; ++r) {
    norm += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    zipf_cdf.push_back(norm);
  }
  for (double& c : zipf_cdf) {
    c /= norm;
  }
  block_of_rank.resize(num_blocks);
  std::iota(block_of_rank.begin(), block_of_rank.end(), size_t{0});
  Rng order = RngFor(config.seed, 7, 0);
  for (size_t i = num_blocks - 1; i > 0; --i) {
    std::swap(block_of_rank[i], block_of_rank[order.Below(i + 1)]);
  }

  // Request `index` of `client`: 128 sorted distinct positions inside
  // one Zipf-chosen block.
  auto make_rows = [&](size_t client, uint64_t index) {
    Rng rng = RngFor(config.seed, client + 2000, index);
    const double u = rng.Uniform();
    const auto rank = static_cast<size_t>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
        zipf_cdf.begin());
    const size_t b = block_of_rank[std::min(rank, num_blocks - 1)];
    const uint64_t base = served.reader->block_row_offsets()[b];
    const uint64_t n = served.reader->block_rows(b);
    std::vector<uint64_t> rows;
    while (rows.size() < kGatherPositions) {
      while (rows.size() < kGatherPositions) {
        rows.push_back(base + rng.Below(n));
      }
      std::sort(rows.begin(), rows.end());
      rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    }
    return std::make_pair(b, rows);
  };
  const std::array<size_t, 2> columns = {kReceipt, kCommit};
  auto check = [&](std::span<const uint64_t> rows,
                   std::span<const int64_t> r, std::span<const int64_t> c) {
    if (r.size() != rows.size() || c.size() != rows.size()) {
      return false;
    }
    for (size_t k = 0; k < rows.size(); ++k) {
      if (r[k] != receipt[rows[k]] || c[k] != commit[rows[k]]) {
        return false;
      }
    }
    return true;
  };
  ReadWorkload w;
  w.clients = clients;
  w.served = &served;
  w.op = [&](size_t client, uint64_t index, SpanLog* log) {
    const auto [b, rows] = make_rows(client, index);
    const uint64_t id = (uint64_t{client} << 40) | index;
    SpanScope root(log, "bench.request", "bench", id);
    OpStat s;
    const uint64_t t0 = NowNs();
    auto result = [&] {
      SpanScope span(log, "serve.gather", "serve", id);
      return served.service->Gather(*served.reader, columns, rows);
    }();
    s.latency_ns = NowNs() - t0;
    if (result.ok() && result.value().size() == 2) {
      s.ok = check(rows, result.value()[0], result.value()[1]);
    }
    s.rows = rows.size();
    return s;
  };
  w.replay = [&](uint64_t index, SpanLog* log, QueryTimes* qt) {
    const auto [b, rows] = make_rows(0, index);
    auto block =
        PinBlock(*served.reader, b, log, index, &qt->hit_us, &qt->miss_us);
    const uint64_t base = served.reader->block_row_offsets()[b];
    std::vector<uint32_t> local;
    local.reserve(rows.size());
    for (uint64_t r : rows) {
      local.push_back(static_cast<uint32_t>(r - base));
    }
    const auto r = TimedScanColumn(*block, kReceipt, local, log, index, qt);
    const auto c = TimedScanColumn(*block, kCommit, local, log, index, qt);
    return check(rows, r, c);
  };

  RunReadPhases(config, w, setup_s, &out);
  out.correct = out.failed == 0;
  out.params["rows"] = std::to_string(kGatherRows);
  out.params["block_rows"] = std::to_string(kGatherBlockRows);
  out.params["blocks"] = std::to_string(num_blocks);
  out.params["cache_capacity_blocks"] = std::to_string(num_blocks);
  out.params["clients"] = std::to_string(clients);
  out.params["positions_per_request"] = std::to_string(kGatherPositions);
  out.params["block_skew"] = "zipf s=1";
  out.params["compress_threads"] = std::to_string(config.nproc);
  served = Served{};
  std::remove(path.c_str());
  return out;
}

}  // namespace perfbench
