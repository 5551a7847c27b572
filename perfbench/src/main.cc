// corra_perfbench: runs one workload of the repository benchmark and
// writes its self-describing results. perfbench/run.py builds this
// binary, runs it, and prints the metrics; see perfbench/README.md.
//
//   corra_perfbench --workload <ingest|scan-hot|scan-cold|point-gather>
//                   --seed N --seconds S --trace 0|1
//                   --data-dir DIR --out RESULTS.json [--spans SPANS.csv]

#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Spans written per run; a traced point-gather run records far more, and
// the per-layer metrics are computed from all of them in memory first.
constexpr size_t kMaxSpansWritten = 100'000;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The CPU features the library's kernels dispatch on.
std::string CpuFlags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) {
      continue;
    }
    std::istringstream words(line.substr(line.find(':') + 1));
    const std::set<std::string> wanted = {"sse4_2", "avx", "avx2", "bmi2",
                                          "avx512f", "avx512bw", "popcnt"};
    std::string word, out;
    while (words >> word) {
      if (wanted.count(word) != 0) {
        out += (out.empty() ? "" : " ") + word;
      }
    }
    return out;
  }
  return "unknown";
}

void WriteResults(const Config& config, const Outcome& o,
                  const std::string& path) {
  std::map<std::string, std::string> run = o.params;
  run["workload"] = config.workload;
  run["seed"] = std::to_string(config.seed);
  run["seconds"] = JsonNumber(config.seconds);
  run["trace"] = config.trace ? "1" : "0";
  run["nproc"] = std::to_string(config.nproc);
  run["cpu_flags"] = CpuFlags();
  run["flush_policy"] =
      "WriteCompressedTable: buffered stdio write + fclose, no fsync; "
      "files are read back from the OS page cache";
  run["service_options"] = "ScanService::Options{} (library defaults)";
  run["reader_options"] = "TableReaderOptions{} (library defaults)";
  run["obs_enabled"] = corra::obs::Enabled() ? "1" : "0";
  run["spans_recorded"] = std::to_string(o.spans.size());
  run["spans_written"] =
      std::to_string(std::min(o.spans.size(), kMaxSpansWritten));

  std::ofstream out(path);
  out << "{\n  \"correct\": " << (o.correct ? "true" : "false")
      << ",\n  \"attempted\": " << o.attempted
      << ",\n  \"failed\": " << o.failed << ",\n  \"run\": {";
  bool first = true;
  for (const auto& [key, value] : run) {
    out << (first ? "\n" : ",\n") << "    " << JsonString(key) << ": "
        << JsonString(value);
    first = false;
  }
  out << "\n  },\n  \"records\": [";
  first = true;
  for (const Record& r : o.records) {
    out << (first ? "\n" : ",\n") << "    {\"name\": " << JsonString(r.name)
        << ", \"workload\": " << JsonString(config.workload)
        << ", \"layer\": " << JsonString(r.layer)
        << ", \"unit\": " << JsonString(r.unit)
        << ", \"better\": " << JsonString(r.better)
        << ", \"value\": " << JsonNumber(r.value)
        << ", \"samples\": " << r.samples
        << ", \"moves\": " << JsonString(r.moves) << "}";
    first = false;
  }
  out << "\n  ]\n}\n";
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  out << "index,name,layer,start_ns,end_ns,parent,request\n";
  const uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < std::min(spans.size(), kMaxSpansWritten); ++i) {
    const Span& s = spans[i];
    out << i << ',' << s.name << ',' << s.layer << ','
        << s.start_ns - origin << ',' << s.end_ns - origin << ','
        << s.parent << ',' << s.request << '\n';
  }
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "corra_perfbench: %s\nusage: corra_perfbench --workload "
               "<ingest|scan-hot|scan-cold|point-gather> --seed N "
               "--seconds S --trace 0|1 --data-dir DIR --out FILE "
               "[--spans FILE]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  Config config;
  std::string out_path, spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--data-dir") {
      config.data_dir = value;
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.data_dir.empty() || out_path.empty() || !(config.seconds > 0)) {
    return Usage("--data-dir, --out and a positive --seconds are required");
  }
  if (mkdir(config.data_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Usage(("cannot create --data-dir " + config.data_dir).c_str());
  }
  config.nproc = std::max(1u, std::thread::hardware_concurrency());

  Outcome outcome;
  if (config.workload == "ingest") {
    outcome = RunIngest(config);
  } else if (config.workload == "scan-hot") {
    outcome = RunScan(config, /*hot=*/true);
  } else if (config.workload == "scan-cold") {
    outcome = RunScan(config, /*hot=*/false);
  } else if (config.workload == "point-gather") {
    outcome = RunPointGather(config);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  WriteResults(config, outcome, out_path);
  if (!spans_path.empty() && config.trace) {
    WriteSpans(outcome.spans, spans_path);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
