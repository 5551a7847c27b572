// The four benchmark workloads (see perfbench/README.md for why each
// exists and what every metric means).

#ifndef CORRA_PERFBENCH_WORKLOADS_H_
#define CORRA_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;  // Where the workload writes its CORF files.
  size_t nproc = 1;
};

/// Everything one run measured. `records` holds the end-to-end metrics
/// of an untraced run or the per-layer metrics of a traced one; `params`
/// describes how the run was set up (sizes, capacities, clients).
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<Record> records;
  std::map<std::string, std::string> params;
  std::vector<Span> spans;  // Traced runs only, merged across threads.
};

Outcome RunIngest(const Config& config);
Outcome RunScan(const Config& config, bool hot);
Outcome RunPointGather(const Config& config);

}  // namespace perfbench

#endif  // CORRA_PERFBENCH_WORKLOADS_H_
