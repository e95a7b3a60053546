// The three DGE workloads (serve_query, curate_write, dge_refresh), the
// common set-up they share, their answer checks, and the metrics each
// run reports. See perfbench/README.md for why each workload exists.
#ifndef STRUCTURA_PERFBENCH_WORKLOADS_H_
#define STRUCTURA_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scaled-down corpus and phases for the self-test.
  bool small = false;
  /// Name of the answer check to feed a deliberately wrong answer
  /// ("serve_query", "curate_write", "dge_refresh"); empty = none.
  std::string corrupt;
  /// Scratch directory (inside the checkout) for workspaces and traces.
  std::string work_dir = ".bench_work";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Reported with --trace 0.
  std::vector<Metric> end_to_end;
  /// Reported with --trace 1.
  std::vector<Metric> per_layer;
  /// Human-readable lines printed before the result (sample counts,
  /// flush policy, filesystem, check verdicts).
  std::vector<std::string> notes;
};

bool KnownWorkload(const std::string& name);

/// Runs one workload end to end: set-up (repeated, median reported),
/// the timed phase, the answer checks and, when tracing, the layer
/// probe. Never throws; a failed step shows up as !correct.
Outcome RunWorkload(const Config& config);

}  // namespace perfbench

#endif  // STRUCTURA_PERFBENCH_WORKLOADS_H_
