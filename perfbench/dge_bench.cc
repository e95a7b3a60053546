// End-to-end DGE benchmark program.
//
//   dge_bench --workload <serve_query|curate_write|dge_refresh>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--small] [--corrupt <check>] [--work-dir <dir>]
//
// Prints notes, then as its last line one JSON object
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when an answer check fails, 2 on bad arguments.
// perfbench/run.py builds this binary and forwards its arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "dge_bench: %s\nusage: dge_bench --workload <serve_query|"
               "curate_write|dge_refresh> --seed <n> --seconds <s> --trace "
               "<0|1> [--small] [--corrupt <check>] [--work-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--small") {
      cfg.small = true;
      continue;
    }
    if ((v = value()) == nullptr) return Usage(("missing value for " + arg).c_str());
    if (arg == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      cfg.trace = std::string(v) == "1";
    } else if (arg == "--corrupt") {
      cfg.corrupt = v;
    } else if (arg == "--work-dir") {
      cfg.work_dir = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !perfbench::KnownWorkload(cfg.workload)) {
    return Usage("unknown or missing --workload");
  }
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");
  // Library warnings (e.g. best-effort log appends) go to stderr and
  // would interleave with the notes; keep only errors.
  structura::SetLogLevel(structura::LogLevel::kError);

  perfbench::Outcome out = perfbench::RunWorkload(cfg);
  for (const std::string& line : out.notes) std::printf("# %s\n", line.c_str());
  const auto& metrics = cfg.trace ? out.per_layer : out.end_to_end;
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += perfbench::JsonString(metrics[i].name) + ": {\"value\": " +
            perfbench::JsonNumber(metrics[i].value) +
            ", \"unit\": " + perfbench::JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
