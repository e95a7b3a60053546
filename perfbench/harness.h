// Measurement plumbing for the end-to-end DGE benchmark: a span tracer
// that lives entirely in the benchmark (it wraps calls into the
// library's public API; nothing inside the library is instrumented),
// order statistics, a Zipf sampler, a host-speed calibration loop, and
// process/filesystem probes.
#ifndef STRUCTURA_PERFBENCH_HARNESS_H_
#define STRUCTURA_PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_nanos) {
  return static_cast<double>(NowNanos() - start_nanos) * 1e-9;
}

/// Which part of a run a span belongs to. Per-layer figures come from
/// the timed phase when the workload calls the layer there; set-up spans
/// feed the setup.* figures; probe spans cover layers a workload never
/// calls (see RunLayerProbe in workloads.h).
enum class Phase : uint8_t {
  kSetup = 0,
  kWarmup = 1,
  kTimed = 2,
  kCheck = 3,
  kProbe = 4
};

const char* PhaseName(Phase p);

/// One recorded call: `layer` is a string literal naming the layer entry
/// point ("query.keyword", "rdbms.commit", ...); `request` ties the
/// spans of one request together (0 = not part of a request).
struct Span {
  const char* layer = "";
  Phase phase = Phase::kSetup;
  uint32_t thread = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Collects spans into per-thread buffers (no lock on the record path)
/// and hands them back at the end of the run. Disabled tracers record
/// nothing and cost one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void SetPhase(Phase p) { phase_.store(p, std::memory_order_relaxed); }
  Phase phase() const { return phase_.load(std::memory_order_relaxed); }

  void Record(const char* layer, uint64_t request, int64_t start_ns,
              int64_t end_ns);

  /// Every span recorded so far, ordered by start time.
  std::vector<Span> Collect() const;
  /// Writes Collect() as tab-separated lines
  /// (layer, phase, thread, request, start_ns, end_ns). Returns false on
  /// an I/O error.
  bool WriteTsv(const std::string& path) const;

  /// Measured cost of one Record() call on this host, in nanoseconds
  /// (timed over a private tracer so the real buffers stay clean).
  static double CalibrateRecordNanos();

 private:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer* Local();
  static uint64_t NextId();

  const bool enabled_;
  const uint64_t id_ = NextId();
  std::atomic<Phase> phase_{Phase::kSetup};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mutex_
};

/// RAII span: records [construction, destruction) into `tracer` when it
/// is enabled.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* layer, uint64_t request = 0)
      : tracer_(tracer),
        layer_(layer),
        request_(request),
        start_(tracer.enabled() ? NowNanos() : 0) {}
  ~SpanScope() {
    if (tracer_.enabled()) tracer_.Record(layer_, request_, start_, NowNanos());
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  const char* layer_;
  uint64_t request_;
  int64_t start_;
};

/// Nearest-rank quantile (q in [0,1]) of `v`; 0 for an empty sample.
/// Sorts `v` in place.
double Quantile(std::vector<double>* v, double q);
double Median(std::vector<double> v);

/// Zipf(theta) over ranks [0, n): rank r has weight 1/(r+1)^theta.
class Zipf {
 public:
  Zipf(size_t n, double theta);
  size_t operator()(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

/// A fixed integer loop; its wall time tracks how fast the host runs
/// right now, independent of the program under test.
double HostSpinMillis();

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

/// Bytes in regular files under `dir`, in MiB.
double DirectorySizeMb(const std::string& dir);

/// Filesystem type holding `path` ("tmpfs", "ext4", "overlay", ... or
/// the hex magic when unknown).
std::string FilesystemName(const std::string& path);

/// JSON number rendering with full precision (non-finite -> 0).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // STRUCTURA_PERFBENCH_HARNESS_H_
