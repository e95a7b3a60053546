#include "harness.h"

#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

std::atomic<uint64_t> g_next_tracer_id{1};
std::atomic<uint32_t> g_next_thread{1};

uint32_t ThreadNumber() {
  thread_local uint32_t n = g_next_thread.fetch_add(1);
  return n;
}

}  // namespace

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kSetup:
      return "setup";
    case Phase::kWarmup:
      return "warmup";
    case Phase::kTimed:
      return "timed";
    case Phase::kCheck:
      return "check";
    case Phase::kProbe:
      return "probe";
  }
  return "?";
}

uint64_t Tracer::NextId() { return g_next_tracer_id.fetch_add(1); }

Tracer::Buffer* Tracer::Local() {
  // Tracers are told apart by a process-unique id, not their address,
  // so a tracer constructed where an old one died gets fresh buffers.
  thread_local uint64_t owner = 0;
  thread_local Buffer* buffer = nullptr;
  if (owner != id_) {
    auto fresh = std::make_unique<Buffer>();
    fresh->thread = ThreadNumber();
    fresh->spans.reserve(1 << 14);
    buffer = fresh.get();
    owner = id_;
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(fresh));
  }
  return buffer;
}

void Tracer::Record(const char* layer, uint64_t request, int64_t start_ns,
                    int64_t end_ns) {
  if (!enabled_) return;
  Buffer* b = Local();
  b->spans.push_back(
      Span{layer, phase(), b->thread, request, start_ns, end_ns});
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << "layer\tphase\tthread\trequest\tstart_ns\tend_ns\n";
  for (const Span& s : Collect()) {
    f << s.layer << '\t' << PhaseName(s.phase) << '\t' << s.thread << '\t'
      << s.request << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(f);
}

double Tracer::CalibrateRecordNanos() {
  constexpr int kSpans = 200000;
  Tracer probe(true);
  int64_t start = NowNanos();
  for (int i = 0; i < kSpans; ++i) {
    SpanScope s(probe, "calibrate", static_cast<uint64_t>(i));
  }
  return static_cast<double>(NowNanos() - start) / kSpans;
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  double rank = std::ceil(q * static_cast<double>(v->size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return (*v)[std::min(idx, v->size() - 1)];
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

Zipf::Zipf(size_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::operator()(std::mt19937_64& rng) const {
  double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  size_t r = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(r, cdf_.size() - 1);
}

double HostSpinMillis() {
  int64_t start = NowNanos();
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  double ms = static_cast<double>(NowNanos() - start) * 1e-6;
  // Keep the loop's result observable so it cannot be folded away.
  if (x == 0) std::fprintf(stderr, "spin\n");
  return ms;
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double DirectorySizeMb(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uintmax_t bytes = 0;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) bytes += it->file_size(ec);
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::string FilesystemName(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994ul:
      return "tmpfs";
    case 0xEF53ul:
      return "ext4";
    case 0x794c7630ul:
      return "overlay";
    case 0x58465342ul:
      return "xfs";
    case 0x9123683Eul:
      return "btrfs";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return buf;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
