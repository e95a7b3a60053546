#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdarg>
#include <functional>
#include <cstdio>
#include <cstring>
#include <cstdint>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <thread>
#include <unordered_map>

#include "core/eval.h"
#include "core/system.h"
#include "corpus/generator.h"
#include "harness.h"
#include "hi/simulated_user.h"
#include "obs/flight_recorder.h"
#include "serve/frontend.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using structura::Result;
using structura::Status;
using structura::StatusCode;
using structura::core::System;
namespace corpus = structura::corpus;
namespace obs = structura::obs;
namespace query = structura::query;
namespace rdbms = structura::rdbms;
namespace serve = structura::serve;
namespace text = structura::text;

constexpr const char* kExtractProgram =
    "CREATE VIEW facts AS EXTRACT infobox, temp_sentence, "
    "population_sentence, founded_sentence, elevation_sentence FROM pages;";
constexpr const char* kCheckProgram =
    "CREATE VIEW facts_check AS EXTRACT infobox, temp_sentence, "
    "population_sentence, founded_sentence, elevation_sentence FROM pages;";
constexpr const char* kResolveProgram =
    "CREATE VIEW ents AS RESOLVE ENTITIES FROM facts USING name "
    "THRESHOLD 0.85;";
constexpr int kSetupRepeats = 3;
constexpr size_t kClients = 4;
// dge_refresh's query threads. Fixed rather than nproc, so a run does the
// same work on any host; serial, because on a shared 4-vCPU host the
// morsel-parallel paths made round times several times less repeatable.
constexpr size_t kRefreshParallelism = 1;
constexpr size_t kRefreshForms = 20;
constexpr size_t kProbeRequests = 8;
// Reference rates on a 4-core x86 host; they turn --seconds into a fixed
// amount of work (requests or rounds) for each workload.
constexpr double kServeRate = 1800;    // serve_query requests per second
constexpr double kCurateRate = 400;    // curate_write requests per second
constexpr double kRoundSeconds = 3.0;  // one dge_refresh round

// ------------------------------------------------------------- inputs

/// Everything generated from the seed before any timer starts.
struct Inputs {
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  /// (subject, attribute) -> true value, for the simulated crowd.
  std::unordered_map<std::string, std::string> truth_values;
  /// City names in a seeded order: Zipf rank r picks cities[r].
  std::vector<std::string> cities;

  System::Oracle Oracle() const {
    return [this](const std::string& subject, const std::string& attribute)
               -> std::optional<std::string> {
      auto it = truth_values.find(subject + '\x1f' + attribute);
      if (it == truth_values.end()) return std::nullopt;
      return it->second;
    };
  }
};

void MakeInputs(const Config& cfg, Inputs* in) {
  corpus::CorpusOptions co;
  co.num_cities = cfg.small ? 100 : 2000;
  co.num_people = cfg.small ? 200 : 4000;
  co.num_companies = cfg.small ? 50 : 1000;
  co.news_pages = cfg.small ? 100 : 2000;
  co.infobox_dropout = 0.25;
  co.typo_prob = 0.05;
  co.seed = cfg.seed;
  corpus::GenerateCorpus(co, &in->docs, &in->truth);
  for (const corpus::FactTruth& f : in->truth.facts) {
    auto name = in->truth.canonical_names.find(f.entity);
    if (name == in->truth.canonical_names.end()) continue;
    in->truth_values.emplace(name->second + '\x1f' + f.attribute, f.value);
  }
  for (const corpus::CityRecord& c : in->truth.cities) {
    in->cities.push_back(c.name);
  }
  std::mt19937_64 rng(cfg.seed ^ 0x5eedc17e5ull);
  std::shuffle(in->cities.begin(), in->cities.end(), rng);
}

// ------------------------------------------------------------- set-up

struct SetupResult {
  std::unique_ptr<System> sys;
  Status status;
};

/// The common set-up: Create, operators, ingest, EXTRACT, beliefs,
/// materialize — plus the workload's own extra step (`extra`).
SetupResult SetUp(const Inputs& in, const std::string& workspace,
                  size_t parallelism, Tracer& tracer,
                  const std::function<Status(System&)>& extra) {
  System::Options options;
  options.workspace = workspace;
  options.query_parallelism = parallelism;
  Result<std::unique_ptr<System>> created = System::Create(options);
  if (!created.ok()) return {nullptr, created.status()};
  std::unique_ptr<System> sys = std::move(created).value();
  sys->RegisterStandardOperators();
  Status s;
  {
    SpanScope span(tracer, "storage.ingest");
    s = sys->IngestCrawl(in.docs);
  }
  if (s.ok()) {
    SpanScope span(tracer, "ie.extract");
    s = sys->RunProgram(kExtractProgram).status();
  }
  if (s.ok()) {
    SpanScope span(tracer, "uncertainty.beliefs");
    s = sys->BuildBeliefsFromView("facts");
  }
  if (s.ok()) {
    SpanScope span(tracer, "rdbms.materialize");
    s = sys->MaterializeBeliefs("final");
  }
  if (s.ok() && extra) s = extra(*sys);
  return {std::move(sys), s};
}

// ------------------------------------------------------- request mix

enum class Op : uint8_t { kKeyword, kForm, kSdl, kHybrid, kLookup, kUpdate };
constexpr size_t kNumOps = 6;
constexpr Op kAllOps[kNumOps] = {Op::kKeyword, Op::kForm,   Op::kSdl,
                                 Op::kHybrid,  Op::kLookup, Op::kUpdate};

const char* OpName(Op op) {
  switch (op) {
    case Op::kKeyword:
      return "keyword";
    case Op::kForm:
      return "form";
    case Op::kSdl:
      return "sdl";
    case Op::kHybrid:
      return "hybrid";
    case Op::kLookup:
      return "lookup";
    case Op::kUpdate:
      return "update";
  }
  return "?";
}

struct Request {
  Op op = Op::kKeyword;
  std::string subject;
  uint32_t variant = 0;
  /// Unique per run: client * 2^32 + sequence number.
  uint64_t serial = 0;
};

struct Reply {
  Status status;
  std::string answer;  // serialized, when the request asked for it
  // CostVector dimensions of the request (traced runs).
  uint64_t rows_scanned = 0;
  uint64_t wal_bytes = 0;
  double cold_form_ms = -1;  // >= 0: the form missed the cache
  // Correction written by an update.
  rdbms::RowId row = 0;
  rdbms::Row written;
};

/// Per-client request slot: the client fills `request`, submits, and
/// reads `reply` after the future resolves (the promise orders the
/// handler's writes before the client's reads).
struct Slot {
  Request request;
  bool want_answer = false;
  int64_t submit_ns = 0;
  Reply reply;
};

std::string SerializeHits(const std::vector<query::SearchHit>& hits) {
  std::string out;
  for (const query::SearchHit& h : hits) {
    char buf[64];
    uint64_t bits = 0;
    std::memcpy(&bits, &h.score, sizeof(bits));
    std::snprintf(buf, sizeof(buf), "%llu:%016llx:",
                  static_cast<unsigned long long>(h.doc),
                  static_cast<unsigned long long>(bits));
    out += buf;
    out += h.title;
    out += '\n';
  }
  return out;
}

std::string SerializeRow(const rdbms::Row& row) {
  std::string out;
  for (const rdbms::Value& v : row) v.AppendTo(&out);
  return out;
}

std::string SerializeRelation(const query::Relation& r) {
  std::string out;
  for (const std::string& c : r.columns()) out += c + '\t';
  out += '\n';
  for (const rdbms::Row& row : r.rows()) out += SerializeRow(row) + '\n';
  return out;
}

uint64_t CostOf(const serve::RequestContext& ctx, obs::CostDim d) {
  return ctx.cost == nullptr ? 0 : ctx.cost->Snapshot()[d];
}

constexpr const char* kKeywordWords[] = {"population", "temperature",
                                         "history", "economy"};
constexpr const char* kFormPhrases[] = {"population of", "elevation of"};
// The paper's motivating question: a city's average March-September
// temperature.
constexpr const char* kSdlTemplate =
    "SELECT subject, AVG(value) AS avg_temp FROM facts WHERE subject = "
    "\"%s\" AND attribute >= \"temp_03\" AND attribute <= \"temp_09\" "
    "GROUP BY subject;";
constexpr int64_t kHybridFloors[] = {10000, 100000};

/// The request handlers every workload and the layer probe share. Each
/// call into a layer's public function is wrapped in a span.
class Executor {
 public:
  Executor(System* sys, Tracer& tracer, size_t slots)
      : sys_(sys), tracer_(tracer), slots_(slots) {}

  Slot& slot(size_t i) { return slots_[i]; }

  void Register(serve::Frontend& fe) {
    for (Op op : kAllOps) {
      fe.RegisterOperator(OpName(op), [this, op](const serve::RequestContext& c) {
        return Handle(op, c);
      });
    }
    fe.MarkWrite(OpName(Op::kUpdate));
  }

 private:
  Status Handle(Op op, const serve::RequestContext& ctx) {
    Slot& slot = slots_[ctx.id];
    if (tracer_.enabled()) {
      tracer_.Record("serve.queue", slot.request.serial, slot.submit_ns,
                     NowNanos());
    }
    SpanScope handler(tracer_, "serve.handler", slot.request.serial);
    slot.reply = Reply{};
    slot.reply.status = Run(op, slot, ctx);
    slot.reply.rows_scanned = CostOf(ctx, obs::CostDim::kRowsScanned);
    return slot.reply.status;
  }

  Status Run(Op op, Slot& slot, const serve::RequestContext& ctx) {
    const Request& req = slot.request;
    Reply& reply = slot.reply;
    const uint64_t id = req.serial;
    switch (op) {
      case Op::kKeyword: {
        std::string q = req.subject + " " +
                        kKeywordWords[req.variant % std::size(kKeywordWords)];
        SpanScope span(tracer_, "query.keyword", id);
        Result<std::vector<query::SearchHit>> hits =
            sys_->KeywordSearch(q, 10, ctx.interrupt);
        if (!hits.ok()) return hits.status();
        if (slot.want_answer) reply.answer = SerializeHits(*hits);
        return Status::OK();
      }
      case Op::kForm: {
        std::string q =
            std::string(kFormPhrases[req.variant % std::size(kFormPhrases)]) +
            " " + req.subject;
        Result<std::vector<query::QueryForm>> forms = [&] {
          SpanScope span(tracer_, "query.translate", id);
          return sys_->SuggestQueries(q, ctx.interrupt);
        }();
        if (!forms.ok()) return forms.status();
        if (forms->empty()) return Status::NotFound("no form for: " + q);
        uint64_t rows = CostOf(ctx, obs::CostDim::kRowsScanned);
        int64_t start = NowNanos();
        Result<query::Relation> r = [&] {
          SpanScope span(tracer_, "query.form", id);
          return sys_->RunForm(forms->front(), ctx.interrupt);
        }();
        if (!r.ok()) return r.status();
        if (CostOf(ctx, obs::CostDim::kRowsScanned) > rows) {
          reply.cold_form_ms = static_cast<double>(NowNanos() - start) * 1e-6;
        }
        if (slot.want_answer) reply.answer = SerializeRelation(*r);
        return Status::OK();
      }
      case Op::kSdl: {
        char q[512];
        std::snprintf(q, sizeof(q), kSdlTemplate, req.subject.c_str());
        Result<query::Relation> r = [&] {
          SpanScope span(tracer_, "lang.sdl", id);
          return sys_->Query(q);
        }();
        if (!r.ok()) return r.status();
        if (slot.want_answer) reply.answer = SerializeRelation(*r);
        return Status::OK();
      }
      case Op::kHybrid: {
        std::vector<query::Condition> where = {
            {"attribute", query::CompareOp::kEq,
             rdbms::Value::Str("population")},
            {"value", query::CompareOp::kGe,
             rdbms::Value::Int(
                 kHybridFloors[req.variant % std::size(kHybridFloors)])}};
        SpanScope span(tracer_, "query.hybrid", id);
        Result<std::vector<query::SearchHit>> hits = sys_->HybridSearch(
            req.subject + " city", where, 10, ctx.interrupt);
        if (!hits.ok()) return hits.status();
        if (slot.want_answer) reply.answer = SerializeHits(*hits);
        return Status::OK();
      }
      case Op::kLookup:
      case Op::kUpdate:
        return RunTransaction(op, slot, ctx);
    }
    return Status::Internal("unknown op");
  }

  Status RunTransaction(Op op, Slot& slot, const serve::RequestContext& ctx) {
    const Request& req = slot.request;
    Reply& reply = slot.reply;
    const uint64_t id = req.serial;
    rdbms::Database* db = sys_->database();
    std::unique_ptr<rdbms::Transaction> txn = [&] {
      SpanScope span(tracer_, "rdbms.begin", id);
      return db->Begin();
    }();
    Result<std::vector<std::pair<rdbms::RowId, rdbms::Row>>> rows = [&] {
      SpanScope span(tracer_, "rdbms.lookup", id);
      return txn->IndexLookup("final", "subject",
                              rdbms::Value::Str(req.subject));
    }();
    if (!rows.ok() || (op == Op::kUpdate && rows->empty())) {
      SpanScope span(tracer_, "rdbms.abort", id);
      txn->Abort();
      return rows.ok() ? Status::NotFound("no rows for " + req.subject)
                       : rows.status();
    }
    if (slot.want_answer) {
      for (const auto& [rid, row] : *rows) {
        reply.answer += std::to_string(rid) + ':' + SerializeRow(row) + '\n';
      }
    }
    if (op == Op::kUpdate) {
      const auto& [rid, row] = (*rows)[req.variant % rows->size()];
      rdbms::Row fixed = row;
      fixed[2] = rdbms::Value::Str("fix-" + std::to_string(req.serial));
      Status s = [&] {
        SpanScope span(tracer_, "rdbms.update", id);
        return txn->Update("final", rid, fixed);
      }();
      if (!s.ok()) {
        SpanScope span(tracer_, "rdbms.abort", id);
        txn->Abort();
        return s;
      }
      reply.row = rid;
      reply.written = std::move(fixed);
    }
    uint64_t wal = CostOf(ctx, obs::CostDim::kWalBytesAppended);
    Status committed = [&] {
      SpanScope span(tracer_, "rdbms.commit", id);
      return txn->Commit();
    }();
    reply.wal_bytes = CostOf(ctx, obs::CostDim::kWalBytesAppended) - wal;
    return committed;
  }

  System* sys_;
  Tracer& tracer_;
  std::vector<Slot> slots_;
};

// --------------------------------------------------------- statistics

/// What a workload's timed phase measured, merged over clients.
struct ClassStats {
  std::vector<double> latency_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t aborted = 0;
  uint64_t rows_scanned = 0;
  uint64_t wal_bytes = 0;
  uint64_t commits = 0;
  std::vector<double> cold_form_ms;

  void Merge(const ClassStats& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    cold_form_ms.insert(cold_form_ms.end(), o.cold_form_ms.begin(),
                        o.cold_form_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    aborted += o.aborted;
    rows_scanned += o.rows_scanned;
    wal_bytes += o.wal_bytes;
    commits += o.commits;
  }
};

struct Correction {
  rdbms::RowId row = 0;
  rdbms::Row written;
};

/// An answer the timed phase served, kept for the cache-staleness check.
struct Sample {
  Request request;
  std::string served;
};

/// One timed request, for the end-to-end figures.
struct Completion {
  int64_t done_ns = 0;
  double ms = 0;
  bool ok = false;
};

struct ClientResult {
  std::array<ClassStats, kNumOps> classes;
  std::vector<Completion> completions;
  std::vector<Correction> acked;
  std::vector<Correction> refused;
  std::vector<Sample> samples;
  /// When the client's last request resolved.
  int64_t finished_ns = 0;
};

/// One traced-or-not request through the frontend; returns its status.
Status Submit(serve::Frontend& fe, Executor& ex, size_t slot_index,
              const Request& req, bool want_answer, bool no_cache,
              bool with_cost) {
  Slot& slot = ex.slot(slot_index);
  slot.request = req;
  slot.want_answer = want_answer;
  // A request shed at admission never reaches the handler; it must not
  // report the previous request's reply.
  slot.reply = Reply{};
  serve::RequestContext ctx;
  ctx.id = slot_index;
  ctx.no_cache = no_cache;
  if (with_cost) ctx.cost = std::make_shared<obs::CostAccumulator>();
  slot.submit_ns = NowNanos();
  return fe.Submit(OpName(req.op), std::move(ctx)).get();
}

/// Draws the next request of a client's seeded stream.
using RequestSource = std::function<Request(std::mt19937_64&, uint64_t)>;

/// The closed loop: kClients clients, each with one request in flight.
/// Every client first sends `warmup` requests, then — once all clients
/// are warm and `on_timed` has run — `timed` recorded ones, so each run
/// issues the same request sequence per client.
std::vector<ClientResult> RunClients(serve::Frontend& fe, Executor& ex,
                                     Tracer& tracer, uint64_t seed,
                                     uint64_t warmup, uint64_t timed,
                                     const RequestSource& source,
                                     const std::function<void()>& on_timed,
                                     int64_t* timed_from_ns) {
  std::vector<ClientResult> results(kClients);
  std::atomic<int64_t> timed_from{0};
  std::barrier warm(static_cast<std::ptrdiff_t>(kClients), [&]() noexcept {
    on_timed();
    tracer.SetPhase(Phase::kTimed);
    timed_from.store(NowNanos());
  });
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 1000003 + c);
      ClientResult& out = results[c];
      std::array<size_t, kNumOps> sampled{};
      for (uint64_t n = 0; n < warmup + timed; ++n) {
        if (n == warmup) warm.arrive_and_wait();
        const bool is_timed = n >= warmup;
        Request req = source(rng, c);
        req.serial = (static_cast<uint64_t>(c) << 32) | n;
        const size_t k = static_cast<size_t>(req.op);
        // A fixed share of each class is kept for the staleness check.
        const bool want = is_timed && n % 41 == 7 && sampled[k] < 10;
        const int64_t start = NowNanos();
        Status s = Submit(fe, ex, c, req, want, /*no_cache=*/false,
                          tracer.enabled());
        const double ms = static_cast<double>(NowNanos() - start) * 1e-6;
        const Reply& reply = ex.slot(c).reply;
        if (req.op == Op::kUpdate && !reply.written.empty()) {
          (s.ok() ? out.acked : out.refused)
              .push_back({reply.row, reply.written});
        }
        if (!is_timed) continue;
        ClassStats& cs = out.classes[k];
        ++cs.attempted;
        cs.latency_ms.push_back(ms);
        out.completions.push_back({start + static_cast<int64_t>(ms * 1e6), ms,
                                   s.ok()});
        if (!s.ok()) {
          ++cs.failed;
          if (s.code() == StatusCode::kAborted) ++cs.aborted;
        }
        cs.rows_scanned += reply.rows_scanned;
        cs.wal_bytes += reply.wal_bytes;
        if (s.ok() && (req.op == Op::kLookup || req.op == Op::kUpdate)) {
          ++cs.commits;
        }
        if (reply.cold_form_ms >= 0) {
          cs.cold_form_ms.push_back(reply.cold_form_ms);
        }
        if (want && s.ok()) {
          ++sampled[k];
          out.samples.push_back({req, reply.answer});
        }
      }
      out.finished_ns = NowNanos();
    });
  }
  for (std::thread& t : clients) t.join();
  *timed_from_ns = timed_from.load();
  return results;
}

// ------------------------------------------------------ metric output

struct Report {
  Outcome* out;
  void E2E(const std::string& n, double v, const std::string& u) {
    out->end_to_end.push_back({n, v, u});
  }
  void Layer(const std::string& n, double v, const std::string& u) {
    out->per_layer.push_back({n, v, u});
  }
  void Note(const std::string& line) { out->notes.push_back(line); }
};

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

/// Spans grouped by layer; a layer's figures come from the timed phase
/// when the workload called it there, else from the probe, else from
/// set-up.
class LayerView {
 public:
  explicit LayerView(const std::vector<Span>& spans) {
    for (const Span& s : spans) by_layer_[s.layer][static_cast<int>(s.phase)].push_back(s.ms());
  }

  std::vector<double> Ms(const std::string& layer) const {
    auto it = by_layer_.find(layer);
    if (it == by_layer_.end()) return {};
    for (Phase p : {Phase::kTimed, Phase::kProbe, Phase::kSetup}) {
      auto ph = it->second.find(static_cast<int>(p));
      if (ph != it->second.end() && !ph->second.empty()) return ph->second;
    }
    return {};
  }

  std::vector<double> Ms(const std::string& layer, Phase p) const {
    auto it = by_layer_.find(layer);
    if (it == by_layer_.end()) return {};
    auto ph = it->second.find(static_cast<int>(p));
    return ph == it->second.end() ? std::vector<double>{} : ph->second;
  }

  double Q(const std::string& layer, double q) const {
    std::vector<double> v = Ms(layer);
    return Quantile(&v, q);
  }

  double BusyS(const std::string& layer) const { return Sum(Ms(layer)) * 1e-3; }
  double TimedBusyS(const std::string& layer) const {
    return Sum(Ms(layer, Phase::kTimed)) * 1e-3;
  }

  /// Whether the timed phase called `layer` (else its figures come from
  /// the probe).
  bool Timed(const std::string& layer) const {
    return !Ms(layer, Phase::kTimed).empty();
  }

 private:
  static double Sum(const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return s;
  }
  std::map<std::string, std::map<int, std::vector<double>>> by_layer_;
};

/// Counts taken from the library's own counters around a phase, keyed
/// like the per-layer metrics they feed.
struct LayerCounts {
  double shed = 0, retries = 0;
  double cache_hits = 0, cache_misses = 0, cache_evictions = 0,
         cache_invalidations = 0;
  double rows_scanned_per_req = 0;
  double wal_bytes_per_commit = 0;
  double extractor_calls_per_refresh = 0;
  double aborted = 0;
  std::vector<double> cold_form_ms;
  std::map<std::string, double> failures;  // per class
};

void AddCacheDelta(const query::QueryResultCache* cache,
                   const query::QueryResultCache::Stats& before,
                   LayerCounts* lc) {
  if (cache == nullptr) return;
  query::QueryResultCache::Stats after = cache->stats();
  lc->cache_hits += static_cast<double>(after.hits - before.hits);
  lc->cache_misses += static_cast<double>(after.misses - before.misses);
  lc->cache_evictions += static_cast<double>(after.evictions - before.evictions);
  lc->cache_invalidations +=
      static_cast<double>(after.invalidations - before.invalidations);
}

query::QueryResultCache::Stats CacheStats(const System& sys) {
  return sys.result_cache() != nullptr ? sys.result_cache()->stats()
                                       : query::QueryResultCache::Stats{};
}

/// Emits every per-layer metric, in the order BENCHMARK.json lists them.
void EmitPerLayer(const std::vector<Span>& spans, const LayerCounts& lc,
                  double host_spin_ms, double record_ns, double dominant_share,
                  Report& rep) {
  LayerView v(spans);
  rep.Layer("serve.queue_wait_p50_ms", v.Q("serve.queue", 0.5), "ms");
  rep.Layer("serve.queue_wait_p99_ms", v.Q("serve.queue", 0.99), "ms");
  rep.Layer("serve.shed", lc.shed, "count");
  rep.Layer("serve.retries", lc.retries, "count");
  rep.Layer("query.keyword.p50_ms", v.Q("query.keyword", 0.5), "ms");
  rep.Layer("query.keyword.p99_ms", v.Q("query.keyword", 0.99), "ms");
  rep.Layer("query.keyword.busy_s", v.BusyS("query.keyword"), "s");
  rep.Layer("query.translate.p50_ms", v.Q("query.translate", 0.5), "ms");
  rep.Layer("query.translate.busy_s", v.BusyS("query.translate"), "s");
  rep.Layer("query.form.p50_ms", v.Q("query.form", 0.5), "ms");
  rep.Layer("query.form.p99_ms", v.Q("query.form", 0.99), "ms");
  rep.Layer("query.form.busy_s", v.BusyS("query.form"), "s");
  rep.Layer("query.form.cold_ms", Median(lc.cold_form_ms), "ms");
  rep.Layer("lang.sdl.p50_ms", v.Q("lang.sdl", 0.5), "ms");
  rep.Layer("lang.sdl.p99_ms", v.Q("lang.sdl", 0.99), "ms");
  rep.Layer("lang.sdl.busy_s", v.BusyS("lang.sdl"), "s");
  rep.Layer("cost.rows_scanned_per_req", lc.rows_scanned_per_req, "rows");
  rep.Layer("query.hybrid.p50_ms", v.Q("query.hybrid", 0.5), "ms");
  rep.Layer("query.hybrid.p99_ms", v.Q("query.hybrid", 0.99), "ms");
  rep.Layer("query.hybrid.busy_s", v.BusyS("query.hybrid"), "s");
  double lookups = lc.cache_hits + lc.cache_misses;
  rep.Layer("query.cache.hit_ratio",
            lookups > 0 ? lc.cache_hits / lookups : 0, "ratio");
  rep.Layer("query.cache.evictions", lc.cache_evictions, "count");
  rep.Layer("query.cache.invalidations", lc.cache_invalidations, "count");
  rep.Layer("rdbms.lookup.p50_ms", v.Q("rdbms.lookup", 0.5), "ms");
  rep.Layer("rdbms.lookup.p99_ms", v.Q("rdbms.lookup", 0.99), "ms");
  rep.Layer("rdbms.update.p50_ms", v.Q("rdbms.update", 0.5), "ms");
  rep.Layer("rdbms.commit.p50_ms", v.Q("rdbms.commit", 0.5), "ms");
  rep.Layer("rdbms.commit.p99_ms", v.Q("rdbms.commit", 0.99), "ms");
  rep.Layer("rdbms.busy_s",
            v.BusyS("rdbms.begin") + v.BusyS("rdbms.lookup") +
                v.BusyS("rdbms.update") + v.BusyS("rdbms.commit") +
                v.BusyS("rdbms.abort"),
            "s");
  rep.Layer("rdbms.aborted", lc.aborted, "count");
  rep.Layer("rdbms.wal_bytes_per_commit", lc.wal_bytes_per_commit, "bytes");
  rep.Layer("storage.ingest_ms", v.Q("storage.ingest", 0.5), "ms");
  rep.Layer("ie.refresh_ms", v.Q("ie.refresh", 0.5), "ms");
  rep.Layer("ie.extractor_calls", lc.extractor_calls_per_refresh, "count");
  rep.Layer("ii.resolve_ms", v.Q("ii.resolve", 0.5), "ms");
  rep.Layer("uncertainty.beliefs_ms", v.Q("uncertainty.beliefs", 0.5), "ms");
  rep.Layer("hi.feedback_ms", v.Q("hi.feedback", 0.5), "ms");
  rep.Layer("rdbms.materialize_ms", v.Q("rdbms.materialize", 0.5), "ms");
  auto setup_ms = [&](const char* layer) {
    return Median(v.Ms(layer, Phase::kSetup));
  };
  rep.Layer("setup.ingest_ms", setup_ms("storage.ingest"), "ms");
  rep.Layer("setup.extract_ms", setup_ms("ie.extract"), "ms");
  rep.Layer("setup.beliefs_ms", setup_ms("uncertainty.beliefs"), "ms");
  rep.Layer("setup.materialize_ms", setup_ms("rdbms.materialize"), "ms");
  rep.Layer("host.spin_ms", host_spin_ms, "ms");
  // Tracing overhead: the calibrated cost of one span record times the
  // spans the timed phase recorded, over the timed phase's busy time.
  size_t timed_spans = 0;
  for (const Span& s : spans) timed_spans += s.phase == Phase::kTimed;
  double busy_s = v.TimedBusyS("serve.handler") + v.TimedBusyS("dge.round");
  rep.Layer("trace.overhead_frac",
            busy_s > 0 ? timed_spans * record_ns * 1e-9 / busy_s : 0,
            "fraction");
  rep.Layer("dominant_layer.share", dominant_share, "ratio");
  for (Op op : kAllOps) {
    auto it = lc.failures.find(OpName(op));
    rep.Layer(std::string("fail.") + OpName(op),
              it == lc.failures.end() ? 0 : it->second, "count");
  }
  auto round = lc.failures.find("round");
  rep.Layer("fail.round", round == lc.failures.end() ? 0 : round->second,
            "count");
  std::string probed;
  for (const char* layer :
       {"serve.queue", "query.keyword", "query.translate", "query.form",
        "lang.sdl", "query.hybrid", "rdbms.lookup", "rdbms.update",
        "storage.ingest", "ie.refresh", "ii.resolve", "uncertainty.beliefs",
        "hi.feedback", "rdbms.materialize"}) {
    if (v.Timed(layer)) continue;
    if (!probed.empty()) probed += ", ";
    probed += layer;
  }
  rep.Note("layers figured from the probe or set-up (the timed phase does "
           "not call them): " + (probed.empty() ? std::string("none") : probed));
}

// --------------------------------------------------------- DGE rounds

struct RoundResult {
  Status status;
  double seconds = 0;
  uint64_t extractor_calls = 0;
  uint64_t form_rows_scanned = 0;
  std::vector<double> cold_form_ms;
};

/// Picks the refresh workload's form queries: the first
/// kRefreshForms cities in seeded order, alternating phrasings.
std::vector<query::QueryForm> PickForms(const System& sys, const Inputs& in) {
  std::vector<query::QueryForm> forms;
  for (size_t i = 0; i < in.cities.size() && forms.size() < kRefreshForms;
       ++i) {
    std::vector<query::QueryForm> f = sys.SuggestQueries(
        std::string(kFormPhrases[i % std::size(kFormPhrases)]) + " " +
        in.cities[i]);
    if (!f.empty()) forms.push_back(f.front());
  }
  return forms;
}

/// One generation round over `crawl`: ingest, refresh, beliefs,
/// feedback, materialize, then the form queries the refresh made cold.
RoundResult RunRound(System& sys, const Inputs& in,
                     const text::DocumentCollection& crawl,
                     const std::vector<query::QueryForm>& forms,
                     std::vector<structura::hi::SimulatedUser>* crowd,
                     Tracer& tracer, uint64_t round_id) {
  RoundResult rr;
  const int64_t start = NowNanos();
  SpanScope round_span(tracer, "dge.round", round_id);
  auto step = [&](const char* layer, auto&& fn) {
    if (!rr.status.ok()) return;
    SpanScope span(tracer, layer, round_id);
    rr.status = fn();
  };
  step("storage.ingest", [&] { return sys.IngestCrawl(crawl); });
  obs::CostAccumulator refresh_cost;
  step("ie.refresh", [&] {
    obs::ScopedCostContext scope(&refresh_cost);
    return sys.RunProgram("REFRESH VIEW facts;").status();
  });
  rr.extractor_calls =
      refresh_cost.Snapshot()[obs::CostDim::kExtractorCalls];
  step("uncertainty.beliefs", [&] { return sys.BuildBeliefsFromView("facts"); });
  step("hi.feedback", [&] {
    System::FeedbackOptions fo;
    fo.budget = 50;
    return sys.RunFeedbackRound(in.Oracle(), crowd, fo).status();
  });
  step("rdbms.materialize", [&] { return sys.MaterializeBeliefs("final"); });
  for (const query::QueryForm& form : forms) {
    if (!rr.status.ok()) break;
    obs::CostAccumulator cost;
    int64_t t = NowNanos();
    {
      obs::ScopedCostContext scope(&cost);
      SpanScope span(tracer, "query.form", round_id);
      rr.status = sys.RunForm(form).status();
    }
    rr.form_rows_scanned += cost.Snapshot()[obs::CostDim::kRowsScanned];
    if (cost.Snapshot()[obs::CostDim::kRowsScanned] > 0) {
      rr.cold_form_ms.push_back(static_cast<double>(NowNanos() - t) * 1e-6);
    }
  }
  rr.seconds = SecondsSince(start);
  return rr;
}

// ------------------------------------------------------------- probe

/// Calls, a few times each, every layer entry point the workload's
/// timed phase does not, so every per-layer figure is measured on every
/// workload. Runs after the answer checks, in traced runs only; the
/// report notes which layers it supplied.
Status RunLayerProbe(System& sys, const Inputs& in, Tracer& tracer,
                     const std::set<Op>& ops, bool dge_round, uint64_t seed,
                     LayerCounts* lc) {
  tracer.SetPhase(Phase::kProbe);
  if (!ops.empty()) {
    if ((ops.count(Op::kLookup) || ops.count(Op::kUpdate)) &&
        sys.database()->GetTable("final") != nullptr) {
      SpanScope span(tracer, "rdbms.index");
      Status s = sys.database()->CreateIndex("final", "subject");
      if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
    }
    serve::Frontend::Options fo;
    fo.num_threads = 1;
    fo.seed = seed;
    fo.health = &sys.health();
    serve::Frontend fe(fo);
    Executor ex(&sys, tracer, 1);
    ex.Register(fe);
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
    uint64_t serial = 1ull << 48;
    // Counts the timed phase already measured are kept; the probe only
    // fills the ones it left empty.
    double rows = 0, wal = 0, commits = 0, requests = 0;
    std::vector<double> cold;
    for (Op op : ops) {
      for (size_t i = 0; i < kProbeRequests; ++i) {
        Request req{op, in.cities[i % in.cities.size()],
                    static_cast<uint32_t>(rng() % 8), serial++};
        Status s = Submit(fe, ex, 0, req, false, false, true);
        if (!s.ok()) return s;
        const Reply& r = ex.slot(0).reply;
        ++requests;
        rows += static_cast<double>(r.rows_scanned);
        if (op == Op::kLookup || op == Op::kUpdate) {
          wal += static_cast<double>(r.wal_bytes);
          ++commits;
        }
        if (r.cold_form_ms >= 0) cold.push_back(r.cold_form_ms);
      }
    }
    if (lc->rows_scanned_per_req == 0) lc->rows_scanned_per_req = rows / requests;
    if (lc->wal_bytes_per_commit == 0 && commits > 0) {
      lc->wal_bytes_per_commit = wal / commits;
    }
    if (lc->cold_form_ms.empty()) lc->cold_form_ms = cold;
  }
  if (dge_round) {
    auto crowd = structura::hi::MakeCrowd(9, 0.7, 0.95, seed);
    std::vector<query::QueryForm> forms = PickForms(sys, in);
    text::DocumentCollection crawl = sys.documents();
    corpus::MutateCrawl(seed * 7919 + 1, 0.10, &crawl);
    RoundResult rr = RunRound(sys, in, crawl, forms, &crowd, tracer, 1);
    if (!rr.status.ok()) return rr.status;
    lc->extractor_calls_per_refresh = static_cast<double>(rr.extractor_calls);
    if (lc->cold_form_ms.empty()) lc->cold_form_ms = rr.cold_form_ms;
    if (sys.View("ents") == nullptr) {
      SpanScope span(tracer, "ii.resolve");
      Status s = sys.RunProgram(kResolveProgram).status();
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

// ----------------------------------------------------------- running

struct Common {
  Inputs in;
  std::string root;        // per-run scratch directory
  std::string workspace;   // the kept set-up's workspace
  std::unique_ptr<System> sys;
  double setup_s = 0;
  std::vector<double> setup_runs;
};

/// Generates the inputs and runs the set-up kSetupRepeats times (each in
/// a fresh workspace), keeping the last System. setup_s is the median.
Status Prepare(const Config& cfg, size_t parallelism,
               const std::function<Status(System&)>& extra, Tracer& tracer,
               Common* c) {
  MakeInputs(cfg, &c->in);
  c->root = cfg.work_dir + "/" + cfg.workload + "-s" + std::to_string(cfg.seed);
  std::error_code ec;
  fs::remove_all(c->root, ec);
  fs::create_directories(c->root, ec);
  if (ec) return Status::IoError("cannot create " + c->root);
  tracer.SetPhase(Phase::kSetup);
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    c->sys.reset();
    fs::remove_all(c->workspace, ec);
    c->workspace = c->root + "/setup" + std::to_string(rep);
    int64_t start = NowNanos();
    SetupResult r = SetUp(c->in, c->workspace, parallelism, tracer, extra);
    double s = SecondsSince(start);
    if (!r.status.ok()) return r.status;
    c->setup_runs.push_back(s);
    c->sys = std::move(r.sys);
  }
  c->setup_s = Median(c->setup_runs);
  return Status::OK();
}

std::string Join(const std::vector<double>& v, const char* fmt) {
  std::string out;
  for (double x : v) {
    if (!out.empty()) out += ' ';
    out += Fmt(fmt, x);
  }
  return out;
}

void CommonNotes(const Config& cfg, const Common& c, Report& rep) {
  rep.Note(Fmt("workload %s seed %llu: %zu pages, facts view %zu rows, "
               "final table %zu beliefs",
               cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
               c.in.docs.size(),
               c.sys->View("facts") ? c.sys->View("facts")->size() : 0,
               c.sys->beliefs().size()));
  rep.Note("set-up runs (s): " + Join(c.setup_runs, "%.3f"));
  rep.Note("workspace " + c.workspace + " on " + FilesystemName(c.root) +
           "; WAL flush policy: fsync per commit (System default)");
}

/// Ends a run: the end-to-end metrics every workload reports.
void EmitEndToEnd(const Common& c, double throughput, double p50_ms,
                  double p99_ms, double workspace_mb, double f1, Report& rep) {
  rep.E2E("setup_s", c.setup_s, "s");
  rep.E2E("throughput_per_s", throughput, "1/s");
  rep.E2E("p50_ms", p50_ms, "ms");
  rep.E2E("p99_ms", p99_ms, "ms");
  rep.E2E("peak_rss_mb", PeakRssMb(), "MB");
  rep.E2E("workspace_mb", workspace_mb, "MB");
  rep.E2E("belief_f1", f1, "ratio");
}

void Fail(Outcome* out, const std::string& why) {
  out->correct = false;
  out->notes.push_back("FAILED: " + why);
}

/// Writes the run's spans next to the workspaces, for offline analysis.
void WriteTrace(const Config& cfg, const Tracer& tracer, Report& rep) {
  std::string path = cfg.work_dir + "/trace-" + cfg.workload + "-s" +
                     std::to_string(cfg.seed) + ".tsv";
  if (tracer.WriteTsv(path)) {
    rep.Note("spans written to " + path);
  } else {
    rep.Note("could not write spans to " + path);
  }
}

/// serve_query and curate_write: the closed client loop over a Frontend.
void RunServing(const Config& cfg, Outcome* out) {
  Report rep{out};
  const bool serve_mode = cfg.workload == "serve_query";
  Tracer tracer(cfg.trace);
  Common c;
  auto extra = [&](System& sys) -> Status {
    if (serve_mode) return Status::OK();
    SpanScope span(tracer, "rdbms.index");
    return sys.database()->CreateIndex("final", "subject");
  };
  if (Status s = Prepare(cfg, 1, extra, tracer, &c); !s.ok()) {
    return Fail(out, "set-up: " + s.ToString());
  }
  CommonNotes(cfg, c, rep);
  System& sys = *c.sys;

  // Subjects: cities for serve_query; for curate_write every subject of
  // the final table, in seeded order, with updates partitioned so two
  // clients never correct the same subject (no upgrade deadlocks).
  std::vector<std::string> subjects = c.in.cities;
  if (!serve_mode) {
    std::set<std::string> all;
    for (const auto& b : sys.beliefs()) all.insert(b.subject);
    subjects.assign(all.begin(), all.end());
    std::mt19937_64 rng(cfg.seed ^ 0xc0ffeeull);
    std::shuffle(subjects.begin(), subjects.end(), rng);
  }
  const Zipf zipf(subjects.size(), 1.0);
  const Zipf zipf_part(subjects.size() / kClients, 1.0);
  RequestSource source = [&](std::mt19937_64& rng, uint64_t client) {
    Request req;
    uint32_t pick = static_cast<uint32_t>(rng() % 100);
    req.variant = static_cast<uint32_t>(rng() % 1024);
    if (serve_mode) {
      req.op = pick < 40 ? Op::kKeyword
               : pick < 65 ? Op::kForm
               : pick < 85 ? Op::kSdl
                           : Op::kHybrid;
      req.subject = subjects[zipf(rng)];
    } else {
      req.op = pick < 50 ? Op::kLookup : pick < 80 ? Op::kUpdate : Op::kKeyword;
      req.subject = req.op == Op::kUpdate
                        ? subjects[zipf_part(rng) * kClients + client]
                        : subjects[zipf(rng)];
    }
    return req;
  };

  serve::Frontend::Options fo;
  fo.num_threads = kClients;
  fo.seed = cfg.seed;
  fo.health = &sys.health();
  auto fe = std::make_unique<serve::Frontend>(fo);
  Executor ex(&sys, tracer, kClients);
  ex.Register(*fe);

  // Request counts follow from --seconds at the reference rate, so the
  // timed phase lasts about that long on the reference host and every
  // run issues the same requests.
  const double rate = serve_mode ? kServeRate : kCurateRate;
  const uint64_t per_client = std::max<uint64_t>(
      1, static_cast<uint64_t>(cfg.seconds * rate / kClients));
  const uint64_t warmup = per_client / 5;
  LayerCounts lc;
  const double spin_before = HostSpinMillis();
  serve::ServingCounters fe_before;
  query::QueryResultCache::Stats cache_before;
  auto on_timed = [&] {
    fe_before = fe->Counters();
    cache_before = CacheStats(sys);
  };
  tracer.SetPhase(Phase::kWarmup);
  int64_t timed_from = 0;
  std::vector<ClientResult> clients =
      RunClients(*fe, ex, tracer, cfg.seed, warmup, per_client, source,
                 on_timed, &timed_from);
  // The end-to-end figures cover the interval in which every client is
  // still busy: once the first client is done the others run with less
  // contention, and how long that tail lasts depends on how the misses
  // happened to fall between the clients.
  int64_t timed_to = clients.front().finished_ns;
  for (const ClientResult& r : clients) {
    timed_to = std::min(timed_to, r.finished_ns);
  }
  const double elapsed = static_cast<double>(timed_to - timed_from) * 1e-9;
  tracer.SetPhase(Phase::kCheck);
  const double spin_after = HostSpinMillis();
  const double workspace_mb = DirectorySizeMb(c.workspace);
  const double f1 = structura::core::ScoreBeliefs(sys.beliefs(), c.in.truth).f1();
  AddCacheDelta(sys.result_cache(), cache_before, &lc);
  serve::ServingCounters fe_after = fe->Counters();
  lc.shed = static_cast<double>((fe_after.shed - fe_before.shed) +
                                (fe_after.shed_queued_wait -
                                 fe_before.shed_queued_wait));
  lc.retries = static_cast<double>(fe_after.retries - fe_before.retries);

  std::array<ClassStats, kNumOps> classes;
  ClassStats all;
  std::vector<Correction> acked, refused;
  std::vector<Sample> samples;
  for (ClientResult& r : clients) {
    for (size_t k = 0; k < kNumOps; ++k) classes[k].Merge(r.classes[k]);
    acked.insert(acked.end(), r.acked.begin(), r.acked.end());
    refused.insert(refused.end(), r.refused.begin(), r.refused.end());
    samples.insert(samples.end(), r.samples.begin(), r.samples.end());
  }
  for (size_t k = 0; k < kNumOps; ++k) {
    all.Merge(classes[k]);
    if (classes[k].attempted == 0) continue;
    std::vector<double> lat = classes[k].latency_ms;
    double p50 = Quantile(&lat, 0.5), p99 = Quantile(&lat, 0.99);
    rep.Note(Fmt("class %-7s n=%-6llu failed=%llu p50=%.3f ms p99=%.3f ms",
                 OpName(kAllOps[k]),
                 static_cast<unsigned long long>(classes[k].attempted),
                 static_cast<unsigned long long>(classes[k].failed), p50, p99));
    lc.failures[OpName(kAllOps[k])] = static_cast<double>(classes[k].failed);
  }
  lc.rows_scanned_per_req =
      all.attempted ? static_cast<double>(all.rows_scanned) / all.attempted : 0;
  lc.wal_bytes_per_commit =
      all.commits ? static_cast<double>(all.wal_bytes) / all.commits : 0;
  lc.aborted = static_cast<double>(all.aborted);
  lc.cold_form_ms = classes[static_cast<size_t>(Op::kForm)].cold_form_ms;
  out->attempted = all.attempted;
  out->failed = all.failed;
  std::vector<double> pooled;
  uint64_t completed_ok = 0;
  for (const ClientResult& r : clients) {
    for (const Completion& k : r.completions) {
      if (k.done_ns > timed_to) continue;
      pooled.push_back(k.ms);
      completed_ok += k.ok ? 1 : 0;
    }
  }
  const double throughput = completed_ok / elapsed;
  const double p50 = Quantile(&pooled, 0.5), p99 = Quantile(&pooled, 0.99);
  rep.Note(Fmt("%llu warm-up requests per client, then %llu timed; the "
               "figures cover the %.2f s while every client was busy, %zu "
               "requests; host spin %.1f/%.1f ms",
               static_cast<unsigned long long>(warmup),
               static_cast<unsigned long long>(all.attempted), elapsed,
               pooled.size(), spin_before, spin_after));
  EmitEndToEnd(c, throughput, p50, p99, workspace_mb, f1, rep);

  // ---- answer checks
  out->correct = true;
  // curate_write: the last acknowledged correction per row, as bytes.
  std::map<rdbms::RowId, std::string> expect;
  auto verify_corrections = [&](rdbms::Database* db, const char* when) {
    std::unique_ptr<rdbms::Transaction> txn = db->Begin();
    size_t bad = 0;
    for (const auto& [row, want] : expect) {
      Result<rdbms::Row> got = txn->Get("final", row);
      if (!got.ok() || SerializeRow(*got) != want) ++bad;
    }
    for (const Correction& k : refused) {
      Result<rdbms::Row> got = txn->Get("final", k.row);
      if (got.ok() && SerializeRow(*got) == SerializeRow(k.written)) ++bad;
    }
    Status s = txn->Commit();
    rep.Note(Fmt("check corrections (%s): %zu acknowledged rows, %zu "
                 "refused writes, %zu wrong",
                 when, expect.size(), refused.size(), bad));
    if (!s.ok()) Fail(out, "read-back commit: " + s.ToString());
    if (bad > 0) Fail(out, std::string("corrections wrong ") + when);
  };
  if (serve_mode) {
    // No cache hit is stale: each sampled answer re-run with no_cache
    // must match the served bytes.
    std::map<std::string, size_t> per_class;
    size_t mismatches = 0;
    for (size_t i = 0; i < samples.size(); ++i) {
      Sample& sm = samples[i];
      if (i == 0 && cfg.corrupt == "serve_query") sm.served += "#";
      Status s = Submit(*fe, ex, 0, sm.request, true, /*no_cache=*/true, false);
      if (!s.ok() || ex.slot(0).reply.answer != sm.served) ++mismatches;
      ++per_class[OpName(sm.request.op)];
    }
    std::string counts;
    for (const auto& [k, n] : per_class) counts += Fmt(" %s=%zu", k.c_str(), n);
    rep.Note(Fmt("check no-stale-cache: %zu sampled answers re-run uncached, "
                 "%zu mismatched;%s",
                 samples.size(), mismatches, counts.c_str()));
    if (per_class.size() < 4) Fail(out, "check sampled fewer than 4 classes");
    if (mismatches > 0) {
      Fail(out, "a served answer differs from an uncached re-run");
    }
  } else {
    for (const Correction& k : acked) expect[k.row] = SerializeRow(k.written);
    if (cfg.corrupt == "curate_write" && !expect.empty()) {
      expect.begin()->second += "#";
    }
    if (expect.empty()) Fail(out, "no correction was acknowledged");
    verify_corrections(sys.database(), "live");
  }

  if (cfg.trace) {
    std::set<Op> probe_ops =
        serve_mode ? std::set<Op>{Op::kLookup, Op::kUpdate}
                   : std::set<Op>{Op::kForm, Op::kSdl, Op::kHybrid};
    Status s =
        RunLayerProbe(sys, c.in, tracer, probe_ops, true, cfg.seed, &lc);
    if (!s.ok()) Fail(out, "layer probe: " + s.ToString());
  }
  tracer.SetPhase(Phase::kCheck);
  fe.reset();
  if (!serve_mode) {
    // After a restart over the same workspace every acknowledged
    // correction is still there and no refused one is.
    c.sys.reset();
    System::Options options;
    options.workspace = c.workspace;
    Result<std::unique_ptr<System>> reopened = System::Create(options);
    if (!reopened.ok()) {
      Fail(out, "re-create: " + reopened.status().ToString());
    } else {
      verify_corrections((*reopened)->database(), "after restart");
    }
  }

  if (cfg.trace) {
    std::vector<Span> spans = tracer.Collect();
    LayerView v(spans);
    double handler = v.TimedBusyS("serve.handler");
    double dominant =
        serve_mode ? v.TimedBusyS("query.keyword") +
                         v.TimedBusyS("query.translate") +
                         v.TimedBusyS("query.form") + v.TimedBusyS("lang.sdl") +
                         v.TimedBusyS("query.hybrid")
                   : v.TimedBusyS("rdbms.begin") + v.TimedBusyS("rdbms.lookup") +
                         v.TimedBusyS("rdbms.update") +
                         v.TimedBusyS("rdbms.commit") +
                         v.TimedBusyS("rdbms.abort");
    double share = handler > 0 ? dominant / handler : 0;
    rep.Note(Fmt("dominant layer (%s) busy %.2f s of %.2f s worker busy = %.3f",
                 serve_mode ? "query+lang" : "rdbms", dominant, handler, share));
    EmitPerLayer(spans, lc, (spin_before + spin_after) / 2,
                 Tracer::CalibrateRecordNanos(), share, rep);
    WriteTrace(cfg, tracer, rep);
  }
}

/// dge_refresh: one thread running generation rounds.
void RunRefresh(const Config& cfg, Outcome* out) {
  Report rep{out};
  Tracer tracer(cfg.trace);
  Common c;
  auto extra = [&](System& sys) -> Status {
    SpanScope span(tracer, "ii.resolve");
    return sys.RunProgram(kResolveProgram).status();
  };
  if (Status s = Prepare(cfg, kRefreshParallelism, extra, tracer, &c);
      !s.ok()) {
    return Fail(out, "set-up: " + s.ToString());
  }
  CommonNotes(cfg, c, rep);
  System& sys = *c.sys;
  std::vector<query::QueryForm> forms = PickForms(sys, c.in);
  if (forms.size() < kRefreshForms) {
    return Fail(out, Fmt("only %zu form queries found", forms.size()));
  }
  for (const query::QueryForm& f : forms) {
    if (Status s = sys.RunForm(f).status(); !s.ok()) {
      return Fail(out, "warming forms: " + s.ToString());
    }
  }
  auto crowd = structura::hi::MakeCrowd(9, 0.7, 0.95, cfg.seed);

  LayerCounts lc;
  const double spin_before = HostSpinMillis();
  const query::QueryResultCache::Stats cache_before = CacheStats(sys);
  std::vector<double> round_s;
  uint64_t pages = 0, extractor_calls = 0, form_rows = 0, failed_rounds = 0;
  text::DocumentCollection crawl = c.in.docs;
  // The round count follows from --seconds at the reference round time,
  // so every run performs the same rounds over the same crawls.
  const uint64_t planned = std::max<uint64_t>(
      2, static_cast<uint64_t>(std::lround(cfg.seconds / kRoundSeconds)));
  for (uint64_t round = 1; round <= planned; ++round) {
    // Input generation: the next crawl arrives (untimed).
    tracer.SetPhase(Phase::kCheck);
    corpus::MutateCrawl(cfg.seed * 7919 + round, 0.10, &crawl);
    tracer.SetPhase(Phase::kTimed);
    RoundResult rr = RunRound(sys, c.in, crawl, forms, &crowd, tracer, round);
    if (!rr.status.ok()) {
      ++failed_rounds;
      rep.Note("round failed: " + rr.status.ToString());
      break;
    }
    round_s.push_back(rr.seconds);
    pages += crawl.size();
    extractor_calls += rr.extractor_calls;
    form_rows += rr.form_rows_scanned;
    lc.cold_form_ms.insert(lc.cold_form_ms.end(), rr.cold_form_ms.begin(),
                           rr.cold_form_ms.end());
  }
  tracer.SetPhase(Phase::kCheck);
  const double spin_after = HostSpinMillis();
  const double workspace_mb = DirectorySizeMb(c.workspace);
  const double f1 =
      structura::core::ScoreBeliefs(sys.beliefs(), c.in.truth).f1();
  AddCacheDelta(sys.result_cache(), cache_before, &lc);
  const size_t rounds = round_s.size();
  lc.extractor_calls_per_refresh =
      rounds ? static_cast<double>(extractor_calls) / rounds : 0;
  lc.failures["round"] = static_cast<double>(failed_rounds);
  lc.rows_scanned_per_req =
      rounds ? static_cast<double>(form_rows) / (rounds * forms.size()) : 0;
  out->attempted = rounds + failed_rounds;
  out->failed = failed_rounds;
  double total_s = 0;
  for (double s : round_s) total_s += s;
  std::vector<double> ms;
  for (double s : round_s) ms.push_back(s * 1e3);
  std::vector<double> sorted = ms;
  const double p50 = Quantile(&sorted, 0.5), p99 = Quantile(&sorted, 0.99);
  rep.Note(Fmt("%zu rounds of %zu pages at 10%% churn, %zu cold form "
               "answers; round ms: %s; host spin %.1f/%.1f ms",
               rounds, crawl.size(), lc.cold_form_ms.size(),
               Join(ms, "%.0f").c_str(), spin_before, spin_after));
  EmitEndToEnd(c, total_s > 0 ? pages / total_s : 0, p50, p99, workspace_mb,
               f1, rep);

  // ---- answer check: the refreshed view equals a from-scratch EXTRACT
  // over the final crawl.
  out->correct = failed_rounds == 0;
  if (failed_rounds > 0) Fail(out, "a round failed");
  Status s;
  {
    SpanScope span(tracer, "ie.extract");
    s = sys.RunProgram(kCheckProgram).status();
  }
  const query::Relation* refreshed = sys.View("facts");
  const query::Relation* scratch = sys.View("facts_check");
  if (!s.ok() || refreshed == nullptr || scratch == nullptr) {
    Fail(out, "from-scratch EXTRACT: " + s.ToString());
  } else {
    std::vector<std::string> a, b;
    for (const rdbms::Row& r : refreshed->rows()) a.push_back(SerializeRow(r));
    for (const rdbms::Row& r : scratch->rows()) b.push_back(SerializeRow(r));
    if (cfg.corrupt == "dge_refresh" && !a.empty()) a.pop_back();
    const bool same_order = a == b;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    rep.Note(Fmt("check refresh: refreshed view %zu rows, from-scratch %zu "
                 "rows, %s",
                 a.size(), b.size(),
                 same_order ? "identical"
                 : a == b   ? "same rows in another order"
                            : "DIFFERENT"));
    if (a != b) Fail(out, "refreshed view differs from a from-scratch EXTRACT");
  }

  if (cfg.trace) {
    Status p = RunLayerProbe(
        sys, c.in, tracer,
        {Op::kKeyword, Op::kForm, Op::kSdl, Op::kHybrid, Op::kLookup,
         Op::kUpdate},
        false, cfg.seed, &lc);
    if (!p.ok()) Fail(out, "layer probe: " + p.ToString());
    tracer.SetPhase(Phase::kCheck);
    std::vector<Span> spans = tracer.Collect();
    LayerView v(spans);
    double stages = v.TimedBusyS("storage.ingest") + v.TimedBusyS("ie.refresh") +
                    v.TimedBusyS("uncertainty.beliefs") +
                    v.TimedBusyS("hi.feedback") +
                    v.TimedBusyS("rdbms.materialize");
    double round_busy = v.TimedBusyS("dge.round");
    double share = round_busy > 0 ? stages / round_busy : 0;
    rep.Note(Fmt("dominant layers (ingest+refresh+beliefs+feedback+"
                 "materialize) %.2f s of %.2f s round time = %.3f",
                 stages, round_busy, share));
    EmitPerLayer(spans, lc, (spin_before + spin_after) / 2,
                 Tracer::CalibrateRecordNanos(), share, rep);
    WriteTrace(cfg, tracer, rep);
  }
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "serve_query" || name == "curate_write" ||
         name == "dge_refresh";
}

Outcome RunWorkload(const Config& cfg) {
  Outcome out;
  if (cfg.workload == "dge_refresh") {
    RunRefresh(cfg, &out);
  } else {
    RunServing(cfg, &out);
  }
  std::error_code ec;
  // Workspaces are large; the trace files stay.
  fs::remove_all(cfg.work_dir + "/" + cfg.workload + "-s" +
                     std::to_string(cfg.seed),
                 ec);
  return out;
}

}  // namespace perfbench
