#include "query/hybrid.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace structura::query {

namespace {

/// The structured side as a query (see StructuredRunner).
StructuredQuery StructuredSide(const HybridQuery& query) {
  StructuredQuery q;
  q.source_view = query.fact_view;
  q.where = query.structured;
  q.group_by = {"doc"};
  q.order_by = "doc";
  return q;
}

/// Runs the structured side and reads its answer: the integer doc ids,
/// ascending. Null and string docs never qualify.
Result<std::vector<int64_t>> RunStructuredSide(const Relation& facts,
                                               const HybridQuery& query,
                                               const Interrupt& intr,
                                               const ExecutorOptions& opts,
                                               const StructuredRunner& run) {
  StructuredQuery side = StructuredSide(query);
  std::shared_ptr<const Relation> docs;
  if (run) {
    STRUCTURA_ASSIGN_OR_RETURN(docs, run(side));
  } else {
    STRUCTURA_ASSIGN_OR_RETURN(
        Relation out, ExecuteStructuredQuery(side, facts, intr, opts));
    docs = std::make_shared<const Relation>(std::move(out));
  }
  std::vector<int64_t> ids;
  ids.reserve(docs->size());
  for (const Row& row : docs->rows()) {
    if (row[0].type() == rdbms::ValueType::kInt) ids.push_back(row[0].as_int());
  }
  return ids;
}

bool Qualifies(const std::vector<int64_t>& ids, text::DocId doc) {
  return std::binary_search(ids.begin(), ids.end(),
                            static_cast<int64_t>(doc));
}

/// True when a side's failure should degrade the ladder rather than
/// fail the whole query. Interrupt statuses and caller mistakes are the
/// caller's problem; infrastructure trouble is ours to absorb.
bool DegradableError(const Status& s) {
  switch (s.code()) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
    case StatusCode::kInvalidArgument:
      return false;
    default:
      return true;
  }
}

}  // namespace

Result<std::vector<SearchHit>> HybridSearch(const KeywordIndex& index,
                                            const Relation& facts,
                                            const HybridQuery& query,
                                            size_t k, const Interrupt& intr,
                                            const ExecutorOptions& opts,
                                            const StructuredRunner& run) {
  TRACE_SPAN("query.hybrid");
  static obs::Counter* searches =
      obs::MetricsRegistry::Default().GetCounter("query.hybrid.searches");
  static obs::Histogram* latency = obs::MetricsRegistry::Default().GetHistogram(
      "query.hybrid.latency_ns");
  searches->Increment();
  obs::ScopedLatency record_latency(latency);
  // 1. Structured side: the qualifying documents, ascending.
  STRUCTURA_ASSIGN_OR_RETURN(
      std::vector<int64_t> doc_ids,
      RunStructuredSide(facts, query, intr, opts, run));

  // 2. IR side: rank broadly, then keep qualifying docs. Over-fetch so
  // filtering still leaves k results when possible.
  STRUCTURA_ASSIGN_OR_RETURN(
      std::vector<SearchHit> hits,
      index.Search(query.keywords, k * 10 + 50, intr, opts));
  std::vector<SearchHit> out;
  for (const SearchHit& hit : hits) {
    if (!Qualifies(doc_ids, hit.doc)) continue;
    out.push_back(hit);
    if (out.size() >= k) break;
  }
  return out;
}

const char* HybridModeName(HybridMode m) {
  switch (m) {
    case HybridMode::kFull:
      return "full";
    case HybridMode::kKeywordOnly:
      return "keyword_only";
    case HybridMode::kStructuredOnly:
      return "structured_only";
  }
  return "?";
}

Result<HybridAnswer> HybridSearchDegradable(const KeywordIndex& index,
                                            const Relation& facts,
                                            const HybridQuery& query, size_t k,
                                            const HybridFallback& fallback,
                                            const Interrupt& intr,
                                            const ExecutorOptions& opts,
                                            const StructuredRunner& run) {
  TRACE_SPAN("query.hybrid");
  static obs::Counter* searches =
      obs::MetricsRegistry::Default().GetCounter("query.hybrid.searches");
  static obs::Counter* mode_full =
      obs::MetricsRegistry::Default().GetCounter("query.hybrid.mode.full");
  static obs::Counter* mode_keyword = obs::MetricsRegistry::Default().GetCounter(
      "query.hybrid.mode.keyword_only");
  static obs::Counter* mode_structured =
      obs::MetricsRegistry::Default().GetCounter(
          "query.hybrid.mode.structured_only");
  static obs::Counter* degraded =
      obs::MetricsRegistry::Default().GetCounter("query.hybrid.degraded");
  static obs::Counter* refused =
      obs::MetricsRegistry::Default().GetCounter("query.hybrid.refused");
  static obs::Histogram* latency = obs::MetricsRegistry::Default().GetHistogram(
      "query.hybrid.latency_ns");
  searches->Increment();
  obs::ScopedLatency record_latency(latency);

  bool structured_ok = fallback.structured_available;
  bool keyword_ok = fallback.keyword_available;
  std::string structured_reason = fallback.structured_reason.empty()
                                      ? "structured side unavailable"
                                      : fallback.structured_reason;
  std::string keyword_reason = fallback.keyword_reason.empty()
                                   ? "keyword side unavailable"
                                   : fallback.keyword_reason;

  // Rung 1 input: the structured side, dropped (not fatal) when it
  // fails with infrastructure trouble.
  std::vector<int64_t> doc_ids;
  bool have_docs = false;
  if (structured_ok) {
    Result<std::vector<int64_t>> docs =
        RunStructuredSide(facts, query, intr, opts, run);
    if (docs.ok()) {
      doc_ids = std::move(docs).value();
      have_docs = true;
    } else if (!DegradableError(docs.status())) {
      return docs.status();
    } else {
      structured_ok = false;
      structured_reason = "structured side failed: " + docs.status().message();
    }
  }

  // Keyword side: full hybrid when the structured side delivered,
  // keyword-only otherwise.
  if (keyword_ok) {
    Result<std::vector<SearchHit>> hits =
        index.Search(query.keywords, have_docs ? k * 10 + 50 : k, intr, opts);
    if (hits.ok()) {
      HybridAnswer ans;
      if (have_docs) {
        ans.mode = HybridMode::kFull;
        for (const SearchHit& hit : hits.value()) {
          if (!Qualifies(doc_ids, hit.doc)) continue;
          ans.hits.push_back(hit);
          if (ans.hits.size() >= k) break;
        }
        mode_full->Increment();
      } else {
        ans.mode = HybridMode::kKeywordOnly;
        ans.degraded = true;
        ans.reason = structured_reason;
        ans.hits = std::move(hits).value();
        if (ans.hits.size() > k) ans.hits.resize(k);
        mode_keyword->Increment();
        degraded->Increment();
      }
      return ans;
    }
    if (!DegradableError(hits.status())) return hits.status();
    keyword_ok = false;
    keyword_reason = "keyword side failed: " + hits.status().message();
  }

  // Rung 3: structured-only — predicate matches without relevance
  // ranking (scores are zero; order is document id).
  if (have_docs) {
    HybridAnswer ans;
    ans.mode = HybridMode::kStructuredOnly;
    ans.degraded = true;
    ans.reason = keyword_reason;
    for (int64_t d : doc_ids) {
      ans.hits.push_back(SearchHit{static_cast<text::DocId>(d), 0.0, ""});
      if (ans.hits.size() >= k) break;
    }
    mode_structured->Increment();
    degraded->Increment();
    return ans;
  }

  // Bottom of the ladder: refuse loudly rather than answer wrongly.
  refused->Increment();
  return Status::Unavailable("hybrid refused: " + structured_reason + "; " +
                             keyword_reason);
}

}  // namespace structura::query
