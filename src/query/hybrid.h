#ifndef STRUCTURA_QUERY_HYBRID_H_
#define STRUCTURA_QUERY_HYBRID_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/keyword_index.h"
#include "query/relation.h"
#include "query/structured_query.h"

namespace structura::query {

/// A hybrid DB+IR query (the "DB and IR: both sides now" direction the
/// paper cites as its predecessor): free-text relevance plus structured
/// predicates over the facts extracted from each document.
struct HybridQuery {
  std::string keywords;
  /// Conjunctive conditions evaluated per fact row; a document qualifies
  /// when at least one of its fact rows satisfies all conditions.
  std::vector<Condition> structured;
  /// Name of the fact view the conditions read. It only names the source
  /// in the structured side's SQL (and so in a result-cache fingerprint).
  std::string fact_view = "facts";
};

/// Evaluates the structured side of a hybrid query, which is an
/// ordinary structured query:
///
///   SELECT doc FROM <fact_view> WHERE <structured> GROUP BY doc
///   ORDER BY doc
///
/// i.e. the distinct qualifying document ids in ascending order. Only
/// integer doc values qualify; null and string docs are skipped when the
/// answer is read. (GROUP BY keys on a value's rendering, so a string doc
/// spelling an integer id, e.g. "7", falls into doc 7's group; when it is
/// that group's first row, doc 7 does not qualify.)
/// An empty runner executes the query directly over the `facts`
/// argument; core::System passes one that goes through its result
/// cache, so a repeated predicate set scans the view once and later
/// searches read the cached relation in place.
using StructuredRunner = std::function<Result<std::shared_ptr<const Relation>>(
    const StructuredQuery&)>;

/// Ranks documents by BM25 over `keywords`, keeping only documents whose
/// extracted facts (a relation with a "doc" column) satisfy the
/// structured predicates. `facts` must contain every column referenced
/// by the conditions.
/// `intr` is polled through both sides (structured scan and BM25
/// scoring); evaluation stops with kDeadlineExceeded / kCancelled.
Result<std::vector<SearchHit>> HybridSearch(
    const KeywordIndex& index, const Relation& facts,
    const HybridQuery& query, size_t k,
    const Interrupt& intr = Interrupt{}, const ExecutorOptions& opts = {},
    const StructuredRunner& run = {});

/// How a degradable hybrid search was actually answered.
enum class HybridMode {
  kFull,            // both sides ran: the non-degraded answer
  kKeywordOnly,     // structured side skipped/failed: BM25 ranking alone
  kStructuredOnly,  // keyword side skipped/failed: predicate match alone
};

const char* HybridModeName(HybridMode m);

/// A hybrid answer that knows how it was produced. `degraded` is the
/// contract with the caller: when true, `hits` came from a reduced
/// ladder rung (one side of the query was not applied) and `reason`
/// says why — the serving layer surfaces both instead of passing the
/// answer off as a full hybrid result.
struct HybridAnswer {
  std::vector<SearchHit> hits;
  HybridMode mode = HybridMode::kFull;
  bool degraded = false;
  std::string reason;
};

/// Caller-supplied availability hints for the fallback ladder —
/// typically derived from the health model (e.g. `query.structured`
/// degraded → structured_available=false). Defaults say "both sides
/// fine".
struct HybridFallback {
  bool structured_available = true;
  bool keyword_available = true;
  /// Why the side is unavailable; copied into HybridAnswer::reason.
  std::string structured_reason;
  std::string keyword_reason;
};

/// HybridSearch with a fallback ladder instead of all-or-nothing:
///
///   full hybrid → keyword-only → structured-only → refuse
///
/// A side is skipped when the caller marked it unavailable (health
/// signal), or dropped at runtime when it fails with a retryable error
/// (kUnavailable/kCorruption/…). Interrupt statuses (kDeadlineExceeded,
/// kCancelled) and caller mistakes (kInvalidArgument) propagate — only
/// infrastructure trouble triggers degradation. When both sides are
/// down the search refuses with kUnavailable; it never fabricates an
/// answer silently. Mode counters: `query.hybrid.mode.{full,
/// keyword_only,structured_only}`, `query.hybrid.degraded`,
/// `query.hybrid.refused`.
Result<HybridAnswer> HybridSearchDegradable(
    const KeywordIndex& index, const Relation& facts,
    const HybridQuery& query, size_t k,
    const HybridFallback& fallback = HybridFallback{},
    const Interrupt& intr = Interrupt{}, const ExecutorOptions& opts = {},
    const StructuredRunner& run = {});

}  // namespace structura::query

#endif  // STRUCTURA_QUERY_HYBRID_H_
