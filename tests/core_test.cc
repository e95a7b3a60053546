#include <atomic>
#include <filesystem>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "core/eval.h"
#include "core/schema_unify.h"
#include "core/system.h"
#include "corpus/generator.h"
#include "ie/pipeline.h"
#include "ie/standard.h"
#include "obs/flight_recorder.h"
#include "serve/frontend.h"
#include "serve/health.h"
#include "serve/request_context.h"

namespace structura::core {
namespace {

std::string TempDir(const std::string& tag) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("structura_core_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

// ------------------------------------------------------------------ eval

TEST(ScoreTest, PrecisionRecallF1) {
  Score s;
  s.true_positives = 8;
  s.false_positives = 2;
  s.false_negatives = 2;
  EXPECT_DOUBLE_EQ(s.precision(), 0.8);
  EXPECT_DOUBLE_EQ(s.recall(), 0.8);
  EXPECT_DOUBLE_EQ(s.f1(), 0.8);
  Score empty;
  EXPECT_DOUBLE_EQ(empty.precision(), 0.0);
  EXPECT_DOUBLE_EQ(empty.f1(), 0.0);
}

TEST(ScoreTest, NormalizeValue) {
  EXPECT_EQ(NormalizeValue(" 233,209 "), "233209");
  EXPECT_EQ(NormalizeValue("David Smith"), "David Smith");
}

TEST(EvalTest, ExtractionScoredAgainstTruth) {
  corpus::CorpusOptions options;
  options.num_cities = 15;
  options.num_people = 10;
  options.num_companies = 5;
  options.seed = 5;
  options.infobox_dropout = 0;
  options.attribute_missing = 0;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(options, &docs, &truth);
  std::vector<ie::ExtractorPtr> suite = ie::MakeStandardSuite();
  ie::FactSet facts = ie::RunExtractors(ie::Views(suite), docs);
  Score all = ScoreExtraction(facts, truth);
  // Clean corpus + full suite: near-perfect extraction. The residual
  // false positives are surface variants ("D. Smith" for the mayor
  // truth "David Smith") that entity resolution, not extraction,
  // normalizes.
  EXPECT_GT(all.f1(), 0.9) << all.ToString();
  Score temps = ScoreExtraction(facts, truth, "temp_%");
  EXPECT_GT(temps.recall(), 0.98) << temps.ToString();
  // An empty fact set scores zero recall.
  Score none = ScoreExtraction(ie::FactSet(), truth);
  EXPECT_EQ(none.true_positives, 0u);
  EXPECT_GT(none.false_negatives, 0u);
}

TEST(EvalTest, ClusteringPairwise) {
  // Truth: {0,1} same, {2} alone. Perfect clustering.
  Score perfect = ScoreClustering({10, 10, 20}, {0, 0, 2});
  EXPECT_DOUBLE_EQ(perfect.f1(), 1.0);
  // Everything merged: recall 1, precision 1/3.
  Score merged = ScoreClustering({10, 10, 20}, {0, 0, 0});
  EXPECT_DOUBLE_EQ(merged.recall(), 1.0);
  EXPECT_NEAR(merged.precision(), 1.0 / 3.0, 1e-9);
  // Nothing merged: precision 0/0 -> 0, recall 0.
  Score split = ScoreClustering({10, 10, 20}, {0, 1, 2});
  EXPECT_DOUBLE_EQ(split.recall(), 0.0);
}

// ---------------------------------------------------------------- System

struct SystemFixture : public ::testing::Test {
  void SetUp() override {
    corpus::CorpusOptions options;
    options.num_cities = 15;
    options.num_people = 20;
    options.num_companies = 5;
    options.seed = 41;
    options.infobox_dropout = 0.3;
    options.typo_prob = 0.15;  // free-text noise for HI to repair
    corpus::GenerateCorpus(options, &docs, &truth);

    auto sys_or = core::System::Create(core::System::Options{});
    ASSERT_TRUE(sys_or.ok());
    sys = std::move(sys_or).value();
    sys->RegisterStandardOperators();
    ASSERT_TRUE(sys->IngestCrawl(docs).ok());
  }

  /// Oracle over ground truth for simulated humans.
  System::Oracle MakeOracle() {
    return [this](const std::string& subject,
                  const std::string& attribute)
               -> std::optional<std::string> {
      for (const corpus::FactTruth& f : truth.facts) {
        auto it = truth.canonical_names.find(f.entity);
        if (it == truth.canonical_names.end()) continue;
        if (it->second == subject && f.attribute == attribute) {
          return f.value;
        }
      }
      return std::nullopt;
    };
  }

  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  std::unique_ptr<core::System> sys;
};

TEST_F(SystemFixture, IngestPopulatesStores) {
  EXPECT_EQ(sys->documents().size(), docs.size());
  EXPECT_EQ(sys->snapshots().NumPages(), docs.size());
  auto hits = sys->KeywordSearch("Madison", 3);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].title, "Madison");
}

TEST_F(SystemFixture, RepeatedCrawlsVersionUp) {
  text::DocumentCollection day2 = docs;
  corpus::MutateCrawl(9, 0.3, &day2);
  ASSERT_TRUE(sys->IngestCrawl(day2).ok());
  auto latest = sys->snapshots().LatestVersion(docs.docs[0].id);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 1u);
  // Old version still reconstructable.
  auto v0 = sys->snapshots().Get(docs.docs[0].id, 0);
  ASSERT_TRUE(v0.ok());
  EXPECT_EQ(*v0, docs.docs[0].text);
}

TEST_F(SystemFixture, GenerationAndBeliefs) {
  auto results = sys->RunProgram(
      "CREATE VIEW facts AS EXTRACT infobox, temp_sentence, "
      "population_sentence, founded_sentence, elevation_sentence "
      "FROM pages;");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());
  EXPECT_GT(sys->beliefs().size(), 100u);
  Score s = ScoreBeliefs(sys->beliefs(), truth);
  EXPECT_GT(s.f1(), 0.7) << s.ToString();
  // Provenance exists for beliefs.
  bool explained_any = false;
  for (const auto& b : sys->beliefs()) {
    auto why = sys->Explain(b.subject, b.attribute);
    if (why.ok()) {
      explained_any = true;
      EXPECT_NE(why->find("belief"), std::string::npos);
      break;
    }
  }
  EXPECT_TRUE(explained_any);
}

TEST_F(SystemFixture, FeedbackImprovesAccuracy) {
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW facts AS EXTRACT infobox, "
                     "temp_sentence, population_sentence, "
                     "founded_sentence, elevation_sentence FROM pages;")
                  .ok());
  ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());
  Score before = ScoreBeliefs(sys->beliefs(), truth);

  auto crowd = hi::MakeCrowd(9, 0.75, 0.95, 7);
  System::FeedbackOptions options;
  options.budget = 150;
  options.answers_per_task = 5;
  options.aggregation = System::Aggregation::kMajority;
  auto asked = sys->RunFeedbackRound(MakeOracle(), &crowd, options);
  ASSERT_TRUE(asked.ok()) << asked.status().ToString();
  EXPECT_GT(*asked, 0u);

  Score after = ScoreBeliefs(sys->beliefs(), truth);
  EXPECT_GT(after.f1(), before.f1())
      << "before=" << before.ToString() << " after=" << after.ToString();
  // Reputation accounting happened.
  EXPECT_GT(sys->users().NumUsers(), 0u);
  EXPECT_FALSE(sys->users().Leaderboard().empty());
  EXPECT_GT(sys->users().Leaderboard()[0].points, 0);
}

TEST_F(SystemFixture, FeedbackRequiresCrowd) {
  std::vector<hi::SimulatedUser> empty;
  EXPECT_FALSE(
      sys->RunFeedbackRound(MakeOracle(), &empty, {}).ok());
}

TEST_F(SystemFixture, MaterializeAndRecover) {
  std::string dir = TempDir("materialize");
  {
    auto sys2_or =
        core::System::Create(core::System::Options{dir});
    ASSERT_TRUE(sys2_or.ok());
    auto sys2 = std::move(sys2_or).value();
    sys2->RegisterStandardOperators();
    ASSERT_TRUE(sys2->IngestCrawl(docs).ok());
    ASSERT_TRUE(
        sys2->RunProgram("CREATE VIEW facts AS EXTRACT infobox FROM pages;")
            .ok());
    ASSERT_TRUE(sys2->BuildBeliefsFromView("facts").ok());
    ASSERT_TRUE(sys2->MaterializeBeliefs("final").ok());
    auto txn = sys2->database()->Begin();
    auto rows = txn->Scan("final");
    ASSERT_TRUE(rows.ok());
    EXPECT_GT(rows->size(), 50u);
    txn->Commit();
  }
  // Reopen from the same workspace: the final table is durable.
  auto again_or =
      core::System::Create(core::System::Options{dir});
  ASSERT_TRUE(again_or.ok());
  auto again = std::move(again_or).value();
  rdbms::Table* table = again->database()->GetTable("final");
  ASSERT_NE(table, nullptr);
  EXPECT_GT(table->LiveRowCount(), 50u);
}

TEST_F(SystemFixture, AuditFlagsInjectedCorruption) {
  ASSERT_TRUE(
      sys->RunProgram(
             "CREATE VIEW facts AS EXTRACT infobox FROM pages;")
          .ok());
  ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());
  // Clean infobox facts: few or no violations.
  size_t clean_violations = sys->AuditFacts().size();
  EXPECT_LT(clean_violations, 5u);
  EXPECT_NE(sys->monitor().Report().find("docs="), std::string::npos);
}

TEST_F(SystemFixture, SuggestAndRunForms) {
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW facts AS EXTRACT infobox, "
                     "temp_sentence FROM pages;")
                  .ok());
  ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());
  auto forms = sys->SuggestQueries("average temperature madison");
  ASSERT_FALSE(forms.empty());
  auto rel = sys->RunForm(forms[0]);
  ASSERT_TRUE(rel.ok());
  ASSERT_GE(rel->size(), 1u);
  // The answer should be near Madison's true annual mean.
  const corpus::CityRecord* madison = truth.FindCity("Madison");
  double truth_avg = 0;
  for (int t : madison->temps) truth_avg += t;
  truth_avg /= 12.0;
  double got = 0;
  rel->At(0, "result").ToNumber(&got);
  EXPECT_NEAR(got, truth_avg, 8.0);
}

TEST_F(SystemFixture, SdlAndFormChargeEqualRowsScanned) {
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW facts AS EXTRACT infobox, "
                     "temp_sentence FROM pages;")
                  .ok());
  ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());
  const uint64_t facts = sys->View("facts")->size();
  const char* sdl =
      "SELECT subject, AVG(value) AS t FROM facts "
      "WHERE attribute LIKE \"temp_%\" GROUP BY subject;";
  query::QueryForm form;
  form.query.source_view = "facts";
  form.query.where = {{"attribute", query::CompareOp::kLike,
                       query::Value::Str("temp_%")}};
  form.query.group_by = {"subject"};
  form.query.aggregates = {{query::AggFn::kAvg, "value", "t"}};
  auto rows_scanned = [](auto run) {
    obs::CostAccumulator acc;
    obs::ScopedCostContext scope(&acc);
    EXPECT_TRUE(run());
    return acc.Snapshot()[obs::CostDim::kRowsScanned];
  };
  for (bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "warm" : "cold");
    uint64_t hits = sys->result_cache()->stats().hits;
    uint64_t via_sdl = rows_scanned([&] { return sys->Query(sdl).ok(); });
    uint64_t via_form = rows_scanned([&] { return sys->RunForm(form).ok(); });
    EXPECT_EQ(via_sdl, via_form);
    // A miss scans the whole view once; a hit scans nothing.
    EXPECT_EQ(via_sdl, warm ? 0u : facts);
    EXPECT_EQ(sys->result_cache()->stats().hits, hits + (warm ? 2u : 0u));
  }
}

// Hybrid search's structured side runs as a StructuredQuery through the
// same result-cache site as forms. These tests pin that site's rules for
// hybrid: warm answers equal uncached ones, REFRESH VIEW invalidates,
// the cache gate is honoured, and a miss costs one view scan.
struct HybridSearchCacheTest : public SystemFixture {
  void SetUp() override {
    SystemFixture::SetUp();
    ASSERT_TRUE(
        sys->RunProgram("CREATE VIEW facts AS EXTRACT infobox FROM pages;")
            .ok());
    ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());
  }

  /// attribute = "population" AND value >= floor.
  static std::vector<query::Condition> Floor(int64_t floor) {
    return {{"attribute", query::CompareOp::kEq,
             query::Value::Str("population")},
            {"value", query::CompareOp::kGe, query::Value::Int(floor)}};
  }

  using Answer = std::vector<std::pair<text::DocId, double>>;

  static Answer Of(const std::vector<query::SearchHit>& hits) {
    Answer out;
    for (const query::SearchHit& h : hits) out.emplace_back(h.doc, h.score);
    return out;
  }

  Answer Search(int64_t floor) {
    auto hits = sys->HybridSearch(kKeywords, Floor(floor), 10);
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
    return hits.ok() ? Of(*hits) : Answer{};
  }

  Answer SearchDegraded(int64_t floor) {
    auto ans = sys->HybridSearchDegraded(kKeywords, Floor(floor), 10);
    EXPECT_TRUE(ans.ok()) << ans.status().ToString();
    if (!ans.ok()) return {};
    EXPECT_EQ(ans->mode, query::HybridMode::kFull);
    return Of(ans->hits);
  }

  /// A fresh execution that neither reads nor fills the cache.
  Answer Uncached(int64_t floor) {
    serve::ScopedCacheBypass bypass(true);
    return Search(floor);
  }

  static constexpr const char* kKeywords = "city United States";
};

TEST_F(HybridSearchCacheTest, WarmHitMatchesUncachedAnswer) {
  query::QueryResultCache* cache = sys->result_cache();
  ASSERT_NE(cache, nullptr);
  for (int64_t floor : {10000, 100000}) {
    SCOPED_TRACE(floor);
    Answer uncached = Uncached(floor);
    ASSERT_FALSE(uncached.empty());
    query::QueryResultCache::Stats before = cache->stats();
    EXPECT_EQ(Search(floor), uncached);  // cold: fills the cache
    EXPECT_EQ(cache->stats().misses, before.misses + 1);
    EXPECT_EQ(cache->stats().hits, before.hits);
    EXPECT_EQ(Search(floor), uncached);  // warm
    EXPECT_EQ(cache->stats().hits, before.hits + 1);
    // The degradable path shares the entry.
    EXPECT_EQ(SearchDegraded(floor), uncached);
    EXPECT_EQ(cache->stats().hits, before.hits + 2);
    EXPECT_EQ(cache->stats().misses, before.misses + 1);
  }
}

TEST_F(HybridSearchCacheTest, RefreshViewInvalidates) {
  query::QueryResultCache* cache = sys->result_cache();
  Answer warm = Search(10000);
  ASSERT_FALSE(warm.empty());
  ASSERT_EQ(Search(10000), warm);
  // Every city shrinks below the floor; only the refreshed view knows.
  text::DocumentCollection day2 = docs;
  for (text::Document& d : day2.docs) {
    size_t pos = d.text.find("| population = ");
    if (pos == std::string::npos) continue;
    pos += std::string("| population = ").size();
    d.text.replace(pos, d.text.find('\n', pos) - pos, "5,000");
  }
  ASSERT_TRUE(sys->IngestCrawl(day2).ok());
  ASSERT_TRUE(sys->RunProgram("REFRESH VIEW facts;").ok());

  query::QueryResultCache::Stats before = cache->stats();
  Answer after = Search(10000);
  EXPECT_EQ(cache->stats().misses, before.misses + 1);
  EXPECT_EQ(cache->stats().invalidations, before.invalidations + 1);
  EXPECT_EQ(cache->stats().hits, before.hits);
  EXPECT_EQ(after, Uncached(10000));
  EXPECT_TRUE(after.empty());  // the stale answer was not served
}

TEST_F(HybridSearchCacheTest, ClosedCacheGateInsertsNothing) {
  query::QueryResultCache* cache = sys->result_cache();
  Answer uncached = Uncached(10000);
  // Per-request no-cache: fresh execution, counters untouched.
  query::QueryResultCache::Stats before = cache->stats();
  EXPECT_EQ(Uncached(10000), uncached);
  EXPECT_EQ(cache->stats().entries, before.entries);
  EXPECT_EQ(cache->stats().misses, before.misses);

  // Critical health closes the gate for every caller. The subsystem is
  // neither query side, so the degradable path still answers in full.
  sys->health().Register("test.subsystem", "test", [] {
    return serve::HealthSample{serve::HealthState::kCritical, "test"};
  });
  sys->health().Evaluate();
  ASSERT_EQ(sys->health().Overall(), serve::HealthState::kCritical);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(Search(10000), uncached);
    EXPECT_EQ(SearchDegraded(10000), uncached);
  }
  query::QueryResultCache::Stats after = cache->stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

TEST_F(HybridSearchCacheTest, ColdCallChargesOneViewScanMoreThanWarm) {
  const uint64_t facts = sys->View("facts")->size();
  auto rows_scanned = [&] {
    obs::CostAccumulator acc;
    obs::ScopedCostContext scope(&acc);
    EXPECT_TRUE(sys->HybridSearch(kKeywords, Floor(10000), 10).ok());
    return acc.Snapshot()[obs::CostDim::kRowsScanned];
  };
  uint64_t cold = rows_scanned();
  uint64_t warm = rows_scanned();
  EXPECT_EQ(cold, warm + facts);
}

TEST_F(HybridSearchCacheTest, ConcurrentCallersGetUncachedAnswer) {
  const int64_t floors[] = {10000, 100000};
  const Answer want[] = {Uncached(floors[0]), Uncached(floors[1])};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        int which = (t + i) % 2;
        Answer got = i % 3 == 0 ? SearchDegraded(floors[which])
                                : Search(floors[which]);
        if (got != want[which]) ++wrong;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(sys->result_cache()->stats().hits, 0u);
}

TEST(SchemaUnifyTest, RepairsHeterogeneousVocabulary) {
  // Half the city pages use a second source's vocabulary
  // (inhabitants/location/altitude).
  corpus::CorpusOptions options;
  options.num_cities = 30;
  options.num_people = 0;
  options.num_companies = 0;
  options.seed = 9;
  options.infobox_dropout = 0;
  options.attribute_missing = 0;
  options.alt_schema_fraction = 0.5;
  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  corpus::GenerateCorpus(options, &docs, &truth);

  auto sys = std::move(core::System::Create({})).value();
  sys->RegisterStandardOperators();
  ASSERT_TRUE(sys->IngestCrawl(docs).ok());
  ASSERT_TRUE(
      sys->RunProgram("CREATE VIEW facts AS EXTRACT infobox FROM pages;")
          .ok());
  const query::Relation* facts = sys->View("facts");
  ASSERT_NE(facts, nullptr);
  // Heterogeneity is present before unification.
  auto inhabitants = query::Filter(
      *facts, {query::Condition{"attribute", query::CompareOp::kEq,
                                query::Value::Str("inhabitants")}});
  ASSERT_TRUE(inhabitants.ok());
  EXPECT_GT(inhabitants->size(), 0u);

  ii::SchemaMatchOptions match_options;
  match_options.threshold = 0.45;
  match_options.synonyms = {{"inhabitants", "population"},
                            {"location", "state"},
                            {"altitude", "elevation"}};
  auto unified = UnifySchema(
      *facts, {"population", "state", "elevation", "founded", "mayor"},
      match_options);
  ASSERT_TRUE(unified.ok()) << unified.status().ToString();
  EXPECT_EQ(unified->renames.at("inhabitants"), "population");
  EXPECT_EQ(unified->renames.at("location"), "state");
  EXPECT_EQ(unified->renames.at("altitude"), "elevation");
  // After rewriting, the alternate vocabulary is gone.
  auto leftover = query::Filter(
      unified->unified,
      {query::Condition{"attribute", query::CompareOp::kEq,
                        query::Value::Str("inhabitants")}});
  EXPECT_EQ(leftover->size(), 0u);
  auto population = query::Filter(
      unified->unified,
      {query::Condition{"attribute", query::CompareOp::kEq,
                        query::Value::Str("population")}});
  EXPECT_EQ(population->size(), 30u);  // every city, both sources
}

TEST(SchemaUnifyTest, InstanceSimilarityAloneCanMatch) {
  // No registered synonym: "inhabitants" still matches "population"
  // through overlapping numeric value ranges plus weak name similarity
  // only if the combined score clears the threshold; with a low
  // threshold the instance signal should carry it.
  query::Relation facts({"attribute", "value"});
  for (int i = 0; i < 20; ++i) {
    facts
        .Append({query::Value::Str(i % 2 == 0 ? "population"
                                              : "inhabitants"),
                 query::Value::Str(std::to_string(10000 + i * 137))})
        .ok();
  }
  ii::SchemaMatchOptions options;
  options.threshold = 0.4;
  options.name_weight = 0.2;
  options.value_weight = 0.8;
  auto unified = UnifySchema(facts, {"population"}, options);
  ASSERT_TRUE(unified.ok());
  EXPECT_EQ(unified->renames.count("inhabitants"), 1u);
}

TEST(SchemaUnifyTest, MissingColumnsRejected) {
  query::Relation not_facts({"x", "y"});
  EXPECT_FALSE(UnifySchema(not_facts, {"population"}, {}).ok());
}

TEST_F(SystemFixture, IncrementalCrawlMarksOnlyChangedDocsDirty) {
  // First ingest: everything is new, hence dirty.
  EXPECT_EQ(sys->context().dirty_docs.size(), docs.size());
  // Second crawl with 20% churn: only edited pages become dirty.
  text::DocumentCollection day2 = docs;
  corpus::MutateCrawl(3, 0.2, &day2);
  size_t changed = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    if (day2.docs[i].text != docs.docs[i].text) ++changed;
  }
  ASSERT_TRUE(sys->IngestCrawl(day2).ok());
  EXPECT_EQ(sys->context().dirty_docs.size(), changed);
  // An identical third crawl dirties nothing.
  ASSERT_TRUE(sys->IngestCrawl(day2).ok());
  EXPECT_TRUE(sys->context().dirty_docs.empty());
}

TEST_F(SystemFixture, RefreshViewAfterCrawl) {
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW facts AS EXTRACT infobox, "
                     "temp_sentence FROM pages;")
                  .ok());
  text::DocumentCollection day2 = docs;
  corpus::MutateCrawl(3, 0.15, &day2);
  ASSERT_TRUE(sys->IngestCrawl(day2).ok());
  size_t dirty = sys->context().dirty_docs.size();
  size_t runs_before = sys->context().extractor_runs;
  auto results = sys->RunProgram("REFRESH VIEW facts;");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  // Re-extraction cost is proportional to churn, not corpus size:
  // 2 extractors x dirty docs.
  EXPECT_EQ(sys->context().extractor_runs - runs_before, 2 * dirty);
  // Equivalence: the refreshed view matches a from-scratch rebuild.
  query::Relation refreshed = *sys->View("facts");
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW facts2 AS EXTRACT infobox, "
                     "temp_sentence FROM pages;")
                  .ok());
  const query::Relation* rebuilt = sys->View("facts2");
  ASSERT_EQ(refreshed.size(), rebuilt->size());
  std::multiset<std::string> a, b;
  auto key = [](const query::Row& r) {
    std::string k;
    for (const auto& v : r) k += v.ToString() + "\x1f";
    return k;
  };
  for (const auto& r : refreshed.rows()) a.insert(key(r));
  for (const auto& r : rebuilt->rows()) b.insert(key(r));
  EXPECT_EQ(a, b);
}

TEST_F(SystemFixture, StandingQueriesAlertAcrossRefreshes) {
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW facts AS EXTRACT infobox FROM pages;")
                  .ok());
  query::StandingQueryRegistry::Spec spec;
  spec.name = "fact_count";
  spec.query.source_view = "facts";
  spec.query.aggregates = {
      query::AggSpec{query::AggFn::kCount, "", "n"}};
  ASSERT_TRUE(sys->Watch(spec).ok());

  auto alerts = sys->CheckWatches("facts");
  ASSERT_TRUE(alerts.ok());
  ASSERT_EQ(alerts->size(), 1u);
  EXPECT_EQ((*alerts)[0].kind, "first_result");

  // No change: silence.
  alerts = sys->CheckWatches("facts");
  ASSERT_TRUE(alerts.ok());
  EXPECT_TRUE(alerts->empty());

  // A churned crawl + refresh changes the fact count: alert fires.
  text::DocumentCollection day2 = docs;
  corpus::MutateCrawl(3, 0.5, &day2);
  ASSERT_TRUE(sys->IngestCrawl(day2).ok());
  // MutateCrawl only appends prose, which the infobox extractor ignores;
  // edit one infobox value instead to actually change the facts.
  text::DocumentCollection day3 = day2;
  for (auto& d : day3.docs) {
    size_t pos = d.text.find("| population = ");
    if (pos != std::string::npos) {
      d.text.insert(pos, "| motto = Forward\n");
      break;
    }
  }
  ASSERT_TRUE(sys->IngestCrawl(day3).ok());
  ASSERT_TRUE(sys->RunProgram("REFRESH VIEW facts;").ok());
  alerts = sys->CheckWatches("facts");
  ASSERT_TRUE(alerts.ok());
  ASSERT_EQ(alerts->size(), 1u);
  EXPECT_EQ((*alerts)[0].kind, "changed");

  EXPECT_FALSE(sys->CheckWatches("missing_view").ok());
}

TEST_F(SystemFixture, StatusReportSummarizes) {
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW facts AS EXTRACT infobox FROM pages;")
                  .ok());
  ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());
  std::string report = sys->StatusReport();
  EXPECT_NE(report.find("documents:"), std::string::npos);
  EXPECT_NE(report.find("facts:"), std::string::npos);
  EXPECT_NE(report.find("beliefs:"), std::string::npos);
  EXPECT_NE(report.find("monitor:"), std::string::npos);
}

TEST_F(SystemFixture, StatusReportIncludesServingCounters) {
  // Without a provider, the section is absent.
  EXPECT_EQ(sys->StatusReport().find("serving:"), std::string::npos);

  serve::Frontend::Options fopts;
  fopts.num_threads = 2;
  serve::Frontend frontend(fopts);
  frontend.RegisterOperator("keyword", [this](const serve::RequestContext&) {
    return sys->KeywordSearch("Madison", 3).empty()
               ? Status::NotFound("no hits")
               : Status::OK();
  });
  sys->SetServingStatsProvider([&frontend] { return frontend.Counters(); });

  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(frontend.Call("keyword", serve::RequestContext{}).ok());
  }
  {
    // A burst of injected faults exhausts the retry budget and resolves
    // kUnavailable — the report must show the non-OK outcome too.
    ScopedFailpoint fp("serve.op.keyword", FailpointRegistry::Spec::Always());
    serve::RequestContext ctx;
    ctx.retry_budget = 0;
    EXPECT_EQ(frontend.Call("keyword", std::move(ctx)).code(),
              StatusCode::kUnavailable);
  }

  // The provider is live: the section matches the counters snapshot
  // taken at the same point, and reflects the real request totals.
  serve::ServingCounters counters = frontend.Counters();
  EXPECT_EQ(counters.issued, 5u);
  EXPECT_EQ(counters.admitted + counters.shed + counters.not_found,
            counters.issued);
  EXPECT_EQ(counters.ok, 4u);
  EXPECT_EQ(counters.unavailable, 1u);
  std::string report = sys->StatusReport();
  EXPECT_NE(report.find("serving: " + counters.ToString()), std::string::npos);
  EXPECT_NE(report.find("issued=5"), std::string::npos);
  EXPECT_NE(report.find("keyword(closed)"), std::string::npos);
  // The serve.op failpoint site shows up in the fault-injection section.
  EXPECT_NE(report.find("serve.op.keyword"), std::string::npos);

  // Detaching removes the section (and makes the frontend safe to drop).
  sys->SetServingStatsProvider(nullptr);
  EXPECT_EQ(sys->StatusReport().find("serving:"), std::string::npos);
}

TEST_F(SystemFixture, FaultedExtractorIsQuarantinedAndSystemDegrades) {
  // Every temp_sentence invocation faults; after the error budget the
  // operator is quarantined and generation continues best-effort on the
  // remaining extractors (Section 3.2's incremental, best-effort DGE).
  ScopedFailpoint fp("ie.extract.temp_sentence",
                     FailpointRegistry::Spec::Always());
  auto results = sys->RunProgram(
      "CREATE VIEW facts AS EXTRACT infobox, temp_sentence FROM pages;");
  ASSERT_TRUE(results.ok()) << results.status().ToString();

  EXPECT_EQ(sys->QuarantinedExtractors().count("temp_sentence"), 1u);
  EXPECT_EQ(sys->QuarantinedExtractors().count("infobox"), 0u);

  // The view holds no facts from the quarantined operator, but the
  // healthy one still produced output.
  const query::Relation* facts = sys->View("facts");
  ASSERT_NE(facts, nullptr);
  ASSERT_GT(facts->rows().size(), 0u);
  int ecol = facts->ColumnIndex("extractor");
  ASSERT_GE(ecol, 0);
  for (const auto& row : facts->rows()) {
    EXPECT_NE(row[ecol].ToString(), "temp_sentence");
  }

  // Downstream stages keep working: beliefs materialize into the final
  // store from the surviving facts.
  ASSERT_TRUE(sys->BuildBeliefsFromView("facts").ok());
  EXPECT_GT(sys->beliefs().size(), 0u);
  ASSERT_TRUE(sys->MaterializeBeliefs("final").ok());

  // The degradation is visible in the operational report.
  std::string report = sys->StatusReport();
  EXPECT_NE(report.find("degraded operators:"), std::string::npos);
  EXPECT_NE(report.find("temp_sentence"), std::string::npos);
  EXPECT_NE(report.find("quarantined"), std::string::npos);
  EXPECT_NE(report.find("failpoints:"), std::string::npos);
  EXPECT_NE(report.find("ie.extract.temp_sentence"), std::string::npos);
}

TEST_F(SystemFixture, ExtractorFaultsBelowBudgetDoNotQuarantine) {
  // Two isolated faults stay under the default budget of three: the
  // extractor keeps running, and the report shows the fault count
  // without a quarantine marker.
  ScopedFailpoint fp("ie.extract.temp_sentence",
                     FailpointRegistry::Spec::Nth(2));
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW facts AS EXTRACT infobox, "
                     "temp_sentence FROM pages;")
                  .ok());
  EXPECT_TRUE(sys->QuarantinedExtractors().empty());
  // One doc's temp facts were dropped, the rest extracted.
  const query::Relation* facts = sys->View("facts");
  ASSERT_NE(facts, nullptr);
  int ecol = facts->ColumnIndex("extractor");
  size_t temp_rows = 0;
  for (const auto& row : facts->rows()) {
    if (row[ecol].ToString() == "temp_sentence") ++temp_rows;
  }
  EXPECT_GT(temp_rows, 0u);
  std::string report = sys->StatusReport();
  EXPECT_NE(report.find("temp_sentence(faults=1)"), std::string::npos);
}

TEST_F(SystemFixture, IncrementalExtractionDoesLessWork) {
  // Best-effort, incremental generation (Section 3.2): extracting only
  // temperatures must touch fewer extractor runs than the full suite.
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW temps AS EXTRACT infobox, temp_sentence "
                     "FROM pages WHERE attribute LIKE \"temp_%\";")
                  .ok());
  size_t temps_runs = sys->context().extractor_runs;
  ASSERT_TRUE(sys->RunProgram(
                     "CREATE VIEW all_facts AS EXTRACT infobox, "
                     "temp_sentence, population_sentence, "
                     "founded_sentence, elevation_sentence, "
                     "mayor_sentence, residence_sentence FROM pages;")
                  .ok());
  size_t all_runs = sys->context().extractor_runs - temps_runs;
  EXPECT_LT(temps_runs, all_runs);
}

}  // namespace
}  // namespace structura::core
