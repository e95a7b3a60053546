#include <set>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "corpus/generator.h"
#include "ie/standard.h"
#include "lang/executor.h"
#include "lang/optimizer.h"
#include "lang/parser.h"
#include "lang/plan.h"
#include "obs/flight_recorder.h"
#include "query/result_cache.h"

namespace structura::lang {
namespace {

// ----------------------------------------------------------------- Parser

TEST(ParserTest, SelectStatement) {
  auto stmts = Parse(
      "SELECT subject, AVG(value) AS t FROM facts "
      "WHERE attribute LIKE \"temp_%\" AND value > 10 "
      "GROUP BY subject ORDER BY t DESC LIMIT 5;");
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  ASSERT_EQ(stmts->size(), 1u);
  const Statement& s = (*stmts)[0];
  EXPECT_EQ(s.kind, Statement::Kind::kSelect);
  const SelectAst& sel = std::get<SelectAst>(s.body);
  ASSERT_EQ(sel.items.size(), 2u);
  EXPECT_FALSE(sel.items[0].is_aggregate);
  EXPECT_TRUE(sel.items[1].is_aggregate);
  EXPECT_EQ(sel.items[1].alias, "t");
  ASSERT_EQ(sel.where.size(), 2u);
  EXPECT_EQ(sel.where[0].op, query::CompareOp::kLike);
  EXPECT_EQ(sel.where[1].op, query::CompareOp::kGt);
  EXPECT_EQ(sel.group_by, (std::vector<std::string>{"subject"}));
  EXPECT_EQ(sel.order_by, "t");
  EXPECT_TRUE(sel.descending);
  EXPECT_EQ(sel.limit, 5u);
}

TEST(ParserTest, CreateViewExtract) {
  auto stmts = Parse(
      "CREATE VIEW raw AS EXTRACT infobox, temp_sentence FROM pages "
      "WHERE category = \"City\" WITH CONFIDENCE >= 0.5;");
  ASSERT_TRUE(stmts.ok());
  const Statement& s = (*stmts)[0];
  EXPECT_EQ(s.kind, Statement::Kind::kCreateView);
  EXPECT_EQ(s.view_name, "raw");
  const ExtractAst& ex = std::get<ExtractAst>(s.body);
  EXPECT_EQ(ex.extractors,
            (std::vector<std::string>{"infobox", "temp_sentence"}));
  EXPECT_EQ(ex.source, "pages");
  ASSERT_EQ(ex.where.size(), 1u);
  EXPECT_DOUBLE_EQ(ex.min_confidence, 0.5);
}

TEST(ParserTest, CreateViewResolve) {
  auto stmts = Parse(
      "CREATE VIEW ents AS RESOLVE ENTITIES FROM raw COLUMN subject "
      "USING name THRESHOLD 0.85 WITH HUMAN REVIEW BUDGET 40;");
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  const ResolveAst& r = std::get<ResolveAst>((*stmts)[0].body);
  EXPECT_EQ(r.source, "raw");
  EXPECT_EQ(r.column, "subject");
  EXPECT_EQ(r.matcher, "name");
  EXPECT_DOUBLE_EQ(r.threshold, 0.85);
  EXPECT_EQ(r.review_budget, 40);
}

TEST(ParserTest, ExplainPrefixAndComments) {
  auto stmts = Parse(
      "# leading comment\n"
      "EXPLAIN SELECT * FROM v; # trailing\n");
  ASSERT_TRUE(stmts.ok());
  EXPECT_TRUE((*stmts)[0].explain);
}

TEST(ParserTest, MultipleStatements) {
  auto stmts = Parse(
      "CREATE VIEW a AS SELECT * FROM x;"
      "SELECT COUNT(*) FROM a;");
  ASSERT_TRUE(stmts.ok());
  EXPECT_EQ(stmts->size(), 2u);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(Parse("SELECT FROM x;").ok());
  EXPECT_FALSE(Parse("CREATE view;").ok());
  EXPECT_FALSE(Parse("SELECT * FROM x").ok());  // missing ';'
  EXPECT_FALSE(Parse("SELECT * FROM x WHERE a ~ 1;").ok());
  EXPECT_FALSE(Parse("SELECT * FROM x WHERE a = ;").ok());
  EXPECT_FALSE(Parse("SELECT a FROM x WHERE s = \"unterminated;").ok());
  EXPECT_FALSE(Parse("RESOLVE ENTITIES FROM a;").ok());
}

TEST(ParserTest, NonGroupedColumnRejectedAtPlanTime) {
  auto stmts = Parse("SELECT subject, AVG(value) FROM v;");
  ASSERT_TRUE(stmts.ok());
  EXPECT_FALSE(BuildPlan((*stmts)[0]).ok());
}

// ------------------------------------------------------------- Optimizer

TEST(OptimizerTest, PatternMayMatchRules) {
  using query::CompareOp;
  using query::Condition;
  using query::Value;
  auto cond = [](CompareOp op, const std::string& lit) {
    return Condition{"attribute", op, Value::Str(lit)};
  };
  // Fixed-attribute extractor vs equality.
  EXPECT_TRUE(PatternMayMatch("population",
                              cond(CompareOp::kEq, "population")));
  EXPECT_FALSE(PatternMayMatch("population",
                               cond(CompareOp::kEq, "founded")));
  // Family pattern vs equality and LIKE.
  EXPECT_TRUE(PatternMayMatch("temp_%", cond(CompareOp::kEq, "temp_03")));
  EXPECT_FALSE(PatternMayMatch("temp_%",
                               cond(CompareOp::kEq, "population")));
  EXPECT_TRUE(PatternMayMatch("temp_%", cond(CompareOp::kLike, "temp_%")));
  EXPECT_TRUE(PatternMayMatch("%", cond(CompareOp::kEq, "anything")));
  // Ranges.
  EXPECT_TRUE(PatternMayMatch("temp_%", cond(CompareOp::kGe, "temp_03")));
  EXPECT_FALSE(PatternMayMatch("temp_%", cond(CompareOp::kLe, "pop")));
  EXPECT_FALSE(PatternMayMatch("population",
                               cond(CompareOp::kGe, "temp_03")));
  // Non-attribute conditions never prune.
  EXPECT_TRUE(PatternMayMatch(
      "temp_%", Condition{"subject", CompareOp::kEq, Value::Str("x")}));
}

std::unique_ptr<ExecutionContext> MakeContext(
    const text::DocumentCollection* docs,
    std::vector<ie::ExtractorPtr>* owned,
    std::vector<std::unique_ptr<ii::SimilarityMatcher>>* matchers) {
  auto ctx = std::make_unique<ExecutionContext>();
  ctx->docs = docs;
  owned->push_back(ie::MakeInfoboxExtractor());
  ctx->extractors["infobox"] = owned->back().get();
  ctx->extractor_attributes["infobox"] = "%";
  owned->push_back(ie::MakeTemperatureExtractor());
  ctx->extractors["temp_sentence"] = owned->back().get();
  ctx->extractor_attributes["temp_sentence"] = "temp_%";
  owned->push_back(ie::MakePopulationExtractor());
  ctx->extractors["population_sentence"] = owned->back().get();
  ctx->extractor_attributes["population_sentence"] = "population";
  owned->push_back(ie::MakeMayorExtractor());
  ctx->extractors["mayor_sentence"] = owned->back().get();
  ctx->extractor_attributes["mayor_sentence"] = "mayor";
  matchers->push_back(std::make_unique<ii::NameMatcher>());
  ctx->matchers["name"] = matchers->back().get();
  return ctx;
}

struct LangFixture : public ::testing::Test {
  void SetUp() override {
    corpus::CorpusOptions options;
    options.num_cities = 12;
    options.num_people = 15;
    options.num_companies = 4;
    options.news_pages = 4;
    options.seed = 21;
    corpus::GenerateCorpus(options, &docs, &truth);
    ctx = MakeContext(&docs, &owned, &matchers);
  }

  /// Simulates a crawl in which `n` city pages changed: each gains a
  /// "landmark" infobox entry and is marked dirty for REFRESH VIEW.
  void TouchCityPages(size_t n) {
    ctx->dirty_docs.clear();
    size_t changed = 0;
    for (text::Document& d : docs.docs) {
      if (changed >= n) break;
      if (d.categories.empty() || d.categories[0] != "City") continue;
      size_t pos = d.text.find("| population = ");
      if (pos == std::string::npos) continue;
      d.text.insert(pos, "| landmark = Grand Fountain\n");
      ctx->dirty_docs.insert(d.id);
      ++changed;
    }
    ASSERT_EQ(changed, n);
  }

  text::DocumentCollection docs;
  corpus::GroundTruth truth;
  std::vector<ie::ExtractorPtr> owned;
  std::vector<std::unique_ptr<ii::SimilarityMatcher>> matchers;
  std::unique_ptr<ExecutionContext> ctx;
};

TEST_F(LangFixture, OptimizerPushesAndPrunes) {
  auto stmts = Parse(
      "CREATE VIEW v AS EXTRACT infobox, temp_sentence, "
      "population_sentence FROM pages "
      "WHERE category = \"City\" AND attribute = \"population\" "
      "AND confidence >= 0.5;");
  ASSERT_TRUE(stmts.ok());
  auto plan = BuildPlan((*stmts)[0]);
  ASSERT_TRUE(plan.ok());
  OptimizerReport report;
  PlanPtr optimized = Optimize(std::move(*plan), ctx->Catalog(), &report);
  EXPECT_TRUE(report.pushed_category);
  EXPECT_TRUE(report.pushed_confidence);
  // temp_sentence cannot produce "population": pruned. infobox ("%")
  // kept conservatively.
  EXPECT_EQ(report.pruned_extractors, 1);
  std::string rendered = optimized->ToString();
  EXPECT_NE(rendered.find("category = \"City\""), std::string::npos);
  EXPECT_EQ(rendered.find("temp_sentence"), std::string::npos);
}

TEST_F(LangFixture, OptimizedPlanEquivalentToNaive) {
  const char* program =
      "CREATE VIEW v AS EXTRACT infobox, temp_sentence, "
      "population_sentence FROM pages "
      "WHERE category = \"City\" AND attribute LIKE \"temp_%\";"
      "SELECT subject, COUNT(*) AS n FROM v GROUP BY subject "
      "ORDER BY subject;";
  Interpreter::Options naive_opts;
  naive_opts.optimize = false;
  ExecutionContext naive_ctx = *ctx;
  Interpreter naive(&naive_ctx, naive_opts);
  auto naive_result = naive.Query(program);
  ASSERT_TRUE(naive_result.ok()) << naive_result.status().ToString();

  ExecutionContext opt_ctx = *ctx;
  Interpreter optimized(&opt_ctx);
  auto opt_result = optimized.Query(program);
  ASSERT_TRUE(opt_result.ok());

  // Same rows...
  ASSERT_EQ(naive_result->size(), opt_result->size());
  for (size_t i = 0; i < naive_result->size(); ++i) {
    for (const std::string& col : naive_result->columns()) {
      EXPECT_EQ(naive_result->At(i, col).ToString(),
                opt_result->At(i, col).ToString());
    }
  }
  // ...much less work: fewer docs scanned and extractor invocations.
  EXPECT_LT(opt_ctx.docs_scanned, naive_ctx.docs_scanned);
  EXPECT_LT(opt_ctx.extractor_runs, naive_ctx.extractor_runs);
}

TEST_F(LangFixture, ExplainShowsBothPlans) {
  Interpreter interp(ctx.get());
  auto results = interp.Run(
      "EXPLAIN CREATE VIEW v AS EXTRACT temp_sentence FROM pages "
      "WHERE category = \"City\";");
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_NE((*results)[0].text.find("naive plan:"), std::string::npos);
  EXPECT_NE((*results)[0].text.find("optimized plan:"),
            std::string::npos);
  EXPECT_NE((*results)[0].text.find("estimated cost: naive"),
            std::string::npos);
  // EXPLAIN must not materialize the view.
  EXPECT_EQ(ctx->views.count("v"), 0u);
}

TEST_F(LangFixture, CostEstimatesReflectPushdown) {
  auto stmts = Parse(
      "CREATE VIEW v AS EXTRACT infobox, temp_sentence, "
      "population_sentence FROM pages "
      "WHERE category = \"City\" AND attribute = \"population\";");
  ASSERT_TRUE(stmts.ok());
  auto naive = BuildPlan((*stmts)[0]);
  ASSERT_TRUE(naive.ok());
  PlanCost before = EstimatePlanCost(**naive, *ctx);
  PlanPtr optimized = Optimize(std::move(*naive), ctx->Catalog(), nullptr);
  PlanCost after = EstimatePlanCost(*optimized, *ctx);
  // Category pushdown shrinks docs; extractor pruning shrinks cost per
  // doc — both estimates must fall, with docs equal to the actual city
  // count.
  EXPECT_LT(after.docs_scanned, before.docs_scanned);
  EXPECT_LT(after.extractor_cost, before.extractor_cost);
  size_t cities = 0;
  for (const auto& d : docs.docs) {
    if (!d.categories.empty() && d.categories[0] == "City") ++cities;
  }
  EXPECT_DOUBLE_EQ(after.docs_scanned, static_cast<double>(cities));
}

// -------------------------------------------------------------- Executor

TEST_F(LangFixture, ExtractSelectEndToEnd) {
  Interpreter interp(ctx.get());
  auto rel = interp.Query(
      "CREATE VIEW v AS EXTRACT infobox FROM pages "
      "WHERE category = \"City\";"
      "SELECT subject, value FROM v WHERE attribute = \"population\" "
      "AND subject = \"Madison\";");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  // Madison's population may have been dropped from the infobox by the
  // generator; when present it must match ground truth.
  const corpus::CityRecord* madison = truth.FindCity("Madison");
  ASSERT_NE(madison, nullptr);
  for (size_t i = 0; i < rel->size(); ++i) {
    std::string digits;
    for (char c : rel->At(i, "value").ToString()) {
      if (c != ',') digits += c;
    }
    EXPECT_EQ(digits, std::to_string(madison->population));
  }
}

TEST_F(LangFixture, UnknownNamesFailCleanly) {
  Interpreter interp(ctx.get());
  EXPECT_FALSE(
      interp.Query("CREATE VIEW v AS EXTRACT ghost FROM pages;").ok());
  EXPECT_FALSE(interp.Query("SELECT * FROM missing_view;").ok());
  EXPECT_FALSE(interp
                   .Query("CREATE VIEW v AS RESOLVE ENTITIES FROM nope "
                          "USING name THRESHOLD 0.8;")
                   .ok());
  EXPECT_FALSE(interp
                   .Query("CREATE VIEW v AS EXTRACT infobox FROM web;")
                   .ok());
}

TEST_F(LangFixture, ResolveAddsEntityColumn) {
  Interpreter interp(ctx.get());
  auto results = interp.Run(
      "CREATE VIEW raw AS EXTRACT infobox FROM pages;"
      "CREATE VIEW resolved AS RESOLVE ENTITIES FROM raw "
      "USING name THRESHOLD 0.8;");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  const query::Relation& resolved = ctx->views.at("resolved");
  EXPECT_GE(resolved.ColumnIndex("entity"), 0);
  EXPECT_EQ(resolved.size(), ctx->views.at("raw").size());
}

TEST_F(LangFixture, HumanReviewVetoesBadMerges) {
  // An oracle-backed reviewer: approves a merge only when both surfaces
  // map to the same ground-truth entity... here we simulate with a
  // reviewer that rejects everything, which must only reduce merging.
  ExecutionContext reject_ctx = *ctx;
  reject_ctx.review_fn = [](const hi::Task&) { return false; };
  Interpreter reject(&reject_ctx);
  // Mayor values carry surface variants ("D. Smith"), so resolution on
  // the value column produces genuine merge candidates to review.
  const char* program =
      "CREATE VIEW raw AS EXTRACT infobox, mayor_sentence FROM pages "
      "WHERE attribute = \"mayor\";"
      "CREATE VIEW resolved AS RESOLVE ENTITIES FROM raw COLUMN value "
      "USING name THRESHOLD 0.8 WITH HUMAN REVIEW BUDGET 10000;"
      "SELECT COUNT(*) AS n FROM resolved;";
  ASSERT_TRUE(reject.Query(program).ok());
  EXPECT_GT(reject_ctx.review_questions, 0u);

  // Count distinct entities with and without the vetoes.
  auto distinct_entities = [](const query::Relation& rel) {
    std::set<std::string> entities;
    int col = rel.ColumnIndex("entity");
    for (size_t i = 0; i < rel.size(); ++i) {
      entities.insert(rel.rows()[i][static_cast<size_t>(col)].ToString());
    }
    return entities.size();
  };
  ExecutionContext accept_ctx = *ctx;
  Interpreter accept(&accept_ctx);
  ASSERT_TRUE(accept.Query(program).ok());
  EXPECT_GE(distinct_entities(reject_ctx.views.at("resolved")),
            distinct_entities(accept_ctx.views.at("resolved")));
}

TEST(ParserTest, JoinAndDistinct) {
  auto stmts = Parse(
      "SELECT DISTINCT subject FROM a JOIN b ON subject = entity "
      "WHERE value > 3;");
  ASSERT_TRUE(stmts.ok()) << stmts.status().ToString();
  const SelectAst& sel = std::get<SelectAst>((*stmts)[0].body);
  EXPECT_TRUE(sel.distinct);
  EXPECT_EQ(sel.from, "a");
  EXPECT_EQ(sel.join_view, "b");
  EXPECT_EQ(sel.join_left_col, "subject");
  EXPECT_EQ(sel.join_right_col, "entity");
  EXPECT_FALSE(Parse("SELECT * FROM a JOIN b;").ok());
  EXPECT_FALSE(Parse("SELECT * FROM a JOIN b ON x;").ok());
}

TEST_F(LangFixture, JoinExecutesAcrossViews) {
  Interpreter interp(ctx.get());
  auto rel = interp.Query(
      "CREATE VIEW temps AS EXTRACT temp_sentence FROM pages "
      "WHERE category = \"City\";"
      "CREATE VIEW pops AS SELECT subject AS pop_subject, value AS pop "
      "FROM ignored_placeholder;");
  // The second statement references a missing view: expect an error,
  // then run the real join program.
  EXPECT_FALSE(rel.ok());
  auto joined = interp.Query(
      "CREATE VIEW pops AS EXTRACT population_sentence FROM pages "
      "WHERE category = \"City\";"
      "SELECT DISTINCT subject, value FROM temps "
      "JOIN pops ON subject = subject WHERE attribute LIKE \"temp_%\";");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_GT(joined->size(), 0u);
}

TEST_F(LangFixture, RefreshViewReextractsOnlyDirtyDocs) {
  Interpreter interp(ctx.get());
  ASSERT_TRUE(interp
                  .Run("CREATE VIEW v AS EXTRACT infobox FROM pages "
                       "WHERE category = \"City\";")
                  .ok());
  size_t before_rows = ctx->views.at("v").size();

  TouchCityPages(2);

  size_t runs_before = ctx->extractor_runs;
  auto results = interp.Run("REFRESH VIEW v;");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  // Only the two dirty documents were re-extracted.
  EXPECT_EQ(ctx->extractor_runs - runs_before, 2u);
  // The new attribute is now visible; row count grew by the two new
  // landmark facts.
  const query::Relation& v = ctx->views.at("v");
  EXPECT_EQ(v.size(), before_rows + 2);
  auto landmarks = query::Filter(
      v, {query::Condition{"attribute", query::CompareOp::kEq,
                           query::Value::Str("landmark")}});
  ASSERT_TRUE(landmarks.ok());
  EXPECT_EQ(landmarks->size(), 2u);
}

TEST_F(LangFixture, RefreshWithoutDefinitionFails) {
  Interpreter interp(ctx.get());
  ASSERT_TRUE(interp
                  .Run("CREATE VIEW sel AS SELECT * FROM missing;")
                  .ok() == false);
  EXPECT_FALSE(interp.Run("REFRESH VIEW ghost;").ok());
}

TEST_F(LangFixture, RefreshNoDirtyDocsIsNoop) {
  Interpreter interp(ctx.get());
  ASSERT_TRUE(interp
                  .Run("CREATE VIEW v AS EXTRACT infobox FROM pages;")
                  .ok());
  ctx->dirty_docs.clear();
  size_t before = ctx->views.at("v").size();
  auto results = interp.Run("REFRESH VIEW v;");
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(ctx->views.at("v").size(), before);
  EXPECT_NE((*results)[0].text.find("unchanged"), std::string::npos);
}

TEST_F(LangFixture, MaterializeIntoDatabase) {
  auto db = rdbms::Database::Open({});
  ASSERT_TRUE(db.ok());
  ctx->db = db->get();
  Interpreter interp(ctx.get());
  auto results = interp.Run(
      "CREATE VIEW v AS EXTRACT infobox FROM pages "
      "WHERE category = \"City\" AND attribute = \"population\";"
      "MATERIALIZE VIEW v INTO city_pop;");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  rdbms::Table* table = (*db)->GetTable("city_pop");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->LiveRowCount(), ctx->views.at("v").size());
  // Inferred types: doc is int, subject/attribute/value strings,
  // confidence double.
  EXPECT_EQ(table->schema().columns[0].name, "doc");
  EXPECT_EQ(table->schema().columns[0].type, rdbms::ValueType::kInt);
  int conf = table->schema().ColumnIndex("confidence");
  ASSERT_GE(conf, 0);
  EXPECT_EQ(table->schema().columns[static_cast<size_t>(conf)].type,
            rdbms::ValueType::kDouble);
  // Unknown view / missing db fail cleanly.
  EXPECT_FALSE(interp.Run("MATERIALIZE VIEW ghost INTO t;").ok());
  ctx->db = nullptr;
  EXPECT_FALSE(interp.Run("MATERIALIZE VIEW v INTO t2;").ok());
}

TEST_F(LangFixture, ViewsComposeAcrossStatements) {
  Interpreter interp(ctx.get());
  auto rel = interp.Query(
      "CREATE VIEW a AS EXTRACT infobox FROM pages "
      "WHERE category = \"City\";"
      "CREATE VIEW b AS SELECT subject, attribute, value FROM a "
      "WHERE attribute LIKE \"temp_%\";"
      "SELECT subject, AVG(value) AS avg_temp FROM b GROUP BY subject "
      "ORDER BY avg_temp DESC LIMIT 3;");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_LE(rel->size(), 3u);
  ASSERT_GE(rel->size(), 1u);
  // Descending order.
  for (size_t i = 1; i < rel->size(); ++i) {
    EXPECT_GE(rel->At(i - 1, "avg_temp").as_double(),
              rel->At(i, "avg_temp").as_double());
  }
}

// ------------------------------------------------ In-place view reads

/// Every row, rendered (ToString's default shows only the first 20).
std::string AllRows(const query::Relation& rel) {
  return rel.ToString(rel.size());
}

TEST_F(LangFixture, ViewRedefinedFromItself) {
  Interpreter interp(ctx.get());
  ASSERT_TRUE(interp.Run("CREATE VIEW v AS EXTRACT infobox FROM pages;").ok());
  auto expected = query::Filter(
      ctx->views.at("v"), {query::Condition{"attribute", query::CompareOp::kEq,
                                            query::Value::Str("population")}});
  ASSERT_TRUE(expected.ok());
  ASSERT_GT(expected->size(), 0u);
  ASSERT_TRUE(interp
                  .Run("CREATE VIEW v AS SELECT * FROM v "
                       "WHERE attribute = \"population\";")
                  .ok());
  EXPECT_EQ(AllRows(ctx->views.at("v")), AllRows(*expected));
}

TEST_F(LangFixture, ViewJoinedWithItself) {
  Interpreter interp(ctx.get());
  ASSERT_TRUE(interp
                  .Run("CREATE VIEW v AS EXTRACT infobox FROM pages "
                       "WHERE category = \"City\";")
                  .ok());
  const query::Relation copy = ctx->views.at("v");
  auto expected = query::HashJoin(copy, copy, "subject", "subject");
  ASSERT_TRUE(expected.ok());
  auto joined = interp.Query("SELECT * FROM v JOIN v ON subject = subject;");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_GT(joined->size(), copy.size());
  EXPECT_EQ(AllRows(*joined), AllRows(*expected));
  EXPECT_EQ(AllRows(ctx->views.at("v")), AllRows(copy));
}

TEST_F(LangFixture, SelectStarResultOutlivesRefresh) {
  Interpreter interp(ctx.get());
  ASSERT_TRUE(interp
                  .Run("CREATE VIEW v AS EXTRACT infobox FROM pages "
                       "WHERE category = \"City\";")
                  .ok());
  auto result = interp.Query("SELECT * FROM v;");
  ASSERT_TRUE(result.ok());
  const std::string original = AllRows(ctx->views.at("v"));
  ASSERT_EQ(AllRows(*result), original);
  TouchCityPages(2);
  ASSERT_TRUE(interp.Run("REFRESH VIEW v;").ok());
  EXPECT_NE(AllRows(ctx->views.at("v")), original);
  EXPECT_EQ(AllRows(*result), original);
}

TEST_F(LangFixture, CachedSelectMatchesFreshRunAfterRefresh) {
  query::QueryResultCache cache;
  ctx->cache = &cache;
  Interpreter interp(ctx.get());
  ASSERT_TRUE(
      interp.Run("CREATE VIEW facts AS EXTRACT infobox FROM pages;").ok());
  const char* sdl =
      "SELECT attribute, COUNT(*) AS n FROM facts "
      "WHERE category = \"City\" GROUP BY attribute ORDER BY attribute;";
  ASSERT_TRUE(interp.Query(sdl).ok());
  auto warm = interp.Query(sdl);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cache.stats().hits, 1u);

  TouchCityPages(2);
  ASSERT_TRUE(interp.Run("REFRESH VIEW facts;").ok());
  auto cached = interp.Query(sdl);
  ASSERT_TRUE(cached.ok());
  ExecutionContext uncached_ctx = *ctx;
  uncached_ctx.cache = nullptr;
  auto fresh = Interpreter(&uncached_ctx).Query(sdl);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(AllRows(*cached), AllRows(*fresh));
  EXPECT_NE(AllRows(*cached), AllRows(*warm));  // landmark rows
}

TEST_F(LangFixture, ParallelExtractChargesEveryExtractorCall) {
  ThreadPool pool(4);
  auto charged = [&](size_t parallelism) {
    ExecutionContext run = *ctx;
    run.exec.parallelism = parallelism;
    run.exec.pool = &pool;
    obs::CostAccumulator acc;
    obs::ScopedCostContext scope(&acc);
    Interpreter interp(&run);
    EXPECT_TRUE(interp
                    .Run("CREATE VIEW v AS EXTRACT infobox, temp_sentence "
                         "FROM pages;")
                    .ok());
    uint64_t calls = acc.Snapshot()[obs::CostDim::kExtractorCalls];
    EXPECT_EQ(calls, run.extractor_runs);
    return calls;
  };
  uint64_t serial = charged(1);
  EXPECT_GT(serial, 0u);
  EXPECT_EQ(charged(4), serial);
}

}  // namespace
}  // namespace structura::lang
