// E19 — the price of durability, and buying it back with group commit.
// The WAL's sync policy decides when a commit is acknowledged relative
// to fsync: kAlways pays one fsync per commit (or shares one that is
// already in flight), kGroupCommit makes the sync leader wait a short
// coalescing window so concurrent commits ride the same fsync, and
// kOff never waits (a crash can lose the acked tail). We measure
// committed-transaction throughput across the three policies, single-
// threaded and with concurrent committers, on a real on-disk WAL.

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "rdbms/database.h"
#include "rdbms/wal.h"

namespace structura {
namespace {

using rdbms::Database;
using rdbms::Row;
using rdbms::TableSchema;
using rdbms::Value;
using rdbms::ValueType;
using rdbms::WalSyncPolicy;

constexpr int kRows = 64;

const char* PolicyName(WalSyncPolicy policy) {
  switch (policy) {
    case WalSyncPolicy::kAlways:
      return "fsync-per-commit";
    case WalSyncPolicy::kGroupCommit:
      return "group-commit";
    case WalSyncPolicy::kOff:
      return "no-fsync";
  }
  return "?";
}

std::unique_ptr<Database> FreshDb(const std::string& dir,
                                  WalSyncPolicy policy) {
  std::filesystem::remove_all(dir);
  rdbms::DatabaseOptions options;
  options.dir = dir;
  options.wal.sync_policy = policy;
  auto db = std::move(Database::Open(options)).value();
  TableSchema schema;
  schema.table_name = "final";
  schema.columns = {{"subject", ValueType::kString},
                    {"value", ValueType::kInt}};
  db->CreateTable(schema).value();
  auto txn = db->Begin();
  for (int i = 0; i < kRows; ++i) {
    txn->Insert("final",
                {Value::Str("s" + std::to_string(i)), Value::Int(0)})
        .value();
  }
  (void)txn->Commit().ok();
  return db;
}

/// Single committer: the per-commit durability cost in isolation.
void BM_CommitThroughputByPolicy(benchmark::State& state) {
  const auto policy = static_cast<WalSyncPolicy>(state.range(0));
  auto db = FreshDb("/tmp/structura_bench_e19_single", policy);
  Rng rng(7);
  long committed = 0;
  for (auto _ : state) {
    auto txn = db->Begin();
    rdbms::RowId row = rng.NextBounded(kRows);
    Row r = txn->Get("final", row).value();
    (void)txn->Update("final", row,
                      {r[0], Value::Int(r[1].as_int() + 1)})
        .ok();
    (void)txn->Commit().ok();
    ++committed;
  }
  state.SetLabel(PolicyName(policy));
  state.counters["txn_per_sec"] = benchmark::Counter(
      static_cast<double>(committed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CommitThroughputByPolicy)
    ->Arg(static_cast<int>(WalSyncPolicy::kAlways))
    ->Arg(static_cast<int>(WalSyncPolicy::kGroupCommit))
    ->Arg(static_cast<int>(WalSyncPolicy::kOff))
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Concurrent committers on disjoint rows: where group commit earns its
/// keep — N commits arriving inside one coalescing window pay one
/// fsync between them instead of N.
void BM_ConcurrentCommitByPolicy(benchmark::State& state) {
  const auto policy = static_cast<WalSyncPolicy>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  auto db = FreshDb("/tmp/structura_bench_e19_mt", policy);
  std::atomic<long> committed{0};
  constexpr int kCommitsPerIter = 64;
  for (auto _ : state) {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        // Disjoint row ranges: no lock conflicts, the WAL's durability
        // protocol is the only contended resource.
        const int base = t * (kRows / threads);
        Rng rng(100 + t);
        for (int i = 0; i < kCommitsPerIter / threads; ++i) {
          auto txn = db->Begin();
          rdbms::RowId row =
              base + rng.NextBounded(kRows / threads);
          Row r = txn->Get("final", row).value();
          (void)txn->Update("final", row,
                            {r[0], Value::Int(r[1].as_int() + 1)})
              .ok();
          (void)txn->Commit().ok();
          committed.fetch_add(1);
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  state.SetLabel(PolicyName(policy));
  state.counters["txn_per_sec"] = benchmark::Counter(
      static_cast<double>(committed.load()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConcurrentCommitByPolicy)
    ->Args({static_cast<int>(WalSyncPolicy::kAlways), 1})
    ->Args({static_cast<int>(WalSyncPolicy::kAlways), 4})
    ->Args({static_cast<int>(WalSyncPolicy::kAlways), 8})
    ->Args({static_cast<int>(WalSyncPolicy::kGroupCommit), 1})
    ->Args({static_cast<int>(WalSyncPolicy::kGroupCommit), 4})
    ->Args({static_cast<int>(WalSyncPolicy::kGroupCommit), 8})
    ->Args({static_cast<int>(WalSyncPolicy::kOff), 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace structura

int main(int argc, char** argv) {
  return structura::bench::BenchmarkMainWithJson(
      argc, argv, "e19_durable_wal", "BENCH_e19.json");
}
