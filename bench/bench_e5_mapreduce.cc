// E5 — Section 4, physical layer: "IE and II are often very computation
// intensive ... we need parallel processing in the physical layer,"
// via "Map-Reduce-like processes". We run the extraction pipeline as a
// Map-Reduce job and sweep worker counts. Times and docs/sec rates are
// wall-clock (UseRealTime): the map tasks run on pool threads, so the
// main thread's CPU time would overstate throughput. Speedup is bounded
// by the host's cores; the fault-injection run exercises retry
// correctness under load.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "ie/pipeline.h"
#include "ie/standard.h"

namespace structura {
namespace {

void BM_SequentialExtraction(benchmark::State& state) {
  bench::Workload w = bench::MakeWorkload(state.range(0));
  auto suite = ie::MakeStandardSuite();
  auto views = ie::Views(suite);
  size_t facts = 0;
  for (auto _ : state) {
    ie::FactSet set = ie::RunExtractors(views, w.docs);
    facts = set.size();
    benchmark::DoNotOptimize(set);
  }
  state.counters["facts"] = static_cast<double>(facts);
  state.counters["docs_per_sec"] = benchmark::Counter(
      static_cast<double>(w.docs.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SequentialExtraction)->Arg(50)->Arg(150)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_MapReduceExtraction(benchmark::State& state) {
  bench::Workload w = bench::MakeWorkload(150);
  auto suite = ie::MakeStandardSuite();
  auto views = ie::Views(suite);
  const size_t workers = static_cast<size_t>(state.range(0));
  ThreadPool pool(workers);
  mr::JobConfig config;
  config.num_workers = workers;
  config.split_size = 16;
  size_t facts = 0;
  mr::JobStats stats;
  for (auto _ : state) {
    auto set = ie::RunExtractorsMapReduce(views, w.docs, pool, config,
                                          &stats);
    facts = set->size();
    benchmark::DoNotOptimize(set);
  }
  state.counters["facts"] = static_cast<double>(facts);
  state.counters["map_tasks"] = static_cast<double>(stats.map_tasks);
  state.counters["docs_per_sec"] = benchmark::Counter(
      static_cast<double>(w.docs.size() * state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MapReduceExtraction)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_MapReduceWithFaults(benchmark::State& state) {
  bench::Workload w = bench::MakeWorkload(100);
  auto suite = ie::MakeStandardSuite();
  auto views = ie::Views(suite);
  ThreadPool pool(4);
  mr::JobConfig config;
  config.split_size = 8;
  config.map_failure_prob =
      static_cast<double>(state.range(0)) / 100.0;
  config.max_attempts = 50;
  size_t retries = 0, facts = 0;
  mr::JobStats stats;
  for (auto _ : state) {
    auto set = ie::RunExtractorsMapReduce(views, w.docs, pool, config,
                                          &stats);
    retries = stats.map_retries;
    facts = set->size();
  }
  state.counters["map_retries"] = static_cast<double>(retries);
  state.counters["facts"] = static_cast<double>(facts);
}
BENCHMARK(BM_MapReduceWithFaults)->Arg(0)->Arg(10)->Arg(30)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace structura

BENCHMARK_MAIN();
