// Microbenchmarks of the arrival simulator on an imported ETC
// (sim::scenario_from_etc, 16 task types x 8 one-core machines, Poisson
// arrivals): immediate modes bind each arrival once; batch mode re-plans
// the unstarted set at every arrival and completion. The batch_* tokens
// warm-start the incremental BatchEngine from the previous event, while
// the *Reference variants run the cold re-planner of hetero_reference
// (quadratic-ish in the queue depth) for before/after comparison.
#include <benchmark/benchmark.h>

#include "etcgen/range_based.hpp"
#include "reference/cold_batch.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/workload.hpp"

namespace {

namespace sim = hetero::sim;

struct Fixture {
  sim::Scenario scenario;
  std::vector<sim::SimArrival> arrivals;
};

Fixture make_fixture(std::size_t arrival_count) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(1234);
  hetero::etcgen::RangeBasedOptions opts;
  opts.tasks = 16;
  opts.machines = 8;
  const auto etc = hetero::etcgen::generate_range_based(opts, rng);
  // Moderate load: arrival rate ~ machines / mean-fastest-runtime.
  sim::WorkloadOptions workload;
  workload.base_rate = 8.0 / 50.0;
  auto arrivals = sim::generate_workload(etc, workload, arrival_count, rng);
  return Fixture{sim::scenario_from_etc(etc), std::move(arrivals)};
}

void run(benchmark::State& state, const char* token) {
  const Fixture f = make_fixture(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    sim::Engine engine(f.scenario, f.arrivals, {.tick_period = 0.0});
    const sim::SimReport r =
        engine.run(*sim::reference::make_scheduler_or_cold(token));
    benchmark::DoNotOptimize(r.end_time);
  }
}

void BM_ImmediateMct(benchmark::State& state) { run(state, "greedy_mct"); }
BENCHMARK(BM_ImmediateMct)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ImmediateSwitching(benchmark::State& state) {
  run(state, "switching");
}
BENCHMARK(BM_ImmediateSwitching)->Arg(100)->Arg(1000)->Arg(10000);

void BM_BatchMinMin(benchmark::State& state) { run(state, "batch_min_min"); }
BENCHMARK(BM_BatchMinMin)->Arg(100)->Arg(400)->Arg(1000);

void BM_BatchMinMinReference(benchmark::State& state) {
  run(state, "min_min");
}
BENCHMARK(BM_BatchMinMinReference)->Arg(100)->Arg(400)->Arg(1000);

void BM_BatchSufferage(benchmark::State& state) {
  run(state, "batch_sufferage");
}
BENCHMARK(BM_BatchSufferage)->Arg(100)->Arg(400)->Arg(1000);

void BM_BatchSufferageReference(benchmark::State& state) {
  run(state, "sufferage");
}
BENCHMARK(BM_BatchSufferageReference)->Arg(100)->Arg(400)->Arg(1000);

}  // namespace
