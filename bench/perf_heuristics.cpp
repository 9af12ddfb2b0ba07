// Microbenchmarks of the mapping heuristics across batch sizes. The batch
// heuristics (Min-Min, Max-Min, Sufferage) run on the incremental
// BatchEngine — O(T * M + affected rescans) per round versus the retained
// O(T^2 * M) references benchmarked alongside (the *Reference variants).
// The search mappers dominate runtime; the GA also runs across a pool with
// bit-identical results (BM_GaMapperParallel).
#include <benchmark/benchmark.h>

#include "etcgen/range_based.hpp"
#include "etcgen/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "reference/heuristics.hpp"
#include "sched/evolutionary.hpp"
#include "sched/heuristics.hpp"

namespace {

using hetero::core::EtcMatrix;
namespace sc = hetero::sched;

EtcMatrix env(std::size_t tasks, std::size_t machines) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(99);
  hetero::etcgen::RangeBasedOptions opts;
  opts.tasks = tasks;
  opts.machines = machines;
  return hetero::etcgen::generate_range_based(opts, rng);
}

// Shared body: every batch heuristic benchmark maps one task instance per
// type of a T x M environment, so fast/reference rows line up exactly.
template <sc::Assignment (*Map)(const EtcMatrix&, const sc::TaskList&)>
void BM_Batch(benchmark::State& state) {
  const auto etc = env(static_cast<std::size_t>(state.range(0)),
                       static_cast<std::size_t>(state.range(1)));
  const auto tasks = sc::one_of_each(etc);
  for (auto _ : state) benchmark::DoNotOptimize(Map(etc, tasks).data());
}

void BM_MinMin(benchmark::State& s) { BM_Batch<sc::map_min_min>(s); }
void BM_MinMinReference(benchmark::State& s) {
  BM_Batch<sc::map_min_min_reference>(s);
}
void BM_MaxMin(benchmark::State& s) { BM_Batch<sc::map_max_min>(s); }
void BM_MaxMinReference(benchmark::State& s) {
  BM_Batch<sc::map_max_min_reference>(s);
}
void BM_Sufferage(benchmark::State& s) { BM_Batch<sc::map_sufferage>(s); }
void BM_SufferageReference(benchmark::State& s) {
  BM_Batch<sc::map_sufferage_reference>(s);
}

BENCHMARK(BM_MinMin)->Args({64, 8})->Args({256, 8})->Args({512, 16});
BENCHMARK(BM_MinMinReference)->Args({64, 8})->Args({256, 8})->Args({512, 16});
BENCHMARK(BM_MaxMin)->Args({512, 16});
BENCHMARK(BM_MaxMinReference)->Args({512, 16});
BENCHMARK(BM_Sufferage)->Args({64, 8})->Args({256, 8})->Args({512, 16});
BENCHMARK(BM_SufferageReference)
    ->Args({64, 8})
    ->Args({256, 8})
    ->Args({512, 16});

// Typed batches: T tasks drawn (seeded) from a handful of task types, as
// in the ETC model's task-type rows and the simulator's task classes. The
// engine plans one group per type here, where the one-of-each benches
// above plan T singleton groups.
template <sc::Assignment (*Map)(const EtcMatrix&, const sc::TaskList&)>
void BM_BatchTyped(benchmark::State& state) {
  const auto etc = env(static_cast<std::size_t>(state.range(1)),
                       static_cast<std::size_t>(state.range(2)));
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(7);
  sc::TaskList tasks(static_cast<std::size_t>(state.range(0)));
  for (auto& t : tasks) t = hetero::etcgen::uniform_index(rng, etc.task_count());
  for (auto _ : state) benchmark::DoNotOptimize(Map(etc, tasks).data());
}

void BM_MinMinTyped(benchmark::State& s) { BM_BatchTyped<sc::map_min_min>(s); }
void BM_MaxMinTyped(benchmark::State& s) { BM_BatchTyped<sc::map_max_min>(s); }
void BM_SufferageTyped(benchmark::State& s) {
  BM_BatchTyped<sc::map_sufferage>(s);
}

// Args: tasks, types, machines.
BENCHMARK(BM_MinMinTyped)->Args({512, 4, 16});
BENCHMARK(BM_MaxMinTyped)->Args({512, 4, 16});
BENCHMARK(BM_SufferageTyped)->Args({512, 4, 16});

void BM_Mct(benchmark::State& state) {
  const auto etc = env(static_cast<std::size_t>(state.range(0)), 8);
  const auto tasks = sc::one_of_each(etc);
  for (auto _ : state)
    benchmark::DoNotOptimize(sc::map_mct(etc, tasks).data());
}
BENCHMARK(BM_Mct)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_SaMapper(benchmark::State& state) {
  const auto etc = env(64, 8);
  const auto tasks = sc::one_of_each(etc);
  sc::SaMapperOptions opts;
  opts.iterations = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sc::map_simulated_annealing(etc, tasks, opts).data());
}
BENCHMARK(BM_SaMapper)->Arg(1000)->Arg(5000);

void BM_GaMapper(benchmark::State& state) {
  const auto etc = env(64, 8);
  const auto tasks = sc::one_of_each(etc);
  sc::GaMapperOptions opts;
  opts.population = 40;
  opts.generations = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(sc::map_genetic(etc, tasks, opts).data());
}
BENCHMARK(BM_GaMapper)->Arg(10)->Arg(40);

void BM_GaMapperParallel(benchmark::State& state) {
  const auto etc = env(64, 8);
  const auto tasks = sc::one_of_each(etc);
  hetero::par::ThreadPool pool;
  sc::GaMapperOptions opts;
  opts.population = 40;
  opts.generations = static_cast<std::size_t>(state.range(0));
  opts.pool = &pool;
  for (auto _ : state)
    benchmark::DoNotOptimize(sc::map_genetic(etc, tasks, opts).data());
}
BENCHMARK(BM_GaMapperParallel)->Arg(10)->Arg(40);

}  // namespace
