// Microbenchmarks of the end-to-end measure computations, including the
// SPEC-sized matrices of the paper's evaluation.
#include <benchmark/benchmark.h>

#include <numeric>
#include <random>
#include <vector>

#include "core/batch.hpp"
#include "core/measures.hpp"
#include "linalg/svd.hpp"
#include "parallel/thread_pool.hpp"
#include "reference/standard_form.hpp"
#include "reference/svd.hpp"
#include "spec/spec_data.hpp"

namespace {

using hetero::core::EcsMatrix;
using hetero::linalg::Matrix;

EcsMatrix random_ecs(std::size_t rows, std::size_t cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::lognormal_distribution<double> dist(0.0, 0.8);
  Matrix m(rows, cols);
  for (double& x : m.data()) x = dist(rng);
  return EcsMatrix(std::move(m));
}

void BM_MphTdh(benchmark::State& state) {
  const auto ecs = random_ecs(static_cast<std::size_t>(state.range(0)),
                              static_cast<std::size_t>(state.range(1)), 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hetero::core::mph(ecs));
    benchmark::DoNotOptimize(hetero::core::tdh(ecs));
  }
}
BENCHMARK(BM_MphTdh)->Args({12, 5})->Args({64, 16})->Args({256, 64});

void BM_Tma(benchmark::State& state) {
  const auto ecs = random_ecs(static_cast<std::size_t>(state.range(0)),
                              static_cast<std::size_t>(state.range(1)), 43);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hetero::core::tma(ecs));
  }
}
BENCHMARK(BM_Tma)->Args({12, 5})->Args({17, 5})->Args({64, 16})->Args({128, 32});

void BM_FullCharacterization(benchmark::State& state) {
  const auto ecs = random_ecs(static_cast<std::size_t>(state.range(0)),
                              static_cast<std::size_t>(state.range(1)), 44);
  for (auto _ : state) {
    auto report = hetero::core::characterize(ecs);
    benchmark::DoNotOptimize(report.measures.tma);
  }
}
BENCHMARK(BM_FullCharacterization)->Args({12, 5})->Args({64, 16});

double mean_nonmax(const std::vector<double>& descending) {
  const double sum =
      std::accumulate(descending.begin() + 1, descending.end(), 0.0);
  return sum / static_cast<double>(descending.size() - 1);
}

void BM_StandardizeTma(benchmark::State& state) {
  // The full eq. 8 pipeline — fused Sinkhorn + incremental cache-aware
  // Jacobi — at the acceptance-criterion size (128 x 64).
  const auto ecs = random_ecs(static_cast<std::size_t>(state.range(0)),
                              static_cast<std::size_t>(state.range(1)), 45);
  for (auto _ : state) {
    const auto sf = hetero::core::standardize(ecs.values());
    const auto sv = hetero::linalg::singular_values(sf.standard);
    benchmark::DoNotOptimize(mean_nonmax(sv));
  }
}
BENCHMARK(BM_StandardizeTma)->Args({64, 32})->Args({128, 64});

void BM_StandardizeTmaReference(benchmark::State& state) {
  // Same pipeline through the pre-optimization kernels.
  const auto ecs = random_ecs(static_cast<std::size_t>(state.range(0)),
                              static_cast<std::size_t>(state.range(1)), 45);
  for (auto _ : state) {
    const auto sf = hetero::core::standardize_reference(ecs.values());
    const auto sv = hetero::linalg::singular_values_reference(sf.standard);
    benchmark::DoNotOptimize(mean_nonmax(sv));
  }
}
BENCHMARK(BM_StandardizeTmaReference)->Args({64, 32})->Args({128, 64});

void BM_BatchMeasures(benchmark::State& state) {
  // The parallel batch-analysis API over a suite of environments, as the
  // taxonomy/sweep studies use it.
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<EcsMatrix> suite;
  suite.reserve(count);
  for (std::size_t k = 0; k < count; ++k)
    suite.push_back(random_ecs(64, 16, 100 + static_cast<unsigned>(k)));
  hetero::par::ThreadPool pool;
  for (auto _ : state) {
    auto measures = hetero::core::batch_measures(suite, pool);
    benchmark::DoNotOptimize(measures.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_BatchMeasures)->Arg(12)->Arg(48);

void BM_SerialMeasures(benchmark::State& state) {
  // The serial loop BM_BatchMeasures replaces, for the scaling comparison.
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<EcsMatrix> suite;
  suite.reserve(count);
  for (std::size_t k = 0; k < count; ++k)
    suite.push_back(random_ecs(64, 16, 100 + static_cast<unsigned>(k)));
  for (auto _ : state) {
    std::vector<hetero::core::MeasureSet> measures;
    measures.reserve(suite.size());
    for (const auto& ecs : suite)
      measures.push_back(hetero::core::measure_set(ecs));
    benchmark::DoNotOptimize(measures.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_SerialMeasures)->Arg(12)->Arg(48);

void BM_SpecCint(benchmark::State& state) {
  const auto ecs = hetero::spec::spec_cint2006rate().to_ecs();
  for (auto _ : state) {
    auto m = hetero::core::measure_set(ecs);
    benchmark::DoNotOptimize(m.tma);
  }
}
BENCHMARK(BM_SpecCint);

void BM_SpecCfp(benchmark::State& state) {
  const auto ecs = hetero::spec::spec_cfp2006rate().to_ecs();
  for (auto _ : state) {
    auto m = hetero::core::measure_set(ecs);
    benchmark::DoNotOptimize(m.tma);
  }
}
BENCHMARK(BM_SpecCfp);

}  // namespace
