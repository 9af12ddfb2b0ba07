// Microbenchmarks of the Sinkhorn standardization (eq. 9) across matrix
// sizes and zero-pattern classes, plus the pattern classifier itself and
// the tiled pool-parallel sweep of the large-matrix path. Pass
// --sizes=RxC,RxC to append fused-vs-tiled rows at custom sizes.
#include <benchmark/benchmark.h>

#include <random>

#include "bench_sizes.hpp"
#include "core/standard_form.hpp"
#include "graph/structure.hpp"
#include "parallel/thread_pool.hpp"
#include "reference/standard_form.hpp"

namespace {

using hetero::linalg::Matrix;

Matrix random_positive(std::size_t rows, std::size_t cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::lognormal_distribution<double> dist(0.0, 1.0);
  Matrix m(rows, cols);
  for (double& x : m.data()) x = dist(rng);
  return m;
}

void BM_SinkhornPositive(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const Matrix input = random_positive(t, m, 42);
  for (auto _ : state) {
    auto r = hetero::core::standardize(input);
    benchmark::DoNotOptimize(r.residual);
  }
  state.counters["iterations"] = static_cast<double>(
      hetero::core::standardize(input).iterations);
}
BENCHMARK(BM_SinkhornPositive)
    ->Args({4, 4})
    ->Args({12, 5})
    ->Args({17, 5})
    ->Args({32, 16})
    ->Args({64, 32})
    ->Args({128, 64})
    ->Args({512, 16});

void BM_SinkhornReference(benchmark::State& state) {
  // The pre-fusion kernel (per-column strided col_sum recomputation), kept
  // in-tree for equivalence tests — the honest before/after baseline.
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const Matrix input = random_positive(t, m, 42);
  for (auto _ : state) {
    auto r = hetero::core::standardize_reference(input);
    benchmark::DoNotOptimize(r.residual);
  }
}
BENCHMARK(BM_SinkhornReference)
    ->Args({4, 4})
    ->Args({12, 5})
    ->Args({17, 5})
    ->Args({32, 16})
    ->Args({64, 32})
    ->Args({128, 64})
    ->Args({512, 16});

void BM_SinkhornWarmStart(benchmark::State& state) {
  // The annealing proposal pattern: one entry nudged, the incumbent's
  // converged scalings seed the solve, skipping most cold iterations (see
  // the "iterations" counters here and above).
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const Matrix incumbent = random_positive(t, m, 42);
  const auto base = hetero::core::standardize(incumbent);
  Matrix proposal = incumbent;
  proposal(t / 2, m / 2) *= 1.05;
  hetero::core::SinkhornOptions warm;
  warm.warm_row_scale = base.row_scale;
  warm.warm_col_scale = base.col_scale;
  for (auto _ : state) {
    auto r = hetero::core::standardize(proposal, warm);
    benchmark::DoNotOptimize(r.residual);
  }
  state.counters["iterations"] = static_cast<double>(
      hetero::core::standardize(proposal, warm).iterations);
}
BENCHMARK(BM_SinkhornWarmStart)
    ->Args({12, 5})
    ->Args({32, 16})
    ->Args({64, 32})
    ->Args({128, 64});

void BM_SinkhornLimitOnlyPattern(benchmark::State& state) {
  // Support without total support: row 0 runs only on machine 0, so the
  // other rows' (i, 0) entries lie on no positive diagonal — exercises the
  // core projection path.
  Matrix input = random_positive(8, 8, 7);
  for (std::size_t j = 1; j < 8; ++j) input(0, j) = 0.0;
  for (auto _ : state) {
    auto r = hetero::core::standardize(input);
    benchmark::DoNotOptimize(r.converged);
  }
}
BENCHMARK(BM_SinkhornLimitOnlyPattern);

void BM_ClassifyPattern(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix input = random_positive(n, n, 11);
  // Sparsify to make the combinatorial path non-trivial.
  std::mt19937 rng(13);
  std::bernoulli_distribution zero(0.4);
  for (double& x : input.data())
    if (zero(rng)) x = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    if (input.row_sum(i) == 0.0) input(i, i % n) = 1.0;
  for (std::size_t j = 0; j < n; ++j)
    if (input.col_sum(j) == 0.0) input(j % n, j) = 1.0;
  for (auto _ : state) {
    auto c = hetero::core::classify_pattern(input);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_ClassifyPattern)->Arg(8)->Arg(32)->Arg(128);

void BM_SupportCore(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix input = random_positive(n, n, 17);
  input(0, 1) = 0.0;
  for (auto _ : state) {
    auto core = hetero::graph::support_core(input);
    benchmark::DoNotOptimize(core->data());
  }
}
BENCHMARK(BM_SupportCore)->Arg(8)->Arg(32)->Arg(128);

void BM_SinkhornTiled(benchmark::State& state) {
  // The tiled pool-parallel sweep of the large-matrix path, on the shared
  // pool — the honest comparison row against BM_SinkhornPositive.
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const Matrix input = random_positive(t, m, 42);
  auto& pool = hetero::par::shared_pool();
  for (auto _ : state) {
    auto r = hetero::core::standardize_tiled(input, {}, pool);
    benchmark::DoNotOptimize(r.residual);
  }
  state.counters["iterations"] = static_cast<double>(
      hetero::core::standardize_tiled(input, {}, pool).iterations);
}
BENCHMARK(BM_SinkhornTiled)
    ->Args({128, 64})
    ->Args({512, 16})
    ->Args({1024, 128});

}  // namespace

int main(int argc, char** argv) {
  const auto sizes = hetero::bench::parse_sizes(&argc, argv);
  for (const auto& [t, m] : sizes) {
    benchmark::RegisterBenchmark("BM_SinkhornPositive", BM_SinkhornPositive)
        ->Args({t, m});
    benchmark::RegisterBenchmark("BM_SinkhornTiled", BM_SinkhornTiled)
        ->Args({t, m});
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
