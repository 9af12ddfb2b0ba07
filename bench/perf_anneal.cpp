// Benchmarks of the measure-targeted annealing generator's inner loop: the
// fused incremental proposal chain (core::MeasureView proposals: maintained
// sums, insertion-resorted homogeneities, warm-started Sinkhorn, warm Gram
// eigensolve) against the pre-optimization chain (full matrix copy + cold
// standardize_reference + singular_values_reference + fresh sorts per
// proposal), plus the end-to-end generator.
#include <benchmark/benchmark.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "core/measure_view.hpp"
#include "core/measures.hpp"
#include "core/standard_form.hpp"
#include "etcgen/rng.hpp"
#include "etcgen/target_measures.hpp"
#include "linalg/svd.hpp"

namespace {

using hetero::core::EcsMatrix;
using hetero::linalg::Matrix;
namespace eg = hetero::etcgen;

constexpr int kProposalsPerIteration = 64;

Matrix random_positive(std::size_t rows, std::size_t cols,
                       std::uint64_t seed) {
  auto rng = eg::make_rng(seed);
  Matrix m(rows, cols);
  for (double& x : m.data()) x = std::exp(eg::normal(rng, 0.0, 0.8));
  return m;
}

// One cold-chain evaluation, exactly as the generator measured candidates
// before the incremental rewrite (the old measure_set_raw): fresh sum
// vectors + sort-based MPH/TDH, cold unfused Sinkhorn at the fixed 1e-9
// energy budget the old generator used, pre-optimization Jacobi.
hetero::core::MeasureSet reference_measures(const Matrix& m) {
  hetero::core::MeasureSet out;
  out.mph = hetero::core::adjacent_ratio_homogeneity(m.col_sums());
  out.tdh = hetero::core::adjacent_ratio_homogeneity(m.row_sums());
  hetero::core::SinkhornOptions energy;
  energy.tolerance = 1e-9;
  energy.max_iterations = 500;
  const auto sf = hetero::core::standardize_reference(m, energy);
  const auto sv = hetero::linalg::singular_values_reference(sf.standard);
  out.tma = std::accumulate(sv.begin() + 1, sv.end(), 0.0) /
            static_cast<double>(sv.size() - 1);
  return out;
}

void BM_AnnealChainReference(benchmark::State& state) {
  // A Metropolis-style proposal chain through the pre-optimization
  // measurement path. Acceptance is deterministic (every other proposal) so
  // both chain benchmarks do identical accept/reject bookkeeping.
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const Matrix seed = random_positive(t, m, 99);
  for (auto _ : state) {
    auto rng = eg::make_rng(7);
    Matrix incumbent = seed;
    for (int p = 0; p < kProposalsPerIteration; ++p) {
      Matrix candidate = incumbent;
      const std::size_t k = eg::uniform_index(rng, candidate.data().size());
      candidate.data()[k] *= std::exp(eg::normal(rng, 0.0, 0.1));
      const auto measures = reference_measures(candidate);
      benchmark::DoNotOptimize(measures.tma);
      if (p % 2 == 0) incumbent = std::move(candidate);
    }
    benchmark::DoNotOptimize(incumbent.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kProposalsPerIteration);
}
BENCHMARK(BM_AnnealChainReference)->Args({8, 5})->Args({16, 8})->Args({32, 16});

void BM_AnnealChainIncremental(benchmark::State& state) {
  // The same chain through MeasureView proposals, configured exactly as the
  // generator configures it at the measure-sweep app's tolerance (0.02).
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const Matrix seed = random_positive(t, m, 99);
  hetero::core::MeasureViewOptions options;
  options.sinkhorn = eg::search_sinkhorn_options(0.02);
  options.error_budget = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    auto rng = eg::make_rng(7);
    hetero::core::MeasureView view(seed, options);
    for (int p = 0; p < kProposalsPerIteration; ++p) {
      const std::size_t k = eg::uniform_index(rng, seed.data().size());
      const hetero::core::CellDelta cell{
          k / m, k % m,
          view.ecs().data()[k] * std::exp(eg::normal(rng, 0.0, 0.1))};
      const auto& measures =
          view.propose(std::span<const hetero::core::CellDelta>(&cell, 1));
      benchmark::DoNotOptimize(measures.tma);
      if (p % 2 == 0)
        view.accept();
      else
        view.reject();
    }
    benchmark::DoNotOptimize(view.current().tma);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kProposalsPerIteration);
}
BENCHMARK(BM_AnnealChainIncremental)
    ->Args({8, 5})
    ->Args({16, 8})
    ->Args({32, 16});

void BM_GenerateWithMeasures(benchmark::State& state) {
  // End-to-end measure-targeted generation at the paper's working size.
  eg::TargetMeasures target{0.5, 0.5, 0.2};
  eg::TargetGenOptions opts;
  opts.tasks = 8;
  opts.machines = 5;
  opts.seed = 31;
  opts.anneal_iterations = 3000;
  opts.restarts = 1;
  opts.tolerance = 0.02;
  for (auto _ : state) {
    auto result = eg::generate_with_measures(target, opts);
    benchmark::DoNotOptimize(result.error);
  }
}
BENCHMARK(BM_GenerateWithMeasures)->Unit(benchmark::kMillisecond);

}  // namespace
