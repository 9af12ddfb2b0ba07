// Microbenchmarks of the one-sided Jacobi SVD (the TMA kernel), the
// symmetric Jacobi eigensolver used to cross-check it, and the blocked
// Gram spectrum route the large-matrix path dispatches to. Pass
// --sizes=RxC,RxC to append dense-vs-blocked rows at custom sizes.
#include <benchmark/benchmark.h>

#include <random>

#include "bench_sizes.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/rsvd.hpp"
#include "linalg/svd.hpp"
#include "reference/svd.hpp"

namespace {

using hetero::linalg::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix m(rows, cols);
  for (double& x : m.data()) x = dist(rng);
  return m;
}

void BM_SingularValues(benchmark::State& state) {
  const auto r = static_cast<std::size_t>(state.range(0));
  const auto c = static_cast<std::size_t>(state.range(1));
  const Matrix m = random_matrix(r, c, 42);
  for (auto _ : state) {
    auto sv = hetero::linalg::singular_values(m);
    benchmark::DoNotOptimize(sv.data());
  }
}
BENCHMARK(BM_SingularValues)
    ->Args({12, 5})
    ->Args({17, 5})
    ->Args({32, 32})
    ->Args({64, 64})
    ->Args({128, 32})
    ->Args({512, 16});

void BM_SingularValuesReference(benchmark::State& state) {
  // The pre-optimization kernel (row-major access, column norms recomputed
  // per rotation), kept in-tree for equivalence tests — the honest
  // before/after baseline.
  const auto r = static_cast<std::size_t>(state.range(0));
  const auto c = static_cast<std::size_t>(state.range(1));
  const Matrix m = random_matrix(r, c, 42);
  for (auto _ : state) {
    auto sv = hetero::linalg::singular_values_reference(m);
    benchmark::DoNotOptimize(sv.data());
  }
}
BENCHMARK(BM_SingularValuesReference)
    ->Args({12, 5})
    ->Args({17, 5})
    ->Args({32, 32})
    ->Args({64, 64})
    ->Args({128, 32})
    ->Args({512, 16});

void BM_FullSvd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix m = random_matrix(n, n, 7);
  for (auto _ : state) {
    auto r = hetero::linalg::svd(m);
    benchmark::DoNotOptimize(r.singular_values.data());
  }
}
BENCHMARK(BM_FullSvd)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_JacobiEigen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix m = random_matrix(n, n, 9);
  const Matrix g = hetero::linalg::gram(m);
  for (auto _ : state) {
    auto vals = hetero::linalg::symmetric_eigenvalues(g);
    benchmark::DoNotOptimize(vals.data());
  }
}
BENCHMARK(BM_JacobiEigen)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_BlockedSpectrum(benchmark::State& state) {
  // The large-matrix spectrum route: tiled Gram build, Householder
  // tridiagonalization, implicit-shift QL — the blocked twin of
  // BM_SingularValues above.
  const auto r = static_cast<std::size_t>(state.range(0));
  const auto c = static_cast<std::size_t>(state.range(1));
  const Matrix m = random_matrix(r, c, 42);
  for (auto _ : state) {
    auto sv = hetero::linalg::blocked_singular_values(m);
    benchmark::DoNotOptimize(sv.data());
  }
}
BENCHMARK(BM_BlockedSpectrum)
    ->Args({64, 64})
    ->Args({128, 32})
    ->Args({512, 16})
    ->Args({512, 128});

}  // namespace

int main(int argc, char** argv) {
  const auto sizes = hetero::bench::parse_sizes(&argc, argv);
  for (const auto& [r, c] : sizes) {
    benchmark::RegisterBenchmark("BM_SingularValues", BM_SingularValues)
        ->Args({r, c});
    benchmark::RegisterBenchmark("BM_BlockedSpectrum", BM_BlockedSpectrum)
        ->Args({r, c});
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
