// Microbenchmarks of the direct solvers and factorizations used by the
// regression/analysis layers, plus the two kernels behind a warm
// core::MeasureView update (the tall Gram build and the warm eigensolve).
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "linalg/jacobi_eigen.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"

namespace {

using hetero::linalg::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix m(rows, cols);
  for (double& x : m.data()) x = dist(rng);
  return m;
}

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 1);
  std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    auto x = hetero::linalg::solve(a, b);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_LuSolve)->Arg(8)->Arg(32)->Arg(128);

void BM_LuInverse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(n, n, 2);
  for (auto _ : state) {
    auto inv = hetero::linalg::inverse(a);
    benchmark::DoNotOptimize(inv.data());
  }
}
BENCHMARK(BM_LuInverse)->Arg(8)->Arg(32)->Arg(64);

void BM_QrFactor(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(2 * n, n, 3);
  for (auto _ : state) {
    auto f = hetero::linalg::qr(a);
    benchmark::DoNotOptimize(f.r.data());
  }
}
BENCHMARK(BM_QrFactor)->Arg(8)->Arg(32)->Arg(64);

void BM_LeastSquares(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(4 * n, n, 4);
  std::vector<double> b(4 * n, 0.5);
  for (auto _ : state) {
    auto x = hetero::linalg::least_squares(a, b);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_LeastSquares)->Arg(4)->Arg(16)->Arg(64);

void BM_PseudoInverse(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(2 * n, n, 5);
  for (auto _ : state) {
    auto p = hetero::linalg::pseudo_inverse(a);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_PseudoInverse)->Arg(8)->Arg(24);

// The tall-case Gram build of a warm MeasureView update (A^T A of the
// standardized tasks x machines matrix).
void BM_MinGram(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  const Matrix a = random_matrix(rows, cols, 6);
  Matrix g(cols, cols);
  for (auto _ : state) {
    hetero::linalg::min_gram_into(a, g);
    benchmark::DoNotOptimize(g.data().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MinGram)->Args({128, 16});

// Warm eigensolve of a Gram matrix from the eigenbasis of a nearby one:
// the basis is reset each iteration so every call does the same sweeps.
void BM_WarmEigen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix base = random_matrix(8 * n, n, 7);
  Matrix g(n, n);
  hetero::linalg::min_gram_into(base, g);
  const Matrix cold_basis = hetero::linalg::jacobi_eigen(g).vectors;
  Matrix nudged = base;
  for (std::size_t k = 0; k < 20; ++k)
    nudged((k * 37) % nudged.rows(), (k * 11) % n) *= k % 2 ? 1.5 : 0.5;
  hetero::linalg::min_gram_into(nudged, g);
  Matrix basis(n, n);
  std::vector<double> values;
  hetero::linalg::WarmEigenWorkspace ws;
  for (auto _ : state) {
    basis = cold_basis;
    hetero::linalg::symmetric_eigenvalues_warm(g, basis, values, ws);
    benchmark::DoNotOptimize(values.data());
    benchmark::DoNotOptimize(basis.data().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_WarmEigen)->Arg(16);

}  // namespace
