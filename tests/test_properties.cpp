// Property-based sweeps over randomly generated environments: the library's
// invariants must hold for every shape/seed combination, not just the
// hand-picked examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <type_traits>

#include "core/measures.hpp"
#include "core/performance.hpp"
#include "core/standard_form.hpp"
#include "etcgen/range_based.hpp"
#include "linalg/svd.hpp"
#include "linalg/vector_ops.hpp"

namespace {

using hetero::core::canonical_form;
using hetero::core::EcsMatrix;
using hetero::core::measure_set;
using hetero::core::standardize;
using hetero::linalg::Matrix;

// gtest names each case by the bytes of its parameter, so the parameter
// must have no padding (whose bytes are indeterminate) for the ctest names
// to be the same in every build.
struct Env {
  std::size_t tasks, machines;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<Env>);

Matrix random_positive(const Env& e) {
  std::mt19937 rng(e.seed);
  std::lognormal_distribution<double> dist(0.0, 1.0);
  Matrix m(e.tasks, e.machines);
  for (double& x : m.data()) x = dist(rng);
  return m;
}

class EnvSweep : public ::testing::TestWithParam<Env> {};

TEST_P(EnvSweep, MeasuresLieInTheirRanges) {
  const auto m = measure_set(EcsMatrix(random_positive(GetParam())));
  EXPECT_GT(m.mph, 0.0);
  EXPECT_LE(m.mph, 1.0);
  EXPECT_GT(m.tdh, 0.0);
  EXPECT_LE(m.tdh, 1.0);
  EXPECT_GE(m.tma, -1e-12);
  EXPECT_LE(m.tma, 1.0 + 1e-12);
}

TEST_P(EnvSweep, MeasuresScaleInvariant) {
  // Property 2 of the paper: multiplying the ECS matrix by a scalar (time
  // unit change) must not move any measure.
  const Matrix base = random_positive(GetParam());
  const auto a = measure_set(EcsMatrix(base));
  const auto b = measure_set(EcsMatrix(base * 3600.0));
  EXPECT_NEAR(a.mph, b.mph, 1e-10);
  EXPECT_NEAR(a.tdh, b.tdh, 1e-10);
  EXPECT_NEAR(a.tma, b.tma, 1e-7);
}

TEST_P(EnvSweep, MeasuresPermutationInvariant) {
  // Relabeling tasks/machines is physically meaningless and must not move
  // the measures.
  const Matrix base = random_positive(GetParam());
  std::mt19937 rng(GetParam().seed + 7);
  std::vector<std::size_t> tp(base.rows()), mp(base.cols());
  std::iota(tp.begin(), tp.end(), std::size_t{0});
  std::iota(mp.begin(), mp.end(), std::size_t{0});
  std::shuffle(tp.begin(), tp.end(), rng);
  std::shuffle(mp.begin(), mp.end(), rng);
  const auto a = measure_set(EcsMatrix(base));
  const auto b = measure_set(EcsMatrix(base).permuted(tp, mp));
  EXPECT_NEAR(a.mph, b.mph, 1e-10);
  EXPECT_NEAR(a.tdh, b.tdh, 1e-10);
  EXPECT_NEAR(a.tma, b.tma, 1e-7);
}

TEST_P(EnvSweep, TmaIndependentOfRowColumnScaling) {
  // The standard form strips diag(d1) * E * diag(d2): TMA must not move
  // while MPH/TDH do (the independence the paper engineers).
  const Matrix base = random_positive(GetParam());
  std::mt19937 rng(GetParam().seed + 13);
  std::uniform_real_distribution<double> dist(0.2, 5.0);
  Matrix scaled = base;
  for (std::size_t i = 0; i < scaled.rows(); ++i)
    scaled.scale_row(i, dist(rng));
  for (std::size_t j = 0; j < scaled.cols(); ++j)
    scaled.scale_col(j, dist(rng));
  EXPECT_NEAR(measure_set(EcsMatrix(base)).tma,
              measure_set(EcsMatrix(scaled)).tma, 1e-6);
}

TEST_P(EnvSweep, StandardFormSumsAndTopSingularValue) {
  const auto r = standardize(random_positive(GetParam()));
  ASSERT_TRUE(r.converged);
  for (std::size_t i = 0; i < r.standard.rows(); ++i)
    EXPECT_NEAR(r.standard.row_sum(i), r.target_row_sum, 1e-7);
  for (std::size_t j = 0; j < r.standard.cols(); ++j)
    EXPECT_NEAR(r.standard.col_sum(j), r.target_col_sum, 1e-7);
  EXPECT_NEAR(hetero::linalg::singular_values(r.standard).front(), 1.0, 1e-7);
}

TEST_P(EnvSweep, StandardFormIdempotent) {
  const auto once = standardize(random_positive(GetParam()));
  const auto twice = standardize(once.standard);
  EXPECT_LE(twice.iterations, 2u);
  EXPECT_LT(hetero::linalg::max_abs_diff(once.standard, twice.standard),
            1e-7);
}

TEST_P(EnvSweep, CanonicalFormPreservesMeasures) {
  const EcsMatrix ecs(random_positive(GetParam()));
  const auto canonical = canonical_form(ecs);
  const auto a = measure_set(ecs);
  const auto b = measure_set(canonical.matrix);
  EXPECT_NEAR(a.mph, b.mph, 1e-10);
  EXPECT_NEAR(a.tdh, b.tdh, 1e-10);
  EXPECT_NEAR(a.tma, b.tma, 1e-7);
}

TEST_P(EnvSweep, EtcEcsRoundTrip) {
  const EcsMatrix ecs(random_positive(GetParam()));
  const EcsMatrix back = ecs.to_etc().to_ecs();
  EXPECT_LT(hetero::linalg::max_abs_diff(back.values(), ecs.values()), 1e-12);
}

TEST_P(EnvSweep, WeightedMeasuresEqualPreScaledMatrix) {
  // Applying weights must equal measuring the explicitly weighted matrix.
  const Env e = GetParam();
  const Matrix base = random_positive(e);
  std::mt19937 rng(e.seed + 23);
  std::uniform_real_distribution<double> dist(0.5, 2.0);
  hetero::core::Weights w;
  w.task.resize(e.tasks);
  w.machine.resize(e.machines);
  for (double& x : w.task) x = dist(rng);
  for (double& x : w.machine) x = dist(rng);

  const EcsMatrix ecs(base);
  const EcsMatrix prescaled(ecs.weighted_values(w));
  EXPECT_NEAR(hetero::core::mph(ecs, w), hetero::core::mph(prescaled), 1e-10);
  EXPECT_NEAR(hetero::core::tdh(ecs, w), hetero::core::tdh(prescaled), 1e-10);
  EXPECT_NEAR(hetero::core::tma(ecs, w), hetero::core::tma(prescaled), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EnvSweep,
    ::testing::Values(Env{2, 2, 1}, Env{2, 2, 2}, Env{3, 2, 3}, Env{2, 3, 4},
                      Env{5, 5, 5}, Env{12, 5, 6}, Env{17, 5, 7},
                      Env{4, 9, 8}, Env{9, 4, 9}, Env{10, 10, 10},
                      Env{16, 3, 11}, Env{3, 16, 12}));

// ---------------------------------------------------------------------------
// Sparse environments (zero entries) keep the measures well defined.

class SparseSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(SparseSweep, MeasuresDefinedWithZeroEntries) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> dist(0.1, 10.0);
  std::bernoulli_distribution zero(0.25);
  Matrix m(6, 4);
  for (double& x : m.data()) x = zero(rng) ? 0.0 : dist(rng);
  // Repair all-zero rows/columns so the EcsMatrix invariant holds.
  for (std::size_t i = 0; i < m.rows(); ++i)
    if (m.row_sum(i) == 0.0) m(i, i % m.cols()) = dist(rng);
  for (std::size_t j = 0; j < m.cols(); ++j)
    if (m.col_sum(j) == 0.0) m(j % m.rows(), j) = dist(rng);

  const auto ms = measure_set(EcsMatrix(m));
  EXPECT_GT(ms.mph, 0.0);
  EXPECT_LE(ms.mph, 1.0);
  EXPECT_GT(ms.tdh, 0.0);
  EXPECT_LE(ms.tdh, 1.0);
  EXPECT_GE(ms.tma, -1e-12);
  EXPECT_LE(ms.tma, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseSweep,
                         ::testing::Range(100u, 120u));

// ---------------------------------------------------------------------------
// Generated environments from the range-based method: full pipeline.

class PipelineSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(PipelineSweep, GenerateCharacterizeRoundTrip) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(GetParam());
  hetero::etcgen::RangeBasedOptions opts;
  opts.tasks = 10;
  opts.machines = 6;
  opts.task_range = 40.0;
  opts.machine_range = 12.0;
  const auto etc = hetero::etcgen::generate_range_based(opts, rng);
  const auto report = hetero::core::characterize(etc.to_ecs());
  EXPECT_EQ(report.machine_performances.size(), 6u);
  EXPECT_EQ(report.task_difficulties.size(), 10u);
  EXPECT_TRUE(report.tma_detail.standard_form.converged);
  // MPH upper-bounds the min/max ratio... they at least share (0, 1].
  EXPECT_GE(report.measures.mph, report.mph_alt_ratio - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSweep, ::testing::Range(200u, 212u));

// ---------------------------------------------------------------------------
// Sparse patterns built as unions of random permutations have total support
// by construction (every positive entry lies on one of the generating
// permutations' diagonals), so the standard form must always exist and the
// Sinkhorn iteration must converge geometrically.

class PermutationUnionSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(PermutationUnionSweep, UnionOfPermutationsAlwaysStandardizes) {
  std::mt19937 rng(GetParam());
  constexpr std::size_t n = 8;
  Matrix m(n, n, 0.0);
  std::uniform_real_distribution<double> weight(0.5, 5.0);
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  const std::size_t generators = 2 + GetParam() % 3;
  for (std::size_t g = 0; g < generators; ++g) {
    std::shuffle(perm.begin(), perm.end(), rng);
    for (std::size_t i = 0; i < n; ++i) m(i, perm[i]) += weight(rng);
  }

  EXPECT_EQ(hetero::core::classify_pattern(m),
            hetero::core::NormalizabilityClass::normalizable_pattern);
  const auto r = standardize(m);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.projected_to_core);
  EXPECT_LE(r.iterations, 1000u);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(r.standard.row_sum(i), 1.0, 1e-7);
  // TMA of the limit is well defined and in range.
  const auto sigma = hetero::linalg::singular_values(r.standard);
  EXPECT_NEAR(sigma.front(), 1.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PermutationUnionSweep,
                         ::testing::Range(300u, 312u));

// ---------------------------------------------------------------------------
// Weighted-measure sweep: weights equal to an unweighted duplication.
// Doubling task i's weight must give the same MP vector as physically
// duplicating row i (eq. 4's semantics).

TEST(WeightSemantics, IntegerTaskWeightEqualsRowDuplication) {
  const Matrix base{{1, 5, 2}, {3, 1, 4}};
  hetero::core::Weights w;
  w.task = {2.0, 1.0};
  const auto weighted_mp = hetero::core::machine_performances(
      hetero::core::EcsMatrix(base), w);

  const Matrix duplicated{{1, 5, 2}, {1, 5, 2}, {3, 1, 4}};
  const auto dup_mp = hetero::core::machine_performances(
      hetero::core::EcsMatrix(duplicated));
  ASSERT_EQ(weighted_mp.size(), dup_mp.size());
  for (std::size_t j = 0; j < dup_mp.size(); ++j)
    EXPECT_NEAR(weighted_mp[j], dup_mp[j], 1e-12);
}

TEST(WeightSemantics, IntegerMachineWeightEqualsColumnDuplication) {
  const Matrix base{{1, 5}, {3, 1}};
  hetero::core::Weights w;
  w.machine = {1.0, 3.0};
  const auto weighted_td = hetero::core::task_difficulties(
      hetero::core::EcsMatrix(base), w);

  const Matrix duplicated{{1, 5, 5, 5}, {3, 1, 1, 1}};
  const auto dup_td = hetero::core::task_difficulties(
      hetero::core::EcsMatrix(duplicated));
  for (std::size_t i = 0; i < dup_td.size(); ++i)
    EXPECT_NEAR(weighted_td[i], dup_td[i], 1e-12);
}

}  // namespace
