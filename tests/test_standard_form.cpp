#include "core/standard_form.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/svd.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using hetero::ConvergenceError;
using hetero::ValueError;
using hetero::core::classify_pattern;
using hetero::core::EcsMatrix;
using hetero::core::NormalizabilityClass;
using hetero::core::SinkhornOptions;
using hetero::core::standard_form_residual;
using hetero::core::standardize;
using hetero::core::Weights;
using hetero::linalg::Matrix;

Matrix random_positive(std::size_t rows, std::size_t cols, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(0.1, 10.0);
  Matrix m(rows, cols);
  for (double& x : m.data()) x = dist(rng);
  return m;
}

TEST(StandardForm, TargetsFollowTheorem1WithK) {
  // k = 1/sqrt(TM): rows sum to sqrt(M/T), columns to sqrt(T/M).
  const auto r = standardize(random_positive(3, 5, 1));
  EXPECT_DOUBLE_EQ(r.target_row_sum, std::sqrt(5.0 / 3.0));
  EXPECT_DOUBLE_EQ(r.target_col_sum, std::sqrt(3.0 / 5.0));
}

TEST(StandardForm, PositiveMatrixConverges) {
  const Matrix m = random_positive(4, 6, 2);
  const auto r = standardize(m);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.pattern, NormalizabilityClass::positive);
  EXPECT_FALSE(r.projected_to_core);
  EXPECT_LT(r.residual, 1e-8);
  EXPECT_LT(standard_form_residual(r.standard, r.target_row_sum,
                                   r.target_col_sum),
            1e-8);
}

TEST(StandardForm, LargestSingularValueIsOneTheorem2) {
  for (unsigned seed : {3u, 4u, 5u}) {
    const auto r = standardize(random_positive(5, 3, seed));
    const auto sigma = hetero::linalg::singular_values(r.standard);
    EXPECT_NEAR(sigma.front(), 1.0, 1e-7) << "seed " << seed;
  }
}

TEST(StandardForm, ScalingConsistency) {
  // standard == diag(row_scale) * input * diag(col_scale) for normalizable
  // patterns.
  const Matrix m = random_positive(4, 4, 6);
  const auto r = standardize(m);
  Matrix rebuilt = m;
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      rebuilt(i, j) *= r.row_scale[i] * r.col_scale[j];
  EXPECT_LT(hetero::linalg::max_abs_diff(rebuilt, r.standard), 1e-10);
}

TEST(StandardForm, ScaleInvariance) {
  const Matrix m = random_positive(3, 3, 7);
  const auto a = standardize(m);
  const auto b = standardize(m * 123.0);
  EXPECT_LT(hetero::linalg::max_abs_diff(a.standard, b.standard), 1e-7);
}

TEST(StandardForm, AlreadyStandardIsFixedPoint) {
  // The 2x2 exchange matrix is standard for T = M = 2 (row/col sums 1).
  const Matrix c{{0, 1}, {1, 0}};
  const auto r = standardize(c);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 1u);
  EXPECT_LT(hetero::linalg::max_abs_diff(r.standard, c), 1e-12);
}

TEST(StandardForm, DoublyStochasticScaledSquare) {
  // For square T = M the targets are row = col = 1.
  const auto r = standardize(random_positive(4, 4, 8));
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(r.standard.row_sum(i), 1.0, 1e-8);
  for (std::size_t j = 0; j < 4; ++j)
    EXPECT_NEAR(r.standard.col_sum(j), 1.0, 1e-8);
}

TEST(StandardForm, TotalSupportPatternConverges) {
  // Block diagonal: decomposable but totally supported -> exact standard
  // form exists (the paper's "sufficient, not necessary" remark).
  const Matrix m{{2, 3, 0}, {4, 5, 0}, {0, 0, 7}};
  const auto r = standardize(m);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.pattern, NormalizabilityClass::normalizable_pattern);
  EXPECT_FALSE(r.projected_to_core);
}

TEST(StandardForm, LimitOnlyPatternProjectsToCore) {
  // Support without total support: entry (0,1)'s mass must vanish in the
  // limit; the implementation projects to the core and converges to it.
  const Matrix m{{10, 5}, {0, 1}};
  const auto r = standardize(m);
  EXPECT_EQ(r.pattern, NormalizabilityClass::limit_only);
  EXPECT_TRUE(r.projected_to_core);
  EXPECT_TRUE(r.converged);
  // Limit is the identity pattern scaled to row/col sums 1.
  EXPECT_NEAR(r.standard(0, 0), 1.0, 1e-8);
  EXPECT_NEAR(r.standard(0, 1), 0.0, 1e-8);
  EXPECT_NEAR(r.standard(1, 1), 1.0, 1e-8);
}

TEST(StandardForm, Eq10MatrixHasNoExactStandardForm) {
  const Matrix eq10{{0, 0, 1}, {1, 0, 1}, {0, 1, 0}};
  EXPECT_EQ(classify_pattern(eq10), NormalizabilityClass::limit_only);
  const auto r = standardize(eq10);
  EXPECT_TRUE(r.projected_to_core);
  // The limit is the permutation matrix with (1,2) zeroed.
  EXPECT_NEAR(r.standard(1, 2), 0.0, 1e-12);
  EXPECT_NEAR(r.standard(1, 0), 1.0, 1e-8);
}

TEST(StandardForm, NoSupportDoesNotConverge) {
  const Matrix m{{1, 1, 0, 0}, {1, 1, 0, 0}, {1, 1, 0, 0}, {0, 0, 1, 1}};
  SinkhornOptions opts;
  opts.max_iterations = 200;
  const auto r = standardize(m, opts);
  EXPECT_EQ(r.pattern, NormalizabilityClass::not_normalizable);
  EXPECT_FALSE(r.converged);
  EXPECT_GT(r.residual, 1e-8);
}

TEST(StandardForm, ThrowOnFailureOption) {
  const Matrix m{{1, 1, 0, 0}, {1, 1, 0, 0}, {1, 1, 0, 0}, {0, 0, 1, 1}};
  SinkhornOptions opts;
  opts.max_iterations = 50;
  opts.throw_on_failure = true;
  EXPECT_THROW(standardize(m, opts), ConvergenceError);
}

TEST(StandardForm, InvalidInputsRejected) {
  EXPECT_THROW(standardize(Matrix{}), ValueError);
  EXPECT_THROW(standardize(Matrix{{1, -1}, {1, 1}}), ValueError);
  EXPECT_THROW(standardize(Matrix{{0, 0}, {1, 1}}), ValueError);
  EXPECT_THROW(standardize(Matrix{{0, 1}, {0, 1}}), ValueError);
  EXPECT_THROW(standardize(Matrix{{1.0, std::nan("")}, {1, 1}}), ValueError);
}

TEST(StandardForm, RowFirstOrderingReachesSameForm) {
  // Theorem 1: D1, D2 unique up to a scalar, so the standard form itself
  // is unique — both orderings must converge to it.
  const Matrix m = random_positive(6, 4, 21);
  SinkhornOptions row_first;
  row_first.row_first = true;
  const auto a = standardize(m);
  const auto b = standardize(m, row_first);
  EXPECT_TRUE(a.converged);
  EXPECT_TRUE(b.converged);
  EXPECT_LT(hetero::linalg::max_abs_diff(a.standard, b.standard), 1e-7);
}

TEST(StandardForm, WeightedEcsOverload) {
  EcsMatrix ecs(Matrix{{1, 2}, {3, 4}});
  Weights w;
  w.task = {1.0, 2.0};
  const auto r = standardize(ecs, w);
  EXPECT_TRUE(r.converged);
  // Same as standardizing the weighted view directly.
  const auto direct = standardize(ecs.weighted_values(w));
  EXPECT_LT(hetero::linalg::max_abs_diff(r.standard, direct.standard), 1e-12);
}

TEST(StandardForm, SingleRowMatrix) {
  const auto r = standardize(Matrix{{1, 2, 3}});
  EXPECT_TRUE(r.converged);
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_NEAR(r.standard.col_sum(j), r.target_col_sum, 1e-9);
}

TEST(StandardForm, SingleColumnMatrix) {
  const auto r = standardize(Matrix{{1}, {2}, {3}});
  EXPECT_TRUE(r.converged);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(r.standard.row_sum(i), r.target_row_sum, 1e-9);
}

class SinkhornShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(SinkhornShapes, ConvergesWithExactSums) {
  const auto [t, m] = GetParam();
  const Matrix input = random_positive(t, m, static_cast<unsigned>(t * 31 + m));
  const auto r = standardize(input);
  ASSERT_TRUE(r.converged);
  for (std::size_t i = 0; i < t; ++i)
    EXPECT_NEAR(r.standard.row_sum(i), r.target_row_sum, 1e-7);
  for (std::size_t j = 0; j < m; ++j)
    EXPECT_NEAR(r.standard.col_sum(j), r.target_col_sum, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SinkhornShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{2, 2},
                      std::pair<std::size_t, std::size_t>{2, 5},
                      std::pair<std::size_t, std::size_t>{5, 2},
                      std::pair<std::size_t, std::size_t>{12, 5},
                      std::pair<std::size_t, std::size_t>{17, 5},
                      std::pair<std::size_t, std::size_t>{10, 10},
                      std::pair<std::size_t, std::size_t>{31, 7}));

// ---- Fused-vs-reference and warm-start equivalence ----

using hetero::DimensionError;
using hetero::core::standardize_positive_into;
using hetero::core::standardize_reference;
using hetero::core::StandardFormResult;
using hetero::linalg::max_abs_diff;

TEST(StandardFormEquivalence, FusedMatchesReferenceOnPositive) {
  for (auto [t, m] : {std::pair<std::size_t, std::size_t>{4, 3},
                      std::pair<std::size_t, std::size_t>{12, 5},
                      std::pair<std::size_t, std::size_t>{7, 11},
                      std::pair<std::size_t, std::size_t>{32, 16}}) {
    const Matrix ecs = random_positive(t, m, static_cast<unsigned>(71 + t));
    const auto fused = standardize(ecs);
    const auto ref = standardize_reference(ecs);
    EXPECT_EQ(fused.iterations, ref.iterations) << t << "x" << m;
    EXPECT_EQ(fused.converged, ref.converged);
    EXPECT_LE(max_abs_diff(fused.standard, ref.standard), 1e-12);
    for (std::size_t i = 0; i < t; ++i)
      EXPECT_NEAR(fused.row_scale[i], ref.row_scale[i],
                  1e-12 * std::abs(ref.row_scale[i]));
    for (std::size_t j = 0; j < m; ++j)
      EXPECT_NEAR(fused.col_scale[j], ref.col_scale[j],
                  1e-12 * std::abs(ref.col_scale[j]));
  }
}

TEST(StandardFormEquivalence, FusedMatchesReferenceOnLimitOnly) {
  const Matrix m{{10, 5}, {0, 1}};
  const auto fused = standardize(m);
  const auto ref = standardize_reference(m);
  EXPECT_EQ(fused.pattern, NormalizabilityClass::limit_only);
  EXPECT_EQ(fused.iterations, ref.iterations);
  EXPECT_LE(max_abs_diff(fused.standard, ref.standard), 1e-12);
}

TEST(StandardFormEquivalence, FusedMatchesReferenceOnRankDeficient) {
  // Positive rank-1 input: Sinkhorn converges in one iteration and the
  // standard form is the constant matrix.
  Matrix m(6, 4);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      m(i, j) = (1.0 + static_cast<double>(i)) *
                (2.0 + static_cast<double>(j));
  const auto fused = standardize(m);
  const auto ref = standardize_reference(m);
  EXPECT_EQ(fused.iterations, ref.iterations);
  EXPECT_LE(max_abs_diff(fused.standard, ref.standard), 1e-12);
}

TEST(StandardFormWarm, AllOnesSeedEqualsColdStart) {
  const Matrix ecs = random_positive(9, 6, 5);
  const auto cold = standardize(ecs);
  SinkhornOptions warm;
  warm.warm_row_scale.assign(9, 1.0);
  warm.warm_col_scale.assign(6, 1.0);
  const auto seeded = standardize(ecs, warm);
  EXPECT_EQ(seeded.iterations, cold.iterations);
  EXPECT_EQ(seeded.standard, cold.standard);  // bit-identical
  EXPECT_EQ(seeded.row_scale, cold.row_scale);
  EXPECT_EQ(seeded.col_scale, cold.col_scale);
}

TEST(StandardFormWarm, ConvergedScalesReconvergeQuickly) {
  // At a tight tolerance both runs land on the (unique) fixed point, so the
  // warm restart must agree to 1e-12 rather than only to the tolerance.
  const Matrix ecs = random_positive(12, 7, 17);
  SinkhornOptions tight;
  tight.tolerance = 1e-13;
  const auto cold = standardize(ecs, tight);
  SinkhornOptions warm = tight;
  warm.warm_row_scale = cold.row_scale;
  warm.warm_col_scale = cold.col_scale;
  const auto seeded = standardize(ecs, warm);
  // Restarting at the fixed point must cost at most the cold iteration
  // count and land on the same standard form; the seed is folded into the
  // reported scales, so they still map the ORIGINAL input.
  EXPECT_LE(seeded.iterations, cold.iterations);
  EXPECT_LE(max_abs_diff(seeded.standard, cold.standard), 1e-12);
  for (std::size_t i = 0; i < ecs.rows(); ++i)
    EXPECT_NEAR(seeded.row_scale[i] * seeded.col_scale[0] * ecs(i, 0),
                seeded.standard(i, 0), 1e-12);
}

TEST(StandardFormWarm, ValidatesSeedShapeAndSign) {
  const Matrix ecs = random_positive(4, 3, 2);
  SinkhornOptions bad_size;
  bad_size.warm_row_scale.assign(5, 1.0);  // 4 rows
  EXPECT_THROW(standardize(ecs, bad_size), DimensionError);
  SinkhornOptions bad_value;
  bad_value.warm_col_scale.assign(3, 1.0);
  bad_value.warm_col_scale[1] = -2.0;
  EXPECT_THROW(standardize(ecs, bad_value), ValueError);
  StandardFormResult out;
  EXPECT_THROW(standardize_positive_into(ecs, bad_size, out), DimensionError);
  EXPECT_THROW(standardize_positive_into(ecs, bad_value, out), ValueError);
}

TEST(StandardFormLean, PositiveIntoMatchesStandardizeExactly) {
  StandardFormResult out;  // reused across shapes to exercise storage reuse
  for (auto [t, m] : {std::pair<std::size_t, std::size_t>{8, 5},
                      std::pair<std::size_t, std::size_t>{5, 8},
                      std::pair<std::size_t, std::size_t>{16, 16}}) {
    const Matrix ecs = random_positive(t, m, static_cast<unsigned>(3 * t));
    const auto full = standardize(ecs);
    standardize_positive_into(ecs, {}, out);
    EXPECT_EQ(out.standard, full.standard);  // bit-identical
    EXPECT_EQ(out.row_scale, full.row_scale);
    EXPECT_EQ(out.col_scale, full.col_scale);
    EXPECT_EQ(out.iterations, full.iterations);
    EXPECT_EQ(out.residual, full.residual);
    EXPECT_TRUE(out.converged);
    EXPECT_EQ(out.pattern, NormalizabilityClass::positive);

    // Warm-seeded calls must agree with the validating front end too.
    SinkhornOptions warm;
    warm.warm_row_scale = full.row_scale;
    warm.warm_col_scale = full.col_scale;
    const auto full_warm = standardize(ecs, warm);
    standardize_positive_into(ecs, warm, out);
    EXPECT_EQ(out.standard, full_warm.standard);
    EXPECT_EQ(out.iterations, full_warm.iterations);
  }
}

// ---- Scale-factor overflow guards ----

using hetero::ScaleOverflowError;
using hetero::core::standardize_tiled;
using hetero::par::ThreadPool;

TEST(StandardFormOverflow, TinyEntriesConvergeViaClampedFactors) {
  // Row sums near 4e-300 ask for scale factors ~1e299 < clamp: fine. But a
  // uniformly denormal-scale matrix exercises the clamp branch on the way
  // up without ever producing a non-finite entry.
  const Matrix tiny(4, 4, 1e-300);
  const auto r = standardize(tiny);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.standard.has_nonfinite());
  EXPECT_NEAR(r.standard(0, 0), 0.25, 1e-12);

  const Matrix denorm(3, 3, 5e-324);
  const auto rd = standardize(denorm);
  EXPECT_TRUE(rd.converged);
  EXPECT_FALSE(rd.standard.has_nonfinite());
}

TEST(StandardFormOverflow, NonFiniteSumsThrowTypedError) {
  // 1e308 + 1e308 overflows the row sum to +inf — the guard must surface a
  // ScaleOverflowError (a ValueError) instead of poisoning the iteration
  // with NaNs from inf/inf.
  const Matrix huge{{1e308, 1e308}, {1e308, 1.0}};
  EXPECT_THROW(standardize(huge), ScaleOverflowError);
  EXPECT_THROW(standardize_reference(huge), ScaleOverflowError);
  ThreadPool pool(2);
  EXPECT_THROW(standardize_tiled(huge, {}, pool), ScaleOverflowError);
  EXPECT_THROW(standardize_tiled(huge, {}, pool, 1), ScaleOverflowError);
  StandardFormResult out;
  EXPECT_THROW(standardize_positive_into(huge, {}, out), ScaleOverflowError);
  // ScaleOverflowError is catchable as the ValueError family.
  EXPECT_THROW(standardize(huge), ValueError);
}

TEST(StandardFormOverflow, MixedMagnitudesStayFinite) {
  // 250 orders of magnitude apart within one matrix: per-pass factors stay
  // below the clamp and the standard form is exact.
  Matrix m{{1e-250, 1.0}, {1.0, 1e250}};
  const auto r = standardize(m);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.standard.has_nonfinite());
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_NEAR(r.standard.row_sum(i), r.target_row_sum, 1e-7);
}

TEST(StandardFormTiled, MatchesFusedAcrossShapes) {
  ThreadPool pool(3);
  for (auto [t, m] : {std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{5, 2},
                      std::pair<std::size_t, std::size_t>{63, 17},
                      std::pair<std::size_t, std::size_t>{130, 40}}) {
    const Matrix ecs = random_positive(t, m, static_cast<unsigned>(91 + t));
    const auto fused = standardize(ecs);
    const auto tiled = standardize_tiled(ecs, {}, pool);
    EXPECT_EQ(tiled.converged, fused.converged) << t << "x" << m;
    EXPECT_EQ(tiled.iterations, fused.iterations) << t << "x" << m;
    EXPECT_LE(max_abs_diff(tiled.standard, fused.standard), 1e-8)
        << t << "x" << m;

    // One full-height tile is the serial sweep: bit-identical to
    // standardize() in every pass order and from a warm seed.
    SinkhornOptions row_first;
    row_first.row_first = true;
    SinkhornOptions warm;
    warm.warm_row_scale.assign(t, 0.5);
    warm.warm_col_scale = fused.col_scale;
    for (const SinkhornOptions& opts : {SinkhornOptions{}, row_first, warm}) {
      const auto serial = standardize(ecs, opts);
      const auto whole = standardize_tiled(ecs, opts, pool, t);
      EXPECT_EQ(whole.standard, serial.standard) << t << "x" << m;
      EXPECT_EQ(whole.row_scale, serial.row_scale) << t << "x" << m;
      EXPECT_EQ(whole.col_scale, serial.col_scale) << t << "x" << m;
      EXPECT_EQ(whole.iterations, serial.iterations) << t << "x" << m;
      EXPECT_EQ(whole.residual, serial.residual) << t << "x" << m;
    }
  }
}

TEST(StandardFormTiled, NonConvergenceThrowsOnEveryEntryPoint) {
  // One iteration cannot reach 1e-8 on a generic positive matrix; every
  // entry point reports it the same way (converged == false, or the
  // ConvergenceError under throw_on_failure).
  const Matrix ecs = random_positive(9, 5, 33);
  SinkhornOptions opts;
  opts.max_iterations = 1;
  ThreadPool pool(2);
  StandardFormResult out;
  standardize_positive_into(ecs, opts, out);
  EXPECT_FALSE(out.converged);
  EXPECT_EQ(out.iterations, 1u);
  EXPECT_FALSE(standardize_tiled(ecs, opts, pool, 2).converged);

  opts.throw_on_failure = true;
  EXPECT_THROW(standardize(ecs, opts), ConvergenceError);
  EXPECT_THROW(standardize_tiled(ecs, opts, pool), ConvergenceError);
  EXPECT_THROW(standardize_tiled(ecs, opts, pool, 2), ConvergenceError);
  EXPECT_THROW(standardize_positive_into(ecs, opts, out), ConvergenceError);
}

TEST(StandardFormTiled, ValidatesLikeTheFusedPath) {
  ThreadPool pool(2);
  EXPECT_THROW(standardize_tiled(Matrix{}, {}, pool), ValueError);
  EXPECT_THROW(standardize_tiled(Matrix{{1.0, -1.0}, {1.0, 1.0}}, {}, pool),
               ValueError);
  SinkhornOptions opts;
  EXPECT_THROW(standardize_tiled(Matrix{{1.0, 2.0}}, opts, pool, 0),
               ValueError);
  // Zero patterns go through the same classification as the fused path:
  // limit_only inputs project to the core and still converge.
  const auto r = standardize_tiled(Matrix{{10.0, 5.0}, {0.0, 1.0}}, {}, pool);
  EXPECT_EQ(r.pattern, NormalizabilityClass::limit_only);
  EXPECT_TRUE(r.projected_to_core);
  EXPECT_TRUE(r.converged);
}

}  // namespace
