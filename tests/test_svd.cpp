#include "linalg/svd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <type_traits>

#include "linalg/jacobi_eigen.hpp"
#include "linalg/matrix.hpp"

namespace {

using hetero::ConvergenceError;
using hetero::DimensionError;
using hetero::ValueError;
namespace lin = hetero::linalg;
using lin::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  Matrix m(rows, cols);
  for (double& x : m.data()) x = dist(rng);
  return m;
}

// || U diag(S) V^T - A ||_max
double reconstruction_error(const Matrix& a, const lin::SvdResult& r) {
  Matrix us = r.u;
  for (std::size_t j = 0; j < r.singular_values.size(); ++j)
    us.scale_col(j, r.singular_values[j]);
  return lin::max_abs_diff(lin::matmul(us, r.v.transposed()), a);
}

double orthonormality_error(const Matrix& q) {
  const Matrix g = lin::gram(q);
  return lin::max_abs_diff(g, Matrix::identity(q.cols()));
}

TEST(Svd, DiagonalMatrix) {
  const auto sv = lin::singular_values(Matrix{{3, 0}, {0, 7}});
  ASSERT_EQ(sv.size(), 2u);
  EXPECT_NEAR(sv[0], 7.0, 1e-12);
  EXPECT_NEAR(sv[1], 3.0, 1e-12);
}

TEST(Svd, KnownRectangular) {
  // Singular values of [[1,2,3],[4,5,6]] are 9.50803200..., 0.77286964...
  const auto sv = lin::singular_values(Matrix{{1, 2, 3}, {4, 5, 6}});
  ASSERT_EQ(sv.size(), 2u);
  EXPECT_NEAR(sv[0], 9.508032000695726, 1e-10);
  EXPECT_NEAR(sv[1], 0.7728696356734838, 1e-10);
}

TEST(Svd, RankOneMatrixHasOneNonzeroSingularValue) {
  Matrix m{{1, 2}, {2, 4}, {3, 6}};
  const auto sv = lin::singular_values(m);
  EXPECT_GT(sv[0], 0.0);
  EXPECT_NEAR(sv[1], 0.0, 1e-10);
  EXPECT_EQ(lin::numerical_rank(m), 1u);
}

TEST(Svd, ZeroColumnsHandled) {
  Matrix m{{1, 0}, {1, 0}};
  const auto sv = lin::singular_values(m);
  EXPECT_NEAR(sv[0], std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(sv[1], 0.0, 1e-12);
}

TEST(Svd, EmptyAndNonFiniteRejected) {
  EXPECT_THROW(lin::singular_values(Matrix{}), DimensionError);
  EXPECT_THROW(lin::singular_values(Matrix{{1.0, std::nan("")}}), ValueError);
}

TEST(Svd, SpectralNormOfOrthogonalIsOne) {
  const double s = std::sqrt(0.5);
  Matrix q{{s, -s}, {s, s}};
  EXPECT_NEAR(lin::spectral_norm(q), 1.0, 1e-12);
}

TEST(Svd, SingularValuesInvariantUnderTranspose) {
  const Matrix m = random_matrix(5, 3, 42);
  const auto a = lin::singular_values(m);
  const auto b = lin::singular_values(m.transposed());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-10);
}

TEST(Svd, ScalingScalesSingularValues) {
  const Matrix m = random_matrix(4, 4, 7);
  const auto a = lin::singular_values(m);
  const auto b = lin::singular_values(m * 3.0);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(b[i], 3 * a[i], 1e-9);
}

// gtest names each case by the bytes of its parameter, so the parameter
// must have no padding (whose bytes are indeterminate) for the ctest names
// to be the same in every build.
struct SvdShape {
  std::size_t rows, cols;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<SvdShape>);

class SvdRandomized : public ::testing::TestWithParam<SvdShape> {};

TEST_P(SvdRandomized, FactorsReconstructAndAreOrthonormal) {
  const auto [rows, cols, seed] = GetParam();
  const Matrix m = random_matrix(rows, cols, seed);
  const auto r = lin::svd(m);
  const std::size_t k = std::min(rows, cols);
  ASSERT_EQ(r.singular_values.size(), k);
  ASSERT_EQ(r.u.rows(), rows);
  ASSERT_EQ(r.u.cols(), k);
  ASSERT_EQ(r.v.rows(), cols);
  ASSERT_EQ(r.v.cols(), k);
  EXPECT_TRUE(std::is_sorted(r.singular_values.rbegin(),
                             r.singular_values.rend()));
  EXPECT_LT(reconstruction_error(m, r), 1e-9);
  EXPECT_LT(orthonormality_error(r.v), 1e-9);
  // U columns for nonzero singular values must be orthonormal.
  EXPECT_LT(orthonormality_error(r.u), 1e-9);
}

TEST_P(SvdRandomized, SquaredSingularValuesMatchGramEigenvalues) {
  const auto [rows, cols, seed] = GetParam();
  const Matrix m = random_matrix(rows, cols, seed + 1000);
  const Matrix g = m.rows() >= m.cols() ? lin::gram(m)
                                        : lin::gram(m.transposed());
  const auto eig = lin::symmetric_eigenvalues(g);
  const auto sv = lin::singular_values(m);
  ASSERT_EQ(eig.size(), sv.size());
  for (std::size_t i = 0; i < sv.size(); ++i)
    EXPECT_NEAR(sv[i] * sv[i], eig[i], 1e-8 * std::max(1.0, eig[0]));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdRandomized,
    ::testing::Values(SvdShape{1, 1, 1}, SvdShape{2, 2, 2}, SvdShape{3, 2, 3},
                      SvdShape{2, 3, 4}, SvdShape{5, 5, 5}, SvdShape{8, 3, 6},
                      SvdShape{3, 8, 7}, SvdShape{12, 5, 8},
                      SvdShape{17, 5, 9}, SvdShape{20, 20, 10}));

TEST(Svd, FullDecompositionOfWideMatrix) {
  Matrix m{{1, 2, 3, 4}, {5, 6, 7, 8}};
  const auto r = lin::svd(m);
  EXPECT_LT(reconstruction_error(m, r), 1e-10);
}

TEST(Svd, ExactlyDuplicatedColumnsConverge) {
  // Regression: exactly rank-deficient inputs (duplicated columns) used to
  // cycle forever — rotations left round-off residual columns that
  // re-correlated every sweep. The absolute norm floor must terminate them
  // with exact zero singular values.
  const Matrix base = random_matrix(6, 4, 400);
  Matrix wide(6, 8);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      wide(i, j) = wide(i, j + 4) = base(i, j);
  const auto sv = lin::singular_values(wide);
  ASSERT_EQ(sv.size(), 6u);
  EXPECT_EQ(sv[4], 0.0);
  EXPECT_EQ(sv[5], 0.0);
  // The nonzero singular values are sqrt(2) times the base's.
  const auto base_sv = lin::singular_values(base);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(sv[i], std::sqrt(2.0) * base_sv[i], 1e-9);
}

TEST(Svd, DuplicatedRowsConverge) {
  const Matrix base = random_matrix(3, 5, 401);
  Matrix tall(6, 5);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      tall(i, j) = tall(i + 3, j) = base(i, j);
  const auto sv = lin::singular_values(tall);
  const auto base_sv = lin::singular_values(base);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(sv[i], std::sqrt(2.0) * base_sv[i], 1e-9);
}

TEST(NumericalRank, DetectsRankDeficiency) {
  Matrix m{{1, 2, 3}, {2, 4, 6}, {1, 1, 1}};
  EXPECT_EQ(lin::numerical_rank(m), 2u);
  EXPECT_EQ(lin::numerical_rank(Matrix::identity(3)), 3u);
}

// ---- Incremental kernel vs pre-optimization reference ----

TEST(SvdEquivalence, IncrementalMatchesReference) {
  for (auto [r, c] : {std::pair<std::size_t, std::size_t>{5, 3},
                      std::pair<std::size_t, std::size_t>{12, 5},
                      std::pair<std::size_t, std::size_t>{16, 16},
                      std::pair<std::size_t, std::size_t>{9, 33}}) {
    const Matrix a = random_matrix(r, c, static_cast<unsigned>(13 * r + c));
    const auto fast = lin::singular_values(a);
    const auto ref = lin::singular_values_reference(a);
    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t i = 0; i < fast.size(); ++i)
      EXPECT_NEAR(fast[i], ref[i], 1e-12 * ref[0]) << r << "x" << c;
  }
}

TEST(SvdEquivalence, IncrementalMatchesReferenceOnRankDeficient) {
  Matrix a = random_matrix(8, 5, 77);
  for (std::size_t i = 0; i < 8; ++i) a(i, 4) = a(i, 2);  // duplicate column
  const auto fast = lin::singular_values(a);
  const auto ref = lin::singular_values_reference(a);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t i = 0; i < fast.size(); ++i)
    EXPECT_NEAR(fast[i], ref[i], 1e-12 * ref[0]);
  EXPECT_NEAR(fast.back(), 0.0, 1e-12 * ref[0]);
}

TEST(SvdEquivalence, GramPathNearCanonical) {
  // The Gram path squares the condition number: tiny singular values carry
  // up to ~sqrt(eps) * sigma_max absolute error, which is the documented
  // contract for search loops. Dominant values agree much tighter.
  for (auto [r, c] : {std::pair<std::size_t, std::size_t>{8, 5},
                      std::pair<std::size_t, std::size_t>{6, 14},
                      std::pair<std::size_t, std::size_t>{20, 10}}) {
    const Matrix a = random_matrix(r, c, static_cast<unsigned>(5 * r + c));
    const auto gram_sv = lin::singular_values_gram(a);
    const auto canonical = lin::singular_values(a);
    ASSERT_EQ(gram_sv.size(), canonical.size());
    for (std::size_t i = 0; i < gram_sv.size(); ++i)
      EXPECT_NEAR(gram_sv[i], canonical[i], 1e-7 * canonical[0]);
  }
}

}  // namespace
