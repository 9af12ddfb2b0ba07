// Integration tests pinning every quantitative claim of the paper that the
// figure reproducers in bench/ print. Each test names the figure it checks.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/measures.hpp"
#include "core/standard_form.hpp"
#include "core/performance.hpp"
#include "graph/structure.hpp"
#include "linalg/svd.hpp"
#include "linalg/vector_ops.hpp"

namespace {

using hetero::core::EcsMatrix;
using hetero::core::measure_set;
using hetero::core::standardize;
using hetero::linalg::Matrix;

// ---------------------------------------------------------------------------
// Figure 4: eight extreme 2x2 ECS matrices at the corners of the
// (MPH, TDH, TMA) cube. The entries were lost to OCR; these instances are
// reconstructed from the paper's explicit corner description.

struct Fig4Case {
  const char* name;
  Matrix ecs;
  bool high_mph, high_tdh, high_tma;
};

// Print a case by its corner name. The default printout dumps the raw bytes,
// which hold addresses that change from run to run, and ctest names each
// discovered test after that printout.
void PrintTo(const Fig4Case& c, std::ostream* os) { *os << c.name; }

class Fig4 : public ::testing::TestWithParam<Fig4Case> {};

TEST_P(Fig4, MatchesCornerDescription) {
  const auto& c = GetParam();
  const auto m = measure_set(EcsMatrix(c.ecs));
  if (c.high_mph)
    EXPECT_GT(m.mph, 0.9) << c.name;
  else
    EXPECT_LT(m.mph, 0.2) << c.name;
  if (c.high_tdh)
    EXPECT_GT(m.tdh, 0.9) << c.name;
  else
    EXPECT_LT(m.tdh, 0.2) << c.name;
  if (c.high_tma)
    EXPECT_NEAR(m.tma, 1.0, 1e-6) << c.name;
  else
    EXPECT_NEAR(m.tma, 0.0, 1e-6) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Corners, Fig4,
    ::testing::Values(
        Fig4Case{"A", Matrix{{10, 0}, {9, 1}}, false, true, true},
        Fig4Case{"B", Matrix{{1, 0}, {9, 90}}, false, false, true},
        Fig4Case{"C", Matrix{{1, 0}, {0, 1}}, true, true, true},
        Fig4Case{"D", Matrix{{1, 0}, {50, 51}}, true, false, true},
        Fig4Case{"E", Matrix{{1, 10}, {1, 10}}, false, true, false},
        Fig4Case{"F", Matrix{{1, 10}, {10, 100}}, false, false, false},
        Fig4Case{"G", Matrix{{1, 1}, {1, 1}}, true, true, false},
        Fig4Case{"H", Matrix{{1, 1}, {10, 10}}, true, false, false}));

TEST(Fig4, ABDConvergeToStandardFormOfC) {
  // Paper: "When the procedure in Equation 9 is applied to matrices A, B,
  // and D they all converge to the standard form of C."
  const Matrix c_std = standardize(Matrix{{1, 0}, {0, 1}}).standard;
  for (const Matrix& m :
       {Matrix{{10, 0}, {9, 1}}, Matrix{{1, 0}, {9, 90}},
        Matrix{{1, 0}, {50, 51}}}) {
    const auto r = standardize(m);
    EXPECT_TRUE(r.converged);
    EXPECT_LT(hetero::linalg::max_abs_diff(r.standard, c_std), 1e-7);
  }
}

TEST(Fig4, CIsAlreadyStandardWithSecondSingularValueOne) {
  // Paper: "Matrix C is already a standard matrix. The second singular
  // value of that matrix is 1."
  const Matrix c{{1, 0}, {0, 1}};
  const auto r = standardize(c);
  EXPECT_EQ(r.iterations, 1u);
  EXPECT_LT(hetero::linalg::max_abs_diff(r.standard, c), 1e-12);
  const auto sigma = hetero::linalg::singular_values(c);
  EXPECT_DOUBLE_EQ(sigma[1], 1.0);
}

// ---------------------------------------------------------------------------
// Figure 3: machine-performance-homogeneous matrices with and without
// affinity (entries reconstructed; the stated properties hold).

TEST(Fig3, BothMatricesMachineHomogeneous) {
  const EcsMatrix a(Matrix{{4, 4, 4}, {2, 2, 2}, {6, 6, 6}});
  const EcsMatrix b(Matrix{{10, 1, 1}, {1, 10, 1}, {1, 1, 10}});
  EXPECT_DOUBLE_EQ(hetero::core::mph(a), 1.0);
  EXPECT_DOUBLE_EQ(hetero::core::mph(b), 1.0);
}

TEST(Fig3, OnlyBHasAffinity) {
  const EcsMatrix a(Matrix{{4, 4, 4}, {2, 2, 2}, {6, 6, 6}});
  const EcsMatrix b(Matrix{{10, 1, 1}, {1, 10, 1}, {1, 1, 10}});
  EXPECT_NEAR(hetero::core::tma(a), 0.0, 1e-9);
  EXPECT_GT(hetero::core::tma(b), 0.3);
}

TEST(Fig3, ColumnAnglesExplainTma) {
  // Paper: in (a) the angles between columns are 0; in (b) they are > 0.
  const Matrix a{{4, 4, 4}, {2, 2, 2}, {6, 6, 6}};
  const Matrix b{{10, 1, 1}, {1, 10, 1}, {1, 1, 10}};
  const auto cos_angle = [](const Matrix& m, std::size_t i, std::size_t j) {
    const auto ci = m.col(i), cj = m.col(j);
    return hetero::linalg::dot(ci, cj) /
           (hetero::linalg::norm2(ci) * hetero::linalg::norm2(cj));
  };
  EXPECT_NEAR(cos_angle(a, 0, 1), 1.0, 1e-12);
  EXPECT_NEAR(cos_angle(a, 1, 2), 1.0, 1e-12);
  EXPECT_LT(cos_angle(b, 0, 1), 1.0 - 1e-6);
}

// ---------------------------------------------------------------------------
// Section VI: the eq. 10 matrix and its eq. 12 block form.

TEST(Sec6, Eq10PropertiesFromTheText) {
  const Matrix m{{0, 0, 1}, {1, 0, 1}, {0, 1, 0}};
  // "the second row and third column sums are both 2 while the other row
  // and column sums are 1" (all nonzero entries equal 1).
  EXPECT_DOUBLE_EQ(m.row_sum(0), 1);
  EXPECT_DOUBLE_EQ(m.row_sum(1), 2);
  EXPECT_DOUBLE_EQ(m.row_sum(2), 1);
  EXPECT_DOUBLE_EQ(m.col_sum(0), 1);
  EXPECT_DOUBLE_EQ(m.col_sum(1), 1);
  EXPECT_DOUBLE_EQ(m.col_sum(2), 2);
  EXPECT_EQ(m.zero_count(), 5u);  // four nonzero entries
}

TEST(Sec6, Eq12MovingLastColumnToFrontGivesBlockForm) {
  const Matrix m{{0, 0, 1}, {1, 0, 1}, {0, 1, 0}};
  const std::size_t rows[] = {0, 1, 2};
  const std::size_t cols[] = {2, 0, 1};  // last column to the front
  const Matrix p = m.permuted(rows, cols);
  // Block lower-triangular: 1x1 block then 2x2 block, zero upper-right.
  EXPECT_GT(p(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(p(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(p(0, 2), 0.0);
}

TEST(Sec6, Eq10CannotBeNormalizedButDiagonalCan) {
  const Matrix eq10{{0, 0, 1}, {1, 0, 1}, {0, 1, 0}};
  EXPECT_FALSE(hetero::graph::is_sinkhorn_normalizable(eq10));
  // "a diagonal matrix with positive elements ... can be easily converted
  // into the identity matrix": decomposable but normalizable.
  const Matrix diag = Matrix::diagonal(std::vector<double>{2.0, 5.0, 9.0});
  EXPECT_FALSE(hetero::graph::is_fully_indecomposable(diag));
  EXPECT_TRUE(hetero::graph::is_sinkhorn_normalizable(diag));
  const auto r = standardize(diag);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(hetero::linalg::max_abs_diff(r.standard, Matrix::identity(3)),
            1e-8);
}

// ---------------------------------------------------------------------------
// Theorem 2 (Appendix B) on general standard matrices.

TEST(Theorem2, LargestSingularValueSqrtRC) {
  // For row sums r and column sums c, sigma_1 = sqrt(r c).
  // Take the 2x3 all-ones matrix: r = 3, c = 2, sigma_1 = sqrt(6).
  const Matrix ones(2, 3, 1.0);
  EXPECT_NEAR(hetero::linalg::spectral_norm(ones), std::sqrt(6.0), 1e-10);
}

TEST(Theorem2, SingularVectorIsUniform) {
  const Matrix ones(3, 4, 1.0);
  const auto svd = hetero::linalg::svd(ones);
  // Input singular vector v = 1/sqrt(n) * [1 ... 1]^T (up to sign).
  const double expect = 1.0 / std::sqrt(4.0);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(std::abs(svd.v(i, 0)), expect, 1e-10);
}

TEST(Theorem2, MrEqualsNc) {
  // m r = n c (both equal the total); verified on a standard form.
  const auto r = standardize(Matrix{{1, 2, 3}, {4, 5, 6}});
  const double total = r.standard.total();
  EXPECT_NEAR(2.0 * r.target_row_sum, total, 1e-7);
  EXPECT_NEAR(3.0 * r.target_col_sum, total, 1e-7);
}

}  // namespace
