#include "core/measures.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "core/performance.hpp"

namespace {

using hetero::ValueError;
using hetero::core::adjacent_ratio_geometric_mean;
using hetero::core::adjacent_ratio_homogeneity;
using hetero::core::characterize;
using hetero::core::EcsMatrix;
using hetero::core::measure_set;
using hetero::core::min_max_ratio;
using hetero::core::mph;
using hetero::core::tdh;
using hetero::core::tma;
using hetero::core::tma_column_normalized;
using hetero::core::tma_detailed;
using hetero::core::TmaOptions;
using hetero::core::value_cov;
using hetero::core::Weights;
using hetero::linalg::Matrix;

// ---------------------------------------------------------------------------
// Figure 2 of the paper: exact values for MPH, R, G, COV on four
// five-machine environments.

struct Fig2Case {
  std::vector<double> performances;
  double mph, r, g, cov;
};

// Print a case by its performance vector. The default printout dumps the raw
// bytes, which hold heap addresses that change from run to run, and ctest
// names each discovered test after that printout.
void PrintTo(const Fig2Case& c, std::ostream* os) {
  *os << ::testing::PrintToString(c.performances);
}

class Fig2 : public ::testing::TestWithParam<Fig2Case> {};

TEST_P(Fig2, MatchesPaperValues) {
  const auto& c = GetParam();
  EXPECT_NEAR(adjacent_ratio_homogeneity(c.performances), c.mph, 0.005);
  EXPECT_NEAR(min_max_ratio(c.performances), c.r, 0.005);
  EXPECT_NEAR(adjacent_ratio_geometric_mean(c.performances), c.g, 0.005);
  EXPECT_NEAR(value_cov(c.performances), c.cov, 0.005);
}

INSTANTIATE_TEST_SUITE_P(
    PaperEnvironments, Fig2,
    ::testing::Values(Fig2Case{{1, 2, 4, 8, 16}, 0.5, 0.0625, 0.5, 0.88},
                      Fig2Case{{1, 1, 1, 1, 16}, 0.766, 0.0625, 0.5, 1.5},
                      Fig2Case{{1, 16, 16, 16, 16}, 0.766, 0.0625, 0.5, 0.462},
                      Fig2Case{{1, 4, 4, 4, 16}, 0.625, 0.0625, 0.5, 0.902}));

TEST(Fig2Intuition, MphOrdersEnvironmentsAsThePaperArgues) {
  // Environment 1 most heterogeneous; 2 and 3 tie; 4 in between.
  const double e1 = adjacent_ratio_homogeneity(std::vector<double>{1, 2, 4, 8, 16});
  const double e2 = adjacent_ratio_homogeneity(std::vector<double>{1, 1, 1, 1, 16});
  const double e3 = adjacent_ratio_homogeneity(std::vector<double>{1, 16, 16, 16, 16});
  const double e4 = adjacent_ratio_homogeneity(std::vector<double>{1, 4, 4, 4, 16});
  EXPECT_DOUBLE_EQ(e2, e3);
  EXPECT_LT(e1, e4);
  EXPECT_LT(e4, e2);
  // R and G fail to distinguish any of them; COV mis-orders env 3 vs env 1.
  const double cov1 = value_cov(std::vector<double>{1, 2, 4, 8, 16});
  const double cov3 = value_cov(std::vector<double>{1, 16, 16, 16, 16});
  EXPECT_LT(cov3, cov1);  // COV calls env 3 *less* heterogeneous than env 1
}

// ---------------------------------------------------------------------------
// Homogeneity basics.

TEST(AdjacentRatioHomogeneity, EqualValuesGiveOne) {
  EXPECT_DOUBLE_EQ(adjacent_ratio_homogeneity(std::vector<double>{3, 3, 3}), 1.0);
}

TEST(AdjacentRatioHomogeneity, SingleValueIsOne) {
  EXPECT_DOUBLE_EQ(adjacent_ratio_homogeneity(std::vector<double>{5}), 1.0);
}

TEST(AdjacentRatioHomogeneity, ScaleInvariant) {
  const std::vector<double> v{1, 3, 9};
  std::vector<double> scaled;
  for (double x : v) scaled.push_back(42 * x);
  EXPECT_DOUBLE_EQ(adjacent_ratio_homogeneity(v),
                   adjacent_ratio_homogeneity(scaled));
}

TEST(AdjacentRatioHomogeneity, OrderInvariant) {
  EXPECT_DOUBLE_EQ(adjacent_ratio_homogeneity(std::vector<double>{4, 1, 2}),
                   adjacent_ratio_homogeneity(std::vector<double>{1, 2, 4}));
}

TEST(AdjacentRatioHomogeneity, InUnitInterval) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(0.01, 100.0);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> v(5);
    for (double& x : v) x = dist(rng);
    const double h = adjacent_ratio_homogeneity(v);
    EXPECT_GT(h, 0.0);
    EXPECT_LE(h, 1.0);
  }
}

TEST(AdjacentRatioHomogeneity, RejectsNonPositive) {
  EXPECT_THROW(adjacent_ratio_homogeneity(std::vector<double>{1, 0}),
               ValueError);
  EXPECT_THROW(adjacent_ratio_homogeneity(std::vector<double>{}), ValueError);
}

TEST(AdjacentRatioHomogeneity, RejectionMessagesNameTheCaller) {
  const auto message = [](auto&& call) {
    try {
      call();
    } catch (const ValueError& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_EQ(message([] { min_max_ratio(std::vector<double>{2, -1, 3}); }),
            "min_max_ratio: values must be positive");
  EXPECT_EQ(message([] {
              min_max_ratio(std::vector<double>{2, std::nan("")});
            }),
            "min_max_ratio: values must be positive");
  EXPECT_EQ(message([] {
              adjacent_ratio_homogeneity(std::vector<double>{});
            }),
            "adjacent_ratio_homogeneity: empty value vector");
}

// ---------------------------------------------------------------------------
// MPH / TDH on matrices.

TEST(Mph, HomogeneousMatrixIsOne) {
  EXPECT_DOUBLE_EQ(mph(EcsMatrix(Matrix{{1, 1}, {2, 2}})), 1.0);
}

TEST(Tdh, HomogeneousTasksIsOne) {
  EXPECT_DOUBLE_EQ(tdh(EcsMatrix(Matrix{{1, 2}, {1, 2}})), 1.0);
}

TEST(MphTdh, IndependentAxes) {
  // Fig. 3 style: equal column sums but different row sums and vice versa.
  EcsMatrix machine_hetero(Matrix{{1, 10}, {1, 10}});
  EXPECT_LT(mph(machine_hetero), 1.0);
  EXPECT_DOUBLE_EQ(tdh(machine_hetero), 1.0);

  EcsMatrix task_hetero(Matrix{{1, 1}, {10, 10}});
  EXPECT_DOUBLE_EQ(mph(task_hetero), 1.0);
  EXPECT_LT(tdh(task_hetero), 1.0);
}

TEST(MphTdh, TransposeDuality) {
  // TDH of E equals MPH of E^T.
  const Matrix m{{1, 5, 2}, {3, 1, 4}};
  EXPECT_DOUBLE_EQ(tdh(EcsMatrix(m)), mph(EcsMatrix(m.transposed())));
}

TEST(Mph, WeightsShiftPerformance) {
  EcsMatrix ecs(Matrix{{1, 2}, {1, 2}});
  Weights w;
  w.machine = {2.0, 1.0};  // equalizes the column sums
  EXPECT_DOUBLE_EQ(mph(ecs, w), 1.0);
}

TEST(Tdh, WeightsShiftDifficulty) {
  EcsMatrix ecs(Matrix{{1, 1}, {2, 2}});
  Weights w;
  w.task = {2.0, 1.0};
  EXPECT_DOUBLE_EQ(tdh(ecs, w), 1.0);
}

// ---------------------------------------------------------------------------
// TMA.

TEST(Tma, RankOneIsZero) {
  // Columns proportional -> no affinity (paper Fig. 3(a)).
  EXPECT_NEAR(tma(EcsMatrix(Matrix{{1, 2}, {2, 4}, {3, 6}})), 0.0, 1e-9);
}

TEST(Tma, ExchangeMatrixIsOne) {
  EXPECT_NEAR(tma(EcsMatrix(Matrix{{0, 1}, {1, 0}})), 1.0, 1e-9);
}

TEST(Tma, DiagonalBlocksGiveHighAffinity) {
  // Fig. 3(b) style: machines specialized to task groups.
  EcsMatrix specialized(Matrix{{10, 1, 1}, {1, 10, 1}, {1, 1, 10}});
  EcsMatrix uniform(Matrix(3, 3, 1.0));
  EXPECT_GT(tma(specialized), 0.4);
  EXPECT_NEAR(tma(uniform), 0.0, 1e-9);
}

TEST(Tma, ScaleInvariant) {
  const Matrix m{{1, 5, 2}, {3, 1, 4}, {2, 2, 2}};
  EXPECT_NEAR(tma(EcsMatrix(m)), tma(EcsMatrix(m * 1000.0)), 1e-9);
}

TEST(Tma, SingleMachineOrTaskIsZero) {
  EXPECT_DOUBLE_EQ(tma(EcsMatrix(Matrix{{1}, {2}, {3}})), 0.0);
  EXPECT_DOUBLE_EQ(tma(EcsMatrix(Matrix{{1, 2, 3}})), 0.0);
}

TEST(Tma, InUnitInterval) {
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> dist(0.1, 10.0);
  for (int rep = 0; rep < 25; ++rep) {
    Matrix m(4, 3);
    for (double& x : m.data()) x = dist(rng);
    const double v = tma(EcsMatrix(m));
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST(Tma, DetailedReportsStandardForm) {
  const auto detail = tma_detailed(EcsMatrix(Matrix{{1, 5}, {4, 2}}));
  EXPECT_TRUE(detail.used_standard_form);
  EXPECT_TRUE(detail.standard_form.converged);
  ASSERT_EQ(detail.singular_values.size(), 2u);
  EXPECT_NEAR(detail.singular_values.front(), 1.0, 1e-7);  // Theorem 2
  EXPECT_NEAR(detail.value, detail.singular_values[1], 1e-12);
}

TEST(Tma, FallbackForNonNormalizablePattern) {
  // No support: standard form cannot exist; eq. 5 fallback must engage.
  const Matrix m{{1, 1, 0, 0}, {1, 1, 0, 0}, {1, 1, 0, 0}, {0, 0, 1, 1}};
  const auto detail = tma_detailed(EcsMatrix(m));
  EXPECT_FALSE(detail.used_standard_form);
  EXPECT_GE(detail.value, 0.0);
  EXPECT_LE(detail.value, 1.0);
}

TEST(Tma, FallbackDisabledThrows) {
  const Matrix m{{1, 1, 0, 0}, {1, 1, 0, 0}, {1, 1, 0, 0}, {0, 0, 1, 1}};
  TmaOptions opts;
  opts.allow_column_normalized_fallback = false;
  opts.sinkhorn.max_iterations = 100;
  EXPECT_THROW(tma_detailed(EcsMatrix(m), {}, opts), ValueError);
}

TEST(TmaColumnNormalized, MatchesEq5OnSimpleCase) {
  // For the exchange matrix columns are already normalized; sigma = {1, 1}.
  EXPECT_NEAR(tma_column_normalized(EcsMatrix(Matrix{{0, 1}, {1, 0}})), 1.0,
              1e-9);
  EXPECT_NEAR(tma_column_normalized(EcsMatrix(Matrix(2, 2, 1.0))), 0.0, 1e-9);
}

TEST(TmaColumnNormalized, DiffersFromStandardFormWhenRowsSkewed) {
  // The eq. 5 measure is contaminated by task-difficulty heterogeneity;
  // the standard form isolates it (the motivation for this paper's TMA).
  const Matrix skew{{100, 90}, {1, 2}};
  const double eq5 = tma_column_normalized(EcsMatrix(skew));
  const double eq8 = tma(EcsMatrix(skew));
  EXPECT_GT(std::abs(eq5 - eq8), 1e-3);
}

// ---------------------------------------------------------------------------
// Independence of the three measures (the paper's third property).

TEST(Independence, TmaInvariantUnderRowColumnScaling) {
  // Scaling rows/columns changes MPH and TDH arbitrarily but must not move
  // TMA (it is a function of the standard form, which is scaling-invariant).
  const Matrix base{{5, 1, 2}, {1, 6, 1}, {2, 1, 7}};
  const double t0 = tma(EcsMatrix(base));
  Matrix scaled = base;
  scaled.scale_row(0, 13.0);
  scaled.scale_row(2, 0.25);
  scaled.scale_col(1, 7.0);
  const double t1 = tma(EcsMatrix(scaled));
  EXPECT_NEAR(t0, t1, 1e-7);
  // Sanity: the scalings did move MPH/TDH.
  EXPECT_GT(std::abs(mph(EcsMatrix(base)) - mph(EcsMatrix(scaled))), 1e-3);
  EXPECT_GT(std::abs(tdh(EcsMatrix(base)) - tdh(EcsMatrix(scaled))), 1e-3);
}

TEST(Independence, MphMovesWithoutTdhOrTma) {
  const Matrix base{{5, 1, 2}, {1, 6, 1}, {2, 1, 7}};
  Matrix scaled = base;
  scaled.scale_col(0, 3.0);  // column scaling: TDH changes? no — row sums do.
  // Column scaling changes MP profile; TMA must stay put.
  EXPECT_NEAR(tma(EcsMatrix(base)), tma(EcsMatrix(scaled)), 1e-7);
}

// ---------------------------------------------------------------------------
// Aggregates.

TEST(MeasureSetAggregate, MatchesIndividualCalls) {
  EcsMatrix ecs(Matrix{{1, 5, 2}, {3, 1, 4}});
  const auto set = measure_set(ecs);
  EXPECT_DOUBLE_EQ(set.mph, mph(ecs));
  EXPECT_DOUBLE_EQ(set.tdh, tdh(ecs));
  EXPECT_DOUBLE_EQ(set.tma, tma(ecs));
}

TEST(Characterize, FullReport) {
  EcsMatrix ecs(Matrix{{1, 5, 2}, {3, 1, 4}});
  const auto report = characterize(ecs);
  EXPECT_EQ(report.machine_performances.size(), 3u);
  EXPECT_EQ(report.task_difficulties.size(), 2u);
  EXPECT_DOUBLE_EQ(report.measures.mph, mph(ecs));
  EXPECT_GT(report.mph_alt_ratio, 0.0);
  EXPECT_GT(report.mph_alt_geometric, 0.0);
  EXPECT_GE(report.mph_alt_cov, 0.0);
  EXPECT_DOUBLE_EQ(report.measures.tma, report.tma_detail.value);
}

}  // namespace
