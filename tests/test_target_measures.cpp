#include "etcgen/target_measures.hpp"

#include <gtest/gtest.h>

#include "core/measures.hpp"

namespace {

using hetero::ConvergenceError;
using hetero::ValueError;
using hetero::core::EcsMatrix;
namespace eg = hetero::etcgen;

TEST(MeasureSetRaw, MatchesEcsMeasures) {
  const hetero::linalg::Matrix m{{1, 5, 2}, {3, 1, 4}};
  const auto raw = eg::measure_set_raw(m);
  const auto typed = hetero::core::measure_set(EcsMatrix(m));
  EXPECT_NEAR(raw.mph, typed.mph, 1e-12);
  EXPECT_NEAR(raw.tdh, typed.tdh, 1e-12);
  EXPECT_NEAR(raw.tma, typed.tma, 1e-7);
}

TEST(Rank1Seed, AchievesExactMphTdhZeroTma) {
  const eg::TargetMeasures target{0.7, 0.85, 0.0};
  const auto seed = eg::rank1_seed(target, 6, 4);
  const auto m = eg::measure_set_raw(seed);
  EXPECT_NEAR(m.mph, 0.7, 1e-9);
  EXPECT_NEAR(m.tdh, 0.85, 1e-9);
  EXPECT_NEAR(m.tma, 0.0, 1e-7);
}

TEST(Rank1Seed, FullyHomogeneousTarget) {
  const auto seed = eg::rank1_seed({1.0, 1.0, 0.0}, 3, 3);
  for (double x : seed.data()) EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(GenerateWithMeasures, ValidatesInputs) {
  eg::TargetGenOptions opts;
  opts.tasks = 0;
  opts.machines = 3;
  EXPECT_THROW(eg::generate_with_measures({0.5, 0.5, 0.1}, opts), ValueError);
  opts.tasks = 3;
  EXPECT_THROW(eg::generate_with_measures({1.5, 0.5, 0.1}, opts), ValueError);
  EXPECT_THROW(eg::generate_with_measures({0.5, 0.0, 0.1}, opts), ValueError);
  EXPECT_THROW(eg::generate_with_measures({0.5, 0.5, 1.0}, opts), ValueError);
  // TMA > 0 impossible with a single machine.
  opts.machines = 1;
  EXPECT_THROW(eg::generate_with_measures({1.0, 0.5, 0.2}, opts), ValueError);
  // MPH < 1 impossible with a single machine.
  EXPECT_THROW(eg::generate_with_measures({0.5, 0.5, 0.0}, opts), ValueError);
}

// gtest names each case by the bytes of its parameter, so the parameter
// must have no padding (whose bytes are indeterminate) for the ctest names
// to be the same in every build.
struct TargetCase {
  double mph, tdh, tma;
  std::size_t tasks, machines;
};
static_assert(sizeof(TargetCase) ==
              3 * sizeof(double) + 2 * sizeof(std::size_t));

class TargetSweep : public ::testing::TestWithParam<TargetCase> {};

TEST_P(TargetSweep, HitsTargetsWithinTolerance) {
  const auto& c = GetParam();
  eg::TargetGenOptions opts;
  opts.tasks = c.tasks;
  opts.machines = c.machines;
  opts.seed = 42;
  opts.anneal_iterations = 12000;
  opts.restarts = 2;
  opts.tolerance = 0.01;
  const auto result =
      eg::generate_with_measures({c.mph, c.tdh, c.tma}, opts);
  EXPECT_LE(result.error, 0.01);
  // Re-measure through the public API to confirm the result object.
  const auto check = hetero::core::measure_set(result.ecs);
  EXPECT_NEAR(check.mph, c.mph, 0.015);
  EXPECT_NEAR(check.tdh, c.tdh, 0.015);
  EXPECT_NEAR(check.tma, c.tma, 0.015);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TargetSweep,
    ::testing::Values(TargetCase{0.9, 0.9, 0.05, 6, 4},
                      TargetCase{0.5, 0.9, 0.2, 6, 4},
                      TargetCase{0.9, 0.5, 0.2, 6, 4},
                      TargetCase{0.3, 0.3, 0.1, 5, 5},
                      TargetCase{0.7, 0.8, 0.4, 8, 8},
                      TargetCase{1.0, 1.0, 0.0, 4, 4}));

TEST(GenerateWithMeasures, ScaleOptionSetsMeanEntry) {
  eg::TargetGenOptions opts;
  opts.tasks = 4;
  opts.machines = 4;
  opts.scale = 250.0;
  opts.anneal_iterations = 5000;
  opts.restarts = 1;
  opts.tolerance = 0.05;
  const auto result = eg::generate_with_measures({0.8, 0.8, 0.1}, opts);
  const double mean = result.ecs.values().total() /
                      static_cast<double>(result.ecs.values().size());
  EXPECT_NEAR(mean, 250.0, 1e-6);
}

TEST(GenerateWithMeasures, ParallelRestartsMatchQuality) {
  hetero::par::ThreadPool pool(2);
  eg::TargetGenOptions opts;
  opts.tasks = 5;
  opts.machines = 4;
  opts.anneal_iterations = 8000;
  opts.restarts = 4;
  opts.tolerance = 0.02;
  opts.pool = &pool;
  const auto result = eg::generate_with_measures({0.6, 0.7, 0.15}, opts);
  EXPECT_LE(result.error, 0.02);
}

TEST(GenerateWithMeasures, PoolDoesNotChangeResult) {
  // Each restart owns its evaluator and seed, so running the restarts
  // serially or on pools of any size must give the same bits.
  eg::TargetGenOptions opts;
  opts.tasks = 6;
  opts.machines = 4;
  opts.seed = 11;
  opts.anneal_iterations = 3000;
  opts.restarts = 4;
  opts.tolerance = 0.02;
  const eg::TargetMeasures target{0.6, 0.8, 0.2};
  const auto serial = eg::generate_with_measures(target, opts);
  for (std::size_t threads : {2u, 4u}) {
    hetero::par::ThreadPool pool(threads);
    opts.pool = &pool;
    const auto pooled = eg::generate_with_measures(target, opts);
    EXPECT_EQ(pooled.ecs.values(), serial.ecs.values()) << threads;
    EXPECT_EQ(pooled.error, serial.error) << threads;
  }
}

TEST(GenerateWithMeasures, UnreachableTargetThrows) {
  eg::TargetGenOptions opts;
  opts.tasks = 2;
  opts.machines = 2;
  opts.anneal_iterations = 300;  // starved budget
  opts.restarts = 1;
  opts.tolerance = 1e-9;         // unreachably tight
  EXPECT_THROW(eg::generate_with_measures({0.33, 0.77, 0.41}, opts),
               ConvergenceError);
}

TEST(SearchSinkhornOptions, ClampsTwoOrdersBelowGeneratorTolerance) {
  EXPECT_DOUBLE_EQ(eg::search_sinkhorn_options(0.02).tolerance, 1e-4);
  EXPECT_DOUBLE_EQ(eg::search_sinkhorn_options(1e-3).tolerance, 1e-5);
  EXPECT_DOUBLE_EQ(eg::search_sinkhorn_options(1e-7).tolerance, 1e-8);
}

}  // namespace
