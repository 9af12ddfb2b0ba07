#include "etcgen/suite.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/measures.hpp"
#include "core/statistics.hpp"

namespace {

using hetero::ValueError;
namespace eg = hetero::etcgen;

eg::BraunSuiteOptions small_opts() {
  eg::BraunSuiteOptions opts;
  opts.tasks = 40;
  opts.machines = 8;
  opts.seed = 7;
  return opts;
}

TEST(BraunSuite, TwelveDistinctCategories) {
  const auto suite = eg::braun_suite(small_opts());
  ASSERT_EQ(suite.size(), 12u);
  std::set<std::string> names;
  for (const auto& c : suite) names.insert(c.name);
  EXPECT_EQ(names.size(), 12u);
  // 4 of each consistency class, 6 of each heterogeneity flag.
  std::size_t consistent = 0, hi_task = 0;
  for (const auto& c : suite) {
    if (c.consistency == eg::Consistency::consistent) ++consistent;
    if (c.high_task_heterogeneity) ++hi_task;
  }
  EXPECT_EQ(consistent, 4u);
  EXPECT_EQ(hi_task, 6u);
}

TEST(BraunSuite, ShapesAndPositivity) {
  const auto suite = eg::braun_suite(small_opts());
  for (const auto& c : suite) {
    EXPECT_EQ(c.etc.task_count(), 40u) << c.name;
    EXPECT_EQ(c.etc.machine_count(), 8u) << c.name;
    EXPECT_TRUE(c.etc.values().all_positive()) << c.name;
  }
}

TEST(BraunSuite, ConsistentCasesAreConsistent) {
  for (const auto& c : eg::braun_suite(small_opts())) {
    if (c.consistency == eg::Consistency::consistent) {
      EXPECT_TRUE(hetero::core::is_consistent(c.etc)) << c.name;
    }
    if (c.consistency == eg::Consistency::inconsistent) {
      EXPECT_FALSE(hetero::core::is_consistent(c.etc)) << c.name;
    }
  }
}

TEST(BraunSuite, HeterogeneityAxesSurfaceInStatistics) {
  const auto suite = eg::braun_suite(small_opts());
  // The machine axis surfaces in the row-COV statistic. (The task axis
  // does NOT surface in the column COV — a uniform range's COV saturates
  // regardless of the range — which is precisely why range statistics use
  // spreads; see the next test.)
  double mach_hi = 0, mach_lo = 0;
  for (const auto& c : suite) {
    const auto s = hetero::core::etc_statistics(c.etc);
    (c.high_machine_heterogeneity ? mach_hi : mach_lo) +=
        s.mean_machine_heterogeneity;
  }
  EXPECT_GT(mach_hi, mach_lo);
}

TEST(BraunSuite, TaskAxisSurfacesInAbsoluteScale) {
  // With uniform ranges, ratio statistics saturate with sample count (the
  // minimum of n U(1, R) samples is ~R/n, so max/min ~ n for any large R);
  // the range-based task axis is an *absolute-scale* axis. Hi-task suites
  // must have runtimes two to three orders of magnitude larger.
  const auto suite = eg::braun_suite(small_opts());
  double scale_hi = 0, scale_lo = 0;
  for (const auto& c : suite) {
    const double mean_runtime = c.etc.values().total() /
                                static_cast<double>(c.etc.values().size());
    (c.high_task_heterogeneity ? scale_hi : scale_lo) += mean_runtime;
  }
  EXPECT_GT(scale_hi, 100.0 * scale_lo);
}

TEST(BraunSuite, TdhIsScaleBlindToTheRangeAxis) {
  // TDH is scale-invariant, and uniform sampling puts the sorted adjacent
  // ratios at ~k/(k+1) regardless of the range: both hi- and lo-task
  // suites land near the same TDH. This is a *documented limitation* of
  // the range-based method that the paper's measure-targeted generation
  // overcomes (it can dial TDH directly).
  const auto suite = eg::braun_suite(small_opts());
  for (const auto& c : suite) {
    const double tdh = hetero::core::tdh(c.etc.to_ecs());
    EXPECT_GT(tdh, 0.85) << c.name;
    EXPECT_LT(tdh, 1.0) << c.name;
  }
}

TEST(BraunSuite, TmaRisesFromConsistentToInconsistent) {
  const auto suite = eg::braun_suite(small_opts());
  double tma_consistent = 0, tma_inconsistent = 0;
  for (const auto& c : suite) {
    const double tma = hetero::core::tma(c.etc.to_ecs());
    if (c.consistency == eg::Consistency::consistent) tma_consistent += tma;
    if (c.consistency == eg::Consistency::inconsistent)
      tma_inconsistent += tma;
  }
  EXPECT_LT(tma_consistent, tma_inconsistent);
}

TEST(BraunSuite, Reproducible) {
  const auto a = eg::braun_suite(small_opts());
  const auto b = eg::braun_suite(small_opts());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].etc.values(), b[i].etc.values());
}

TEST(BraunSuite, RejectsBadOptions) {
  eg::BraunSuiteOptions opts;
  opts.tasks = 0;
  EXPECT_THROW(eg::braun_suite(opts), ValueError);
}

}  // namespace
