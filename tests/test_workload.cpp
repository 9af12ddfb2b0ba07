#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "linalg/vector_ops.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"

namespace {

using hetero::DimensionError;
using hetero::ValueError;
using hetero::core::EtcMatrix;
using hetero::linalg::Matrix;
namespace sc = hetero::sim;

EtcMatrix env() {
  return EtcMatrix(Matrix{{1, 2}, {3, 4}, {5, 6}}, {"a", "b", "c"},
                   {"m1", "m2"});
}

TEST(Workload, ConstantRateMatchesExpectation) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(1);
  sc::WorkloadOptions opts;
  opts.base_rate = 4.0;
  const auto arrivals = sc::generate_workload(env(), opts, 2000, rng);
  ASSERT_EQ(arrivals.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(
      arrivals.begin(), arrivals.end(),
      [](const sc::SimArrival& x, const sc::SimArrival& y) {
        return x.time < y.time;
      }));
  // Mean inter-arrival ~ 1/4.
  EXPECT_NEAR(arrivals.back().time / 2000.0, 0.25, 0.03);
}

TEST(Workload, ConstantRateIgnoresDiurnalKnobs) {
  // A constant process is its own thinning envelope: the diurnal
  // amplitude must not change its trace.
  sc::WorkloadOptions a;
  a.diurnal_amplitude = 0.5;
  sc::WorkloadOptions b;
  b.diurnal_amplitude = 0.0;
  b.diurnal_period = 3.0;
  hetero::etcgen::Rng rng_a = hetero::etcgen::make_rng(3);
  hetero::etcgen::Rng rng_b = hetero::etcgen::make_rng(3);
  const auto x = sc::generate_workload(env(), a, 200, rng_a);
  const auto y = sc::generate_workload(env(), b, 200, rng_b);
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_EQ(x[k].time, y[k].time) << k;  // bitwise
    EXPECT_EQ(x[k].task_class, y[k].task_class) << k;
  }
}

TEST(Workload, MixControlsTypeFrequencies) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(2);
  sc::WorkloadOptions opts;
  opts.task_mix = {8.0, 1.0, 1.0};
  const auto arrivals = sc::generate_workload(env(), opts, 3000, rng);
  std::size_t type0 = 0;
  for (const auto& a : arrivals)
    if (a.task_class == 0) ++type0;
  EXPECT_NEAR(static_cast<double>(type0) / 3000.0, 0.8, 0.05);
}

TEST(Workload, ZeroMixWeightExcludesType) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(3);
  sc::WorkloadOptions opts;
  opts.task_mix = {1.0, 0.0, 1.0};
  const auto arrivals = sc::generate_workload(env(), opts, 500, rng);
  for (const auto& a : arrivals) EXPECT_NE(a.task_class, 1u);
}

TEST(Workload, DiurnalModulatesDensity) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(4);
  sc::WorkloadOptions opts;
  opts.base_rate = 10.0;
  opts.shape = sc::RateShape::diurnal;
  opts.diurnal_amplitude = 0.9;
  opts.diurnal_period = 10.0;
  const auto arrivals = sc::generate_workload(env(), opts, 5000, rng);
  // Count arrivals in the rising half-period vs the falling one: sin > 0
  // for t mod 10 in (0, 5), < 0 in (5, 10).
  std::size_t peak = 0, trough = 0;
  for (const auto& a : arrivals) {
    const double phase = std::fmod(a.time, 10.0);
    (phase < 5.0 ? peak : trough) += 1;
  }
  EXPECT_GT(static_cast<double>(peak), 1.5 * static_cast<double>(trough));
}

TEST(Workload, BurstyHasHeavierTailGaps) {
  // Bursty traffic: same mean-ish rate but far more variable inter-arrival
  // gaps than constant-rate Poisson.
  const auto gap_cov = [](const std::vector<sc::SimArrival>& arrivals) {
    std::vector<double> gaps;
    for (std::size_t k = 1; k < arrivals.size(); ++k)
      gaps.push_back(arrivals[k].time - arrivals[k - 1].time);
    return hetero::linalg::coefficient_of_variation(gaps);
  };
  hetero::etcgen::Rng rng1 = hetero::etcgen::make_rng(5);
  hetero::etcgen::Rng rng2 = hetero::etcgen::make_rng(5);
  sc::WorkloadOptions flat;
  flat.base_rate = 2.0;
  sc::WorkloadOptions bursty = flat;
  bursty.shape = sc::RateShape::bursty;
  bursty.burst_factor = 20.0;
  bursty.mean_normal_duration = 50.0;
  bursty.mean_burst_duration = 5.0;
  const auto a = sc::generate_workload(env(), flat, 3000, rng1);
  const auto b = sc::generate_workload(env(), bursty, 3000, rng2);
  EXPECT_GT(gap_cov(b), 1.2 * gap_cov(a));
}

TEST(Workload, ValidatesOptions) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(6);
  sc::WorkloadOptions bad;
  bad.base_rate = 0.0;
  EXPECT_THROW(sc::generate_workload(env(), bad, 1, rng), ValueError);
  bad = {};
  bad.diurnal_amplitude = 1.0;
  EXPECT_THROW(sc::generate_workload(env(), bad, 1, rng), ValueError);
  bad = {};
  bad.burst_factor = 0.5;
  EXPECT_THROW(sc::generate_workload(env(), bad, 1, rng), ValueError);
  bad = {};
  bad.task_mix = {1.0};  // wrong arity
  EXPECT_THROW(sc::generate_workload(env(), bad, 1, rng), DimensionError);
  bad = {};
  bad.task_mix = {0.0, 0.0, 0.0};
  EXPECT_THROW(sc::generate_workload(env(), bad, 1, rng), ValueError);
}

TEST(Workload, TraceCsvRoundTrip) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(7);
  const auto arrivals = sc::generate_workload(env(), {}, 50, rng);
  const auto text = sc::write_trace_csv_string(env(), arrivals);
  const auto parsed = sc::read_trace_csv_string(text, env());
  ASSERT_EQ(parsed.size(), arrivals.size());
  for (std::size_t k = 0; k < arrivals.size(); ++k) {
    EXPECT_DOUBLE_EQ(parsed[k].time, arrivals[k].time);
    EXPECT_EQ(parsed[k].task_class, arrivals[k].task_class);
  }
}

TEST(Workload, TraceCsvAcceptsNumericTypes) {
  const auto parsed = sc::read_trace_csv_string("time,task\n1.5,2\n", env());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].task_class, 2u);
}

TEST(Workload, TraceCsvRejectsBadInput) {
  EXPECT_THROW(sc::read_trace_csv_string("garbage-no-comma\n", env()),
               ValueError);
  EXPECT_THROW(sc::read_trace_csv_string("x,a\n", env()), ValueError);
  EXPECT_THROW(sc::read_trace_csv_string("-1,a\n", env()), ValueError);
  EXPECT_THROW(sc::read_trace_csv_string("1,unknown-task\n", env()),
               ValueError);
  EXPECT_THROW(sc::read_trace_csv_string("1,9\n", env()), DimensionError);
  // Whole-token fields: an index past size_t, a non-finite time and
  // trailing text are rejected, not thrown as std:: errors or truncated.
  EXPECT_THROW(sc::read_trace_csv_string("1,99999999999999999999\n", env()),
               DimensionError);
  EXPECT_THROW(sc::read_trace_csv_string("inf,0\n", env()), ValueError);
  EXPECT_THROW(sc::read_trace_csv_string("1.5abc,0\n", env()), ValueError);
  // Errors name the line.
  try {
    sc::read_trace_csv_string("time,task\n1,a\n\n2x,b\n", env());
    FAIL() << "expected ValueError";
  } catch (const ValueError& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(Workload, FeedsDynamicSimulator) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(8);
  sc::WorkloadOptions opts;
  opts.shape = sc::RateShape::bursty;
  opts.base_rate = 0.5;
  const auto arrivals = sc::generate_workload(env(), opts, 100, rng);
  const sc::Scenario scenario = sc::scenario_from_etc(env());
  sc::Engine engine(scenario, arrivals, {.tick_period = 0.0});
  const auto r = engine.run(*sc::make_scheduler("greedy_mct"));
  EXPECT_EQ(r.completed, 100u);
  EXPECT_TRUE(std::isfinite(r.end_time));
}

}  // namespace
