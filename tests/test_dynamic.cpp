#include "sched/dynamic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "etcgen/range_based.hpp"
#include "sched/heuristics.hpp"

namespace {

using hetero::DimensionError;
using hetero::ValueError;
using hetero::core::EtcMatrix;
using hetero::linalg::Matrix;
namespace sc = hetero::sched;
using sc::Arrival;
using sc::ImmediateMode;

constexpr double kInf = std::numeric_limits<double>::infinity();

EtcMatrix two_machines() {
  // Machine 2 twice as fast.
  return EtcMatrix(Matrix{{4, 2}, {8, 4}});
}

TEST(Dynamic, EmptyArrivals) {
  const auto r = sc::simulate_immediate(two_machines(), {}, ImmediateMode::mct);
  EXPECT_EQ(r.makespan, 0.0);
  EXPECT_EQ(r.mean_flow_time, 0.0);
  EXPECT_TRUE(r.assignment.empty());
}

TEST(Dynamic, ValidatesInputs) {
  EXPECT_THROW(
      sc::simulate_immediate(two_machines(), {{-1.0, 0}}, ImmediateMode::mct),
      ValueError);
  EXPECT_THROW(
      sc::simulate_immediate(two_machines(), {{0.0, 9}}, ImmediateMode::mct),
      DimensionError);
  sc::DynamicOptions bad;
  bad.kpb_fraction = 0.0;
  EXPECT_THROW(sc::simulate_immediate(two_machines(), {{0.0, 0}},
                                      ImmediateMode::kpb, bad),
               ValueError);
}

TEST(Dynamic, SingleTaskMctPicksFastMachine) {
  const auto r = sc::simulate_immediate(two_machines(), {{1.0, 0}},
                                        ImmediateMode::mct);
  EXPECT_EQ(r.assignment[0], 1u);
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);       // starts at 1, runs 2
  EXPECT_DOUBLE_EQ(r.mean_flow_time, 2.0);  // completion - arrival
}

TEST(Dynamic, MctQueuesConsideringBusyMachines) {
  // Two type-0 tasks at t=0: first goes to m2 (CT 2), second compares m1
  // (CT 4) vs m2 queued (CT 4) -> tie, lowest key first found wins: m1 at
  // equal key is evaluated first, so assignment is m1.
  const auto r = sc::simulate_immediate(
      two_machines(), {{0.0, 0}, {0.0, 0}}, ImmediateMode::mct);
  EXPECT_EQ(r.assignment[0], 1u);
  EXPECT_EQ(r.assignment[1], 0u);
  EXPECT_DOUBLE_EQ(r.makespan, 4.0);
}

TEST(Dynamic, MetIgnoresQueues) {
  const auto r = sc::simulate_immediate(
      two_machines(), {{0.0, 0}, {0.0, 0}, {0.0, 0}}, ImmediateMode::met);
  for (std::size_t j : r.assignment) EXPECT_EQ(j, 1u);
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);  // all serialized on m2
}

TEST(Dynamic, OlbBalancesBlindly) {
  const auto r = sc::simulate_immediate(
      two_machines(), {{0.0, 0}, {0.0, 0}}, ImmediateMode::olb);
  // First -> m1 (both free, lowest index), second -> m2.
  EXPECT_EQ(r.assignment[0], 0u);
  EXPECT_EQ(r.assignment[1], 1u);
}

TEST(Dynamic, KpbRestrictsToBestMachines) {
  // Three machines: ETC 10, 1, 1.05 for the only type. With fraction 0.34
  // (keep 1 of 3... ceil(0.34*3)=2) the slow machine is excluded even when
  // idle.
  EtcMatrix etc(Matrix{{10, 1, 1.05}});
  sc::DynamicOptions opts;
  opts.kpb_fraction = 0.34;
  const auto r = sc::simulate_immediate(
      etc, {{0.0, 0}, {0.0, 0}, {0.0, 0}}, ImmediateMode::kpb, opts);
  for (std::size_t j : r.assignment) EXPECT_NE(j, 0u);
}

TEST(Dynamic, KpbFullFractionEqualsMct) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(71);
  hetero::etcgen::RangeBasedOptions gopts;
  gopts.tasks = 6;
  gopts.machines = 4;
  const auto etc = hetero::etcgen::generate_range_based(gopts, rng);
  const auto arrivals = sc::poisson_arrivals(etc, 0.5, 30, rng);
  sc::DynamicOptions opts;
  opts.kpb_fraction = 1.0;
  const auto a = sc::simulate_immediate(etc, arrivals, ImmediateMode::kpb, opts);
  const auto b = sc::simulate_immediate(etc, arrivals, ImmediateMode::mct);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(Dynamic, RespectsIncapableMachines) {
  EtcMatrix etc(Matrix{{1, kInf}, {kInf, 1}});
  for (const auto mode : {ImmediateMode::olb, ImmediateMode::met,
                          ImmediateMode::mct, ImmediateMode::kpb}) {
    const auto r =
        sc::simulate_immediate(etc, {{0.0, 0}, {0.0, 1}}, mode);
    EXPECT_EQ(r.assignment[0], 0u);
    EXPECT_EQ(r.assignment[1], 1u);
    EXPECT_TRUE(std::isfinite(r.makespan));
  }
}

TEST(Dynamic, UnsortedArrivalsHandled) {
  const std::vector<Arrival> shuffled{{5.0, 0}, {0.0, 0}, {2.0, 1}};
  const std::vector<Arrival> sorted{{0.0, 0}, {2.0, 1}, {5.0, 0}};
  const auto a = sc::simulate_immediate(two_machines(), shuffled,
                                        ImmediateMode::mct);
  const auto b = sc::simulate_immediate(two_machines(), sorted,
                                        ImmediateMode::mct);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.mean_flow_time, b.mean_flow_time);
}

TEST(Dynamic, FlowTimeByHand) {
  // One machine: ETC = 3. Arrivals at 0 and 1. Completions 3 and 6.
  EtcMatrix etc(Matrix{{3}});
  const auto r = sc::simulate_immediate(etc, {{0.0, 0}, {1.0, 0}},
                                        ImmediateMode::mct);
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
  EXPECT_DOUBLE_EQ(r.mean_flow_time, (3.0 + 5.0) / 2.0);
  EXPECT_DOUBLE_EQ(r.max_flow_time, 5.0);
}

TEST(Dynamic, PoissonArrivalsShape) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(73);
  const auto arrivals = sc::poisson_arrivals(two_machines(), 2.0, 100, rng);
  ASSERT_EQ(arrivals.size(), 100u);
  for (std::size_t k = 1; k < arrivals.size(); ++k)
    EXPECT_GE(arrivals[k].time, arrivals[k - 1].time);
  for (const auto& a : arrivals) EXPECT_LT(a.type, 2u);
  // Mean inter-arrival ~ 1/rate.
  EXPECT_NEAR(arrivals.back().time / 100.0, 0.5, 0.2);
  EXPECT_THROW(sc::poisson_arrivals(two_machines(), 0.0, 1, rng), ValueError);
}

TEST(Dynamic, SwitchingValidatesThresholds) {
  sc::DynamicOptions bad;
  bad.switch_low = 0.8;
  bad.switch_high = 0.4;
  EXPECT_THROW(sc::simulate_immediate(two_machines(), {{0.0, 0}},
                                      ImmediateMode::switching, bad),
               ValueError);
}

TEST(Dynamic, SwitchingStartsBalancedInMet) {
  // An empty system is perfectly balanced (index 1 > high threshold), so
  // the first task is mapped by MET: fastest machine regardless of queues.
  const auto r = sc::simulate_immediate(two_machines(), {{0.0, 0}},
                                        ImmediateMode::switching);
  EXPECT_EQ(r.assignment[0], 1u);
}

TEST(Dynamic, SwitchingFallsBackToMctUnderImbalance) {
  // Burst of identical tasks: pure MET serializes everything on m2
  // (makespan 2 * n), while switching must flip to MCT once m2's backlog
  // grows and spread the load.
  std::vector<Arrival> burst;
  for (int k = 0; k < 10; ++k) burst.push_back({0.0, 0});
  const auto sw = sc::simulate_immediate(two_machines(), burst,
                                         ImmediateMode::switching);
  const auto met = sc::simulate_immediate(two_machines(), burst,
                                          ImmediateMode::met);
  EXPECT_LT(sw.makespan, met.makespan);
  // Both machines must have been used.
  bool used0 = false, used1 = false;
  for (std::size_t j : sw.assignment) (j == 0 ? used0 : used1) = true;
  EXPECT_TRUE(used0);
  EXPECT_TRUE(used1);
}

TEST(Dynamic, SwitchingBetweenMetAndMctEnvelope) {
  // Switching can never beat the best of MET/MCT by definition of its
  // per-arrival choices, but it must stay within the envelope on makespan
  // for a sparse arrival pattern where all three coincide.
  const std::vector<Arrival> sparse{{0.0, 0}, {100.0, 1}, {200.0, 0}};
  const auto sw = sc::simulate_immediate(two_machines(), sparse,
                                         ImmediateMode::switching);
  const auto mct = sc::simulate_immediate(two_machines(), sparse,
                                          ImmediateMode::mct);
  EXPECT_DOUBLE_EQ(sw.makespan, mct.makespan);
}

TEST(DynamicBatch, SingleArrivalMatchesImmediate) {
  const auto a = sc::simulate_batch_min_min(two_machines(), {{0.5, 1}});
  const auto b = sc::simulate_immediate(two_machines(), {{0.5, 1}},
                                        ImmediateMode::mct);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(DynamicBatch, RemapsQueuedWork) {
  // t=0: a long type-1 task -> m2 (CT 4 vs 8). t=0.5: a type-0 arrives.
  // The long task has started on m2? No: it started at 0 (start < 0.5), so
  // it cannot be remapped; the new task must weave around it.
  const auto r = sc::simulate_batch_min_min(
      two_machines(), {{0.0, 1}, {0.5, 0}});
  EXPECT_EQ(r.assignment[0], 1u);
  // Type-0: m1 idle (CT 0.5+4=4.5) vs m2 busy until 4 (CT 6): m1 wins.
  EXPECT_EQ(r.assignment[1], 0u);
  EXPECT_DOUBLE_EQ(r.makespan, 4.5);
}

TEST(DynamicBatch, BeatsImmediateMetOnBursts) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(79);
  hetero::etcgen::RangeBasedOptions gopts;
  gopts.tasks = 8;
  gopts.machines = 4;
  gopts.machine_range = 10.0;
  const auto etc = hetero::etcgen::generate_range_based(gopts, rng);
  // A burst: everything arrives at once.
  std::vector<Arrival> burst;
  for (std::size_t k = 0; k < 24; ++k)
    burst.push_back({0.0, k % etc.task_count()});
  const auto batch = sc::simulate_batch_min_min(etc, burst);
  const auto met = sc::simulate_immediate(etc, burst, ImmediateMode::met);
  EXPECT_LE(batch.makespan, met.makespan + 1e-9);
}

TEST(DynamicBatch, BurstEquivalentToStaticMinMinMakespan) {
  // With all arrivals at t=0 and no task started before the last arrival,
  // batch-mode Min-Min equals the static Min-Min mapping.
  EtcMatrix etc(Matrix{{10, 2}, {1, 9}});
  const std::vector<Arrival> burst{{0.0, 0}, {0.0, 1}};
  const auto dynamic = sc::simulate_batch_min_min(etc, burst);
  const auto static_ms = sc::makespan(
      etc, {0, 1}, sc::map_min_min(etc, {0, 1}));
  EXPECT_DOUBLE_EQ(dynamic.makespan, static_ms);
}

TEST(DynamicBatch, DrainsEverything) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(83);
  const auto etc = two_machines();
  const auto arrivals = sc::poisson_arrivals(etc, 1.0, 50, rng);
  const auto r = sc::simulate_batch_min_min(etc, arrivals);
  ASSERT_EQ(r.assignment.size(), 50u);
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_GT(r.mean_flow_time, 0.0);
  EXPECT_GE(r.max_flow_time, r.mean_flow_time);
}

TEST(DynamicBatch, SufferageMatchesMinMinOnTrivialCases) {
  const std::vector<Arrival> one{{0.0, 0}};
  const auto a = sc::simulate_batch(two_machines(), one,
                                    sc::BatchHeuristic::sufferage);
  const auto b = sc::simulate_batch(two_machines(), one,
                                    sc::BatchHeuristic::min_min);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(DynamicBatch, SufferagePrioritizesHighSufferageTask) {
  // Type 0 barely cares (5 vs 4); type 1 suffers hugely (1 vs 20). In a
  // burst, sufferage must give machine 1 to the type-1 task.
  EtcMatrix etc(Matrix{{5, 4}, {1, 20}});
  const std::vector<Arrival> burst{{0.0, 0}, {0.0, 1}};
  const auto r = sc::simulate_batch(etc, burst, sc::BatchHeuristic::sufferage);
  EXPECT_EQ(r.assignment[1], 0u);
  EXPECT_EQ(r.assignment[0], 1u);
  EXPECT_DOUBLE_EQ(r.makespan, 4.0);
}

TEST(DynamicBatch, SufferageDrainsPoissonLoad) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(91);
  const auto etc = two_machines();
  const auto arrivals = sc::poisson_arrivals(etc, 0.5, 40, rng);
  const auto r = sc::simulate_batch(etc, arrivals,
                                    sc::BatchHeuristic::sufferage);
  ASSERT_EQ(r.assignment.size(), 40u);
  EXPECT_TRUE(std::isfinite(r.makespan));
  EXPECT_GT(r.mean_flow_time, 0.0);
}

// ---------------------------------------------------------------------------
// Warm-start equivalence (ctest label: sched_equiv). simulate_batch keeps
// the BatchEngine's cached decisions across scheduling events; it must be
// bit-identical to simulate_batch_reference, which re-runs the heuristic
// cold at every arrival.

void expect_warm_matches_cold(const EtcMatrix& etc,
                              const std::vector<Arrival>& arrivals) {
  for (const auto h :
       {sc::BatchHeuristic::min_min, sc::BatchHeuristic::sufferage}) {
    const auto fast = sc::simulate_batch(etc, arrivals, h);
    const auto ref = sc::simulate_batch_reference(etc, arrivals, h);
    const char* name = h == sc::BatchHeuristic::min_min ? "min_min"
                                                        : "sufferage";
    EXPECT_EQ(fast.assignment, ref.assignment) << name;
    EXPECT_DOUBLE_EQ(fast.makespan, ref.makespan) << name;
    EXPECT_DOUBLE_EQ(fast.mean_flow_time, ref.mean_flow_time) << name;
    EXPECT_DOUBLE_EQ(fast.max_flow_time, ref.max_flow_time) << name;
  }
}

TEST(DynamicBatchEquivalence, PoissonLoadMatchesColdReference) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(101);
  hetero::etcgen::RangeBasedOptions gopts;
  gopts.tasks = 10;
  gopts.machines = 6;
  const auto etc = hetero::etcgen::generate_range_based(gopts, rng);
  expect_warm_matches_cold(etc, sc::poisson_arrivals(etc, 1.5, 200, rng));
}

TEST(DynamicBatchEquivalence, BurstyArrivalsMatchColdReference) {
  // Simultaneous arrivals keep large pending sets alive across events —
  // the regime where the warm cache does the most work.
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(103);
  hetero::etcgen::RangeBasedOptions gopts;
  gopts.tasks = 8;
  gopts.machines = 4;
  const auto etc = hetero::etcgen::generate_range_based(gopts, rng);
  std::vector<Arrival> arrivals;
  for (std::size_t wave = 0; wave < 6; ++wave)
    for (std::size_t k = 0; k < 20; ++k)
      arrivals.push_back({static_cast<double>(wave) * 3.0, k % 8});
  expect_warm_matches_cold(etc, arrivals);
}

TEST(DynamicBatchEquivalence, IncapableMachinesMatchColdReference) {
  EtcMatrix etc(Matrix{{1, kInf, 4}, {kInf, 1, 5}, {2, 2, kInf}});
  std::vector<Arrival> arrivals;
  for (std::size_t k = 0; k < 60; ++k)
    arrivals.push_back(
        {static_cast<double>(k) * 0.3, k % etc.task_count()});
  expect_warm_matches_cold(etc, arrivals);
}

TEST(DynamicBatch, LighterLoadLowersFlowTime) {
  hetero::etcgen::Rng rng1 = hetero::etcgen::make_rng(89);
  hetero::etcgen::Rng rng2 = hetero::etcgen::make_rng(89);
  const auto etc = two_machines();
  const auto heavy = sc::poisson_arrivals(etc, 2.0, 60, rng1);
  const auto light = sc::poisson_arrivals(etc, 0.1, 60, rng2);
  const auto r_heavy = sc::simulate_batch_min_min(etc, heavy);
  const auto r_light = sc::simulate_batch_min_min(etc, light);
  EXPECT_LT(r_light.mean_flow_time, r_heavy.mean_flow_time);
}

}  // namespace
