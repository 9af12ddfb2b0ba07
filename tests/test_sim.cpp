#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "etcgen/range_based.hpp"
#include "etcgen/suite.hpp"
#include "parallel/thread_pool.hpp"
#include "sched/heuristics.hpp"
#include "sim/scenario.hpp"
#include "sim/scheduler.hpp"
#include "sim/workload.hpp"

namespace {

using hetero::DimensionError;
using hetero::ValueError;
using hetero::core::EtcMatrix;
using hetero::linalg::Matrix;
using hetero::par::parallel_for;
using hetero::par::ThreadPool;
using hetero::sim::Engine;
using hetero::sim::make_scheduler;
using hetero::sim::parse_scenario;
using hetero::sim::Scenario;
using hetero::sim::scenario_from_etc;
using hetero::sim::ScenarioError;
using hetero::sim::scheduler_tokens;
using hetero::sim::SimArrival;
using hetero::sim::SimOptions;
using hetero::sim::SimReport;
using hetero::sim::SlaTier;

constexpr double kInf = std::numeric_limits<double>::infinity();

SimReport run_once(const Scenario& scenario, const std::string& token,
                   SimOptions options = {}) {
  const auto scheduler = make_scheduler(token);
  Engine engine(scenario, options);
  return engine.run(*scheduler);
}

// One machine, one core: energy is hand-computable.
constexpr const char* kSingle = R"(
machine class:
{
        Number of machines: 1
        CPU type: X86
        Number of cores: 1
        Memory: 1024
        S-States: [100, 5, 0]
        P-States: [10]
        C-States: [10, 2]
        MIPS: [1000]
        GPUs: no
}

task class:
{
        Start time: 0
        End time: 1
        Inter arrival: 10
        Expected runtime: 100000
        Memory: 512
        SLA type: SLA3
        CPU type: X86
        Seed: 0
}
)";

TEST(SimEngine, EnergyMatchesHandComputation) {
  const Scenario s = parse_scenario(kSingle);
  const SimReport r = run_once(s, "greedy_mct");
  EXPECT_EQ(r.tasks, 1u);
  EXPECT_EQ(r.completed, 1u);
  // The single task runs [0, 100000] us on the 1000-MIPS core at
  // P = S[0] + 1 * Pstate[0] + 0 * C[1] = 110 W for 0.1 s.
  EXPECT_DOUBLE_EQ(r.end_time, 100000.0);
  EXPECT_DOUBLE_EQ(r.total_energy_j, 11.0);
  EXPECT_DOUBLE_EQ(r.mean_flow_time, 100000.0);
  EXPECT_EQ(r.sla_completed[3], 1u);
  EXPECT_EQ(r.sla_violated[3], 0u);
  EXPECT_NE(r.trace_hash, 0u);
}

TEST(SimEngine, SlaViolationAgainstExpectedRuntimeMultiple) {
  // A 500-MIPS machine runs the 100000-us class in 200000 us: past the
  // 1.2x SLA0 deadline but within the 2.0x SLA2 one.
  std::string body(kSingle);
  body.replace(body.find("MIPS: [1000]"), 12, "MIPS: [500]");
  body.replace(body.find("SLA type: SLA3"), 14, "SLA type: SLA0");
  const SimReport r0 = run_once(parse_scenario(body), "greedy_mct");
  EXPECT_DOUBLE_EQ(r0.violation_rate(SlaTier::sla0), 1.0);

  body.replace(body.find("SLA type: SLA0"), 14, "SLA type: SLA2");
  const SimReport r2 = run_once(parse_scenario(body), "greedy_mct");
  EXPECT_DOUBLE_EQ(r2.violation_rate(SlaTier::sla2), 0.0);
  EXPECT_DOUBLE_EQ(r2.end_time, 200000.0);
}

TEST(SimEngine, PowerGatingSleepsIdleMachinesAndWakesOnDemand) {
  // Two arrivals 2 s apart; the idle window between them is harvested.
  std::string body(kSingle);
  body.replace(body.find("End time: 1\n"), 12, "End time: 2000001\n");
  body.replace(body.find("Inter arrival: 10\n"), 18,
               "Inter arrival: 2000000\n");
  body.replace(body.find("Expected runtime: 100000"), 24,
               "Expected runtime: 10000");
  const Scenario s = parse_scenario(body);

  const SimReport on = run_once(s, "greedy_mct",
                                {.power_gating = true});
  const SimReport off = run_once(s, "greedy_mct");
  ASSERT_EQ(on.completed, 2u);
  EXPECT_GE(on.sleep_transitions, 2u);  // one sleep, one wake
  EXPECT_GT(on.asleep_machine_seconds, 1.0);
  EXPECT_LT(on.total_energy_j, off.total_energy_j);
  // The second task pays the wake latency: it starts wake_latency after
  // its arrival and still completes.
  EXPECT_DOUBLE_EQ(on.end_time, 2000000.0 + 100000.0 + 10000.0);
  EXPECT_DOUBLE_EQ(off.end_time, 2000000.0 + 10000.0);
}

TEST(SimEngine, DvfsStepsDownUnderloadedMachines) {
  // One long task on a 4-core machine with a deep P-state ladder: DVFS
  // steps down each tick, stretching the completion.
  constexpr const char* kDvfs = R"(
machine class:
{
        Number of machines: 1
        CPU type: X86
        Number of cores: 4
        Memory: 1024
        S-States: [100, 5, 0]
        P-States: [10, 6, 3]
        C-States: [10, 2, 1]
        MIPS: [1000, 800, 500]
        GPUs: no
}

task class:
{
        Start time: 0
        End time: 1
        Inter arrival: 10
        Expected runtime: 200000
        Memory: 512
        SLA type: SLA3
        CPU type: X86
        Seed: 0
}
)";
  const Scenario s = parse_scenario(kDvfs);
  const SimReport dvfs = run_once(s, "greedy_mct", {.dvfs = true});
  const SimReport plain = run_once(s, "greedy_mct");
  EXPECT_GE(dvfs.p_state_changes, 2u);  // stepped to the deepest state
  EXPECT_GT(dvfs.end_time, plain.end_time);
  EXPECT_EQ(dvfs.completed, 1u);
}

TEST(SimEngine, EnginesAreOneShotAndTokensValidated) {
  const Scenario s = parse_scenario(kSingle);
  const auto scheduler = make_scheduler("greedy_mct");
  Engine engine(s);
  engine.run(*scheduler);
  const auto again = make_scheduler("greedy_mct");
  EXPECT_THROW(engine.run(*again), ValueError);
  EXPECT_THROW(make_scheduler("fastest_first"), ValueError);
  // Controllers need a tick to run at.
  EXPECT_THROW(Engine(s, {.tick_period = 0.0, .power_gating = true}),
               ValueError);
}

TEST(SimEngine, RuntimeMultiplierScalesExecution) {
  // A multiplier of 2 doubles the single task's runtime on the 1000-MIPS
  // core; a table of ones leaves every bit of the run unchanged.
  Scenario s = parse_scenario(kSingle);
  const SimReport plain = run_once(s, "greedy_mct");
  s.runtime_multiplier = Matrix{{1.0}};
  const SimReport ones = run_once(s, "greedy_mct");
  EXPECT_EQ(ones.trace_hash, plain.trace_hash);
  EXPECT_EQ(ones.total_energy_j, plain.total_energy_j);
  s.runtime_multiplier = Matrix{{2.0}};
  EXPECT_DOUBLE_EQ(hetero::sim::implied_etc(s)(0, 0), 200000.0);
  const SimReport doubled = run_once(s, "greedy_mct");
  EXPECT_DOUBLE_EQ(doubled.end_time, 200000.0);
}

// ---------------------------------------------------------------------------
// Equivalence-twin discipline (the sim_equiv label): repeated runs,
// thread counts, and the BatchEngine-backed adapters must all reproduce
// the cold schedulers' event traces bit for bit, on every shipped
// scenario.

std::vector<std::string> scenario_files() {
  const std::string dir = HETERO_SCENARIO_DIR;
  return {dir + "/burst_cycle.sim", dir + "/starvation.sim",
          dir + "/memory_overload.sim", dir + "/heterogeneous_mix.sim"};
}

void expect_same_run(const SimReport& a, const SimReport& b,
                     const std::string& what) {
  EXPECT_EQ(a.trace_hash, b.trace_hash) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.total_energy_j, b.total_energy_j) << what;  // bitwise
  EXPECT_EQ(a.end_time, b.end_time) << what;
  EXPECT_EQ(a.mean_flow_time, b.mean_flow_time) << what;
  for (std::size_t t = 0; t < hetero::sim::kSlaTierCount; ++t) {
    EXPECT_EQ(a.sla_violated[t], b.sla_violated[t]) << what;
  }
}

TEST(SimEquiv, RepeatedRunsReplayBitIdentically) {
  for (const std::string& path : scenario_files()) {
    const Scenario s = hetero::sim::load_scenario(path);
    for (const std::string_view token : scheduler_tokens()) {
      const SimReport a = run_once(s, std::string(token));
      const SimReport b = run_once(s, std::string(token));
      ASSERT_EQ(a.completed, a.tasks);
      EXPECT_GT(a.total_energy_j, 0.0);
      expect_same_run(a, b, path + " / " + std::string(token));
    }
  }
}

TEST(SimEquiv, BatchEngineAdaptersMatchColdTwins) {
  // The controllers change callback timing; the twins must agree with
  // them enabled too.
  const SimOptions plain;
  const SimOptions dynamic{.power_gating = true, .dvfs = true,
                           .migration = true};
  for (const std::string& path : scenario_files()) {
    const Scenario s = hetero::sim::load_scenario(path);
    for (const SimOptions& options : {plain, dynamic}) {
      const std::string tag =
          path + (options.power_gating ? " (controllers)" : "");
      expect_same_run(run_once(s, "min_min", options),
                      run_once(s, "batch_min_min", options), tag);
      expect_same_run(run_once(s, "max_min", options),
                      run_once(s, "batch_max_min", options), tag);
      expect_same_run(run_once(s, "sufferage", options),
                      run_once(s, "batch_sufferage", options), tag);
    }
  }
}

// Recorded bits across commits: an FNV-1a 64 digest of every run's
// trace_hash and total_energy_j bits, over every shipped scenario x the
// five scheduler tokens x {plain, power gating + DVFS + migration}. The
// twins above only compare runs within one build; this pins the traces
// themselves, so a planner rewrite that changes any commit, tie-break or
// energy bit fails here even if the cold and warm twins drift together.
TEST(SimGolden, SchedulerRunsMatchRecordedHashes) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto add = [&digest](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      digest ^= (x >> (8 * b)) & 0xffu;
      digest *= 0x100000001b3ULL;
    }
  };
  const SimOptions plain;
  const SimOptions dynamic{.power_gating = true, .dvfs = true,
                           .migration = true};
  for (const std::string& path : scenario_files()) {
    const Scenario s = hetero::sim::load_scenario(path);
    for (const char* token : {"greedy_mct", "min_min", "max_min",
                              "batch_min_min", "batch_max_min"}) {
      for (const SimOptions& options : {plain, dynamic}) {
        const SimReport r = run_once(s, token, options);
        ASSERT_EQ(r.completed, r.tasks) << path << " / " << token;
        add(r.trace_hash);
        add(std::bit_cast<std::uint64_t>(r.total_energy_j));
      }
    }
  }
  EXPECT_EQ(digest, 0xf3c437a76f564a95ULL) << std::hex << "digest 0x" << digest;
}

TEST(SimEquiv, ThreadCountDoesNotChangeResults) {
  // The engine is single-threaded by design; this asserts that N
  // concurrent simulations racing on a pool do not perturb each other
  // (no hidden shared state), for 1 vs 4 worker threads.
  const std::vector<std::string> files = scenario_files();
  const auto run_all = [&](std::size_t threads) {
    std::vector<SimReport> reports(files.size());
    ThreadPool pool(threads);
    parallel_for(pool, 0, files.size(), [&](std::size_t i) {
      const Scenario s = hetero::sim::load_scenario(files[i]);
      reports[i] = run_once(s, "batch_min_min", {.migration = true});
    });
    return reports;
  };
  const std::vector<SimReport> one = run_all(1);
  const std::vector<SimReport> four = run_all(4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    expect_same_run(one[i], four[i], files[i]);
  }
}

TEST(SimEquiv, MigrationControllerIsDeterministic) {
  // heterogeneous_mix under aggressive migration: the controller must
  // fire and the trace must still replay.
  const Scenario s =
      hetero::sim::load_scenario(scenario_files()[3]);
  const SimOptions options{.migration = true, .migration_gap = 2};
  const SimReport a = run_once(s, "greedy_mct", options);
  const SimReport b = run_once(s, "greedy_mct", options);
  EXPECT_GT(a.migrations, 0u);
  expect_same_run(a, b, "heterogeneous_mix migration");
}

// ---------------------------------------------------------------------------
// Imported ETC environments: scenario_from_etc turns any ETC matrix into a
// scenario of 1-core machines that runs it exactly, and explicit arrival
// lists drive the engine. The dynamic-mapping behaviours (immediate modes
// and batch mode) are asserted here on such runs.

// One-shot run of `token` over explicit arrivals on scenario_from_etc(etc),
// with the machine each task ran on (by task id) read off the trace.
struct EtcRun {
  SimReport report;
  std::vector<std::size_t> machine;
};

EtcRun run_etc(const EtcMatrix& etc, std::vector<SimArrival> arrivals,
               const std::string& token) {
  const Scenario s = scenario_from_etc(etc);
  Engine engine(s, std::move(arrivals),
                {.tick_period = 0.0, .record_trace = true});
  EtcRun out{engine.run(*make_scheduler(token)), {}};
  out.machine.resize(out.report.tasks);
  for (const hetero::sim::TraceRecord& rec : out.report.trace) {
    if (rec.kind == hetero::sim::TraceKind::completion) {
      out.machine[rec.a] = rec.b;
    }
  }
  return out;
}

std::vector<SimArrival> poisson(const EtcMatrix& etc, double rate,
                                std::size_t count,
                                hetero::etcgen::Rng& rng) {
  hetero::sim::WorkloadOptions w;
  w.base_rate = rate;
  return hetero::sim::generate_workload(etc, w, count, rng);
}

EtcMatrix two_machines() {
  // Machine 2 twice as fast.
  return EtcMatrix(Matrix{{4, 2}, {8, 4}});
}

TEST(SimEquiv, ScenarioFromEtcRoundTripsBraunSuite) {
  // Every Braun category, with a scattered +inf pattern that keeps a
  // finite entry in each row and column, comes back bit for bit.
  hetero::etcgen::BraunSuiteOptions opts;
  opts.tasks = 24;
  opts.machines = 6;
  for (const auto& c : hetero::etcgen::braun_suite(opts)) {
    Matrix values = c.etc.values();
    for (std::size_t i = 0; i < values.rows(); ++i) {
      for (std::size_t j = 0; j < values.cols(); ++j) {
        if ((i * 7 + j * 3) % 5 == 0 && j != i % values.cols()) {
          values(i, j) = kInf;
        }
      }
    }
    const EtcMatrix etc(values);
    const Scenario s = scenario_from_etc(etc);
    const EtcMatrix by_instance = hetero::sim::instance_etc(s);
    const EtcMatrix by_class = hetero::sim::implied_etc(s);
    ASSERT_EQ(by_instance.task_count(), etc.task_count()) << c.name;
    ASSERT_EQ(by_instance.machine_count(), etc.machine_count()) << c.name;
    for (std::size_t i = 0; i < etc.task_count(); ++i) {
      for (std::size_t j = 0; j < etc.machine_count(); ++j) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(by_instance(i, j)),
                  std::bit_cast<std::uint64_t>(etc(i, j)))
            << c.name << " (" << i << ", " << j << ")";
        EXPECT_EQ(std::bit_cast<std::uint64_t>(by_class(i, j)),
                  std::bit_cast<std::uint64_t>(etc(i, j)))
            << c.name << " (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(SimEquiv, RuntimeMultipliersAreValidated) {
  Scenario s = scenario_from_etc(two_machines());
  s.runtime_multiplier = Matrix{{1, 2}};  // one row short
  EXPECT_THROW(hetero::sim::instance_etc(s), DimensionError);
  EXPECT_THROW(Engine(s, std::vector<SimArrival>{}), DimensionError);
  for (const double bad :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    s.runtime_multiplier = Matrix{{1, 2}, {3, bad}};
    EXPECT_THROW(hetero::sim::implied_etc(s), ScenarioError) << bad;
    EXPECT_THROW(Engine(s, std::vector<SimArrival>{}), ScenarioError) << bad;
  }
  // +inf means "cannot run": MET's favourite machine for class 0 is
  // ruled out, so the task runs on m0.
  s.runtime_multiplier = Matrix{{1, kInf}, {1, 1}};
  Engine engine(s, {{0.0, 0}}, {.tick_period = 0.0, .record_trace = true});
  EXPECT_TRUE(std::isinf(engine.etc()(0, 1)));
  const SimReport r = engine.run(*make_scheduler("met"));
  ASSERT_EQ(r.completed, 1u);
  EXPECT_EQ(r.trace.back().kind, hetero::sim::TraceKind::completion);
  EXPECT_EQ(r.trace.back().b, 0u);
}

TEST(SimEquiv, InfiniteMultiplierCountsAsIncompatibleInValidation) {
  // A parsed scenario whose only machine class an infinite multiplier
  // rules out runs nowhere: implied_etc refuses it like a CPU mismatch.
  Scenario s = parse_scenario(kSingle);
  s.runtime_multiplier = Matrix{{kInf}};
  EXPECT_THROW(hetero::sim::implied_etc(s), ValueError);
}

TEST(Dynamic, EmptyArrivals) {
  const EtcRun r = run_etc(two_machines(), {}, "greedy_mct");
  EXPECT_EQ(r.report.tasks, 0u);
  EXPECT_EQ(r.report.end_time, 0.0);
  EXPECT_EQ(r.report.mean_flow_time, 0.0);
}

TEST(Dynamic, ValidatesInputs) {
  // Explicit arrivals: finite, >= 0, non-decreasing times and in-range
  // task classes.
  const Scenario s = scenario_from_etc(two_machines());
  const auto make = [&s](std::vector<SimArrival> arrivals) {
    Engine engine(s, std::move(arrivals), {.tick_period = 0.0});
  };
  EXPECT_NO_THROW(make({{0.0, 0}, {0.0, 1}, {2.0, 0}}));
  EXPECT_THROW(make({{-1.0, 0}}), ValueError);
  EXPECT_THROW(make({{kInf, 0}}), ValueError);
  EXPECT_THROW(make({{std::numeric_limits<double>::quiet_NaN(), 0}}),
               ValueError);
  EXPECT_THROW(make({{2.0, 0}, {1.0, 0}}), ValueError);
  EXPECT_THROW(make({{0.0, 9}}), ValueError);
}

TEST(Dynamic, SingleTaskMctPicksFastMachine) {
  const EtcRun r = run_etc(two_machines(), {{1.0, 0}}, "greedy_mct");
  EXPECT_EQ(r.machine[0], 1u);
  EXPECT_DOUBLE_EQ(r.report.end_time, 3.0);        // starts at 1, runs 2
  EXPECT_DOUBLE_EQ(r.report.mean_flow_time, 2.0);  // completion - arrival
}

TEST(Dynamic, MctQueuesConsideringBusyMachines) {
  // Two type-0 tasks at t=0: the first goes to m2 (CT 2); the second
  // compares m1 (CT 4) with m2 queued (CT 4) and the tie goes to m1.
  const EtcRun r =
      run_etc(two_machines(), {{0.0, 0}, {0.0, 0}}, "greedy_mct");
  EXPECT_EQ(r.machine[0], 1u);
  EXPECT_EQ(r.machine[1], 0u);
  EXPECT_DOUBLE_EQ(r.report.end_time, 4.0);
}

TEST(Dynamic, MetIgnoresQueues) {
  const EtcRun r =
      run_etc(two_machines(), {{0.0, 0}, {0.0, 0}, {0.0, 0}}, "met");
  for (const std::size_t j : r.machine) EXPECT_EQ(j, 1u);
  EXPECT_DOUBLE_EQ(r.report.end_time, 6.0);  // all serialized on m2
}

TEST(Dynamic, OlbBalancesBlindly) {
  // First -> m1 (both free, lowest index), second -> m2, although m1 is
  // the slow machine: OLB never looks at the ETC.
  const EtcRun r = run_etc(two_machines(), {{0.0, 0}, {0.0, 0}}, "olb");
  EXPECT_EQ(r.machine[0], 0u);
  EXPECT_EQ(r.machine[1], 1u);
}

TEST(Dynamic, KpbRestrictsToBestMachines) {
  // Three machines: ETC 10, 1, 1.05 for the only type. KPB keeps the best
  // ceil(50% of 3) = 2, so the slow machine is excluded even when idle.
  const EtcMatrix etc(Matrix{{10, 1, 1.05}});
  const EtcRun r = run_etc(etc, {{0.0, 0}, {0.0, 0}, {0.0, 0}}, "kpb");
  for (const std::size_t j : r.machine) EXPECT_NE(j, 0u);
}

TEST(Dynamic, KpbMatchesMctWhenTheWorseHalfNeverWins) {
  // Machines 0-1 run every type in [1, 2]; machines 2-3 take >= 50. At
  // this load MCT never reaches the slow half, so KPB's best-half
  // restriction changes nothing.
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(71);
  Matrix values(6, 4);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      values(i, j) = (j < 2 ? 1.0 : 50.0) +
                     hetero::etcgen::uniform(rng, 0.0, 1.0);
    }
  }
  const EtcMatrix etc(values);
  const auto arrivals = poisson(etc, 0.5, 30, rng);
  const EtcRun a = run_etc(etc, arrivals, "kpb");
  const EtcRun b = run_etc(etc, arrivals, "greedy_mct");
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_EQ(a.report.trace_hash, b.report.trace_hash);
}

TEST(Dynamic, RespectsIncapableMachines) {
  const EtcMatrix etc(Matrix{{1, kInf}, {kInf, 1}});
  for (const char* token :
       {"olb", "met", "greedy_mct", "kpb", "switching", "batch_min_min",
        "batch_sufferage"}) {
    const EtcRun r = run_etc(etc, {{0.0, 0}, {0.0, 1}}, token);
    EXPECT_EQ(r.machine[0], 0u) << token;
    EXPECT_EQ(r.machine[1], 1u) << token;
    EXPECT_DOUBLE_EQ(r.report.end_time, 1.0) << token;
  }
}

TEST(Dynamic, UnsortedArrivalsHandled) {
  // The engine takes arrivals in time order and rejects anything else;
  // a stable sort by time reproduces the sorted run exactly.
  std::vector<SimArrival> shuffled{{5.0, 0}, {0.0, 0}, {2.0, 1}};
  const std::vector<SimArrival> sorted{{0.0, 0}, {2.0, 1}, {5.0, 0}};
  EXPECT_THROW(run_etc(two_machines(), shuffled, "greedy_mct"), ValueError);
  std::stable_sort(shuffled.begin(), shuffled.end(),
                   [](const SimArrival& x, const SimArrival& y) {
                     return x.time < y.time;
                   });
  const EtcRun a = run_etc(two_machines(), shuffled, "greedy_mct");
  const EtcRun b = run_etc(two_machines(), sorted, "greedy_mct");
  EXPECT_EQ(a.report.trace_hash, b.report.trace_hash);
  EXPECT_DOUBLE_EQ(a.report.mean_flow_time, b.report.mean_flow_time);
}

TEST(Dynamic, FlowTimeByHand) {
  // One machine: ETC = 3. Arrivals at 0 and 1. Completions 3 and 6.
  const EtcRun r =
      run_etc(EtcMatrix(Matrix{{3}}), {{0.0, 0}, {1.0, 0}}, "greedy_mct");
  EXPECT_DOUBLE_EQ(r.report.end_time, 6.0);
  EXPECT_DOUBLE_EQ(r.report.mean_flow_time, (3.0 + 5.0) / 2.0);
  EXPECT_DOUBLE_EQ(r.report.max_flow_time, 5.0);
}

TEST(Dynamic, PoissonArrivalsShape) {
  // Poisson arrivals are the constant-rate workload model.
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(73);
  const auto arrivals = poisson(two_machines(), 2.0, 100, rng);
  ASSERT_EQ(arrivals.size(), 100u);
  for (std::size_t k = 1; k < arrivals.size(); ++k)
    EXPECT_GE(arrivals[k].time, arrivals[k - 1].time);
  for (const auto& a : arrivals) EXPECT_LT(a.task_class, 2u);
  // Mean inter-arrival ~ 1/rate.
  EXPECT_NEAR(arrivals.back().time / 100.0, 0.5, 0.2);
  EXPECT_THROW(poisson(two_machines(), 0.0, 1, rng), ValueError);
}

TEST(Dynamic, SwitchingHasHysteresis) {
  static_assert(0.0 <= hetero::sim::kSwitchLow &&
                hetero::sim::kSwitchLow < hetero::sim::kSwitchHigh &&
                hetero::sim::kSwitchHigh <= 1.0);
  // A burst at t=0: tasks 0-1 of type A (ETC 10 on both machines), then
  // tasks 2-27 of type B (ETC 1 on m0, 3 on m1). Task 0 sees an empty,
  // balanced system (MET, tie -> m0); task 1 sees balance 0 (MCT -> m1).
  // Task k >= 2 then sees backlogs (8 + k, 10) while MET keeps piling B
  // onto m0.
  const EtcMatrix etc(Matrix{{10, 10}, {1, 3}});
  std::vector<SimArrival> burst{{0.0, 0}, {0.0, 0}};
  for (int k = 0; k < 26; ++k) burst.push_back({0.0, 1});
  const EtcRun r = run_etc(etc, burst, "switching");
  EXPECT_EQ(r.machine[0], 0u);
  EXPECT_EQ(r.machine[1], 1u);
  // Task 7 sees balance 10/15, between the thresholds: coming from MET it
  // stays on MET's m0, although MCT would take m1 (CT 13 vs 16). So does
  // task 25 at 10/33.
  EXPECT_EQ(r.machine[7], 0u);
  EXPECT_EQ(r.machine[25], 0u);
  // Task 26 sees 10/34 < kSwitchLow and flips to MCT (m1). Task 27 sees
  // 13/34, back between the thresholds, and stays in MCT on m1 although
  // MET would take m0.
  EXPECT_EQ(r.machine[26], 1u);
  EXPECT_EQ(r.machine[27], 1u);
}

TEST(Dynamic, SwitchingStartsBalancedInMet) {
  // An empty system is perfectly balanced (index 1 > high threshold), so
  // the first task is mapped by MET: fastest machine regardless of queues.
  const EtcRun r = run_etc(two_machines(), {{0.0, 0}}, "switching");
  EXPECT_EQ(r.machine[0], 1u);
}

TEST(Dynamic, SwitchingFallsBackToMctUnderImbalance) {
  // Burst of identical tasks: pure MET serializes everything on m2
  // (makespan 2 * n), while switching must flip to MCT once m2's backlog
  // grows and spread the load.
  const std::vector<SimArrival> burst(10, SimArrival{0.0, 0});
  const EtcRun sw = run_etc(two_machines(), burst, "switching");
  const EtcRun met = run_etc(two_machines(), burst, "met");
  EXPECT_LT(sw.report.end_time, met.report.end_time);
  // Both machines must have been used.
  EXPECT_NE(std::count(sw.machine.begin(), sw.machine.end(), 0u), 0);
  EXPECT_NE(std::count(sw.machine.begin(), sw.machine.end(), 1u), 0);
}

TEST(Dynamic, SwitchingBetweenMetAndMctEnvelope) {
  // A sparse arrival pattern where MET and MCT coincide: switching must
  // match them.
  const std::vector<SimArrival> sparse{{0.0, 0}, {100.0, 1}, {200.0, 0}};
  const EtcRun sw = run_etc(two_machines(), sparse, "switching");
  const EtcRun mct = run_etc(two_machines(), sparse, "greedy_mct");
  EXPECT_DOUBLE_EQ(sw.report.end_time, mct.report.end_time);
}

TEST(DynamicBatch, SingleArrivalMatchesImmediate) {
  const EtcRun a = run_etc(two_machines(), {{0.5, 1}}, "batch_min_min");
  const EtcRun b = run_etc(two_machines(), {{0.5, 1}}, "greedy_mct");
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_DOUBLE_EQ(a.report.end_time, b.report.end_time);
}

TEST(DynamicBatch, RemapsQueuedWork) {
  // t=0: a long type-1 task -> m2 (CT 4 vs 8); it starts at once, so it
  // cannot be remapped when a type-0 task arrives at t=0.5, which must
  // weave around it: m1 idle (CT 4.5) beats m2 busy until 4 (CT 6).
  const EtcRun r =
      run_etc(two_machines(), {{0.0, 1}, {0.5, 0}}, "batch_min_min");
  EXPECT_EQ(r.machine[0], 1u);
  EXPECT_EQ(r.machine[1], 0u);
  EXPECT_DOUBLE_EQ(r.report.end_time, 4.5);
}

TEST(DynamicBatch, BeatsImmediateMetOnBursts) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(79);
  hetero::etcgen::RangeBasedOptions gopts;
  gopts.tasks = 8;
  gopts.machines = 4;
  gopts.machine_range = 10.0;
  const auto etc = hetero::etcgen::generate_range_based(gopts, rng);
  // A burst: everything arrives at once.
  std::vector<SimArrival> burst;
  for (std::size_t k = 0; k < 24; ++k)
    burst.push_back({0.0, k % etc.task_count()});
  const EtcRun batch = run_etc(etc, burst, "batch_min_min");
  const EtcRun met = run_etc(etc, burst, "met");
  EXPECT_LE(batch.report.end_time, met.report.end_time + 1e-9);
}

TEST(DynamicBatch, BurstEquivalentToStaticMinMinMakespan) {
  // Each arrival of a burst is planned (and the first started) before the
  // next same-instant arrival is seen; here the first task's choice
  // agrees with static Min-Min, so the burst reproduces its makespan.
  const EtcMatrix etc(Matrix{{10, 2}, {1, 9}});
  const EtcRun dynamic = run_etc(etc, {{0.0, 0}, {0.0, 1}}, "batch_min_min");
  const double static_ms = hetero::sched::makespan(
      etc, {0, 1}, hetero::sched::map_min_min(etc, {0, 1}));
  EXPECT_DOUBLE_EQ(dynamic.report.end_time, static_ms);
}

TEST(DynamicBatch, DrainsEverything) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(83);
  const auto etc = two_machines();
  const EtcRun r = run_etc(etc, poisson(etc, 1.0, 50, rng), "batch_min_min");
  ASSERT_EQ(r.report.completed, 50u);
  EXPECT_GT(r.report.end_time, 0.0);
  EXPECT_GT(r.report.mean_flow_time, 0.0);
  EXPECT_GE(r.report.max_flow_time, r.report.mean_flow_time);
}

TEST(DynamicBatch, SufferageMatchesMinMinOnTrivialCases) {
  const EtcRun a = run_etc(two_machines(), {{0.0, 0}}, "batch_sufferage");
  const EtcRun b = run_etc(two_machines(), {{0.0, 0}}, "batch_min_min");
  EXPECT_EQ(a.machine, b.machine);
}

TEST(DynamicBatch, SufferagePrioritizesHighSufferageTask) {
  // Two blockers (type 2) hold both machines over [0, 1]. At t=0.5 a
  // type-0 task (2 vs 3) and a type-1 task (3 vs 20) queue up. Sufferage
  // gives m0 to type 1, which suffers most without it (gap 17 vs 1), and
  // finishes at 4; Min-Min takes type 0's smaller completion time first
  // and stacks both on m0, finishing at 6.
  const EtcMatrix etc(Matrix{{2, 3}, {3, 20}, {1, 1}});
  const std::vector<SimArrival> arrivals{
      {0.0, 2}, {0.0, 2}, {0.5, 0}, {0.5, 1}};
  const EtcRun suff = run_etc(etc, arrivals, "batch_sufferage");
  EXPECT_EQ(suff.machine[3], 0u);
  EXPECT_EQ(suff.machine[2], 1u);
  EXPECT_DOUBLE_EQ(suff.report.end_time, 4.0);
  const EtcRun minmin = run_etc(etc, arrivals, "batch_min_min");
  EXPECT_EQ(minmin.machine[2], 0u);
  EXPECT_EQ(minmin.machine[3], 0u);
  EXPECT_DOUBLE_EQ(minmin.report.end_time, 6.0);
}

TEST(DynamicBatch, SufferageDrainsPoissonLoad) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(91);
  const auto etc = two_machines();
  const EtcRun r =
      run_etc(etc, poisson(etc, 0.5, 40, rng), "batch_sufferage");
  ASSERT_EQ(r.report.completed, 40u);
  EXPECT_TRUE(std::isfinite(r.report.end_time));
  EXPECT_GT(r.report.mean_flow_time, 0.0);
}

TEST(DynamicBatch, LighterLoadLowersFlowTime) {
  hetero::etcgen::Rng rng1 = hetero::etcgen::make_rng(89);
  hetero::etcgen::Rng rng2 = hetero::etcgen::make_rng(89);
  const auto etc = two_machines();
  const EtcRun heavy =
      run_etc(etc, poisson(etc, 2.0, 60, rng1), "batch_min_min");
  const EtcRun light =
      run_etc(etc, poisson(etc, 0.1, 60, rng2), "batch_min_min");
  EXPECT_LT(light.report.mean_flow_time, heavy.report.mean_flow_time);
}

// Warm-start equivalence on imported ETCs: each BatchEngine-backed token
// keeps its cached decisions across the engine's arrival and completion
// events and must reproduce its cold twin, which re-plans from scratch,
// bit for bit.
void expect_warm_matches_cold(const EtcMatrix& etc,
                              const std::vector<SimArrival>& arrivals) {
  for (const auto& [cold, warm] :
       {std::pair{"min_min", "batch_min_min"},
        std::pair{"max_min", "batch_max_min"},
        std::pair{"sufferage", "batch_sufferage"}}) {
    const EtcRun a = run_etc(etc, arrivals, cold);
    const EtcRun b = run_etc(etc, arrivals, warm);
    ASSERT_EQ(a.report.completed, arrivals.size()) << cold;
    EXPECT_EQ(a.machine, b.machine) << warm;
    expect_same_run(a.report, b.report, warm);
  }
}

TEST(DynamicBatchEquivalence, PoissonLoadMatchesColdReference) {
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(101);
  hetero::etcgen::RangeBasedOptions gopts;
  gopts.tasks = 10;
  gopts.machines = 6;
  const auto etc = hetero::etcgen::generate_range_based(gopts, rng);
  expect_warm_matches_cold(etc, poisson(etc, 1.5, 200, rng));
}

TEST(DynamicBatchEquivalence, BurstyArrivalsMatchColdReference) {
  // Simultaneous arrivals keep large pending sets alive across events —
  // the regime where the warm cache does the most work.
  hetero::etcgen::Rng rng = hetero::etcgen::make_rng(103);
  hetero::etcgen::RangeBasedOptions gopts;
  gopts.tasks = 8;
  gopts.machines = 4;
  const auto etc = hetero::etcgen::generate_range_based(gopts, rng);
  std::vector<SimArrival> arrivals;
  for (std::size_t wave = 0; wave < 6; ++wave)
    for (std::size_t k = 0; k < 20; ++k)
      arrivals.push_back({static_cast<double>(wave) * 3.0, k % 8});
  expect_warm_matches_cold(etc, arrivals);
}

TEST(DynamicBatchEquivalence, IncapableMachinesMatchColdReference) {
  const EtcMatrix etc(Matrix{{1, kInf, 4}, {kInf, 1, 5}, {2, 2, kInf}});
  std::vector<SimArrival> arrivals;
  for (std::size_t k = 0; k < 60; ++k)
    arrivals.push_back(
        {static_cast<double>(k) * 0.3, k % etc.task_count()});
  expect_warm_matches_cold(etc, arrivals);
}

}  // namespace
