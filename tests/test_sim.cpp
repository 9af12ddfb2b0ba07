#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "sim/scenario.hpp"
#include "sim/scheduler.hpp"

namespace {

using hetero::ValueError;
using hetero::par::parallel_for;
using hetero::par::ThreadPool;
using hetero::sim::Engine;
using hetero::sim::make_scheduler;
using hetero::sim::parse_scenario;
using hetero::sim::Scenario;
using hetero::sim::scheduler_tokens;
using hetero::sim::SimOptions;
using hetero::sim::SimReport;
using hetero::sim::SlaTier;

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

}  // namespace
