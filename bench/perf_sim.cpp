// Simulator performance: full discrete-event runs over the shipped
// scenarios, per scheduler. The interesting spread is cold O(U^2 M)
// batch replanning (min_min / max_min / sufferage, the re-planner of
// hetero_reference) against the incremental BatchEngine adapters
// (batch_*) and immediate-mode greedy_mct — same traces (sim_equiv),
// different planning cost.
//
// Custom main: --scenario=<path> replaces the default scenario-suite
// sweep (used by run_benchmarks.sh SCENARIO= passthrough). Scenario
// files default to the repo's scenarios/ directory, overridable with
// HETERO_SCENARIO_DIR in the environment.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "reference/cold_batch.hpp"
#include "sim/engine.hpp"
#include "sim/scenario.hpp"
#include "sim/scheduler.hpp"

namespace {

namespace sim = hetero::sim;

std::string stem_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  return name;
}

// Scenarios are parsed once per registered benchmark and shared across
// iterations; each iteration constructs a fresh one-shot Engine.
std::vector<sim::Scenario>& scenario_pool() {
  static std::vector<sim::Scenario> pool;
  return pool;
}

void run_sim(benchmark::State& state, std::size_t scenario_index,
             const std::string& token, bool controllers) {
  const sim::Scenario& scenario = scenario_pool()[scenario_index];
  sim::SimOptions options;
  options.power_gating = controllers;
  options.migration = controllers;
  std::size_t events = 0;
  double energy = 0.0;
  for (auto _ : state) {
    const auto scheduler = sim::reference::make_scheduler_or_cold(token);
    sim::Engine engine(scenario, options);
    const sim::SimReport report = engine.run(*scheduler);
    events = report.events;
    energy = report.total_energy_j;
    benchmark::DoNotOptimize(report.trace_hash);
  }
  state.counters["events"] = static_cast<double>(events);
  state.counters["energy_j"] = energy;
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void register_scenario(const std::string& path) {
  scenario_pool().push_back(sim::load_scenario(path));
  const std::size_t index = scenario_pool().size() - 1;
  const std::string stem = stem_of(path);
  std::vector<std::string> tokens = {"min_min", "max_min", "sufferage"};
  for (const std::string_view token : sim::scheduler_tokens())
    tokens.emplace_back(token);
  for (const std::string& token : tokens) {
    benchmark::RegisterBenchmark(
        ("BM_Sim/" + stem + "/" + token).c_str(),
        [index, token](benchmark::State& state) {
          run_sim(state, index, token, /*controllers=*/false);
        })
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark(
      ("BM_Sim/" + stem + "/batch_min_min+controllers").c_str(),
      [index](benchmark::State& state) {
        run_sim(state, index, "batch_min_min", /*controllers=*/true);
      })
      ->Unit(benchmark::kMillisecond);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scenario=", 11) == 0) {
      paths.emplace_back(argv[i] + 11);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (paths.empty()) {
    const char* env = std::getenv("HETERO_SCENARIO_DIR");
    const std::string dir = env ? env : HETERO_SCENARIO_DIR;
    for (const char* stem : {"burst_cycle", "starvation", "memory_overload",
                             "heterogeneous_mix"}) {
      paths.push_back(dir + "/" + stem + ".sim");
    }
  }
  try {
    for (const std::string& path : paths) register_scenario(path);
  } catch (const std::exception& e) {
    std::cerr << "perf_sim: " << e.what() << '\n';
    return 2;
  }

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
