// Application study: does heterogeneity interact with workload burstiness?
// Crosses two environments (near-homogeneous vs heterogeneous/affine) with
// three arrival processes (steady, diurnal, bursty) and reports mean flow
// time for availability-blind MET vs completion-time MCT vs batch Min-Min.
// Bursts are where mapping quality matters most: backlog forms and the
// gap between policies widens. Each environment runs on sim::Engine
// through scenario_from_etc, with the workload model's arrivals.
#include <iostream>

#include "core/measures.hpp"
#include "etcgen/target_measures.hpp"
#include "io/table.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/workload.hpp"

int main() {
  using hetero::io::format_fixed;
  namespace eg = hetero::etcgen;
  namespace sim = hetero::sim;

  hetero::par::ThreadPool pool;
  const auto make_env = [&](double mph, double tma, std::uint64_t seed) {
    eg::TargetGenOptions opts;
    opts.tasks = 10;
    opts.machines = 5;
    opts.seed = seed;
    opts.anneal_iterations = 9000;
    opts.restarts = 2;
    opts.tolerance = 0.02;
    opts.scale = 0.01;  // runtimes in the hundreds of seconds
    opts.pool = &pool;
    return eg::generate_with_measures({mph, 0.8, tma}, opts).ecs.to_etc();
  };

  struct Env {
    const char* name;
    hetero::core::EtcMatrix etc;
  };
  const Env envs[] = {{"homogeneous (MPH .95, TMA .03)",
                       make_env(0.95, 0.03, 11)},
                      {"heterogeneous (MPH .45, TMA .25)",
                       make_env(0.45, 0.25, 22)}};

  std::cout << "Heterogeneity x burstiness (200 arrivals, mean flow time in "
               "seconds)\n\n";
  hetero::io::Table t({"environment", "workload", "MET", "MCT",
                       "batch Min-Min"});
  eg::Rng rng = eg::make_rng(777);
  for (const auto& env : envs) {
    // Load the machines at ~60% of capacity.
    double mean_best = 0.0;
    for (std::size_t i = 0; i < env.etc.task_count(); ++i) {
      double best = env.etc(i, 0);
      for (std::size_t j = 1; j < env.etc.machine_count(); ++j)
        best = std::min(best, env.etc(i, j));
      mean_best += best;
    }
    mean_best /= static_cast<double>(env.etc.task_count());
    const double rate =
        0.6 * static_cast<double>(env.etc.machine_count()) / mean_best;

    const sim::Scenario scenario = sim::scenario_from_etc(env.etc);
    for (const auto& [label, shape] :
         {std::pair{"steady", sim::RateShape::constant},
          std::pair{"diurnal", sim::RateShape::diurnal},
          std::pair{"bursty", sim::RateShape::bursty}}) {
      sim::WorkloadOptions w;
      w.base_rate = rate;
      w.shape = shape;
      w.diurnal_amplitude = 0.8;
      w.diurnal_period = 40.0 * mean_best;
      w.burst_factor = 6.0;
      w.mean_normal_duration = 30.0 * mean_best;
      w.mean_burst_duration = 5.0 * mean_best;
      const auto arrivals = sim::generate_workload(env.etc, w, 200, rng);
      const auto mean_flow = [&](const char* token) {
        sim::Engine engine(scenario, arrivals, {.tick_period = 0.0});
        return format_fixed(
            engine.run(*sim::make_scheduler(token)).mean_flow_time, 0);
      };
      t.add_row({env.name, label, mean_flow("met"), mean_flow("greedy_mct"),
                 mean_flow("batch_min_min")});
    }
  }
  t.print(std::cout);
  std::cout << "\nExpected shape: bursty and diurnal peaks build backlog, "
               "amplifying the penalty of\navailability-blind MET — most "
               "severely in the heterogeneous environment.\n";
  return 0;
}
