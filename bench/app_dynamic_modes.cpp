// Application study: immediate-mode vs batch-mode dynamic mapping across
// heterogeneity regimes. Extends the paper's application (b) from static
// batches to arrival-driven workloads: the measures predict when
// sophisticated (batch) mapping pays off. Each generated ETC runs on
// sim::Engine through scenario_from_etc, with explicit Poisson arrivals.
#include <iostream>

#include "core/measures.hpp"
#include "etcgen/range_based.hpp"
#include "io/table.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/workload.hpp"

int main() {
  using hetero::io::format_fixed;
  namespace eg = hetero::etcgen;
  namespace sim = hetero::sim;

  std::cout << "Immediate vs batch dynamic mapping by heterogeneity regime\n"
               "(8 task types x 4 machines, 80 Poisson arrivals, mean flow "
               "time normalized by OLB)\n\n";

  hetero::io::Table t({"regime", "MPH", "TMA", "OLB", "MET", "MCT",
                       "KPB(50%)", "Switching", "batch Min-Min",
                       "batch Sufferage"});
  eg::Rng rng = eg::make_rng(4242);
  struct Regime {
    const char* name;
    double task_range, machine_range;
    eg::Consistency consistency;
  };
  const Regime regimes[] = {
      {"homogeneous machines", 20.0, 1.3, eg::Consistency::inconsistent},
      {"hetero, consistent", 20.0, 15.0, eg::Consistency::consistent},
      {"hetero, inconsistent", 20.0, 15.0, eg::Consistency::inconsistent},
      {"extreme heterogeneity", 100.0, 60.0, eg::Consistency::inconsistent},
  };

  for (const Regime& regime : regimes) {
    eg::RangeBasedOptions opts;
    opts.tasks = 8;
    opts.machines = 4;
    opts.task_range = regime.task_range;
    opts.machine_range = regime.machine_range;
    opts.consistency = regime.consistency;
    const auto etc = eg::generate_range_based(opts, rng);
    const auto m = hetero::core::measure_set(etc.to_ecs());

    // Arrival rate scaled to keep the system moderately loaded.
    double mean_best = 0.0;
    for (std::size_t i = 0; i < etc.task_count(); ++i) {
      double best = etc(i, 0);
      for (std::size_t j = 1; j < etc.machine_count(); ++j)
        best = std::min(best, etc(i, j));
      mean_best += best;
    }
    mean_best /= static_cast<double>(etc.task_count());
    sim::WorkloadOptions workload;
    workload.base_rate =
        0.7 * static_cast<double>(etc.machine_count()) / mean_best;
    const auto arrivals = sim::generate_workload(etc, workload, 80, rng);

    const sim::Scenario scenario = sim::scenario_from_etc(etc);
    const auto mean_flow = [&](const char* token) {
      sim::Engine engine(scenario, arrivals, {.tick_period = 0.0});
      return engine.run(*sim::make_scheduler(token)).mean_flow_time;
    };
    const double olb = mean_flow("olb");
    const auto norm = [&](const char* token) {
      return format_fixed(mean_flow(token) / olb, 3);
    };
    t.add_row({regime.name, format_fixed(m.mph, 2), format_fixed(m.tma, 2),
               "1.000", norm("met"), norm("greedy_mct"), norm("kpb"),
               norm("switching"), norm("batch_min_min"),
               norm("batch_sufferage")});
  }
  t.print(std::cout);
  std::cout << "\nExpected shape: in homogeneous regimes OLB is already "
               "fine; as MPH drops, execution-time-aware\nmodes (MCT, KPB, "
               "batch) win by widening margins, and MET collapses whenever "
               "one machine\ndominates (consistent case).\n";
  return 0;
}
