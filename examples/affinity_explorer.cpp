// Example: dig into *where* an environment's affinity lives.
// Combines four analysis tools on the SPEC CFP environment:
//   1. affinity modes (which tasks prefer which machines),
//   2. machine clustering by column angle,
//   3. the extreme-extract atlas (worst/best sub-environments),
//   4. bootstrap confidence intervals (how stable the numbers are).
#include <iostream>

#include "core/clustering.hpp"
#include "core/confidence.hpp"
#include "core/extracts.hpp"
#include "core/svd_analysis.hpp"
#include "io/table.hpp"
#include "spec/spec_data.hpp"

int main() {
  using hetero::io::format_fixed;
  namespace core = hetero::core;

  const auto& etc = hetero::spec::spec_cfp2006rate();
  const auto ecs = etc.to_ecs();

  // 1. Affinity modes.
  const auto analysis = core::affinity_analysis(ecs, {}, 2);
  std::cout << "SPEC CFP2006Rate affinity analysis (TMA = "
            << format_fixed(analysis.tma, 3) << ")\n\n"
            << core::describe_strongest_mode(analysis) << "\n\n";

  // 2. Machine classes by column angle.
  const auto clusters = core::cluster_machines(ecs, 2);
  std::cout << "machine classes (k = 2, cosine linkage):\n";
  for (std::size_t c = 0; c < clusters.cluster_count; ++c) {
    std::cout << "  class " << c << ": ";
    bool first = true;
    for (std::size_t j = 0; j < ecs.machine_count(); ++j)
      if (clusters.cluster[j] == c) {
        std::cout << (first ? "" : ", ") << ecs.machine_names()[j];
        first = false;
      }
    std::cout << '\n';
  }
  std::cout << "  within-class cosine "
            << format_fixed(clusters.within_cosine, 3) << ", between "
            << format_fixed(clusters.between_cosine, 3) << "\n\n";

  // 3. Extreme extracts (Fig. 8, automated).
  const auto atlas = core::extract_atlas(ecs);
  const auto show = [&](const char* what, const core::Extract& e,
                        double value) {
    std::cout << "  " << what << " = " << format_fixed(value, 2) << " at {"
              << ecs.task_names()[e.tasks[0]] << ", "
              << ecs.task_names()[e.tasks[1]] << "} x {"
              << ecs.machine_names()[e.machines[0]] << ", "
              << ecs.machine_names()[e.machines[1]] << "}\n";
  };
  std::cout << "extreme 2x2 extracts (" << atlas.scored << " scored):\n";
  show("max TMA", atlas.max_tma, atlas.max_tma.measures.tma);
  show("min MPH", atlas.min_mph, atlas.min_mph.measures.mph);
  std::cout << '\n';

  // 4. How stable are the headline numbers under 10% estimate noise?
  const auto conf = core::measure_confidence(etc);
  hetero::io::Table t({"measure", "point", "95% interval"});
  const auto row = [&](const char* name, const core::MeasureInterval& i) {
    std::string interval = "[";
    interval.append(format_fixed(i.lower, 3))
        .append(", ")
        .append(format_fixed(i.upper, 3))
        .append("]");
    t.add_row({name, format_fixed(i.point, 3), std::move(interval)});
  };
  row("MPH", conf.mph);
  row("TDH", conf.tdh);
  row("TMA", conf.tma);
  std::cout << "bootstrap under 10% lognormal estimate noise ("
            << conf.replications << " replications):\n";
  t.print(std::cout);
  return 0;
}
