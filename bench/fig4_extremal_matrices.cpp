// Reproduces paper Figure 4: eight extreme 2x2 ECS matrices at the corners
// of the (MPH, TDH, TMA) cube. A-D have TMA = 1 (a task type runnable on
// only one machine); E-H have TMA = 0 (proportional columns). The paper also
// notes that A, B and D converge under eq. 9 to the standard form of C.
#include <iostream>

#include "core/etc_matrix.hpp"
#include "core/measures.hpp"
#include "core/standard_form.hpp"
#include "io/table.hpp"

int main() {
  using hetero::core::EcsMatrix;
  using hetero::io::format_fixed;
  using hetero::linalg::Matrix;

  struct Case {
    const char* name;
    Matrix ecs;
    const char* corner;  // paper's qualitative description
  };
  const Case cases[] = {
      {"A", Matrix{{10, 0}, {9, 1}}, "low MPH, high TDH, TMA=1"},
      {"B", Matrix{{1, 0}, {9, 90}}, "low MPH, low TDH, TMA=1"},
      {"C", Matrix{{1, 0}, {0, 1}}, "high MPH, high TDH, TMA=1"},
      {"D", Matrix{{1, 0}, {50, 51}}, "high MPH, low TDH, TMA=1"},
      {"E", Matrix{{1, 10}, {1, 10}}, "low MPH, high TDH, TMA=0"},
      {"F", Matrix{{1, 10}, {10, 100}}, "low MPH, low TDH, TMA=0"},
      {"G", Matrix{{1, 1}, {1, 1}}, "high MPH, high TDH, TMA=0"},
      {"H", Matrix{{1, 1}, {10, 10}}, "high MPH, low TDH, TMA=0"},
  };

  std::cout << "Figure 4 — extreme 2x2 ECS matrices (entries reconstructed "
               "from the corner descriptions)\n\n";
  hetero::io::Table t({"matrix", "entries", "MPH", "TDH", "TMA", "corner"});
  for (const auto& c : cases) {
    const auto m = hetero::core::measure_set(EcsMatrix(c.ecs));
    std::string entries = "[";
    entries.append(hetero::io::format_general(c.ecs(0, 0)))
        .append(" ")
        .append(hetero::io::format_general(c.ecs(0, 1)))
        .append("; ")
        .append(hetero::io::format_general(c.ecs(1, 0)))
        .append(" ")
        .append(hetero::io::format_general(c.ecs(1, 1)))
        .append("]");
    t.add_row({c.name, entries, format_fixed(m.mph, 2), format_fixed(m.tdh, 2),
               format_fixed(m.tma, 2), c.corner});
  }
  t.print(std::cout);

  // The convergence claim of Section IV.
  const auto c_std = hetero::core::standardize(Matrix{{1, 0}, {0, 1}});
  std::cout << "\nstandard form of C = [[" << c_std.standard(0, 0) << ", "
            << c_std.standard(0, 1) << "], [" << c_std.standard(1, 0) << ", "
            << c_std.standard(1, 1) << "]]\n";
  for (const char* name : {"A", "B", "D"}) {
    const Case* c = nullptr;
    for (const auto& k : cases)
      if (std::string(k.name) == name) c = &k;
    const auto r = hetero::core::standardize(c->ecs);
    std::cout << name << " converges to the standard form of C: max |diff| = "
              << hetero::io::format_general(
                     hetero::linalg::max_abs_diff(r.standard, c_std.standard))
              << '\n';
  }
  return 0;
}
