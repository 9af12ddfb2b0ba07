// Command-line analyzer: characterize any ETC matrix stored as CSV.
//
//   hetero_cli analyze <file.csv>         full characterization report
//   hetero_cli measures <file.csv>        one-line MPH/TDH/TMA
//   hetero_cli json <file.csv>            machine-readable report (JSON)
//   hetero_cli whatif <file.csv>          per-machine removal deltas
//   hetero_cli report <file.csv>          full markdown report
//   hetero_cli atlas <file.csv>           extreme 2x2 sub-environments
//   hetero_cli cluster <file.csv> <k>     machine classes by column angle
//   hetero_cli confidence <file.csv>      bootstrap intervals (10% noise)
//   hetero_cli generate <mph> <tdh> <tma> <tasks> <machines>
//                                         emit a CSV hitting the targets
//   hetero_cli demo                       run on the embedded SPEC CINT data
//
// Any command may add --stats: after the run, the metrics-registry
// snapshot (the same svc::Metrics the server keeps) is printed to stderr,
// so one-shot CLI runs and hetero_served report through one
// instrumentation path.
//
// CSV format: optional header "task,m1,m2,...", one row per task type with
// an optional leading name; "inf" marks machines that cannot run a task.
#include <charconv>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <system_error>
#include <vector>

#include "base/error.hpp"
#include "core/clustering.hpp"
#include "core/confidence.hpp"
#include "core/extracts.hpp"
#include "core/measures.hpp"
#include "core/region.hpp"
#include "core/report.hpp"
#include "core/standard_form.hpp"
#include "core/whatif.hpp"
#include "etcgen/target_measures.hpp"
#include "io/csv.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "spec/spec_data.hpp"
#include "svc/metrics.hpp"

namespace {

using hetero::io::format_fixed;

int usage() {
  std::cerr
      << "usage: hetero_cli {analyze|measures|json|whatif|atlas|confidence} "
         "<file.csv>\n"
         "       hetero_cli cluster <file.csv> <k>\n"
         "       hetero_cli generate <mph> <tdh> <tma> <tasks> <machines>\n"
         "       hetero_cli demo\n";
  return 2;
}

// Parses a whole argument as a finite number; anything else (trailing text,
// overflow, nan/inf) is a ValueError naming the argument.
double parse_number(const std::string& token, const char* what) {
  double v = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v))
    throw hetero::ValueError(std::string(what) + " must be a number, got \"" +
                             token + "\"");
  return v;
}

// Parses a whole argument as a positive count ("-1" and "0" are rejected,
// not wrapped or accepted).
std::size_t parse_count(const std::string& token, const char* what) {
  std::size_t v = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc() || ptr != end || v == 0)
    throw hetero::ValueError(std::string(what) +
                             " must be a positive integer, got \"" + token +
                             "\"");
  return v;
}

void atlas(const hetero::core::EtcMatrix& etc) {
  const auto ecs = etc.to_ecs();
  const auto result = hetero::core::extract_atlas(ecs);
  const auto name = [&](const hetero::core::Extract& e) {
    std::string s = "{";
    for (std::size_t i = 0; i < e.tasks.size(); ++i)
      s += (i ? "," : "") + ecs.task_names()[e.tasks[i]];
    s += "}x{";
    for (std::size_t j = 0; j < e.machines.size(); ++j)
      s += (j ? "," : "") + ecs.machine_names()[e.machines[j]];
    return s + "}";
  };
  hetero::io::Table t({"extreme", "value", "extract"});
  t.add_row({"min MPH", format_fixed(result.min_mph.measures.mph, 3),
             name(result.min_mph)});
  t.add_row({"max MPH", format_fixed(result.max_mph.measures.mph, 3),
             name(result.max_mph)});
  t.add_row({"min TDH", format_fixed(result.min_tdh.measures.tdh, 3),
             name(result.min_tdh)});
  t.add_row({"max TDH", format_fixed(result.max_tdh.measures.tdh, 3),
             name(result.max_tdh)});
  t.add_row({"min TMA", format_fixed(result.min_tma.measures.tma, 3),
             name(result.min_tma)});
  t.add_row({"max TMA", format_fixed(result.max_tma.measures.tma, 3),
             name(result.max_tma)});
  t.print(std::cout);
  std::cout << "(" << result.scored << " extracts scored, "
            << (result.exhaustive ? "exhaustive" : "sampled") << ")\n";
}

void cluster(const hetero::core::EtcMatrix& etc, std::size_t k) {
  const auto ecs = etc.to_ecs();
  const auto c = hetero::core::cluster_machines(ecs, k);
  for (std::size_t id = 0; id < c.cluster_count; ++id) {
    std::cout << "class " << id << ":";
    for (std::size_t j = 0; j < ecs.machine_count(); ++j)
      if (c.cluster[j] == id) std::cout << ' ' << ecs.machine_names()[j];
    std::cout << '\n';
  }
  std::cout << "within-class cosine " << format_fixed(c.within_cosine, 3)
            << ", between-class " << format_fixed(c.between_cosine, 3)
            << '\n';
}

void confidence(const hetero::core::EtcMatrix& etc) {
  const auto c = hetero::core::measure_confidence(etc);
  hetero::io::Table t({"measure", "point", "mean", "95% interval"});
  const auto row = [&](const char* label,
                       const hetero::core::MeasureInterval& i) {
    std::string interval = "[";
    interval.append(format_fixed(i.lower, 3))
        .append(", ")
        .append(format_fixed(i.upper, 3))
        .append("]");
    t.add_row({label, format_fixed(i.point, 3), format_fixed(i.mean, 3),
               std::move(interval)});
  };
  row("MPH", c.mph);
  row("TDH", c.tdh);
  row("TMA", c.tma);
  t.print(std::cout);
}

int generate(const std::vector<std::string>& args) {
  if (args.size() < 7) return usage();
  hetero::etcgen::TargetMeasures target;
  target.mph = parse_number(args[2], "generate: <mph>");
  target.tdh = parse_number(args[3], "generate: <tdh>");
  target.tma = parse_number(args[4], "generate: <tma>");
  hetero::etcgen::TargetGenOptions opts;
  opts.tasks = parse_count(args[5], "generate: <tasks>");
  opts.machines = parse_count(args[6], "generate: <machines>");
  opts.scale = 0.01;  // ECS scale -> runtimes in the hundreds
  const auto result = hetero::etcgen::generate_with_measures(target, opts);
  hetero::io::write_etc_csv(std::cout, result.ecs.to_etc());
  std::cerr << "achieved MPH=" << format_fixed(result.achieved.mph, 3)
            << " TDH=" << format_fixed(result.achieved.tdh, 3)
            << " TMA=" << format_fixed(result.achieved.tma, 3)
            << " (max error " << format_fixed(result.error, 4) << ")\n";
  return 0;
}

void print_measures_line(const hetero::core::EcsMatrix& ecs) {
  const auto m = hetero::core::measure_set(ecs);
  std::cout << "MPH=" << format_fixed(m.mph, 4)
            << " TDH=" << format_fixed(m.tdh, 4)
            << " TMA=" << format_fixed(m.tma, 4) << '\n';
}

void analyze(const hetero::core::EtcMatrix& etc) {
  std::cout << "ETC matrix: " << etc.task_count() << " task types x "
            << etc.machine_count() << " machines\n\n";
  hetero::io::print_etc(std::cout, etc, 1);

  const auto ecs = etc.to_ecs();
  const auto report = hetero::core::characterize(ecs);
  std::cout << "\nmeasures:\n  MPH = " << format_fixed(report.measures.mph, 4)
            << "   (alternatives: R=" << format_fixed(report.mph_alt_ratio, 4)
            << " G=" << format_fixed(report.mph_alt_geometric, 4)
            << " COV=" << format_fixed(report.mph_alt_cov, 4) << ")\n  TDH = "
            << format_fixed(report.measures.tdh, 4)
            << "\n  TMA = " << format_fixed(report.measures.tma, 4)
            << (report.tma_detail.used_standard_form
                    ? "   (standard form, eq. 8)"
                    : "   (column-normalized fallback, eq. 5 — no standard "
                      "form exists)")
            << '\n';

  const auto& sf = report.tma_detail.standard_form;
  if (report.tma_detail.used_standard_form) {
    std::cout << "  standard form: " << sf.iterations
              << " Sinkhorn iterations, residual "
              << hetero::io::format_general(sf.residual) << '\n';
  }

  hetero::io::Table mp({"machine", "MP"});
  for (std::size_t j = 0; j < ecs.machine_count(); ++j)
    mp.add_row({ecs.machine_names()[j],
                format_fixed(report.machine_performances[j], 5)});
  std::cout << "\nmachine performances:\n";
  mp.print(std::cout);

  hetero::io::Table td({"task", "TD"});
  for (std::size_t i = 0; i < ecs.task_count(); ++i)
    td.add_row(
        {ecs.task_names()[i], format_fixed(report.task_difficulties[i], 5)});
  std::cout << "\ntask difficulties:\n";
  td.print(std::cout);

  const auto region = hetero::core::classify_region(report.measures);
  const auto rec = hetero::core::recommend_heuristic(region);
  std::cout << "\nregion: " << hetero::core::region_name(region)
            << "\nrecommended mapping heuristic: " << rec.heuristic << "\n  ("
            << rec.rationale << ")\n";
}

void whatif(const hetero::core::EtcMatrix& etc) {
  const auto ecs = etc.to_ecs();
  hetero::io::Table t({"change", "dMPH", "dTDH", "dTMA"});
  for (const auto& d : hetero::core::whatif_remove_each_machine(ecs))
    t.add_row({d.description, format_fixed(d.mph_delta(), 4),
               format_fixed(d.tdh_delta(), 4),
               format_fixed(d.tma_delta(), 4)});
  for (const auto& d : hetero::core::whatif_remove_each_task(ecs))
    t.add_row({d.description, format_fixed(d.mph_delta(), 4),
               format_fixed(d.tdh_delta(), 4),
               format_fixed(d.tma_delta(), 4)});
  t.print(std::cout);
}

// The CLI's metrics slot for a command — one-shot runs instrument through
// the same svc::Metrics type the server keeps, so a `--stats` dump and a
// server `stats` response read identically.
hetero::svc::RequestKind kind_of_command(const std::string& command) {
  if (command == "measures") return hetero::svc::RequestKind::measures;
  if (command == "whatif") return hetero::svc::RequestKind::whatif;
  return hetero::svc::RequestKind::characterize;
}

int run_command(const std::vector<std::string>& args) {
  const std::string& command = args[1];
  if (command == "demo") {
    analyze(hetero::spec::spec_cint2006rate());
    return 0;
  }
  if (command == "generate") return generate(args);
  if (args.size() < 3) return usage();
  const auto etc = hetero::io::read_etc_csv_file(args[2]);
  if (command == "analyze") {
    analyze(etc);
  } else if (command == "measures") {
    print_measures_line(etc.to_ecs());
  } else if (command == "json") {
    const auto ecs = etc.to_ecs();
    std::cout << hetero::io::to_json(hetero::core::characterize(ecs), ecs)
              << '\n';
  } else if (command == "whatif") {
    whatif(etc);
  } else if (command == "report") {
    hetero::core::ReportOptions opts;
    opts.title = "Environment report: " + args[2];
    std::cout << hetero::core::markdown_report(etc, opts);
  } else if (command == "atlas") {
    atlas(etc);
  } else if (command == "cluster") {
    if (args.size() < 4) return usage();
    cluster(etc, parse_count(args[3], "cluster: <k>"));
  } else if (command == "confidence") {
    confidence(etc);
  } else {
    return usage();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool stats = false;
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--stats")
      stats = true;
    else
      args.emplace_back(argv[i]);
  }
  if (args.size() < 2) return usage();

  hetero::svc::Metrics metrics;
  auto& slot = metrics.kind(kind_of_command(args[1]));
  slot.received.fetch_add(1, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  int rc = 0;
  try {
    rc = run_command(args);
    slot.completed.fetch_add(1, std::memory_order_relaxed);
  } catch (const hetero::Error& e) {
    slot.errors.fetch_add(1, std::memory_order_relaxed);
    std::cerr << "error: " << e.what() << '\n';
    rc = 1;
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  slot.compute.record(
      elapsed.count() < 0 ? 0 : static_cast<std::uint64_t>(elapsed.count()));
  if (stats)
    std::cerr << "\n-- metrics --\n"
              << hetero::svc::render_text(metrics.snapshot());
  return rc;
}
