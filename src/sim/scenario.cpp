#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

namespace hetero::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Lexical helpers. The format is line-oriented: block headers, braces, and
// `Key: value` lines, with CRLF endings and `#` / `//` comment lines
// tolerated everywhere.

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool is_comment(std::string_view line) {
  return line.starts_with("#") || line.starts_with("//");
}

/// Collapses internal whitespace runs to single spaces, so block headers
/// like "machine   class :" still match.
std::string collapse_spaces(std::string_view s) {
  std::string out;
  bool in_space = false;
  for (char c : s) {
    if (c == ' ' || c == '\t') {
      in_space = true;
      continue;
    }
    if (in_space && !out.empty()) out.push_back(' ');
    in_space = false;
    out.push_back(c);
  }
  return out;
}

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw ScenarioError("scenario line " + std::to_string(line) + ": " + what);
}

[[noreturn]] void fail_block(std::size_t line, const std::string& block,
                             const std::string& what) {
  fail(line, block + ": " + what);
}

// ---------------------------------------------------------------------------
// Value parsers. Every conversion consumes the whole value string, so
// "12x3" or "3000," fail instead of silently truncating.

double parse_number(std::size_t line, const std::string& block,
                    const std::string& key, std::string_view value) {
  const std::string text(value);
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(parsed)) {
    fail_block(line, block,
               "invalid value for '" + key + "': '" + text + "'");
  }
  return parsed;
}

double parse_positive(std::size_t line, const std::string& block,
                      const std::string& key, std::string_view value) {
  const double parsed = parse_number(line, block, key, value);
  if (parsed <= 0.0) {
    fail_block(line, block, "'" + key + "' must be positive, got '" +
                                std::string(value) + "'");
  }
  return parsed;
}

std::size_t parse_count(std::size_t line, const std::string& block,
                        const std::string& key, std::string_view value) {
  const double parsed = parse_number(line, block, key, value);
  if (parsed < 1.0 || parsed != std::floor(parsed) || parsed > 1e9) {
    fail_block(line, block, "'" + key + "' must be a positive integer, got '" +
                                std::string(value) + "'");
  }
  return static_cast<std::size_t>(parsed);
}

std::uint64_t parse_seed(std::size_t line, const std::string& block,
                         const std::string& key, std::string_view value) {
  const double parsed = parse_number(line, block, key, value);
  if (parsed < 0.0 || parsed != std::floor(parsed) || parsed > 1.8e19) {
    fail_block(line, block,
               "'" + key + "' must be a non-negative integer, got '" +
                   std::string(value) + "'");
  }
  return static_cast<std::uint64_t>(parsed);
}

bool parse_yes_no(std::size_t line, const std::string& block,
                  const std::string& key, std::string_view value) {
  if (value == "yes") return true;
  if (value == "no") return false;
  fail_block(line, block, "'" + key + "' must be 'yes' or 'no', got '" +
                              std::string(value) + "'");
}

/// "[a, b, c]" -> numbers. Empty lists are rejected.
std::vector<double> parse_list(std::size_t line, const std::string& block,
                               const std::string& key,
                               std::string_view value) {
  if (!value.starts_with('[') || !value.ends_with(']')) {
    fail_block(line, block, "'" + key + "' must be a [a, b, ...] list, got '" +
                                std::string(value) + "'");
  }
  value.remove_prefix(1);
  value.remove_suffix(1);
  std::vector<double> out;
  std::size_t start = 0;
  const std::string inner(value);
  while (start <= inner.size()) {
    std::size_t comma = inner.find(',', start);
    if (comma == std::string::npos) comma = inner.size();
    const std::string_view item = trim(
        std::string_view(inner).substr(start, comma - start));
    if (item.empty()) {
      fail_block(line, block, "'" + key + "' has an empty list element");
    }
    out.push_back(parse_number(line, block, key, item));
    if (comma == inner.size()) break;
    start = comma + 1;
  }
  if (out.empty()) {
    fail_block(line, block, "'" + key + "' must not be an empty list");
  }
  return out;
}

SlaTier parse_sla(std::size_t line, const std::string& block,
                  const std::string& key, std::string_view value) {
  for (std::size_t t = 0; t < kSlaTierCount; ++t) {
    if (value == sla_name(static_cast<SlaTier>(t))) {
      return static_cast<SlaTier>(t);
    }
  }
  fail_block(line, block, "'" + key + "' must be SLA0..SLA3, got '" +
                              std::string(value) + "'");
}

// ---------------------------------------------------------------------------
// Block assembly: one `Key: value` dispatcher per block kind, plus the
// required-key audit run when the block closes.

struct BlockCursor {
  std::string label;          // "machine class #2"
  std::size_t header_line = 0;
  std::vector<std::string> seen;

  bool saw(const std::string& key) const {
    return std::find(seen.begin(), seen.end(), key) != seen.end();
  }
  void mark(std::size_t line, const std::string& key) {
    if (saw(key)) fail_block(line, label, "duplicate key '" + key + "'");
    seen.push_back(key);
  }
  void require(const char* key) const {
    if (!saw(key)) {
      fail_block(header_line, label,
                 "missing required key '" + std::string(key) + "'");
    }
  }
};

void apply_machine_key(BlockCursor& cur, std::size_t line,
                       const std::string& key, std::string_view value,
                       MachineClass& mc) {
  cur.mark(line, key);
  if (key == "Number of machines") {
    mc.count = parse_count(line, cur.label, key, value);
  } else if (key == "CPU type") {
    mc.cpu_type = std::string(value);
  } else if (key == "Number of cores") {
    mc.cores = parse_count(line, cur.label, key, value);
  } else if (key == "Memory") {
    mc.memory_mb = parse_positive(line, cur.label, key, value);
  } else if (key == "S-States") {
    mc.s_states = parse_list(line, cur.label, key, value);
  } else if (key == "P-States") {
    mc.p_states = parse_list(line, cur.label, key, value);
  } else if (key == "C-States") {
    mc.c_states = parse_list(line, cur.label, key, value);
  } else if (key == "MIPS") {
    mc.mips = parse_list(line, cur.label, key, value);
  } else if (key == "GPUs") {
    mc.gpus = parse_yes_no(line, cur.label, key, value);
  } else {
    fail_block(line, cur.label, "unknown key '" + key + "'");
  }
}

void finish_machine(const BlockCursor& cur, MachineClass& mc) {
  for (const char* key : {"Number of machines", "CPU type", "Number of cores",
                          "Memory", "S-States", "P-States", "C-States",
                          "MIPS"}) {
    cur.require(key);
  }
  const std::size_t line = cur.header_line;
  if (mc.p_states.size() != mc.mips.size()) {
    fail_block(line, cur.label,
               "P-States and MIPS must have the same length (" +
                   std::to_string(mc.p_states.size()) + " vs " +
                   std::to_string(mc.mips.size()) + ")");
  }
  const std::pair<const std::vector<double>*, const char*> power_lists[] = {
      {&mc.s_states, "S-States"},
      {&mc.p_states, "P-States"},
      {&mc.c_states, "C-States"}};
  for (const auto& [states, key] : power_lists) {
    for (double w : *states) {
      if (w < 0.0) {
        std::string msg = "'";
        msg += key;
        msg += "' entries must be >= 0";
        fail_block(line, cur.label, msg);
      }
    }
  }
  for (double m : mc.mips) {
    if (m <= 0.0) {
      fail_block(line, cur.label, "'MIPS' entries must be positive");
    }
  }
}

void apply_task_key(BlockCursor& cur, std::size_t line, const std::string& key,
                    std::string_view value, TaskClass& tc) {
  cur.mark(line, key);
  if (key == "Start time") {
    tc.start_time = parse_number(line, cur.label, key, value);
  } else if (key == "End time") {
    tc.end_time = parse_number(line, cur.label, key, value);
  } else if (key == "Inter arrival") {
    tc.inter_arrival = parse_positive(line, cur.label, key, value);
  } else if (key == "Expected runtime") {
    tc.expected_runtime = parse_positive(line, cur.label, key, value);
  } else if (key == "Memory") {
    tc.memory_mb = parse_positive(line, cur.label, key, value);
  } else if (key == "VM type") {
    tc.vm_type = std::string(value);
  } else if (key == "GPU enabled") {
    tc.gpu_enabled = parse_yes_no(line, cur.label, key, value);
  } else if (key == "SLA type") {
    tc.sla = parse_sla(line, cur.label, key, value);
  } else if (key == "CPU type") {
    tc.cpu_type = std::string(value);
  } else if (key == "Task type") {
    tc.task_type = std::string(value);
  } else if (key == "Seed") {
    tc.seed = parse_seed(line, cur.label, key, value);
  } else {
    fail_block(line, cur.label, "unknown key '" + key + "'");
  }
}

void finish_task(const BlockCursor& cur, TaskClass& tc) {
  for (const char* key : {"Start time", "End time", "Inter arrival",
                          "Expected runtime", "Memory", "SLA type",
                          "CPU type"}) {
    cur.require(key);
  }
  const std::size_t line = cur.header_line;
  if (tc.start_time < 0.0) {
    fail_block(line, cur.label, "'Start time' must be >= 0");
  }
  if (tc.end_time <= tc.start_time) {
    fail_block(line, cur.label, "'End time' must be after 'Start time'");
  }
}

// The multiplier table is empty or task classes x machine classes, with
// every entry > 0 (+infinity allowed, NaN not).
void check_multipliers(const Scenario& scenario) {
  const linalg::Matrix& mult = scenario.runtime_multiplier;
  if (mult.empty()) return;
  detail::require_dims(mult.rows() == scenario.task_classes.size() &&
                           mult.cols() == scenario.machine_classes.size(),
                       "scenario: runtime multiplier table must be task "
                       "classes x machine classes");
  for (const double x : mult.data()) {
    if (!(x > 0.0)) {
      throw ScenarioError(
          "scenario: runtime multipliers must be > 0 or +inf, got " +
          std::to_string(x));
    }
  }
}

// Task class i's expected runtime on machine class j at its top P-state,
// +infinity when it cannot run there. The multiplier applies last, so a
// unit multiplier leaves the MIPS-scaled runtime bit-identical and an
// imported ETC entry E comes back as (1 * 1000 / 1000) * E == E.
double class_runtime(const Scenario& scenario, std::size_t i, std::size_t j) {
  const TaskClass& tc = scenario.task_classes[i];
  const MachineClass& mc = scenario.machine_classes[j];
  if (!compatible(tc, mc)) return kInf;
  return (tc.expected_runtime * kReferenceMips / mc.mips[0]) *
         scenario.multiplier(i, j);
}

void validate_scenario(const Scenario& scenario) {
  if (scenario.machine_classes.empty()) {
    throw ScenarioError("scenario: no machine class blocks");
  }
  if (scenario.task_classes.empty()) {
    throw ScenarioError("scenario: no task class blocks");
  }
  check_multipliers(scenario);
  // Every task class must run somewhere and every machine class must run
  // something, or the implied ETC matrix would have an all-infinite row or
  // column (the EtcMatrix invariant).
  const std::size_t t = scenario.task_classes.size();
  const std::size_t m = scenario.machine_classes.size();
  const auto runs = [&](std::size_t i, std::size_t j) {
    return std::isfinite(class_runtime(scenario, i, j));
  };
  for (std::size_t i = 0; i < t; ++i) {
    std::size_t j = 0;
    while (j < m && !runs(i, j)) ++j;
    if (j == m) {
      throw ScenarioError(
          "scenario: task class #" + std::to_string(i + 1) +
          " is compatible with no machine class (CPU type/GPU/memory)");
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    std::size_t i = 0;
    while (i < t && !runs(i, j)) ++i;
    if (i == t) {
      throw ScenarioError("scenario: machine class #" + std::to_string(j + 1) +
                          " can run no task class");
    }
  }
}

// The validated scenario's runtimes, one column per machine class or, with
// `per_instance`, per machine instance.
core::EtcMatrix runtimes(const Scenario& scenario, bool per_instance) {
  validate_scenario(scenario);
  const std::size_t t = scenario.task_classes.size();
  std::vector<std::string> task_names(t), machine_names;
  for (std::size_t i = 0; i < t; ++i) {
    task_names[i] = "task" + std::to_string(i);
  }
  std::vector<std::size_t> column_class;
  for (std::size_t j = 0; j < scenario.machine_classes.size(); ++j) {
    const std::size_t copies =
        per_instance ? scenario.machine_classes[j].count : 1;
    for (std::size_t k = 0; k < copies; ++k) {
      std::string name = "mc" + std::to_string(j);
      if (per_instance) name.append(".").append(std::to_string(k));
      machine_names.push_back(std::move(name));
      column_class.push_back(j);
    }
  }
  linalg::Matrix values(t, column_class.size());
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t c = 0; c < column_class.size(); ++c) {
      values(i, c) = class_runtime(scenario, i, column_class[c]);
    }
  }
  return core::EtcMatrix(std::move(values), std::move(task_names),
                         std::move(machine_names));
}

}  // namespace

double sla_multiplier(SlaTier tier) {
  switch (tier) {
    case SlaTier::sla0: return 1.2;
    case SlaTier::sla1: return 1.5;
    case SlaTier::sla2: return 2.0;
    case SlaTier::sla3: return kInf;
  }
  return kInf;
}

const char* sla_name(SlaTier tier) {
  switch (tier) {
    case SlaTier::sla0: return "SLA0";
    case SlaTier::sla1: return "SLA1";
    case SlaTier::sla2: return "SLA2";
    case SlaTier::sla3: return "SLA3";
  }
  return "SLA?";
}

std::size_t Scenario::machine_count() const {
  std::size_t total = 0;
  for (const auto& mc : machine_classes) total += mc.count;
  return total;
}

Scenario parse_scenario(std::string_view text) {
  Scenario scenario;
  enum class State { top, want_brace, in_machine, in_task };
  State state = State::top;
  BlockCursor cur;
  MachineClass mc;
  TaskClass tc;
  bool machine_block = false;

  std::size_t lineno = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view raw = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    const std::string_view line = trim(raw);
    if (line.empty() || is_comment(line)) {
      if (pos > text.size()) break;
      continue;
    }

    switch (state) {
      case State::top: {
        const std::string header = collapse_spaces(line);
        if (header == "machine class:" || header == "machine class :") {
          machine_block = true;
          mc = MachineClass{};
          cur = BlockCursor{};
          cur.header_line = lineno;
          cur.label = "machine class #" +
                      std::to_string(scenario.machine_classes.size() + 1);
          state = State::want_brace;
        } else if (header == "task class:" || header == "task class :") {
          machine_block = false;
          tc = TaskClass{};
          cur = BlockCursor{};
          cur.header_line = lineno;
          cur.label =
              "task class #" + std::to_string(scenario.task_classes.size() + 1);
          state = State::want_brace;
        } else {
          fail(lineno, "expected 'machine class:' or 'task class:', got '" +
                           std::string(line) + "'");
        }
        break;
      }
      case State::want_brace: {
        if (line != "{") {
          fail_block(lineno, cur.label, "expected '{' after block header");
        }
        state = machine_block ? State::in_machine : State::in_task;
        break;
      }
      case State::in_machine:
      case State::in_task: {
        if (line == "}") {
          if (machine_block) {
            finish_machine(cur, mc);
            scenario.machine_classes.push_back(std::move(mc));
          } else {
            finish_task(cur, tc);
            scenario.task_classes.push_back(tc);
          }
          state = State::top;
          break;
        }
        if (line == "{" || collapse_spaces(line).ends_with("class:")) {
          fail_block(lineno, cur.label,
                     "unterminated block (missing '}' before '" +
                         std::string(line) + "')");
        }
        const std::size_t colon = line.find(':');
        if (colon == std::string_view::npos) {
          fail_block(lineno, cur.label,
                     "expected 'Key: value', got '" + std::string(line) + "'");
        }
        const std::string key(trim(line.substr(0, colon)));
        const std::string_view value = trim(line.substr(colon + 1));
        if (key.empty()) {
          fail_block(lineno, cur.label, "empty key before ':'");
        }
        if (value.empty()) {
          fail_block(lineno, cur.label, "missing value for '" + key + "'");
        }
        if (machine_block) {
          apply_machine_key(cur, lineno, key, value, mc);
        } else {
          apply_task_key(cur, lineno, key, value, tc);
        }
        break;
      }
    }
    if (pos > text.size()) break;
  }

  if (state != State::top) {
    fail_block(lineno, cur.label, "unterminated block (missing '}')");
  }
  validate_scenario(scenario);
  return scenario;
}

Scenario load_scenario(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ScenarioError("scenario: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_scenario(std::move(buffer).str());
}

bool compatible(const TaskClass& task, const MachineClass& machine) {
  if (task.cpu_type != machine.cpu_type) return false;
  if (task.gpu_enabled && !machine.gpus) return false;
  if (task.memory_mb > machine.memory_mb) return false;
  return true;
}

core::EtcMatrix implied_etc(const Scenario& scenario) {
  return runtimes(scenario, false);
}

core::EtcMatrix instance_etc(const Scenario& scenario) {
  return runtimes(scenario, true);
}

Scenario scenario_from_etc(const core::EtcMatrix& etc) {
  Scenario scenario;
  MachineClass machine;
  machine.count = machine.cores = 1;
  machine.s_states = machine.p_states = machine.c_states = {0.0};
  machine.mips = {kReferenceMips};
  scenario.machine_classes.assign(etc.machine_count(), machine);
  for (const std::string& name : etc.task_names()) {
    TaskClass task;
    task.expected_runtime = 1.0;
    task.task_type = name;
    scenario.task_classes.push_back(std::move(task));
  }
  scenario.runtime_multiplier = etc.values();
  return scenario;
}

std::vector<SimArrival> generate_arrivals(const Scenario& scenario,
                                          std::size_t max_arrivals) {
  std::vector<SimArrival> arrivals;
  for (std::size_t k = 0; k < scenario.task_classes.size(); ++k) {
    const auto& tc = scenario.task_classes[k];
    const auto emit = [&](double t) {
      if (arrivals.size() >= max_arrivals) {
        throw ScenarioError(
            "scenario: task class #" + std::to_string(k + 1) +
            " overflows the arrival budget (" + std::to_string(max_arrivals) +
            " tasks); widen 'Inter arrival' or narrow the window");
      }
      arrivals.push_back({t, k});
    };
    if (tc.seed == 0) {  // fixed gaps: no generator to seed
      for (double t = tc.start_time; t < tc.end_time; t += tc.inter_arrival) {
        emit(t);
      }
    } else {
      std::mt19937_64 rng(tc.seed);
      std::exponential_distribution<double> gap(1.0 / tc.inter_arrival);
      for (double t = tc.start_time; t < tc.end_time; t += gap(rng)) {
        emit(t);
      }
    }
  }
  // Merge streams deterministically: per-class times are non-decreasing, so
  // (time, class) is a total order up to exact in-class ties, which
  // stable_sort preserves in emission order.
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const SimArrival& a, const SimArrival& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.task_class < b.task_class;
                   });
  return arrivals;
}

}  // namespace hetero::sim
