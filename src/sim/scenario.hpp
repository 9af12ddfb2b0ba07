// Datacenter scenario description: the `machine class: { ... }` /
// `task class: { ... }` format used by the EEC simulator line (see
// SNIPPETS.md), parsed into typed machine/task classes that the
// discrete-event engine (sim/engine.hpp) instantiates.
//
// A machine class describes a fleet of identical hosts: core count,
// memory, the power ladder (S-states for whole-machine sleep depths,
// P-states for per-core active power, C-states for per-core idle power)
// and the per-P-state MIPS rating. A task class describes a seeded
// arrival stream of identical tasks: arrival window, mean inter-arrival
// gap, expected runtime on a 1000-MIPS reference core, memory footprint,
// and the SLA tier the completion deadline is scored against.
//
// The scenario also *implies* an ETC matrix — expected task-class work
// divided by machine-class top-speed MIPS, times an optional per-(task
// class, machine class) runtime multiplier, +infinity where a class
// cannot run (CPU type / GPU / memory mismatch, or an infinite
// multiplier) — which is what closes the loop with the paper: MPH/TDH/TMA
// of that matrix characterize the scenario's heterogeneity, and the
// simulator measures which scheduler actually wins under it. The
// multiplier table is what gives a scenario graded task-machine
// affinity; scenario_from_etc() builds one that reproduces any ETC
// matrix exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/error.hpp"
#include "core/etc_matrix.hpp"

namespace hetero::sim {

/// Expected runtimes are quoted on a reference core of this MIPS rating;
/// a machine at P-state p runs the class mips[p] / kReferenceMips times
/// faster than quoted.
inline constexpr double kReferenceMips = 1000.0;

/// A scenario file failed to parse or validate. The message is a single
/// line naming the offending block and key, e.g.
/// "scenario line 12: machine class #2: unknown key 'Memroy'".
class ScenarioError : public ValueError {
 public:
  using ValueError::ValueError;
};

/// One fleet of identical machines.
struct MachineClass {
  std::size_t count = 0;       // "Number of machines"
  std::string cpu_type;        // "CPU type" (X86, ARM, POWER, RISCV, ...)
  std::size_t cores = 0;       // "Number of cores"
  double memory_mb = 0.0;      // "Memory" (MB, shared by all cores)
  /// "S-States": whole-machine power (W) per sleep depth; index 0 is the
  /// awake baseline drawn whether or not any core works, deeper indices
  /// are progressively colder sleep states (the power-gating target is
  /// the deepest). Also drawn during sleep/wake transitions (index 0).
  std::vector<double> s_states;
  /// "P-States": per-core active power (W) at each performance state;
  /// same length as `mips` (index 0 = fastest).
  std::vector<double> p_states;
  /// "C-States": per-core idle power (W); an idle core of an awake
  /// machine rests at index 1 (clamped), index 0 being "core active".
  std::vector<double> c_states;
  /// "MIPS": per-core performance at each P-state; parallel to p_states.
  std::vector<double> mips;
  bool gpus = false;           // "GPUs": yes/no
};

/// SLA tiers: a task completing later than `sla_multiplier(tier)` times
/// its expected runtime after arrival violates its tier. SLA3 is best
/// effort and never violated.
enum class SlaTier : std::uint8_t { sla0 = 0, sla1 = 1, sla2 = 2, sla3 = 3 };

inline constexpr std::size_t kSlaTierCount = 4;

/// Completion-deadline multiplier on the expected runtime (1.2 / 1.5 /
/// 2.0 / +infinity for SLA0..SLA3).
double sla_multiplier(SlaTier tier);

const char* sla_name(SlaTier tier);  // "SLA0".."SLA3"

/// One seeded stream of identical tasks.
struct TaskClass {
  double start_time = 0.0;        // "Start time" (us)
  double end_time = 0.0;          // "End time" (us, exclusive)
  double inter_arrival = 0.0;     // "Inter arrival" (us, mean gap)
  double expected_runtime = 0.0;  // "Expected runtime" (us on the
                                  // kReferenceMips reference core)
  double memory_mb = 0.0;         // "Memory" (MB held while running)
  std::string vm_type = "LINUX";  // "VM type"
  bool gpu_enabled = false;       // "GPU enabled": yes/no
  SlaTier sla = SlaTier::sla3;    // "SLA type": SLA0..SLA3
  std::string cpu_type;           // "CPU type": must match the machine's
  std::string task_type = "WEB";  // "Task type" (label only)
  std::uint64_t seed = 0;         // "Seed": 0 = evenly spaced arrivals,
                                  // else exponential gaps (mean
                                  // inter_arrival) from this seed
};

struct Scenario {
  std::vector<MachineClass> machine_classes;
  std::vector<TaskClass> task_classes;
  /// Runtime multiplier per (task class, machine class): a task of class
  /// i runs runtime_multiplier(i, j) times longer on class j than its
  /// MIPS rating alone implies. Empty means 1 everywhere; otherwise the
  /// shape is task classes x machine classes and every entry is finite
  /// and > 0, or +infinity for "cannot run".
  linalg::Matrix runtime_multiplier;

  /// Total machine instances across classes.
  std::size_t machine_count() const;

  /// runtime_multiplier(task_class, machine_class), or 1 when the table
  /// is empty.
  double multiplier(std::size_t task_class, std::size_t machine_class) const {
    return runtime_multiplier.empty()
               ? 1.0
               : runtime_multiplier(task_class, machine_class);
  }
};

/// Parses and validates scenario text. Lines may end in CRLF; blank
/// lines and full-line comments (`#` or `//`) are skipped; keys tolerate
/// whitespace before the colon ("End time :"). Every failure throws
/// ScenarioError with one line naming the block and key at fault.
Scenario parse_scenario(std::string_view text);

/// Reads `path` and parses it; file errors also throw ScenarioError.
Scenario load_scenario(const std::string& path);

/// Can this task class run on this machine class? Requires matching CPU
/// type, a GPU when the task wants one, and a memory footprint within
/// the machine's total.
bool compatible(const TaskClass& task, const MachineClass& machine);

/// The scenario's implied ETC matrix over *classes*: entry (i, j) is
/// task class i's expected runtime on machine class j at its top
/// P-state — (expected_runtime * kReferenceMips / mips[0]) *
/// multiplier(i, j) — and +infinity where incompatible. This is the
/// matrix whose MPH/TDH/TMA characterize the scenario (row labels
/// "task0".., column labels "mc0"..). Validates the scenario first, as
/// parse_scenario does: ScenarioError when an entry of the multiplier
/// table is not > 0 (NaN included) or a class can run nowhere (an
/// infinite multiplier counts as incompatible), DimensionError when the
/// table has the wrong shape.
core::EtcMatrix implied_etc(const Scenario& scenario);

/// The same runtimes expanded over machine *instances* (columns
/// "mc<class>.<index>"), which is what the online schedulers plan
/// against. Validates the scenario like implied_etc().
core::EtcMatrix instance_etc(const Scenario& scenario);

/// A scenario that reproduces `etc` exactly: one 1-core machine class
/// per column at kReferenceMips, one task class per row with
/// expected_runtime 1 and SLA3, and the ETC entries as the multiplier
/// table, so instance_etc(scenario_from_etc(etc)) equals etc bit for
/// bit, +infinity included. The machines draw no power and the task
/// classes generate no arrivals: run it with explicit arrivals, in the
/// ETC's time unit.
Scenario scenario_from_etc(const core::EtcMatrix& etc);

/// One task arrival: global arrival order is (time, class, sequence).
/// The simulator's one arrival type, from scenario streams
/// (generate_arrivals), workload models (sim/workload.hpp) or traces.
struct SimArrival {
  double time = 0.0;
  std::size_t task_class = 0;
};

/// Expands every task class into its arrival stream and merges them in
/// deterministic time order. A class with seed 0 fires exactly every
/// inter_arrival us from start_time; a nonzero seed draws exponential
/// gaps with mean inter_arrival from mt19937_64(seed), so streams are a
/// pure function of the scenario. Throws ScenarioError when the streams
/// would exceed `max_arrivals` tasks in total.
std::vector<SimArrival> generate_arrivals(const Scenario& scenario,
                                          std::size_t max_arrivals = 1u << 20);

}  // namespace hetero::sim
