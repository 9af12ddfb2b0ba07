// Deterministic discrete-event datacenter simulator.
//
// The engine instantiates a Scenario (sim/scenario.hpp) into machine
// instances and a merged arrival stream (or takes an explicit arrival
// list — a workload model's or a trace's), then processes typed events —
// task arrival, task completion, power-state transition complete,
// migration landing, periodic scheduler tick — in strict (time,
// insertion-sequence) order, arrivals counting as inserted first (they
// are read from their sorted list; the rest wait in a priority queue),
// so a run is a pure function of (scenario, options, scheduler):
// repeated runs replay bit-identically, which the `sim_equiv` test label
// asserts via the report's trace hash.
//
// Machine model. Each instance carries a whole-machine power state
// (awake, transitioning, or asleep at an S-state depth), a machine-wide
// P-state, a core pool, and a memory pool. Tasks occupy one core and
// their memory footprint while running and progress at the machine's
// current per-P-state MIPS divided by the scenario's runtime multiplier
// for the (task class, machine class) pair; changing the P-state (or
// migrating) accrues the progress made so far and reschedules the
// completion event at the new rate. Energy integrates electrical power
// over state residency:
//
//   awake:        P = S[0] + busy * Pstate[p] + (cores - busy) * C[idle]
//   transitioning:P = S[0]               (sleep<->wake, cores quiesced)
//   asleep at d:  P = S[d]
//
// with C[idle] the first sub-active C-state (index 1, clamped). Energy
// in joules = sum of P (watts) x residency (seconds; sim time is in
// microseconds).
//
// SLA accounting. A task that completes later than
// sla_multiplier(tier) x expected_runtime after its arrival violates
// its tier; the report carries per-tier completion and violation
// counts. SLA3 is best effort and never violates.
//
// Scheduling is pluggable through OnlineScheduler (sim/scheduler.hpp):
// the engine calls back on arrival / start / completion / tick, and the
// scheduler steers through the assign / migrate / set_sleep /
// set_p_state control surface. Engine-level controllers (enabled per
// SimOptions) add the simulator-native behaviors on top of any
// scheduler: idle machines power-gate to the deepest S-state and wake
// on demand, underloaded machines step their P-state down (DVFS), and
// load imbalance beyond a threshold migrates a running task.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "core/etc_matrix.hpp"
#include "sim/scenario.hpp"

namespace hetero::sim {

class OnlineScheduler;

/// Engine knobs. The defaults simulate plain always-on machines; the
/// power/migration controllers are opt-in and require a positive tick
/// period (they run at scheduler ticks).
struct SimOptions {
  /// Gap between periodic scheduler ticks (us); 0 disables ticks (and
  /// the controllers below must then stay disabled).
  double tick_period = 50'000.0;

  /// Power-gate: sleep a machine that has been idle for
  /// `idle_sleep_after` us to its deepest S-state; wake it when work is
  /// assigned (paying `wake_latency`).
  bool power_gating = false;
  double idle_sleep_after = 200'000.0;
  double sleep_latency = 50'000.0;
  double wake_latency = 100'000.0;

  /// DVFS: a busy machine with an empty queue and at most half its
  /// cores occupied steps one P-state down per tick; queue pressure or
  /// high occupancy snaps it back to P0.
  bool dvfs = false;

  /// Migration: when the busiest machine holds at least `migration_gap`
  /// more tasks (running + queued + inbound) than the least-loaded
  /// awake machine, one running task moves there, landing after
  /// `migration_latency` us.
  bool migration = false;
  std::size_t migration_gap = 4;
  double migration_latency = 20'000.0;

  /// Arrival-stream budget passed to generate_arrivals().
  std::size_t max_arrivals = 1u << 20;

  /// Abort (ValueError) when no task starts or completes for this long
  /// while unfinished work remains; 0 picks max(1e6, 20 * tick_period).
  double stall_after = 0.0;

  /// Keep the full trace in the report (tests); the trace hash is
  /// always computed.
  bool record_trace = false;
};

/// Semantic trace of everything observable the engine did. The FNV-1a
/// hash over these records is the equivalence fingerprint of a run.
enum class TraceKind : std::uint8_t {
  arrival = 0,       // a = task
  start = 1,         // a = task, b = machine
  completion = 2,    // a = task, b = machine
  sleep_begin = 3,   // a = machine, b = target depth
  wake_begin = 4,    // a = machine
  state_settled = 5, // a = machine, b = depth (0 = awake)
  migrate_begin = 6, // a = task, b = target machine
  migrate_land = 7,  // a = task, b = target machine
  p_state = 8,       // a = machine, b = new P-state
};

struct TraceRecord {
  double time = 0.0;
  TraceKind kind = TraceKind::arrival;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// Everything one simulation run produced.
struct SimReport {
  std::string scheduler;
  std::size_t tasks = 0;            // arrivals simulated
  std::size_t completed = 0;
  double end_time = 0.0;            // completion instant of the last task
  double total_energy_j = 0.0;      // integral of power over [0, end_time]
  std::vector<double> machine_energy_j;
  double asleep_machine_seconds = 0.0;
  std::array<std::size_t, kSlaTierCount> sla_completed{};
  std::array<std::size_t, kSlaTierCount> sla_violated{};
  double mean_flow_time = 0.0;      // mean completion - arrival (us)
  double max_flow_time = 0.0;
  std::size_t migrations = 0;
  std::size_t sleep_transitions = 0;
  std::size_t p_state_changes = 0;
  std::size_t events = 0;           // events processed
  std::uint64_t trace_hash = 0;
  std::vector<TraceRecord> trace;   // only with SimOptions::record_trace

  /// violated / completed within the tier; 0.0 when none completed.
  double violation_rate(SlaTier tier) const;
  /// violated / completed across all tiers.
  double overall_violation_rate() const;
};

/// The discrete-event engine. One instance simulates one scheduler run;
/// construct per run. The scenario must outlive the engine.
class Engine {
 public:
  /// Simulates the scenario's own arrival streams (generate_arrivals).
  Engine(const Scenario& scenario, SimOptions options = {});

  /// Simulates an explicit arrival list instead. Times must be finite,
  /// >= 0 and non-decreasing (ids follow list order) and every task
  /// class in range; anything else throws ValueError.
  Engine(const Scenario& scenario, std::vector<SimArrival> arrivals,
         SimOptions options = {});

  /// Runs the simulation to completion and returns the report. One-shot:
  /// a second call throws.
  SimReport run(OnlineScheduler& scheduler);

  // --- scheduler-facing control surface -----------------------------

  double now() const noexcept { return now_; }
  const Scenario& scenario() const noexcept { return scenario_; }
  const SimOptions& options() const noexcept { return options_; }

  /// Expected runtimes over machine *instances* (task classes x
  /// machines, +infinity = cannot run), at each machine's top P-state.
  const core::EtcMatrix& etc() const noexcept { return etc_; }

  std::size_t machine_count() const noexcept { return machines_.size(); }
  /// Arrivals that exist so far (ids are dense, assigned in arrival
  /// order; ids >= this value have not arrived yet).
  std::size_t arrived_count() const noexcept { return arrived_; }
  std::size_t total_tasks() const noexcept { return arrivals_.size(); }

  std::size_t task_class_of(std::size_t task) const;
  double arrival_time_of(std::size_t task) const;
  bool task_done(std::size_t task) const;
  bool can_run(std::size_t task, std::size_t machine) const;

  /// Is the task pending or queued (arrived, not running, migrating or
  /// done), so that assign() accepts it?
  bool assignable(std::size_t task) const;

  /// Every assignable task, ascending id — i.e. arrival order, the
  /// batch-mode scan order. The engine keeps the list as tasks arrive,
  /// start and land from a migration, so reading it costs nothing; a
  /// recall changes no membership.
  const std::deque<std::size_t>& unstarted() const noexcept {
    return unstarted_;
  }

  /// Earliest instant machine j could begin a *new* task, ignoring its
  /// queued-but-unstarted work: now, plus any remaining wake latency,
  /// plus — when every core is occupied — the earliest running-task
  /// completion. This is the epoch base vector for batch replanning.
  std::vector<double> base_ready_times() const;
  /// The same, written into `out` (resized to machine_count()), so a
  /// caller that replans on every event allocates nothing.
  void base_ready_times(std::vector<double>& out) const;

  /// base_ready_times() plus each machine's queued work drained at top
  /// speed across its cores — the completion-time estimate immediate
  /// (greedy) scheduling plans against. The queued work is a running
  /// left-to-right sum, so a call costs O(machines) unless a queue lost
  /// a task since the last call (that machine is re-summed).
  std::vector<double> ready_times() const;

  /// Returns every queued-but-unstarted task to the pending set (batch
  /// replanning begins here; running tasks are untouched), and drops a
  /// deferred plan rest unrun.
  void recall_queued();

  /// Holds back the unread rest of a plan. Dispatch starts at most one
  /// queue head per idle core, so a scheduler that has assigned those
  /// heads can hand the engine the rest of its plan instead of assigning
  /// it. The engine runs `rest` once, just before anything but dispatch
  /// reads a queue: before a migration landing appends to one, before a
  /// tick's controllers run, and when set_sleep() checks one.
  /// recall_queued() drops it unrun; a rest still held when defer() is
  /// called again runs first. queue_length() and load_of() do not run
  /// it, so until then they see only the assigned part.
  void defer(std::function<void(Engine&)> rest);

  /// Appends the task to the machine's run queue. The task must be
  /// pending or queued (re-assignment moves it) and the machine must be
  /// able to run it; a sleeping machine is woken automatically.
  void assign(std::size_t task, std::size_t machine);

  /// Moves a *running* task to another machine: progress is retained,
  /// the source core/memory free immediately, and the task lands on the
  /// target's queue after migration_latency. Returns false when the
  /// task is not currently running or already on the target; throws on
  /// an incompatible target.
  bool migrate(std::size_t task, std::size_t machine);

  /// Begins the transition to S-state `depth` (>= 1). The machine must
  /// be idle (no running or queued tasks); no-op when already sleeping
  /// or on its way. depth is clamped to the deepest defined S-state.
  void set_sleep(std::size_t machine, std::size_t depth);

  /// Begins waking a sleeping machine; no-op when awake or waking.
  void wake(std::size_t machine);

  /// Switches the machine-wide P-state (0 = fastest); in-flight task
  /// progress is accrued at the old rate and completions rescheduled.
  /// The machine must be awake.
  void set_p_state(std::size_t machine, std::size_t p);

  // --- introspection ------------------------------------------------

  std::size_t machine_class_of(std::size_t machine) const;
  bool awake(std::size_t machine) const;
  /// Current sleep depth (0 while awake or transitioning).
  std::size_t sleep_depth(std::size_t machine) const;
  std::size_t busy_cores(std::size_t machine) const;
  /// Cores running no task: what the next dispatch can fill on an awake
  /// machine (every core while asleep or in transition).
  std::size_t idle_cores(std::size_t machine) const;
  /// Migrations in flight to the machine; each lands on its queue.
  std::size_t inbound(std::size_t machine) const;
  std::size_t queue_length(std::size_t machine) const;
  /// running + queued + migrating-inbound tasks, the balance metric the
  /// migration controller uses.
  std::size_t load_of(std::size_t machine) const;
  double free_memory(std::size_t machine) const;
  std::size_t p_state(std::size_t machine) const;

 private:
  enum class EventKind : std::uint8_t {
    arrival, completion, transition, migration, tick
  };
  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;  // insertion order breaks time ties
    EventKind kind = EventKind::arrival;
    std::uint32_t id = 0;   // task or machine
    std::uint64_t gen = 0;  // staleness check for reschedulable events
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  enum class PowerState : std::uint8_t { awake, to_sleep, asleep, to_wake };

  struct Machine {
    std::uint32_t cls = 0;
    const MachineClass* spec = nullptr;
    PowerState power = PowerState::awake;
    std::size_t sleep_target = 0;   // transition destination depth
    std::size_t depth = 0;          // settled sleep depth
    bool wake_requested = false;
    double transition_done = 0.0;
    std::uint64_t gen = 0;          // transition-event staleness
    std::size_t p = 0;              // current P-state
    std::size_t busy = 0;
    double mem_free = 0.0;
    std::deque<std::uint32_t> queue;    // assigned, not started
    // Left-to-right sum of the queue's ETC entries (ready_times()):
    // appends extend it exactly, removals mark it stale until re-summed.
    mutable double queued_work = 0.0;
    mutable bool queued_work_stale = false;
    std::vector<std::uint32_t> running; // ascending task id
    std::size_t inbound = 0;            // migrations targeting this machine
    double last_accrual = 0.0;
    double last_activity = 0.0;         // last start/completion
    double energy_j = 0.0;
    double asleep_s = 0.0;
  };

  enum class TaskState : std::uint8_t {
    unborn, pending, queued, running, migrating, done
  };

  struct Task {
    std::uint32_t cls = 0;
    double arrival = 0.0;
    TaskState state = TaskState::unborn;
    double work_left = 0.0;      // instruction units (us x kReferenceMips)
    double progress_mark = 0.0;  // last instant work_left was accrued to
    std::uint32_t machine = 0;   // queued/running home; migrating target
    std::uint64_t gen = 0;       // completion/migration staleness
    double eta = 0.0;            // scheduled completion instant (running)
    double completion = 0.0;
  };

  // Electrical power (W) the machine draws right now.
  double power_draw(const Machine& m) const;
  // Integrates power into energy up to `now_` (call before any state
  // change that alters power_draw).
  void accrue(Machine& m);

  void trace(TraceKind kind, std::uint32_t a, std::uint32_t b);
  void push_event(double time, EventKind kind, std::uint32_t id,
                  std::uint64_t gen);

  void start_wake(Machine& m, std::uint32_t id);
  // Runs and clears the deferred plan rest, if one is held.
  void run_deferred();
  // Marks a machine where a start may have become possible: it freed a
  // core and memory, or its queue gained or lost a task.
  void mark(std::uint32_t machine) {
    dirty_[machine / 64] |= std::uint64_t{1} << (machine % 64);
  }
  void enqueue(std::uint32_t machine, std::uint32_t task_id);
  void dispatch_machine(std::uint32_t id);
  // Visits the marked machines in ascending id, as a loop over every
  // machine would reach them: a machine marked at or above the one being
  // visited is visited in this pass, one marked below waits for the next.
  // A machine that is not marked can start nothing, so the visits that
  // are skipped were no-ops.
  void dispatch_all();
  void schedule_completion(std::uint32_t task_id);
  void finish_task(std::uint32_t task_id);

  void on_arrival_event(const Event& ev);
  void on_completion_event(const Event& ev);
  void on_transition_event(const Event& ev);
  void on_migration_event(const Event& ev);
  void on_tick_event();

  void controller_power_gate();
  void controller_dvfs();
  void controller_migrate();

  const Scenario& scenario_;
  SimOptions options_;
  core::EtcMatrix etc_;
  std::vector<SimArrival> arrivals_;

  std::vector<Machine> machines_;
  std::vector<Task> tasks_;
  std::deque<std::size_t> unstarted_;  // ascending; see unstarted()
  std::vector<std::uint64_t> dirty_;   // machines to dispatch, one bit each
  std::function<void(Engine&)> deferred_;  // see defer()
  std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;
  std::size_t arrived_ = 0;
  std::size_t completed_ = 0;
  double last_progress_ = 0.0;
  OnlineScheduler* scheduler_ = nullptr;
  bool ran_ = false;

  SimReport report_;
};

}  // namespace hetero::sim
