#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "base/error.hpp"
#include "sim/scheduler.hpp"

namespace hetero::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kUsPerSecond = 1e6;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    h = (h ^ (value & 0xffu)) * kFnvPrime;
    value >>= 8;
  }
  return h;
}

}  // namespace

double SimReport::violation_rate(SlaTier tier) const {
  const auto t = static_cast<std::size_t>(tier);
  if (sla_completed[t] == 0) return 0.0;
  return static_cast<double>(sla_violated[t]) /
         static_cast<double>(sla_completed[t]);
}

double SimReport::overall_violation_rate() const {
  std::size_t done = 0, bad = 0;
  for (std::size_t t = 0; t < kSlaTierCount; ++t) {
    done += sla_completed[t];
    bad += sla_violated[t];
  }
  if (done == 0) return 0.0;
  return static_cast<double>(bad) / static_cast<double>(done);
}

Engine::Engine(const Scenario& scenario, SimOptions options)
    : Engine(scenario, generate_arrivals(scenario, options.max_arrivals),
             options) {}

Engine::Engine(const Scenario& scenario, std::vector<SimArrival> arrivals,
               SimOptions options)
    : scenario_(scenario),
      options_(options),
      etc_(instance_etc(scenario)),
      arrivals_(std::move(arrivals)) {
  double previous = 0.0;
  for (const SimArrival& a : arrivals_) {
    detail::require_value(
        std::isfinite(a.time) && a.time >= previous &&
            a.task_class < scenario.task_classes.size(),
        "Engine: arrivals need finite, non-decreasing times >= 0 and task "
        "classes in range");
    previous = a.time;
  }
  detail::require_value(
      options_.tick_period >= 0.0 && std::isfinite(options_.tick_period),
      "Engine: tick_period must be finite and >= 0");
  detail::require_value(
      !(options_.power_gating || options_.dvfs || options_.migration) ||
          options_.tick_period > 0.0,
      "Engine: the power-gating/DVFS/migration controllers run at scheduler "
      "ticks; set tick_period > 0");
  if (options_.stall_after <= 0.0) {
    options_.stall_after = std::max(1e6, 20.0 * options_.tick_period);
  }

  machines_.reserve(scenario.machine_count());
  for (std::size_t c = 0; c < scenario.machine_classes.size(); ++c) {
    const MachineClass& spec = scenario.machine_classes[c];
    for (std::size_t k = 0; k < spec.count; ++k) {
      Machine m;
      m.cls = static_cast<std::uint32_t>(c);
      m.spec = &scenario_.machine_classes[c];
      m.mem_free = spec.memory_mb;
      machines_.push_back(std::move(m));
    }
  }
}

// ---------------------------------------------------------------------------
// Energy accounting.

double Engine::power_draw(const Machine& m) const {
  const MachineClass& spec = *m.spec;
  switch (m.power) {
    case PowerState::awake: {
      const std::size_t idle_c = std::min<std::size_t>(
          1, spec.c_states.size() - 1);
      const double busy = static_cast<double>(m.busy);
      const double idle = static_cast<double>(spec.cores - m.busy);
      return spec.s_states[0] + busy * spec.p_states[m.p] +
             idle * spec.c_states[idle_c];
    }
    case PowerState::to_sleep:
    case PowerState::to_wake:
      // Transitions draw the awake baseline with all cores quiesced.
      return spec.s_states[0];
    case PowerState::asleep:
      return spec.s_states[std::min(m.depth, spec.s_states.size() - 1)];
  }
  return 0.0;
}

void Engine::accrue(Machine& m) {
  const double dt = now_ - m.last_accrual;
  if (dt > 0.0) {
    m.energy_j += power_draw(m) * dt / kUsPerSecond;
    if (m.power == PowerState::asleep) m.asleep_s += dt / kUsPerSecond;
  }
  m.last_accrual = now_;
}

// ---------------------------------------------------------------------------
// Trace + event plumbing.

void Engine::trace(TraceKind kind, std::uint32_t a, std::uint32_t b) {
  std::uint64_t h = report_.trace_hash;
  if (h == 0) h = kFnvOffset;
  h = fnv_mix(h, std::bit_cast<std::uint64_t>(now_));
  h = fnv_mix(h, static_cast<std::uint64_t>(kind));
  h = fnv_mix(h, (static_cast<std::uint64_t>(a) << 32) | b);
  report_.trace_hash = h;
  if (options_.record_trace) report_.trace.push_back({now_, kind, a, b});
}

void Engine::push_event(double time, EventKind kind, std::uint32_t id,
                        std::uint64_t gen) {
  events_.push(Event{time, next_seq_++, kind, id, gen});
}

// ---------------------------------------------------------------------------
// Power-state machinery.

void Engine::start_wake(Machine& m, std::uint32_t id) {
  switch (m.power) {
    case PowerState::asleep:
      accrue(m);
      m.power = PowerState::to_wake;
      m.depth = 0;
      m.wake_requested = false;
      ++m.gen;
      m.transition_done = now_ + options_.wake_latency;
      push_event(m.transition_done, EventKind::transition, id, m.gen);
      trace(TraceKind::wake_begin, id, 0);
      ++report_.sleep_transitions;
      break;
    case PowerState::to_sleep:
      m.wake_requested = true;  // wake as soon as the sleep settles
      break;
    case PowerState::awake:
    case PowerState::to_wake:
      break;
  }
}

void Engine::set_sleep(std::size_t machine, std::size_t depth) {
  detail::require_dims(machine < machines_.size(),
                       "set_sleep: machine index out of range");
  detail::require_value(depth >= 1, "set_sleep: depth must be >= 1 "
                                    "(use wake() to return to S0)");
  Machine& m = machines_[machine];
  if (m.spec->s_states.size() < 2) return;  // no sleep states defined
  if (m.power != PowerState::awake) return; // already sleeping or in motion
  detail::require_value(m.busy == 0 && m.queue.empty() && m.inbound == 0,
                        "set_sleep: machine has running or queued work");
  accrue(m);
  m.power = PowerState::to_sleep;
  m.sleep_target = std::min(depth, m.spec->s_states.size() - 1);
  ++m.gen;
  m.transition_done = now_ + options_.sleep_latency;
  push_event(m.transition_done, EventKind::transition,
             static_cast<std::uint32_t>(machine), m.gen);
  trace(TraceKind::sleep_begin, static_cast<std::uint32_t>(machine),
        static_cast<std::uint32_t>(m.sleep_target));
  ++report_.sleep_transitions;
}

void Engine::wake(std::size_t machine) {
  detail::require_dims(machine < machines_.size(),
                       "wake: machine index out of range");
  start_wake(machines_[machine], static_cast<std::uint32_t>(machine));
}

void Engine::set_p_state(std::size_t machine, std::size_t p) {
  detail::require_dims(machine < machines_.size(),
                       "set_p_state: machine index out of range");
  Machine& m = machines_[machine];
  detail::require_value(p < m.spec->mips.size(),
                        "set_p_state: no such P-state");
  detail::require_value(m.power == PowerState::awake,
                        "set_p_state: machine is not awake");
  if (p == m.p) return;
  accrue(m);
  const double old_mips = m.spec->mips[m.p];
  m.p = p;
  // Accrue in-flight progress at the old rate, then reschedule each
  // running task's completion at the new one.
  for (const std::uint32_t tid : m.running) {
    Task& t = tasks_[tid];
    const double rate = old_mips / scenario_.multiplier(t.cls, m.cls);
    t.work_left =
        std::max(0.0, t.work_left - (now_ - t.progress_mark) * rate);
    schedule_completion(tid);
  }
  ++report_.p_state_changes;
  trace(TraceKind::p_state, static_cast<std::uint32_t>(machine),
        static_cast<std::uint32_t>(p));
}

// ---------------------------------------------------------------------------
// Task lifecycle.

void Engine::schedule_completion(std::uint32_t task_id) {
  Task& t = tasks_[task_id];
  const Machine& m = machines_[t.machine];
  t.progress_mark = now_;
  // The multiplier applies last, as in the ETC: a unit multiplier keeps
  // the MIPS-only instant bit-identical, and an imported ETC entry E runs
  // exactly E (1000 / 1000 * E), which 1000 * E / 1000 need not be.
  t.eta = now_ + t.work_left / m.spec->mips[m.p] *
                     scenario_.multiplier(t.cls, m.cls);
  ++t.gen;
  push_event(t.eta, EventKind::completion, task_id, t.gen);
}

void Engine::dispatch_machine(std::uint32_t id) {
  Machine& m = machines_[id];
  if (m.power != PowerState::awake) {
    if (!m.queue.empty()) start_wake(m, id);
    return;
  }
  while (m.busy < m.spec->cores && !m.queue.empty()) {
    const std::uint32_t tid = m.queue.front();
    Task& t = tasks_[tid];
    const double mem = scenario_.task_classes[t.cls].memory_mb;
    if (mem > m.mem_free) break;  // FIFO head-of-line blocks on memory
    m.queue.pop_front();
    accrue(m);
    ++m.busy;
    m.mem_free -= mem;
    t.state = TaskState::running;
    t.machine = id;
    m.running.insert(std::lower_bound(m.running.begin(), m.running.end(), tid),
                     tid);
    schedule_completion(tid);
    m.last_activity = now_;
    last_progress_ = now_;
    trace(TraceKind::start, tid, id);
    scheduler_->on_start(*this, tid, id);
  }
}

void Engine::dispatch_all() {
  for (std::uint32_t j = 0; j < machines_.size(); ++j) dispatch_machine(j);
}

void Engine::finish_task(std::uint32_t task_id) {
  Task& t = tasks_[task_id];
  Machine& m = machines_[t.machine];
  accrue(m);
  --m.busy;
  m.mem_free += scenario_.task_classes[t.cls].memory_mb;
  m.running.erase(
      std::find(m.running.begin(), m.running.end(), task_id));
  m.last_activity = now_;
  t.state = TaskState::done;
  t.completion = now_;
  t.work_left = 0.0;
  ++completed_;
  last_progress_ = now_;

  const TaskClass& cls = scenario_.task_classes[t.cls];
  const auto tier = static_cast<std::size_t>(cls.sla);
  const double flow = now_ - t.arrival;
  ++report_.sla_completed[tier];
  if (flow > sla_multiplier(cls.sla) * cls.expected_runtime) {
    ++report_.sla_violated[tier];
  }
  report_.mean_flow_time += flow;  // running sum; divided in run()
  report_.max_flow_time = std::max(report_.max_flow_time, flow);
  trace(TraceKind::completion, task_id, t.machine);
}

// ---------------------------------------------------------------------------
// Event handlers.

void Engine::on_arrival_event(const Event& ev) {
  Task& t = tasks_[ev.id];
  t.cls = static_cast<std::uint32_t>(arrivals_[ev.id].task_class);
  t.arrival = now_;
  t.state = TaskState::pending;
  t.work_left =
      scenario_.task_classes[t.cls].expected_runtime * kReferenceMips;
  ++arrived_;
  last_progress_ = now_;
  trace(TraceKind::arrival, ev.id, 0);
  scheduler_->on_arrival(*this, ev.id);
  dispatch_all();
}

void Engine::on_completion_event(const Event& ev) {
  Task& t = tasks_[ev.id];
  if (ev.gen != t.gen || t.state != TaskState::running) return;  // stale
  const std::uint32_t machine = t.machine;
  finish_task(ev.id);
  scheduler_->on_completion(*this, ev.id, machine);
  if (completed_ < tasks_.size()) dispatch_all();
}

void Engine::on_transition_event(const Event& ev) {
  Machine& m = machines_[ev.id];
  if (ev.gen != m.gen) return;  // superseded transition
  accrue(m);
  last_progress_ = now_;
  switch (m.power) {
    case PowerState::to_sleep:
      m.power = PowerState::asleep;
      m.depth = std::min(m.sleep_target, m.spec->s_states.size() - 1);
      trace(TraceKind::state_settled, ev.id,
            static_cast<std::uint32_t>(m.depth));
      if (m.wake_requested || !m.queue.empty()) start_wake(m, ev.id);
      break;
    case PowerState::to_wake:
      m.power = PowerState::awake;
      m.depth = 0;
      trace(TraceKind::state_settled, ev.id, 0);
      dispatch_machine(ev.id);
      break;
    case PowerState::awake:
    case PowerState::asleep:
      break;  // unreachable under the generation guard
  }
}

void Engine::on_migration_event(const Event& ev) {
  Task& t = tasks_[ev.id];
  if (ev.gen != t.gen || t.state != TaskState::migrating) return;
  Machine& m = machines_[t.machine];
  --m.inbound;
  t.state = TaskState::queued;
  m.queue.push_back(ev.id);
  last_progress_ = now_;
  trace(TraceKind::migrate_land, ev.id, t.machine);
  dispatch_machine(t.machine);
}

void Engine::on_tick_event() {
  scheduler_->on_tick(*this);
  if (options_.dvfs) controller_dvfs();
  if (options_.migration) controller_migrate();
  if (options_.power_gating) controller_power_gate();
  dispatch_all();

  // Stall detection: every arrival is in, nothing runs, nothing is in
  // flight, and no progress has been made for stall_after — the
  // scheduler has abandoned work (or a bug deadlocked dispatch).
  if (completed_ < tasks_.size() && arrived_ == tasks_.size() &&
      now_ - last_progress_ > options_.stall_after) {
    bool in_flight = false;
    for (const Machine& m : machines_) {
      if (m.busy > 0 || m.inbound > 0 || m.power == PowerState::to_sleep ||
          m.power == PowerState::to_wake) {
        in_flight = true;
        break;
      }
    }
    if (!in_flight) {
      throw ValueError(
          "simulation stalled: " +
          std::to_string(tasks_.size() - completed_) +
          " tasks neither running nor making progress (scheduler left "
          "work unassigned)");
    }
  }
  if (completed_ < tasks_.size()) {
    push_event(now_ + options_.tick_period, EventKind::tick, 0, 0);
  }
}

// ---------------------------------------------------------------------------
// Engine-level controllers.

void Engine::controller_power_gate() {
  for (std::uint32_t j = 0; j < machines_.size(); ++j) {
    Machine& m = machines_[j];
    if (m.power != PowerState::awake || m.busy > 0 || !m.queue.empty() ||
        m.inbound > 0) {
      continue;
    }
    if (m.spec->s_states.size() < 2) continue;
    if (now_ - m.last_activity < options_.idle_sleep_after) continue;
    set_sleep(j, m.spec->s_states.size() - 1);
  }
}

void Engine::controller_dvfs() {
  for (std::uint32_t j = 0; j < machines_.size(); ++j) {
    Machine& m = machines_[j];
    if (m.power != PowerState::awake || m.busy == 0) continue;
    const std::size_t deepest = m.spec->mips.size() - 1;
    const bool underloaded = m.queue.empty() && 2 * m.busy <= m.spec->cores;
    const std::size_t target =
        underloaded ? std::min(m.p + 1, deepest) : std::size_t{0};
    if (target != m.p) set_p_state(j, target);
  }
}

void Engine::controller_migrate() {
  // One migration per tick: from the most-loaded machine (first maximum)
  // to the least-loaded awake machine (first minimum), when the gap
  // crosses the threshold and a compatible running task exists.
  std::size_t hi = 0, hi_load = 0;
  bool have_lo = false;
  std::size_t lo = 0, lo_load = 0;
  for (std::size_t j = 0; j < machines_.size(); ++j) {
    const std::size_t load = load_of(j);
    if (load > hi_load) {
      hi = j;
      hi_load = load;
    }
    if (machines_[j].power == PowerState::awake &&
        (!have_lo || load < lo_load)) {
      have_lo = true;
      lo = j;
      lo_load = load;
    }
  }
  if (!have_lo || hi == lo) return;
  if (hi_load < lo_load + options_.migration_gap) return;
  for (const std::uint32_t tid : machines_[hi].running) {
    if (!can_run(tid, lo)) continue;
    migrate(tid, lo);
    return;
  }
}

// ---------------------------------------------------------------------------
// Scheduler-facing control surface.

std::size_t Engine::task_class_of(std::size_t task) const {
  detail::require_dims(task < tasks_.size(), "task index out of range");
  return arrivals_[task].task_class;
}

double Engine::arrival_time_of(std::size_t task) const {
  detail::require_dims(task < arrived_, "task has not arrived");
  return tasks_[task].arrival;
}

bool Engine::task_done(std::size_t task) const {
  detail::require_dims(task < tasks_.size(), "task index out of range");
  return tasks_[task].state == TaskState::done;
}

bool Engine::can_run(std::size_t task, std::size_t machine) const {
  detail::require_dims(task < tasks_.size() && machine < machines_.size(),
                       "can_run: index out of range");
  return std::isfinite(etc_(arrivals_[task].task_class, machine));
}

std::vector<std::size_t> Engine::unstarted() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < arrived_; ++i) {
    if (tasks_[i].state == TaskState::pending ||
        tasks_[i].state == TaskState::queued) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<double> Engine::base_ready_times() const {
  std::vector<double> base(machines_.size(), now_);
  for (std::size_t j = 0; j < machines_.size(); ++j) {
    const Machine& m = machines_[j];
    double avail = now_;
    switch (m.power) {
      case PowerState::awake:
        break;
      case PowerState::to_wake:
        avail = m.transition_done;
        break;
      case PowerState::asleep:
        avail = now_ + options_.wake_latency;
        break;
      case PowerState::to_sleep:
        avail = m.transition_done + options_.wake_latency;
        break;
    }
    if (m.busy >= m.spec->cores && !m.running.empty()) {
      double earliest = kInf;
      for (const std::uint32_t tid : m.running) {
        earliest = std::min(earliest, tasks_[tid].eta);
      }
      avail = std::max(avail, earliest);
    }
    base[j] = avail;
  }
  return base;
}

std::vector<double> Engine::ready_times() const {
  std::vector<double> ready = base_ready_times();
  for (std::size_t j = 0; j < machines_.size(); ++j) {
    const Machine& m = machines_[j];
    double queued_work = 0.0;
    for (const std::uint32_t tid : m.queue) {
      queued_work += etc_(tasks_[tid].cls, j);
    }
    ready[j] += queued_work / static_cast<double>(m.spec->cores);
  }
  return ready;
}

void Engine::recall_queued() {
  for (Machine& m : machines_) {
    for (const std::uint32_t tid : m.queue) {
      tasks_[tid].state = TaskState::pending;
    }
    m.queue.clear();
  }
}

void Engine::assign(std::size_t task, std::size_t machine) {
  detail::require_dims(task < arrived_ && machine < machines_.size(),
                       "assign: index out of range");
  Task& t = tasks_[task];
  detail::require_value(t.state == TaskState::pending ||
                            t.state == TaskState::queued,
                        "assign: task is not assignable (running or done)");
  detail::require_value(can_run(task, machine),
                        "assign: machine cannot run this task");
  if (t.state == TaskState::queued) {
    Machine& old = machines_[t.machine];
    const auto it = std::find(old.queue.begin(), old.queue.end(),
                              static_cast<std::uint32_t>(task));
    if (it != old.queue.end()) old.queue.erase(it);
  }
  t.state = TaskState::queued;
  t.machine = static_cast<std::uint32_t>(machine);
  machines_[machine].queue.push_back(static_cast<std::uint32_t>(task));
}

bool Engine::migrate(std::size_t task, std::size_t machine) {
  detail::require_dims(task < tasks_.size() && machine < machines_.size(),
                       "migrate: index out of range");
  Task& t = tasks_[task];
  if (t.state != TaskState::running) return false;
  if (t.machine == machine) return false;
  detail::require_value(can_run(task, machine),
                        "migrate: target cannot run this task");
  Machine& src = machines_[t.machine];
  accrue(src);
  const double rate =
      src.spec->mips[src.p] / scenario_.multiplier(t.cls, src.cls);
  t.work_left =
      std::max(0.0, t.work_left - (now_ - t.progress_mark) * rate);
  --src.busy;
  src.mem_free += scenario_.task_classes[t.cls].memory_mb;
  src.running.erase(std::find(src.running.begin(), src.running.end(),
                              static_cast<std::uint32_t>(task)));
  src.last_activity = now_;
  t.state = TaskState::migrating;
  t.machine = static_cast<std::uint32_t>(machine);
  ++t.gen;
  ++machines_[machine].inbound;
  push_event(now_ + options_.migration_latency, EventKind::migration,
             static_cast<std::uint32_t>(task), t.gen);
  ++report_.migrations;
  trace(TraceKind::migrate_begin, static_cast<std::uint32_t>(task),
        static_cast<std::uint32_t>(machine));
  return true;
}

std::size_t Engine::machine_class_of(std::size_t machine) const {
  detail::require_dims(machine < machines_.size(),
                       "machine index out of range");
  return machines_[machine].cls;
}

bool Engine::awake(std::size_t machine) const {
  detail::require_dims(machine < machines_.size(),
                       "machine index out of range");
  return machines_[machine].power == PowerState::awake;
}

std::size_t Engine::sleep_depth(std::size_t machine) const {
  detail::require_dims(machine < machines_.size(),
                       "machine index out of range");
  const Machine& m = machines_[machine];
  return m.power == PowerState::asleep ? m.depth : 0;
}

std::size_t Engine::busy_cores(std::size_t machine) const {
  detail::require_dims(machine < machines_.size(),
                       "machine index out of range");
  return machines_[machine].busy;
}

std::size_t Engine::queue_length(std::size_t machine) const {
  detail::require_dims(machine < machines_.size(),
                       "machine index out of range");
  return machines_[machine].queue.size();
}

std::size_t Engine::load_of(std::size_t machine) const {
  detail::require_dims(machine < machines_.size(),
                       "machine index out of range");
  const Machine& m = machines_[machine];
  return m.busy + m.queue.size() + m.inbound;
}

double Engine::free_memory(std::size_t machine) const {
  detail::require_dims(machine < machines_.size(),
                       "machine index out of range");
  return machines_[machine].mem_free;
}

std::size_t Engine::p_state(std::size_t machine) const {
  detail::require_dims(machine < machines_.size(),
                       "machine index out of range");
  return machines_[machine].p;
}

// ---------------------------------------------------------------------------
// The main loop.

SimReport Engine::run(OnlineScheduler& scheduler) {
  detail::require_value(!ran_, "Engine::run: engines are one-shot; "
                               "construct a fresh Engine per run");
  ran_ = true;
  scheduler_ = &scheduler;
  report_ = SimReport{};
  report_.scheduler = std::string(scheduler.name());
  report_.tasks = arrivals_.size();
  tasks_.assign(arrivals_.size(), Task{});

  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    push_event(arrivals_[i].time, EventKind::arrival,
               static_cast<std::uint32_t>(i), 0);
  }
  if (options_.tick_period > 0.0 && !arrivals_.empty()) {
    push_event(options_.tick_period, EventKind::tick, 0, 0);
  }

  while (!events_.empty()) {
    const Event ev = events_.top();
    events_.pop();
    now_ = ev.time;
    ++report_.events;
    switch (ev.kind) {
      case EventKind::arrival: on_arrival_event(ev); break;
      case EventKind::completion: on_completion_event(ev); break;
      case EventKind::transition: on_transition_event(ev); break;
      case EventKind::migration: on_migration_event(ev); break;
      case EventKind::tick: on_tick_event(); break;
    }
    if (completed_ == tasks_.size()) break;
  }
  if (completed_ < tasks_.size()) {
    throw ValueError("simulation stalled: event queue drained with " +
                     std::to_string(tasks_.size() - completed_) +
                     " unfinished tasks");
  }

  report_.end_time = now_;
  report_.completed = completed_;
  report_.machine_energy_j.resize(machines_.size());
  for (std::size_t j = 0; j < machines_.size(); ++j) {
    accrue(machines_[j]);
    report_.machine_energy_j[j] = machines_[j].energy_j;
    report_.total_energy_j += machines_[j].energy_j;
    report_.asleep_machine_seconds += machines_[j].asleep_s;
  }
  if (completed_ > 0) {
    report_.mean_flow_time /= static_cast<double>(completed_);
  }
  scheduler_ = nullptr;
  return std::move(report_);
}

}  // namespace hetero::sim
