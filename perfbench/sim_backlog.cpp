// sim_backlog: scheduler comparisons on a seeded, overloaded scenario. One
// op runs sim::Engine once per production scheduler token — greedy_mct,
// batch_min_min, batch_max_min, and batch_min_min with power-gating and
// migration on — in process, on this one thread.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sim/engine.hpp"
#include "sim/scenario.hpp"
#include "sim/scheduler.hpp"

namespace perfbench {
namespace {

namespace sim = hetero::sim;

struct Config {
  const char* token;
  const char* label;  // metric-name suffix
  bool controllers;
};
constexpr Config kConfigs[] = {
    {"greedy_mct", "greedy_mct", false},
    {"batch_min_min", "batch_min_min", false},
    {"batch_max_min", "batch_max_min", false},
    {"batch_min_min", "batch_min_min_ctl", true},
};
constexpr std::size_t kConfigCount = sizeof kConfigs / sizeof kConfigs[0];

sim::SimOptions options_for(const Config& config) {
  sim::SimOptions o;
  o.power_gating = config.controllers;
  o.migration = config.controllers;
  return o;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", v);
  return buf;
}

std::string list(std::initializer_list<double> values) {
  std::string out = "[";
  for (const double v : values) {
    if (out.size() > 1) out += ", ";
    out += fmt(v);
  }
  return out + "]";
}

/// Scenario text in the EEC machine-class/task-class format: three machine
/// classes of different speed, width and power, and four evenly spaced task
/// streams whose windows overlap so that, while all four run, offered work
/// is about 1.4 times the fleet's capacity; the backlog then drains.
///
/// The seed draws what the event order does not depend on: each machine
/// class's power ladders, each task class's memory footprint (always far
/// below a machine's memory) and SLA tier. Every seed therefore simulates
/// the same events and costs the same to run, while energy and SLA scores
/// differ. Batch planning cost reacts chaotically to arrival timing (a
/// shifted phase changed one comparison's time by up to 2x), so arrival
/// times stay fixed.
std::string make_scenario(std::uint64_t seed) {
  SplitMix64 rng(seed);
  auto jitter = [&](double v) {
    return std::round(v * (0.8 + 0.4 * rng.unit()));
  };
  std::string text = "# sim_backlog scenario, seed " + std::to_string(seed) +
                     "\n";
  struct MachineSpec {
    double count, cores, memory, top_mips, awake_w, core_w;
  };
  const MachineSpec machines[] = {
      {2, 4, 16384, 2400, 150, 14},
      {3, 2, 8192, 1200, 90, 6},
      {2, 2, 8192, 3000, 70, 18},
  };
  for (const MachineSpec& m : machines) {
    const double core_w = jitter(m.core_w);
    const double awake = jitter(m.awake_w);
    text += "machine class:\n{\n";
    text += "  Number of machines: " + fmt(m.count) + "\n";
    text += "  CPU type: X86\n";
    text += "  Number of cores: " + fmt(m.cores) + "\n";
    text += "  Memory: " + fmt(m.memory) + "\n";
    text += "  S-States: " +
            list({awake, awake * 0.8, awake * 0.6, awake * 0.3, awake * 0.1,
                  0}) +
            "\n";
    text += "  P-States: " + list({core_w, core_w * 0.7, core_w * 0.45}) + "\n";
    text += "  C-States: " + list({core_w, core_w * 0.25, core_w * 0.1, 0}) +
            "\n";
    text += "  MIPS: " +
            list({m.top_mips, m.top_mips * 0.75, m.top_mips * 0.5}) + "\n";
    text += "  GPUs: no\n}\n";
  }
  struct TaskSpec {
    double start, end, gap, runtime;
    const char* type;
  };
  const TaskSpec tasks[] = {
      {0, 400000, 6000, 40000, "WEB"},
      {0, 400000, 8000, 120000, "BATCH"},
      {100000, 330000, 12000, 250000, "HPC"},
      {50000, 360000, 8000, 80000, "STREAM"},
  };
  for (const TaskSpec& t : tasks) {
    text += "task class:\n{\n";
    text += "  Start time: " + fmt(t.start) + "\n";
    text += "  End time: " + fmt(t.end) + "\n";
    text += "  Inter arrival: " + fmt(t.gap) + "\n";
    text += "  Expected runtime: " + fmt(t.runtime) + "\n";
    text += "  Memory: " + fmt(256.0 * static_cast<double>(1 + rng.below(8))) +
            "\n";
    text += "  VM type: LINUX\n  GPU enabled: no\n";
    text += "  SLA type: SLA" + std::to_string(rng.below(4)) + "\n";
    text += "  CPU type: X86\n";
    text += std::string("  Task type: ") + t.type + "\n";
    text += "  Seed: 0\n}\n";
  }
  return text;
}

/// Planning time and backlog seen by one run's scheduler callbacks.
struct PlanStats {
  double plan_us = 0.0;
  double pending_sum = 0.0;
  double pending_peak = 0.0;
  std::uint64_t callbacks = 0;  // planning callbacks sampled
};

/// Benchmark-side decorator: forwards every callback to the production
/// scheduler, times it and records it as a span. At planning callbacks it
/// also samples the backlog, outside the timed interval.
class TimedScheduler final : public sim::OnlineScheduler {
 public:
  TimedScheduler(std::unique_ptr<sim::OnlineScheduler> inner, PlanStats& stats,
                 SpanLog& log, std::uint64_t op, std::uint32_t parent)
      : inner_(std::move(inner)), stats_(stats), log_(log), op_(op),
        parent_(parent) {}

  std::string_view name() const override { return inner_->name(); }
  void on_arrival(sim::Engine& engine, std::size_t task) override {
    sample_backlog(engine);
    timed([&] { inner_->on_arrival(engine, task); });
  }
  void on_start(sim::Engine& engine, std::size_t task,
                std::size_t machine) override {
    timed([&] { inner_->on_start(engine, task, machine); });
  }
  void on_completion(sim::Engine& engine, std::size_t task,
                     std::size_t machine) override {
    sample_backlog(engine);
    timed([&] { inner_->on_completion(engine, task, machine); });
  }
  void on_tick(sim::Engine& engine) override {
    timed([&] { inner_->on_tick(engine); });
  }

 private:
  // Arrivals and completions are where the batch schedulers replan.
  void sample_backlog(const sim::Engine& engine) {
    const double pending = static_cast<double>(engine.unstarted().size());
    stats_.pending_sum += pending;
    stats_.pending_peak = std::max(stats_.pending_peak, pending);
    ++stats_.callbacks;
  }

  template <class F>
  void timed(F&& f) {
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    stats_.plan_us += micros(t1 - t0);
    log_.add(op_, parent_, "sched.plan", t0, t1);
  }

  std::unique_ptr<sim::OnlineScheduler> inner_;
  PlanStats& stats_;
  SpanLog& log_;
  std::uint64_t op_;
  std::uint32_t parent_;
};

struct RunRecord {
  std::uint64_t hash = 0;
  double energy = 0.0;
};

sim::SimReport run_once(const sim::Scenario& scenario, const Config& config) {
  const auto scheduler = sim::make_scheduler(config.token);
  sim::Engine engine(scenario, options_for(config));
  return engine.run(*scheduler);
}

}  // namespace

Outcome run_sim_backlog(const Options& opts) {
  Outcome out;
  sim::Scenario scenario;
  std::vector<RunRecord> reference(kConfigCount);
  std::vector<double> total, inputs, parse, warm;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = rep == 0 ? process_start() : Clock::now();
    const std::string text = make_scenario(opts.seed);
    const auto t1 = Clock::now();
    scenario = sim::parse_scenario(text);
    const auto t2 = Clock::now();
    // Warm-up: one comparison. The first repetition's runs are the first
    // run of each (scenario, token), which every timed run must reproduce.
    for (std::size_t k = 0; k < kConfigCount; ++k) {
      const sim::SimReport r = run_once(scenario, kConfigs[k]);
      if (rep == 0) reference[k] = {r.trace_hash, r.total_energy_j};
    }
    const auto t3 = Clock::now();
    total.push_back(seconds(t3 - t0));
    inputs.push_back(seconds(t1 - t0));
    parse.push_back(seconds(t2 - t1));
    warm.push_back(seconds(t3 - t2));
  }
  out.end_to_end.push_back({"setup_s", percentile(total, 0.5), "s"});
  out.per_layer.push_back({"setup.inputs_s", percentile(inputs, 0.5), "s"});
  out.per_layer.push_back({"setup.parse_s", percentile(parse, 0.5), "s"});
  out.per_layer.push_back({"setup.warm_s", percentile(warm, 0.5), "s"});

  std::vector<RunRecord> runs;  // kConfigCount per op, in config order
  std::vector<double> latency;
  const double phase_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(phase_s));
  auto last = t0;
  std::vector<Clock::time_point> done;
  while (last < end) {
    const auto s = Clock::now();
    for (const Config& config : kConfigs) {
      const sim::SimReport r = run_once(scenario, config);
      runs.push_back({r.trace_hash, r.total_energy_j});
    }
    last = Clock::now();
    done.push_back(last);
    latency.push_back(micros(last - s));
  }

  if (opts.trace) {
    SpanLog log;
    std::vector<double> traced_latency;
    Mean unattributed, events;
    std::vector<Mean> run_us(kConfigCount), plan_us(kConfigCount);
    double pending_sum = 0.0, pending_peak = 0.0;
    std::uint64_t callbacks = 0;
    const auto tend = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(phase_s));
    for (std::uint64_t op = 1; Clock::now() < tend; ++op) {
      const std::uint32_t root = log.reserve_id();
      const auto s = Clock::now();
      double children = 0.0;
      for (std::size_t k = 0; k < kConfigCount; ++k) {
        const std::uint32_t span = log.reserve_id();
        PlanStats stats;
        TimedScheduler scheduler(sim::make_scheduler(kConfigs[k].token), stats,
                                 log, op, span);
        sim::Engine engine(scenario, options_for(kConfigs[k]));
        const auto r0 = Clock::now();
        const sim::SimReport r = engine.run(scheduler);
        const auto r1 = Clock::now();
        log.add_with_id(span, op, root, kConfigs[k].label, r0, r1);
        runs.push_back({r.trace_hash, r.total_energy_j});
        run_us[k].add(micros(r1 - r0));
        plan_us[k].add(stats.plan_us);
        events.add(static_cast<double>(r.events));
        pending_sum += stats.pending_sum;
        pending_peak = std::max(pending_peak, stats.pending_peak);
        callbacks += stats.callbacks;
        children += micros(r1 - r0);
      }
      const auto e = Clock::now();
      log.add_with_id(root, op, 0, "op", s, e);
      traced_latency.push_back(micros(e - s));
      unattributed.add(micros(e - s) - children);
    }
    Mean run_all, plan_all;
    for (std::size_t k = 0; k < kConfigCount; ++k) {
      run_all.add(run_us[k].value());
      plan_all.add(plan_us[k].value());
    }
    out.per_layer.push_back({"sim.run_us", run_all.value(), "us"});
    out.per_layer.push_back({"sched.plan_us", plan_all.value(), "us"});
    out.per_layer.push_back(
        {"sim.engine_self_us", run_all.value() - plan_all.value(), "us"});
    out.per_layer.push_back({"sim.events", events.value(), "count"});
    out.per_layer.push_back(
        {"sched.pending_mean",
         callbacks ? pending_sum / static_cast<double>(callbacks) : 0.0,
         "count"});
    out.per_layer.push_back({"sched.pending_peak", pending_peak, "count"});
    for (std::size_t k = 0; k < kConfigCount; ++k)
      out.per_layer.push_back(
          {std::string("sched.plan_share.") + kConfigs[k].label,
           run_us[k].value() > 0 ? plan_us[k].value() / run_us[k].value()
                                 : 0.0,
           "ratio"});
    const double untraced_p50 = percentile(latency, 0.5);
    out.per_layer.push_back(
        {"trace.unattributed_us", unattributed.value(), "us"});
    out.per_layer.push_back(
        {"trace.overhead_pct",
         100.0 * (percentile(traced_latency, 0.5) - untraced_p50) /
             untraced_p50,
         "%"});
    out.per_layer.push_back(
        {"trace.spans", static_cast<double>(log.size() + log.dropped()),
         "count"});
    log.write(opts.out_dir + "/trace-" + opts.workload + "-" +
              std::to_string(opts.seed) + ".ndjson");
  }

  // Check: every run reproduces the trace hash and energy of the first run
  // of its token, and that energy is positive.
  out.attempted = runs.size() / kConfigCount;
  for (std::size_t op = 0; op < out.attempted; ++op) {
    bool good = true;
    for (std::size_t k = 0; k < kConfigCount; ++k) {
      const RunRecord& r = runs[op * kConfigCount + k];
      good = good && reference[k].energy > 0.0 &&
             r.hash == reference[k].hash && r.energy == reference[k].energy;
    }
    if (!good) ++out.failed;
  }
  std::string runs_json;
  for (std::size_t k = 0; k < kConfigCount; ++k) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\":{\"trace_hash\":\"%016llx\",\"energy_j\":%.6f}",
                  k ? "," : "", kConfigs[k].label,
                  static_cast<unsigned long long>(reference[k].hash),
                  reference[k].energy);
    runs_json += buf;
  }
  report_phase(out, t0, done, latency);
  out.conditions =
      "\"threads\":1,\"connections\":0,\"machines\":" +
      std::to_string(scenario.machine_count()) + ",\"runs\":{" + runs_json +
      "}";
  return out;
}

}  // namespace perfbench
