#include "sim/workload.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numbers>
#include <random>
#include <sstream>
#include <utility>

#include "base/error.hpp"
#include "linalg/vector_ops.hpp"

namespace hetero::sim {
namespace {

void validate(const core::EtcMatrix& etc, const WorkloadOptions& o) {
  detail::require_value(o.base_rate > 0.0,
                        "workload: base_rate must be positive");
  detail::require_value(o.diurnal_amplitude >= 0.0 &&
                            o.diurnal_amplitude < 1.0,
                        "workload: diurnal_amplitude must be in [0, 1)");
  detail::require_value(o.diurnal_period > 0.0,
                        "workload: diurnal_period must be positive");
  detail::require_value(o.burst_factor >= 1.0,
                        "workload: burst_factor must be >= 1");
  detail::require_value(o.mean_normal_duration > 0.0 &&
                            o.mean_burst_duration > 0.0,
                        "workload: state durations must be positive");
  if (!o.task_mix.empty()) {
    detail::require_dims(o.task_mix.size() == etc.task_count(),
                         "workload: task_mix size != task count");
    double total = 0.0;
    for (double p : o.task_mix) {
      detail::require_value(p >= 0.0, "workload: negative mix weight");
      total += p;
    }
    detail::require_value(total > 0.0, "workload: mix weights sum to zero");
  }
}

// Draws a task type from the mix (uniform when empty).
std::size_t draw_type(const core::EtcMatrix& etc, const WorkloadOptions& o,
                      etcgen::Rng& rng) {
  if (o.task_mix.empty()) return etcgen::uniform_index(rng, etc.task_count());
  const double total = hetero::linalg::sum(o.task_mix);
  double x = etcgen::uniform(rng, 0.0, total);
  for (std::size_t i = 0; i < o.task_mix.size(); ++i) {
    x -= o.task_mix[i];
    if (x <= 0.0) return i;
  }
  return o.task_mix.size() - 1;
}

}  // namespace

std::vector<SimArrival> generate_workload(const core::EtcMatrix& etc,
                                          const WorkloadOptions& options,
                                          std::size_t count,
                                          etcgen::Rng& rng) {
  validate(etc, options);
  std::vector<SimArrival> arrivals;
  arrivals.reserve(count);

  double t = 0.0;
  if (options.shape == RateShape::constant) {
    // Homogeneous Poisson: exponential gaps, no thinning, so the trace
    // depends on nothing but base_rate, the mix and the RNG.
    std::exponential_distribution<double> gap(options.base_rate);
    while (arrivals.size() < count) {
      t += gap(rng);
      arrivals.push_back({t, draw_type(etc, options, rng)});
    }
    return arrivals;
  }

  // Bursty state machine.
  bool bursting = false;
  double state_until =
      -options.mean_normal_duration * std::log(etcgen::uniform(rng, 1e-12, 1.0));

  // The envelope rate dominates the instantaneous rate for thinning.
  const double envelope =
      options.shape == RateShape::bursty
          ? options.base_rate * options.burst_factor
          : options.base_rate * (1.0 + options.diurnal_amplitude);

  while (arrivals.size() < count) {
    // Candidate event from the homogeneous envelope process.
    t += -std::log(etcgen::uniform(rng, 1e-300, 1.0)) / envelope;

    double rate = options.base_rate;
    switch (options.shape) {
      case RateShape::constant:  // handled above
        break;
      case RateShape::diurnal:
        rate *= 1.0 + options.diurnal_amplitude *
                          std::sin(2.0 * std::numbers::pi * t /
                                   options.diurnal_period);
        break;
      case RateShape::bursty:
        while (t > state_until) {
          bursting = !bursting;
          const double mean = bursting ? options.mean_burst_duration
                                       : options.mean_normal_duration;
          state_until += -mean * std::log(etcgen::uniform(rng, 1e-12, 1.0));
        }
        if (bursting) rate *= options.burst_factor;
        break;
    }
    // Thinning: accept with probability rate / envelope.
    if (etcgen::uniform(rng, 0.0, 1.0) * envelope > rate) continue;
    arrivals.push_back({t, draw_type(etc, options, rng)});
  }
  return arrivals;
}

void write_trace_csv(std::ostream& out, const core::EtcMatrix& etc,
                     const std::vector<SimArrival>& arrivals) {
  out << "time,task\n";
  out.precision(17);
  for (const SimArrival& a : arrivals) {
    detail::require_dims(a.task_class < etc.task_count(),
                         "write_trace_csv: task index out of range");
    out << a.time << ',' << etc.task_names()[a.task_class] << '\n';
  }
}

std::string write_trace_csv_string(const core::EtcMatrix& etc,
                                   const std::vector<SimArrival>& arrivals) {
  std::ostringstream out;
  write_trace_csv(out, etc, arrivals);
  return out.str();
}

std::vector<SimArrival> read_trace_csv(std::istream& in,
                                       const core::EtcMatrix& etc) {
  std::vector<SimArrival> arrivals;
  std::string line;
  std::size_t lineno = 0;
  bool first = true;
  const auto where = [&lineno] {
    return "read_trace_csv line " + std::to_string(lineno) + ": ";
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const auto comma = line.find(',');
    if (comma == std::string::npos) throw ValueError(where() + "no comma");
    const std::string_view time_str = std::string_view(line).substr(0, comma);
    const std::string_view task_str = std::string_view(line).substr(comma + 1);
    if (std::exchange(first, false) && time_str == "time") continue;  // header
    // Each field is parsed as one whole token.
    SimArrival a;
    const char* time_end = time_str.data() + time_str.size();
    const auto [time_ptr, time_ec] =
        std::from_chars(time_str.data(), time_end, a.time);
    if (time_ec != std::errc() || time_ptr != time_end ||
        !std::isfinite(a.time) || a.time < 0.0) {
      throw ValueError(where() + "time must be a finite number >= 0, got '" +
                       std::string(time_str) + "'");
    }
    const char* task_end = task_str.data() + task_str.size();
    const auto [task_ptr, task_ec] =
        std::from_chars(task_str.data(), task_end, a.task_class);
    if (!task_str.empty() && task_ptr == task_end) {
      // A numeric index: from_chars consumed every character.
      if (task_ec != std::errc() || a.task_class >= etc.task_count()) {
        throw DimensionError(where() + "task index '" +
                             std::string(task_str) + "' out of range");
      }
    } else {
      const std::vector<std::string>& names = etc.task_names();
      const auto it = std::find(names.begin(), names.end(), task_str);
      if (it == names.end()) {
        throw ValueError(where() + "unknown task '" + std::string(task_str) +
                         "'");
      }
      a.task_class = static_cast<std::size_t>(it - names.begin());
    }
    arrivals.push_back(a);
  }
  return arrivals;
}

std::vector<SimArrival> read_trace_csv_string(const std::string& text,
                                              const core::EtcMatrix& etc) {
  std::istringstream in(text);
  return read_trace_csv(in, etc);
}

}  // namespace hetero::sim
