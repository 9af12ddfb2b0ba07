// Workload models for the arrival-driven simulator.
//
// Real HC workloads are neither uniform over task types nor homogeneous in
// time. This module generates arrival traces with a task-type *mix*
// (probability per type, the execution-frequency interpretation of the
// paper's task weights w_t) and time-varying rates: diurnal (sinusoidal)
// modulation and two-state bursty (Markov-modulated Poisson) processes.
// The arrivals feed sim::Engine's explicit-arrival constructor, typically
// over scenario_from_etc(etc). Traces round-trip through CSV so external
// workloads can be replayed.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/etc_matrix.hpp"
#include "etcgen/rng.hpp"
#include "sim/scenario.hpp"

namespace hetero::sim {

/// Time-variation of the arrival rate.
enum class RateShape {
  constant,  // homogeneous Poisson at base_rate
  diurnal,   // rate(t) = base_rate * (1 + amplitude * sin(2 pi t / period))
  bursty,    // two-state MMPP: base_rate or base_rate * burst_factor
};

struct WorkloadOptions {
  double base_rate = 1.0;  // mean arrivals per unit time (> 0)
  RateShape shape = RateShape::constant;

  /// diurnal: relative amplitude in [0, 1) and period (> 0).
  double diurnal_amplitude = 0.5;
  double diurnal_period = 100.0;

  /// bursty: rate multiplier while bursting (>= 1) and the mean sojourn
  /// times of the normal/burst states (> 0).
  double burst_factor = 5.0;
  double mean_normal_duration = 50.0;
  double mean_burst_duration = 10.0;

  /// Task-type mix: probability weights per ETC row (empty = uniform).
  /// Values must be nonnegative with a positive sum.
  std::vector<double> task_mix;
};

/// Generates `count` arrivals from the model, in non-decreasing time
/// order, with task_class an ETC row. Throws ValueError for malformed
/// options.
std::vector<SimArrival> generate_workload(const core::EtcMatrix& etc,
                                          const WorkloadOptions& options,
                                          std::size_t count,
                                          etcgen::Rng& rng);

/// Writes a trace as "time,task_name" CSV rows (header included).
void write_trace_csv(std::ostream& out, const core::EtcMatrix& etc,
                     const std::vector<SimArrival>& arrivals);

std::string write_trace_csv_string(const core::EtcMatrix& etc,
                                   const std::vector<SimArrival>& arrivals);

/// Reads a trace back; task names must exist in the ETC matrix. Numeric
/// task indices are also accepted in place of names. Each field must be
/// one whole token: the time a finite number >= 0, the index in range.
/// Failures throw ValueError (DimensionError for an index out of range)
/// naming the line.
std::vector<SimArrival> read_trace_csv(std::istream& in,
                                       const core::EtcMatrix& etc);

std::vector<SimArrival> read_trace_csv_string(const std::string& text,
                                              const core::EtcMatrix& etc);

}  // namespace hetero::sim
