// Measure-targeted ECS generation: produce an environment whose
// (MPH, TDH, TMA) hit prescribed values.
//
// This is the application the paper motivates in Section I(d): "generating
// ETC matrices for simulation studies that span the entire range of
// heterogeneities [2]". The construction seeds with a rank-1 matrix whose
// geometric row/column profiles achieve the MPH and TDH targets exactly
// (rank-1 means TMA = 0), injects a cyclic affinity pattern to approach the
// TMA target, and polishes with simulated annealing on the log-entries.
//
// The same machinery calibrates the embedded SPEC-like datasets
// (tools/calibrate_spec.cpp).
#pragma once

#include <cstdint>
#include <optional>

#include "core/etc_matrix.hpp"
#include "core/measures.hpp"
#include "etcgen/anneal.hpp"
#include "parallel/thread_pool.hpp"

namespace hetero::etcgen {

struct TargetMeasures {
  double mph = 1.0;  // in (0, 1]
  double tdh = 1.0;  // in (0, 1]
  double tma = 0.0;  // in [0, 1)
};

struct TargetGenOptions {
  std::size_t tasks = 0;
  std::size_t machines = 0;
  std::uint64_t seed = 1;
  /// Multiplies the final matrix (measures are scale-invariant; this only
  /// sets physical units).
  double scale = 1.0;
  /// Annealing budget per restart.
  std::size_t anneal_iterations = 30000;
  /// Acceptable max per-measure deviation.
  double tolerance = 1e-3;
  /// Independent annealing restarts (best result wins).
  std::size_t restarts = 4;
  /// Optional pool: restarts run concurrently when provided.
  par::ThreadPool* pool = nullptr;
};

struct TargetGenResult {
  core::EcsMatrix ecs;
  core::MeasureSet achieved;
  /// Max abs deviation over the three measures.
  double error = 0.0;
};

/// Measures of a raw positive matrix treated as an ECS matrix (no labels).
core::MeasureSet measure_set_raw(const linalg::Matrix& ecs);

/// The Sinkhorn budget the annealing search applies to proposal
/// evaluations: tolerance two orders tighter than the generator tolerance,
/// clamped to [1e-8, 1e-4]. Proposal energies only need a fraction of the
/// acceptance tolerance; the accepted matrix is re-measured at full
/// precision for reporting. Exposed for benchmarks and tests.
core::SinkhornOptions search_sinkhorn_options(double generator_tolerance);

/// The rank-1 seed with exact MPH/TDH and TMA = 0.
linalg::Matrix rank1_seed(const TargetMeasures& target, std::size_t tasks,
                          std::size_t machines);

/// Generates a positive ECS matrix whose measures approximate `target`.
/// Throws ValueError for out-of-range targets or degenerate dimensions
/// (TMA > 0 needs tasks >= 2 and machines >= 2; MPH < 1 needs machines >= 2;
/// TDH < 1 needs tasks >= 2). Throws ConvergenceError when no restart
/// reaches `tolerance`.
TargetGenResult generate_with_measures(const TargetMeasures& target,
                                       const TargetGenOptions& options);

}  // namespace hetero::etcgen
