// The three heterogeneity measures (paper Sections II-C/E, III) plus the
// rejected alternatives the paper compares against (Section II-D, Fig. 2).
//
//   MPH — machine performance homogeneity (eq. 3 / weighted eq. 4)
//   TDH — task type difficulty homogeneity (eq. 7 / weighted eq. 6)
//   TMA — task-machine affinity: mean non-maximum singular value of the
//         standard-form ECS matrix (eq. 8), falling back to the
//         column-normalized form of [2] (eq. 5) when no standard form
//         exists (Section VI).
//
// MPH and TDH lie in (0, 1]; TMA lies in [0, 1]. All three are invariant to
// scaling the ECS matrix by a positive factor, and the standard form makes
// them mutually independent (the paper's three required properties).
#pragma once

#include <span>
#include <vector>

#include "core/etc_matrix.hpp"
#include "core/standard_form.hpp"
#include "core/weights.hpp"

namespace hetero::par {
class ThreadPool;
}

namespace hetero::core {

// ---------------------------------------------------------------------------
// Homogeneity of a positive value vector (shared by MPH and TDH).

/// Mean of v_(i) / v_(i+1) over the ascending-sorted values (eqs. 3 and 7).
/// A single value is perfectly homogeneous (returns 1). All values must be
/// positive.
double adjacent_ratio_homogeneity(std::span<const double> values);

/// Same measure for values that are already sorted ascending (the
/// incremental annealing path maintains sorted sum vectors and skips the
/// per-evaluation sort). Precondition: ascending order, positive values.
double adjacent_ratio_homogeneity_sorted(std::span<const double> ascending);

/// Alternative homogeneity measures the paper evaluates and rejects
/// (Section II-D): they miss the spread of intermediate values (R, G) or
/// fail to match intuition (COV).
double min_max_ratio(std::span<const double> values);                // R
double adjacent_ratio_geometric_mean(std::span<const double> values); // G
double value_cov(std::span<const double> values);                    // COV

// ---------------------------------------------------------------------------
// The paper's measures.

/// Machine performance homogeneity (eq. 3, weighted via eq. 4).
double mph(const EcsMatrix& ecs, const Weights& w = {});

/// Task type difficulty homogeneity (eq. 7, weighted via eq. 6).
double tdh(const EcsMatrix& ecs, const Weights& w = {});

/// Dispatch knobs for the blocked large-matrix path: above the element
/// threshold, TMA standardizes with the tiled pool-parallel Sinkhorn
/// sweeps and takes the spectrum from the blocked Gram route
/// (linalg::blocked_singular_values) instead of the dense one-sided-Jacobi
/// twin. Both paths compute the same full non-maximum spectrum average;
/// the rsvd_equiv tests bound the drift between them (TMA relative error
/// well under 1e-3, typically ~1e-9) and pin bitwise reproducibility
/// across thread counts.
struct LargePathOptions {
  /// Switch to the blocked path when task_count * machine_count reaches
  /// this many entries; 0 disables it entirely (dense twin everywhere).
  /// The default, 2^20 (a 4096 x 256 environment), is where the dense
  /// Jacobi sweeps start dominating end-to-end characterization time.
  std::size_t min_elements = std::size_t{1} << 20;
  /// Row/column block edge of the tiled Gram build in the spectrum path.
  std::size_t gram_block = 48;
  /// Worker pool; nullptr uses par::shared_pool().
  par::ThreadPool* pool = nullptr;
};

struct TmaOptions {
  SinkhornOptions sinkhorn;
  /// When the standard form does not exist / does not converge, fall back to
  /// the column-normalized TMA of [2] (eq. 5) instead of throwing.
  bool allow_column_normalized_fallback = true;
  /// Large-matrix dispatch (see LargePathOptions).
  LargePathOptions large;
};

/// Full TMA computation record.
struct TmaResult {
  double value = 0.0;
  /// True when eq. 8 on the standard form was used; false when the eq. 5
  /// column-normalized fallback was taken.
  bool used_standard_form = true;
  /// True when the blocked large-matrix path (tiled Sinkhorn + blocked
  /// Gram spectrum) produced this result instead of the dense Jacobi twin.
  bool used_blocked_path = false;
  /// Singular values of the matrix the measure was computed from, sorted
  /// descending (sigma_1 ~= 1 in the standard-form case, Theorem 2).
  std::vector<double> singular_values;
  /// The Sinkhorn record (meaningful when a standard form was attempted).
  StandardFormResult standard_form;
};

/// Task-machine affinity with full diagnostics.
TmaResult tma_detailed(const EcsMatrix& ecs, const Weights& w = {},
                       const TmaOptions& options = {});

/// Task-machine affinity (eq. 8; eq. 5 fallback for non-normalizable
/// patterns).
double tma(const EcsMatrix& ecs, const Weights& w = {});

/// The original column-normalized TMA of [2] (eq. 5): columns are scaled to
/// unit 1-norm (no row normalization), and TMA = mean(sigma_i / sigma_1,
/// i >= 2).
double tma_column_normalized(const EcsMatrix& ecs, const Weights& w = {});

// ---------------------------------------------------------------------------
// Aggregate characterization.

/// The (MPH, TDH, TMA) triple.
struct MeasureSet {
  double mph = 0.0;
  double tdh = 0.0;
  double tma = 0.0;
};

MeasureSet measure_set(const EcsMatrix& ecs, const Weights& w = {});

/// Everything an analyst wants about one environment in a single pass.
struct EnvironmentReport {
  MeasureSet measures;
  std::vector<double> machine_performances;  // MP_j, original machine order
  std::vector<double> task_difficulties;     // TD_i, original task order
  double mph_alt_ratio = 0.0;                // R on MPs
  double mph_alt_geometric = 0.0;            // G on MPs
  double mph_alt_cov = 0.0;                  // COV on MPs
  TmaResult tma_detail;
};

EnvironmentReport characterize(const EcsMatrix& ecs, const Weights& w = {},
                               const TmaOptions& options = {});

}  // namespace hetero::core
