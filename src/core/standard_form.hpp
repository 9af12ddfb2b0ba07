// Standard ECS form via iterative row/column normalization (paper eq. 9,
// Theorem 1, Theorem 2; Sinkhorn [21], Marshall & Olkin [20]).
//
// A *standard* ECS matrix has every row summing to sqrt(M/T) and every
// column summing to sqrt(T/M) (Theorem 1 with k = 1/sqrt(TM)); by Theorem 2
// its largest singular value is exactly 1, which reduces the TMA measure to
// the mean of the non-maximum singular values (eq. 8). The standard form is
// computed by alternating column and row normalization until the maximum
// row/column-sum error drops below the tolerance (the paper stops at 1e-8).
//
// For matrices with zero entries the iteration is not guaranteed to
// converge (Section VI); StandardFormResult reports convergence, iteration
// count, residual, and the zero-pattern diagnosis.
#pragma once

#include <cstddef>
#include <vector>

#include "core/etc_matrix.hpp"
#include "core/weights.hpp"
#include "linalg/matrix.hpp"

namespace hetero::par {
class ThreadPool;
}

namespace hetero::core {

struct SinkhornOptions {
  /// Stop when every row sum is within `tolerance` of sqrt(M/T) and every
  /// column sum within `tolerance` of sqrt(T/M) (paper: 1e-8).
  double tolerance = 1e-8;
  /// One iteration = one column normalization followed by one row
  /// normalization (paper Section V).
  std::size_t max_iterations = 10000;
  /// When true, a non-convergent input throws ConvergenceError instead of
  /// returning converged == false.
  bool throw_on_failure = false;
  /// Normalization order within one iteration: the paper's eq. 9 does the
  /// column pass first (default). Row-first converges to the same standard
  /// form (the scaling is unique up to a scalar); exposed for the ordering
  /// ablation.
  bool row_first = false;
  /// Warm start: when non-empty, the iteration begins from
  /// diag(warm_row_scale) * input * diag(warm_col_scale) instead of the
  /// input itself. Sizes must match the input (or be empty, meaning all
  /// ones); entries must be positive and finite. The seed scalings are
  /// folded into the reported row_scale/col_scale, so the result contract
  /// (standard ~= diag(row_scale) * input * diag(col_scale)) is unchanged.
  /// Seeding with the scalings of a previous result for a nearby matrix
  /// (e.g. a single perturbed entry) starts the iteration near its fixed
  /// point and skips the cold ramp-in; an arbitrary seed is safe (the
  /// iteration is globally convergent) but may not help. At least one
  /// iteration always runs, so a warm start never skips convergence
  /// verification.
  std::vector<double> warm_row_scale;
  std::vector<double> warm_col_scale;
};

/// Zero-pattern diagnosis attached to non-convergent inputs (Section VI).
enum class NormalizabilityClass {
  /// All entries positive: Theorem 1 guarantees a standard form.
  positive,
  /// Zeros present, but the pattern has total support (square case) or its
  /// Appendix-A square tiling does: an exact standard form exists.
  normalizable_pattern,
  /// The limit of the iteration exists but only as a limit: some entries
  /// decay to zero and the scaling diverges (support without total
  /// support). TMA of the limit matrix is still well defined.
  limit_only,
  /// No support: the iteration cannot even approach equal sums.
  not_normalizable,
};

struct StandardFormResult {
  /// The (approximately) standard matrix after the final iteration.
  linalg::Matrix standard;
  /// Accumulated diagonal scalings: standard ~= diag(row_scale) * input *
  /// diag(col_scale). Exact when the pattern is normalizable; divergent
  /// (but still the applied scaling) in the limit_only case.
  std::vector<double> row_scale;
  std::vector<double> col_scale;
  std::size_t iterations = 0;
  bool converged = false;
  /// Final max row/column-sum error.
  double residual = 0.0;
  NormalizabilityClass pattern = NormalizabilityClass::positive;
  /// True when the input was projected onto its total-support core before
  /// iterating (limit_only patterns): the Sinkhorn limit is unchanged but
  /// convergence becomes geometric instead of O(1/k).
  bool projected_to_core = false;

  /// Target sums for the standard form.
  double target_row_sum = 0.0;
  double target_col_sum = 0.0;
};

/// Runs eq. 9 on a raw nonnegative matrix (no all-zero rows/columns).
///
/// The iteration is fused: each normalization pass streams the matrix once
/// in row-major order, scaling it and accumulating both dimensions' sums
/// (hence the convergence residual) as it goes, so no strided column
/// traversals or separate residual passes are needed. Summation order
/// matches the unfused reference exactly, so results are bit-identical to
/// standardize_reference for empty warm-start seeds.
StandardFormResult standardize(const linalg::Matrix& ecs,
                               const SinkhornOptions& options = {});

/// Allocation-lean fused solver for trusted hot loops (the annealing
/// evaluator standardizes thousands of single-entry perturbations per
/// second): `ecs` MUST be strictly positive — positivity, finiteness, and
/// pattern classification are all skipped. Reuses `out`'s storage (the
/// matrix and scale vectors keep their heap blocks across same-shape calls)
/// plus thread-local iteration scratch. Results are bit-identical to
/// standardize() on the same positive input and options.
void standardize_positive_into(const linalg::Matrix& ecs,
                               const SinkhornOptions& options,
                               StandardFormResult& out);

/// Cache-blocked, pool-parallel variant of standardize() for large
/// matrices (the size-frontier characterization path). Same kernel as
/// standardize(), with each row-major sweep split into tiles of
/// `tile_rows` rows on the pool: every tile accumulates column sums into
/// a tile-local buffer, and the buffers fold in ascending tile order
/// afterwards. The summation order is therefore a function of `tile_rows`
/// alone, so results are bit-identical across thread counts (including a
/// 1-thread pool). With one tile (`tile_rows >= rows`) the result is
/// bit-identical to standardize(). With several tiles it is a close twin
/// only — the fold associates column additions differently from one
/// row-major accumulator — but both converge to the same unique standard
/// form, and the rsvd_equiv tests pin the agreement down to the Sinkhorn
/// tolerance.
StandardFormResult standardize_tiled(const linalg::Matrix& ecs,
                                     const SinkhornOptions& options,
                                     par::ThreadPool& pool,
                                     std::size_t tile_rows = 64);

/// Unfused baseline implementation (per-column strided sums, separate
/// residual pass). Kept for equivalence tests and before/after perf
/// benchmarks; prefer standardize() everywhere else.
StandardFormResult standardize_reference(const linalg::Matrix& ecs,
                                         const SinkhornOptions& options = {});

/// Runs eq. 9 on the weighted view of an ECS matrix.
StandardFormResult standardize(const EcsMatrix& ecs, const Weights& w = {},
                               const SinkhornOptions& options = {});

/// Classifies the zero pattern without iterating (Section VI analysis).
NormalizabilityClass classify_pattern(const linalg::Matrix& ecs);

/// Max deviation of row sums from `row_target` and column sums from
/// `col_target` (the convergence residual).
double standard_form_residual(const linalg::Matrix& m, double row_target,
                              double col_target);

}  // namespace hetero::core
