#include "core/standard_form.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/standard_form_internal.hpp"
#include "graph/structure.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/simd.hpp"

namespace hetero::core {

using linalg::Matrix;

namespace internal {

void validate_input(const Matrix& m) {
  detail::require_value(!m.empty(), "standardize: empty matrix");
  detail::require_value(!m.has_nonfinite(), "standardize: non-finite entries");
  detail::require_value(m.all_nonnegative(),
                        "standardize: entries must be nonnegative");
  for (std::size_t i = 0; i < m.rows(); ++i)
    detail::require_value(m.row_sum(i) > 0.0, "standardize: all-zero row");
  const auto cs = m.col_sums();
  for (std::size_t j = 0; j < m.cols(); ++j)
    detail::require_value(cs[j] > 0.0, "standardize: all-zero column");
}

void validate_warm_scale(const std::vector<double>& scale, std::size_t dim,
                         const char* which) {
  if (scale.empty()) return;
  // Diagnostic strings are built only on failure: require_* takes its
  // message eagerly, which would put a heap-allocating concatenation per
  // entry on the warm-started hot path.
  if (scale.size() != dim)
    throw DimensionError(std::string("standardize: ") + which +
                         " size does not match the input");
  bool ok = true;
  for (double s : scale) ok = ok && s > 0.0 && std::isfinite(s);
  if (!ok)
    throw ValueError(std::string("standardize: ") + which +
                     " entries must be positive and finite");
}

}  // namespace internal

using internal::checked_scale_factor;
using internal::validate_input;
using internal::validate_warm_scale;

NormalizabilityClass classify_pattern(const Matrix& ecs) {
  if (ecs.all_positive()) return NormalizabilityClass::positive;
  if (graph::is_sinkhorn_normalizable(ecs))
    return NormalizabilityClass::normalizable_pattern;
  if (graph::support_core(ecs).has_value())
    return NormalizabilityClass::limit_only;
  return NormalizabilityClass::not_normalizable;
}

double standard_form_residual(const Matrix& m, double row_target,
                              double col_target) {
  double r = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i)
    r = std::max(r, std::abs(m.row_sum(i) - row_target));
  const auto cs = m.col_sums();
  for (std::size_t j = 0; j < m.cols(); ++j)
    r = std::max(r, std::abs(cs[j] - col_target));
  return r;
}

namespace {

// Caller-owned iteration scratch. The kernel (re)sizes every vector, so a
// caller that keeps one alive (standardize_positive_into's thread-local
// copy) reuses its heap blocks across same-shape calls.
struct SinkhornScratch {
  std::vector<double> row_sums;
  std::vector<double> col_sums;
  // Per-column factors of the column pass.
  std::vector<double> factor;
  // Tile-local column accumulators (one per tile, each padded by a cache
  // line so tiles on different threads never share one) and per-tile
  // row-sum residuals; unused (and never allocated) with a single tile,
  // which accumulates straight into col_sums.
  std::vector<double> tile_cols;
  std::vector<double> tile_err;
};

// The eq. 9 iteration behind every production entry point. Copies `src`
// into result.standard (warm-seeded), then alternates column and row
// passes until the residual drops below the tolerance.
//
// Incremental state: every pass sweeps the matrix once in row-major order
// through the fused SIMD kernels, scaling each row and producing both
// dimensions' fresh sums (and the row-sum residual) as a side effect, so
// the strided column scans and the separate residual pass of the
// reference disappear. The sweep runs in row tiles of `tile_rows`: with
// one tile it is the serial sweep, accumulating straight into col_sums;
// with several, tiles run on `pool` (required then), each accumulating
// into its own buffer, and the buffers fold in ascending tile order. The
// summation order is therefore a function of `tile_rows` alone — never of
// how tiles land on threads. Per-column additions happen in increasing
// row order and per-row sums use the kernel layer's fixed 4-lane order,
// exactly how the reference's col_sum/row_sum scans accumulate, so with
// one tile every scale factor (and therefore the result) is bit-identical
// to standardize_reference (reference/standard_form.cpp).
void run_sinkhorn(const Matrix& src, const SinkhornOptions& options,
                  StandardFormResult& result, SinkhornScratch& scratch,
                  std::size_t tile_rows, par::ThreadPool* pool) {
  const std::size_t rows = src.rows();
  const std::size_t cols = src.cols();
  validate_warm_scale(options.warm_row_scale, rows, "warm_row_scale");
  validate_warm_scale(options.warm_col_scale, cols, "warm_col_scale");
  const auto tasks = static_cast<double>(rows);
  const auto machines = static_cast<double>(cols);
  const double rt = std::sqrt(machines / tasks);  // Mk with k = 1/sqrt(TM)
  const double ct = std::sqrt(tasks / machines);  // Tk
  result.target_row_sum = rt;
  result.target_col_sum = ct;
  result.iterations = 0;
  result.converged = false;
  result.residual = 0.0;
  const bool seeded =
      !options.warm_row_scale.empty() || !options.warm_col_scale.empty();
  result.row_scale.assign(rows, 1.0);
  result.col_scale.assign(cols, 1.0);
  if (!options.warm_row_scale.empty())
    result.row_scale = options.warm_row_scale;
  if (!options.warm_col_scale.empty())
    result.col_scale = options.warm_col_scale;
  // A fresh output starts as a plain copy of the source, which the
  // unseeded setup sweep then only reads; reused storage
  // (standardize_positive_into) is overwritten by the setup sweep itself.
  Matrix& work = result.standard;
  const bool fresh = work.rows() != rows || work.cols() != cols;
  if (fresh) work = src;

  const std::size_t tiles = rows / tile_rows + (rows % tile_rows != 0);
  const std::size_t acc_stride = cols + 8;
  auto& row_sums = scratch.row_sums;
  auto& col_sums = scratch.col_sums;
  auto& factor = scratch.factor;
  row_sums.assign(rows, 0.0);
  col_sums.assign(cols, 0.0);
  factor.assign(cols, 0.0);
  if (tiles > 1) {
    scratch.tile_cols.assign(tiles * acc_stride, 0.0);
    scratch.tile_err.assign(tiles, 0.0);
  }
  const auto& K = simd::kernels();

  // One row-major sweep: row_op(i, acc, err) transforms row i, adds it
  // into the tile's column accumulator, returns its sum and may fold a
  // deviation into the tile's running maximum `err`. Leaves row_sums and
  // col_sums holding the sums of the swept matrix and returns the maximum
  // over tiles of `err`.
  //
  // Lambdas reachable from the pool capture this frame's scalars by value
  // and the pool only ever gets a copy of `tile`: were a reference to a
  // local handed out, the compiler would have to reload it after every
  // opaque kernel call, in the single-tile sweep too.
  const auto sweep = [&](const auto& row_op) {
    const auto tile = [&scratch, row_op, rows, cols, tiles, tile_rows,
                       acc_stride](std::size_t t) {
      double* acc = tiles == 1 ? scratch.col_sums.data()
                               : scratch.tile_cols.data() + t * acc_stride;
      std::fill(acc, acc + cols, 0.0);
      double err = 0.0;
      const std::size_t end = std::min(rows, (t + 1) * tile_rows);
      for (std::size_t i = t * tile_rows; i < end; ++i)
        scratch.row_sums[i] = row_op(i, acc, err);
      return err;
    };
    if (tiles == 1) return tile(0);
    par::parallel_for(*pool, 0, tiles, [&scratch, tile](std::size_t t) {
      scratch.tile_err[t] = tile(t);
    });
    std::fill(col_sums.begin(), col_sums.end(), 0.0);
    double err = 0.0;
    for (std::size_t t = 0; t < tiles; ++t) {
      K.add_into(scratch.tile_cols.data() + t * acc_stride, col_sums.data(),
                 cols);
      err = std::max(err, scratch.tile_err[t]);
    }
    return err;
  };

  // Setup: prime both sums, copying (and warm-seeding) the source into
  // work on the way unless work already is its plain copy.
  sweep([&, cols, seeded, fresh](std::size_t i, double* acc, double&) {
    double* out = work.row(i).data();
    if (seeded)
      return K.copy_scale_accum(src.row(i).data(), out, cols,
                                result.row_scale[i], result.col_scale.data(),
                                acc);
    if (!fresh) return K.copy_accum(src.row(i).data(), out, cols, acc);
    K.add_into(out, acc, cols);
    return K.sum(out, cols);
  });
  const auto column_pass = [&] {
    for (std::size_t j = 0; j < cols; ++j) {
      factor[j] = checked_scale_factor(ct, col_sums[j]);
      result.col_scale[j] *= factor[j];
    }
    sweep([&, cols](std::size_t i, double* acc, double&) {
      return K.scale_vec_accum(work.row(i).data(), factor.data(), cols, acc);
    });
  };
  const auto row_pass = [&] {
    return sweep([&, cols, rt](std::size_t i, double* acc, double& err) {
      const double f = checked_scale_factor(rt, row_sums[i]);
      result.row_scale[i] *= f;
      const double s = K.scale_accum(work.row(i).data(), cols, f, acc);
      err = std::max(err, std::abs(s - rt));
      return s;
    });
  };

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    // Eq. 9: one column pass and one row pass per iteration (column first
    // unless the ordering ablation flips it). Either way the second pass
    // leaves the final matrix's sums in row_sums and col_sums.
    double residual = 0.0;
    if (options.row_first) {
      row_pass();
      column_pass();
      for (std::size_t i = 0; i < rows; ++i)
        residual = std::max(residual, std::abs(row_sums[i] - rt));
    } else {
      column_pass();
      residual = row_pass();  // the row-sum deviations, already at hand
    }
    for (std::size_t j = 0; j < cols; ++j)
      residual = std::max(residual, std::abs(col_sums[j] - ct));
    result.iterations = it + 1;
    result.residual = residual;
    if (residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  if (!result.converged && options.throw_on_failure)
    throw ConvergenceError(
        "standardize: Sinkhorn iteration did not reach tolerance (pattern "
        "may be decomposable; see Section VI)");
}

// The validating front end of standardize() and standardize_tiled():
// input checks and the Section-VI diagnosis, then the kernel on the input
// or, for limit_only patterns, on its total-support core (entries off
// every positive diagonal decay to zero in the Sinkhorn limit but only at
// rate O(1/k); dropping them up front leaves the limit unchanged and
// restores geometric convergence).
StandardFormResult standardize_validated(const Matrix& ecs,
                                         const SinkhornOptions& options,
                                         std::size_t tile_rows,
                                         par::ThreadPool* pool) {
  validate_input(ecs);
  StandardFormResult result;
  result.pattern = classify_pattern(ecs);
  result.projected_to_core =
      result.pattern == NormalizabilityClass::limit_only;
  SinkhornScratch scratch;
  if (result.projected_to_core)
    run_sinkhorn(*graph::support_core(ecs), options, result, scratch,
                 tile_rows, pool);
  else
    run_sinkhorn(ecs, options, result, scratch, tile_rows, pool);
  return result;
}

}  // namespace

StandardFormResult standardize(const Matrix& ecs,
                               const SinkhornOptions& options) {
  return standardize_validated(ecs, options, ecs.rows(), nullptr);
}

void standardize_positive_into(const Matrix& ecs,
                               const SinkhornOptions& options,
                               StandardFormResult& out) {
  detail::require_dims(!ecs.empty(), "standardize: empty matrix");
  out.pattern = NormalizabilityClass::positive;
  out.projected_to_core = false;
  thread_local SinkhornScratch scratch;
  run_sinkhorn(ecs, options, out, scratch, ecs.rows(), nullptr);
}

StandardFormResult standardize_tiled(const Matrix& ecs,
                                     const SinkhornOptions& options,
                                     par::ThreadPool& pool,
                                     std::size_t tile_rows) {
  detail::require_value(tile_rows > 0,
                        "standardize_tiled: tile_rows must be positive");
  return standardize_validated(ecs, options, tile_rows, &pool);
}

StandardFormResult standardize(const EcsMatrix& ecs, const Weights& w,
                               const SinkhornOptions& options) {
  return standardize(ecs.weighted_values(w), options);
}

}  // namespace hetero::core
