// Portable fixed-width SIMD kernel layer with one-time runtime dispatch.
//
// Every dense hot loop in the library (Sinkhorn sweeps, Jacobi rotations,
// completion-time scans, reciprocal conversions) funnels through the kernel
// table returned by kernels(). The table is resolved once per process from a
// CPU feature probe, overridable with HETERO_SIMD=scalar|avx2|neon for
// testing; an unavailable forced backend falls back to scalar with a warning
// on stderr.
//
// Determinism contract: every kernel is written once against a 4-lane
// "virtual vector" abstraction (src/simd/kernels_impl.hpp) and compiled per
// backend, so all backends execute the same IEEE operations in the same
// order. Reductions use a fixed 4-lane accumulation order — lane k owns
// elements with index % 4 == k within full blocks, trailing elements extend
// lanes 0..2, and lanes combine as (l0 + l2) + (l1 + l3), matching the
// AVX2 extract-low/high + horizontal-add sequence. First-min/first-max scans
// keep one candidate per lane and resolve ties toward the smallest index,
// which reproduces a sequential strict-compare scan exactly. Kernels never
// use hardware FMA (backend sources build with -ffp-contract=off), so
// dispatched results are bit-identical to the scalar reference twin — the
// property the `simd_equiv` ctest label asserts.
#pragma once

#include <cstddef>

namespace hetero::simd {

enum class Backend { scalar = 0, avx2 = 1, neon = 2 };

/// Function-pointer table of the dispatched kernels. All span arguments are
/// contiguous; `n` counts doubles. See kernels_impl.hpp for the semantics of
/// each kernel (every backend shares that single implementation).
struct Kernels {
  // --- reductions (fixed 4-lane accumulation order) ---
  double (*sum)(const double* x, std::size_t n);
  double (*dot)(const double* a, const double* b, std::size_t n);
  // Two dot products sharing one streamed operand: *out0 = a . b0 and
  // *out1 = a . b1, each with the same 4-lane accumulation order as dot()
  // (bit-identical to two separate dot() calls). The blocked Gram build
  // streams each row of the short-dimension matrix once against two
  // partner rows, halving its memory traffic.
  void (*dot2)(const double* a, const double* b0, const double* b1,
               std::size_t n, double* out0, double* out1);
  // min/max/max-abs are order-independent for non-NaN data but are still
  // computed with the shared lane structure so every backend agrees bitwise
  // (including on signed zeros, which resolve by compare-and-select).
  double (*reduce_min)(const double* x, std::size_t n);  // +inf when n == 0
  double (*reduce_max)(const double* x, std::size_t n);  // -inf when n == 0
  double (*reduce_max_abs)(const double* x, std::size_t n);  // 0 when n == 0

  // --- elementwise transforms ---
  void (*scale)(double* x, std::size_t n, double f);        // x[i] *= f
  void (*add_into)(const double* x, double* acc, std::size_t n);  // acc += x
  void (*axpy)(double* acc, const double* x, std::size_t n, double a);
  // Gram matrix of a tall row-major matrix: g[i][j] = sum over k of
  // a[k][i] * a[k][j] for j >= i, with a `rows` x `n` at `lda` doubles per
  // row and g at `ldg`. Each entry starts at 0.0 and accumulates its
  // products over k in ascending order with unfused multiply-adds — the
  // order of a row-by-row rank-1 build, so every backend agrees bitwise.
  // Register-tiled: a 4 x 8 block of g stays in registers across the whole
  // k loop. Entries below the diagonal inside a diagonal tile are written
  // too (with their mirror's bits); the rest of the lower triangle is left
  // untouched for the caller to mirror (linalg::min_gram_into).
  void (*gram_upper)(const double* a, std::size_t rows, std::size_t n,
                     std::size_t lda, double* g, std::size_t ldg);
  // acc[i] = (acc[i] + a0*x0[i]) + a1*x1[i]: two fused axpy updates that
  // stream acc once, bit-identical to axpy(a0, x0) followed by axpy(a1,
  // x1). Backbone of the rank-2 tridiagonalization update and the tiled
  // sketch products in the large-matrix path.
  void (*axpy2)(double* acc, const double* x0, const double* x1,
                std::size_t n, double a0, double a1);
  // Plane rotation: x' = c*x - s*y, y' = s*x + c*y (mul/add, never fused).
  void (*rotate_pair)(double* x, double* y, std::size_t n, double c, double s);
  // ETC <-> ECS conversions: entrywise reciprocal with the incapable-entry
  // convention (+inf <-> 0) applied branchlessly.
  void (*reciprocal_or_zero)(const double* x, double* out, std::size_t n);
  void (*reciprocal_or_inf)(const double* x, double* out, std::size_t n);

  // --- fused Sinkhorn sweep kernels; each returns the 4-lane sum of the
  // row it just produced and accumulates it elementwise into acc ---
  double (*scale_accum)(double* row, std::size_t n, double f, double* acc);
  double (*scale_vec_accum)(double* row, const double* f, std::size_t n,
                            double* acc);
  double (*copy_accum)(const double* src, double* dst, std::size_t n,
                       double* acc);
  double (*copy_scale_accum)(const double* src, double* dst, std::size_t n,
                             double row_f, const double* col_f, double* acc);

  // --- scheduler scans (first-win semantics of a sequential strict scan) ---
  // Fused completion-time scan: best = min over j of ready[j] + etc_row[j],
  // best_j = first index attaining it, second = second order statistic
  // (duplicates counted). Infinite etc entries never win and leave second
  // infinite when fewer than two finite completion times exist — identical
  // to a sequential scan that skips them.
  void (*best_second_scan)(const double* etc_row, const double* ready,
                           std::size_t n, double* best_ct, double* second_ct,
                           std::size_t* best_j);
  // First index attaining the strict minimum of x (+inf entries lose).
  void (*argmin_first)(const double* x, std::size_t n, double* min_out,
                       std::size_t* at_out);
  // As argmin_first over x, but entries whose mask_src value is infinite are
  // excluded (the OLB capability filter). min_out stays +inf when every
  // entry is excluded.
  void (*argmin_masked_first)(const double* x, const double* mask_src,
                              std::size_t n, double* min_out,
                              std::size_t* at_out);
  // First index attaining the maximum with NaN entries skipped (they compare
  // false). Returns SIZE_MAX when no entry ever wins a strict compare (all
  // remaining entries -inf or NaN); callers choose the degradation policy.
  std::size_t (*argmax_first)(const double* x, std::size_t n);
};

/// Human-readable backend name ("scalar", "avx2", "neon").
const char* backend_name(Backend b);

/// True when the backend is compiled in AND the running CPU supports it.
bool backend_available(Backend b);

/// Kernel table for a specific backend, or nullptr when unavailable. Lets
/// tests compare every available backend against the scalar twin in one
/// process, without environment forcing.
const Kernels* kernels_for(Backend b);

/// The backend selected at first use: HETERO_SIMD env override when set and
/// available, otherwise the best available (avx2 > neon > scalar).
Backend active_backend();

/// The active kernel table. Resolved once; cheap to call afterwards, but hot
/// loops should still hoist `const auto& k = simd::kernels();` out.
const Kernels& kernels();

}  // namespace hetero::simd
