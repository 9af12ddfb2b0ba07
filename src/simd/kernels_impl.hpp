// The one implementation of every dispatched kernel, templated on a 4-lane
// virtual-vector backend (VecScalar / VecAvx2 / VecNeon). Each backend .cpp
// includes this header with its own Vec type, so all backends execute the
// same IEEE operations in the same order and produce bit-identical results.
//
// Conventions shared by every kernel:
//  - Reductions: lane k accumulates elements with (index % 4) == k within
//    full 4-wide blocks; the <=3 trailing elements extend lanes 0..2 (one
//    element per lane, in order); lanes combine as (l0 + l2) + (l1 + l3).
//  - First-min / first-max scans: each lane tracks the first element of its
//    own index stream winning a strict compare; the global winner is the
//    smallest index among the lanes attaining the global extremum. Because
//    every element belongs to exactly one stream and strict compares record
//    first attainment, this equals the sequential strict scan's answer.
//  - No hardware FMA anywhere (backend sources compile with
//    -ffp-contract=off), so mul/add sequences stay two rounded operations on
//    every backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "simd/simd.hpp"

namespace hetero::simd::detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

template <class V>
struct KernelsImpl {
  using v = typename V::v;

  static v iota() {
    alignas(32) static const double k[4] = {0.0, 1.0, 2.0, 3.0};
    return V::load(k);
  }

  // Compare-and-select min/max: identical across backends (native min/max
  // instructions disagree on NaN and signed-zero ties between ISAs).
  static v vmin(v a, v b) { return V::blend(b, a, V::lt(a, b)); }
  static v vmax(v a, v b) { return V::blend(b, a, V::gt(a, b)); }

  static double combine_sum(const double l[4]) {
    return (l[0] + l[2]) + (l[1] + l[3]);
  }

  // ---- reductions ----

  static double sum(const double* x, std::size_t n) {
    v acc = V::zero();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) acc = V::add(acc, V::load(x + i));
    double l[4];
    V::lanes(acc, l);
    for (std::size_t t = 0; i + t < n; ++t) l[t] += x[i + t];
    return combine_sum(l);
  }

  static double dot(const double* a, const double* b, std::size_t n) {
    v acc = V::zero();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
      acc = V::add(acc, V::mul(V::load(a + i), V::load(b + i)));
    double l[4];
    V::lanes(acc, l);
    for (std::size_t t = 0; i + t < n; ++t) l[t] += a[i + t] * b[i + t];
    return combine_sum(l);
  }

  static void dot2(const double* a, const double* b0, const double* b1,
                   std::size_t n, double* out0, double* out1) {
    v acc0 = V::zero();
    v acc1 = V::zero();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const v av = V::load(a + i);
      acc0 = V::add(acc0, V::mul(av, V::load(b0 + i)));
      acc1 = V::add(acc1, V::mul(av, V::load(b1 + i)));
    }
    double l0[4];
    double l1[4];
    V::lanes(acc0, l0);
    V::lanes(acc1, l1);
    for (std::size_t t = 0; i + t < n; ++t) {
      l0[t] += a[i + t] * b0[i + t];
      l1[t] += a[i + t] * b1[i + t];
    }
    *out0 = combine_sum(l0);
    *out1 = combine_sum(l1);
  }

  static double reduce_min(const double* x, std::size_t n) {
    v acc = V::bcast(kInf);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) acc = vmin(acc, V::load(x + i));
    double l[4];
    V::lanes(acc, l);
    for (std::size_t t = 0; i + t < n; ++t)
      l[t] = x[i + t] < l[t] ? x[i + t] : l[t];
    double r = l[0];
    for (int k = 1; k < 4; ++k) r = l[k] < r ? l[k] : r;
    return r;
  }

  static double reduce_max(const double* x, std::size_t n) {
    v acc = V::bcast(-kInf);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) acc = vmax(acc, V::load(x + i));
    double l[4];
    V::lanes(acc, l);
    for (std::size_t t = 0; i + t < n; ++t)
      l[t] = x[i + t] > l[t] ? x[i + t] : l[t];
    double r = l[0];
    for (int k = 1; k < 4; ++k) r = l[k] > r ? l[k] : r;
    return r;
  }

  static double reduce_max_abs(const double* x, std::size_t n) {
    v acc = V::zero();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) acc = vmax(acc, V::abs(V::load(x + i)));
    double l[4];
    V::lanes(acc, l);
    for (std::size_t t = 0; i + t < n; ++t) {
      const double a = x[i + t] < 0.0 ? -x[i + t] : x[i + t];
      l[t] = a > l[t] ? a : l[t];
    }
    double r = l[0];
    for (int k = 1; k < 4; ++k) r = l[k] > r ? l[k] : r;
    return r;
  }

  // ---- elementwise transforms ----

  static void scale(double* x, std::size_t n, double f) {
    const v fv = V::bcast(f);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) V::store(x + i, V::mul(V::load(x + i), fv));
    for (; i < n; ++i) x[i] *= f;
  }

  static void add_into(const double* x, double* acc, std::size_t n) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
      V::store(acc + i, V::add(V::load(acc + i), V::load(x + i)));
    for (; i < n; ++i) acc[i] += x[i];
  }

  static void axpy(double* acc, const double* x, std::size_t n, double a) {
    const v av = V::bcast(a);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
      V::store(acc + i,
               V::add(V::load(acc + i), V::mul(av, V::load(x + i))));
    for (; i < n; ++i) acc[i] += a * x[i];
  }

  // One R x 4C tile of gram_upper: rows i0..i0+R-1, columns j0..j0+4C-1.
  template <int R, int C>
  static void gram_tile(const double* a, std::size_t rows, std::size_t lda,
                        std::size_t i0, std::size_t j0, double* g,
                        std::size_t ldg) {
    v acc[R][C];
    for (int r = 0; r < R; ++r)
      for (int c = 0; c < C; ++c) acc[r][c] = V::zero();
    for (std::size_t k = 0; k < rows; ++k) {
      const double* ak = a + k * lda;
      v x[C];
      for (int c = 0; c < C; ++c) x[c] = V::load(ak + j0 + 4 * c);
      for (int r = 0; r < R; ++r) {
        const v b = V::bcast(ak[i0 + r]);
        for (int c = 0; c < C; ++c)
          acc[r][c] = V::add(acc[r][c], V::mul(b, x[c]));
      }
    }
    for (int r = 0; r < R; ++r)
      for (int c = 0; c < C; ++c)
        V::store(g + (i0 + r) * ldg + j0 + 4 * c, acc[r][c]);
  }

  // Rows i0..i0+R-1 of gram_upper, from the diagonal to the last column.
  template <int R>
  static void gram_rows(const double* a, std::size_t rows, std::size_t n,
                        std::size_t lda, std::size_t i0, double* g,
                        std::size_t ldg) {
    std::size_t j0 = i0;
    for (; j0 + 8 <= n; j0 += 8) gram_tile<R, 2>(a, rows, lda, i0, j0, g, ldg);
    for (; j0 + 4 <= n; j0 += 4) gram_tile<R, 1>(a, rows, lda, i0, j0, g, ldg);
    for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r) {
      const std::size_t i = i0 + r;
      for (std::size_t j = j0 > i ? j0 : i; j < n; ++j) {
        double s = 0.0;
        for (std::size_t k = 0; k < rows; ++k)
          s += a[k * lda + i] * a[k * lda + j];
        g[i * ldg + j] = s;
      }
    }
  }

  static void gram_upper(const double* a, std::size_t rows, std::size_t n,
                         std::size_t lda, double* g, std::size_t ldg) {
    std::size_t i0 = 0;
    for (; i0 + 4 <= n; i0 += 4) gram_rows<4>(a, rows, n, lda, i0, g, ldg);
    for (; i0 < n; ++i0) gram_rows<1>(a, rows, n, lda, i0, g, ldg);
  }

  static void axpy2(double* acc, const double* x0, const double* x1,
                    std::size_t n, double a0, double a1) {
    const v a0v = V::bcast(a0);
    const v a1v = V::bcast(a1);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      // (acc + a0*x0) + a1*x1 — same association as two axpy() calls.
      const v t0 = V::add(V::load(acc + i), V::mul(a0v, V::load(x0 + i)));
      V::store(acc + i, V::add(t0, V::mul(a1v, V::load(x1 + i))));
    }
    for (; i < n; ++i) acc[i] = (acc[i] + a0 * x0[i]) + a1 * x1[i];
  }

  static void rotate_pair(double* x, double* y, std::size_t n, double c,
                          double s) {
    const v cv = V::bcast(c);
    const v sv = V::bcast(s);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const v xv = V::load(x + i);
      const v yv = V::load(y + i);
      V::store(x + i, V::sub(V::mul(cv, xv), V::mul(sv, yv)));
      V::store(y + i, V::add(V::mul(sv, xv), V::mul(cv, yv)));
    }
    for (; i < n; ++i) {
      const double xi = x[i];
      const double yi = y[i];
      x[i] = c * xi - s * yi;
      y[i] = s * xi + c * yi;
    }
  }

  static void reciprocal_or_zero(const double* x, double* out, std::size_t n) {
    const v one = V::bcast(1.0);
    const v inf = V::bcast(kInf);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const v xv = V::load(x + i);
      const v finite = V::lt(V::abs(xv), inf);  // false for inf and NaN
      V::store(out + i, V::blend(V::zero(), V::div(one, xv), finite));
    }
    for (; i < n; ++i) {
      const double a = x[i] < 0.0 ? -x[i] : x[i];
      out[i] = a < kInf ? 1.0 / x[i] : 0.0;
    }
  }

  static void reciprocal_or_inf(const double* x, double* out, std::size_t n) {
    const v one = V::bcast(1.0);
    const v inf = V::bcast(kInf);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const v xv = V::load(x + i);
      const v pos = V::gt(xv, V::zero());
      V::store(out + i, V::blend(inf, V::div(one, xv), pos));
    }
    for (; i < n; ++i) out[i] = x[i] > 0.0 ? 1.0 / x[i] : kInf;
  }

  // ---- fused Sinkhorn sweep kernels ----

  static double scale_accum(double* row, std::size_t n, double f,
                            double* acc) {
    const v fv = V::bcast(f);
    v s = V::zero();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const v r = V::mul(V::load(row + i), fv);
      V::store(row + i, r);
      s = V::add(s, r);
      V::store(acc + i, V::add(V::load(acc + i), r));
    }
    double l[4];
    V::lanes(s, l);
    for (std::size_t t = 0; i + t < n; ++t) {
      row[i + t] *= f;
      l[t] += row[i + t];
      acc[i + t] += row[i + t];
    }
    return combine_sum(l);
  }

  static double scale_vec_accum(double* row, const double* f, std::size_t n,
                                double* acc) {
    v s = V::zero();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const v r = V::mul(V::load(row + i), V::load(f + i));
      V::store(row + i, r);
      s = V::add(s, r);
      V::store(acc + i, V::add(V::load(acc + i), r));
    }
    double l[4];
    V::lanes(s, l);
    for (std::size_t t = 0; i + t < n; ++t) {
      row[i + t] *= f[i + t];
      l[t] += row[i + t];
      acc[i + t] += row[i + t];
    }
    return combine_sum(l);
  }

  static double copy_accum(const double* src, double* dst, std::size_t n,
                           double* acc) {
    v s = V::zero();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const v r = V::load(src + i);
      V::store(dst + i, r);
      s = V::add(s, r);
      V::store(acc + i, V::add(V::load(acc + i), r));
    }
    double l[4];
    V::lanes(s, l);
    for (std::size_t t = 0; i + t < n; ++t) {
      dst[i + t] = src[i + t];
      l[t] += src[i + t];
      acc[i + t] += src[i + t];
    }
    return combine_sum(l);
  }

  static double copy_scale_accum(const double* src, double* dst,
                                 std::size_t n, double row_f,
                                 const double* col_f, double* acc) {
    const v rf = V::bcast(row_f);
    v s = V::zero();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      // src * (row_f * col_f[j]) — same association as the scalar twin.
      const v r = V::mul(V::load(src + i), V::mul(rf, V::load(col_f + i)));
      V::store(dst + i, r);
      s = V::add(s, r);
      V::store(acc + i, V::add(V::load(acc + i), r));
    }
    double l[4];
    V::lanes(s, l);
    for (std::size_t t = 0; i + t < n; ++t) {
      const double r = src[i + t] * (row_f * col_f[i + t]);
      dst[i + t] = r;
      l[t] += r;
      acc[i + t] += r;
    }
    return combine_sum(l);
  }

  // ---- scheduler scans ----

  // Shared lane combine for first-min scans: global minimum, then the
  // smallest recorded index among lanes attaining it; the second order
  // statistic is the chosen lane's second or another lane's best.
  static void combine_first_min(const double b[4], const double s2[4],
                                const double id[4], double* best_out,
                                double* second_out, std::size_t* at_out) {
    double gb = b[0];
    for (int k = 1; k < 4; ++k) gb = b[k] < gb ? b[k] : gb;
    int chosen = 0;
    double best_id = kInf;
    for (int k = 0; k < 4; ++k)
      if (b[k] == gb && id[k] < best_id) {
        best_id = id[k];
        chosen = k;
      }
    double gs = s2[chosen];
    for (int k = 0; k < 4; ++k)
      if (k != chosen && b[k] < gs) gs = b[k];
    *best_out = gb;
    *second_out = gs;
    // All-infinite scans never fire a strict compare; lanes keep index 0,
    // matching the sequential scan's untouched best-index of 0.
    *at_out = gb == kInf ? 0 : static_cast<std::size_t>(best_id);
  }

  static void best_second_scan(const double* etc_row, const double* ready,
                               std::size_t n, double* best_ct,
                               double* second_ct, std::size_t* best_j) {
    double b[4] = {kInf, kInf, kInf, kInf};
    double s2[4] = {kInf, kInf, kInf, kInf};
    double id[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    if (n >= 4) {
      v best = V::bcast(kInf);
      v second = V::bcast(kInf);
      v idx = V::zero();
      v cur = iota();
      const v four = V::bcast(4.0);
      for (; i + 4 <= n; i += 4) {
        const v ct = V::add(V::load(ready + i), V::load(etc_row + i));
        const v win = V::lt(ct, best);
        second = V::blend(vmin(second, ct), best, win);
        best = V::blend(best, ct, win);
        idx = V::blend(idx, cur, win);
        cur = V::add(cur, four);
      }
      V::lanes(best, b);
      V::lanes(second, s2);
      V::lanes(idx, id);
    }
    for (std::size_t t = 0; i + t < n; ++t) {
      const double ct = ready[i + t] + etc_row[i + t];
      if (ct < b[t]) {
        s2[t] = b[t];
        b[t] = ct;
        id[t] = static_cast<double>(i + t);
      } else if (ct < s2[t]) {
        s2[t] = ct;
      }
    }
    combine_first_min(b, s2, id, best_ct, second_ct, best_j);
  }

  static void argmin_first(const double* x, std::size_t n, double* min_out,
                           std::size_t* at_out) {
    double b[4] = {kInf, kInf, kInf, kInf};
    double s2[4] = {kInf, kInf, kInf, kInf};
    double id[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    if (n >= 4) {
      v best = V::bcast(kInf);
      v idx = V::zero();
      v cur = iota();
      const v four = V::bcast(4.0);
      for (; i + 4 <= n; i += 4) {
        const v xv = V::load(x + i);
        const v win = V::lt(xv, best);
        best = V::blend(best, xv, win);
        idx = V::blend(idx, cur, win);
        cur = V::add(cur, four);
      }
      V::lanes(best, b);
      V::lanes(idx, id);
    }
    for (std::size_t t = 0; i + t < n; ++t)
      if (x[i + t] < b[t]) {
        b[t] = x[i + t];
        id[t] = static_cast<double>(i + t);
      }
    double second_unused;
    combine_first_min(b, s2, id, min_out, &second_unused, at_out);
  }

  static void argmin_masked_first(const double* x, const double* mask_src,
                                  std::size_t n, double* min_out,
                                  std::size_t* at_out) {
    double b[4] = {kInf, kInf, kInf, kInf};
    double s2[4] = {kInf, kInf, kInf, kInf};
    double id[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    if (n >= 4) {
      v best = V::bcast(kInf);
      v idx = V::zero();
      v cur = iota();
      const v four = V::bcast(4.0);
      const v inf = V::bcast(kInf);
      for (; i + 4 <= n; i += 4) {
        const v capable = V::lt(V::abs(V::load(mask_src + i)), inf);
        const v cand = V::blend(inf, V::load(x + i), capable);
        const v win = V::lt(cand, best);
        best = V::blend(best, cand, win);
        idx = V::blend(idx, cur, win);
        cur = V::add(cur, four);
      }
      V::lanes(best, b);
      V::lanes(idx, id);
    }
    for (std::size_t t = 0; i + t < n; ++t) {
      const double m = mask_src[i + t] < 0.0 ? -mask_src[i + t]
                                             : mask_src[i + t];
      const double cand = m < kInf ? x[i + t] : kInf;
      if (cand < b[t]) {
        b[t] = cand;
        id[t] = static_cast<double>(i + t);
      }
    }
    double second_unused;
    combine_first_min(b, s2, id, min_out, &second_unused, at_out);
  }

  static std::size_t argmax_first(const double* x, std::size_t n) {
    // Mirrors the 4-lane first-max convention the scheduler introduced: the
    // blocked loop feeds lanes 0..3 and the scalar tail extends lane 0. NaN
    // entries lose every strict compare (quiet predicate) and are skipped.
    double m[4] = {-kInf, -kInf, -kInf, -kInf};
    double id[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    if (n >= 4) {
      v best = V::bcast(-kInf);
      v idx = V::zero();
      v cur = iota();
      const v four = V::bcast(4.0);
      for (; i + 4 <= n; i += 4) {
        const v xv = V::load(x + i);
        const v win = V::gt(xv, best);
        best = V::blend(best, xv, win);
        idx = V::blend(idx, cur, win);
        cur = V::add(cur, four);
      }
      V::lanes(best, m);
      V::lanes(idx, id);
    }
    for (; i < n; ++i)
      if (x[i] > m[0]) {
        m[0] = x[i];
        id[0] = static_cast<double>(i);
      }
    double best = m[0];
    if (m[1] > best) best = m[1];
    if (m[2] > best) best = m[2];
    if (m[3] > best) best = m[3];
    if (best == -kInf) return static_cast<std::size_t>(-1);
    std::size_t at = static_cast<std::size_t>(-1);
    for (int k = 0; k < 4; ++k)
      if (m[k] == best) {
        const auto cand = static_cast<std::size_t>(id[k]);
        if (cand < at) at = cand;
      }
    return at;
  }

  static Kernels table() {
    Kernels k;
    k.sum = &sum;
    k.dot = &dot;
    k.dot2 = &dot2;
    k.reduce_min = &reduce_min;
    k.reduce_max = &reduce_max;
    k.reduce_max_abs = &reduce_max_abs;
    k.scale = &scale;
    k.add_into = &add_into;
    k.axpy = &axpy;
    k.gram_upper = &gram_upper;
    k.axpy2 = &axpy2;
    k.rotate_pair = &rotate_pair;
    k.reciprocal_or_zero = &reciprocal_or_zero;
    k.reciprocal_or_inf = &reciprocal_or_inf;
    k.scale_accum = &scale_accum;
    k.scale_vec_accum = &scale_vec_accum;
    k.copy_accum = &copy_accum;
    k.copy_scale_accum = &copy_scale_accum;
    k.best_second_scan = &best_second_scan;
    k.argmin_first = &argmin_first;
    k.argmin_masked_first = &argmin_masked_first;
    k.argmax_first = &argmax_first;
    return k;
  }
};

}  // namespace hetero::simd::detail
