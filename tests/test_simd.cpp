// Tests for the SIMD kernel layer: runtime dispatch plumbing, bit-identity
// of every dispatched backend against the scalar reference twin (including
// NaN/inf "incapable" entries, ties, signed zeros, and denormals), agreement
// of the fused scans with plain sequential reference scans, and degenerate
// shapes (1xN, Nx1, single entry, non-multiple-of-lane widths) through the
// public APIs that sit on top of the kernels.
//
// The whole binary is also re-run by ctest under HETERO_SIMD=scalar and
// HETERO_SIMD=avx2 (simd_equiv label), which exercises the env-forced
// dispatch path end to end.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/etc_matrix.hpp"
#include "core/standard_form.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"
#include "sched/heuristics.hpp"
#include "sched/makespan.hpp"
#include "simd/simd.hpp"

namespace {

using hetero::simd::Backend;
using hetero::simd::Kernels;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Deterministic value battery: pseudo-random magnitudes with special values
// (zeros, signed zeros, denormals, huge/tiny) interleaved at fixed offsets.
std::vector<double> battery(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  std::uint64_t s = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u =
        static_cast<double>(s >> 11) / static_cast<double>(1ULL << 53);
    v[i] = (u - 0.5) * 2000.0;
    switch (i % 11) {
      case 3: v[i] = 0.0; break;
      case 5: v[i] = -0.0; break;
      case 7: v[i] = kDenorm * static_cast<double>(1 + i); break;
      case 9: v[i] = v[i] * 1e300; break;
      default: break;
    }
  }
  return v;
}

const std::vector<std::size_t>& lengths() {
  // Below, at, and well above the 4-lane width, odd tails included.
  static const std::vector<std::size_t> n = {0, 1,  2,  3,  4,  5,   7,
                                             8, 13, 16, 31, 64, 100, 127};
  return n;
}

std::vector<const Kernels*> dispatched_backends() {
  std::vector<const Kernels*> out;
  for (Backend b : {Backend::avx2, Backend::neon})
    if (const Kernels* k = hetero::simd::kernels_for(b)) out.push_back(k);
  return out;
}

const Kernels& scalar() {
  return *hetero::simd::kernels_for(Backend::scalar);
}

// ---------------------------------------------------------------- dispatch

TEST(SimdDispatch, BackendNames) {
  EXPECT_STREQ(hetero::simd::backend_name(Backend::scalar), "scalar");
  EXPECT_STREQ(hetero::simd::backend_name(Backend::avx2), "avx2");
  EXPECT_STREQ(hetero::simd::backend_name(Backend::neon), "neon");
}

TEST(SimdDispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(hetero::simd::backend_available(Backend::scalar));
  EXPECT_NE(hetero::simd::kernels_for(Backend::scalar), nullptr);
}

TEST(SimdDispatch, UnavailableBackendsReturnNull) {
  for (Backend b : {Backend::avx2, Backend::neon}) {
    if (!hetero::simd::backend_available(b)) {
      EXPECT_EQ(hetero::simd::kernels_for(b), nullptr);
    }
  }
}

TEST(SimdDispatch, ActiveBackendIsAvailable) {
  EXPECT_TRUE(hetero::simd::backend_available(hetero::simd::active_backend()));
  // kernels() must be the table of the active backend.
  EXPECT_EQ(&hetero::simd::kernels(),
            hetero::simd::kernels_for(hetero::simd::active_backend()));
}

// ------------------------------------------- cross-backend bit identity

TEST(SimdEquivalence, Reductions) {
  const auto& sk = scalar();
  for (const Kernels* vk : dispatched_backends()) {
    for (std::size_t n : lengths()) {
      const auto x = battery(n, 17 + n);
      const auto y = battery(n, 991 + n);
      EXPECT_EQ(bits(sk.sum(x.data(), n)), bits(vk->sum(x.data(), n))) << n;
      EXPECT_EQ(bits(sk.dot(x.data(), y.data(), n)),
                bits(vk->dot(x.data(), y.data(), n)))
          << n;
      EXPECT_EQ(bits(sk.reduce_min(x.data(), n)),
                bits(vk->reduce_min(x.data(), n)))
          << n;
      EXPECT_EQ(bits(sk.reduce_max(x.data(), n)),
                bits(vk->reduce_max(x.data(), n)))
          << n;
      EXPECT_EQ(bits(sk.reduce_max_abs(x.data(), n)),
                bits(vk->reduce_max_abs(x.data(), n)))
          << n;
    }
  }
}

TEST(SimdEquivalence, PairedKernelsMatchTwoSingleCalls) {
  // dot2 / axpy2 promise bit-identity to two independent dot / axpy calls
  // — the blocked Gram and tridiagonalization paths rely on that to keep
  // tiled results equal to their unpaired reference order.
  const auto& sk = scalar();
  std::vector<const Kernels*> all = {&sk};
  for (const Kernels* vk : dispatched_backends()) all.push_back(vk);
  for (const Kernels* k : all) {
    for (std::size_t n : lengths()) {
      const auto a = battery(n, 101 + n);
      const auto b0 = battery(n, 103 + n);
      const auto b1 = battery(n, 107 + n);

      double d0 = 0, d1 = 0;
      k->dot2(a.data(), b0.data(), b1.data(), n, &d0, &d1);
      EXPECT_EQ(bits(d0), bits(k->dot(a.data(), b0.data(), n))) << n;
      EXPECT_EQ(bits(d1), bits(k->dot(a.data(), b1.data(), n))) << n;

      auto acc2 = battery(n, 109 + n);
      auto acc_ref = acc2;
      k->axpy2(acc2.data(), b0.data(), b1.data(), n, 0.3, -1.7);
      k->axpy(acc_ref.data(), b0.data(), n, 0.3);
      k->axpy(acc_ref.data(), b1.data(), n, -1.7);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(bits(acc2[i]), bits(acc_ref[i])) << n << ":" << i;
    }
  }
}

TEST(SimdEquivalence, ElementwiseTransforms) {
  const auto& sk = scalar();
  for (const Kernels* vk : dispatched_backends()) {
    for (std::size_t n : lengths()) {
      const auto x0 = battery(n, 23 + n);
      const auto a0 = battery(n, 71 + n);

      auto xs = x0, xv = x0;
      sk.scale(xs.data(), n, 1.0 / 3.0);
      vk->scale(xv.data(), n, 1.0 / 3.0);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(bits(xs[i]), bits(xv[i])) << n << ":" << i;

      auto as = a0, av = a0;
      sk.add_into(x0.data(), as.data(), n);
      vk->add_into(x0.data(), av.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(bits(as[i]), bits(av[i])) << n << ":" << i;

      as = a0;
      av = a0;
      sk.axpy(as.data(), x0.data(), n, -0.7);
      vk->axpy(av.data(), x0.data(), n, -0.7);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(bits(as[i]), bits(av[i])) << n << ":" << i;

      auto ps = x0, pv = x0;
      auto qs = a0, qv = a0;
      const double c = 0.8, s = 0.6;
      sk.rotate_pair(ps.data(), qs.data(), n, c, s);
      vk->rotate_pair(pv.data(), qv.data(), n, c, s);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(ps[i]), bits(pv[i])) << n << ":" << i;
        EXPECT_EQ(bits(qs[i]), bits(qv[i])) << n << ":" << i;
      }
    }
  }
}

TEST(SimdEquivalence, TiledGramMatchesRankOneReference) {
  // The reference is the row-by-row rank-1 build the tiled kernel
  // replaces: g[i][j] += a[k][i] * a[k][j] for every row k in order,
  // starting from zero — one scalar-backend axpy per (k, i), so no
  // compiler contraction can fuse it. Every backend's tiled kernel must
  // reproduce its upper triangle bit for bit, inside a wider g buffer.
  std::vector<const Kernels*> backends = dispatched_backends();
  backends.push_back(&scalar());
  for (std::size_t n = 1; n <= 17; ++n) {
    const std::size_t ldg = n + 3;
    for (std::size_t rows = 1; rows <= 300; ++rows) {
      const std::vector<double> a = battery(rows * n, 7 * n + rows);
      std::vector<double> ref(n * ldg, 0.0);
      for (std::size_t k = 0; k < rows; ++k)
        for (std::size_t i = 0; i < n; ++i)
          scalar().axpy(&ref[i * ldg + i], &a[k * n + i], n - i, a[k * n + i]);
      for (const Kernels* vk : backends) {
        std::vector<double> g(n * ldg, -1.0);
        vk->gram_upper(a.data(), rows, n, n, g.data(), ldg);
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = i; j < n; ++j)
            ASSERT_EQ(bits(ref[i * ldg + j]), bits(g[i * ldg + j]))
                << rows << "x" << n << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(SimdEquivalence, ReciprocalsWithIncapableEntries) {
  const auto& sk = scalar();
  for (const Kernels* vk : dispatched_backends()) {
    for (std::size_t n : lengths()) {
      auto x = battery(n, 5 + n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = std::fabs(x[i]);
        if (i % 6 == 2) x[i] = kInf;   // incapable machine
        if (i % 9 == 4) x[i] = 0.0;    // zero speed
      }
      std::vector<double> os(n), ov(n);
      sk.reciprocal_or_zero(x.data(), os.data(), n);
      vk->reciprocal_or_zero(x.data(), ov.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(bits(os[i]), bits(ov[i])) << n << ":" << i;
      sk.reciprocal_or_inf(x.data(), os.data(), n);
      vk->reciprocal_or_inf(x.data(), ov.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(bits(os[i]), bits(ov[i])) << n << ":" << i;
    }
  }
}

TEST(SimdEquivalence, FusedSinkhornKernels) {
  const auto& sk = scalar();
  for (const Kernels* vk : dispatched_backends()) {
    for (std::size_t n : lengths()) {
      const auto r0 = battery(n, 37 + n);
      const auto f = battery(n, 41 + n);
      const auto acc0 = battery(n, 43 + n);

      auto rs = r0, rv = r0, as = acc0, av = acc0;
      const double ss = sk.scale_accum(rs.data(), n, 1.7, as.data());
      const double sv = vk->scale_accum(rv.data(), n, 1.7, av.data());
      EXPECT_EQ(bits(ss), bits(sv)) << n;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(rs[i]), bits(rv[i])) << n << ":" << i;
        EXPECT_EQ(bits(as[i]), bits(av[i])) << n << ":" << i;
      }

      rs = r0; rv = r0; as = acc0; av = acc0;
      EXPECT_EQ(bits(sk.scale_vec_accum(rs.data(), f.data(), n, as.data())),
                bits(vk->scale_vec_accum(rv.data(), f.data(), n, av.data())))
          << n;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(rs[i]), bits(rv[i])) << n << ":" << i;
        EXPECT_EQ(bits(as[i]), bits(av[i])) << n << ":" << i;
      }

      std::vector<double> ds(n), dv(n);
      as = acc0; av = acc0;
      EXPECT_EQ(bits(sk.copy_accum(r0.data(), ds.data(), n, as.data())),
                bits(vk->copy_accum(r0.data(), dv.data(), n, av.data())))
          << n;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(ds[i]), bits(dv[i])) << n << ":" << i;
        EXPECT_EQ(bits(as[i]), bits(av[i])) << n << ":" << i;
      }

      as = acc0; av = acc0;
      EXPECT_EQ(bits(sk.copy_scale_accum(r0.data(), ds.data(), n, 0.9,
                                         f.data(), as.data())),
                bits(vk->copy_scale_accum(r0.data(), dv.data(), n, 0.9,
                                          f.data(), av.data())))
          << n;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(ds[i]), bits(dv[i])) << n << ":" << i;
        EXPECT_EQ(bits(as[i]), bits(av[i])) << n << ":" << i;
      }
    }
  }
}

TEST(SimdEquivalence, SchedulerScansWithTiesAndIncapableEntries) {
  const auto& sk = scalar();
  for (const Kernels* vk : dispatched_backends()) {
    for (std::size_t n : lengths()) {
      auto etc = battery(n, 53 + n);
      auto ready = battery(n, 59 + n);
      for (std::size_t i = 0; i < n; ++i) {
        etc[i] = 1.0 + std::fabs(etc[i]);
        if (i % 5 == 1) etc[i] = kInf;          // incapable machine
        if (i % 7 == 3 && i > 0) etc[i] = etc[i - 1];  // duplicate → tie
        ready[i] = std::fabs(ready[i]);
        if (i % 6 == 2 && i > 0) ready[i] = ready[i - 1];
      }

      double b1 = 0, s1 = 0, b2 = 0, s2 = 0;
      std::size_t j1 = 0, j2 = 0;
      sk.best_second_scan(etc.data(), ready.data(), n, &b1, &s1, &j1);
      vk->best_second_scan(etc.data(), ready.data(), n, &b2, &s2, &j2);
      EXPECT_EQ(bits(b1), bits(b2)) << n;
      EXPECT_EQ(bits(s1), bits(s2)) << n;
      EXPECT_EQ(j1, j2) << n;

      sk.argmin_first(etc.data(), n, &b1, &j1);
      vk->argmin_first(etc.data(), n, &b2, &j2);
      EXPECT_EQ(bits(b1), bits(b2)) << n;
      EXPECT_EQ(j1, j2) << n;

      sk.argmin_masked_first(ready.data(), etc.data(), n, &b1, &j1);
      vk->argmin_masked_first(ready.data(), etc.data(), n, &b2, &j2);
      EXPECT_EQ(bits(b1), bits(b2)) << n;
      EXPECT_EQ(j1, j2) << n;

      // Priority vector with NaN (planned slots), ties, and -inf entries.
      auto prio = battery(n, 61 + n);
      for (std::size_t i = 0; i < n; ++i) {
        if (i % 4 == 1) prio[i] = kNan;
        if (i % 8 == 6) prio[i] = -kInf;
        if (i % 5 == 4 && i > 1) prio[i] = prio[i - 2];
      }
      EXPECT_EQ(sk.argmax_first(prio.data(), n),
                vk->argmax_first(prio.data(), n))
          << n;
    }
  }
}

// ------------------------------ fused scans vs naive sequential references

TEST(SimdScans, BestSecondMatchesSequentialSkipScan) {
  const auto& k = hetero::simd::kernels();
  for (std::size_t n : lengths()) {
    auto etc = battery(n, 67 + n);
    auto ready = battery(n, 73 + n);
    for (std::size_t i = 0; i < n; ++i) {
      etc[i] = 0.5 + std::fabs(etc[i]);
      if (i % 3 == 1) etc[i] = kInf;
      if (i % 4 == 2 && i > 0) etc[i] = etc[i - 1];
      ready[i] = std::fabs(ready[i]);
    }
    // The pre-SIMD BatchEngine::rescan loop, verbatim.
    double best = kInf, second = kInf;
    std::size_t bj = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (std::isinf(etc[j])) continue;
      const double ct = ready[j] + etc[j];
      if (ct < best) {
        second = best;
        best = ct;
        bj = j;
      } else {
        second = std::min(second, ct);
      }
    }
    double kb = 0, ks = 0;
    std::size_t kj = 0;
    k.best_second_scan(etc.data(), ready.data(), n, &kb, &ks, &kj);
    EXPECT_EQ(bits(best), bits(kb)) << n;
    EXPECT_EQ(bits(second), bits(ks)) << n;
    EXPECT_EQ(bj, kj) << n;
  }
}

TEST(SimdScans, ArgmaxMatchesSequentialStrictScan) {
  const auto& k = hetero::simd::kernels();
  for (std::size_t n : lengths()) {
    auto v = battery(n, 79 + n);
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 5 == 2) v[i] = kNan;
      if (i % 6 == 4 && i > 0) v[i] = v[i - 1];
    }
    double best = -kInf;
    std::size_t at = static_cast<std::size_t>(-1);
    bool won = false;
    for (std::size_t i = 0; i < n; ++i)
      if (v[i] > best) {
        best = v[i];
        at = i;
        won = true;
      }
    const std::size_t kat = k.argmax_first(v.data(), n);
    if (won)
      EXPECT_EQ(at, kat) << n;
    else
      EXPECT_EQ(kat, static_cast<std::size_t>(-1)) << n;
  }
}

TEST(SimdScans, AllInfiniteBestSecondDegradesLikeReference) {
  const auto& k = hetero::simd::kernels();
  const std::vector<double> etc = {kInf, kInf, kInf, kInf, kInf, kInf};
  const std::vector<double> ready = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  double b = 0, s = 0;
  std::size_t j = 99;
  k.best_second_scan(etc.data(), ready.data(), etc.size(), &b, &s, &j);
  EXPECT_TRUE(std::isinf(b));
  EXPECT_TRUE(std::isinf(s));
  EXPECT_EQ(j, 0u);  // the untouched best-index of the sequential scan
}

TEST(SimdScans, SingleFiniteCompletionTimeLeavesSecondInfinite) {
  const auto& k = hetero::simd::kernels();
  const std::vector<double> etc = {kInf, 3.0, kInf, kInf, kInf};
  const std::vector<double> ready = {0.0, 1.0, 0.0, 0.0, 0.0};
  double b = 0, s = 0;
  std::size_t j = 99;
  k.best_second_scan(etc.data(), ready.data(), etc.size(), &b, &s, &j);
  EXPECT_EQ(b, 4.0);
  EXPECT_TRUE(std::isinf(s));
  EXPECT_EQ(j, 1u);
}

TEST(SimdScans, ArgminMaskedAllExcludedReportsInfinity) {
  const auto& k = hetero::simd::kernels();
  const std::vector<double> load = {1.0, 2.0, 3.0};
  const std::vector<double> mask = {kInf, kInf, kInf};
  double m = 0;
  std::size_t at = 99;
  k.argmin_masked_first(load.data(), mask.data(), 3, &m, &at);
  EXPECT_TRUE(std::isinf(m));
}

TEST(SimdScans, EmptyInputs) {
  const auto& k = hetero::simd::kernels();
  EXPECT_EQ(k.sum(nullptr, 0), 0.0);
  EXPECT_EQ(k.reduce_min(nullptr, 0), kInf);
  EXPECT_EQ(k.reduce_max(nullptr, 0), -kInf);
  EXPECT_EQ(k.reduce_max_abs(nullptr, 0), 0.0);
  EXPECT_EQ(k.argmax_first(nullptr, 0), static_cast<std::size_t>(-1));
}

// ------------------------------------------ degenerate shapes, end to end

TEST(SimdDegenerateShapes, SinkhornOneRowMatrix) {
  // 1xN: a single row pass must hit the target exactly; widths straddle the
  // lane boundary.
  for (std::size_t cols : {1u, 2u, 3u, 4u, 5u, 7u, 9u}) {
    hetero::linalg::Matrix m(1, cols, 0.0);
    for (std::size_t j = 0; j < cols; ++j)
      m(0, j) = 1.0 + static_cast<double>(j);
    const auto r = hetero::core::standardize(m);
    EXPECT_TRUE(r.converged) << cols;
    EXPECT_NEAR(r.standard.row_sum(0), r.target_row_sum, 1e-12) << cols;
  }
}

TEST(SimdDegenerateShapes, SinkhornOneColumnMatrix) {
  for (std::size_t rows : {1u, 3u, 5u, 8u}) {
    hetero::linalg::Matrix m(rows, 1, 0.0);
    for (std::size_t i = 0; i < rows; ++i)
      m(i, 0) = 2.0 + static_cast<double>(i);
    const auto r = hetero::core::standardize(m);
    EXPECT_TRUE(r.converged) << rows;
  }
}

TEST(SimdDegenerateShapes, SinkhornSingleEntry) {
  hetero::linalg::Matrix m(1, 1, 42.0);
  const auto r = hetero::core::standardize(m);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.standard(0, 0), 1.0, 1e-12);
}

TEST(SimdDegenerateShapes, SinkhornDenormalEntries) {
  // Denormal entries mixed into normal-scale rows must flow through the
  // kernel sums without poisoning the result (they only perturb the row
  // sums at the 1e-308 level).
  hetero::linalg::Matrix m = {{1.0, kDenorm * 2, 2.0},
                              {kDenorm * 3, 2.0, 1.0},
                              {2.0, 1.0, kDenorm * 5}};
  const auto r = hetero::core::standardize(m);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(r.standard.has_nonfinite());
}

TEST(SimdDegenerateShapes, SinkhornZeroEntriesNormalizablePattern) {
  hetero::linalg::Matrix m = {{1.0, 2.0, 0.0},
                              {0.0, 1.0, 3.0},
                              {2.0, 0.0, 1.0}};
  const auto r = hetero::core::standardize(m);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.standard.zero_count(), 3u);
}

TEST(SimdDegenerateShapes, SvdSingleColumnAndSingleRow) {
  hetero::linalg::Matrix col(5, 1, 0.0);
  for (std::size_t i = 0; i < 5; ++i) col(i, 0) = static_cast<double>(i + 1);
  const auto sc = hetero::linalg::singular_values(col);
  ASSERT_EQ(sc.size(), 1u);
  EXPECT_NEAR(sc[0], std::sqrt(55.0), 1e-12);

  hetero::linalg::Matrix row(1, 5, 0.0);
  for (std::size_t j = 0; j < 5; ++j) row(0, j) = static_cast<double>(j + 1);
  const auto sr = hetero::linalg::singular_values(row);
  ASSERT_EQ(sr.size(), 1u);
  EXPECT_NEAR(sr[0], std::sqrt(55.0), 1e-12);
}

TEST(SimdDegenerateShapes, SchedulerSingleMachineAndSingleTask) {
  using hetero::core::EtcMatrix;
  using hetero::linalg::Matrix;
  // N x 1: every task must map to the only machine.
  EtcMatrix one_machine(Matrix{{3.0}, {5.0}, {2.0}});
  const auto tasks = hetero::sched::one_of_each(one_machine);
  for (const auto& h : hetero::sched::standard_heuristics()) {
    const auto a = h.map(one_machine, tasks);
    for (std::size_t j : a) EXPECT_EQ(j, 0u) << h.name;
  }

  // A task with an incapable machine and a tie: first finite minimum wins.
  // (Row 1 keeps machine 0 useful so the EtcMatrix invariant holds.)
  EtcMatrix pair(Matrix{{kInf, 4.0, 4.0, 9.0, 5.0},
                        {1.0, 8.0, 8.0, 8.0, 8.0}});
  const auto a = hetero::sched::map_min_min(pair, {0});
  EXPECT_EQ(a[0], 1u);
  EXPECT_EQ(hetero::sched::met_fastest_machine(pair.values(), 0), 1u);
}

TEST(SimdDegenerateShapes, SchedulerNonLaneMultipleMachineCounts) {
  using hetero::core::EtcMatrix;
  using hetero::linalg::Matrix;
  // Machine counts 3, 5, 7 (never a multiple of 4): fast vs reference
  // batch heuristics must agree exactly, infinities included.
  for (std::size_t mc : {3u, 5u, 7u}) {
    Matrix v(6, mc, 0.0);
    double x = 1.0;
    for (std::size_t i = 0; i < 6; ++i)
      for (std::size_t j = 0; j < mc; ++j) {
        v(i, j) = 1.0 + std::fmod(x, 17.0);
        x *= 1.618;
        if ((i * mc + j) % 5 == 4) v(i, j) = kInf;
      }
    for (std::size_t i = 0; i < 6; ++i) v(i, 0) = 2.0;  // keep rows runnable
    for (std::size_t j = 0; j < mc; ++j) v(0, j) = 3.0;
    EtcMatrix etc(std::move(v));
    const auto tasks = hetero::sched::one_of_each(etc);
    EXPECT_EQ(hetero::sched::map_min_min(etc, tasks),
              hetero::sched::map_min_min_reference(etc, tasks))
        << mc;
    EXPECT_EQ(hetero::sched::map_max_min(etc, tasks),
              hetero::sched::map_max_min_reference(etc, tasks))
        << mc;
    EXPECT_EQ(hetero::sched::map_sufferage(etc, tasks),
              hetero::sched::map_sufferage_reference(etc, tasks))
        << mc;
  }
}

TEST(SimdDegenerateShapes, EtcEcsRoundTripWithIncapableEntries) {
  using hetero::core::EtcMatrix;
  using hetero::linalg::Matrix;
  Matrix v = {{2.0, kInf, 0.5}, {kInf, 4.0, 1.0}, {8.0, 0.25, kInf}};
  const EtcMatrix etc(v);
  const auto ecs = etc.to_ecs();
  EXPECT_EQ(ecs.values()(0, 1), 0.0);
  EXPECT_EQ(ecs.values()(0, 0), 0.5);
  const auto back = ecs.to_etc();
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_EQ(bits(back.values()(i, j)), bits(v(i, j))) << i << "," << j;
}

}  // namespace
