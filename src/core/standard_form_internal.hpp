// Checks shared by the Sinkhorn kernel (core/standard_form.cpp) and its
// unfused yardstick (reference/standard_form.cpp). Not part of the public
// API: both implementations must guard and clamp identically, so the
// bit-identity contract between them holds on ill-conditioned inputs too.
#pragma once

#include <limits>
#include <vector>

#include "base/error.hpp"
#include "linalg/matrix.hpp"

namespace hetero::core::internal {

// Scale factors on huge ill-conditioned inputs can escape double range: a
// tiny-but-positive sum maps to an overflowing factor (whose next product
// is inf, then 0 * inf = NaN), and entries near DBL_MAX push the sums
// themselves to infinity. A huge-but-finite factor is recoverable — it is
// clamped, the pass rescales the dimension to a sane magnitude, and the
// next pass resumes from there (Sinkhorn's fixed point is invariant to the
// intermediate per-pass scaling) — so the clamp caps factors at
// sqrt(DBL_MAX), keeping any product of two consecutive factors finite. A
// non-finite or non-positive sum means the matrix itself has already left
// the representable range: that surfaces as ScaleOverflowError instead of
// silent NaN propagation. For well-scaled inputs neither branch fires and
// the computed factors are unchanged, preserving the bit-identity
// contracts between the fused and reference paths.
inline constexpr double kMaxScaleFactor = 1.34078079299425956e154;  // sqrt(DBL_MAX)

inline double checked_scale_factor(double target, double sum) {
  if (!(sum > 0.0) || sum > std::numeric_limits<double>::max())
    throw ScaleOverflowError(
        "standardize: a row/column sum overflowed or vanished; the input "
        "is too ill-conditioned to scale in double precision");
  const double f = target / sum;
  return f > kMaxScaleFactor ? kMaxScaleFactor : f;
}

/// Throws unless `m` is a nonempty, finite, nonnegative matrix with no
/// all-zero row or column.
void validate_input(const linalg::Matrix& m);

/// Throws unless a warm-start seed is empty, or has `dim` positive finite
/// entries; `which` names the option in the message.
void validate_warm_scale(const std::vector<double>& scale, std::size_t dim,
                         const char* which);

}  // namespace hetero::core::internal
