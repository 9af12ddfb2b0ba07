// Yardstick for the fused Sinkhorn kernel of core/standard_form.hpp: the
// unfused eq. 9 iteration (per-column strided sums, a separate residual
// pass). For equivalence tests and before/after benchmarks only; the
// library itself ships one Sinkhorn kernel.
#pragma once

#include "core/standard_form.hpp"

namespace hetero::core {

/// Unfused baseline of standardize(): the same result contract, and for
/// empty warm-start seeds the same bits.
StandardFormResult standardize_reference(const linalg::Matrix& ecs,
                                         const SinkhornOptions& options = {});

}  // namespace hetero::core
