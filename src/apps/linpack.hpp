// The linpack benchmark (netlib C version, solving Ax = b) transformed
// into a migratable program — the paper's computation-intensive workload.
//
// MSR profile (paper §4.2): a handful of very large memory blocks (the
// n x n matrix dominates), no dynamic allocation during the solve, so
// collection/restoration cost is governed by the encode/decode term
// O(sum Di) while the MSRLT search/update terms stay constant as n grows.
//
// Annotation layout: poll-points sit in the outer column loops of dgefa
// and dgesl — NOT in daxpy/idamax/dscal, the "small kernels invoked many
// times" the paper warns about (§4.3). The kernels stay plain functions;
// bench/overhead_pollpoints quantifies what happens if you ignore that
// advice.
#pragma once

#include <cstdint>

#include "mig/annotate.hpp"

namespace hpm::apps {

struct LinpackResult {
  bool done = false;
  int n = 0;
  double residual = 0;        ///< max |Ax - b| over the solution
  double normalized = 0;      ///< residual / (n * norm(A) * eps), netlib's report
  /// HPL's scaled residual ||Ax-b|| / (eps * (||A|| * ||x|| + ||b||) * n),
  /// infinity norms: O(1) for any backward-stable solve.
  double scaled_residual = 0;
  double mflops_proxy = 0;    ///< operations / solve-seconds (rough)
  /// HPL's acceptance test. (netlib's `normalized` carries no such bound:
  /// the paper's 1000x1000 instance solves correctly at about 11.)
  [[nodiscard]] bool ok() const noexcept { return done && scaled_residual < 16.0; }
};

/// Fill the residual fields of *out (`residual`, `normalized`,
/// `scaled_residual`) for the solution `x` of the n x n system A x = b,
/// `a` column-major with leading dimension n. Leaves `done` alone.
void linpack_check(int n, const double* a, const double* b, const double* x,
                   LinpackResult* out);

/// No extra types needed beyond primitives; provided for symmetry with
/// the other workloads.
void linpack_register_types(ti::TypeTable& table);

/// Run the full benchmark: generate, factor (dgefa), solve (dgesl),
/// verify. Writes into *out only when it completes (i.e. on the
/// destination after a migration, or on the source if none happens).
void linpack_program(mig::MigContext& ctx, int n, std::uint64_t seed, LinpackResult* out);

/// Total live bytes the linpack program migrates for a given n (matrix +
/// vectors + pivots), under the native layout. Used by Figure 2(a).
std::uint64_t linpack_live_bytes(int n);

}  // namespace hpm::apps
