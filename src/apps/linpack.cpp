#include "apps/linpack.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <vector>

namespace hpm::apps {

namespace {

/// --- plain BLAS-1 kernels (netlib linpack, C translation) ---------------
/// Deliberately NOT annotated: the paper (§4.3) observes that poll-points
/// inside small, hot kernels dominate the execution overhead.

int idamax(int n, const double* dx) {
  if (n < 1) return -1;
  int imax = 0;
  double dmax = std::fabs(dx[0]);
  for (int i = 1; i < n; ++i) {
    const double v = std::fabs(dx[i]);
    if (v > dmax) {
      dmax = v;
      imax = i;
    }
  }
  return imax;
}

void dscal(int n, double da, double* dx) {
  for (int i = 0; i < n; ++i) dx[i] *= da;
}

void daxpy(int n, double da, const double* dx, double* dy) {
  if (da == 0.0) return;
  for (int i = 0; i < n; ++i) dy[i] += da * dx[i];
}

/// Matrix generator from the netlib driver: a deterministic LCG so the
/// verification step can regenerate the original system after the matrix
/// has been overwritten by its LU factors.
void matgen(double* a, int lda, int n, double* b, std::uint64_t seed, double* norma) {
  // The netlib generator's multiplicative LCG works modulo 2^16, so the
  // state must stay odd (1325 is); an even seed perturbation collapses
  // the sequence onto a coarse lattice and yields singular systems.
  int init = 1325 + 2 * static_cast<int>(seed % 1000);
  *norma = 0.0;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      init = 3125 * init % 65536;
      a[lda * j + i] = (init - 32768.0) / 16384.0;
      if (a[lda * j + i] > *norma) *norma = a[lda * j + i];
    }
  }
  for (int i = 0; i < n; ++i) b[i] = 0.0;
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) b[i] += a[lda * j + i];
  }
}

/// --- migratable LU factorization (dgefa) --------------------------------

void dgefa(mig::MigContext& ctx, double* a, int lda, int n, int* ipvt, int* info) {
  HPM_FUNCTION(ctx);
  // Registered locals are part of the canonical stream from the FIRST
  // poll on, before the loop body has written them — they must start
  // deterministic or two collections of the same state differ in the
  // garbage under the not-yet-live slots.
  int k = 0, j = 0, l = 0, nm1 = 0;
  double t = 0;
  HPM_LOCAL(ctx, a);
  HPM_LOCAL(ctx, lda);
  HPM_LOCAL(ctx, n);
  HPM_LOCAL(ctx, ipvt);
  HPM_LOCAL(ctx, info);
  HPM_LOCAL(ctx, k);
  HPM_LOCAL(ctx, j);
  HPM_LOCAL(ctx, l);
  HPM_LOCAL(ctx, nm1);
  HPM_LOCAL(ctx, t);
  HPM_BODY(ctx);
  *info = 0;
  nm1 = n - 1;
  if (nm1 >= 1) {
    for (k = 0; k < nm1; ++k) {
      // One poll per eliminated column: coarse enough to stay cheap, fine
      // enough that a migration request is honored promptly.
      HPM_POLL(ctx, 1);
      l = idamax(n - k, a + lda * k + k) + k;
      ipvt[k] = l;
      if (a[lda * k + l] == 0.0) {
        *info = k + 1;
        continue;
      }
      if (l != k) {
        t = a[lda * k + l];
        a[lda * k + l] = a[lda * k + k];
        a[lda * k + k] = t;
      }
      t = -1.0 / a[lda * k + k];
      dscal(n - (k + 1), t, a + lda * k + k + 1);
      for (j = k + 1; j < n; ++j) {
        t = a[lda * j + l];
        if (l != k) {
          a[lda * j + l] = a[lda * j + k];
          a[lda * j + k] = t;
        }
        daxpy(n - (k + 1), t, a + lda * k + k + 1, a + lda * j + k + 1);
      }
    }
  }
  ipvt[n - 1] = n - 1;
  if (a[lda * (n - 1) + (n - 1)] == 0.0) *info = n;
  HPM_BODY_END(ctx);
}

/// --- migratable triangular solve (dgesl, job = 0) ------------------------

void dgesl(mig::MigContext& ctx, double* a, int lda, int n, int* ipvt, double* b) {
  HPM_FUNCTION(ctx);
  int k = 0, kb = 0, l = 0, nm1 = 0;  // deterministic at every poll, like dgefa
  double t = 0;
  HPM_LOCAL(ctx, a);
  HPM_LOCAL(ctx, lda);
  HPM_LOCAL(ctx, n);
  HPM_LOCAL(ctx, ipvt);
  HPM_LOCAL(ctx, b);
  HPM_LOCAL(ctx, k);
  HPM_LOCAL(ctx, kb);
  HPM_LOCAL(ctx, l);
  HPM_LOCAL(ctx, nm1);
  HPM_LOCAL(ctx, t);
  HPM_BODY(ctx);
  nm1 = n - 1;
  if (nm1 >= 1) {
    for (k = 0; k < nm1; ++k) {
      HPM_POLL(ctx, 1);
      l = ipvt[k];
      t = b[l];
      if (l != k) {
        b[l] = b[k];
        b[k] = t;
      }
      daxpy(n - (k + 1), t, a + lda * k + k + 1, b + k + 1);
    }
  }
  for (kb = 0; kb < n; ++kb) {
    HPM_POLL(ctx, 2);
    k = n - 1 - kb;
    b[k] /= a[lda * k + k];
    t = -b[k];
    daxpy(k, t, a + lda * k, b);
  }
  HPM_BODY_END(ctx);
}

}  // namespace

void linpack_register_types(ti::TypeTable&) {
  // linpack uses only primitives (double, int) — nothing to register.
}

std::uint64_t linpack_live_bytes(int n) {
  const std::uint64_t nn = static_cast<std::uint64_t>(n);
  return nn * nn * sizeof(double)      // matrix a
         + 2 * nn * sizeof(double)     // b and the saved right-hand side
         + nn * sizeof(int);           // ipvt
}

void linpack_check(int n, const double* a, const double* b, const double* x,
                   LinpackResult* out) {
  const std::size_t nn = static_cast<std::size_t>(n);
  std::vector<double> r(b, b + nn);
  std::vector<double> row_abs(nn, 0.0);
  double max_a = 0.0;  // netlib's norma: the largest entry, as matgen reports it
  for (std::size_t i = 0; i < nn; ++i) r[i] = -r[i];
  for (std::size_t j = 0; j < nn; ++j) {
    for (std::size_t i = 0; i < nn; ++i) {
      const double aij = a[nn * j + i];
      r[i] += aij * x[j];
      row_abs[i] += std::fabs(aij);
      if (aij > max_a) max_a = aij;
    }
  }
  double norm_r = 0, norm_a = 0, norm_x = 0, norm_b = 0;
  for (std::size_t i = 0; i < nn; ++i) {
    norm_r = std::max(norm_r, std::fabs(r[i]));
    norm_a = std::max(norm_a, row_abs[i]);
    norm_x = std::max(norm_x, std::fabs(x[i]));
    norm_b = std::max(norm_b, std::fabs(b[i]));
  }
  out->residual = norm_r;
  out->normalized = norm_r / (n * max_a * DBL_EPSILON);
  out->scaled_residual = norm_r / (DBL_EPSILON * (norm_a * norm_x + norm_b) * n);
}

void linpack_program(mig::MigContext& ctx, int n, std::uint64_t seed, LinpackResult* out) {
  HPM_FUNCTION(ctx);
  double *a = nullptr, *b = nullptr, *b0 = nullptr;
  int* ipvt = nullptr;
  int info = 0;
  double norma = 0;
  HPM_LOCAL(ctx, a);
  HPM_LOCAL(ctx, b);
  HPM_LOCAL(ctx, b0);
  HPM_LOCAL(ctx, ipvt);
  HPM_LOCAL(ctx, info);
  HPM_LOCAL(ctx, norma);
  HPM_LOCAL(ctx, n);
  HPM_LOCAL(ctx, seed);
  // `out` stays unregistered on purpose: the completing side writes it,
  // and program entry arguments are re-supplied on the destination.
  HPM_BODY(ctx);

  // The paper's linpack allocates its matrices once, up front, and never
  // allocates during the solve: a small, constant number of MSR nodes.
  a = ctx.heap_alloc<double>(static_cast<std::uint32_t>(n) * n, "a");
  b = ctx.heap_alloc<double>(static_cast<std::uint32_t>(n), "b");
  b0 = ctx.heap_alloc<double>(static_cast<std::uint32_t>(n), "b0");
  matgen(a, n, n, b, seed, &norma);
  for (int i = 0; i < n; ++i) b0[i] = b[i];
  ipvt = ctx.heap_alloc<int>(static_cast<std::uint32_t>(n), "ipvt");

  HPM_CALL(ctx, 10, dgefa(ctx, HPM_ARG(ctx, a), HPM_ARG(ctx, n), HPM_ARG(ctx, n),
                          HPM_ARG(ctx, ipvt), HPM_ARG(ctx, &info)));
  HPM_CALL(ctx, 11, dgesl(ctx, HPM_ARG(ctx, a), HPM_ARG(ctx, n), HPM_ARG(ctx, n),
                          HPM_ARG(ctx, ipvt), HPM_ARG(ctx, b)));

  {
    // Verification: regenerate the original system (the factorization
    // overwrote a) and check the migrated-and-solved x (in b) against it.
    double* a0 = ctx.heap_alloc<double>(static_cast<std::uint32_t>(n) * n, "a0");
    double* rhs = ctx.heap_alloc<double>(static_cast<std::uint32_t>(n), "rhs");
    double norma0;
    matgen(a0, n, n, rhs, seed, &norma0);
    out->done = (info == 0);
    out->n = n;
    linpack_check(n, a0, b0, b, out);
    ctx.heap_free(a0);
    ctx.heap_free(rhs);
  }
  ctx.heap_free(a);
  ctx.heap_free(b);
  ctx.heap_free(b0);
  ctx.heap_free(ipvt);
  HPM_BODY_END(ctx);
}

}  // namespace hpm::apps
