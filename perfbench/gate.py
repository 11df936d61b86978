"""Correctness checks the benchmark applies to the solver's outputs.

Two checks, both computed by the benchmark from the returned Z rather
than read from the solver's own report:

* `residual_ratio` bounds ||T_n Z - Y||_F / ||Y||_F for every timed call
  through the gamma band of the call's (already filled) coefficient
  tables, plus the certified band tail when the band does not cover T_n.
* `dense_deviation` compares a fast solve at a small order with a dense
  LU solve whose autocovariances come from quadrature of w = h h* on the
  unit circle, so the reference shares no code with CoefficientTables.
"""

import numpy as np

from blocktoeplitz import dense_solve, solve
from blocktoeplitz.symbol import w_on_circle

RESIDUAL_TOL = 1e-8   # bound every timed call must meet
DENSE_TOL = 1e-8      # fast vs dense relative deviation at DENSE_N
DENSE_N = 32
QUADRATURE_POINTS = 16384


def residual_ratio(tables, n, z, y):
    """Certified upper bound on ||T_n Z - Y||_F / ||Y||_F.

    The band half-width L grows until the certified tail of the
    neglected gammas, times ||Z||, is below 1e-16 ||Y||, so that the
    bound measures the solver rather than this truncation. Once L
    reaches n - 1 the band holds every block of T_n and nothing is
    neglected.
    """
    ynorm = float(np.linalg.norm(y.reshape(-1)))
    znorm = float(np.linalg.norm(z.reshape(-1)))
    target = 1e-16 * ynorm
    L = 1
    while L < n - 1 and tables.gamma_band_tail(L) * znorm > target:
        L = min(2 * L, n - 1)
    L = min(L, n - 1)
    band = np.stack([tables.gamma(k) for k in range(-L, L + 1)])
    nfft = 1 << int(np.ceil(np.log2(n + 2 * L + 1)))
    conv = np.fft.ifft(np.matmul(np.fft.fft(band, n=nfft, axis=0),
                                 np.fft.fft(z, n=nfft, axis=0)), axis=0)
    resid = float(np.linalg.norm((conv[L:L + n] - y).reshape(-1)))
    tail = 0.0 if L == n - 1 else tables.gamma_band_tail(L) * znorm
    return (resid + tail) / ynorm


class QuadratureGamma:
    """gamma(k) by the trapezoid rule on w over `points` equispaced
    nodes of the unit circle; its aliasing error decays like
    ratio^(points - |k|), negligible at the orders it is used for."""

    def __init__(self, spec, points=QUADRATURE_POINTS):
        self._coef = np.fft.fft(w_on_circle(spec, points), axis=0) / points

    def gamma(self, k):
        return self._coef[int(k) % len(self._coef)]


def dense_deviation(spec, tables, y, tracer, op):
    """||Z_fast - Z_dense||_F / ||Z_dense||_F at order len(y)."""
    n = len(y)
    z_fast = solve(spec, n, y, tables=tables).z
    with tracer.span("oracle.dense_solve", op):
        z_dense = dense_solve(spec, n, y, tables=QuadratureGamma(spec)).z
    return float(np.linalg.norm((z_fast - z_dense).reshape(-1))
                 / np.linalg.norm(z_dense.reshape(-1)))
