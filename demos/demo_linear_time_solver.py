"""Timing comparison of the O(n) solver against the O(n^2) Levinson
recursion and the O(n^3) dense LU on a coupled bivariate two-pole
symbol.

The fast path applies the triangular Gram factors as one gemm per chunk
of 16 blocks, with the pole states carried between chunks by short
scans, and adds a rank correction of fixed dimension, so doubling n
should roughly double the wall time; the table printed below shows exactly that, while
Levinson quadruples and dense LU falls off the chart early.

Run:  python3 demos/demo_linear_time_solver.py
"""

import time

import numpy as np

from blocktoeplitz import (CoefficientTables, dense_solve, levinson_solve,
                           random_spec, solve)

spec = random_spec(d=2, K=2, mults=(1, 1), m0=0,
                   rng=np.random.default_rng(12))
tab = CoefficientTables(spec)
rng = np.random.default_rng(0)

print(f"symbol: d={spec.d}, K={spec.K}, poles "
      f"{[f'{abs(p):.2f}' for p in spec.poles]}")
print(f"{'n':>7} {'fast':>10} {'levinson':>10} {'dense':>10} "
      f"{'fast resid':>12}")

for n in (256, 512, 1024, 2048, 4096, 8192, 16384):
    y = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    t0 = time.perf_counter()
    rep = solve(spec, n, y, tables=tab)
    t_fast = time.perf_counter() - t0

    if n <= 2048:
        t0 = time.perf_counter()
        zl = levinson_solve(spec, n, y, tab).z
        t_lev = time.perf_counter() - t0
        t0 = time.perf_counter()
        zd = dense_solve(spec, n, y, tab).z
        t_dense = time.perf_counter() - t0
        agree = max(np.abs(rep.z - zd).max(), np.abs(zl - zd).max())
        extra = f"   (cross-check dev {agree:.1e})"
        lev_s, dense_s = f"{t_lev:9.3f}s", f"{t_dense:9.3f}s"
    else:
        extra, lev_s, dense_s = "", "   --", "   --"
    print(f"{n:>7} {t_fast:9.3f}s {lev_s:>10} {dense_s:>10} "
          f"{rep.residual:12.2e}{extra}")

print("\nper-solve diagnostics at the last order:")
print(f"  spectral radius of the correction product: "
      f"{rep.spectral_radius:.3e}")
print(f"  overlap rows cross-checked: {rep.overlap_checked} "
      f"(max deviation {rep.overlap_max_dev:.2e})")
print(f"  residual tail bound (neglected band): "
      f"{rep.residual_tail_bound:.2e}")
