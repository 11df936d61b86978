"""Ground-truth computations and experiments: dense LU solves, the
O(n^2) block Levinson recursion, the solution of the corresponding
infinite system and the convergence experiment.

Every fast path in this package is cross-checked against these oracles
in the test suite; nothing here is performance-critical except the
Levinson baseline, which exists precisely to be the O(n^2) comparison
point.
"""

import os
import time
from dataclasses import dataclass

import numpy as np

from . import errors
from .blockarray import BlockMatrix, as_block_vector
from .coefficients import CoefficientTables
from .fast_solver import SolveReport, solve as fast_solve

DEFAULT_DENSE_CAP = 2048
# the a~ horizon of infinite_solution may not pass this many terms
_A_HORIZON_CAP = 100_000


def dense_cap():
    """Dense-path size ceiling; override with env TPZ_DENSE_CAP."""
    return int(os.environ.get("TPZ_DENSE_CAP", DEFAULT_DENSE_CAP))


def dense_toeplitz(spec, n, tables=None):
    """T_n(w) materialized from the autocovariance blocks gamma(s - t)."""
    if tables is None:
        tables = CoefficientTables(spec)
    d = spec.d
    band = np.stack([tables.gamma(k) for k in range(-(n - 1), n)])
    idx = np.arange(n)[:, None] - np.arange(n)[None, :] + (n - 1)
    data = band[idx].transpose(0, 2, 1, 3).reshape(n * d, n * d).copy()
    return BlockMatrix(n=n, d=d, data=data, hermitian=True)


def _check_cap(n):
    cap = dense_cap()
    if n > cap:
        raise ValueError(f"n = {n} exceeds the dense cap {cap} "
                         "(set TPZ_DENSE_CAP to raise it)")


def dense_solve(spec, n, y, tables=None):
    """LU solution of T_n(w) Z = Y; the reference everything else is
    measured against."""
    _check_cap(n)
    t0 = time.perf_counter()
    y = as_block_vector(y, spec.d)[:n]
    tall = y.reshape(n * spec.d, -1)
    T = dense_toeplitz(spec, n, tables).data
    try:
        z = np.linalg.solve(T, tall)
    except np.linalg.LinAlgError as exc:
        raise errors.NumericallySingular(str(exc)) from exc
    resid = float(np.linalg.norm((T @ z - tall).ravel()))
    z = z.reshape(y.shape)
    return SolveReport(z=z, method="dense", n=n, d=spec.d,
                       seconds=time.perf_counter() - t0,
                       residual=resid, residual_is_approximate=False)


def dense_inverse(spec, n, tables=None):
    """T_n(w)^{-1} by dense LU."""
    _check_cap(n)
    T = dense_toeplitz(spec, n, tables)
    try:
        inv = np.linalg.inv(T.data)
    except np.linalg.LinAlgError as exc:
        raise errors.NumericallySingular(str(exc)) from exc
    return BlockMatrix(n=n, d=spec.d, data=inv, hermitian=True)


def levinson_solve(spec, n, y, tables=None):
    """Block Levinson recursion for T_n(w) Z = Y in O(n^2) block
    operations.

    Maintains the bordering solutions V_m = T_m^{-1} u_m and
    W_m = T_m^{-1} u~_m for the trailing / leading block columns
    (u_m stacks gamma(s - m - 1), u~_m stacks gamma(s)), growing the
    order one block row at a time. Positive definiteness of T_n keeps
    every Schur complement invertible; a singular one raises
    RecursionBreakdown.
    """
    t0 = time.perf_counter()
    y = as_block_vector(y, spec.d)[:n]
    if tables is None:
        tables = CoefficientTables(spec)
    d = spec.d
    gam = {k: tables.gamma(k) for k in range(-n, n + 1)}

    def solve_block(a, b):
        try:
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise errors.RecursionBreakdown(str(exc)) from exc

    def dot(us, blocks):
        # sum_s u_s* blocks_s for (m, d, d) stacks
        return np.einsum("sba,sbc->ac", np.conj(us), blocks)

    # x = X[:m] and w = W[:m] grow at the end, v = V[n-m:] at the front
    g0 = gam[0]
    X = np.empty(y.shape, dtype=np.complex128)
    V, W = (np.empty((n, d, d), dtype=np.complex128) for _ in range(2))
    X[0] = solve_block(g0, y[0])
    V[n - 1] = solve_block(g0, gam[-1])
    W[0] = solve_block(g0, gam[1])
    gneg = np.stack([gam[-k] for k in range(1, n + 1)])  # gamma(-k)
    gpos = np.stack([gam[k] for k in range(1, n + 1)])   # gamma(k)
    for m in range(1, n):
        x, v, w = X[:m], V[n - m:], W[:m]
        u = gneg[:m][::-1]          # u_s = gamma(s - m - 1), s = 1..m
        ut = gpos[:m]               # u~_s = gamma(s)
        schur_end = g0 - dot(u, v)          # gamma(0) - u* V_m
        schur_front = g0 - dot(ut, w)       # gamma(0) - u~* W_m
        # grow the right-hand-side solution (append at the end)
        xi = solve_block(schur_end, y[m] - dot(u, x))
        x -= v @ xi
        X[m] = xi
        if m == n - 1:
            break
        # backward vector via the front bordering, forward via the end;
        # both updates consume this step's (not yet updated) V and W
        eta_v = solve_block(schur_front, gam[-m - 1] - dot(ut, v))
        eta_w = solve_block(schur_end, gam[m + 1] - dot(u, w))
        dv, dw = w @ eta_v, v @ eta_w
        v -= dv
        V[n - m - 1] = eta_v
        w -= dw
        W[m] = eta_w
    return SolveReport(z=X, method="levinson", n=n, d=spec.d,
                       seconds=time.perf_counter() - t0,
                       residual=None, residual_is_approximate=True)


# -- infinite system and convergence ------------------------------------- #

def infinite_solution(spec, y_seq, horizon, tables=None, rel_tol=1e-14):
    """First `horizon` blocks of the solution to the one-sided infinite
    system: z_s = sum_{l=1}^{s} a~*_{s-l} g_l with
    g_l = sum_{j>=0} a~_j y_{l+j}.

    `y_seq` is a finite block stack, treated as zero beyond its length;
    it must be absolutely summable for the infinite system to make
    sense, which a finite stack trivially is. Raises
    ToleranceUnreachable if the certified a~ tail is still above
    rel_tol times the y scale at _A_HORIZON_CAP terms.
    """
    if tables is None:
        tables = CoefficientTables(spec)
    y = as_block_vector(np.asarray(y_seq), spec.d)
    if not np.all(np.isfinite(y)):
        raise errors.NonSummableRHS("right-hand side contains non-finite "
                                    "blocks")
    ny = len(y)
    d = spec.d
    ymax = float(np.abs(y).max()) if ny else 0.0
    # a~ horizon: certified tail small against the y scale
    J = 0
    while tables.a_tail(J) > rel_tol * max(ymax, 1.0):
        if J >= _A_HORIZON_CAP:
            raise errors.ToleranceUnreachable(
                f"a~ tail {tables.a_tail(J):.3e} above tolerance after "
                f"{J} terms")
        J += max(1, J // 4)
    at = [tables.a_tilde(j) for j in range(max(J, horizon) + 1)]
    cols = y.shape[2]
    g = np.zeros((horizon + 1, d, cols), dtype=np.complex128)
    for l in range(1, horizon + 1):
        acc = np.zeros((d, cols), dtype=np.complex128)
        for j in range(0, min(J + 1, ny - l + 1)):
            acc += at[j] @ y[l + j - 1]
        g[l] = acc
    z = np.zeros((horizon, d, cols), dtype=np.complex128)
    for s in range(1, horizon + 1):
        acc = np.zeros((d, cols), dtype=np.complex128)
        for l in range(1, s + 1):
            acc += at[s - l].conj().T @ g[l]
        z[s - 1] = acc
    return z


@dataclass
class ConvergenceReport:
    """l1 block deviation between the order-n solution and the infinite
    one, per n."""

    ns: list
    deltas: list

    def rows(self):
        return list(zip(self.ns, self.deltas))


def convergence_experiment(spec, y_seq, ns, tables=None):
    """For each n, solve the order-n system against the first n blocks
    of y and report sum_k ||z_{n,k} - z_k|| versus the infinite
    solution, by the fast solver (dense below n = 2 m0 + 1)."""
    if tables is None:
        tables = CoefficientTables(spec)
    y = as_block_vector(np.asarray(y_seq), spec.d)
    n_max = max(ns)
    z_inf = infinite_solution(spec, y, n_max, tables)
    deltas = []
    for n in ns:
        if len(y) < n:
            raise ValueError("y_seq shorter than requested order")
        rep = fast_solve(spec, n, y[:n], tables=tables,
                         compute_residual=False)
        diff = rep.z - z_inf[:n]
        deltas.append(float(sum(np.linalg.norm(b, 2) for b in diff)))
    return ConvergenceReport(ns=list(ns), deltas=deltas)


def yule_walker_rhs(spec, n, tables=None):
    """The right-hand side (gamma(1), ..., gamma(n))* of the classical
    predictor equation attached to this symbol (a test fixture: for the
    reversed symbol the solve output stacks the finite predictor
    coefficients)."""
    if tables is None:
        tables = CoefficientTables(spec)
    return np.stack([tables.gamma(k).conj().T for k in range(1, n + 1)])
