"""Linear-time solver for T_n(w) Z = Y with a rational symbol.

Both triangular factors and their adjoints go through one apply of an
upper-triangular block Toeplitz operator with coefficients

    c_k = band[k] + sum_{mu,j} C(k+j-1, j-1) p_mu^k R_{mu,j},

that is a banded part plus per-pole scalar Toeplitz factors Q_{mu,j}
with entries C(k+j-1, j-1) p_mu^k. Each Q applies in O(n) through a
first-order recursion in the block index, implemented here as an IIR
filter scan; the residues R commute with the scalar Q, so one scan per
(pole, multiplicity slot) suffices. A lower triangle is the same apply
on the block-reversed input, and an adjoint conjugate-transposes band
and residues, conjugates the poles and flips the triangle. A_n is the
lower triangle of the a_k, A~_n the adjoint of the one built from the
h_sharp coefficients. That gives A~* A~ Y and A* A Y in O(n).

For K >= 1 the remaining rank correction z_s += l_{n,s} R_n is assembled
in a rescaled form from the vectors of ClosedFormKit.vectors: the
factors l_{n,s} and r_{n,t} separately contain pole powers p^{-m} and
p^{n} that overflow / underflow float range long before n reaches the
sizes this path is for, but the diagonal power scalings cancel
analytically, leaving only polynomially growing pieces (see the
hat-variants of the closed forms). The assembly below never forms l or
r themselves.

The literal reference formulas (unscaled, block by block) live in
closed_form; this module is the production path.
"""

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.signal import lfilter

from . import errors
from .blockarray import as_block_vector
from .closed_form import ClosedFormKit
from .coefficients import CoefficientTables
from .util import herm


# -- O(n) structured applies ------------------------------------------------ #

class _Triangular(NamedTuple):
    """Block Toeplitz triangle with coefficients

        c_k = band[k] + sum_{mu,j} C(k+j-1, j-1) p_mu^k R_{mu,j}

    (p = poles, R_{mu,j} = residues[mu][j-1], band[k] = 0 past its
    length), upper ((s, t) block c_{t-s}) or lower (c_{s-t})."""

    band: list
    poles: tuple
    residues: tuple
    upper: bool


def _adjoint(op):
    """The adjoint triangle: conjugate-transposed band and residues,
    conjugated poles, the other side of the diagonal."""
    return _Triangular([herm(b) for b in op.band], np.conj(op.poles),
                       tuple(tuple(herm(r) for r in res)
                             for res in op.residues),
                       not op.upper)


def _factor(spec, variant):
    """A_n ('plain') is the lower triangle of the a_k of -h^{-1}; A~_n
    ('tilde') is the adjoint of the same triangle built from the
    h_sharp^{-1} coefficients, since a~_k = (a_k of h_sharp)*."""
    sharp = {"tilde": True, "plain": False}[variant]
    rho00, rho0, rho = ((spec.sharp_rho00, spec.sharp_rho0, spec.sharp_rho)
                        if sharp else (spec.rho00, spec.rho0, spec.rho))
    op = _Triangular([rho00, *rho0], np.conj(spec.poles), rho, False)
    return _adjoint(op) if sharp else op


def _pole_scans(p, m, y):
    """[Q_j y for j = 1..m], Q_j the upper scalar Toeplitz operator with
    entries C(k+j-1, j-1) p^k. Each slot is the backward recursion
    x_s = p x_{s+1} + (previous slot)_s, run as an IIR filter on the
    reversed sequence (the binomial seeds are all 1, so the recursion
    has no extra forcing term)."""
    out = []
    for _j in range(m):
        flat = lfilter([1.0], [1.0, -p], y[::-1].reshape(len(y), -1), axis=0)
        y = flat[::-1].reshape(y.shape)
        out.append(y)
    return out


def _lmul(g, blocks):
    """g @ b for every block in a (m, d, d) stack, as one gemm."""
    m, d, _ = blocks.shape
    flat = blocks.transpose(1, 0, 2).reshape(d, m * d)
    return (g @ flat).reshape(d, m, d).transpose(1, 0, 2)


def _apply(op, y):
    """op Y in O(n): the band directly, each pole term by its scans (the
    scalar Q commute with the d x d residues). A lower triangle is the
    upper one on the block-reversed input."""
    if not op.upper:
        return _apply(op._replace(upper=True), y[::-1])[::-1]
    n = len(y)
    out = np.zeros_like(y)
    for k, c in enumerate(op.band[:n]):
        out[:n - k] += _lmul(c, y[k:])
    for p, res in zip(op.poles, op.residues):
        for r, z in zip(res, _pole_scans(p, len(res), y)):
            out += _lmul(r, z)
    return out


def apply_Q(spec, mu, n, y):
    """[Q_{mu,i,n} Y for i = 1..m_mu] in O(n m_mu) block operations."""
    y = as_block_vector(y, spec.d)[:n]
    return _pole_scans(spec.poles[mu], spec.mults[mu], y)


def apply_Q_adjoint(spec, mu, n, y):
    """[Q*_{mu,i,n} Y for i = 1..m_mu]: the scans with conj(p_mu) on the
    block-reversed input."""
    y = as_block_vector(y, spec.d)[:n]
    ws = _pole_scans(np.conj(spec.poles[mu]), spec.mults[mu], y[::-1])
    return [w[::-1] for w in ws]


def apply_A(spec, n, y, variant="tilde"):
    """A~_n Y (variant 'tilde') or A_n Y ('plain') in O(n)."""
    return _apply(_factor(spec, variant), as_block_vector(y, spec.d)[:n])


def apply_A_adjoint(spec, n, x, variant="tilde"):
    """A~_n* X or A_n* X in O(n)."""
    return _apply(_adjoint(_factor(spec, variant)),
                  as_block_vector(x, spec.d)[:n])


def apply_A_gram(spec, n, y, variant="tilde"):
    """A~*A~ Y or A*A Y in O(n) (n >= m0 + 1)."""
    if n < spec.m0 + 1:
        raise errors.DomainViolation("need n >= m0 + 1")
    return apply_A_adjoint(spec, n, apply_A(spec, n, y, variant), variant)


@dataclass
class SolveReport:
    """Solution plus diagnostics of one solve."""

    z: np.ndarray
    method: str
    n: int
    d: int
    seconds: float
    residual: float = None
    residual_tail_bound: float = None
    residual_is_approximate: bool = True
    spectral_radius: float = None
    overlap_checked: int = 0
    overlap_max_dev: float = 0.0
    truncation_bound: float = None
    extras: dict = field(default_factory=dict)


def _residual_banded(tables, n, z, y, rel=1e-12):
    """||T_n Z - Y||_F through a truncated gamma band (applied as one
    FFT block convolution); returns the value and the certified bound on
    the neglected band."""
    d = tables.d
    L = 0
    g0 = max(float(np.linalg.norm(tables.gamma(0), 2)), 1e-300)
    while tables.gamma_band_tail(L) > rel * g0 and L < 8 * n:
        L += max(1, L // 2)
    L = min(L, n - 1)
    band = np.stack([tables.gamma(k) for k in range(-L, L + 1)])
    nfft = int(2 ** np.ceil(np.log2(n + 2 * L + 1)))
    gf = np.fft.fft(band, n=nfft, axis=0)
    zf = np.fft.fft(z, n=nfft, axis=0)
    conv = np.fft.ifft(np.matmul(gf, zf), axis=0)
    tz = conv[L:L + n]          # band index k = -L aligns at offset L
    resid = float(np.linalg.norm((tz - y).reshape(-1)))
    if L == n - 1:
        return resid, 0.0       # the band holds every block of T_n
    znorm = float(np.linalg.norm(z.reshape(-1)))
    return resid, tables.gamma_band_tail(L) * znorm


def solve(spec, n, y, tables=None, kit=None, check_overlap=True,
          overlap_tol=1e-9, seed=0, compute_residual=True):
    """Solve T_n(w) Z = Y in O(n) and return a SolveReport.

    Needs n >= 2 m0 + 1 so the two regional assembly rows cover every
    index (RegionGap otherwise; fall back to a dense solve for the few
    uncovered orders). A random 5% of the overlap rows (at least 8) is
    computed by both regional formulas and cross-checked.
    """
    t0 = time.perf_counter()
    y = as_block_vector(y, spec.d)
    if len(y) < n:
        raise ValueError(f"Y has {len(y)} blocks, need {n}")
    y = y[:n]
    m0 = spec.m0
    if n < 2 * m0 + 1:
        raise errors.RegionGap(
            f"fast assembly needs n >= 2 m0 + 1 = {2 * m0 + 1}, got {n}")
    if tables is None:
        tables = CoefficientTables(spec)

    alpha_t = apply_A_gram(spec, n, y, "tilde")
    alpha_p = apply_A_gram(spec, n, y, "plain")
    spectral_radius = None

    if spec.K == 0:
        z_t = alpha_t
        z_p = alpha_p
    else:
        if kit is None:
            kit = ClosedFormKit(spec)
        d = kit.d
        g_mat, gt_mat, spectral_radius = kit.checked_g_mats(n)
        lam = kit.lambda_mat
        ut = kit.u_mat(n) @ kit.theta_mat     # U_n Theta
        pit = kit.pi_mat(n) @ kit.theta_mat   # diag(p^n) U_n Theta
        tp = herm(pit)

        v, vt = kit.vectors("v", np.arange(1, n + 1))   # v_m, v~_m
        # S = sum_t [v~_t + Lambda^T Pi Theta v_{n+1-t}] y_t
        sv_rev = np.einsum("tij,tjk->ik", v[::-1], y)   # sum v_{n+1-t} y_t
        s_vt = np.einsum("tij,tjk->ik", vt, y)          # sum v~_t y_t
        s_plain = s_vt + lam.T @ (pit @ sv_rev)
        # S~ = sum_t [v_{n+1-t} + Lambda Theta* Pi_n* v~_t] y_t
        s_tilde = sv_rev + lam @ (tp @ s_vt)

        eye = np.eye(kit.M * d)
        x_plain = np.linalg.solve(eye - g_mat @ gt_mat,
                                  g_mat @ (tp @ s_plain))
        x_tilde = np.linalg.solve(eye - gt_mat @ g_mat,
                                  gt_mat @ (pit @ s_tilde))
        g_vec = s_plain + lam.T @ x_plain      # (Md, d)
        gt_vec = s_tilde + lam @ x_tilde

        # diag(p^m)(w_m - v_m) and diag(pbar^m)(w~_m - v~_m), m = 1..n-m0;
        # the scaled v is the unscaled one times p^m (both stay finite)
        span = n - m0
        ms = np.arange(1, span + 1)
        wv, wvt = kit.vectors("w", ms, scaled=True)
        pw = np.repeat(kit.pole_powers(ms), d, axis=1)[:, :, None]
        wv -= pw * v[:span]
        wvt -= np.conj(pw) * vt[:span]

        # plain rows s = m0+1..n take m = n+1-s, i.e. the rows of wv
        # reversed: corr(s) = wv_m^* Theta* U_n* diag(pbar^{s-1}) g_vec
        pb_pow = np.conj(kit.pole_powers(np.arange(m0, n)))
        right = np.matmul(herm(ut),
                          np.repeat(pb_pow, d, axis=1)[:, :, None] * g_vec)
        corr_plain = np.einsum("sia,sib->sab", np.conj(wv[::-1]), right)

        # tilde rows s = 1..n-m0: corr~(s) = wvt_s^* U_n Theta
        #                                    diag(p^{n-s}) g~_vec
        p_pow = kit.pole_powers(n - ms)
        right_t = np.matmul(ut,
                            np.repeat(p_pow, d, axis=1)[:, :, None] * gt_vec)
        corr_tilde = np.einsum("sia,sib->sab", np.conj(wvt), right_t)

        z_t = alpha_t.copy()
        z_t[:span] += corr_tilde
        z_p = alpha_p.copy()
        z_p[m0:] += corr_plain

    # assemble: tilde rows cover s <= n - m0, plain rows s >= m0 + 1
    z = np.empty_like(y)
    z[:n - m0] = z_t[:n - m0]
    z[n - m0:] = z_p[n - m0:]

    overlap_checked = 0
    overlap_max_dev = 0.0
    lo, hi = m0 + 1, n - m0
    if check_overlap and hi >= lo:
        size = hi - lo + 1
        count = min(size, max(8, int(np.ceil(0.05 * size))))
        rng = np.random.default_rng(seed)
        rows = rng.choice(size, size=count, replace=False) + lo - 1
        dev = np.linalg.norm(z_t[rows] - z_p[rows], 2, axis=(-2, -1))
        scale = np.maximum(1.0, np.linalg.norm(z[rows], 2, axis=(-2, -1)))
        overlap_max_dev = float((dev / scale).max())
        overlap_checked = count
        if overlap_max_dev > overlap_tol:
            raise errors.OverlapMismatch(
                f"regional assemblies deviate by {overlap_max_dev:.3e} "
                f"(tolerance {overlap_tol:.1e}) on sampled rows")

    residual = tail = None
    if compute_residual:
        residual, tail = _residual_banded(tables, n, z, y)
    return SolveReport(
        z=z, method="fast", n=n, d=spec.d,
        seconds=time.perf_counter() - t0,
        residual=residual, residual_tail_bound=tail,
        residual_is_approximate=True,
        spectral_radius=spectral_radius,
        overlap_checked=overlap_checked,
        overlap_max_dev=overlap_max_dev,
    )
