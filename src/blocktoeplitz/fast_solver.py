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
in a rescaled form: the factors l_{n,s} and r_{n,t} separately contain
pole powers p^{-m} and p^{n} that overflow / underflow float range long
before n reaches the sizes this path is for, but the diagonal power
scalings cancel analytically, leaving only polynomially growing pieces
(see the hat-variants of the closed forms). The assembly never forms l
or r themselves. Everything in it that does not depend on Y is held by
one SolvePlan from ClosedFormKit.plan(n): the v vectors with the fixed
2Md x 2Md map K_n folded in,

    top = I + Lambda^T G R P*,   bot = I + Lambda G~ R~ P,
    K_n = [[top Lambda^T P, top], [bot, bot Lambda P*]]

(P = Pi_n Theta, R = (I - G~G)^{-1}, R~ = (I - GG~)^{-1}), and the
pre-contracted correction factors. So the correction is three gemms:
plan.v @ Y gives [g_vec; g~_vec] at once, and the plain-row and
tilde-row corrections are one gemm each. The kit keeps the plan of the
last n it was asked for, so a warm solve on the same kit and n does only
the Gram scans, those three gemms and its checks.

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

_OVERLAP_TOL = 1e-9

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
    # seconds per stage of solve: plan, gram, assembly, overlap, residual
    timings: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


def _residual_banded(tables, n, z, y, rel=1e-12):
    """||T_n Z - Y||_F through a truncated gamma band (applied as one
    FFT block convolution); returns the value and the bound on the
    neglected band plus the aliasing error of the band's entries."""
    L = 0
    g0 = max(float(np.linalg.norm(tables.gamma(0), 2)), 1e-300)
    while L < n - 1 and tables.gamma_band_tail(L) > rel * g0:
        L = min(L + max(1, L // 2), n - 1)
    band = np.stack([tables.gamma(k) for k in range(-L, L + 1)])
    nfft = int(2 ** np.ceil(np.log2(n + 2 * L + 1)))
    gf = np.fft.fft(band, n=nfft, axis=0)
    zf = np.fft.fft(z, n=nfft, axis=0)
    conv = np.fft.ifft(np.matmul(gf, zf), axis=0)
    tz = conv[L:L + n]          # band index k = -L aligns at offset L
    resid = float(np.linalg.norm((tz - y).reshape(-1)))
    # at L = n - 1 the band holds every block of T_n
    tail = 0.0 if L == n - 1 else tables.gamma_band_tail(L)
    znorm = float(np.linalg.norm(z.reshape(-1)))
    return resid, (tail + tables.gamma_band_aliasing(L)) * znorm


def solve(spec, n, y, tables=None, kit=None, check_overlap=True,
          seed=0, compute_residual=True):
    """Solve T_n(w) Z = Y in O(n) and return a SolveReport.

    Needs n >= 2 m0 + 1 so the two regional assembly rows cover every
    index (RegionGap otherwise; fall back to a dense solve for the few
    uncovered orders). A random 5% of the overlap rows (at least 8) is
    computed by both regional formulas and cross-checked: OverlapMismatch
    if ||dev||_F / max(1, ||z_s||_F / sqrt(d)) exceeds 1e-9 on a row.
    That ratio is never below the spectral ||dev||_2 / max(1, ||z_s||_2),
    so the reported overlap_max_dev is an upper bound on the spectral one.
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

    timings = {}
    tick = time.perf_counter()

    def lap(stage):
        nonlocal tick
        now = time.perf_counter()
        timings[stage] = now - tick
        tick = now

    z_t = apply_A_gram(spec, n, y, "tilde")
    z_p = apply_A_gram(spec, n, y, "plain")
    lap("gram")
    plan = held = None
    if spec.K:
        if kit is None:
            kit = ClosedFormKit(spec)
        held = kit._plan
        plan = kit.plan(n)
    lap("plan")

    if plan is not None:
        d, span = spec.d, n - m0
        g_vec, gt_vec = np.split(plan.v @ y.reshape(n * d, d), 2)
        z_p[m0:] += (plan.corr.reshape(span * d, -1) @ g_vec).reshape(
            span, d, d)
        z_t[:span] += (plan.corr_tilde.reshape(span * d, -1)
                       @ gt_vec).reshape(span, d, d)

    # assemble: tilde rows cover s <= n - m0, plain rows s >= m0 + 1
    z = np.empty_like(y)
    z[:n - m0] = z_t[:n - m0]
    z[n - m0:] = z_p[n - m0:]
    lap("assembly")

    overlap_checked = 0
    overlap_max_dev = 0.0
    lo, hi = m0 + 1, n - m0
    if check_overlap and hi >= lo:
        size = hi - lo + 1
        count = min(size, max(8, int(np.ceil(0.05 * size))))
        rng = np.random.default_rng(seed)
        rows = rng.choice(size, size=count, replace=False) + lo - 1
        dev = np.linalg.norm(z_t[rows] - z_p[rows], axis=(-2, -1))
        scale = np.linalg.norm(z[rows], axis=(-2, -1)) / np.sqrt(spec.d)
        overlap_max_dev = float((dev / np.maximum(1.0, scale)).max())
        overlap_checked = count
        if overlap_max_dev > _OVERLAP_TOL:
            raise errors.OverlapMismatch(
                f"regional assemblies deviate by {overlap_max_dev:.3e} "
                f"(tolerance {_OVERLAP_TOL:.1e}) on sampled rows")
    lap("overlap")

    residual = tail = None
    if compute_residual:
        residual, tail = _residual_banded(tables, n, z, y)
    lap("residual")
    return SolveReport(
        z=z, method="fast", n=n, d=spec.d,
        seconds=time.perf_counter() - t0,
        residual=residual, residual_tail_bound=tail,
        residual_is_approximate=True,
        spectral_radius=None if plan is None else plan.spectral_radius,
        overlap_checked=overlap_checked,
        overlap_max_dev=overlap_max_dev,
        timings=timings,
        extras={"plan_reused": plan is not None and plan is held},
    )
