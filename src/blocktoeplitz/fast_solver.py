"""Linear-time solver for T_n(w) Z = Y with a rational symbol.

Blocks are held time-last inside this module: a block vector of public
shape (n, d, r) becomes one (d, r, n) array on entry to solve or an
apply_* function and goes back once on exit, so the block index is the
contiguous last axis that the pole scans and the residual transforms
run along.

Both triangular factors and their adjoints go through one apply of a
lower-triangular block Toeplitz operator with coefficients

    c_k = band[k] + sum_{mu,j} C(k+j-1, j-1) p_mu^k R_{mu,j},

that is a banded part plus per-pole scalar Toeplitz factors Q_{mu,j}
with entries C(k+j-1, j-1) p_mu^k. Each Q applies in O(n) as a
first-order recursion in the block index, an IIR filter scan along the
last axis, and slot j of a pole is the scan of slot j - 1. The residues
R commute with the scalar Q, so the whole apply is one gemm: the (d, J d)
row [band_0 .. band_m0, R_{1,1} .. R_{K,m_K}] times the (J d, r n) stack
of the band shifts of Y and its pole scans, written into one buffer that
the four applies of a solve share. An upper triangle is the same apply
on the time-reversed input, and an adjoint conjugate-transposes band
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
one SolvePlan from ClosedFormKit.plan(n): the fixed 2Md x 2Md map

    top = I + Lambda^T G R P*,   bot = I + Lambda G~ R~ P,
    K_n = [[top Lambda^T P, top], [bot, bot Lambda P*]]

(P = Pi_n Theta, R = (I - G~G)^{-1}, R~ = (I - GG~)^{-1}) and, time-last,
the slot scalars of the v and hat-w - hat-v vectors, O(n M^2) numbers
where the d x d blocks would be O(n M d^2). So the correction is a few
gemms: the scalars contract with Y before the residues act, K_n turns
the two sums into [g_vec; g~_vec], and each pole's share of the
correction rows is one gemm of the scalars with the residue and band
blocks times g, scaled by that pole's powers. Every tilde row takes its
correction; of the plain rows only the m0 assembled ones and the
sampled overlap rows do. The kit keeps the plan of the last n it was
asked for, so a warm solve on the same kit and n does only the Gram
scans, those gemms and its checks.

The residual check convolves the gamma band with Z by overlap-save in
O(n log L) (see _residual_banded). The literal reference formulas
(unscaled, block by block) live in closed_form; this module is the
production path.
"""

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import lfilter

from . import errors
from .blockarray import as_block_vector
from .closed_form import ClosedFormKit
from .coefficients import CoefficientTables
from .util import herm

_OVERLAP_TOL = 1e-9
# transform points per batch of residual segments: bounds its transient
_RESIDUAL_BATCH = 1 << 14

# -- O(n) structured applies ------------------------------------------------ #

class _Triangular(NamedTuple):
    """Block Toeplitz triangle with coefficients

        c_k = band[k] + sum_{mu,j} C(k+j-1, j-1) p_mu^k R_{mu,j}

    (p = poles, mults[mu] slots for pole mu, band[k] = 0 past its
    length), held as one (J, d, d) stack `blocks` = [band_0 .. band_m0,
    R_{1,1} .. R_{K,m_K}]; lower ((s, t) block c_{s-t}) or upper
    (c_{t-s})."""

    blocks: np.ndarray
    poles: tuple
    mults: tuple
    upper: bool


def _adjoint(op):
    """The adjoint triangle: conjugate-transposed band and residues,
    conjugated poles, the other side of the diagonal."""
    return _Triangular(herm(op.blocks), np.conj(op.poles), op.mults,
                       not op.upper)


def _factor(spec, variant):
    """A_n ('plain') is the lower triangle of the a_k of -h^{-1}; A~_n
    ('tilde') is the adjoint of the same triangle built from the
    h_sharp^{-1} coefficients, since a~_k = (a_k of h_sharp)*."""
    sharp = {"tilde": True, "plain": False}[variant]
    rho00, rho0, rho = ((spec.sharp_rho00, spec.sharp_rho0, spec.sharp_rho)
                        if sharp else (spec.rho00, spec.rho0, spec.rho))
    blocks = np.stack([rho00, *rho0, *(r for res in rho for r in res)])
    op = _Triangular(blocks, np.conj(spec.poles),
                     tuple(len(res) for res in rho), False)
    return _adjoint(op) if sharp else op


def _scan(p, x):
    """The forward recursion out_s = p out_{s-1} + x_s along the last
    axis, i.e. the lower scalar Toeplitz operator with entries p^k."""
    return lfilter([1.0], [1.0, -p], x, axis=-1)


def _to_time_last(y):
    """(n, d, r) public blocks -> contiguous time-last (d, r, n)."""
    return np.ascontiguousarray(y.transpose(1, 2, 0))


def _from_time_last(x):
    """Time-last (d, r, n) -> contiguous (n, d, r) public blocks."""
    return np.ascontiguousarray(x.transpose(2, 0, 1))


def _stack(op, y):
    """The (J, d, r, n) buffer of band shifts and pole scans for applies
    of op's shape to a time-last y."""
    return np.empty((len(op.blocks), *y.shape), dtype=np.complex128)


def _apply(op, y, buf):
    """op Y in O(n) for a time-last (d, r, n) Y, as one gemm of the
    (d, J d) coefficient row with the band shifts and pole scans of Y
    written into buf (see _stack; overwritten). The scalar Q commute with
    the d x d residues, so one scan per (pole, multiplicity slot)
    suffices. An upper triangle is the lower one on the time-reversed
    input."""
    if op.upper:
        return _apply(op._replace(upper=False), y[..., ::-1], buf)[..., ::-1]
    n = y.shape[-1]
    nb = len(op.blocks) - sum(op.mults)
    for k in range(nb):                 # out_s += band_k y_{s-k}
        buf[k, ..., :k] = 0
        buf[k, ..., k:] = y[..., :max(n - k, 0)]
    slot = nb
    for p, m in zip(op.poles, op.mults):
        x = y
        for _ in range(m):
            buf[slot] = _scan(p, x)
            x = buf[slot]
            slot += 1
    row = op.blocks.transpose(1, 0, 2).reshape(len(y), -1)
    return (row @ buf.reshape(row.shape[1], -1)).reshape(y.shape)


def _gram(op, y, buf):
    """op* op Y for a time-last Y, both applies sharing buf."""
    return _apply(_adjoint(op), _apply(op, y, buf), buf)


def _q_scans(spec, mu, n, y, adjoint):
    """[Q_{mu,i,n} Y] (or Q* with adjoint=True) for i = 1..m_mu: the scans
    with p_mu on the time-reversed input (Q is upper), or with conj(p_mu)
    forward."""
    p = spec.poles[mu]
    rev = slice(None) if adjoint else slice(None, None, -1)
    x = _to_time_last(as_block_vector(y, spec.d)[:n])[..., rev]
    out = []
    for _ in range(spec.mults[mu]):
        x = _scan(np.conj(p) if adjoint else p, x)
        out.append(_from_time_last(x[..., rev]))
    return out


def apply_Q(spec, mu, n, y):
    """[Q_{mu,i,n} Y for i = 1..m_mu] in O(n m_mu) block operations."""
    return _q_scans(spec, mu, n, y, adjoint=False)


def apply_Q_adjoint(spec, mu, n, y):
    """[Q*_{mu,i,n} Y for i = 1..m_mu]."""
    return _q_scans(spec, mu, n, y, adjoint=True)


def _applied(fn, op, n, y, d):
    """fn(op, Y, buf) for a public (n, d, r) Y, returned as (n, d, r)."""
    y = _to_time_last(as_block_vector(y, d)[:n])
    return _from_time_last(fn(op, y, _stack(op, y)))


def apply_A(spec, n, y, variant="tilde"):
    """A~_n Y (variant 'tilde') or A_n Y ('plain') in O(n)."""
    return _applied(_apply, _factor(spec, variant), n, y, spec.d)


def apply_A_adjoint(spec, n, x, variant="tilde"):
    """A~_n* X or A_n* X in O(n)."""
    return _applied(_apply, _adjoint(_factor(spec, variant)), n, x, spec.d)


def apply_A_gram(spec, n, y, variant="tilde"):
    """A~*A~ Y or A*A Y in O(n) (n >= m0 + 1)."""
    if n < spec.m0 + 1:
        raise errors.DomainViolation("need n >= m0 + 1")
    return _applied(_gram, _factor(spec, variant), n, y, spec.d)


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
    # sizes of the work done: overlap_rows, plan_bytes (of the plan's
    # arrays; 0 without a plan) and, when the residual ran,
    # residual_band (L), residual_nfft and residual_segments
    counters: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


def _corrected_sums(kit, plan, y):
    """(g_vec, g~_vec) = K_n [sum_t v_{n+1-t} y_t; sum_t v~_t y_t] for a
    time-last (d, c, n) Y: the slot scalars of v_m, m > m0, contract with
    Y in one gemm per sum before the residues act, and the m0 head blocks
    add."""
    d, c, n = y.shape
    M, span = kit.M, plan.xi.shape[-1]
    xi = plan.xi.reshape(M * M, span)
    flat = y.reshape(d * c, n)
    top = xi @ flat[:, :span][:, ::-1].T
    bot = np.conj(xi @ np.conj(flat[:, n - span:]).T)
    heads, heads_tilde = plan.heads
    sums = [np.einsum("rab,qrbc->qac", kit.rho_stack,
                      top.reshape(M, M, d, c)).reshape(M * d, c)
            + np.einsum("mqb,bcm->qc", heads, y[..., span:][..., ::-1]),
            np.einsum("rab,qrbc->qac", kit.rho_tilde_stack,
                      bot.reshape(M, M, d, c)).reshape(M * d, c)
            + np.einsum("mqb,bcm->qc", heads_tilde, y[..., :n - span])]
    return np.split(plan.k_n @ np.concatenate(sums), 2)


def _per_pole(kit, mat, vec):
    """[mat[:, slots of pole mu] @ vec[those rows] for each pole mu], as
    (K, M, d, c): the pole powers of a correction row are per pole."""
    d, out = kit.d, []
    for mu, q0 in enumerate(kit.offsets):
        rows = slice(q0 * d, (q0 + kit.spec.mults[mu]) * d)
        out.append((mat[:, rows] @ vec[rows]).reshape(kit.M, d, -1))
    return np.stack(out)


def _corrections(coef, powers, ext, h):
    """The rank-correction rows sum_{q,k,mu} coef[q,k,s] powers[mu,s]
    ext[k]* h[mu,q] for (M, E, rows) scalars coef, (K, rows) powers,
    (E, d, d) blocks ext and (K, M, d, c) h, time-last as (d, c, rows):
    per pole, one gemm of the (d c, M E) block products with the scalars,
    scaled by that pole's powers."""
    K, M, d, c = h.shape
    blocks = np.einsum("kba,uqbc->uacqk", np.conj(ext), h)
    flat = coef.reshape(M * len(ext), -1)
    out = sum(pw * (b.reshape(d * c, -1) @ flat)
              for b, pw in zip(blocks, powers))
    return out.reshape(d, c, -1)


def _residual_banded(tables, z, y, rel=1e-12):
    """||T_n Z - Y||_F for time-last (d, r, n) Z and Y, through the gamma
    band k = -L..L, by overlap-save. The band is transformed once at
    nfft = 2^ceil(log2(8 (2L + 1))) points, or at the single transform
    that covers n + 2L if that is shorter; Z, padded by L zero blocks in
    front, is cut into segments of nfft points stepping by nfft - 2L, and
    points 2L.. of each segment's circular convolution are the next
    nfft - 2L blocks of T_n Z (the last segment's trimmed at n). The
    segments are transformed _RESIDUAL_BATCH points at a time. That is
    O(n log L) work. Returns the value, the bound on the neglected band
    plus the aliasing error of the band's entries, both times ||Z||_F,
    and the counters residual_band, residual_nfft and residual_segments.
    """
    d, r, n = z.shape
    L = 0
    g0 = max(float(np.linalg.norm(tables.gamma(0), 2)), 1e-300)
    while L < n - 1 and tables.gamma_band_tail(L) > rel * g0:
        L = min(L + max(1, L // 2), n - 1)
    band = np.stack([tables.gamma(k) for k in range(-L, L + 1)])
    nfft = 1 << int(np.ceil(np.log2(min(8 * (2 * L + 1), n + 2 * L + 1))))
    step = nfft - 2 * L
    segments = -(-n // step)
    gf = np.fft.fft(band, n=nfft, axis=0).transpose(1, 2, 0)
    padded = np.zeros((d, r, segments * step + 2 * L), dtype=np.complex128)
    padded[..., L:L + n] = z
    windows = sliding_window_view(padded, nfft, axis=-1)[..., ::step, :]
    batch = max(1, _RESIDUAL_BATCH // nfft)
    sq = 0.0
    for i in range(0, segments, batch):
        zf = np.fft.fft(windows[..., i:i + batch, :], axis=-1)
        conv = np.fft.ifft(np.einsum("abw,bcsw->acsw", gf, zf), axis=-1)
        lo, hi = i * step, min((i + batch) * step, n)
        dev = conv[..., 2 * L:].reshape(d, r, -1)[..., :hi - lo] \
            - y[..., lo:hi]
        sq += float(np.vdot(dev, dev).real)
    # at L = n - 1 the band holds every block of T_n
    tail = 0.0 if L == n - 1 else tables.gamma_band_tail(L)
    znorm = float(np.linalg.norm(z.reshape(-1)))
    counters = {"residual_band": L, "residual_nfft": nfft,
                "residual_segments": segments}
    return (sq ** 0.5, (tail + tables.gamma_band_aliasing(L)) * znorm,
            counters)


def solve(spec, n, y, tables=None, kit=None, check_overlap=True,
          seed=0, compute_residual=True):
    """Solve T_n(w) Z = Y in O(n) and return a SolveReport.

    Y is an (n, d, r) block vector with any r >= 1 columns, and Z has
    the same shape. Needs n >= 2 m0 + 1 so the two regional assembly rows
    cover every index (RegionGap otherwise; fall back to a dense solve
    for the few uncovered orders). A random 5% of the overlap rows (at
    least 8) is computed by both regional formulas and cross-checked:
    OverlapMismatch if ||dev||_F / max(1, ||z_s||_F / sqrt(min(d, r)))
    exceeds 1e-9 on a row. Since ||z_s||_F <= sqrt(min(d, r)) ||z_s||_2
    for a d x r block, that ratio is never below the spectral
    ||dev||_2 / max(1, ||z_s||_2), so the reported overlap_max_dev is an
    upper bound on the spectral one.
    """
    t0 = time.perf_counter()
    y = as_block_vector(y, spec.d)
    if len(y) < n:
        raise ValueError(f"Y has {len(y)} blocks, need {n}")
    y = y[:n]
    d, r, m0 = spec.d, y.shape[2], spec.m0
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

    yt = _to_time_last(y)
    tilde, plain = _factor(spec, "tilde"), _factor(spec, "plain")
    buf = _stack(tilde, yt)
    z = _gram(tilde, yt, buf)       # time-last; becomes the assembled Z
    z_p = _gram(plain, yt, buf)
    del buf
    lap("gram")
    plan = held = None
    if spec.K:
        if kit is None:
            kit = ClosedFormKit(spec)
        held = kit._plan
        plan = kit.plan(n)
    lap("plan")

    # assemble: tilde rows cover s <= n - m0, plain rows s >= m0 + 1
    span = n - m0
    if plan is not None:
        g_vec, gt_vec = _corrected_sums(kit, plan, yt)
        z[..., :span] += _corrections(
            plan.diff, plan.powers[:, m0:n][:, ::-1],
            kit.ext_tilde_stack, _per_pole(kit, plan.ut, gt_vec))
        h_plain = _per_pole(kit, herm(plan.ut), g_vec)

    def plain_rows(idx):
        """The corrected plain-row blocks at 0-based indices idx >= m0,
        time-last as (d, r, len(idx))."""
        out = z_p[..., idx]
        if plan is None:
            return out
        return out + _corrections(np.conj(plan.diff[..., n - 1 - idx]),
                                  np.conj(plan.powers[:, idx]),
                                  kit.ext_stack, h_plain)

    z[..., span:] = plain_rows(np.arange(span, n))
    lap("assembly")

    overlap_checked = 0
    overlap_max_dev = 0.0
    lo, hi = m0 + 1, n - m0
    if check_overlap and hi >= lo:
        size = hi - lo + 1
        count = min(size, max(8, int(np.ceil(0.05 * size))))
        rng = np.random.default_rng(seed)
        rows = rng.choice(size, size=count, replace=False) + lo - 1
        z_s = z[..., rows]
        dev = np.linalg.norm(z_s - plain_rows(rows), axis=(0, 1))
        scale = np.linalg.norm(z_s, axis=(0, 1)) / np.sqrt(min(d, r))
        overlap_max_dev = float((dev / np.maximum(1.0, scale)).max())
        overlap_checked = count
        if overlap_max_dev > _OVERLAP_TOL:
            raise errors.OverlapMismatch(
                f"regional assemblies deviate by {overlap_max_dev:.3e} "
                f"(tolerance {_OVERLAP_TOL:.1e}) on sampled rows")
    del z_p
    lap("overlap")

    counters = {"overlap_rows": overlap_checked, "plan_bytes": 0}
    if plan is not None:
        counters["plan_bytes"] = sum(a.nbytes for a in plan
                                     if isinstance(a, np.ndarray))
    residual = tail = None
    if compute_residual:
        residual, tail, more = _residual_banded(tables, z, yt)
        counters.update(more)
    lap("residual")
    return SolveReport(
        z=_from_time_last(z), method="fast", n=n, d=d,
        seconds=time.perf_counter() - t0,
        residual=residual, residual_tail_bound=tail,
        residual_is_approximate=True,
        spectral_radius=None if plan is None else plan.spectral_radius,
        overlap_checked=overlap_checked,
        overlap_max_dev=overlap_max_dev,
        timings=timings,
        counters=counters,
        extras={"plan_reused": plan is not None and plan is held},
    )
