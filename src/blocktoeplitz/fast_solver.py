"""Linear-time solver for T_n(w) Z = Y with a rational symbol.

Blocks are held time-last inside this module: a block vector of public
shape (n, d, r) becomes one (d, r, n) array on entry to solve and goes
back once on exit, so the block index is the contiguous last axis that
the residual transforms run along; the apply_* functions read the
time-last view of their input.

Both triangular factors and their adjoints go through one apply of a
lower-triangular block Toeplitz operator with coefficients

    c_k = band[k] + sum_{mu,j} C(k+j-1, j-1) p_mu^k R_{mu,j},

that is a banded part plus per-pole scalar Toeplitz factors with
entries C(k+j-1, j-1) p_mu^k. The apply cuts the block index into
chunks of T = _CHUNK blocks (at least m0 + 1). Within a chunk the
operator is the fixed (T d) x (T d) lower block Toeplitz matrix of
c_0 .. c_{T-1}; earlier blocks enter only through the last m0 blocks of
the previous chunk (the band) and the S = sum m_mu pole-slot states at
the chunk's entry. So one apply is one gemm of the Y-independent chunk
operator, built per apply from the spec, with the stack [previous m0
blocks; the chunk; its entry states] of every chunk. The entry states
are each chunk's end-weighted sums carried across chunks by scans with
p^T over the n / T chunk values (see _chunked). An upper triangle is the
same apply on the input reversed over the chunk grid, the reversal
taken in the copy that forms the stack; an adjoint conjugate-transposes
band and residues, conjugates the poles and flips the triangle. A_n is
the lower triangle of the a_k, A~_n the adjoint of the one built from
the h_sharp coefficients, and the pole factor Q_{mu,i} the upper triangle
with a zero band, the pole p_mu and the identity residue in slot i. That
gives A~* A~ Y and A* A Y in O(n), the second apply of each reading the
first's chunks directly.

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
applies, those gemms and its checks.

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
from .util import binom_vec, herm

_OVERLAP_TOL = 1e-9
# blocks per chunk of a triangular apply (raised to the band length m0 + 1)
_CHUNK = 16
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


def _chunk_operator(op, T):
    """The Y-independent part of a lower apply with op's coefficients in
    chunks of T blocks, for S pole slots and a band of m0 + 1 blocks:

    * mat, the (T d, (m0 + T + S) d) block matrix [H | C_T | G] that maps
      a chunk's stack [last m0 blocks of the previous chunk; the chunk;
      the slot states at its entry] to its T output blocks;
    * ends (S, T), which weighs a chunk's blocks into the slot states at
      its end;
    * carry (S, S), which carries entry states across one chunk.

    Output block t of a chunk takes band[k] times the block k back
    (k = t - u for chunk block u, k = t + m0 - h for block h of the
    halo), C(k+j-1, j-1) p^k R_j times chunk block u at lag k = t - u,
    and C(t+j-i, j-i) p^{t+1} R_j times the state of slot i <= j of the
    same pole, by the Vandermonde identity for the binomials. A chunk
    adds C(T-1-u+i-1, i-1) p^{T-1-u} times its block u to the state of
    slot i, and state i' <= i enters it with C(T-1+i-i', i-i') p^T."""
    S = sum(op.mults)
    nb = len(op.blocks) - S
    m0 = nb - 1
    t = np.arange(T)
    lag = t[:, None] - np.arange(-m0, T)        # row t, stack position
    inner = lag[:, m0:]
    # weight of each coefficient block at each (row, stack column)
    w = np.zeros((T, m0 + T + S, nb + S), dtype=np.complex128)
    w[:, :m0 + T, :nb] = lag[..., None] == np.arange(nb)
    ends = np.zeros((S, T), dtype=np.complex128)
    carry = np.zeros((S, S), dtype=np.complex128)
    q0 = 0
    for p, m in zip(op.poles, op.mults):
        # coef[e, k] = C(k+e, e) p^k, the entries of slot e + 1 at lag k;
        # state i enters slot j with p coef[j - i, t]
        coef = np.stack([binom_vec(t + e, e) for e in range(m)]) * p ** t
        gap = np.arange(m)[:, None] - np.arange(m)
        state = np.where(gap[..., None] >= 0, p * coef[np.maximum(gap, 0)],
                         0)
        slots = slice(nb + q0, nb + q0 + m)
        w[:, m0:m0 + T, slots] = np.where(
            inner[..., None] >= 0,
            coef[:, np.maximum(inner, 0)].transpose(1, 2, 0), 0)
        w[:, m0 + T + q0:m0 + T + q0 + m, slots] = state.transpose(2, 1, 0)
        ends[q0:q0 + m] = coef[:, ::-1]
        carry[q0:q0 + m, q0:q0 + m] = state[..., -1]
        q0 += m
    d = op.blocks.shape[-1]
    mat = (w.reshape(-1, nb + S) @ op.blocks.reshape(nb + S, d * d))
    return (mat.reshape(T, m0 + T + S, d, d).transpose(0, 2, 1, 3)
            .reshape(T * d, -1), ends, carry)


def _split(x, T):
    """(d, r, n) -> the (d, r, n // T, T) view of its whole chunks and
    the (d, r, n % T) view of the rest (splitting the last axis never
    needs a copy, whatever its stride)."""
    cut = x.shape[-1] // T * T
    return x[..., :cut].reshape(*x.shape[:-1], -1, T), x[..., cut:]


def _grid(x, flip):
    """The (d, r, nc, T) view of chunk-form (T, d, r, nc) blocks, block
    a T + u at [..., a, u]; read backwards over the nc T grid if flip."""
    g = x.transpose(1, 2, 3, 0)
    return g[..., ::-1, ::-1] if flip else g


def _chunk_blocks(m0):
    """The chunk length T of a triangular apply with band m0 + 1: a
    chunk's halo is the m0 blocks before it, all in one chunk."""
    return max(_CHUNK, m0 + 1)


def _chunked(op, x, n, flipped):
    """op X in chunk form: (out, out_flipped), out a (T, d, r, nc) array
    of the nc = ceil(n / T) chunks of T = _chunk_blocks(m0) blocks, zero
    past n, that holds op X read backwards over the nc T grid if
    out_flipped.

    X is a time-last (d, r, n) array of any strides (flipped False) or
    the chunk form of a padded operand, read backwards if flipped. The
    lower triangle L of op's coefficients applies to X as copied into
    the stack; an upper triangle is R L R with R the reversal over the
    grid, so the copy reverses when exactly one of flipped and op.upper
    holds, and the output of an upper triangle reads backwards.

    Each chunk's stack is [last m0 blocks of the previous chunk; its T
    blocks; the S slot states at its entry], so L X is one gemm with the
    chunk operator. The entry states are the end-weighted sums of each
    chunk, carried across chunks by scans with p^T over the nc chunk
    values; slot i of a pole takes the states of its slots i' < i as
    input."""
    d, r = x.shape[1:3] if x.ndim == 4 else x.shape[:2]
    S = sum(op.mults)
    m0 = len(op.blocks) - S - 1
    T = _chunk_blocks(m0)
    nc = -(-n // T)
    mat, ends, carry = _chunk_operator(op, T)
    stack = np.empty((m0 + T + S, d, r, nc), dtype=np.complex128)
    rows, states = stack[m0:m0 + T], stack[m0 + T:]
    flip = flipped != op.upper
    if x.ndim == 4:
        rows[...] = x[::-1, ..., ::-1] if flip else x
    else:
        g = _grid(rows, flip)
        whole, rest = _split(x, T)
        g[..., :whole.shape[-2], :] = whole
        if rest.shape[-1]:
            g[..., -1, :rest.shape[-1]] = rest
            g[..., -1, rest.shape[-1]:] = 0
    np.matmul(ends, rows.reshape(T, -1), out=states.reshape(S, d * r * nc))
    q0 = 0
    for m in op.mults:
        for q in range(q0, q0 + m):
            if nc > 1:
                u = states[q, ..., :-1] + np.tensordot(
                    carry[q, q0:q], states[q0:q, ..., :-1], 1)
                states[q, ..., 1:] = _scan(carry[q, q], u)
            states[q, ..., 0] = 0
        q0 += m
    stack[:m0, ..., 0] = 0
    stack[:m0, ..., 1:] = rows[T - m0:, ..., :-1]
    out = (mat @ stack.reshape(len(mat[0]), -1)).reshape(T, d, r, nc)
    if not op.upper:
        # blocks past n: zero, so that a reversal puts only zeros first
        out[n - (nc - 1) * T:, ..., -1] = 0
    return out, op.upper


def _unchunk(x, flipped, out):
    """Write the first n blocks of chunk-form x (read backwards if
    flipped) into the time-last (d, r, n) array out and return it."""
    g = _grid(x, flipped)
    whole, rest = _split(out, len(x))
    whole[...] = g[..., :whole.shape[-2], :]
    rest[...] = g[..., -1, :rest.shape[-1]]
    return out


def _apply(op, y):
    """op Y for a time-last (d, r, n) Y, as a new array laid out like Y:
    one chunked gemm (see _chunked)."""
    return _unchunk(*_chunked(op, y, y.shape[-1], False), np.empty_like(y))


def _gram(op, y):
    """op* op Y for a time-last Y: the second apply reads the first's
    chunk form directly."""
    n = y.shape[-1]
    x, flipped = _chunked(op, y, n, False)
    x, flipped = _chunked(_adjoint(op), x, n, flipped)
    return _unchunk(x, flipped, np.empty_like(y))


def _q_ops(spec, mu):
    """Q_{mu,i} for i = 1..m_mu as upper triangles: a zero band, the pole
    p_mu and the identity residue in slot i."""
    m, d = spec.mults[mu], spec.d
    for i in range(1, m + 1):
        blocks = np.zeros((m + 1, d, d))
        blocks[i] = np.eye(d)
        yield _Triangular(blocks, (spec.poles[mu],), (m,), True)


def apply_Q(spec, mu, n, y):
    """[Q_{mu,i,n} Y for i = 1..m_mu] in O(n m_mu) block operations."""
    return [_applied(_apply, op, n, y, spec.d) for op in _q_ops(spec, mu)]


def apply_Q_adjoint(spec, mu, n, y):
    """[Q*_{mu,i,n} Y for i = 1..m_mu]."""
    return [_applied(_apply, _adjoint(op), n, y, spec.d)
            for op in _q_ops(spec, mu)]


def _applied(fn, op, n, y, d):
    """fn(op, Y) for a public (n, d, r) Y, returned as (n, d, r): fn
    reads the time-last view of Y and lays its output out like it."""
    y = as_block_vector(y, d)[:n]
    return np.ascontiguousarray(fn(op, y.transpose(1, 2, 0))
                                .transpose(2, 0, 1))


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
    # seconds per stage of solve: gram, plan, assembly, overlap, residual
    timings: dict = field(default_factory=dict)
    # sizes of the work done: overlap_rows, plan_bytes (of the plan's
    # arrays; 0 without a plan), lambda_terms (of the kit's Lambda series
    # check; 0 without a kit), gram_chunk (blocks per chunk of the Gram
    # applies), table_nodes (the transform sizes N each coefficient table
    # took entries from) and, when the residual ran, residual_band (L),
    # residual_nfft and residual_segments
    counters: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


def _corrected_sums(kit, plan, y):
    """(g_vec, g~_vec) = K_n [sum_t v_{n+1-t} y_t; sum_t v~_t y_t] for a
    time-last (d, c, n) Y: on each side the slot scalars of v_m contract
    with Y in one gemm for m > m0 and one for the m0 heads, and the
    ext-stack blocks act once on the (M, M + m0 + 1) sums."""
    d, c, n = y.shape
    M, E, m0 = plan.heads.shape
    span = n - m0
    xi = plan.xi.reshape(M * M, span)
    heads = plan.heads.reshape(M * E, m0)
    flat = y.reshape(d * c, n)
    sides = []
    for ext, body, head in (
            (kit.ext_stack, xi @ flat[:, :span][:, ::-1].T,
             heads @ flat[:, span:][:, ::-1].T),
            (kit.ext_tilde_stack, np.conj(xi @ np.conj(flat[:, m0:]).T),
             np.conj(heads @ np.conj(flat[:, :m0]).T))):
        sums = head.reshape(M, E, d, c)
        sums[:, :M] += body.reshape(M, M, d, c)
        sides.append(np.einsum("eab,qebc->qac", ext, sums).reshape(M * d, c))
    return np.split(plan.k_n @ np.concatenate(sides), 2)


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

    # the Gram stage runs first: a plan built in this call then sits
    # above the Gram stage's freed transients in the heap, so that later
    # solves reuse that space rather than grow and trim the heap each time
    yt = _to_time_last(y)
    z = _gram(_factor(spec, "tilde"), yt)   # becomes the assembled Z
    z_p = _gram(_factor(spec, "plain"), yt)
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

    counters = {"overlap_rows": overlap_checked, "plan_bytes": 0,
                "lambda_terms": 0, "gram_chunk": _chunk_blocks(m0)}
    if plan is not None:
        counters["plan_bytes"] = sum(a.nbytes for a in plan
                                     if isinstance(a, np.ndarray))
        counters["lambda_terms"] = kit.lambda_terms
    residual = tail = None
    if compute_residual:
        residual, tail, more = _residual_banded(tables, z, yt)
        counters.update(more)
    lap("residual")
    counters["table_nodes"] = {k: list(v) for k, v in tables._nodes.items()}
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
