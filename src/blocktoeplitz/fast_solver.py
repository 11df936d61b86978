"""Linear-time solver for T_n(w) Z = Y with a rational symbol.

Blocks are read time-last inside this module, in place: every public
function works on the (d, r, n) transposed view of the caller's complex
(n, d, r) Y, whatever its strides, and writes into the transposed view
of one C-ordered (n, d, r) output, which it returns. It brings Y into
float range on entry and raises NonSummableRHS on a NaN or an inf (_head).

Every structured apply is one apply of a lower-triangular block
Toeplitz operator with coefficients

    c_k = band[k] + sum_{mu,j} C(k+j-1, j-1) p_mu^k R_{mu,j}

in chunks of T = _CHUNK blocks (at least m0 + 1). Within a chunk the
operator is the fixed (T d) x (T d) lower block Toeplitz matrix of
c_0 .. c_{T-1}; earlier blocks enter only through the last m0 blocks of
the previous chunk (the band) and the S = sum m_mu pole-slot states at
the chunk's entry, each chunk's end-weighted sums carried across chunks
by scans with p^T over the n / T chunk values (see _carry_states). So
one apply is one gemm of the Y-independent chunk operator with the stack
[previous m0 blocks; the chunk; its entry states] of every chunk. An
upper triangle is R L R with R the reversal over the chunk grid (see
_states); an adjoint conjugate-transposes band and residues,
conjugates the poles and flips the triangle. A_n is the lower triangle
of the a_k, A~_n the adjoint of the one built from the h_sharp
coefficients, and Q_{mu,i} the upper triangle with a zero band, the pole
p_mu and the identity residue in slot i. The gemms run over ranges of
chunks sized to a core's L2 (see _sweep).

A~*A~ = T_n(w^{-1}) - E~ and A*A = T_n(w^{-1}) - E, with corners of
rank at most (M + m0) d at the start and at the end (see
closed_form.inverse_symbol). T_n(w^{-1}) is inv + inv* - diag(c_0) for
one lower triangle inv with the plain factor's poles, so its apply
takes the slot states of inv at each chunk's entry (the plain factor's)
and of inv* at each chunk's exit (the tilde factor's), one pass over Y
each, then one gemm per range of chunks of the (T d) x ((2 m0 + T +
2 S) d) operator on [previous m0 blocks; the chunk; next m0 blocks;
entry states; exit states], whose chunk block is a full T x T block
Toeplitz matrix (see PreparedSolve._apply). solve makes no Gram: the
corners join the rank corrections in the plan's maps, and apply_A_gram
is T_n(w^{-1}) Y minus one corner.

For K >= 1 the rank correction is assembled in a rescaled form: the
factors l_{n,s} and r_{n,t} contain pole powers p^{-m} and p^n that
leave float range long before n reaches the sizes this path is for, but
the diagonal power scalings cancel analytically (see the hat-variants of
the closed forms). Every slot scalar of v and of hat-w - hat-v, and
every row of a corner, is a pole power times a polynomial in the block
index, so the correction reads a few moments of Y: per side, the sums
of Y on the v basis, read from the carry states (see _edge_sums), and
the m0 blocks at its end of Y. The SolvePlan holds, per side, one fixed
map from those moments to coefficients on the 2M sequence rows
C(m, a) p^{n-m} and C(m, a) conj(p)^m and the m0 unit rows [m == j]
(see _coefficients); the Grams' corner_plan() holds only the corners.
On a grid of chunks each sequence row is a fixed table times a few
anchors of the chunk (see _sequences), so each side multiplies its
coefficients into the table once, and one loop over batches of the
chunks whose anchors are not all zero forms one product with the
anchors per side (see _correct): solve's tilde rows s <= n - m0, its
last m0 plain rows on a grid that runs back from n. The overlap check
compares both sides' corrections on every overlap row of those
batches, where both formulas hold and share T_n(w^{-1}) Y.

The residual check convolves the gamma band with Z by overlap-save in
O(n log L), at the transform size with the least segments nfft log2
nfft (see _residual_banded). A PreparedSolve holds every array of all
this that does not depend on Y. Below n = 2 m0 + 1 solve returns the
dense solve. The literal reference formulas (unscaled, block by block)
live in closed_form; this module is the production path.
"""

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import scipy.fft
from scipy.signal import lfilter

from . import errors
from .blockarray import as_block_vector
from .closed_form import ClosedFormKit
from .coefficients import CoefficientTables
from .util import binom, binom_vec, herm

_OVERLAP_TOL = 1e-9
# blocks per chunk of a triangular apply (raised to the band length m0 + 1)
_CHUNK = 16
# bytes of the stack and the output of a range of chunks in an apply: well
# inside the 2 MB L2 of a core
_RANGE_BYTES = 1 << 20
# pole powers of the correction anchors below this are flushed to zero:
# a product of two floats above it is a normal float
_FLUSH = np.sqrt(np.finfo(np.float64).tiny)
# transform points per batch of residual segments: bounds its transient
_RESIDUAL_BATCH = 1 << 14
# the scale window of _head: for s in 2^+-_WINDOW, n d r < 2^64 entries have
# ||Y||_F^2 < 2^(2 _WINDOW + 66), which bounds each square, ||Z||_F^2 is
# finite for ||T_n(w)^{-1}||_2 < 2^222, and 1e-9 s squares to a normal float
_WINDOW = 256
# the neglected gamma band of the residual, relative to ||gamma(0)||_2
_RESIDUAL_REL = 1e-12

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


def _plain(variant):
    """True for 'plain', False for 'tilde'; ValueError otherwise."""
    if variant not in ("plain", "tilde"):
        raise ValueError("variant must be 'plain' or 'tilde'")
    return variant == "plain"


def _factor(spec, variant):
    """A_n ('plain') is the lower triangle of the a_k of -h^{-1}; A~_n
    ('tilde') is the adjoint of the same triangle built from the
    h_sharp^{-1} coefficients, since a~_k = (a_k of h_sharp)*."""
    sharp = not _plain(variant)
    rho00, rho0, rho = spec.side(sharp)
    blocks = np.stack([rho00, *rho0, *(r for res in rho for r in res)])
    op = _Triangular(blocks, np.conj(spec.poles),
                     tuple(len(res) for res in rho), False)
    return _adjoint(op) if sharp else op


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
    mat = (w.reshape(-1, nb + S) @ op.blocks.reshape(nb + S, d * d)).reshape(
        T, m0 + T + S, d, d).transpose(0, 2, 1, 3).reshape(T * d, -1)
    if op.upper:    # output blocks forwards, chunks read backwards (_states)
        mat, ends = mat.reshape(T, -1)[::-1].reshape(mat.shape), ends[:, ::-1]
    return mat, ends, carry


def _split(x, T):
    """(d, r, n) -> the (d, r, n // T, T) view of its whole chunks and
    the (d, r, n % T) view of the rest (splitting the last axis never
    needs a copy, whatever its stride)."""
    cut = x.shape[-1] // T * T
    return x[..., :cut].reshape(*x.shape[:-1], -1, T), x[..., cut:]


def _chunk_blocks(m0):
    """The chunk length T of a triangular apply with band m0 + 1: a
    chunk's halo is the m0 blocks next to it, all in one chunk."""
    return max(_CHUNK, m0 + 1)


def _sizes(op, n):
    """(S, m0, T, nc): op's slots, band, chunk length and the number of
    chunks of n blocks."""
    S = sum(op.mults)
    m0 = len(op.blocks) - S - 1
    T = _chunk_blocks(m0)
    return S, m0, T, -(-n // T)


def _carry_states(states, mults, carry):
    """Turn the end-weighted sums of each chunk, states (S, ..., nc) of
    any strides, into the slot states at each chunk's entry, in place:
    scans with p^T over the nc chunk values, where slot i of a pole also
    takes the states of its slots i' < i as input (carry from
    _chunk_operator); the first chunk enters with zero states. The
    filter's numerator z^-1 is the shift by one chunk, so each slot is
    one filter over whole lines. On the chunk axis read backwards the
    same scans give an upper op's exit states."""
    q0 = 0
    for m in mults:
        for q in range(q0, q0 + m):
            u = states[q] + np.tensordot(carry[q, q0:q], states[q0:q], 1)
            states[q] = lfilter([0.0, 1.0], [1.0, -carry[q, q]], u,
                                axis=-1)
        q0 += m


def _blocks_at(y, pos):
    """The blocks of a time-last (d, r, n) Y at the indices pos, as
    (len(pos), d, r), zero outside 0 .. n - 1."""
    n = y.shape[-1]
    return np.where(((pos >= 0) & (pos < n))[:, None, None],
                    y[..., np.clip(pos, 0, n - 1)].transpose(2, 0, 1), 0)


def _fill(stack, y, a, upper, m0, T, both=False):
    """Write [halo; chunk] of the stacks (see _states) of the k chunks
    a .. a + k - 1 of a time-last (d, r, n) Y into stack, a (P, d, r, k)
    array, read backwards if upper and zero past n; with both, a lower
    op's [halo; chunk; first m0 blocks of the chunk after] (see
    _hermitian_operator). The states are the caller's."""
    n, k = y.shape[-1], stack.shape[-1]
    rows = stack[m0:m0 + T][::-1] if upper else stack[m0:m0 + T]
    whole, rest = _split(y[..., a * T:(a + k) * T], T)
    w, m = whole.shape[-2], rest.shape[-1]
    rows[..., :w] = whole.transpose(3, 0, 1, 2)
    if w < k:
        rows[:m, ..., w] = rest.transpose(2, 0, 1)
        rows[m:, ..., w] = 0
    if not m0:
        return
    # each halo within the range: read as the stack reads them, the last
    # m0 chunk rows of the chunk before (lower) or of the chunk after
    # (upper)
    if upper:
        stack[:m0, ..., :-1] = stack[T:T + m0, ..., 1:]
    else:
        stack[:m0, ..., 1:] = stack[T:T + m0, ..., :-1]
    # the one halo from outside the range
    stack[:m0, ..., -1 if upper else 0] = _blocks_at(y, a * T + (
        k * T + np.arange(m0)[::-1] if upper else np.arange(-m0, 0)))
    if both:
        stack[m0 + T:2 * m0 + T, ..., :-1] = stack[m0:2 * m0, ..., 1:]
        stack[m0 + T:2 * m0 + T, ..., -1] = _blocks_at(
            y, (a + k) * T + np.arange(m0))


def _states(op, y, ends, carry, out=None):
    """The slot states of every chunk's stack of op's chunk apply, run
    over the chunks in forward order, on a time-last (d, r, n) Y, as an
    (S, d, r, nc) array (in out, if given), from the ends and carry of
    _chunk_operator(op, T). For a lower op the stack is [last m0 blocks
    of the chunk before; the chunk; the states at its entry]. An upper
    op is R L R, L the lower triangle of its coefficients and R the
    reversal over the chunk grid, so its stack is [first m0 blocks of
    the chunk after; the chunk; the states at its exit], each run of
    blocks read backwards, its chunks are weighed into the states of the
    chunk before, and its chunk operator's output blocks are turned
    forwards. (Read in this order, each output sums its terms from the
    farthest, smallest lag on.)"""
    d, r, n = y.shape
    S, _, T, nc = _sizes(op, n)
    st = np.empty((S, d, r, nc), dtype=np.complex128) if out is None else out
    whole, rest = _split(y, T)
    nw = whole.shape[-2]
    for j in range(d):
        np.matmul(ends, whole[j].swapaxes(-1, -2),
                  out=st[:, j, :, :nw].transpose(1, 0, 2))
    if nw < nc:
        st[..., -1] = np.einsum("qt,drt->qdr", ends[:, :rest.shape[-1]], rest)
    _carry_states(st[..., ::-1] if op.upper else st, op.mults, carry)
    return st


def _write(out, x, c0):
    """Write the chunk-form blocks x (T, d, r, k) of chunks c0 ..
    c0 + k - 1 into the time-last (d, r, n) out, up to n."""
    T, k = len(x), x.shape[-1]
    whole, rest = _split(out[..., c0 * T:(c0 + k) * T], T)
    w, m = whole.shape[-2], rest.shape[-1]
    whole[...] = x[..., :w].transpose(1, 2, 3, 0)
    if w < k:
        rest[...] = x[:m, ..., w].transpose(1, 2, 0)


def _sweep(op, y, mat, states, out):
    """Write into out (d, r, n) the chunk operator mat applied to Y:
    op Y for op's mat and states (S, d, r, nc) (see _states), or
    (op + op* - diag(c_0)) Y for a lower op, the mat of
    _hermitian_operator and the entry states of op over the exit states
    of op* (2 S, d, r, nc). The gemms run over ranges of chunks, each in
    one workspace of its stack and its output of about _RANGE_BYTES."""
    d, r, n = y.shape
    S, m0, T, nc = _sizes(op, n)
    P = m0 + T + S
    rows = mat.shape[1] // d                # of a chunk's stack
    width = max(1, _RANGE_BYTES // (2 * P * d * r * 16))
    space = np.empty((rows + T) * d * r * min(width, nc), dtype=np.complex128)
    for c0 in range(0, nc, width):
        k = min(width, nc - c0)
        stack, x = (a.reshape(-1, d, r, k) for a in np.split(
            space[:(rows + T) * d * r * k], [rows * d * r * k]))
        _fill(stack, y, c0, op.upper, m0, T, rows > P)
        stack[rows - len(states):] = states[..., c0:c0 + k]
        np.matmul(mat, stack.reshape(rows * d, -1), out=x.reshape(T * d, -1))
        _write(out, x, c0)


def _hermitian_operator(op, lo, up):
    """The (T d, (2 m0 + T + 2 S) d) chunk operator of op + op* - diag(c_0)
    for a lower op, on the stack [last m0 blocks of the chunk before; the
    chunk; first m0 blocks of the chunk after; op's slot states at the
    chunk's entry; op*'s at its exit]: op's chunk operator lo plus op*'s
    up, as _chunk_operator returns them, op*'s turned forwards, without
    its diagonal. The chunk block is a full T x T block Toeplitz
    matrix."""
    S = sum(op.mults)
    m0, d = len(op.blocks) - S - 1, op.blocks.shape[-1]
    T = len(lo) // d
    lo, up = (mat.reshape(T, d, m0 + T + S, d) for mat in (lo, up))
    upper = up[:, :, m0:m0 + T][:, :, ::-1].copy()
    upper[np.arange(T), :, np.arange(T)] = 0
    return np.concatenate([lo[:, :, :m0], lo[:, :, m0:m0 + T] + upper,
                           up[:, :, :m0][:, :, ::-1],
                           lo[:, :, m0 + T:], up[:, :, m0 + T:]],
                          axis=2).reshape(T * d, -1)


def _q_ops(spec, mu):
    """Q_{mu,i} for i = 1..m_mu as upper triangles: a zero band, the pole
    p_mu and the identity residue in slot i."""
    if not 0 <= mu < spec.K:
        raise errors.DomainViolation(f"no pole {mu} of 0..{spec.K - 1}")
    m, d = spec.mults[mu], spec.d
    for i in range(1, m + 1):
        blocks = np.zeros((m + 1, d, d))
        blocks[i] = np.eye(d)
        yield _Triangular(blocks, (spec.poles[mu],), (m,), True)


def apply_Q(spec, mu, n, y):
    """[Q_{mu,i,n} Y for i = 1..m_mu] in O(n m_mu) block operations."""
    return [_applied(op, n, y, spec.d) for op in _q_ops(spec, mu)]


def apply_Q_adjoint(spec, mu, n, y):
    """[Q*_{mu,i,n} Y for i = 1..m_mu]."""
    return [_applied(_adjoint(op), n, y, spec.d) for op in _q_ops(spec, mu)]


def _head(y, n, d):
    """(y, s, k): the time-last (d, r, n) view of the first n blocks of a
    public (n', d, r) Y, or of their copy over 2^k, s the power of two at
    or below the RMS entry of that y: k = 0 for an s within 2^+-_WINDOW,
    else s = 1 (see _scaled). NonSummableRHS if an entry is not finite."""
    y = as_block_vector(y, d)
    if len(y) < n:
        raise ValueError(f"Y has {len(y)} blocks, need {n}")
    y, k, size = y[:n], 0, max(y[:n].size, 1)
    # sum |y|^2 in one pass without a copy, as one line if y is one in memory
    sq = (float(np.vdot(*2 * [y.ravel("K").view(np.float64)])) if y.flags.forc
          else sum(float(np.einsum("ijk,ijk->", a, a))
                   for a in (y.real, y.imag)))
    e = (math.frexp(sq / size)[1] - 1) >> 1             # floor(log2 RMS)
    if not (0 < sq < math.inf and abs(e) <= _WINDOW):
        # the sum may have left float range: again of 2^j Y, inside it
        if not np.isfinite(y).all():
            raise errors.NonSummableRHS("Y has non-finite blocks")
        j = 600 if sq < 1 else -600
        t = (y * 2.0 ** j).ravel("K").view(np.float64)
        e = k = ((math.frexp(float(np.vdot(t, t)) / size)[1] - 1) >> 1) - j
        y = _scaled(y, -k)
    return y.transpose(1, 2, 0), math.ldexp(1.0, e - k), k


def _scaled(x, k):
    """x (an array, a float or None) times 2^k in two exact steps;
    NumericalError past float range, the one overflow a call may meet."""
    if k and x is not None:
        with np.errstate(over="ignore", invalid="ignore"):   # inf * 0j
            x = x * 2.0 ** (k // 2) * 2.0 ** (k - k // 2)
        if not np.isfinite(x).all():
            raise errors.NumericalError(f"output times 2^{k} past float range")
    return x


def _applied(op, n, y, d):
    """op Y for a public (n, d, r) Y, returned as a C-ordered (n, d, r)
    array: op's chunk operator, _states and _sweep on the time-last views
    of Y and of the output."""
    y, _, k = _head(y, n, d)
    out = np.empty((n, d, y.shape[1]), dtype=np.complex128)
    mat, ends, carry = _chunk_operator(op, _sizes(op, n)[2])
    _sweep(op, y, mat, _states(op, y, ends, carry), out.transpose(1, 2, 0))
    return _scaled(out, k)


def apply_A(spec, n, y, variant="tilde"):
    """A~_n Y (variant 'tilde') or A_n Y ('plain') in O(n)."""
    return _applied(_factor(spec, variant), n, y, spec.d)


def apply_A_adjoint(spec, n, x, variant="tilde"):
    """A~_n* X or A_n* X in O(n)."""
    return _applied(_adjoint(_factor(spec, variant)), n, x, spec.d)


def apply_A_gram(spec, n, y, variant="tilde"):
    """A~*A~ Y or A*A Y in O(n) (n >= m0 + 1): T_n(w^{-1}) Y by solve's
    apply minus the corner E~ Y or E Y (see PreparedSolve.gram)."""
    return PreparedSolve(ClosedFormKit(spec), n).gram(y, variant)


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
    # 2-norm condition number of I - G~G (None when K = 0)
    resolvent_cond: float = None
    overlap_checked: int = 0
    # the overlap check's largest ratio, the same for Y and 2^k Y (see solve)
    overlap_max_dev: float = 0.0
    # seconds per stage: plan (all that solve builds, the residual's band
    # too; 0 from a held PreparedSolve), apply (the slot states and the
    # two-sided apply of T_n(w^{-1})), assembly (the maps on the moments,
    # both sides' corrections and the overlap check) and residual (or,
    # without it, the check that Z is finite) with the outputs' scale-back
    timings: dict = field(default_factory=dict)
    # overlap_rows (the rows the overlap check compared), plan_bytes (of
    # every array of the PreparedSolve), chunk (blocks per chunk) and, when
    # the residual ran, residual_band (L, the least the certificate
    # allows), residual_nfft and residual_segments
    counters: dict = field(default_factory=dict)


def _edge_weights(op, n):
    """(weights, shift), the Y-free part of op's sums at order n (see
    _edge_sums): the (S, k) weights C(l, i - 1) p^l of the k blocks of
    the chunk at the sums' end per slot (mu, i), and the (S, S) shift
    of the slot states there."""
    S, _, T, nc = _sizes(op, n)
    last = (nc - 1) * T
    s, ks = ((T + 1, np.arange(1, min(T, n) + 1)) if op.upper else
             (n - last + 1, np.arange(n - last, 0, -1)))
    degs = [e for m in op.mults for e in range(m)]
    p = np.repeat(op.poles, op.mults)[:, None]
    binoms = np.stack([binom_vec(ks, e) for e in range(max(degs, default=0)
                                                       + 1)])
    shift = np.zeros((S, S), dtype=np.complex128)
    q0 = 0
    for pole, m in zip(op.poles, op.mults):
        for j, i in itertools.combinations_with_replacement(range(m), 2):
            shift[q0 + i, q0 + j] = pole ** s * binom(s - j - 1, i - j)
        q0 += m
    return binoms[degs] * p ** ks, shift


def _edge_sums(op, edge, st, y):
    """Per slot (mu, i) of op, a sum of the time-last (d, r, n) Y on the
    v basis of the rank correction, read from op's slot states st (S, d,
    r, nc) with edge = _edge_weights(op, n): sum_t C(t, i - 1) p^t y_t
    for an upper op with poles p (the tilde factor's states) from chunk
    0's exit, sum_t C(n + 1 - t, i - 1) conj(p)^{n+1-t} y_t for a lower
    op with poles conj(p) (the plain factor's) from the last chunk's
    entry, plus that chunk's own blocks. A state sigma_j = sum_l C(l + j
    - 1, j - 1) p^l y weighs blocks at lags l whose weight is C(l + s,
    i - 1) p^{l+s} = p^s sum_{j <= i} C(s - j, i - j) C(l + j - 1, j - 1)
    p^l, by Vandermonde's identity."""
    weights, shift = edge
    n, k = y.shape[-1], weights.shape[-1]
    state, blocks = ((st[..., 0], y[..., :k]) if op.upper else
                     (st[..., -1], y[..., n - k:]))
    return (np.einsum("qk,drk->qdr", weights, blocks)
            + np.tensordot(shift, state, 1))


def _coefficients(plan, plain, tilde, y, m0):
    """The (d r, 2M + m0) coefficients of the plain and the tilde rows'
    corrections on the sequence rows (see _sequences), for a time-last
    (d, r, n) Y and its sums on the v basis by the plain and the tilde
    factor (see _edge_sums): the plan's maps on the moments, which are
    those sums with the m0 blocks of Y at each end."""
    d, r = y.shape[:2]
    moments = np.concatenate([
        np.concatenate([sums, np.moveaxis(heads, -1, 0)]).reshape(-1, r)
        for sums, heads in ((plain, y[..., ::-1][..., :m0]),
                            (tilde, y[..., :m0]))])
    return tuple((cmap @ moments).reshape(-1, d * r).T
                 for cmap in (plan.plain_map, plan.tilde_map))


def _sequences(poles, mults, n, T):
    """The 2M sequences C(m, i - 1) p^{n-m} (row q) and C(m, i - 1)
    conj(p)^m (row M + q) of slot q = (mu, i) of the rank correction of
    order n, on chunks of T blocks: (table, live, anchors). The rows of a
    chunk of base b at m = b + u + 1 are table[..., u] times its anchors
    p^{n-b-T} C(b, a) and conj(p)^b C(b, a) at the rows of slot (mu, a + 1),
    by C(b + u + 1, i - 1) = sum_a C(b, a) C(u + 1, i - 1 - a); anchors(cs,
    plain) gives those of the chunks cs of the tilde grid, b = c T, or of
    the plain grid, b = n - (c + 1) T, whose row u is at m = n + 1 - s for
    plain row s = c T + u + 1. The powers p^{c T} = p^{a B T} p^{b T},
    b < B, are each a power of p, and those below _FLUSH are zero: they add
    under 1e-154 of the anchors of chunk 0. So only the first and the last
    `live` chunks of the tilde grid have anchors not all zero, and none
    leaves float range (a chunk past n by at most |p|^{1-T})."""
    degs = [e for m in mults for e in range(m)]
    p = np.repeat(np.asarray(poles, dtype=np.complex128), mults)[:, None]
    M, u, nc = len(degs), np.arange(T), -(-n // T)
    table = np.zeros((2 * M, 2 * M, T), dtype=np.complex128)
    if not M:       # no slot: no sequence row, and no chunk is live
        return table, 0, None
    # slot q takes C(u + 1, k) at the anchor of slot q - k, k <= its degree
    qs, ks = np.array([(q, k) for q, e in enumerate(degs)
                       for k in range(e + 1)]).T
    steps = np.stack([binom_vec(u + 1, k) for k in range(max(degs) + 1)])
    table[qs, qs - ks] = steps[ks] * p[qs] ** (T - 1 - u)
    table[M + qs, M + qs - ks] = steps[ks] * np.conj(p[qs]) ** (u + 1)
    # the chunks c whose largest power |p|^{c T} is above _FLUSH
    live = min(nc, int(np.log(_FLUSH) / (T * np.log(np.abs(p).max()))) + 1)
    B = math.isqrt(live) + 1
    # p^{c T} for c < live, then a zero that every later chunk reads
    powers = ((p ** (B * T * np.arange(live // B + 1)))[..., None] * (
        p ** (T * np.arange(B)))[:, None]).reshape(M, -1)[:, :live + 1]
    powers[np.abs(powers) < _FLUSH] = 0
    powers[:, live] = 0
    end = p ** (n - nc * T)

    def anchors(cs, plain):
        """The anchors of the chunks cs of the plain or the tilde grid."""
        near = powers[:, np.minimum(cs, live)]                # p^{c T}
        far = end * powers[:, np.minimum(nc - 1 - cs, live)]  # p^{n-(c+1)T}
        base = cs * T
        if plain:
            near, far, base = far, near, n - base - T
        binoms = np.stack([binom_vec(base, e) for e in degs])
        return np.concatenate([far * binoms, np.conj(near) * binoms])

    return table, live, anchors


def _residual_band(tables, n):
    """(L, nfft, segments, tail, transform) of the residual at order n:
    L = tables.gamma_band_width(_RESIDUAL_REL ||gamma(0)||_2), at most
    n - 1; the least segments nfft log2 nfft, of nfft - 2L blocks each,
    among the powers of two from 8 (2L + 1) up to n + 2L and
    scipy.fft.next_fast_len(n + 2L); the certified bound on the band's
    tail (0 at L = n - 1); the gamma band's (d, d, nfft) transform."""
    g0 = max(float(np.linalg.norm(tables.gamma(0), 2)), 1e-300)
    L = min(tables.gamma_band_width(_RESIDUAL_REL * g0), n - 1)
    band = np.ascontiguousarray(tables.gamma_band(L).transpose(1, 2, 0))
    sizes = [1 << k for k in range((16 * L + 7).bit_length(),
                                   (n + 2 * L).bit_length())]
    sizes.append(scipy.fft.next_fast_len(n + 2 * L))
    nfft = min(sizes, key=lambda f: -(-n // (f - 2 * L)) * f * np.log2(f))
    return (L, nfft, -(-n // (nfft - 2 * L)),
            0.0 if L == n - 1 else tables.gamma_band_tail(L),
            np.fft.fft(band, n=nfft, axis=-1))


def _residual_banded(band, z, y):
    """||T_n Z - Y||_F for time-last (d, r, n) Z and Y, by overlap-save
    with the gamma band of _residual_band: Z, padded by L zero blocks in
    front, is cut into segments of nfft points stepping by nfft - 2L, and
    points 2L.. of each segment's circular convolution with the band are
    the next nfft - 2L blocks of T_n Z (the last segment's trimmed at n).
    The segments are padded and transformed _RESIDUAL_BATCH points at a
    time, in buffers allocated here and reused from batch to batch. That
    is O(n log L) work. Returns the value, the certified bound on the
    neglected band times ||Z||_F, and the counters residual_band,
    residual_nfft and residual_segments. NumericalError if the value,
    the tail or ||Z||_F is not finite."""
    L, nfft, segments, tail, gf = band
    d, r, n = z.shape
    step = nfft - 2 * L
    batch = max(1, _RESIDUAL_BATCH // nfft)
    m = min(batch, segments)
    # the transform, product and deviation, and the padded points
    zf, prod, part = np.empty((3, d, r, m, nfft), dtype=np.complex128)
    pad = np.empty((d, r, m * step + 2 * L), dtype=np.complex128)

    def deviations():
        """T_n Z - Y in parts, each in the buffers reused batch by batch,
        so valid until the next."""
        for i in range(0, segments, batch):
            j = min(i + batch, segments)
            lo, hi = i * step, min(j * step, n)
            # the batch's points of Z padded: Z from lo - L on, zero
            # outside 0 .. n - 1
            padded = pad[..., :(j - i) * step + 2 * L]
            a, b = max(lo - L, 0), min(j * step + L, n)
            padded[..., :a - lo + L] = 0
            padded[..., a - lo + L:b - lo + L] = z[..., a:b]
            padded[..., b - lo + L:] = 0
            f, c = zf[..., :j - i, :], prod[..., :j - i, :]
            np.fft.fft(sliding_window_view(padded, nfft, axis=-1)[
                ..., ::step, :], axis=-1, out=f)
            # sum_b gf[:, b] zf[b], one broadcast product per term
            np.multiply(gf[:, 0, None, None], f[0], out=c)
            for e in range(1, d):
                np.multiply(gf[:, e, None, None], f[e],
                            out=part[:, :, :j - i])
                c += part[:, :, :j - i]
            np.fft.ifft(c, axis=-1, out=c)
            # the trimmed deviation, in place: whole segments, then the
            # ragged rest of the last
            dev = c[..., 2 * L:]
            whole, rest = divmod(hi - lo, step)
            dev[..., :whole, :] -= y[..., lo:lo + whole * step].reshape(
                d, r, whole, step)
            yield dev[..., :whole, :]
            if rest:
                dev[..., whole, :rest] -= y[..., hi - rest:hi]
                yield dev[..., whole, :rest]

    # Z in its memory order: one line, without a copy if Z is dense
    residual, znorm = _norm(deviations()), _norm([z.ravel("K")])
    if not all(map(math.isfinite, (residual, tail, znorm))):
        raise errors.NumericalError(
            f"residual {residual:.3e}, its band's tail {tail:.3e} or "
            f"||Z||_F {znorm:.3e} is not finite")
    counters = {"residual_band": L, "residual_nfft": nfft,
                "residual_segments": segments}
    return residual, tail * znorm, counters


def _norm(parts):
    """||x||_F over the complex arrays x of parts, each with a contiguous
    last axis, from the sum of their squares in order, without a copy."""
    return sum(float(np.einsum("...i,...i->...", re, re).sum())
               for re in (x.view(np.float64) for x in parts)) ** 0.5


def _anchor_columns(cs, live):
    """The columns of the chunks cs among the held anchors of the first
    and the last live chunks (see PreparedSolve): chunk c < live at c, a
    later one at live + c % live."""
    return np.where(cs < live, cs, live + cs % live)


def _side_rows(w, anchors, cs, plain):
    """One side's correction on the rows of the chunks cs, as (d, r,
    len(cs) T): its coefficients times the table, w (d, r, R, T), times
    the anchors of those chunks of its grid, held in anchors (2, R, 2
    live) for the tilde and the plain grid (see PreparedSolve),
    conjugated on the plain side."""
    a = anchors[int(plain)][:, _anchor_columns(cs, anchors.shape[-1] // 2)]
    return np.matmul((np.conj(a) if plain else a).T, w).reshape(
        *w.shape[:2], -1)


def _correct(z, c_plain, c_tilde, seq, m0, floor=None):
    """Add the rank corrections to the time-last (d, r, n) z: the tilde
    side's on its rows s <= n - m0, at m = s, and the plain side's on its
    rows s > n - m0, at m = n + 1 - s; with one side's coefficients None,
    the other's on every row. A side's coefficients (d r, R + m0) are on
    the R sequence rows of seq (see PreparedSolve) and on the m0 unit
    rows (see _coefficients). Row s = c T + u + 1 of either
    side lies in chunk c of its grid: the tilde side's takes table column
    u, the plain side's column T - 1 - u and the conjugate anchors (see
    _sequences). One loop runs over batches of at most _RANGE_BYTES of
    output per side on the chunks at either end whose anchors are not all
    zero (elsewhere both corrections are zero): it forms a side's rows
    where that side adds some and, given a floor, both sides' everywhere,
    and compares them on the overlap rows m0 + 1 .. n - m0, where both
    formulas hold, by the ratio of solve's check with that floor. Then
    the unit rows [m == j] go on tilde row j and plain row n + 1 - j.
    Returns the largest deviation ratio and the number of rows compared."""
    d, r, n = z.shape
    # 0-based rows below cut take the tilde side's correction
    cut = n if c_plain is None else 0 if c_tilde is None else n - m0
    R = (c_tilde if c_plain is None else c_plain).shape[1] - m0
    worst, compared = 0.0, 0
    table, live, anchors = seq
    T = table.shape[-1]
    nc = -(-n // T)
    w_plain, w_tilde = (None if c is None else (
        c[:, :R] @ tab.reshape(R, R * T)).reshape(d, r, R, T) for c, tab in (
            (c_plain, np.conj(table[..., ::-1])), (c_tilde, table)))
    width = max(1, _RANGE_BYTES // (16 * T * d * r))
    for c0, c1 in ((0, live), (max(live, nc - live), nc)):
        for a in range(c0, c1, width):
            b = min(a + width, c1)
            # tilde rows s0 .. t - 1, plain rows t .. s1 - 1 (0-based)
            s0, s1 = a * T, min(b * T, n)
            t = min(max(cut, s0), s1)
            lo, hi = (max(s0, m0), min(s1, n - m0)) if floor else (0, 0)
            cs = np.arange(a, b)
            if t > s0 or hi > lo:
                x_t = _side_rows(w_tilde, anchors, cs, False)
                z[..., s0:t] += x_t[..., :t - s0]
            if t < s1 or hi > lo:
                x_p = _side_rows(w_plain, anchors, cs, True)
                z[..., t:s1] += x_p[..., t - s0:s1 - s0]
            if hi > lo:
                # squared ratio per row; np.maximum keeps a NaN that max() drops
                dev = (x_t[..., lo - s0:hi - s0] - x_p[..., lo - s0:hi - s0]
                       ).view(np.float64).reshape(d, r, -1, 2)
                zs = z[..., lo:hi].transpose(2, 0, 1).view(np.float64)
                ratio = np.einsum("abst,abst->s", dev, dev) / np.maximum(
                    floor * floor, np.einsum("sab,sab->s", zs, zs) / min(d, r))
                worst = np.maximum(worst, ratio.max())
                compared += hi - lo
    if c_tilde is not None:
        z[..., :m0] += c_tilde[:, R:].reshape(d, r, m0)
    if c_plain is not None:
        z[..., n - m0:] += c_plain[:, R:].reshape(d, r, m0)[..., ::-1]
    return float(worst) ** 0.5, compared


def _held(x):
    """Every array in x, through tuples."""
    if isinstance(x, tuple):
        return [a for e in x for a in _held(e)]
    return [x] if isinstance(x, np.ndarray) else []


class PreparedSolve:
    """The arrays of solve and apply_A_gram at order n that do not depend
    on Y, built once and read-only: plan and corners (kit.plan(n) and
    kit.corner_plan()), sides (inv, the lower triangle of T_n(w^{-1}),
    and inv*) with scans (their ends and carry), edges (see _edge_weights)
    and mat (see _hermitian_operator), seq (the table and live of
    _sequences, and the anchors of the first and the last live chunks of
    the tilde and the plain grid, as (2, 2M, 2 live), chunk c at column
    _anchor_columns(c, live)) and, from the tables, band (see
    _residual_band; None without, and then solve computes no residual).
    nbytes counts them. DomainViolation below n = m0 + 1."""

    def __init__(self, kit, n, tables=None):
        spec = kit.spec
        if n < spec.m0 + 1:
            raise errors.DomainViolation("need n >= m0 + 1")
        self.n, self.d, self.m0 = n, spec.d, spec.m0
        self.plan, self.corners = kit.plan(n), kit.corner_plan()
        inv = _Triangular(kit.inverse_blocks.view(), np.conj(spec.poles),
                          spec.mults, False)
        self.sides, T = (inv, _adjoint(inv)), _chunk_blocks(spec.m0)
        ops = [_chunk_operator(op, T) for op in self.sides]
        self.scans = tuple(op[1:] for op in ops)
        self.edges = tuple(_edge_weights(op, n) for op in self.sides)
        self.mat = _hermitian_operator(inv, ops[0][0], ops[1][0])
        table, live, anchors = _sequences(spec.poles, spec.mults, n, T)
        nc = -(-n // T)
        cs = np.r_[:live, max(live, nc - live):nc]
        held = np.zeros((2, len(table), 2 * live), dtype=np.complex128)
        if live:        # else no slot, and no anchors
            held[..., _anchor_columns(cs, live)] = [
                anchors(cs, plain) for plain in (False, True)]
        self.seq = (table, live, held)
        self.band = None if tables is None else _residual_band(tables, n)
        arrays = _held(tuple(vars(self).values()))
        for a in arrays:
            a.flags.writeable = False
        self.nbytes = sum(a.nbytes for a in arrays)

    def _apply(self, y):
        """(T_n(w^{-1}) Y, sums) for a time-last (d, r, n) Y, the product
        C-ordered (n, d, r): the slot states of inv at each chunk's entry
        (the plain factor's) and of inv* at its exit (the tilde factor's),
        one pass over Y each, their sums on the v basis (see _edge_sums),
        then _sweep of (inv + inv* - diag(c_0)) Y."""
        d, r, n = y.shape
        S, _, _, nc = _sizes(self.sides[0], n)
        states = np.empty((2 * S, d, r, nc), dtype=np.complex128)
        sums = [_edge_sums(op, edge, _states(op, y, *scan, out=st), y)
                for op, scan, edge, st in zip(self.sides, self.scans,
                                              self.edges, np.split(states, 2))]
        z = np.empty((n, d, r), dtype=np.complex128)
        _sweep(self.sides[0], y, self.mat, states, z.transpose(1, 2, 0))
        return z, sums

    def gram(self, y, variant="tilde"):
        """apply_A_gram(spec, n, y, variant) from this object's arrays:
        T_n(w^{-1}) Y minus the corner E~ Y or E Y on every row it reaches."""
        plain = _plain(variant)
        y, _, k = _head(y, self.n, self.d)
        z, sums = self._apply(y)
        c_plain, c_tilde = _coefficients(self.corners, *sums, y, self.m0)
        _correct(z.transpose(1, 2, 0), c_plain if plain else None,
                 None if plain else c_tilde, self.seq, self.m0)
        return _scaled(z, k)

    def solve(self, y, check_overlap=True):
        """solve(spec, n, y, ...) from this object's arrays, with the
        residual if it was built with tables, and NumericalError without
        it if Z is not finite; timings["plan"] is 0, since nothing is
        built. DomainViolation below n = 2 m0 + 1."""
        ticks = [time.perf_counter()]
        y, s, k = _head(y, self.n, self.d)
        if self.n < 2 * self.m0 + 1:
            raise errors.DomainViolation("need n >= 2 m0 + 1")
        ticks.append(time.perf_counter())
        z, sums = self._apply(y)
        zt = z.transpose(1, 2, 0)
        ticks.append(time.perf_counter())
        overlap_max_dev, compared = _correct(
            zt, *_coefficients(self.plan, *sums, y, self.m0), self.seq,
            self.m0, s if check_overlap else None)
        # written so that a NaN deviation fails it
        if not overlap_max_dev <= _OVERLAP_TOL:
            raise errors.OverlapMismatch(
                f"regional assemblies deviate by {overlap_max_dev:.3e} "
                f"(tolerance {_OVERLAP_TOL:.1e}) on overlap rows")
        ticks.append(time.perf_counter())
        counters = {"overlap_rows": compared, "chunk": _chunk_blocks(self.m0),
                    "plan_bytes": self.nbytes}
        residual = tail = None
        if self.band is not None:
            residual, tail, more = _residual_banded(self.band, zt, y)
            counters.update(more)
        elif not np.isfinite(z).all():      # what the residual would catch
            raise errors.NumericalError("Z has non-finite entries")
        z, residual, tail = (_scaled(x, k) for x in (z, residual, tail))
        ticks.append(time.perf_counter())
        timings = dict(zip(("plan", "apply", "assembly", "residual"), [0.0, *(
            b - a for a, b in itertools.pairwise(ticks[1:]))]))
        return SolveReport(
            z=z, method="fast", n=self.n, d=self.d,
            seconds=ticks[-1] - ticks[0], residual=residual,
            residual_tail_bound=tail,
            spectral_radius=self.plan.spectral_radius,
            resolvent_cond=self.plan.resolvent_cond, overlap_checked=compared,
            overlap_max_dev=overlap_max_dev, timings=timings,
            counters=counters)


def solve(spec, n, y, tables=None, kit=None, check_overlap=True,
          compute_residual=True):
    """Solve T_n(w) Z = Y in O(n): the solve of a PreparedSolve built
    here, with the tables (made if None) only when compute_residual.

    Y is an (n, d, r) block vector with any r >= 1 columns, and Z has
    the same shape. Below n = 2 m0 + 1 the two regional corrections do
    not cover every index, and solve returns dense_solve's report
    (method "dense"). With check_overlap, both regional corrections are
    formed on every overlap row s = m0 + 1 .. n - m0 of the chunks whose
    anchors are not all zero (elsewhere both are zero; see _correct), and
    overlap_checked counts those rows: OverlapMismatch if
    ||dev||_F / max(s, ||z_s||_F / sqrt(min(d, r))) exceeds 1e-9 or is
    NaN on a row, s the power of two at or below Y's RMS entry (so the
    same for Y and 2^k Y), a ratio never below the spectral ||dev||_2 /
    max(s, ||z_s||_2), which overlap_max_dev thus bounds. NonSummableRHS
    if Y has a NaN or an inf; NumericalError if an output cannot be
    represented, if the residual, its tail bound or ||Z||_F is not finite
    (see _residual_banded), or without the residual if Z is not. The
    check compares only the two regions' corrections: both formulas share
    T_n(w^{-1}) Y, so a fault in that apply passes it, and with
    compute_residual=False no check covers the apply.
    """
    t0 = time.perf_counter()
    if n < 2 * spec.m0 + 1:
        from .oracle import dense_solve     # oracle imports this module
        y, _, k = _head(y, n, spec.d)
        rep = dense_solve(spec, n, y.transpose(2, 0, 1), tables=tables)
        rep.z, rep.residual = _scaled(rep.z, k), _scaled(rep.residual, k)
        return rep
    if compute_residual and tables is None:
        tables = CoefficientTables(spec)
    prepared = PreparedSolve(ClosedFormKit(spec) if kit is None else kit, n,
                             tables if compute_residual else None)
    report = prepared.solve(y, check_overlap)
    report.timings["plan"] = time.perf_counter() - t0 - report.seconds
    report.seconds = time.perf_counter() - t0
    return report
