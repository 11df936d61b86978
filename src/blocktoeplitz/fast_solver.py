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
p^T over the n / T chunk values (see _carry_states). An upper triangle
is R L R with R the reversal over the chunk grid: its stack holds the
next m0 blocks, the chunk and the states at its exit, each run read
backwards, and its scans run backwards over the chunks (see _operator).
An adjoint conjugate-transposes band and residues, conjugates the poles
and flips the triangle. A_n is the lower triangle of the a_k, A~_n the
adjoint of the one built from the h_sharp coefficients, and the pole
factor Q_{mu,i} the upper triangle with a zero band, the pole p_mu and
the identity residue in slot i.

A Gram op* op Y computes the slot states of both applies first (see
_states): one pass over Y gives the end sums of op and, through an
n-free map, those of op* on every chunk without forming op Y. Then the
chunk gemms run over ranges of chunks sized to a core's L2, in one
workspace of two stacks: op's gemm writes straight into the chunk rows
of op*'s stacks, and op*'s gemm into the time-last output (see _run).
So the Gram holds its output, the states (2 S / T of Y) and the
workspace, never a whole stack or an intermediate op Y. Of A* A Y,
solve reads only the last m0 rows and the sampled overlap chunks, so it
computes just those (see _gram_rows), from the same states.

When the work n d r is at least _LANE_WORK (2^17, from a measured
crossover) and the process may run on two CPUs, solve runs on two lanes:
a second thread, which lives for one call, computes the plain rows while
the caller runs the tilde Gram, then takes ranges of the tilde Gram's
chunks as it comes free, and the residual's batches go to whichever
lane is free. Each block is computed by the same arithmetic either way,
so Z does not depend on the lane count.

For K >= 1 the remaining rank correction z_s += l_{n,s} R_n is assembled
in a rescaled form: the factors l_{n,s} and r_{n,t} separately contain
pole powers p^{-m} and p^{n} that overflow / underflow float range long
before n reaches the sizes this path is for, but the diagonal power
scalings cancel analytically, leaving only polynomially growing pieces
(see the hat-variants of the closed forms). The assembly never forms l
or r themselves. What it needs beyond Y is the kit and one SolvePlan
from ClosedFormKit.plan(n): the fixed 2Md x 2Md map

    top = I + Lambda^T G R P*,   bot = I + Lambda G~ R~ P,
    K_n = [[top Lambda^T P, top], [bot, bot Lambda P*]]

(P = Pi_n Theta, R = (I - G~G)^{-1}, R~ = (I - GG~)^{-1}), U_n Theta and
one small coefficient array. Every slot scalar of v and of
hat-w - hat-v is a pole power times a polynomial in the block index, so
the kit's v coefficients (ClosedFormKit.v_coef, also the source of
ClosedFormKit.vectors) and the plan's act on 2M sequences
C(m, a) p^{n-m} and C(m, a) conj(p)^m that each solve generates
(ClosedFormKit.sequences); neither the kit nor the plan holds anything
whose size grows with n. The correction is a few gemms: one per side
sums the sequences against Y, K_n turns the two sums into
[g_vec; g~_vec], and the correction rows are one (d r, 2M) @ (2M, n)
gemm of the sequences with a map formed per solve from g, the residue
and band blocks and the coefficients. Every tilde row takes its
correction; the plain rows exist only for the m0 assembled ones and the
sampled overlap chunks, and those take theirs. Each solve builds its
plan afresh from the kit (a few 2Md x 2Md products), so a warm solve on
a prebuilt kit does that, the Gram work, the sequences, those gemms and
its checks.

The residual check convolves the gamma band, read as one array from the
tables' bulk gamma store, with Z by overlap-save in O(n log L), at the
transform size with the least segments nfft log2 nfft: one transform of
next_fast_len(n + 2L) points when that is cheapest, as at moderate n,
else segments of a power of two set by the band (see _residual_size and
_residual_banded). Below n = 2 m0 + 1 solve returns the dense solve.
The literal reference formulas
(unscaled, block by block) live in closed_form; this module is the
production path.
"""

import itertools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
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
from .util import binom_vec, herm

_OVERLAP_TOL = 1e-9
# blocks per chunk of a triangular apply (raised to the band length m0 + 1)
_CHUNK = 16
# bytes of the two chunk stacks of a range in a Gram or apply: well
# inside the 2 MB L2 of a core
_RANGE_BYTES = 1 << 20
# transform points per batch of residual segments: bounds its transient
_RESIDUAL_BATCH = 1 << 14
# the neglected gamma band of the residual, relative to ||gamma(0)||_2
_RESIDUAL_REL = 1e-12
# n d r from which solve runs on two lanes: below it a second thread
# costs more than it saves (the crossover is measured in CHANGES.md)
_LANE_WORK = 1 << 17

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
    rho00, rho0, rho = spec.side(sharp)
    blocks = np.stack([rho00, *rho0, *(r for res in rho for r in res)])
    op = _Triangular(blocks, np.conj(spec.poles),
                     tuple(len(res) for res in rho), False)
    return _adjoint(op) if sharp else op


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


def _operator(op, T, rows_back):
    """op's chunk apply, run over the chunks in forward order: (mat, ends,
    carry) of _chunk_operator. For a lower op its stack is [last m0
    blocks of the chunk before; the chunk; the states at its entry]. An
    upper op is R L R, L the lower triangle of its coefficients and R
    the reversal over the chunk grid, so its stack is [first m0 blocks
    of the chunk after; the chunk; the states at its exit], each run of
    blocks read backwards, and ends weighs the chunk into the states of
    the chunk before. Either way mat's output blocks run backwards over
    the chunk if rows_back and forwards otherwise. (Read in this order,
    each output sums its terms from the farthest, smallest lag on.)"""
    mat, ends, carry = _chunk_operator(op, T)
    if op.upper != rows_back:
        mat = mat.reshape(T, -1)[::-1].reshape(mat.shape)
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


def _fill(stack, y, a, upper, m0, T):
    """Write [halo; chunk] of the stacks (see _operator) of the k chunks
    a .. a + k - 1 of a time-last (d, r, n) Y into stack, a (P, d, r, k)
    array, read backwards if upper and zero past n; the states are the
    caller's."""
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
    _halo(stack, m0, T, upper)
    # the one halo from outside the range, zero outside 0 .. n - 1
    edge = a * T + (k * T + np.arange(m0)[::-1] if upper
                    else np.arange(-m0, 0))
    stack[:m0, ..., -1 if upper else 0] = np.where(
        ((edge >= 0) & (edge < n))[:, None, None],
        y[..., np.clip(edge, 0, n - 1)].transpose(2, 0, 1), 0)


def _halo(stack, m0, T, upper):
    """Copy into the stacks (P, d, r, k) of k consecutive chunks each
    halo that lies in the same array: read as the stack reads them, a
    halo is the last m0 chunk rows of the chunk before (lower) or of the
    chunk after (upper)."""
    if upper:
        stack[:m0, ..., :-1] = stack[T:T + m0, ..., 1:]
    else:
        stack[:m0, ..., 1:] = stack[T:T + m0, ..., :-1]


def _zero_past(x, n, back):
    """Zero the blocks past n in the last column, chunk nc - 1, of the
    chunk-form x (T, d, r, k) whose blocks run backwards if back."""
    T = len(x)
    rest = n - (-(-n // T) - 1) * T
    x[slice(0, T - rest) if back else slice(rest, T), ..., -1] = 0


def _states(op, y, gram):
    """The slot states of op's stacks (see _operator) on every chunk of
    a time-last (d, r, n) Y, and with gram those of op*'s stacks in
    op* op Y: [(mat, states)] or [(mat, states), (mat*, states*)], each
    states an (S, d, r, nc) array and each mat's output rows ordered as
    the next stack reads them (forward for the last).

    op*'s end sums are ends* X_c for X = op Y, and ends* X_c = red
    stack_c(Y) with red = (ends* x I_d) mat, an n-free (S d, P d) map on
    op's stack. So one pass over Y, two gemms per block column j, with
    ends and with red's chunk columns of j, gives op's end sums and the
    chunk part of op*'s without forming X, in one scratch array the size
    of op*'s states; red then takes the halo
    blocks and, after op's scans, op's states, and op*'s scans follow.
    X past n is zero: from the last whole chunk on, where the ragged
    chunk enters, op*'s sums are taken from X itself."""
    d, r, n = y.shape
    S, m0, T, nc = _sizes(op, n)
    P = m0 + T + S
    adj = _adjoint(op)
    mat, ends, carry = _operator(op, T, gram and adj.upper)
    # op's stack positions on forward blocks
    back = slice(None, None, -1) if op.upper else slice(None)
    st = np.zeros((S, d, r, nc), dtype=np.complex128)
    if gram:
        mat_a, ends_a, carry_a = _operator(adj, T, False)
        red = np.einsum("qt,tiaj->qiaj", ends_a,
                        mat.reshape(T, d, P, d)).reshape(S * d, P, d)
        chunk, halo = red[:, m0:m0 + T][:, back], red[:, :m0][:, back]
        st_a = np.zeros((S * d, r, nc), dtype=np.complex128)
        part = np.empty((r, S * d, nc), dtype=np.complex128)
    whole, rest = _split(y, T)
    nw = whole.shape[-2]
    for j in range(d):
        blocks = whole[j].swapaxes(-1, -2)              # (r, T, nw)
        np.matmul(ends[:, back], blocks,
                  out=st[:, j, :, :nw].transpose(1, 0, 2))
        if gram:
            np.matmul(chunk[..., j], blocks, out=part[..., :nw])
            st_a[..., :nw] += part[..., :nw].transpose(1, 0, 2)
            if m0 and nw > 1:
                nb, cs = ((whole[j][:, 1:, :m0], slice(0, nw - 1))
                          if op.upper else
                          (whole[j][:, :-1, T - m0:], slice(1, nw)))
                np.matmul(halo[..., j], nb.swapaxes(-1, -2),
                          out=part[..., :nw - 1])
                st_a[..., cs] += part[..., :nw - 1].transpose(1, 0, 2)
    if nw < nc:
        st[..., -1] = np.einsum("qt,drt->qdr",
                                ends[:, back][:, :rest.shape[-1]], rest)
    _carry_states(st[..., ::-1] if op.upper else st, op.mults, carry)
    if not gram:
        return [(mat, st)]
    part = part.reshape(S * d, r * nc)
    np.matmul(red[:, m0 + T:].reshape(S * d, S * d),
              st.reshape(S * d, r * nc), out=part)
    st_a += part.reshape(S * d, r, nc)
    del part
    if nw < nc:
        a = max(nw - 1, 0)
        stack = np.empty((P, d, r, nc - a), dtype=np.complex128)
        _fill(stack, y, a, op.upper, m0, T)
        stack[m0 + T:] = st[..., a:]
        x = (mat @ stack.reshape(P * d, -1)).reshape(T, d, r, -1)
        _zero_past(x, n, adj.upper)
        st_a[..., a:] = np.einsum("qt,tdrc->qdrc", ends_a, x).reshape(
            S * d, r, nc - a)
    st_a = st_a.reshape(S, d, r, nc)
    _carry_states(st_a[..., ::-1] if adj.upper else st_a, op.mults, carry_a)
    return [(mat, st), (mat_a, st_a)]


def _write(out, x, c0):
    """Write the chunk-form blocks x (T, d, r, k) of chunks c0 ..
    c0 + k - 1 into the time-last (d, r, n) out, up to n."""
    T, k = len(x), x.shape[-1]
    whole, rest = _split(out[..., c0 * T:(c0 + k) * T], T)
    w, m = whole.shape[-2], rest.shape[-1]
    whole[...] = x[..., :w].transpose(1, 2, 3, 0)
    if w < k:
        rest[...] = x[:m, ..., w].transpose(1, 2, 0)


def _apply(op, y, gram=False, pool=None):
    """op Y, or op* op Y if gram, for a time-last (d, r, n) Y, as a new
    array laid out like Y (allocated before the states of _states, which
    die first). After the state scans the chunk gemms run over ranges of
    chunks in one workspace of two stacks of at most about _RANGE_BYTES:
    op's stacks are filled from Y; in a Gram op's gemm writes straight into
    the chunk rows of op*'s stacks, whose halos are copied within the
    range, and the last gemm writes into the output. op*'s halo lies in
    the chunk after (op* upper) or before, so op's range reaches one
    chunk further that way, and that chunk's output is dropped. With a
    pool, its lane takes ranges too, in a workspace of its own, once it
    is free; each range is computed the same way whichever lane takes
    it."""
    d, r, n = y.shape
    S, m0, T, nc = _sizes(op, n)
    P = m0 + T + S
    out = np.empty_like(y)
    applies = _states(op, y, gram)
    width = max(1, _RANGE_BYTES // (2 * P * d * r * 16))
    starts = itertools.count(0, width)      # the ranges not yet taken

    def sweep():
        """Run the ranges no lane has taken yet, in this lane's own
        workspace."""
        space = np.empty((2, P * d * r * min(width + gram, nc)),
                         dtype=np.complex128)
        while (c0 := next(starts)) < nc:
            c1 = min(c0 + width, nc)
            a = max(c0 - 1, 0) if gram and op.upper else c0
            b = min(c1 + 1, nc) if gram and not op.upper else c1
            src, dst = space[:, :P * d * r * (b - a)].reshape(
                2, P, d, r, b - a)
            _fill(src, y, a, op.upper, m0, T)
            for i, (mat, st) in enumerate(applies):
                src[m0 + T:] = st[..., a:b]
                if i + 1 == len(applies):
                    np.matmul(mat, src.reshape(P * d, -1),
                              out=dst[:T].reshape(T * d, -1))
                    break
                x = dst[m0:m0 + T]
                np.matmul(mat, src.reshape(P * d, -1),
                          out=x.reshape(T * d, -1))
                if b == nc:
                    _zero_past(x, n, not op.upper)
                _halo(dst, m0, T, not op.upper)
                # the halo beyond the range: a dropped chunk's, or zero
                # at chunk 0 or nc - 1
                dst[:m0, ..., 0 if op.upper else -1] = 0
                src, dst = dst, src
            _write(out, dst[:T, ..., c0 - a:c1 - a], c0)

    helper = None if pool is None else pool.submit(sweep)
    sweep()
    if helper is not None:
        helper.result()
    return out


def _gram_rows(op, y, chunks):
    """The blocks of op* op Y on the given chunks only, for a lower
    triangle op and a time-last (d, r, n) Y: a (T, d, r, len(chunks))
    array, block c T + u of op* op Y at [u, ..., i] for c = chunks[i],
    zero past n (T = _chunk_blocks(m0)).

    Chunk c of the upper apply op* reads X = op Y on chunk c, the first
    m0 blocks of chunk c + 1 and the slot states of op* at the chunk's
    exit, which _states gives without forming X. X is formed only on
    the given chunks and the halos of their successors, and X past n is
    zero."""
    d, r, n = y.shape
    S, m0, T, nc = _sizes(op, n)
    P = m0 + T + S
    (mat, st), (mat_a, st_a) = _states(op, y, True)

    def lower(cs, rows):
        """X on the first `rows` blocks of the chunks cs, last block
        first (as op*'s stack reads them), zero past n."""
        pos = cs * T - m0 + np.arange(m0 + T)[:, None]
        stack = np.empty((P, d, r, len(cs)), dtype=np.complex128)
        stack[:m0 + T] = np.where(
            ((pos >= 0) & (pos < n))[:, None, None],
            y[..., np.clip(pos, 0, n - 1)].transpose(2, 0, 1, 3), 0)
        stack[m0 + T:] = st[..., cs]
        x = mat[(T - rows) * d:] @ stack.reshape(P * d, -1)
        return np.where((pos[m0:m0 + rows] < n)[::-1, None, None],
                        x.reshape(rows, d, r, -1), 0)

    # op*'s stack of chunk c: [the first m0 blocks of X_{c+1}; X_c; exit
    # states], each run read backwards
    up = np.zeros((P, d, r, len(chunks)), dtype=np.complex128)
    up[m0:m0 + T] = lower(chunks, T)
    nxt = chunks + 1 < nc
    if m0:
        up[:m0, ..., nxt] = lower(chunks[nxt] + 1, m0)
    up[m0 + T:] = st_a[..., chunks]
    return (mat_a @ up.reshape(P * d, -1)).reshape(T, d, r, -1)


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
    return [_applied(op, n, y, spec.d) for op in _q_ops(spec, mu)]


def apply_Q_adjoint(spec, mu, n, y):
    """[Q*_{mu,i,n} Y for i = 1..m_mu]."""
    return [_applied(_adjoint(op), n, y, spec.d) for op in _q_ops(spec, mu)]


def _applied(op, n, y, d, gram=False):
    """op Y, or op* op Y if gram (see _apply), for a public (n, d, r) Y,
    returned as (n, d, r): _apply reads the time-last view of Y and lays
    its output out like it."""
    y = as_block_vector(y, d)
    if len(y) < n:
        raise ValueError(f"Y has {len(y)} blocks, need {n}")
    return np.ascontiguousarray(_apply(op, y[:n].transpose(1, 2, 0), gram)
                                .transpose(2, 0, 1))


def apply_A(spec, n, y, variant="tilde"):
    """A~_n Y (variant 'tilde') or A_n Y ('plain') in O(n)."""
    return _applied(_factor(spec, variant), n, y, spec.d)


def apply_A_adjoint(spec, n, x, variant="tilde"):
    """A~_n* X or A_n* X in O(n)."""
    return _applied(_adjoint(_factor(spec, variant)), n, x, spec.d)


def apply_A_gram(spec, n, y, variant="tilde"):
    """A~*A~ Y or A*A Y in O(n) (n >= m0 + 1)."""
    if n < spec.m0 + 1:
        raise errors.DomainViolation("need n >= m0 + 1")
    return _applied(_factor(spec, variant), n, y, spec.d, gram=True)


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
    overlap_max_dev: float = 0.0
    # seconds per stage of solve: gram, plan, assembly, overlap, residual
    timings: dict = field(default_factory=dict)
    # sizes of the work done: overlap_rows, plan_bytes (of the plan's
    # arrays; 0 without a plan), gram_chunk (blocks per chunk of the Gram
    # applies), plain_chunks (chunks whose plain rows were computed in
    # full), lanes and, when the residual ran, residual_band (L, the
    # least the certificate allows), residual_nfft and residual_segments
    counters: dict = field(default_factory=dict)


def _corrected_sums(kit, k_n, fv, y):
    """(g_vec, g~_vec) = K_n [sum_t v_{n+1-t} y_t; sum_t v~_t y_t] for the
    plan's map k_n, a time-last (d, c, n) Y and the (M, n) v sequences fv
    of m = 1..n (kit.sequences): on each side one gemm sums the sequences
    against Y, the m0 head blocks of Y join them for the unit rows, and
    the kit's v coefficients and the ext-stack blocks act once on those
    sums."""
    d, c, n = y.shape
    M, E, J = kit.v_coef.shape
    flat = y.reshape(d * c, n)
    seq = np.ascontiguousarray(fv[:, ::-1])     # f(n + 1 - t), t = 1..n
    sides = []
    for ext, coef, heads in ((kit.ext_stack, kit.v_coef,
                              flat[:, ::-1][:, :J - M]),
                             (kit.ext_tilde_stack, np.conj(kit.v_coef),
                              flat[:, :J - M])):
        sums = coef.reshape(M * E, J) @ np.concatenate([seq @ flat.T,
                                                        heads.T])
        sides.append(np.einsum("eab,qebc->qac", ext,
                               sums.reshape(M, E, d, c)).reshape(M * d, c))
        np.conjugate(fv, out=seq)                # conj f(t), t = 1..n
    return np.split(k_n @ np.concatenate(sides), 2)


def _correction_map(coef, ext, h):
    """The (d c, J) map whose column j is sum_{q,k} coef[q, k, j] ext[k]*
    h_q, for (M, E, J) coefficients, (E, d, d) blocks ext and the (M d, c)
    stack h of blocks h_q."""
    M, E, J = coef.shape
    d, c = ext.shape[-1], h.shape[-1]
    blocks = np.einsum("kba,qbc->acqk", np.conj(ext), h.reshape(M, d, c))
    return blocks.reshape(d * c, M * E) @ coef.reshape(M * E, J)


def _corrections(cmap, seq, ms):
    """The rank-correction rows at the 1-based indices ms, as (d c,
    len(ms)): the (d c, 2M + m0) map cmap times the 2M sequences at ms
    (seq, (2M, len(ms))), plus its unit columns at the heads ms <= m0."""
    out = cmap[:, :len(seq)] @ seq
    head = np.flatnonzero(ms <= cmap.shape[1] - len(seq))
    out[:, head] += cmap[:, len(seq) + ms[head] - 1]
    return out


def _residual_size(n, L):
    """(nfft, segments) of the overlap-save residual of n blocks with the
    band -L..L: the size with the least segments nfft log2 nfft, among the
    powers of two from 8 (2L + 1) up to n + 2L and the fast size that
    covers n + 2L in one segment (scipy.fft.next_fast_len)."""
    sizes = [1 << k for k in range((16 * L + 7).bit_length(),
                                   (n + 2 * L).bit_length())]
    sizes.append(scipy.fft.next_fast_len(n + 2 * L))
    nfft = min(sizes, key=lambda f: -(-n // (f - 2 * L)) * f * np.log2(f))
    return nfft, -(-n // (nfft - 2 * L))


def _residual_banded(tables, z, y, pool=None):
    """||T_n Z - Y||_F for time-last (d, r, n) Z and Y, through the gamma
    band k = -L..L (tables.gamma_band), by overlap-save, with L =
    tables.gamma_band_width(_RESIDUAL_REL ||gamma(0)||_2) capped at n - 1.
    The band is transformed once, from a contiguous (d, d, 2L + 1) layout,
    at the nfft of _residual_size; Z, padded by L zero blocks in front, is cut
    into segments of nfft points stepping by nfft - 2L, and points 2L..
    of each segment's circular convolution are the next nfft - 2L blocks
    of T_n Z (the last segment's trimmed at n). One segment that covers
    n + 2L is the common case at moderate n. The segments are padded and
    transformed _RESIDUAL_BATCH points at a time, so no padded copy of
    the whole Z is made; each lane keeps its transform, product and
    deviation in buffers it reuses from batch to batch. With a pool,
    batches of half that size go to whichever lane is free, and their
    squares are summed in batch order. That is O(n log L) work. Returns
    the value, the certified bound on the neglected band times ||Z||_F,
    and the counters residual_band, residual_nfft and residual_segments.
    """
    d, r, n = z.shape
    g0 = max(float(np.linalg.norm(tables.gamma(0), 2)), 1e-300)
    L = min(tables.gamma_band_width(_RESIDUAL_REL * g0), n - 1)
    nfft, segments = _residual_size(n, L)
    step = nfft - 2 * L
    band = np.ascontiguousarray(tables.gamma_band(L).transpose(1, 2, 0))
    # (d, d, nfft): the per-frequency products run along its last axis
    gf = np.fft.fft(band, n=nfft, axis=-1)
    # with a pool, each lane at half the batch
    batch = max(1, _RESIDUAL_BATCH // nfft // (1 if pool is None else 2))
    sq = [0.0] * -(-segments // batch)      # per batch, summed in order
    starts = itertools.count()              # the batches not yet taken

    def squares():
        """Sum the squares of the batches no lane has taken yet."""
        zf, prod, part = np.empty((3, d, r, min(batch, segments), nfft),
                                  dtype=np.complex128)
        while (k := next(starts)) < len(sq):
            i, j = k * batch, min(k * batch + batch, segments)
            lo, hi = i * step, min(j * step, n)
            # the batch's points of Z padded: Z from lo - L on, zero
            # outside 0 .. n - 1
            padded = np.zeros((d, r, (j - i) * step + 2 * L),
                              dtype=np.complex128)
            a, b = max(lo - L, 0), min(j * step + L, n)
            padded[..., a - lo + L:b - lo + L] = z[..., a:b]
            f, c = zf[..., :j - i, :], prod[..., :j - i, :]
            np.fft.fft(sliding_window_view(padded, nfft, axis=-1)
                       [..., ::step, :], axis=-1, out=f)
            # sum_b gf[:, b] zf[b], one broadcast product per term
            np.multiply(gf[:, 0, None, None], f[0], out=c)
            for e in range(1, d):
                np.multiply(gf[:, e, None, None], f[e], out=part[:, :, :j - i])
                c += part[:, :, :j - i]
            np.fft.ifft(c, axis=-1, out=c)
            # the trimmed deviation, in place: whole segments, then the
            # ragged rest of the last
            dev = c[..., 2 * L:]
            whole, rest = divmod(hi - lo, step)
            dev[..., :whole, :] -= y[..., lo:lo + whole * step].reshape(
                d, r, whole, step)
            total = _sum_squares(dev[..., :whole, :])
            if rest:
                dev[..., whole, :rest] -= y[..., hi - rest:hi]
                total += _sum_squares(dev[..., whole, :rest])
            sq[k] = total

    helper = None if pool is None else pool.submit(squares)
    squares()
    if helper is not None:
        helper.result()
    # at L = n - 1 the band holds every block of T_n
    tail = 0.0 if L == n - 1 else tables.gamma_band_tail(L)
    znorm = float(np.linalg.norm(z.reshape(-1)))
    counters = {"residual_band": L, "residual_nfft": nfft,
                "residual_segments": segments}
    return sum(sq) ** 0.5, tail * znorm, counters


def _sum_squares(x):
    """sum |x|^2 over a complex array whose last axis is contiguous,
    without a copy."""
    re = x.view(np.float64)
    return float(np.einsum("...i,...i->...", re, re).sum())


def _overlap_sample(n, m0, T, seed):
    """The sorted 0-based rows of the overlap check: whole chunks of T
    blocks, taken in an order drawn from default_rng(seed) until they
    hold at least max(8, ceil(0.05 size)) (or all) of the size = n - 2 m0
    rows s = m0 + 1 .. n - m0 that both regional formulas cover."""
    lo, hi = m0, n - m0
    count = min(hi - lo, max(8, int(np.ceil(0.05 * (hi - lo)))))
    cs = np.random.default_rng(seed).permutation(
        np.arange(lo // T, (hi - 1) // T + 1))
    held = np.cumsum(np.minimum(cs * T + T, hi) - np.maximum(cs * T, lo))
    cs = np.sort(cs[:np.searchsorted(held, count) + 1])
    rows = (cs[:, None] * T + np.arange(T)).ravel()
    return rows[(rows >= lo) & (rows < hi)]


def _two_lanes(work):
    """Whether solve runs on two lanes: the work n d r is at least
    _LANE_WORK and the process may run on two CPUs or more."""
    return work >= _LANE_WORK and len(os.sched_getaffinity(0)) >= 2


def _beside(pool, fn, *args):
    """Start fn(*args) on the pool's lane, or without a pool run it here;
    returns a callable that gives its result or raises its error."""
    if pool is None:
        out = fn(*args)
        return lambda: out
    return pool.submit(fn, *args).result


def solve(spec, n, y, tables=None, kit=None, check_overlap=True,
          seed=0, compute_residual=True):
    """Solve T_n(w) Z = Y in O(n) and return a SolveReport.

    Y is an (n, d, r) block vector with any r >= 1 columns, and Z has
    the same shape. Below n = 2 m0 + 1 the two regional assembly rows do
    not cover every index, and solve returns dense_solve's report (method
    "dense") for those few orders. Whole chunks of overlap rows, drawn
    from default_rng(seed) until they hold at least 5% of those rows (at
    least 8; see _overlap_sample), are computed by both regional formulas
    and cross-checked: OverlapMismatch if
    ||dev||_F / max(1, ||z_s||_F / sqrt(min(d, r))) exceeds 1e-9 on a
    row. Since ||z_s||_F <= sqrt(min(d, r)) ||z_s||_2 for a d x r block,
    that ratio is never below the spectral
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
        from .oracle import dense_solve     # oracle imports this module
        return dense_solve(spec, n, y, tables=tables)
    if tables is None:
        tables = CoefficientTables(spec)

    timings = {}
    tick = time.perf_counter()

    def lap(stage):
        nonlocal tick
        now = time.perf_counter()
        timings[stage] = now - tick
        tick = now

    # tilde rows cover s <= n - m0, plain rows s >= m0 + 1; of the plain
    # rows only the last m0 and the sampled overlap rows are computed
    span, T = n - m0, _chunk_blocks(m0)
    sample = (_overlap_sample(n, m0, T, seed) if check_overlap
              else np.arange(0))
    chunks = np.unique(np.r_[span:n, sample] // T)
    yt = _to_time_last(y)
    lanes = 2 if _two_lanes(n * d * r) else 1
    with (ThreadPoolExecutor(1) if lanes == 2 else nullcontext()) as pool:
        # the plain rows beside the tilde Gram, which becomes the assembled Z
        rows = (_beside(pool, _gram_rows, _factor(spec, "plain"), yt, chunks)
                if len(chunks) else lambda: None)
        z = _apply(_factor(spec, "tilde"), yt, True, pool)
        z_p = rows()
        lap("gram")
        plan = None
        if spec.K:
            if kit is None:
                kit = ClosedFormKit(spec)
            plan = kit.plan(n)
        lap("plan")

        if plan is not None:
            seq = kit.sequences(n)
            g_vec, gt_vec = _corrected_sums(kit, plan.k_n, seq[kit.M:], yt)
            c_tilde = _correction_map(plan.d_coef, kit.ext_tilde_stack,
                                      plan.ut @ gt_vec)
            # in ranges, so that no correction array the size of Z is held
            for lo in range(0, span, _RESIDUAL_BATCH):
                hi = min(lo + _RESIDUAL_BATCH, span)
                z[..., lo:hi] += _corrections(
                    c_tilde, seq[:, lo:hi], np.arange(lo + 1, hi + 1)
                ).reshape(d, r, hi - lo)
            c_plain = _correction_map(np.conj(plan.d_coef), kit.ext_stack,
                                      herm(plan.ut) @ g_vec)

        def plain_rows(idx):
            """The corrected plain-row blocks at 0-based indices idx >= m0,
            time-last as (d, r, len(idx)); row s = idx + 1 takes the
            sequences at m = n + 1 - s."""
            out = np.moveaxis(
                z_p[idx % T, ..., np.searchsorted(chunks, idx // T)], 0, -1)
            if plan is None:
                return out
            m = n - idx
            return out + _corrections(c_plain, np.conj(seq[:, m - 1]),
                                      m).reshape(d, r, -1)

        if m0:
            z[..., span:] = plain_rows(np.arange(span, n))
        lap("assembly")

        overlap_max_dev = 0.0
        if check_overlap:
            z_s = z[..., sample]
            dev = np.linalg.norm(z_s - plain_rows(sample), axis=(0, 1))
            scale = np.linalg.norm(z_s, axis=(0, 1)) / np.sqrt(min(d, r))
            overlap_max_dev = float((dev / np.maximum(1.0, scale)).max())
            if overlap_max_dev > _OVERLAP_TOL:
                raise errors.OverlapMismatch(
                    f"regional assemblies deviate by {overlap_max_dev:.3e} "
                    f"(tolerance {_OVERLAP_TOL:.1e}) on sampled rows")
        z_p = rows = seq = None     # not needed by the residual
        lap("overlap")

        counters = {"overlap_rows": len(sample), "plan_bytes": 0,
                    "gram_chunk": T, "plain_chunks": len(chunks),
                    "lanes": lanes}
        if plan is not None:
            counters["plan_bytes"] = sum(a.nbytes for a in plan
                                         if isinstance(a, np.ndarray))
        residual = tail = None
        if compute_residual:
            residual, tail, more = _residual_banded(tables, z, yt, pool)
            counters.update(more)
        lap("residual")
    return SolveReport(
        z=_from_time_last(z), method="fast", n=n, d=d,
        seconds=time.perf_counter() - t0,
        residual=residual, residual_tail_bound=tail,
        residual_is_approximate=True,
        spectral_radius=None if plan is None else plan.spectral_radius,
        resolvent_cond=None if plan is None else plan.resolvent_cond,
        overlap_checked=len(sample),
        overlap_max_dev=overlap_max_dev,
        timings=timings,
        counters=counters,
    )
