import multiprocessing
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from blocktoeplitz import errors, fast_solver
from blocktoeplitz.closed_form import ClosedFormKit
from blocktoeplitz.coefficients import CoefficientTables
from blocktoeplitz.fast_solver import (apply_A, apply_A_adjoint,
                                       apply_A_gram, apply_Q,
                                       apply_Q_adjoint, solve)
from blocktoeplitz.blockarray import (gram, lower_block_toeplitz,
                                      upper_block_toeplitz)
from blocktoeplitz.oracle import dense_solve
from blocktoeplitz.synth import random_spec, scalar_ar, scalar_single_pole
from blocktoeplitz.util import binom

from helpers import (dense_toeplitz_matrix, mult3_spec, random_rhs,
                     warm_d3_spec)


def dense_q(spec, mu, j, n):
    p = spec.poles[mu]
    q = np.zeros((n, n), dtype=complex)
    for s in range(n):
        for t in range(s, n):
            q[s, t] = binom(t - s + j - 1, j - 1) * p ** (t - s)
    return q


def test_apply_q_single_block(ex52):
    y = np.array([[[2.0 + 1.0j]]])
    zs = apply_Q(ex52, 0, 1, y)
    np.testing.assert_allclose(zs[0], y)
    ws = apply_Q_adjoint(ex52, 0, 1, y)
    np.testing.assert_allclose(ws[0], y)


def test_apply_q_unit_vector(ex52):
    # Q e_1 keeps e_1: the first row of Q acts on (1, 0, 0)
    y = np.zeros((3, 1, 1), dtype=complex)
    y[0] = 1.0
    z = apply_Q(ex52, 0, 3, y)[0]
    np.testing.assert_allclose(z[:, 0, 0], [1.0, 0.0, 0.0])
    # Q* e_3 = (0, 0, 1): last column of the lower factor
    y = np.zeros((3, 1, 1), dtype=complex)
    y[2] = 1.0
    w = apply_Q_adjoint(ex52, 0, 3, y)[0]
    np.testing.assert_allclose(w[:, 0, 0], [0.0, 0.0, 1.0])


@pytest.mark.parametrize("mults, n", [
    pytest.param((2,), 4, id="m2_n4"),
    # one block past one and past two chunks of the triangular apply
    pytest.param((2,), 17, id="m2_n17"),
    pytest.param((2,), 33, id="m2_n33"),
    pytest.param((3,), 33, id="m3_n33"),
])
def test_apply_q_dense_oracle(mults, n):
    spec = random_spec(d=1, K=1, mults=mults, m0=0,
                       rng=np.random.default_rng(5))
    y = random_rhs(n, 1, seed=7)
    zs = apply_Q(spec, 0, n, y)
    ws = apply_Q_adjoint(spec, 0, n, y)
    assert len(zs) == len(ws) == mults[0]
    for j in range(1, mults[0] + 1):
        q = dense_q(spec, 0, j, n)
        np.testing.assert_allclose(zs[j - 1][:, 0, 0], q @ y[:, 0, 0],
                                   atol=1e-12)
        np.testing.assert_allclose(ws[j - 1][:, 0, 0],
                                   q.conj().T @ y[:, 0, 0], atol=1e-12)


def test_q_adjoint_inner_product(sweep_specs):
    spec = sweep_specs["d2_k1m2"]
    n = 16
    y1 = random_rhs(n, spec.d, seed=1)
    y2 = random_rhs(n, spec.d, seed=2)
    z = apply_Q(spec, 0, n, y1)[1]
    w = apply_Q_adjoint(spec, 0, n, y2)[1]
    lhs = np.vdot(y2.ravel(), z.ravel())
    rhs = np.vdot(w.ravel(), y1.ravel())
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_apply_a_example_matrix(ex52, ex52_tables):
    # A~_2 = conj(rho) [[1, p], [0, 1]] for the single-pole symbol
    y = random_rhs(2, 1, seed=3)
    at = np.array([[1.0, 0.5], [0.0, 1.0]])
    want = (at @ y[:, 0, 0])
    got = apply_A(ex52, 2, y, "tilde")[:, 0, 0]
    np.testing.assert_allclose(got, want, atol=1e-14)
    gram_want = at.conj().T @ at @ y[:, 0, 0]
    gram_got = apply_A_gram(ex52, 2, y, "tilde")[:, 0, 0]
    np.testing.assert_allclose(gram_got, gram_want, atol=1e-14)


def test_gram_identity(ident2):
    y = random_rhs(5, 2, seed=4)
    for variant in ("tilde", "plain"):
        np.testing.assert_allclose(apply_A_gram(ident2, 5, y, variant), y,
                                   atol=1e-14)


T = fast_solver._CHUNK

APPLY_SPECS = {
    "warm_d3": warm_d3_spec,
    "mult3": mult3_spec,
    "pole099": lambda: scalar_single_pole(0.99),
    "m0_3": lambda: random_spec(d=2, K=2, mults=(1, 2), m0=3,
                                rng=np.random.default_rng(32)),
}


@pytest.mark.parametrize("name, n, width", [
    *(pytest.param(name, 64, None, id=name) for name in
      ("d1_k1m2_p1", "d2_k2m12", "d3_k1m2", "d2_ar2")),
    # n <= m0 + 1 cuts the band of the first chunk
    *(pytest.param("warm_d3", n, None, id=f"warm_d3_n{n}")
      for n in (1, 2, 3, 64)),
    # a ragged, an exact and a one-over last chunk, and several chunks
    # with the halo and the carried slot states at every boundary
    *(pytest.param("warm_d3", n, None, id=f"warm_d3_n{n}")
      for n in (T - 1, T, T + 1, 4 * T + 3)),
    pytest.param("warm_d3", 4 * T + 3, 1, id="warm_d3_r1"),
    *(pytest.param(name, 4 * T + 3, None, id=name)
      for name in ("mult3", "pole099", "m0_3")),
])
def test_gram_dense_oracle(sweep_specs, sweep_tables, name, n, width):
    # apply_A, apply_A_adjoint and both Gram variants against the dense
    # triangles, on an (n, d, width) Y
    if name in APPLY_SPECS:
        spec = APPLY_SPECS[name]()
        tab = CoefficientTables(spec)
    else:
        spec, tab = sweep_specs[name], sweep_tables[name]
    d = spec.d
    r = width or d
    y = random_rhs(n, d, seed=8)[:, :, :r]
    a_up = upper_block_toeplitz([tab.a_tilde(k) for k in range(n)], n, d)
    a_lo = lower_block_toeplitz([tab.a(k) for k in range(n)], n, d)
    tall = y.reshape(n * d, r)
    want_t = (gram(a_up).data @ tall).reshape(n, d, r)
    want_p = (gram(a_lo).data @ tall).reshape(n, d, r)
    if n < spec.m0 + 1:
        with pytest.raises(errors.DomainViolation):
            apply_A_gram(spec, n, y, "tilde")
    else:
        assert np.abs(apply_A_gram(spec, n, y, "tilde")
                      - want_t).max() <= 1e-10
        assert np.abs(apply_A_gram(spec, n, y, "plain")
                      - want_p).max() <= 1e-10
    for variant, a in (("tilde", a_up), ("plain", a_lo)):
        want = (a.data @ tall).reshape(n, d, r)
        want_adj = (a.data.conj().T @ tall).reshape(n, d, r)
        assert np.abs(apply_A(spec, n, y, variant) - want).max() <= 1e-10
        assert np.abs(apply_A_adjoint(spec, n, y, variant)
                      - want_adj).max() <= 1e-10


@pytest.mark.parametrize("chunks", [1, 3])
@pytest.mark.parametrize("name, width", [
    ("warm_d3", None), ("warm_d3", 1), ("m0_3", None), ("mult3", None),
    ("ar2", None)])
def test_ranges_dense_oracle(monkeypatch, name, width, chunks):
    # ranges of 1 and 3 chunks: the halos and states across ranges, the
    # extra chunk of the first apply of a Gram, the ragged last chunk
    spec = (APPLY_SPECS[name]() if name in APPLY_SPECS else
            random_spec(d=2, K=0, mults=(), m0=2,
                        rng=np.random.default_rng(33)))
    tab = CoefficientTables(spec)
    d, m0 = spec.d, spec.m0
    S = sum(spec.mults)
    P = m0 + T + S
    r = width or d
    monkeypatch.setattr(fast_solver, "_RANGE_BYTES",
                        chunks * 2 * P * d * r * 16)
    n = 7 * T + 5
    y = random_rhs(n, d, seed=35)[:, :, :r]
    tall = y.reshape(n * d, r)
    for variant, tri, coef in (
            ("tilde", upper_block_toeplitz, tab.a_tilde),
            ("plain", lower_block_toeplitz, tab.a)):
        a = tri([coef(k) for k in range(n)], n, d).data
        for got, want in ((apply_A(spec, n, y, variant), a @ tall),
                          (apply_A_adjoint(spec, n, y, variant),
                           a.conj().T @ tall),
                          (apply_A_gram(spec, n, y, variant),
                           a.conj().T @ (a @ tall))):
            want = want.reshape(n, d, r)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("variant", ["tilde", "plain"])
def test_gram_memory_bound(variant):
    # the Gram holds its output, the slot states of both applies (S / T
    # of Y each) and one workspace of two chunk stacks for a range of
    # chunks, never a stack or an output of the whole Y per apply
    spec = warm_d3_spec()
    for n in (4096, 1 << 16):
        y = random_rhs(n, spec.d, seed=30)
        apply_A_gram(spec, n, y, variant)
        tracemalloc.start()
        try:
            apply_A_gram(spec, n, y, variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * y.nbytes + fast_solver._RANGE_BYTES, n


@pytest.mark.parametrize("backwards", [False, True])
def test_carry_states_vs_recurrence(backwards):
    # mults (3, 1): a pole of multiplicity 3, whose slot i takes the
    # states of its slots i' < i, and a simple pole; each chunk's state
    # is carry @ (the state before) + the sums of the chunk before, in
    # scan order, from zero
    rng = np.random.default_rng(42)
    S, nc = 4, 9
    carry = np.zeros((S, S), dtype=complex)
    carry[:3, :3] = np.tril(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
    carry[3, 3] = 0.6 - 0.5j
    sums = rng.standard_normal((S, 2, 3, nc)) + 1j * rng.standard_normal(
        (S, 2, 3, nc))
    want = np.zeros_like(sums)
    state = np.zeros((S, 2, 3), dtype=complex)
    for c in (range(nc - 1, -1, -1) if backwards else range(nc)):
        want[..., c] = state
        state = np.tensordot(carry, state, 1) + sums[..., c]
    got = sums.copy()
    fast_solver._carry_states(got[..., ::-1] if backwards else got,
                              (3, 1), carry)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("fn", [
    apply_A, apply_A_adjoint, apply_A_gram,
    lambda spec, n, y: apply_Q(spec, 0, n, y),
    lambda spec, n, y: apply_Q_adjoint(spec, 0, n, y),
], ids=["A", "A_adjoint", "A_gram", "Q", "Q_adjoint"])
def test_apply_short_y_raises(ex52, fn):
    # fewer than n blocks is an error, as in solve, not a shorter result
    with pytest.raises(ValueError, match="Y has 50 blocks, need 100"):
        fn(ex52, 100, np.ones((50, 1, 1)))


def _solve_chunks(n, m0, seed=0):
    """The chunks whose plain rows solve computes: those of the last m0
    rows and the sampled overlap chunks."""
    T = fast_solver._chunk_blocks(m0)
    sample = fast_solver._overlap_sample(n, m0, T, seed)
    return np.unique(np.r_[n - m0:n, sample] // T)


@pytest.mark.parametrize("name, n, width", [
    # m0 = 3 with n % T in {1, 2}: the last m0 rows span two chunks
    *(pytest.param("m0_3", 4 * T + k, w, id=f"m0_3_n{4 * T + k}_r{w}")
      for k in (1, 2) for w in (1, 2)),
    # n = 2 m0 + 1, and n < 2 T with a ragged second chunk
    pytest.param("m0_3", 7, None, id="m0_3_n7"),
    pytest.param("warm_d3", 5, None, id="warm_d3_n5"),
    pytest.param("warm_d3", T + 5, 1, id="warm_d3_n21_r1"),
    pytest.param("warm_d3", 6 * T, None, id="warm_d3_n96"),
    pytest.param("mult3", 5 * T + 3, None, id="mult3"),
    pytest.param("pole099", 5 * T + 3, None, id="pole099"),
    pytest.param("ar2", 3 * T + 1, None, id="ar2"),
])
def test_gram_rows_vs_gram(name, n, width):
    # the plain rows on chunk 0, a middle chunk, the last chunk and those
    # of the last m0 rows against the full plain Gram; zero past n
    spec = (APPLY_SPECS[name]() if name in APPLY_SPECS else
            random_spec(d=2, K=0, mults=(), m0=2,
                        rng=np.random.default_rng(33)))
    d, m0 = spec.d, spec.m0
    y = fast_solver._to_time_last(
        random_rhs(n, d, seed=34)[:, :, :width or d])
    op = fast_solver._factor(spec, "plain")
    nc = -(-n // T)
    chunks = np.unique(np.r_[0, nc // 2, nc - 1, np.arange(n - m0, n) // T])
    want = np.zeros((d, y.shape[1], nc * T), dtype=complex)
    want[..., :n] = fast_solver._apply(op, y, True)
    got = fast_solver._gram_rows(op, y, chunks)
    assert got.shape == (T, d, y.shape[1], len(chunks))
    rows = chunks * T + np.arange(T)[:, None]       # (T, len(chunks))
    got = got.transpose(1, 2, 0, 3)                  # (d, r, T, chunks)
    assert np.abs(got - want[..., rows]).max() <= 1e-14 * np.abs(want).max()
    assert np.all(got[..., rows >= n] == 0)


def test_gram_rows_memory_bound():
    # the plain rows solve reads, on warm_d3 at n = 4096: the end sums
    # and states are S / T of Y each, the chunk stacks a few chunks
    spec = warm_d3_spec()
    n = 4096
    y = fast_solver._to_time_last(random_rhs(n, spec.d, seed=30))
    op = fast_solver._factor(spec, "plain")
    chunks = _solve_chunks(n, spec.m0)
    fast_solver._gram_rows(op, y, chunks)
    tracemalloc.start()
    try:
        fast_solver._gram_rows(op, y, chunks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * y.nbytes


@pytest.mark.parametrize("n, m0", [(4096, 2), (48, 1), (7, 3), (300, 0)])
def test_overlap_sample_is_whole_chunks(n, m0):
    # at least max(8, ceil(5%)) of the rows m0 + 1 .. n - m0 (1-based),
    # in whole chunks clipped to that range, fewer than T rows beyond
    # the count, and drawn from the seed
    T = fast_solver._chunk_blocks(m0)
    size = n - 2 * m0
    count = min(size, max(8, int(np.ceil(0.05 * size))))
    rows = fast_solver._overlap_sample(n, m0, T, seed=5)
    assert np.all(np.diff(rows) > 0)
    assert rows.min() >= m0 and rows.max() <= n - m0 - 1
    assert count <= len(rows) < count + T
    whole = (np.unique(rows // T)[:, None] * T + np.arange(T)).ravel()
    assert np.array_equal(rows, whole[(whole >= m0) & (whole < n - m0)])
    again = fast_solver._overlap_sample(n, m0, T, seed=5)
    assert np.array_equal(rows, again)
    if size > 4 * T:
        other = fast_solver._overlap_sample(n, m0, T, seed=6)
        assert not np.array_equal(rows, other)


def test_solve_identity(ident2):
    y = random_rhs(6, 2, seed=5)
    rep = solve(ident2, 6, y)
    np.testing.assert_allclose(rep.z, y, atol=1e-13)


def test_solve_golden_column(ex52, ex52_tables):
    y = np.zeros((2, 1, 1), dtype=complex)
    y[0] = 1.0
    rep = solve(ex52, 2, y, tables=ex52_tables)
    np.testing.assert_allclose(
        rep.z[:, 0, 0], [1.25 / 1.3125, 0.5 / 1.3125], atol=1e-12)
    assert rep.overlap_checked > 0


@pytest.mark.parametrize("name, n", [
    *(pytest.param(name, 48, id=name) for name in
      ("d1_k2m21", "d2_k2m12", "d3_k2m11", "d2_ar2", "d2_k1m2_p2")),
    # radius of G~G is 0.95^(2n+2): the resolvents of K_n at work
    *(pytest.param("pole095", n, id=f"pole095_n{n}") for n in (1, 2, 4, 8)),
])
def test_solve_dense_oracle(sweep_specs, sweep_tables, name, n):
    if name == "pole095":
        spec = scalar_single_pole(0.95)
        tab = CoefficientTables(spec)
    else:
        spec, tab = sweep_specs[name], sweep_tables[name]
    y = random_rhs(n, spec.d, seed=11)
    dense = np.linalg.solve(dense_toeplitz_matrix(tab, n, spec.d),
                            y.reshape(n * spec.d, spec.d))
    rep = solve(spec, n, y, tables=tab)
    rel = np.abs(rep.z.reshape(-1, spec.d) - dense).max() / \
        np.abs(dense).max()
    assert rel <= 1e-10
    assert rep.residual <= 1e-8
    if name == "pole095" and n <= 4:
        assert rep.spectral_radius >= 0.3


def test_solve_any_rhs_width():
    # r = 1 is the first column of the r = d solve; r = 2 < d matches dense
    spec = warm_d3_spec()
    tab = CoefficientTables(spec)
    n = 64
    y = random_rhs(n, spec.d, seed=22)
    square = solve(spec, n, y, tables=tab).z
    one = solve(spec, n, y[:, :, :1], tables=tab)
    assert one.z.shape == (n, 3, 1)
    assert np.abs(one.z - square[:, :, :1]).max() <= 1e-14 * np.abs(
        square).max()
    two = solve(spec, n, y[:, :, 1:], tables=tab)
    dense = dense_solve(spec, n, y[:, :, 1:], tables=tab)
    assert two.z.shape == dense.z.shape == (n, 3, 2)
    assert np.abs(two.z - dense.z).max() <= 1e-10 * np.abs(dense.z).max()
    assert two.residual <= 1e-8 and two.overlap_checked > 0
    for fn in (apply_A, apply_A_adjoint, apply_A_gram):
        assert fn(spec, n, y[:, :, 1:]).shape == (n, 3, 2)
    assert [q.shape for q in apply_Q(spec, 1, n, y[:, :, :1])] == \
        [(n, 3, 1)] * 2


@pytest.mark.parametrize("n, nfft, segments", [
    (500, 616, 1), (1820, 1024, 2), (2700, 1024, 3)],
    ids=["500-1", "1820-2", "2700-3"])
def test_overlap_save_residual_vs_dense(n, nfft, segments):
    # AR(1) with phi = 0.45 has L = 54. At n = 500 one transform of
    # next_fast_len(n + 2L) = 616 points costs least; at 1820 and 2700
    # segments of 1024 points, stepping 916 blocks, cost less than one
    # transform of 1936 or 2816 points, and the last segment is ragged
    tab = CoefficientTables(scalar_ar([0.45]))
    rng = np.random.default_rng(n)
    z, y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for _ in range(2))
    resid, tail, counters = fast_solver._residual_banded(
        tab, z.reshape(1, 1, n), y.reshape(1, 1, n))
    assert counters == {"residual_band": 54, "residual_nfft": nfft,
                        "residual_segments": segments}
    dense = np.linalg.norm(dense_toeplitz_matrix(tab, n, 1) @ z - y)
    assert abs(resid - dense) <= 1e-12 * dense
    assert tail <= 1e-12 * np.linalg.norm(z)


def test_overlap_save_residual_vs_dense_blocks():
    # d = 3, r = 2: the per-frequency block products against T_n Z summed
    # over every lag of T_n. The warm d = 3 shape has L = 81; at
    # n = 3700 two segments of 2048 points, stepping 1886 blocks, cost
    # less than one transform of 3872, and the last segment is ragged
    # (1814 blocks)
    spec = warm_d3_spec()
    tab = CoefficientTables(spec)
    n = 3700
    rng = np.random.default_rng(24)
    # held as (d, n, r), so that one lag of T_n is one gemm
    z, y = (rng.standard_normal((3, n, 2))
            + 1j * rng.standard_normal((3, n, 2)) for _ in range(2))
    resid, tail, counters = fast_solver._residual_banded(
        tab, z.transpose(0, 2, 1), y.transpose(0, 2, 1))
    assert counters == {"residual_band": 81, "residual_nfft": 2048,
                        "residual_segments": 2}
    tz = -y
    for k in range(1 - n, n):
        lo, hi = max(k, 0), n + min(k, 0)
        tz[:, lo:hi] += (tab.gamma(k) @ z[:, lo - k:hi - k].reshape(3, -1)
                         ).reshape(3, -1, 2)
    dense = np.linalg.norm(tz)
    assert abs(resid - dense) <= 1e-12 * dense
    # the least band whose tail is within 1e-12 of ||gamma(0)||_2 (about 2)
    assert tail <= 1e-12 * np.linalg.norm(tab.gamma(0), 2) * np.linalg.norm(z)


# the benchmark's specs (perfbench/workloads.py): the nine cold-fit
# shapes (d, K, mults, m0), each drawn with default_rng([1, k]), at
# n = 4096, and the three warm-stream specs at 65536
COLD_FIT_SHAPES = (
    (1, 0, (), 1), (1, 1, (2,), 0), (1, 2, (1, 2), 2),
    (2, 0, (), 2), (2, 1, (1,), 1), (2, 2, (2, 1), 0),
    (3, 0, (), 1), (3, 1, (2,), 2), (3, 2, (1, 1), 1),
)


def bench_specs():
    cold = [(random_spec(d=d, K=K, mults=mults, m0=m0,
                         rng=np.random.default_rng([1, k])), 4096)
            for k, (d, K, mults, m0) in enumerate(COLD_FIT_SHAPES)]
    rng = np.random.default_rng(0)
    warm = [scalar_single_pole(p=0.5, rho=1.0),
            random_spec(d=2, K=2, mults=(1, 2), m0=1, rng=rng),
            random_spec(d=3, K=2, mults=(2, 2), m0=2, rng=rng)]
    return cold + [(spec, 65536) for spec in warm]


def test_residual_size_never_costs_more():
    # segments nfft log2 nfft of the chosen size is at most that of the
    # power of two the band alone sets, 2^ceil(log2 min(8 (2L + 1),
    # n + 2L + 1)); every cold-fit shape takes one transform, and the
    # warm specs keep 512, 2048 and 1024 points
    def cost(nfft, segments):
        return segments * nfft * np.log2(nfft)

    sizes = []
    for spec, n in bench_specs():
        tab = CoefficientTables(spec)
        g0 = float(np.linalg.norm(tab.gamma(0), 2))
        L = min(tab.gamma_band_width(1e-12 * g0), n - 1)
        nfft, segments = fast_solver._residual_size(n, L)
        old = 1 << int(np.ceil(np.log2(min(8 * (2 * L + 1), n + 2 * L + 1))))
        assert cost(nfft, segments) <= cost(old, -(-n // (old - 2 * L)))
        sizes.append((nfft, segments))
    assert all(segments == 1 for _, segments in sizes[:9])
    assert [nfft for nfft, _ in sizes[9:]] == [512, 2048, 1024]


def test_residual_transform_independent_of_n(ex52, ex52_tables):
    # overlap-save: the transform size is set by the band, not by n
    reps = [solve(ex52, n, random_rhs(n, 1, seed=n), tables=ex52_tables)
            for n in (1 << 12, 1 << 15)]
    assert reps[0].counters["residual_nfft"] == \
        reps[1].counters["residual_nfft"] == 512
    assert reps[1].counters["residual_segments"] > \
        reps[0].counters["residual_segments"]


def test_solve_large_n_vs_dense():
    spec = random_spec(d=2, K=2, mults=(1, 2), m0=1,
                       rng=np.random.default_rng(11))
    from blocktoeplitz.coefficients import CoefficientTables
    tab = CoefficientTables(spec)
    n = 512
    y = random_rhs(n, 2, seed=12)
    dense = np.linalg.solve(dense_toeplitz_matrix(tab, n, 2),
                            y.reshape(n * 2, 2))
    rep = solve(spec, n, y, tables=tab)
    rel = np.linalg.norm(rep.z.reshape(-1, 2) - dense) / \
        np.linalg.norm(dense)
    assert rel <= 1e-8


def test_solve_linearity(sweep_specs, sweep_tables):
    spec = sweep_specs["d2_k2m11"]
    tab = sweep_tables["d2_k2m11"]
    n = 24
    y1 = random_rhs(n, 2, seed=13)
    y2 = random_rhs(n, 2, seed=14)
    a, b = 1.3 - 0.2j, -0.7 + 0.5j
    z1 = solve(spec, n, y1, tables=tab, compute_residual=False).z
    z2 = solve(spec, n, y2, tables=tab, compute_residual=False).z
    z12 = solve(spec, n, a * y1 + b * y2, tables=tab,
                compute_residual=False).z
    assert np.abs(z12 - (a * z1 + b * z2)).max() <= 1e-10 * max(
        1.0, np.abs(z12).max())


@pytest.mark.parametrize("m0", [1, 2, 3])
def test_solve_below_2m0_plus_1_is_dense(m0):
    # below n = 2 m0 + 1 the two regional assembly rows leave a gap, so
    # solve returns the dense solve; from 2 m0 + 1 on it is fast
    spec = random_spec(d=2, K=1, mults=(2,), m0=m0,
                       rng=np.random.default_rng(15 + m0))
    tab = CoefficientTables(spec)
    for n in range(1, 2 * m0 + 2):
        y = random_rhs(n, spec.d, seed=16 + n)
        rep = solve(spec, n, y, tables=tab)
        assert rep.method == ("dense" if n <= 2 * m0 else "fast"), n
        dense = np.linalg.solve(dense_toeplitz_matrix(tab, n, spec.d),
                                y.reshape(n * spec.d, spec.d))
        rel = np.abs(rep.z.reshape(-1, spec.d) - dense).max() / \
            np.abs(dense).max()
        assert rel <= 1e-10, n


def test_solve_at_minimal_order(sweep_specs, sweep_tables):
    # n = 2 m0 + 1 exactly: the two assembly rows overlap on one index
    spec = sweep_specs["d2_k1m2_p2"]    # m0 = 2
    tab = sweep_tables["d2_k1m2_p2"]
    n = 2 * spec.m0 + 1
    y = random_rhs(n, spec.d, seed=18)
    dense = np.linalg.solve(dense_toeplitz_matrix(tab, n, spec.d),
                            y.reshape(n * spec.d, spec.d))
    rep = solve(spec, n, y, tables=tab)
    rel = np.abs(rep.z.reshape(-1, spec.d) - dense).max() / \
        np.abs(dense).max()
    assert rel <= 1e-10


def test_report_fields(ex52):
    y = random_rhs(8, 1, seed=17)
    rep = solve(ex52, 8, y)
    assert rep.method == "fast"
    assert rep.n == 8 and rep.d == 1
    assert rep.seconds > 0
    assert rep.residual is not None and rep.residual_is_approximate
    # the band holds all of T_8, so nothing is neglected
    assert rep.residual_tail_bound == 0
    assert 0 <= rep.spectral_radius < 1
    assert rep.resolvent_cond >= 1
    assert set(rep.timings) == {"plan", "gram", "assembly", "overlap",
                                "residual"}
    assert min(rep.timings.values()) >= 0
    assert sum(rep.timings.values()) <= rep.seconds
    plan = rep.counters.pop("plan_bytes")
    assert plan > 0 and rep.counters == {
        "overlap_rows": rep.overlap_checked, "gram_chunk": fast_solver._CHUNK,
        "plain_chunks": 1, "lanes": 1, "residual_band": 7,
        "residual_nfft": 22, "residual_segments": 1}


def test_solves_leave_the_kit_unchanged(sweep_specs, sweep_tables):
    # the kit holds no per-order state: solves at several orders replace
    # none of its attributes, and a used kit solves as a fresh one does
    spec = sweep_specs["d2_k2m12"]
    tab = sweep_tables["d2_k2m12"]
    kit = ClosedFormKit(spec)
    state = dict(vars(kit))
    y = random_rhs(48, spec.d, seed=19)
    for n in (40, 48):
        solve(spec, n, y, tables=tab, kit=kit)
    warm = solve(spec, 48, y, tables=tab, kit=kit)
    assert vars(kit).keys() == state.keys()
    assert all(vars(kit)[k] is v for k, v in state.items())
    fresh = solve(spec, 48, y, tables=tab, kit=ClosedFormKit(spec))
    np.testing.assert_array_equal(warm.z, fresh.z)


@pytest.mark.parametrize("make", [
    pytest.param(warm_d3_spec, id="warm_d3"),     # mults (2, 2), m0 = 2
    pytest.param(mult3_spec, id="mult3"),
])
def test_plan_coefficients_give_the_vector_blocks(make):
    # kit.v_coef and plan.d_coef on the generated sequences and the m0
    # unit rows, contracted with the ext stacks, are the blocks of v_m,
    # v~_m and of diag(p^{n-m}) (hat-w - hat-v)_m and its tilde partner,
    # m = 1..n
    spec = make()
    kit = ClosedFormKit(spec)
    n, m0, M = 40, spec.m0, kit.M
    plan = kit.plan(n)
    ms = np.arange(1, n + 1)
    seq = kit.sequences(n)
    units = np.eye(m0, n)
    v = kit.vectors("v", ms)
    v_hat = kit.vectors("v", ms, scaled=True)
    w_hat = kit.vectors("w", ms, scaled=True)
    pw = np.repeat(kit.pole_of_slot ** (n - ms[:, None]), spec.d,
                   axis=1)[:, :, None]
    for side, ext in enumerate((kit.ext_stack, kit.ext_tilde_stack)):
        conj = np.conj if side else np.asarray
        for coef, rows, want in (
                (kit.v_coef, np.concatenate([seq[M:], units]), v[side]),
                (plan.d_coef, np.concatenate([seq, units]),
                 conj(pw) * (w_hat[side] - v_hat[side]))):
            scal = np.einsum("qej,jm->mqe", conj(coef), conj(rows))
            got = np.einsum("mqe,eab->mqab", scal, ext)
            np.testing.assert_allclose(got.reshape(want.shape), want,
                                       rtol=1e-12, atol=1e-14)


def test_plan_bytes_do_not_depend_on_n():
    # the plan keeps coefficient arrays of fixed size, no O(n) scalars
    for d in (1, 3):
        spec = random_spec(d=d, K=2, mults=(2, 2), m0=2,
                           rng=np.random.default_rng(d))
        tab = CoefficientTables(spec)
        size = {n: solve(spec, n, random_rhs(n, d, seed=d), tables=tab,
                         compute_residual=False).counters["plan_bytes"]
                for n in (64, 4096)}
        assert size[64] == size[4096] > 0, d


def test_plan_build_memory_does_not_depend_on_n():
    spec = warm_d3_spec()
    peak = {}
    for n in (4096, 65536):
        kit = ClosedFormKit(spec)
        tracemalloc.start()
        kit.plan(n)
        peak[n] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert abs(peak[65536] - peak[4096]) <= 0.1 * peak[4096]


def test_singular_resolvent_raises_on_every_call(sweep_specs):
    spec = sweep_specs["d2_k2m12"]
    kit = ClosedFormKit(spec)
    kit.theta_mat = 1e3 * kit.theta_mat     # radius 4e-5 -> 36 at n = 4
    n = 4
    assert kit.spectral_radius(n) >= 1
    y = random_rhs(n, spec.d, seed=20)
    for _ in range(2):
        with pytest.raises(errors.ResolventSingular):
            solve(spec, n, y, kit=kit)


def lanes(monkeypatch, count):
    """Force solve onto one or two lanes."""
    monkeypatch.setattr(fast_solver, "_two_lanes", lambda work: count == 2)


@pytest.mark.parametrize("fails", [False, True])
def test_overlap_mismatch_raises(sweep_specs, sweep_tables, monkeypatch,
                                 fails):
    # delta I on every plain row: its spectral norm is delta, so delta
    # is twice the 1e-9 tolerance times the largest max(1, ||z_s||_2);
    # on two lanes the perturbed rows come from the second lane
    spec, tab = sweep_specs["d2_k2m12"], sweep_tables["d2_k2m12"]
    n = 48
    y = random_rhs(n, spec.d, seed=21)
    z = solve(spec, n, y, tables=tab).z
    delta = 0.0
    if fails:
        delta = 2e-9 * max(1.0, np.linalg.norm(z, 2, axis=(-2, -1)).max())
    rows = fast_solver._gram_rows

    def perturbed(op, y, chunks):
        # every plain row it returns, in chunk form (T, d, r, chunks)
        return rows(op, y, chunks) + delta * np.eye(spec.d)[..., None]

    monkeypatch.setattr(fast_solver, "_gram_rows", perturbed)
    for count in (1, 2):
        lanes(monkeypatch, count)
        if fails:
            with pytest.raises(errors.OverlapMismatch):
                solve(spec, n, y, tables=tab)
        else:
            rep = solve(spec, n, y, tables=tab)
            assert rep.counters["lanes"] == count
            assert rep.overlap_max_dev <= 1e-12


@pytest.mark.parametrize("frac", [0.9, 1.1])
def test_overlap_scale_of_one_column(sweep_specs, sweep_tables, monkeypatch,
                                     frac):
    # r = 1: a d x 1 block has ||z_s||_F = ||z_s||_2, so the check scales
    # by ||z_s||_F / sqrt(min(d, r)) = ||z_s||_2 and trips at exactly the
    # tolerance times max(1, ||z_s||_2); Y is scaled so that ||z_s|| > 2
    spec, tab = sweep_specs["d2_k2m12"], sweep_tables["d2_k2m12"]
    n = 48
    y = 100 * random_rhs(n, spec.d, seed=23)[:, :, :1]
    norms = np.linalg.norm(solve(spec, n, y, tables=tab).z[:, :, 0], axis=1)
    assert norms[spec.m0:n - spec.m0].min() > 2
    rows = fast_solver._gram_rows

    def perturbed(op, y, chunks):
        # the plain rows of the chunks, in chunk form (T, d, r, chunks)
        out = rows(op, y, chunks)
        out[:, 0, 0] += frac * 1e-9 * norms[chunks * T + np.arange(T)[:, None]]
        return out

    monkeypatch.setattr(fast_solver, "_gram_rows", perturbed)
    if frac > 1:
        with pytest.raises(errors.OverlapMismatch):
            solve(spec, n, y, tables=tab)
    else:
        dev = solve(spec, n, y, tables=tab).overlap_max_dev
        assert 0.89e-9 <= dev <= 0.91e-9


@pytest.mark.parametrize("name, n, width", [
    pytest.param("warm_d3", 9000, None, id="warm_d3"),
    pytest.param("warm_d3", 9000, 1, id="warm_d3_r1"),
    pytest.param("mult3", 11000, None, id="mult3"),
    pytest.param("m0_3", 9000 + 2, None, id="m0_3_ragged"),
    pytest.param("m0_3", 9000 + 2, 1, id="m0_3_ragged_r1"),
    pytest.param("pole099", 8001, None, id="pole099"),
])
def test_two_lanes_bit_identical(monkeypatch, name, n, width):
    # the second lane runs the same arithmetic on the plain rows and on
    # its half of the residual segments: Z is the same to the bit, the
    # residual the same up to the order of the two lanes' sums. Each n
    # is the size at which the residual has more segments than one
    # lane's batch (5 of 2048 points for warm_d3 and m0_3, 3 of 4096 for
    # mult3, 17 of 512 for pole099), so both lanes take batches
    spec = APPLY_SPECS[name]()
    tab = CoefficientTables(spec)
    y = random_rhs(n, spec.d, seed=36)[:, :, :width or spec.d]
    where = []
    rows = fast_solver._gram_rows

    def traced(*args):
        where.append(threading.current_thread() is threading.main_thread())
        return rows(*args)

    monkeypatch.setattr(fast_solver, "_gram_rows", traced)
    reps = {}
    for count in (1, 2):
        lanes(monkeypatch, count)
        reps[count] = solve(spec, n, y, tables=tab)
        assert reps[count].counters.pop("lanes") == count
    assert where == [True, False]
    assert np.array_equal(reps[1].z, reps[2].z)
    assert reps[1].counters == reps[2].counters
    assert reps[1].counters["residual_segments"] >= 2
    assert abs(reps[2].residual - reps[1].residual) <= 1e-13 * reps[1].residual


def test_two_lanes_leave_no_thread(monkeypatch):
    # the second lane lives for one solve, whether it returns or raises,
    # and an error in it leaves solve as itself
    lanes(monkeypatch, 2)
    spec = warm_d3_spec()
    y = random_rhs(200, spec.d, seed=37)
    before = threading.active_count()
    solve(spec, 200, y)
    assert threading.active_count() == before

    def broken(op, y, chunks):
        raise errors.DomainViolation("in the second lane")

    monkeypatch.setattr(fast_solver, "_gram_rows", broken)
    with pytest.raises(errors.DomainViolation, match="second lane"):
        solve(spec, 200, y)
    assert threading.active_count() == before


def test_fork_after_two_lane_solve(monkeypatch):
    # no lane outlives a solve, so a forked child solves on two lanes too
    lanes(monkeypatch, 2)
    spec = warm_d3_spec()
    y = random_rhs(300, spec.d, seed=38)
    want = solve(spec, 300, y).z

    def child():
        assert np.array_equal(solve(spec, 300, y).z, want)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    if proc.is_alive():
        proc.kill()
        proc.join()
    assert proc.exitcode == 0


def test_two_lane_solve_memory_bound(monkeypatch):
    # the plain rows beside the range-blocked tilde Gram and the residual
    # at half the batch per lane: a warm two-lane solve at 2^16 peaks no
    # higher than a one-lane solve did with the Gram that held a whole
    # stack and output per apply, 4.38 Y
    lanes(monkeypatch, 2)
    spec = warm_d3_spec()
    n = 1 << 16
    tab, kit = CoefficientTables(spec), ClosedFormKit(spec)
    y = random_rhs(n, spec.d, seed=39)
    solve(spec, n, y, tables=tab, kit=kit)
    tracemalloc.start()
    try:
        rep = solve(spec, n, y, tables=tab, kit=kit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.counters["lanes"] == 2
    assert peak <= 4.38 * y.nbytes


def test_batches_leave_the_solve_unchanged(monkeypatch):
    # the tilde corrections and the residual segments in batches of a
    # few hundred points instead of one: the same Z to the bit, the same
    # residual up to the order of its sums
    spec = warm_d3_spec()
    n = 4000
    tab = CoefficientTables(spec)
    y = random_rhs(n, spec.d, seed=40)
    whole = solve(spec, n, y, tables=tab)
    monkeypatch.setattr(fast_solver, "_RESIDUAL_BATCH", 1 << 9)
    batched = solve(spec, n, y, tables=tab)
    assert np.array_equal(whole.z, batched.z)
    assert abs(batched.residual - whole.residual) <= 1e-13 * whole.residual


def test_gram_ranges_on_two_lanes(monkeypatch):
    # with a pool both lanes take ranges of chunks as they come free, one
    # chunk per range here: the same Gram to the bit as on one lane
    monkeypatch.setattr(fast_solver, "_RANGE_BYTES", 1)
    spec = warm_d3_spec()
    n = 64 * T + 5
    y = fast_solver._to_time_last(random_rhs(n, spec.d, seed=41))
    for variant in ("tilde", "plain"):
        op = fast_solver._factor(spec, variant)
        with ThreadPoolExecutor(1) as pool:
            two = fast_solver._apply(op, y, True, pool)
        assert np.array_equal(two, fast_solver._apply(op, y, True))
