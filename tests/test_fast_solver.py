import math
import tracemalloc

import numpy as np
import pytest

from blocktoeplitz import errors, fast_solver
from blocktoeplitz.closed_form import ClosedFormKit, SolveVectors
from blocktoeplitz.coefficients import CoefficientTables
from blocktoeplitz.fast_solver import (apply_A, apply_A_adjoint,
                                       apply_A_gram, apply_Q,
                                       apply_Q_adjoint, solve)
from blocktoeplitz.blockarray import (gram, lower_block_toeplitz,
                                      upper_block_toeplitz)
from blocktoeplitz.oracle import dense_solve
from blocktoeplitz.symbol import w_on_circle
from blocktoeplitz.synth import random_spec, scalar_ar, scalar_single_pole
from blocktoeplitz.util import binom, binom_vec

from helpers import (SWEEP_CONFIGS, dense_toeplitz_matrix, make_sweep_spec,
                     mult3_spec, random_rhs, warm_d3_spec)


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


@pytest.mark.parametrize("apply", [apply_Q, apply_Q_adjoint])
def test_apply_q_rejects_pole_indices_outside_0_to_K_minus_1(ex52, apply):
    # mu = -1 used to apply the last pole's Q
    y = random_rhs(4, 1, seed=50)
    for mu in (-1, 1):
        with pytest.raises(errors.DomainViolation):
            apply(ex52, mu, 4, y)


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
    # ranges of 1 and 3 chunks: the halos and states across ranges, and
    # the ragged last chunk, in the one-sided applies and in the
    # two-sided apply under each Gram
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


def quadrature_inverse_symbol(spec, n):
    """T_n(w^{-1}) as a dense (n d, n d) matrix, block (s, t) the Fourier
    coefficient s - t of inv(w) by a 2^14-point trapezoid rule."""
    coef = np.fft.fft(np.linalg.inv(w_on_circle(spec, 1 << 14)), axis=0)
    idx = (np.arange(n)[:, None] - np.arange(n)) % (1 << 14)
    return (coef[idx] / (1 << 14)).transpose(0, 2, 1, 3).reshape(
        n * spec.d, n * spec.d)


def two_sided_apply(spec, y):
    """T_n(w^{-1}) Y for a public (n, d, r) Y as solve computes it: the
    slot states of the inverse symbol's lower triangle and of its
    adjoint, then the two-sided chunk sweep."""
    return fast_solver.PreparedSolve(ClosedFormKit(spec), len(y))._apply(
        y.transpose(1, 2, 0))[0]


def corner_apply(spec, e, y, plain):
    """E~ Y, or E Y if plain, from the n-free corner e of the kit:
    the rows C(m, a) conj(p)^m per slot (their conjugates if plain) and
    [m == l], l = 1..m0, at m = s (m = n + 1 - s if plain), times e on
    the moments of Y, which weigh y_t with the conjugate rows at t."""
    n, d, r = y.shape
    ms = np.arange(n, 0, -1) if plain else np.arange(1, n + 1)
    seq = np.array([binom_vec(ms, a) * np.conj(p) ** ms
                    for p, m in zip(spec.poles, spec.mults)
                    for a in range(m)]
                   + [ms == l for l in range(1, spec.m0 + 1)]).reshape(
                       -1, n)
    rows = np.conj(seq) if plain else seq
    moments = np.einsum("qt,tab->qab", np.conj(rows), y)
    coef = (e @ moments.reshape(-1, r)).reshape(-1, d, r)
    return np.einsum("qs,qab->sab", rows, coef)


INVERSE_SPECS = {
    **{name: (lambda name=name: make_sweep_spec(name))
       for name, *_ in SWEEP_CONFIGS},
    "mult3": mult3_spec, "m0_3": APPLY_SPECS["m0_3"],
    "pole099": APPLY_SPECS["pole099"],
}


@pytest.mark.parametrize("name", list(INVERSE_SPECS))
def test_two_sided_apply_vs_quadrature(name):
    # T_n(w^{-1}) Y from the inverse symbol's blocks and the two-sided
    # sweep against the quadrature Toeplitz matrix: a ragged n < 2T and
    # n = 4T + 3 (every halo, carried state and the ragged last chunk),
    # r = d and r = 1
    spec = INVERSE_SPECS[name]()
    d = spec.d
    for n in (T + 5, 4 * T + 3):
        want_mat = quadrature_inverse_symbol(spec, n)
        for r in (d, 1):
            y = random_rhs(n, d, seed=60 + n)[:, :, :r]
            want = (want_mat @ y.reshape(n * d, r)).reshape(n, d, r)
            got = two_sided_apply(spec, y)
            assert (np.linalg.norm(got - want)
                    <= 1e-12 * np.linalg.norm(want)), (n, r)


@pytest.mark.parametrize("name", list(INVERSE_SPECS))
def test_grams_are_the_inverse_symbol_minus_a_corner(name):
    # A~*A~ = T_n(w^{-1}) - E~ and A*A = T_n(w^{-1}) - E: each Gram
    # against the two-sided apply minus its corner, whose rank is at most
    # (M + m0) d, from the n-free maps of the kit
    spec = INVERSE_SPECS[name]()
    d = spec.d
    kit = ClosedFormKit(spec)
    e_plain, e_tilde = kit.e_plain, kit.e_tilde
    size = (sum(spec.mults) + spec.m0) * d
    assert e_plain.shape == e_tilde.shape == (size, size)
    for n in (T + 5, 4 * T + 3):
        y = random_rhs(n, d, seed=70 + n)
        full = two_sided_apply(spec, y)
        for variant, e in (("tilde", e_tilde), ("plain", e_plain)):
            want = full - corner_apply(spec, e, y, variant == "plain")
            got = apply_A_gram(spec, n, y, variant)
            assert (np.linalg.norm(got - want)
                    <= 1e-12 * np.linalg.norm(want)), (n, variant)


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
    # the plain Gram rows solve's plain side stands for, on chunk 0, a
    # middle chunk, the last chunk and the last m0 rows: T_n(w^{-1}) Y
    # from the two-sided sweep minus E Y, against A* (A Y) from the two
    # one-sided applies, which share no code with the sweep; Y
    # zero-padded past n leaves the sweep's first n rows as they are, so
    # the ragged last chunk reads nothing past n
    spec = (APPLY_SPECS[name]() if name in APPLY_SPECS else
            random_spec(d=2, K=0, mults=(), m0=2,
                        rng=np.random.default_rng(33)))
    d, m0 = spec.d, spec.m0
    y = random_rhs(n, d, seed=34)[:, :, :width or d]
    e_plain = ClosedFormKit(spec).e_plain
    full = two_sided_apply(spec, y)
    nc = -(-n // T)
    chunks = np.unique(np.r_[0, nc // 2, nc - 1, np.arange(n - m0, n) // T])
    rows = (chunks * T + np.arange(T)[:, None]).ravel()
    rows = rows[rows < n]
    assert np.all(np.isin(np.arange(n - m0, n), rows))
    got = (full - corner_apply(spec, e_plain, y, True))[rows]
    want = apply_A_adjoint(spec, n, apply_A(spec, n, y, "plain"), "plain")
    assert np.abs(got - want[rows]).max() <= 1e-14 * np.abs(want).max()
    padded = np.zeros((nc * T, *y.shape[1:]), dtype=complex)
    padded[:n] = y
    assert (np.abs(two_sided_apply(spec, padded)[:n] - full).max()
            <= 1e-14 * np.abs(full).max())


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
    # the chunks that take tilde corrections form two runs, one at each
    # end (20 of 25 chunks)
    pytest.param("pole01", 400, id="pole01_n400"),
    # m0 = 3 with n % T in {1, 2}: the last m0 rows, which take the plain
    # corrections, span two chunks
    *(pytest.param("m0_3", 4 * T + k, id=f"m0_3_n{4 * T + k}")
      for k in (1, 2)),
])
def test_solve_dense_oracle(sweep_specs, sweep_tables, name, n):
    if name.startswith("pole"):
        spec = scalar_single_pole({"pole095": 0.95, "pole01": 0.1}[name])
        tab = CoefficientTables(spec)
    elif name in APPLY_SPECS:
        spec = APPLY_SPECS[name]()
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


@pytest.mark.parametrize("layout", ["fortran", "every_other", "one_column"])
def test_any_input_layout(layout):
    # solve and the applies read Y in the caller's memory, whatever its
    # strides, and return a C-ordered (n, d, r) array: the result on a
    # C-contiguous copy of Y within 1e-15
    spec = warm_d3_spec()
    n = 300
    y = {"fortran": np.asfortranarray(random_rhs(n, spec.d, seed=48)),
         "every_other": random_rhs(2 * n, spec.d, seed=48)[::2],
         "one_column": random_rhs(n, spec.d, seed=48)[..., :1]}[layout]

    for call in (lambda v: [solve(spec, n, v).z],
                 lambda v: [apply_A(spec, n, v)],
                 lambda v: [apply_A_adjoint(spec, n, v)],
                 lambda v: apply_Q(spec, 0, n, v),
                 lambda v: [apply_A_gram(spec, n, v)]):
        for got, want in zip(call(y), call(np.ascontiguousarray(y)),
                             strict=True):
            assert got.flags.c_contiguous
            assert (np.linalg.norm(got - want)
                    <= 1e-15 * np.linalg.norm(want))


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
        fast_solver._residual_band(tab, n), z.reshape(1, 1, n),
        y.reshape(1, 1, n))
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
        fast_solver._residual_band(tab, n), z.transpose(0, 2, 1),
        y.transpose(0, 2, 1))
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
        L, nfft, segments = fast_solver._residual_band(
            CoefficientTables(spec), n)[:3]
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
    assert set(rep.timings) == {"plan", "apply", "assembly", "residual"}
    assert min(rep.timings.values()) >= 0
    assert sum(rep.timings.values()) <= rep.seconds
    plan = rep.counters.pop("plan_bytes")
    assert plan > 0 and rep.counters == {
        "overlap_rows": rep.overlap_checked, "chunk": fast_solver._CHUNK,
        "residual_band": 7,
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


def sequence_rows(table, anchors, n, plain):
    """The 2M rows of fast_solver._sequences on every chunk of one grid,
    as (2M, n): at m = s for s = 1..n on the tilde grid, at m = n + 1 - s
    on the plain grid, which reads the table backwards."""
    R, _, T = table.shape
    rows = np.einsum("qkt,kc->qct", table[..., ::-1] if plain else table,
                     anchors(np.arange(-(-n // T)), plain))
    return rows.reshape(R, -1)[:, :n]


@pytest.mark.parametrize("make", [
    pytest.param(warm_d3_spec, id="warm_d3"),     # mults (2, 2), m0 = 2
    pytest.param(mult3_spec, id="mult3"),
])
def test_kit_coefficients_give_the_v_blocks(make):
    # kit.v_coef on the generated sequences C(m, a) conj(p)^m and the m0
    # unit rows [m == j], contracted with the ext stacks, gives the blocks
    # of v_m and v~_m, m = 1..n
    spec = make()
    kit = ClosedFormKit(spec)
    n, m0, M = 40, spec.m0, kit.M
    ms = np.arange(1, n + 1)
    table, _, anchors = fast_solver._sequences(
        spec.poles, spec.mults, n, fast_solver._chunk_blocks(m0))
    rows = np.concatenate([sequence_rows(table, anchors, n, False)[M:],
                           ms == np.arange(1, m0 + 1)[:, None]])
    v = kit.vectors("v", ms)
    for side, ext in enumerate((kit.ext_stack, kit.ext_tilde_stack)):
        conj = np.conj if side else np.asarray
        scal = np.einsum("qej,jm->mqe", conj(kit.v_coef), conj(rows))
        got = np.einsum("mqe,eab->mqab", scal, ext)
        np.testing.assert_allclose(got.reshape(v[side].shape), v[side],
                                   rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("n", [(1 << 20) - 3, 1 << 20])
def test_generated_sequences_at_large_indices(n):
    # poles of multiplicity 3 at |p| = 0.2 and 0.9999: the anchors are
    # finite on every chunk of both grids, and the rows match an mpmath
    # evaluation of C(m, i - 1) p^{n-m} and C(m, i - 1) conj(p)^m within
    # 1e-13 of the sum of their terms' sizes (pole powers below the flush
    # threshold, 1.5e-154, may read zero), on the tilde grid at
    # m = c T + u + 1 and on the plain grid at m = n - c T - u, its
    # ragged last chunk included. There the base n - nc T is negative, so
    # C(b, a) alternates in sign and a row can cancel to zero (C(1, 2) at
    # m = 1); on the tilde grid every term is positive and that sum is
    # the row's own size
    import mpmath
    poles, mults, T = (0.2, 0.9999), (3, 3), 16
    nc = -(-n // T)
    table, _, anchors = fast_solver._sequences(poles, mults, n, T)
    grids = {plain: anchors(np.arange(nc), plain) for plain in (False, True)}
    assert all(np.isfinite(a).all() for a in grids.values())
    ms = np.unique(np.r_[1, 2, 3, T, T + 1, 5000, n // 2, n - 2 * T - 1,
                         n - T, n - 3, n - 1, n,
                         np.random.default_rng(44).integers(1, n, 40)])
    # plain chunks and rows: the first two, the last two (the last one at
    # its first and last row inside 1..n) and a random draw
    rest = n - (nc - 1) * T
    cs = np.r_[0, 0, 1, nc - 2, nc - 1, nc - 1,
               np.random.default_rng(48).integers(0, nc, 20)]
    us = np.r_[0, T - 1, 7, T - 1, 0, rest - 1,
               np.random.default_rng(49).integers(0, T, 20)]
    us[cs == nc - 1] = np.minimum(us[cs == nc - 1], rest - 1)
    M = sum(mults)
    for plain, at, c, u in ((False, ms, *np.divmod(ms - 1, T)),
                            (True, n - cs * T - us, cs, T - 1 - us)):
        got, scale = (np.einsum("qkm,km->qm", *ab) for ab in (
            (table[..., u], grids[plain][:, c]),
            (np.abs(table[..., u]), np.abs(grids[plain][:, c]))))
        assert np.isfinite(got).all() and not got.imag.any()
        want = np.zeros(got.shape, dtype=object)
        with mpmath.workdps(40):
            q = 0
            for p, m in zip(poles, mults):
                for i in range(1, m + 1):
                    for k, mm in enumerate(at.tolist()):
                        b = mpmath.binomial(mm, i - 1)
                        want[q, k] = b * mpmath.mpf(p) ** (n - mm)
                        want[M + q, k] = b * mpmath.mpf(p) ** mm
                    q += 1
            err = np.array([[float(abs(mpmath.mpf(g.real) - w))
                             for g, w in zip(*rw)] for rw in zip(got, want)])
        flushed = fast_solver._FLUSH * math.comb(n, 2)
        assert (err <= 1e-13 * scale + flushed).all(), plain


@pytest.mark.parametrize("mults, m0, radius", [
    ((3,), 0, 0.99), ((3, 1), 1, 0.9), ((2, 2), 2, 0.99), ((1, 3), 3, 0.5),
])
@pytest.mark.parametrize("n", [9, 4 * T, 4 * T + 5])
def test_correction_sums_from_states(mults, m0, radius, n):
    # the plan's maps on the v-basis sums read from the factors' carry
    # states and the m0 head blocks of Y, times the generated sequence
    # rows and the unit rows, give SolveVectors' rank correction on
    # whole-chunk and ragged n: ell~(s) sum_t r~(t) y_t on the tilde rows
    # s = 1..n-m0 (at m = s) and ell(s) sum_t r(t) y_t on the plain rows
    # s = m0+1..n (conjugate rows at m = n + 1 - s). The error is taken
    # entrywise against |ell(s)| |sum_t r(t) y_t|, the rounding scale of
    # the reference's own product: where the correction cancels (|p| =
    # 0.5 at n = 64, rows of 9e-4 from terms near 300) the reference is
    # itself off by 2e-13 of its size. K_n, U_n Theta and the
    # coefficients applied one after the other met 1.42e-15.
    spec = random_spec(d=2, K=len(mults), mults=mults, m0=m0,
                       rng=np.random.default_rng(45),
                       pole_radii=(radius, radius))
    kit = ClosedFormKit(spec)
    y = random_rhs(n, spec.d, seed=46)
    yt = y.transpose(1, 2, 0)
    sums = []
    for variant in ("plain", "tilde"):
        op = fast_solver._factor(spec, variant)
        st = fast_solver._states(op, yt, *fast_solver._chunk_operator(
            op, fast_solver._chunk_blocks(m0))[1:])
        sums.append(fast_solver._edge_sums(op, st, yt))
    c_plain, c_tilde = fast_solver._coefficients(kit._correction_maps(n),
                                                    *sums, yt, m0)
    table, _, anchors = fast_solver._sequences(
        spec.poles, spec.mults, n, fast_solver._chunk_blocks(m0))
    R = len(table)
    sv = SolveVectors(kit, n)
    ts = np.arange(1, n + 1)
    r_tilde = sum(sv.r_tilde(t) @ y[t - 1] for t in ts)
    r_plain = sum(sv.r(t) @ y[t - 1] for t in ts)
    tilde_s, plain_s = np.arange(1, n - m0 + 1), np.arange(m0 + 1, n + 1)
    units = np.arange(1, m0 + 1)[:, None]
    for got, ells, sums in (
            (c_tilde[:, :R] @ sequence_rows(table, anchors, n, False)[
                :, tilde_s - 1] + c_tilde[:, R:] @ (tilde_s == units),
             [sv.ell_tilde(s) for s in tilde_s], r_tilde),
            (c_plain[:, :R] @ np.conj(sequence_rows(table, anchors, n, True)[
                :, plain_s - 1]) + c_plain[:, R:] @ (n + 1 - plain_s == units),
             [sv.ell(s) for s in plain_s], r_plain)):
        want, scale = (np.stack([e @ x for e in es], axis=-1).reshape(
            got.shape) for es, x in ((ells, sums),
                                     (np.abs(ells), np.abs(sums))))
        assert (np.abs(got - want) <= 1.5e-15 * scale).all()


def test_plan_bytes_do_not_depend_on_n():
    # the prepared solve without tables keeps arrays of fixed size, no
    # O(n) scalars: only the anchors' pole powers of the live chunks
    # (at most nc of them, 69 and 20 here) grow with n below the chunks
    # where those powers flush to zero
    for d in (1, 3):
        spec = random_spec(d=d, K=2, mults=(2, 2), m0=2,
                           rng=np.random.default_rng(d))
        tab = CoefficientTables(spec)
        size = {n: solve(spec, n, random_rhs(n, d, seed=d), tables=tab,
                         compute_residual=False).counters["plan_bytes"]
                for n in (64, 4096, 65536)}
        assert 0 < size[64] <= size[4096] == size[65536], d


def test_plan_build_memory_does_not_depend_on_n():
    # the traced peak of building the prepared solve without tables
    spec = warm_d3_spec()
    peak = {}
    for n in (4096, 65536):
        kit = ClosedFormKit(spec)
        tracemalloc.start()
        fast_solver.PreparedSolve(kit, n)
        peak[n] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert abs(peak[65536] - peak[4096]) <= 0.02 * peak[4096]


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


@pytest.mark.parametrize("fails", [False, True])
def test_overlap_mismatch_raises(sweep_specs, sweep_tables, monkeypatch,
                                 fails):
    # delta I on every plain row: its spectral norm is delta, so delta
    # is twice the 1e-9 tolerance times the largest max(1, ||z_s||_2)
    spec, tab = sweep_specs["d2_k2m12"], sweep_tables["d2_k2m12"]
    n = 48
    y = random_rhs(n, spec.d, seed=21)
    z = solve(spec, n, y, tables=tab).z
    delta = 0.0
    if fails:
        delta = 2e-9 * max(1.0, np.linalg.norm(z, 2, axis=(-2, -1)).max())
    side_rows = fast_solver._side_rows

    def perturbed(w, anchors, cs, plain):
        # every plain row it forms, time-last (d, r, rows)
        got = side_rows(w, anchors, cs, plain)
        return got + delta * np.eye(spec.d)[..., None] if plain else got

    monkeypatch.setattr(fast_solver, "_side_rows", perturbed)
    if fails:
        with pytest.raises(errors.OverlapMismatch):
            solve(spec, n, y, tables=tab)
    else:
        assert solve(spec, n, y, tables=tab).overlap_max_dev <= 1e-12


@pytest.mark.parametrize("plain", [True, False], ids=["plain", "tilde"])
def test_overlap_nan_raises(sweep_specs, sweep_tables, monkeypatch, plain):
    # a NaN on overlap row m0 + 2 of one side's rows: the deviation there
    # is NaN, which fails the check (on the plain side Z stays finite,
    # since the tilde side writes that row)
    spec, tab = sweep_specs["d2_k2m12"], sweep_tables["d2_k2m12"]
    n = 48
    y = random_rhs(n, spec.d, seed=21)
    side_rows = fast_solver._side_rows

    def poisoned(w, anchors, cs, grid):
        got = side_rows(w, anchors, cs, grid)
        if grid == plain and cs[0] == 0:
            got[..., spec.m0 + 1] = np.nan
        return got

    monkeypatch.setattr(fast_solver, "_side_rows", poisoned)
    with pytest.raises(errors.OverlapMismatch, match="nan"):
        solve(spec, n, y, tables=tab)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_non_finite_rhs_raises(value, where):
    # one NaN or inf entry in block 0, in the middle or in the last m0
    # blocks: every fast entry, and solve's dense branch below
    # n = 2 m0 + 1, raises NonSummableRHS before any pass over Y
    spec = warm_d3_spec()
    n, small = 300, 2 * spec.m0
    y, y_small = random_rhs(n, spec.d, seed=52), random_rhs(small, spec.d)
    for v in (y, y_small):
        v[{"first": 0, "middle": len(v) // 2, "last": -spec.m0}[where],
          1, 0] = value
    calls = [lambda: solve(spec, n, y),
             lambda: solve(spec, n, y, compute_residual=False),
             lambda: solve(spec, small, y_small),
             lambda: apply_A_gram(spec, n, y, "tilde"),
             lambda: apply_A_gram(spec, n, y, "plain")]
    for variant in ("tilde", "plain"):
        calls += [lambda v=variant: apply_A(spec, n, y, v),
                  lambda v=variant: apply_A_adjoint(spec, n, y, v)]
    for mu in range(spec.K):
        calls += [lambda mu=mu: apply_Q(spec, mu, n, y),
                  lambda mu=mu: apply_Q_adjoint(spec, mu, n, y)]
    for call in calls:
        with pytest.raises(errors.NonSummableRHS):
            call()


# the overflow is the case under test, so numpy's warnings of it are not
# errors here: the typed error must come from solve's own checks
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_overflowing_rhs_residual_raises(where):
    # one finite Y entry of 1e308 in block 0, in the middle or in the
    # last m0 blocks overflows Z or its residual: with the residual on,
    # solve raises a typed error instead of reporting a NaN residual,
    # and with the overlap check off the residual stage raises it
    spec = warm_d3_spec()
    n = 4096
    y = random_rhs(n, spec.d, seed=53)
    y[{"first": 0, "middle": n // 2, "last": n - spec.m0}[where], 0, 0] = 1e308
    with pytest.raises(errors.NumericalError):
        solve(spec, n, y)
    with pytest.raises(errors.NumericalError, match="not finite"):
        solve(spec, n, y, check_overlap=False)


@pytest.mark.parametrize("apply", [apply_A, apply_A_adjoint, apply_A_gram])
def test_unknown_variant_raises_value_error(apply):
    spec = warm_d3_spec()
    with pytest.raises(ValueError, match="variant"):
        apply(spec, 48, random_rhs(48, spec.d), "foo")


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
    side_rows = fast_solver._side_rows

    def perturbed(w, anchors, cs, plain):
        # the plain rows of the chunks cs, time-last (d, r, rows)
        out = side_rows(w, anchors, cs, plain)
        if plain:
            out[0, 0] += frac * 1e-9 * norms[
                (cs[:, None] * T + np.arange(T)).ravel()]
        return out

    monkeypatch.setattr(fast_solver, "_side_rows", perturbed)
    if frac > 1:
        with pytest.raises(errors.OverlapMismatch):
            solve(spec, n, y, tables=tab)
    else:
        dev = solve(spec, n, y, tables=tab).overlap_max_dev
        assert 0.89e-9 <= dev <= 0.91e-9


@pytest.mark.parametrize("plain", [True, False], ids=["plain", "tilde"])
@pytest.mark.parametrize("chunk", [1, 19, 37, 218, 237, 254])
def test_overlap_check_sees_every_live_chunk(monkeypatch, chunk, plain):
    # 1e-3 on the anchors of one chunk of one side's grid, near either
    # end or in the middle of the 38 live chunks at each end of the 256
    # at n = 4096: the check compares every overlap row of the live
    # chunks, so each fault raises
    spec = warm_d3_spec()
    n = 4096
    y = random_rhs(n, spec.d, seed=50)
    sequences = fast_solver._sequences

    def faulty(*args):
        table, live, anchors = sequences(*args)
        assert live == 38

        def shifted(cs, grid):
            a = anchors(cs, grid)
            if grid == plain:
                a[:, cs == chunk] += 1e-3
            return a

        return table, live, shifted

    monkeypatch.setattr(fast_solver, "_sequences", faulty)
    with pytest.raises(errors.OverlapMismatch):
        solve(spec, n, y)


def test_overlap_rows_count_the_rows_compared(sweep_specs):
    # the overlap rows m0 + 1 .. n - m0 of the 38 live chunks at each end
    # (m0 = 2, n = 256 T): 38 T - 2 rows per end; none without the check
    # or without poles
    spec = warm_d3_spec()
    n = 256 * T
    y = random_rhs(n, spec.d, seed=51)
    rep = solve(spec, n, y)
    assert rep.overlap_checked == rep.counters["overlap_rows"] == \
        2 * (38 * T - 2)
    assert solve(spec, n, y, check_overlap=False).overlap_checked == 0
    ar = sweep_specs["d2_ar1"]
    assert ar.K == 0 and solve(ar, 64, random_rhs(64, 2, seed=51)) \
        .counters["overlap_rows"] == 0


def test_solve_memory_bound():
    # both corrections beside the range-blocked two-sided apply and the
    # residual in batches, on Y in the caller's memory and Z as the one
    # output array: a warm solve at 2^16 peaks at 2.2 Y, under 2.5 Y,
    # which no whole-Y copy besides Z would fit. So does a solve whose
    # every chunk takes a rank correction: a pole of multiplicity 3 at
    # |p| = 0.999, without the residual (its certificate refuses the
    # pole)
    near = random_spec(d=2, K=1, mults=(3,), m0=1,
                       rng=np.random.default_rng(2),
                       pole_radii=(0.999, 0.999))
    n = 1 << 16
    for spec, residual in ((warm_d3_spec(), True), (near, False)):
        tab, kit = CoefficientTables(spec), ClosedFormKit(spec)
        y = random_rhs(n, spec.d, seed=39)
        solve(spec, n, y, tables=tab, kit=kit, compute_residual=residual)
        tracemalloc.start()
        try:
            rep = solve(spec, n, y, tables=tab, kit=kit,
                        compute_residual=residual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * y.nbytes, spec.mults


def test_batches_leave_the_solve_unchanged(monkeypatch):
    # the residual segments in batches of a few hundred points instead of
    # one (the batches affect only the residual): the same Z to the bit,
    # the same residual up to the order of its sums
    spec = warm_d3_spec()
    n = 4000
    tab = CoefficientTables(spec)
    y = random_rhs(n, spec.d, seed=40)
    whole = solve(spec, n, y, tables=tab)
    monkeypatch.setattr(fast_solver, "_RESIDUAL_BATCH", 1 << 9)
    batched = solve(spec, n, y, tables=tab)
    assert np.array_equal(whole.z, batched.z)
    assert abs(batched.residual - whole.residual) <= 1e-13 * whole.residual


@pytest.mark.parametrize("name, call", [
    pytest.param("warm_d3", "solve", id="warm_d3"),
    pytest.param("m0_3", "solve", id="m0_3"),
    pytest.param("warm_d3", "gram", id="warm_d3_gram"),
])
def test_corrected_ranges_leave_the_solve_unchanged(monkeypatch, name, call):
    # the two-sided apply and the corrections run range by range: one
    # chunk per range and the default width give the same Z, and the
    # same Gram of either variant, within 1e-15
    spec = APPLY_SPECS[name]()
    n = 6000 + 5
    tab = CoefficientTables(spec)
    kit = ClosedFormKit(spec)
    y = random_rhs(n, spec.d, seed=47)
    run = {"solve": lambda: [solve(spec, n, y, tables=tab, kit=kit).z],
           "gram": lambda: [apply_A_gram(spec, n, y, variant)
                            for variant in ("tilde", "plain")]}[call]
    got = {}
    for width, size in (("one", 1), ("default", fast_solver._RANGE_BYTES)):
        monkeypatch.setattr(fast_solver, "_RANGE_BYTES", size)
        got[width] = run()
    for one, ref in zip(got["one"], got["default"], strict=True):
        assert np.linalg.norm(one - ref) <= 1e-15 * np.linalg.norm(ref)


@pytest.mark.parametrize("residual", [True, False])
def test_scaled_rhs_keeps_its_checks(monkeypatch, residual):
    # Y times 2^530 gives Z times 2^530 to the bit, and rows of Z whose
    # sums of squares leave float range: the residual and ||Z||_F stay
    # finite, the overlap check still sees the deviation, and a fault
    # planted on the plain rows still raises
    spec = warm_d3_spec()
    n, scale = 4096, 2.0 ** 530
    tab = CoefficientTables(spec)
    y = random_rhs(n, spec.d, seed=53)
    base = solve(spec, n, y, tables=tab, compute_residual=residual)
    big = solve(spec, n, scale * y, tables=tab, compute_residual=residual)
    assert np.array_equal(big.z, scale * base.z)
    assert big.overlap_max_dev > 0
    if residual:
        assert abs(big.residual - scale * base.residual) <= \
            1e-12 * scale * base.residual
        assert np.isfinite(big.residual_tail_bound)
    side_rows = fast_solver._side_rows

    def perturbed(w, anchors, cs, plain):
        got = side_rows(w, anchors, cs, plain)
        return got + 1e-6 * scale if plain else got

    monkeypatch.setattr(fast_solver, "_side_rows", perturbed)
    with pytest.raises(errors.OverlapMismatch):
        solve(spec, n, scale * y, tables=tab, compute_residual=residual)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_overflowing_rhs_never_returns_non_finite(where):
    # one Y entry of 1e308 in block 0, in the middle or in the last m0
    # blocks, under each setting of both checks: a typed error or an
    # all-finite Z, never a Z with a NaN or an inf
    spec = warm_d3_spec()
    n = 4096
    y = random_rhs(n, spec.d, seed=53)
    y[{"first": 0, "middle": n // 2, "last": n - spec.m0}[where], 0, 0] = 1e308
    for check_overlap in (True, False):
        for compute_residual in (True, False):
            try:
                z = solve(spec, n, y, check_overlap=check_overlap,
                          compute_residual=compute_residual).z
            except errors.BlockToeplitzError:
                continue
            assert np.isfinite(z).all(), (check_overlap, compute_residual)


def test_prepared_solve_is_read_only_and_repeatable(sweep_specs,
                                                    sweep_tables):
    # every array a PreparedSolve holds is read-only; two of them for one
    # (spec, n) give the same Z to the bit, and one held across three
    # solves gives the module solve's Z, residual and overlap deviation
    # to the bit, and its Grams those of apply_A_gram
    spec, tab = sweep_specs["d2_k2m12"], sweep_tables["d2_k2m12"]
    n = 300
    kit = ClosedFormKit(spec)
    held = fast_solver.PreparedSolve(kit, n, tab)
    arrays = fast_solver._held(tuple(vars(held).values()))
    assert len(arrays) >= 12 and held.nbytes == sum(a.nbytes for a in arrays)
    assert not any(a.flags.writeable for a in arrays)
    other = fast_solver.PreparedSolve(ClosedFormKit(spec), n, tab)
    for seed in (61, 62, 63):
        y = random_rhs(n, spec.d, seed=seed)
        want = solve(spec, n, y, tables=tab, kit=kit)
        got = held.solve(y)
        assert np.array_equal(got.z, want.z)
        assert np.array_equal(other.solve(y).z, want.z)
        assert (got.residual, got.overlap_max_dev, got.counters) == (
            want.residual, want.overlap_max_dev, want.counters)
        assert got.timings["plan"] == 0.0
        for variant in ("tilde", "plain"):
            assert np.array_equal(held.gram(y, variant),
                                  apply_A_gram(spec, n, y, variant))
    assert fast_solver.PreparedSolve(kit, n).solve(y).residual is None


def test_held_prepared_solve_builds_nothing(monkeypatch):
    # a held PreparedSolve's solve and Grams build none of the Y-free
    # arrays again: each function that builds one raises if called
    spec = warm_d3_spec()
    n = 1000
    tab = CoefficientTables(spec)
    held = fast_solver.PreparedSolve(ClosedFormKit(spec), n, tab)

    def refused(*args, **kwargs):
        raise AssertionError("a Y-free array was built again")

    for owner, name in ((fast_solver, "_chunk_operator"),
                        (fast_solver, "_hermitian_operator"),
                        (fast_solver, "_sequences"),
                        (ClosedFormKit, "plan"),
                        (ClosedFormKit, "corner_plan"),
                        (CoefficientTables, "gamma_band")):
        monkeypatch.setattr(owner, name, refused)
    y = random_rhs(n, spec.d, seed=64)
    assert held.solve(y).residual is not None
    for variant in ("tilde", "plain"):
        held.gram(y, variant)
    with pytest.raises(AssertionError, match="built again"):
        solve(spec, n, y, tables=tab)
