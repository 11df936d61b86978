import numpy as np
import pytest

from blocktoeplitz import errors
from blocktoeplitz.fast_solver import (apply_A, apply_A_adjoint,
                                       apply_A_gram, apply_Q,
                                       apply_Q_adjoint, solve)
from blocktoeplitz.synth import random_spec
from blocktoeplitz.util import binom

from conftest import dense_toeplitz_matrix, random_rhs


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


def test_apply_q_dense_oracle():
    spec = random_spec(d=1, K=1, mults=(2,), m0=0,
                       rng=np.random.default_rng(5))
    n = 4
    y = random_rhs(n, 1, seed=7)
    zs = apply_Q(spec, 0, n, y)
    ws = apply_Q_adjoint(spec, 0, n, y)
    for j in (1, 2):
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


@pytest.mark.parametrize("name", ["d1_k1m2_p1", "d2_k2m12", "d3_k1m2",
                                  "d2_ar2"])
def test_gram_dense_oracle(sweep_specs, sweep_tables, name):
    from blocktoeplitz.blockarray import (gram, lower_block_toeplitz,
                                          upper_block_toeplitz)
    spec = sweep_specs[name]
    tab = sweep_tables[name]
    n = 64
    d = spec.d
    y = random_rhs(n, d, seed=8)
    a_up = upper_block_toeplitz([tab.a_tilde(k) for k in range(n)], n, d)
    a_lo = lower_block_toeplitz([tab.a(k) for k in range(n)], n, d)
    tall = y.reshape(n * d, d)
    want_t = (gram(a_up).data @ tall).reshape(n, d, d)
    want_p = (gram(a_lo).data @ tall).reshape(n, d, d)
    assert np.abs(apply_A_gram(spec, n, y, "tilde") - want_t).max() <= 1e-10
    assert np.abs(apply_A_gram(spec, n, y, "plain") - want_p).max() <= 1e-10
    for variant, a in (("tilde", a_up), ("plain", a_lo)):
        want = (a.data @ tall).reshape(n, d, d)
        want_adj = (a.data.conj().T @ tall).reshape(n, d, d)
        assert np.abs(apply_A(spec, n, y, variant) - want).max() <= 1e-10
        assert np.abs(apply_A_adjoint(spec, n, y, variant)
                      - want_adj).max() <= 1e-10


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


@pytest.mark.parametrize("name", ["d1_k2m21", "d2_k2m12", "d3_k2m11",
                                  "d2_ar2", "d2_k1m2_p2"])
def test_solve_dense_oracle(sweep_specs, sweep_tables, name):
    spec = sweep_specs[name]
    tab = sweep_tables[name]
    n = 48
    y = random_rhs(n, spec.d, seed=11)
    dense = np.linalg.solve(dense_toeplitz_matrix(tab, n, spec.d),
                            y.reshape(n * spec.d, spec.d))
    rep = solve(spec, n, y, tables=tab)
    rel = np.abs(rep.z.reshape(-1, spec.d) - dense).max() / \
        np.abs(dense).max()
    assert rel <= 1e-10
    assert rep.residual <= 1e-8


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


def test_region_gap_raises():
    spec = random_spec(d=1, K=1, mults=(1,), m0=1,
                       rng=np.random.default_rng(15))
    y = random_rhs(2, 1, seed=16)
    with pytest.raises(errors.RegionGap):
        solve(spec, 2, y)   # needs n >= 2 m0 + 1 = 3


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
    assert rep.residual_tail_bound is not None
    assert 0 <= rep.spectral_radius < 1
