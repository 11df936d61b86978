import numpy as np
import pytest

from blocktoeplitz import errors
from blocktoeplitz.coefficients import CoefficientTables
from blocktoeplitz.fast_solver import solve as fast_solve
from blocktoeplitz.oracle import (convergence_experiment, dense_inverse,
                                  dense_solve, dense_toeplitz,
                                  infinite_solution, levinson_solve,
                                  yule_walker_rhs)
from blocktoeplitz.synth import random_spec, scalar_ar

from helpers import random_rhs


def test_t2_golden(ex52, ex52_tables):
    t2 = dense_toeplitz(ex52, 2, ex52_tables)
    np.testing.assert_allclose(
        t2.data, np.array([[1.25, -0.5], [-0.5, 1.25]]), atol=1e-14)
    inv = dense_inverse(ex52, 2, ex52_tables)
    truth = (1 / 1.3125) * np.array([[1.25, 0.5], [0.5, 1.25]])
    assert np.abs(inv.data - truth).max() <= 1e-12


def test_toeplitz_identity(ident2):
    t = dense_toeplitz(ident2, 4)
    np.testing.assert_allclose(t.data, np.eye(8), atol=1e-15)


@pytest.mark.parametrize("name", ["d1_k2m21", "d2_k2m12", "d3_k1m2"])
def test_toeplitz_positive_definite(sweep_specs, sweep_tables, name):
    t = dense_toeplitz(sweep_specs[name], 16, sweep_tables[name])
    np.linalg.cholesky(t.data)    # raises if not positive definite
    assert t.check_hermitian()


def test_dense_solve_residual(sweep_specs, sweep_tables):
    spec = sweep_specs["d2_k2m12"]
    y = random_rhs(16, spec.d, seed=3)
    rep = dense_solve(spec, 16, y, sweep_tables["d2_k2m12"])
    assert rep.residual <= 1e-11


def test_levinson_identity(ident2):
    y = random_rhs(5, 2, seed=4)
    rep = levinson_solve(ident2, 5, y)
    np.testing.assert_allclose(rep.z, y, atol=1e-13)


def test_levinson_golden_column(ex52, ex52_tables):
    y = np.zeros((2, 1, 1), dtype=complex)
    y[0] = 1.0
    rep = levinson_solve(ex52, 2, y, ex52_tables)
    np.testing.assert_allclose(rep.z[:, 0, 0],
                               [1.25 / 1.3125, 0.5 / 1.3125], atol=1e-12)


def test_levinson_matches_dense_d2_n256():
    spec = random_spec(d=2, K=1, mults=(2,), m0=1,
                       rng=np.random.default_rng(31))
    tab = CoefficientTables(spec)
    n = 256
    y = random_rhs(n, 2, seed=5)
    zd = dense_solve(spec, n, y, tab).z
    zl = levinson_solve(spec, n, y, tab).z
    rel = np.abs(zl - zd).max() / np.abs(zd).max()
    assert rel <= 1e-8


def test_infinite_solution_identity(ident2):
    y = random_rhs(6, 2, seed=6)
    z = infinite_solution(ident2, y, 6)
    np.testing.assert_allclose(z, y, atol=1e-14)


def test_infinite_solution_ex52(ex52, ex52_tables):
    # y = (1, 0, 0, ...): z_s = a~*_{s-1} a~_0 = 0.5^{s-1}
    y = np.zeros((4, 1, 1), dtype=complex)
    y[0] = 1.0
    z = infinite_solution(ex52, y, 4, ex52_tables)
    np.testing.assert_allclose(z[:, 0, 0], [1.0, 0.5, 0.25, 0.125],
                               atol=1e-13)


def test_infinite_solution_matches_large_system(sweep_specs, sweep_tables):
    # y_k = 2^{-k} I: the order-N solution at N >> horizon approximates
    # the infinite one
    name = "d2_k2m11"
    spec = sweep_specs[name]
    tab = sweep_tables[name]
    horizon, big_n = 12, 160
    ks = np.arange(1, big_n + 1)
    y = (0.5 ** ks)[:, None, None] * np.eye(spec.d)
    z_inf = infinite_solution(spec, y, horizon, tab)
    z_big = dense_solve(spec, big_n, y, tab).z
    assert np.abs(z_inf - z_big[:horizon]).max() <= 1e-7


def test_infinite_solution_refuses_unreached_tail(ex52, monkeypatch):
    # an a~ tail that never falls below the tolerance must raise, not
    # go on with a truncated sum
    tab = CoefficientTables(ex52)
    monkeypatch.setattr(tab, "a_tail", lambda J: 1.0)
    with pytest.raises(errors.ToleranceUnreachable):
        infinite_solution(ex52, np.ones((4, 1, 1)), 4, tab)


def test_convergence_identity(ident2):
    y = random_rhs(32, 2, seed=7)
    rep = convergence_experiment(ident2, y, [4, 8, 16])
    assert max(rep.deltas) <= 1e-12


def test_convergence_trend(ex52):
    ks = np.arange(1, 200)
    y = (0.6 ** ks)[:, None, None] * np.ones((1, 1))
    rep = convergence_experiment(ex52, y, [8, 16, 32, 64])
    assert rep.deltas[2] < rep.deltas[0] / 10
    assert rep.deltas[-1] < 1e-6
    assert rep.deltas[-1] <= 1e-3 * rep.deltas[0]


def test_convergence_trend_d2(sweep_specs, sweep_tables):
    name = "d2_k2m12"
    spec = sweep_specs[name]
    ks = np.arange(1, 200)
    y = (0.5 ** ks)[:, None, None] * np.eye(spec.d)
    rep = convergence_experiment(spec, y, [8, 16, 32, 64, 128],
                                 tables=sweep_tables[name])
    assert rep.deltas[-1] <= 1e-3 * rep.deltas[0]


def test_triple_agreement(sweep_specs, sweep_tables):
    name = "d3_k2m12"
    spec = sweep_specs[name]
    tab = sweep_tables[name]
    n = 32
    y = random_rhs(n, spec.d, seed=8)
    zd = dense_solve(spec, n, y, tab).z
    zl = levinson_solve(spec, n, y, tab).z
    zf = fast_solve(spec, n, y, tables=tab).z
    scale = np.abs(zd).max()
    assert np.abs(zl - zd).max() / scale <= 1e-8
    assert np.abs(zf - zd).max() / scale <= 1e-8
    assert np.abs(zf - zl).max() / scale <= 1e-8


def test_yule_walker_predictor():
    # AR(1): the finite predictor of order n is (phi, 0, ..., 0)
    spec = scalar_ar([0.6])
    tab = CoefficientTables(spec)
    n = 6
    rhs = yule_walker_rhs(spec, n, tab)
    sol = dense_solve(spec, n, rhs, tab).z   # real scalar w: w~ = w
    want = np.zeros(n)
    want[0] = 0.6
    np.testing.assert_allclose(sol[:, 0, 0].real, want, atol=1e-12)
    np.testing.assert_allclose(sol[:, 0, 0].imag, 0, atol=1e-12)


def test_dense_cap_enforced(ex52, monkeypatch):
    monkeypatch.setenv("TPZ_DENSE_CAP", "8")
    with pytest.raises(ValueError):
        dense_solve(ex52, 16, random_rhs(16, 1, seed=9))
