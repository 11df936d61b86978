"""Configurations outside the comfortable sweep ranges: poles close to
the unit circle, multiplicity three, polynomial degree three. All solver
routes must keep matching the dense oracle (the certified series route
is additionally allowed to refuse when its contraction bound fails, but
for these symbols it holds)."""

import numpy as np
import pytest

from blocktoeplitz.closed_form import ClosedFormKit, inverse_matrix_closed
from blocktoeplitz.coefficients import CoefficientTables
from blocktoeplitz.fast_solver import solve
from blocktoeplitz.oracle import dense_solve, levinson_solve
from blocktoeplitz.series_inverse import SeriesInverter
from blocktoeplitz.synth import random_spec, scalar_single_pole
from blocktoeplitz.symbol import validate

from helpers import dense_toeplitz_matrix, random_rhs


def _check_all_routes(spec, n_solve, n_inv, seed):
    tab = CoefficientTables(spec)
    d = spec.d
    y = random_rhs(n_solve, d, seed=seed)
    dense = np.linalg.solve(dense_toeplitz_matrix(tab, n_solve, d),
                            y.reshape(n_solve * d, d))
    scale = np.abs(dense).max()
    rep = solve(spec, n_solve, y, tables=tab)
    ynorm = np.linalg.norm(y)
    assert (rep.residual + rep.residual_tail_bound) / ynorm <= 1e-8
    zf = rep.z.reshape(-1, d)
    zl = levinson_solve(spec, n_solve, y, tab).z.reshape(-1, d)
    assert np.abs(zf - dense).max() / scale <= 1e-9
    assert np.abs(zl - dense).max() / scale <= 1e-9
    dense_inv = np.linalg.inv(dense_toeplitz_matrix(tab, n_inv, d))
    closed = inverse_matrix_closed(spec, n_inv, tables=tab,
                                   check_overlap=True)
    assert np.abs(closed - dense_inv).max() <= 1e-9 * max(
        1.0, np.abs(dense_inv).max())
    return tab


def test_pole_near_unit_circle():
    spec = random_spec(d=2, K=1, mults=(1,), m0=0,
                       rng=np.random.default_rng(70),
                       pole_radii=(0.92, 0.94))
    assert abs(spec.poles[0]) > 0.9
    assert validate(spec).ok
    tab = _check_all_routes(spec, n_solve=64, n_inv=12, seed=41)
    # slow decay, but F still contracts and the certified series runs
    assert tab.decay_bound_F(5) < 1.0
    si = SeriesInverter(tab, 6, tol=1e-8)
    dense_inv = np.linalg.inv(dense_toeplitz_matrix(tab, 6, 2))
    assert np.abs(si.matrix() - dense_inv).max() <= 1e-8


def test_multiplicity_three():
    spec = random_spec(d=2, K=1, mults=(3,), m0=1,
                       rng=np.random.default_rng(71))
    assert validate(spec).ok
    tab = _check_all_routes(spec, n_solve=24, n_inv=10, seed=42)
    si = SeriesInverter(tab, 8, tol=1e-9)
    dense_inv = np.linalg.inv(dense_toeplitz_matrix(tab, 8, 2))
    assert np.abs(si.matrix() - dense_inv).max() <= 1e-8


def test_polynomial_degree_three():
    spec = random_spec(d=3, K=2, mults=(2, 1), m0=3,
                       rng=np.random.default_rng(72))
    assert validate(spec).ok
    _check_all_routes(spec, n_solve=16, n_inv=9, seed=43)


def test_beta_triple_path_hard_cases():
    for seed, kwargs in [
            (70, dict(d=2, K=1, mults=(1,), m0=0, pole_radii=(0.92, 0.94))),
            (71, dict(d=2, K=1, mults=(3,), m0=1)),
            (72, dict(d=3, K=2, mults=(2, 1), m0=3))]:
        spec = random_spec(rng=np.random.default_rng(seed), **kwargs)
        tab = CoefficientTables(spec)
        for k in range(spec.m0 + 1, spec.m0 + 11):
            closed = tab.beta_closed(k)
            assert np.abs(closed - tab.beta_series(k)).max() <= 1e-9
            assert np.abs(closed - tab.beta_quadrature(k)).max() <= 1e-8


@pytest.mark.parametrize("spec", [
    scalar_single_pole(0.9999),
    random_spec(d=2, K=1, mults=(2,), m0=0, rng=np.random.default_rng(3),
                pole_radii=(0.9999, 0.9999))], ids=["d1", "d2_mult2"])
def test_pole_at_radius_0_9999(spec):
    # the kit's Lambda check has no series to sum, so a pole this close
    # to the circle builds a kit, and the fast solve matches the dense one
    ClosedFormKit(spec)
    n = 512
    tab = CoefficientTables(spec)
    y = random_rhs(n, spec.d, seed=7)
    fast = solve(spec, n, y, tables=tab).z
    dense = dense_solve(spec, n, y, tables=tab).z
    assert np.linalg.norm(fast - dense) <= 1e-10 * np.linalg.norm(dense)
