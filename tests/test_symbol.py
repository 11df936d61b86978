import json

import numpy as np
import pytest
import scipy.linalg

from blocktoeplitz import errors, symbol
from blocktoeplitz.coefficients import CoefficientTables
from blocktoeplitz.fast_solver import solve
from blocktoeplitz.symbol import (RationalSymbolSpec, decay_certificate,
                                  load_spec, realization, save_spec,
                                  spec_from_dict, spec_to_dict, validate,
                                  w_on_circle)
from blocktoeplitz.synth import random_spec, scalar_ar, scalar_single_pole

from helpers import make_sweep_spec, mult3_spec, random_rhs, warm_d3_spec


def test_ex52_validates(ex52):
    report = validate(ex52)
    assert report.ok, str(report)


def test_pole_out_of_domain_rejected():
    spec = scalar_single_pole(1.2, 1.0)
    report = validate(spec)
    assert not report.ok
    with pytest.raises(errors.PoleOutOfDomain):
        report.raise_if_failed()


def test_duplicate_poles_rejected():
    spec = RationalSymbolSpec(
        d=1, m0=0, K=2, rho00=np.zeros((1, 1)), rho0=(),
        poles=(0.3, 0.3), mults=(1, 1),
        rho=((np.ones((1, 1)),), (np.ones((1, 1)),)))
    with pytest.raises(errors.DuplicatePoles):
        validate(spec).raise_if_failed()


def test_zero_leading_residue_rejected():
    spec = RationalSymbolSpec(
        d=1, m0=0, K=1, rho00=-np.eye(1), rho0=(),
        poles=(0.5,), mults=(2,),
        rho=((np.ones((1, 1)), np.zeros((1, 1))),))
    with pytest.raises(errors.ZeroLeadingResidue):
        validate(spec).raise_if_failed()


def test_sharp_shape_mismatch_rejected():
    base = random_spec(d=2, K=1, mults=(1,), m0=0,
                       rng=np.random.default_rng(0))
    spec = RationalSymbolSpec(
        d=2, m0=0, K=1, rho00=base.rho00, rho0=(), poles=base.poles,
        mults=(1,), rho=base.rho,
        sharp_rho00=base.sharp_rho00, sharp_rho0=(),
        sharp_rho=((base.sharp_rho[0][0], base.sharp_rho[0][0]),))
    with pytest.raises(errors.SharpShapeMismatch):
        validate(spec).raise_if_failed()


def test_non_outer_symbol_rejected():
    # 1 - 2z vanishes at z = 0.5 inside the disk; A_x = 2
    spec = scalar_ar([2.0])
    report = validate(spec)
    assert not report.ok
    with pytest.raises(errors.OuternessCheckFailed,
                       match="spectral radius of A_x is 2 "):
        report.raise_if_failed()


def test_realizations_built_once_per_spec(monkeypatch):
    # validate, the tables and a cold solve share the spec's one pair
    built = []

    def counted(spec, sharp):
        built.append(sharp)
        return realization(spec, sharp)

    monkeypatch.setattr(symbol, "realization", counted)
    spec = warm_d3_spec()
    validate(spec).raise_if_failed()
    assert CoefficientTables(spec).gamma(3).shape == (3, 3)
    solve(spec, 64, random_rhs(64, 3, seed=1))
    assert built == [False, True]


def test_failed_realizations_are_not_kept():
    spec = scalar_ar([2.0])
    for _ in range(2):
        with pytest.raises(errors.OuternessCheckFailed):
            spec.realizations
    assert "realizations" not in vars(spec)


def test_wrong_sharp_factor_rejected():
    base = random_spec(d=2, K=1, mults=(1,), m0=0,
                       rng=np.random.default_rng(1))
    spec = RationalSymbolSpec(
        d=2, m0=0, K=1, rho00=base.rho00, rho0=(), poles=base.poles,
        mults=(1,), rho=base.rho,
        sharp_rho00=base.sharp_rho00 * 1.7, sharp_rho0=(),
        sharp_rho=((base.sharp_rho[0][0] * 1.7,),))
    report = validate(spec)
    assert not report.ok
    with pytest.raises(errors.SharpFactorizationMismatch):
        report.raise_if_failed()


def test_eval_h_inv_at_zero(ex52):
    # h^{-1}(0) = -rho = -1, so h(0) = -1
    assert ex52.eval_h_inv(0) == pytest.approx(-1.0)
    assert ex52.eval_h(0)[0, 0] == pytest.approx(-1.0)


def test_eval_identity_constant(ident2):
    for z in (0.0, 0.3 + 0.1j, -0.9j):
        np.testing.assert_allclose(ident2.eval_h_inv(z), np.eye(2))
        np.testing.assert_allclose(ident2.eval_h(z), np.eye(2))


def test_eval_at_pole_raises(ex52):
    with pytest.raises(errors.EvaluationAtPole):
        ex52.eval_h_inv(2.0)   # 1/conj(p) = 2


def test_eval_h_value(ex52):
    # h(z) = -(1 - 0.5 z): at z = 0.5, -(1 - 0.25) = -0.75
    assert ex52.eval_h(0.5)[0, 0] == pytest.approx(-0.75)


def test_h_dagger_inv(ex52):
    # h_dagger^{-1}(z) = conj(h^{-1}(1/conj(z))); z = p hits the pole
    val = ex52.eval_h_dagger_inv(0.4)
    expect = np.conj(ex52.eval_h_inv(1 / 0.4))
    np.testing.assert_allclose(val, expect)
    with pytest.raises(errors.EvaluationAtPole):
        ex52.eval_h_dagger_inv(0.5)


def test_eval_w_values(ex52, ident2):
    assert ex52.eval_w(0.0)[0, 0] == pytest.approx(0.25)
    np.testing.assert_allclose(ident2.eval_w(1.3), np.eye(2), atol=1e-14)


@pytest.mark.parametrize("name", ["d2_k2m12", "d3_k1m2", "d1_k2m21"])
def test_w_hermitian_positive(sweep_specs, name):
    spec = sweep_specs[name]
    w = w_on_circle(spec, 64)
    herm_dev = np.abs(w - np.conj(np.swapaxes(w, -1, -2))).max()
    assert herm_dev <= 1e-13
    eigs = np.linalg.eigvalsh(w)
    assert eigs.min() > 0


def test_h_times_h_inv_is_identity(sweep_specs):
    spec = sweep_specs["d3_k2m12"]
    rng = np.random.default_rng(2)
    for _ in range(10):
        z = 0.95 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        prod = spec.eval_h(z) @ spec.eval_h_inv(z)
        assert np.abs(prod - np.eye(spec.d)).max() <= 1e-12


def test_sharp_equals_plain_for_d1(ex52):
    for theta in np.linspace(0, 2 * np.pi, 7):
        z = np.exp(1j * theta)
        np.testing.assert_allclose(ex52.eval_h_sharp(z), ex52.eval_h(z))


def test_sweep_specs_validate(sweep_specs):
    for name, spec in sweep_specs.items():
        report = validate(spec)
        assert report.ok, f"{name}:\n{report}"


def test_json_round_trip_bit_exact(tmp_path, sweep_specs):
    spec = sweep_specs["d2_k2m12"]
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    back = load_spec(path)
    assert spec_to_dict(back) == spec_to_dict(spec)
    assert np.array_equal(back.rho00, spec.rho00)
    assert back.poles == spec.poles
    for g1, g2 in zip(back.rho, spec.rho):
        for a, b in zip(g1, g2):
            assert np.array_equal(a, b)
    # and the JSON text itself is stable under another round trip
    text1 = json.dumps(spec_to_dict(back))
    text2 = json.dumps(spec_to_dict(spec_from_dict(spec_to_dict(back))))
    assert text1 == text2


def test_d2_without_sharp_rejected():
    with pytest.raises(ValueError):
        RationalSymbolSpec(d=2, m0=0, K=0, rho00=-np.eye(2), rho0=(),
                           poles=(), mults=(), rho=())


def _embedded(m):
    """The real embedding [[Re m, -Im m], [Im m, Re m]] as an mpmath
    interval matrix; it is positive definite exactly when m is."""
    from mpmath import iv
    s = np.block([[m.real, -m.imag], [m.imag, m.real]])
    return iv.matrix([[iv.mpf(float(x)) for x in row] for row in s])


def _interval_cholesky_passes(m):
    """A Cholesky in interval arithmetic whose pivots all stay positive
    proves every matrix of the interval matrix m positive definite."""
    from mpmath import iv
    n = m.rows
    low = iv.matrix(n, n)
    for j in range(n):
        pivot = m[j, j] - sum((low[j, k] ** 2 for k in range(j)), iv.mpf(0))
        if not pivot.a > 0:
            return False
        low[j, j] = iv.sqrt(pivot)
        for i in range(j + 1, n):
            low[i, j] = (m[i, j] - sum((low[i, k] * low[j, k]
                                        for k in range(j)), iv.mpf(0))
                         ) / low[j, j]
    return True


@pytest.mark.parametrize("spec", [scalar_ar([0.9]), scalar_single_pole(0.5),
                                  make_sweep_spec("d2_k1m2")],
                         ids=["ar1", "ex52", "d2_k1m2"])
def test_certificate_holds_in_interval_arithmetic(spec):
    # the X of the certificate, checked in interval arithmetic: X - lo I,
    # hi I - X and r^2 X - A* X A are positive definite, with
    # sqrt(hi / lo) within the certified growth, so ||A^k|| <= growth r^k
    from mpmath import iv
    h = realization(spec, False)
    a, r, n = h.A, h.rate, len(h.A)
    x = scipy.linalg.solve_discrete_lyapunov(a.conj().T / r, np.eye(n))
    x = (x + x.conj().T) / 2
    lam = np.linalg.eigvalsh(x)
    margin = 4 * n * np.finfo(float).eps * lam[-1]
    lo, hi = lam[0] - margin, lam[-1] + margin
    assert np.sqrt(hi / lo) <= h.growth
    iv.prec = 200
    try:
        ex, ea, eye = _embedded(x), _embedded(a), iv.eye(2 * n)
        assert _interval_cholesky_passes(ex - iv.mpf(lo) * eye)
        assert _interval_cholesky_passes(iv.mpf(hi) * eye - ex)
        r2 = iv.mpf(r) ** 2
        assert _interval_cholesky_passes(r2 * ex - ea.T * ex * ea)
    finally:
        iv.prec = 53
    power = np.eye(n)
    for k in range(60):
        assert np.linalg.norm(power, 2) <= h.growth * r ** k
        power = a @ power


@pytest.mark.parametrize("spec", [warm_d3_spec(), mult3_spec(),
                                  make_sweep_spec("d3_k2m11")],
                         ids=["warm_d3", "mult3", "d3_k2m11"])
def test_certificate_bounds_the_exact_powers(spec):
    # max_k ||A^k|| / r^k is 1.74 (warm_d3), 11.9 (mult3) and 1.53
    # (d3_k2m11) against a growth of 4.97, 43.1 and 1.94: a growth that
    # is dropped fails on every spec, and a halved one on d3_k2m11
    for sharp in (False, True):
        h = realization(spec, sharp)
        power, worst = np.eye(len(h.A)), 0.0
        for k in range(300):
            ratio = np.linalg.norm(power, 2) / h.rate ** k
            assert ratio <= h.growth * (1 + 1e-12), (sharp, k)
            worst = max(worst, ratio)
            power = h.A @ power
        assert worst > 1.0


@pytest.mark.parametrize("spec", [scalar_ar([0.9]), warm_d3_spec()],
                         ids=["ar1", "warm_d3"])
@pytest.mark.parametrize("shrink", [0.5, 0.99])
def test_certificate_below_spectral_radius_raises(spec, shrink):
    a = realization(spec, False).A
    radius = np.abs(np.linalg.eigvals(a)).max()
    with pytest.raises(errors.OuternessCheckFailed, match="spectral radius"):
        decay_certificate(a, shrink * radius)
