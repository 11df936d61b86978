import numpy as np
import pytest

from blocktoeplitz import coefficients, errors
from blocktoeplitz.coefficients import CoefficientTables, RawTables
from blocktoeplitz.fast_solver import solve
from blocktoeplitz.symbol import RationalSymbolSpec, w_on_circle
from blocktoeplitz.synth import identity_spec, random_spec

from helpers import random_rhs


@pytest.fixture(scope="module")
def near_unit_tables():
    """|p| = 0.97, d = 2, multiplicity 2, m0 = 1: the Cauchy ratio is
    about 0.986, so the tables need thousands of nodes."""
    spec = random_spec(d=2, K=1, mults=(2,), m0=1,
                       rng=np.random.default_rng(0), pole_radii=(0.97, 0.97))
    return CoefficientTables(spec)


def test_a_sequence_ex52(ex52_tables):
    # a_k = rho pbar^k = 0.5^k
    for k, want in enumerate([1.0, 0.5, 0.25, 0.125]):
        assert ex52_tables.a(k)[0, 0] == pytest.approx(want)
        assert ex52_tables.a_tilde(k)[0, 0] == pytest.approx(
            np.conj(ex52_tables.a(k)[0, 0]))


def test_a_sequence_identity():
    tab = CoefficientTables(identity_spec(2))
    np.testing.assert_allclose(tab.a(0), -np.eye(2))
    for k in (1, 2, 5):
        assert np.abs(tab.a(k)).max() == 0.0


def test_c_sequence_ex52(ex52_tables):
    # c_0 = -1/rho, c_1 = pbar/rho, c_k = 0 beyond
    assert ex52_tables.c(0)[0, 0] == pytest.approx(-1.0)
    assert ex52_tables.c(1)[0, 0] == pytest.approx(0.5)
    for k in (2, 3, 6):
        assert np.abs(ex52_tables.c(k)).max() <= 1e-15


def test_convolution_identity(sweep_tables, near_unit_tables):
    # sum_k c_k a_{n-k} = -delta_{n0} I, and the same for c~ and a~
    for tab in (sweep_tables["d2_k2m12"], near_unit_tables):
        d = tab.spec.d
        for n in range(21):
            acc = np.zeros((d, d), dtype=complex)
            acc_t = np.zeros((d, d), dtype=complex)
            for k in range(n + 1):
                acc += tab.c(k) @ tab.a(n - k)
                acc_t += tab.c_tilde(k) @ tab.a_tilde(n - k)
            want = -np.eye(d) if n == 0 else np.zeros((d, d))
            assert np.abs(acc - want).max() <= 1e-12
            assert np.abs(acc_t - want).max() <= 1e-12


def test_gamma_ex52(ex52_tables):
    assert ex52_tables.gamma(0)[0, 0] == pytest.approx(1.25)
    assert ex52_tables.gamma(1)[0, 0] == pytest.approx(-0.5)


def test_gamma_identity():
    tab = CoefficientTables(identity_spec(3))
    np.testing.assert_allclose(tab.gamma(0), np.eye(3))
    assert np.abs(tab.gamma(2)).max() == 0.0


@pytest.mark.parametrize("name", ["d1_ar2", "d2_k2m12", "d3_k1m2"])
def test_gamma_quadrature_oracle(sweep_specs, sweep_tables, name):
    # gamma(k) vs the trapezoid Fourier integral of w on 8192 points
    spec = sweep_specs[name]
    tab = sweep_tables[name]
    N = 8192
    w = w_on_circle(spec, N)
    theta = 2 * np.pi * np.arange(N) / N
    for k in (0, 1, 3, 7):
        quad = (np.exp(-1j * k * theta)[:, None, None] * w).mean(axis=0)
        assert np.abs(quad - tab.gamma(k)).max() <= 1e-8


def test_gamma_hermitian_symmetry(sweep_tables):
    tab = sweep_tables["d2_k1m2"]
    for k in range(1, 8):
        np.testing.assert_array_equal(tab.gamma(-k),
                                      tab.gamma(k).conj().T)


def test_gamma_via_c_matches(sweep_tables, near_unit_tables):
    for tab in (sweep_tables["d2_k2m11"], near_unit_tables):
        for k in range(11):
            assert np.abs(tab.gamma(k) - tab.gamma_via_c(k)).max() <= 1e-12


def test_near_unit_solve_residual(near_unit_tables):
    # the residual check with the default band, on tables of ~8k nodes
    tab = near_unit_tables
    n = 4096
    y = random_rhs(n, tab.d, seed=5)
    rep = solve(tab.spec, n, y, tables=tab)
    ynorm = np.linalg.norm(y)
    assert (rep.residual + rep.residual_tail_bound) / ynorm <= 1e-8


def test_gamma_table_grows_by_appending(sweep_specs):
    tab = CoefficientTables(sweep_specs["d2_k1m2"])
    served = [tab.gamma(k).copy() for k in range(8)]
    nodes = tab._nodes["gamma"][-1]
    far = tab.gamma(nodes // 2)
    assert tab._nodes["gamma"][-1] > nodes
    for k, before in enumerate(served):
        np.testing.assert_array_equal(tab.gamma(k), before)
    assert np.abs(far).max() <= 1e-14 * np.abs(served[0]).max()


def _unskipped_table(tab, name):
    """(N, entries) of a first build by the rule without skips: the first
    N = 64, 128, ... whose transform passes the aliasing test."""
    N = 64
    while True:
        coef = np.fft.fft(tab._samples(name, N), axis=0) / N
        if tab._aliasing(name, N // 4) <= 1e-14 * np.linalg.norm(coef[0], 2):
            return N, coef[:N // 2]
        N *= 2


@pytest.mark.parametrize("name", ["d1_ar2", "d2_k1m2", "d2_k2m11",
                                  "d2_k2m12", "d3_k1m2", "near_unit"])
def test_skipped_sizes_leave_tables_unchanged(sweep_specs, near_unit_tables,
                                              name):
    spec = (near_unit_tables.spec if name == "near_unit"
            else sweep_specs[name])
    for table in ("c", "c_tilde", "gamma"):
        tab = CoefficientTables(spec)
        tab._circle_table(table, 0)
        N, want = _unskipped_table(tab, table)
        assert tab._nodes[table] == [N]
        np.testing.assert_array_equal(np.array(tab._tables[table]), want)


def test_singular_leading_coefficient_raises():
    # rho00 = diag(1, 0) puts a pole of h at z = 0
    a0 = np.diag([1.0, 0.0])
    spec = RationalSymbolSpec(d=2, m0=1, K=0, rho00=a0,
                              rho0=(0.3 * np.eye(2),), poles=(), mults=(),
                              rho=(), sharp_rho00=a0,
                              sharp_rho0=(0.3 * np.eye(2),), sharp_rho=())
    tab = CoefficientTables(spec)
    for fn in (tab.c, tab.c_tilde, tab.gamma):
        with pytest.raises(errors.SingularLeadingCoefficient):
            fn(0)


def test_series_term_cap_raises(sweep_specs, monkeypatch):
    monkeypatch.setattr(coefficients, "_MAX_TERMS", 3)
    tab = CoefficientTables(sweep_specs["d2_k2m12"])
    with pytest.raises(errors.ToleranceUnreachable):
        tab.beta_series(0)
    with pytest.raises(errors.ToleranceUnreachable):
        tab.gamma_via_c(1)


def test_beta_identity_zero():
    tab = CoefficientTables(identity_spec(2))
    for k in range(1, 8):
        assert np.abs(tab.beta(k)).max() == 0.0


def test_beta_dual_path_ex52(ex52_tables):
    for k in range(1, 11):
        closed = ex52_tables.beta_closed(k)
        series = ex52_tables.beta_series(k)
        quad = ex52_tables.beta_quadrature(k)
        assert np.abs(closed - series).max() <= 1e-10
        assert np.abs(closed - quad).max() <= 1e-8


def test_beta_negative_index_quadrature(ex52_tables):
    # exposed for completeness; sanity: beta_{-k} from the same integral
    val = ex52_tables.beta(-2)
    quad = ex52_tables.beta_quadrature(-2)
    np.testing.assert_allclose(val, quad)


def test_beta_tail_bounded_by_F(sweep_tables):
    tab = sweep_tables["d2_k2m12"]
    for m in (1, 2, 4):
        for L in (5, 20):
            total = sum(np.linalg.norm(tab.beta(m + ell), 2)
                        for ell in range(L + 1))
            assert total <= tab.decay_bound_F(m) + 1e-12


def test_F_identity():
    tab = CoefficientTables(identity_spec(1))
    assert tab.decay_bound_F(1) == 0.0


def test_F_monotone_and_ratio(ex52_tables):
    vals = [ex52_tables.decay_bound_F(n) for n in range(1, 41)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-15
    # geometric tail of a 0.5-pole: ratio approaches 0.5
    assert vals[35] / vals[34] == pytest.approx(0.5, rel=0.02)


def test_F_monotone_sweep(sweep_tables):
    for name, tab in sweep_tables.items():
        vals = [tab.decay_bound_F(n) for n in range(0, 12)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12, name


def test_ar_coefficients_finite_support(ar1):
    tab = CoefficientTables(ar1)
    assert tab.a(0)[0, 0] == pytest.approx(-1.0)
    assert tab.a(1)[0, 0] == pytest.approx(0.9)
    assert np.abs(tab.a(2)).max() == 0.0
    assert tab.decay_bound_F(2) == 0.0
    # gamma still has infinite support with rate 0.9
    g0 = tab.gamma(0)[0, 0]
    assert g0 == pytest.approx(1 / (1 - 0.81))
    assert tab.gamma(3)[0, 0] / g0 == pytest.approx(0.9 ** 3)


def test_concurrent_readers_consistent(sweep_specs):
    # lock-guarded extension: parallel readers racing on a cold table
    # must all see the same values as a serial pass
    import threading
    spec = sweep_specs["d2_k2m12"]
    serial = CoefficientTables(spec)
    expect = {k: serial.gamma(k) for k in range(12)}
    shared = CoefficientTables(spec)
    failures = []

    def reader(offset):
        for k in list(range(offset, 12)) + list(range(offset)):
            if np.abs(shared.gamma(k) - expect[k]).max() > 0:
                failures.append(k)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures


def test_raw_tables_interface(ex52_tables):
    n_terms = 40
    raw = RawTables(
        d=1,
        a=[ex52_tables.a(k) for k in range(n_terms)],
        a_tilde=[ex52_tables.a_tilde(k) for k in range(n_terms)],
        beta={k: ex52_tables.beta(k) for k in range(1, 2 * n_terms)},
        F=ex52_tables.decay_bound_F,
    )
    np.testing.assert_allclose(raw.a(3), ex52_tables.a(3))
    assert np.abs(raw.a(n_terms + 5)).max() == 0.0
    assert raw.decay_bound_F(2) == ex52_tables.decay_bound_F(2)
