import numpy as np
import pytest
import scipy.linalg

from blocktoeplitz import coefficients, errors
from blocktoeplitz.coefficients import CoefficientTables, RawTables
from blocktoeplitz.fast_solver import solve
from blocktoeplitz.symbol import RationalSymbolSpec, w_on_circle
from blocktoeplitz.synth import identity_spec, random_spec, scalar_ar
from blocktoeplitz.util import herm

from helpers import mult3_spec, random_rhs, warm_d3_spec


@pytest.fixture(scope="module")
def near_unit_tables():
    """|p| = 0.97, d = 2, multiplicity 2, m0 = 1: the realization's
    spectral radius is about 0.97, so the certified gamma tail falls below
    1e-12 of gamma(0) only after a band of thousands of entries."""
    spec = random_spec(d=2, K=1, mults=(2,), m0=1,
                       rng=np.random.default_rng(0), pole_radii=(0.97, 0.97))
    return CoefficientTables(spec)


@pytest.fixture(scope="module")
def shape_tables(sweep_tables, near_unit_tables):
    """The sweep's tables plus those of the near-unit, warm d = 3 and
    multiplicity-3 shapes, by name."""
    return dict(sweep_tables, near_unit=near_unit_tables,
                warm_d3=CoefficientTables(warm_d3_spec()),
                mult3=CoefficientTables(mult3_spec()))


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


@pytest.mark.parametrize("name", ["warm_d3", "mult3", "d2_k2m12",
                                  "d1_ar2", "near_unit"])
def test_a_stack_matches_a_coeff(shape_tables, name):
    # the batch fill against the one-point closed forms, on a fresh
    # table grown by a_stack, then by a() and a_tilde() past its end
    spec = shape_tables[name].spec
    tab = CoefficientTables(spec)
    got = [tab.a_stack(40), tab.a_stack(40, tilde=True)]
    got = [np.concatenate([g, [fn(k) for k in range(len(g), 90)]])
           for g, fn in zip(got, (tab.a, tab.a_tilde))]
    for k in range(90):
        for stack, fn in zip(got, (coefficients.a_coeff,
                                   coefficients.a_tilde_coeff)):
            want = fn(spec, k)
            err = np.linalg.norm(stack[k] - want)
            assert err <= 1e-15 * max(np.linalg.norm(want), 1e-300)


@pytest.mark.parametrize("name", ["warm_d3", "mult3", "near_unit"])
def test_a_store_grows_bit_identically(shape_tables, name):
    # a(5) then a_stack(100) fills the one store in two ranges; a fresh
    # a_stack(100) fills it in one, with the same bytes
    spec = shape_tables[name].spec
    for tilde, read in ((False, "a"), (True, "a_tilde")):
        grown = CoefficientTables(spec)
        getattr(grown, read)(5)
        fresh = CoefficientTables(spec).a_stack(100, tilde=tilde)
        assert grown.a_stack(100, tilde=tilde).tobytes() == fresh.tobytes()


def test_gamma_band_width_is_minimal(shape_tables):
    for name, tab in shape_tables.items():
        g0 = float(np.linalg.norm(tab.gamma(0), 2))
        for rel in (1e-6, 1e-12, 1e-15):
            tol = rel * g0
            L = tab.gamma_band_width(tol)
            assert tab.gamma_band_tail(L) <= tol, name
            assert L == 0 or tab.gamma_band_tail(L - 1) > tol, name


def test_c_sequence_ex52(ex52_tables):
    # c_0 = -1/rho, c_1 = pbar/rho, c_k = 0 beyond
    assert ex52_tables.c(0)[0, 0] == pytest.approx(-1.0)
    assert ex52_tables.c(1)[0, 0] == pytest.approx(0.5)
    for k in (2, 3, 6):
        assert np.abs(ex52_tables.c(k)).max() <= 1e-15


def test_convolution_identity(shape_tables):
    # sum_k c_k a_{n-k} = -delta_{n0} I, and the same for c~ and a~
    for name in ("d2_k2m12", "near_unit", "warm_d3", "mult3"):
        tab = shape_tables[name]
        d = tab.spec.d
        for n in range(21):
            acc = np.zeros((d, d), dtype=complex)
            acc_t = np.zeros((d, d), dtype=complex)
            for k in range(n + 1):
                acc += tab.c(k) @ tab.a(n - k)
                acc_t += tab.c_tilde(k) @ tab.a_tilde(n - k)
            want = -np.eye(d) if n == 0 else np.zeros((d, d))
            assert np.abs(acc - want).max() <= 1e-12, name
            assert np.abs(acc_t - want).max() <= 1e-12, name


def test_gamma_ex52(ex52_tables):
    assert ex52_tables.gamma(0)[0, 0] == pytest.approx(1.25)
    assert ex52_tables.gamma(1)[0, 0] == pytest.approx(-0.5)


def test_gamma_identity():
    tab = CoefficientTables(identity_spec(3))
    np.testing.assert_allclose(tab.gamma(0), np.eye(3))
    assert np.abs(tab.gamma(2)).max() == 0.0


@pytest.mark.parametrize("name", ["d1_ar2", "d2_k2m12", "d3_k1m2",
                                  "warm_d3", "mult3"])
def test_gamma_quadrature_oracle(shape_tables, name):
    # gamma(k) vs the trapezoid Fourier integral of w on 8192 points
    tab = shape_tables[name]
    spec = tab.spec
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


@pytest.mark.parametrize("name, radius", [
    ("warm_d3", None), ("mult3", None), ("near_unit", 0.97),
    ("pole0999", 0.999)], ids=["warm_d3", "mult3", "near_unit", "pole0999"])
def test_bulk_stacks_match_sequential_recurrence(name, radius):
    # the doubling store (states times A^w, A^w squared) against one
    # product per entry, f_k = C A^{k-1} B, over 4096 entries, and
    # gamma against the independent route gamma_via_c
    spec = {"warm_d3": warm_d3_spec, "mult3": mult3_spec}.get(
        name, lambda: random_spec(d=2, K=1, mults=(2,), m0=1,
                                  rng=np.random.default_rng(0),
                                  pole_radii=(radius, radius)))()
    tab = CoefficientTables(spec)
    h, hs = spec.realizations
    P = scipy.linalg.solve_discrete_lyapunov(h.A, h.B @ herm(h.B))
    runs = {"c": (h.c0, h.C, h.A, h.B),
            "c_tilde": (herm(hs.c0), herm(hs.B), herm(hs.A), herm(hs.C)),
            "gamma": (h.c0 @ herm(h.c0) + h.C @ P @ herm(h.C), h.C, h.A,
                      h.B @ herm(h.c0) + h.A @ P @ herm(h.C))}
    m = 4096
    for read, (head, C, A, state) in runs.items():
        want = [head]
        for _ in range(m):
            want.append(C @ state)
            state = A @ state
        want = np.stack(want)
        got = np.stack([getattr(tab, read)(k) for k in range(m + 1)])
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), read
    band = tab.gamma_band(m)
    assert np.array_equal(band[m:], got)
    assert np.array_equal(band[:m][::-1], herm(got[1:]))
    for k in (0, 1, 5, 40):
        assert np.abs(tab.gamma(k) - tab.gamma_via_c(k)).max() <= \
            1e-12 * np.abs(got).max()


def test_gamma_band_concurrent_readers():
    # four threads (more than the cores) fill and read one cold store at
    # once, each its own order of band widths, with the switch interval
    # shortened, on 20 fresh stores: each gets the bands a serial read
    # gives, to the bit
    import sys
    import threading
    spec = warm_d3_spec()
    widths = (3, 40, 300, 17, 129)
    serial = CoefficientTables(spec)
    expect = {L: serial.gamma_band(L) for L in widths}
    failures, threads = [], []

    def reader(shared, start, i):
        start.wait()
        for L in widths[i:] + widths[:i]:
            if not np.array_equal(shared.gamma_band(L), expect[L]):
                failures.append((i, L))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            shared, start = CoefficientTables(spec), threading.Barrier(4)
            threads = [threading.Thread(target=reader,
                                        args=(shared, start, i))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not failures


def test_series_built_on_first_read():
    # a read of gamma builds gamma alone; c and c~ wait for their reads
    tab = CoefficientTables(warm_d3_spec())
    tab.gamma_band(10)
    assert set(tab._realized) == {"gamma"}
    tab.c(3)
    assert set(tab._realized) == {"gamma", "c"}


def test_near_unit_solve_residual(near_unit_tables):
    # the residual check with the default band, thousands of entries wide
    tab = near_unit_tables
    n = 4096
    y = random_rhs(n, tab.d, seed=5)
    rep = solve(tab.spec, n, y, tables=tab)
    ynorm = np.linalg.norm(y)
    assert (rep.residual + rep.residual_tail_bound) / ynorm <= 1e-8


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


@pytest.mark.parametrize("phi, read", [(2.0, "gamma"), (1.25, "c")])
def test_non_outer_tables_raise(phi, read):
    # 1 - phi z vanishes inside the disk: c would be a Laurent series
    tab = CoefficientTables(scalar_ar([phi]))
    with pytest.raises(errors.OuternessCheckFailed, match="spectral radius"):
        getattr(tab, read)(0)


def test_series_term_cap_raises(sweep_specs, monkeypatch):
    monkeypatch.setattr(coefficients, "_MAX_TERMS", 3)
    tab = CoefficientTables(sweep_specs["d2_k2m12"])
    with pytest.raises(errors.ToleranceUnreachable):
        tab.beta_series(0)
    with pytest.raises(errors.ToleranceUnreachable):
        tab.gamma_via_c(1)
    with pytest.raises(errors.ToleranceUnreachable):
        tab.c_tilde_abs_sum()


@pytest.mark.parametrize("name", ["d2_k1m2_p2", "d2_ar2"])
def test_beta_stack_is_beta(sweep_specs, name):
    # entry k - 1 of the one store is beta(k) to the bit, whether the
    # store grew from single reads, from short stacks or in one go
    spec = sweep_specs[name]
    want = CoefficientTables(spec)
    want = np.stack([want.beta(k) for k in range(1, 41)])
    singles, short, fresh = (CoefficientTables(spec) for _ in range(3))
    for k in (7, 1, 30):
        singles.beta(k)
    for m in (3, 5, 11):
        short.beta_stack(m)
    for tab in (singles, short, fresh):
        stack = tab.beta_stack(40)
        assert len(stack) >= 40
        assert np.array_equal(stack[:40], want)


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
