import numpy as np
import pytest

from blocktoeplitz import errors
from blocktoeplitz import closed_form
from blocktoeplitz.closed_form import (ClosedFormKit, SolveVectors,
                                       gram_plain, gram_tilde,
                                       inverse_block_closed,
                                       inverse_matrix_closed)
from blocktoeplitz.coefficients import CoefficientTables
from blocktoeplitz.fast_solver import solve
from blocktoeplitz.oracle import dense_solve
from blocktoeplitz.symbol import RationalSymbolSpec
from blocktoeplitz.synth import random_spec, scalar_ar, scalar_single_pole
from blocktoeplitz.util import binom, herm

from helpers import (dense_toeplitz_matrix, make_sweep_spec, mult3_spec,
                     random_rhs, warm_d3_spec)


def test_kit_requires_poles(ar1):
    with pytest.raises(errors.DomainViolation):
        ClosedFormKit(ar1)


def test_lambda_single_pole(ex52):
    kit = ClosedFormKit(ex52)
    assert kit.lambda_mat[0, 0] == pytest.approx(1 / (1 - 0.25))


def test_lambda_matches_series(sweep_specs):
    # Lambda = sum_l p_l p_l*, summed far past the decay horizon
    spec = sweep_specs["d2_k2m12"]
    kit = ClosedFormKit(spec)
    total = np.zeros_like(kit.lambda_mat)
    for l in range(400):
        p = kit.p_vec(l)
        total += p @ p.conj().T
    assert np.abs(total - kit.lambda_mat).max() <= 1e-10


def test_lambda_stein_check_catches_perturbed_entries():
    # 1e-9 max(1, max|Lambda|) added to any one entry breaks the Stein
    # identity Lambda = J Lambda J* + p_0 p_0* beyond its rounding bound
    near_unit = random_spec(d=2, K=1, mults=(2,), m0=1,
                            rng=np.random.default_rng(0),
                            pole_radii=(0.97, 0.97))
    for spec in (warm_d3_spec(), mult3_spec(), near_unit):
        kit = ClosedFormKit(spec)
        lam = kit.lambda_mat
        delta = 1e-9 * max(1.0, float(np.abs(lam).max()))
        for idx in np.ndindex(lam.shape):
            kit.lambda_mat = lam.copy()
            kit.lambda_mat[idx] += delta
            with pytest.raises(errors.NumericalError):
                kit._check_lambda_stein()


def test_theta_simple_pole_formula(sweep_specs):
    # for multiplicity 1: theta_mu = p_mu h_sharp(p_mu) rho*_{mu,1}
    spec = sweep_specs["d2_k2m11"]
    kit = ClosedFormKit(spec)
    d = spec.d
    for mu in range(spec.K):
        p = spec.poles[mu]
        want = p * spec.eval_h_sharp(p) @ spec.rho[mu][0].conj().T
        got = kit.theta_values[mu][0]
        assert np.abs(got - want).max() <= 1e-10
        base = kit.offsets[mu] * d
        np.testing.assert_allclose(
            kit.theta_mat[base:base + d, base:base + d], got)


def test_theta_multiplicity_finite_difference():
    # derivative-limit definition checked by central differences
    spec = random_spec(d=1, K=1, mults=(2,), m0=0,
                       rng=np.random.default_rng(42))
    kit = ClosedFormKit(spec)
    p = spec.poles[0]

    def g(z):
        hs = spec.eval_h_sharp(z)
        return ((z - p) ** 2 * hs @ spec.eval_h_dagger_inv(z))[0, 0]

    h = 2.5e-4 * (1 - abs(p))
    # theta_{1,2} = -lim g(z); theta_{1,1} = -g'(p); the pole of
    # h_dagger^{-1} at z = p forbids evaluating g(p) itself, so both use
    # central stencils
    theta2 = -(g(p + h) + g(p - h)) / 2
    theta1 = -(g(p + h) - g(p - h)) / (2 * h)
    assert abs(kit.theta_values[0][1][0, 0] - theta2) <= 1e-7
    assert abs(kit.theta_values[0][0][0, 0] - theta1) <= 1e-7


def _h_inv(spec, zs, sharp):
    """h^{-1} (h_sharp^{-1}) at zs, written out from the partial fractions
    independently of the package's evaluation."""
    rho00, rho0, rho = spec.side(sharp)
    z = zs[:, None, None]
    out = -rho00 - sum((z ** j * r for j, r in enumerate(rho0, 1)), 0)
    for p, group in zip(spec.poles, rho):
        out = out - sum((1 - np.conj(p) * z) ** -j * r
                        for j, r in enumerate(group, 1))
    return out


@pytest.mark.parametrize("make", [
    pytest.param(mult3_spec, id="mult3"),
    pytest.param(lambda: random_spec(d=2, K=2, mults=(1, 2), m0=3,
                                     rng=np.random.default_rng(32)),
                 id="m0_3"),
    pytest.param(warm_d3_spec, id="warm_d3"),
    pytest.param(lambda: scalar_single_pole(0.99), id="pole099"),
])
def test_theta_contour_oracle(make):
    # theta_{mu,j} = -(1 / 2 pi i) contour integral of
    # (z - p)^{j-1} h_sharp(z) h_dagger(z)^{-1} around p, by the trapezoid
    # rule on a circle a quarter of the way to the nearest singularity
    spec = make()
    kit = ClosedFormKit(spec)
    nodes = 2048
    phases = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    for mu, p in enumerate(spec.poles):
        radius = 0.25 * min([1 - abs(p)] + ([abs(p)] if spec.m0 else [])
                            + [abs(p - q) for q in spec.poles if q != p])
        zs = p + radius * phases
        f = (np.linalg.inv(_h_inv(spec, zs, True))
             @ herm(_h_inv(spec, 1 / np.conj(zs), False)))
        for j in range(1, spec.mults[mu] + 1):
            want = -(((radius * phases) ** j)[:, None, None] * f).mean(0)
            got = kit.theta_values[mu][j - 1]
            assert np.abs(got - want).max() <= 1e-12 * max(
                1.0, np.abs(want).max())


@pytest.mark.parametrize("gap", [2e-6, 1e-8])
def test_theta_clustered_poles(gap):
    # two simple poles closer than any contour around one of them could
    # stay clear of the other
    import mpmath
    p1 = 0.6 * np.exp(0.3j)
    poles, res = (p1, p1 + gap), (0.1, 0.07j)
    spec = RationalSymbolSpec(
        d=1, m0=0, K=2, rho00=-np.eye(1), rho0=(), poles=poles,
        mults=(1, 1), rho=tuple((np.array([[r]]),) for r in res))
    kit = ClosedFormKit(spec)
    with mpmath.workdps(50):
        def h_inv(z):
            return 1 - sum(mpmath.mpc(r) / (1 - mpmath.conj(q) * z)
                           for q, r in zip(poles, res))
        for mu, p in enumerate(poles):
            p_mp = mpmath.mpc(p)
            want = p_mp / h_inv(p_mp) * mpmath.conj(mpmath.mpc(res[mu]))
            got = kit.theta_values[mu][0][0, 0]
            assert abs(mpmath.mpc(got) - want) <= 1e-14 * abs(want)
    tab = CoefficientTables(spec)
    for n in (64, 300):
        y = random_rhs(n, 1, seed=n)
        dense = dense_solve(spec, n, y, tables=tab).z
        fast = solve(spec, n, y, tables=tab, kit=kit).z
        assert np.abs(fast - dense).max() <= 1e-12 * np.abs(dense).max()


def test_theta_hankel_pattern(sweep_specs):
    spec = sweep_specs["d2_k2m12"]
    kit = ClosedFormKit(spec)
    d = spec.d
    for mu in range(spec.K):
        m = spec.mults[mu]
        base = kit.offsets[mu]
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                blk = kit.theta_mat[(base + i - 1) * d:(base + i) * d,
                                    (base + j - 1) * d:(base + j) * d]
                if i + j - 1 > m:
                    assert np.abs(blk).max() == 0.0
                else:
                    np.testing.assert_allclose(
                        blk, kit.theta_values[mu][i + j - 2])


def test_pvec_at_zero(sweep_specs):
    spec = sweep_specs["d2_k2m12"]
    kit = ClosedFormKit(spec)
    s = kit.p_scalars(0)
    want = np.array([1.0 if i == 1 else 0.0 for _, i in kit.slots])
    np.testing.assert_allclose(s, want)


def test_xi_simple_pole_entries(sweep_specs):
    # all multiplicities 1: Xi_n entries pbar_nu^n / (1 - p_mu pbar_nu)
    spec = sweep_specs["d2_k2m11"]
    kit = ClosedFormKit(spec)
    n = 5
    xi = kit.slot_scalars("v", [n])[0, :, :kit.M]
    for qr, (mu, _) in enumerate(kit.slots):
        for qc, (nu, _) in enumerate(kit.slots):
            p, pb = spec.poles[mu], np.conj(spec.poles[nu])
            assert xi[qr, qc] == pytest.approx(pb ** n / (1 - p * pb))


def test_phi_matches_direct_series(sweep_specs):
    # phi_n^{mu nu}(i, j) = sum_l C(l-n, i-1) C(l+j-1, j-1)
    #                       p_mu^{l-i+1-n} pbar_nu^l
    spec = sweep_specs["d2_k2m12"]
    kit = ClosedFormKit(spec)
    for n in (-3, 0, 2, 6):
        phi = kit.slot_scalars("w", [n])[0, :, :kit.M]
        for qr, (mu, i) in enumerate(kit.slots):
            for qc, (nu, j) in enumerate(kit.slots):
                p, pb = spec.poles[mu], np.conj(spec.poles[nu])
                series = sum(
                    binom(l - n, i - 1) * binom(l + j - 1, j - 1)
                    * p ** (l - i + 1 - n) * pb ** l
                    for l in range(10_000))
                assert abs(phi[qr, qc] - series) <= 1e-9 * max(
                    1.0, abs(series))


def test_g_norm_decays(ex52):
    kit = ClosedFormKit(ex52)
    g, _ = kit.g_mats(50)
    assert np.linalg.norm(g, 2) <= 1e-10


def test_spectral_radius_below_one(ex52):
    kit = ClosedFormKit(ex52)
    assert kit.spectral_radius(2) < 1.0


def test_closed_beta_matches_tables(sweep_specs, sweep_tables):
    for name in ("d1_k1m2_p1", "d2_k2m12", "d3_k2m12"):
        spec = sweep_specs[name]
        kit = ClosedFormKit(spec)
        tab = sweep_tables[name]
        for k in range(spec.m0 + 1, spec.m0 + 13):
            got = kit.beta_closed(k)
            assert np.abs(got - tab.beta_series(k)).max() <= 1e-9, name


def test_closed_beta_domain(sweep_specs):
    spec = sweep_specs["d2_k1m2_p2"]   # m0 = 2
    kit = ClosedFormKit(spec)
    with pytest.raises(errors.DomainViolation):
        kit.closed_beta(0, 0, spec.m0 - 1)
    # adjoint pair consistency on the valid domain
    val = kit.closed_beta(3, 1, 0)
    alt = kit.closed_beta(2, 1, 1)
    assert np.abs(val - alt).max() <= 1e-12


def test_solve_vectors_golden(ex52):
    # displayed n = 2 values for p = 0.5, rho = 1
    sv = SolveVectors(ClosedFormKit(ex52), 2)
    p = 0.5
    ell = np.array([1 + p ** 2, p]) / (p ** 2 * (1 - p ** 6))
    r = -p ** 3 * (1 - p ** 2) * np.array([p * (1 + p ** 2), p ** 2])
    assert sv.ell(1)[0, 0] == pytest.approx(ell[0], abs=1e-10)
    assert sv.ell(2)[0, 0] == pytest.approx(ell[1], abs=1e-10)
    assert sv.r(1)[0, 0] == pytest.approx(r[0], abs=1e-10)
    assert sv.r(2)[0, 0] == pytest.approx(r[1], abs=1e-10)
    assert sv.ell_tilde(1)[0, 0] == pytest.approx(np.conj(sv.ell(2)[0, 0]))
    assert sv.r_tilde(2)[0, 0] == pytest.approx(np.conj(sv.r(1)[0, 0]))


def test_resolvent_recorded(sweep_specs):
    spec = sweep_specs["d2_k2m12"]
    sv = SolveVectors(ClosedFormKit(spec), 6)
    assert 0.0 <= sv.spectral_radius < 1.0


def test_resolvent_cond_reported():
    # the plan and the report carry the 2-norm condition number of
    # I - G~G; a solve without poles has no plan and reports None
    spec = warm_d3_spec()
    kit = ClosedFormKit(spec)
    for n in (5, 8, 40):
        g, gt = kit.g_mats(n)
        want = np.linalg.cond(np.eye(kit.M * spec.d) - gt @ g)
        assert kit.plan(n).resolvent_cond == pytest.approx(want, rel=1e-12)
        rep = solve(spec, n, random_rhs(n, spec.d, seed=n), kit=kit)
        assert rep.resolvent_cond == pytest.approx(want, rel=1e-12)
    assert solve(scalar_ar([0.5]), 8, random_rhs(8, 1)).resolvent_cond \
        is None


def test_scaled_vectors_are_pole_powers_times_unscaled(sweep_specs):
    spec = sweep_specs["d2_k1m2_p2"]    # multiplicity 2, m0 = 2
    kit = ClosedFormKit(spec)
    ms = np.arange(1, 41)
    pw = np.repeat(kit.pole_of_slot ** ms[:, None], spec.d,
                   axis=1)[:, :, None]
    for kind in ("v", "w"):
        x, xt = kit.vectors(kind, ms)
        x_hat, xt_hat = kit.vectors(kind, ms, scaled=True)
        for got, want in ((x_hat, pw * x), (xt_hat, np.conj(pw) * xt)):
            assert np.abs(got - want).max() <= 1e-12 * max(
                1.0, np.abs(got).max()), kind


@pytest.mark.parametrize("make", [
    pytest.param(lambda: make_sweep_spec("d2_k1m2_p2"), id="d2_k1m2_p2"),
    pytest.param(warm_d3_spec, id="warm_d3"),     # mults (2, 2), m0 = 2
    pytest.param(mult3_spec, id="mult3"),
])
def test_v_w_match_series(make):
    # closed forms against the defining series (a-decay makes 600 terms
    # far more than enough)
    spec = make()
    kit = ClosedFormKit(spec)
    tab = CoefficientTables(spec)
    n = 6
    sv = SolveVectors(kit, n)
    d = spec.d
    for m in (1, 2, 4, n):
        v_series = np.zeros((kit.M * d, d), dtype=complex)
        w_series = np.zeros((kit.M * d, d), dtype=complex)
        for l in range(600):
            v_series += kit.p_vec(l) @ tab.a(m + l)
            w_series += kit.p_vec(l - m) @ tab.a(l)
        assert np.abs(sv.v[m - 1].reshape(-1, d) - v_series).max() <= 1e-10
        assert np.abs(sv.w[m - 1].reshape(-1, d) - w_series).max() <= 1e-9
        vt_series = np.zeros((kit.M * d, d), dtype=complex)
        wt_series = np.zeros((kit.M * d, d), dtype=complex)
        for l in range(600):
            vt_series += np.conj(kit.p_vec(l)) @ tab.a_tilde(m + l)
            wt_series += np.conj(kit.p_vec(l - m)) @ tab.a_tilde(l)
        assert np.abs(sv.v_tilde[m - 1].reshape(-1, d)
                      - vt_series).max() <= 1e-10
        assert np.abs(sv.w_tilde[m - 1].reshape(-1, d)
                      - wt_series).max() <= 1e-9


def test_inverse_golden_ex52(ex52, ex52_tables):
    inv = inverse_matrix_closed(ex52, 2, tables=ex52_tables,
                                check_overlap=True)
    truth = (1 / 1.3125) * np.array([[1.25, 0.5], [0.5, 1.25]])
    assert np.abs(inv - truth).max() <= 1e-10


def test_inverse_ar1_vs_dense():
    spec = scalar_ar([0.9])
    tab = CoefficientTables(spec)
    n = 8
    dense = np.linalg.inv(dense_toeplitz_matrix(tab, n, 1))
    closed = inverse_matrix_closed(spec, n, tables=tab, check_overlap=True)
    assert np.abs(closed - dense).max() <= 1e-10


def test_inverse_ar2_region_overlap(sweep_specs, sweep_tables):
    spec = sweep_specs["d2_ar2"]
    tab = sweep_tables["d2_ar2"]
    n = 10
    dense = np.linalg.inv(dense_toeplitz_matrix(tab, n, spec.d))
    closed = inverse_matrix_closed(spec, n, tables=tab, check_overlap=True)
    rel = np.abs(closed - dense).max() / np.abs(dense).max()
    assert rel <= 1e-10


@pytest.mark.parametrize("s", [0, 7])
def test_inverse_block_rejects_indices_outside_1_to_n(s):
    # an index past either end is no block of T_6^{-1}; each read as an
    # empty Gram sum, 0
    spec = scalar_ar([0.5, -0.2])
    for st in ((s, 3), (3, s)):
        with pytest.raises(errors.DomainViolation):
            inverse_block_closed(spec, 6, *st, check_overlap=False)


@pytest.mark.parametrize("name", ["ell", "ell_tilde", "r", "r_tilde"])
def test_solve_vectors_reject_indices_outside_1_to_n(ex52, name):
    # s = 0 and s = n + 1 used to wrap round to a block of the other end
    # (or run off the stack)
    sv = SolveVectors(ClosedFormKit(ex52), 6)
    for s in (0, 7):
        with pytest.raises(errors.DomainViolation):
            getattr(sv, name)(s)


def test_region_uncovered():
    # m0 = 2, n = 3: the middle block (2, 2) is in no region
    spec = scalar_ar([0.3, 0.2])
    tab = CoefficientTables(spec)
    blk = inverse_block_closed(spec, 3, 1, 2, tables=tab)
    assert np.isfinite(blk).all()
    with pytest.raises(errors.RegionUncovered):
        inverse_block_closed(spec, 3, 2, 2, tables=tab)


@pytest.mark.parametrize("name", ["d2_ar2", "d2_k1m2_p2"])
def test_dispatcher_takes_first_covering_form(sweep_specs, sweep_tables,
                                              name):
    # m0 = 2, n = 3, K = 0 and K = 1: row 1 lies only in the tilde row
    # region, row 3 in the plain row region, and the middle row's (2, 1)
    # and (2, 3) only in the tilde and plain column regions; each block is
    # its first form to the bit and matches the dense inverse
    spec, tab = sweep_specs[name], sweep_tables[name]
    n, d = 3, spec.d
    sv = SolveVectors(ClosedFormKit(spec), n) if spec.K else None
    forms = {
        "tilde row": (True, lambda s, t: sv.ell_tilde(s) @ sv.r_tilde(t)),
        "plain row": (False, lambda s, t: sv.ell(s) @ sv.r(t)),
        "tilde column": (True, lambda s, t: herm(sv.r_tilde(s))
                         @ herm(sv.ell_tilde(t))),
        "plain column": (False, lambda s, t: herm(sv.r(s))
                         @ herm(sv.ell(t)))}
    first = {(1, 1): "tilde row", (1, 3): "tilde row", (3, 1): "plain row",
             (3, 3): "plain row", (2, 1): "tilde column",
             (2, 3): "plain column"}
    dense = np.linalg.inv(dense_toeplitz_matrix(tab, n, d))
    for (s, t), form in first.items():
        tilde, corr = forms[form]
        want = gram_tilde(tab, s, t) if tilde else gram_plain(tab, n, s, t)
        if spec.K:
            want = corr(s, t) + want
        got = inverse_block_closed(spec, n, s, t, sv=sv, tables=tab)
        assert np.array_equal(got, want), (s, t, form)
        blk = dense[(s - 1) * d:s * d, (t - 1) * d:t * d]
        assert np.abs(got - blk).max() <= 1e-10 * np.abs(dense).max()


@pytest.mark.parametrize("name, tol", [("d2_ar2", 1e-12),
                                       ("d2_k1m2_p2", 1e-11)])
def test_overlap_tolerance_per_K(sweep_specs, sweep_tables, monkeypatch,
                                 name, tol):
    # the cross-check of block (3, 4) at n = 8 (tilde row first, plain row
    # second) passes with the plain Gram off by half its tolerance and
    # raises at twice it: 1e-12 for K = 0, 1e-11 for K >= 1
    spec, tab = sweep_specs[name], sweep_tables[name]
    sv = SolveVectors(ClosedFormKit(spec), 8) if spec.K else None
    blk = inverse_block_closed(spec, 8, 3, 4, sv=sv, tables=tab)
    scale = max(1.0, float(np.abs(blk).max()))
    for factor in (0.5, 2.0):
        monkeypatch.setattr(closed_form, "gram_plain",
                            lambda *args: gram_plain(*args)
                            + factor * tol * scale)
        if factor < 1:
            inverse_block_closed(spec, 8, 3, 4, sv=sv, tables=tab)
        else:
            with pytest.raises(errors.OverlapMismatch):
                inverse_block_closed(spec, 8, 3, 4, sv=sv, tables=tab)


def test_overlap_nan_raises(sweep_specs, sweep_tables, monkeypatch):
    # a NaN in the plain Gram that cross-checks block (3, 4) at n = 8
    # fails the check
    spec, tab = sweep_specs["d2_ar2"], sweep_tables["d2_ar2"]
    monkeypatch.setattr(closed_form, "gram_plain",
                        lambda *args: gram_plain(*args) * np.nan)
    with pytest.raises(errors.OverlapMismatch):
        inverse_block_closed(spec, 8, 3, 4, tables=tab)


def test_inverse_arma_vs_dense(sweep_specs, sweep_tables):
    name = "d2_k2m12"
    spec = sweep_specs[name]
    tab = sweep_tables[name]
    n = 9
    dense = np.linalg.inv(dense_toeplitz_matrix(tab, n, spec.d))
    closed = inverse_matrix_closed(spec, n, tables=tab, check_overlap=True)
    rel = np.abs(closed - dense).max() / np.abs(dense).max()
    assert rel <= 1e-8


def test_self_adjoint_blocks(sweep_specs, sweep_tables):
    name = "d2_k2m11"
    spec = sweep_specs[name]
    tab = sweep_tables[name]
    n = 7
    kit = ClosedFormKit(spec)
    sv = SolveVectors(kit, n)
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            b1 = inverse_block_closed(spec, n, s, t, sv=sv, tables=tab,
                                      check_overlap=False)
            b2 = inverse_block_closed(spec, n, t, s, sv=sv, tables=tab,
                                      check_overlap=False)
            assert np.abs(b1 - b2.conj().T).max() <= 1e-11


def test_b_closed_matches_recursion(sweep_specs, sweep_tables):
    from blocktoeplitz.series_inverse import b_level_1, b_recursion_step
    name = "d2_k2m12"
    spec = sweep_specs[name]
    tab = sweep_tables[name]
    kit = ClosedFormKit(spec)
    n = 7
    for u in range(spec.m0 + 1, n + 1):
        state = b_level_1(tab, n, u, "plain")
        for level in range(1, 5):
            for l in (0, 1, 4):
                want = kit.b_closed(n, u, level, l)
                got = state.coeffs[l]
                assert np.abs(got - want).max() <= 1e-9
            if level < 4:
                state = b_recursion_step(state, tab)
    for u in range(1, n - spec.m0 + 1):
        state = b_level_1(tab, n, u, "tilde")
        for level in range(1, 5):
            for l in (0, 1, 4):
                want = kit.b_tilde_closed(n, u, level, l)
                got = state.coeffs[l]
                assert np.abs(got - want).max() <= 1e-9
            if level < 4:
                state = b_recursion_step(state, tab)
