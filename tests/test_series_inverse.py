from dataclasses import replace

import numpy as np
import pytest

from blocktoeplitz import errors, series_inverse
from blocktoeplitz.coefficients import CoefficientTables, RawTables
from blocktoeplitz.series_inverse import (SeriesInverter, b_level_1,
                                          b_recursion_step, first_term_gram,
                                          inverse_block_series,
                                          inverse_matrix_series)
from blocktoeplitz.synth import identity_spec

from helpers import dense_toeplitz_matrix, warm_d3_spec


def test_identity_levels_vanish():
    tab = CoefficientTables(identity_spec(2))
    state = b_level_1(tab, 4, 2, "tilde")
    assert state.l1() == 0.0
    state = b_recursion_step(state, tab)
    assert state.l1() == 0.0


def test_level_norm_bound(sweep_tables):
    # Sigma_l ||b~^k|| <= F(n+1)^{k-1} F(n+1-u), and the plain mirror
    tab = sweep_tables["d2_k2m12"]
    F = tab.decay_bound_F
    n = 6
    for variant, first in (("tilde", lambda u: F(n + 1 - u)),
                           ("plain", lambda u: F(u))):
        for u in (1, 3, n):
            state = b_level_1(tab, n, u, variant)
            for level in range(2, 7):
                state = b_recursion_step(state, tab)
                bound = F(n + 1) ** (level - 1) * first(u)
                assert state.l1() <= bound * (1 + 1e-9) + 1e-12


def test_b1_is_beta_slice(ex52_tables):
    n, u = 5, 2
    state = b_level_1(ex52_tables, n, u, "plain")
    np.testing.assert_allclose(state.coeffs[0], ex52_tables.beta(u))
    np.testing.assert_allclose(state.coeffs[3], ex52_tables.beta(u + 3))
    state_t = b_level_1(ex52_tables, n, u, "tilde")
    np.testing.assert_allclose(state_t.coeffs[0],
                               ex52_tables.beta(n + 1 - u).conj().T)


def test_identity_inverse():
    tab = CoefficientTables(identity_spec(2))
    inv = inverse_matrix_series(tab, 3, tol=1e-12)
    np.testing.assert_allclose(inv, np.eye(6), atol=1e-14)


def test_golden_inverse_both_variants(ex52_tables):
    truth = (1 / 1.3125) * np.array([[1.25, 0.5], [0.5, 1.25]])
    for variant in ("tilde", "plain"):
        inv = inverse_matrix_series(ex52_tables, 2, tol=1e-12,
                                    variant=variant)
        assert np.abs(inv - truth).max() <= 1e-10


def test_first_term_gram_matches_infinite_inverse(ex52_tables):
    # for s <= t the tilde Gram equals the (s, t) block of the infinite
    # inverse; with a_k = 0.5^k that is sum_{l>=0} 0.5^{2l+t-s} over the
    # first min(s, t) terms
    for (s, t) in [(1, 1), (2, 5), (3, 3)]:
        got = first_term_gram(ex52_tables, 9, s, t, "tilde")[0, 0]
        want = sum(0.5 ** (s - l) * 0.5 ** (t - l)
                   for l in range(1, min(s, t) + 1))
        assert got == pytest.approx(want)


def test_matches_dense_random_d2(sweep_specs, sweep_tables):
    name = "d2_k2m12"
    tab = sweep_tables[name]
    n = 6
    dense = np.linalg.inv(dense_toeplitz_matrix(tab, n, 2))
    for variant in ("tilde", "plain"):
        inv = inverse_matrix_series(tab, n, tol=1e-11, variant=variant)
        assert np.abs(inv - dense).max() <= 1e-8


def test_assembled_inverse_times_t_is_identity(sweep_tables):
    tab = sweep_tables["d3_k2m11"]
    n = 16
    t_mat = dense_toeplitz_matrix(tab, n, 3)
    inv = inverse_matrix_series(tab, n, tol=1e-10)
    dev = np.linalg.norm(inv @ t_mat - np.eye(n * 3))
    assert dev <= 1e-7


def test_variant_agreement_and_self_adjoint(sweep_tables):
    tab = sweep_tables["d3_k2m12"]
    n = 5
    si = SeriesInverter(tab, n, tol=1e-11)
    for s in range(1, n + 1):
        for t in range(s, n + 1):
            b_i = si.block(s, t, "tilde")
            b_ii = si.block(s, t, "plain")
            assert np.abs(b_i - b_ii).max() <= 2e-11
            b_ts = si.block(t, s, "tilde")
            assert np.abs(b_i - b_ts.conj().T).max() <= 1e-10


def test_halving_tol_never_hurts(ex52_tables):
    dense = np.linalg.inv(dense_toeplitz_matrix(ex52_tables, 6, 1))
    errs = []
    for tol in (1e-4, 5e-5, 2.5e-5, 1e-8):
        inv = inverse_matrix_series(ex52_tables, 6, tol=tol)
        errs.append(np.abs(inv - dense).max())
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-15


def test_divergent_recursion_raises(ex52_tables):
    class InflatedF:
        """Tables proxy whose F never contracts."""

        def __init__(self, base):
            self.base = base
            self.d = base.d

        def __getattr__(self, item):
            return getattr(self.base, item)

        def decay_bound_F(self, n):
            return 1.5

    proxy = InflatedF(ex52_tables)
    with pytest.raises(errors.DivergentRecursion):
        SeriesInverter(proxy, 4, tol=1e-8)
    state = b_level_1(ex52_tables, 4, 1, "plain")
    with pytest.raises(errors.DivergentRecursion):
        b_recursion_step(state, proxy)


def test_raw_tables_inverse(ex52, ex52_tables):
    raw = RawTables(
        d=1,
        a=[ex52_tables.a(k) for k in range(200)],
        a_tilde=[ex52_tables.a_tilde(k) for k in range(200)],
        beta={k: ex52_tables.beta(k) for k in range(1, 400)},
        F=ex52_tables.decay_bound_F,
    )
    truth = (1 / 1.3125) * np.array([[1.25, 0.5], [0.5, 1.25]])
    inv = inverse_matrix_series(raw, 2, tol=1e-10)
    assert np.abs(inv - truth).max() <= 1e-9


def test_single_block_api(ex52_tables):
    blk = inverse_block_series(ex52_tables, 2, 1, 2, tol=1e-11)
    assert blk[0, 0] == pytest.approx(0.5 / 1.3125, abs=1e-10)


@pytest.mark.parametrize("variant", ["tilde", "plain"])
def test_matrix_advances_every_u_in_one_step_per_level(sweep_tables,
                                                       monkeypatch, variant):
    # the levels of every u advance together: one step per level, so the
    # deepest u's 2 depth levels take 2 depth - 1 steps in all
    tab = sweep_tables["d2_k2m12"]
    n = 8
    steps = []
    step = series_inverse.b_recursion_step

    def counted(state, tables):
        out = step(state, tables)
        steps.append((out.level, len(out.u)))
        return out

    monkeypatch.setattr(series_inverse, "b_recursion_step", counted)
    SeriesInverter(tab, n, tol=1e-10).matrix(variant)
    levels = [level for level, _ in steps]
    assert levels == list(range(2, len(steps) + 2))
    assert len(steps) % 2 == 1 and len(steps) >= 3
    # every u starts; a u whose depth is reached drops out
    counts = [count for _, count in steps]
    assert counts[0] == n and counts[-1] < n
    assert counts == sorted(counts, reverse=True)


@pytest.mark.parametrize("variant", ["tilde", "plain"])
def test_levels_of_an_array_of_u_match_one_u_at_a_time(variant):
    # at n = 12 the level-1 horizons of this spec differ across u
    tab = CoefficientTables(warm_d3_spec())
    n = 12
    us = np.arange(1, n + 1)
    bulk = b_level_1(tab, n, us, variant)
    singles = [b_level_1(tab, n, int(u), variant) for u in us]
    # so the padding below is exercised
    assert len({len(one.coeffs) for one in singles}) > 1
    for level in range(1, 5):
        for i, one in enumerate(singles):
            L = len(one.coeffs)
            scale = np.abs(one.coeffs).max()
            assert np.abs(bulk.coeffs[i, :L] - one.coeffs).max() \
                <= 1e-15 * scale
            if level == 1:
                assert not bulk.coeffs[i, L:].any()
            assert bulk.tail[i] == pytest.approx(one.tail, rel=1e-15)
            assert bulk.l1()[i] == pytest.approx(one.l1(), rel=1e-15)
        bulk = b_recursion_step(bulk, tab)
        singles = [b_recursion_step(one, tab) for one in singles]


@pytest.mark.parametrize("u", [5, np.arange(1, 9)], ids=["one", "array"])
def test_each_level_takes_its_spectral_norms_once(sweep_tables, monkeypatch,
                                                  u):
    # one batched 2-norm per level: l1() reads the sum that the level's
    # bound check took, which is the sum taken afresh, to the bit
    tab = sweep_tables["d2_k2m12"]
    norm, calls = np.linalg.norm, []

    def counted(x, ord=None, *args, **kwargs):
        calls.append(ord)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    state = b_level_1(tab, 8, u, "plain")
    assert calls.count(2) == 1
    for level in range(2, 6):
        state.l1()
        state = b_recursion_step(state, tab)
        assert calls.count(2) == level
    fresh = norm(state.coeffs, 2, axis=(-2, -1)).sum(axis=-1)
    assert np.array_equal(state.l1(), fresh + state.tail)


def test_one_u_past_its_bound_raises(sweep_tables):
    tab = sweep_tables["d2_k2m12"]
    n = 8
    state = b_level_1(tab, n, np.arange(1, n + 1), "plain")
    b_recursion_step(state, tab)        # every u within its bound
    coeffs = state.coeffs.copy()
    coeffs[3] *= 10.0
    with pytest.raises(errors.NumericalError, match="u = 4 "):
        b_recursion_step(replace(state, coeffs=coeffs), tab)


def test_unreachable_tolerance_raises(sweep_tables, monkeypatch):
    tab = sweep_tables["d2_k2m12"]
    # the depth is reachable, but the level tails alone exceed the tol
    with pytest.raises(errors.ToleranceUnreachable,
                       match="accumulated error bound"):
        SeriesInverter(tab, 8, tol=1e-18).block(1, 8)
    monkeypatch.setattr(series_inverse, "_DEPTH_CAP", 1)
    with pytest.raises(errors.ToleranceUnreachable, match="depth cap"):
        SeriesInverter(tab, 8, tol=1e-10).matrix("plain")


def test_nan_error_bound_raises(sweep_tables):
    # a NaN in the accumulated error bound fails the tolerance test
    inv = SeriesInverter(sweep_tables["d2_k2m12"], 8, tol=1e-10)
    inv.block(1, 8)
    store, err = inv._stores["tilde"]
    inv._stores["tilde"] = (store, np.full_like(err, np.nan))
    with pytest.raises(errors.ToleranceUnreachable,
                       match="accumulated error bound"):
        inv.block(1, 8)


def test_nan_decay_bound_raises(ex52, monkeypatch):
    # a NaN bound F fails every certificate test it meets, each with the
    # error of its branch, instead of passing it or cutting a horizon
    tab = CoefficientTables(ex52)
    state = b_level_1(tab, 4, 1, "plain")
    monkeypatch.setattr(tab, "decay_bound_F", lambda k: np.nan)
    with pytest.raises(errors.DivergentRecursion):
        SeriesInverter(tab, 4, tol=1e-8)
    with pytest.raises(errors.DivergentRecursion):
        b_recursion_step(state, tab)
    with pytest.raises(errors.ToleranceUnreachable, match="NaN|nan"):
        b_level_1(tab, 4, 1, "plain")


def test_nan_level_fails_its_bound(sweep_tables, monkeypatch):
    # a NaN level l1 norm does not pass its certified bound
    tab = sweep_tables["d2_k2m12"]
    state = b_level_1(tab, 8, np.arange(1, 9), "plain")
    monkeypatch.setattr(series_inverse, "_norm_sums",
                        lambda coeffs: np.full(coeffs.shape[:-3], np.nan))
    with pytest.raises(errors.NumericalError, match="certified bound"):
        b_recursion_step(state, tab)
