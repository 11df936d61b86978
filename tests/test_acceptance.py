"""Acceptance gate: every release-blocking criterion as one test, each
printing a single pass line with its measured numbers (run with -s to
see them on success)."""

import time

import numpy as np
from blocktoeplitz.closed_form import (ClosedFormKit, SolveVectors,
                                       inverse_matrix_closed)
from blocktoeplitz.coefficients import CoefficientTables
from blocktoeplitz.fast_solver import solve as fast_solve
from blocktoeplitz.oracle import (convergence_experiment, dense_inverse,
                                  dense_solve, dense_toeplitz,
                                  levinson_solve)
from blocktoeplitz.series_inverse import (b_level_1, b_recursion_step,
                                          inverse_matrix_series)
from blocktoeplitz.synth import random_spec
from blocktoeplitz.util import binom

from helpers import SWEEP_CONFIGS, random_rhs


def _report(num, name, detail):
    print(f"[acceptance] criterion {num} ({name}): PASS  {detail}")


def test_criterion_1_golden_example(ex52, ex52_tables):
    """d = K = 1, h(z) = -(1 - 0.5 z): every path reproduces the worked
    n = 2 inverse and rank-correction data within 1e-10, in under 1 s."""
    t0 = time.perf_counter()
    p, tol = 0.5, 1e-10

    t2 = dense_toeplitz(ex52, 2, ex52_tables).data
    assert np.abs(t2 - np.array([[1.25, -0.5], [-0.5, 1.25]])).max() <= tol

    truth = (1 / 1.3125) * np.array([[1.25, 0.5], [0.5, 1.25]])
    inv_dense = dense_inverse(ex52, 2, ex52_tables).data
    inv_closed = inverse_matrix_closed(ex52, 2, tables=ex52_tables,
                                       check_overlap=True)
    inv_series = inverse_matrix_series(ex52_tables, 2, tol=1e-12)
    for tag, inv in [("dense", inv_dense), ("closed", inv_closed),
                     ("series", inv_series)]:
        assert np.abs(inv - truth).max() <= tol, tag

    sv = SolveVectors(ClosedFormKit(ex52), 2)
    ell_want = np.array([1 + p ** 2, p]) / (p ** 2 * (1 - p ** 6))
    r_want = -p ** 3 * (1 - p ** 2) * np.array([p * (1 + p ** 2), p ** 2])
    ell = np.array([sv.ell(s)[0, 0] for s in (1, 2)])
    r = np.array([sv.r(s)[0, 0] for s in (1, 2)])
    ell_t = np.array([sv.ell_tilde(s)[0, 0] for s in (1, 2)])
    r_t = np.array([sv.r_tilde(s)[0, 0] for s in (1, 2)])
    assert np.abs(ell - ell_want).max() <= tol
    assert np.abs(r - r_want).max() <= tol
    assert np.abs(ell_t - np.conj(ell[::-1])).max() <= tol
    assert np.abs(r_t - np.conj(r[::-1])).max() <= tol

    # rank-correction identities: A~*A~ + l~ r~ = A*A + l r = T_2^{-1}
    at2 = np.array([[1.0, p], [0.0, 1.0]])
    a2 = np.array([[1.0, 0.0], [p, 1.0]])
    lhs_tilde = at2.conj().T @ at2 + np.outer(ell_t, r_t)
    lhs_plain = a2.conj().T @ a2 + np.outer(ell, r)
    assert np.abs(lhs_tilde - truth).max() <= tol
    assert np.abs(lhs_plain - truth).max() <= tol

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "golden example", f"all paths within {tol:g}, "
            f"{elapsed:.2f}s")


def test_criterion_2_oracle_equivalence_sweep(sweep_specs, sweep_tables):
    """20 randomized specs: fast / Levinson / dense pairwise 1e-8 at
    n in {8, 32, 128}; closed and series inverses vs dense at n <= 32
    within 1e-7; all inside 5 minutes."""
    t0 = time.perf_counter()
    worst_solve = 0.0
    worst_inv = 0.0
    for name, *_ in SWEEP_CONFIGS:
        spec = sweep_specs[name]
        tab = sweep_tables[name]
        for n in (8, 32, 128):
            y = random_rhs(n, spec.d, seed=hash(name) % 2 ** 31)
            zd = dense_solve(spec, n, y, tab).z
            zl = levinson_solve(spec, n, y, tab).z
            zf = fast_solve(spec, n, y, tables=tab,
                            compute_residual=False).z
            scale = np.abs(zd).max()
            for pair in (zl - zd, zf - zd, zf - zl):
                dev = np.abs(pair).max() / scale
                worst_solve = max(worst_solve, dev)
                assert dev <= 1e-8, (name, n)
        for n in (8, 32):
            dense = dense_inverse(spec, n, tab).data
            scale = np.abs(dense).max()
            closed = inverse_matrix_closed(spec, n, tables=tab,
                                           check_overlap=False)
            dev_c = np.abs(closed - dense).max() / scale
            series = inverse_matrix_series(tab, n, tol=1e-9)
            dev_s = np.abs(series - dense).max() / scale
            worst_inv = max(worst_inv, dev_c, dev_s)
            assert dev_c <= 1e-7 and dev_s <= 1e-7, (name, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(2, "oracle equivalence sweep",
            f"worst solve dev {worst_solve:.2e}, worst inverse dev "
            f"{worst_inv:.2e}, {elapsed:.1f}s over 20 specs")


def test_criterion_3_beta_triple_path(sweep_specs, sweep_tables):
    """Closed form, series and quadrature values of beta_k agree within
    1e-8 for k = m0+1 .. m0+20 on every sweep spec."""
    worst = 0.0
    for name, *_ in SWEEP_CONFIGS:
        spec = sweep_specs[name]
        tab = sweep_tables[name]
        for k in range(spec.m0 + 1, spec.m0 + 21):
            closed = tab.beta_closed(k)
            series = tab.beta_series(k)
            quad = tab.beta_quadrature(k)
            dev = max(np.abs(closed - series).max(),
                      np.abs(closed - quad).max(),
                      np.abs(series - quad).max())
            worst = max(worst, dev)
            assert dev <= 1e-8, (name, k)
    _report(3, "beta triple-path", f"worst deviation {worst:.2e}")


def test_criterion_4_b_closed_vs_recursion(sweep_specs, sweep_tables):
    """The closed forms of the correction coefficients equal the raw
    recursion within 1e-9 up to depth 4 at n = 12, over the stated
    u-ranges (pole machinery, so K >= 1 specs)."""
    n = 12
    worst = 0.0
    checked = 0
    for name, _, K, *_ in SWEEP_CONFIGS:
        if K == 0:
            continue
        spec = sweep_specs[name]
        tab = sweep_tables[name]
        kit = ClosedFormKit(spec)
        for u in range(spec.m0 + 1, n + 1):
            state = b_level_1(tab, n, u, "plain")
            for level in range(1, 5):
                for ell in (0, 2, 5):
                    want = kit.b_closed(n, u, level, ell)
                    dev = np.abs(state.coeffs[ell] - want).max()
                    worst = max(worst, dev)
                    checked += 1
                    assert dev <= 1e-9, (name, "plain", u, level, ell)
                if level < 4:
                    state = b_recursion_step(state, tab)
        for u in range(1, n - spec.m0 + 1):
            state = b_level_1(tab, n, u, "tilde")
            for level in range(1, 5):
                for ell in (0, 2, 5):
                    want = kit.b_tilde_closed(n, u, level, ell)
                    dev = np.abs(state.coeffs[ell] - want).max()
                    worst = max(worst, dev)
                    checked += 1
                    assert dev <= 1e-9, (name, "tilde", u, level, ell)
                if level < 4:
                    state = b_recursion_step(state, tab)
    _report(4, "b closed vs recursion",
            f"{checked} comparisons, worst {worst:.2e}")


def test_criterion_5_summation_identities(sweep_specs):
    """The generating-function summation identity holds within 1e-9 for
    100 random (n, i, j, x, y); the Phi entries match a 10^4-term direct
    series within 1e-9."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(-6, 7))
        i = int(rng.integers(0, 4))
        j = int(rng.integers(0, 4))
        x = rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform())
        y = rng.uniform(0.1, 0.9) * np.exp(2j * np.pi * rng.uniform())
        lhs = sum(binom(n + l, i) * binom(j + l, j) * x ** (n + l - i)
                  * y ** l for l in range(10_000))
        rhs = sum(binom(j, r) * binom(r + q, q) * binom(n + r, i - q)
                  * x ** (n + r + q - i) * y ** (r + q)
                  / (1 - x * y) ** (r + q + 1)
                  for q in range(i + 1) for r in range(j + 1))
        dev = abs(lhs - rhs) / max(1.0, abs(rhs))
        worst = max(worst, dev)
        assert dev <= 1e-9, (n, i, j, x, y)

    spec = sweep_specs["d2_k2m12"]
    kit = ClosedFormKit(spec)
    worst_phi = 0.0
    for n in (-4, -1, 0, 3, 9):
        phi = kit.phi_scalars([n], scaled=False)[0]
        for qr, (mu, i) in enumerate(kit.slots):
            for qc, (nu, j) in enumerate(kit.slots):
                p, pb = spec.poles[mu], np.conj(spec.poles[nu])
                series = sum(binom(l - n, i - 1) * binom(l + j - 1, j - 1)
                             * p ** (l - i + 1 - n) * pb ** l
                             for l in range(10_000))
                dev = abs(phi[qr, qc] - series) / max(1.0, abs(series))
                worst_phi = max(worst_phi, dev)
                assert dev <= 1e-9, (n, i, j)
    _report(5, "summation identities",
            f"identity worst {worst:.2e}, Phi worst {worst_phi:.2e}")


def test_criterion_6_strong_convergence(ex52, sweep_specs, sweep_tables):
    """For three specs with geometric right-hand sides the l1 deviation
    from the infinite solution at n = 128 is at most 1e-3 of its value
    at n = 8, in under a minute."""
    t0 = time.perf_counter()
    cases = [
        ("ex52", ex52, None, 0.6),
        ("d2_k2m12", sweep_specs["d2_k2m12"], sweep_tables["d2_k2m12"], 0.5),
        ("d1_ar2", sweep_specs["d1_ar2"], sweep_tables["d1_ar2"], 0.55),
    ]
    ratios = []
    for name, spec, tab, decay in cases:
        ks = np.arange(1, 256)
        y = (decay ** ks)[:, None, None] * np.eye(spec.d)
        rep = convergence_experiment(spec, y, [8, 128], tables=tab)
        ratio = rep.deltas[-1] / rep.deltas[0]
        ratios.append(ratio)
        assert ratio <= 1e-3, (name, rep.deltas)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, "strong convergence",
            f"delta(128)/delta(8) = {[f'{r:.1e}' for r in ratios]}, "
            f"{elapsed:.1f}s")


def test_criterion_7_linear_time_scaling():
    """Median wall-clock of the fast solve satisfies t(2n)/t(n) <= 2.6
    across n = 2^14, 2^15, 2^16 on a fixed d=2, K=2 spec."""
    spec = random_spec(d=2, K=2, mults=(1, 1), m0=0,
                       rng=np.random.default_rng(12))
    tab = CoefficientTables(spec)
    rng = np.random.default_rng(99)
    medians = {}
    for n in (2 ** 14, 2 ** 15, 2 ** 16):
        y = (rng.standard_normal((n, 2, 2))
             + 1j * rng.standard_normal((n, 2, 2)))
        fast_solve(spec, n, y, tables=tab)      # warm-up
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fast_solve(spec, n, y, tables=tab)
            times.append(time.perf_counter() - t0)
        medians[n] = float(np.median(times))
    r1 = medians[2 ** 15] / medians[2 ** 14]
    r2 = medians[2 ** 16] / medians[2 ** 15]
    assert r1 <= 2.6 and r2 <= 2.6, medians
    _report(7, "linear-time scaling",
            f"t ratios {r1:.2f}, {r2:.2f} "
            f"(medians {[f'{medians[k]*1e3:.0f}ms' for k in medians]})")


def test_criterion_8_self_adjoint_and_overlap(sweep_specs, sweep_tables):
    """Self-adjointness block(s,t) = block(t,s)* and agreement of the
    overlapping regional formulas within 1e-11 on every sweep spec."""
    worst_sa = 0.0
    n = 10
    for name, *_ in SWEEP_CONFIGS:
        spec = sweep_specs[name]
        tab = sweep_tables[name]
        # check_overlap=True re-evaluates every block from a second
        # region where one exists and raises above 1e-11 (1e-12 for AR)
        inv = inverse_matrix_closed(spec, n, tables=tab,
                                    check_overlap=True)
        sa = np.abs(inv - inv.conj().T).max() / max(1.0, np.abs(inv).max())
        worst_sa = max(worst_sa, sa)
        assert sa <= 1e-11, name
    _report(8, "self-adjointness and region overlap",
            f"worst hermitian deviation {worst_sa:.2e} at n = {n}")
