import tracemalloc

import numpy as np
import pytest

from blocktoeplitz import errors, fast_solver
from blocktoeplitz.closed_form import ClosedFormKit, SolvePlan
from blocktoeplitz.coefficients import CoefficientTables
from blocktoeplitz.fast_solver import (apply_A, apply_A_adjoint,
                                       apply_A_gram, apply_Q,
                                       apply_Q_adjoint, solve)
from blocktoeplitz.oracle import dense_solve
from blocktoeplitz.synth import random_spec, scalar_single_pole
from blocktoeplitz.util import binom

from helpers import dense_toeplitz_matrix, random_rhs


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


def warm_d3_spec():
    """The shape of the d = 3 warm benchmark spec: mults (2, 2), m0 = 2."""
    return random_spec(d=3, K=2, mults=(2, 2), m0=2,
                       rng=np.random.default_rng(0))


T = fast_solver._CHUNK

APPLY_SPECS = {
    "warm_d3": warm_d3_spec,
    "mult3": lambda: random_spec(d=2, K=1, mults=(3,), m0=1,
                                 rng=np.random.default_rng(31)),
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
    from blocktoeplitz.blockarray import (gram, lower_block_toeplitz,
                                          upper_block_toeplitz)
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


@pytest.mark.parametrize("variant", ["tilde", "plain"])
def test_gram_memory_bound(variant):
    # the applies hold a chunk stack and their outputs, each about the
    # size of Y, never a buffer of one copy of Y per band shift and slot
    spec = warm_d3_spec()
    n = 4096
    y = random_rhs(n, spec.d, seed=30)
    apply_A_gram(spec, n, y, variant)
    tracemalloc.start()
    try:
        apply_A_gram(spec, n, y, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * y.nbytes


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
])
def test_solve_dense_oracle(sweep_specs, sweep_tables, name, n):
    if name == "pole095":
        spec = scalar_single_pole(0.95)
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


@pytest.mark.parametrize("n, segments", [(899, 2), (1803, 3), (500, 1)])
def test_overlap_save_residual_vs_dense(ex52, ex52_tables, n, segments):
    # ex52 has L = 63 and nfft = 1024, so a segment steps 898 blocks:
    # n = step + 1 and 2 step + 7 leave a ragged last segment, and at
    # n = 500 one segment covers n + 2L
    rng = np.random.default_rng(n)
    z, y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for _ in range(2))
    resid, tail, counters = fast_solver._residual_banded(
        ex52_tables, z.reshape(1, 1, n), y.reshape(1, 1, n))
    assert counters == {"residual_band": 63, "residual_nfft": 1024,
                        "residual_segments": segments}
    dense = np.linalg.norm(dense_toeplitz_matrix(ex52_tables, n, 1) @ z - y)
    assert abs(resid - dense) <= 1e-12 * dense
    assert tail <= 1e-12 * np.linalg.norm(z)


def test_residual_transform_independent_of_n(ex52, ex52_tables):
    # overlap-save: the transform size is set by the band, not by n
    reps = [solve(ex52, n, random_rhs(n, 1, seed=n), tables=ex52_tables)
            for n in (1 << 12, 1 << 15)]
    assert reps[0].counters["residual_nfft"] == \
        reps[1].counters["residual_nfft"] == 1024
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
    # the band holds all of T_8; what remains is its aliasing error
    assert 0 < rep.residual_tail_bound <= 1e-12 * np.linalg.norm(rep.z)
    assert 0 <= rep.spectral_radius < 1
    assert set(rep.timings) == {"plan", "gram", "assembly", "overlap",
                                "residual"}
    assert min(rep.timings.values()) >= 0
    assert sum(rep.timings.values()) <= rep.seconds
    assert rep.extras["plan_reused"] is False
    plan = rep.counters.pop("plan_bytes")
    lam = rep.counters.pop("lambda_terms")
    nodes = rep.counters.pop("table_nodes")
    assert plan > 0 and lam > 0 and rep.counters == {
        "overlap_rows": rep.overlap_checked, "gram_chunk": fast_solver._CHUNK,
        "residual_band": 7, "residual_nfft": 32, "residual_segments": 1}
    # the residual read its band off the gamma table's transforms
    assert set(nodes) == {"c", "c_tilde", "gamma"} and nodes["gamma"]
    assert all(N >= 64 and N & (N - 1) == 0
               for sizes in nodes.values() for N in sizes)


def test_warm_solve_reuses_plan(sweep_specs, sweep_tables, monkeypatch):
    spec = sweep_specs["d2_k2m12"]
    tab = sweep_tables["d2_k2m12"]
    n = 48
    y = random_rhs(n, spec.d, seed=19)
    kit = ClosedFormKit(spec)
    first = solve(spec, n, y, tables=tab, kit=kit)
    calls = []
    slot_scalars = ClosedFormKit.slot_scalars
    monkeypatch.setattr(ClosedFormKit, "slot_scalars",
                        lambda self, *a, **k: calls.append(a) or
                        slot_scalars(self, *a, **k))
    warm = solve(spec, n, y, tables=tab, kit=kit)
    assert calls == [] and warm.extras["plan_reused"]
    assert not first.extras["plan_reused"]
    fresh = solve(spec, n, y, tables=tab, kit=ClosedFormKit(spec))
    assert calls                    # the fresh kit had to build its plan
    np.testing.assert_array_equal(warm.z, fresh.z)


def test_plan_memo_holds_last_order(sweep_specs, sweep_tables):
    spec = sweep_specs["d2_k2m12"]
    tab = sweep_tables["d2_k2m12"]
    kit = ClosedFormKit(spec)
    for n in (48, 40):
        rep = solve(spec, n, random_rhs(n, spec.d, seed=n), tables=tab,
                    kit=kit)
        assert not rep.extras["plan_reused"]
        plans = [v for v in vars(kit).values() if isinstance(v, SolvePlan)]
        assert [p.n for p in plans] == [n]


def test_plan_scalars_are_the_vector_blocks():
    # xi, heads and diff, contracted with the ext stacks, are the blocks
    # of v_m, v~_m and of hat-w - hat-v and its tilde partner
    spec = warm_d3_spec()               # d = 3, mults (2, 2), m0 = 2
    kit = ClosedFormKit(spec)
    n, m0, M = 40, spec.m0, kit.M
    plan = kit.plan(n)
    ms = np.arange(1, n + 1)
    v = kit.vectors("v", ms)
    v_hat = kit.vectors("v", ms, scaled=True)
    w_hat = kit.vectors("w", ms, scaled=True)
    xi = np.zeros(plan.heads.shape[:2] + (n - m0,), dtype=complex)
    xi[:, :M] = plan.xi
    for side, ext in enumerate((kit.ext_stack, kit.ext_tilde_stack)):
        conj = np.conj if side else np.asarray
        for scal, want in ((plan.heads, v[side][:m0]),
                           (xi, v[side][m0:]),
                           (plan.diff, (w_hat[side] - v_hat[side])[:n - m0])):
            got = np.einsum("qem,eab->mqab", conj(scal), ext)
            np.testing.assert_allclose(got.reshape(want.shape), want,
                                       rtol=1e-12, atol=1e-14)


def test_plan_size_does_not_grow_with_d():
    # the plan keeps O(n M^2) slot scalars, not O(n M d^2) blocks
    n = 512
    size = {}
    for d in (1, 3):
        spec = random_spec(d=d, K=2, mults=(2, 2), m0=2,
                           rng=np.random.default_rng(d))
        rep = solve(spec, n, random_rhs(n, d, seed=d))
        size[d] = rep.counters["plan_bytes"]
    assert size[1] <= size[3] <= 1.1 * size[1]


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
    gram = fast_solver._gram

    def perturbed(op, y):
        # time-last (d, r, n) blocks; A_n, the plain factor, is lower
        out = gram(op, y)
        return out if op.upper else out + delta * np.eye(spec.d)[..., None]

    monkeypatch.setattr(fast_solver, "_gram", perturbed)
    if fails:
        with pytest.raises(errors.OverlapMismatch):
            solve(spec, n, y, tables=tab)
    else:
        assert solve(spec, n, y, tables=tab).overlap_max_dev <= 1e-12


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
    gram = fast_solver._gram

    def perturbed(op, y):
        out = gram(op, y)
        if not op.upper:                # the plain rows, time-last
            out = out.copy()
            out[0, 0] += frac * 1e-9 * norms
        return out

    monkeypatch.setattr(fast_solver, "_gram", perturbed)
    if frac > 1:
        with pytest.raises(errors.OverlapMismatch):
            solve(spec, n, y, tables=tab)
    else:
        dev = solve(spec, n, y, tables=tab).overlap_max_dev
        assert 0.89e-9 <= dev <= 0.91e-9
