"""General explicit inverse of T_n(w) as a Gram sum plus an alternating
correction series.

This is the reference path: it needs only the sequences a, a~, beta and
the decay majorant F, so it applies to any minimal symbol whose tables
the caller can produce (rational symbols get them from
CoefficientTables; anything else can come in through RawTables at the
caller's own risk). Truncation is certified whenever F(n+1) < 1: the
level-k coefficient sequences are dominated by F(n+1)^{k-1} F(first),
which both bounds the inner sums and closes the depth loop with a
geometric remainder. When F(n+1) >= 1 nothing is certified, and the
path refuses with DivergentRecursion; a depth loop that reaches
_DEPTH_CAP, or a block whose error bound exceeds tol, raises
ToleranceUnreachable.

The corrections of every (u, s) of one variant are one store, built on
its first block: the levels of every u advance together, one Hankel
product per level, and each level meets the a or a~ windows of every s
in one product.

Block indices s, t, u are 1-based.
"""

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import errors
from .closed_form import gram_plain, gram_tilde
from .util import herm

_REL_TOL = 1e-13
_DEPTH_CAP = 64
_LEVEL_CAP = 6000


def first_term_gram(tables, n, s, t, variant="tilde"):
    """The triangular Gram term: (A~*A~)^{s,t} for variant 'tilde',
    (A*A)^{s,t} for variant 'plain' (exact finite sums)."""
    if variant == "tilde":
        return gram_tilde(tables, s, t)
    if variant == "plain":
        return gram_plain(tables, n, s, t)
    raise ValueError("variant must be 'tilde' or 'plain'")


@dataclass
class BRecursionState:
    """One level of the correction-coefficient recursion, for one u or
    for a 1-D array of u.

    coeffs[l] approximates b^{level}_{n,u,l} for l < len(coeffs); `tail`
    is a certified upper bound on sum_{l >= len(coeffs)} ||b_l|| plus the
    accumulated truncation error of the inner sums, so
    sum_l ||true b_l|| <= l1() always holds. `norms` is sum_l
    ||coeffs[l]||_2, taken once when the level is made. For an array of
    u, each field is per u, and a u's entries past its level-1 horizon
    are zero.
    """

    n: int
    u: int                  # or a 1-D array of u
    variant: str            # 'plain' (b) or 'tilde' (b~)
    level: int
    coeffs: np.ndarray      # (L, d, d), or (U, L, d, d)
    tail: float             # or (U,)
    norms: float            # or (U,)

    def l1(self):
        return self.norms + self.tail


def _norm_sums(coeffs):
    """sum_l ||coeffs[..., l, :, :]||_2 over a (..., L, d, d) stack."""
    return np.linalg.norm(coeffs, 2, axis=(-2, -1)).sum(axis=-1)


def _horizon(F, base, target, cap=_LEVEL_CAP):
    """Smallest L (up to cap) with F(base + L) <= target;
    ToleranceUnreachable if a bound or the target is NaN."""
    L = 1
    while not (f := F(base + L)) <= target and L < cap:
        if np.isnan(f + target):
            raise errors.ToleranceUnreachable(
                f"decay bound F({base + L}) = {f} against target {target}")
        L = int(L * 1.6) + 1
    return min(L, cap)


def _windows(stack, w):
    """Every run of w consecutive entries of a (m, d, d) stack as one
    (w d, d) block column: a (m - w + 1, w d, d) view, not a copy."""
    d = stack.shape[-1]
    return sliding_window_view(np.ascontiguousarray(stack), w, axis=0) \
        .transpose(0, 3, 1, 2).reshape(-1, w * d, d)


def _first(n, u, variant):
    """u (plain) or n + 1 - u (tilde): where level 1 of u starts."""
    if variant not in ("plain", "tilde"):
        raise ValueError("variant must be 'plain' or 'tilde'")
    return u if variant == "plain" else n + 1 - u


def b_level_1(tables, n, u, variant):
    """Start of the recursion: b^1_l = beta_{u+l} (plain) or
    b~^1_l = beta*_{n+1-u+l} (tilde), for one u or a 1-D array of u,
    each to its own horizon."""
    F = tables.decay_bound_F
    base = np.atleast_1d(_first(n, np.asarray(u), variant))
    horizons = np.array([_horizon(F, b, _REL_TOL * max(F(b), 1e-300))
                         for b in base.tolist()])
    ls = np.arange(horizons.max())
    beta = tables.beta_stack(int(base.max() + ls[-1]))
    coeffs = np.where((ls < horizons[:, None])[..., None, None],
                      beta[base[:, None] - 1 + ls], 0.0)
    if variant == "tilde":
        coeffs = herm(coeffs)
    tail = np.array([F(b) for b in (base + horizons).tolist()])
    norms = _norm_sums(coeffs)
    if np.ndim(u) == 0:
        coeffs, tail, norms = coeffs[0], float(tail[0]), float(norms[0])
    return BRecursionState(n=n, u=u, variant=variant, level=1,
                           coeffs=coeffs, tail=tail, norms=norms)


def b_recursion_step(state, tables):
    """Advance one level: contract the current coefficients of every u
    against the shifted beta (or beta*) sequence, one Hankel product.

    Refuses with DivergentRecursion when F(n+1) >= 1, since the level
    bound F(n+1)^{k-1} F(first) then certifies nothing, and raises
    NumericalError when the new level of any u breaks that bound.
    """
    n = state.n
    F = tables.decay_bound_F
    contraction = F(n + 1)
    if not contraction < 1.0:       # written so that a NaN fails it
        raise errors.DivergentRecursion(
            f"F(n+1) = {contraction:.4f} >= 1 at n = {n}")
    new_level = state.level + 1
    # plain: even levels contract against beta*, odd against beta;
    # tilde: the mirror image
    conj = (new_level % 2 == 0) if state.variant == "plain" \
        else (new_level % 2 == 1)
    us = np.atleast_1d(state.u)
    coeffs = state.coeffs.reshape(len(us), *state.coeffs.shape[-3:])
    U, M, d, _ = coeffs.shape
    L_out = _horizon(F, n + 1, _REL_TOL * max(contraction, 1e-300))
    # out[l] = sum_m coeffs[m] beta^{(*)}_{n+1+m+l}, beta_k at stack[k - 1]
    bet = tables.beta_stack(n + M + L_out - 1)[n:n + M + L_out - 1]
    out = coeffs.transpose(0, 2, 1, 3).reshape(U * d, M * d) @ _windows(
        herm(bet) if conj else bet, M)
    out = out.reshape(L_out, U, d, d).transpose(1, 0, 2, 3)
    # tail: beyond L_out plus the inner-sum truncation carried in state.tail
    tail = state.l1() * F(n + 1 + L_out) + state.tail * contraction
    bound = contraction ** (new_level - 1) * np.array(
        [F(f) for f in _first(n, us, state.variant).tolist()])
    norms = _norm_sums(out)
    l1 = norms + tail
    bad = ~(l1 <= bound * (1.0 + 1e-6) + 1e-12)     # a NaN level is bad
    if bad.any():
        i = bad.argmax()
        raise errors.NumericalError(
            f"level {new_level} l1 norm {l1[i]:.3e} of u = {us[i]} "
            f"exceeds its certified bound {bound[i]:.3e}")
    if np.ndim(state.u) == 0:
        out, tail, norms = out[0], float(tail), float(norms[0])
    return BRecursionState(n=n, u=state.u, variant=state.variant,
                           level=new_level, coeffs=out, tail=tail,
                           norms=norms)


def _as_tables(source):
    """Accept a symbol spec or a ready-made tables object."""
    if hasattr(source, "decay_bound_F"):
        return source
    from .coefficients import CoefficientTables
    return CoefficientTables(source)


class SeriesInverter:
    """Assembles inverse blocks of T_n(w) from coefficient tables (or a
    symbol spec, which gets wrapped). The corrections of one variant
    are built on its first block request and kept for the rest."""

    def __init__(self, tables, n, tol=1e-10):
        self.tables = tables = _as_tables(tables)
        self.n = n
        self.tol = float(tol)
        self.d = tables.d
        # variant -> (adjointed corrections, one error bound per u)
        self._stores = {}
        self._contraction = tables.decay_bound_F(n + 1)
        tail0 = getattr(tables, "a_tail", None)
        self._supcoef = max(tail0(0) if tail0 is not None
                            else tables.decay_bound_F(0), 1e-300)
        if not self._contraction < 1.0:     # a NaN fails it
            raise errors.DivergentRecursion(
                f"F(n+1) = {self._contraction:.4f} >= 1: certified "
                "truncation unavailable")

    def _store(self, variant):
        """The corrections sum_k { sum_l b^{2k-1} x + sum_l b^{2k} y } of
        every (u, s) as one (n, d, n d) array, whose [s - 1, :, (u - 1) d:
        u d] is the adjoint of the (u, s) one, and one error bound per u.
        Each u's depth is set by the geometric level bound, then it stops."""
        n, d, tables = self.n, self.d, self.tables
        c, sup = self._contraction, self._supcoef
        us = np.arange(1, n + 1)
        first = np.array([tables.decay_bound_F(f)
                          for f in _first(n, us, variant).tolist()])
        ks = np.arange(1, _DEPTH_CAP + 1)
        remaining = first[:, None] * c ** (2 * ks) / (1.0 - c) * sup
        done = remaining <= 0.25 * self.tol / max(n * sup, 1e-300)
        if not done[:, -1].all():
            raise errors.ToleranceUnreachable(
                f"depth cap {_DEPTH_CAP} reached with remainder bound "
                f"{remaining[:, -1].max():.3e} > tolerance share")
        depth = done.argmax(axis=1) + 1
        acc, err = np.zeros((n, n, d, d), np.complex128), np.zeros(n)
        state = b_level_1(tables, n, us, variant)
        for k in range(1, int(depth.max()) + 1):
            if k > 1:
                live = depth[state.u - 1] >= k
                state = b_recursion_step(replace(
                    state, u=state.u[live], coeffs=state.coeffs[live],
                    tail=state.tail[live], norms=state.norms[live]),
                    tables)
            pair = 0.0
            for odd in (True, False):
                if not odd:
                    state = b_recursion_step(state, tables)
                # tilde: odd levels meet a at n + 1 - s, even a~ at s;
                # plain: the mirror image
                tilde = odd != (variant == "tilde")
                U, L = state.coeffs.shape[:2]
                win = _windows(tables.a_stack(n + L - 1, tilde), L)
                pair = pair + (state.coeffs.transpose(0, 2, 1, 3)
                               .reshape(U * d, L * d)
                               @ (win[1:n + 1] if tilde else win[n:0:-1]))
                err[state.u - 1] += state.tail * sup
            acc[:, state.u - 1] += pair.reshape(n, U, d, d)
        err += remaining[us - 1, depth - 1]
        return herm(acc.reshape(n, n * d, d)), err

    def _column(self, rows, t, variant):
        """Blocks (s, t) for s in the 1-based array rows, as one
        (len(rows), d, d) array: the Gram terms plus one contraction of
        the store over the u the variant sums over, u <= t against a~
        (tilde) or u >= t against a (plain)."""
        n, d = self.n, self.d
        if variant not in self._stores:
            self._stores[variant] = self._store(variant)
        store, err = self._stores[variant]
        tilde = variant == "tilde"
        lo, hi = (0, t) if tilde else (t - 1, n)
        # a~_{t-u} for u = 1..t, or a_{u-t} for u = t..n
        coefs = self.tables.a_stack(n, tilde)[:hi - lo][::-1 if tilde else 1]
        bound = float(err[lo:hi] @ np.linalg.norm(coefs, 2, axis=(-2, -1)))
        if not bound <= self.tol:
            raise errors.ToleranceUnreachable(
                f"accumulated error bound {bound:.3e} > tol {self.tol:.3e}")
        gram = np.stack([first_term_gram(self.tables, n, s, t, variant)
                         for s in rows.tolist()])
        return gram + store[rows - 1, :, lo * d:hi * d] @ coefs.reshape(-1, d)

    def block(self, s, t, variant="tilde"):
        """(s, t) block of T_n(w)^{-1}; `variant` selects which of the
        two equivalent expansions to use ('tilde' sums corrections over
        u <= t against a~, 'plain' over u >= t against a)."""
        if not (1 <= s <= self.n and 1 <= t <= self.n):
            raise IndexError("block index out of range")
        return self._column(np.array([s]), t, variant)[0]

    def matrix(self, variant="tilde"):
        """Full T_n(w)^{-1} as a dense (d n, d n) array, one block
        column at a time."""
        rows = np.arange(1, self.n + 1)
        return np.concatenate([self._column(rows, t, variant).reshape(
            -1, self.d) for t in rows.tolist()], axis=1)


def inverse_block_series(tables, n, s, t, tol=1e-10, variant="tilde"):
    """One-shot (s, t) block via the correction series."""
    return SeriesInverter(tables, n, tol=tol).block(s, t, variant)


def inverse_matrix_series(tables, n, tol=1e-10, variant="tilde"):
    """Full inverse via the correction series (reference path)."""
    return SeriesInverter(tables, n, tol=tol).matrix(variant)
