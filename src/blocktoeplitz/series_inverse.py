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

Block indices s, t, u are 1-based.
"""

from dataclasses import dataclass

import numpy as np

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
    """One level of the correction-coefficient recursion.

    coeffs[l] approximates b^{level}_{n,u,l} for l < len(coeffs); `tail`
    is a certified upper bound on sum_{l >= len(coeffs)} ||b_l|| plus the
    accumulated truncation error of the inner sums, so
    sum_l ||true b_l|| <= l1() always holds.
    """

    n: int
    u: int
    variant: str            # 'plain' (b) or 'tilde' (b~)
    level: int
    coeffs: np.ndarray      # (L, d, d)
    tail: float

    def l1(self):
        norms = np.linalg.norm(self.coeffs, 2, axis=(-2, -1))
        return float(norms.sum()) + self.tail


def _horizon(F, base, target, cap=_LEVEL_CAP):
    """Smallest L (up to cap) with F(base + L) <= target."""
    L = 1
    while F(base + L) > target and L < cap:
        L = int(L * 1.6) + 1
    return min(L, cap)


def b_level_1(tables, n, u, variant):
    """Start of the recursion: b^1_l = beta_{u+l} (plain) or
    b~^1_l = beta*_{n+1-u+l} (tilde)."""
    F = tables.decay_bound_F
    if variant == "plain":
        base, conj = u, False
    elif variant == "tilde":
        base, conj = n + 1 - u, True
    else:
        raise ValueError("variant must be 'plain' or 'tilde'")
    scale = max(F(base), 1e-300)
    L = _horizon(F, base, _REL_TOL * scale)
    coeffs = tables.beta_stack(base + L - 1)[base - 1:base - 1 + L]
    if conj:
        coeffs = herm(coeffs)
    return BRecursionState(n=n, u=u, variant=variant, level=1,
                           coeffs=coeffs, tail=F(base + L))


def b_recursion_step(state, tables):
    """Advance one level: contract the current coefficients against the
    shifted beta (or beta*) sequence.

    Refuses with DivergentRecursion when F(n+1) >= 1, since the level
    bound F(n+1)^{k-1} F(first) then certifies nothing, and raises
    NumericalError when the new level breaks that bound.
    """
    n = state.n
    F = tables.decay_bound_F
    contraction = F(n + 1)
    if contraction >= 1.0:
        raise errors.DivergentRecursion(
            f"F(n+1) = {contraction:.4f} >= 1 at n = {n}")
    new_level = state.level + 1
    # plain: even levels contract against beta*, odd against beta;
    # tilde: the mirror image
    conj = (new_level % 2 == 0) if state.variant == "plain" \
        else (new_level % 2 == 1)
    s_in = state.l1()
    L_out = _horizon(F, n + 1, _REL_TOL * max(contraction, 1e-300))
    M = len(state.coeffs)
    # out[l] = sum_m coeffs[m] beta^{(*)}_{n+1+m+l}, beta_k at stack[k - 1]
    idx = n + np.arange(L_out)[:, None] + np.arange(M)[None, :]
    bet = tables.beta_stack(n + M + L_out - 1)[idx]
    if conj:
        bet = herm(bet)
    d = bet.shape[-1]
    out = (state.coeffs.transpose(1, 0, 2).reshape(d, M * d)
           @ bet.reshape(L_out, M * d, d))
    # tail: beyond L_out plus the inner-sum truncation carried in state.tail
    tail = s_in * F(n + 1 + L_out) + state.tail * contraction
    new = BRecursionState(n=n, u=state.u, variant=state.variant,
                          level=new_level, coeffs=out, tail=tail)
    first = state.u if state.variant == "plain" else n + 1 - state.u
    bound = contraction ** (new_level - 1) * F(first)
    if new.l1() > bound * (1.0 + 1e-6) + 1e-12:
        raise errors.NumericalError(
            f"level {new_level} l1 norm {new.l1():.3e} exceeds its "
            f"certified bound {bound:.3e}")
    return new


def _as_tables(source):
    """Accept a symbol spec or a ready-made tables object."""
    if hasattr(source, "decay_bound_F"):
        return source
    from .coefficients import CoefficientTables
    return CoefficientTables(source)


class SeriesInverter:
    """Assembles inverse blocks of T_n(w) from coefficient tables (or a
    symbol spec, which gets wrapped), caching the per-u recursion levels
    across block requests."""

    def __init__(self, tables, n, tol=1e-10):
        tables = _as_tables(tables)
        self.tables = tables
        self.n = n
        self.tol = float(tol)
        self.d = tables.d
        self._levels = {}
        self._corr = {}
        # tilde -> spectral norms of a~_0.. or a_0.., in tables.a_stack order
        self._norms = {tilde: np.zeros(0) for tilde in (False, True)}
        self._contraction = tables.decay_bound_F(n + 1)
        self._supcoef = self._sup_coeff_bound()
        if self._contraction >= 1.0:
            raise errors.DivergentRecursion(
                f"F(n+1) = {self._contraction:.4f} >= 1: certified "
                "truncation unavailable")

    def _sup_coeff_bound(self):
        tail0 = getattr(self.tables, "a_tail", None)
        if tail0 is not None:
            return max(tail0(0), 1e-300)
        return max(self.tables.decay_bound_F(0), 1e-300)

    def levels(self, u, variant, depth):
        """Recursion levels 1..depth for (n, u, variant), cached."""
        key = (u, variant)
        seq = self._levels.get(key)
        if seq is None:
            seq = [b_level_1(self.tables, self.n, u, variant)]
            self._levels[key] = seq
        while len(seq) < depth:
            seq.append(b_recursion_step(seq[-1], self.tables))
        return seq[:depth]

    def _coeff_stack(self, tilde, upto):
        """a~_0..a~_upto (tilde) or a_0..a_upto, or a longer stack, from
        tables.a_stack, and the spectral norms of at least its first
        upto + 1 entries."""
        stack = self.tables.a_stack(upto, tilde)
        norms = self._norms[tilde]
        if len(norms) <= upto:
            norms = np.concatenate([norms, np.linalg.norm(
                stack[len(norms):upto + 1], 2, axis=(-2, -1))])
            self._norms[tilde] = norms
        return stack, norms

    def _contract(self, state, tilde, base):
        """sum_l coeffs[l] coeff_{base + l} plus a bound on what the
        level tail can contribute."""
        L = len(state.coeffs)
        stack, _ = self._coeff_stack(tilde, base + L)
        acc = np.einsum("lab,lbc->ac", state.coeffs, stack[base:base + L])
        slack = state.tail * self._supcoef
        return acc, slack

    def _correction(self, u, s, variant):
        """sum_k { sum_l b^{2k-1} x + sum_l b^{2k} y } for one u, with
        the depth loop closed by the geometric level bound. Returns the
        (d, d) sum and an error bound; cached per (u, s, variant)."""
        key = (u, s, variant)
        hit = self._corr.get(key)
        if hit is not None:
            return hit
        n, tables = self.n, self.tables
        F = tables.decay_bound_F
        first = F(u) if variant == "plain" else F(n + 1 - u)
        acc = np.zeros((self.d, self.d), dtype=np.complex128)
        err = 0.0
        k = 0
        while True:
            k += 1
            lv = self.levels(u, variant, 2 * k)
            lv_odd, lv_even = lv[2 * k - 2], lv[2 * k - 1]
            if variant == "tilde":
                t1, e1 = self._contract(lv_odd, False, n + 1 - s)
                t2, e2 = self._contract(lv_even, True, s)
            else:
                t1, e1 = self._contract(lv_odd, True, s)
                t2, e2 = self._contract(lv_even, False, n + 1 - s)
            acc += t1 + t2
            err += e1 + e2
            remaining = (first * self._contraction ** (2 * k)
                         / (1.0 - self._contraction) * self._supcoef)
            if remaining <= 0.25 * self.tol / max(
                    self.n * self._supcoef, 1e-300):
                self._corr[key] = (acc, err + remaining)
                return self._corr[key]
            if k >= _DEPTH_CAP:
                raise errors.ToleranceUnreachable(
                    f"depth cap {_DEPTH_CAP} reached with remainder "
                    f"bound {remaining:.3e} > tolerance share")

    def block(self, s, t, variant="tilde"):
        """(s, t) block of T_n(w)^{-1}; `variant` selects which of the
        two equivalent expansions to use ('tilde' sums corrections over
        u <= t against a~, 'plain' over u >= t against a)."""
        n = self.n
        if not (1 <= s <= n and 1 <= t <= n):
            raise IndexError("block index out of range")
        out = first_term_gram(self.tables, n, s, t, variant)
        err = 0.0
        tilde = variant == "tilde"
        coefs, norms = self._coeff_stack(tilde, t - 1 if tilde else n - t)
        for u in (range(1, t + 1) if tilde else range(t, n + 1)):
            corr, e = self._correction(u, s, variant)
            k = t - u if tilde else u - t
            out += corr.conj().T @ coefs[k]
            err += e * norms[k]
        if err > self.tol:
            raise errors.ToleranceUnreachable(
                f"accumulated error bound {err:.3e} > tol {self.tol:.3e}")
        return out

    def matrix(self, variant="tilde"):
        """Full T_n(w)^{-1} as a dense (d n, d n) array."""
        n, d = self.n, self.d
        out = np.zeros((n * d, n * d), dtype=np.complex128)
        for s in range(1, n + 1):
            for t in range(1, n + 1):
                out[(s - 1) * d:s * d, (t - 1) * d:t * d] = \
                    self.block(s, t, variant)
        return out


def inverse_block_series(tables, n, s, t, tol=1e-10, variant="tilde"):
    """One-shot (s, t) block via the correction series."""
    return SeriesInverter(tables, n, tol=tol).block(s, t, variant)


def inverse_matrix_series(tables, n, tol=1e-10, variant="tilde"):
    """Full inverse via the correction series (reference path)."""
    return SeriesInverter(tables, n, tol=tol).matrix(variant)
