"""Coefficient sequences attached to a rational symbol.

For a symbol w = h h* = h_sharp* h_sharp this module produces

* the power-series coefficients a_k of -h^{-1} and c_k of h, their
  tilde counterparts from h~(z) = h_sharp(conj(z))*,
* the autocovariance gamma(k) (Fourier coefficients of w),
* the phase-function Fourier coefficients beta_k of h* h_sharp^{-1},
* the decay majorant F(n) = (sum_j ||c~_j||) * sum_{l>=n} ||a_l||.

a/a~ come from exact closed forms; c, c~ and gamma from the realization
h(z) = c0 + z C (I - z A)^{-1} B of symbol.realization (c~ from the sharp
side, gamma after one Stein solve for P), built once per spec as
spec.realizations. Each sequence is built only when it is first read,
and is held as one read-only (m, d, d) stack that grows by doubling: the
states [B, A B, .., A^{w-1} B] gain A^w times themselves, with A^w
squared at each step, so a block of entries is one product with C. Their
tail bounds, and the gamma band a tolerance needs, follow from its decay
certificate ||A^k|| <= growth rate^k; the proof covers the stored
realization, exact up to the rounding of D^{-1} and P.

beta_k is served by three routes: the pole-machinery closed form for
k >= m0 + 1, the series sum_j a_{j+k} c~_j for 0 <= k <= m0, and direct
quadrature of the phase function for k < 0, which is exponentially
accurate for these analytic integrands but carries no a-priori bound.
beta_stack holds beta_1, beta_2, .. as one stacked store, as a_stack
holds a.

The certified series sums (beta_series, the oracle gamma_via_c and
sum_j ||c~_j||) share one loop, _certified_sum: it adds slices of the
stacks over ranges of terms that double in length, and stops once the
certified bound on the remaining terms is within _REL_TOL of the sum.
"""

import threading

import numpy as np
import scipy.linalg

from . import errors
from .symbol import h_inv_on_grid, h_inv_taylor, h_on_grid
from .util import binom_vec, geometric_poly_tail, herm, unit_circle

_REL_TOL = 1e-14
_MAX_TERMS = 200_000
# unit-circle points of the trapezoid rule in beta_quadrature
_PHASE_GRID = 8192


def a_coeff(spec, n):
    """Coefficient a_n of -h(z)^{-1} = sum z^n a_n (exact closed form)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return -h_inv_taylor(spec, [0.0], n, sharp=False)[0]


def a_tilde_coeff(spec, n):
    """Coefficient a~_n of -h~(z)^{-1}, the adjoint of a_n of h_sharp,
    since h~(z) = h_sharp(conj(z))*."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return -herm(h_inv_taylor(spec, [0.0], n, sharp=True)[0])


def _a_range(spec, start, stop, sharp):
    """a_k of -h^{-1} (of -h_sharp^{-1} with sharp=True) for k = start ..
    stop - 1 as one (stop - start, d, d) array: the partial fractions of
    a_coeff at z = 0 for all k at once,

        [k=0] rho00 + rho0_k + sum_{mu,j} C(j+k-1, k) conj(p_mu)^k rho_{mu,j}

    with rho0_k = 0 past m0."""
    rho00, rho0, rho = spec.side(sharp)
    ks = np.arange(start, stop)
    out = np.zeros((len(ks), spec.d, spec.d), dtype=np.complex128)
    head = np.stack([rho00, *rho0])[start:stop]
    out[:len(head)] = head
    for pole, res in zip(spec.poles, rho):
        for j, r in enumerate(res, 1):
            scale = binom_vec(ks + j - 1, j - 1) * np.conj(pole) ** ks
            out += scale[:, None, None] * r
    return out


def _read_only(a):
    a.flags.writeable = False
    return a


def _certified_sum(block, remainder, what):
    """A series summed over ranges of terms that double in length:
    block(lo, hi) is the sum of terms lo..hi-1, and remainder(J) a
    certified bound on the sum of the norms of the terms from J on. The
    partial sum and J, at the first J = 2, 4, 8, .. whose remainder is
    within _REL_TOL of the partial sum's norm; ToleranceUnreachable if
    _MAX_TERMS terms do not reach that."""
    acc, lo, hi = 0.0, 0, 2
    while True:
        acc = acc + block(lo, hi)
        scale = max(float(np.linalg.norm(np.atleast_2d(acc), 2)), 1e-300)
        if remainder(hi) <= _REL_TOL * scale:
            return acc, hi
        if hi >= _MAX_TERMS:
            raise errors.ToleranceUnreachable(
                f"{what}: tail above tolerance after {hi} terms")
        lo, hi = hi, min(2 * hi, _MAX_TERMS)


class _Realized:
    """f_0 = head and f_k = C A^{k-1} B (k >= 1) of one realized sequence,
    held as one read-only (m, d, d) stack that grows by doubling under
    the tables' lock, with the certified ||f_k|| <= const * rate^(k-1)
    for k >= 1."""

    def __init__(self, lock, head, C, A, B, cert):
        self._lock, self._out, self.rate = lock, C, cert.rate
        # the states [B, A B, .., A^{w-1} B] as (N, w d) columns, and A^w
        self._states, self._power = B, A
        self._stack = _read_only(np.stack([head, C @ B]))
        # the factor covers the rounding of the norms and of const rate^k
        self.const = (float(np.linalg.norm(C, 2) * np.linalg.norm(B, 2))
                      * cert.growth * (1.0 + 1e-12) if len(A) else 0.0)
        self._head = float(np.linalg.norm(head, 2))

    def upto(self, k):
        """f_0..f_m as one read-only (m + 1, d, d) array, m >= k: each
        doubling maps the w states by A^w to the next w, whose entries
        are one product with C, and squares A^w."""
        with self._lock:
            while len(self._stack) <= k:
                new = self._power @ self._states
                d = self._stack.shape[-1]
                out = (self._out @ new).reshape(-1, new.shape[1] // d, d)
                self._stack = _read_only(np.concatenate(
                    [self._stack, out.transpose(1, 0, 2)]))
                self._states = np.concatenate([self._states, new], axis=1)
                self._power = self._power @ self._power
            return self._stack

    def entry(self, k):
        if k < 0:
            raise ValueError("n must be >= 0")
        return self.upto(k)[k]

    def sup(self, start):
        """Certified sup_{j >= start} ||f_j||."""
        bound = self.const * self.rate ** max(start - 1, 0)
        return max(bound, self._head) if start == 0 else bound

    def tail_sum(self, start):
        """Certified sum_{j >= start} ||f_j||."""
        tail = self.sup(max(start, 1)) / (1.0 - self.rate)
        return tail + self._head if start == 0 else tail


class CoefficientTables:
    """Lazily extended, lock-guarded coefficient tables for one symbol.

    c, c~ and gamma are served from spec.realizations, of h and h_sharp,
    which are built and certified once per spec, before the first of
    them is served: SingularLeadingCoefficient for a singular a_0 or a~_0,
    OuternessCheckFailed for a symbol whose h or h_sharp is not outer.

    Thread contract: concurrent readers are safe because every stack and
    cache is extended under an internal lock, and a stack is replaced by
    a longer read-only one, never written, so a reader's array stays
    whole.
    """

    def __init__(self, spec):
        self.spec = spec
        self._lock = threading.RLock()
        self._a_stacks = {}
        self._realized = {}
        self._beta = {}
        self._beta_stack = np.zeros((0, spec.d, spec.d), dtype=np.complex128)
        self._kit = None
        self._phase_grid = None
        self._a_norm_table = None
        self._a_norm_tail = None
        self._c_tilde_abs_sum = None

    @property
    def d(self):
        return self.spec.d

    # -- exact closed-form series ---------------------------------------- #

    def a(self, n):
        return self.a_stack(n)[n]

    def a_tilde(self, n):
        return self.a_stack(n, tilde=True)[n]

    def a_stack(self, upto, tilde=False):
        """a_0..a_m (a~_0..a~_m with tilde=True) as one read-only
        (m + 1, d, d) array, m >= upto, the one store of the sequence. It
        grows by doubling, from _a_range, so block sums read it in O(1)."""
        with self._lock:
            stack = self._a_stacks.get(tilde, np.zeros((0, self.d, self.d),
                                                      dtype=np.complex128))
            if len(stack) <= upto:
                new = _a_range(self.spec, len(stack),
                               max(upto + 1, 2 * len(stack)), tilde)
                self._a_stacks[tilde] = stack = _read_only(np.concatenate(
                    [stack, herm(new) if tilde else new]))
            return stack

    # -- sequences of the realizations ------------------------------------- #

    def _series(self, name):
        """The realized sequence "c", "c_tilde" (c~_k = (c_k of h_sharp)*,
        the adjoint realization) or "gamma": gamma(k) = sum_j c_{k+j} c_j*,
        so with P = A P A* + B B* (one Stein solve) gamma(0) = c0 c0* +
        C P C* and gamma(k) = C A^{k-1} B_w for k >= 1, B_w = B c0* + A P C*.
        Each is built on its first read; the others are not built."""
        with self._lock:
            if name not in self._realized:
                h, hs = self.spec.realizations
                if name == "c":
                    args = h.c0, h.C, h.A, h.B, h
                elif name == "c_tilde":
                    args = herm(hs.c0), herm(hs.B), herm(hs.A), herm(hs.C), hs
                else:
                    P = scipy.linalg.solve_discrete_lyapunov(
                        h.A, h.B @ herm(h.B))
                    args = (h.c0 @ herm(h.c0) + h.C @ P @ herm(h.C), h.C,
                            h.A, h.B @ herm(h.c0) + h.A @ P @ herm(h.C), h)
                self._realized[name] = _Realized(self._lock, *args)
            return self._realized[name]

    def c(self, n):
        """Taylor coefficient c_n of h(z) = sum z^n c_n."""
        return self._series("c").entry(int(n))

    def c_tilde(self, n):
        """c~_n of h~(z) = h_sharp(conj(z))* = sum z^n c~_n."""
        return self._series("c_tilde").entry(int(n))

    # -- certified tails --------------------------------------------------- #

    def c_tail_sum(self, start, sharp=True):
        """Certified upper bound for sum_{j >= start} ||c_j|| (c~ when
        sharp=True, which is the variant gamma and F need)."""
        return self._series("c_tilde" if sharp else "c").tail_sum(start)

    def c_sup(self, start, sharp=True):
        """Certified sup_{j >= start} ||c_j||."""
        return self._series("c_tilde" if sharp else "c").sup(start)

    def _a_pole_tail(self, start):
        """Certified bound for sum_{l >= start} of the pole terms of a_l
        (the triangle inequality over the partial fractions)."""
        spec = self.spec
        return sum((float(np.linalg.norm(spec.rho[mu][j - 1], 2))
                    * geometric_poly_tail(abs(spec.poles[mu]), j, start)[0]
                    for mu in range(spec.K)
                    for j in range(1, spec.mults[mu] + 1)), 0.0)

    def _a_norm_data(self):
        """Table of ||a_l|| for l = 0..H plus the certified tail beyond H."""
        with self._lock:
            if self._a_norm_table is not None:
                return self._a_norm_table, self._a_norm_tail
            spec = self.spec
            r = spec.pole_decay
            horizon = spec.m0
            if spec.K:
                horizon = min(spec.m0 + max(64, int(np.ceil(
                    np.log(1e-18) / np.log(max(r, 1e-3))))), 20_000)
            self._a_norm_table = np.linalg.norm(
                self.a_stack(horizon)[:horizon + 1], 2, axis=(1, 2))
            self._a_norm_tail = self._a_pole_tail(horizon + 1)
            return self._a_norm_table, self._a_norm_tail

    def a_tail(self, n):
        """Certified upper bound for sum_{l >= n} ||a_l||."""
        norms, tail = self._a_norm_data()
        if n <= len(norms):
            return float(norms[n:].sum()) + tail
        return self._a_pole_tail(n)   # beyond the table

    def c_tilde_abs_sum(self):
        """Certified upper bound for sum_j ||c~_j||: the norms of c~_0..
        c~_{J-1} plus the certified tail from J (see _certified_sum)."""
        with self._lock:
            if self._c_tilde_abs_sum is None:
                series = self._series("c_tilde")
                total, J = _certified_sum(
                    lambda lo, hi: np.linalg.norm(
                        series.upto(hi - 1)[lo:hi], 2, axis=(1, 2)).sum(),
                    series.tail_sum, "c_tilde_abs_sum")
                self._c_tilde_abs_sum = total + series.tail_sum(J)
            return self._c_tilde_abs_sum

    def decay_bound_F(self, n):
        """F(n): the product bound dominating sum_l ||beta_{n+l}||; it
        decreases to zero for every valid rational symbol."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return self.c_tilde_abs_sum() * self.a_tail(n)

    # -- autocovariance ----------------------------------------------------- #

    def gamma(self, k):
        """gamma(k) = integral e^{-ik theta} w dtheta / 2pi, from the
        realization for k >= 0 and by Hermitian symmetry for k < 0."""
        k = int(k)
        if k < 0:
            return self.gamma(-k).conj().T
        return self._series("gamma").entry(k)

    def gamma_band(self, L):
        """gamma(-L..L) as one (2L + 1, d, d) array: the stored gamma(0..L)
        after their adjoints in reverse, gamma(-k) = gamma(k)*."""
        stack = self._series("gamma").upto(L)
        return np.concatenate([herm(stack[L:0:-1]), stack[:L + 1]])

    def gamma_via_c(self, k):
        """Alternative route gamma(k) = sum_j c_{k+j} c_j* (k >= 0), kept
        as an oracle for the realized gamma."""
        k = int(k)
        if k < 0:
            return self.gamma_via_c(-k).conj().T
        series = self._series("c")

        def block(lo, hi):
            c = series.upto(k + hi - 1)
            return np.einsum("jab,jcb->ac", c[k + lo:k + hi], c[lo:hi].conj())

        return _certified_sum(
            block, lambda J: (self.c_sup(k + J, sharp=False)
                              * self.c_tail_sum(J, sharp=False)),
            f"gamma_via_c({k})")[0]

    def gamma_band_tail(self, L):
        """Certified bound for sum_{|k| > L} ||gamma(k)||."""
        return 2.0 * self._series("gamma").tail_sum(L + 1)

    def gamma_band_width(self, tol):
        """The least L >= 0 with gamma_band_tail(L) <= tol (tol > 0). The
        tail is 2 const rate^L / (1 - rate), so L is solved for, then
        stepped up only where the rounding of that solve requires it."""
        series = self._series("gamma")
        L = 0
        if self.gamma_band_tail(0) > tol:
            L = int(np.log(tol * (1.0 - series.rate) / (2.0 * series.const))
                    / np.log(series.rate))
        while self.gamma_band_tail(L) > tol:
            L += 1
        return L

    # -- phase-function Fourier coefficients -------------------------------- #

    def _closed_kit(self):
        if self._kit is None:
            from .closed_form import ClosedFormKit
            self._kit = ClosedFormKit(self.spec)
        return self._kit

    def beta(self, k):
        """beta_k, the (negated) k-th Fourier coefficient of the phase
        function h* h_sharp^{-1}.

        Route by index: closed form (pole machinery) for k >= m0 + 1,
        the a / c~ series for 0 <= k <= m0, quadrature for k < 0.
        """
        k = int(k)
        with self._lock:
            if k in self._beta:
                return self._beta[k]
            if k >= self.spec.m0 + 1:
                if self.spec.K == 0:
                    out = np.zeros((self.spec.d, self.spec.d),
                                   dtype=np.complex128)
                else:
                    out = self._closed_kit().beta_closed(k)
            elif k >= 0:
                out = self.beta_series(k)
            else:
                out = self.beta_quadrature(k)
            self._beta[k] = out
            return out

    def beta_stack(self, upto):
        """beta_1..beta_m as one read-only (m, d, d) array, m >= upto, the
        one stacked store of beta: entry k - 1 is beta(k). It grows by
        doubling, like a_stack."""
        with self._lock:
            stack = self._beta_stack
            if len(stack) < upto:
                new = [self.beta(k) for k in range(
                    len(stack) + 1, max(upto, 2 * len(stack)) + 1)]
                self._beta_stack = stack = _read_only(
                    np.concatenate([stack, new]))
            return stack

    def beta_series(self, k):
        """beta_k = sum_j a_{j+k} c~_j for k >= 0, certified truncation."""
        if k < 0:
            raise ValueError("series route needs k >= 0")
        series = self._series("c_tilde")

        def block(lo, hi):
            return np.einsum("jab,jbc->ac", self.a_stack(k + hi - 1)
                             [k + lo:k + hi], series.upto(hi - 1)[lo:hi])

        return _certified_sum(
            block, lambda J: self.c_sup(J) * self.a_tail(k + J),
            f"beta_series({k})")[0]

    def beta_closed(self, k):
        """Closed-form route, valid for k >= m0 + 1 (K >= 1)."""
        if k < self.spec.m0 + 1:
            raise errors.DomainViolation(
                f"closed form needs k >= m0 + 1 = {self.spec.m0 + 1}")
        if self.spec.K == 0:
            return np.zeros((self.spec.d, self.spec.d), dtype=np.complex128)
        return self._closed_kit().beta_closed(k)

    def _phase_on_grid(self):
        with self._lock:
            if self._phase_grid is None:
                zs, theta = unit_circle(_PHASE_GRID)
                h = h_on_grid(self.spec, zs)
                hs_inv = h_inv_on_grid(self.spec, zs, sharp=True)
                phase = np.conj(np.swapaxes(h, -1, -2)) @ hs_inv
                self._phase_grid = (theta, phase)
            return self._phase_grid

    def beta_quadrature(self, k):
        """Trapezoid quadrature of the defining integral (any k)."""
        theta, phase = self._phase_on_grid()
        weights = np.exp(-1j * k * theta)
        return -(weights[:, None, None] * phase).mean(axis=0)


class RawTables:
    """User-supplied coefficient tables for symbols outside the rational
    class (the general inverse formulas need only a, a~, beta and a decay
    majorant F). Entries beyond the supplied horizon are treated as zero,
    so F must genuinely dominate the tails the caller cares about."""

    def __init__(self, d, a, a_tilde, beta, F):
        self.spec = None
        self.d = int(d)
        self._a = [np.asarray(m, dtype=np.complex128) for m in a]
        self._at = [np.asarray(m, dtype=np.complex128) for m in a_tilde]
        self._beta = {k: np.asarray(m, dtype=np.complex128)
                      for k, m in beta.items()}
        self._F = F

    def a(self, n):
        z = np.zeros((self.d, self.d), dtype=np.complex128)
        return self._a[n] if n < len(self._a) else z

    def a_tilde(self, n):
        z = np.zeros((self.d, self.d), dtype=np.complex128)
        return self._at[n] if n < len(self._at) else z

    def a_stack(self, upto, tilde=False):
        """a_0..a_upto (a~ with tilde=True) as one (upto + 1, d, d) array."""
        fn = self.a_tilde if tilde else self.a
        return np.stack([fn(k) for k in range(upto + 1)])

    def a_tail(self, n):
        return float(sum(np.linalg.norm(m, 2) for m in self._a[n:]))

    def beta(self, k):
        z = np.zeros((self.d, self.d), dtype=np.complex128)
        return self._beta.get(int(k), z)

    def beta_stack(self, upto):
        """beta_1..beta_upto as one (upto, d, d) array."""
        return np.stack([self.beta(k) for k in range(1, upto + 1)])

    def decay_bound_F(self, n):
        return float(self._F(n)) if callable(self._F) else float(
            self._F[n] if n < len(self._F) else self._F[-1])
