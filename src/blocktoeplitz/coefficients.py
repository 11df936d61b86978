"""Coefficient sequences attached to a rational symbol.

For a symbol w = h h* = h_sharp* h_sharp this module produces

* the power-series coefficients a_k of -h^{-1} and c_k of h, their
  tilde counterparts from h~(z) = h_sharp(conj(z))*,
* the autocovariance gamma(k) (Fourier coefficients of w),
* the phase-function Fourier coefficients beta_k of h* h_sharp^{-1},
* the decay majorant F(n) = (sum_j ||c~_j||) * sum_{l>=n} ||a_l||.

a/a~ come from exact closed forms; c, c~ and gamma from one FFT of h, h~
or w on N unit-circle nodes (the trapezoidal rule), whose aliases are
bounded by a Cauchy estimate ||c_j|| <= const ratio^j on a circle inside
the analyticity radius, found from the zeros of det h^{-1} (the poles of
h; for an AR symbol they are the only source of decay, so the pole
parameters alone would say nothing). The estimate widens a sampled
maximum by a flat factor, so its bounds are not yet proven ones.

beta_k is served by three routes: the pole-machinery closed form for
k >= m0 + 1, the series sum_j a_{j+k} c~_j for 0 <= k <= m0, and direct
quadrature of the phase function for k < 0, which is exponentially
accurate for these analytic integrands but carries no a-priori bound.
"""

import math
import threading

import numpy as np

from . import errors
from .symbol import h_inv_on_grid, h_on_grid, w_on_circle
from .util import binom, geometric_poly_tail, herm, unit_circle

_REL_TOL = 1e-14
_MAX_TERMS = 200_000
_MAX_NODES = 1 << 20
# unit-circle points of the trapezoid rule in beta_quadrature
_PHASE_GRID = 8192


def a_coeff(spec, n):
    """Coefficient a_n of -h(z)^{-1} = sum z^n a_n (exact closed form)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = np.zeros((spec.d, spec.d), dtype=np.complex128)
    if n == 0:
        out += spec.rho00
    elif n <= spec.m0:
        out += spec.rho0[n - 1]
    for mu in range(spec.K):
        pbar_n = np.conj(spec.poles[mu]) ** n
        for j in range(1, spec.mults[mu] + 1):
            out += binom(n + j - 1, j - 1) * pbar_n * spec.rho[mu][j - 1]
    return out


def a_tilde_coeff(spec, n):
    """Coefficient a~_n of -h~(z)^{-1}, built from the sharp residues
    rho~ = (rho_sharp)*."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = np.zeros((spec.d, spec.d), dtype=np.complex128)
    if n == 0:
        out += spec.sharp_rho00.conj().T
    elif n <= spec.m0:
        out += spec.sharp_rho0[n - 1].conj().T
    for mu in range(spec.K):
        p_n = spec.poles[mu] ** n
        for j in range(1, spec.mults[mu] + 1):
            out += (binom(n + j - 1, j - 1) * p_n
                    * spec.sharp_rho[mu][j - 1].conj().T)
    return out


def _analyticity_radius(spec, sharp):
    """min |z| over zeros of det h^{-1} (resp. det h_sharp^{-1}); these
    are the poles of h, hence the decay radius of its Taylor series.
    Returns inf when the determinant has no zeros at all."""
    deg = spec.d * (spec.m0 + spec.total_multiplicity)
    if deg == 0:
        return np.inf
    npts = 1 << max(3, int(math.ceil(math.log2(deg + 1))) + 1)
    zs, _ = unit_circle(npts)
    vals = np.linalg.det(h_inv_on_grid(spec, zs, sharp=sharp))
    for mu in range(spec.K):
        vals *= (1.0 - np.conj(spec.poles[mu]) * zs) ** (
            spec.d * spec.mults[mu])
    coeffs = np.fft.fft(vals) / npts          # degree j coefficient at [j]
    coeffs = coeffs[:deg + 1]
    mags = np.abs(coeffs)
    keep = np.nonzero(mags > 1e-10 * mags.max())[0]
    if len(keep) == 0 or keep.max() == 0:
        return np.inf
    poly = coeffs[:keep.max() + 1]
    roots = np.roots(poly[::-1])
    if len(roots) == 0:
        return np.inf
    return float(np.abs(roots).min())


class CoefficientTables:
    """Lazily extended, lock-guarded coefficient tables for one symbol.

    Thread contract: concurrent readers are safe because every list
    extension happens under an internal lock.
    """

    def __init__(self, spec):
        self.spec = spec
        self._lock = threading.RLock()
        self._a = []
        self._a_tilde = []
        self._a_stacks = {}
        # FFT tables; entry k is from the first transform with N/2 > k,
        # and _nodes lists the N of each transform a table took entries from
        self._tables = {"c": [], "c_tilde": [], "gamma": []}
        self._nodes = {"c": [], "c_tilde": [], "gamma": []}
        self._beta = {}
        self._kit = None
        self._phase_grid = None
        # Cauchy data: ||c_j|| <= const * ratio^j (same for c~ on the
        # sharp side); radius strictly between 1 and the analyticity radius
        self._cauchy = {}
        self._a_norm_table = None
        self._a_norm_tail = None
        self._c_tilde_abs_sum = None

    @property
    def d(self):
        return self.spec.d

    # -- exact closed-form series ---------------------------------------- #

    def a(self, n):
        with self._lock:
            while len(self._a) <= n:
                self._a.append(a_coeff(self.spec, len(self._a)))
            return self._a[n]

    def a_tilde(self, n):
        with self._lock:
            while len(self._a_tilde) <= n:
                self._a_tilde.append(a_tilde_coeff(self.spec,
                                                   len(self._a_tilde)))
            return self._a_tilde[n]

    def a_stack(self, upto, tilde=False):
        """a_0..a_m (a~_0..a~_m with tilde=True) as one read-only
        (m + 1, d, d) array, m >= upto. The stack is kept and grows by
        doubling, so block sums over many (s, t) read it in O(1) each."""
        with self._lock:
            stack = self._a_stacks.get(tilde)
            if stack is None or len(stack) <= upto:
                fn = self.a_tilde if tilde else self.a
                size = max(upto + 1, 0 if stack is None else 2 * len(stack))
                stack = np.stack([fn(k) for k in range(size)])
                stack.flags.writeable = False
                self._a_stacks[tilde] = stack
            return stack

    # -- Taylor / Fourier tables by FFT on the unit circle ----------------- #

    def _samples(self, name, N):
        """h (table c), h~ (c~) or w = h h* (gamma) on N circle nodes."""
        if name == "gamma":
            return w_on_circle(self.spec, N)
        zs, _ = unit_circle(N)
        if name == "c":
            return h_on_grid(self.spec, zs)
        return herm(h_on_grid(self.spec, np.conj(zs), sharp=True))

    def _aliasing(self, name, N):
        """Bound on the aliases sum_{m != 0} ||x_{k+mN}|| in DFT entry k < N/2
        (only m >= 1 for the Taylor series c, c~; |k + mN| > N/2 for gamma)."""
        if name == "gamma":
            return self.gamma_band_tail(N // 2)
        const, ratio = self._cauchy_bound(sharp=name == "c_tilde")
        return const * ratio**N / (1.0 - ratio**N)

    def _entry0_bound(self, name, N):
        """Upper bound on ||DFT entry 0|| of an N-node transform: the
        Cauchy bound on the leading coefficient (const; const^2/(1 -
        ratio^2) for gamma(0) = sum_j c~_j c~_j*) plus its aliasing."""
        const, ratio = self._cauchy_bound(sharp=name != "c")
        lead = const**2 / (1.0 - ratio**2) if name == "gamma" else const
        return lead + self._aliasing(name, N)

    def _circle_table(self, name, k):
        """Entry k >= 0 of table `name`: the N/2 first DFT entries of its
        function, N = 64, 128, ... until N/2 > k and the aliasing bound
        of N/4 nodes is <= 1e-14 ||entry 0||; the factor 4 averages down
        the rounding noise of the samples, which a residual check sums
        over its band. Sizes that fail against _entry0_bound are skipped
        untransformed. Tables only append: served values never change."""
        if k < 0:
            raise ValueError("n must be >= 0")
        with self._lock:
            table = self._tables[name]
            if k < len(table):
                return table[k]
            # h(0) = -a_0^{-1}: a singular a_0 (or a~_0) is a pole at 0
            if not table and min(map(np.linalg.matrix_rank, (
                    self.a(0), self.a_tilde(0)))) < self.d:
                raise errors.SingularLeadingCoefficient("a_0 or a~_0")
            N = max(64, 2 * len(table))
            while True:
                # an N whose bound exceeds the tolerance times an upper
                # bound on ||entry 0|| cannot pass: skip its transform
                alias = self._aliasing(name, N // 4)
                if N // 2 > k and alias <= _REL_TOL * self._entry0_bound(
                        name, N):
                    coef = np.fft.fft(self._samples(name, N), axis=0) / N
                    if alias <= _REL_TOL * float(np.linalg.norm(coef[0], 2)):
                        break
                N *= 2
                if N > _MAX_NODES:
                    raise errors.ToleranceUnreachable(
                        f"{name}({k}) needs more than {_MAX_NODES} nodes")
            table.extend(coef[len(table):N // 2])
            self._nodes[name].append(N)
            return table[k]

    def c(self, n):
        """Taylor coefficient c_n of h(z) = sum z^n c_n, by FFT of h; the
        Cauchy estimate bounds its aliasing by 1e-14 ||c_0||."""
        return self._circle_table("c", int(n))

    def c_tilde(self, n):
        """c~_n of h~(z) = h_sharp(conj(z))* = sum z^n c~_n, the same way."""
        return self._circle_table("c_tilde", int(n))

    # -- certified tails --------------------------------------------------- #

    def _cauchy_bound(self, sharp):
        """(const, ratio) with ||c_j|| <= const * ratio^j certified by the
        Cauchy integral on |z| = radius < analyticity radius."""
        key = "sharp" if sharp else "plain"
        with self._lock:
            if key in self._cauchy:
                return self._cauchy[key]
            R = _analyticity_radius(self.spec, sharp)
            radius = min(2.0, 0.5 * (1.0 + R)) if np.isfinite(R) else 2.0
            # h is analytic on |z| <= radius, but it is evaluated by
            # inverting h^{-1}, whose own poles sit at |1/p_mu|; keep the
            # sampling circle clear of those magnitudes
            pole_mags = [1.0 / abs(p) for p in self.spec.poles]
            for _ in range(120):
                if all(abs(radius - m) > 1e-3 * radius for m in pole_mags):
                    break
                radius *= 0.97
                if radius <= 1.000001:
                    radius = 1.000001
                    break
            zs, _ = unit_circle(1024)
            h = h_on_grid(self.spec, radius * zs, sharp=sharp)
            mx = float(np.linalg.norm(h, ord=2, axis=(-2, -1)).max())
            # 1024 samples of an analytic function underestimate the true
            # max only marginally; widen by a flat safety factor
            const = 1.2 * mx
            ratio = 1.0 / radius
            self._cauchy[key] = (const, ratio)
            return const, ratio

    def c_tail_sum(self, start, sharp=True):
        """Certified upper bound for sum_{j >= start} ||c_j|| (c~ when
        sharp=True, which is the variant gamma and F need)."""
        const, ratio = self._cauchy_bound(sharp)
        return const * ratio**start / (1.0 - ratio)

    def c_sup(self, start, sharp=True):
        """Certified sup_{j >= start} ||c_j||."""
        const, ratio = self._cauchy_bound(sharp)
        return const * ratio**start

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
            self._a_norm_table = np.array([np.linalg.norm(self.a(l), 2)
                                           for l in range(horizon + 1)])
            self._a_norm_tail = self._a_pole_tail(horizon + 1)
            return self._a_norm_table, self._a_norm_tail

    def a_tail(self, n):
        """Certified upper bound for sum_{l >= n} ||a_l||."""
        norms, tail = self._a_norm_data()
        if n <= len(norms):
            return float(norms[n:].sum()) + tail
        return self._a_pole_tail(n)   # beyond the table

    def c_tilde_abs_sum(self):
        """Certified upper bound for sum_j ||c~_j||: the table norms, the
        tail beyond the table and the aliasing of the entries (each c~_j,
        j >= N, lands on one entry of the N-node transform)."""
        with self._lock:
            if self._c_tilde_abs_sum is None:
                self.c_tilde(0)
                table = self._tables["c_tilde"]
                norms = np.linalg.norm(table, 2, axis=(-2, -1))
                aliasing = sum(map(self.c_tail_sum, self._nodes["c_tilde"]))
                self._c_tilde_abs_sum = (float(norms.sum()) + aliasing
                                         + self.c_tail_sum(len(table)))
            return self._c_tilde_abs_sum

    def decay_bound_F(self, n):
        """F(n): the product bound dominating sum_l ||beta_{n+l}||; it
        decreases to zero for every valid rational symbol."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return self.c_tilde_abs_sum() * self.a_tail(n)

    # -- autocovariance ----------------------------------------------------- #

    def gamma(self, k):
        """gamma(k) = integral e^{-ik theta} w dtheta / 2pi, by FFT of w
        (aliasing <= gamma_band_tail(N/2) <= 1e-14 ||gamma(0)||) for
        k >= 0 and Hermitian symmetry for k < 0."""
        k = int(k)
        if k < 0:
            return self.gamma(-k).conj().T
        return self._circle_table("gamma", k)

    def gamma_band_aliasing(self, L):
        """Bound on sum_{|k| <= L} of the aliasing in the served gamma(k):
        an N-node transform gives its entries distinct aliases k + mN
        (gamma(-k) has the norms of those of -k), |k + mN| >= N - L."""
        with self._lock:
            return sum(self.gamma_band_tail(N - min(L, N // 2 - 1) - 1)
                       for N in self._nodes["gamma"])

    def gamma_via_c(self, k):
        """Alternative route gamma(k) = sum_j c_{k+j} c_j* (k >= 0), kept
        as an oracle for the FFT route."""
        k = int(k)
        if k < 0:
            return self.gamma_via_c(-k).conj().T
        const, ratio = self._cauchy_bound(sharp=False)
        acc = np.zeros((self.spec.d, self.spec.d), dtype=np.complex128)
        for j in range(_MAX_TERMS):
            acc += self.c(k + j) @ self.c(j).conj().T
            rem = const**2 * ratio**(k + 2 * j + 2) / (1.0 - ratio**2)
            if rem <= _REL_TOL * max(float(np.linalg.norm(acc, 2)), 1e-300) \
                    and j >= 1:
                return acc
        raise errors.ToleranceUnreachable(
            f"gamma_via_c({k}): tail above tolerance after {_MAX_TERMS} "
            "terms")

    def gamma_band_tail(self, L):
        """Certified bound for sum_{|k| > L} ||gamma(k)||."""
        const, ratio = self._cauchy_bound(sharp=True)
        per_k = const**2 / (1.0 - ratio**2)
        return 2.0 * per_k * ratio**(L + 1) / (1.0 - ratio)

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

    def beta_series(self, k):
        """beta_k = sum_j a_{j+k} c~_j for k >= 0, certified truncation."""
        if k < 0:
            raise ValueError("series route needs k >= 0")
        acc = np.zeros((self.spec.d, self.spec.d), dtype=np.complex128)
        for j in range(_MAX_TERMS):
            acc += self.a(j + k) @ self.c_tilde(j)
            rem = self.c_sup(j + 1, sharp=True) * self.a_tail(k + j + 1)
            if rem <= _REL_TOL * max(float(np.linalg.norm(acc, 2)), 1e-300) \
                    and j >= 1:
                return acc
        raise errors.ToleranceUnreachable(
            f"beta_series({k}): tail above tolerance after {_MAX_TERMS} "
            "terms")

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

    def decay_bound_F(self, n):
        return float(self._F(n)) if callable(self._F) else float(
            self._F[n] if n < len(self._F) else self._F[-1])
