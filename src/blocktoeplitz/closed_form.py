"""Closed-form inverse machinery for rational symbols.

Everything here lives in a dM x dM space indexed by (pole, multiplicity
slot) pairs, M = sum of multiplicities:

* Lambda: the Gram matrix sum_l p_l p_l* of the stacked pole-power
  vectors, in closed form;
* Theta: block-diagonal Hankel matrices of Laurent data of
  h_sharp(z) h_dagger(z)^{-1} at each pole (the one ingredient needing
  analytic evaluation; computed by contour quadrature);
* Pi_n, Xi_n, Phi_n: closed-form matrix functions of the block order n;
* G_n = Pi_n Theta Lambda and its tilde partner, whose Neumann series
  condenses the infinite correction series of the general inverse
  formula into a single small resolvent;
* the per-index vectors v, v~, w, w~ and the rank-correction factors
  l_{n,s}, r_{n,s} that express each block of T_n(w)^{-1} as a
  triangular Gram sum plus a dM-rank correction.

Block indices s, t are 1-based throughout, matching the linear-algebra
conventions of the rest of the package.
"""

from typing import NamedTuple

import numpy as np

from . import errors
from .coefficients import CoefficientTables
from .util import binom, binom_vec, herm

_LAMBDA_CHECK_TOL = 1e-10
_LAMBDA_BLOCK = 256
_LAMBDA_MAX_TERMS = 100_000
_CONTOUR_NODES = 512


class SolvePlan(NamedTuple):
    """The part of a linear-time solve at order n that does not depend on
    the right-hand side Y (built by ClosedFormKit.plan). Every vector of
    the rank correction is a stack of d x d blocks times slot scalars, so
    the plan keeps the O(n M^2) scalars, not the O(n M d^2) blocks:

    * spectral_radius: the radius of G~_n G_n;
    * k_n: the fixed 2Md x 2Md map that takes the sums
      [sum_t v_{n+1-t} y_t; sum_t v~_t y_t] (unscaled v) to the
      resolvent-corrected [g_vec; g~_vec]. With P = Pi_n Theta,
      R = (I - G~G)^{-1} and R~ = (I - GG~)^{-1},

          top = I + Lambda^T G R P*,     bot = I + Lambda G~ R~ P,
          K_n = [[top Lambda^T P,  top              ],
                 [bot,             bot Lambda P*    ]];

    * ut: U_n Theta, where Pi_n Theta = diag(p^n) U_n Theta;
    * xi: the (M, M, n - m0) scalars of Xi_m for m = m0+1..n, where
      v_m = (Xi_m (x) I_d) rho and v~_m = (conj(Xi_m) (x) I_d) rho~
      (kit.rho_stack, kit.rho_tilde_stack);
    * heads: the (2, m0, M d, d) blocks v_m and v~_m for m = 1..m0, where
      the band terms add to them;
    * diff: the (M, M + m0 + 1, n - m0) scalars of hat-w - hat-v =
      diag(p^m)(w_m - v_m) for m = 1..n-m0 on the kit.ext_stack blocks
      (residues, then the band blocks rho0_0..rho0_m0); their conjugates
      give hat-w~ - hat-v~ on kit.ext_tilde_stack;
    * powers: the (K, n + 1) pole powers p_mu^e, e = 0..n.

    The index m or e runs along the last axis, as the block index of
    the time-last blocks in fast_solver does.

    The plain-row correction at s = m0+1..n is B_s* g_vec and the
    tilde-row one at s = 1..n-m0 is B~_s* g~_vec, with

        B_s  = diag(p^{s-1})    U_n Theta     (hat-w - hat-v)_{n+1-s},
        B~_s = diag(pbar^{n-s}) (U_n Theta)*  (hat-w~ - hat-v~)_s.
    """

    n: int
    spectral_radius: float
    k_n: np.ndarray
    ut: np.ndarray
    xi: np.ndarray
    heads: np.ndarray
    diff: np.ndarray
    powers: np.ndarray


def _kron_scalar(scal, d):
    """(M, M) scalar matrix -> (M d, M d) by scal (x) I_d."""
    return np.kron(np.asarray(scal, dtype=np.complex128), np.eye(d))


class ClosedFormKit:
    """All n-independent closed-form data for one symbol with K >= 1."""

    def __init__(self, spec):
        if spec.K < 1:
            raise errors.DomainViolation(
                "closed-form pole machinery needs K >= 1 "
                "(AR symbols use the Gram formulas directly)")
        self.spec = spec
        self.d = spec.d
        self.M = spec.total_multiplicity
        # slot q <-> (mu, i): slots[q] = (mu, i), offsets[mu] = first slot
        self.slots = []
        self.offsets = []
        for mu in range(spec.K):
            self.offsets.append(len(self.slots))
            for i in range(1, spec.mults[mu] + 1):
                self.slots.append((mu, i))
        self.pole_of_slot = np.array([spec.poles[mu] for mu, _ in self.slots])
        # rho stacks: (M, d, d); tilde uses conjugated sharp residues
        self.rho_stack = np.stack(
            [spec.rho[mu][i - 1] for mu, i in self.slots])
        self.rho_tilde_stack = np.stack(
            [spec.sharp_rho[mu][i - 1].conj().T for mu, i in self.slots])
        # the blocks the scalars of SolvePlan.diff act on: residues, then
        # the band blocks of h^{-1} (of h~^{-1} for the tilde partner)
        self.ext_stack = np.concatenate(
            [self.rho_stack, np.stack([spec.rho00, *spec.rho0])])
        self.ext_tilde_stack = np.concatenate(
            [self.rho_tilde_stack,
             herm(np.stack([spec.sharp_rho00, *spec.sharp_rho0]))])
        self.lambda_mat = self.build_lambda()
        self.theta_values, self.theta_mat = self.build_theta()
        self._plan = None
        self._check_lambda_series()

    # -- Lambda ---------------------------------------------------------- #

    def build_lambda(self):
        """Closed form of Lambda = sum_{l>=0} p_l p_l*."""
        spec = self.spec
        M = self.M
        scal = np.zeros((M, M), dtype=np.complex128)
        for qr, (mu, i) in enumerate(self.slots):
            for qc, (nu, j) in enumerate(self.slots):
                p, pb = spec.poles[mu], np.conj(spec.poles[nu])
                denom = 1.0 - p * pb
                val = 0.0 + 0.0j
                for r in range(j):
                    val += (binom(i - 1, r) * binom(i + j - r - 2, i - 1)
                            * p ** (j - r - 1) * pb ** (i - r - 1)
                            / denom ** (i + j - r - 1))
                scal[qr, qc] = val
        return _kron_scalar(scal, self.d)

    def p_scalars(self, n):
        """Scalar entries of the stacked pole-power vector p_n:
        slot (mu, i) -> C(n, i-1) p_mu^{n-i+1}."""
        return np.array([binom(n, i - 1) * self.spec.poles[mu] ** (n - i + 1)
                         for mu, i in self.slots])

    def p_vec(self, n):
        """p_n as a (M d, d) stacked matrix."""
        s = self.p_scalars(n)
        return (s[:, None, None] * np.eye(self.d)).reshape(-1, self.d)

    def _check_lambda_series(self):
        """Construction-time check: closed-form Lambda matches its
        defining series within 1e-10, with a certified tail. Keeps the
        number of series terms summed as lambda_terms."""
        total = np.zeros((self.M, self.M), dtype=np.complex128)
        rmax, mmax = self.spec.pole_decay, max(self.spec.mults)
        for l in range(_LAMBDA_BLOCK, _LAMBDA_MAX_TERMS + 1, _LAMBDA_BLOCK):
            ls = np.arange(l - _LAMBDA_BLOCK, l)
            s = self._slot_powers(ls, ls)       # p_m scalars, m < l
            total += s.T @ np.conj(s)
            # tail: sum_{m>=l} ||s_m||^2, closed with a ratio bound once
            # the per-term ratio bound, decreasing in l, falls below 1
            term = float(np.vdot(self.p_scalars(l), self.p_scalars(l)).real)
            ratio = rmax ** 2 * ((l + mmax) / l) ** (2 * (mmax - 1))
            if ratio < 1.0 and l >= 2 * mmax and term / (1.0 - ratio) \
                    < 1e-14 * max(1.0, float(np.abs(total).max())):
                break
        else:
            raise errors.ToleranceUnreachable(
                f"Lambda series tail above tolerance after {l} terms")
        self.lambda_terms = l
        series = _kron_scalar(total, self.d)
        dev = float(np.abs(series - self.lambda_mat).max())
        if dev > _LAMBDA_CHECK_TOL * max(
                1.0, float(np.abs(self.lambda_mat).max())):
            raise errors.NumericalError(
                f"Lambda closed form deviates from its series by {dev:.3e}")

    # -- Theta ------------------------------------------------------------ #

    def _contour_radius(self, mu):
        spec = self.spec
        p = spec.poles[mu]
        dist = 1.0 - abs(p)
        for nu in range(spec.K):
            if nu != mu:
                dist = min(dist, abs(p - spec.poles[nu]))
        if spec.m0 >= 1:
            dist = min(dist, abs(p))
        return 0.25 * dist

    def _laurent_samples(self, mu, radius, nodes):
        """Samples of f(z) = h_sharp(z) h_dagger(z)^{-1} on the circle of
        given radius around p_mu, plus the node phases."""
        spec = self.spec
        phases = np.exp(2j * np.pi * np.arange(nodes) / nodes)
        zs = spec.poles[mu] + radius * phases
        from .symbol import h_inv_on_grid
        hs = np.linalg.inv(h_inv_on_grid(spec, zs, sharp=True))
        hdag_inv = herm(h_inv_on_grid(spec, 1.0 / np.conj(zs)))
        return hs @ hdag_inv, phases

    def build_theta(self):
        """theta_{mu,j}: minus the coefficient of (z - p_mu)^{-j} in the
        Laurent expansion of h_sharp h_dagger^{-1} at p_mu, by trapezoid
        contour quadrature (doubled-node agreement within 1e-9 required);
        assembled into the anti-triangular Hankel blocks of Theta."""
        spec = self.spec
        theta_values = []
        for mu in range(spec.K):
            radius = self._contour_radius(mu)
            if radius < 1e-6:
                raise errors.ContourTooTight(
                    f"pole {mu}: usable radius {radius:.2e}; supply a "
                    "better-separated symbol or override the contour")
            f1, ph1 = self._laurent_samples(mu, radius, _CONTOUR_NODES)
            f2, ph2 = self._laurent_samples(mu, radius, 2 * _CONTOUR_NODES)
            mults = spec.mults[mu]
            vals, vals2 = [], []
            for j in range(1, mults + 1):
                w1 = (radius ** j) * ph1 ** j
                w2 = (radius ** j) * ph2 ** j
                vals.append(-(w1[:, None, None] * f1).mean(axis=0))
                vals2.append(-(w2[:, None, None] * f2).mean(axis=0))
            dev = max(float(np.abs(a - b).max())
                      for a, b in zip(vals, vals2))
            if dev > 1e-9:
                raise errors.QuadratureNotConverged(
                    f"pole {mu}: doubling nodes moved theta by {dev:.3e}")
            theta_values.append(vals2)
        # Hankel assembly: Theta_mu[i, j] = theta_{mu, i+j-1}, zero past m_mu
        Md = self.M * self.d
        theta = np.zeros((Md, Md), dtype=np.complex128)
        d = self.d
        for mu in range(spec.K):
            base = self.offsets[mu]
            m = spec.mults[mu]
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    if i + j - 1 <= m:
                        r0 = (base + i - 1) * d
                        c0 = (base + j - 1) * d
                        theta[r0:r0 + d, c0:c0 + d] = \
                            theta_values[mu][i + j - 2]
        return theta_values, theta

    # -- n-dependent closed forms ------------------------------------------ #

    def pi_mat(self, n):
        """Pi_n = diag(p_mu^n) U_n: block-diagonal,
        upper-triangular-Toeplitz per pole with entries p_{mu, c-i+1}(n)."""
        pn = np.repeat(self.pole_of_slot ** int(n), self.d)
        return pn[:, None] * self.u_mat(n)

    def u_mat(self, n):
        """Pi_n with the diagonal power scaling factored out:
        Pi_n = diag(p_mu^n) U_n; U_n carries only the polynomially
        growing binomials, so it is safe at any n."""
        d = self.d
        out = np.zeros((self.M * d, self.M * d), dtype=np.complex128)
        for mu in range(self.spec.K):
            base = self.offsets[mu]
            m = self.spec.mults[mu]
            p = self.spec.poles[mu]
            for i in range(1, m + 1):
                for c in range(i, m + 1):
                    val = binom(n, c - i) * p ** (i - c)
                    r0 = (base + i - 1) * d
                    c0 = (base + c - 1) * d
                    out[r0:r0 + d, c0:c0 + d] = val * np.eye(d)
        return out

    def _slot_powers(self, k, e):
        """C(k, i-1) p_mu^{e-i+1} per slot (mu, i), vectorized over
        integer arrays k and e -> (len, M); p_n has k = e = n."""
        poles = self.spec.poles
        return np.stack([binom_vec(k, i - 1) * poles[mu] ** (e - i + 1)
                         for mu, i in self.slots], axis=-1)

    def xi_scalars(self, ns, scaled=False):
        """Scalar entries of Xi_n for an array of n >= 1; with
        scaled=True returns diag(p_mu^n) Xi_n instead (entries then decay
        like (p_mu conj(p_nu))^n, safe at any n)."""
        ns = np.asarray(ns, dtype=np.int64)
        out = np.zeros((len(ns), self.M, self.M), dtype=np.complex128)
        spec = self.spec
        for qr, (mu, i) in enumerate(self.slots):
            for qc, (nu, j) in enumerate(self.slots):
                p, pb = spec.poles[mu], np.conj(spec.poles[nu])
                denom = 1.0 - p * pb
                pw = (p * pb) ** ns if scaled else pb ** ns
                acc = np.zeros(len(ns), dtype=np.complex128)
                for r in range(j):
                    const = (binom(i + j - r - 2, i - 1)
                             * p ** (j - r - 1) * pb ** (i + j - r - 2)
                             / denom ** (i + j - r - 1))
                    acc += binom_vec(ns + i + j - 2, r) * const
                out[:, qr, qc] = acc * pw
        return out

    def phi_scalars(self, ns, scaled=True):
        """Scalar entries of diag(p_mu^n) Phi_n for an array of n (the
        scaled variant is polynomial in n; scaled=False divides the power
        back out and is only safe for moderate |n|)."""
        ns = np.asarray(ns, dtype=np.int64)
        out = np.zeros((len(ns), self.M, self.M), dtype=np.complex128)
        spec = self.spec
        for qr, (mu, i) in enumerate(self.slots):
            for qc, (nu, j) in enumerate(self.slots):
                p, pb = spec.poles[mu], np.conj(spec.poles[nu])
                denom = 1.0 - p * pb
                acc = np.zeros(len(ns), dtype=np.complex128)
                for q in range(i):
                    for r in range(j):
                        const = (binom(j - 1, r) * binom(r + q, q)
                                 * p ** (r + q + 1 - i) * pb ** (r + q)
                                 / denom ** (r + q + 1))
                        acc += binom_vec(r - ns, i - q - 1) * const
                if not scaled:
                    acc = acc * p ** (-ns)
                out[:, qr, qc] = acc
        return out

    # -- G and the beta / b closed forms -------------------------------- #

    def g_mats(self, n):
        """(G_n, G~_n) = (Pi_n Theta Lambda, (Pi_n Theta)* Lambda^T)."""
        return self._g_from(self.pi_mat(n) @ self.theta_mat)

    def _g_from(self, pit):
        """(G_n, G~_n) from pit = Pi_n Theta."""
        return pit @ self.lambda_mat, herm(pit) @ self.lambda_mat.T

    def spectral_radius(self, n):
        """Spectral radius of G~_n G_n, unchecked."""
        g, gt = self.g_mats(n)
        return float(np.abs(np.linalg.eigvals(gt @ g)).max())

    def checked_g_mats(self, n):
        """(Pi_n Theta, G_n, G~_n, spectral radius of G~_n G_n). Raises
        ResolventSingular unless the radius is below 1, which keeps
        I - G~G and I - GG~ invertible and the correction series
        convergent."""
        pit = self.pi_mat(n) @ self.theta_mat
        g, gt = self._g_from(pit)
        radius = float(np.abs(np.linalg.eigvals(gt @ g)).max())
        if radius >= 1.0:
            raise errors.ResolventSingular(
                f"spectral radius of G~G at n={n} is {radius:.6f} >= 1")
        return pit, g, gt, radius

    # -- the rank-correction vectors ------------------------------------- #

    def plan(self, n):
        """The SolvePlan of order n. The kit keeps the plan of the last n
        it was asked for, so it holds at most one; a build that raises
        (ResolventSingular) is not kept."""
        n = int(n)
        if self._plan is not None and self._plan.n == n:
            return self._plan
        self._plan = None       # free the old plan before building
        pit, g, gt, radius = self.checked_g_mats(n)
        M, m0 = self.M, self.spec.m0
        span = n - m0
        ms = np.arange(1, n + 1)
        xi = np.moveaxis(self.xi_scalars(ms), 0, -1)
        powers = np.asarray(self.spec.poles)[:, None] ** np.arange(n + 1)
        pole = np.array([mu for mu, _ in self.slots])   # slot -> pole
        diff = np.empty((M, M + m0 + 1, span), dtype=np.complex128)
        diff[:, :M] = np.moveaxis(self.phi_scalars(ms[:span]), 0, -1)
        diff[:, :M] -= powers[pole, None, 1:span + 1] * xi[..., :span]
        for l in range(m0 + 1):
            # band term l of hat-w cancels that of hat-v at m <= l
            diff[:, M + l] = self._slot_powers(l - ms[:span], l).T
            diff[:, M + l, :l] = 0
        lam, eye = self.lambda_mat, np.eye(M * self.d)
        top = eye + lam.T @ g @ np.linalg.solve(eye - gt @ g, herm(pit))
        bot = eye + lam @ gt @ np.linalg.solve(eye - g @ gt, pit)
        k_n = np.block([[top @ lam.T @ pit, top],
                        [bot, bot @ lam @ herm(pit)]])
        self._plan = SolvePlan(
            n, radius, k_n, self.u_mat(n) @ self.theta_mat,
            np.ascontiguousarray(xi[..., m0:]),
            np.stack(self.vectors("v", ms[:m0])), diff, powers)
        return self._plan

    def vectors(self, kind, ms, scaled=False):
        """The vectors x_m and x~_m of kind 'v' or 'w' for an integer
        array of indices m >= 1, each as a (len(ms), M d, d) stack:

            v_m = Xi_m rho + sum_{l=m}^{m0} p_{l-m} rho0_l,
            w_m = Phi_m rho + sum_{l=0}^{m0} p_{l-m} rho0_l

        (rho0_0 = rho00, slot scalars acting on the stacked residues),
        and their tilde partners from the conjugated scalars and the
        coefficients of h~^{-1}. scaled=True multiplies the rows of slot
        (mu, i) by p_mu^m (conj(p_mu)^m for the tilde partner); w is then
        polynomial in m, while unscaled w overflows once |p_mu|^{-m}
        leaves float range.
        """
        spec = self.spec
        ms = np.asarray(ms, dtype=np.int64)
        scal = {"v": self.xi_scalars, "w": self.phi_scalars}[kind](ms, scaled)
        x = np.einsum("nqr,rab->nqab", scal, self.rho_stack)
        xt = np.einsum("nqr,rab->nqab", np.conj(scal), self.rho_tilde_stack)
        band = [spec.rho00, *spec.rho0]
        band_t = [herm(m) for m in (spec.sharp_rho00, *spec.sharp_rho0)]
        for l in range(spec.m0 + 1):
            rows = ms <= l if kind == "v" else slice(None)
            k = l - ms[rows]
            ps = self._slot_powers(k, l if scaled else k)
            x[rows] += ps[:, :, None, None] * band[l]
            xt[rows] += np.conj(ps)[:, :, None, None] * band_t[l]
        flat = (len(ms), self.M * self.d, self.d)
        return x.reshape(flat), xt.reshape(flat)

    def beta_closed(self, k):
        """beta_k for k >= m0 + 1, from beta_k* = p_0^T Pi_{k-1} Theta p_0."""
        if k < self.spec.m0 + 1:
            raise errors.DomainViolation("beta closed form needs k >= m0+1")
        p0 = self.p_vec(0)
        val = p0.T @ self.pi_mat(k - 1) @ self.theta_mat @ p0
        return herm(val)

    def closed_beta(self, n, k, l):
        """beta_{n+k+l+1} via beta*_{n+k+l+1} = p_l^T Pi_n Theta p_k,
        on the stated domain n + k + l >= m0."""
        if n + k + l < self.spec.m0:
            raise errors.DomainViolation(
                f"closed beta needs n+k+l >= m0 = {self.spec.m0}")
        val = self.p_vec(l).T @ self.pi_mat(n) @ self.theta_mat @ self.p_vec(k)
        return herm(val)

    def b_closed(self, n, u, level, l):
        """Closed form of the recursion coefficient b^{level}_{n,u,l},
        valid for n >= u >= m0 + 1."""
        if not (n >= u >= self.spec.m0 + 1):
            raise errors.DomainViolation(
                "b closed form needs n >= u >= m0 + 1")
        pit = self.pi_mat(n) @ self.theta_mat
        g, gt = self._g_from(pit)
        left = herm(self.p_vec(u - n - 1))
        if level % 2 == 1:  # level = 2k - 1
            core = np.linalg.matrix_power(gt @ g, (level + 1) // 2 - 1)
            return left @ core @ herm(pit) @ np.conj(self.p_vec(l))
        core = np.linalg.matrix_power(gt @ g, level // 2 - 1)
        return left @ core @ gt @ pit @ self.p_vec(l)

    def b_tilde_closed(self, n, u, level, l):
        """Closed form of b~^{level}_{n,u,l}, valid for 1 <= u <= n - m0."""
        if not (1 <= u <= n - self.spec.m0):
            raise errors.DomainViolation(
                "b~ closed form needs 1 <= u <= n - m0")
        pit = self.pi_mat(n) @ self.theta_mat
        g, gt = self._g_from(pit)
        left = self.p_vec(-u).T
        if level % 2 == 1:
            core = np.linalg.matrix_power(g @ gt, (level + 1) // 2 - 1)
            return left @ core @ pit @ self.p_vec(l)
        core = np.linalg.matrix_power(g @ gt, level // 2 - 1)
        return left @ core @ g @ herm(pit) @ np.conj(self.p_vec(l))


class SolveVectors:
    """The n-dependent vectors of the rank-correction formulas: v, v~,
    w, w~ for indices 1..n (unscaled, from ClosedFormKit.vectors), the
    resolvents of I - G~G and I - GG~, and the correction factors
    l_{n,s}, r_{n,s} (plus tilde variants).

    The unscaled w overflow once |p_mu|^{-n} exceeds float range; the
    linear-time solver assembles from the scaled vectors for large n.
    """

    def __init__(self, kit, n):
        if n < kit.spec.m0 + 1:
            raise errors.DomainViolation("need n >= m0 + 1")
        self.kit = kit
        self.n = n
        ns = np.arange(1, n + 1)
        self.v, self.v_tilde = kit.vectors("v", ns)
        self.w, self.w_tilde = kit.vectors("w", ns)
        self.pi_theta, self.g, self.g_tilde, self.spectral_radius = \
            kit.checked_g_mats(n)
        eye = np.eye(kit.M * kit.d)
        self.resolvent = np.linalg.inv(eye - self.g_tilde @ self.g)
        self.resolvent_tilde = np.linalg.inv(eye - self.g @ self.g_tilde)

    def ell(self, s):
        """l_{n,s} = (w_{n+1-s} - v_{n+1-s})* (I - G~G)^{-1}, (d, Md)."""
        m = self.n + 1 - s
        return herm(self.w[m - 1] - self.v[m - 1]) @ self.resolvent

    def ell_tilde(self, s):
        """l~_{n,s} = (w~_s - v~_s)* (I - GG~)^{-1}, (d, Md)."""
        return herm(self.w_tilde[s - 1] - self.v_tilde[s - 1]) \
            @ self.resolvent_tilde

    def r(self, s):
        """r_{n,s} = (Pi Theta)* v~_s + G~ Pi Theta v_{n+1-s}, (Md, d)."""
        vt, v = self.v_tilde[s - 1], self.v[self.n - s]
        return herm(self.pi_theta) @ vt + self.g_tilde @ (self.pi_theta @ v)

    def r_tilde(self, s):
        """r~_{n,s} = Pi Theta v_{n+1-s} + G (Pi Theta)* v~_s, (Md, d)."""
        vt, v = self.v_tilde[s - 1], self.v[self.n - s]
        return self.pi_theta @ v + self.g @ (herm(self.pi_theta) @ vt)


# -- Gram sums and regional inverse formulas ----------------------------- #

def _stacked_gram(x, y):
    """sum_l x_l* y_l over two (m, d, d) stacks, as one gemm."""
    d = x.shape[-1]
    return herm(x.reshape(-1, d)) @ y.reshape(-1, d)


def gram_tilde(tables, s, t):
    """sum_{l=1}^{min(s,t)} a~_{s-l}* a~_{t-l}: the (s, t) block of
    A~_n* A~_n (equivalently of the infinite inverse)."""
    m = min(s, t)
    at = tables.a_stack(max(s, t) - 1, tilde=True)
    return _stacked_gram(at[s - m:s], at[t - m:t])


def gram_plain(tables, n, s, t):
    """sum_{l=max(s,t)}^{n} a_{l-s}* a_{l-t}: the (s, t) block of A_n* A_n."""
    lo = max(s, t)
    a = tables.a_stack(n - min(s, t))
    return _stacked_gram(a[lo - s:n - s + 1], a[lo - t:n - t + 1])


def inverse_block_ar(spec, n, s, t, tables=None, check_overlap=True,
                     overlap_tol=1e-12):
    """(s, t) block of T_n(w)^{-1} for an AR symbol (K = 0): the pure
    Gram sums, dispatched by the four coverage regions."""
    if spec.K != 0:
        raise errors.DomainViolation("AR formulas need K = 0")
    if n < spec.m0 + 1:
        raise errors.DomainViolation("need n >= m0 + 1")
    if tables is None:
        tables = CoefficientTables(spec)
    m0 = spec.m0
    tilde_ok = (t <= n - m0) or (s <= n - m0)
    plain_ok = (t >= m0 + 1) or (s >= m0 + 1)
    if not (tilde_ok or plain_ok):
        raise errors.RegionUncovered(
            f"(s, t) = ({s}, {t}) outside every region at n = {n}")
    if tilde_ok:
        out = gram_tilde(tables, s, t)
        if plain_ok and check_overlap:
            other = gram_plain(tables, n, s, t)
            dev = float(np.abs(out - other).max())
            if dev > overlap_tol * max(1.0, float(np.abs(out).max())):
                raise errors.OverlapMismatch(
                    f"AR region overlap deviates by {dev:.3e} "
                    f"at (s, t) = ({s}, {t})")
        return out
    return gram_plain(tables, n, s, t)


def inverse_block_arma(spec, n, s, t, sv=None, tables=None,
                       check_overlap=True, overlap_tol=1e-11):
    """(s, t) block of T_n(w)^{-1} for K >= 1: triangular Gram sum plus
    the dM-rank correction, dispatched by region with the row forms
    (l~ r~, l r) preferred; overlapping regions are cross-checked."""
    if spec.K < 1:
        return inverse_block_ar(spec, n, s, t, tables=tables,
                                check_overlap=check_overlap)
    if tables is None:
        tables = CoefficientTables(spec)
    if sv is None:
        sv = SolveVectors(ClosedFormKit(spec), n)
    m0 = spec.m0
    candidates = []  # (name, value or lazy)
    if s <= n - m0:
        candidates.append(("ii", lambda: sv.ell_tilde(s) @ sv.r_tilde(t)
                           + gram_tilde(tables, s, t)))
    if t <= n - m0:
        candidates.append(("i", lambda: herm(sv.r_tilde(s)) @
                           herm(sv.ell_tilde(t)) + gram_tilde(tables, s, t)))
    if s >= m0 + 1:
        candidates.append(("iv", lambda: sv.ell(s) @ sv.r(t)
                           + gram_plain(tables, n, s, t)))
    if t >= m0 + 1:
        candidates.append(("iii", lambda: herm(sv.r(s)) @ herm(sv.ell(t))
                           + gram_plain(tables, n, s, t)))
    if not candidates:
        raise errors.RegionUncovered(
            f"(s, t) = ({s}, {t}) outside every region at n = {n}")
    order = {"ii": 0, "iv": 1, "i": 2, "iii": 3}
    candidates.sort(key=lambda c: order[c[0]])
    out = candidates[0][1]()
    if check_overlap and len(candidates) > 1:
        # cross-check against one formula from the other family, if any
        fam = candidates[0][0] in ("i", "ii")
        for name, fn in candidates[1:]:
            if (name in ("i", "ii")) != fam:
                other = fn()
                dev = float(np.abs(out - other).max())
                if dev > overlap_tol * max(1.0, float(np.abs(out).max())):
                    raise errors.OverlapMismatch(
                        f"regions {candidates[0][0]}/{name} deviate by "
                        f"{dev:.3e} at (s, t) = ({s}, {t})")
                break
    return out


def inverse_block_closed(spec, n, s, t, **kwargs):
    """Region-dispatched closed-form block, AR or ARMA as appropriate."""
    if spec.K == 0:
        kwargs.pop("sv", None)
        return inverse_block_ar(spec, n, s, t, **kwargs)
    return inverse_block_arma(spec, n, s, t, **kwargs)


def inverse_matrix_closed(spec, n, tables=None, check_overlap=False):
    """Full T_n(w)^{-1} assembled from the closed forms, as a dense
    (d n, d n) array."""
    if tables is None:
        tables = CoefficientTables(spec)
    d = spec.d
    sv = None
    if spec.K >= 1:
        sv = SolveVectors(ClosedFormKit(spec), n)
    out = np.zeros((n * d, n * d), dtype=np.complex128)
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            blk = inverse_block_closed(spec, n, s, t, sv=sv, tables=tables,
                                       check_overlap=check_overlap)
            out[(s - 1) * d:s * d, (t - 1) * d:t * d] = blk
    return out
