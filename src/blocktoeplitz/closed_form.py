"""Closed-form inverse machinery for rational symbols.

Everything here lives in a dM x dM space indexed by (pole, multiplicity
slot) pairs, M = sum of multiplicities:

* Lambda: the Gram matrix sum_l p_l p_l* of the stacked pole-power
  vectors, in closed form;
* Theta: block-diagonal Hankel matrices of the principal parts of
  h_sharp(z) h_dagger(z)^{-1} at each pole, in closed form from the
  Taylor coefficients of h_sharp^{-1} there;
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
from .symbol import _UNIT_ROUNDOFF, _invert, h_inv_taylor
from .util import binom, binom_vec, herm

# block length of the pole powers in ClosedFormKit.sequences
_POWER_BLOCK = 256
# relative tolerances of inverse_block_closed's cross-check, K = 0 and K >= 1
_AR_OVERLAP_TOL = 1e-12
_ARMA_OVERLAP_TOL = 1e-11


class SolvePlan(NamedTuple):
    """The part of a linear-time solve at order n that does not depend on
    the right-hand side Y, built afresh by ClosedFormKit.plan(n). Every
    slot scalar of the rank correction is a pole power times a polynomial
    in the block index m, so the plan keeps a small coefficient array
    that acts on the 2M sequences of kit.sequences(n); the slot scalars
    of v_m come from kit.v_coef. Nothing in it grows with n.

    * spectral_radius: the radius of G~_n G_n;
    * resolvent_cond: the 2-norm condition number of I - G~_n G_n, the
      matrix whose inverse R enters k_n;
    * k_n: the fixed 2Md x 2Md map that takes the sums
      [sum_t v_{n+1-t} y_t; sum_t v~_t y_t] (unscaled v) to the
      resolvent-corrected [g_vec; g~_vec]. With P = Pi_n Theta,
      R = (I - G~G)^{-1} and R~ = (I - GG~)^{-1},

          top = I + Lambda^T G R P*,     bot = I + Lambda G~ R~ P,
          K_n = [[top Lambda^T P,  top              ],
                 [bot,             bot Lambda P*    ]];

    * ut: U_n Theta, where Pi_n Theta = diag(p^n) U_n Theta; it is
      block-diagonal by pole;
    * d_coef: (M, M + m0 + 1, 2M + m0) coefficients of the scalars of
      diag(p^{n-m}) (hat-w - hat-v)_m = diag(p^{n-m}) hat-w_m
      - diag(p^n) v_m on all 2M sequences and the m0 unit rows: the
      kit's w_coef first, then -p_mu^n times its v_coef.

    The plain-row correction at s = m0+1..n is B_s* g_vec and the
    tilde-row one at s = 1..n-m0 is B~_s* g~_vec, with

        B_s  = diag(p^{s-1})    U_n Theta     (hat-w - hat-v)_{n+1-s},
        B~_s = diag(pbar^{n-s}) (U_n Theta)*  (hat-w~ - hat-v~)_s,

    so row s takes the d_coef scalars at m = s (tilde) or their
    conjugates at m = n + 1 - s (plain), since ut keeps each pole's
    power on its own slots.
    """

    spectral_radius: float
    resolvent_cond: float
    k_n: np.ndarray
    ut: np.ndarray
    d_coef: np.ndarray


def _kron_scalar(scal, d):
    """(M, M) scalar matrix -> (M d, M d) by scal (x) I_d."""
    return np.kron(np.asarray(scal, dtype=np.complex128), np.eye(d))


def _basis(terms, out):
    """Add sum const C(m + c, r) over the terms (c, r, const) to out as
    coefficients on the basis C(m, a), a = 0, 1, ..., by Vandermonde's
    identity C(m + c, r) = sum_a C(c, r - a) C(m, a), which holds for
    any integer c."""
    for c, r, const in terms:
        for a in range(r + 1):
            out[a] += const * binom(c, r - a)


class ClosedFormKit:
    """All n-independent closed-form data for one symbol with K >= 1, in
    closed form with no series and no iteration cap (_check_lambda_stein)."""

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
        # the blocks the slot scalars act on: residues, then the band
        # blocks of h^{-1} (of h~^{-1} for the tilde partner)
        self.ext_stack = np.concatenate(
            [self.rho_stack, np.stack([spec.rho00, *spec.rho0])])
        self.ext_tilde_stack = np.concatenate(
            [self.rho_tilde_stack,
             herm(np.stack([spec.sharp_rho00, *spec.sharp_rho0]))])
        self.lambda_mat = self.build_lambda()
        self.theta_values, self.theta_mat = self.build_theta()
        self.v_coef, self.w_coef = self._coefficients()
        self._check_lambda_stein()

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

    def _check_lambda_stein(self):
        """Construction-time check of the closed-form Lambda against the
        Stein identity of its series, Lambda = J Lambda J* + p_0 p_0*, with
        J = (diag(p) + the shift within each pole's slots) (x) I_d, so that
        p_{l+1} = J p_l. NumericalError unless every entry of the residual
        is within 8 (Md + 4) u (|J| |Lambda| |J|^T + |Lambda| + |p_0| |p_0|^T),
        the rounding bound of the products (Higham, Accuracy and Stability
        of Numerical Algorithms, sec. 3.5)."""
        shift = np.diag([float(i > 1) for _, i in self.slots[1:]], -1)
        J = _kron_scalar(np.diag(self.pole_of_slot) + shift, self.d)
        lam, p0 = self.lambda_mat, self.p_vec(0)
        dev = np.abs(lam - J @ lam @ herm(J) - p0 @ herm(p0))
        bound = 8 * (len(lam) + 4) * _UNIT_ROUNDOFF * (
            np.abs(J) @ np.abs(lam) @ np.abs(J).T + np.abs(lam)
            + np.abs(p0) @ np.abs(p0).T)
        if not (dev <= bound).all():
            raise errors.NumericalError(
                f"Lambda misses its Stein identity by {dev.max():.3e}")

    # -- Theta ------------------------------------------------------------ #

    def build_theta(self):
        """theta_{mu,i}: minus the coefficient of (z - p)^{-i} in the
        Laurent expansion of h_sharp h_dagger^{-1} at p = p_mu, assembled
        into the anti-triangular Hankel blocks of Theta. The principal
        part of h_dagger(z)^{-1} at p is -sum_j z^j (z - p)^{-j} rho_{mu,j}*
        and h_sharp is analytic there, so theta_{mu,i} sums the
        (j - i)-th Taylor coefficients of z^j h_sharp(z) at p times
        rho_{mu,j}*:

            theta_{mu,i} = sum_{j=i..m} sum_{a=0..j-i}
                               C(j, a) p^{j-a} H_{j-i-a} rho_{mu,j}*

        with the Taylor coefficients H_k of h_sharp at p from those F_k of
        h_sharp^{-1} by power-series inversion: H_0 = F_0^{-1},
        H_k = -H_0 sum_{l=1..k} F_l H_{k-l}."""
        spec = self.spec
        theta_values = []
        for mu, p in enumerate(spec.poles):
            m = spec.mults[mu]
            f = [h_inv_taylor(spec, [p], k, sharp=True)[0]
                 for k in range(m)]
            h = [_invert(f[0])]
            for k in range(1, m):
                h.append(-h[0] @ sum(f[l] @ h[k - l]
                                     for l in range(1, k + 1)))
            theta_values.append([
                sum(sum(binom(j, a) * p ** (j - a) * h[j - i - a]
                        for a in range(j - i + 1)) @ herm(spec.rho[mu][j - 1])
                    for j in range(i, m + 1))
                for i in range(1, m + 1)])
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

    def _xi_terms(self, qr, qc):
        """The terms (c, r, const) of the Xi scalar of slots qr = (mu, i),
        qc = (nu, j): Xi_m[qr, qc] = conj(p_nu)^m sum const C(m + c, r),
        with r < j."""
        (mu, i), (nu, j) = self.slots[qr], self.slots[qc]
        p, pb = self.spec.poles[mu], np.conj(self.spec.poles[nu])
        denom = 1.0 - p * pb
        for r in range(j):
            yield i + j - 2, r, (binom(i + j - r - 2, i - 1)
                                 * p ** (j - r - 1) * pb ** (i + j - r - 2)
                                 / denom ** (i + j - r - 1))

    def _phi_terms(self, qr, qc):
        """The terms (c, k, const) of the scaled Phi scalar of slots
        qr = (mu, i), qc = (nu, j): p_mu^m Phi_m[qr, qc] = sum const
        C(m + c, k), with k < i. Each comes from a C(r - m, k) term by
        C(r - m, k) = (-1)^k C(m + k - r - 1, k)."""
        (mu, i), (nu, j) = self.slots[qr], self.slots[qc]
        p, pb = self.spec.poles[mu], np.conj(self.spec.poles[nu])
        denom = 1.0 - p * pb
        for q in range(i):
            k = i - q - 1
            for r in range(j):
                yield k - r - 1, k, ((-1) ** k * binom(j - 1, r)
                                     * binom(r + q, q)
                                     * p ** (r + q + 1 - i) * pb ** (r + q)
                                     / denom ** (r + q + 1))

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
        """The SolvePlan of order n, built afresh on every call: a few
        2Md x 2Md products and one scaling of v_coef."""
        n = int(n)
        pit, g, gt, radius = self.checked_g_mats(n)
        lam, eye = self.lambda_mat, np.eye(self.M * self.d)
        i_gtg = eye - gt @ g
        top = eye + lam.T @ g @ np.linalg.solve(i_gtg, herm(pit))
        bot = eye + lam @ gt @ np.linalg.solve(eye - g @ gt, pit)
        k_n = np.block([[top @ lam.T @ pit, top],
                        [bot, bot @ lam @ herm(pit)]])
        # -diag(p^n) v_m: the row of slot (mu, i) times -p_mu^n
        minus_v = -(self.pole_of_slot ** n)[:, None, None] * self.v_coef
        return SolvePlan(radius, float(np.linalg.cond(i_gtg)), k_n,
                         self.u_mat(n) @ self.theta_mat,
                         np.concatenate([self.w_coef, minus_v], axis=-1))

    def _coefficients(self):
        """(v_coef, w_coef): the n-free coefficients of the slot scalars
        of v_m and of hat-w_m = diag(p^m) w_m (see slot_scalars), the one
        source of both. Column j < M of v_coef weighs the sequence
        C(m, i-1) conj(p_mu)^m of slot j = (mu, i), and columns M.. the m0
        unit rows [m == 1] .. [m == m0]; column j of w_coef weighs
        C(m, i-1), and only the slots of the row's pole are used. Xi_m, the scaled
        Phi_m and the band terms are written in the basis C(m, a) by
        Vandermonde's identity (see _basis). Band term l of slot (mu, i)
        is C(l - m, i-1) p_mu^{l-m-i+1}: w takes it at every m, v only at
        m <= l, so v's band terms sit on the m0 unit rows."""
        M, m0, poles = self.M, self.spec.m0, self.spec.poles
        v_coef = np.zeros((M, M + m0 + 1, M + m0), dtype=np.complex128)
        w_coef = np.zeros((M, M + m0 + 1, M), dtype=np.complex128)
        for qr, qc in np.ndindex(M, M):
            _basis(self._xi_terms(qr, qc),
                   v_coef[qr, qc, self.offsets[self.slots[qc][0]]:])
            _basis(self._phi_terms(qr, qc),
                   w_coef[qr, qc, self.offsets[self.slots[qr][0]]:])
        for qr, (mu, i) in enumerate(self.slots):
            p = poles[mu]
            for l in range(m0 + 1):
                # scaled by p^m, by C(l - m, k) = (-1)^k C(m + k - l - 1, k)
                _basis([(i - 2 - l, i - 1,
                         (-1) ** (i - 1) * p ** (l - i + 1))],
                       w_coef[qr, M + l, self.offsets[mu]:])
                for m in range(1, l + 1):
                    v_coef[qr, M + l, M + m - 1] = (binom(l - m, i - 1)
                                                    * p ** (l - m - i + 1))
        return v_coef, w_coef

    def sequences(self, n):
        """The 2M sequences of the rank correction of order n as a (2M, n)
        array over m = 1..n: for slot q = (mu, i), row q is
        C(m, i-1) p_mu^{n-m} and row M + q is C(m, i-1) conj(p_mu)^m.
        Both are bounded by C(n, i-1), so none leaves float range however
        close |p_mu| is to 1. The powers p^e are an outer product of
        block powers p^{a B} p^b, b < B = _POWER_BLOCK."""
        B, M = _POWER_BLOCK, self.M
        poles = np.asarray(self.spec.poles)[:, None]
        pw = ((poles ** (B * np.arange(n // B + 1)))[:, :, None]
              * (poles ** np.arange(B))[:, None]).reshape(len(poles), -1)
        out = np.empty((2 * M, n), dtype=np.complex128)
        for q, (mu, i) in enumerate(self.slots):
            out[q] = pw[mu, n - 1::-1]
            np.conjugate(pw[mu, 1:n + 1], out=out[M + q])
            if i > 1:
                out[q::M] *= binom_vec(np.arange(1, n + 1), i - 1)
        return out

    def slot_scalars(self, kind, ms, scaled=False):
        """The (len(ms), M, M + m0 + 1) slot scalars of the vectors x_m of
        kind 'v' or 'w' on ext_stack, for an integer array ms:

            v_m = Xi_m rho + sum_{l=m}^{m0} p_{l-m} rho0_l    (m >= 1),
            w_m = Phi_m rho + sum_{l=0}^{m0} p_{l-m} rho0_l   (any m)

        (rho0_0 = rho00), so that block q of x_m is
        sum_e scal[m, q, e] ext_stack[e], the residue columns first. The
        conjugated scalars on ext_tilde_stack give x~_m. They are v_coef
        or w_coef contracted with their basis sequences at ms (see
        _coefficients). scaled=True multiplies the row of slot (mu, i) by
        p_mu^m; w is then polynomial in m, while unscaled w overflows
        once |p_mu|^{-m} leaves float range."""
        ms = np.asarray(ms, dtype=np.int64)
        basis = np.stack([binom_vec(ms, i - 1) for _, i in self.slots])
        if kind == "v":
            units = ms == np.arange(1, self.spec.m0 + 1)[:, None]
            basis = np.concatenate(
                [basis * np.conj(self.pole_of_slot)[:, None] ** ms, units])
            coef, power = self.v_coef, ms if scaled else None
        else:
            coef, power = self.w_coef, None if scaled else -ms
        scal = np.einsum("qkj,jm->mqk", coef, basis)
        if power is not None:
            scal *= (self.pole_of_slot[:, None] ** power).T[..., None]
        return scal

    def vectors(self, kind, ms, scaled=False):
        """The vectors x_m and x~_m of kind 'v' or 'w' (see slot_scalars)
        for an integer array of indices m, each as a (len(ms), M d, d)
        stack."""
        scal = self.slot_scalars(kind, ms, scaled)
        flat = (len(scal), self.M * self.d, self.d)
        return tuple(np.einsum("nqe,eab->nqab", s, ext).reshape(flat)
                     for s, ext in ((scal, self.ext_stack),
                                    (np.conj(scal), self.ext_tilde_stack)))

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


def inverse_block_closed(spec, n, s, t, sv=None, tables=None,
                         check_overlap=True):
    """(s, t) block of T_n(w)^{-1}: the tilde or plain triangular Gram sum,
    plus the dM-rank correction when K >= 1 (it vanishes for an AR
    symbol). The forms are tried by region: tilde row (s <= n - m0),
    plain row (s >= m0 + 1), tilde column (t <= n - m0), plain column
    (t >= m0 + 1); the first that covers the block gives it, and the
    first covering form of the other family cross-checks it, within
    _AR_OVERLAP_TOL for K = 0 and _ARMA_OVERLAP_TOL for K >= 1."""
    if n < spec.m0 + 1:
        raise errors.DomainViolation("need n >= m0 + 1")
    if tables is None:
        tables = CoefficientTables(spec)
    if spec.K and sv is None:
        sv = SolveVectors(ClosedFormKit(spec), n)
    m0 = spec.m0
    # (tilde family, covers the block, rank correction), in the order tried
    forms = [(True, s <= n - m0, lambda: sv.ell_tilde(s) @ sv.r_tilde(t)),
             (False, s >= m0 + 1, lambda: sv.ell(s) @ sv.r(t)),
             (True, t <= n - m0,
              lambda: herm(sv.r_tilde(s)) @ herm(sv.ell_tilde(t))),
             (False, t >= m0 + 1, lambda: herm(sv.r(s)) @ herm(sv.ell(t)))]
    covering = [(tilde, corr) for tilde, ok, corr in forms if ok]
    if not covering:
        raise errors.RegionUncovered(
            f"(s, t) = ({s}, {t}) outside every region at n = {n}")

    def value(tilde, corr):
        gram = (gram_tilde(tables, s, t) if tilde
                else gram_plain(tables, n, s, t))
        return corr() + gram if spec.K else gram

    out = value(*covering[0])
    other = [f for f in covering if f[0] != covering[0][0]]
    if check_overlap and other:
        dev = float(np.abs(out - value(*other[0])).max())
        tol = _ARMA_OVERLAP_TOL if spec.K else _AR_OVERLAP_TOL
        if dev > tol * max(1.0, float(np.abs(out).max())):
            raise errors.OverlapMismatch(
                f"tilde and plain forms deviate by {dev:.3e} at "
                f"(s, t) = ({s}, {t})")
    return out


def inverse_matrix_closed(spec, n, tables=None, check_overlap=False):
    """Full T_n(w)^{-1} assembled from the closed forms, as a dense
    (d n, d n) array."""
    if tables is None:
        tables = CoefficientTables(spec)
    d = spec.d
    sv = SolveVectors(ClosedFormKit(spec), n) if spec.K else None
    out = np.zeros((n * d, n * d), dtype=np.complex128)
    for s in range(1, n + 1):
        for t in range(1, n + 1):
            blk = inverse_block_closed(spec, n, s, t, sv=sv, tables=tables,
                                       check_overlap=check_overlap)
            out[(s - 1) * d:s * d, (t - 1) * d:t * d] = blk
    return out
