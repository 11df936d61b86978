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
  triangular Gram sum plus a dM-rank correction;
* T_n(w^{-1}) as one lower triangle of Gamma(k) = sum_i a_i* a_{i+k}
  plus its adjoint, and the corners E~ and E of rank (M + m0) d by
  which the two triangular Grams miss it (inverse_symbol), so that
  T_n(w)^{-1} is T_n(w^{-1}) plus a correction of rank 2 (M + m0) d,
  the shape of the Gohberg-Semencul formula.

Block indices s, t are 1-based throughout, matching the linear-algebra
conventions of the rest of the package.
"""

from typing import NamedTuple

import numpy as np

from . import errors
from .coefficients import CoefficientTables
from .symbol import _UNIT_ROUNDOFF, _invert, h_inv_taylor
from .util import binom, binom_vec, herm

# relative tolerances of inverse_block_closed's cross-check, K = 0 and K >= 1
_AR_OVERLAP_TOL = 1e-12
_ARMA_OVERLAP_TOL = 1e-11


class SolvePlan(NamedTuple):
    """The maps of a linear-time solve at order n that do not depend on
    the right-hand side Y, by ClosedFormKit.plan(n) (its corner_plan()
    when K = 0), held by fast_solver.PreparedSolve. The solver computes
    Z = T_n(w^{-1}) Y plus one correction per region: on the tilde rows
    s <= n - m0 the tilde rank correction minus E~ Y, on the plain rows
    s >= m0 + 1 the plain one minus E Y, where E~ and E are the corners
    by which A~*A~ and A*A miss T_n(w^{-1}) (see inverse_symbol). Every
    slot scalar of the rank correction, and every row of a corner, is a
    pole power times a polynomial in the block index m, so per side one
    fixed map takes a few moments of Y to coefficients on 2M + m0
    sequence rows: C(m, a) p^{n-m} and C(m, a) conj(p)^m per slot
    (mu, a + 1), and the unit rows [m == j], j = 1..m0, whose
    coefficients the linear-time solver adds straight onto blocks j and
    n + 1 - j. Nothing in it grows with n.

    * spectral_radius: the radius of G~_n G_n;
    * resolvent_cond: the 2-norm condition number of I - G~_n G_n, the
      matrix whose inverse R enters K_n below;
    * plain_map, tilde_map: ((2M + m0) d, 2 (M + m0) d), rows ordered
      (sequence row, block row). They take the moments
      [sum_t C(n+1-t, i-1) conj(p)^{n+1-t} y_t per slot; y_n .. y_{n-m0+1};
      sum_t C(t, i-1) p^t y_t per slot; y_1 .. y_{m0}] to the
      coefficients of the plain and the tilde rows, as the product of:
      V, the kit's v_coef on ext_stack (conjugated on ext_tilde_stack
      for the tilde moments), which gives [sum_t v_{n+1-t} y_t;
      sum_t v~_t y_t]; the fixed 2Md x 2Md map to [g_vec; g~_vec],
      with P = Pi_n Theta, R = (I - G~G)^{-1} and R~ = (I - GG~)^{-1},

          top = I + Lambda^T G R P*,     bot = I + Lambda G~ R~ P,
          K_n = [[top Lambda^T P,  top              ],
                 [bot,             bot Lambda P*    ]];

      U_n Theta (Pi_n Theta = diag(p^n) U_n Theta, block-diagonal by
      pole), adjoint on the plain side; and D, the scalars of
      diag(p^{n-m}) (hat-w - hat-v)_m = diag(p^{n-m}) hat-w_m
      - diag(p^n) v_m on the sequence rows (the kit's w_coef, then
      -p_mu^n times its v_coef) on ext_tilde_stack*, conjugated and on
      ext_stack* on the plain side. Last, each map subtracts its corner,
      the kit's e_plain or e_tilde, from its own side's moments to its
      last (M + m0) d rows, the C(m, a) conj(p)^m and the unit rows (see
      ClosedFormKit._minus_corners).

    The plain-row correction at s = m0+1..n is B_s* g_vec and the
    tilde-row one at s = 1..n-m0 is B~_s* g~_vec, with

        B_s  = diag(p^{s-1})    U_n Theta     (hat-w - hat-v)_{n+1-s},
        B~_s = diag(pbar^{n-s}) (U_n Theta)*  (hat-w~ - hat-v~)_s,

    so row s is tilde_map's coefficients on the sequence rows at m = s,
    or plain_map's on their conjugates at m = n + 1 - s, since U_n Theta
    keeps each pole's power on its own slots.
    """

    spectral_radius: float
    resolvent_cond: float
    plain_map: np.ndarray
    tilde_map: np.ndarray


def _check_blocks(n, *indices):
    """DomainViolation unless every index is a block index 1..n."""
    if not all(1 <= i <= n for i in indices):
        raise errors.DomainViolation(f"block indices {indices} not in 1..{n}")


def _kron_scalar(scal, d):
    """(M, M) scalar matrix -> (M d, M d) by scal (x) I_d."""
    M = len(scal)
    return (np.asarray(scal, dtype=np.complex128)[:, None, :, None]
            * np.eye(d)[:, None]).reshape(M * d, M * d)


def _basis(terms, out):
    """Add sum const C(m + c, r) over the terms (c, r, const) to out as
    coefficients on the basis C(m, a), a = 0, 1, ..., by Vandermonde's
    identity C(m + c, r) = sum_a C(c, r - a) C(m, a), which holds for
    any integer c."""
    for c, r, const in terms:
        for a in range(r + 1):
            out[a] += const * binom(c, r - a)


def inverse_symbol(spec, lam):
    """The n-free parts of T_n(w^{-1}) and of the two corners by which
    the triangular Grams miss it: (blocks, e_plain, e_tilde).

    With x_k = band_k + sum_{mu,c} C(k, c) q_mu^k hat_{mu,c} the
    coefficients a_k of -h^{-1} (q = conj(p), band = [rho00, rho0],
    hat_{mu,c} = sum_j C(j-1, c) rho_{mu,j}) or a~_k (q = p, adjoint
    sharp blocks), C(s + j, c) = sum_a C(s, a) C(j, c - a) splits x_{s+j}
    into rows C(s, a) q^s per slot (mu, a + 1), the unit rows [s == l],
    l = 1..m0, and a d x (M + m0) d block F(j) = [G_(mu,a)(j) per slot;
    band_{l+j} per unit row], G_(mu,a)(j) = sum_u C(j, u) q^j
    hat_{mu,u+a}. So sum_{j>=0} x_{s+j}* x_{t+j} is rows_s* E rows_t
    with E = sum_j F(j)* F(j), in closed form from the Gram N[x, y] =
    sum_j C(j, u_x) C(j, u_y) p_x^j conj(p_y)^j of the slots x = (mu, u),
    which is Lambda's scalar lam (M x M) scaled by p^u (conjugated for
    a~) plus the finitely many band terms j <= m0.

    * blocks: T_n(w^{-1}) has block (s, t) = Gamma(s - t), Gamma(k) =
      sum_{i>=0} a_i* a_{i+k} for k >= 0 and Gamma(k)* for -k. The lower
      triangle is held as [band_0 .. band_m0, R_{1,1} .. R_{K,m_K}] with
      the poles conj(p) and the mults of the plain factor: band_k =
      sum_{i<=m0-k} a_i* band_{i+k}, and the rest, Gamma's sum over
      C(k, f) conj(p)^k hat-Gamma_{mu,f} with hat-Gamma_(mu,f) =
      sum_i a_i* G_(mu,f)(i), turned back from the C(k, f) basis to the
      C(k+j-1, j-1) one by the inverse Pascal matrix.
    * e_plain, e_tilde: ((M + m0) d, (M + m0) d), E of a and of a~.
      T_n(w^{-1}) - A*A has block (s, t) = sum_{j>=0} a_{m+j}* a_{m'+j}
      at m = n + 1 - s, m' = n + 1 - t, and T_n(w^{-1}) - A~*A~ the
      same in a~ at m = s, m' = t; so each corner is E between its rows
      at m and the moments sum_t C(m', a) q^{m'} y_t per slot with the
      m0 blocks y at m' = 1..m0.

    For K = 0, lam is 0 x 0 and everything is the band's."""
    d, m0 = spec.d, spec.m0
    mults = np.array(spec.mults, dtype=int)
    mu_of = np.repeat(np.arange(spec.K), mults)
    first = np.cumsum([0, *mults])[mu_of]          # each slot's pole's first
    M = len(mu_of)
    degs = np.arange(M) - first
    pole = np.array(spec.poles, dtype=np.complex128)[mu_of]
    same = mu_of[:, None] == mu_of
    # slot (mu, u + a) of x = (mu, u) and q = (mu, a), or M for a zero
    hank = np.where(same & (degs[:, None] + degs < mults[mu_of][:, None]),
                    first[:, None] + degs[:, None] + degs, M)
    pascal = same * np.array([[binom(v, u) for v in degs] for u in degs])
    gram = (pole ** degs)[:, None] * lam * np.conj(pole ** degs)

    # C(j, u_x) per j = 0..m0 and slot x: times q^j, the row weights
    steps = np.array([[binom(j, u) for u in degs] for j in range(m0 + 1)])
    js = np.arange(m0 + 1)[:, None]

    def side(sharp):
        """(band, hat, phi) of a (of a~ if sharp); phi[x, q] is
        hat_{mu,u+a}, so that G_q(j) = sum_x C(j, u_x) q^j phi[x, q]."""
        rho00, rho0, rho = spec.side(sharp)
        band = np.stack([rho00, *rho0])
        hat = np.einsum("xy,yab->xab", pascal, np.array(
            [r for res in rho for r in res]).reshape(M, d, d))
        if sharp:
            band, hat = herm(band), herm(hat)
        return band, hat, np.concatenate([hat, np.zeros((1, d, d))])[hank]

    def corner(band, phi, q, n_gram):
        """E = sum_j F(j)* F(j): the pole part through the slot Gram, plus
        sum_{j<m0} (F(j)* F(j) - P(j)* P(j)), P(j) the pole part of F(j),
        since the unit rows' blocks band_{l+j} stop at l + j = m0."""
        f = np.zeros((m0, d, M + m0, d), dtype=np.complex128)
        f[:, :, :M] = np.einsum("jx,xqab->jaqb", (steps * q ** js)[:m0], phi)
        for j in range(m0):
            f[j, :, M:M + m0 - j] = band[j + 1:].transpose(1, 0, 2)
        e = np.einsum("jaqb,jarc->qbrc", np.conj(f), f)
        e[:M, :, :M] += np.einsum("xy,xqba,yrbc->qarc", n_gram,
                                  np.conj(phi), phi) - np.einsum(
            "jaqb,jarc->qbrc", np.conj(f[:, :, :M]), f[:, :, :M])
        return e.reshape((M + m0) * d, (M + m0) * d)

    band, hat, phi = side(False)
    q = np.conj(pole)
    weights = steps * q ** js                       # C(i, u_x) conj(p)^i
    heads = band + np.einsum("ix,xab->iab", weights, hat)   # a_0 .. a_m0
    gamma_band = np.stack([
        np.einsum("iba,ibc->ac", np.conj(heads[:m0 + 1 - k]), band[k:])
        for k in range(m0 + 1)])
    gamma_hat = (np.einsum("xy,xba,yqbc->qac", gram, np.conj(hat), phi)
                 + np.einsum("iba,ix,xqbc->qac", np.conj(band), weights, phi))
    # the inverse of the Pascal matrix: (-1)^(f-j) C(f, j) within a pole
    sign = (-1.0) ** (degs[:, None] + degs)
    residues = np.einsum("jf,fab->jab", sign * pascal, gamma_hat)
    e_plain = corner(band, phi, q, gram)
    band_t, _, phi_t = side(True)
    e_tilde = corner(band_t, phi_t, pole, np.conj(gram))
    return np.concatenate([gamma_band, residues]), e_plain, e_tilde


class ClosedFormKit:
    """All n-independent closed-form data for one symbol, in closed form
    with no series and no iteration cap (_check_lambda_stein). For an AR
    symbol (K = 0) the pole machinery is empty (M = 0): the kit holds
    T_n(w^{-1})'s lower triangle and its corners, Lambda and Theta are
    0 x 0, and the v / w coefficients and the Stein check are skipped,
    since T_n(w)^{-1} has no rank correction."""

    def __init__(self, spec):
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
        self.lambda_mat = self.build_lambda()
        # T_n(w^{-1})'s lower triangle and the two corners E, E~
        self.inverse_blocks, self.e_plain, self.e_tilde = inverse_symbol(
            spec, self.lambda_mat[::self.d, ::self.d])
        self.theta_values, self.theta_mat = self.build_theta()
        if not self.M:          # an AR symbol: no rank correction
            return
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

    def _g(self, n):
        """(Pi_n Theta, G_n, G~_n, spectral radius of G~_n G_n), unchecked,
        with G_n = Pi_n Theta Lambda and G~_n = (Pi_n Theta)* Lambda^T; the
        radius of the empty G~G of an AR symbol is 0."""
        pit = self.pi_mat(n) @ self.theta_mat
        g, gt = pit @ self.lambda_mat, herm(pit) @ self.lambda_mat.T
        return pit, g, gt, float(np.abs(np.linalg.eigvals(gt @ g)).max(
            initial=0.0))

    def g_mats(self, n):
        """(G_n, G~_n) = (Pi_n Theta Lambda, (Pi_n Theta)* Lambda^T)."""
        return self._g(n)[1:3]

    def spectral_radius(self, n):
        """Spectral radius of G~_n G_n, unchecked."""
        return self._g(n)[3]

    def checked_g_mats(self, n):
        """(Pi_n Theta, G_n, G~_n, spectral radius of G~_n G_n). Raises
        ResolventSingular unless the radius is below 1, which keeps
        I - G~G and I - GG~ invertible and the correction series
        convergent."""
        out = self._g(n)
        if not out[3] < 1.0:            # written so that a NaN fails it
            raise errors.ResolventSingular(
                f"spectral radius of G~G at n={n} is {out[3]:.6f} >= 1")
        return out

    # -- the rank-correction vectors ------------------------------------- #

    def plan(self, n):
        """The SolvePlan of order n, built on every call and kept by its
        caller: the maps of _correction_maps(n) minus the corners E and
        E~, or corner_plan() for M = 0, where the rank correction is 0."""
        if not self.M:
            return self.corner_plan()
        return self._minus_corners(self._correction_maps(n))

    def corner_plan(self):
        """The SolvePlan of the corners alone: maps that hold only E and
        E~, and so take T_n(w^{-1}) Y to the triangular Grams' A*A Y and
        A~*A~ Y; spectral_radius and resolvent_cond are None."""
        k = len(self.e_plain)
        return self._minus_corners(SolvePlan(None, None, *np.zeros(
            (2, k + self.M * self.d, 2 * k), dtype=np.complex128)))

    def _minus_corners(self, plan):
        """plan, with the corners E and E~ (see inverse_symbol) subtracted
        from its plain and its tilde map in place: each acts from its own
        side's moments to its slot sequence rows C(m, a) conj(p)^m (their
        conjugates on the plain side) and its unit rows, the last
        (M + m0) d rows of the map."""
        k = len(self.e_plain)
        plan.plain_map[len(plan.plain_map) - k:, :k] -= self.e_plain
        plan.tilde_map[len(plan.tilde_map) - k:, k:] -= self.e_tilde
        return plan

    def _correction_maps(self, n):
        """The SolvePlan of order n before the corners are subtracted:
        its maps give the rank corrections of the triangular Grams, a few
        2Md x 2Md products composed with the n-free coefficient maps."""
        n = int(n)
        pit, g, gt, radius = self.checked_g_mats(n)
        lam, eye = self.lambda_mat, np.eye(self.M * self.d)
        i_gtg = eye - gt @ g
        top = eye + lam.T @ g @ np.linalg.solve(i_gtg, herm(pit))
        bot = eye + lam @ gt @ np.linalg.solve(eye - g @ gt, pit)
        k_n = np.block([[top @ lam.T @ pit, top],
                        [bot, bot @ lam @ herm(pit)]])
        v, vt = (np.einsum("qej,eab->qajb", coef, ext).reshape(len(eye), -1)
                 for coef, ext in ((self.v_coef, self.ext_stack),
                                   (np.conj(self.v_coef),
                                    self.ext_tilde_stack)))
        zero = np.zeros_like(v)
        g_vecs = np.split(k_n @ np.block([[v, zero], [zero, vt]]), 2)
        ut = self.u_mat(n) @ self.theta_mat
        # -diag(p^n) v_m: the row of slot (mu, i) times -p_mu^n
        minus_v = -(self.pole_of_slot ** n)[:, None, None] * self.v_coef
        d_coef = np.concatenate([self.w_coef, minus_v], axis=-1)
        plain, tilde = (
            np.einsum("qkj,kba->jaqb", coef, np.conj(ext)).reshape(
                -1, len(eye)) @ u @ g_vec
            for coef, ext, u, g_vec in (
                (np.conj(d_coef), self.ext_stack, herm(ut), g_vecs[0]),
                (d_coef, self.ext_tilde_stack, ut, g_vecs[1])))
        return SolvePlan(radius, float(np.linalg.cond(i_gtg)), plain, tilde)

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
        """beta_k for k >= m0 + 1: closed_beta(k - 1, 0, 0)."""
        return self.closed_beta(k - 1, 0, 0)

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
        pit, g, gt, _ = self._g(n)
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
        pit, g, gt, _ = self._g(n)
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
        _check_blocks(self.n, s)
        m = self.n + 1 - s
        return herm(self.w[m - 1] - self.v[m - 1]) @ self.resolvent

    def ell_tilde(self, s):
        """l~_{n,s} = (w~_s - v~_s)* (I - GG~)^{-1}, (d, Md)."""
        _check_blocks(self.n, s)
        return herm(self.w_tilde[s - 1] - self.v_tilde[s - 1]) \
            @ self.resolvent_tilde

    def r(self, s):
        """r_{n,s} = (Pi Theta)* v~_s + G~ Pi Theta v_{n+1-s}, (Md, d)."""
        _check_blocks(self.n, s)
        vt, v = self.v_tilde[s - 1], self.v[self.n - s]
        return herm(self.pi_theta) @ vt + self.g_tilde @ (self.pi_theta @ v)

    def r_tilde(self, s):
        """r~_{n,s} = Pi Theta v_{n+1-s} + G (Pi Theta)* v~_s, (Md, d)."""
        _check_blocks(self.n, s)
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
    _check_blocks(n, s, t)
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
        if not dev <= tol * max(1.0, float(np.abs(out).max())):
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
