"""Rational matrix symbols w = h h* described by the partial fractions of
h^{-1}.

A symbol is parameterized by the expansion

    h(z)^{-1} = -rho00 - sum_{mu=1..K} sum_{j=1..m_mu} (1 - conj(p_mu) z)^{-j} rho[mu][j]
                - sum_{j=1..m0} z^j rho0[j]

with poles p_mu in the punctured open unit disk, together with the same
shape of coefficients for the second outer factor h_sharp (for d = 1 the
two coincide and the sharp side may be omitted). Everything downstream
(coefficient sequences, closed-form inverses, the linear-time solver)
reads only this object.

All evaluation helpers take a complex point z; `eval_w` takes an angle
theta and evaluates on the unit circle.
"""

import functools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import errors
from .util import binom, herm, unit_circle

_POLE_EPS = 1e-12
_FACTORIZATION_TOL = 1e-8   # of max |h h* - h_sharp* h_sharp| in validate


def _as_matrix(a, d, name):
    m = np.asarray(a, dtype=np.complex128)
    if m.shape != (d, d):
        raise ValueError(f"{name} must be {d}x{d}, got {m.shape}")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class RationalSymbolSpec:
    """Partial-fraction description of h^{-1} and h_sharp^{-1}.

    Fields
    ------
    d : block dimension.
    m0 : degree of the polynomial part of h^{-1}.
    K : number of distinct pole parameters.
    rho00 : d x d constant coefficient.
    rho0 : list of m0 matrices, degree-j polynomial coefficients (j = 1..m0).
    poles : K complex pole parameters p_mu, 0 < |p_mu| < 1, distinct.
    mults : K multiplicities m_mu >= 1.
    rho : rho[mu][j-1] is the d x d coefficient of (1 - conj(p_mu) z)^{-j}.
    sharp_rho00, sharp_rho0, sharp_rho : same shapes for h_sharp^{-1}.
    """

    d: int
    m0: int
    K: int
    rho00: np.ndarray
    rho0: tuple
    poles: tuple
    mults: tuple
    rho: tuple
    sharp_rho00: np.ndarray = None
    sharp_rho0: tuple = None
    sharp_rho: tuple = None

    def __post_init__(self):
        d = int(self.d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m0", int(self.m0))
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "rho00", _as_matrix(self.rho00, d, "rho00"))
        object.__setattr__(
            self, "rho0",
            tuple(_as_matrix(m, d, f"rho0[{j}]")
                  for j, m in enumerate(self.rho0)))
        object.__setattr__(self, "poles",
                           tuple(complex(p) for p in self.poles))
        object.__setattr__(self, "mults", tuple(int(m) for m in self.mults))
        object.__setattr__(
            self, "rho",
            tuple(tuple(_as_matrix(m, d, "rho") for m in group)
                  for group in self.rho))
        if len(self.rho0) != self.m0:
            raise ValueError("len(rho0) != m0")
        if not (len(self.poles) == len(self.mults) == len(self.rho) == self.K):
            raise ValueError("pole/mult/residue list lengths != K")
        for mu, group in enumerate(self.rho):
            if len(group) != self.mults[mu]:
                raise ValueError(f"rho[{mu}] has {len(group)} coefficients, "
                                 f"multiplicity is {self.mults[mu]}")
        # d = 1 admits h_sharp = h; fill it in when the caller omitted it.
        if self.sharp_rho00 is None:
            if d != 1:
                raise ValueError("sharp coefficients are required for d >= 2")
            object.__setattr__(self, "sharp_rho00", self.rho00)
            object.__setattr__(self, "sharp_rho0", self.rho0)
            object.__setattr__(self, "sharp_rho", self.rho)
        else:
            object.__setattr__(self, "sharp_rho00",
                               _as_matrix(self.sharp_rho00, d, "sharp_rho00"))
            object.__setattr__(
                self, "sharp_rho0",
                tuple(_as_matrix(m, d, "sharp_rho0") for m in self.sharp_rho0))
            object.__setattr__(
                self, "sharp_rho",
                tuple(tuple(_as_matrix(m, d, "sharp_rho") for m in group)
                      for group in self.sharp_rho))

    # ------------------------------------------------------------------ #

    @property
    def total_multiplicity(self):
        """M = sum of the pole multiplicities."""
        return sum(self.mults)

    @property
    def pole_decay(self):
        """max_mu |p_mu| (0.0 when K = 0)."""
        return max((abs(p) for p in self.poles), default=0.0)

    @functools.cached_property
    def realizations(self):
        """(realization of h, realization of h_sharp), built and certified
        on the first read and kept on the instance (its arrays are
        read-only, so the pair cannot go stale). A build that raises is
        not kept: the next read raises again."""
        return realization(self, False), realization(self, True)

    # -- evaluation ----------------------------------------------------- #

    def side(self, sharp):
        """(rho00, rho0, rho) of h^{-1}, or of h_sharp^{-1} with sharp=True."""
        if sharp:
            return self.sharp_rho00, self.sharp_rho0, self.sharp_rho
        return self.rho00, self.rho0, self.rho

    def eval_h_inv(self, z):
        """h^{-1}(z) from the partial-fraction form (empty sums vanish)."""
        return h_inv_taylor(self, [z], 0, sharp=False)[0]

    def eval_h_sharp_inv(self, z):
        """h_sharp^{-1}(z)."""
        return h_inv_taylor(self, [z], 0, sharp=True)[0]

    def eval_h(self, z):
        """h(z), by numerically inverting h^{-1}(z)."""
        return _invert(self.eval_h_inv(z))

    def eval_h_sharp(self, z):
        return _invert(self.eval_h_sharp_inv(z))

    def eval_h_dagger_inv(self, z):
        """h_dagger(z)^{-1} where h_dagger(z) = h(1/conj(z))*.

        Evaluated as (h^{-1}(1/conj(z)))*, entirely inside the partial
        fraction form; no matrix inversion. The point 1/conj(z) must not
        be a pole of h^{-1} (equivalently z != p_mu), and z != 0 when
        m0 >= 1.
        """
        z = complex(z)
        if z == 0:
            if self.m0 >= 1:
                raise errors.EvaluationAtPole(
                    "h_dagger^{-1} has a pole at z = 0 when m0 >= 1")
            return np.conj(self.rho00).T * -1.0  # -rho00^* is the limit
        w = 1.0 / np.conj(z)
        return np.conj(self.eval_h_inv(w)).T

    def eval_w(self, theta):
        """w(e^{i theta}) = h h* on the unit circle, Hermitian by
        construction."""
        h = self.eval_h(np.exp(1j * float(theta)))
        return h @ h.conj().T


def h_inv_taylor(spec, zs, k, sharp):
    """The k-th Taylor coefficient of h^{-1} (h_sharp^{-1} with
    sharp=True) at each point of zs -> (len(zs), d, d); k = 0 is the
    value. Term by term from the partial fractions,

        -[k=0] rho00 - sum_{j>=k} C(j, k) z^{j-k} rho0_j
        - sum_{mu,j} C(j+k-1, k) conj(p_mu)^k (1 - conj(p_mu) z)^{-j-k}
                     rho_{mu,j}.

    EvaluationAtPole at a pole z = 1/conj(p_mu).
    """
    zs = np.asarray(zs, dtype=np.complex128)
    rho00, rho0, rho = spec.side(sharp)
    out = np.zeros(zs.shape + (spec.d, spec.d), dtype=np.complex128)
    if k == 0:
        out -= rho00
    for j in range(max(k, 1), spec.m0 + 1):
        out -= binom(j, k) * zs[..., None, None] ** (j - k) * rho0[j - 1]
    for mu, pole in enumerate(spec.poles):
        pbar = np.conj(pole)
        base = 1.0 - pbar * zs
        at_pole = np.abs(base) < _POLE_EPS
        if at_pole.any():
            raise errors.EvaluationAtPole(
                f"z = {zs[at_pole][0]} is a pole of the partial fraction "
                f"(pole parameter p = {pole})")
        for j in range(1, spec.mults[mu] + 1):
            scale = binom(j + k - 1, k) * pbar ** k * base ** (-j - k)
            out -= scale[..., None, None] * rho[mu][j - 1]
    return out


def _invert(m):
    try:
        out = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise errors.SingularHInverse(str(exc)) from exc
    if not np.all(np.isfinite(out)):
        raise errors.SingularHInverse("inverse is not finite")
    return out


# -- grid evaluation (vectorized over the unit circle) ---------------------- #

def h_inv_on_grid(spec, zs, sharp=False):
    """h^{-1} (or h_sharp^{-1}) at an array of points -> (len(zs), d, d)."""
    return h_inv_taylor(spec, zs, 0, sharp=sharp)


def h_on_grid(spec, zs, sharp=False):
    return np.linalg.inv(h_inv_on_grid(spec, zs, sharp=sharp))


def w_on_circle(spec, npoints):
    """w(e^{i theta}) on an equispaced grid -> (npoints, d, d)."""
    zs, _ = unit_circle(npoints)
    h = h_on_grid(spec, zs)
    return h @ np.conj(np.swapaxes(h, -1, -2))


# -- state-space realization and its decay certificate ---------------------- #

_UNIT_ROUNDOFF = np.finfo(float).eps / 2


class Realization(NamedTuple):
    """h(z) = c0 + z C (I - z A)^{-1} B, so c_k = C A^{k-1} B for k >= 1,
    and ||A^k||_2 <= growth * rate^k for every k >= 0."""

    c0: np.ndarray
    C: np.ndarray
    A: np.ndarray
    B: np.ndarray
    rate: float
    growth: float


def realization(spec, sharp):
    """The realization of h (h_sharp with sharp=True), of state size
    (m0 + M) d, with rate (1 + 3 rho(A)) / 4 and its decay certificate.

    -h^{-1}(z) = D + z C0 (I - z A0)^{-1} B0 with D = a_0: a block shift
    register of m0 states carries rho0, and pole mu has the block
    A0 = conj(p_mu) tril(ones(m_mu)) (x) I_d, the input conj(p_mu)
    (1, 2, ..., m_mu)^T (x) I_d and the outputs rho[mu]; tril(ones(m))^(k-1)
    (1, ..., m)^T holds the binomials C(k + j - 1, j - 1) of a_k. Then
    c0 = -D^{-1}, C = D^{-1} C0, B = B0 D^{-1}, A = A0 - B0 D^{-1} C0. The
    eigenvalues of A are the reciprocal zeros of det h^{-1} and modes of
    non-minimal parts inside the disk, so h is outer exactly when
    rho(A) < 1 (else OuternessCheckFailed, as for a failed certificate).
    SingularLeadingCoefficient for a singular a_0, a pole of h at 0.
    """
    d, m0 = spec.d, spec.m0
    rho00, rho0, rho = spec.side(sharp)
    blocks, inputs, outputs = [np.eye(m0, k=-1)], [np.eye(m0, 1)], list(rho0)
    for mu, m in enumerate(spec.mults):
        pbar = np.conj(spec.poles[mu])
        blocks.append(pbar * np.tril(np.ones((m, m))))
        inputs.append(pbar * np.arange(1.0, m + 1)[:, None])
        outputs += rho[mu]
    a0 = np.kron(scipy.linalg.block_diag(*blocks), np.eye(d))
    b0 = np.kron(np.concatenate(inputs), np.eye(d))
    c0 = np.concatenate([np.zeros((d, 0))] + outputs, axis=1)
    lead = sum(outputs[m0:], rho00)
    if np.linalg.matrix_rank(lead) < d:
        raise errors.SingularLeadingCoefficient(
            f"a_0{' of the sharp side' if sharp else ''} is singular")
    lead_inv = np.linalg.inv(lead)
    a = a0 - b0 @ lead_inv @ c0
    radius = float(np.abs(np.linalg.eigvals(a)).max()) if len(a) else 0.0
    if not radius < 1.0:
        raise errors.OuternessCheckFailed(
            f"spectral radius of A_x is {radius:.6g} >= 1: h"
            f"{'_sharp' if sharp else ''} is not outer")
    rate = (1.0 + 3.0 * radius) / 4.0
    return Realization(-lead_inv, lead_inv @ c0, a, b0 @ lead_inv, rate,
                       decay_certificate(a, rate) if len(a) else 1.0)


def _proves_psd(m, err):
    """True when a Cholesky proves m + E >= 0 for the Hermitian m and
    every Hermitian E with ||E||_2 <= err. It factors the real embedding
    S = [[Re m, -Im m], [Im m, Re m]] of order N, semidefinite exactly when
    m is: by Rump ("Verification methods", Acta Numerica 19, 2010),
    a floating-point Cholesky of S - c I that runs to completion proves
    S >= 0 for c >= gamma_{N+1} / (1 - gamma_{N+1}) tr(S) plus an
    underflow term. The shift doubles that c, to cover its own rounding
    and that of the subtraction, and adds err."""
    s = np.block([[m.real, -m.imag], [m.imag, m.real]])
    N = len(s)
    gamma = (N + 1) * _UNIT_ROUNDOFF / (1.0 - (N + 1) * _UNIT_ROUNDOFF)
    diag = np.maximum(np.diag(s), 0.0)
    c = 2.0 * (gamma / (1.0 - gamma) * diag.sum()
               + 4 * N * (2 * (N + 2) + diag.max()) * 2.0**-1074) + err
    try:
        np.linalg.cholesky(s - c * np.eye(N))
    except np.linalg.LinAlgError:
        return False
    return np.isfinite(s).all()


def decay_certificate(A, r):
    """growth with ||A^k||_2 <= growth * r^k for every k >= 0, proven for
    the stored A (n x n, n >= 1) and r; OuternessCheckFailed, with rho(A),
    when the proof fails, as it must for r <= rho(A).

    X solves (A/r)* X (A/r) - X = -I. _proves_psd checks X - lo I >= 0,
    hi I - X >= 0 and r^2 X - A* X A >= 0, each with a bound on the
    rounding of the matrix it is given; for A* X A that is twice the
    classical n u |A|* |X| |A| of two products (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 3.5) with n + 4 in place of n
    for complex arithmetic. Then ||A v||_X <= r ||v||_X in the norm
    ||v||_X^2 = v* X v, and lo ||v||^2 <= ||v||_X^2 <= hi ||v||^2, so
    growth = sqrt(hi / lo) >= sqrt(kappa(X)).
    """
    n, u = len(A), _UNIT_ROUNDOFF
    try:
        x = scipy.linalg.solve_discrete_lyapunov(herm(A) / r, np.eye(n),
                                                 method="bilinear")
        x = (x + herm(x)) / 2      # exactly Hermitian
        lam = np.linalg.eigvalsh(x)
    except (np.linalg.LinAlgError, ValueError):
        lam = [np.nan]
    slack = 8.0 * (2 * n + 1) * n * u * abs(lam[-1])
    lo, hi = lam[0] - slack, lam[-1] + slack
    if not (lo > 0.0 and all(_proves_psd(m, err) for m, err in (
            (x - lo * np.eye(n), 2 * u * (np.abs(np.diag(x)).max() + lo)),
            (hi * np.eye(n) - x, 2 * u * (np.abs(np.diag(x)).max() + hi)),
            (r * r * x - herm(A) @ (x @ A), 4 * (n + 4) * u * np.linalg.norm(
                np.abs(A).T @ np.abs(x) @ np.abs(A) + r * r * np.abs(x)))))):
        radius = float(np.abs(np.linalg.eigvals(A)).max())
        raise errors.OuternessCheckFailed(
            f"no proof that ||A_x^k|| decays at rate {r:.6g} (spectral "
            f"radius of A_x {radius:.6g})")
    return float(np.sqrt(hi / lo)) * (1.0 + 8 * u)


# -- validation -------------------------------------------------------------- #

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    error: type = None


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def raise_if_failed(self):
        for c in self.checks:
            if not c.passed:
                raise (c.error or errors.ValidationError)(
                    f"{c.name}: {c.detail}")

    def __str__(self):
        lines = []
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            lines.append(f"[{mark}] {c.name}" +
                         (f": {c.detail}" if c.detail else ""))
        return "\n".join(lines)


def validate(spec):
    """Check every invariant of a symbol spec and return a ValidationReport.

    Beyond the structural pole/residue constraints this performs the two
    numerical checks: outerness of h and h_sharp, proven by the decay
    certificate of each one's realization (a singular a_0 is a pole of h
    at 0 and fails it too; the tables reuse spec.realizations), and
    agreement of h h* with h_sharp* h_sharp within 1e-8 on a 512-point
    grid (the supplied sharp coefficients factor the same symbol).
    """
    report = ValidationReport()
    add = report.checks.append

    ok = True
    detail = ""
    for mu, p in enumerate(spec.poles):
        if not (_POLE_EPS < abs(p) < 1.0 - 1e-14):
            ok = False
            detail = f"pole {mu}: p = {p} outside the punctured open disk"
            break
    add(CheckResult("poles_in_domain", ok, detail, errors.PoleOutOfDomain))

    ok = True
    detail = ""
    for mu in range(spec.K):
        for nu in range(mu + 1, spec.K):
            if abs(spec.poles[mu] - spec.poles[nu]) < _POLE_EPS:
                ok = False
                detail = f"poles {mu} and {nu} coincide: {spec.poles[mu]}"
    add(CheckResult("poles_distinct", ok, detail, errors.DuplicatePoles))

    ok = True
    detail = ""
    for sharp in (False, True):
        _, rho0, rho = spec.side(sharp)
        tag = "sharp " if sharp else ""
        for mu in range(spec.K):
            lead = rho[mu][spec.mults[mu] - 1]
            if np.abs(lead).max() == 0.0:
                ok = False
                detail = f"{tag}rho[{mu}][m_mu] = 0"
        if spec.m0 >= 1 and np.abs(rho0[spec.m0 - 1]).max() == 0.0:
            ok = False
            detail = f"{tag}rho0[m0] = 0"
    add(CheckResult("leading_residues_nonzero", ok, detail,
                    errors.ZeroLeadingResidue))

    ok = (len(spec.sharp_rho0) == spec.m0
          and len(spec.sharp_rho) == spec.K
          and all(len(spec.sharp_rho[mu]) == spec.mults[mu]
                  for mu in range(spec.K)))
    add(CheckResult("sharp_shape", ok,
                    "" if ok else "sharp side has different (m0, K, mults)",
                    errors.SharpShapeMismatch))

    if not report.ok:
        return report

    # h and h_sharp are outer exactly when the A of each realization is
    # stable, which its decay certificate proves
    detail = ""
    try:
        spec.realizations
    except (errors.OuternessCheckFailed,
            errors.SingularLeadingCoefficient) as exc:
        detail = str(exc)
    add(CheckResult("outerness", not detail, detail,
                    errors.OuternessCheckFailed))

    # factorization consistency: h h* == h_sharp* h_sharp on the circle
    zs512, _ = unit_circle(512)
    h = h_on_grid(spec, zs512)
    hs = h_on_grid(spec, zs512, sharp=True)
    w1 = h @ np.conj(np.swapaxes(h, -1, -2))
    w2 = np.conj(np.swapaxes(hs, -1, -2)) @ hs
    dev = float(np.abs(w1 - w2).max())
    ok = dev <= _FACTORIZATION_TOL
    add(CheckResult("sharp_factorization", ok,
                    f"max |h h* - h_sharp* h_sharp| = {dev:.3e}",
                    errors.SharpFactorizationMismatch))
    return report


# -- JSON wire format -------------------------------------------------------- #

def _c2pair(x):
    return [float(np.real(x)), float(np.imag(x))]


def _mat2json(m):
    return [[_c2pair(x) for x in row] for row in np.asarray(m)]


def _json2mat(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows],
                    dtype=np.complex128)


def spec_to_dict(spec):
    payload = {
        "d": spec.d,
        "m0": spec.m0,
        "K": spec.K,
        "rho00": _mat2json(spec.rho00),
        "rho0": [_mat2json(m) for m in spec.rho0],
        "poles": [_c2pair(p) for p in spec.poles],
        "mults": list(spec.mults),
        "rho": [[_mat2json(m) for m in group] for group in spec.rho],
    }
    sharp_same = (
        np.array_equal(spec.sharp_rho00, spec.rho00)
        and all(np.array_equal(a, b)
                for a, b in zip(spec.sharp_rho0, spec.rho0))
        and all(np.array_equal(a, b)
                for g1, g2 in zip(spec.sharp_rho, spec.rho)
                for a, b in zip(g1, g2)))
    if not (spec.d == 1 and sharp_same):
        payload["sharp"] = {
            "rho00": _mat2json(spec.sharp_rho00),
            "rho0": [_mat2json(m) for m in spec.sharp_rho0],
            "rho": [[_mat2json(m) for m in group]
                    for group in spec.sharp_rho],
        }
    return payload


def spec_from_dict(payload):
    sharp = payload.get("sharp")
    kwargs = {}
    if sharp is not None:
        kwargs = {
            "sharp_rho00": _json2mat(sharp["rho00"]),
            "sharp_rho0": tuple(_json2mat(m) for m in sharp["rho0"]),
            "sharp_rho": tuple(tuple(_json2mat(m) for m in group)
                               for group in sharp["rho"]),
        }
    return RationalSymbolSpec(
        d=payload["d"],
        m0=payload["m0"],
        K=payload["K"],
        rho00=_json2mat(payload["rho00"]),
        rho0=tuple(_json2mat(m) for m in payload["rho0"]),
        poles=tuple(complex(re, im) for re, im in payload["poles"]),
        mults=tuple(payload["mults"]),
        rho=tuple(tuple(_json2mat(m) for m in group)
                  for group in payload["rho"]),
        **kwargs,
    )


def save_spec(spec, path):
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec), fh, indent=1)


def load_spec(path):
    with open(path) as fh:
        return spec_from_dict(json.load(fh))
