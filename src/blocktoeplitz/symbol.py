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

import json
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .util import unit_circle, winding_number

_POLE_EPS = 1e-12


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

    # -- evaluation ----------------------------------------------------- #

    def eval_h_inv(self, z):
        """h^{-1}(z) from the partial-fraction form (empty sums vanish)."""
        return _eval_partial_fraction(self, z, sharp=False)

    def eval_h_sharp_inv(self, z):
        """h_sharp^{-1}(z)."""
        return _eval_partial_fraction(self, z, sharp=True)

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


def _eval_partial_fraction(spec, z, sharp):
    z = complex(z)
    rho00 = spec.sharp_rho00 if sharp else spec.rho00
    rho0 = spec.sharp_rho0 if sharp else spec.rho0
    rho = spec.sharp_rho if sharp else spec.rho
    out = -rho00.copy()
    for mu in range(spec.K):
        pbar = np.conj(spec.poles[mu])
        base = 1.0 - pbar * z
        if abs(base) < _POLE_EPS:
            raise errors.EvaluationAtPole(
                f"z = {z} is a pole of the partial fraction "
                f"(pole parameter p = {spec.poles[mu]})")
        for j in range(1, spec.mults[mu] + 1):
            out = out - rho[mu][j - 1] / base**j
    for j in range(1, spec.m0 + 1):
        out = out - z**j * rho0[j - 1]
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
    zs = np.asarray(zs, dtype=np.complex128)
    rho00 = spec.sharp_rho00 if sharp else spec.rho00
    rho0 = spec.sharp_rho0 if sharp else spec.rho0
    rho = spec.sharp_rho if sharp else spec.rho
    out = np.broadcast_to(-rho00, zs.shape + (spec.d, spec.d)).copy()
    for mu in range(spec.K):
        base = 1.0 - np.conj(spec.poles[mu]) * zs
        for j in range(1, spec.mults[mu] + 1):
            out -= base[..., None, None] ** (-j) * rho[mu][j - 1]
    for j in range(1, spec.m0 + 1):
        out -= zs[..., None, None] ** j * rho0[j - 1]
    return out


def h_on_grid(spec, zs, sharp=False):
    return np.linalg.inv(h_inv_on_grid(spec, zs, sharp=sharp))


def w_on_circle(spec, npoints):
    """w(e^{i theta}) on an equispaced grid -> (npoints, d, d)."""
    zs, _ = unit_circle(npoints)
    h = h_on_grid(spec, zs)
    return h @ np.conj(np.swapaxes(h, -1, -2))


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


def validate(spec, grid_points=4096, factorization_tol=1e-8):
    """Check every invariant of a symbol spec and return a ValidationReport.

    Beyond the structural pole/residue constraints this performs the two
    numerical checks: a zero winding of det h around the unit circle plus
    interior samples (h outer, i.e. det h has no zeros in the closed
    disk), and agreement of h h* with h_sharp* h_sharp on a 512-point
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
        rho = spec.sharp_rho if sharp else spec.rho
        rho0 = spec.sharp_rho0 if sharp else spec.rho0
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

    # winding of det h on |z| = 1; equivalently -winding of det h^{-1},
    # which is pole-free on the closed disk, so zero winding of det h^{-1}
    # certifies no zeros of det h^{-1} (= poles of h) inside.
    zs, _ = unit_circle(grid_points)
    ok = True
    detail = ""
    try:
        det_hinv = np.linalg.det(h_inv_on_grid(spec, zs))
        if np.abs(det_hinv).min() < 1e-12:
            ok = False
            detail = "det h^{-1} nearly vanishes on the unit circle"
        else:
            wind = winding_number(det_hinv)
            if wind != 0:
                ok = False
                detail = (f"det h winds {-wind} times around 0 on |z|=1; "
                          "h is not outer")
    except ValueError as exc:
        ok, detail = False, str(exc)
    if ok:
        # interior samples: h^{-1}(z) invertible on a coarse disk mesh
        radii = np.array([0.0, 0.25, 0.5, 0.75, 0.95])
        angles = np.exp(1j * 2.0 * np.pi * np.arange(8) / 8)
        pts = np.concatenate([[0.0 + 0.0j]] +
                             [r * angles for r in radii[1:]])
        dets = np.linalg.det(h_inv_on_grid(spec, pts))
        if np.abs(dets).min() < 1e-12:
            ok = False
            detail = "det h^{-1} nearly vanishes inside the disk"
    add(CheckResult("outerness_winding", ok, detail,
                    errors.OuternessCheckFailed))

    # factorization consistency: h h* == h_sharp* h_sharp on the circle
    zs512, _ = unit_circle(512)
    h = h_on_grid(spec, zs512)
    hs = h_on_grid(spec, zs512, sharp=True)
    w1 = h @ np.conj(np.swapaxes(h, -1, -2))
    w2 = np.conj(np.swapaxes(hs, -1, -2)) @ hs
    dev = float(np.abs(w1 - w2).max())
    ok = dev <= factorization_tol
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
