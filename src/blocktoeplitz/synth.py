"""Constructors for symbol specifications.

Besides the trivial builders these provide a family of randomized test
symbols with a *known valid* second factor: take h = V diag(f_1..f_d)
and h_sharp = W diag(f_1..f_d) V* for scalar rational outer f_i, V
invertible and W unitary. Then

    h h* = V diag(|f_i|^2) V* = h_sharp* h_sharp,

both factors are outer, and both share poles and multiplicities, so the
pair is admissible without running any matrix spectral factorization.
"""

import numpy as np

from .symbol import RationalSymbolSpec


def identity_spec(d=1):
    """h = I_d, so w = I and every Toeplitz matrix is the identity."""
    return RationalSymbolSpec(
        d=d, m0=0, K=0, rho00=-np.eye(d), rho0=(), poles=(), mults=(),
        rho=(), **({} if d == 1 else dict(
            sharp_rho00=-np.eye(d), sharp_rho0=(), sharp_rho=())))


def scalar_single_pole(p=0.5, rho=1.0):
    """d = 1 symbol with h(z) = -(1 - conj(p) z) / rho, i.e.
    h^{-1}(z) = -rho / (1 - conj(p) z): one pole parameter, no
    polynomial part. The workhorse ARMA(1,1)-style fixture."""
    return RationalSymbolSpec(
        d=1, m0=0, K=1,
        rho00=np.zeros((1, 1)),
        rho0=(),
        poles=(complex(p),),
        mults=(1,),
        rho=((np.array([[rho]], dtype=np.complex128),),),
    )


def scalar_ar(phis):
    """d = 1 AR symbol h(z) = 1 / (1 - phi_1 z - ... - phi_m z^m).

    The caller must supply a stable polynomial (no roots in the closed
    unit disk of 1 - sum phi_j z^j ... i.e. all roots outside)."""
    phis = [complex(x) for x in phis]
    return RationalSymbolSpec(
        d=1, m0=len(phis), K=0,
        rho00=np.array([[-1.0]], dtype=np.complex128),
        rho0=tuple(np.array([[x]], dtype=np.complex128) for x in phis),
        poles=(), mults=(), rho=(),
    )


def _random_unitary(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_invertible(d, rng):
    # unitary x diagonal x unitary keeps the condition number near 2
    q1 = _random_unitary(d, rng)
    q2 = _random_unitary(d, rng)
    s = rng.uniform(0.7, 1.4, size=d)
    return q1 @ np.diag(s) @ q2


def random_spec(d=1, K=1, mults=(1,), m0=0, rng=None, pole_radii=(0.2, 0.75)):
    """Random valid symbol with d channels, K poles of the given
    multiplicities and polynomial degree m0.

    The scalar channel inverses are 1 + (perturbation kept below 1 on
    the closed disk), which makes outerness automatic; the matrix
    structure comes from the V / W mixing described in the module
    docstring.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    mults = tuple(int(m) for m in mults)
    if len(mults) != K:
        raise ValueError("len(mults) must equal K")

    lo, hi = pole_radii
    radii = rng.uniform(lo, hi, size=K)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=K)
    poles = radii * np.exp(1j * angles)
    # redraw poles closer than 0.15 to another; kept so that seeded specs
    # stay the same draws
    for _ in range(100):
        clashes = [(i, j) for i in range(K) for j in range(i + 1, K)
                   if abs(poles[i] - poles[j]) < 0.15]
        if not clashes:
            break
        for i, _j in clashes:
            poles[i] = rng.uniform(lo, hi) * np.exp(
                1j * rng.uniform(0.0, 2.0 * np.pi))

    def unit_draw():
        x = rng.standard_normal() + 1j * rng.standard_normal()
        return x / abs(x)

    # channel-wise scalar residues; budget keeps |f_i^{-1} - 1| < 0.5 on |z|<=1
    n_terms = sum(mults) + m0
    budget = 0.5 / max(n_terms, 1)
    r_pole = np.zeros((d, K, max(mults) if K else 1), dtype=np.complex128)
    for mu in range(K):
        margin = (1.0 - abs(poles[mu]))
        for j in range(1, mults[mu] + 1):
            scale = budget * margin ** j
            for i in range(d):
                r_pole[i, mu, j - 1] = scale * rng.uniform(0.4, 1.0) * unit_draw()
    r_poly = np.zeros((d, m0), dtype=np.complex128)
    for j in range(m0):
        for i in range(d):
            r_poly[i, j] = budget * rng.uniform(0.4, 1.0) * unit_draw()
    r00 = -np.ones(d, dtype=np.complex128)  # f_i^{-1}(z) = 1 - (small terms)

    V = _random_invertible(d, rng) if d > 1 else np.array([[1.0 + 0.0j]])
    W = _random_unitary(d, rng) if d > 1 else np.array([[1.0 + 0.0j]])
    Vinv = np.linalg.inv(V)
    Vics = np.linalg.inv(V.conj().T)  # V^{-*}
    Wc = W.conj().T

    def left(diag_vals):
        return np.diag(diag_vals) @ Vinv

    def left_sharp(diag_vals):
        return Vics @ np.diag(diag_vals) @ Wc

    rho = tuple(tuple(left(r_pole[:, mu, j]) for j in range(mults[mu]))
                for mu in range(K))
    sharp_rho = tuple(tuple(left_sharp(r_pole[:, mu, j])
                            for j in range(mults[mu]))
                      for mu in range(K))
    kwargs = dict(
        sharp_rho00=left_sharp(r00),
        sharp_rho0=tuple(left_sharp(r_poly[:, j]) for j in range(m0)),
        sharp_rho=sharp_rho,
    )
    return RationalSymbolSpec(
        d=d, m0=m0, K=K,
        rho00=left(r00),
        rho0=tuple(left(r_poly[:, j]) for j in range(m0)),
        poles=tuple(poles),
        mults=mults,
        rho=rho,
        **kwargs,
    )
