"""Small numerical helpers: generalized binomials, geometric tail bounds,
unit-circle points."""

import math

import numpy as np


def binom(k, m):
    """Binomial coefficient C(k, m) for integer m >= 0 and any integer k,
    via the falling-factorial polynomial extension
    C(k, m) = k (k-1) ... (k-m+1) / m!.

    Agrees with math.comb for k >= 0 (in particular C(0, 0) = 1) and is
    the extension needed for negative upper arguments.
    """
    if m < 0:
        raise ValueError("lower index must be >= 0")
    if k >= 0:
        return float(math.comb(k, m))
    num = 1.0
    for t in range(m):
        num *= k - t
    return num / math.factorial(m)


def binom_vec(k, m):
    """Vectorized binom over an integer array k (fixed integer m >= 0)."""
    k = np.asarray(k, dtype=np.float64)
    out = np.ones_like(k)
    for t in range(m):
        out = out * (k - t)
    return out / math.factorial(m)


def geometric_poly_tail(r, j, start):
    """Upper bound for sum_{l >= start} C(l+j-1, j-1) r^l with 0 <= r < 1,
    j >= 1.

    The term ratio r (l+j)/(l+1) decreases toward r, so once it falls
    below any threshold q < 1 the remaining tail is bounded by the
    geometric sum term/(1-q). Walks forward summing exact terms until
    the ratio clears max(0.9, (1+r)/2), which is always reachable, then
    closes. Returns (tail_bound, terms_summed).
    """
    if r < 0 or r >= 1:
        raise ValueError("need 0 <= r < 1")
    if r == 0.0:
        return (1.0 if start == 0 else 0.0), 0
    threshold = max(0.9, 0.5 * (1.0 + r))
    total = 0.0
    l = start
    term = binom(l + j - 1, j - 1) * r**l
    count = 0
    while True:
        q = r * (l + j) / (l + 1)
        if q <= threshold:
            return total + term / (1.0 - q), count
        total += term
        term *= q
        l += 1
        count += 1


def unit_circle(n):
    """n equispaced points e^{i theta} with theta = 2 pi k / n."""
    theta = 2.0 * np.pi * np.arange(n) / n
    return np.exp(1j * theta), theta


def herm(a):
    """Conjugate transpose of the last two axes."""
    return np.conj(np.swapaxes(a, -1, -2))

