"""Shared test inputs and oracles: the 20-spec sweep, a dense T_n build
and random right-hand sides."""

import numpy as np

from blocktoeplitz.synth import random_spec

# 20 randomized configurations spanning d in {1,2,3}, K in {0,1,2},
# multiplicities in {1,2}, m0 in {0,1,2}; seeds fixed for repeatability.
SWEEP_CONFIGS = [
    ("d1_ar1", 1, 0, (), 1),
    ("d1_ar2", 1, 0, (), 2),
    ("d1_k1m1", 1, 1, (1,), 0),
    ("d1_k1m2_p1", 1, 1, (2,), 1),
    ("d1_k1m1_p2", 1, 1, (1,), 2),
    ("d1_k2m11", 1, 2, (1, 1), 0),
    ("d1_k2m21", 1, 2, (2, 1), 2),
    ("d2_ar1", 2, 0, (), 1),
    ("d2_ar2", 2, 0, (), 2),
    ("d2_k1m1", 2, 1, (1,), 0),
    ("d2_k1m2", 2, 1, (2,), 0),
    ("d2_k1m2_p2", 2, 1, (2,), 2),
    ("d2_k2m11", 2, 2, (1, 1), 1),
    ("d2_k2m12", 2, 2, (1, 2), 1),
    ("d2_k2m22", 2, 2, (2, 2), 0),
    ("d3_ar1", 3, 0, (), 1),
    ("d3_k1m1", 3, 1, (1,), 1),
    ("d3_k1m2", 3, 1, (2,), 0),
    ("d3_k2m11", 3, 2, (1, 1), 2),
    ("d3_k2m12", 3, 2, (1, 2), 0),
]


def make_sweep_spec(name):
    idx = [c[0] for c in SWEEP_CONFIGS].index(name)
    _, d, K, mults, m0 = SWEEP_CONFIGS[idx]
    return random_spec(d=d, K=K, mults=mults, m0=m0,
                       rng=np.random.default_rng(1000 + idx))


def dense_toeplitz_matrix(tables, n, d):
    """Independent dense T_n build used as the oracle in several tests."""
    band = np.stack([tables.gamma(k) for k in range(-(n - 1), n)])
    idx = np.arange(n)[:, None] - np.arange(n)[None, :] + (n - 1)
    return band[idx].transpose(0, 2, 1, 3).reshape(n * d, n * d).copy()


def random_rhs(n, d, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, d, d))
            + 1j * rng.standard_normal((n, d, d)))
