import math

import numpy as np
import pytest

from blocktoeplitz.util import binom, binom_vec, geometric_poly_tail


def test_binom_matches_comb_for_nonnegative():
    for k in range(8):
        for m in range(8):
            assert binom(k, m) == math.comb(k, m)


def test_binom_negative_extension():
    assert binom(-1, 1) == -1
    assert binom(-2, 2) == 3              # (-2)(-3)/2
    assert binom(-3, 2) == 6
    assert binom(0, 0) == 1
    np.testing.assert_allclose(binom_vec([-2, 0, 4], 2), [3, 0, 6])


@pytest.mark.parametrize("r", [0.3, 0.5, 0.89, 0.9276, 0.99])
def test_geometric_tail_exact_for_j1(r):
    bound, _ = geometric_poly_tail(r, 1, 5)
    assert bound == pytest.approx(r ** 5 / (1 - r), rel=1e-12)


@pytest.mark.parametrize("r", [0.5, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_geometric_tail_dominates_partial_sum(r, j):
    # regression: ratios above 0.9 must still terminate and still bound
    start = 4
    bound, _ = geometric_poly_tail(r, j, start)
    partial = sum(binom(l + j - 1, j - 1) * r ** l
                  for l in range(start, 20_000))
    # for j = 1 the bound IS the exact sum, so allow accumulation rounding
    assert partial <= bound * (1 + 1e-12) + 1e-12
    assert bound <= 20 * partial + 1e-12
