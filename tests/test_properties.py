"""Property checks over random symbols: d <= 3, up to three poles of
multiplicity up to three with radii up to 0.99, polynomial degree up to
three. Every solve matches the dense oracle, and at small n so do the
closed-form and series inverses, or the route raises one of the
package's typed errors; no route may return a wrong answer.

The draws come from the "blocktoeplitz" hypothesis profile of
conftest.py (derandomized, so every run checks the same symbols).
"""

import numpy as np
from hypothesis import event, given, strategies as st

from blocktoeplitz import errors
from blocktoeplitz.closed_form import inverse_matrix_closed
from blocktoeplitz.coefficients import CoefficientTables
from blocktoeplitz.fast_solver import solve
from blocktoeplitz.oracle import dense_inverse, dense_solve
from blocktoeplitz.series_inverse import inverse_matrix_series
from blocktoeplitz.synth import random_spec

from helpers import random_rhs

# the series route runs on a draw only if F falls by 1e-13 within this
# many terms (poles up to |p| ~ 0.9); slower decay is left to
# test_pole_near_unit_circle (|p| ~ 0.93, 565 terms)
_SERIES_HORIZON = 300


@st.composite
def symbols(draw):
    """A random_spec draw: K = 0 needs m0 >= 1, and the pole radii lie in
    [lo, hi] with hi up to 0.99, all of them at hi when lo = hi."""
    d = draw(st.integers(1, 3))
    K = draw(st.integers(0, 3))
    mults = tuple(draw(st.lists(st.integers(1, 3), min_size=K, max_size=K)))
    m0 = draw(st.integers(0 if K else 1, 3))
    hi = draw(st.one_of(st.sampled_from([0.9, 0.97, 0.99]),
                        st.floats(0.2, 0.99)))
    lo = draw(st.one_of(st.just(hi), st.floats(0.0, hi)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return random_spec(d=d, K=K, mults=mults, m0=m0, pole_radii=(lo, hi),
                       rng=np.random.default_rng(seed))


def _or_typed_error(route, *args, **kwargs):
    """The route's result, or None when it raises a typed error; either
    way the outcome is counted in the hypothesis statistics."""
    try:
        out = route(*args, **kwargs)
    except errors.BlockToeplitzError as exc:
        event(f"{route.__name__}: {type(exc).__name__}")
        return None
    event(f"{route.__name__}: ok")
    return out


@given(spec=symbols(), data=st.data())
def test_solve_matches_dense_or_raises_typed(spec, data):
    # n near the chunk length, below 2 m0 + 1, or anywhere up to 512
    n = data.draw(st.one_of(st.sampled_from([15, 16, 17, 31, 33, 512]),
                            st.integers(1, max(2 * spec.m0, 1)),
                            st.integers(1, 512)), label="n")
    tab = CoefficientTables(spec)
    y = random_rhs(n, spec.d, seed=n)
    fast = _or_typed_error(solve, spec, n, y, tables=tab)
    dense = _or_typed_error(dense_solve, spec, n, y, tables=tab)
    if fast is not None and dense is not None:
        assert np.linalg.norm(fast.z - dense.z) \
            <= 1e-8 * np.linalg.norm(dense.z)


@given(spec=symbols(), data=st.data())
def test_inverses_match_dense_or_raise_typed(spec, data):
    n = data.draw(st.integers(spec.m0 + 1, 12), label="n")
    tab = CoefficientTables(spec)
    dense = _or_typed_error(dense_inverse, spec, n, tables=tab)
    if dense is None:
        return
    scale = max(1.0, np.abs(dense.data).max())
    routes = [_or_typed_error(inverse_matrix_closed, spec, n, tables=tab,
                              check_overlap=True)]
    # each series level costs about n L^2 d^3 for a level horizon L, the
    # L at which F has fallen by 1e-13: L = 3700 at |p| = 0.99 takes
    # seconds a level
    F = tab.decay_bound_F
    if F(n + 1 + _SERIES_HORIZON) <= 1e-13 * F(n + 1):
        routes.append(_or_typed_error(inverse_matrix_series, tab, n,
                                      tol=1e-8))
    else:
        event("inverse_matrix_series: horizon past budget")
    for inv in routes:
        if inv is not None:
            assert np.abs(inv - dense.data).max() <= 1e-7 * scale
