import pytest
from hypothesis import settings

from blocktoeplitz.coefficients import CoefficientTables
from blocktoeplitz.synth import identity_spec, scalar_ar, scalar_single_pole

from helpers import SWEEP_CONFIGS, make_sweep_spec


@pytest.fixture(scope="session")
def sweep_specs():
    return {name: make_sweep_spec(name) for name, *_ in SWEEP_CONFIGS}


@pytest.fixture(scope="session")
def sweep_tables(sweep_specs):
    return {name: CoefficientTables(spec)
            for name, spec in sweep_specs.items()}


@pytest.fixture(scope="session")
def ex52():
    """The d = K = 1 worked example: h(z) = -(1 - 0.5 z), rho = 1."""
    return scalar_single_pole(0.5, 1.0)


@pytest.fixture(scope="session")
def ex52_tables(ex52):
    return CoefficientTables(ex52)


@pytest.fixture(scope="session")
def ident2():
    return identity_spec(2)


@pytest.fixture(scope="session")
def ar1():
    return scalar_ar([0.9])


# the property suite's settings: the same draws on every run, no
# per-example deadline (a cold solve at n = 512 takes a while) and no
# example database
settings.register_profile("blocktoeplitz", derandomize=True, deadline=None,
                          database=None, max_examples=40)
settings.load_profile("blocktoeplitz")
