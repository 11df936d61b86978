"""The two benchmark workloads and the public calls each one times.

Every input comes from the workload seed: op i draws its right-hand
side (and, on the cold workloads, the rotation of its spec) from
default_rng([seed, OPS, i]), so the same seed gives the same inputs
however many ops a run completes. The specs themselves are fixed draws
of random_spec / scalar_single_pole, cycled round-robin; a run always
ends on a whole cycle.

* warm-stream: many right-hand sides for fitted models. The ROADMAP's
  three moderate specs at n = 65536, each solved with CoefficientTables
  and ClosedFormKit built (and one solve run) during set-up. Nearly all
  time is in fast_solver.
* cold-fit: one solve per fresh spec at n = 4096, as in a likelihood or
  model-search loop; pays for new tables and kit on every call. Shapes
  cycle through d, K, mults and m0, with pole radii in 0.2-0.75; the
  K = 0 ops skip closed_form entirely. Nearly all time is in
  coefficients.
"""

from dataclasses import dataclass

import numpy as np

from blocktoeplitz import (ClosedFormKit, CoefficientTables,
                           RationalSymbolSpec, apply_A_gram, random_spec,
                           scalar_single_pole, solve, validate)

# rng stream ids under the workload seed
OPS, WARMUP, DENSE = 0, 1, 2

# (d, K, mults, m0): every d and K once, multiplicities <= 2, m0 <= 2;
# K = 0 needs m0 >= 1, otherwise the symbol is a constant
FIT_SHAPES = (
    (1, 0, (), 1), (1, 1, (2,), 0), (1, 2, (1, 2), 2),
    (2, 0, (), 2), (2, 1, (1,), 1), (2, 2, (2, 1), 0),
    (3, 0, (), 1), (3, 1, (2,), 2), (3, 2, (1, 1), 1),
)

# fixed draws of the specs (see WarmStream and ColdFit for why)
WARM_SPEC_SEED = 0
FIT_SPEC_SEED = 1

FULL_SIZES = {"warm-stream": {"n": 65536}, "cold-fit": {"n": 4096}}
# tiny sizes for the benchmark's own tests; same code paths
SMOKE_SIZES = {"warm-stream": {"n": 128}, "cold-fit": {"n": 64}}


def rhs(rng, n, d):
    """Complex Gaussian (n, d, d) right-hand side."""
    return rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))


def rotate(spec, omega):
    """The symbol of h(omega z) for |omega| = 1.

    Every pole p moves to p conj(omega) and the degree-j polynomial
    coefficient gains omega^j, on both factors. T_n changes by the
    diagonal unitary similarity diag(omega^s), so every coefficient of
    the problem changes while the pole radii, the analyticity radius
    and hence the c~ depth stay the same.
    """
    def poly(coeffs):
        return tuple(omega ** (j + 1) * m for j, m in enumerate(coeffs))
    return RationalSymbolSpec(
        d=spec.d, m0=spec.m0, K=spec.K, rho00=spec.rho00,
        rho0=poly(spec.rho0),
        poles=tuple(p * np.conj(omega) for p in spec.poles),
        mults=spec.mults, rho=spec.rho,
        sharp_rho00=spec.sharp_rho00, sharp_rho0=poly(spec.sharp_rho0),
        sharp_rho=spec.sharp_rho)


@dataclass
class Case:
    """Inputs of one op, plus the tables and kit a warm op reuses."""

    spec: RationalSymbolSpec
    y: np.ndarray
    tables: CoefficientTables = None
    kit: ClosedFormKit = None


def checked(spec, tracer, op):
    with tracer.span("symbol.validate", op):
        validate(spec).raise_if_failed()
    return spec


class WarmStream:
    name = "warm-stream"
    cold = False

    def __init__(self, seed, n):
        self.seed, self.n = seed, n
        self.cases = []

    def specs(self):
        # fixed draws: the cost of a warm solve grows with the pole radii
        # (pole powers underflow through subnormals), so drawing the
        # specs from the seed would make runs incomparable
        rng = np.random.default_rng(WARM_SPEC_SEED)
        return [scalar_single_pole(p=0.5, rho=1.0),
                random_spec(d=2, K=2, mults=(1, 2), m0=1, rng=rng),
                random_spec(d=3, K=2, mults=(2, 2), m0=2, rng=rng)]

    def setup(self, tracer):
        """Build, validate, make tables and kit, and run one warm-up
        solve per spec; the warm-up fills the cached gamma band. The
        traced run splits the warm-up into its stages instead."""
        cases = []
        for k, spec in enumerate(self.specs()):
            op = f"setup-{k}"
            checked(spec, tracer, op)
            y = rhs(np.random.default_rng([self.seed, WARMUP, k]),
                    self.n, spec.d)
            case = Case(spec, y)
            if tracer.enabled:
                traced_call(case, self.n, True, tracer, op)
            else:
                case.tables = CoefficientTables(spec)
                case.kit = ClosedFormKit(spec) if spec.K else None
                solve(spec, self.n, y, tables=case.tables, kit=case.kit)
            cases.append(case)
        self.cases = cases

    @property
    def cycle(self):
        return len(self.cases)

    def case(self, i, tracer):
        base = self.cases[i % self.cycle]
        y = rhs(np.random.default_rng([self.seed, OPS, i]), self.n,
                base.spec.d)
        return Case(base.spec, y, base.tables, base.kit)

    def call(self, case):
        """The timed public call: a warm solve with default checks."""
        rep = solve(case.spec, self.n, case.y, tables=case.tables,
                    kit=case.kit)
        return rep, case.tables


class ColdFit:
    """Cold workload: op i solves base spec i % cycle from scratch,
    turned by an angle drawn from the seed (see rotate). Every op's
    coefficients are new, so nothing can be reused from an earlier op,
    while the work of each op is fixed by its base spec. Fresh residue
    and radius draws per op would move the c~ depth, and the cost with
    its square, so much that runs of different seeds, each a few dozen
    ops long, would not be comparable."""

    name = "cold-fit"
    cold = True

    def __init__(self, seed, n):
        self.seed, self.n = seed, n
        self.bases, self.cases = [], {}

    @property
    def cycle(self):
        return len(self.bases)

    def build(self, i, tracer):
        rng = np.random.default_rng([self.seed, OPS, i])
        omega = np.exp(2j * np.pi * rng.uniform())
        spec = checked(rotate(self.bases[i % self.cycle], omega), tracer, i)
        return Case(spec, rhs(rng, self.n, spec.d))

    def setup(self, tracer):
        """Draw the base specs; build and validate the first cycle's
        inputs."""
        self.bases = self.base_specs()
        self.cases = {i: self.build(i, tracer) for i in range(self.cycle)}

    def case(self, i, tracer):
        return self.cases.pop(i) if i in self.cases else self.build(i, tracer)

    def call(self, case):
        """The timed public call: solve(spec, n, y) with default checks.
        The tables are created here rather than inside solve only so the
        gate can read the gamma band afterwards; construction is lazy
        and costs nothing until solve fills it."""
        tables = CoefficientTables(case.spec)
        return solve(case.spec, self.n, case.y, tables=tables), tables

    def base_specs(self):
        return [random_spec(d=d, K=K, mults=mults, m0=m0,
                            rng=np.random.default_rng([FIT_SPEC_SEED, k]))
                for k, (d, K, mults, m0) in enumerate(FIT_SHAPES)]


def make(name, seed, smoke=False):
    sizes = (SMOKE_SIZES if smoke else FULL_SIZES)[name]
    cls = {"warm-stream": WarmStream, "cold-fit": ColdFit}[name]
    return cls(seed, **sizes)


def traced_call(case, n, cold, tracer, op):
    """The op split into public calls, one span each, under a root span
    "op". Stage costs that exist only inside solve are the differences
    of these calls (see harness.layer_metrics). A cold call builds the
    kit and fresh tables and leaves them on `case`."""
    spec, y = case.spec, case.y
    with tracer.span("op", op):
        if cold:
            case.tables = CoefficientTables(spec)
            if spec.K:
                with tracer.span("closed_form.kit", op):
                    case.kit = ClosedFormKit(spec)
        with tracer.span("fast_solver.gram", op):
            apply_A_gram(spec, n, y, "tilde")
            apply_A_gram(spec, n, y, "plain")
        kwargs = dict(tables=case.tables, kit=case.kit)
        with tracer.span("fast_solver.solve_bare", op):
            solve(spec, n, y, check_overlap=False, compute_residual=False,
                  **kwargs)
        with tracer.span("fast_solver.solve_overlap", op):
            solve(spec, n, y, check_overlap=True, compute_residual=False,
                  **kwargs)
        if cold:
            with tracer.span("fast_solver.solve_residual_fresh", op):
                solve(spec, n, y, check_overlap=False, **kwargs)
        with tracer.span("fast_solver.solve_residual_warm", op):
            solve(spec, n, y, check_overlap=False, **kwargs)
