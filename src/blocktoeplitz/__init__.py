"""Finite block Toeplitz systems with rational (ARMA-type) symbols:
closed-form inverses, a linear-time solver, and the dense / Levinson /
series reference paths they are checked against.

Quick start::

    import numpy as np
    from blocktoeplitz import scalar_single_pole, CoefficientTables, solve

    spec = scalar_single_pole(p=0.5, rho=1.0)
    y = np.ones((64, 1, 1), dtype=complex)
    report = solve(spec, 64, y)
    print(report.residual)
"""

from .blockarray import BlockMatrix, as_block_vector
from .closed_form import (ClosedFormKit, SolveVectors, inverse_block_closed,
                          inverse_matrix_closed)
from .coefficients import CoefficientTables, RawTables, a_coeff, a_tilde_coeff
from .fast_solver import (SolveReport, apply_A, apply_A_adjoint,
                          apply_A_gram, apply_Q, apply_Q_adjoint, solve)
from .oracle import (ConvergenceReport, convergence_experiment,
                     dense_inverse, dense_solve, dense_toeplitz,
                     infinite_solution, levinson_solve)
from .series_inverse import (BRecursionState, SeriesInverter, b_level_1,
                             b_recursion_step, first_term_gram,
                             inverse_block_series, inverse_matrix_series)
from .symbol import (RationalSymbolSpec, ValidationReport, load_spec,
                     save_spec, spec_from_dict, spec_to_dict, validate)
from .synth import identity_spec, random_spec, scalar_ar, scalar_single_pole

__version__ = "0.1.0"

__all__ = [
    "BlockMatrix", "as_block_vector",
    "ClosedFormKit", "SolveVectors", "inverse_block_closed",
    "inverse_matrix_closed",
    "CoefficientTables", "RawTables", "a_coeff", "a_tilde_coeff",
    "SolveReport", "apply_A", "apply_A_adjoint", "apply_A_gram", "apply_Q",
    "apply_Q_adjoint", "solve",
    "ConvergenceReport", "convergence_experiment", "dense_inverse",
    "dense_solve", "dense_toeplitz", "infinite_solution", "levinson_solve",
    "BRecursionState", "SeriesInverter", "b_level_1", "b_recursion_step",
    "first_term_gram", "inverse_block_series", "inverse_matrix_series",
    "RationalSymbolSpec", "ValidationReport", "load_spec", "save_spec",
    "spec_from_dict", "spec_to_dict", "validate",
    "identity_spec", "random_spec", "scalar_ar", "scalar_single_pole",
]
