"""Spin-chain representations of the affine Hecke algebra of two-boundary type.

The package builds the 2^n-dimensional spin representation and its
Temperley-Lieb quotient, the diagrammatic matchmaker calculus with its
intertwiner, baxterized R- and K-matrices with their transport operators,
commuting transfer matrices and the open-chain Hamiltonian, Koornwinder
polynomial eigenfunctions, and polynomial solutions of the associated
q-difference equations.  The ``heckespin`` console script drives the
verification suites over randomly sampled generic parameters.
"""

from .numerics import (
    GenericityError,
    InternalDefectError,
    LaurentPoly,
    ParamSet,
    PoleProximityError,
    RefusalError,
    divided_difference,
    laurent_mul,
    sample_generic,
)

__version__ = "0.1.0"

__all__ = [
    "GenericityError",
    "InternalDefectError",
    "LaurentPoly",
    "ParamSet",
    "PoleProximityError",
    "RefusalError",
    "divided_difference",
    "laurent_mul",
    "sample_generic",
    "__version__",
]
