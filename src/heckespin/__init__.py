"""Spin-chain representations of the affine Hecke algebra of two-boundary type.

The package builds the 2^n-dimensional spin representation and its
Temperley-Lieb quotient, the diagrammatic matchmaker calculus with its
intertwiner, baxterized R- and K-matrices with their transport operators,
commuting transfer matrices and the open-chain Hamiltonian, Koornwinder
polynomial eigenfunctions, and polynomial solutions of the associated
q-difference equations.  The ``heckespin`` console script drives the
verification suites over randomly sampled generic parameters.

The four error classes and the suite names live here, where no numpy is
loaded, so that the driver can parse its arguments and refuse a flag before
it imports a layer.
"""

__version__ = "0.1.0"

# the suites "verify" offers, in the order "verify all" runs them
SUITES = ("algebra", "matchmaker", "baxter", "transfer", "koornwinder", "qkz")


class GenericityError(RuntimeError):
    """A denominator or a spectral gap vanishes.  ``point`` is the ParamSet
    whose own guard fired (see nonvanishing), None when the fault lies
    elsewhere: sample points near poles, or a seed out of draws."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class RefusalError(RuntimeError):
    """A precondition of the requested construction does not hold."""


class InternalDefectError(RuntimeError):
    """An internal exactness invariant failed; this is a bug, not bad input."""


class PoleProximityError(RuntimeError):
    """A spectral-parameter evaluation landed too close to a pole.  An
    evaluation over a stack of points flags the points at a pole in
    ``where``, a boolean per point; one boolean, True by default, stands for
    every point."""

    def __init__(self, message: str, where=True):
        super().__init__(message)
        self.where = where
