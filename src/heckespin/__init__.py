"""Spin-chain representations of the affine Hecke algebra of two-boundary type.

The package builds the 2^n-dimensional spin representation and its
Temperley-Lieb quotient, the diagrammatic matchmaker calculus with its
intertwiner, baxterized R- and K-matrices with their transport operators,
commuting transfer matrices and the open-chain Hamiltonian, Koornwinder
polynomial eigenfunctions, and polynomial solutions of the associated
q-difference equations.  The ``heckespin`` console script drives the
verification suites over randomly sampled generic parameters.

The three error classes, the suite names, the settings and the caps live
here, where no numpy is loaded, so that cli.py can refuse a flag and
commands.py a cap before either imports numpy or a layer.
"""

__version__ = "0.1.0"

# the suites "verify" offers, in the order "verify all" runs them
SUITES = ("algebra", "matchmaker", "baxter", "transfer", "koornwinder", "qkz")

# the commands that check and write a report, and those that write an artifact
_CHECKS, _WRITES = ("verify", "qkz verify"), ("koornwinder compute", "qkz build", "emit tables")
# name -> (the argparse keywords of its flag --name, the commands that read
# it), in --help order; a --params file may give each with a type or choices
SETTINGS = {
    "n": ({"type": int, "help": "chain length / rank"}, ("verify", *_WRITES)),
    "seed": ({"type": int, "help": "deterministic sampling seed"}, (*_CHECKS, *_WRITES)),
    "precision": ({"choices": ("double", "extended"),
                   "help": "extended adds the transfer suite's row 'extended precision transfer"
                           " agreement'; the other suites ignore it"}, ("verify",)),
    "tolerance": ({"type": float, "help": "pass threshold"}, _CHECKS),
    "samples": ({"type": int, "help": "random sample count"}, _CHECKS),
    "params": ({"help": "JSON config or parameter file"}, (*_CHECKS, *_WRITES)),
    "m": ({"type": int, "help": "translation degree; degree bound for emitted polynomial tables"},
          ("verify", "qkz build", "emit tables")),
    "lambda": ({"dest": "lam", "help": "polynomial label, comma-separated integers"},
               ("koornwinder compute",)),
    "out": ({"help": "output file (or directory for tables)"}, _WRITES),
    "report": ({"help": "write the check report here"}, _CHECKS),
}

_DIM_CAP = 10
_N_CAP = 3
_DEGREE_CAP = 4


class GenericityError(RuntimeError):
    """A denominator or a spectral gap vanishes.  ``point`` is the ParamSet
    whose own guard fired (see nonvanishing), which a command redraws; None
    refuses the job: a seed out of draws, or a spectral pole (baxter.RationalMat)."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class RefusalError(RuntimeError):
    """A precondition of the requested construction does not hold."""


class InternalDefectError(RuntimeError):
    """An internal exactness invariant failed; this is a bug, not bad input."""


def check_dim_cap(n: int) -> None:
    """Refuse a chain longer than the spin representation's cap (n <= 10,
    dimension 2^10)."""
    if n > _DIM_CAP:
        raise RefusalError(f"spin representation capped at n = {_DIM_CAP}")


def check_identity_rank(n: int) -> None:
    """Refuse a chain too short for the identity suite: the reflection rows
    need a middle generator (n >= 2)."""
    if n < 2:
        raise RefusalError("the identity suite needs n >= 2")


def check_caps(n: int, degree: int = 0) -> None:
    """Refuse a rank or label degree beyond the measured polynomial caps."""
    if n > _N_CAP or degree > _DEGREE_CAP:
        raise RefusalError(
            f"polynomial caps exceeded (n <= {_N_CAP}, sum|lambda| <= {_DEGREE_CAP})"
        )


def check_degree_cap(n: int, m: int) -> None:
    """Refuse a solution whose label (m, ..., m) has degree |m| n beyond the
    degree cap, and a rank beyond the rank cap, which m = 0 would pass."""
    if abs(m) * n > _DEGREE_CAP:
        raise RefusalError(f"degree cap exceeded (|m| * n <= {_DEGREE_CAP})")
    check_caps(n)
