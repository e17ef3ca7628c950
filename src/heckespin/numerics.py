"""Scalar parameters, Laurent polynomials, spectral vectors and sampling.

Everything downstream runs over one immutable bundle of nonzero complex
scalars (kappa0, kappa, kappan, upsilon0, upsilonn, psi0, psin) plus a rank n
and a square root of q.  q itself is always recovered as q_sqrt**2 so the two
can never drift apart.  The layers compute in the scalars' own type
(complex, fractions or mpmath; ParamSet.roundoff).

Laurent polynomials in t_1..t_n are ``LaurentPoly`` tables: one integer
exponent table shared by the rows of a coefficient matrix, one row per
polynomial.  They are built, stored as JSON and evaluated here; the
library never multiplies two of them or changes their variables.  The
integer weights of an l1 ball (l1_ball) and their spectral vectors
(gamma_vectors) are their formulas, a weight and a coordinate at a time.
Every draw comes from a stream(seed): parameter points only from
generic_draws, which commands._at_point alone walks, and spectral points
from torus_point, on the stream commands hands the row.  A spectral
point at a pole (baxter.RationalMat) is a GenericityError naming no point,
never redrawn: it refuses the job (exit 2) in every row of the dressed blocks.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
import json
import math
import numbers
import operator
import random
from dataclasses import dataclass

try:  # the interpreter's own SHA-256, as random.py takes its SHA-512: hashlib maps OpenSSL
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import GenericityError, InternalDefectError, RefusalError

# draws before generic_draws gives up on a seed
_MAX_DRAWS = 64
# moduli of the sampled scalars
_SCALAR_BAND = (0.6, 1.6)
# a denominator below this (relative) is at a pole
_POLE_TOL = 1e-6
_LOG_TINY, _LOG_HUGE = -708.39, 709.78  # within log of the least and largest normal double


def eta(x) -> int:
    """Sign function with eta(0) = -1."""
    return 1 if x > 0 else -1


def _c2d(z: complex) -> dict:
    return {"im": float(z.imag), "re": float(z.real)}


def _d2c(d: dict) -> complex:
    if isinstance(d["re"], bool) or isinstance(d["im"], bool):
        raise TypeError("the parts of a complex number must be numbers, not bools")
    return complex(d["re"], d["im"])


@dataclass(frozen=True)
class ParamSet:
    """The full scalar bundle at a fixed rank n.

    kappa_sqrt is a chosen square root of kappa (it appears on its own only
    inside the twist matrix of the transfer trace); the constructor raises
    ValueError on a rank below 1, a scalar or a power q = q_sqrt**2, q**4,
    kappa**max(4, n-1), kappa0**2 or kappan**2 that is not a normal double,
    and a root that does not square back to kappa.
    """

    n: int
    q_sqrt: complex
    kappa0: complex
    kappa: complex
    kappan: complex
    upsilon0: complex
    upsilonn: complex
    psi0: complex
    psin: complex
    kappa_sqrt: complex

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("rank n must be at least 1")
        # each scalar, and its highest power in the layers, must be a normal
        # double: complex ** raises OverflowError or ZeroDivisionError outside
        k = max(4, self.n - 1)
        for name, z, power in [(f.name, getattr(self, f.name), 1) for f in dataclasses.fields(self)[1:]] + [
                ("q = q_sqrt**2", self.q_sqrt, 2), ("q**4", self.q_sqrt, 8), (f"kappa**{k}", self.kappa, k),
                ("kappa0**2", self.kappa0, 2), ("kappan**2", self.kappan, 2)]:
            if z == 0 or power * cmath.log(z).real < _LOG_TINY:
                raise ValueError(f"{name} must be nonzero")
            if not cmath.isfinite(z) or power * cmath.log(z).real > _LOG_HUGE:
                raise ValueError(f"{name} must be finite")
        if abs(self.kappa_sqrt**2 - self.kappa) > 1e-12 * max(1.0, abs(self.kappa)):
            raise ValueError("kappa_sqrt**2 does not match kappa")

    @property
    def q(self) -> complex:
        return self.q_sqrt**2

    @property
    def one(self):
        """1 in the parameters' scalar type: exact for exact parameters."""
        return self.kappa**0

    @property
    def roundoff(self) -> float:
        """The unit roundoff of the parameters' scalar type in units of
        double's, the factor of every float-only tolerance of the polynomial
        layer: 1 for double, 0 for an exact type (fractions), mpmath's at its
        working precision."""
        one = self.one
        if isinstance(one, numbers.Rational):
            return 0.0
        eps = one.context.eps if hasattr(one, "context") else np.finfo(np.result_type(one)).eps
        return float(eps) / float(np.finfo(float).eps)

    def kappa_j(self, j: int) -> complex:
        """The deformation scalar attached to generator index j in 0..n."""
        if j == 0:
            return self.kappa0
        if j == self.n:
            return self.kappan
        if 0 < j < self.n:
            return self.kappa
        raise ValueError(f"generator index {j} out of range for n={self.n}")

    def upsilon_j(self, j: int) -> complex:
        if j == 0:
            return self.upsilon0
        if j == self.n:
            return self.upsilonn
        raise ValueError(f"no upsilon attached to index {j}")

    def replace(self, **kw) -> "ParamSet":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        return {"n": self.n, **{f.name: _c2d(getattr(self, f.name)) for f in dataclasses.fields(self)[1:]}}

    @classmethod
    def from_dict(cls, d: dict) -> "ParamSet":
        """The inverse of to_dict; KeyError or TypeError on a missing entry
        or one of the wrong type, n included: it must be an integer."""
        if isinstance(d["n"], bool):
            raise TypeError("n must be an integer, not a bool")
        n = operator.index(d["n"])
        return cls(n, **{f.name: _d2c(d[f.name]) for f in dataclasses.fields(cls)[1:]})

    def fingerprint(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return sha256(text.encode()).hexdigest()


class LaurentPoly:
    """Laurent polynomials in n variables t_1..t_n, one per row of a
    coefficient matrix ``coeffs`` (rows x terms) over one integer exponent
    table ``exps`` (terms x n), of the exponents that some row uses.  Values
    at points t are coeffs @ (t**exps).T, integer powers by repeated squaring,
    in the scalar type of the coefficients and the points.

    >>> f = LaurentPoly([(1, 0), (0, -1)], [1.0, 2.0])
    >>> f([(2.0, 4.0)])
    array([[2.5]])
    """

    __slots__ = ("exps", "coeffs")

    def __init__(self, exps, coeffs):
        exps = np.array(exps, dtype=np.int64)
        coeffs = np.atleast_2d(np.array(coeffs))
        if exps.ndim != 2 or coeffs.ndim != 2 or coeffs.shape[1] != len(exps):
            raise InternalDefectError("coefficient rows do not match the exponent table")
        used = coeffs.any(axis=0)
        self.exps, self.coeffs = exps[used], coeffs[:, used]

    @classmethod
    def one(cls, n: int) -> "LaurentPoly":
        return cls([(0,) * n], [1])

    def l1_degree(self) -> int:
        return int(np.abs(self.exps).sum(axis=1).max(initial=0))

    def __call__(self, points) -> np.ndarray:
        """Values at the points, shape (rows, len(points))."""
        n = self.exps.shape[1]
        if any(len(t) != n for t in points):
            raise InternalDefectError("point arity mismatch")
        pts = np.array(points).reshape(len(points), 1, n)
        # at least a float, so that an integer point takes negative powers
        powers = np.power(pts, self.exps, dtype=np.result_type(pts, float))
        return self.coeffs @ np.prod(powers, axis=2).T

    def to_dicts(self) -> list:
        """One JSON dict per row: n_vars and the nonzero terms, sorted by
        exponent."""
        exps = self.exps.tolist()
        order = sorted(range(len(exps)), key=exps.__getitem__)
        return [
            {"n_vars": self.exps.shape[1],
             "terms": [{"exp": exps[k], **_c2d(row[k])} for k in order if row[k] != 0]}
            for row in self.coeffs.tolist()
        ]

    @classmethod
    def from_dicts(cls, rows) -> "LaurentPoly":
        """The polynomials of to_dicts, one row per dict, over their exponents
        in order of first appearance.  RefusalError unless every exponent is
        n_vars integers, with one n_vars for all rows; KeyError or TypeError
        on a missing key or a value of the wrong type."""
        n, col, table = operator.index(rows[0]["n_vars"]), {}, []
        for row in rows:
            terms = {tuple(map(operator.index, t["exp"])): _d2c(t) for t in row["terms"]}
            if operator.index(row["n_vars"]) != n or any(len(e) != n for e in terms):
                raise RefusalError("exponent arity does not match n_vars")
            table.append({col.setdefault(e, len(col)): c for e, c in terms.items()})
        coeffs = [[row.get(k, 0) for k in range(len(col))] for row in table]
        return cls(np.reshape(list(col), (len(col), n)), coeffs)


@functools.lru_cache(maxsize=None)
def l1_ball(n: int, radius: int) -> tuple:
    """All integer vectors mu in Z^n with sum |mu_i| <= radius, in
    lexicographic order: the cube [-radius, radius]^n, filtered.  Each
    (n, radius) is built once."""
    return tuple(mu for mu in itertools.product(range(-radius, radius + 1), repeat=n)
                 if sum(map(abs, mu)) <= radius)


def gamma_vectors(lams, params: ParamSet) -> np.ndarray:
    """Spectral vectors of one or more integer weights, one row of a
    (weights, n) array per weight.

    Coordinate i is q^lam_i (kappa0 kappan)^(-eta(lam_i)) kappa^s_i, where
    s_i = sum_{j<i} eta(lam_j - lam_i) - sum_{j>i} eta(lam_i - lam_j)
    - sum_{j != i} eta(lam_i + lam_j), with eta(0) = -1 throughout.
    """
    n, q, k0n, kappa = params.n, params.q, params.kappa0 * params.kappan, params.kappa

    def coordinate(lam, i):
        s = (sum(eta(lam[j] - lam[i]) for j in range(i))
             - sum(eta(lam[i] - lam[j]) for j in range(i + 1, n))
             - sum(eta(lam[i] + lam[j]) for j in range(n) if j != i))
        return q ** lam[i] * k0n ** (-eta(lam[i])) * kappa**s

    return np.array([[coordinate(lam, i) for i in range(n)] for lam in lams])


def stream(seed: int, block: bool = False) -> random.Random:
    """The stream every draw comes from: the standard library's MT19937, whose
    random() Python keeps across releases, seeded with seed, or with the text
    f"block {seed}" for a suite's block of vectors, so drawing it moves no point."""
    return random.Random(f"block {seed}" if block else seed)


def torus_point(rng, count: int, band) -> tuple:
    """count complex scalars, each a modulus rng.uniform(*band) followed by a
    phase 2 pi rng.random(), drawn in that order from the stream rng.

    >>> torus_point(stream(7), 1, (0.7, 1.4))
    ((0.5406827797536333+0.7525977640202854j),)
    """
    lo, hi = band
    return tuple(cmath.rect(rng.uniform(lo, hi), 2 * math.pi * rng.random()) for _ in range(count))


def constraint_rhs(n: int, kappa0: complex, kappa: complex, kappan: complex, m: int) -> complex:
    """(kappa0 kappan kappa^(n-1))^eta(m), the right-hand side of the
    existence constraint psi0 psin q^m = (kappa0 kappan kappa^(n-1))^eta(m)
    of the polynomial solutions of degree m (qkz.require_mcondition)."""
    return (kappa0 * kappan * kappa ** (n - 1)) ** eta(m)


def generic_draws(seed: int, n: int, mcondition: int | None = None):
    """The parameter points of stream(seed), in draw order: eight moduli
    uniform in [0.6, 1.6], then eight phases in [0, 2 pi), per draw, with
    |q| at least 0.05 away from 1 and psin solved from constraint_rhs at
    degree ``mcondition``.  No other screen: a random point is generic
    almost surely, and each layer guards its own denominators (nonvanishing,
    baxter.RationalMat, the spectral gates of koornwinder), naming the point
    in a GenericityError on which a caller may take the next point.
    GenericityError once _MAX_DRAWS draws are spent."""
    rng = stream(seed)
    for _ in range(_MAX_DRAWS):
        mod = [rng.uniform(*_SCALAR_BAND) for _ in range(8)]
        ph = [rng.uniform(0.0, 2 * math.pi) for _ in range(8)]
        q_sqrt, kappa0, kappa, kappan, upsilon0, upsilonn, psi0, psin = map(cmath.rect, mod, ph)
        if mcondition is not None:
            m = int(mcondition)
            psin = constraint_rhs(n, kappa0, kappa, kappan, m) / (psi0 * (q_sqrt**2) ** m)
        p = ParamSet(
            n=n,
            q_sqrt=q_sqrt,
            kappa0=kappa0,
            kappa=kappa,
            kappan=kappan,
            upsilon0=upsilon0,
            upsilonn=upsilonn,
            psi0=psi0,
            psin=psin,
            kappa_sqrt=cmath.sqrt(kappa),
        )
        if abs(abs(p.q) - 1.0) >= 0.05:
            yield p
    raise GenericityError(
        f"no generic parameter point for seed={seed}, n={n} in {_MAX_DRAWS} draws"
    )


def nonvanishing(terms, params: ParamSet, what: str):
    """The sum of terms, a denominator of the parameters alone; a
    GenericityError naming params when the sum is 0 or below 1e-6 of
    sum |terms| (a NaN sum passes, so that the rows it reaches fail)."""
    total = sum(terms[1:], terms[0])
    if total == 0 or abs(total) < _POLE_TOL * sum(map(abs, terms)):
        raise GenericityError(f"{what} vanishes at this parameter point", point=params)
    return total


def max_abs(a) -> float:
    """max|a|: 0.0 for an empty a, NaN where a holds a NaN."""
    return float(np.abs(a).max(initial=0.0))


def _point_max(a: np.ndarray):
    """max|a| over each point of a stack (an array of more than two axes,
    the leading one running over the points), else over all of a."""
    axes = tuple(range(1, a.ndim)) if a.ndim > 2 else None
    return np.asarray(np.abs(a).max(axis=axes, initial=0.0), dtype=float)


def rel_residual(a, b, scale: float | None = None) -> float:
    """Max-abs difference normalized by the larger of the compared objects.

    An explicit ``scale`` overrides the denominator (used when comparing
    against zero, where the natural scale is the size of the inputs that
    produced the residual).  The difference is taken in the scalar type of
    the inputs, so exact (object-array) inputs give exactly 0 only when they
    agree exactly.  Over a stack of matrices (more than two axes, the
    leading one running over points) it is the largest of the points' own
    residuals, each with its own scale."""
    a, b = np.asarray(a), np.asarray(b)
    num = _point_max(a - b)
    scale = np.maximum(_point_max(a), _point_max(b)) if scale is None else np.asarray(scale, dtype=float)
    # below a scale of 1e-300: 0 if the difference vanishes too, else inf; a
    # NaN scale is divided by, so that the point's residual stays NaN
    ratio = np.divide(num, scale, out=np.where(num < 1e-300, 0.0, np.inf), where=~(scale < 1e-300))
    return float(ratio.max())
