"""Scalar parameters, exact Laurent-polynomial arithmetic, and generic sampling.

Everything downstream runs over one immutable bundle of nonzero complex
scalars (kappa0, kappa, kappan, upsilon0, upsilonn, psi0, psin) plus a rank n
and a square root of q.  q itself is always recovered as q_sqrt**2 so the two
can never drift apart.

Laurent polynomials in t_1..t_n are dicts mapping integer exponent tuples to
complex coefficients.  The only division ever performed on them is by the
three reflection denominators

    1 - q*t_1**-2,      1 - t_i/t_{i+1},      1 - t_n**2,

and those quotients are assembled term by term from geometric sums, so the
exponent arithmetic is exact; floats only enter through the coefficients.
``divided_difference`` additionally re-multiplies by the denominator and
checks the product, raising ``InternalDefectError`` on any mismatch.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

# attempts before sample_generic gives up on a seed
_MAX_DRAWS = 64
# attempts beyond the requested count before pole_free gives up
_MAX_RESAMPLE = 40
# moduli of the sampled scalars and of the probe points
_SCALAR_BAND = (0.6, 1.6)
_PROBE_BAND = (0.7, 1.4)
_PROBE_COUNT = 32
_DENOM_FLOOR = 1e-3
_GAMMA_DEGREE = 4
_GAMMA_GAP = 1e-6


class GenericityError(RuntimeError):
    """Sampling could not reach a parameter point clear of all denominators."""


class RefusalError(RuntimeError):
    """A precondition of the requested construction does not hold."""


class InternalDefectError(RuntimeError):
    """An internal exactness invariant failed; this is a bug, not bad input."""


class PoleProximityError(RuntimeError):
    """A spectral-parameter evaluation landed too close to a pole."""


def eta(x) -> int:
    """Sign function with eta(0) = -1."""
    return 1 if x > 0 else -1


def _c2d(z: complex) -> dict:
    return {"im": float(z.imag), "re": float(z.real)}


def _d2c(d: dict) -> complex:
    return complex(d["re"], d["im"])


_SCALAR_FIELDS = (
    "q_sqrt",
    "kappa0",
    "kappa",
    "kappan",
    "upsilon0",
    "upsilonn",
    "psi0",
    "psin",
    "kappa_sqrt",
)


@dataclass(frozen=True)
class ParamSet:
    """The full scalar bundle at a fixed rank n.

    kappa_sqrt is a chosen square root of kappa (it appears on its own only
    inside the twist matrix of the transfer trace); the constructor refuses a
    root that does not square back to kappa.
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
        for name in _SCALAR_FIELDS:
            z = getattr(self, name)
            if z == 0:
                raise ValueError(f"{name} must be nonzero")
        if abs(self.kappa_sqrt**2 - self.kappa) > 1e-12 * max(1.0, abs(self.kappa)):
            raise ValueError("kappa_sqrt**2 does not match kappa")

    @property
    def q(self) -> complex:
        return self.q_sqrt**2

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
        d = {"n": self.n}
        for name in _SCALAR_FIELDS:
            d[name] = _c2d(getattr(self, name))
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: dict) -> "ParamSet":
        kw = {"n": int(d["n"])}
        for name in _SCALAR_FIELDS:
            kw[name] = _d2c(d[name])
        return cls(**kw)

    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


class LaurentPoly:
    """Laurent polynomial in n_vars variables, exponent-dict representation.

    >>> f = LaurentPoly.monomial(2, (1, 0)) + LaurentPoly.monomial(2, (0, -1), 2.0)
    >>> sorted(f.terms)
    [(0, -1), (1, 0)]
    >>> f.eval((2.0, 4.0))
    (2.5+0j)
    """

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms=None):
        self.n_vars = int(n_vars)
        clean = {}
        if terms:
            for exp, c in terms.items():
                if len(exp) != self.n_vars:
                    raise ValueError("exponent arity does not match n_vars")
                c = complex(c)
                if c != 0:
                    clean[tuple(int(e) for e in exp)] = c
        self.terms = clean

    @classmethod
    def zero(cls, n_vars: int) -> "LaurentPoly":
        return cls(n_vars)

    @classmethod
    def one(cls, n_vars: int) -> "LaurentPoly":
        return cls(n_vars, {(0,) * n_vars: 1.0})

    @classmethod
    def monomial(cls, n_vars: int, exp, coeff=1.0) -> "LaurentPoly":
        return cls(n_vars, {tuple(exp): coeff})

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def l1_degree(self) -> int:
        return max((sum(abs(e) for e in exp) for exp in self.terms), default=0)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.n_vars != other.n_vars:
            raise InternalDefectError("arity mismatch")
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0j) + c
        return LaurentPoly(self.n_vars, terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.n_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def scale(self, z: complex) -> "LaurentPoly":
        z = complex(z)
        return LaurentPoly(self.n_vars, {e: z * c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return laurent_mul(self, other)
        return self.scale(other)

    __rmul__ = scale

    def eval(self, point) -> complex:
        return complex(LaurentTable([self], self.n_vars)([tuple(point)])[0, 0])

    def eval_mp(self, point, digits: int = 50):
        """Evaluate with mpmath at the given working precision."""
        import mpmath

        with mpmath.workdps(digits):
            pts = [[mpmath.mpc(t) for t in point]]
            return mpmath.mpc(LaurentTable([self], self.n_vars)(pts, object)[0, 0])

    # reflection substitutions; these are the only variable changes the
    # operators downstream ever need
    def act_s0(self, q: complex) -> "LaurentPoly":
        """f(t) -> f(q/t_1, t_2, ..., t_n)."""
        terms = {}
        for exp, c in self.terms.items():
            m = exp[0]
            new = (-m,) + exp[1:]
            terms[new] = terms.get(new, 0j) + c * q**m
        return LaurentPoly(self.n_vars, terms)

    def act_si(self, i: int) -> "LaurentPoly":
        """f(t) -> f with t_i and t_{i+1} exchanged, 1 <= i <= n-1."""
        if not 1 <= i <= self.n_vars - 1:
            raise ValueError("middle reflection index out of range")
        a, b = i - 1, i
        terms = {}
        for exp, c in self.terms.items():
            e = list(exp)
            e[a], e[b] = e[b], e[a]
            e = tuple(e)
            terms[e] = terms.get(e, 0j) + c
        return LaurentPoly(self.n_vars, terms)

    def act_sn(self) -> "LaurentPoly":
        """f(t) -> f(t_1, ..., t_{n-1}, 1/t_n)."""
        terms = {}
        for exp, c in self.terms.items():
            new = exp[:-1] + (-exp[-1],)
            terms[new] = terms.get(new, 0j) + c
        return LaurentPoly(self.n_vars, terms)

    def act_sj(self, j: int, q: complex) -> "LaurentPoly":
        if j == 0:
            return self.act_s0(q)
        if j == self.n_vars:
            return self.act_sn()
        return self.act_si(j)

    def to_dict(self) -> dict:
        items = sorted(self.terms.items())
        return {
            "n_vars": self.n_vars,
            "terms": [
                {"exp": list(e), "im": float(c.imag), "re": float(c.real)}
                for e, c in items
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LaurentPoly":
        terms = {
            tuple(t["exp"]): complex(t["re"], t["im"]) for t in d["terms"]
        }
        return cls(int(d["n_vars"]), terms)

    def __repr__(self):
        return f"LaurentPoly(n_vars={self.n_vars}, {len(self.terms)} terms)"


class LaurentTable:
    """Polynomials as one integer exponent table E (terms x n_vars) over the
    union of their supports and a coefficient matrix C (polynomials x terms);
    values at points t are C @ (t**E).T, integer powers by repeated squaring."""

    def __init__(self, polys, n_vars: int):
        if any(p.n_vars != n_vars for p in polys):
            raise InternalDefectError("arity mismatch")
        col: dict = {}
        for p in polys:
            for e in p.terms:
                col.setdefault(e, len(col))
        self.exps = np.array(list(col), dtype=np.int64).reshape(len(col), n_vars)
        self.coeffs = np.zeros((len(polys), len(col)), dtype=complex)
        for r, p in enumerate(polys):
            for e, c in p.terms.items():
                self.coeffs[r, col[e]] = c

    def __call__(self, points, dtype=complex) -> np.ndarray:
        """Values at the points, shape (polynomials, len(points)); dtype=object
        evaluates mpmath points in mpmath arithmetic."""
        n = self.exps.shape[1]
        if any(len(t) != n for t in points):
            raise InternalDefectError("point arity mismatch")
        pts = np.array(points, dtype=dtype).reshape(len(points), 1, n)
        return self.coeffs @ np.prod(pts**self.exps, axis=2).T


def laurent_mul(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    if f.n_vars != g.n_vars:
        raise InternalDefectError("arity mismatch")
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, 0j) + c1 * c2
    return LaurentPoly(f.n_vars, terms)


def _denominator(j: int, n: int, q: complex) -> LaurentPoly:
    if j == 0:
        return LaurentPoly(n, {(0,) * n: 1.0, (-2,) + (0,) * (n - 1): -q})
    if j == n:
        return LaurentPoly(n, {(0,) * n: 1.0, (0,) * (n - 1) + (2,): -1.0})
    e = [0] * n
    e[j - 1], e[j] = 1, -1
    return LaurentPoly(n, {(0,) * n: 1.0, tuple(e): -1.0})


def divided_difference(f: LaurentPoly, j: int, params: ParamSet) -> LaurentPoly:
    """The exact quotient (f o s_j - f) / denom_j, denominators as in the
    module docstring.

    Assembled monomial by monomial from geometric sums, never by pointwise
    division.  The quotient is multiplied back and compared against
    f o s_j - f; disagreement raises InternalDefectError.

    >>> p = ParamSet(n=1, q_sqrt=1.2, kappa0=0.7, kappa=1.1, kappan=0.9,
    ...              upsilon0=1.3, upsilonn=0.8, psi0=1.0, psin=1.0,
    ...              kappa_sqrt=1.1**0.5)
    >>> g = divided_difference(LaurentPoly.monomial(1, (1,)), 1, p)
    >>> g.terms
    {(-1,): (1+0j)}
    """
    n = f.n_vars
    if n != params.n:
        raise ValueError("polynomial arity does not match ParamSet rank")
    if not 0 <= j <= n:
        raise ValueError("reflection index out of range")
    q = params.q
    terms: dict = {}

    def add(exp, c):
        terms[exp] = terms.get(exp, 0j) + c

    for exp, c in f.terms.items():
        if j == 0:
            m = exp[0]
            # (u^m - 1)/(1 - u) with u = q/t_1^2; each u^l sends t_1^m to
            # q^l t_1^(m-2l)
            if m > 0:
                for l in range(m):
                    add((m - 2 * l,) + exp[1:], -c * q**l)
            elif m < 0:
                for l in range(m, 0):
                    add((m - 2 * l,) + exp[1:], c * q**l)
        elif j == n:
            m = exp[-1]
            # here the denominator is 1 - t_n^2 = -u^{-1}(1 - u) for
            # u = t_n^{-2}, which shifts the geometric sum by one step
            if m > 0:
                for l in range(1, m + 1):
                    add(exp[:-1] + (m - 2 * l,), c)
            elif m < 0:
                for l in range(m + 1, 1):
                    add(exp[:-1] + (m - 2 * l,), -c)
        else:
            a, b = j - 1, j
            d = exp[a] - exp[b]
            # (u^{-d} - 1)/(1 - u) with u = t_j/t_{j+1}
            if d < 0:
                for l in range(-d):
                    e = list(exp)
                    e[a] += l
                    e[b] -= l
                    add(tuple(e), -c)
            elif d > 0:
                for l in range(-d, 0):
                    e = list(exp)
                    e[a] += l
                    e[b] -= l
                    add(tuple(e), c)

    g = LaurentPoly(n, terms)
    lhs = laurent_mul(g, _denominator(j, n, q))
    rhs = f.act_sj(j, q) - f
    scale = max(lhs.max_abs(), rhs.max_abs(), 1.0)
    if (lhs - rhs).max_abs() > 1e-12 * scale:
        raise InternalDefectError(
            f"divided difference failed re-multiplication check at j={j}"
        )
    return g


def l1_ball(n: int, radius: int):
    """All integer vectors mu in Z^n with sum |mu_i| <= radius, sorted.

    Built coordinate by coordinate, so the output comes out in lexicographic
    order without a sort; each (n, radius) is built once.
    """
    return list(_l1_ball(n, radius))


@functools.lru_cache(maxsize=None)
def _l1_ball(n: int, radius: int) -> tuple:
    if radius < 0:
        return ()
    if n == 0:
        return ((),)
    return tuple((e,) + rest for e in range(-radius, radius + 1)
                 for rest in _l1_ball(n - 1, radius - abs(e)))


def _gamma_exponents(lams, n: int):
    """The integer exponents (lam_i, s_i) of every coordinate of the
    spectral vectors of the weights, as two (weights, n) arrays."""
    lam = np.array(lams, dtype=np.int64).reshape(-1, n)

    def etas(x):
        return np.where(x > 0, 1, -1)

    diff = lam[:, None, :] - lam[:, :, None]  # [w, i, j] = lam_j - lam_i
    total = lam[:, :, None] + lam[:, None, :]
    j_below_i = np.tri(n, k=-1, dtype=bool)
    s = (
        np.where(j_below_i, etas(diff), 0).sum(axis=2)
        - np.where(j_below_i.T, etas(-diff), 0).sum(axis=2)
        - np.where(np.eye(n, dtype=bool), 0, etas(total)).sum(axis=2)
    )
    return lam, s


@functools.lru_cache(maxsize=None)
def _ball_exponents(n: int, radius: int):
    exponents = _gamma_exponents(_l1_ball(n, radius), n)
    for a in exponents:
        a.flags.writeable = False  # shared by every caller of the cache
    return exponents


def _gamma_array(exponents, params: ParamSet) -> np.ndarray:
    """The spectral vectors as a (weights, n) array.  Each coordinate is
    q^m (kappa0 kappan)^(-eta(m)) kappa^s for its exponents (m, s): one
    product of Python scalars per distinct (m, s), the same powers and
    products as one coordinate at a time (so equal to the last bit), then
    gathered."""
    lam, s = exponents
    if lam.size == 0:
        return np.zeros(lam.shape, dtype=complex)
    q, k0n, kappa = params.q, params.kappa0 * params.kappan, params.kappa
    ms = range(int(lam.min()), int(lam.max()) + 1)
    ts = range(int(s.min()), int(s.max()) + 1)
    table = np.array(
        [[q**m * k0n ** (-eta(m)) * kappa**t for t in ts] for m in ms], dtype=complex
    )
    return table[lam - ms[0], s - ts[0]]


def _gamma_vectors(lams, params: ParamSet):
    """Spectral vectors of integer weights, one tuple per weight.

    Coordinate i is q^lam_i (kappa0 kappan)^(-eta(lam_i)) kappa^s_i, where
    s_i = sum_{j<i} eta(lam_j - lam_i) - sum_{j>i} eta(lam_i - lam_j)
    - sum_{j != i} eta(lam_i + lam_j), with eta(0) = -1 throughout.  The
    integer exponents are found for all weights at once; each coordinate is
    then one product of Python scalars.
    """
    return [tuple(row) for row in _gamma_array(_gamma_exponents(lams, params.n), params).tolist()]


def _gamma_distinct(params: ParamSet, radius: int = _GAMMA_DEGREE) -> bool:
    """False iff two weights of l1-degree <= radius have spectral vectors
    within _GAMMA_GAP of each other in every coordinate.

    Sort-and-sweep on a fixed real projection Re(gamma . c): such a pair
    differs by at most sum|c_k| * _GAMMA_GAP in projection, so only rows
    inside twice that window are compared coordinate by coordinate.  The
    weights and their exponents are built once per (n, radius).
    """
    gam = _gamma_array(_ball_exponents(params.n, radius), params)
    c = np.exp(1j * np.sqrt(np.arange(2.0, params.n + 2)))
    proj = (gam @ c).real
    order = np.argsort(proj, kind="stable")
    proj, gam = proj[order], gam[order]
    window = 2 * np.sum(np.abs(c)) * _GAMMA_GAP
    hi = np.searchsorted(proj, proj + window, side="right")
    for i in np.flatnonzero(hi > np.arange(1, len(gam) + 1)):
        # max-abs coordinate distance from row i to each candidate above it
        dist = np.max(np.abs(gam[i + 1 : hi[i]] - gam[i]), axis=1)
        if dist.min() <= _GAMMA_GAP:
            return False
    return True


def torus_point(rng, count: int, band) -> tuple:
    """count complex scalars, each a modulus uniform in band followed by a
    uniform phase, drawn in that order from rng.

    >>> torus_point(np.random.default_rng(7), 1, (0.7, 1.4))
    ((0.908465037512749-0.6846528760260115j),)
    """
    lo, hi = band
    return tuple(
        complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform()))
        for _ in range(count)
    )


def _kbar_trace_denominator(p: ParamSet) -> complex:
    """Tr(theta kbar(kappa^2) theta) as needed by the transfer normalization."""
    x = p.kappa**2
    pref = p.kappa0 / ((1 - p.kappa0 * p.upsilon0 * x) * (1 + p.kappa0 / p.upsilon0 * x))
    a = (1 / p.kappa0 - p.kappa0) * x**2 + (1 / p.upsilon0 - p.upsilon0) * x
    d = 1 / p.kappa0 - p.kappa0 + (1 / p.upsilon0 - p.upsilon0) * x
    return pref * (a / p.kappa + d * p.kappa)


def _denominator_values(p: ParamSet, rng) -> float:
    """Smallest magnitude over every structural denominator at probe points."""
    n = p.n
    vals = []
    k, k0, kn, u0, un = p.kappa, p.kappa0, p.kappan, p.upsilon0, p.upsilonn
    # parameter-only denominators
    for kj in (k0, k, kn):
        vals.append(kj + 1 / kj)
    for kj in (k0, kn):
        vals.append(k / kj + kj / k)
    for kj, uj in ((k0, u0), (kn, un)):
        for w in (kj * uj, kj / uj, uj / kj, 1 / (kj * uj)):
            vals.append(1 - w)
            vals.append(1 + w)
    vals.append(k**2 - 1)
    vals.append(k**2 + 1)
    vals.append(_kbar_trace_denominator(p))
    if n % 2 == 1:
        vals.append(1 + k0 / kn * p.psi0 * p.psin)
        vals.append(1 + kn / k0 * p.psi0 * p.psin)
    else:
        vals.append(1 - k0 * kn / k * p.psi0 * p.psin)
        vals.append(1 - k / (k0 * kn) * p.psi0 * p.psin)
    q = p.q

    def draw(count):
        mod = rng.uniform(*_PROBE_BAND, size=count)
        ph = rng.uniform(0.0, 2 * math.pi, size=count)
        return mod * np.exp(1j * ph)

    for _ in range(_PROBE_COUNT):
        t = draw(n)
        x = draw(1)[0]
        vals.append(1 - q / t[0] ** 2)
        vals.append(1 - q * t[0] ** 2)
        for i in range(n - 1):
            vals.append(1 - t[i] / t[i + 1])
        vals.append(1 - t[-1] ** 2)
        for z in (x, x**2):
            vals.append(1 - k**2 * z)
            vals.append(1 - z / k**2)
        for kj, uj in ((k0, u0), (kn, un)):
            for w in (kj * uj, kj / uj, uj / kj, 1 / (kj * uj)):
                vals.append(1 - w * x)
                vals.append(1 + w * x)
            vals.append(1 - k**2 * kj * uj * x)
            vals.append(1 + k**2 * kj / uj * x)
    return min(abs(v) for v in vals)


def sample_generic(seed: int, n: int, mcondition: int | None = None) -> ParamSet:
    """Draw a deterministic generic ParamSet.

    Moduli land in [0.6, 1.6] with uniform phases; draws are rejected until
    |q| sits away from 1, the spectral vectors of all weights of l1-degree
    <= 4 are pairwise distinct, and every structural denominator stays above
    1e-3 in magnitude at 32 probe points.  ``mcondition=m`` solves the
    boundary compatibility for psin before screening.  Raises
    GenericityError after a bounded number of attempts.
    """
    rng = np.random.default_rng(seed)
    last = "no attempt"
    for _ in range(_MAX_DRAWS):
        mod = rng.uniform(*_SCALAR_BAND, size=8)
        ph = rng.uniform(0.0, 2 * math.pi, size=8)
        z = mod * np.exp(1j * ph)
        q_sqrt, kappa0, kappa, kappan, upsilon0, upsilonn, psi0, psin = map(
            complex, z
        )
        if mcondition is not None:
            m = int(mcondition)
            rhs = (kappa0 * kappan * kappa ** (n - 1)) ** eta(m)
            psin = rhs / (psi0 * (q_sqrt**2) ** m)
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
        if abs(abs(p.q) - 1.0) < 0.05:
            last = "q too close to the unit circle"
            continue
        if _denominator_values(p, rng) <= _DENOM_FLOOR:
            last = "structural denominator below floor"
            continue
        if not _gamma_distinct(p):
            last = "spectral vectors collide at low degree"
            continue
        return p
    raise GenericityError(
        f"no generic parameter point for seed={seed}, n={n}: {last}"
    )


def pole_free(sample, count: int) -> list:
    """The values of the first count calls of sample() that do not raise
    PoleProximityError, in call order; an attempt that raises is dropped.
    Raises GenericityError once count + 40 attempts have not been enough.
    """
    out = []
    for _ in range(count + _MAX_RESAMPLE):
        if len(out) == count:
            break
        try:
            out.append(sample())
        except PoleProximityError:
            pass
    if len(out) < count:
        raise GenericityError("could not find enough pole-free sample points")
    return out


class Residuals(dict):
    """Check name -> the largest residual recorded under that name."""

    def add(self, key: str, value: float) -> None:
        self[key] = max(self.get(key, 0.0), value)


def max_abs(a) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).max())


def rel_residual(a, b, scale: float | None = None) -> float:
    """Max-abs difference normalized by the larger of the compared objects.

    An explicit ``scale`` overrides the denominator (used when comparing
    against zero, where the natural scale is the size of the inputs that
    produced the residual).  The difference is taken in the scalar type of
    the inputs, so exact (object-array) inputs give exactly 0 only when they
    agree exactly."""
    a, b = np.asarray(a), np.asarray(b)
    num = max_abs(a - b)
    if scale is None:
        scale = max(max_abs(a), max_abs(b))
    if scale < 1e-300:
        return 0.0 if num < 1e-300 else float("inf")
    return float(num / scale)
