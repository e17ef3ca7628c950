"""Difference-reflection operators on Laurent polynomials and their joint
eigenpolynomials.

All entry points here hard-wire the inverted-parameter convention: callers
pass the plain parameter set and the kappa's and upsilon's are inverted
internally (q stays put).  In that convention the constant polynomial is a
kappa_j^{-1}-eigenvector of every generator image, the generator action is

    T_j . f = kappa_j^{-1} f + kappa_j N_j(t) DD_j(f)

with N_j the quadratic numerator polynomial and DD_j the exact divided
difference, and the translation elements act with eigenvalue 1/gamma_lambda
on the monic polynomial with leading monomial t^lambda.

noumi_T_apply realises that action on LaurentPoly dicts; it fills the n+1
generator matrices on an l1 ball (which every T_j keeps) once per parameter
set, and each Y_i is their product along tau_word.  compute_P stacks the
Y_i - 1/gamma_i on a validated span and reads the joint kernel (a line, by
genericity) off the SVD of the stack's square QR factor; residuals are
matrix-vector products on the full-ball vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    GenericityError,
    InternalDefectError,
    LaurentPoly,
    ParamSet,
    _gamma_vectors,
    divided_difference,
    l1_ball,
)
from .weyl import tau_word

_N_CAP = 3
_DEGREE_CAP = 4
_SPAN_CLOSURE_TOL = 1e-10
_KERNEL_GAP = 1e-6


def c_eval(j: int, t, params: ParamSet, inverted: bool = False) -> complex:
    """The deformation factor c_j at the point t; with inverted=True the
    kappa's and upsilon's are replaced by their inverses."""
    n = params.n
    k0, k, kn = params.kappa0, params.kappa, params.kappan
    u0, un = params.upsilon0, params.upsilonn
    if inverted:
        k0, k, kn, u0, un = 1 / k0, 1 / k, 1 / kn, 1 / u0, 1 / un
    qs = params.q_sqrt
    if j == 0:
        den = 1 - qs**2 / t[0] ** 2
        if abs(den) < 1e-12:
            raise GenericityError("pole of c_0 at this point")
        return (
            (1 - qs * k0 * u0 / t[0]) * (1 + qs * k0 / (u0 * t[0])) / (k0 * den)
        )
    if j == n:
        den = 1 - t[-1] ** 2
        if abs(den) < 1e-12:
            raise GenericityError("pole of c_n at this point")
        return (1 - kn * un * t[-1]) * (1 + kn / un * t[-1]) / (kn * den)
    if not 1 <= j < n:
        raise ValueError("index out of range")
    u = t[j - 1] / t[j]
    den = 1 - u
    if abs(den) < 1e-12:
        raise GenericityError("pole of c_j at this point")
    return (1 - k**2 * u) / (k * den)


def _numerator_poly(j: int, params: ParamSet) -> LaurentPoly:
    """N_j: the inverted-parameter numerator of c_j times the denominator of
    the divided difference, as a Laurent polynomial."""
    n = params.n
    q = params.q
    if j == 0:
        k0, u0 = params.kappa0, params.upsilon0
        e1 = tuple([-1] + [0] * (n - 1))
        e2 = tuple([-2] + [0] * (n - 1))
        return LaurentPoly(
            n,
            {
                (0,) * n: 1.0,
                e1: params.q_sqrt / k0 * (u0 - 1 / u0),
                e2: -q / k0**2,
            },
        )
    if j == n:
        kn, un = params.kappan, params.upsilonn
        e1 = tuple([0] * (n - 1) + [1])
        e2 = tuple([0] * (n - 1) + [2])
        return LaurentPoly(
            n,
            {(0,) * n: 1.0, e1: (un - 1 / un) / kn, e2: -1 / kn**2},
        )
    k = params.kappa
    ex = [0] * n
    ex[j - 1] = 1
    ex[j] = -1
    return LaurentPoly(n, {(0,) * n: 1.0, tuple(ex): -1 / k**2})


def noumi_T_apply(j: int, f: LaurentPoly, params: ParamSet) -> LaurentPoly:
    kj = params.kappa_j(j)
    out = f.scale(1 / kj)
    dd = divided_difference(f, j, params)
    return out + (_numerator_poly(j, params) * dd).scale(kj)


def noumi_T_inv_apply(j: int, f: LaurentPoly, params: ParamSet) -> LaurentPoly:
    # quadratic relation in inverted parameters: T^{-1} = T - 1/kappa + kappa
    kj = params.kappa_j(j)
    return noumi_T_apply(j, f, params) + f.scale(kj - 1 / kj)


def noumi_Y_apply(i: int, f: LaurentPoly, params: ParamSet) -> LaurentPoly:
    """The i-th commuting translation element through the basic action."""
    n = params.n
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    out = f
    for k, a in reversed(list(enumerate(tau_word(i, n)))):
        step = noumi_T_inv_apply if k < i - 1 else noumi_T_apply
        out = step(a, out, params)
    return out


@dataclass(frozen=True)
class SpectralPoint:
    gamma: tuple
    lam: tuple

    def to_dict(self):
        return {
            "lambda": list(self.lam),
            "gamma": [{"re": g.real, "im": g.imag} for g in self.gamma],
        }


def gamma_lambda(lam, params: ParamSet) -> SpectralPoint:
    lam = tuple(int(v) for v in lam)
    return SpectralPoint(gamma=_gamma_vectors([lam], params)[0], lam=lam)


def _dominated(mu, lam) -> bool:
    """Partial-sum comparison of the decreasing rearrangements of absolute
    values; a superset of the true triangular order, validated at runtime."""
    a = sorted((abs(v) for v in mu), reverse=True)
    b = sorted((abs(v) for v in lam), reverse=True)
    run_a = run_b = 0
    for x, y in zip(a, b):
        run_a += x
        run_b += y
        if run_a > run_b:
            return False
    return True


@dataclass
class MonomialSpan:
    lam: tuple
    basis: tuple
    matrices: dict
    enlarged: bool


_BALL_CACHE: dict = {}


def ball_vector(poly: LaurentPoly, index: dict) -> np.ndarray:
    """Coefficient vector of poly on the ball enumerated by index; a term
    outside the ball is a defect of the caller, never a truncation."""
    vec = np.zeros(len(index), dtype=complex)
    for ex, cf in poly.terms.items():
        if ex not in index:
            raise InternalDefectError("polynomial term left the degree ball")
        vec[index[ex]] = cf
    return vec


def _ball(params: ParamSet, radius: int):
    """(basis, index, {i: Y_i}, {j: T_j}) on the l1 ball, cached per (frozen
    parameter set, radius).  Column mu of T_j is the image of t^mu,
    so each monomial's divided difference is verified once; Y_i multiplies
    the T_j along tau_word(i, n) as noumi_Y_apply does, inverting the first
    i - 1 letters by T_j + (kappa_j - 1/kappa_j)."""
    key = (params, radius)
    if key in _BALL_CACHE:
        return _BALL_CACHE[key]
    n = params.n
    basis = l1_ball(n, radius)
    index = {mu: a for a, mu in enumerate(basis)}
    eye = np.eye(len(basis), dtype=complex)
    gens = {}
    for j in range(n + 1):
        images = [noumi_T_apply(j, LaurentPoly.monomial(n, mu), params) for mu in basis]
        gens[j] = np.stack([ball_vector(f, index) for f in images], axis=1)
    mats = {}
    for i in range(1, n + 1):
        factors = []
        for k, a in enumerate(tau_word(i, n)):
            kj = params.kappa_j(a)
            factors.append(gens[a] + (kj - 1 / kj) * eye if k < i - 1 else gens[a])
        mats[i] = np.linalg.multi_dot(factors)
    if len(_BALL_CACHE) > 8:
        _BALL_CACHE.pop(next(iter(_BALL_CACHE)))
    _BALL_CACHE[key] = (basis, index, mats, gens)
    return _BALL_CACHE[key]


def _ball_matrices(params: ParamSet, radius: int):
    """(basis, index, {i: Y_i}) on the full l1 ball of the given radius."""
    return _ball(params, radius)[:3]


def generator_matrices(params: ParamSet, radius: int):
    """(basis, index, {j: T_j}) on the full l1 ball, from the same cache."""
    basis, index, _mats, gens = _ball(params, radius)
    return basis, index, gens


def _eigen_residual(poly: LaurentPoly, index: dict, pairs) -> float:
    """max over (M, c) of |M v - c v| / max(|v|, 1), v the ball vector of poly."""
    vec = ball_vector(poly, index)
    scale = max(float(np.abs(vec).max()), 1.0)
    return max(float(np.abs(m @ vec - c * vec).max()) for m, c in pairs) / scale


def check_caps(n: int, degree: int = 0) -> None:
    """Refuse a rank or label degree beyond the exactly stable spans."""
    if n > _N_CAP or degree > _DEGREE_CAP:
        raise ValueError(
            f"polynomial caps exceeded (n <= {_N_CAP}, sum|lambda| <= {_DEGREE_CAP})"
        )


def build_span(lam, params: ParamSet) -> MonomialSpan:
    """Monomial span for lambda with runtime-validated stability.

    Starts from the partial-sum-dominated subset of the degree ball; if any
    translation matrix leaks outside the subset, the span is enlarged once to
    the full ball (which is stable by construction).
    """
    lam = tuple(int(v) for v in lam)
    n = params.n
    if n != len(lam):
        raise ValueError("lambda length must match n")
    radius = sum(abs(v) for v in lam)
    check_caps(n, radius)
    basis, _index, mats = _ball_matrices(params, radius)
    inside = [_dominated(mu, lam) for mu in basis]
    chosen = [mu for mu, keep in zip(basis, inside) if keep]
    rows_in = [a for a, keep in enumerate(inside) if keep]
    rows_out = [a for a, keep in enumerate(inside) if not keep]
    enlarged = False
    if rows_out:
        for i in range(1, n + 1):
            block = mats[i][np.ix_(rows_out, rows_in)]
            scale = max(1.0, float(np.abs(mats[i]).max()))
            if np.abs(block).max() > _SPAN_CLOSURE_TOL * scale:
                enlarged = True
                break
    if enlarged:
        chosen = list(basis)
        rows_in = list(range(len(basis)))
    sub = {i: mats[i][np.ix_(rows_in, rows_in)] for i in range(1, n + 1)}
    return MonomialSpan(
        lam=lam, basis=tuple(chosen), matrices=sub, enlarged=enlarged
    )


@dataclass
class PolynomialResult:
    poly: LaurentPoly
    spectral: SpectralPoint
    residual: float
    span_size: int


def compute_P(lam, params: ParamSet) -> LaurentPoly:
    return compute_P_detail(lam, params).poly


def joint_kernel(stack):
    """Singular values and last right singular vector of A = QR, from R (R-SVD)."""
    _u, sigma, vh = np.linalg.svd(np.linalg.qr(stack, mode="r"))
    return sigma, vh[-1].conj()


def compute_P_detail(lam, params: ParamSet) -> PolynomialResult:
    """Monic joint eigenpolynomial with leading monomial t^lambda.

    Stacks the n blocks Y_i - 1/gamma_i on the validated span; the joint
    kernel must be a line, sigma[-1] below and sigma[-2] above _KERNEL_GAP
    relative to sigma[0], otherwise the parameter set is rejected as
    non-generic.  The residual is taken on the full degree ball.
    """
    span = build_span(lam, params)
    lam = span.lam
    n = params.n
    sp = gamma_lambda(lam, params)
    size = len(span.basis)
    stack = np.zeros((n * size, size), dtype=complex)
    for i in range(1, n + 1):
        stack[(i - 1) * size : i * size] = span.matrices[i] - (
            1 / sp.gamma[i - 1]
        ) * np.eye(size)
    sigma, vec = joint_kernel(stack)
    scale = max(sigma[0], 1.0)
    if sigma[-1] > _KERNEL_GAP * scale:
        raise GenericityError(f"no joint eigenvector at lambda={lam}")
    if size > 1 and sigma[-2] < _KERNEL_GAP * scale:
        raise GenericityError(f"non-generic spectrum at lambda={lam}")
    lead = vec[span.basis.index(lam)]
    if abs(lead) < 1e-12 * np.abs(vec).max():
        raise InternalDefectError("leading coefficient vanished on the span")
    vec = vec / lead
    cutoff = 1e-13 * np.abs(vec).max()
    terms = {
        mu: complex(c)
        for mu, c in zip(span.basis, vec)
        if abs(c) > cutoff or mu == lam
    }
    # complex division z/z can round below one ulp; the normalization is
    # exact by construction, so pin the leading coefficient
    terms[lam] = 1.0 + 0.0j
    poly = LaurentPoly(n, terms)
    return PolynomialResult(poly, sp, joint_residual(poly, sp, params), size)


def joint_residual(poly: LaurentPoly, sp: SpectralPoint, params: ParamSet):
    """Relative residual of Y_i poly = poly / gamma_i, i = 1..n, taken on the
    full degree ball of sp.lam, so that a term outside the span shows."""
    _basis, index, mats = _ball_matrices(params, sum(abs(v) for v in sp.lam))
    pairs = [(mats[i], 1 / g) for i, g in enumerate(sp.gamma, start=1)]
    return _eigen_residual(poly, index, pairs)


def stabilizer_eigen_residual(i: int, poly: LaurentPoly, params: ParamSet):
    """Relative residual of T_i poly = kappa_i^{-1} poly on the full ball."""
    _basis, index, gens = generator_matrices(params, poly.l1_degree())
    return _eigen_residual(poly, index, [(gens[i], 1 / params.kappa_j(i))])


def fixed_by_si(i: int, lam) -> bool:
    lam = tuple(lam)
    if i == len(lam):
        return lam[-1] == 0
    return lam[i - 1] == lam[i]
