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

noumi_T_apply realises that action on LaurentPoly dicts and is the reference
for the n+1 generator matrices on an l1 ball (which every T_j keeps).  Those
are filled in closed form once per parameter set and radius: the divided
difference of a monomial is a finite geometric sum, checked against its
denominator.  Y_i is the product of the T_j along tau_word.  The Y_i are
jointly triangular on monomials (Cherednik, IMRN 1995; Sahi, Ann. Math. 150,
1999), so in a checked topological order one back-substitution gives the
eigenvector of every monomial of the ball; compute_P reads its label's column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import (
    GenericityError,
    InternalDefectError,
    LaurentPoly,
    ParamSet,
    RefusalError,
    _denominator,
    _gamma_vectors,
    divided_difference,
    l1_ball,
)
from .weyl import tau_word

_N_CAP = 3
_DEGREE_CAP = 4
_TRIANGULAR_TOL = 1e-10
_KERNEL_GAP = 1e-6


def _numerator_poly(j: int, params: ParamSet) -> LaurentPoly:
    """N_j: the inverted-parameter numerator of c_j times the denominator of
    the divided difference, as a Laurent polynomial."""
    n = params.n
    if 0 < j < n:
        ex = [0] * n
        ex[j - 1], ex[j] = 1, -1
        return LaurentPoly(n, {(0,) * n: 1.0, tuple(ex): -1 / params.kappa**2})
    e1, e2 = [0] * n, [0] * n
    if j == 0:
        k0, u0 = params.kappa0, params.upsilon0
        e1[0], e2[0] = -1, -2
        c1, c2 = params.q_sqrt / k0 * (u0 - 1 / u0), -params.q / k0**2
    else:
        kn, un = params.kappan, params.upsilonn
        e1[-1], e2[-1] = 1, 2
        c1, c2 = (un - 1 / un) / kn, -1 / kn**2
    return LaurentPoly(n, {(0,) * n: 1.0, tuple(e1): c1, tuple(e2): c2})


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


def gamma_lambda(lam, params: ParamSet) -> SpectralPoint:
    lam = tuple(int(v) for v in lam)
    return SpectralPoint(gamma=_gamma_vectors([lam], params)[0], lam=lam)


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


def _dd_terms(j: int, arr: np.ndarray, params: ParamSet):
    """DD_j(t^mu) for each exponent row mu of arr, as term arrays (cols, exps,
    coeffs) with cols[k] the row term k came from.  For the step x = w t^v of
    s_j, t^mu o s_j = t^mu x^m and the denominator is 1 - x, so the quotient
    is -(1 + ... + x^(m-1)) for m > 0 and x^m + ... + x^(-1) for m < 0."""
    n = params.n
    v, w = np.zeros(n, dtype=np.int64), 1.0
    if j == 0:
        m, w, v[0] = arr[:, 0], params.q, -2
    elif j == n:
        m, v[-1] = -arr[:, -1], 2
    else:
        m, v[j - 1], v[j] = arr[:, j] - arr[:, j - 1], 1, -1
    counts = np.abs(m)
    cols = np.repeat(np.arange(len(arr)), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    steps = np.arange(cols.size) - first + np.minimum(m, 0)[cols]
    return cols, arr[cols] + steps[:, None] * v, -np.sign(m[cols]) * np.power(complex(w), steps)


def _scatter(arr, poly: LaurentPoly, cols, exps, coeffs) -> np.ndarray:
    """Matrix on the ball of exponent rows arr (lexicographic) of poly times
    the terms (cols, exps, coeffs); a nonzero term outside the ball is a
    defect, never a truncation."""
    n, radius = arr.shape[1], int(np.abs(arr).sum(axis=1).max())
    if poly.n_vars != n:
        raise InternalDefectError("arity mismatch")
    digits = (2 * radius + 1) ** np.arange(n - 1, -1, -1)
    keys = (arr + radius) @ digits
    out = np.zeros((len(arr), len(arr)), dtype=complex)
    for e, c in poly.terms.items():
        shifted = exps + np.array(e)
        inside = np.abs(shifted).sum(axis=1) <= radius
        if np.any(coeffs[~inside] != 0):
            raise InternalDefectError("polynomial term left the degree ball")
        rows = np.searchsorted(keys, (shifted[inside] + radius) @ digits)
        np.add.at(out, (rows, cols[inside]), c * coeffs[inside])
    return out


def _generator(j: int, arr, params: ParamSet) -> np.ndarray:
    """T_j on the ball of exponent rows arr.  Every column's DD_j(t^mu) times
    denom_j must equal t^mu o s_j - t^mu to 1e-12 relative, else
    InternalDefectError."""
    n, size = params.n, len(arr)
    cols, exps, dd = _dd_terms(j, arr, params)
    lhs = _scatter(arr, _denominator(j, n, params.q), cols, exps, dd)
    image, weight = arr.copy(), np.ones(size, dtype=complex)
    if j == 0:
        image[:, 0], weight = -arr[:, 0], np.power(complex(params.q), arr[:, 0])
    elif j == n:
        image[:, -1] = -arr[:, -1]
    else:
        image[:, [j - 1, j]] = arr[:, [j, j - 1]]
    eye = np.eye(size)
    rhs = _scatter(arr, LaurentPoly.one(n), np.arange(size), image, weight) - eye
    scale = np.maximum(np.abs(lhs).max(axis=0), np.abs(rhs).max(axis=0))
    if np.any(np.abs(lhs - rhs).max(axis=0) > 1e-12 * np.maximum(scale, 1.0)):
        raise InternalDefectError(f"divided difference failed re-multiplication check at j={j}")
    kj = params.kappa_j(j)
    return eye / kj + kj * _scatter(arr, _numerator_poly(j, params), cols, exps, dd)


class _Eigenbasis(NamedTuple):
    vecs: np.ndarray  # column a: the joint eigenvector of monomial a, entry a one
    down: np.ndarray  # down[r, a]: monomial r lies in the down-set of a
    rank: np.ndarray  # position of each monomial in the triangular order
    ydiag: np.ndarray  # ydiag[i - 1, a] = Y_i[a, a]
    zdiag: np.ndarray  # the diagonal of Z = sum_i c_i Y_i


def _joint_eigenbasis(mats: dict) -> _Eigenbasis:
    """Every joint eigenvector of the Y_i on one ball by back-substitution.

    The pattern keeps entries above _TRIANGULAR_TOL of each Y_i's scale; the
    down-set of a monomial is what the pattern reaches from it.  Sorting by
    down-set size orders an acyclic pattern topologically, and every Y_i must
    be upper triangular in that order, else InternalDefectError.  Column a
    solves (Z - z_a) v = 0 with v_a = 1, Z = sum_i c_i Y_i, all at once."""
    ys = [mats[i] for i in sorted(mats)]
    size = len(ys[0])
    pattern = np.eye(size, dtype=bool)
    for y in ys:
        mag = np.abs(y)
        pattern |= mag > _TRIANGULAR_TOL * max(float(mag.max()), 1.0)
    down = pattern
    while True:
        closed = (down.astype(float) @ down.astype(float)) > 0
        if (closed == down).all():
            break
        down = closed
    order = np.argsort(down.sum(axis=0), kind="stable")
    rank = np.empty(size, dtype=np.int64)
    rank[order] = np.arange(size)
    if np.any(pattern & (rank[:, None] > rank[None, :])):
        raise InternalDefectError("translation matrices are not triangular on the ball")
    c = np.exp(1j * np.sqrt(np.arange(2.0, len(ys) + 2)))
    z = sum(ci * y for ci, y in zip(c, ys))[np.ix_(order, order)]
    zd = z.diagonal().copy()
    vecs = np.eye(size, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in range(size - 2, -1, -1):
            vecs[r, r + 1 :] = z[r, r + 1 :] @ vecs[r + 1 :, r + 1 :] / (zd[r + 1 :] - zd[r])
    out = np.empty_like(vecs)
    out[np.ix_(order, order)] = vecs
    return _Eigenbasis(out, down, rank, np.array([y.diagonal() for y in ys]), zd[rank])


def _ball(params: ParamSet, radius: int):
    """(basis, index, {i: Y_i}, {j: T_j}, joint eigenbasis) on the l1 ball,
    cached per (frozen parameter set, radius).  Y_i multiplies the T_j along
    tau_word(i, n) as noumi_Y_apply does, inverting the first i - 1 letters
    by T_j + (kappa_j - 1/kappa_j)."""
    key = (params, radius)
    if key in _BALL_CACHE:
        return _BALL_CACHE[key]
    n = params.n
    basis = l1_ball(n, radius)
    index = {mu: a for a, mu in enumerate(basis)}
    arr = np.array(basis, dtype=np.int64).reshape(-1, n)
    eye = np.eye(len(basis), dtype=complex)
    gens = {j: _generator(j, arr, params) for j in range(n + 1)}
    mats = {}
    for i in range(1, n + 1):
        factors = []
        for k, a in enumerate(tau_word(i, n)):
            kj = params.kappa_j(a)
            factors.append(gens[a] + (kj - 1 / kj) * eye if k < i - 1 else gens[a])
        mats[i] = np.linalg.multi_dot(factors)
    if len(_BALL_CACHE) > 8:
        _BALL_CACHE.pop(next(iter(_BALL_CACHE)))
    _BALL_CACHE[key] = (basis, index, mats, gens, _joint_eigenbasis(mats))
    return _BALL_CACHE[key]


def _ball_matrices(params: ParamSet, radius: int):
    """(basis, index, {i: Y_i}) on the full l1 ball of the given radius."""
    return _ball(params, radius)[:3]


def generator_matrices(params: ParamSet, radius: int):
    """(basis, index, {j: T_j}) on the full l1 ball, from the same cache."""
    basis, index, _mats, gens, _eig = _ball(params, radius)
    return basis, index, gens


def _eigen_residual(poly: LaurentPoly, index: dict, pairs) -> float:
    """max over (M, c) of |M v - c v| / max(|v|, 1), v the ball vector of poly."""
    vec = ball_vector(poly, index)
    scale = max(float(np.abs(vec).max()), 1.0)
    return max(float(np.abs(m @ vec - c * vec).max()) for m, c in pairs) / scale


def check_caps(n: int, degree: int = 0) -> None:
    """Refuse a rank or label degree beyond the measured polynomial caps."""
    if n > _N_CAP or degree > _DEGREE_CAP:
        raise RefusalError(
            f"polynomial caps exceeded (n <= {_N_CAP}, sum|lambda| <= {_DEGREE_CAP})"
        )


@dataclass
class PolynomialResult:
    poly: LaurentPoly
    spectral: SpectralPoint
    residual: float
    span_size: int


def compute_P(lam, params: ParamSet) -> LaurentPoly:
    return compute_P_detail(lam, params).poly


def compute_P_detail(lam, params: ParamSet) -> PolynomialResult:
    """Monic joint eigenpolynomial with leading monomial t^lambda: lambda's
    column of the joint eigenbasis of its degree ball, on its down-set (of
    size span_size).  GenericityError when a diagonal entry of some Y_i at
    lambda misses 1/gamma_i, or a predecessor in the triangular order shares
    lambda's entry of Z, by _KERNEL_GAP of the largest such entry (at least
    1).  The residual is taken on the full degree ball."""
    lam = tuple(int(v) for v in lam)
    n = params.n
    if n != len(lam):
        raise ValueError("lambda length must match n")
    radius = sum(abs(v) for v in lam)
    check_caps(n, radius)
    basis, index, _mats, _gens, eig = _ball(params, radius)
    a = index[lam]
    sp = gamma_lambda(lam, params)
    yscale = max(float(np.abs(eig.ydiag).max()), 1.0)
    if np.abs(eig.ydiag[:, a] - 1 / np.array(sp.gamma)).max() > _KERNEL_GAP * yscale:
        raise GenericityError(f"no joint eigenvector at lambda={lam}")
    pred = eig.zdiag[eig.rank < eig.rank[a]]
    zscale = max(float(np.abs(eig.zdiag).max()), 1.0)
    if pred.size and np.abs(pred - eig.zdiag[a]).min() < _KERNEL_GAP * zscale:
        raise GenericityError(f"non-generic spectrum at lambda={lam}")
    down = np.flatnonzero(eig.down[:, a])
    vec = eig.vecs[down, a]
    if abs(eig.vecs[a, a]) < 1e-12 * np.abs(vec).max():
        raise InternalDefectError("leading coefficient vanished on the span")
    cutoff = 1e-13 * np.abs(vec).max()
    terms = {basis[r]: complex(c) for r, c in zip(down, vec) if abs(c) > cutoff or r == a}
    terms[lam] = 1.0 + 0.0j  # one by construction; pinned, never left to rounding
    poly = LaurentPoly(n, terms)
    return PolynomialResult(poly, sp, joint_residual(poly, sp, params), len(down))


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
