"""Difference-reflection operators on Laurent polynomials and their joint
eigenpolynomials.

All entry points here hard-wire the inverted-parameter convention: callers
pass the plain parameter set and the kappa's and upsilon's are inverted
internally (q stays put).  In that convention the constant polynomial is a
kappa_j^{-1}-eigenvector of every generator image, the generator action is

    T_j . f = kappa_j^{-1} f + kappa_j N_j(t) DD_j(f)

with N_j the quadratic numerator polynomial and DD_j(f) = (f o s_j - f) /
(1 - w t^v) the exact divided difference, for s_j written once as a step
(m, v, w) on exponents, t^mu o s_j = w^m t^(mu + m v); the translations Y_i
act with eigenvalues 1/gamma_i (numerics.gamma_vectors) on the monic
polynomial with leading monomial t^lambda.

That action is applied only as the n+1 generator matrices on an l1 ball
(which every T_j keeps), filled in closed form: the divided difference of a
monomial is a finite geometric sum, checked against its denominator.  Y_i
is the product of the T_j along tau_word.  The Y_i are jointly triangular
on monomials (Cherednik, IMRN 1995; Sahi, Ann. Math. 150, 1999), so in a
checked topological order one back-substitution gives the eigenvector of
every monomial of the ball.

One ball is held at a time: label_polynomials, the one label entry, reads
all labels of one degree from their ball in one pass, a degree at a time,
so each ball is built once per parameter set and degree and dropped when
the next is built; compute_P_detail is its batch of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import GenericityError, InternalDefectError
from .numerics import LaurentPoly, ParamSet, gamma_vectors, l1_ball
from .weyl import tau_word

_TRIANGULAR_TOL = 1e-10
_KERNEL_GAP = 1e-6


def _numerator_poly(j: int, v, w, params: ParamSet) -> LaurentPoly:
    """N_j = 1 + b t^(v/2) - (w / kappa_j^2) t^v: the inverted-parameter
    numerator of c_j times the denominator 1 - w t^v of the step (m, v, w)
    of s_j.  b = 0, so the t^(v/2) term drops out, for 0 < j < n."""
    kj, b = params.kappa_j(j), 0
    if j == 0:
        b = params.q_sqrt / kj * (params.upsilon0 - 1 / params.upsilon0)
    elif j == params.n:
        b = (params.upsilonn - 1 / params.upsilonn) / kj
    return LaurentPoly([0 * v, v // 2, v], [1, b, -w / kj**2])


def ball_vector(poly: LaurentPoly, index: dict) -> np.ndarray:
    """The rows of poly on the ball enumerated by index, one column per row;
    a term outside the ball is a defect of the caller, never a truncation."""
    at = np.array([index.get(ex, -1) for ex in map(tuple, poly.exps.tolist())], dtype=np.int64)
    if np.any(at < 0):
        raise InternalDefectError("polynomial term left the degree ball")
    vec = np.zeros((len(index), len(poly.coeffs)), dtype=poly.coeffs.dtype)
    vec[at] = poly.coeffs.T
    return vec


def _step(j: int, arr: np.ndarray, params: ParamSet):
    """s_j on the exponent rows mu of arr as one step (m, v, w), m one integer
    per row: t^mu o s_j = w^m t^(mu + m v) with denominator 1 - w t^v, for
    v = -2 e_1 and w = q at j = 0, else w = 1 and v = e_j - e_(j+1) or 2 e_n."""
    n = params.n
    v, w = np.zeros(n, dtype=np.int64), params.one
    if j == 0:
        m, w, v[0] = arr[:, 0], params.q, -2
    elif j == n:
        m, v[-1] = -arr[:, -1], 2
    else:
        m, v[j - 1], v[j] = arr[:, j] - arr[:, j - 1], 1, -1
    return m, v, w


def _dd_terms(j: int, arr: np.ndarray, params: ParamSet):
    """DD_j(t^mu) for each exponent row mu of arr, as term arrays (cols, exps,
    coeffs) with cols[k] the row term k came from.  For x = w t^v of the step
    of s_j, DD_j(t^mu) = t^mu (x^m - 1) / (1 - x) is -t^mu (1 + ... + x^(m-1))
    for m > 0 and t^mu (x^m + ... + x^(-1)) for m < 0."""
    m, v, w = _step(j, arr, params)
    counts = np.abs(m)
    cols = np.repeat(np.arange(len(arr)), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    steps = np.arange(cols.size) - first + np.minimum(m, 0)[cols]
    return cols, arr[cols] + steps[:, None] * v, -np.sign(m[cols]) * np.power(w, steps)


def _scatter(arr, poly: LaurentPoly, cols, exps, coeffs) -> np.ndarray:
    """Matrix on the ball of exponent rows arr (lexicographic) of poly times
    the terms (cols, exps, coeffs); a nonzero term outside the ball is a
    defect, never a truncation."""
    n, radius = arr.shape[1], int(np.abs(arr).sum(axis=1).max())
    if poly.exps.shape[1] != n:
        raise InternalDefectError("arity mismatch")
    digits = (2 * radius + 1) ** np.arange(n - 1, -1, -1)
    keys = (arr + radius) @ digits
    out = np.zeros((len(arr), len(arr)), dtype=np.result_type(poly.coeffs, coeffs))
    for e, c in zip(poly.exps, poly.coeffs[0]):
        shifted = exps + e
        inside = np.abs(shifted).sum(axis=1) <= radius
        if np.any(coeffs[~inside] != 0):
            raise InternalDefectError("polynomial term left the degree ball")
        rows = np.searchsorted(keys, (shifted[inside] + radius) @ digits)
        np.add.at(out, (rows, cols[inside]), c * coeffs[inside])
    return out


def _generator(j: int, arr, params: ParamSet) -> np.ndarray:
    """T_j on the ball of exponent rows arr.  Every column's DD_j(t^mu) times
    the denominator 1 - w t^v must equal t^mu o s_j - t^mu to 1e-12
    relative, else InternalDefectError."""
    n, size = params.n, len(arr)
    m, v, w = _step(j, arr, params)
    cols, exps, dd = _dd_terms(j, arr, params)
    lhs = _scatter(arr, LaurentPoly([0 * v, v], [1, -w]), cols, exps, dd)
    eye = np.eye(size, dtype=int)
    image = arr + m[:, None] * v
    rhs = _scatter(arr, LaurentPoly.one(n), np.arange(size), image, np.power(w, m)) - eye
    scale = np.maximum(np.abs(lhs).max(axis=0), np.abs(rhs).max(axis=0))
    if np.any(np.abs(lhs - rhs).max(axis=0) > 1e-12 * params.roundoff * np.maximum(scale, 1.0)):
        raise InternalDefectError(f"divided difference failed re-multiplication check at j={j}")
    kj = params.kappa_j(j)
    return eye / kj + kj * _scatter(arr, _numerator_poly(j, v, w, params), cols, exps, dd)


class _Eigenbasis(NamedTuple):
    vecs: np.ndarray  # column a: the joint eigenvector of monomial a, entry a one
    down: np.ndarray  # down[r, a]: monomial r lies in the down-set of a
    rank: np.ndarray  # position of each monomial in the triangular order
    ydiag: np.ndarray  # ydiag[i - 1, a] = Y_i[a, a]
    zdiag: np.ndarray  # the diagonal of Z = sum_i c_i Y_i


def _joint_eigenbasis(mats: dict, params: ParamSet) -> _Eigenbasis:
    """Every joint eigenvector of the Y_i on one ball by back-substitution.

    The pattern keeps entries above _TRIANGULAR_TOL roundoff of each Y_i's
    scale (ParamSet.roundoff), every nonzero one of an exact type; the down-set
    of a monomial is what the pattern reaches from it.  Sorting by down-set
    size orders an acyclic pattern topologically, and every Y_i must be upper
    triangular in that order, else InternalDefectError.  Column a solves
    (Z - z_a) v = 0 with v_a = 1, Z = sum_i c_i Y_i, all at once, for any c
    that parts the spectra: exp(i sqrt(i + 1)), or 1 / (i + 1)^2 for an exact
    type.  A tie z_a = z_r with r outside the down-set of a is never divided by."""
    ys, roundoff = [mats[i] for i in sorted(mats)], params.roundoff
    size = len(ys[0])
    pattern = np.eye(size, dtype=bool)
    for y in ys:
        mag = np.abs(y)
        pattern |= mag > _TRIANGULAR_TOL * roundoff * max(float(mag.max()), 1.0)
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
    k = range(2, len(ys) + 2)
    c = np.exp(1j * np.sqrt(k)) if roundoff else [params.one / ki**2 for ki in k]
    z = sum(ci * y for ci, y in zip(c, ys))[np.ix_(order, order)]
    zd, reach = z.diagonal().copy(), down[np.ix_(order, order)]
    vecs = np.eye(size, dtype=z.dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in range(size - 2, -1, -1):
            gap = zd[r + 1 :] - zd[r]
            np.divide(z[r, r + 1 :] @ vecs[r + 1 :, r + 1 :], gap, out=vecs[r, r + 1 :],
                      where=reach[r, r + 1 :] | (gap != 0))
    out = np.empty_like(vecs)
    out[np.ix_(order, order)] = vecs
    return _Eigenbasis(out, down, rank, np.array([y.diagonal() for y in ys]), zd[rank])


@functools.lru_cache(maxsize=1)
def _ball(params: ParamSet, radius: int):
    """(basis, index, {i: Y_i}, {j: T_j}, joint eigenbasis) on the l1 ball.
    The cache holds one entry, the (frozen parameter set, radius) being
    read; every caller reads a ball in one pass, so none is built twice.
    Y_i multiplies the T_j along tau_word(i, n), inverting the first i - 1
    letters by the quadratic relation, T_j^{-1} = T_j + (kappa_j - 1/kappa_j)."""
    n, roundoff = params.n, params.roundoff
    basis = l1_ball(n, radius)
    index = {mu: a for a, mu in enumerate(basis)}
    arr = np.array(basis, dtype=np.int64).reshape(-1, n)
    eye = np.eye(len(basis), dtype=int)
    gens = {j: _generator(j, arr, params) for j in range(n + 1)}
    mats = {}
    for i in range(1, n + 1):
        factors = []
        for k, a in enumerate(tau_word(i, n)):
            kj = params.kappa_j(a)
            factors.append(gens[a] + (kj - 1 / kj) * eye if k < i - 1 else gens[a])
        mats[i] = np.linalg.multi_dot(factors)
        # the product's rounding, eps times the factors' sizes, must stay
        # below the pattern threshold of _joint_eigenbasis
        noise = roundoff * np.finfo(float).eps * np.prod([np.abs(f).max() for f in factors])
        if noise > _TRIANGULAR_TOL * roundoff * max(float(np.abs(mats[i]).max()), 1.0):
            raise GenericityError(f"rounding in Y_{i} reaches its triangular pattern on the ball",
                                  point=params)
    return basis, index, mats, gens, _joint_eigenbasis(mats, params)


def generator_matrices(params: ParamSet, radius: int):
    """(basis, index, {j: T_j}) on the full l1 ball, from the same cache."""
    basis, index, _mats, gens, _eig = _ball(params, radius)
    return basis, index, gens


def _eigen_residuals(mats, vals, vecs) -> np.ndarray:
    """R[k, l] = max|M_k v_l - c_kl v_l| / max(max|v_l|, 1) for the columns
    v_l of vecs, with c_kl = vals[k] (one scalar, or one per column): one
    product per M_k for all columns."""
    scale = np.maximum(np.abs(vecs).max(axis=0), 1.0)
    return np.array([np.abs(m @ vecs - c * vecs).max(axis=0) for m, c in zip(mats, vals)]) / scale


@dataclass
class PolynomialResult:
    poly: LaurentPoly
    lam: tuple
    gamma: np.ndarray  # the spectral vector of lam (numerics.gamma_vectors)
    residual: float  # the relative residual of Y_i P = P / gamma_i on the full ball
    span_size: int
    monic: float  # |leading coefficient - 1|
    stab: np.ndarray  # stab[i - 1]: the relative residual of T_i P = kappa_i^{-1} P


def _degree_polynomials(labels, params: ParamSet) -> list:
    """The PolynomialResult of each of labels of one degree r, all at once
    on the ball of radius r: the label's column of the joint eigenbasis on
    its down-set (of size span_size), entries at most 1e-13 of the column's
    largest dropped, the leading entry pinned to 1, and its residuals on the
    full ball, one product per Y_i or T_i for all labels.  GenericityError,
    naming params, when a diagonal entry of some Y_i at a label misses
    1/gamma_i, or a predecessor in the triangular order shares the label's
    entry of Z, by _KERNEL_GAP of the largest such entry (at least 1), or
    the leading entry is below 1e-12 of its column's largest; each threshold
    is in units of ParamSet.roundoff, so 0 for an exact type."""
    n, radius, roundoff = params.n, sum(abs(v) for v in labels[0]), params.roundoff
    gammas = gamma_vectors(labels, params)
    basis, index, mats, gens, eig = _ball(params, radius)
    cols = np.array([index[lam] for lam in labels], dtype=np.int64)
    inv = 1 / gammas.T
    yscale = max(float(np.abs(eig.ydiag).max()), 1.0)
    missed = np.abs(eig.ydiag[:, cols] - inv).max(axis=0) > _KERNEL_GAP * roundoff * yscale
    zscale = max(float(np.abs(eig.zdiag).max()), 1.0)
    gaps = np.where(eig.rank[:, None] < eig.rank[cols],
                    np.abs(eig.zdiag[:, None] - eig.zdiag[cols]), np.inf)
    shared = gaps.min(axis=0, initial=np.inf) <= _KERNEL_GAP * roundoff * zscale
    down = eig.down[:, cols]
    vecs = np.where(down, eig.vecs[:, cols], 0)
    top = np.abs(vecs).max(axis=0)
    vanished = np.abs(eig.vecs[cols, cols]) < 1e-12 * roundoff * top
    for l in np.flatnonzero(missed | shared | vanished)[:1]:
        why = ("no joint eigenvector" if missed[l] else "non-generic spectrum" if shared[l]
               else "leading coefficient vanished")
        raise GenericityError(f"{why} at lambda={labels[l]}", point=params)
    lead = np.arange(len(vecs))[:, None] == cols
    vecs = np.where((np.abs(vecs) > 1e-13 * roundoff * top) | lead, vecs, 0)
    vecs[lead] = 1  # one by construction; pinned, never left to rounding
    joint = _eigen_residuals([mats[i] for i in range(1, n + 1)], inv, vecs)
    stab = _eigen_residuals([gens[i] for i in range(1, n + 1)],
                            [1 / params.kappa_j(i) for i in range(1, n + 1)], vecs)
    span = down.sum(axis=0)
    return [PolynomialResult(LaurentPoly(basis, vecs[:, l]), lam, gammas[l], float(joint[:, l].max()),
                             int(span[l]), abs(vecs[cols[l], l] - 1.0), stab[:, l])
            for l, lam in enumerate(labels)]


def label_polynomials(labels, params: ParamSet) -> list:
    """The PolynomialResult of each label, in the order given: the labels of
    each degree r, lowest first, all at once on the ball of radius r
    (_degree_polynomials), so that each ball is built once."""
    labels = [tuple(int(v) for v in lam) for lam in labels]
    if any(len(lam) != params.n for lam in labels):
        raise InternalDefectError("lambda length must match n")
    out = {}
    for r in sorted({sum(map(abs, lam)) for lam in labels}):
        batch = [lam for lam in labels if sum(map(abs, lam)) == r]
        out.update(zip(batch, _degree_polynomials(batch, params)))
    return [out[lam] for lam in labels]


def compute_P_detail(lam, params: ParamSet) -> PolynomialResult:
    """The monic joint eigenpolynomial with leading monomial t^lambda: the
    label_polynomials batch of the one label lam."""
    return label_polynomials([lam], params)[0]


def fixed_by_si(i: int, lam) -> bool:
    lam = tuple(lam)
    if i == len(lam):
        return lam[-1] == 0
    return lam[i - 1] == lam[i]
