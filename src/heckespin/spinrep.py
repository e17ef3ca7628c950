"""The 2^n-dimensional spin representation and its diagram-algebra quotient.

Basis: (C^2)^(x n) with spin-up first, leftmost tensor leg most significant,
so basis index b reads as the binary string of down-spins.  The generator
images are local:

    rho(T_0)   = Kbar on leg 1,   Kbar = [[k0 - 1/k0, psi0], [1/psi0, 0]]
    rho(T_i)   = Upsilon o P on legs (i, i+1)
    rho(T_n)   = K on leg n,      K = [[0, 1/psin], [psin, kn - 1/kn]]

and every rho(T_j) equals kappa_j + (normalization) * rhohat(e_j), where the
rhohat(e_j) are the local idempotent-like generators with e_j^2 = delta_j e_j
(loop_weights: the family {j: delta_j}, keyed like e_j).  The inverse images
come from the quadratic relation, never from a numeric matrix inverse.

A SpinRep holds each image as one (block, legs) pair; no generator is
embedded into a dense 2^n matrix.  Every relation row of two words is a
tensorops.Product, evaluated on the union of the legs it touches (at most
4), which gives the full-space residual because max|M (x) Id| = max|M|.
The Murphy elements Y_i are the generator images along tau_word, applied
one local factor at a time (their commutators to a block of vectors), and
the principal-series vector of a minimal coset representative, one weighted
tensor basis vector, is one generator image applied to that of a shorter
representative: the basis is a tensorops.Monomial.  The block builders keep the scalar type of the
parameters, so exact rational parameters give exact object-array blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import InternalDefectError, tensorops
from .numerics import ParamSet, max_abs, nonvanishing, rel_residual
from .weyl import min_coset_reps, tau_word


def boundary_norm(params: ParamSet, j: int):
    """kappa/kappa_j + kappa_j/kappa, the normalization of the boundary
    generator j = 0 or n, rho(T_j) = kappa_j + norm rhohat(e_j); a
    GenericityError where it vanishes (numerics.nonvanishing)."""
    k, kj = params.kappa, params.kappa_j(j)
    return nonvanishing((k / kj, kj / k), params, f"kappa/kappa_j + kappa_j/kappa at j={j}")


def loop_weights(params: ParamSet) -> dict:
    """The loop weights {j: delta_j} matched to the Hecke scalars, keyed like
    the generators: -(kappa_j + 1/kappa_j), over boundary_norm at j = 0, n."""
    kappas = {j: params.kappa_j(j) for j in range(params.n + 1)}
    return {j: -(kj + 1 / kj) / boundary_norm(params, j) if j in (0, params.n) else -(kj + 1 / kj)
            for j, kj in kappas.items()}


def _local_e0(p: ParamSet) -> np.ndarray:
    k0, psi0 = p.kappa0, p.psi0
    return np.array([[-1 / k0, psi0], [1 / psi0, -k0]]) / boundary_norm(p, 0)


def _local_e_mid(p: ParamSet) -> np.ndarray:
    k = p.kappa
    return np.array([[0, 0, 0, 0], [0, -k, 1, 0], [0, 1, -1 / k, 0], [0, 0, 0, 0]])


def _local_en(p: ParamSet) -> np.ndarray:
    kn, psin = p.kappan, p.psin
    return np.array([[-kn, 1 / psin], [psin, -1 / kn]]) / boundary_norm(p, p.n)


def _local_kbar(p: ParamSet) -> np.ndarray:
    k0, psi0 = p.kappa0, p.psi0
    return np.array([[k0 - 1 / k0, psi0], [1 / psi0, 0]])


def _local_upsilon_p(p: ParamSet) -> np.ndarray:
    """Upsilon o P: the permutation P swaps the middle two columns."""
    k = p.kappa
    ups = np.array([[k, 0, 0, 0], [0, 1, 0, 0], [0, k - 1 / k, 1, 0], [0, 0, 0, k]])
    return ups[:, [0, 2, 1, 3]]


def _local_k(p: ParamSet) -> np.ndarray:
    kn, psin = p.kappan, p.psin
    return np.array([[0, 1 / psin], [psin, kn - 1 / kn]])


@dataclass
class SpinRep:
    """The generator images as local factors: T[j], Tinv[j] and e[j] are
    (block, legs) pairs, the block acting on leg 1 (j = 0), legs (j, j+1)
    or leg n (j = n)."""

    params: ParamSet
    e: dict = field(default_factory=dict)
    T: dict = field(default_factory=dict)
    Tinv: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def dim(self) -> int:
        return 2**self.params.n


def _eye(block: np.ndarray) -> np.ndarray:
    return np.eye(len(block), dtype=block.dtype)


def build_spin_rep(params: ParamSet) -> SpinRep:
    n = params.n
    rep = SpinRep(params=params)
    middle = _local_upsilon_p(params), _local_e_mid(params)
    for j in range(n + 1):
        if j == 0:
            (t, e), legs = (_local_kbar(params), _local_e0(params)), [1]
        elif j == n:
            (t, e), legs = (_local_k(params), _local_en(params)), [n]
        else:
            (t, e), legs = middle, [j, j + 1]
        kj = params.kappa_j(j)
        rep.T[j], rep.e[j] = (t, legs), (e, legs)
        rep.Tinv[j] = (t - (kj - 1 / kj) * _eye(t), legs)
    return rep


def quotient_map_residuals(rep: SpinRep) -> dict:
    """How far rho(T_j) sits from kappa_j + (norm_j) rhohat(e_j); both act
    on the same legs, so the blocks are compared."""
    p = rep.params
    out = {}
    for j in range(p.n + 1):
        kj = p.kappa_j(j)
        norm = boundary_norm(p, j) if j in (0, p.n) else 1.0
        (t, _legs), (e, _legs) = rep.T[j], rep.e[j]
        out[f"surjection T{j}"] = rel_residual(t, kj * _eye(t) + norm * e)
    return out


def _words(family: dict, lhs, rhs, coeff=1) -> tensorops.Product:
    """The relation prod(lhs) = coeff * prod(rhs) between two words over a
    generator family, as the Product of the words' generators."""
    return tensorops.Product([family[j] for j in lhs], [family[j] for j in rhs], coeff)


def _quadratic(block, a, b) -> float:
    """(block - a)(block - b) = 0 on the scale of its factors, as the product
    rounds by its sums: e_j^2 against delta_j e_j set that rounding against
    an exact 0 where delta_j = 0."""
    eye, big = _eye(block), max_abs(block)
    prod = (block - a * eye) @ (block - b * eye)
    return rel_residual(prod, np.zeros_like(prod), scale=max((big + abs(a)) * (big + abs(b)), 1.0))


def check_hecke_relations(T: dict, params: ParamSet) -> dict:
    """The defining relations for a family {T_j} of local (block, legs)
    factors: the braid and commutation rows as tensorops.Product records,
    the quadratic rows as residuals of their blocks.  Callers probing a
    negative control pass a family with one block deliberately perturbed
    and expect large residuals back."""
    n = params.n
    out = {f"quadratic T{j}": _quadratic(T[j][0], params.kappa_j(j), -1 / params.kappa_j(j))
           for j in range(n + 1)}
    if n >= 2:
        out["braid T0 T1 fourfold"] = _words(T, [0, 1, 0, 1], [1, 0, 1, 0])
        out["braid Tn-1 Tn fourfold"] = _words(T, [n - 1, n, n - 1, n], [n, n - 1, n, n - 1])
    for i in range(1, n - 1):
        out[f"braid T{i} T{i + 1} threefold"] = _words(T, [i, i + 1, i], [i + 1, i, i + 1])
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            out[f"commute T{i} T{j}"] = _words(T, [i, j], [j, i])
    return out


def check_tl_relations(e: dict, weights: dict) -> dict:
    """The diagram-algebra relations for {e_j}, a family of local (block,
    legs) factors or of Monomial operators, with the loop weights
    {j: delta_j} of loop_weights, as tensorops.Product records; a local
    idempotent row is a residual of its block.  The rank n is the family's
    largest key."""
    monomial, n = isinstance(e[0], tensorops.Monomial), max(e)
    out = {}
    for j in range(n + 1):
        # a Monomial product is a gather, with no sums to round: its row stays
        # relative, which keeps the scaled-projector control strong at n = 1
        w = weights[j]
        out[f"idempotent e{j}"] = _words(e, [j, j], [j], w) if monomial else _quadratic(e[j][0], 0, w)
    # the hook relation pivots on a middle index but its neighbor may be a
    # boundary generator
    for i in range(1, n):
        for k in (i - 1, i + 1):
            out[f"hook e{i} e{k}"] = _words(e, [i, k, i], [i])
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            out[f"commute e{i} e{j}"] = _words(e, [i, j], [j, i])
    return out


def _murphy_factors(rep: SpinRep, i: int) -> list:
    """Y_i as local factors: the generator images along tau_word(i, n), left
    to right, the first i - 1 inverted."""
    return [rep.Tinv[b] if k < i - 1 else rep.T[b] for k, b in enumerate(tau_word(i, rep.n))]


def murphy_Y(rep: SpinRep, i: int, a) -> np.ndarray:
    """Y_i applied to ``a`` (the identity if None), one factor at a time."""
    return tensorops.factor_product(_murphy_factors(rep, i), rep.n, a)


def murphy_commutator_residual(rep: SpinRep, v) -> tuple:
    """Y_i (Y_j v) against Y_j (Y_i v), one tensorops.Product per pair i < j,
    on a block v of vectors (the identity if None, which gives the dense
    products); each Y_i v is applied once, here.  Their largest residual
    (tensorops.evaluate) is 0.0 at n = 1, and NaN if any product is NaN."""
    ys = {i: murphy_Y(rep, i, v) for i in range(1, rep.n + 1)}
    return tuple(tensorops.Product(_murphy_factors(rep, i), _murphy_factors(rep, j), a=ys[j], b=ys[i])
                 for i in ys for j in ys if i < j)


def principal_series_basis(params: ParamSet):
    """Column basis v_w = rho(T_w) v_+ over the minimal coset representatives
    of the symmetric-group parabolic, as a tensorops.Monomial, together with
    the highest-weight eigenvalue string zeta.

    The representatives come as reduced words, closed under left division:
    with a the first letter of the word of w, the rest spells s_a w, an
    earlier representative, so v_w = rho(T_a) v_{s_a w}, taken on the 2^k
    entries of its leg group.  Each v_w is psin^(down spins) e_b, one tensor
    basis vector: the words use only the letters 1..n, so T_0 never occurs,
    K's up column is exactly psin |down>, and the |up down> column of
    Upsilon o P is exactly |down up>.  Any other column pattern is an
    InternalDefectError naming the word of w.

    Returns (B, zeta, reps, rep) with reps[k] the reduced word of the w whose
    vector v_w is column k of B.
    """
    n = params.n
    rep = build_spin_rep(params)
    reps = min_coset_reps(n)
    index, weight, done = np.zeros(len(reps), dtype=int), [1] * len(reps), {}
    for k, word in enumerate(reps):
        done[word] = k
        if not word:
            continue
        a = word[0]
        suffix = done.get(word[1:])
        if suffix is None:
            raise InternalDefectError(f"representative {word} lacks its suffix")
        block, legs = rep.T[a]
        col = (index[suffix] >> (n - legs[-1])) % len(block)
        rows = np.flatnonzero(block[:, col])
        if len(rows) != 1:
            raise InternalDefectError(f"v_w for w = {word} is not one tensor basis vector")
        index[k] = index[suffix] + ((rows[0] - col) << (n - legs[-1]))
        weight[k] = (block @ np.where(np.arange(len(block)) == col, weight[suffix], 0))[rows[0]]
    zeta = tuple(
        params.psi0 * params.psin * params.kappa ** (n - 2 * i + 1)
        for i in range(1, n + 1)
    )
    return tensorops.Monomial(index, weight), zeta, reps, rep
