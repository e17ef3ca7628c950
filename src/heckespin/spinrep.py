"""The 2^n-dimensional spin representation and its diagram-algebra quotient.

Basis: (C^2)^(x n) with spin-up first, leftmost tensor leg most significant,
so basis index b reads as the binary string of down-spins.  The generator
images are local:

    rho(T_0)   = Kbar on leg 1,   Kbar = [[k0 - 1/k0, psi0], [1/psi0, 0]]
    rho(T_i)   = Upsilon o P on legs (i, i+1)
    rho(T_n)   = K on leg n,      K = [[0, 1/psin], [psin, kn - 1/kn]]

and every rho(T_j) equals kappa_j + (normalization) * rhohat(e_j), where the
rhohat(e_j) are the local idempotent-like generators with e_j^2 = delta_j e_j.
The inverse images come from the quadratic relation, never from a numeric
matrix inverse.

A SpinRep holds each image as one (block, legs) pair; no generator is
embedded into a dense 2^n matrix.  Every relation row is checked on the
union of the legs it touches (at most 4), which gives the full-space
residual because max|M (x) Id| = max|M|.  The Murphy elements Y_i are the
generator images along tau_word, applied one local factor at a time, and
the principal-series vector of a minimal coset representative is one
generator image applied to the vector of a shorter representative.  The
block builders keep the scalar type of the parameters, so exact rational
parameters give exact object-array blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensorops
from .numerics import InternalDefectError, ParamSet, RefusalError, max_abs, rel_residual
from .weyl import WeylElem, first_descent, min_coset_reps, tau_word

_DIM_CAP = 10
# columns per block in the pairwise Murphy commutators
_COLUMN_BLOCK = 128


@dataclass(frozen=True)
class TLParams:
    """Loop weights of the diagram algebra; made only via delta_from_kappa."""

    delta0: complex
    delta: complex
    deltan: complex

    def weight(self, j: int, n: int) -> complex:
        if j == 0:
            return self.delta0
        if j == n:
            return self.deltan
        return self.delta


def delta_from_kappa(params: ParamSet) -> TLParams:
    """Loop weights matched to the Hecke scalars."""
    k = params.kappa
    vals = {}
    for j, name in ((0, "delta0"), (params.n, "deltan")):
        kj = params.kappa_j(j)
        den = k / kj + kj / k
        if abs(den) < 1e-12:
            raise ValueError(f"parameter mismatch singularity at index {j}")
        vals[name] = -(kj + 1 / kj) / den
    return TLParams(delta0=vals["delta0"], delta=-(k + 1 / k), deltan=vals["deltan"])


def _mat(rows) -> np.ndarray:
    """A local block in the scalar type of its entries: complex for numeric
    parameters, an object array for exact ones (fractions, mpmath)."""
    a = np.array(rows)
    return a if a.dtype == object else a.astype(complex)


def _local_e0(p: ParamSet) -> np.ndarray:
    k, k0, psi0 = p.kappa, p.kappa0, p.psi0
    norm = k / k0 + k0 / k
    return _mat([[-1 / k0, psi0], [1 / psi0, -k0]]) / norm


def _local_e_mid(p: ParamSet) -> np.ndarray:
    k = p.kappa
    return _mat([[0, 0, 0, 0], [0, -k, 1, 0], [0, 1, -1 / k, 0], [0, 0, 0, 0]])


def _local_en(p: ParamSet) -> np.ndarray:
    k, kn, psin = p.kappa, p.kappan, p.psin
    norm = k / kn + kn / k
    return _mat([[-kn, 1 / psin], [psin, -1 / kn]]) / norm


def _local_kbar(p: ParamSet) -> np.ndarray:
    k0, psi0 = p.kappa0, p.psi0
    return _mat([[k0 - 1 / k0, psi0], [1 / psi0, 0]])


def _local_upsilon_p(p: ParamSet) -> np.ndarray:
    """Upsilon o P: the permutation P swaps the middle two columns."""
    k = p.kappa
    ups = _mat([[k, 0, 0, 0], [0, 1, 0, 0], [0, k - 1 / k, 1, 0], [0, 0, 0, k]])
    return ups[:, [0, 2, 1, 3]]


def _local_k(p: ParamSet) -> np.ndarray:
    kn, psin = p.kappan, p.psin
    return _mat([[0, 1 / psin], [psin, kn - 1 / kn]])


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


def check_dim_cap(n: int) -> None:
    """Refuse a chain longer than the spin representation's cap (n <= 10,
    dimension 2^10)."""
    if n > _DIM_CAP:
        raise RefusalError(f"spin representation capped at n = {_DIM_CAP}")


def _eye(block: np.ndarray) -> np.ndarray:
    return np.eye(len(block), dtype=block.dtype)


def build_spin_rep(params: ParamSet) -> SpinRep:
    n = params.n
    check_dim_cap(n)
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
        if j in (0, p.n):
            norm = p.kappa / kj + kj / p.kappa
        else:
            norm = 1.0
        (t, _legs), (e, _legs) = rep.T[j], rep.e[j]
        out[f"surjection T{j}"] = rel_residual(t, kj * _eye(t) + norm * e)
    return out


def _row(family: dict, lhs, rhs, coeff=1, residual=tensorops.row_residual) -> float:
    """The relation prod(lhs) = coeff * prod(rhs) between two words over a
    generator family, as a residual on the union of the words' legs (or,
    with residual=Monomial.row, on the words' (index, weight) arrays)."""
    return residual([family[j] for j in lhs], [family[j] for j in rhs], coeff)


def check_hecke_relations(T: dict, params: ParamSet) -> dict:
    """Normalized residuals of the defining relations for a family {T_j}.

    ``T`` maps 0..n to local (block, legs) factors; every row is evaluated
    on the legs it touches.  Callers probing a negative control pass a
    family with one block deliberately perturbed and expect large residuals
    back.
    """
    n = params.n
    out = {}
    for j in range(n + 1):
        kj = params.kappa_j(j)
        t = T[j][0]
        eye = _eye(t)
        prod = (t - kj * eye) @ (t + eye / kj)
        big = max_abs(t)
        scale = max((big + abs(kj)) * (big + 1 / abs(kj)), 1.0)
        out[f"quadratic T{j}"] = rel_residual(prod, np.zeros_like(prod), scale=scale)
    if n >= 2:
        out["braid T0 T1 fourfold"] = _row(T, [0, 1, 0, 1], [1, 0, 1, 0])
        out["braid Tn-1 Tn fourfold"] = _row(T, [n - 1, n, n - 1, n], [n, n - 1, n, n - 1])
    for i in range(1, n - 1):
        out[f"braid T{i} T{i + 1} threefold"] = _row(T, [i, i + 1, i], [i + 1, i, i + 1])
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            out[f"commute T{i} T{j}"] = _row(T, [i, j], [j, i])
    return out


def check_tl_relations(e: dict, tl: TLParams, n: int) -> dict:
    """Normalized residuals of the diagram-algebra relations for {e_j}, a
    family of local (block, legs) factors or of Monomial operators."""
    monomial = isinstance(e[0], tensorops.Monomial)
    residual = tensorops.Monomial.row if monomial else tensorops.row_residual
    out = {}
    for j in range(n + 1):
        out[f"idempotent e{j}"] = _row(e, [j, j], [j], tl.weight(j, n), residual)
    # the hook relation pivots on a middle index but its neighbor may be a
    # boundary generator
    for i in range(1, n):
        for k in (i - 1, i + 1):
            out[f"hook e{i} e{k}"] = _row(e, [i, k, i], [i], 1, residual)
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            out[f"commute e{i} e{j}"] = _row(e, [i, j], [j, i], 1, residual)
    return out


def murphy_factors(rep: SpinRep, i: int) -> list:
    """Y_i as local factors: the generator images along tau_word(i, n), left
    to right, the first i - 1 inverted."""
    return [rep.Tinv[a] if k < i - 1 else rep.T[a] for k, a in enumerate(tau_word(i, rep.n))]


def murphy_Y(rep: SpinRep, i: int, a=None) -> np.ndarray:
    """The commuting family member Y_i applied to ``a`` (the identity by
    default), one local factor at a time."""
    return tensorops.factor_product(murphy_factors(rep, i), rep.n, a)


def murphy_commutator_residual(rep: SpinRep) -> float:
    """The largest rel_residual of Y_i Y_j against Y_j Y_i over i < j.

    Each side is one Murphy word applied to the other element as the
    operand.  The columns are taken in blocks of at most _COLUMN_BLOCK, so
    no more than n such blocks are held at once; the max-abs norms of the
    residual are maxima over the blocks.
    """
    n, dim = rep.n, rep.dim
    words = {i: murphy_factors(rep, i) for i in range(1, n + 1)}
    pairs = [(i, j) for i in words for j in words if i < j]
    num, scale = dict.fromkeys(pairs, 0.0), dict.fromkeys(pairs, 0.0)
    for start in range(0, dim, _COLUMN_BLOCK):
        cols = np.eye(dim, min(_COLUMN_BLOCK, dim - start), -start, dtype=complex)
        ys = {i: murphy_Y(rep, i, cols) for i in words}
        for i, j in pairs:
            a, b = murphy_Y(rep, i, ys[j]), murphy_Y(rep, j, ys[i])
            num[i, j] = max(num[i, j], max_abs(a - b))
            scale[i, j] = max(scale[i, j], max_abs(a), max_abs(b))
    return max((num[k] / scale[k] for k in pairs), default=0.0)


def principal_series_basis(params: ParamSet):
    """Column basis v_w = rho(T_w) v_+ over the minimal coset representatives
    of the symmetric-group parabolic, together with the highest-weight
    eigenvalue string zeta.

    The representatives are closed under left division: with a the first
    left descent of w (the first letter of its reduced word), s_a w is an
    earlier representative, so v_w = rho(T_a) v_{s_a w}.

    Returns (B, zeta, reps, rep) with B[:, k] = v_{reps[k]}.
    """
    n = params.n
    rep = build_spin_rep(params)
    reps = min_coset_reps(range(1, n), n)
    v0 = np.zeros((rep.dim, 1), dtype=complex)
    v0[0] = 1.0
    cols = {}
    for w in reps:
        if w.is_identity():
            cols[w] = v0
            continue
        a = first_descent(w)
        suffix = WeylElem.generator(a, n) * w
        if suffix not in cols:
            raise InternalDefectError(f"representative {w} lacks its suffix")
        block, legs = rep.T[a]
        cols[w] = tensorops.apply_on_legs(block, legs, cols[suffix], n)
    B = np.concatenate(list(cols.values()), axis=1)
    zeta = tuple(
        params.psi0 * params.psin * params.kappa ** (n - 2 * i + 1)
        for i in range(1, n + 1)
    )
    return B, zeta, reps, rep
