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
matrix inverse.  The Murphy elements Y_i multiply the generator images along
tau_word, and the principal-series vector of a minimal coset representative
is one generator image applied to the vector of a shorter representative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import tensorops
from .numerics import InternalDefectError, ParamSet, RefusalError, rel_residual
from .weyl import WeylElem, first_descent, min_coset_reps, tau_word

_DIM_CAP = 10


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


def _local_e0(p: ParamSet) -> np.ndarray:
    k, k0, psi0 = p.kappa, p.kappa0, p.psi0
    norm = k / k0 + k0 / k
    return np.array([[-1 / k0, psi0], [1 / psi0, -k0]], dtype=complex) / norm


def _local_e_mid(p: ParamSet) -> np.ndarray:
    k = p.kappa
    return np.array(
        [
            [0, 0, 0, 0],
            [0, -k, 1, 0],
            [0, 1, -1 / k, 0],
            [0, 0, 0, 0],
        ],
        dtype=complex,
    )


def _local_en(p: ParamSet) -> np.ndarray:
    k, kn, psin = p.kappa, p.kappan, p.psin
    norm = k / kn + kn / k
    return np.array([[-kn, 1 / psin], [psin, -1 / kn]], dtype=complex) / norm


def _local_kbar(p: ParamSet) -> np.ndarray:
    k0, psi0 = p.kappa0, p.psi0
    return np.array([[k0 - 1 / k0, psi0], [1 / psi0, 0]], dtype=complex)


def _local_upsilon_p(p: ParamSet) -> np.ndarray:
    k = p.kappa
    ups = np.array(
        [
            [k, 0, 0, 0],
            [0, 1, 0, 0],
            [0, k - 1 / k, 1, 0],
            [0, 0, 0, k],
        ],
        dtype=complex,
    )
    return ups @ tensorops.PERMUTE_TWO


def _local_k(p: ParamSet) -> np.ndarray:
    kn, psin = p.kappan, p.psin
    return np.array([[0, 1 / psin], [psin, kn - 1 / kn]], dtype=complex)


@dataclass
class SpinRep:
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


def build_spin_rep(params: ParamSet) -> SpinRep:
    n = params.n
    check_dim_cap(n)
    rep = SpinRep(params=params)
    m = n
    rep.e[0] = tensorops.op_on_legs(_local_e0(params), [1], m)
    rep.T[0] = tensorops.op_on_legs(_local_kbar(params), [1], m)
    for i in range(1, n):
        rep.e[i] = tensorops.op_on_legs(_local_e_mid(params), [i, i + 1], m)
        rep.T[i] = tensorops.op_on_legs(_local_upsilon_p(params), [i, i + 1], m)
    rep.e[n] = tensorops.op_on_legs(_local_en(params), [n], m)
    rep.T[n] = tensorops.op_on_legs(_local_k(params), [n], m)
    eye = np.eye(rep.dim, dtype=complex)
    for j in range(n + 1):
        kj = params.kappa_j(j)
        rep.Tinv[j] = rep.T[j] - (kj - 1 / kj) * eye
    return rep


def quotient_map_residuals(rep: SpinRep) -> dict:
    """How far rho(T_j) sits from kappa_j + (norm_j) rhohat(e_j)."""
    p = rep.params
    eye = np.eye(rep.dim, dtype=complex)
    out = {}
    for j in range(p.n + 1):
        kj = p.kappa_j(j)
        if j in (0, p.n):
            norm = p.kappa / kj + kj / p.kappa
        else:
            norm = 1.0
        out[f"surjection T{j}"] = rel_residual(rep.T[j], kj * eye + norm * rep.e[j])
    return out


def check_hecke_relations(T: dict, params: ParamSet) -> dict:
    """Normalized residuals of the defining relations for a family {T_j}.

    ``T`` maps 0..n to square matrices; callers probing a negative control
    pass a deliberately perturbed family and expect large residuals back.
    """
    n = params.n
    mats = {j: np.array(T[j], dtype=complex) for j in range(n + 1)}
    eye = np.eye(mats[0].shape[0], dtype=complex)
    out = {}
    for j in range(n + 1):
        kj = params.kappa_j(j)
        prod = (mats[j] - kj * eye) @ (mats[j] + eye / kj)
        scale = max(
            (np.abs(mats[j]).max() + abs(kj))
            * (np.abs(mats[j]).max() + 1 / abs(kj)),
            1.0,
        )
        out[f"quadratic T{j}"] = rel_residual(prod, np.zeros_like(prod), scale=scale)
    if n >= 2:
        a = mats[0] @ mats[1] @ mats[0] @ mats[1]
        b = mats[1] @ mats[0] @ mats[1] @ mats[0]
        out["braid T0 T1 fourfold"] = rel_residual(a, b)
        a = mats[n - 1] @ mats[n] @ mats[n - 1] @ mats[n]
        b = mats[n] @ mats[n - 1] @ mats[n] @ mats[n - 1]
        out["braid Tn-1 Tn fourfold"] = rel_residual(a, b)
    for i in range(1, n - 1):
        a = mats[i] @ mats[i + 1] @ mats[i]
        b = mats[i + 1] @ mats[i] @ mats[i + 1]
        out[f"braid T{i} T{i + 1} threefold"] = rel_residual(a, b)
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            out[f"commute T{i} T{j}"] = rel_residual(
                mats[i] @ mats[j], mats[j] @ mats[i]
            )
    return out


def check_tl_relations(e: dict, tl: TLParams, n: int) -> dict:
    """Normalized residuals of the diagram-algebra relations for {e_j}."""
    out = {}
    for j in range(n + 1):
        dj = tl.weight(j, n)
        sq = e[j] @ e[j]
        out[f"idempotent e{j}"] = rel_residual(sq, dj * e[j])
    # the hook relation pivots on a middle index but its neighbor may be a
    # boundary generator
    for i in range(1, n):
        for k in (i - 1, i + 1):
            out[f"hook e{i} e{k}"] = rel_residual(e[i] @ e[k] @ e[i], e[i])
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            out[f"commute e{i} e{j}"] = rel_residual(e[i] @ e[j], e[j] @ e[i])
    return out


def murphy_Y(rep: SpinRep, i: int) -> np.ndarray:
    """The commuting family member Y_i: the generator images along
    tau_word(i, n), multiplied left to right, the first i - 1 inverted."""
    factors = [
        rep.Tinv[a] if k < i - 1 else rep.T[a] for k, a in enumerate(tau_word(i, rep.n))
    ]
    return functools.reduce(np.matmul, factors)


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
    v0 = np.zeros(rep.dim, dtype=complex)
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
        cols[w] = rep.T[a] @ cols[suffix]
    B = np.stack(list(cols.values()), axis=1)
    zeta = tuple(
        params.psi0 * params.psin * params.kappa ** (n - 2 * i + 1)
        for i in range(1, n + 1)
    )
    return B, zeta, reps, rep
