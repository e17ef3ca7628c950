"""Reflection difference equations on the spin chain and their polynomial
solutions.

A vector f = (f_b) of Laurent polynomials solves the reflection difference
system when C_{tau_i}(t) f(q^{-eps_i} t) = f(t) and f is invariant under the
dressed reflections C_{s_j}; each C_w is the cocycle along a word for w
(baxter.cocycle_factors), weyl.tau_word(i, n) for tau_i.
build_polynomial_solution refuses (RefusalError) unless the scalar existence
constraint between the boundary parameters and q^m holds (require_mcondition)
and |m| n <= 4.  It reads the monic joint eigenpolynomial at (m, ..., m) off
the triangular eigenbasis of its degree ball, and cm_alpha applies, for each
minimal coset representative w, the Hecke element of w (w_0^J)^{-1} through
the cached generator matrices and scatters the image, weighted, into the spin
component of the principal-series vector v_w (one weighted basis vector).  One
principal-series basis, whose last representative is w_0^J, serves the
spectral wiring check (against numerics.gamma_vectors at (m, ..., m)) and
cm_alpha; the 2^n components are the rows of one table.  verify_solution
evaluates all sample points, their q-shifts and their reflections as one
product of that table, and checks each equation once over the stack of points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import InternalDefectError, RefusalError, check_degree_cap
from .baxter import cocycle_factors
from .koornwinder import ball_vector, compute_P_detail, generator_matrices
from .numerics import (
    LaurentPoly,
    ParamSet,
    eta,
    gamma_vectors,
    max_abs,
    pole_free_points,
    stream,
    torus_point,
)
from .spinrep import principal_series_basis
from .tensorops import factor_product
from .weyl import WeylElem, act_point, reduced_word, tau_word

_MCOND_TOL = 1e-9


@dataclass(frozen=True)
class ConditionReport:
    m: int
    lhs: complex
    rhs: complex
    satisfied: bool

    def to_dict(self):
        return {
            "m": self.m,
            "lhs": {"re": self.lhs.real, "im": self.lhs.imag},
            "rhs": {"re": self.rhs.real, "im": self.rhs.imag},
            "satisfied": self.satisfied,
        }


def check_mcondition(params: ParamSet, m: int) -> ConditionReport:
    """Both sides of the existence constraint psi0 psin q^m = (k0 kn
    kappa^{n-1})^{eta(m)}, with eta(m) = 1 for m > 0 and -1 for m <= 0."""
    lhs = params.psi0 * params.psin * params.q**m
    rhs = (params.kappa0 * params.kappan * params.kappa ** (params.n - 1)) ** eta(m)
    ok = abs(lhs - rhs) < _MCOND_TOL * max(abs(lhs), abs(rhs))
    return ConditionReport(m=int(m), lhs=lhs, rhs=rhs, satisfied=ok)


def require_mcondition(params: ParamSet, m: int) -> None:
    """Refuse unless check_mcondition holds; the error carries its report."""
    report = check_mcondition(params, m)
    if not report.satisfied:
        err = RefusalError(
            "existence constraint unsatisfied: "
            f"lhs={report.lhs:.6g}, rhs={report.rhs:.6g} (m={m})"
        )
        err.report = report
        raise err


@dataclass
class KZSolution:
    params: ParamSet
    components: LaurentPoly  # one row per spin basis vector b
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "params": self.params.to_dict(),
            "components": self.components.to_dicts(),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data) -> "KZSolution":
        """The inverse of to_dict; RefusalError on a malformed solution."""
        try:
            params = ParamSet.from_dict(data["params"])
            rows = data["components"]
            n, arities = params.n, sorted({row["n_vars"] for row in rows})
            if len(rows) != 2**n or arities != [n]:
                raise RefusalError(f"a stored solution needs 2^n = {2**n} components in n = "
                                   f"{n} variables, not {len(rows)} in {arities}")
            return cls(params, LaurentPoly.from_dicts(rows), dict(data.get("metadata", {})))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise RefusalError(f"malformed solution: {type(exc).__name__} {exc}") from exc


def cm_alpha(phi: LaurentPoly, params: ParamSet, series, metadata=None) -> KZSolution:
    """Pair the Hecke action on phi with the principal-series basis
    ``series``, the result of spinrep.principal_series_basis(params).

    For each minimal coset representative w, built from its word, the
    element u = w (w_0^J)^{-1} is taken to its reduced word and the cached
    generator matrices act on the coefficient vector of phi on its degree
    ball, rightmost letter first as operators compose; v_w is one weighted
    basis vector, so the image times its weight is scattered into that one
    spin component.
    """
    basis, _zeta, reps, _rep = series
    n = params.n
    w0j_inv = WeylElem.from_word(reps[-1], n).inverse_finite()
    ball, index, gens = generator_matrices(params, phi.l1_degree())
    vec0 = ball_vector(phi, index)[:, 0]
    images = []
    for word in reps:
        vec = vec0
        for a in reversed(reduced_word(WeylElem.from_word(word, n) * w0j_inv)):
            vec = gens[a] @ vec
        images.append(vec)
    return KZSolution(
        params=params,
        components=LaurentPoly(ball, basis @ np.stack(images)),
        metadata=dict(metadata or {"construction": "cm_alpha"}),
    )


def build_polynomial_solution(params: ParamSet, m: int) -> KZSolution:
    """The polynomial solution at lambda = (m, ..., m).

    Refuses when the existence constraint fails; validates the spectral
    wiring (the w_0^J-image of the principal-series point must be the
    translation spectrum of (m, ..., m)) before assembling.
    """
    n = params.n
    require_mcondition(params, m)
    check_degree_cap(n, m)
    series = principal_series_basis(params)
    _basis, zeta, reps, _rep = series
    mapped = act_point(WeylElem.from_word(reps[-1], n), zeta, params)
    lam = (m,) * n
    target = gamma_vectors([lam], params)[0]
    gap = max_abs(np.array(mapped) - target) / max(max_abs(target), 1.0)
    if gap > 1e-9:
        raise InternalDefectError(f"spectral wiring mismatch ({gap:.2e})")
    sol = cm_alpha(
        compute_P_detail(lam, params).poly,
        params,
        series,
        metadata={
            "construction": "alpha of the monic joint eigenpolynomial",
            "m": int(m),
            "lambda": list(lam),
        },
    )
    if max_abs(sol.components.coeffs) < 1e-9:
        raise InternalDefectError("assembled solution is numerically zero")
    return sol


def verify_solution(sol: KZSolution, samples: int = 20, seed: int = 8) -> dict:
    """Pointwise residuals of the n transport equations and the n+1
    invariance equations at random generic points, all points at once.  The
    points are the first ``samples`` draws at which no factor lies near a
    pole, in draw order (numerics.pole_free_points).  Every point, its n
    shifts and its n+1 reflections are one product of the component table,
    and each equation is one cocycle factor list (baxter.cocycle_factors)
    applied over the stack of points, reporting the largest of the points'
    residuals."""
    params = sol.params
    n = params.n
    rng = stream(seed)
    q = params.q

    def rows(points) -> dict:
        if not points:
            return {}
        t = tuple(np.array(points, dtype=complex).T)
        shifted = [t[:i] + (t[i] / q,) + t[i + 1 :] for i in range(n)]
        reflected = [act_point(WeylElem.generator(j, n), t, params) for j in range(n + 1)]
        # vals[c, s]: the components at the c-th of these points of sample s
        groups = [np.stack(u, axis=-1) for u in (t, *shifted, *reflected)]
        vals = sol.components([point for group in groups for point in group])
        vals = np.moveaxis(vals.reshape(-1, len(groups), len(points)), 0, -1)
        ft = vals[0]
        scale = np.maximum(np.abs(ft).max(axis=1), 1e-300)

        def residual(factors, col):
            lhs = factor_product(factors, n, vals[col][..., None])[..., 0]
            return float((np.abs(lhs - ft).max(axis=1) / scale).max())

        keys = [(f"transport equation i={i}", tau_word(i, n)) for i in range(1, n + 1)]
        keys += [(f"invariance under s_{j}", [j]) for j in range(n + 1)]
        return {key: residual(cocycle_factors(params, word, t), col)
                for col, (key, word) in enumerate(keys, 1)}

    return pole_free_points(lambda: torus_point(rng, n, (0.75, 1.35)), rows, samples)
