"""Reflection difference equations on the spin chain and their polynomial
solutions.

A vector f = (f_b) of Laurent polynomials solves the reflection difference
system when C_{tau_i}(t) f(q^{-eps_i} t) = f(t) and f is invariant under the
dressed reflections C_{s_j}; each C_w is the cocycle along a word for w
(baxter.cocycle_factors), weyl.tau_word(i, n) for tau_i.
build_polynomial_solution refuses (RefusalError) unless the scalar existence
constraint between the boundary parameters and q^m holds (commands checks
|m| n <= 4); require_mcondition alone checks that constraint, and its
refusal carries the payload the driver prints.  The builder reads the monic
joint eigenpolynomial at (m, ..., m) off the triangular eigenbasis of its
degree ball, and cm_alpha applies, for each minimal coset representative w, the
Hecke element of w (w_0^J)^{-1} through the cached generator matrices and
scatters the image, weighted, into the spin component of the principal-series
vector v_w (one weighted basis vector).  One principal-series basis, whose last
representative is w_0^J, serves the spectral wiring check (against the
spectral vector of the eigenpolynomial at (m, ..., m)) and cm_alpha; the 2^n
components are the rows of one table.  verify_solution evaluates all sample
points, their q-shifts and their reflections as one product of that table,
and hands back each equation as one tensorops.Product over the stack of
points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import InternalDefectError, RefusalError
from .baxter import cocycle_factors
from .koornwinder import ball_vector, compute_P_detail, generator_matrices
from .numerics import (
    LaurentPoly,
    ParamSet,
    _c2d,
    _point_max,
    constraint_rhs,
    max_abs,
    torus_point,
)
from .spinrep import principal_series_basis
from .tensorops import Product
from .weyl import act_letter, act_word, reduced_word, tau_word

_MCOND_TOL = 1e-9


def require_mcondition(params: ParamSet, m: int) -> None:
    """Refuse unless the existence constraint psi0 psin q^m = (k0 kn
    kappa^{n-1})^{eta(m)} holds, with eta(m) = 1 for m > 0 and -1 for m <= 0
    (numerics.constraint_rhs); the error's report is the payload {m, lhs,
    rhs, satisfied} that the driver prints."""
    lhs = params.psi0 * params.psin * params.q**m
    rhs = constraint_rhs(params.n, params.kappa0, params.kappa, params.kappan, m)
    if not abs(lhs - rhs) < _MCOND_TOL * max(abs(lhs), abs(rhs)):
        err = RefusalError(f"existence constraint unsatisfied: lhs={lhs:.6g}, rhs={rhs:.6g} (m={m})")
        err.report = {"m": int(m), "lhs": _c2d(lhs), "rhs": _c2d(rhs), "satisfied": False}
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


def cm_alpha(phi: LaurentPoly, params: ParamSet, series, metadata: dict) -> KZSolution:
    """Pair the Hecke action on phi with the principal-series basis
    ``series``, the result of spinrep.principal_series_basis(params).

    For each minimal coset representative w, the word of w followed by the
    reversed word of w_0^J spells u = w (w_0^J)^{-1}; weyl.reduced_word
    takes it to its reduced word and the cached generator matrices act on
    the coefficient vector of phi on its degree ball, rightmost letter first
    as operators compose; v_w is one weighted basis vector, so the image
    times its weight is scattered into that one spin component.
    """
    basis, _zeta, reps, _rep = series
    n = params.n
    w0j_inv = reps[-1][::-1]
    ball, index, gens = generator_matrices(params, phi.l1_degree())
    vec0 = ball_vector(phi, index)[:, 0]
    images = []
    for word in reps:
        vec = vec0
        for a in reversed(reduced_word(word + w0j_inv, n)):
            vec = gens[a] @ vec
        images.append(vec)
    return KZSolution(
        params=params,
        components=LaurentPoly(ball, basis @ np.stack(images)),
        metadata=dict(metadata),
    )


def build_polynomial_solution(params: ParamSet, m: int) -> KZSolution:
    """The polynomial solution at lambda = (m, ..., m).

    Refuses when the existence constraint fails; validates the spectral
    wiring (the w_0^J-image of the principal-series point must be the
    translation spectrum of (m, ..., m)) before assembling.
    """
    require_mcondition(params, m)
    series = principal_series_basis(params)
    _basis, zeta, reps, _rep = series
    mapped = act_word(reps[-1], zeta, params)
    lam = (m,) * params.n
    det = compute_P_detail(lam, params)
    gap = max_abs(np.array(mapped) - det.gamma) / max(max_abs(det.gamma), 1.0)
    if gap > 1e-9:
        raise InternalDefectError(f"spectral wiring mismatch ({gap:.2e})")
    sol = cm_alpha(
        det.poly,
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


def verify_solution(sol: KZSolution, samples: int, rng) -> dict:
    """The n transport equations and the n+1 invariance equations at random
    generic points, all points at once: the first ``samples`` draws of
    the stream rng, all drawn before any is evaluated.  A factor near a pole
    at any of them raises GenericityError with point None (baxter.RationalMat);
    nothing is redrawn.  Every point, its n shifts and its n+1 reflections are
    one product of the component table, and each equation is a
    tensorops.Product of one cocycle factor list (baxter.cocycle_factors) on
    the stack of points against the table's values there, each point on its
    own scale; tensorops.evaluate reads the largest of the points' residuals."""
    params = sol.params
    n = params.n
    q = params.q
    points = [torus_point(rng, n, (0.75, 1.35)) for _ in range(samples)]
    t = tuple(np.array(points).T)
    shifted = [t[:i] + (t[i] / q,) + t[i + 1 :] for i in range(n)]
    reflected = [act_letter(j, t, params) for j in range(n + 1)]
    # vals[c, s]: the components at the c-th of these points of sample s, a column
    groups = [np.stack(u, axis=-1) for u in (t, *shifted, *reflected)]
    vals = sol.components([point for group in groups for point in group])
    vals = np.moveaxis(vals.reshape(-1, len(groups), len(points)), 0, -1)[..., None]
    ft, scale = vals[0], _point_max(vals[0])
    keys = ([(f"transport equation i={i}", tau_word(i, n)) for i in range(1, n + 1)]
            + [(f"invariance under s_{j}", [j]) for j in range(n + 1)])
    return {key: Product(cocycle_factors(params, word, t), [], a=vals[col], b=ft, scale=scale)
            for col, (key, word) in enumerate(keys, 1)}
