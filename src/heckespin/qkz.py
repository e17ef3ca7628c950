"""Reflection difference equations on the spin chain and their polynomial
solutions.

A vector f = (f_b) of Laurent polynomials solves the reflection difference
system when C_{tau_i}(t) f(q^{-eps_i} t) = f(t) and f is invariant under the
dressed reflections.  build_polynomial_solution refuses (RefusalError) unless
the scalar existence constraint between the boundary parameters and q^m holds
(check_mcondition) and |m| n <= 4.  It reads the monic joint eigenpolynomial
at (m, ..., m) off the triangular eigenbasis of its degree ball and applies,
for each minimal coset representative w, the Hecke element of w (w_0^J)^{-1}
through the cached generator matrices, weighting the image by the
principal-series vector v_w; one principal-series basis serves the spectral
wiring check and the assembly.  verify_solution tabulates the components once
per call (LaurentTable) and evaluates each sample point, its q-shifts and its
reflections as one product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baxter import cocycle_factor, transport_factors
from .koornwinder import (
    ball_vector,
    check_caps,
    compute_P,
    gamma_lambda,
    generator_matrices,
)
from .numerics import (
    InternalDefectError,
    LaurentPoly,
    LaurentTable,
    ParamSet,
    RefusalError,
    Residuals,
    eta,
    pole_free,
    torus_point,
)
from .spinrep import principal_series_basis
from .tensorops import factor_product
from .weyl import WeylElem, act_point, reduced_word, w0_coset_element

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


def check_degree_cap(n: int, m: int) -> None:
    """Refuse a solution degree beyond the polynomial caps (|m| n <= 4), and
    a rank beyond koornwinder's cap, which m = 0 would otherwise pass."""
    if abs(m) * n > 4:
        raise RefusalError("degree cap exceeded (|m| * n <= 4)")
    check_caps(n)


@dataclass
class KZSolution:
    params: ParamSet
    components: list
    metadata: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.components)

    def eval_at(self, t) -> np.ndarray:
        return LaurentTable(self.components, self.params.n)([t])[:, 0]

    def max_coeff(self) -> float:
        return max((c.max_abs() for c in self.components), default=0.0)

    def to_dict(self):
        return {
            "params": self.params.to_dict(),
            "components": [c.to_dict() for c in self.components],
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data) -> "KZSolution":
        params = ParamSet.from_dict(data["params"])
        comps = [LaurentPoly.from_dict(d) for d in data["components"]]
        n, arities = params.n, sorted({c.n_vars for c in comps})
        if len(comps) != 2**n or arities != [n]:
            raise RefusalError(f"a stored solution needs 2^n = {2**n} components in n = "
                               f"{n} variables, not {len(comps)} in {arities}")
        return cls(params=params, components=comps, metadata=dict(data.get("metadata", {})))


def cm_alpha(phi: LaurentPoly, params: ParamSet, metadata=None) -> KZSolution:
    """Pair the Hecke action on phi with the principal-series basis.

    For each minimal coset representative w the element u = w (w_0^J)^{-1}
    is taken to its reduced word and the cached generator matrices act on
    the coefficient vector of phi on its degree ball, rightmost letter first
    as operators compose; the image is added into every spin component with
    weight (v_w)_b.
    """
    return _cm_alpha(phi, params, principal_series_basis(params), metadata)


def _cm_alpha(phi: LaurentPoly, params: ParamSet, series, metadata) -> KZSolution:
    """cm_alpha with the principal_series_basis result already in hand."""
    n = params.n
    basis_mat, _zeta, reps, _rep = series
    jset = list(range(1, n))
    w0j_inv = w0_coset_element(jset, n).inverse_finite()
    ball, index, gens = generator_matrices(params, phi.l1_degree())
    vec0 = ball_vector(phi, index)
    images = []
    for w in reps:
        vec = vec0
        for a in reversed(reduced_word(w * w0j_inv)):
            vec = gens[a] @ vec
        images.append(vec)
    coeffs = np.stack(images, axis=1) @ basis_mat.T
    components = [LaurentPoly(n, dict(zip(ball, col))) for col in coeffs.T]
    return KZSolution(
        params=params,
        components=components,
        metadata=dict(metadata or {"construction": "cm_alpha"}),
    )


def build_polynomial_solution(params: ParamSet, m: int) -> KZSolution:
    """The polynomial solution at lambda = (m, ..., m).

    Refuses when the existence constraint fails; validates the spectral
    wiring (the longest-coset image of the principal-series point must be
    the translation spectrum of (m, ..., m)) before assembling.
    """
    n = params.n
    report = check_mcondition(params, m)
    if not report.satisfied:
        err = RefusalError(
            "existence constraint unsatisfied: "
            f"lhs={report.lhs:.6g}, rhs={report.rhs:.6g} (m={m})"
        )
        err.report = report
        raise err
    check_degree_cap(n, m)
    series = principal_series_basis(params)
    jset = list(range(1, n))
    w0j = w0_coset_element(jset, n)
    mapped = act_point(w0j, series[1], params)
    target = gamma_lambda((m,) * n, params).gamma
    gap = max(abs(a - b) for a, b in zip(mapped, target)) / max(
        max(abs(v) for v in target), 1.0
    )
    if gap > 1e-9:
        raise InternalDefectError(f"spectral wiring mismatch ({gap:.2e})")
    lam = (m,) * n
    poly = compute_P(lam, params)
    sol = _cm_alpha(
        poly,
        params,
        series,
        metadata={
            "construction": "alpha of the monic joint eigenpolynomial",
            "m": int(m),
            "lambda": list(lam),
        },
    )
    if sol.max_coeff() < 1e-9:
        raise InternalDefectError("assembled solution is numerically zero")
    return sol


def verify_solution(sol: KZSolution, samples: int = 20, seed: int = 8) -> dict:
    """Pointwise residuals of the n transport equations and the n+1
    invariance equations at random generic points; a point near a pole is
    dropped whole and another drawn (numerics.pole_free).  The components
    are tabulated per call, as they stand, and each sample's point, n shifts
    and n+1 reflections are one table product."""
    params = sol.params
    n = params.n
    table = LaurentTable(sol.components, n)
    rng = np.random.default_rng(seed)
    q = params.q

    def sample() -> dict:
        t = torus_point(rng, n, (0.75, 1.35))
        shifted = [t[:i] + (t[i] / q,) + t[i + 1 :] for i in range(n)]
        reflected = [act_point(WeylElem.generator(j, n), t, params) for j in range(n + 1)]
        vals = table([t, *shifted, *reflected])
        ft = vals[:, 0]
        scale = max(1e-300, float(np.abs(ft).max()))

        def residual(factors, col):
            lhs = factor_product(factors, n, vals[:, col : col + 1])[:, 0]
            return float(np.abs(lhs - ft).max()) / scale

        rows = {f"transport equation i={i}": residual(transport_factors(params, i, t), i)
                for i in range(1, n + 1)}
        for j in range(n + 1):
            rows[f"invariance under s_{j}"] = residual([cocycle_factor(params, j, t)], n + 1 + j)
        return rows

    out = Residuals()
    for rows in pole_free(sample, samples):
        for key, value in rows.items():
            out.add(key, value)
    return out
