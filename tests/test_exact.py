"""The spin and polynomial layers in exact and in 30-digit arithmetic.

Every identity row of the dressed generators, the cocycle, the transfer
matrices, the Hamiltonian forms, the matching-to-spin map, the Murphy
elements, the joint eigenpolynomials and the polynomial qKZ solutions is
evaluated by the package's own code in the scalar type of its inputs.  At the
rational point conftest._rational_params, with rational spectral points
and a rational block, each row reads exactly 0.0; at a complex mpmath point
with 30 digits, below 1e-25.  The batteries draw from their own streams,
with numerics.torus_point and tensorops.gaussian_block replaced by
stand-ins of the tier's scalar type; the rows that a suite builds itself
are rebuilt here from the same factor lists.  The qKZ rows run where psin
solves the existence constraint (numerics.constraint_rhs).  Each negative
control's perturbation, the factor 101/100, reads above 1e-6."""

import dataclasses
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

import heckespin.baxter
import heckespin.qkz
import heckespin.transfer
from conftest import _rational_params, joint_residual, residuals
from heckespin.baxter import baxter_j, check_ybe_re, cocycle_factors
from heckespin.koornwinder import _joint_eigenbasis, fixed_by_si, label_polynomials
from heckespin.matchings import intertwiner_Psi, matchmaker_betas, matchmaker_matrix
from heckespin.numerics import LaurentPoly, ParamSet, constraint_rhs, l1_ball, rel_residual, stream, torus_point
from heckespin.qkz import build_polynomial_solution, verify_solution
from heckespin.spinrep import (build_spin_rep, check_tl_relations, loop_weights, murphy_commutator_residual, murphy_Y,
                               principal_series_basis)
from heckespin.tensorops import Product, apply_on_legs, evaluate, gaussian_block
from heckespin.transfer import check_transfer, check_transfer_vs_transport, hamiltonian
from heckespin.weyl import reduced_word, tau_word

F = Fraction
_MPC = np.frompyfunc(mpmath.mpc, 1, 1)


def _rational_point(rng, count, band):
    """torus_point's exact stand-in: count rationals a/b, a and b in 3..18."""
    return tuple(F(rng.randrange(3, 19), rng.randrange(3, 19)) for _ in range(count))


def _rational_block(rng, rows):
    """gaussian_block's exact stand-in: one column of rationals a/b, a in
    -9..9 and b in 1..9, as an exact identity holds on every vector."""
    return np.array([[F(rng.randrange(-9, 10), rng.randrange(1, 10))] for _ in range(rows)], dtype=object)


def _mpc_params(n):
    """A complex point in mpmath numbers, kappa the square of kappa_sqrt at
    the working precision."""
    ks = mpmath.mpc(1.5, 0.2)
    point = {"q_sqrt": (1.4, 0.3), "kappa0": (1.6, -0.4), "kappan": (0.3, 0.2), "upsilon0": (0.27, -0.5),
             "upsilonn": (2.1, 0.4), "psi0": (-0.8, 0.6), "psin": (2.6, -0.7)}
    return ParamSet(n=n, kappa=ks**2, kappa_sqrt=ks, **{k: mpmath.mpc(*z) for k, z in point.items()})


# per tier: the point, the stand-ins for torus_point and gaussian_block, the
# bound that every row reads within, and every control's perturbation 101/100
TIERS = {
    "fraction": (_rational_params, _rational_point, _rational_block, 0.0, lambda: F(101, 100)),
    "mpmath": (_mpc_params, lambda rng, count, band: tuple(_MPC(torus_point(rng, count, band))),
               lambda rng, rows: _MPC(gaussian_block(rng, rows)[:, :1]), 1e-25, lambda: mpmath.mpf(101) / 100),
}


def cases(low: int) -> list:
    """(tier, n) for n from low: to 4 in fractions, to 3 in mpmath, whose
    object arithmetic is the slower at n = 4."""
    return [("fraction", n) for n in range(low, 5)] + [("mpmath", n) for n in range(low, 4)]


@pytest.fixture
def tier(request, monkeypatch):
    """The tier's setting, with its stand-ins in the spin batteries (every
    point they draw is recorded in drawn) and 30 mpmath digits."""
    params, point, block, bound, nudge = TIERS[request.param]
    drawn = []

    def recorded(rng, count, band):
        drawn.append(point(rng, count, band))
        return drawn[-1]

    for module in (heckespin.baxter, heckespin.qkz, heckespin.transfer):  # the suites' own draws
        monkeypatch.setattr(module, "torus_point", recorded)
    monkeypatch.setattr(heckespin.transfer, "gaussian_block", block)
    with mpmath.workdps(30):
        yield SimpleNamespace(params=params, point=point, block=block, bound=bound, nudge=nudge(), drawn=drawn)


def _within(rows: dict, bound: float) -> None:
    got = residuals(rows)
    assert got and max(got.values()) <= bound, got


def _nudged(factor, nudge):
    """A local (block, legs) or MPO (sites, None) factor with its block or
    its last site's value scaled by nudge."""
    block, legs = factor
    if legs is not None:
        return nudge * block, legs
    return [*block[:-1], [nudge * block[-1][0], *block[-1][1:]]], None


@pytest.mark.parametrize("tier, n", cases(2), indirect=["tier"])
def test_the_identity_rows_hold_exactly(tier, n):
    p = tier.params(n)
    rows = check_ybe_re(p, 1, stream(n))
    control = rows.pop("negative control perturbed reflection")
    _within(rows, tier.bound)
    # the control's upsilon0 nudge, as a rational factor, at the drawn x
    x = np.array([xy[0] for xy in tier.drawn])
    bad = baxter_j(p.replace(upsilon0=p.upsilon0 * tier.nudge), 0, x)
    assert evaluate(control._replace(lhs=[bad, *control.lhs[1:]])) > 1e-6


@pytest.mark.parametrize("tier, n", cases(1), indirect=["tier"])
def test_word_independence_and_the_translation_transports_hold_exactly(tier, n):
    p, rng = tier.params(n), stream(n)
    v = tier.block(rng, 2**n)
    rows = {}
    for word in ([1, 0] * 4, [rng.randrange(0, n + 1) for _ in range(6)], [n, 0, n, n, 0]):
        t = tier.point(rng, n, (0.7, 1.4))
        rows[f"word {word}"] = Product(cocycle_factors(p, word, t),
                                       cocycle_factors(p, reduced_word(word, n), t), a=v, b=v)
    t = tuple(np.array([tier.point(rng, n, (0.7, 1.4)) for _ in range(2)]).T)
    first, last = tau_word(1, n), tau_word(n, n)
    rows["commuting translation transports"] = Product(
        cocycle_factors(p, first + last, t), cocycle_factors(p, last + first, t), a=v, b=v)
    _within(rows, tier.bound)
    for row in rows.values():
        assert evaluate(row._replace(lhs=[_nudged(row.lhs[0], tier.nudge), *row.lhs[1:]])) > 1e-6


@pytest.mark.parametrize("tier, n", cases(1), indirect=["tier"])
def test_the_transfer_rows_hold_exactly(tier, n):
    p = tier.params(n)
    rows = {**check_transfer(p, 1, stream(n)), **check_transfer_vs_transport(p, 1, stream(n))}
    assert {"monodromy form agreement", "commuting transfer matrices", "normalized transfer at x=1",
            "stationary transport at x=1/t_1", "stationary inverse transport at x=t_1"} <= rows.keys()
    _within(rows, tier.bound)
    # one MPO site nudged: the monodromy's U and the commuting row's T_x
    monodromy, commuting = rows["monodromy form agreement"], rows["commuting transfer matrices"]
    assert evaluate(monodromy._replace(rhs=[_nudged(monodromy.rhs[0], tier.nudge)])) > 1e-6
    assert evaluate(commuting._replace(lhs=[_nudged(commuting.lhs[0], tier.nudge), commuting.lhs[1]])) > 1e-6


@pytest.mark.parametrize("tier, n", cases(1), indirect=["tier"])
def test_the_three_hamiltonian_forms_agree_exactly(tier, n):
    p = tier.params(n)
    v = tier.block(stream(n), 2**n)
    tl, pauli, transfer = (hamiltonian(p, form, v) for form in ("tl", "pauli", "transfer"))
    assert max(rel_residual(tl, pauli), rel_residual(transfer, pauli)) <= tier.bound
    detuned = hamiltonian(p.replace(kappa0=p.kappa0 * tier.nudge), "tl", v)
    assert rel_residual(detuned, pauli) > 1e-6


@pytest.mark.parametrize("tier, n", cases(1), indirect=["tier"])
def test_the_matchmaker_relations_and_the_intertwiner_hold_exactly(tier, n):
    p = tier.params(n)
    v = tier.block(stream(n), 2**n)
    weights = loop_weights(p)
    mats = {j: matchmaker_matrix(j, weights, *matchmaker_betas(p)) for j in range(n + 1)}
    rep, psi = build_spin_rep(p), intertwiner_Psi(p)

    def intertwines(psi):
        return max(rel_residual(apply_on_legs(*rep.e[j], psi @ v, n), psi @ (mats[j] @ v)) for j in mats)

    rows = {**check_tl_relations(mats, weights), "intertwining": intertwines(psi),
            "degenerate sign map": rel_residual(intertwiner_Psi(p, limit=True) @ v, v)}
    _within(rows, tier.bound)
    bad = {**mats, min(1, n): tier.nudge * mats[min(1, n)]}
    assert max(residuals(check_tl_relations(bad, weights)).values()) > 1e-6
    psi[:, 0] *= tier.nudge
    assert intertwines(psi) > 1e-6


@pytest.mark.parametrize("tier, n", cases(1), indirect=["tier"])
def test_the_murphy_elements_commute_and_share_the_highest_weight_vector_exactly(tier, n):
    p = tier.params(n)
    basis, zeta, _reps, rep = principal_series_basis(p)
    assert basis.weight.dtype == object
    assert evaluate(murphy_commutator_residual(rep, tier.block(stream(n), 2**n))) <= tier.bound
    v0 = np.eye(2**n, 1, dtype=int)
    worst = max(rel_residual(murphy_Y(rep, i, v0), zeta[i - 1] * v0) for i in range(1, n + 1))
    assert worst <= tier.bound
    assert rel_residual(murphy_Y(rep, 1, v0), tier.nudge * zeta[0] * v0) > 1e-6


@pytest.mark.parametrize("tier, n, radius",
                         [("fraction", 2, 3), ("fraction", 3, 2), ("mpmath", 2, 2), ("mpmath", 3, 1)],
                         indirect=["tier"])
def test_the_eigenpolynomials_hold_exactly(tier, n, radius, cold_ball):
    """Y_i P = P / gamma_i for every label of the ball, and T_i P = P / kappa_i
    at the labels s_i fixes, with leading coefficient exactly 1; the mpmath
    tier takes one degree less, as its object arithmetic is the slower."""
    p = tier.params(n)
    results = label_polynomials(l1_ball(n, radius), p)
    fixed = [r.stab[i - 1] for r in results for i in range(1, n + 1) if fixed_by_si(i, r.lam)]
    assert max(r.residual for r in results) <= tier.bound and fixed and max(fixed) <= tier.bound
    for r in results:
        exps = [tuple(e) for e in r.poly.exps.tolist()]
        assert r.poly.coeffs[0, exps.index(r.lam)] == 1 and r.monic == 0
    # the control: one term of the widest polynomial other than its leading one nudged
    widest = max(results, key=lambda r: len(r.poly.exps))
    coeffs = widest.poly.coeffs.copy()
    coeffs[0, next(k for k, e in enumerate(widest.poly.exps.tolist()) if tuple(e) != widest.lam)] *= tier.nudge
    assert joint_residual(LaurentPoly(widest.poly.exps, coeffs), widest, p) > 1e-6


def _constrained(p: ParamSet, m: int) -> ParamSet:
    """p with psin solved from the existence constraint of degree m."""
    return p.replace(psin=constraint_rhs(p.n, p.kappa0, p.kappa, p.kappan, m) / (p.psi0 * p.q**m))


@pytest.mark.parametrize("tier, m", [(tier, m) for tier in TIERS for m in (1, -1)], indirect=["tier"])
def test_the_qkz_equations_hold_exactly(tier, m, cold_ball):
    """Every transport and invariance equation of the solution of degree m
    at n = 2, on the tier's sample points; one component nudged breaks them."""
    sol = build_polynomial_solution(_constrained(tier.params(2), m), m)
    rows = verify_solution(sol, 2, stream(m))
    assert len(rows) == 5 and len(tier.drawn) == 2
    _within(rows, tier.bound)
    coeffs = sol.components.coeffs.copy()
    coeffs[0] *= tier.nudge
    bad = verify_solution(dataclasses.replace(sol, components=LaurentPoly(sol.components.exps, coeffs)), 2,
                          stream(m))
    assert max(residuals(bad).values()) > 1e-6


def test_a_zero_gap_is_divided_by_only_inside_a_down_set():
    """In exact arithmetic the back-substitution leaves a tie between two
    monomials apart when neither reaches the other, and raises
    ZeroDivisionError on a tie inside a down-set, which no tolerance hides."""
    p, apart = _rational_params(1), np.array([[F(2), 0], [0, F(2)]], dtype=object)
    assert (_joint_eigenbasis({1: apart}, p).vecs == np.eye(2)).all()
    with pytest.raises(ZeroDivisionError):
        _joint_eigenbasis({1: np.array([[F(2), F(1)], [0, F(2)]], dtype=object)}, p)
