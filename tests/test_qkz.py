"""Polynomial solutions of the reflection difference system."""

import numpy as np
import pytest

from heckespin.koornwinder import compute_P, noumi_T_apply
from heckespin.numerics import (
    LaurentPoly,
    PoleProximityError,
    RefusalError,
    l1_ball,
    sample_generic,
)
from heckespin.qkz import (
    KZSolution,
    build_polynomial_solution,
    check_mcondition,
    cm_alpha,
    verify_solution,
)
from heckespin.spinrep import principal_series_basis
from heckespin.weyl import reduced_word, w0_coset_element


def constrained(seed, n, m):
    return sample_generic(seed=seed, n=n, mcondition=m)


def test_mcondition_report_fields():
    p = constrained(3, 2, 1)
    rep = check_mcondition(p, 1)
    assert rep.satisfied and rep.m == 1
    assert abs(rep.lhs - rep.rhs) < 1e-9 * abs(rep.lhs)
    d = rep.to_dict()
    assert set(d) == {"m", "lhs", "rhs", "satisfied"}
    free = sample_generic(seed=3, n=2)
    assert not check_mcondition(free, 1).satisfied


@pytest.mark.parametrize(
    "n, m",
    [
        pytest.param(2, -1, id="-1"),
        pytest.param(2, 0, id="0"),
        pytest.param(2, 1, id="1"),
        # at n = 3 the principal-series basis is not symmetric, so a
        # transposed weight in cm_alpha shows
        pytest.param(3, 1, id="n3-1"),
    ],
)
def test_built_solution_satisfies_all_equations(n, m):
    p = constrained(11, n, m)
    sol = build_polynomial_solution(p, m)
    res = verify_solution(sol, samples=8, seed=2)
    assert len(res) == n + (n + 1)  # transport + invariance families
    assert max(res.values()) < 1e-9, res


def test_unconstrained_parameters_are_refused():
    free = sample_generic(seed=21, n=2)
    with pytest.raises(RefusalError) as exc:
        build_polynomial_solution(free, 1)
    assert exc.value.report.satisfied is False


def test_distorted_solution_fails_verification():
    p = constrained(11, 2, 1)
    sol = build_polynomial_solution(p, 1)
    bad = KZSolution(
        params=p,
        components=[c.scale(1.0) for c in sol.components],
        metadata=dict(sol.metadata),
    )
    bad.components[2] = bad.components[2].scale(1.01)
    assert max(verify_solution(bad, samples=5, seed=2).values()) > 1e-3


def test_component_replaced_after_verification_still_fails():
    """verify_solution and eval_at read the components as they stand at each
    call; nothing tabulated earlier may mask a later replacement."""
    p = constrained(11, 2, 1)
    sol = build_polynomial_solution(p, 1)
    assert max(verify_solution(sol, samples=3, seed=2).values()) < 1e-9
    t = (0.9 + 0.2j, 1.1 - 0.3j)
    before = sol.eval_at(t)
    sol.components[1] = sol.components[1].scale(1.01)
    assert abs(sol.eval_at(t)[1] - 1.01 * before[1]) < 1e-12 * abs(before[1])
    assert max(verify_solution(sol, samples=3, seed=2).values()) > 1e-3


def test_cm_alpha_is_linear():
    p = constrained(11, 2, 1)
    phi1 = LaurentPoly.monomial(2, (1, 0))
    phi2 = LaurentPoly.monomial(2, (0, -1))
    a, b = 0.7 - 0.2j, 1.3 + 0.5j
    s1 = cm_alpha(phi1, p)
    s2 = cm_alpha(phi2, p)
    s12 = cm_alpha(phi1.scale(a) + phi2.scale(b), p)
    rng = np.random.default_rng(0)
    for _ in range(4):
        t = tuple(
            complex(rng.uniform(0.8, 1.2) * np.exp(2j * np.pi * rng.uniform()))
            for _ in range(2)
        )
        lhs = s12.eval_at(t)
        rhs = a * s1.eval_at(t) + b * s2.eval_at(t)
        assert np.abs(lhs - rhs).max() < 1e-12 * max(np.abs(lhs).max(), 1.0)


def test_two_paths_through_the_hecke_action_agree():
    """Letterwise application versus cached operator matrices on a span."""
    p = constrained(11, 2, 1)
    n = 2
    radius = 6
    basis = [tuple(mu) for mu in l1_ball(n, radius)]
    index = {mu: k for k, mu in enumerate(basis)}
    mats = {}
    for j in range(n + 1):
        cols = np.zeros((len(basis), len(basis)), dtype=complex)
        for k, mu in enumerate(basis):
            img = noumi_T_apply(j, LaurentPoly.monomial(n, mu), p)
            for exp, c in img.terms.items():
                if exp not in index:
                    if abs(c) > 1e-12:
                        pytest.skip("span too small for this parameter draw")
                    continue
                cols[index[exp], k] += c
        mats[j] = cols
    phi = LaurentPoly.monomial(n, (1, 0))
    vec0 = np.zeros(len(basis), dtype=complex)
    vec0[index[(1, 0)]] = 1.0
    B, _zeta, reps, _rep = principal_series_basis(p)
    w0j_inv = w0_coset_element(range(1, n), n).inverse_finite()
    matrix_components = [np.zeros(len(basis), dtype=complex) for _ in range(2**n)]
    for col, w in enumerate(reps):
        vec = vec0
        for a in reversed(reduced_word(w * w0j_inv)):
            vec = mats[a] @ vec
        for bidx in range(2**n):
            matrix_components[bidx] = matrix_components[bidx] + B[bidx, col] * vec
    sol = cm_alpha(phi, p)
    for bidx in range(2**n):
        direct = np.zeros(len(basis), dtype=complex)
        for exp, c in sol.components[bidx].terms.items():
            assert exp in index
            direct[index[exp]] = c
        assert np.abs(direct - matrix_components[bidx]).max() < 1e-10


def test_solution_serialization_roundtrip(tmp_path):
    import json

    p = constrained(7, 2, 0)
    sol = build_polynomial_solution(p, 0)
    path = tmp_path / "sol.json"
    path.write_text(json.dumps(sol.to_dict()))
    back = KZSolution.from_dict(json.loads(path.read_text()))
    t = (0.9 + 0.1j, 1.1 - 0.3j)
    assert np.abs(sol.eval_at(t) - back.eval_at(t)).max() < 1e-14
    assert back.metadata == sol.metadata


def test_builder_metadata_records_the_construction():
    p = constrained(11, 2, 1)
    sol = build_polynomial_solution(p, 1)
    assert sol.metadata["m"] == 1
    assert sol.metadata["lambda"] == [1, 1]
    assert "construction" in sol.metadata


def test_constant_label_solution_is_built_from_the_constant():
    p = constrained(7, 2, 0)
    assert compute_P((0, 0), p).terms == {(0, 0): 1.0}
    sol = build_polynomial_solution(p, 0)
    assert sol.max_coeff() > 1e-6


def test_one_principal_series_basis_per_build(monkeypatch):
    import heckespin.qkz as qkz

    calls = []

    def counting(params):
        calls.append(params)
        return principal_series_basis(params)

    monkeypatch.setattr(qkz, "principal_series_basis", counting)
    for n, m in ((2, 1), (3, -1)):
        p = constrained(11, n, m)
        sol = build_polynomial_solution(p, m)
        assert calls == [p]
        calls.clear()
        # the public entry point still builds its own basis
        again = cm_alpha(compute_P((m,) * n, p), p, metadata=sol.metadata)
        assert calls == [p]
        assert [c.terms for c in again.components] == [c.terms for c in sol.components]
        calls.clear()


def test_degree_cap_is_a_refusal():
    with pytest.raises(RefusalError, match=r"degree cap exceeded \(\|m\| \* n <= 4\)"):
        build_polynomial_solution(constrained(11, 3, 2), 2)


def test_a_sample_dropped_at_a_pole_leaves_no_rows(monkeypatch):
    import heckespin.qkz as qkz

    sol = build_polynomial_solution(constrained(11, 2, 1), 1)
    honest_point, honest_transport = qkz.torus_point, qkz.transport_factors
    honest_factor = qkz.cocycle_factor
    points = []

    def point(rng, n, band):
        points.append(honest_point(rng, n, band))
        return points[-1]

    # at the first point the transports are distorted, then a reflection
    # lands on a pole: none of that point's rows may reach the result
    def transport(params, i, t):
        factors = honest_transport(params, i, t)
        if len(points) == 1:
            factors[0] = (3.0 * factors[0][0], factors[0][-1])
        return factors

    def factor(params, a, t):
        if len(points) == 1:
            raise PoleProximityError("evaluation at a pole")
        return honest_factor(params, a, t)

    monkeypatch.setattr(qkz, "torus_point", point)
    monkeypatch.setattr(qkz, "transport_factors", transport)
    monkeypatch.setattr(qkz, "cocycle_factor", factor)
    res = verify_solution(sol, samples=3, seed=5)
    assert len(points) == 4
    assert max(res.values()) < 1e-8
