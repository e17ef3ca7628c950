"""Polynomial solutions of the reflection difference system."""

import numpy as np
import pytest

from conftest import DictPoly, from_table, noumi_T_apply, qkz_per_sample, scale_row, to_table
from heckespin.koornwinder import compute_P_detail
from heckespin.numerics import (
    LaurentPoly,
    PoleProximityError,
    RefusalError,
    l1_ball,
    max_abs,
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
from heckespin.weyl import WeylElem, reduced_word


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
        components=scale_row(sol.components, 2, 1.01),
        metadata=dict(sol.metadata),
    )
    assert max(verify_solution(bad, samples=5, seed=2).values()) > 1e-3


def test_component_replaced_after_verification_still_fails():
    """verify_solution and the component table read the components as they
    stand at each call; nothing tabulated earlier may mask a later
    replacement."""
    p = constrained(11, 2, 1)
    sol = build_polynomial_solution(p, 1)
    assert max(verify_solution(sol, samples=3, seed=2).values()) < 1e-9
    t = (0.9 + 0.2j, 1.1 - 0.3j)
    before = sol.components([t])[:, 0]
    sol.components = scale_row(sol.components, 1, 1.01)
    assert abs(sol.components([t])[1, 0] - 1.01 * before[1]) < 1e-12 * abs(before[1])
    assert max(verify_solution(sol, samples=3, seed=2).values()) > 1e-3


def test_cm_alpha_is_linear():
    p = constrained(11, 2, 1)
    phi1 = DictPoly.monomial(2, (1, 0))
    phi2 = DictPoly.monomial(2, (0, -1))
    a, b = 0.7 - 0.2j, 1.3 + 0.5j
    series = principal_series_basis(p)
    s1 = cm_alpha(to_table([phi1], 2), p, series)
    s2 = cm_alpha(to_table([phi2], 2), p, series)
    s12 = cm_alpha(to_table([phi1.scale(a) + phi2.scale(b)], 2), p, series)
    rng = np.random.default_rng(0)
    for _ in range(4):
        t = tuple(
            complex(rng.uniform(0.8, 1.2) * np.exp(2j * np.pi * rng.uniform()))
            for _ in range(2)
        )
        lhs = s12.components([t])[:, 0]
        rhs = a * s1.components([t])[:, 0] + b * s2.components([t])[:, 0]
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
            img = noumi_T_apply(j, DictPoly.monomial(n, mu), p)
            for exp, c in img.terms.items():
                if exp not in index:
                    if abs(c) > 1e-12:
                        pytest.skip("span too small for this parameter draw")
                    continue
                cols[index[exp], k] += c
        mats[j] = cols
    phi = LaurentPoly([(1, 0)], [1.0])
    vec0 = np.zeros(len(basis), dtype=complex)
    vec0[index[(1, 0)]] = 1.0
    B, _zeta, reps, _rep = principal_series_basis(p)
    B = B @ np.eye(2**n)
    w0j_inv = WeylElem.from_word(reps[-1], n).inverse_finite()
    matrix_components = [np.zeros(len(basis), dtype=complex) for _ in range(2**n)]
    for col, word in enumerate(reps):
        vec = vec0
        for a in reversed(reduced_word(WeylElem.from_word(word, n) * w0j_inv)):
            vec = mats[a] @ vec
        for bidx in range(2**n):
            matrix_components[bidx] = matrix_components[bidx] + B[bidx, col] * vec
    sol = cm_alpha(phi, p, principal_series_basis(p))
    for bidx, component in enumerate(from_table(sol.components)):
        direct = np.zeros(len(basis), dtype=complex)
        for exp, c in component.terms.items():
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
    assert back.to_dict() == sol.to_dict()
    assert back.metadata == sol.metadata


def test_builder_metadata_records_the_construction():
    p = constrained(11, 2, 1)
    sol = build_polynomial_solution(p, 1)
    assert sol.metadata["m"] == 1
    assert sol.metadata["lambda"] == [1, 1]
    assert "construction" in sol.metadata


def test_constant_label_solution_is_built_from_the_constant():
    p = constrained(7, 2, 0)
    assert from_table(compute_P_detail((0, 0), p).poly)[0].terms == {(0, 0): 1.0}
    sol = build_polynomial_solution(p, 0)
    assert max_abs(sol.components.coeffs) > 1e-6


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
        again = cm_alpha(compute_P_detail((m,) * n, p).poly, p, principal_series_basis(p),
                         metadata=sol.metadata)
        assert again.components.to_dicts() == sol.components.to_dicts()
        calls.clear()


def test_degree_cap_is_a_refusal():
    with pytest.raises(RefusalError, match=r"degree cap exceeded \(\|m\| \* n <= 4\)"):
        build_polynomial_solution(constrained(11, 3, 2), 2)


def test_a_sample_dropped_at_a_pole_leaves_no_rows(monkeypatch):
    import heckespin.qkz as qkz

    sol = build_polynomial_solution(constrained(11, 2, 1), 1)
    honest_point, honest_factors = qkz.torus_point, qkz.cocycle_factors
    points = []

    def point(rng, n, band):
        points.append(honest_point(rng, n, band))
        return points[-1]

    def at_first(t):
        """Over the stack of points, the flag of the first point drawn."""
        return t[0] == points[0][0]

    # at the first point the transports (the translation words) are
    # distorted, then a reflection (a one-letter word) lands on a pole there:
    # none of that point's rows may reach the result
    def factors(params, word, t):
        if len(word) == 1 and at_first(t).any():
            raise PoleProximityError("evaluation at a pole", where=at_first(t))
        out = honest_factors(params, word, t)
        if len(word) > 1:
            block, legs = out[0]
            out[0] = (np.where(at_first(t)[:, None, None], 3.0 * block, block), legs)
        return out

    monkeypatch.setattr(qkz, "torus_point", point)
    monkeypatch.setattr(qkz, "cocycle_factors", factors)
    res = verify_solution(sol, samples=3, seed=5)
    assert len(points) == 4
    assert max(res.values()) < 1e-8


@pytest.mark.parametrize("n, m", [(2, -1), (2, 1), (3, -1), (3, 1), (3, 0)])
def test_batched_check_matches_the_per_point_oracle(n, m):
    """All points at once against one point at a time: the same keys, every
    row within a factor of 10 of the oracle's (both are rounding, up to
    2.2e-12, and differ by up to a factor of 5.3 at these seeds: n = 3,
    m = 0, seed 2), and the suite's control (a distorted solution's largest
    row) within 1e-12 relative."""
    for seed in (1, 2, 3):
        sol = build_polynomial_solution(constrained(seed, n, m), m)
        got, want = verify_solution(sol, samples=20, seed=seed), qkz_per_sample(sol, 20, seed)
        assert sorted(got) == sorted(want)
        assert all(abs(got[k] - want[k]) <= 0.9 * max(got[k], want[k]) for k in want)
        bad = KZSolution(params=sol.params, components=scale_row(sol.components, 0, 1.01))
        got, want = verify_solution(bad, samples=4, seed=seed), qkz_per_sample(bad, 4, seed)
        assert sorted(got) == sorted(want)
        control = max(want.values())
        assert control > 1e-3
        assert abs(max(got.values()) - control) <= 1e-12 * control


def test_the_check_evaluates_each_factor_once_for_all_points(monkeypatch):
    import heckespin.baxter as baxter

    calls = []
    honest = baxter.RationalMat.__call__

    def counting(self, x):
        calls.append(np.shape(x))
        return honest(self, x)

    monkeypatch.setattr(baxter.RationalMat, "__call__", counting)
    sol = build_polynomial_solution(constrained(11, 3, 1), 1)
    counts = []
    for samples in (5, 20):
        calls.clear()
        verify_solution(sol, samples=samples, seed=2)
        counts.append(len(calls))
        assert set(calls) == {(samples,)}
    assert counts[0] == counts[1]
