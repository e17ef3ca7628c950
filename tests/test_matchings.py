"""Boundary matchings, the diagram action on them, and the change of basis
to the chain."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckespin.matchings import (
    Matching,
    boundary_arc_counts,
    enumerate_matchings,
    intertwiner_Psi,
    m_constants,
    matchmaker_betas,
    matchmaker_matrix,
    pty,
)
from heckespin.numerics import sample_generic
from heckespin.spinrep import build_spin_rep, check_tl_relations, delta_from_kappa
from heckespin.tensorops import op_on_legs

signs = st.lists(st.sampled_from([1, -1]), min_size=1, max_size=7)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_count(n):
    # matchings biject with sign strings
    assert len(enumerate_matchings(n)) == 2**n


@given(signs)
@settings(max_examples=60, deadline=None)
def test_sign_string_roundtrip(alpha):
    n = len(alpha)
    p = Matching.from_signs(n, alpha)
    assert p.nu() == tuple(alpha)


def test_noncrossing_validation_rejects_crossings():
    with pytest.raises(ValueError):
        Matching.make(2, [(1, 3), (2, 4)]).validate()


@given(signs)
@settings(max_examples=40, deadline=None)
def test_arc_count_alternating_sum(alpha):
    n = len(alpha)
    p = Matching.from_signs(n, alpha)
    s = sum((-1) ** h * c for (_, h), c in boundary_arc_counts(p).items())
    assert s == -pty(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matchmaker_relations(n):
    params = sample_generic(seed=1, n=n)
    tl = delta_from_kappa(params)
    b0, b1 = matchmaker_betas(params)
    mats = {j: matchmaker_matrix(j, tl, b0, b1, n) for j in range(n + 1)}
    assert max(check_tl_relations(mats, tl, n).values()) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intertwiner_commutes_and_is_invertible(n):
    params = sample_generic(seed=1, n=n)
    tl = delta_from_kappa(params)
    b0, b1 = matchmaker_betas(params)
    rep = build_spin_rep(params)
    psi = intertwiner_Psi(params)
    for j in range(n + 1):
        lhs = op_on_legs(*rep.e[j], n) @ psi
        rhs = psi @ matchmaker_matrix(j, tl, b0, b1, n)
        scale = max(np.abs(lhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() / scale < 1e-10
    assert abs(np.linalg.det(psi)) > 1e-8


def test_degenerate_limit_is_the_sign_relabeling(params3):
    limit_map = intertwiner_Psi(params3, limit=True)
    basis = enumerate_matchings(params3.n)
    expected = np.zeros_like(limit_map)
    for col, p in enumerate(basis):
        expected[p.nu_index(), col] = 1.0
    assert np.array_equal(limit_map, expected)


def test_drop_sites_removes_touching_pairs():
    p = Matching.from_signs(3, [1, -1, 1])
    surviving = p.drop_sites(2)
    assert all(2 not in pair for pair in surviving)
    assert len(surviving) < len(p.pairs)


def _psi_by_orientations(params, limit=False):
    """Oracle: Psi as the sum over all 2^#arcs orientations of each matching,
    each weighted by its counters of turned-around arcs."""
    n, k = params.n, params.kappa
    M = m_constants(params, matchmaker_betas(params)[0])
    psi = {0: params.psi0, n: params.psin}
    mat = np.zeros((2**n, 2**n), dtype=complex)
    for col, p in enumerate(enumerate_matchings(n)):
        pref = 1.0 + 0j
        if not limit:
            for key, count in boundary_arc_counts(p).items():
                pref *= M[key] ** count
        for flips in itertools.product((False, True), repeat=len(p.pairs)):
            arcs = [(b, a) if f else (a, b) for (a, b), f in zip(p.pairs, flips)]
            down = [False] * n
            N = {(0, 0): 0, (0, 1): 0, (n, 0): 0, (n, 1): 0}
            turned = 0
            for start, end in arcs:
                if 1 <= end <= n:
                    down[end - 1] = True
                if end == 0:
                    N[(0, pty(start))] += 1
                elif start == n + 1:
                    N[(n, pty(n + 1 - end))] += 1
                elif 1 <= end < start <= n:
                    turned += 1
            turned += N[(0, 0)] + N[(n, 0)]
            if limit:
                w = 1.0 if turned == 0 and not any(N.values()) else 0.0
            else:
                w = (-k) ** (-turned)
                for j in (0, n):
                    w *= (-params.kappa_j(j)) ** (N[(j, 0)] - N[(j, 1)])
                    w *= psi[j] ** (N[(j, 0)] + N[(j, 1)])
            row = int("".join("1" if d else "0" for d in down), 2)
            mat[row, col] += pref * w
    return mat


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_intertwiner_matches_the_orientation_sum(n, seed):
    params = sample_generic(seed=seed, n=n)
    psi = intertwiner_Psi(params)
    oracle = _psi_by_orientations(params)
    assert np.abs(psi - oracle).max() <= 1e-13 * np.abs(oracle).max()
    assert np.array_equal(
        intertwiner_Psi(params, limit=True), _psi_by_orientations(params, limit=True)
    )
