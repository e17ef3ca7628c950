"""Boundary matchings, the diagram action on them, and the change of basis
to the chain."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Matching,
    _apply_generator,
    _kron_embed,
    boundary_arc_counts,
    enumerate_matchings,
    generator_table_by_rules,
    psi_by_columns,
    residuals,
    sample_generic,
    validate_by_rules,
)
from heckespin.matchings import (
    intertwiner_Psi,
    m_constants,
    matchmaker_betas,
    matchmaker_matrix,
    partners,
    pty,
)
from heckespin.numerics import GenericityError
from heckespin.spinrep import TLParams, build_spin_rep, check_tl_relations, delta_from_kappa

signs = st.lists(st.sampled_from([1, -1]), min_size=1, max_size=7)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_count(n):
    # matchings biject with sign strings
    assert len(enumerate_matchings(n)) == 2**n == len(partners(n))


@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_the_partner_array_matches_the_oracle(alpha):
    """Row k of partners(n), k the sign string with - as 1 read as a binary
    number, holds the oracle matching's partner of every inner site."""
    n = len(alpha)
    k = int("".join("1" if a < 0 else "0" for a in alpha), 2)
    oracle = Matching.from_signs(n, alpha)
    assert partners(n)[k, 1:].tolist() == [oracle.partner(i) for i in range(1, n + 1)]


@given(signs)
@settings(max_examples=60, deadline=None)
def test_sign_string_roundtrip(alpha):
    n = len(alpha)
    p = Matching.from_signs(n, alpha)
    assert p.nu() == tuple(alpha)


def test_noncrossing_validation_rejects_crossings():
    with pytest.raises(ValueError):
        Matching.make(3, [(1, 3), (2, 4)]).validate()


def accepts(check, p):
    try:
        check(p)
    except ValueError:
        return False
    return True


@st.composite
def pair_sets(draw):
    """n <= 6 and a set of pairs on sites 0..n+1: a matching's pairs, or
    none, with up to four pairs toggled."""
    n = draw(st.integers(1, 6))
    base = set()
    if draw(st.booleans()):
        alpha = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        base = set(Matching.from_signs(n, alpha).pairs)
    every = [(a, b) for a in range(n + 2) for b in range(a + 1, n + 2)]
    return n, base ^ draw(st.sets(st.sampled_from(every), max_size=4))


@given(pair_sets())
@settings(max_examples=200, deadline=None)
def test_the_round_trip_accepts_what_the_rules_accept(case):
    n, pairs = case
    p = Matching(n, tuple(sorted(pairs)))
    assert accepts(Matching.validate, p) == accepts(validate_by_rules, p)


@pytest.mark.parametrize("n,pairs,valid", [
    (3, [(0, 1), (0, 2), (3, 4)], True),
    (3, [(1, 3), (2, 4)], False),            # a crossing
    (3, [(0, 1), (1, 2), (3, 4)], False),    # site 1 matched twice
    (3, [(1, 2)], False),                    # site 3 unmatched
    (2, [(0, 3), (1, 2)], False),            # the pair (0, n+1)
    (2, [(0, 1), (2, 4)], False),            # site 4 out of range
    (2, [(-1, 1), (2, 3)], False),           # site -1 out of range
])
def test_explicit_matchings_meet_both_validators(n, pairs, valid):
    p = Matching(n, tuple(sorted(pairs)))
    assert accepts(Matching.validate, p) is valid
    assert accepts(validate_by_rules, p) is valid


@pytest.mark.parametrize("n", range(1, 9))
def test_every_generator_image_passes_the_rules(n):
    for j in range(n + 1):
        for p in enumerate_matchings(n):
            validate_by_rules(_apply_generator(j, p, n)[0])


@pytest.mark.parametrize("n", range(1, 9))
def test_the_generator_table_matches_the_oracle(n):
    """Each e_j from the partner array moves every column to the oracle's
    image and weighs it by the oracle's weight, told apart by distinct
    values."""
    value = {"one": 1, "delta0": 2, "delta": 3, "deltan": 5, "beta0": 7, "beta1": 11}
    for j, (index, names) in generator_table_by_rules(n).items():
        e = matchmaker_matrix(j, TLParams(delta0=2, delta=3, deltan=5), 7, 11, n)
        assert np.array_equal(e.index, index)
        assert np.array_equal(e.weight, [value[w] for w in names])


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
    assert max(residuals(check_tl_relations(mats, tl, n)).values()) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intertwiner_commutes_and_is_invertible(n):
    params = sample_generic(seed=1, n=n)
    tl = delta_from_kappa(params)
    b0, b1 = matchmaker_betas(params)
    rep = build_spin_rep(params)
    psi = intertwiner_Psi(params)
    for j in range(n + 1):
        lhs = _kron_embed(*rep.e[j], n) @ psi
        rhs = psi @ (matchmaker_matrix(j, tl, b0, b1, n) @ np.eye(2**n))
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


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_intertwiner_is_bitwise_the_column_loop(n, seed):
    params = sample_generic(seed=seed, n=n)
    for limit in (False, True):
        assert np.array_equal(intertwiner_Psi(params, limit), psi_by_columns(params, limit))


def _psi_by_orientations(params, limit=False):
    """Oracle: Psi as the sum over all 2^#arcs orientations of each matching,
    each weighted by its counters of turned-around arcs."""
    n, k = params.n, params.kappa
    M = m_constants(params)
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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_vanishing_parity_factor_is_a_genericity_error(n):
    """M_{n,1} = 1/f_n with f_n = 1 + kappa0/kappan psi0 psin (n odd) or
    1 - kappa0 kappan/kappa psi0 psin (n even): at psin where f_n = 0 the
    boundary weights and the intertwiner refuse with a GenericityError
    naming the point."""
    p = sample_generic(seed=6, n=n)
    k, k0, kn = p.kappa, p.kappa0, p.kappan
    bad = p.replace(psin=(-kn / k0 if n % 2 else k / (k0 * kn)) / p.psi0)
    for refused in (m_constants, intertwiner_Psi):
        with pytest.raises(GenericityError, match="psi0 psin vanishes") as err:
            refused(bad)
        assert err.value.point == bad
