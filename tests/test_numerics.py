"""Laurent-polynomial arithmetic, parameter sampling, and error types."""

import cmath
import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DictPoly, Residuals, divided_difference, laurent_mul, s_j, sample_generic, to_table
from heckespin.koornwinder import compute_P_detail, label_polynomials
from heckespin.numerics import (
    GenericityError,
    InternalDefectError,
    LaurentPoly,
    ParamSet,
    eta,
    gamma_vectors,
    generic_draws,
    l1_ball,
    max_abs,
    nonvanishing,
    rel_residual,
    stream,
)

# small integer coefficients keep ring-axiom checks exact in floating point
coeffs = st.integers(min_value=-4, max_value=4)
exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def polys(n_vars=2):
    return st.dictionaries(exps, coeffs, max_size=4).map(
        lambda d: DictPoly(n_vars, {e: complex(c) for e, c in d.items() if c})
    )


def _is_zero(p: DictPoly) -> bool:
    return p.max_abs() == 0.0


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert _is_zero((a + b) + c + ((a + (b + c)).scale(-1)))
    assert _is_zero(laurent_mul(a, b) + laurent_mul(b, a).scale(-1))
    assert _is_zero(laurent_mul(a, b + c) + (laurent_mul(a, b) + laurent_mul(a, c)).scale(-1))


@given(polys())
@settings(max_examples=30, deadline=None)
def test_sign_flip_is_an_involution(p):
    q = 1.37 + 0.2j
    # the inversion and swap actions permute monomials exactly; the affine
    # one multiplies by powers of q and only returns up to rounding
    n = p.n_vars
    assert _is_zero(s_j(s_j(p, n, q), n, q) + p.scale(-1))
    doubled = s_j(s_j(p, 0, q), 0, q) + p.scale(-1)
    assert doubled.max_abs() < 1e-12 * (1.0 + p.max_abs())
    if p.n_vars >= 2:
        assert _is_zero(s_j(s_j(p, 1, q), 1, q) + p.scale(-1))


def test_eval_matches_terms():
    p = LaurentPoly([(2, -1), (0, 0)], [3.0, -1.5])
    t = (0.7 + 0.1j, 1.2 - 0.3j)
    expected = 3.0 * t[0] ** 2 / t[1] - 1.5
    assert abs(p([t])[0, 0] - expected) < 1e-14
    # an integer point takes the negative power, and a rational one stays exact
    assert p([(2, 4)])[0, 0] == 1.5
    exact = LaurentPoly(p.exps, [Fraction(3), Fraction(-3, 2)])
    value = exact([(Fraction(1, 2), Fraction(3))])[0, 0]
    assert isinstance(value, Fraction) and value == Fraction(-5, 4)


def _eval_by_terms(poly, point):
    """Reference: the term-by-term sum of c * prod t_k**e_k."""
    total = 0j
    for exp, c in poly.terms.items():
        v = c
        for t, e in zip(point, exp):
            v *= t**e
        total += v
    return total


@st.composite
def tables(draw):
    n = draw(st.integers(1, 3))
    exp = st.tuples(*[st.integers(-6, 6)] * n)
    coeff = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.dictionaries(exp, coeff, max_size=8), min_size=1, max_size=5))
    modulus = st.floats(0.5, 2.0)
    phase = st.floats(0.0, 2 * math.pi)
    points = draw(st.lists(
        st.lists(st.builds(cmath.rect, modulus, phase), min_size=n, max_size=n),
        min_size=1, max_size=6,
    ))
    return [DictPoly(n, d) for d in rows], n, [tuple(t) for t in points]


@given(tables())
@settings(max_examples=80, deadline=None)
def test_table_evaluation_matches_the_term_loop(case):
    polys_, n, points = case
    vals = to_table(polys_, n)(points)
    assert vals.shape == (len(polys_), len(points))
    for r, poly in enumerate(polys_):
        for k, t in enumerate(points):
            ref = _eval_by_terms(poly, t)
            size = sum(abs(c) * math.prod(abs(x) ** e for x, e in zip(t, exp))
                       for exp, c in poly.terms.items())
            assert abs(vals[r, k] - ref) <= 2e-14 * max(size, 1e-300), (r, k)
            one = poly.eval(t)
            assert type(one) is complex and abs(one - ref) <= 2e-14 * max(size, 1e-300)


def test_evaluation_matches_a_60_digit_reference():
    """Complex evaluation against the terms summed in 60-digit mpmath; a
    table with no terms evaluates to 0."""
    import mpmath

    p = LaurentPoly([(2, -1), (0, 0), (-3, 2)], [3.0 + 1j, -1.5, 0.25j])
    t = (0.7 + 0.1j, 1.2 - 0.3j)
    with mpmath.workdps(60):
        ref = complex(mpmath.fsum(
            mpmath.mpc(c) * mpmath.mpc(t[0]) ** e[0] * mpmath.mpc(t[1]) ** e[1]
            for e, c in zip(p.exps.tolist(), p.coeffs[0].tolist())
        ))
    assert abs(p([t])[0, 0] - ref) < 1e-14 * abs(ref)
    assert LaurentPoly(np.zeros((0, 2)), [[]])([t])[0, 0] == 0


def test_table_arity_mismatch_is_an_internal_defect():
    f = LaurentPoly([(1, -1)], [1.0])
    with pytest.raises(InternalDefectError, match="point arity mismatch"):
        f([(1.0, 2.0, 3.0)])
    with pytest.raises(InternalDefectError, match="do not match the exponent table"):
        LaurentPoly([(1, -1)], [[1.0, 2.0]])


def test_serialization_roundtrip():
    p = LaurentPoly([(1, 0, -2), (0, 0, 0), (2, 1, 0)], [[2.5 + 1j, -0.5, 0], [0, 1j, 3.0]])
    q = LaurentPoly.from_dicts(p.to_dicts())
    assert q.to_dicts() == p.to_dicts()
    # one dict per row, sorted nonzero terms, json-serializable as-is
    assert [[t["exp"] for t in d["terms"]] for d in p.to_dicts()] == [
        [[0, 0, 0], [1, 0, -2]], [[0, 0, 0], [2, 1, 0]]]
    json.dumps(p.to_dicts())


def test_divided_difference_kills_symmetric_input():
    params = sample_generic(seed=3, n=2)
    sym = DictPoly(2, {(1, 1): 1.0, (0, 0): 2.0})  # s_1-symmetric
    out = divided_difference(sym, 1, params)
    assert out.max_abs() < 1e-12


def test_divided_difference_of_a_monomial():
    p = ParamSet(n=1, q_sqrt=1.2, kappa0=0.7, kappa=1.1, kappan=0.9,
                 upsilon0=1.3, upsilonn=0.8, psi0=1.0, psin=1.0,
                 kappa_sqrt=1.1**0.5)
    g = divided_difference(DictPoly.monomial(1, (1,)), 1, p)
    assert g.terms == {(-1,): 1 + 0j}


def test_eta_step():
    assert eta(3) == 1 and eta(1) == 1
    assert eta(0) == -1 and eta(-2) == -1


def test_l1_ball_counts():
    assert len(l1_ball(1, 2)) == 5
    # 1 + 4 + 8 = |l1 ball of radius 2 in Z^2|
    assert len(l1_ball(2, 2)) == 13


@given(st.integers(1, 5), st.integers(-1, 5))
@settings(max_examples=40, deadline=None)
def test_l1_ball_is_sorted_complete_and_counted(n, radius):
    ball = l1_ball(n, radius)
    assert list(ball) == sorted(set(ball))
    assert all(len(mu) == n and sum(abs(e) for e in mu) <= radius for mu in ball)
    # choose the k nonzero coordinates, their signs, and absolute values
    # summing to at most radius (C(radius, k) compositions with slack)
    expect = sum(2**k * math.comb(n, k) * math.comb(radius, k)
                 for k in range(n + 1)) if radius >= 0 else 0
    assert len(ball) == expect


def test_l1_ball_is_the_sorted_filtered_cube_built_in_one_call():
    """The vectors of the cube [-r, r]^n within the l1 radius, sorted, for
    n <= 4 and r <= 4, a negative r and n = 0; one call makes one cache
    entry, so a traced run counts it once."""
    for n in range(5):
        for r in range(-2, 5):
            want = sorted(v for v in product(range(-r, r + 1), repeat=n) if sum(map(abs, v)) <= r)
            assert list(l1_ball(n, r)) == want
    l1_ball.cache_clear()
    l1_ball(3, 4)
    info = l1_ball.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 0, 1)


def _gamma_scalar(lam, params):
    """Reference spectral vector, one weight at a time."""
    n = params.n
    k0n = params.kappa0 * params.kappan
    out = []
    for i in range(n):
        s = 0
        for j in range(n):
            if j == i:
                continue
            if j < i:
                s += eta(lam[j] - lam[i])
            else:
                s -= eta(lam[i] - lam[j])
            s -= eta(lam[i] + lam[j])
        out.append(params.q ** lam[i] * k0n ** (-eta(lam[i])) * params.kappa**s)
    return tuple(out)


def _gamma_distinct_all_pairs(params, radius=4, gap=1e-6):
    """False iff two weights of l1-degree <= radius have spectral vectors
    within gap of each other in every coordinate."""
    gam = np.array([_gamma_scalar(lam, params) for lam in l1_ball(params.n, radius)])
    dist = np.max(np.abs(gam[:, None, :] - gam[None, :, :]), axis=2)
    np.fill_diagonal(dist, np.inf)
    return bool(dist.min() > gap)


def _raw_draw(rng, n, m=None):
    """The next draw of the raw stream (numerics.stream): eight moduli
    uniform in [0.6, 1.6], then eight phases uniform in [0, 2 pi), one scalar
    at a time, with psin solved for the compatibility of degree m."""
    mod = [rng.uniform(0.6, 1.6) for _ in range(8)]
    q_sqrt, k0, k, kn, u0, un, p0, pn = (r * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for r in mod)
    if m is not None:
        pn = (k0 * kn * k ** (n - 1)) ** eta(m) / (p0 * (q_sqrt**2) ** m)
    return ParamSet(n=n, q_sqrt=q_sqrt, kappa0=k0, kappa=k, kappan=kn,
                    upsilon0=u0, upsilonn=un, psi0=p0, psin=pn,
                    kappa_sqrt=cmath.sqrt(k))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batched_spectral_vectors_equal_the_scalar_formula(n):
    p = sample_generic(seed=20 + n, n=n)
    lams = l1_ball(n, 3)
    # the same scalar products in the same order: equal to the last bit
    assert [tuple(row) for row in gamma_vectors(lams, p).tolist()] == [
        _gamma_scalar(lam, p) for lam in lams]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gamma_screen_matches_the_all_pairs_oracle(n):
    """The screen of spectral collisions is the polynomial layer's own guard
    (koornwinder._degree_polynomials).  At clean raw draws the all-pairs oracle
    finds no collision among the weights of degree <= 4 and the guard lets
    every label of degree <= 4 through; where the oracle finds one, the
    guard refuses its label with a GenericityError naming the point.  The
    layer checks no rank cap (the commands do), so at n = 4 the guard
    answers."""

    def labels(r):
        return [lam for lam in l1_ball(n, r) if sum(map(abs, lam)) == r]

    rng = stream(100 + n)
    for _ in range(6):
        p = _raw_draw(rng, n)
        assert _gamma_distinct_all_pairs(p)
        for r in range(5):
            label_polynomials(labels(r), p)
    # negative control: with q a root of unity of order k <= 3, (1, 0, ...)
    # and (1 + k, 0, ...) share a spectral vector; the oracle and the guard
    # must both see it
    for order in (1, 2, 3):
        p = _raw_draw(rng, n).replace(q_sqrt=cmath.exp(1j * math.pi / order))
        assert not _gamma_distinct_all_pairs(p)
        lam = (1 + order,) + (0,) * (n - 1)
        for refused in (lambda: compute_P_detail(lam, p), lambda: label_polynomials(labels(1 + order), p)):
            with pytest.raises(GenericityError, match="non-generic spectrum") as err:
                refused()
            assert err.value.point == p


@pytest.mark.parametrize("m", [None, -1, 0, 1])
def test_sample_generic_is_the_first_raw_draw_in_the_q_band(m):
    """No screen beyond the |q| band: for seeds 1-200 and n = 1..6 the first
    point of generic_draws (the tests' sample_generic) is the first draw of
    the seed's raw stream of sixteen uniforms per draw with |q| at least
    0.05 away from 1, with psin solved for m."""
    for n in range(1, 7):
        for seed in range(1, 201):
            rng = stream(seed)
            while abs(abs((p := _raw_draw(rng, n, m)).q) - 1) < 0.05:
                pass
            assert next(generic_draws(seed, n, m)) == p


def test_generic_draws_run_through_the_stream_and_give_up_after_64_draws():
    """The draws of a seed's stream in the |q| band, in draw order; a
    GenericityError naming no point once the 64 draws of a seed are spent."""
    rng, draws = stream(3), []
    for _ in range(64):
        p = _raw_draw(rng, 2)
        if abs(abs(p.q) - 1) >= 0.05:
            draws.append(p)
    points = generic_draws(3, 2)
    assert [next(points) for _ in draws] == draws
    with pytest.raises(GenericityError, match="no generic parameter point for seed=3, n=2") as err:
        next(points)
    assert err.value.point is None


def test_a_vanishing_parameter_denominator_names_its_point():
    """nonvanishing returns the sum, and refuses a sum that is 0 or below
    1e-6 of sum |terms| with a GenericityError naming the point; a NaN sum
    passes, so that the rows it reaches fail."""
    p = sample_generic(seed=1, n=2)
    assert nonvanishing((1, 2j), p, "d") == 1 + 2j
    assert nonvanishing((1, -(1 - 2e-6)), p, "d") == 1 - (1 - 2e-6)
    for terms in [(1, -1), (1, -(1 - 5e-7)), (0.0, 0.0), (1e-300, -1e-300)]:
        with pytest.raises(GenericityError, match="d vanishes at this parameter point") as err:
            nonvanishing(terms, p, "d")
        assert err.value.point == p
    total = nonvanishing((float("inf"), -float("inf")), p, "d")
    assert total != total


def test_sample_generic_is_deterministic_and_constrained():
    """The first point of generic_draws (the tests' sample_generic)."""
    a = next(generic_draws(5, 2))
    b = next(generic_draws(5, 2))
    assert a.fingerprint() == b.fingerprint()
    c = next(generic_draws(5, 2, 1))
    lhs = c.psi0 * c.psin * c.q
    rhs = c.kappa0 * c.kappan * c.kappa
    assert abs(lhs - rhs) < 1e-12


def test_paramset_roundtrip_preserves_fingerprint():
    p = sample_generic(seed=9, n=3)
    q = ParamSet.from_dict(p.to_dict())
    assert p.fingerprint() == q.fingerprint()


def test_the_fingerprint_is_hashlib_sha256_of_the_sorted_parameter_text():
    """The interpreter's own SHA-256 that fingerprint takes gives hashlib's
    digest, so a point keeps its fingerprint."""
    import hashlib

    points = [sample_generic(seed=seed, n=n, mcondition=m) for seed, n, m in
              ((1, 1, None), (2, 2, -1), (8, 3, 0), (40, 6, 1))]
    points.append(points[1].replace(kappa0=3e-7 - 2e-9j, psin=-1.5e12j))
    for p in points:
        text = json.dumps(p.to_dict(), sort_keys=True, separators=(",", ":"))
        assert p.fingerprint() == hashlib.sha256(text.encode()).hexdigest()


def test_rel_residual_scales():
    a = np.eye(3) * 1e6
    assert rel_residual(a, a) == 0.0
    assert rel_residual(a, a * (1 + 1e-10)) < 1e-9


def test_max_abs_reads_0_when_empty_and_nan_through_a_nan():
    """max|a| from 0.0: an empty array reads 0.0, and a NaN anywhere, even
    beside an inf, reads NaN."""
    assert max_abs(np.zeros((0, 3), dtype=complex)) == 0.0
    assert max_abs([]) == 0.0
    assert max_abs([-2.0, 1j]) == 2.0
    for a in ([np.nan], [1.0, np.nan, 3.0], [np.inf, complex(np.nan, 0.0)]):
        assert np.isnan(max_abs(np.array(a)))


def test_a_nan_point_keeps_a_stacked_residual_nan():
    """Over a stack, a NaN at one point gives a NaN residual (never inf or a
    neighbour's value), as the one-point residual at that point does."""
    a = np.stack([np.eye(2), 2 * np.eye(2), np.eye(2)])
    b = a.copy()
    b[1, 0, 0] = np.nan
    assert rel_residual(a, a) == 0.0
    for r in (rel_residual(a, b), rel_residual(a[1], b[1]), rel_residual(b, b)):
        assert r != r


def test_genericity_error_is_raisable():
    with pytest.raises(GenericityError):
        raise GenericityError("synthetic")


def test_residuals_keep_the_largest_value_and_any_nan():
    """The fold of the per-sample oracles (conftest.Residuals)."""
    nan = float("nan")
    res = Residuals()
    for key, values in {"plain": [1e-16, 3e-15, 2e-15], "nan first": [nan, 1.0],
                        "nan last": [1.0, nan], "nan between": [1e-16, nan, 1e-15]}.items():
        for v in values:
            res.add(key, v)
    assert res["plain"] == 3e-15
    assert all(res[k] != res[k] for k in ("nan first", "nan last", "nan between"))
