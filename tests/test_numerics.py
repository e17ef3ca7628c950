"""Laurent-polynomial arithmetic, parameter sampling, and error types."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckespin.numerics import (
    _GAMMA_DEGREE,
    _GAMMA_GAP,
    GenericityError,
    InternalDefectError,
    LaurentPoly,
    LaurentTable,
    ParamSet,
    PoleProximityError,
    _gamma_distinct,
    _gamma_vectors,
    divided_difference,
    eta,
    l1_ball,
    pole_free,
    rel_residual,
    sample_generic,
)

# small integer coefficients keep ring-axiom checks exact in floating point
coeffs = st.integers(min_value=-4, max_value=4)
exps = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


def polys(n_vars=2):
    return st.dictionaries(exps, coeffs, max_size=4).map(
        lambda d: LaurentPoly(n_vars, {e: complex(c) for e, c in d.items() if c})
    )


def _is_zero(p: LaurentPoly) -> bool:
    return p.max_abs() == 0.0


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert _is_zero((a + b) + c + ((a + (b + c)).scale(-1)))
    assert _is_zero(a * b + (b * a).scale(-1))
    assert _is_zero(a * (b + c) + (a * b + a * c).scale(-1))


@given(polys())
@settings(max_examples=30, deadline=None)
def test_sign_flip_is_an_involution(p):
    q = 1.37 + 0.2j
    # the inversion and swap actions permute monomials exactly; the affine
    # one multiplies by powers of q and only returns up to rounding
    assert _is_zero(p.act_sn().act_sn() + p.scale(-1))
    doubled = p.act_sj(0, q).act_sj(0, q) + p.scale(-1)
    assert doubled.max_abs() < 1e-12 * (1.0 + p.max_abs())
    if p.n_vars >= 2:
        assert _is_zero(p.act_sj(1, q).act_sj(1, q) + p.scale(-1))


def test_eval_matches_terms():
    p = LaurentPoly(2, {(2, -1): 3.0, (0, 0): -1.5})
    t = (0.7 + 0.1j, 1.2 - 0.3j)
    expected = 3.0 * t[0] ** 2 / t[1] - 1.5
    assert abs(p.eval(t) - expected) < 1e-14


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
    return [LaurentPoly(n, d) for d in rows], n, [tuple(t) for t in points]


@given(tables())
@settings(max_examples=80, deadline=None)
def test_table_evaluation_matches_the_term_loop(case):
    polys_, n, points = case
    vals = LaurentTable(polys_, n)(points)
    assert vals.shape == (len(polys_), len(points))
    for r, poly in enumerate(polys_):
        for k, t in enumerate(points):
            ref = _eval_by_terms(poly, t)
            size = sum(abs(c) * math.prod(abs(x) ** e for x, e in zip(t, exp))
                       for exp, c in poly.terms.items())
            assert abs(vals[r, k] - ref) <= 2e-14 * max(size, 1e-300), (r, k)
            one = poly.eval(t)
            assert type(one) is complex and abs(one - ref) <= 2e-14 * max(size, 1e-300)


def test_extended_precision_evaluation_uses_the_same_table():
    import mpmath

    p = LaurentPoly(2, {(2, -1): 3.0 + 1j, (0, 0): -1.5, (-3, 2): 0.25j})
    t = (0.7 + 0.1j, 1.2 - 0.3j)
    with mpmath.workdps(60):
        ref = mpmath.fsum(
            mpmath.mpc(c) * mpmath.mpc(t[0]) ** e[0] * mpmath.mpc(t[1]) ** e[1]
            for e, c in p.terms.items()
        )
        got = p.eval_mp(t, digits=60)
        assert isinstance(got, mpmath.mpc)
        assert abs(got - ref) < mpmath.mpf(10) ** -55 * abs(ref)
        assert LaurentPoly.zero(2).eval_mp(t) == 0
    assert abs(complex(got) - p.eval(t)) < 1e-14 * abs(complex(ref))


def test_table_arity_mismatch_is_an_internal_defect():
    f = LaurentPoly(2, {(1, -1): 1.0})
    with pytest.raises(InternalDefectError, match="point arity mismatch"):
        f.eval((1.0, 2.0, 3.0))
    with pytest.raises(InternalDefectError, match="arity mismatch"):
        LaurentTable([f, LaurentPoly.one(3)], 2)


def test_serialization_roundtrip():
    p = LaurentPoly(3, {(1, 0, -2): 2.5 + 1j, (0, 0, 0): -0.5})
    q = LaurentPoly.from_dict(p.to_dict())
    assert _is_zero(p + q.scale(-1))
    # dict form is json-serializable as-is
    json.dumps(p.to_dict())


def test_divided_difference_kills_symmetric_input():
    params = sample_generic(seed=3, n=2)
    sym = LaurentPoly(2, {(1, 1): 1.0, (0, 0): 2.0})  # s_1-symmetric
    out = divided_difference(sym, 1, params)
    assert out.max_abs() < 1e-12


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
    assert ball == sorted(set(ball))
    assert all(len(mu) == n and sum(abs(e) for e in mu) <= radius for mu in ball)
    # choose the k nonzero coordinates, their signs, and absolute values
    # summing to at most radius (C(radius, k) compositions with slack)
    expect = sum(2**k * math.comb(n, k) * math.comb(radius, k)
                 for k in range(n + 1)) if radius >= 0 else 0
    assert len(ball) == expect


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


def _gamma_distinct_all_pairs(params):
    gam = np.array([_gamma_scalar(lam, params)
                    for lam in l1_ball(params.n, _GAMMA_DEGREE)])
    dist = np.max(np.abs(gam[:, None, :] - gam[None, :, :]), axis=2)
    np.fill_diagonal(dist, np.inf)
    return bool(dist.min() > _GAMMA_GAP)


def _raw_draw(rng, n):
    z = rng.uniform(0.6, 1.6, size=8) * np.exp(1j * rng.uniform(0, 2 * math.pi, 8))
    q_sqrt, k0, k, kn, u0, un, p0, pn = map(complex, z)
    return ParamSet(n=n, q_sqrt=q_sqrt, kappa0=k0, kappa=k, kappan=kn,
                    upsilon0=u0, upsilonn=un, psi0=p0, psin=pn,
                    kappa_sqrt=cmath.sqrt(k))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batched_spectral_vectors_equal_the_scalar_formula(n):
    p = sample_generic(seed=20 + n, n=n)
    lams = l1_ball(n, 3)
    # the same scalar products in the same order: equal to the last bit
    assert _gamma_vectors(lams, p) == [_gamma_scalar(lam, p) for lam in lams]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gamma_screen_matches_the_all_pairs_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(6):
        p = _raw_draw(rng, n)
        assert _gamma_distinct(p) == _gamma_distinct_all_pairs(p)
    # negative control: with q a root of unity of order k <= 3, (1, 0, ...)
    # and (1 + k, 0, ...) share a spectral vector; both screens must see it
    for order in (1, 2, 3):
        p = _raw_draw(rng, n).replace(q_sqrt=cmath.exp(1j * math.pi / order))
        assert not _gamma_distinct_all_pairs(p)
        assert not _gamma_distinct(p)


def test_sample_generic_is_deterministic_and_constrained():
    a = sample_generic(seed=5, n=2)
    b = sample_generic(seed=5, n=2)
    assert a.fingerprint() == b.fingerprint()
    c = sample_generic(seed=5, n=2, mcondition=1)
    lhs = c.psi0 * c.psin * c.q
    rhs = c.kappa0 * c.kappan * c.kappa
    assert abs(lhs - rhs) < 1e-12


def test_paramset_roundtrip_preserves_fingerprint():
    p = sample_generic(seed=9, n=3)
    q = ParamSet.from_dict(p.to_dict())
    assert p.fingerprint() == q.fingerprint()


def test_rel_residual_scales():
    a = np.eye(3) * 1e6
    assert rel_residual(a, a) == 0.0
    assert rel_residual(a, a * (1 + 1e-10)) < 1e-9


def test_genericity_error_is_raisable():
    with pytest.raises(GenericityError):
        raise GenericityError("synthetic")


def _scripted(outcomes, log):
    """A sample() that returns or raises the next outcome, logging each call."""
    it = iter(outcomes)

    def sample():
        value = next(it)
        log.append(value)
        if value is None:
            raise PoleProximityError("evaluation at a pole")
        return value

    return sample


def test_pole_free_drops_attempts_at_poles_and_gives_up_after_count_plus_40():
    log = []
    assert pole_free(_scripted([1, None, 2, None, None, 3, 4, 5], log), 4) == [1, 2, 3, 4]
    assert log == [1, None, 2, None, None, 3, 4]  # no attempt after the count is met
    log = []
    assert pole_free(_scripted([None] * 40 + [7], log), 1) == [7]
    assert len(log) == 41
    log = []
    with pytest.raises(GenericityError, match="pole-free"):
        pole_free(_scripted([None] * 41 + [7], log), 1)
    assert len(log) == 41
    assert pole_free(_scripted([], []), 0) == []
