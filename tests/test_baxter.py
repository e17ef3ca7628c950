"""Spectral-parameter dressing: rational matrix families, their defining
identities, and the translation transport."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import heckespin.baxter
import heckespin.commands
import heckespin.qkz
import heckespin.spinrep
import heckespin.tensorops
import heckespin.transfer
from conftest import DictPoly, _kron_embed, explicit_rkk, letter_factor, to_table, transport_factors, ybe_per_sample
from heckespin.baxter import _horner, baxter_j, check_ybe_re, cocycle_factors, dressed_blocks
from heckespin.numerics import (
    GenericityError,
    PoleProximityError,
    rel_residual,
    sample_generic,
    stream,
    torus_point,
)
from heckespin.qkz import KZSolution, verify_solution
from heckespin.tensorops import PERMUTE_TWO, factor_product
from heckespin.transfer import check_transfer_vs_transport
from heckespin.weyl import WeylElem, act_point, reduced_word, tau_word


def test_identity_battery(params2):
    res = check_ybe_re(params2, samples=10, seed=1)
    control = res.pop("negative control perturbed reflection")
    assert max(res.values()) < 1e-10
    assert control > 1e-3


def test_pole_guard_raises(params2):
    x_pole = 1.0 / params2.kappa**2
    with pytest.raises(PoleProximityError):
        baxter_j(params2, 1, x_pole)


def test_unit_argument_gives_identity(params2):
    for j in (1, 0, params2.n):
        block, _legs = baxter_j(params2, j, 1.0)
        assert rel_residual(block, np.eye(len(block))) < 1e-12


def test_boundary_matrix_is_unit_at_minus_one(params2):
    kbar, _r, k = dressed_blocks(params2)
    assert rel_residual(k(-1.0), np.eye(2)) < 1e-12
    assert rel_residual(kbar(-1.0), np.eye(2)) < 1e-12


def test_explicit_blocks_match_dressed_generators():
    """The hand-written closed forms against the Baxterized generator blocks
    at n = 2, 3, 6: kbar and k exactly, r P at rounding level, values and
    derivatives."""
    for n, seed in itertools.product((2, 3, 6), (1, 2, 3)):
        p = sample_generic(seed=seed, n=n)
        ex = explicit_rkk(p)
        kbar, r, k = dressed_blocks(p)
        for x in (0.73 + 0.21j, -1.3 + 0.4j, 0.0):
            for want, got in ((ex.kbar, kbar), (ex.k, k)):
                assert np.array_equal(want(x), got(x))
                assert np.array_equal(want.deriv(x), got.deriv(x))
            assert rel_residual(ex.r(x) @ PERMUTE_TWO, r(x)) < 1e-15
            assert rel_residual(ex.r.deriv(x) @ PERMUTE_TWO, r.deriv(x)) < 1e-15
        legs = [baxter_j(p, j, 0.5)[1] for j in range(n + 1)]
        assert legs == [[1]] + [[j, j + 1] for j in range(1, n)] + [[n]]


def test_rational_matrix_derivative_matches_finite_differences(params2):
    kbar, r, _k = dressed_blocks(params2)
    x = 0.81 + 0.13j
    h = 1e-6
    fd = (r(x + h) - r(x - h)) / (2 * h)
    assert rel_residual(r.deriv(x), fd) < 1e-7
    fd = (kbar(x + h) - kbar(x - h)) / (2 * h)
    assert rel_residual(kbar.deriv(x), fd) < 1e-7


def test_rational_matrix_evaluates_at_mpmath_points(params2):
    import mpmath

    kbar, r, _k = dressed_blocks(params2)
    x = 0.81 + 0.13j
    with mpmath.workdps(40):
        val = kbar(mpmath.mpc(x))
        der = r.deriv(mpmath.mpc(x))
    assert all(isinstance(z, mpmath.mpc) for z in val.ravel())
    assert all(isinstance(z, mpmath.mpc) for z in der.ravel())
    assert rel_residual(kbar(x), val.astype(complex)) < 1e-14
    assert rel_residual(r.deriv(x), der.astype(complex)) < 1e-14


def _dense(p, factors):
    """Oracle: the left-to-right product of (block, legs) factors, each
    embedded into the full space first."""
    out = np.eye(2**p.n, dtype=complex)
    for block, legs in factors:
        out = out @ _kron_embed(block, legs, p.n)
    return out


def _cocycle(p, word, t):
    """The dense cocycle along a word: its factor list on the identity."""
    return factor_product(cocycle_factors(p, word, t), p.n)


def _cocycle_along(p, word, t):
    """Oracle: the cocycle along a word as a dense product of embedded
    dressed blocks, one per letter at the running point."""
    factors = []
    pt = tuple(t)
    for a in word:
        factors.append(letter_factor(p, a, pt))
        pt = act_point(WeylElem.generator(a, p.n), pt, p)
    return _dense(p, factors)


def test_cocycle_respects_words(params2, rng):
    n = params2.n
    done = 0
    while done < 10:
        word = [rng.randrange(0, n + 1) for _ in range(rng.randrange(1, 7))]
        elem = functools.reduce(
            lambda w, a: w * WeylElem.generator(a, n), word, WeylElem.identity(n)
        )
        t = torus_point(rng, n, (0.7, 1.3))
        try:
            along_word = _cocycle_along(params2, word, t)
            canonical = _cocycle(params2, reduced_word(elem), t)
        except PoleProximityError:
            continue
        assert rel_residual(along_word, canonical) < 1e-9
        done += 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cocycle_and_transport_match_dense_products(n):
    p = sample_generic(seed=n, n=n)
    rng = stream(n)
    for _ in range(3):
        t = torus_point(rng, n, (0.8, 1.25))
        word = [rng.randrange(0, n + 1) for _ in range(6)]
        assert rel_residual(_cocycle(p, word, t), _cocycle_along(p, word, t)) < 1e-12
        for i in range(1, n + 1):
            transport = _cocycle(p, tau_word(i, n), t)
            assert rel_residual(transport, _dense(p, transport_factors(p, i, t))) < 1e-12


def test_transport_is_the_cocycle_of_the_lattice_word():
    """The closed-form transport (the conftest oracle) against the cocycle
    along the reduced word of the translation, at n = 2..6."""
    for n in range(2, 7):
        p = sample_generic(seed=n, n=n)
        t = torus_point(stream(n), n, (0.8, 1.25))
        for i in range(1, n + 1):
            direct = factor_product(transport_factors(p, i, t), n)
            via_word = _cocycle(p, reduced_word(WeylElem.from_word(tau_word(i, n), n)), t)
            assert rel_residual(direct, via_word) < 1e-10


def test_stationary_transport_is_the_cocycle_at_q_one():
    """The stationary specialization of the transfer comparison, the
    cocycle along tau_word at q = 1, against the closed form at q = 1, at
    n = 2..6; the shifted and unshifted transports differ there."""
    for n in range(2, 7):
        p = sample_generic(seed=n, n=n)
        stationary = p.replace(q_sqrt=1)
        t = torus_point(stream(n + 10), n, (0.8, 1.25))
        for i in range(1, n + 1):
            got = _cocycle(stationary, tau_word(i, n), t)
            assert rel_residual(got, factor_product(transport_factors(stationary, i, t), n)) < 1e-10
            assert rel_residual(got, _cocycle(p, tau_word(i, n), t)) > 1e-3


def test_transports_commute_after_shifting(params2):
    p = params2
    q = p.q
    t = (0.88 + 0.2j, 1.07 - 0.15j)
    sh1 = (t[0] / q, t[1])
    sh2 = (t[0], t[1] / q)
    lhs = _cocycle(p, tau_word(1, 2), t) @ _cocycle(p, tau_word(2, 2), sh1)
    rhs = _cocycle(p, tau_word(2, 2), t) @ _cocycle(p, tau_word(1, 2), sh2)
    assert rel_residual(lhs, rhs) < 1e-10


def test_dressed_paths_build_no_spin_rep_and_no_embedding(monkeypatch):
    """Cocycle, transport, identity battery, stationary comparison and
    solution check run on local blocks only."""

    def refuse(*args, **kw):
        raise AssertionError("dense spin representation or embedding")

    for mod in (heckespin.spinrep, heckespin.tensorops, heckespin.baxter,
                heckespin.transfer, heckespin.qkz, heckespin.commands):
        if hasattr(mod, "build_spin_rep"):
            monkeypatch.setattr(mod, "build_spin_rep", refuse)
    p = sample_generic(seed=4, n=4)
    t = (0.91 + 0.2j, 1.1 - 0.1j, 0.95 - 0.3j, 1.2 + 0.05j)
    _cocycle(p, [0, 1, 2, 3, 4, 2], t)
    _cocycle(p, tau_word(2, 4), t)
    check_ybe_re(p, samples=2, seed=1)
    check_transfer_vs_transport(p, samples=1, seed=1)
    comps = to_table([DictPoly.monomial(4, (b % 3 - 1, 0, b % 2, 0), 1 + b) for b in range(16)], 4)
    res = verify_solution(KZSolution(params=p, components=comps), samples=2, seed=1)
    assert len(res) == 2 * 4 + 1


@pytest.mark.parametrize("n", [2, 3, 6])
def test_batched_battery_matches_the_per_sample_oracle(n):
    """All samples at once against one sample at a time: the same keys,
    every row within 1e-13 and the control within 1e-12 relative."""
    for seed in (1, 2, 3):
        p = sample_generic(seed=seed, n=n)
        got, want = check_ybe_re(p, samples=20, seed=seed), ybe_per_sample(p, 20, seed)
        assert sorted(got) == sorted(want)
        key = "negative control perturbed reflection"
        assert abs(got.pop(key) - want[key]) <= 1e-12 * want.pop(key)
        assert max(abs(got[k] - want[k]) for k in want) < 1e-13


def _poles(block):
    return np.roots(block.den[::-1])


def _deriv_cancellation(block, z):
    """How much block.deriv(z) = (N'D - N D') / D^2 can amplify rounding:
    the two products with every polynomial summed over the absolute values
    of its terms at |z|, over |N'D - N D'| (both in the max norm), plus twice
    the same ratio for D.  Rounding moves the derivative by a small multiple
    of u times this."""
    dnum, den, num, dden = (abs(_horner([np.abs(c) for c in cs], abs(z)))
                            for cs in (block.dnum, block.den, block.num, block.dden))
    diff = _horner(block.dnum, z) * _horner(block.den, z) - _horner(block.num, z) * _horner(block.dden, z)
    return float((dnum * den + num * dden).max() / np.abs(diff).max()) + 2 * den / abs(_horner(block.den, z))


@given(st.integers(1, 5), st.integers(0, 2), st.integers(0, 2**32 - 1), st.integers(1, 6))
@example(seed=4, kind=0, draw=224542978, points=5)
@settings(max_examples=60, deadline=None)
def test_a_stack_of_parameters_evaluates_point_by_point(seed, kind, draw, points):
    """Values and derivatives over a stack of generic points equal the
    per-point calls to rounding: values within 1e-13, derivatives within
    8 u times their cancellation factor, which the quotient rule can make
    large (about 6,800 at the pinned example's second point)."""
    block = dressed_blocks(sample_generic(seed=seed, n=3))[kind]
    rng = np.random.default_rng(draw)
    x = rng.uniform(0.5, 2.0, points) * np.exp(2j * np.pi * rng.uniform(size=points))
    assume(all(np.abs(x[:, None] / _poles(block) - 1).min(axis=1) > 1e-3))
    vals, ders, u = block(x), block.deriv(x), np.finfo(float).eps / 2
    assert vals.shape == ders.shape == (points,) + block.num[0].shape
    for s, z in enumerate(x.tolist()):
        assert rel_residual(vals[s], block(z)) < 1e-13
        assert rel_residual(ders[s], block.deriv(z)) < 8 * u * _deriv_cancellation(block, z)


@given(st.integers(1, 5), st.integers(0, 2),
       st.lists(st.tuples(st.floats(-9, -3), st.floats(0, 1)), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_the_pole_rule_flags_the_points_the_scalar_rule_flags(seed, kind, offsets):
    """Points at relative distances 1e-9..1e-3 from a pole, so that some
    fall inside the 1e-6 rule and some outside: the stack flags exactly the
    points at which a scalar call raises, and evaluates when none does."""
    block = dressed_blocks(sample_generic(seed=seed, n=3))[kind]
    pole = _poles(block)[0]
    x = np.array([pole * (1 + 10**e * np.exp(2j * np.pi * phase)) for e, phase in offsets])

    def raises(z):
        try:
            block(complex(z))
        except PoleProximityError:
            return True
        return False

    want = [raises(z) for z in x]
    try:
        block(x)
        got = [False] * len(x)
    except PoleProximityError as err:
        got = list(np.broadcast_to(err.where, len(x)))
        assert any(got)
    assert got == want


def test_the_battery_evaluates_each_block_once_per_argument(monkeypatch):
    """The dressed blocks are evaluated once per (block, argument) for all
    samples together, so the count does not grow with the samples."""
    calls = []
    honest = heckespin.baxter.RationalMat.__call__

    def counting(self, x):
        calls.append(np.shape(x))
        return honest(self, x)

    monkeypatch.setattr(heckespin.baxter.RationalMat, "__call__", counting)
    p = sample_generic(seed=2, n=4)
    counts = []
    for samples in (5, 20):
        calls.clear()
        check_ybe_re(p, samples=samples, seed=1)
        counts.append(len(calls))
        assert (samples,) in calls
    assert counts[0] == counts[1]


@pytest.mark.parametrize("fields,name", [
    ({"kappa": -1 + 0j, "kappa_sqrt": 1j}, "R"),
    ({"kappa": 1 + 0j, "kappa_sqrt": 1 + 0j}, "R"),
    ({"upsilon0": "1/kappa0"}, "K_0"),
    ({"upsilon0": "-kappa0"}, "K_0"),
    ({"upsilonn": "1/kappan"}, "K_n"),
    ({"upsilonn": "-kappan"}, "K_n"),
], ids=["kappa=-1", "kappa=1", "1-k0u0", "1+k0/u0", "1-knun", "1+kn/un"])
def test_a_block_singular_at_one_is_a_genericity_error(fields, name):
    """Each dressed block is the identity at x = 1; where its denominator
    vanishes there (1 - kappa^2, or (1 - kappa_j upsilon_j)(1 + kappa_j /
    upsilon_j)) dressed_blocks refuses with a GenericityError naming the
    point, as every row that evaluates a block at x = 1 would meet it."""
    p = sample_generic(seed=5, n=3)
    scalars = {"1/kappa0": 1 / p.kappa0, "-kappa0": -p.kappa0, "1/kappan": 1 / p.kappan,
               "-kappan": -p.kappan}
    bad = p.replace(**{key: scalars.get(val, val) for key, val in fields.items()})
    with pytest.raises(GenericityError, match=f"the denominator of {name} at x = 1 vanishes") as err:
        dressed_blocks(bad)
    assert err.value.point == bad
