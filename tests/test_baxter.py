"""Spectral-parameter dressing: rational matrix families, their defining
identities, and the translation transport."""

import functools
import itertools

import numpy as np
import pytest

import heckespin.baxter
import heckespin.cli
import heckespin.qkz
import heckespin.spinrep
import heckespin.tensorops
import heckespin.transfer
from conftest import explicit_rkk
from heckespin.baxter import (
    baxter_j,
    check_ybe_re,
    cocycle_C,
    dressed_blocks,
    transport_C_tau,
)
from heckespin.numerics import (
    LaurentPoly,
    PoleProximityError,
    rel_residual,
    sample_generic,
    torus_point,
)
from heckespin.qkz import KZSolution, verify_solution
from heckespin.tensorops import PERMUTE_TWO, op_on_legs
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
        out = out @ op_on_legs(block, legs, p.n)
    return out


def _cocycle_along(p, word, t):
    """Oracle: the cocycle along a word as a dense product of embedded
    dressed blocks, one per letter at the running point."""
    factors = []
    pt = tuple(t)
    for a in word:
        if a == 0:
            x = p.q_sqrt / pt[0]
        elif a == p.n:
            x = pt[-1]
        else:
            x = pt[a - 1] / pt[a]
        factors.append(baxter_j(p, a, x))
        pt = act_point(WeylElem.generator(a, p.n), pt, p)
    return _dense(p, factors)


def _transport_dense(p, i, t):
    """Oracle: the closed transport product written out letter by letter,
    multiplied densely."""
    n, q, ti = p.n, p.q, t[i - 1]
    B = functools.partial(baxter_j, p)
    factors = [B(j, t[j - 1] / ti) for j in range(i - 1, 0, -1)]
    factors.append(B(0, p.q_sqrt / ti))
    factors += [B(j, q / (t[j - 1] * ti)) for j in range(1, i)]
    factors += [B(j, q / (ti * t[j])) for j in range(i, n)]
    factors.append(B(n, q / ti))
    factors += [B(j, q * t[j] / ti) for j in range(n - 1, i - 1, -1)]
    return _dense(p, factors)


def test_cocycle_respects_words(params2, rng):
    n = params2.n
    done = 0
    while done < 10:
        word = [int(rng.integers(0, n + 1)) for _ in range(int(rng.integers(1, 7)))]
        elem = functools.reduce(
            lambda w, a: w * WeylElem.generator(a, n), word, WeylElem.identity(n)
        )
        t = torus_point(rng, n, (0.7, 1.3))
        try:
            along_word = _cocycle_along(params2, word, t)
            canonical = cocycle_C(params2, reduced_word(elem), t)
        except PoleProximityError:
            continue
        assert rel_residual(along_word, canonical) < 1e-9
        done += 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cocycle_and_transport_match_dense_products(n):
    p = sample_generic(seed=n, n=n)
    rng = np.random.default_rng(n)
    for _ in range(3):
        t = torus_point(rng, n, (0.8, 1.25))
        word = [int(rng.integers(0, n + 1)) for _ in range(6)]
        assert rel_residual(cocycle_C(p, word, t), _cocycle_along(p, word, t)) < 1e-12
        for i in range(1, n + 1):
            assert rel_residual(transport_C_tau(p, i, t), _transport_dense(p, i, t)) < 1e-12


def test_transport_is_the_cocycle_of_the_lattice_word(params2):
    p = params2
    t = (0.93 + 0.18j, 1.12 - 0.21j)
    for i in (1, 2):
        direct = transport_C_tau(p, i, t)
        via_word = cocycle_C(p, reduced_word(WeylElem.from_word(tau_word(i, p.n), p.n)), t)
        assert rel_residual(direct, via_word) < 1e-10


def test_transports_commute_after_shifting(params2):
    p = params2
    q = p.q
    t = (0.88 + 0.2j, 1.07 - 0.15j)
    sh1 = (t[0] / q, t[1])
    sh2 = (t[0], t[1] / q)
    lhs = transport_C_tau(p, 1, t) @ transport_C_tau(p, 2, sh1)
    rhs = transport_C_tau(p, 2, t) @ transport_C_tau(p, 1, sh2)
    assert rel_residual(lhs, rhs) < 1e-10


def test_dressed_paths_build_no_spin_rep_and_no_embedding(monkeypatch):
    """Cocycle, transport, identity battery, stationary comparison and
    solution check run on local blocks only."""

    def refuse(*args, **kw):
        raise AssertionError("dense spin representation or embedding")

    for mod in (heckespin.spinrep, heckespin.tensorops, heckespin.baxter,
                heckespin.transfer, heckespin.qkz, heckespin.cli):
        for name in ("build_spin_rep", "op_on_legs"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    p = sample_generic(seed=4, n=4)
    t = (0.91 + 0.2j, 1.1 - 0.1j, 0.95 - 0.3j, 1.2 + 0.05j)
    cocycle_C(p, [0, 1, 2, 3, 4, 2], t)
    transport_C_tau(p, 2, t)
    check_ybe_re(p, samples=2, seed=1)
    check_transfer_vs_transport(p, samples=1, seed=1)
    comps = [LaurentPoly.monomial(4, (b % 3 - 1, 0, b % 2, 0), 1 + b) for b in range(16)]
    res = verify_solution(KZSolution(params=p, components=comps), samples=2, seed=1)
    assert len(res) == 2 * 4 + 1
