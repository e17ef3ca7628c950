"""Spectral-parameter dressing: rational matrix families, their defining
identities, and the translation transport."""

import functools

import numpy as np
import pytest

from heckespin.baxter import (
    baxter_j,
    check_ybe_re,
    cocycle_C,
    explicit_rkk,
    tau_elem,
    transport_C_tau,
)
from heckespin.numerics import PoleProximityError, rel_residual, sample_generic, torus_point
from heckespin.spinrep import build_spin_rep
from heckespin.tensorops import PERMUTE_TWO, op_on_legs
from heckespin.weyl import WeylElem, act_point, reduced_word


@pytest.fixture
def handle(params2):
    return build_spin_rep(params2)


def test_identity_battery(params2):
    res = check_ybe_re(params2, samples=10, seed=1)
    control = res.pop("negative control perturbed reflection")
    assert max(res.values()) < 1e-10
    assert control > 1e-3


def test_pole_guard_raises(handle):
    p = handle.params
    x_pole = 1.0 / p.kappa**2
    with pytest.raises(PoleProximityError):
        baxter_j(handle, 1, x_pole)


def test_unit_argument_gives_identity(handle):
    eye = np.eye(handle.dim)
    for j in (1, 0, handle.params.n):
        assert rel_residual(baxter_j(handle, j, 1.0), eye) < 1e-12


def test_boundary_matrix_is_unit_at_minus_one(params2):
    ex = explicit_rkk(params2)
    assert rel_residual(ex.k(-1.0), np.eye(2)) < 1e-12
    assert rel_residual(ex.kbar(-1.0), np.eye(2)) < 1e-12


def test_explicit_blocks_match_dressed_generators(params2):
    """The 2x2 / 4x4 rational families embed to the dressed generators."""
    ex = explicit_rkk(params2)
    h = build_spin_rep(params2)
    n = params2.n
    x = 0.73 + 0.21j
    assert rel_residual(
        op_on_legs(ex.kbar(x), [1], n), baxter_j(h, 0, x)
    ) < 1e-12
    assert rel_residual(
        op_on_legs(ex.r(x) @ PERMUTE_TWO, [1, 2], n), baxter_j(h, 1, x)
    ) < 1e-12
    assert rel_residual(
        op_on_legs(ex.k(x), [n], n), baxter_j(h, n, x)
    ) < 1e-12


def test_rational_matrix_derivative_matches_finite_differences(params2):
    ex = explicit_rkk(params2)
    x = 0.81 + 0.13j
    h = 1e-6
    fd = (ex.r(x + h) - ex.r(x - h)) / (2 * h)
    assert rel_residual(ex.r.deriv(x), fd) < 1e-7
    fd = (ex.kbar(x + h) - ex.kbar(x - h)) / (2 * h)
    assert rel_residual(ex.kbar.deriv(x), fd) < 1e-7


def test_rational_matrix_evaluates_at_mpmath_points(params2):
    import mpmath

    ex = explicit_rkk(params2)
    x = 0.81 + 0.13j
    with mpmath.workdps(40):
        val = ex.kbar(mpmath.mpc(x))
        der = ex.r.deriv(mpmath.mpc(x))
    assert all(isinstance(z, mpmath.mpc) for z in val.ravel())
    assert all(isinstance(z, mpmath.mpc) for z in der.ravel())
    assert rel_residual(ex.kbar(x), val.astype(complex)) < 1e-14
    assert rel_residual(ex.r.deriv(x), der.astype(complex)) < 1e-14


def test_cocycle_respects_words(handle, rng):
    n = handle.params.n
    done = 0
    while done < 10:
        word = [int(rng.integers(0, n + 1)) for _ in range(int(rng.integers(1, 7)))]
        elem = functools.reduce(
            lambda w, a: w * WeylElem.generator(a, n), word, WeylElem.identity(n)
        )
        t = torus_point(rng, n, (0.7, 1.3))
        try:
            along_word = _cocycle_along(handle, word, t)
            canonical = cocycle_C(handle, reduced_word(elem), t)
        except PoleProximityError:
            continue
        assert rel_residual(along_word, canonical) < 1e-9
        done += 1


def _cocycle_along(handle, word, t):
    p = handle.params
    out = np.eye(handle.dim, dtype=complex)
    pt = tuple(t)
    for a in word:
        if a == 0:
            x = p.q_sqrt / pt[0]
        elif a == p.n:
            x = pt[-1]
        else:
            x = pt[a - 1] / pt[a]
        out = out @ baxter_j(handle, a, x)
        pt = act_point(WeylElem.generator(a, p.n), pt, p)
    return out


def test_transport_is_the_cocycle_of_the_lattice_word(handle):
    p = handle.params
    t = (0.93 + 0.18j, 1.12 - 0.21j)
    for i in (1, 2):
        direct = transport_C_tau(handle, i, t)
        via_word = cocycle_C(handle, reduced_word(tau_elem(i, p.n)), t)
        assert rel_residual(direct, via_word) < 1e-10


def test_transports_commute_after_shifting(handle):
    p = handle.params
    q = p.q
    t = (0.88 + 0.2j, 1.07 - 0.15j)
    sh1 = (t[0] / q, t[1])
    sh2 = (t[0], t[1] / q)
    lhs = transport_C_tau(handle, 1, t) @ transport_C_tau(handle, 2, sh1)
    rhs = transport_C_tau(handle, 2, t) @ transport_C_tau(handle, 1, sh2)
    assert rel_residual(lhs, rhs) < 1e-10
