"""Double-row transfer matrices and the open-chain Hamiltonian."""

import numpy as np
import pytest

import heckespin.tensorops
import heckespin.transfer
from conftest import explicit_rkk, factor_loop_T
from heckespin.baxter import transport_C_tau, transport_factors
from heckespin.numerics import rel_residual, sample_generic, torus_point
from heckespin.spinrep import build_spin_rep
from heckespin.tensorops import PERMUTE_TWO, factor_product, op_on_legs
from heckespin.transfer import (
    check_transfer,
    check_transfer_vs_transport,
    hamiltonian,
    monodromy_U,
    phi_bdy,
    theta_matrix,
    tl_weight,
    transfer_T,
    transfer_T_deriv,
    transfer_T_mp,
)


def _dense_row(params, x, t, embed, form):
    """Oracle: the double row as dense full-space (value, x-derivative)
    factors, left to right, each local block embedded by ``embed``."""
    n, m = params.n, params.n + 1
    ex = explicit_rkk(params)
    rcheck = form != "r"
    swap = PERMUTE_TWO if rcheck else np.eye(4)
    out = []
    for j in range(1, n + 1):
        legs = [j, j + 1] if rcheck else [1, j + 1]
        arg = x / t[j - 1]
        out.append((embed(ex.r(arg) @ swap, legs, m),
                    embed(ex.r.deriv(arg) / t[j - 1] @ swap, legs, m)))
    legs = [m] if rcheck else [1]
    out.append((embed(ex.k(x), legs, m), embed(ex.k.deriv(x), legs, m)))
    for j in range(n, 0, -1):
        legs = [j, j + 1] if rcheck else [j + 1, 1]
        arg = x * t[j - 1]
        out.append((embed(ex.r(arg) @ swap, legs, m),
                    embed(ex.r.deriv(arg) * t[j - 1] @ swap, legs, m)))
    if form == "closed":
        th, k2 = theta_matrix(params), params.kappa**2
        out.insert(0, (embed(th @ ex.kbar(k2 * x) @ th, [1], m),
                       embed(k2 * th @ ex.kbar.deriv(k2 * x) @ th, [1], m)))
    return out


def _dense_product(factors):
    """Left-to-right product and its derivative by the product rule."""
    eye = np.eye(factors[0][0].shape[0], dtype=complex)
    vals = [v for v, _d in factors]
    der = np.zeros_like(eye)
    for kpos, (_v, d) in enumerate(factors):
        der += np.linalg.multi_dot([eye, *vals[:kpos], d, *vals[kpos + 1:], eye])
    return np.linalg.multi_dot([eye, *vals, eye]), der


def _trace_aux(mat):
    h = mat.shape[0] // 2
    return mat[:h, :h] + mat[h:, h:]


def _point(n, seed):
    rng = np.random.default_rng(seed)
    x = complex(rng.uniform(0.8, 1.25) * np.exp(2j * np.pi * rng.uniform()))
    t = tuple(
        complex(rng.uniform(0.8, 1.25) * np.exp(2j * np.pi * rng.uniform()))
        for _ in range(n)
    )
    return x, t


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_transfer_and_monodromy_match_the_dense_oracle(n, dense_embed):
    p = sample_generic(seed=20 + n, n=n)
    x, t = _point(n, n)
    got = monodromy_U(p, x, t)
    for form in ("rcheck", "r"):
        want, _ = _dense_product(_dense_row(p, x, t, dense_embed, form))
        assert rel_residual(got, want) < 1e-12
    want, dwant = _dense_product(_dense_row(p, x, t, dense_embed, "closed"))
    assert rel_residual(transfer_T(p, x, t), _trace_aux(want)) < 1e-12
    val, der = transfer_T_deriv(p, x, t)
    assert rel_residual(val, _trace_aux(want)) < 1e-12
    assert rel_residual(der, _trace_aux(dwant)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_transfer_derivative_matches_a_central_difference(n):
    p = sample_generic(seed=30 + n, n=n)
    x, t = _point(n, 40 + n)
    h = 1e-5 * abs(x)
    fd = (transfer_T(p, x + h, t) - transfer_T(p, x - h, t)) / (2 * h)
    _val, der = transfer_T_deriv(p, x, t)
    assert rel_residual(der, fd) < 1e-6
    # a derivative that drops one factor's term is far outside that margin
    assert rel_residual(der, 1.01 * fd) > 1e-3


def test_no_dense_embedding_on_the_transfer_path(monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("dense embedding on the transfer path")

    monkeypatch.setattr(heckespin.tensorops, "op_on_legs", refuse)
    monkeypatch.setattr(heckespin.transfer, "op_on_legs", refuse)
    p = sample_generic(seed=4, n=4)
    x, t = _point(4, 4)
    transfer_T(p, x, t)
    transfer_T_deriv(p, x, t)
    monodromy_U(p, x, t)


@pytest.mark.parametrize("n", [1, 3])
def test_high_precision_agreement_beyond_two_sites(n):
    p = sample_generic(seed=5, n=n)
    x, t = _point(n, 6)
    hi = transfer_T_mp(p, x, t, digits=40)
    assert hi.dtype == complex
    assert rel_residual(transfer_T(p, x, t), hi) < 1e-12


@pytest.mark.parametrize("n", [1, 3])
def test_generic_path_converges_with_precision(n):
    """The object-array transfer matrix at 30 and at 50 digits agrees far
    below double rounding, so the mpmath path really runs in mpmath
    arithmetic."""
    import mpmath

    p = sample_generic(seed=5, n=n)
    x, t = _point(n, 6)

    def full(digits):
        with mpmath.workdps(digits):
            return transfer_T(p, mpmath.mpc(x), tuple(mpmath.mpc(v) for v in t))

    lo, hi = full(30), full(50)
    assert isinstance(hi[0, 0], mpmath.mpc)
    with mpmath.workdps(50):
        diff = max(abs(a - b) for a, b in zip(lo.ravel(), hi.ravel()))
        scale = max(abs(b) for b in hi.ravel())
        assert diff / scale < 1e-25


def test_transfer_identity_battery(params2):
    res = check_transfer(params2, samples=6, seed=2)
    assert max(res.values()) < 1e-9, res


def test_transfer_identity_battery_n3(params3):
    res = check_transfer(params3, samples=4, seed=2)
    assert max(res.values()) < 1e-9, res


def test_monodromy_forms_agree(params3, rng):
    x = complex(0.9 * np.exp(0.4j))
    t = tuple(
        complex(rng.uniform(0.8, 1.2) * np.exp(2j * np.pi * rng.uniform()))
        for _ in range(3)
    )
    a = factor_product(heckespin.transfer._double_row(params3, x, t), 4)
    b = monodromy_U(params3, x, t)
    assert rel_residual(a, b) < 1e-11


@pytest.mark.parametrize("n", [2, 3, 6])
def test_scaled_double_row_factor_fails_the_monodromy_row(monkeypatch, n):
    """The monodromy row compares the MPO's U with the factor list of
    _double_row; one factor of that list scaled by 1.01 must break it."""
    honest = heckespin.transfer._double_row

    def scaled(*args):
        factors = honest(*args)
        block, legs = factors[n]
        factors[n] = (1.01 * block, legs)
        return factors

    monkeypatch.setattr(heckespin.transfer, "_double_row", scaled)
    res = check_transfer(sample_generic(seed=1, n=n), samples=2, seed=2)
    assert res["monodromy form agreement"] > 1e-3, res


def test_commuting_transfer_matrices(params3, rng):
    t = tuple(
        complex(rng.uniform(0.8, 1.2) * np.exp(2j * np.pi * rng.uniform()))
        for _ in range(3)
    )
    x = complex(0.85 * np.exp(0.3j))
    y = complex(1.15 * np.exp(-0.7j))
    a = transfer_T(params3, x, t)
    b = transfer_T(params3, y, t)
    assert rel_residual(a @ b, b @ a) < 1e-10


def test_transfer_interpolates_the_transport(params2):
    res = check_transfer_vs_transport(params2, samples=5, seed=3)
    assert max(res.values()) < 1e-9, res


@pytest.mark.parametrize("n", [2, 6])
def test_scaled_transport_factor_fails_the_product_form(monkeypatch, n):
    """A transport with one factor scaled by 1.01 must fail every
    stationary row at the suite's 1e-9 tolerance, the product-form inverse
    rows included (their smallest value here is 1.3e-7, at n = 6)."""

    def scaled(p, i, t, q_override=None):
        factors = transport_factors(p, i, t, q_override)
        block, legs = factors[n // 2]
        factors[n // 2] = (1.01 * block, legs)
        return factor_product(factors, p.n)

    monkeypatch.setattr(heckespin.transfer, "transport_C_tau", scaled)
    res = check_transfer_vs_transport(sample_generic(seed=1, n=n), samples=2, seed=1)
    assert len(res) == 2 * n
    assert min(res.values()) > 1e-9, res


def _column_residual(a, b):
    num = max(abs(u - v) for u, v in zip(a, b))
    return float(num / max(max(abs(u) for u in a), max(abs(v) for v in b)))


@pytest.mark.parametrize("seed", [1, 5, 7, 8])
def test_inverse_transport_residual_falls_with_precision(seed):
    """The inverse form T(t_i) = phi(t_i) C^{-1} of the stationary comparison
    at n = 6, in the column where double precision (np.linalg.inv of the
    product C) misses most over the suite's own draw.  With every block,
    product and block inverse in mpmath (C^{-1} as the inverted factors in
    reverse order) the residual drops by decades, to a level set by the
    double-rounded block coefficients that is the same at 30 and at 50
    digits: the double-precision miss is rounding in inverting C."""
    import mpmath

    n = 6
    p = sample_generic(seed=seed, n=n)
    rng = np.random.default_rng(seed)
    worst = (0.0,)
    for _ in range(8):
        t = torus_point(rng, n, (0.8, 1.3))
        for i in range(1, n + 1):
            tt = transfer_T(p, t[i - 1], t)
            ci = phi_bdy(t[i - 1], p) * np.linalg.inv(transport_C_tau(p, i, t, q_override=1))
            k = int(np.abs(tt - ci).max(axis=0).argmax())
            r = _column_residual(tt[:, k], ci[:, k])
            if r > worst[0]:
                worst = (r, t, i, k)
    r53, t, i, k = worst

    def column(digits):
        with mpmath.workdps(digits):
            tm = tuple(mpmath.mpc(v) for v in t)
            col = factor_loop_T(p, tm[i - 1], tm, cols=[k])[:, 0]
            inv = [
                (np.array(mpmath.inverse(mpmath.matrix(b.tolist())).tolist()), legs)
                for b, legs in reversed(transport_factors(p, i, tm, q_override=1))
            ]
            e = np.zeros((2**n, 1), dtype=complex)
            e[k] = 1
            ci = phi_bdy(tm[i - 1], p) * factor_product(inv, n, e)[:, 0]
            return _column_residual(col, ci)

    r30, r50 = column(30), column(50)
    assert r30 < 1e-12 and r53 > 100 * r30, (r53, r30)
    assert abs(r50 - r30) < 1e-3 * r30, (r30, r50)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hamiltonian_forms_agree(seed):
    p = sample_generic(seed=seed, n=2)
    h_tl = hamiltonian(p, form="tl")
    h_pauli = hamiltonian(p, form="pauli")
    h_transfer = hamiltonian(p, form="transfer")
    assert rel_residual(h_tl, h_pauli) < 1e-10
    assert rel_residual(h_transfer, h_pauli) < 1e-8


def test_hamiltonian_is_a_projector_combination(params2):
    p = params2
    rep = build_spin_rep(p)
    direct = sum(tl_weight(p, j) * op_on_legs(*rep.e[j], 2) for j in range(3))
    assert rel_residual(hamiltonian(p, form="tl"), direct) < 1e-12
    assert tl_weight(p, 1) == 1.0


def test_theta_is_diagonal_in_kappa(params2):
    th = theta_matrix(params2)
    k = params2.kappa
    assert np.allclose(np.diag(th), [k ** -0.5, k ** 0.5])


def test_high_precision_agreement(params2, rng):
    x = complex(0.83 * np.exp(0.9j))
    t = (0.94 + 0.21j, 1.08 - 0.17j)
    lo = transfer_T(params2, x, t)
    hi = transfer_T_mp(params2, x, t, digits=40)
    assert rel_residual(lo, np.array(hi, dtype=complex)) < 1e-12


def test_detuned_boundary_separates_forms(params2):
    bad = params2.replace(kappa0=params2.kappa0 * 1.01)
    raw = rel_residual(hamiltonian(bad, form="tl"), hamiltonian(params2, form="pauli"))
    assert raw > 1e-3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_mpo_matches_the_factor_loop(n):
    """The site-by-site MPO contraction against the closed double row
    multiplied out one local factor at a time on 2^(n+1) rows."""
    p = sample_generic(seed=10 + n, n=n)
    x, t = _point(n, 50 + n)
    want, dwant = factor_loop_T(p, x, t, deriv=True)
    val, der = transfer_T_deriv(p, x, t)
    assert rel_residual(transfer_T(p, x, t), want) < 1e-13
    assert rel_residual(val, want) < 1e-13
    assert rel_residual(der, dwant) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_mpo_matches_the_factor_loop_in_mpmath(n):
    import mpmath

    p = sample_generic(seed=10 + n, n=n)
    x, t = _point(n, 60 + n)
    cols = sorted({0, 2 ** (n - 1), 2**n - 1})
    with mpmath.workdps(30):
        xm, tm = mpmath.mpc(x), tuple(mpmath.mpc(v) for v in t)
        want, dwant = factor_loop_T(p, xm, tm, deriv=True, cols=cols)
        val, der = transfer_T_deriv(p, xm, tm)
        got = transfer_T(p, xm, tm)
        assert isinstance(got[0, 0], mpmath.mpc) and isinstance(der[0, 0], mpmath.mpc)
        for a, b in ((got[:, cols], want), (val[:, cols], want), (der[:, cols], dwant)):
            diff = max(abs(u - v) for u, v in zip(a.ravel(), b.ravel()))
            assert diff < 1e-25 * max(abs(v) for v in b.ravel())


def test_transfer_matrix_never_forms_the_double_space(monkeypatch):
    """T and dT/dx are contracted site by site: nothing with 2^(n+1) rows
    reaches the local primitive, the factor loop or the auxiliary trace."""
    n = 5

    def guard(fn):
        def wrapped(*args, **kw):
            if any(np.ndim(a) == 2 and np.shape(a)[0] >= 2 ** (n + 1) for a in args):
                raise AssertionError("operand on the double space")
            return fn(*args, **kw)
        return wrapped

    for mod in (heckespin.tensorops, heckespin.transfer):
        for name in ("apply_on_legs", "factor_product", "partial_trace_first"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, guard(getattr(mod, name)))
    p = sample_generic(seed=4, n=n)
    x, t = _point(n, 4)
    transfer_T(p, x, t)
    transfer_T_deriv(p, x, t)
    with pytest.raises(AssertionError, match="double space"):
        factor_loop_T(p, x, t)
