"""Double-row transfer matrices and the open-chain Hamiltonian."""

import numpy as np
import pytest

import heckespin.tensorops
import heckespin.transfer
from conftest import _kron_embed, explicit_rkk, factor_loop_T, transport_factors
from heckespin.baxter import cocycle_factors
from heckespin.numerics import GenericityError, rel_residual, sample_generic, stream, torus_point
from heckespin.spinrep import build_spin_rep
from heckespin.tensorops import PERMUTE_TWO, factor_product, gaussian_block
from heckespin.transfer import (
    _aux_normalizer,
    c0_constant,
    check_transfer,
    check_transfer_vs_transport,
    hamiltonian,
    monodromy_U,
    phi_bdy,
    theta_matrix,
    tl_weight,
    transfer_apply,
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
    got = monodromy_U(p, x, t, np.eye(2 ** (n + 1)))
    for form in ("rcheck", "r"):
        want, _ = _dense_product(_dense_row(p, x, t, dense_embed, form))
        assert rel_residual(got, want) < 1e-12
    want, dwant = _dense_product(_dense_row(p, x, t, dense_embed, "closed"))
    assert rel_residual(transfer_apply(p, x, t, np.eye(2**n)), _trace_aux(want)) < 1e-12
    val, der = transfer_apply(p, x, t, np.eye(2**n), deriv=True)
    assert rel_residual(val, _trace_aux(want)) < 1e-12
    assert rel_residual(der, _trace_aux(dwant)) < 1e-12


@pytest.mark.parametrize("n", range(2, 9))
def test_block_contraction_matches_the_dense_operators(n):
    """transfer_apply against the dense T of the factor-loop oracle times the
    block, and monodromy_U against the factor list of _double_row run
    through the block, at one point and at a stack of three: one block per
    point for T, one block shared by the points for U."""
    p = sample_generic(seed=20 + n, n=n)
    rng = stream(n)
    x, *t = np.array([torus_point(rng, n + 1, (0.8, 1.25)) for _ in range(3)]).T
    v, w = gaussian_block(rng, 3 * 2**n).reshape(3, 2**n, 4), gaussian_block(rng, 2 ** (n + 1))
    want = np.stack([factor_loop_T(p, x[s], [tj[s] for tj in t]) @ v[s] for s in range(3)])
    assert rel_residual(transfer_apply(p, x, t, v), want) < 1e-13
    assert rel_residual(transfer_apply(p, x[0], [tj[0] for tj in t], v[0]), want[0]) < 1e-13
    want = factor_product(heckespin.transfer._double_row(p, x, t), n + 1, w)
    assert rel_residual(monodromy_U(p, x, t, w), want) < 1e-13
    assert rel_residual(monodromy_U(p, x[0], [tj[0] for tj in t], w), want[0]) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_transfer_derivative_matches_a_central_difference(n):
    p = sample_generic(seed=30 + n, n=n)
    x, t = _point(n, 40 + n)
    h = 1e-5 * abs(x)
    eye = np.eye(2**n)
    fd = (transfer_apply(p, x + h, t, eye) - transfer_apply(p, x - h, t, eye)) / (2 * h)
    _val, der = transfer_apply(p, x, t, eye, deriv=True)
    assert rel_residual(der, fd) < 1e-6
    # a derivative that drops one factor's term is far outside that margin
    assert rel_residual(der, 1.01 * fd) > 1e-3


def test_no_dense_embedding_on_the_transfer_path(monkeypatch):
    """T, dT/dx, U and the three Hamiltonian forms on a block apply no local
    operator to an operand of 2^n columns, a dense embedding; the dense
    Hamiltonian, which only the spectrum table asks for, does."""
    n = 4
    honest = heckespin.tensorops.apply_on_legs

    def refuse(op, legs, a, m):
        if a.shape[-1] >= 2**m:
            raise AssertionError("dense embedding on the transfer path")
        return honest(op, legs, a, m)

    monkeypatch.setattr(heckespin.tensorops, "apply_on_legs", refuse)
    monkeypatch.setattr(heckespin.transfer, "apply_on_legs", refuse)
    p = sample_generic(seed=4, n=n)
    x, t = _point(n, 4)
    transfer_apply(p, x, t, np.eye(2**n), deriv=True)
    monodromy_U(p, x, t, np.eye(32))
    v = gaussian_block(stream(4), 2**n)
    for form in ("tl", "pauli", "transfer"):
        hamiltonian(p, form, v)
    with pytest.raises(AssertionError, match="dense embedding"):
        hamiltonian(p, "pauli")


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_the_block_forms_are_the_dense_forms_on_the_block(n):
    """hamiltonian(p, form, V) against the dense H of the same form times V,
    and the MPO pass's jet [T V, dT/dx V] against the dense T and dT/dx
    times V."""
    p = sample_generic(seed=20 + n, n=n)
    v = gaussian_block(stream(n), 2**n)
    for form in ("tl", "pauli", "transfer"):
        assert rel_residual(hamiltonian(p, form, v), hamiltonian(p, form) @ v) < 1e-12
    x, t = _point(n, 70 + n)
    val, der = transfer_apply(p, x, t, v, deriv=True)
    dense, ddense = transfer_apply(p, x, t, np.eye(2**n), deriv=True)
    assert rel_residual(val, dense @ v) < 1e-12
    assert rel_residual(der, ddense @ v) < 1e-12
    assert np.array_equal(transfer_apply(p, x, t, v), val)


@pytest.mark.parametrize("n", [1, 3])
def test_high_precision_agreement_beyond_two_sites(n):
    p = sample_generic(seed=5, n=n)
    x, t = _point(n, 6)
    hi = transfer_T_mp(p, x, t, np.eye(2**n))
    assert hi.dtype == complex
    assert rel_residual(transfer_apply(p, x, t, np.eye(2**n)), hi) < 1e-12


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
            return transfer_apply(p, mpmath.mpc(x), tuple(mpmath.mpc(v) for v in t), np.eye(2**n))

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
    t = torus_point(rng, 3, (0.8, 1.2))
    a = factor_product(heckespin.transfer._double_row(params3, x, t), 4)
    b = monodromy_U(params3, x, t, np.eye(16))
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
    t = torus_point(rng, 3, (0.8, 1.2))
    x = complex(0.85 * np.exp(0.3j))
    y = complex(1.15 * np.exp(-0.7j))
    a = transfer_apply(params3, x, t, np.eye(8))
    b = transfer_apply(params3, y, t, np.eye(8))
    assert rel_residual(a @ b, b @ a) < 1e-10


@pytest.mark.parametrize("n", range(4, 11))
def test_a_detuned_transfer_matrix_fails_the_commuting_row(monkeypatch, n):
    """T_y with one t_j scaled by 1.01, wherever T is applied at a y of the
    suite's draw, must read at least 100 times the suite's 1e-9 tolerance
    in the norm-product scaled commuting row; the weakest of seeds 1-5 is
    6.1e-4, at n = 8."""
    honest = heckespin.transfer.transfer_apply
    for seed in range(1, 6):
        rng = stream(seed)
        ys = [torus_point(rng, n + 2, (0.75, 1.35))[1] for _ in range(8)]

        def detuned(params, x, t, v):
            t = list(t)
            t[n // 2] = np.where(np.isin(x, ys), 1.01 * t[n // 2], t[n // 2])
            return honest(params, x, t, v)

        monkeypatch.setattr(heckespin.transfer, "transfer_apply", detuned)
        res = check_transfer(sample_generic(seed=seed, n=n), samples=8, seed=seed)
        assert res["commuting transfer matrices"] >= 100 * 1e-9, (seed, res)


def test_transfer_interpolates_the_transport(params2):
    res = check_transfer_vs_transport(params2, samples=5, seed=3)
    assert max(res.values()) < 1e-9, res


@pytest.mark.parametrize("n", [2, 6, 8])
def test_scaled_transport_factor_fails_the_product_form(monkeypatch, n):
    """A transport with one factor scaled by 1.01 must fail every
    stationary row at the suite's 1e-9 tolerance, the product-form inverse
    rows included (their smallest value here is 2.1e-8, at n = 8)."""

    def scaled(p, word, t):
        factors = cocycle_factors(p, word, t)
        block, legs = factors[n // 2]
        factors[n // 2] = (1.01 * block, legs)
        return factors

    monkeypatch.setattr(heckespin.transfer, "cocycle_factors", scaled)
    res = check_transfer_vs_transport(sample_generic(seed=1, n=n), samples=2, seed=1)
    assert len(res) == 2 * n
    assert min(res.values()) > 1e-9, res


def _column_residual(a, b):
    num = max(abs(u - v) for u, v in zip(a, b))
    return float(num / max(max(abs(u) for u in a), max(abs(v) for v in b)))


@pytest.mark.parametrize("seed", [1, 5, 7, 10])
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
    stationary = p.replace(q_sqrt=1)
    rng = stream(seed)
    worst = (0.0,)
    for _ in range(8):
        t = torus_point(rng, n, (0.8, 1.3))
        for i in range(1, n + 1):
            tt = transfer_apply(p, t[i - 1], t, np.eye(2**n))
            trans = factor_product(transport_factors(stationary, i, t), n)
            ci = phi_bdy(t[i - 1], p) * np.linalg.inv(trans)
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
                for b, legs in reversed(transport_factors(stationary, i, tm))
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
    direct = sum(tl_weight(p, j) * _kron_embed(*rep.e[j], 2) for j in range(3))
    assert rel_residual(hamiltonian(p, form="tl"), direct) < 1e-12
    assert tl_weight(p, 1) == 1.0


def test_theta_is_diagonal_in_kappa(params2):
    th = theta_matrix(params2)
    k = params2.kappa
    assert np.allclose(np.diag(th), [k ** -0.5, k ** 0.5])


def test_high_precision_agreement(params2, rng):
    x = complex(0.83 * np.exp(0.9j))
    t = (0.94 + 0.21j, 1.08 - 0.17j)
    lo = transfer_apply(params2, x, t, np.eye(4))
    hi = transfer_T_mp(params2, x, t, np.eye(4))
    assert rel_residual(lo, np.array(hi, dtype=complex)) < 1e-12


def test_detuned_boundary_separates_forms(params2):
    bad = params2.replace(kappa0=params2.kappa0 * 1.01)
    raw = rel_residual(hamiltonian(bad, form="tl"), hamiltonian(params2, form="pauli"))
    assert raw > 1e-3


@pytest.mark.parametrize("n,seed", [(2, 1), (2, 105), (6, 1), (6, 105), (10, 6), (10, 9), (10, 11)])
def test_the_detuned_boundary_control_holds_as_the_chain_grows(n, seed):
    """The suite's detuning of kappa0 is sized by the boundary term's first
    derivative to move H by 1e-2 of max|H|; a fixed factor 1.01 fell below
    the 1e-3 floor as max|H| grew with n (seeds 6, 9 and 11 at n = 10) and
    where the boundary term is nearly flat in kappa0 (seed 105 at n = 2 and
    6)."""
    import re

    from heckespin.commands import Config, suite_transfer

    rows = {c["name"]: c for c in suite_transfer(Config(n=n, seed=seed), sample_generic(seed=seed, n=n))}
    control = rows["control detuned boundary"]
    assert control["pass"] and control["residual"] == 0.0
    observed = float(re.search(r"\(observed ([^)]+)\)", control["context"]).group(1))
    assert 5e-3 < observed < 2e-2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_mpo_matches_the_factor_loop(n):
    """The site-by-site MPO contraction against the closed double row
    multiplied out one local factor at a time on 2^(n+1) rows."""
    p = sample_generic(seed=10 + n, n=n)
    x, t = _point(n, 50 + n)
    want, dwant = factor_loop_T(p, x, t, deriv=True)
    val, der = transfer_apply(p, x, t, np.eye(2**n), deriv=True)
    assert rel_residual(transfer_apply(p, x, t, np.eye(2**n)), want) < 1e-13
    assert rel_residual(val, want) < 1e-13
    assert rel_residual(der, dwant) < 1e-13


@pytest.mark.parametrize("n,width", [(7, 128), (8, 100), (9, 96)])
def test_a_block_wider_than_a_chunk_matches_the_factor_loop(n, width):
    """transfer_apply runs a wide block transfer._PASS // 2^n columns at a
    time: the jet on one whole pass (the identity at n = 7), on a whole and
    a partial chunk (100 columns of the identity at n = 8, 64 + 36) and on
    three whole chunks (96 columns at n = 9) against the factor loop."""
    p = sample_generic(seed=10 + n, n=n)
    x, t = _point(n, 50 + n)
    want, dwant = factor_loop_T(p, x, t, deriv=True, cols=range(width))
    val, der = transfer_apply(p, x, t, np.eye(2**n)[:, :width], deriv=True)
    assert rel_residual(val, want) < 1e-13
    assert rel_residual(der, dwant) < 1e-13


def test_a_chunked_pass_equals_one_pass_per_point():
    """At n = 8 a pass takes 16 points of a 4-column block and U's pass 8
    (transfer._PASS), so 24 points take 2 and 3 passes: T V, the jet [T V,
    dT/dx V] and U V on the stack equal, bit for bit, the same calls on each
    point alone (a stack of one, so that its blocks take the same array
    arithmetic)."""
    n, m = 8, 24
    p = sample_generic(seed=1, n=n)
    rng = stream(3)
    x, *t = np.array([torus_point(rng, n + 1, (0.75, 1.35)) for _ in range(m)]).T
    v = gaussian_block(rng, 2 ** (n + 1))
    assert m * v.size > heckespin.transfer._PASS
    alone = [(x[i : i + 1], [tj[i : i + 1] for tj in t]) for i in range(m)]
    assert np.array_equal(monodromy_U(p, x, t, v), np.concatenate([monodromy_U(p, *a, v) for a in alone]))
    v = v[: 2**n]
    assert np.array_equal(transfer_apply(p, x, t, v), np.concatenate([transfer_apply(p, *a, v) for a in alone]))
    each = zip(*(transfer_apply(p, *a, v, deriv=True) for a in alone))
    for got, want in zip(transfer_apply(p, x, t, v, deriv=True), each, strict=True):
        assert np.array_equal(got, np.concatenate(want))


def test_the_transport_rows_memory_does_not_grow_with_their_samples():
    """At n = 8 the transport rows' passes run 16 points at a time, so their
    tracemalloc peak with 16 samples stays within 1.25x of their peak with 8
    (one pass over all 3 x samples points doubled it)."""
    import tracemalloc

    p = sample_generic(seed=1, n=8)

    def peak(samples):
        check_transfer_vs_transport(p, samples)  # the caches of a first call
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            check_transfer_vs_transport(p, samples)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    assert peak(16) < 1.25 * peak(8)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_mpo_matches_the_factor_loop_in_mpmath(n):
    import mpmath

    p = sample_generic(seed=10 + n, n=n)
    x, t = _point(n, 60 + n)
    cols = sorted({0, 2 ** (n - 1), 2**n - 1})
    with mpmath.workdps(30):
        xm, tm = mpmath.mpc(x), tuple(mpmath.mpc(v) for v in t)
        want, dwant = factor_loop_T(p, xm, tm, deriv=True, cols=cols)
        # the columns cols of T and dT/dx: the MPO on those columns of the identity
        val, der = transfer_apply(p, xm, tm, np.eye(2**n)[:, cols], deriv=True)
        got = transfer_apply(p, xm, tm, np.eye(2**n)[:, cols])
        assert isinstance(got[0, 0], mpmath.mpc) and isinstance(der[0, 0], mpmath.mpc)
        for a, b in ((got, want), (val, want), (der, dwant)):
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
    transfer_apply(p, x, t, np.eye(2**n), deriv=True)
    with pytest.raises(AssertionError, match="double space"):
        factor_loop_T(p, x, t)


@pytest.mark.parametrize("field,value,why", [
    ("upsilon0", lambda p: 1 / p.kappa0, "1 - kappa_j upsilon_j at j=0"),
    ("upsilon0", lambda p: -p.kappa0, "1 \\+ kappa_j/upsilon_j at j=0"),
    ("upsilonn", lambda p: 1 / p.kappan, "1 - kappa_j upsilon_j at j=3"),
    ("upsilonn", lambda p: -p.kappan, "1 \\+ kappa_j/upsilon_j at j=3"),
], ids=["1-k0u0", "1+k0/u0", "1-knun", "1+kn/un"])
def test_a_vanishing_boundary_factor_is_a_genericity_error(field, value, why):
    """The boundary weights of the Hamiltonian and its constants divide by
    (1 - kappa_j upsilon_j)(1 + kappa_j/upsilon_j): at a point on either
    factor each refuses with a GenericityError naming the point."""
    p = sample_generic(seed=2, n=3)
    bad = p.replace(**{field: value(p)})
    j = 0 if field == "upsilon0" else 3
    calls = [lambda q: tl_weight(q, j), lambda q: hamiltonian(q, form="pauli")]
    for refused in calls + ([c0_constant] if j == 0 else []):
        with pytest.raises(GenericityError, match=why) as err:
            refused(bad)
        assert err.value.point == bad


def test_a_vanishing_one_plus_kappa_squared_is_a_genericity_error():
    """At kappa = i, 1 + kappa^2 = 0: c0_constant divides by it, and the
    normalizing trace Tr(theta K_0(kappa^2) theta), which vanishes exactly
    where 1 + kappa^2 or a left boundary factor does, vanishes with it."""
    p = sample_generic(seed=2, n=3)
    bad = p.replace(kappa=1j, kappa_sqrt=np.sqrt(1j))
    for refused, why in [(c0_constant, "1 \\+ kappa\\^2"),
                         (lambda q: _aux_normalizer(q, 1.0), "Tr\\(theta K_0")]:
        with pytest.raises(GenericityError, match=why) as err:
            refused(bad)
        assert err.value.point == bad
