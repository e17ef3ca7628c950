"""The two-parameter action on the tensor-product chain."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import _kron_embed, dense_hecke_relations
from heckespin import spinrep
from heckespin.numerics import InternalDefectError, ParamSet, rel_residual, sample_generic
from heckespin.spinrep import (
    build_spin_rep,
    check_hecke_relations,
    check_tl_relations,
    delta_from_kappa,
    murphy_commutator_residual,
    murphy_Y,
    principal_series_basis,
    quotient_map_residuals,
)
from heckespin.weyl import reduced_word


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_relations(n):
    p = sample_generic(seed=1, n=n)
    rep = build_spin_rep(p)
    assert max(check_hecke_relations(rep.T, p).values()) < 1e-10
    tl = delta_from_kappa(p)
    assert max(check_tl_relations(rep.e, tl, n).values()) < 1e-10
    assert max(quotient_map_residuals(rep).values()) < 1e-10


def test_single_site_has_no_braid_checks():
    p = sample_generic(seed=2, n=1)
    rep = build_spin_rep(p)
    names = check_hecke_relations(rep.T, p)
    assert not any("braid" in k for k in names)
    # only T0, T1 and their commutators are absent too
    assert set(names) == {"quadratic T0", "quadratic T1"}


def test_inverse_generators(params2):
    rep = build_spin_rep(params2)
    for j in range(params2.n + 1):
        (t, legs), (tinv, inv_legs) = rep.T[j], rep.Tinv[j]
        assert legs == inv_legs
        assert np.allclose(t @ tinv, np.eye(len(t)))


def test_perturbed_generator_breaks_relations(params2):
    rep = build_spin_rep(params2)
    bad = dict(rep.T)
    block, legs = bad[1]
    bad[1] = (1.01 * block, legs)
    assert max(check_hecke_relations(bad, params2).values()) > 1e-3


def test_delta_weights_match_boundary_formula(params2):
    p = params2
    tl = delta_from_kappa(p)
    for j in (0, p.n):
        kj = p.kappa0 if j == 0 else p.kappan
        expected = -(kj + 1 / kj) / (p.kappa / kj + kj / p.kappa)
        assert abs(tl.weight(j, p.n) - expected) < 1e-14
    expected_mid = -(p.kappa + 1 / p.kappa)
    assert abs(tl.weight(1, p.n) - expected_mid) < 1e-14


def test_murphy_elements_commute_and_share_eigenvector(params3):
    p = params3
    rep = build_spin_rep(p)
    ys = [murphy_Y(rep, i) for i in range(1, p.n + 1)]
    for a in range(len(ys)):
        for b in range(a + 1, len(ys)):
            comm = ys[a] @ ys[b] - ys[b] @ ys[a]
            assert np.abs(comm).max() < 1e-10 * np.abs(ys[a]).max()
    v0 = np.zeros(rep.dim, dtype=complex)
    v0[0] = 1.0
    _B, zeta, _reps, _rep = principal_series_basis(p)
    for i, y in enumerate(ys, start=1):
        assert np.abs(y @ v0 - zeta[i - 1] * v0).max() < 1e-10


def test_principal_basis_is_invertible(params3):
    B, _zeta, reps, _rep = principal_series_basis(params3)
    assert B.shape == (8, 8)
    assert len(reps) == 8
    assert np.linalg.cond(B) < 1e8


def _dense_product(rep, factors, a):
    """Oracle: F_1 F_2 ... F_k a with every local factor embedded densely
    (kron and a basis permutation), multiplied onto ``a`` from the right."""
    for block, legs in reversed(factors):
        a = _kron_embed(block, legs, rep.n) @ a
    return a


def _murphy_chain(rep, i):
    """Oracle: Y_i as the hand-written 2n-fold chain
    T_{i-1}^-1 ... T_1^-1 T_0 T_1 ... T_{n-1} T_n T_{n-1} ... T_i."""
    n = rep.n
    chain = (
        [rep.Tinv[j] for j in range(i - 1, 0, -1)]
        + [rep.T[j] for j in range(n + 1)]
        + [rep.T[j] for j in range(n - 1, i - 1, -1)]
    )
    return _dense_product(rep, chain, np.eye(rep.dim, dtype=complex))


def _word_on_groups(rep, word, v):
    """Oracle: rho(T_{a_1}) ... rho(T_{a_k}) v, each generator embedded
    densely (kron and a basis permutation) and applied group by group.  A
    group is the set of basis states that the block couples, read off the
    embedding of the all-ones block; within it the embedding is applied as
    one short sum, as the local product does, so the two agree bitwise."""
    dense = {}
    for a in set(word):
        block, legs = rep.T[a]
        coupled = _kron_embed(np.ones_like(block), legs, rep.n) != 0
        groups = [g for r, g in enumerate(map(np.flatnonzero, coupled)) if g[0] == r]
        dense[a] = _kron_embed(block, legs, rep.n), groups
    for a in reversed(word):
        mat, groups = dense[a]
        out = np.empty_like(v)
        for g in groups:
            out[g] = mat[np.ix_(g, g)] @ v[g]
        v = out
    return v


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_principal_basis_and_murphy_match_dense_products(n):
    for seed in (1, 2):
        B, _zeta, reps, rep = principal_series_basis(sample_generic(seed=seed, n=n))
        v0 = np.zeros(rep.dim, dtype=complex)
        v0[0] = 1.0
        dense = np.stack([_word_on_groups(rep, reduced_word(w), v0) for w in reps], axis=1)
        assert np.array_equal(B, dense)
        for i in range(1, n + 1):
            assert np.array_equal(murphy_Y(rep, i), _murphy_chain(rep, i))


def test_missing_suffix_is_an_internal_defect(monkeypatch, params3):
    honest = spinrep.min_coset_reps
    monkeypatch.setattr(spinrep, "min_coset_reps", lambda I, n: honest(I, n)[1:])
    with pytest.raises(InternalDefectError, match="lacks its suffix"):
        principal_series_basis(params3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_local_rows_match_the_dense_battery(n):
    """Each relation row on its own legs against the same row multiplied
    out on the full space: the same names, residuals at rounding level."""
    p = sample_generic(seed=3, n=n)
    rep = build_spin_rep(p)
    dense = {j: _kron_embed(block, legs, n) for j, (block, legs) in rep.T.items()}
    local, full = check_hecke_relations(rep.T, p), dense_hecke_relations(dense, p)
    assert local.keys() == full.keys()
    assert all(abs(local[k] - full[k]) < 1e-14 for k in local), (local, full)
    bad = dict(rep.T)
    bad[n // 2] = (1.01 * bad[n // 2][0], bad[n // 2][1])
    dense[n // 2] = 1.01 * dense[n // 2]
    got = check_hecke_relations(bad, p)
    for key, value in dense_hecke_relations(dense, p).items():
        assert abs(got[key] - value) <= 1e-12 * value + 1e-14, key


def _rational_params(n):
    """A rational point off the poles, with kappa = (3/2)^2 a square."""
    F = Fraction
    return ParamSet(
        n=n, q_sqrt=F(7, 5), kappa0=F(5, 3), kappa=F(9, 4), kappan=F(2, 7),
        upsilon0=F(3, 11), upsilonn=F(13, 6), psi0=F(-4, 5), psin=F(8, 3),
        kappa_sqrt=F(3, 2),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relation_rows_are_exactly_zero_in_rational_arithmetic(n):
    p = _rational_params(n)
    rep = build_spin_rep(p)
    assert all(b.dtype == object for family in (rep.T, rep.Tinv, rep.e)
               for b, _legs in family.values())
    assert all(isinstance(z, (Fraction, int)) for z in rep.T[min(1, n)][0].ravel())
    tl = delta_from_kappa(p)
    rows = {**check_hecke_relations(rep.T, p), **check_tl_relations(rep.e, tl, n),
            **quotient_map_residuals(rep)}
    assert rows and all(v == 0.0 for v in rows.values()), rows
    for family, battery in ((rep.T, lambda f: check_hecke_relations(f, p)),
                            (rep.e, lambda f: check_tl_relations(f, tl, n))):
        bad = dict(family)
        block, legs = bad[min(1, n)]
        bad[min(1, n)] = (Fraction(101, 100) * block, legs)
        assert max(battery(bad).values()) > 0.0


def test_complex_parameters_keep_complex_blocks(params3):
    rep = build_spin_rep(params3)
    assert all(b.dtype == np.complex128 for family in (rep.T, rep.Tinv, rep.e)
               for b, _legs in family.values())


def test_relation_rows_stay_on_at_most_four_legs(monkeypatch):
    """No relation battery and no identity row of the dressed generators
    hands an operand of more than 2^4 rows to the local primitive."""
    import heckespin.tensorops as tensorops
    from heckespin.baxter import check_ybe_re

    honest, rows = tensorops.apply_on_legs, []

    def watched(op, legs, a, m):
        rows.append(a.shape[0])
        return honest(op, legs, a, m)

    monkeypatch.setattr(tensorops, "apply_on_legs", watched)
    p = sample_generic(seed=2, n=6)
    rep = build_spin_rep(p)
    check_hecke_relations(rep.T, p)
    check_tl_relations(rep.e, delta_from_kappa(p), 6)
    quotient_map_residuals(rep)
    check_ybe_re(p, samples=2, seed=1)
    assert rows and max(rows) <= 2**4


def test_murphy_elements_apply_local_factors_only(monkeypatch):
    """Y_i is its 2n-letter word applied one local block at a time: no
    product of two dense 2^n matrices."""
    import heckespin.tensorops as tensorops
    from heckespin.weyl import tau_word

    n = 5
    rep = build_spin_rep(sample_generic(seed=2, n=n))
    honest_matmul, honest_apply, blocks = np.matmul, tensorops.apply_on_legs, []

    def guarded(a, b, *args, **kw):
        if min(np.shape(a)[-2:] + np.shape(b)[-2:]) >= 2**n:
            raise AssertionError("dense 2^n x 2^n product")
        return honest_matmul(a, b, *args, **kw)

    def watched(op, legs, a, m):
        blocks.append(op.shape[0])
        return honest_apply(op, legs, a, m)

    monkeypatch.setattr(np, "matmul", guarded)
    monkeypatch.setattr(tensorops, "apply_on_legs", watched)
    for i in range(1, n + 1):
        blocks.clear()
        murphy_Y(rep, i)
        assert len(blocks) == len(tau_word(i, n)) and max(blocks) <= 4


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_murphy_commutators_match_the_dense_pairs(n, monkeypatch):
    rep = build_spin_rep(sample_generic(seed=4, n=n))
    ys = {i: murphy_Y(rep, i) for i in range(1, n + 1)}
    want = max((rel_residual(ys[i] @ ys[j], ys[j] @ ys[i])
                for i in ys for j in ys if i < j), default=0.0)
    # blocks of 16 columns split every n >= 5 into several blocks
    monkeypatch.setattr(spinrep, "_COLUMN_BLOCK", 16)
    got = murphy_commutator_residual(rep)
    assert abs(got - want) <= 1e-15
