"""The two-parameter action on the tensor-product chain."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import _kron_embed, _rational_params, dense_hecke_relations, residuals, sample_generic
from heckespin import spinrep
from heckespin.numerics import GenericityError, InternalDefectError, rel_residual, stream
from heckespin.spinrep import (
    build_spin_rep,
    check_hecke_relations,
    check_tl_relations,
    loop_weights,
    murphy_commutator_residual,
    murphy_Y,
    principal_series_basis,
    quotient_map_residuals,
)
from heckespin.tensorops import evaluate, gaussian_block


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_relations(n):
    p = sample_generic(seed=1, n=n)
    rep = build_spin_rep(p)
    assert max(residuals(check_hecke_relations(rep.T, p)).values()) < 1e-10
    assert max(residuals(check_tl_relations(rep.e, loop_weights(p))).values()) < 1e-10
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
    assert max(residuals(check_hecke_relations(bad, params2)).values()) > 1e-3


def test_delta_weights_match_boundary_formula():
    """Every generator's loop weight, keyed j = 0..n at n = 2 and 4:
    -(kappa + 1/kappa) in the middle and the closed boundary form at j = 0
    and n."""
    for n in (2, 4):
        p = sample_generic(seed=1, n=n)
        weights = loop_weights(p)
        assert sorted(weights) == list(range(n + 1))
        for j in range(n + 1):
            kj = p.kappa0 if j == 0 else p.kappan if j == n else p.kappa
            expected = -(kj + 1 / kj)
            if j in (0, n):
                expected /= p.kappa / kj + kj / p.kappa
            assert abs(weights[j] - expected) < 1e-14, (n, j)


def test_murphy_elements_commute_and_share_eigenvector(params3):
    p = params3
    rep = build_spin_rep(p)
    ys = [murphy_Y(rep, i, None) for i in range(1, p.n + 1)]
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
    B = B @ np.eye(8)
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
        dense = np.stack([_word_on_groups(rep, word, v0) for word in reps], axis=1)
        assert np.array_equal(B @ np.eye(rep.dim), dense)
        for i in range(1, n + 1):
            assert np.array_equal(murphy_Y(rep, i, None), _murphy_chain(rep, i))


@pytest.mark.parametrize("n", range(1, 9))
def test_each_principal_vector_is_a_power_of_psin_on_one_basis_vector(n):
    """v_w = psin^(number of down spins) e_b, and the smallest singular value
    of the dense B (the oracle, at n <= 8) is min|weight|."""
    for seed in (1, 2, 3):
        p = sample_generic(seed=seed, n=n)
        B, _zeta, _reps, rep = principal_series_basis(p)
        want = p.psin ** np.array([bin(b).count("1") for b in B.index])
        assert (np.abs(B.weight - want) <= 1e-15 * np.abs(want)).all()
        assert sorted(B.index) == list(range(rep.dim))
        smin = np.linalg.svd(B @ np.eye(rep.dim), compute_uv=False)[-1]
        assert abs(np.abs(B.weight).min() - smin) <= 1e-15 * smin


def test_a_principal_vector_off_one_basis_vector_is_an_internal_defect(monkeypatch, tmp_path):
    """A K whose up column has two nonzero entries makes some v_w a sum of
    two basis vectors: principal_series_basis raises, naming w, and the
    algebra suite exits 3."""
    from heckespin.cli import main

    honest = spinrep._local_k

    def planted(p):
        k = honest(p)
        k[0, 0] = 0.5
        return k

    monkeypatch.setattr(spinrep, "_local_k", planted)
    with pytest.raises(InternalDefectError, match="for w = .* is not one tensor basis vector"):
        principal_series_basis(sample_generic(seed=1, n=3))
    assert main(["verify", "algebra", "--n", "3", "--report", str(tmp_path / "r.json")]) == 3


def test_missing_suffix_is_an_internal_defect(monkeypatch, params3):
    honest = spinrep.min_coset_reps
    monkeypatch.setattr(spinrep, "min_coset_reps", lambda n: honest(n)[1:])
    with pytest.raises(InternalDefectError, match="lacks its suffix"):
        principal_series_basis(params3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_local_rows_match_the_dense_battery(n):
    """Each relation row on its own legs against the same row multiplied
    out on the full space: the same names, residuals at rounding level."""
    p = sample_generic(seed=3, n=n)
    rep = build_spin_rep(p)
    dense = {j: _kron_embed(block, legs, n) for j, (block, legs) in rep.T.items()}
    local, full = residuals(check_hecke_relations(rep.T, p)), dense_hecke_relations(dense, p)
    assert local.keys() == full.keys()
    assert all(abs(local[k] - full[k]) < 1e-14 for k in local), (local, full)
    bad = dict(rep.T)
    bad[n // 2] = (1.01 * bad[n // 2][0], bad[n // 2][1])
    dense[n // 2] = 1.01 * dense[n // 2]
    got = residuals(check_hecke_relations(bad, p))
    for key, value in dense_hecke_relations(dense, p).items():
        assert abs(got[key] - value) <= 1e-12 * value + 1e-14, key


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relation_rows_are_exactly_zero_in_rational_arithmetic(n):
    p = _rational_params(n)
    rep = build_spin_rep(p)
    assert all(b.dtype == object for family in (rep.T, rep.Tinv, rep.e)
               for b, _legs in family.values())
    assert all(isinstance(z, (Fraction, int)) for z in rep.T[min(1, n)][0].ravel())
    weights = loop_weights(p)
    rows = residuals({**check_hecke_relations(rep.T, p), **check_tl_relations(rep.e, weights),
                      **quotient_map_residuals(rep)})
    assert rows and all(v == 0.0 for v in rows.values()), rows
    for family, battery in ((rep.T, lambda f: check_hecke_relations(f, p)),
                            (rep.e, lambda f: check_tl_relations(f, weights))):
        bad = dict(family)
        block, legs = bad[min(1, n)]
        bad[min(1, n)] = (Fraction(101, 100) * block, legs)
        assert max(residuals(battery(bad)).values()) > 0.0


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
    residuals(check_hecke_relations(rep.T, p))
    residuals(check_tl_relations(rep.e, loop_weights(p)))
    quotient_map_residuals(rep)
    residuals(check_ybe_re(p, 2, stream(1)))
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
        murphy_Y(rep, i, None)
        assert len(blocks) == len(tau_word(i, n)) and max(blocks) <= 4


def _bent(rep):
    """T_2 with its leg-2-up columns scaled by 1.01: the Y_i no longer
    commute."""
    block, legs = rep.T[2]
    return replace(rep, T={**rep.T, 2: (block @ np.diag([1, 1, 1.01, 1.01]), legs)})


@pytest.mark.parametrize("n, bent", [
    *(pytest.param(n, False, id=str(n)) for n in (1, 2, 3, 6)),
    pytest.param(6, True, id="6-noncommuting"),
])
def test_murphy_commutators_match_the_dense_pairs(n, bent):
    """The block row against the dense products Y_i Y_j and Y_j Y_i applied
    to the same block."""
    rep = build_spin_rep(sample_generic(seed=4, n=n))
    rep = _bent(rep) if bent else rep
    ys = {i: murphy_Y(rep, i, None) for i in range(1, n + 1)}
    v = gaussian_block(stream(n), 2**n)
    want = max((rel_residual(ys[i] @ ys[j] @ v, ys[j] @ ys[i] @ v)
                for i in ys for j in ys if i < j), default=0.0)
    assert (want > 1e-3) == bent
    got = evaluate(murphy_commutator_residual(rep, v))
    assert abs(got - want) <= max(1e-15, 1e-12 * want)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_the_block_murphy_row_catches_the_bent_generator(n):
    """The suite's block row reads at least 1e-3 on the bent T_2 at seeds
    1-5 (the weakest reading is 1.16e-2, at n = 10), and stays at rounding
    level on the honest family."""
    from heckespin.commands import Config, _block

    for seed in range(1, 6):
        rep = build_spin_rep(sample_generic(seed=seed, n=n))
        v = _block(Config(n=n, seed=seed), 2**n)
        assert evaluate(murphy_commutator_residual(_bent(rep), v)) >= 1e-3
        assert evaluate(murphy_commutator_residual(rep, v)) < 1e-12


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("poison", ["one entry", "every product"])
def test_a_nan_in_a_murphy_product_fails_the_commutator_row(monkeypatch, poison):
    """A NaN in one entry of the first product Y_i Y_j, or in every entry of
    every product, makes the commutator residual NaN: the block maxima and
    the division keep it, where Python's max dropped it (one entry read
    4.7e-16) or left 0 / 0 (every product)."""
    import heckespin.tensorops as tensorops

    rep = build_spin_rep(sample_generic(seed=1, n=3))
    honest, calls = tensorops.factor_product, []

    def poisoned(factors, m, a=None):
        out = honest(factors, m, a)
        calls.append(m)
        # the first n calls are the column images; the products follow
        if len(calls) > rep.n and (poison == "every product" or len(calls) == rep.n + 1):
            out = out.copy()
            out[(0, 0) if poison == "one entry" else ...] = np.nan
        return out

    monkeypatch.setattr(tensorops, "factor_product", poisoned)
    got = evaluate(murphy_commutator_residual(rep, None))
    assert got != got


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("side", [0, 1])
def test_a_vanishing_boundary_normalization_is_a_genericity_error(n, side):
    """At kappa_j = i kappa (j = 0 or n), kappa/kappa_j + kappa_j/kappa = 0:
    the loop weights, the projector blocks and the quotient map divide by it,
    and each refuses with a GenericityError naming the point."""
    from heckespin.matchings import m_constants, matchmaker_betas
    from heckespin.transfer import tl_weight

    p = sample_generic(seed=4, n=n)
    j = side * n
    bad = p.replace(**{"kappan" if side else "kappa0": 1j * p.kappa})
    for refused in (loop_weights, build_spin_rep, matchmaker_betas, m_constants,
                    lambda q: tl_weight(q, j)):
        with pytest.raises(GenericityError, match=f"kappa_j/kappa at j={j} vanishes") as err:
            refused(bad)
        assert err.value.point == bad
