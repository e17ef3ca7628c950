"""The two-parameter action on the tensor-product chain."""

import numpy as np
import pytest

from heckespin import spinrep
from heckespin.numerics import InternalDefectError, sample_generic
from heckespin.spinrep import (
    build_spin_rep,
    check_hecke_relations,
    check_tl_relations,
    delta_from_kappa,
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
    eye = np.eye(rep.dim)
    for j in range(params2.n + 1):
        assert np.allclose(rep.T[j] @ rep.Tinv[j], eye)


def test_perturbed_generator_breaks_relations(params2):
    rep = build_spin_rep(params2)
    bad = dict(rep.T)
    bad[1] = 1.01 * bad[1]
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


def _dense_word(rep, letters):
    """Oracle: T_{a_1} T_{a_2} ... as dense products, leftmost factor first."""
    out = np.eye(rep.dim, dtype=complex)
    for a in letters:
        out = out @ rep.T[a]
    return out


def _murphy_chain(rep, i):
    """Oracle: Y_i as the hand-written 2n-fold chain
    T_{i-1}^-1 ... T_1^-1 T_0 T_1 ... T_{n-1} T_n T_{n-1} ... T_i."""
    n = rep.n
    out = np.eye(rep.dim, dtype=complex)
    for j in range(i - 1, 0, -1):
        out = out @ rep.Tinv[j]
    out = out @ rep.T[0]
    for j in range(1, n):
        out = out @ rep.T[j]
    out = out @ rep.T[n]
    for j in range(n - 1, i - 1, -1):
        out = out @ rep.T[j]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_principal_basis_and_murphy_match_dense_products(n):
    for seed in (1, 2):
        B, _zeta, reps, rep = principal_series_basis(sample_generic(seed=seed, n=n))
        v0 = np.zeros(rep.dim, dtype=complex)
        v0[0] = 1.0
        dense = np.stack([_dense_word(rep, reduced_word(w)) @ v0 for w in reps], axis=1)
        assert np.array_equal(B, dense)
        for i in range(1, n + 1):
            assert np.array_equal(murphy_Y(rep, i), _murphy_chain(rep, i))


def test_missing_suffix_is_an_internal_defect(monkeypatch, params3):
    honest = spinrep.min_coset_reps
    monkeypatch.setattr(spinrep, "min_coset_reps", lambda I, n: honest(I, n)[1:])
    with pytest.raises(InternalDefectError, match="lacks its suffix"):
        principal_series_basis(params3)
