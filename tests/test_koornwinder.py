"""Difference-reflection operators and their monic joint eigenpolynomials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heckespin.koornwinder as koornwinder
from conftest import dense_hecke_relations
import heckespin.numerics as numerics
from heckespin.koornwinder import (
    _ball_matrices,
    ball_vector,
    compute_P,
    compute_P_detail,
    fixed_by_si,
    gamma_lambda,
    generator_matrices,
    joint_residual,
    noumi_T_apply,
    noumi_T_inv_apply,
    noumi_Y_apply,
    stabilizer_eigen_residual,
)
from heckespin.numerics import (
    GenericityError,
    InternalDefectError,
    LaurentPoly,
    RefusalError,
    eta,
    l1_ball,
    sample_generic,
)
from heckespin.qkz import build_polynomial_solution, cm_alpha


def test_constant_label_gives_the_constant_polynomial(params2):
    p = compute_P((0, 0), params2)
    assert p.terms == {(0, 0): 1.0}


def test_quadratic_relation_for_the_generator(params2):
    # the basic representation runs at inverted parameters, so the factors
    # are (T - 1/kappa_j)(T + kappa_j)
    f = LaurentPoly(2, {(1, -1): 1.3, (0, 1): -0.4})
    for j in range(3):
        kj = params2.kappa_j(j)
        g = noumi_T_apply(j, f, params2)
        lhs = noumi_T_apply(j, g, params2) + g.scale(kj - 1 / kj) + f.scale(-1)
        assert lhs.max_abs() < 1e-10 * max(f.max_abs(), 1.0)
        # inverse built from the same relation
        h = noumi_T_inv_apply(j, noumi_T_apply(j, f, params2), params2)
        assert (h + f.scale(-1)).max_abs() < 1e-10


def test_operators_commute_on_a_sample(params2):
    f = LaurentPoly(2, {(1, 0): 1.0, (-1, 1): 0.7})
    a = noumi_Y_apply(1, noumi_Y_apply(2, f, params2), params2)
    b = noumi_Y_apply(2, noumi_Y_apply(1, f, params2), params2)
    assert (a + b.scale(-1)).max_abs() < 1e-10 * max(a.max_abs(), 1.0)


def test_constant_is_a_joint_eigenfunction(params2):
    one = LaurentPoly.one(2)
    g = gamma_lambda((0, 0), params2).gamma
    for i in (1, 2):
        out = noumi_Y_apply(i, one, params2)
        diff = out + one.scale(-1 / g[i - 1])
        assert diff.max_abs() < 1e-12


@pytest.mark.parametrize(
    "lam",
    [(2, 2), (0, 0), (-1, -1), (-2, -1)],
)
def test_spectrum_branch_values(lam, params2):
    """Closed-form eigenvalue strings at constant and weakly increasing
    nonpositive labels."""
    p = params2
    g = gamma_lambda(lam, p).gamma
    n = 2
    for i in (1, 2):
        if all(v == lam[0] for v in lam) and lam[0] > 0:
            expect = (
                1 / (p.kappa0 * p.kappan) * p.kappa ** (2 * (1 - i)) * p.q ** lam[0]
            )
        elif all(v <= 0 for v in lam) and list(lam) == sorted(lam):
            expect = (
                p.kappa0 * p.kappan * p.kappa ** (2 * (n - i)) * p.q ** lam[i - 1]
            )
        else:
            continue
        assert abs(g[i - 1] - expect) < 1e-12 * abs(expect)


def test_eigen_residuals_small_over_a_ball(params2):
    worst = 0.0
    for lam in l1_ball(2, 2):
        det = compute_P_detail(tuple(lam), params2)
        worst = max(worst, det.residual)
        assert det.poly.terms.get(tuple(lam)) == 1.0
    assert worst < 1e-9


def test_interpolation_oracle_single_variable():
    """Recover the degree-one polynomial by pointwise interpolation and a
    dense eigensolve, bypassing the kernel machinery entirely."""
    p = sample_generic(seed=6, n=1)
    exps = [1, 0, -1]
    pts = [0.9 * np.exp(0.31j), 1.21 * np.exp(-0.77j), 0.74 * np.exp(1.9j)]
    V = np.array([[pt**e for e in exps] for pt in pts], dtype=complex)
    cols = []
    for e in exps:
        f = LaurentPoly(1, {(e,): 1.0})
        g = noumi_Y_apply(1, f, p)
        vals = np.array([g.eval((pt,)) for pt in pts], dtype=complex)
        cols.append(np.linalg.solve(V, vals))
    M = np.stack(cols, axis=1)
    target = 1.0 / gamma_lambda((1,), p).gamma[0]
    vals, vecs = np.linalg.eig(M)
    k = int(np.argmin(np.abs(vals - target)))
    assert abs(vals[k] - target) < 1e-9
    vec = vecs[:, k] / vecs[0, k]  # monic: coefficient of t^1 is one
    computed = compute_P((1,), p)
    recovered = {(e,): vec[idx] for idx, e in enumerate(exps) if abs(vec[idx]) > 1e-12}
    for exp, coeff in recovered.items():
        assert abs(computed.terms.get(exp, 0.0) - coeff) < 1e-9


def test_stabilized_labels_are_generator_eigenvectors(params2):
    det = compute_P_detail((1, 1), params2)
    assert fixed_by_si(1, (1, 1))
    assert stabilizer_eigen_residual(1, det.poly, params2) < 1e-9
    # a moved label must fail the same eigen test
    det2 = compute_P_detail((1, 0), params2)
    assert not fixed_by_si(1, (1, 0))
    assert stabilizer_eigen_residual(1, det2.poly, params2) > 1e-3


def test_fixed_by_si_detects_stabilized_labels():
    assert fixed_by_si(1, (2, 2))
    assert not fixed_by_si(1, (2, 1))
    assert fixed_by_si(2, (2, 0))
    assert not fixed_by_si(2, (2, 1))


def test_last_coordinate_zero_is_fixed_by_the_sign_flip(params2):
    assert fixed_by_si(2, (1, 0))
    det = compute_P_detail((1, 0), params2)
    assert stabilizer_eigen_residual(2, det.poly, params2) < 1e-9


def test_degree_cap_is_enforced(params2):
    with pytest.raises(RefusalError, match="polynomial caps exceeded"):
        compute_P_detail((3, 2), params2)


def test_degenerate_spectrum_is_a_genericity_error():
    # at the undeformed point with reciprocal boundary weights every
    # eigenvalue string collapses to ones, so the labels below (1, 0) share
    # its diagonal entry and the predecessor gate refuses
    p = sample_generic(seed=4, n=2)
    bad = p.replace(q_sqrt=1.0, kappa=1.0, kappa_sqrt=1.0, kappan=1 / p.kappa0)
    with pytest.raises(GenericityError, match="non-generic spectrum"):
        compute_P((1, 0), bad)


def test_eta_convention_in_the_spectrum(params2):
    # eta(0) = -1 puts the zero label on the boundary-product branch
    g0 = gamma_lambda((0, 0), params2).gamma
    expected = params2.kappa0 * params2.kappan * params2.kappa**2
    assert abs(g0[0] - expected) < 1e-12 * abs(expected)
    assert eta(0) == -1


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    radius=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=1, max_value=60),
)
def test_generator_products_match_the_letterwise_action(n, radius, seed):
    """Y_i as a product of cached T_j matrices equals noumi_Y_apply on every
    monomial of the ball, column by column."""
    p = sample_generic(seed=seed, n=n)
    basis, index, mats = _ball_matrices(p, radius)
    for i in range(1, n + 1):
        for col, mu in enumerate(basis):
            image = noumi_Y_apply(i, LaurentPoly.monomial(n, mu), p)
            ref = ball_vector(image, index)
            scale = max(float(np.abs(ref).max()), 1.0)
            assert np.abs(mats[i][:, col] - ref).max() < 1e-12 * scale, (i, mu)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_matrices_satisfy_the_hecke_relations(n):
    # the basic representation runs at inverted kappa's, so the relations
    # are checked against the inverted parameter set
    p = sample_generic(seed=2, n=n)
    inv = p.replace(
        kappa0=1 / p.kappa0, kappa=1 / p.kappa, kappa_sqrt=1 / p.kappa_sqrt,
        kappan=1 / p.kappan,
    )
    _basis, _index, gens = generator_matrices(p, 3)
    res = dense_hecke_relations(gens, inv)
    assert len(res) == {1: 2, 2: 6, 3: 10}[n]
    assert max(res.values()) < 1e-10, res
    plain = dense_hecke_relations(gens, p)
    assert max(v for k, v in plain.items() if k.startswith("quadratic")) > 1e-3


def test_warm_paths_never_take_a_divided_difference(monkeypatch):
    p = sample_generic(seed=11, n=2, mcondition=1)
    sol = build_polynomial_solution(p, 1)
    det = compute_P_detail((1, 1), p)
    before = (det.residual, stabilizer_eigen_residual(1, det.poly, p))

    def forbidden(*args, **kw):
        raise AssertionError("divided difference on a cached path")

    monkeypatch.setattr(koornwinder, "divided_difference", forbidden)
    monkeypatch.setattr(numerics, "divided_difference", forbidden)
    again = compute_P_detail((1, 1), p)
    after = (again.residual, stabilizer_eigen_residual(1, again.poly, p))
    assert again.poly.terms == det.poly.terms
    assert after == before
    rebuilt = cm_alpha(det.poly, p, metadata=sol.metadata)
    assert [c.terms for c in rebuilt.components] == [
        c.terms for c in sol.components
    ]


def test_cold_paths_take_no_divided_difference_and_no_factorization(monkeypatch):
    """A cold ball is filled in closed form and solved by back-substitution:
    no dict-level generator action, no divided difference, no SVD, no QR."""
    p = sample_generic(seed=11, n=2, mcondition=1)
    p3 = sample_generic(seed=5, n=3)

    def results():
        det = compute_P_detail((1, 1), p)
        sol = cm_alpha(det.poly, p)
        dets = [compute_P_detail(tuple(lam), p3) for lam in l1_ball(3, 2)]
        return (
            det.poly.terms, det.residual, stabilizer_eigen_residual(1, det.poly, p),
            [c.terms for c in sol.components],
            [(d.poly.terms, d.residual, d.span_size) for d in dets],
        )

    monkeypatch.setattr(koornwinder, "_BALL_CACHE", {})
    before = results()

    def forbidden(*args, **kw):
        raise AssertionError("dict-level action or factorization on the fill path")

    monkeypatch.setattr(koornwinder, "_BALL_CACHE", {})
    monkeypatch.setattr(koornwinder, "noumi_T_apply", forbidden)
    monkeypatch.setattr(koornwinder, "divided_difference", forbidden)
    monkeypatch.setattr(numerics, "divided_difference", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(np.linalg, "qr", forbidden)
    assert results() == before


def test_full_ball_residual_flags_leakage_out_of_the_span(params2):
    lam = (1, 1)
    det = compute_P_detail(lam, params2)
    basis, index, _mats, _gens, eig = koornwinder._ball(params2, 2)
    down = {basis[r] for r in np.flatnonzero(eig.down[:, index[lam]])}
    assert det.span_size == len(down)
    assert set(det.poly.terms) <= down
    outside = [mu for mu in basis if mu not in down]
    assert outside
    assert joint_residual(det.poly, det.spectral, params2) < 1e-10
    for mu in outside:
        leaked = det.poly + LaurentPoly.monomial(2, mu, 1e-6)
        assert joint_residual(leaked, det.spectral, params2) > 1e-8, mu


def test_generator_image_outside_the_ball_is_a_defect(monkeypatch, params2):
    honest = koornwinder._dd_terms

    def leaky(j, arr, params):
        cols, exps, coeffs = honest(j, arr, params)
        return np.append(cols, 0), np.vstack([exps, [[3, 0]]]), np.append(coeffs, 1.0)

    monkeypatch.setattr(koornwinder, "_BALL_CACHE", {})
    monkeypatch.setattr(koornwinder, "_dd_terms", leaky)
    with pytest.raises(InternalDefectError, match="left the degree ball"):
        generator_matrices(params2, 2)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_corrupted_divided_difference_fails_re_multiplication(monkeypatch, params2, j):
    honest = koornwinder._dd_terms

    def corrupted(jj, arr, params):
        cols, exps, coeffs = honest(jj, arr, params)
        if jj == j:
            coeffs = coeffs.copy()
            coeffs[len(coeffs) // 2] *= 1 + 1e-9
        return cols, exps, coeffs

    monkeypatch.setattr(koornwinder, "_BALL_CACHE", {})
    monkeypatch.setattr(koornwinder, "_dd_terms", corrupted)
    with pytest.raises(InternalDefectError, match=f"re-multiplication check at j={j}"):
        generator_matrices(params2, 2)


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    radius=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=1, max_value=60),
)
def test_closed_form_generators_match_the_dict_action(n, radius, seed):
    """Column mu of the closed-form T_j is noumi_T_apply(j, t^mu) on the ball."""
    p = sample_generic(seed=seed, n=n)
    basis, index, gens = generator_matrices(p, radius)
    for j in range(n + 1):
        for col, mu in enumerate(basis):
            ref = ball_vector(noumi_T_apply(j, LaurentPoly.monomial(n, mu), p), index)
            scale = max(float(np.abs(ref).max()), 1.0)
            assert np.abs(gens[j][:, col] - ref).max() < 1e-12 * scale, (j, mu)


def test_planted_lower_entry_is_a_triangularity_defect(params2):
    _basis, _index, mats = _ball_matrices(params2, 2)
    honest = koornwinder._joint_eigenbasis(mats)
    y1 = mats[1] - np.diag(mats[1].diagonal())
    r, c = np.unravel_index(np.argmax(np.abs(y1)), y1.shape)
    assert honest.rank[r] < honest.rank[c]
    planted = dict(mats)
    planted[1] = mats[1].copy()
    planted[1][c, r] = 1e-8 * np.abs(mats[1]).max()
    with pytest.raises(InternalDefectError, match="not triangular"):
        koornwinder._joint_eigenbasis(planted)


def test_every_label_up_to_the_cap_at_a_large_coefficient_draw():
    """At this draw the degree-4 polynomials reach coefficients near 1e4;
    re-applying the dict action to them used to trip the divided-difference
    re-multiplication bound, so the residual is taken on the ball."""
    p = sample_generic(seed=7, n=3)
    worst = 0.0
    for lam in l1_ball(3, 4):
        det = compute_P_detail(tuple(lam), p)
        assert det.poly.terms[tuple(lam)] == 1.0
        worst = max(worst, det.residual)
    assert worst < 1e-8


def joint_kernel(stack):
    """SVD oracle: singular values and last right singular vector of A = QR,
    from R (R-SVD)."""
    _u, sigma, vh = np.linalg.svd(np.linalg.qr(stack, mode="r"))
    return sigma, vh[-1].conj()


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=14),
    blocks=st.integers(min_value=1, max_value=3),
    deficit=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_joint_kernel_matches_the_full_svd(size, blocks, deficit, seed):
    """The SVD of the triangular factor gives the singular values and the
    kernel line of the full SVD of the tall stack, also at an exact rank
    deficit."""
    rng = np.random.default_rng(seed)
    deficit = min(deficit, size - 1)
    stack = rng.normal(size=(blocks * size, size)) + 1j * rng.normal(
        size=(blocks * size, size)
    )
    if deficit:
        null = np.linalg.qr(
            rng.normal(size=(size, deficit)) + 1j * rng.normal(size=(size, deficit))
        )[0]
        stack = stack - (stack @ null) @ null.conj().T
    sigma, vec = joint_kernel(stack)
    _u, ref_sigma, ref_vh = np.linalg.svd(stack)
    assert sigma.shape == ref_sigma.shape
    assert np.abs(sigma - ref_sigma).max() < 1e-12 * ref_sigma[0]
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    if deficit:
        assert np.linalg.norm(stack @ vec) < 1e-12 * ref_sigma[0]
    if size == 1 or ref_sigma[-2] - ref_sigma[-1] > 1e-3 * ref_sigma[0]:
        # a simple smallest singular value: the same line up to phase
        assert abs(abs(np.vdot(ref_vh[-1].conj(), vec)) - 1.0) < 1e-9


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_triangular_eigenvectors_match_the_svd_kernel(seed):
    """Every label of degree <= 4 at n = 3: the back-substituted column is
    the kernel line of the stacked Y_i - 1/gamma_i on the full ball."""
    p = sample_generic(seed=seed, n=3)
    for lam in l1_ball(3, 4):
        lam = tuple(lam)
        det = compute_P_detail(lam, p)
        _basis, index, mats = _ball_matrices(p, sum(abs(v) for v in lam))
        eye = np.eye(len(index))
        stack = np.concatenate(
            [mats[i] - eye / g for i, g in enumerate(det.spectral.gamma, start=1)]
        )
        sigma, vec = joint_kernel(stack)
        scale = max(sigma[0], 1.0)
        assert sigma[-1] < 1e-9 * scale, lam
        assert len(sigma) == 1 or sigma[-2] > 1e-6 * scale, lam
        vec = vec / vec[index[lam]]
        ref = ball_vector(det.poly, index)
        assert np.abs(vec - ref).max() < 1e-9 * np.abs(ref).max(), lam


def test_missing_joint_eigenvector_is_a_genericity_error(monkeypatch, params2):
    """A perturbed spectral vector misses the diagonal of Y_1 at the label;
    that gate refuses it (the degenerate-spectrum test covers the
    predecessor gate)."""
    honest = koornwinder.gamma_lambda

    def perturbed(lam, params):
        sp = honest(lam, params)
        return koornwinder.SpectralPoint(
            gamma=(sp.gamma[0] * (1 + 1e-3),) + sp.gamma[1:], lam=sp.lam
        )

    assert compute_P_detail((1, 0), params2).residual < 1e-9
    monkeypatch.setattr(koornwinder, "gamma_lambda", perturbed)
    with pytest.raises(GenericityError, match="no joint eigenvector"):
        compute_P_detail((1, 0), params2)
