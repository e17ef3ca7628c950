"""Difference-reflection operators and their monic joint eigenpolynomials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heckespin.koornwinder as koornwinder
from conftest import (
    DictPoly,
    by_degree,
    dense_hecke_relations,
    from_table,
    joint_residual,
    koornwinder_per_label,
    noumi_T_apply,
    noumi_T_inv_apply,
    noumi_Y_apply,
    sample_generic,
    stabilizer_eigen_residual,
    to_table,
)
from heckespin.koornwinder import (
    _ball,
    ball_vector,
    compute_P_detail,
    fixed_by_si,
    generator_matrices,
    label_polynomials,
)
from heckespin.numerics import (
    GenericityError,
    InternalDefectError,
    eta,
    gamma_vectors,
    l1_ball,
)
from heckespin.qkz import build_polynomial_solution, cm_alpha
from heckespin.spinrep import principal_series_basis
from heckespin.weyl import act_letter


def test_constant_label_gives_the_constant_polynomial(params2):
    p = compute_P_detail((0, 0), params2).poly
    assert from_table(p)[0].terms == {(0, 0): 1.0}


def test_quadratic_relation_for_the_generator(params2):
    # the basic representation runs at inverted parameters, so the factors
    # are (T - 1/kappa_j)(T + kappa_j)
    f = DictPoly(2, {(1, -1): 1.3, (0, 1): -0.4})
    for j in range(3):
        kj = params2.kappa_j(j)
        g = noumi_T_apply(j, f, params2)
        lhs = noumi_T_apply(j, g, params2) + g.scale(kj - 1 / kj) + f.scale(-1)
        assert lhs.max_abs() < 1e-10 * max(f.max_abs(), 1.0)
        # inverse built from the same relation
        h = noumi_T_inv_apply(j, noumi_T_apply(j, f, params2), params2)
        assert (h + f.scale(-1)).max_abs() < 1e-10


def test_operators_commute_on_a_sample(params2):
    f = DictPoly(2, {(1, 0): 1.0, (-1, 1): 0.7})
    a = noumi_Y_apply(1, noumi_Y_apply(2, f, params2), params2)
    b = noumi_Y_apply(2, noumi_Y_apply(1, f, params2), params2)
    assert (a + b.scale(-1)).max_abs() < 1e-10 * max(a.max_abs(), 1.0)


def test_constant_is_a_joint_eigenfunction(params2):
    one = DictPoly.one(2)
    g = gamma_vectors([(0, 0)], params2)[0]
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
    g = gamma_vectors([lam], p)[0]
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
    for lam in by_degree(l1_ball(2, 2)):
        det = compute_P_detail(tuple(lam), params2)
        worst = max(worst, det.residual)
        assert from_table(det.poly)[0].terms.get(tuple(lam)) == 1.0
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
        f = DictPoly(1, {(e,): 1.0})
        g = noumi_Y_apply(1, f, p)
        vals = np.array([g.eval((pt,)) for pt in pts], dtype=complex)
        cols.append(np.linalg.solve(V, vals))
    M = np.stack(cols, axis=1)
    target = 1.0 / gamma_vectors([(1,)], p)[0, 0]
    vals, vecs = np.linalg.eig(M)
    k = int(np.argmin(np.abs(vals - target)))
    assert abs(vals[k] - target) < 1e-9
    vec = vecs[:, k] / vecs[0, k]  # monic: coefficient of t^1 is one
    computed = compute_P_detail((1,), p).poly
    recovered = {(e,): vec[idx] for idx, e in enumerate(exps) if abs(vec[idx]) > 1e-12}
    for exp, coeff in recovered.items():
        assert abs(from_table(computed)[0].terms.get(exp, 0.0) - coeff) < 1e-9


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


def test_degenerate_spectrum_is_a_genericity_error():
    # at the undeformed point with reciprocal boundary weights every
    # eigenvalue string collapses to ones, so the labels below (1, 0) share
    # its diagonal entry and the predecessor gate refuses
    p = sample_generic(seed=4, n=2)
    bad = p.replace(q_sqrt=1.0, kappa=1.0, kappa_sqrt=1.0, kappan=1 / p.kappa0)
    with pytest.raises(GenericityError, match="non-generic spectrum"):
        compute_P_detail((1, 0), bad)


def test_eta_convention_in_the_spectrum(params2):
    # eta(0) = -1 puts the zero label on the boundary-product branch
    g0 = gamma_vectors([(0, 0)], params2)[0]
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
    basis, index, mats = _ball(p, radius)[:3]
    for i in range(1, n + 1):
        for col, mu in enumerate(basis):
            image = noumi_Y_apply(i, DictPoly.monomial(n, mu), p)
            ref = ball_vector(to_table([image], n), index)[:, 0]
            scale = max(float(np.abs(ref).max()), 1.0)
            assert np.abs(mats[i][:, col] - ref).max() < 1e-12 * scale, (i, mu)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_step_is_the_torus_action_of_the_simple_reflection(n):
    """w^m t^(mu + m v) from the one step of s_j is the mu-th power of the
    point s_j t of weyl.act_letter, for every j and every mu with |mu| <= 3,
    at a generic point t."""
    p = sample_generic(seed=3, n=n)
    t = np.array([0.9 + 0.3j, 1.2 - 0.2j, 0.7 + 0.5j][:n])
    arr = np.array(l1_ball(n, 3), dtype=np.int64)
    for j in range(n + 1):
        m, v, w = koornwinder._step(j, arr, p)
        got = np.power(complex(w), m) * np.prod(t ** (arr + m[:, None] * v), axis=1)
        moved = np.array(act_letter(j, tuple(t), p))
        want = np.prod(moved**arr, axis=1)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), j


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

    monkeypatch.setattr(koornwinder, "_dd_terms", forbidden)
    again = compute_P_detail((1, 1), p)
    after = (again.residual, stabilizer_eigen_residual(1, again.poly, p))
    assert again.poly.to_dicts() == det.poly.to_dicts()
    assert after == before
    rebuilt = cm_alpha(det.poly, p, principal_series_basis(p), metadata=sol.metadata)
    assert rebuilt.components.to_dicts() == sol.components.to_dicts()


def test_cold_paths_take_no_divided_difference_and_no_factorization(monkeypatch, cold_ball):
    """A cold ball is filled in closed form and solved by back-substitution:
    no SVD, no QR (the library has no dict-level generator action)."""
    p = sample_generic(seed=11, n=2, mcondition=1)
    p3 = sample_generic(seed=5, n=3)

    def results():
        det = compute_P_detail((1, 1), p)
        sol = cm_alpha(det.poly, p, principal_series_basis(p), metadata={"construction": "cm_alpha"})
        dets = [compute_P_detail(tuple(lam), p3) for lam in by_degree(l1_ball(3, 2))]
        return (
            det.poly.to_dicts(), det.residual, stabilizer_eigen_residual(1, det.poly, p),
            sol.components.to_dicts(),
            [(d.poly.to_dicts(), d.residual, d.span_size) for d in dets],
        )

    before = results()

    def forbidden(*args, **kw):
        raise AssertionError("factorization on the fill path")

    _ball.cache_clear()
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(np.linalg, "qr", forbidden)
    assert results() == before


def test_full_ball_residual_flags_leakage_out_of_the_span(params2):
    lam = (1, 1)
    det = compute_P_detail(lam, params2)
    basis, index, _mats, _gens, eig = koornwinder._ball(params2, 2)
    down = {basis[r] for r in np.flatnonzero(eig.down[:, index[lam]])}
    assert det.span_size == len(down)
    assert set(from_table(det.poly)[0].terms) <= down
    outside = [mu for mu in basis if mu not in down]
    assert outside
    assert joint_residual(det.poly, det, params2) < 1e-10
    for mu in outside:
        leaked = to_table([from_table(det.poly)[0] + DictPoly.monomial(2, mu, 1e-6)], 2)
        assert joint_residual(leaked, det, params2) > 1e-8, mu


def test_generator_image_outside_the_ball_is_a_defect(monkeypatch, params2, cold_ball):
    honest = koornwinder._dd_terms

    def leaky(j, arr, params):
        cols, exps, coeffs = honest(j, arr, params)
        return np.append(cols, 0), np.vstack([exps, [[3, 0]]]), np.append(coeffs, 1.0)

    monkeypatch.setattr(koornwinder, "_dd_terms", leaky)
    with pytest.raises(InternalDefectError, match="left the degree ball"):
        generator_matrices(params2, 2)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_corrupted_divided_difference_fails_re_multiplication(monkeypatch, params2, j,
                                                             cold_ball):
    honest = koornwinder._dd_terms

    def corrupted(jj, arr, params):
        cols, exps, coeffs = honest(jj, arr, params)
        if jj == j:
            coeffs = coeffs.copy()
            coeffs[len(coeffs) // 2] *= 1 + 1e-9
        return cols, exps, coeffs

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
            image = noumi_T_apply(j, DictPoly.monomial(n, mu), p)
            ref = ball_vector(to_table([image], n), index)[:, 0]
            scale = max(float(np.abs(ref).max()), 1.0)
            assert np.abs(gens[j][:, col] - ref).max() < 1e-12 * scale, (j, mu)


def test_planted_lower_entry_is_a_triangularity_defect(params2):
    _basis, _index, mats = _ball(params2, 2)[:3]
    honest = koornwinder._joint_eigenbasis(mats, params2)
    y1 = mats[1] - np.diag(mats[1].diagonal())
    r, c = np.unravel_index(np.argmax(np.abs(y1)), y1.shape)
    assert honest.rank[r] < honest.rank[c]
    planted = dict(mats)
    planted[1] = mats[1].copy()
    planted[1][c, r] = 1e-8 * np.abs(mats[1]).max()
    with pytest.raises(InternalDefectError, match="not triangular"):
        koornwinder._joint_eigenbasis(planted, params2)


def test_every_label_up_to_the_cap_at_a_large_coefficient_draw():
    """At this draw the degree-4 polynomials reach coefficients near 1e4;
    re-applying the dict action to them used to trip the divided-difference
    re-multiplication bound, so the residual is taken on the ball."""
    p = sample_generic(seed=7, n=3)
    worst = 0.0
    for lam in by_degree(l1_ball(3, 4)):
        det = compute_P_detail(tuple(lam), p)
        assert from_table(det.poly)[0].terms[tuple(lam)] == 1.0
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
    for lam in by_degree(l1_ball(3, 4)):
        lam = tuple(lam)
        det = compute_P_detail(lam, p)
        _basis, index, mats = _ball(p, sum(abs(v) for v in lam))[:3]
        eye = np.eye(len(index))
        stack = np.concatenate(
            [mats[i] - eye / g for i, g in enumerate(det.gamma, start=1)]
        )
        sigma, vec = joint_kernel(stack)
        scale = max(sigma[0], 1.0)
        assert sigma[-1] < 1e-9 * scale, lam
        assert len(sigma) == 1 or sigma[-2] > 1e-6 * scale, lam
        vec = vec / vec[index[lam]]
        ref = ball_vector(det.poly, index)[:, 0]
        assert np.abs(vec - ref).max() < 1e-9 * np.abs(ref).max(), lam


@pytest.mark.parametrize("argv,builds", [
    (["verify", "koornwinder", "--n", "3"], 4),
    (["qkz", "build", "--n", "3", "--m", "1"], 1),
    (["emit", "tables", "--kind", "koornwinder", "--n", "3", "--m", "4"], 5),
    (["verify", "all", "--n", "3"], 7),
], ids=["verify koornwinder", "qkz build", "emit tables", "verify all"])
def test_a_job_holds_one_ball_and_builds_each_once(tmp_path, monkeypatch, capsys, cold_ball, argv,
                                                   builds):
    """A command builds each ball it reads once, one per (point, degree),
    and ends holding at most one: the polynomial suite's degrees 0..3, the
    ball that qkz build and its cm_alpha share, a table's degrees 0..4 (a
    label loop in lexicographic order would rebuild a ball per label), and
    verify all's polynomial suite and one ball per qKZ degree, each at its
    own point."""
    from heckespin.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    capsys.readouterr()
    info = _ball.cache_info()
    assert info.misses == builds
    assert info.currsize <= 1


def test_missing_joint_eigenvector_is_a_genericity_error(monkeypatch, params2):
    """A perturbed spectral vector misses the diagonal of Y_1 at the label;
    that gate refuses it (the degenerate-spectrum test covers the
    predecessor gate)."""
    honest = koornwinder.gamma_vectors

    def perturbed(lams, params):
        gammas = honest(lams, params)
        gammas[:, 0] *= 1 + 1e-3
        return gammas

    assert compute_P_detail((1, 0), params2).residual < 1e-9
    monkeypatch.setattr(koornwinder, "gamma_vectors", perturbed)
    with pytest.raises(GenericityError, match="no joint eigenvector"):
        compute_P_detail((1, 0), params2)


@pytest.mark.parametrize("n", [2, 3])
def test_label_batches_match_the_per_label_oracle(n, tmp_path, capsys):
    """Every label of degree at most 3, one degree at a time, against one
    compute_P_detail per label: each label's vector exactly, its joint,
    monic and stabilizer residuals within 1e-13, the separation within
    1e-12 relative, and the suite's report built from the batches; and the
    files of emit tables, which batch every label of degree at most 3 at
    once: coefficients, spectral vector and span exactly, the residual
    within 1e-13."""
    import json

    from heckespin.cli import main
    from heckespin.commands import Config, _polynomial_payload, suite_koornwinder

    for seed in (1, 2, 3):
        p = sample_generic(seed=seed, n=n)
        per_label, worst = koornwinder_per_label(p)
        sep, alone = float("inf"), {}
        for r in range(4):
            labels = [lam for lam in l1_ball(n, r) if sum(map(abs, lam)) == r]
            batch = label_polynomials(labels, p)
            index = _ball(p, r)[1]
            for lam, det in zip(labels, batch):
                # the same chopped, pinned column as the label on its own
                alone[lam] = compute_P_detail(lam, p)
                assert np.array_equal(ball_vector(det.poly, index),
                                      ball_vector(alone[lam].poly, index)), lam
                want_joint, want_monic, want_stab = per_label.pop(lam)
                assert abs(det.residual - want_joint) < 1e-13, lam
                assert det.monic == want_monic == 0
                assert np.abs(det.stab - want_stab).max() < 1e-13, lam
                sep = min([sep] + [det.stab[i - 1] for i in range(1, n + 1)
                                   if not fixed_by_si(i, lam)])
        assert not per_label
        assert abs(sep - worst["separation"]) <= 1e-12 * worst["separation"]
        cfg = Config(n=n)
        checks = {c.name: c.row(cfg.tolerance)["residual"] for c in suite_koornwinder(cfg, p)}
        assert abs(checks["joint eigenvector residual"] - worst["joint"]) < 1e-13
        assert checks["monic leading coefficient"] == worst["monic"]
        assert abs(checks["stabilizer eigenvalue at symmetric labels"] - worst["fixed"]) < 1e-13
        assert checks["stabilizer separation at moving labels"] == max(0.0, 1e-3 - sep)
        out = tmp_path / f"seed{seed}"
        assert main(["emit", "tables", "--kind", "koornwinder", "--n", str(n), "--m", "3",
                     "--seed", str(seed), "--out", str(out)]) == 0
        for lam, det in alone.items():
            got = json.loads((out / ("lam_" + "_".join(map(str, lam)) + ".json")).read_text())
            want = _polynomial_payload(det)
            residual = got["metadata"].pop("eigen_residual")
            assert abs(residual - want["metadata"].pop("eigen_residual")) < 1e-13, lam
            assert got == want, lam
    capsys.readouterr()
