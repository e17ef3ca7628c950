"""Acceptance gate: one test per criterion, each reporting a single
pass/fail line in the terminal summary.

Defaults follow the project contract: double precision, tolerance 1e-9 on
normalized residuals unless a looser bound is stated, seeds 1..5.
"""

import json
import time

import numpy as np

from conftest import record_acceptance
from heckespin.baxter import check_ybe_re, cocycle_C, dressed_blocks
from heckespin.cli import Config, run_suite
from heckespin.koornwinder import (
    _ball_matrices,
    compute_P,
    compute_P_detail,
    fixed_by_si,
    stabilizer_eigen_residual,
)
from heckespin.matchings import (
    boundary_arc_counts,
    enumerate_matchings,
    intertwiner_Psi,
    matchmaker_betas,
    matchmaker_matrix,
    pty,
)
from heckespin.numerics import (
    PoleProximityError,
    RefusalError,
    l1_ball,
    rel_residual,
    sample_generic,
)
from heckespin.qkz import KZSolution, build_polynomial_solution, verify_solution
from heckespin.tensorops import PERMUTE_TWO, op_on_legs
from heckespin.spinrep import (
    build_spin_rep,
    check_hecke_relations,
    check_tl_relations,
    delta_from_kappa,
    murphy_Y,
    principal_series_basis,
)
from heckespin.transfer import check_transfer, check_transfer_vs_transport, hamiltonian
from heckespin.weyl import WeylElem, reduced_word


def test_criterion_1_algebra_relations():
    t0 = time.monotonic()
    worst = 0.0
    for n in (2, 3, 4, 5):
        p = sample_generic(seed=1, n=n)
        rep = build_spin_rep(p)
        tl = delta_from_kappa(p)
        worst = max(worst, max(check_hecke_relations(rep.T, p).values()))
        worst = max(worst, max(check_tl_relations(rep.e, tl, n).values()))
        b0, b1 = matchmaker_betas(p)
        mats = {j: matchmaker_matrix(j, tl, b0, b1, n) for j in range(n + 1)}
        worst = max(worst, max(check_tl_relations(mats, tl, n).values()))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 30.0
    record_acceptance(
        f"1. generator and diagram relations, both actions, n=2..5 "
        f"(worst {worst:.2e}, {elapsed:.1f}s)", ok)
    assert ok, (worst, elapsed)


def test_criterion_2_principal_series():
    worst = 0.0
    worst_cond = 0.0
    for seed in (1, 2, 3, 4, 5):
        p = sample_generic(seed=seed, n=3)
        B, zeta, _reps, rep = principal_series_basis(p)
        v0 = np.zeros(rep.dim, dtype=complex)
        v0[0] = 1.0
        for i in range(1, 4):
            resid = np.abs(murphy_Y(rep, i) @ v0 - zeta[i - 1] * v0).max()
            worst = max(worst, float(resid))
        gram = B.conj().T @ B
        worst_cond = max(worst_cond, float(np.linalg.cond(gram)))
    ok = worst < 1e-9 and worst_cond < 1e12
    record_acceptance(
        f"2. principal-series eigenvalues and gram invertibility "
        f"(worst {worst:.2e}, cond {worst_cond:.1e})", ok)
    assert ok, (worst, worst_cond)


def test_criterion_3_intertwiner():
    worst = 0.0
    min_det = float("inf")
    for n in (2, 3, 4):
        p = sample_generic(seed=1, n=n)
        tl = delta_from_kappa(p)
        b0, b1 = matchmaker_betas(p)
        rep = build_spin_rep(p)
        psi = intertwiner_Psi(p)
        for j in range(n + 1):
            mm = matchmaker_matrix(j, tl, b0, b1, n)
            worst = max(worst, rel_residual(op_on_legs(*rep.e[j], n) @ psi, psi @ mm))
        min_det = min(min_det, abs(np.linalg.det(psi)))
    lsum_exact = all(
        sum((-1) ** h * c for (_, h), c in boundary_arc_counts(m).items())
        == -pty(n)
        for n in range(1, 7)
        for m in enumerate_matchings(n)
    )
    p3 = sample_generic(seed=1, n=3)
    limit_map = intertwiner_Psi(p3, limit=True)
    expected = np.zeros_like(limit_map)
    for col, m in enumerate(enumerate_matchings(3)):
        expected[m.nu_index(), col] = 1.0
    degenerate_exact = bool(np.array_equal(limit_map, expected))
    ok = worst < 1e-9 and min_det > 1e-8 and lsum_exact and degenerate_exact
    record_acceptance(
        f"3. matching-to-spin equivalence n=2..4, arc-count identity n<=6, "
        f"degenerate limit (worst {worst:.2e}, min|det| {min_det:.1e})", ok)
    assert ok, (worst, min_det, lsum_exact, degenerate_exact)


def _random_reduced_words(n, count, max_len, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        length = int(rng.integers(1, max_len + 1))
        word = [int(rng.integers(0, n + 1)) for _ in range(length)]
        elem = WeylElem.from_word(word, n)
        if len(reduced_word(elem)) == len(word):
            out.append((word, elem))
    return out


def test_criterion_4_spectral_identities():
    worst = 0.0
    control_ok = True
    for n in (2, 3):
        p = sample_generic(seed=1, n=n)
        res = check_ybe_re(p, samples=20, seed=1)
        control_ok = control_ok and res.pop("negative control perturbed reflection") > 1e-3
        worst = max(worst, max(res.values()))
        kbar, r, k = dressed_blocks(p)
        worst = max(worst, rel_residual(r(1.0) @ PERMUTE_TWO, PERMUTE_TWO))
        for x in (1.0, -1.0):
            worst = max(worst, rel_residual(k(x), np.eye(2)))
            worst = max(worst, rel_residual(kbar(x), np.eye(2)))
    # reduced-word independence of the ordered product, 50 words of length <= 8
    p = sample_generic(seed=1, n=2)
    rng = np.random.default_rng(5)
    checked = 0
    for word, elem in _random_reduced_words(2, 50, 8, seed=5):
        t = tuple(
            complex(rng.uniform(0.75, 1.3) * np.exp(2j * np.pi * rng.uniform()))
            for _ in range(2)
        )
        try:
            a = cocycle_C(p, word, t)
            b = cocycle_C(p, reduced_word(elem), t)
        except PoleProximityError:
            continue
        worst = max(worst, rel_residual(a, b))
        checked += 1
    ok = worst < 1e-9 and control_ok and checked >= 40
    record_acceptance(
        f"4. spectral identity battery and word independence "
        f"({checked} words, worst {worst:.2e})", ok)
    assert ok, (worst, control_ok, checked)


def test_criterion_5_transfer_matrix():
    worst_commute = 0.0
    worst_crossing = 0.0
    worst_interp = 0.0
    for n in (2, 3, 4):
        p = sample_generic(seed=1, n=n)
        res = check_transfer(p, samples=10, seed=2)
        worst_commute = max(worst_commute, res["commuting transfer matrices"])
        worst_crossing = max(
            worst_crossing,
            res["boundary crossing"],
            res["crossing unitarity"],
        )
    for n in (2, 3):
        p = sample_generic(seed=1, n=n)
        res = check_transfer_vs_transport(p, samples=10, seed=3)
        worst_interp = max(worst_interp, max(res.values()))
    ok = worst_commute < 1e-8 and worst_crossing < 1e-9 and worst_interp < 1e-8
    record_acceptance(
        f"5. transfer commutation n=2..4, crossing identities, stationary "
        f"transport (commute {worst_commute:.2e}, interp {worst_interp:.2e})",
        ok)
    assert ok, (worst_commute, worst_crossing, worst_interp)


def test_criterion_6_hamiltonian_triple():
    worst_closed = 0.0
    worst_deriv = 0.0
    for n in (2, 3):
        for seed in (1, 2, 3, 4, 5):
            p = sample_generic(seed=seed, n=n)
            h_tl = hamiltonian(p, form="tl")
            h_pauli = hamiltonian(p, form="pauli")
            h_transfer = hamiltonian(p, form="transfer")
            worst_closed = max(worst_closed, rel_residual(h_tl, h_pauli))
            worst_deriv = max(worst_deriv, rel_residual(h_transfer, h_pauli))
    ok = worst_closed < 1e-9 and worst_deriv < 1e-7
    record_acceptance(
        f"6. hamiltonian three-form agreement n=2,3 x 5 seeds "
        f"(closed {worst_closed:.2e}, derivative {worst_deriv:.2e})", ok)
    assert ok, (worst_closed, worst_deriv)


def test_criterion_7_polynomial_family():
    t0 = time.monotonic()
    worst_eig = 0.0
    monic_exact = True
    lemma_ok = True
    worst_comm = 0.0
    for n in (1, 2, 3):
        p = sample_generic(seed=1, n=n)
        assert compute_P((0,) * n, p).terms == {(0,) * n: 1.0}
        for lam in l1_ball(n, 3):
            lam = tuple(lam)
            det = compute_P_detail(lam, p)
            worst_eig = max(worst_eig, det.residual)
            monic_exact = monic_exact and det.poly.terms[lam] == 1.0
            for i in range(1, n + 1):
                r = stabilizer_eigen_residual(i, det.poly, p)
                if fixed_by_si(i, lam):
                    lemma_ok = lemma_ok and r < 1e-8
                else:
                    lemma_ok = lemma_ok and r > 1e-3
        basis, _index, mats = _ball_matrices(p, 3)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                worst_comm = max(
                    worst_comm, rel_residual(mats[i] @ mats[j], mats[j] @ mats[i])
                )
    elapsed = time.monotonic() - t0
    ok = (
        worst_eig < 1e-8
        and monic_exact
        and lemma_ok
        and worst_comm < 1e-8
        and elapsed < 60.0
    )
    record_acceptance(
        f"7. polynomial family n=1..3, degree<=3: eigen {worst_eig:.2e}, "
        f"monic exact, stabilizer equivalence, commutation {worst_comm:.2e} "
        f"({elapsed:.1f}s)", ok)
    assert ok, (worst_eig, monic_exact, lemma_ok, worst_comm, elapsed)


def test_criterion_8_difference_equation_solutions():
    worst = 0.0
    refusals_ok = True
    distortion_ok = True
    for n in (2, 3):
        for m in (-1, 0, 1):
            p = sample_generic(seed=11, n=n, mcondition=m)
            sol = build_polynomial_solution(p, m)
            res = verify_solution(sol, samples=20, seed=2)
            worst = max(worst, max(res.values()))
        free = sample_generic(seed=23 + n, n=n)
        try:
            build_polynomial_solution(free, 1)
            refusals_ok = False
        except RefusalError:
            pass
    p = sample_generic(seed=11, n=2, mcondition=1)
    sol = build_polynomial_solution(p, 1)
    bad = KZSolution(
        params=p,
        components=[c.scale(1.0) for c in sol.components],
        metadata=dict(sol.metadata),
    )
    bad.components[1] = bad.components[1].scale(1.01)
    distortion_ok = max(verify_solution(bad, samples=5, seed=2).values()) > 1e-3
    ok = worst < 1e-8 and refusals_ok and distortion_ok
    record_acceptance(
        f"8. difference-equation solutions n=2,3 m=-1,0,1: verified at 20 "
        f"points (worst {worst:.2e}), refusal and distortion behave", ok)
    assert ok, (worst, refusals_ok, distortion_ok)


def test_criterion_9_deterministic_reports():
    identical = True
    for suite in ("algebra", "matchmaker", "baxter", "transfer",
                  "koornwinder", "qkz"):
        cfg = Config(n=2, seed=2, samples=4)
        rep_a, _ = run_suite(suite, cfg)
        rep_b, _ = run_suite(suite, Config(n=2, seed=2, samples=4))
        identical = identical and (
            json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)
        )
    record_acceptance("9. byte-identical reports for every suite", identical)
    assert identical
