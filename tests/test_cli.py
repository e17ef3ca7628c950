"""Driver behavior: exit codes, report determinism, artifact files, and
flag precedence."""

import json

import pytest

from heckespin.cli import main
from heckespin.numerics import PoleProximityError, sample_generic
from heckespin.qkz import build_polynomial_solution


def run(argv):
    return main(argv)


def test_verify_suite_passes_and_writes_report(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["verify", "algebra", "--n", "2", "--seed", "1",
                "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["suite"] == "algebra"
    assert data["seed"] == 1
    names = [c["name"] for c in data["checks"]]
    assert names == sorted(names)
    assert all(c["pass"] == (c["residual"] < c["tolerance"]) for c in data["checks"])


def test_reports_are_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        assert run(["verify", "baxter", "--n", "2", "--seed", "3",
                    "--samples", "6", "--report", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_impossible_tolerance_fails_with_exit_one(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["verify", "algebra", "--n", "2", "--tolerance", "1e-20",
                "--report", str(rep)]) == 1


def test_unconstrained_qkz_request_is_refused(tmp_path, capsys):
    free = sample_generic(seed=33, n=2)
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(free.to_dict()))
    code = run(["verify", "qkz", "--m", "1", "--params", str(pfile)])
    assert code == 2
    err = capsys.readouterr().err
    assert "refus" in err
    assert "satisfied" in err  # the condition report is echoed


def test_rank_cap_is_a_refusal():
    assert run(["verify", "koornwinder", "--n", "7"]) == 2


def test_polynomial_caps_refuse_before_sampling(tmp_path, monkeypatch):
    import heckespin.cli as cli

    pfile = tmp_path / "p4.json"
    pfile.write_text(json.dumps(sample_generic(seed=8, n=4).to_dict()))

    def no_sampling(*args, **kw):
        raise AssertionError("sampled before the cap check")

    monkeypatch.setattr(cli, "sample_generic", no_sampling)
    assert run(["verify", "koornwinder", "--n", "4"]) == 2
    # a parameter file sets the rank the cap is checked against
    assert run(["verify", "koornwinder", "--params", str(pfile)]) == 2
    assert run(["verify", "all", "--n", "4"]) == 2
    assert run(["koornwinder", "compute", "--lambda", "3,2"]) == 2
    assert run(["emit", "tables", "--kind", "koornwinder", "--n", "4",
                "--out", str(tmp_path / "t")]) == 2


def test_spin_cap_refuses_before_sampling(tmp_path, monkeypatch, capsys):
    import heckespin.cli as cli

    pfile = tmp_path / "p11.json"
    pfile.write_text(json.dumps(sample_generic(seed=8, n=2).replace(n=11).to_dict()))

    def no_sampling(*args, **kw):
        raise AssertionError("sampled before the cap check")

    monkeypatch.setattr(cli, "sample_generic", no_sampling)
    for suite in ("algebra", "matchmaker", "baxter", "transfer"):
        assert run(["verify", suite, "--n", "11"]) == 2
        assert "refused: spin representation capped at n = 10" in capsys.readouterr().err
        # a parameter file sets the rank the cap is checked against
        assert run(["verify", suite, "--params", str(pfile)]) == 2
    assert run(["emit", "tables", "--kind", "hamiltonian_spectrum", "--n", "11"]) == 2
    assert run(["emit", "tables", "--kind", "hamiltonian_spectrum",
                "--params", str(pfile)]) == 2
    assert "refused: spin representation capped at n = 10" in capsys.readouterr().err


def test_algebra_suite_runs_past_rank_six(tmp_path):
    rep = tmp_path / "r.json"
    code = run(["verify", "algebra", "--n", "7", "--report", str(rep)])
    assert code in (0, 1)
    data = json.loads(rep.read_text())
    assert data["checks"] and all("pass" in c for c in data["checks"])


def test_polynomial_compute_artifact(tmp_path):
    out = tmp_path / "poly.json"
    assert run(["koornwinder", "compute", "--lambda", "1,-1", "--seed", "2",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["metadata"]["lambda"] == [1, -1]
    assert data["metadata"]["eigen_residual"] < 1e-9
    assert data["polynomial"]["n_vars"] == 2


def test_solution_build_then_verify_roundtrip(tmp_path):
    sol = tmp_path / "sol.json"
    rep = tmp_path / "rep.json"
    assert run(["qkz", "build", "--n", "2", "--m", "1", "--seed", "5",
                "--out", str(sol)]) == 0
    assert run(["qkz", "verify", "--in", str(sol), "--samples", "8",
                "--seed", "4", "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["suite"] == "qkz-verify"
    assert all(c["pass"] for c in data["checks"])


def test_table_emission_counts(tmp_path):
    out = tmp_path / "tables"
    assert run(["emit", "tables", "--kind", "koornwinder", "--n", "1",
                "--m", "2", "--seed", "2", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["entries"]) == 5
    for name in manifest["entries"]:
        payload = json.loads((out / name).read_text())
        assert payload["metadata"]["eigen_residual"] < 1e-8


def test_empty_table_request_yields_empty_manifest(tmp_path):
    out = tmp_path / "tables"
    assert run(["emit", "tables", "--kind", "koornwinder", "--n", "1",
                "--m", "-1", "--seed", "2", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["entries"] == []


def test_spectrum_table_reports_agreement(tmp_path):
    out = tmp_path / "spec.json"
    assert run(["emit", "tables", "--kind", "hamiltonian_spectrum", "--n", "2",
                "--seed", "4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["agree"] is True
    assert data["max_pairwise_gap"] < 1e-7
    assert set(data["forms"]) == {"transfer", "pauli", "tl"}


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "seed": 9, "samples": 4}))
    rep_file = tmp_path / "r1.json"
    assert run(["verify", "algebra", "--params", str(cfg),
                "--report", str(rep_file)]) == 0
    assert json.loads(rep_file.read_text())["seed"] == 9
    rep_file2 = tmp_path / "r2.json"
    assert run(["verify", "algebra", "--params", str(cfg), "--seed", "2",
                "--report", str(rep_file2)]) == 0
    assert json.loads(rep_file2.read_text())["seed"] == 2


def test_explicit_parameter_file_sets_the_rank(tmp_path):
    p = sample_generic(seed=8, n=3)
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(p.to_dict()))
    rep = tmp_path / "r.json"
    assert run(["verify", "algebra", "--params", str(pfile),
                "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["params_fingerprint"] == p.fingerprint()


@pytest.mark.parametrize(
    "corrupt", ["leg out of range", "block on too many legs", "non-adjacent legs"]
)
def test_bad_local_factor_is_an_internal_defect(monkeypatch, capsys, corrupt):
    import heckespin.transfer as transfer

    honest = transfer._double_row

    def bad_row(*args, **kw):
        factors = honest(*args, **kw)
        val, legs = factors[-1]
        if corrupt == "leg out of range":
            factors[-1] = (val, [legs[0], len(args[2]) + 2])
        elif corrupt == "non-adjacent legs":
            factors[-1] = (val, [legs[0], legs[-1] + 1])
        else:
            factors[-1] = (val, legs + [max(legs) + 1])
        return factors

    monkeypatch.setattr(transfer, "_double_row", bad_row)
    assert run(["verify", "transfer", "--n", "2", "--seed", "1"]) == 3
    assert "internal defect" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", ["product", "sum"])
def test_laurent_arity_mismatch_is_an_internal_defect(monkeypatch, capsys, corrupt):
    import heckespin.koornwinder as koornwinder
    from heckespin.numerics import LaurentPoly

    def wide(*args, **kw):
        return LaurentPoly.one(3)

    # a cold cache forces the generator fill, which multiplies the divided
    # differences by the numerator's terms; a wrong-arity numerator is refused
    # there, whether or not the dict-level divided difference is also wrong
    monkeypatch.setattr(koornwinder, "_BALL_CACHE", {})
    monkeypatch.setattr(koornwinder, "_numerator_poly", wide)
    if corrupt == "sum":
        monkeypatch.setattr(koornwinder, "divided_difference", wide)
    assert run(["verify", "koornwinder", "--n", "2", "--seed", "1"]) == 3
    assert "internal defect: arity mismatch" in capsys.readouterr().err


def test_qkz_degree_cap_refuses_before_sampling(tmp_path, monkeypatch, capsys):
    import heckespin.cli as cli

    def no_sampling(*args, **kw):
        raise AssertionError("sampled before the cap check")

    monkeypatch.setattr(cli, "sample_generic", no_sampling)
    assert run(["qkz", "build", "--n", "5", "--m", "1",
                "--out", str(tmp_path / "s.json")]) == 2
    assert run(["qkz", "build", "--n", "3", "--m", "2"]) == 2
    assert run(["verify", "qkz", "--n", "5"]) == 2
    assert run(["verify", "qkz", "--n", "2", "--m", "-3"]) == 2
    err = capsys.readouterr().err
    assert err.count("refused: degree cap exceeded (|m| * n <= 4)") == 4
    assert not (tmp_path / "s.json").exists()


def test_qkz_rank_cap_refuses_m0_before_sampling(tmp_path, monkeypatch, capsys):
    import heckespin.cli as cli

    def no_sampling(*args, **kw):
        raise AssertionError("sampled before the cap check")

    monkeypatch.setattr(cli, "sample_generic", no_sampling)
    assert run(["qkz", "build", "--n", "5", "--m", "0",
                "--out", str(tmp_path / "s.json")]) == 2
    assert run(["verify", "qkz", "--n", "11", "--m", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count("refused: polynomial caps exceeded") == 2
    assert not (tmp_path / "s.json").exists()


def test_extended_precision_transfer_runs_past_two_sites(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["verify", "transfer", "--n", "3", "--seed", "2",
                "--precision", "extended", "--report", str(rep)]) in (0, 1)
    checks = {c["name"]: c for c in json.loads(rep.read_text())["checks"]}
    assert checks["extended precision transfer agreement"]["pass"]


def _stored_solution(tmp_path):
    path = tmp_path / "sol.json"
    assert run(["qkz", "build", "--n", "2", "--m", "1", "--seed", "5",
                "--out", str(path)]) == 0
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("corrupt", ["missing component", "component arity"])
def test_malformed_stored_solution_is_refused(tmp_path, capsys, corrupt):
    path, data = _stored_solution(tmp_path)
    if corrupt == "missing component":
        data["components"].pop()
    else:
        comp = data["components"][1]
        comp["n_vars"] = 3
        for term in comp["terms"]:
            term["exp"] = term["exp"] + [0]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["qkz", "verify", "--in", str(path), "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert "refused: a stored solution needs 2^n = 4 components in n = 2" in err


def test_evaluator_arity_mismatch_is_an_internal_defect(tmp_path, monkeypatch, capsys):
    import heckespin.qkz as qkz

    path, _data = _stored_solution(tmp_path)
    honest = qkz.torus_point
    monkeypatch.setattr(qkz, "torus_point", lambda rng, n, band: honest(rng, n, band) + (1.0,))
    assert run(["qkz", "verify", "--in", str(path), "--samples", "2"]) == 3
    assert "internal defect: point arity mismatch" in capsys.readouterr().err


def test_verify_all_draws_each_parameter_set_once(monkeypatch, tmp_path):
    import heckespin.cli as cli

    calls = []

    def counting(seed, n, mcondition=None):
        calls.append((seed, n, mcondition))
        return sample_generic(seed=seed, n=n, mcondition=mcondition)

    monkeypatch.setattr(cli, "sample_generic", counting)
    assert run(["verify", "all", "--n", "2", "--seed", "3",
                "--report", str(tmp_path / "r.json")]) == 0
    assert sorted(calls, key=str) == sorted(
        [(3, 2, None), (3, 2, -1), (3, 2, 0), (3, 2, 1), (104, 2, None)], key=str
    )


def test_qkz_control_reuses_the_built_solution(monkeypatch, tmp_path):
    import heckespin.cli as cli

    calls = []

    def counting(params, m):
        calls.append(m)
        return build_polynomial_solution(params, m)

    monkeypatch.setattr(cli, "build_polynomial_solution", counting)
    assert run(["verify", "all", "--n", "2", "--seed", "3",
                "--report", str(tmp_path / "r.json")]) == 0
    # three builds, then the refusal at the unconstrained point
    assert calls == [-1, 0, 1, -1]


def test_verify_all_refuses_a_qkz_degree_before_sampling(monkeypatch, capsys):
    import heckespin.cli as cli

    def no_sampling(*args, **kw):
        raise AssertionError("sampled before the cap check")

    monkeypatch.setattr(cli, "sample_generic", no_sampling)
    assert run(["verify", "all", "--n", "3", "--m", "2"]) == 2
    assert run(["verify", "all", "--n", "2", "--m", "3"]) == 2
    assert capsys.readouterr().err.count("refused: degree cap exceeded (|m| * n <= 4)") == 2


def test_exhausted_pole_retries_refuse_instead_of_passing(monkeypatch, capsys, tmp_path):
    import heckespin.cli as cli

    def at_pole(*args, **kw):
        raise PoleProximityError("evaluation at a pole")

    monkeypatch.setattr(cli, "cocycle_C", at_pole)
    report = tmp_path / "r.json"
    assert run(["verify", "baxter", "--n", "3", "--report", str(report)]) == 2
    assert "refused: could not find enough pole-free sample points" in capsys.readouterr().err
    assert not report.exists()


def test_identity_suite_refuses_one_site_before_sampling(monkeypatch, capsys):
    import heckespin.cli as cli

    def no_sampling(*args, **kw):
        raise AssertionError("sampled before the rank check")

    monkeypatch.setattr(cli, "sample_generic", no_sampling)
    for suite in ("baxter", "all"):
        assert run(["verify", suite, "--n", "1"]) == 2
        assert "refused: the identity suite needs n >= 2" in capsys.readouterr().err
