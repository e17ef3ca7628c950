"""Driver behavior: exit codes, report determinism, artifact files, and
flag precedence."""

import cmath
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import sample_generic
from heckespin.baxter import RationalMat, cocycle_factors
from heckespin.cli import main
from heckespin.numerics import (
    GenericityError,
    LaurentPoly,
    ParamSet,
    generic_draws,
    stream,
    torus_point,
)
from heckespin.qkz import build_polynomial_solution


def run(argv):
    return main(argv)


# runs `python -m heckespin.cli ARGV...` and writes sys.modules at exit to OUT
_PROBE = """
import atexit, runpy, sys
out, sys.argv = sys.argv[1], ["heckespin", *sys.argv[2:]]
atexit.register(lambda: open(out, "w").write("\\n".join(sorted(sys.modules))))
runpy.run_module("heckespin.cli", run_name="__main__", alter_sys=True)
"""
_LAYERS = ("numerics", "weyl", "tensorops", "spinrep", "matchings", "baxter", "transfer",
           "koornwinder", "qkz")
# what --help and usage errors must not load
_UNPARSED = ("numpy", *_LAYERS, "commands", "json", "dataclasses", "inspect")


@pytest.mark.parametrize("argv,code,loaded,unloaded", [
    (["--help"], 0, (), _UNPARSED),
    (["verify", "algebra", "--n"], 2, (), _UNPARSED),
    (["verify", "all", "--n", "2", "--seed", "-1"], 2, ("commands",), ("numpy", *_LAYERS)),
    (["verify", "algebra", "--n", "2", "--samples", "0"], 2, ("commands",), ("numpy", *_LAYERS)),
    (["verify", "baxter", "--n", "2", "--samples", "0"], 2, ("commands",), ("numpy", *_LAYERS)),
    (["verify", "qkz", "--n", "2", "--samples", "0"], 2, ("commands",), ("numpy", *_LAYERS)),
    (["qkz", "verify", "--in", "sol.json", "--samples", "0"], 2, ("commands",), ("numpy", *_LAYERS)),
    (["verify", "algebra", "--n", "2", "--tolerance", "0"], 2, ("commands",), ("numpy", *_LAYERS)),
    (["koornwinder", "compute", "--lambda", "x"], 2, ("commands",), ("numpy", *_LAYERS)),
    (["verify", "algebra", "--params", "missing.json"], 2, ("commands",), ("numpy", *_LAYERS)),
    (["qkz", "verify", "--in", "missing.json"], 2, ("commands",), ("numpy", *_LAYERS)),
    (["verify", "algebra", "--n", "11"], 2, ("commands",), ("numpy", *_LAYERS)),
    (["verify", "koornwinder", "--n", "4"], 2, ("commands",), ("numpy", *_LAYERS)),
    (["koornwinder", "compute", "--lambda", "5"], 2, ("commands",), ("numpy", *_LAYERS)),
    (["qkz", "build", "--n", "5"], 2, ("commands",), ("numpy", *_LAYERS)),
    (["emit", "tables", "--kind", "hamiltonian_spectrum", "--n", "11"], 2, ("commands",),
     ("numpy", *_LAYERS)),
    (["verify", "algebra", "--n", "2"], 0, ("numpy", "spinrep"),
     ("matchings", "baxter", "transfer", "koornwinder", "qkz", "numpy.ma")),
    (["verify", "transfer", "--n", "2"], 0, ("transfer",), ("koornwinder", "qkz", "matchings")),
    (["emit", "tables", "--kind", "hamiltonian_spectrum", "--n", "2"], 0, ("transfer",),
     ("koornwinder", "qkz", "matchings")),
    (["verify", "all", "--n", "2"], 0, ("numpy", *_LAYERS), ("numpy.ma",)),
    (["verify", "algebra", "--out", "x"], 2, (), _UNPARSED),
    (["koornwinder", "compute", "--lambda", "1,0", "--samples", "3"], 2, (), _UNPARSED),
    (["qkz", "build", "--report", "r"], 2, (), _UNPARSED),
    (["qkz", "verify", "--in", "x", "--n", "2"], 2, (), _UNPARSED),
    (["emit", "tables", "--kind", "koornwinder", "--tolerance", "1e-3"], 2, (), _UNPARSED),
], ids=["help", "argparse error", "seed", "samples", "baxter samples", "qkz samples",
        "qkz verify samples", "tolerance", "lambda", "params", "in",
        "dim cap", "polynomial cap", "label cap", "qkz cap", "spectrum cap", "algebra", "transfer",
        "spectrum", "all", "verify --out", "compute --samples", "build --report", "qkz verify --n",
        "tables --tolerance"])
def test_a_command_imports_only_the_layers_it_runs(tmp_path, argv, code, loaded, unloaded):
    """The package and the driver import only the standard library: --help
    and an argparse error, a flag that the command does not read among them,
    load no numpy, no layer, no command module and none of json, dataclasses
    and inspect; a flag, file or cap refusal loads
    no numpy and no layer; and a suite loads only the layers it calls (numpy
    and the layers here by module name).  No command loads numpy.ma, which
    np.unique imports on its first call.  The working directory holds a
    sol.json of {}, so that qkz verify refuses --samples 0 before it loads
    the qkz layer to read that file."""
    import subprocess
    import sys
    from pathlib import Path

    import heckespin

    src = str(Path(heckespin.__file__).resolve().parents[1])
    (tmp_path / "sol.json").write_text("{}")
    out = tmp_path / "modules.txt"
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(out), *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True)
    assert proc.returncode == code, proc.stderr.decode()
    modules = set(out.read_text().split("\n"))
    name = {layer: f"heckespin.{layer}" for layer in (*_LAYERS, "commands")}
    assert {layer for layer in loaded if name.get(layer, layer) not in modules} == set()
    assert {layer for layer in unloaded if name.get(layer, layer) in modules} == set()


def test_the_entry_imports_four_modules_and_names_the_suites():
    """cli.py, which every process compiles before it parses, imports only
    argparse, atexit, os and sys outside its functions, and the suite names
    its parser offers (the package's SUITES) are the command module's, in
    the order verify all runs them."""
    import ast
    from pathlib import Path

    import heckespin
    import heckespin.cli as cli
    import heckespin.commands as commands

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    local = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)}
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in local]
    assert all(isinstance(node, ast.Import) for node in imports)
    assert [alias.name for node in imports for alias in node.names] == ["argparse", "atexit", "os", "sys"]
    assert heckespin.SUITES == tuple(commands._SUITE_FNS)


def _command_parsers(parser=None, path=()):
    """Each command of build_parser, as "qkz build", with its parser."""
    import argparse

    from heckespin.cli import build_parser

    parser = parser or build_parser()
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(path): parser}
    return {name: sub for key, child in subs[0].choices.items()
            for name, sub in _command_parsers(child, (*path, key)).items()}


def test_each_command_offers_exactly_the_settings_it_reads(monkeypatch, tmp_path):
    """A command's flags set exactly the Config fields it reads: with the
    Config that _load_config returns recording every field read, the union
    over verify all, koornwinder compute, qkz build and verify, and both
    table kinds is each command's flags.  --params names the file that
    _load_config reads, which every command takes, not the field
    cfg.params."""
    from dataclasses import fields

    import heckespin.commands as commands

    read = {}
    honest = commands._load_config

    class Recording:
        def __init__(self, cfg, seen):
            object.__setattr__(self, "_cfg", cfg)
            object.__setattr__(self, "_seen", seen)

        def __getattr__(self, name):
            self._seen.add(name)
            return getattr(self._cfg, name)

        def __setattr__(self, name, value):
            setattr(self._cfg, name, value)

    parsers = _command_parsers()
    monkeypatch.chdir(tmp_path)
    sol = str(tmp_path / "sol.json")
    for command, argv in [
        ("verify", ["verify", "all", "--n", "2"]),
        ("koornwinder compute", ["koornwinder", "compute", "--lambda", "1,0", "--out", "p.json"]),
        ("qkz build", ["qkz", "build", "--out", sol]),
        ("qkz verify", ["qkz", "verify", "--in", sol, "--samples", "2", "--report", "r.json"]),
        ("emit tables", ["emit", "tables", "--kind", "koornwinder", "--n", "1", "--m", "1"]),
        ("emit tables", ["emit", "tables", "--kind", "hamiltonian_spectrum", "--out", "s.json"]),
    ]:
        seen = read.setdefault(command, set())
        monkeypatch.setattr(commands, "_load_config", lambda args, seen=seen: Recording(honest(args), seen))
        assert run(argv) in (0, 1)
    settings = {f.name for f in fields(commands.Config)} - {"params"}
    offered = {command: {a.dest for a in parser._actions} & settings
               for command, parser in parsers.items()}
    assert {command: seen & settings for command, seen in read.items()} == offered
    assert all("--params" in parser._option_string_actions for parser in parsers.values())


# runs `python -m heckespin.cli ARGV...` with the translation word past the
# last one planted in weyl, a defect no input reaches
_PLANTED = """
import runpy, sys
import heckespin.weyl as weyl
honest, sys.argv = weyl.tau_word, ["heckespin", *sys.argv[1:]]
weyl.tau_word = lambda i, n: honest(n + 1, n)
runpy.run_module("heckespin.cli", run_name="__main__", alter_sys=True)
"""


def _cli_process(cwd, argv, script=None, stdout=subprocess.PIPE):
    """`python -m heckespin.cli ARGV...`, or `python -c SCRIPT ARGV...`, run
    to completion in cwd with stderr piped, stdout piped unless given, and
    both block-buffered, so that only the final flush delivers what is left
    in the buffers."""
    from pathlib import Path

    import heckespin

    src = str(Path(heckespin.__file__).resolve().parents[1])
    head = ["-c", script] if script else ["-m", "heckespin.cli"]
    env = {key: val for key, val in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, *head, *argv], cwd=cwd, env={**env, "PYTHONPATH": src},
                          stdout=stdout, stderr=subprocess.PIPE)


@pytest.mark.parametrize("argv,code", [
    (["verify", "algebra", "--n", "2", "--seed", "1"], 0),
    (["verify", "algebra", "--n", "2", "--seed", "1", "--tolerance", "1e-20"], 1),
    (["verify", "koornwinder", "--n", "7"], 2),
], ids=["pass", "fail", "refuse"])
def test_the_process_exit_keeps_the_code_stdout_and_report_of_main(tmp_path, capsys, argv, code):
    """The process ends with os._exit once its output is flushed: its exit
    code, stdout and --report file are byte for byte those of main(argv)."""
    proc = _cli_process(tmp_path, argv)
    assert proc.returncode == code, proc.stderr.decode()
    assert run(argv) == code
    assert proc.stdout == capsys.readouterr().out.encode()
    proc = _cli_process(tmp_path, [*argv, "--report", "process.json"])
    assert proc.returncode == code, proc.stderr.decode()
    assert run([*argv, "--report", str(tmp_path / "main.json")]) == code
    written = [tmp_path / name for name in ("process.json", "main.json")]
    assert [path.exists() for path in written] == [code < 2] * 2
    assert code == 2 or written[0].read_bytes() == written[1].read_bytes()


def test_a_planted_defect_exits_three_through_the_process_exit(tmp_path):
    proc = _cli_process(tmp_path, ["verify", "baxter", "--n", "2"], script=_PLANTED)
    assert proc.returncode == 3
    assert b"internal defect" in proc.stderr


def test_a_pipe_closed_before_the_final_flush_exits_120(tmp_path):
    """As the interpreter's own exit does when its flush fails, without a
    traceback."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_process(tmp_path, ["verify", "algebra", "--n", "2", "--seed", "1"], stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 120, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr


def test_a_report_larger_than_a_pipe_buffer_arrives_whole(tmp_path, capsys):
    """Output past the 64 KiB a pipe holds reaches its reader whole before
    os._exit."""
    argv = ["emit", "tables", "--kind", "hamiltonian_spectrum", "--n", "8", "--seed", "3"]
    proc = _cli_process(tmp_path, argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert len(proc.stdout) > 65536
    assert run(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


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
    import heckespin.numerics as numerics

    pfile = tmp_path / "p4.json"
    pfile.write_text(json.dumps(sample_generic(seed=8, n=4).to_dict()))

    def no_sampling(*args, **kw):
        raise AssertionError("sampled or built labels before the cap check")

    monkeypatch.setattr(numerics, "generic_draws", no_sampling)
    monkeypatch.setattr(numerics, "l1_ball", no_sampling)
    assert run(["verify", "koornwinder", "--n", "4"]) == 2
    # a parameter file sets the rank the cap is checked against
    assert run(["verify", "koornwinder", "--params", str(pfile)]) == 2
    assert run(["koornwinder", "compute", "--lambda", "3,2"]) == 2
    assert run(["emit", "tables", "--kind", "koornwinder", "--n", "4",
                "--out", str(tmp_path / "t")]) == 2
    # bounds whose ball of labels no memory holds: refused before it is built
    for n, bound in ((1, 10**9), (30, 12)):
        assert run(["emit", "tables", "--kind", "koornwinder", "--n", str(n), "--m", str(bound),
                    "--out", str(tmp_path / "t")]) == 2


def test_spin_cap_refuses_before_sampling(tmp_path, monkeypatch, capsys):
    import heckespin.numerics as numerics

    pfile = tmp_path / "p11.json"
    pfile.write_text(json.dumps(sample_generic(seed=8, n=2).replace(n=11).to_dict()))

    def no_sampling(*args, **kw):
        raise AssertionError("sampled before the cap check")

    monkeypatch.setattr(numerics, "generic_draws", no_sampling)
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
    # read back through the table and written again, the payload is unchanged
    assert LaurentPoly.from_dicts([data["polynomial"]]).to_dicts() == [data["polynomial"]]


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


def test_a_negative_table_bound_is_refused_before_sampling(tmp_path, monkeypatch, capsys):
    """A degree bound below 0 asks for no label: the command refuses (exit 2)
    before it draws a point, and makes no output directory."""
    import heckespin.numerics as numerics

    def no_sampling(*args, **kw):
        raise AssertionError("sampled before the bound check")

    monkeypatch.setattr(numerics, "generic_draws", no_sampling)
    for args in (["--out", str(tmp_path / "tables")], []):
        monkeypatch.chdir(tmp_path)
        assert run(["emit", "tables", "--kind", "koornwinder", "--n", "1", "--m", "-1",
                    "--seed", "2", *args]) == 2
        assert "refused: the degree bound --m must be at least 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


def test_a_fixed_parameter_file_keeps_its_fingerprint(tmp_path):
    """The fingerprint of a fixed point is the digest written before the
    fingerprint left hashlib for the interpreter's own SHA-256."""
    pfile = _write(tmp_path, {
        "n": 2, "q_sqrt": {"re": 0.9, "im": 0.35}, "kappa0": {"re": 1.1, "im": -0.2},
        "kappa": {"re": 0.7475, "im": 0.45}, "kappa_sqrt": {"re": 0.9, "im": 0.25},
        "kappan": {"re": -0.6, "im": 0.95}, "upsilon0": {"re": 1.2, "im": 0.3},
        "upsilonn": {"re": 0.7, "im": -0.9}, "psi0": {"re": -1.05, "im": 0.25},
        "psin": {"re": 0.4, "im": 1.15}})
    rep = tmp_path / "r.json"
    assert run(["verify", "algebra", "--params", pfile, "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["params_fingerprint"] == (
        "e11f751ee676bcf50f3816cfdf78d7221ca1537f0b42be02e1e42139786302d7")


# runs verify all --n 3 and verify matchmaker --n 6 through cli.main in one
# process and prints their exit codes and the draw-side modules it loaded
_DRAW_MODULES = """
import contextlib, io, json, sys
from heckespin.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify", "all", "--n", "3"]), main(["verify", "matchmaker", "--n", "6"])]
print(json.dumps([codes, sorted({"numpy.random", "secrets", "hmac", "_hashlib"} & set(sys.modules))]))
"""


def test_no_job_loads_numpy_random_or_openssl(tmp_path):
    """Every draw comes from the standard library's generator and the
    fingerprint from the interpreter's own SHA-256, so no job loads
    numpy.random, which maps OpenSSL through secrets, hmac and _hashlib, nor
    those three: 6 MB of a job's peak memory."""
    proc = _cli_process(tmp_path, [], script=_DRAW_MODULES)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == [[0, 0], []]


def test_explicit_parameter_file_sets_the_rank(tmp_path):
    p = sample_generic(seed=8, n=3)
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(p.to_dict()))
    rep = tmp_path / "r.json"
    assert run(["verify", "algebra", "--params", str(pfile),
                "--report", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["params_fingerprint"] == p.fingerprint()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("where", ["flag", "config file"])
def test_a_rank_other_than_the_parameter_sets_is_refused(tmp_path, capsys, where, n):
    """A parameter set fixes the rank: an --n or a config file's "n" beside
    its "params" that agrees with it runs, and one that contradicts it is
    refused with both ranks named, not dropped for the set's rank."""
    p = sample_generic(seed=8, n=2).to_dict()
    if where == "flag":
        argv = ["verify", "algebra", "--n", str(n), "--params", _write(tmp_path, p)]
    else:
        argv = ["verify", "algebra", "--params", _write(tmp_path, {"n": n, "params": p})]
    assert run(argv) == (0 if n == 2 else 2)
    refusal = "refused: rank n=3 does not match the rank 2 of the parameter set"
    assert (refusal in capsys.readouterr().err) == (n == 3)


@pytest.mark.parametrize("config,n", [
    ({"lambda": [1, 0, 0]}, 2), ({"lambda": [1, 0], "n": 3}, 3), ({"lambda": "1,0", "n": 3}, 3),
], ids=["label of rank 3", "label of rank 2 at n=3", "mistyped label at n=3"])
def test_verify_takes_from_a_file_only_the_settings_it_has_flags_for(tmp_path, capsys, config, n):
    """verify has no --lambda, so a file's "lambda" neither sets its rank
    nor meets the file's "n", and is not read at all: the report is the one
    at the rank that "n" or the default gives, 19 rows at n = 2 and 29 at
    n = 3."""
    assert run(["verify", "algebra", "--params", _write(tmp_path, config)]) == 0
    report = capsys.readouterr().out
    assert len(json.loads(report)["checks"]) == {2: 19, 3: 29}[n]
    assert run(["verify", "algebra", "--n", str(n)]) == 0
    assert capsys.readouterr().out == report


def test_koornwinder_compute_takes_its_label_from_a_file(tmp_path, capsys):
    """koornwinder compute has a --lambda flag, so a file's "lambda" sets
    its label and its rank, as the flag does."""
    assert run(["koornwinder", "compute", "--params", _write(tmp_path, {"lambda": [1, 0, -1]})]) == 0
    payload = capsys.readouterr().out
    assert json.loads(payload)["metadata"]["lambda"] == [1, 0, -1]
    assert run(["koornwinder", "compute", "--lambda", "1,0,-1"]) == 0
    assert capsys.readouterr().out == payload


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


@pytest.mark.parametrize("corrupt", ["product"])
def test_laurent_arity_mismatch_is_an_internal_defect(monkeypatch, capsys, corrupt, cold_ball):
    import heckespin.koornwinder as koornwinder

    def wide(*args, **kw):
        return LaurentPoly.one(3)

    # a cold cache forces the generator fill, which multiplies the divided
    # differences by the numerator's terms; a wrong-arity numerator is refused
    # there
    monkeypatch.setattr(koornwinder, "_numerator_poly", wide)
    assert run(["verify", "koornwinder", "--n", "2", "--seed", "1"]) == 3
    assert "internal defect: arity mismatch" in capsys.readouterr().err


def test_qkz_degree_cap_refuses_before_sampling(tmp_path, monkeypatch, capsys):
    import heckespin.numerics as numerics

    def no_sampling(*args, **kw):
        raise AssertionError("sampled before the cap check")

    monkeypatch.setattr(numerics, "generic_draws", no_sampling)
    assert run(["qkz", "build", "--n", "5", "--m", "1",
                "--out", str(tmp_path / "s.json")]) == 2
    assert run(["qkz", "build", "--n", "3", "--m", "2"]) == 2
    assert run(["verify", "qkz", "--n", "5"]) == 2
    assert run(["verify", "qkz", "--n", "2", "--m", "-3"]) == 2
    err = capsys.readouterr().err
    assert err.count("refused: degree cap exceeded (|m| * n <= 4)") == 4
    assert not (tmp_path / "s.json").exists()


def test_qkz_rank_cap_refuses_m0_before_sampling(tmp_path, monkeypatch, capsys):
    import heckespin.numerics as numerics

    def no_sampling(*args, **kw):
        raise AssertionError("sampled before the cap check")

    monkeypatch.setattr(numerics, "generic_draws", no_sampling)
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


def test_a_config_file_sets_a_choice_setting_that_a_flag_overrides(tmp_path):
    """A --params config file may give a choice setting: "precision":
    "extended" adds the extended row to verify transfer, and --precision
    double takes it out again, as a flag overrides the file."""
    config, report = _write(tmp_path, {"precision": "extended"}), tmp_path / "r.json"
    names = []
    for flag in ([], ["--precision", "double"]):
        assert run(["verify", "transfer", "--n", "2", "--params", config, *flag, "--report", str(report)]) == 0
        names.append({c["name"] for c in json.loads(report.read_text())["checks"]})
    assert names[0] - names[1] == {"extended precision transfer agreement"}
    assert names[1] <= names[0]


def _stored_solution(tmp_path):
    path = tmp_path / "sol.json"
    assert run(["qkz", "build", "--n", "2", "--m", "1", "--seed", "5",
                "--out", str(path)]) == 0
    return path, json.loads(path.read_text())


_COUNT = "refused: a stored solution needs 2^n = 4 components in n = 2"
_MALFORMED = {
    "missing component": _COUNT,
    "component arity": _COUNT,
    "component without terms": "refused: malformed solution: KeyError 'terms'",
    "text coefficient": "refused: malformed solution: TypeError",
    "bool coefficient": "refused: malformed solution: TypeError",
    "bool kappa0": "refused: malformed solution: TypeError",
    "params without psin": "refused: malformed solution: KeyError 'psin'",
    "fractional exponent": "refused: malformed solution: TypeError",
    "NaN psi0": "refused: malformed solution: ValueError psi0 must be finite",
    "infinite psi0": "refused: malformed solution: ValueError psi0 must be finite",
    "exponent arity": "refused: exponent arity does not match n_vars",
}


@pytest.mark.parametrize("corrupt", _MALFORMED)
def test_malformed_stored_solution_is_refused(tmp_path, capsys, corrupt):
    path, data = _stored_solution(tmp_path)
    comp = data["components"][1]
    if corrupt == "missing component":
        data["components"].pop()
    elif corrupt == "component arity":
        comp["n_vars"] = 3
        for term in comp["terms"]:
            term["exp"] = term["exp"] + [0]
    elif corrupt == "component without terms":
        del comp["terms"]
    elif corrupt == "text coefficient":
        comp["terms"][0]["re"] = "x"
    elif corrupt == "bool coefficient":
        comp["terms"][0]["im"] = True
    elif corrupt == "bool kappa0":
        data["params"]["kappa0"] = {"re": True, "im": False}
    elif corrupt == "params without psin":
        del data["params"]["psin"]
    elif corrupt.endswith("psi0"):
        data["params"]["psi0"]["im"] = float("nan" if corrupt == "NaN psi0" else "-inf")
    elif corrupt == "exponent arity":  # one exponent longer than its row's n_vars
        comp["terms"][0]["exp"] = comp["terms"][0]["exp"] + [0]
    else:
        comp["terms"][0]["exp"] = [0.5, 1]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["qkz", "verify", "--in", str(path), "--samples", "2"]) == 2
    assert _MALFORMED[corrupt] in capsys.readouterr().err


@pytest.mark.parametrize("n", [2.5, True])
def test_stored_solution_with_a_rank_that_is_not_an_integer_is_refused(tmp_path, capsys, n):
    """The stored solution's rank must be a JSON integer: 2.5 is not read as
    2, nor true as 1."""
    path, data = _stored_solution(tmp_path)
    data["params"]["n"] = n
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run(["qkz", "verify", "--in", str(path), "--samples", "2"]) == 2
    assert "refused: malformed solution: TypeError" in capsys.readouterr().err


@pytest.mark.parametrize("config", ["no parameter set", "its own", "another solution's"])
def test_qkz_verify_refuses_a_parameter_set_that_is_not_the_solutions(tmp_path, capsys, config):
    """A stored solution is verified at its own parameter set: a --params
    file that holds another solution's set is refused, and a config object
    with no set, or with the solution's own, gives the report of a run
    without the file."""
    path, data = _stored_solution(tmp_path)
    if config == "another solution's":
        pfile = str(tmp_path / "other.json")
        assert run(["qkz", "build", "--n", "3", "--m", "1", "--seed", "2", "--out", pfile]) == 0
    else:
        pfile = _write(tmp_path, {"samples": 2} if config == "no parameter set" else data)
    argv = ["qkz", "verify", "--in", str(path), "--samples", "2"]
    assert run(argv) == 0
    plain = capsys.readouterr().out
    code = run([*argv, "--params", pfile])
    out, err = capsys.readouterr()
    if config == "another solution's":
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"refused: the parameter set in {pfile} is not the solution's"]
    else:
        assert (code, out) == (0, plain)


def test_the_qkz_degree_cap_is_the_package_degree_cap(monkeypatch, capsys):
    """The solution of degree m is built from the label (m, ..., m), so a
    lower _DEGREE_CAP refuses qkz build at |m| n above it, as it refuses
    koornwinder compute on the same label."""
    import heckespin

    monkeypatch.setattr(heckespin, "_DEGREE_CAP", 3)
    capsys.readouterr()
    assert run(["qkz", "build", "--n", "2", "--m", "2"]) == 2
    assert capsys.readouterr().err.splitlines() == ["refused: degree cap exceeded (|m| * n <= 3)"]
    assert run(["koornwinder", "compute", "--lambda", "2,2"]) == 2
    assert "refused: polynomial caps exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2.5, True])
def test_parameter_file_with_a_rank_that_is_not_an_integer_is_refused(tmp_path, capsys, n):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(dict(sample_generic(seed=8, n=2).to_dict(), n=n)))
    assert run(["verify", "algebra", "--params", str(pfile)]) == 2
    assert "refused: malformed parameters: TypeError" in capsys.readouterr().err


@pytest.mark.parametrize("nested", [False, True], ids=["bare", "config"])
def test_parameter_file_without_psin_is_refused(tmp_path, capsys, nested):
    """A parameter dictionary that lacks an entry, bare or under a config
    object's "params", is a refusal, not a KeyError."""
    data = sample_generic(seed=8, n=2).to_dict()
    del data["psin"]
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"seed": 3, "params": data} if nested else data))
    assert run(["verify", "algebra", "--params", str(pfile)]) == 2
    assert "refused: malformed parameters: KeyError 'psin'" in capsys.readouterr().err


@pytest.mark.parametrize("config,argv,message", [
    ({"n": 2.5, "seed": 1}, ["verify", "algebra"], "malformed parameters: TypeError"),
    ({"n": 2, "seed": 1.5}, ["verify", "algebra"], "malformed parameters: TypeError"),
    ({"n": True, "seed": 1}, ["verify", "algebra"], "malformed parameters: TypeError"),
    ({"n": 2, "samples": 2.5}, ["verify", "algebra"], "malformed parameters: TypeError"),
    ({"n": 2, "tolerance": "1e-9"}, ["verify", "algebra"], "malformed parameters: TypeError"),
    ({"n": 2, "precision": "quad"}, ["verify", "algebra"], "malformed parameters: TypeError"),
    ({"lambda": [1.5, 0], "seed": 2}, ["koornwinder", "compute"],
     "malformed parameters: TypeError"),
    (None, ["koornwinder", "compute", "--n", "3", "--lambda", "1,1"],
     "label length does not match the rank"),
    (dict(sample_generic(seed=8, n=2).to_dict(), kappa0={"re": True, "im": False}), ["verify", "algebra"],
     "malformed parameters: TypeError"),
], ids=["n=2.5", "seed=1.5", "n=true", "samples=2.5", "tolerance=text", "precision=quad",
        "lambda=1.5,0", "flag rank 3, label 1,1", "kappa0=true"])
def test_settings_without_the_type_of_their_flag_are_refused(tmp_path, capsys, config,
                                                            argv, message):
    """A setting from a --params file has the type its flag has, a bool is
    not an integer, nor a part of a scalar, and a label's length must be the
    rank a flag gives."""
    if config is not None:
        pfile = tmp_path / "c.json"
        pfile.write_text(json.dumps(config))
        argv = argv + ["--params", str(pfile)]
    assert run(argv) == 2
    assert f"refused: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("setting,value", [
    ("samples", 0), ("samples", -3), ("tolerance", float("inf")), ("tolerance", float("nan")),
    ("tolerance", -1.0), ("tolerance", 0.0),
])
def test_settings_that_switch_checks_off_are_refused(tmp_path, monkeypatch, capsys,
                                                     setting, value, source):
    """Fewer than one sample drops the sampled rows, and a tolerance that is
    not finite and positive passes or fails every row whatever its
    residual; either is refused, from a flag or a file, before sampling.
    A command that reads neither takes a file that sets them."""
    import heckespin.numerics as numerics

    def no_sampling(*args, **kw):
        raise AssertionError("sampled before the settings were checked")

    monkeypatch.setattr(numerics, "generic_draws", no_sampling)
    argv = ["verify", "baxter", "--n", "3"]
    if source == "flag":
        argv += [f"--{setting}", str(value)]
    else:
        pfile = tmp_path / "c.json"
        pfile.write_text(json.dumps({setting: value}))
        argv += ["--params", str(pfile)]
    assert run(argv) == 2
    assert f"refused: {setting} must be" in capsys.readouterr().err
    if source == "file":
        monkeypatch.undo()
        for unread in (["koornwinder", "compute", "--lambda", "1,0"],
                       ["emit", "tables", "--kind", "hamiltonian_spectrum", "--n", "2"]):
            assert run(unread + ["--params", str(pfile)]) == 0, unread
        capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "algebra", "--n", "2", "--params"],
    ["qkz", "verify", "--in"],
], ids=["params", "in"])
def test_a_missing_input_file_is_refused(tmp_path, capsys, argv):
    missing = str(tmp_path / "absent.json")
    assert run(argv + [missing]) == 2
    assert f"refused: cannot read {missing}: No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize("data", ["xyz", []], ids=["string", "list"])
def test_a_parameter_file_that_is_not_an_object_is_refused(tmp_path, capsys, data):
    """Membership tests on a string or a list find no setting, so such a
    file would otherwise run the defaults."""
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(data))
    assert run(["verify", "algebra", "--n", "2", "--params", str(pfile)]) == 2
    assert "refused: malformed parameters: the top level is not a JSON object" in (
        capsys.readouterr().err)


def _write(tmp_path, data, name="p.json"):
    """The path of a file holding data: text as it is, else as JSON."""
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def _params_file(tmp_path, seed=8, n=2, **fields):
    """A file of the generic point of seed and n, with fields replaced."""
    return _write(tmp_path, dict(sample_generic(seed=seed, n=n).to_dict(), **fields))


def _singular_params():
    """kappa0 = i kappa, where the loop weight's denominator vanishes."""
    p = sample_generic(seed=8, n=2)
    return p.replace(kappa0=1j * p.kappa).to_dict()


def _stored_with_params(tmp_path, **fields):
    path, data = _stored_solution(tmp_path)
    data["params"].update(fields)
    return _write(tmp_path, data, "sol.json")


_INPUT_EDGE = {
    "malformed JSON": lambda tmp: ["verify", "algebra", "--params", _write(tmp, "{not json")],
    "label a,b": lambda tmp: ["koornwinder", "compute", "--lambda", "a,b"],
    "label 1,,2": lambda tmp: ["koornwinder", "compute", "--lambda", "1,,2"],
    "rank 0": lambda tmp: ["verify", "algebra", "--n", "0"],
    "seed -1": lambda tmp: ["verify", "algebra", "--n", "2", "--seed", "-1"],
    "zero parameter file": lambda tmp: [
        "verify", "algebra", "--params", _params_file(tmp, psi0={"re": 0, "im": 0})],
    "stored solution root of kappa": lambda tmp: [
        "qkz", "verify", "--in", _stored_with_params(tmp, kappa_sqrt={"re": 3, "im": 0})],
    "integer beyond the float range": lambda tmp: [
        "verify", "algebra", "--params", _params_file(tmp, psi0={"re": 10**400, "im": 0})],
    "boundary singularity": lambda tmp: [
        "verify", "matchmaker", "--params", _write(tmp, _singular_params())],
    "no label": lambda tmp: ["koornwinder", "compute", "--n", "2"],
}


@pytest.mark.parametrize("case", _INPUT_EDGE)
def test_a_bad_input_is_refused_where_it_is_read(tmp_path, capsys, case):
    """Each input that used to surface deep in the run, as a bare ValueError
    or a traceback, is refused with exit 2 where it is read."""
    argv = _INPUT_EDGE[case](tmp_path)
    capsys.readouterr()
    assert run(argv) == 2
    assert "refused: " in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("suite", ["algebra", "baxter", "transfer", "koornwinder", "all"])
def test_a_non_finite_parameter_file_is_refused(tmp_path, capsys, suite, value):
    """psi0 = NaN or inf crashed verify algebra and verify all, failed verify
    baxter and verify transfer, and passed verify koornwinder."""
    pfile = _params_file(tmp_path, seed=1, n=3, psi0={"re": value, "im": 0.0})
    assert run(["verify", suite, "--params", pfile]) == 2
    assert "refused: malformed parameters: ValueError psi0 must be finite" in (
        capsys.readouterr().err)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_huge_finite_parameter_fails_rows_instead_of_crashing(tmp_path, capsys):
    """psi0 = 1e300 overflows the Murphy products; the commutator row reads
    NaN and fails, where its division raised ZeroDivisionError."""
    pfile = _params_file(tmp_path, seed=1, n=3, psi0={"re": 1e300, "im": 0.0})
    report = tmp_path / "r.json"
    assert run(["verify", "algebra", "--params", pfile, "--report", str(report)]) == 1
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert not checks["commuting family pairwise"]["pass"]


def test_a_negative_table_bound_still_meets_the_rank_cap(tmp_path, monkeypatch, capsys):
    """A bound below 0 asks for no label, but the rank cap still holds: n = 4
    is refused before sampling, and no output directory is made."""
    import heckespin.numerics as numerics

    def no_sampling(*args, **kw):
        raise AssertionError("sampled before the cap check")

    monkeypatch.setattr(numerics, "generic_draws", no_sampling)
    out = tmp_path / "t"
    assert run(["emit", "tables", "--kind", "koornwinder", "--n", "4", "--m", "-1",
                "--out", str(out)]) == 2
    assert "refused: polynomial caps exceeded" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("q_sqrt", [1e-200, 1e200])
def test_a_parameter_file_whose_q_is_not_finite_and_nonzero_is_refused(tmp_path, capsys, q_sqrt):
    """q_sqrt = 1e-200 squares to q = 0, which made verify baxter exit 1 with
    a ZeroDivisionError traceback."""
    pfile = _params_file(tmp_path, seed=1, n=2, q_sqrt={"re": q_sqrt, "im": 0.0})
    assert run(["verify", "baxter", "--params", pfile]) == 2
    assert "refused: malformed parameters: ValueError q = q_sqrt**2 must be " in (
        capsys.readouterr().err)


@pytest.mark.parametrize("kappa, why", [(1e-150, "nonzero"), (1e150, "finite")])
def test_a_parameter_file_whose_kappa_powers_are_not_finite_and_nonzero_is_refused(
        tmp_path, capsys, kappa, why):
    """kappa = 1e-150 made verify transfer raise ZeroDivisionError in the
    crossing row, and kappa = 1e150 raised OverflowError in the blocks."""
    pfile = _params_file(tmp_path, seed=1, n=2, kappa={"re": kappa, "im": 0.0},
                         kappa_sqrt={"re": kappa**0.5, "im": 0.0})
    assert run(["verify", "transfer", "--params", pfile]) == 2
    assert f"refused: malformed parameters: ValueError kappa**4 must be {why}" in (
        capsys.readouterr().err)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_huge_boundary_kappa_fails_a_row_instead_of_crashing(tmp_path):
    """kappan = 1e80 overflows the square of K_n's denominator in its
    derivative, which raised OverflowError; the transfer-form Hamiltonian
    now reads NaN and fails its row."""
    pfile = _params_file(tmp_path, seed=1, n=2, kappan={"re": 1e80, "im": 0.0})
    report = tmp_path / "r.json"
    assert run(["verify", "transfer", "--params", pfile, "--report", str(report)]) == 1
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert not checks["hamiltonian transfer vs pauli form"]["pass"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [["koornwinder", "compute", "--lambda", "1,0"],
                                  ["verify", "koornwinder"]], ids=["compute", "verify"])
def test_a_point_whose_translation_matrices_round_past_their_pattern_is_refused(
        tmp_path, capsys, argv):
    """At kappa0 = 1e-6 (1+i) and kappan = 1e6 (1+i) the rounding of the
    products Y_i on the radius-1 ball reaches the threshold that finds their
    triangular pattern, which then failed as an internal defect (exit 3)."""
    pfile = _params_file(tmp_path, seed=2, n=2, kappa0={"re": 1e-6, "im": 1e-6},
                         kappan={"re": 1e6, "im": 1e6})
    assert run(argv + ["--params", pfile]) == 2
    assert "refused: rounding in Y_1 reaches its triangular pattern" in capsys.readouterr().err


@pytest.mark.parametrize("n,field,value,argv,message", [
    (2, "q_sqrt", 1e-60, ["koornwinder", "compute", "--lambda=-3,0"], "q**4 must be nonzero"),
    (2, "q_sqrt", 1e60, ["koornwinder", "compute", "--lambda", "3,0"], "q**4 must be finite"),
    (6, "kappa", 1e-62, ["verify", "algebra"], "kappa**5 must be nonzero"),
    (6, "kappa", 1e62, ["verify", "algebra"], "kappa**5 must be finite"),
    (2, "kappa0", 1e155, ["verify", "baxter"], "kappa0**2 must be finite"),
    (2, "kappan", 1e155, ["verify", "baxter"], "kappan**2 must be finite"),
], ids=["q tiny", "q huge", "kappa tiny", "kappa huge", "kappa0 huge", "kappan huge"])
def test_a_parameter_file_whose_powers_leave_the_double_range_is_refused(
        tmp_path, capsys, n, field, value, argv, message):
    """Each point raised ZeroDivisionError or OverflowError from a complex
    power in a layer (q^-3 in the spectral vectors, kappa^5 in the eigenvalue
    string at n = 6, kappa_j^2 in the boundary blocks) with a traceback; the
    power is refused where the file is read."""
    fields = {field: {"re": value, "im": 0.0}}
    if field == "kappa":
        fields["kappa_sqrt"] = {"re": value**0.5, "im": 0.0}
    pfile = _params_file(tmp_path, seed=1, n=n, **fields)
    assert run([*argv, "--params", pfile]) == 2
    assert f"refused: malformed parameters: ValueError {message}" in capsys.readouterr().err


def test_a_parameter_file_of_rank_zero_is_refused(tmp_path, capsys):
    pfile = _write(tmp_path, dict(sample_generic(seed=8, n=2).to_dict(), n=0))
    assert run(["verify", "algebra", "--params", pfile]) == 2
    assert "refused: malformed parameters: ValueError rank n must be at least 1" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("suite,fields,row", [
    ("algebra", {"psin": 1e300}, "principal basis independence"),
    ("matchmaker", {"kappa0": 1e124, "kappan": 1e-56, "psin": 1e147}, "equivalence invertibility"),
], ids=["algebra", "matchmaker"])
def test_an_overflowed_map_fails_its_singular_value_row_instead_of_crashing(tmp_path, suite,
                                                                           fields, row):
    """At these n = 3 points the principal-series basis or the intertwiner
    holds a NaN, whose SVD raised numpy's LinAlgError (exit 3); its smallest
    singular value now reads NaN and the floor row fails."""
    pfile = _params_file(tmp_path, seed=1, n=3,
                         **{key: {"re": value, "im": 0.0} for key, value in fields.items()})
    report = tmp_path / "r.json"
    assert run(["verify", suite, "--params", pfile, "--report", str(report)]) == 1
    check = {c["name"]: c for c in json.loads(report.read_text())["checks"]}[row]
    assert not check["pass"] and check["residual"] != check["residual"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("key", ["kappa0", "kappan"])
def test_a_spectrum_table_at_an_overflowing_point_is_refused(tmp_path, capsys, key):
    """kappa0 or kappan = 1e80 leaves the transfer-form Hamiltonian NaN, whose
    eigenvalues raised numpy's LinAlgError (exit 3); the table is refused and
    no file is written."""
    pfile = _params_file(tmp_path, seed=1, n=2, **{key: {"re": 1e80, "im": 0.0}})
    out = tmp_path / "spec.json"
    assert run(["emit", "tables", "--kind", "hamiltonian_spectrum", "--params", pfile,
                "--out", str(out)]) == 2
    assert "refused: the transfer form of the Hamiltonian overflows at this point" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("argv", [["koornwinder", "compute", "--lambda", "1,0"],
                                  ["verify", "all"]], ids=["compute", "all"])
def test_a_vanished_leading_coefficient_is_a_genericity_refusal(tmp_path, capsys, argv):
    """upsilon0 = 1e50 leaves a label's leading entry at rounding level; that
    is a property of the point, so it is refused, not an internal defect."""
    pfile = _params_file(tmp_path, seed=1, n=2, upsilon0={"re": 1e50, "im": 0.0})
    assert run([*argv, "--params", pfile]) == 2
    assert "refused: leading coefficient vanished at lambda=" in capsys.readouterr().err


def test_evaluator_arity_mismatch_is_an_internal_defect(tmp_path, monkeypatch, capsys):
    import heckespin.qkz as qkz

    path, _data = _stored_solution(tmp_path)
    honest = qkz.torus_point
    monkeypatch.setattr(qkz, "torus_point", lambda rng, n, band: honest(rng, n, band) + (1.0,))
    assert run(["qkz", "verify", "--in", str(path), "--samples", "2"]) == 3
    assert "internal defect: point arity mismatch" in capsys.readouterr().err


def test_verify_all_draws_each_parameter_set_once(monkeypatch, tmp_path):
    import heckespin.numerics as numerics

    calls, honest = [], numerics.generic_draws

    def counting(seed, n, mcondition=None):
        calls.append((seed, n, mcondition))
        return honest(seed, n, mcondition)

    monkeypatch.setattr(numerics, "generic_draws", counting)
    assert run(["verify", "all", "--n", "2", "--seed", "3",
                "--report", str(tmp_path / "r.json")]) == 0
    assert sorted(calls, key=str) == sorted([(3, 2, None), (3, 2, -1), (3, 2, 0), (3, 2, 1)], key=str)


def test_qkz_control_reuses_the_built_solution(monkeypatch, tmp_path):
    import heckespin.qkz as qkz

    calls = []

    def counting(params, m):
        calls.append(m)
        return build_polynomial_solution(params, m)

    monkeypatch.setattr(qkz, "build_polynomial_solution", counting)
    assert run(["verify", "all", "--n", "2", "--seed", "3",
                "--report", str(tmp_path / "r.json")]) == 0
    # three builds, then the refusal at the unconstrained point
    assert calls == [-1, 0, 1, -1]


def test_verify_all_skips_a_qkz_degree_beyond_its_cap(monkeypatch, tmp_path, capsys):
    """A degree beyond the qKZ cap skips qkz alone: the other suites run on
    the one point drawn, and no point is drawn for the capped degree."""
    import heckespin.numerics as numerics

    conditions, honest = [], numerics.generic_draws

    def counting(seed, n, mcondition=None):
        conditions.append(mcondition)
        return honest(seed, n, mcondition)

    monkeypatch.setattr(numerics, "generic_draws", counting)
    report = tmp_path / "r.json"
    for argv in (["--n", "3", "--m", "2"], ["--n", "2", "--m", "3"]):
        assert run(["verify", "all", *argv, "--report", str(report)]) == 0
        assert json.loads(report.read_text())["skipped"] == {
            "qkz": "degree cap exceeded (|m| * n <= 4)"}
    assert conditions == [None, None]
    assert capsys.readouterr().err.count("PASS (") == 2


def test_verify_all_skips_qkz_where_a_parameter_file_meets_no_existence_constraint(
        tmp_path, capsys):
    """At a generic file point no qKZ degree's existence constraint holds:
    verify all runs the other five suites and skips qkz with the refusal
    text (it exited 2 after running them), while verify qkz refuses."""
    pfile = _params_file(tmp_path, seed=1, n=2)
    report = tmp_path / "r.json"
    assert run(["verify", "all", "--params", pfile, "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert list(data["skipped"]) == ["qkz"]
    assert data["skipped"]["qkz"].startswith("existence constraint unsatisfied: ")
    assert data["skipped"]["qkz"].endswith("(m=-1)")
    assert {c["name"].split(":")[0] for c in data["checks"]} == {
        "algebra", "matchmaker", "baxter", "transfer", "koornwinder"}
    capsys.readouterr()
    assert run(["verify", "qkz", "--params", pfile]) == 2
    assert "refused: " + data["skipped"]["qkz"] in capsys.readouterr().err


_POLYNOMIAL_CAP = "polynomial caps exceeded (n <= 3, sum|lambda| <= 4)"


@pytest.mark.parametrize("n,skipped,line", [
    (4, {"koornwinder": _POLYNOMIAL_CAP, "qkz": _POLYNOMIAL_CAP}, "2 suites skipped"),
    (1, {"baxter": "the identity suite needs n >= 2"}, "1 suite skipped"),
], ids=["n4", "n1"])
def test_verify_all_runs_every_suite_within_its_caps(tmp_path, capsys, n, skipped, line):
    """verify all runs each suite within its caps and lists the others, with
    their refusal reasons, under "skipped"; the skips do not fail the run."""
    import heckespin.commands as commands

    report = tmp_path / "r.json"
    assert run(["verify", "all", "--n", str(n), "--seed", "1", "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["skipped"] == skipped
    ran = {c["name"].split(": ")[0] for c in data["checks"]}
    assert ran == set(commands._SUITE_FNS) - set(skipped)
    assert f"suite all: PASS ({len(data['checks'])} checks, {line}, wall " in (
        capsys.readouterr().err)


def test_a_skip_does_not_hide_a_failing_row(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert run(["verify", "all", "--n", "1", "--tolerance", "1e-20",
                "--report", str(report)]) == 1
    assert list(json.loads(report.read_text())["skipped"]) == ["baxter"]
    assert "suite all: FAIL (" in capsys.readouterr().err


def test_a_report_without_skips_has_no_skipped_key(tmp_path):
    for suite in ("algebra", "all"):
        report = tmp_path / f"{suite}.json"
        assert run(["verify", suite, "--n", "2", "--report", str(report)]) == 0
        assert "skipped" not in json.loads(report.read_text())


def test_verify_all_refuses_when_every_suite_is_capped(tmp_path, monkeypatch, capsys):
    import heckespin.numerics as numerics

    def no_sampling(*args, **kw):
        raise AssertionError("sampled before the cap check")

    monkeypatch.setattr(numerics, "generic_draws", no_sampling)
    report = tmp_path / "r.json"
    assert run(["verify", "all", "--n", "11", "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert "refused: every suite is beyond its caps: algebra: spin representation" in err
    assert "; qkz: degree cap exceeded (|m| * n <= 4)" in err
    assert not report.exists()


def test_the_cap_table_names_the_suites():
    """Every suite has caps and every capped name is a suite, and verify
    offers exactly those suites and "all"."""
    import heckespin.cli as cli
    import heckespin.commands as commands

    assert list(commands._CAPS) == list(commands._SUITE_FNS)
    [verify] = [action.choices["verify"] for action in cli.build_parser()._actions
                if action.dest == "command"]
    [suite] = [action for action in verify._actions if action.dest == "suite"]
    assert list(suite.choices) == [*commands._SUITE_FNS, "all"]


def test_a_pole_at_every_cocycle_refuses_at_the_first_trial(monkeypatch, capsys, tmp_path):
    """A pole at every cocycle refuses the job at the first word trial: no
    point is redrawn, and no report is written."""
    import heckespin.baxter as baxter

    def at_pole(*args, **kw):
        raise GenericityError("evaluation at a pole")

    monkeypatch.setattr(baxter, "cocycle_factors", at_pole)
    report = tmp_path / "r.json"
    assert run(["verify", "baxter", "--n", "3", "--report", str(report)]) == 2
    assert "refused: evaluation at a pole" in capsys.readouterr().err
    assert not report.exists()


def test_a_pole_at_the_second_trial_refuses_without_a_redraw(monkeypatch, capsys, tmp_path):
    """A pole at the second word trial of verify baxter refuses the job:
    every trial is drawn before the first is evaluated, the first trial's
    two cocycles are evaluated, then the second trial's point raises, and no
    point is drawn in its place."""
    import heckespin.baxter as baxter

    n, seed = 3, 1
    rng = stream(seed)

    def draw_word():
        word = [rng.randrange(0, n + 1) for _ in range(rng.randrange(1, 7))]
        return word, torus_point(rng, n, (0.7, 1.4))

    trials = [draw_word() for _ in range(4)]
    seen = []

    def planted_pole(params, word, t):
        seen.append(t)
        if t == trials[1][1]:
            _pole_at(t[0])
        return cocycle_factors(params, word, t)

    monkeypatch.setattr(baxter, "cocycle_factors", planted_pole)
    report = tmp_path / "r.json"
    assert run(["verify", "baxter", "--n", str(n), "--seed", str(seed), "--samples", "8",
                "--report", str(report)]) == 2
    assert f"refused: spectral-parameter pole near x={trials[1][1][0]}" in capsys.readouterr().err
    assert seen == [trials[0][1]] * 2 + [trials[1][1]]
    assert not report.exists()


def _pole_at(x):
    """Evaluate at x a block whose denominator vanishes: the
    GenericityError of a real pole, raised by RationalMat's own rule."""
    RationalMat([np.eye(2)], [0.0])(x)


def _planted(module, name, when):
    """A stand-in for module.name that meets a pole at its spectral argument
    x (the coordinate t[0] for a cocycle) wherever when(x) holds."""
    honest = getattr(module, name)

    def planted(params, *args, **kw):
        x = args[1][0] if name == "cocycle_factors" else args[0]
        if when(x):
            _pole_at(x)
        return honest(params, *args, **kw)

    return planted


def _is_stack(x):
    return np.ndim(x) > 0


def _is_mpmath(x):
    return type(x).__module__.startswith("mpmath")


@pytest.mark.parametrize("suite, module, name, when, extra", [
    ("baxter", "baxter", "dressed_blocks", None, []),  # check_ybe_re
    ("baxter", "baxter", "cocycle_factors", lambda x: not _is_stack(x), []),  # word independence
    ("baxter", "baxter", "cocycle_factors", _is_stack, []),  # commuting translation transports
    ("transfer", "transfer", "transfer_mpo", lambda x: True, []),  # check_transfer
    ("transfer", "transfer", "cocycle_factors", lambda x: True, []),  # check_transfer_vs_transport
    ("transfer", "transfer", "transfer_mpo", _is_mpmath, ["--precision", "extended"]),
], ids=["check_ybe_re", "word independence", "commuting translation transports",
        "check_transfer", "check_transfer_vs_transport", "extended precision"])
def test_a_planted_pole_in_any_spectral_row_refuses_the_job(
        monkeypatch, capsys, tmp_path, suite, module, name, when, extra):
    """One policy at a pole: each family of spectral rows meets a pole (a
    block whose denominator vanishes) where no row before it looks, and the
    job exits 2 with no report; no row redraws the point."""
    import importlib

    mod = importlib.import_module(f"heckespin.{module}")
    if name == "dressed_blocks":  # every dressed block at a pole at every argument
        honest = mod.dressed_blocks
        monkeypatch.setattr(mod, name, lambda p: tuple(RationalMat(b.num, [0.0]) for b in honest(p)))
    else:
        monkeypatch.setattr(mod, name, _planted(mod, name, when))
    report = tmp_path / "r.json"
    assert run(["verify", suite, "--n", "3", *extra, "--report", str(report)]) == 2
    assert "refused: spectral-parameter pole near x=" in capsys.readouterr().err
    assert not report.exists()


def test_a_pole_in_qkz_verify_refuses_the_job(monkeypatch, capsys, tmp_path):
    import heckespin.qkz as qkz

    sol, report = tmp_path / "sol.json", tmp_path / "r.json"
    assert run(["qkz", "build", "--n", "2", "--m", "1", "--out", str(sol)]) == 0
    monkeypatch.setattr(qkz, "cocycle_factors", _planted(qkz, "cocycle_factors", _is_stack))
    assert run(["qkz", "verify", "--in", str(sol), "--report", str(report)]) == 2
    assert "refused: spectral-parameter pole near x=" in capsys.readouterr().err
    assert not report.exists()


def test_identity_suite_refuses_one_site_before_sampling(monkeypatch, capsys):
    import heckespin.numerics as numerics

    def no_sampling(*args, **kw):
        raise AssertionError("sampled before the rank check")

    monkeypatch.setattr(numerics, "generic_draws", no_sampling)
    assert run(["verify", "baxter", "--n", "1"]) == 2
    assert "refused: the identity suite needs n >= 2" in capsys.readouterr().err


def _index_out_of_range(monkeypatch):
    import heckespin.baxter as baxter

    # the word trial's cocycle asks for a generator past the right boundary
    honest = baxter.cocycle_factors
    monkeypatch.setattr(baxter, "cocycle_factors",
                        lambda params, word, t: honest(params, [*word, params.n + 1], t))
    return ["verify", "baxter", "--n", "2"]


def _translation_out_of_range(monkeypatch):
    import heckespin.weyl as weyl

    # the transport trial asks for the translation word past the last one
    honest = weyl.tau_word
    monkeypatch.setattr(weyl, "tau_word", lambda i, n: honest(n + 1, n))
    return ["verify", "baxter", "--n", "2"]


def _unknown_hamiltonian_form(monkeypatch):
    import heckespin.transfer as transfer

    honest = transfer.hamiltonian
    monkeypatch.setattr(transfer, "hamiltonian", lambda params, form, v=None: honest(params, "xxz", v))
    return ["verify", "transfer", "--n", "2"]


def _label_length(monkeypatch):
    import heckespin.koornwinder as koornwinder

    honest = koornwinder.compute_P_detail
    monkeypatch.setattr(koornwinder, "compute_P_detail", lambda lam, params: honest(lam + (0,), params))
    return ["koornwinder", "compute", "--lambda", "1,0"]


@pytest.mark.parametrize("corrupt", [_index_out_of_range, _translation_out_of_range,
                                     _unknown_hamiltonian_form, _label_length])
def test_bad_argument_from_a_caller_is_an_internal_defect(monkeypatch, capsys, tmp_path, corrupt):
    """A generator index, translation index, Hamiltonian form or label
    length that no input can produce is a defect of the calling code: exit
    3, never a refusal."""
    argv = corrupt(monkeypatch)
    written = "--report" if argv[0] == "verify" else "--out"
    assert run([*argv, "--seed", "1", written, str(tmp_path / "o.json")]) == 3
    assert "internal defect" in capsys.readouterr().err


def test_an_internal_value_error_is_an_internal_defect(monkeypatch, capsys):
    """A ValueError that no input reaches, here a simple reflection past the
    right boundary, exits 3, not 2."""
    import heckespin.weyl as weyl

    honest = weyl.reduced_word
    monkeypatch.setattr(weyl, "reduced_word", lambda word, n: honest([*word, n + 1], n))
    assert run(["verify", "baxter", "--n", "2", "--seed", "1"]) == 3
    assert "internal defect: generator index 3 out of range for n=2" in capsys.readouterr().err


_QKZ_BUILD = ["qkz", "build", "--n", "2", "--m", "1"]


def _doubled_normalizer(monkeypatch):
    import heckespin.transfer as transfer

    # the trace the normalized transfer matrix divides by, and its slope, doubled
    honest = transfer._aux_normalizer
    monkeypatch.setattr(transfer, "_aux_normalizer", lambda params, x: tuple(2 * g for g in honest(params, x)))
    return ["emit", "tables", "--kind", "hamiltonian_spectrum", "--n", "2"], \
        "internal defect: normalized transfer is not Id at x=1"


def _detuned_spectral_point(monkeypatch):
    import heckespin.qkz as qkz

    # the w_0^J-image of the principal-series point, off by 1e-3
    honest = qkz.act_word
    monkeypatch.setattr(qkz, "act_word", lambda *args: tuple(1.001 * z for z in honest(*args)))
    return _QKZ_BUILD, "internal defect: spectral wiring mismatch ("


def _zero_solution(monkeypatch):
    import dataclasses

    import heckespin.qkz as qkz

    honest = qkz.cm_alpha

    def zeroed(*args, **kw):
        sol = honest(*args, **kw)
        return dataclasses.replace(sol, components=LaurentPoly(sol.components.exps, 0 * sol.components.coeffs))

    monkeypatch.setattr(qkz, "cm_alpha", zeroed)
    return _QKZ_BUILD, "internal defect: assembled solution is numerically zero"


def _short_degree(monkeypatch):
    # the ball cm_alpha builds for the eigenpolynomial is one degree too small
    honest = LaurentPoly.l1_degree
    monkeypatch.setattr(LaurentPoly, "l1_degree", lambda self: honest(self) - 1)
    return _QKZ_BUILD, "internal defect: polynomial term left the degree ball"


def _off_orbit_point(monkeypatch):
    import heckespin.weyl as weyl

    # every word spells the point (n + 1, n - 1, ..., 1), which no element
    # of the group reaches from home, so the descent walk never gets there
    monkeypatch.setattr(weyl.WeylElem, "from_word",
                        classmethod(lambda cls, word, n: cls((n + 1, *range(n - 1, 0, -1)))))
    return ["verify", "baxter", "--n", "2"], "internal defect: descent walk of "


def _boundary_index(j, line):
    def plant(monkeypatch):
        import heckespin.transfer as transfer

        # the boundary denominator asked for at index j of n = 3, which is
        # no boundary: past the chain at j = 4, in its bulk at j = 1
        honest = transfer._boundary_den
        monkeypatch.setattr(transfer, "_boundary_den", lambda params, _j: honest(params, j))
        return ["verify", "transfer", "--n", "3"], line

    plant.__name__ = f"_boundary_index_{j}"
    return plant


@pytest.mark.parametrize("plant", [
    _doubled_normalizer, _detuned_spectral_point, _zero_solution, _short_degree, _off_orbit_point,
    _boundary_index(4, "internal defect: generator index 4 out of range for n=3"),
    _boundary_index(1, "internal defect: no upsilon attached to index 1")])
def test_a_planted_fault_reaches_its_internal_guard(monkeypatch, capsys, plant):
    """Each internal guard that no input reaches fires on the fault it is
    there for, planted in a layer: the command exits 3, and its last stderr
    line names the guard."""
    argv, line = plant(monkeypatch)
    capsys.readouterr()
    assert run([*argv, "--seed", "1"]) == 3
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(line)
    assert plant is not _off_orbit_point or last.endswith("failed to terminate")


def test_a_genericity_error_naming_another_point_refuses_without_a_redraw(monkeypatch, capsys):
    """_at_point takes the next draw only when a guard names the point it
    drew: a GenericityError that names another point is re-raised, and the
    command refuses (exit 2) after its one draw."""
    import heckespin.commands as commands
    import heckespin.numerics as numerics

    honest, drawn, other = numerics.generic_draws, [], sample_generic(seed=2, n=2)

    def logged(*args):
        for p in honest(*args):
            drawn.append(p)
            yield p

    def suite(cfg, p):
        raise GenericityError("planted guard at another point", point=other)

    monkeypatch.setattr(numerics, "generic_draws", logged)
    monkeypatch.setitem(commands._SUITE_FNS, "algebra", suite)
    capsys.readouterr()
    assert run(["verify", "algebra", "--n", "2", "--seed", "1"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "refused: planted guard at another point"
    assert drawn == [sample_generic(seed=1, n=2)] != [other]


def test_benchmark_gated_commands_keep_their_check_names():
    """The six commands the benchmark gates, at seed 1, report exactly the
    check names the benchmark expects (perfbench/expected_checks.json, only
    read here), so that a battery which adds, drops or renames a row fails
    here first."""
    from pathlib import Path

    from heckespin.commands import Config, run_suite

    path = Path(__file__).resolve().parents[1] / "perfbench" / "expected_checks.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    commands = {f"verify {suite} --n 6": (suite, 6)
                for suite in ("algebra", "matchmaker", "baxter", "transfer")}
    commands.update({f"verify all --n {n}": ("all", n) for n in (2, 3)})
    assert sorted(commands) == sorted(expected)
    for label, (suite, n) in commands.items():
        report, _wall = run_suite(suite, Config(n=n, seed=1))
        assert sorted(c["name"] for c in report["checks"]) == sorted(expected[label]), label


def test_traced_classes_exist_in_the_package():
    """Every class whose methods the benchmark's tracer wraps by name
    (CLASSES in perfbench/tracejob.py, only read here) is a class of its
    module, so that a rename fails here and not in every traced run."""
    import ast
    import importlib
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracejob.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    [classes] = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["CLASSES"]]
    assert classes
    for layer, names in classes.items():
        module = importlib.import_module(f"heckespin.{layer}")
        for name in names:
            assert isinstance(getattr(module, name, None), type), f"{layer}.{name}"


def test_traced_suite_names_are_the_suite_functions():
    """Every suite the benchmark times by name (SUITES in perfbench/run.py,
    only read here) is dispatched through the module-level _SUITE_FNS to
    commands.suite_<name>: the tracer rebinds module globals and the values of
    module-level dicts, so a suite reached any other way would read 0."""
    import ast
    import heckespin.commands as commands
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    [suites] = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SUITES"]]
    assert suites
    for name in suites:
        assert commands._SUITE_FNS[name] is getattr(commands, f"suite_{name}"), name


@pytest.mark.xfail(strict=True, reason="perfbench/tracejob.py LAYERS lists cli but not commands, "
                   "so a traced run reads every cli.suite_*.busy_s as 0")
def test_the_tracer_wraps_the_module_holding_the_suites():
    """The benchmark's tracer (LAYERS in perfbench/tracejob.py, only read
    here) wraps the module that holds _SUITE_FNS, so that its suite spans
    are timed.  Expected to fail until LAYERS lists commands; strict, so
    that the marker goes once it does."""
    import ast
    import heckespin.commands as commands
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracejob.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    [layers] = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]]
    assert commands.__name__.removeprefix("heckespin.") in layers


def test_a_nan_floor_value_fails_its_check():
    import heckespin.commands as commands

    assert not commands.Check("c", float("nan"), "", floor=1e-3).row(1e-9)["pass"]
    assert not commands.Check("c", 5e-4, "", floor=1e-3).row(1e-9)["pass"]
    assert commands.Check("c", 2e-3, "", floor=1e-3).row(1e-9)["pass"]


# rows with a least tolerance of their own; so is every qKZ equation row
_LEAST = {"transfer: hamiltonian transfer vs pauli form": 1e-7,
          "koornwinder: joint eigenvector residual": 1e-8,
          "koornwinder: stabilizer eigenvalue at symmetric labels": 1e-8}


def test_the_tolerance_meets_the_rows_in_one_place(tmp_path, capsys):
    """verify all and qkz verify at tolerance 1e-12 and 1e-3 report the same
    names, residuals and contexts; each row's tolerance is the given one or
    its own least tolerance where that is larger (1e-8 for every qKZ
    equation row, in either command), and it passes iff its residual is
    below that."""
    sol, _data = _stored_solution(tmp_path)
    argvs = {"all": ["verify", "all", "--n", "3", "--seed", "1"],
             "qkz verify": ["qkz", "verify", "--in", str(sol)]}
    seen = {}
    for tol in (1e-12, 1e-3):
        for command, argv in argvs.items():
            report = tmp_path / "r.json"
            run([*argv, "--tolerance", str(tol), "--report", str(report)])
            for c in json.loads(report.read_text())["checks"]:
                equation = command == "qkz verify" or (c["name"].startswith("qkz: solution m=")
                                                       and not c["name"].endswith(": nontrivial"))
                assert c["tolerance"] == max(tol, 1e-8 if equation else _LEAST.get(c["name"], 0.0)), c
                assert c["pass"] == (c["residual"] < c["tolerance"]), c
                seen.setdefault(tol, {})[command, c["name"]] = (c["residual"], c["context"])
    assert seen[1e-12] == seen[1e-3]
    assert {name for command, name in seen[1e-3] if command == "all"} >= set(_LEAST)
    capsys.readouterr()


def _checks(monkeypatch, module, name, wrapper, suite, n):
    """run_suite(suite) at n, seed 1, with module.name replaced by
    wrapper(honest); the report's checks by name."""
    import heckespin.commands as commands

    monkeypatch.setattr(module, name, wrapper(getattr(module, name)))
    report, _wall = commands.run_suite(suite, commands.Config(n=n, seed=1))
    return {c["name"]: c for c in report["checks"]}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_nan_at_one_sample_fails_the_reflection_control(monkeypatch):
    """A NaN coordinate at the third of the battery's sample points makes
    every sampled row NaN over the stack, the negative control included; the
    control fails instead of reading as a detected distortion."""
    import heckespin.baxter as baxter

    def wrapper(honest):
        drawn = []

        def one_nan(rng, n, band):
            drawn.append(honest(rng, n, band))
            return (float("nan"),) + tuple(drawn[-1][1:]) if len(drawn) == 3 else drawn[-1]

        return one_nan

    checks = _checks(monkeypatch, baxter, "torus_point", wrapper, "baxter", 3)
    control = checks["negative control perturbed reflection"]
    assert control["residual"] != control["residual"]
    assert not control["pass"]
    assert not checks["reflection at the left boundary"]["pass"]
    assert checks["regularity at x=1 K0"]["pass"]


def test_a_nan_row_fails_the_distorted_solution_control(monkeypatch):
    """A NaN in a row after the first of the control's residuals fails the
    control: the rows are folded by a NaN-propagating max."""
    import heckespin.qkz as qkz

    def wrapper(honest):
        def nan_in_control(sol, samples, rng):
            res = honest(sol, samples, rng)
            if samples == 4:  # the control's call
                res["invariance under s_0"] = float("nan")
            return res

        return nan_in_control

    checks = _checks(monkeypatch, qkz, "verify_solution", wrapper, "qkz", 2)
    assert not checks["control distorted solution"]["pass"]
    assert checks["solution m=1: invariance under s_0"]["pass"]


def test_a_build_that_does_not_refuse_fails_the_refusal_row(monkeypatch, tmp_path):
    """A qKZ build that returns at the suite's unconstrained point, where it
    must refuse, makes the refusal row read 1.0 and fail, and only that row:
    the report fails and verify qkz exits 1."""
    import heckespin.qkz as qkz
    from heckespin import RefusalError

    honest, refused = qkz.build_polynomial_solution, []

    def lenient(params, m):
        try:
            return honest(params, m)
        except RefusalError as exc:
            refused.append(exc)
            return None

    monkeypatch.setattr(qkz, "build_polynomial_solution", lenient)
    report = tmp_path / "r.json"
    assert run(["verify", "qkz", "--n", "2", "--report", str(report)]) == 1
    assert len(refused) == 1
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    row = checks.pop("refusal on unconstrained parameters")
    assert row["residual"] == 1.0 and not row["pass"]
    assert all(c["pass"] for c in checks.values())


def test_a_nan_label_fails_every_label_check(monkeypatch):
    """A NaN in every residual of the label (1, 0), which s_2 fixes and s_1
    moves, fails the four label checks of its degree's fold; the other
    labels of that degree pass, and their values cannot hide it."""
    import heckespin.koornwinder as koornwinder

    def wrapper(honest):
        def nan_label(labels, params):
            dets = honest(labels, params)
            for det in dets:
                if det.lam == (1, 0):
                    det.residual, det.monic, det.stab = np.nan, np.nan, np.full_like(det.stab, np.nan)
            return dets

        return nan_label

    checks = _checks(monkeypatch, koornwinder, "label_polynomials", wrapper, "koornwinder", 2)
    assert checks["constant polynomial"]["pass"]
    for name in ("joint eigenvector residual", "monic leading coefficient",
                 "stabilizer eigenvalue at symmetric labels",
                 "stabilizer separation at moving labels"):
        assert not checks[name]["pass"], name


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.just(10**400), st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(["re", "im", "n", "params"]),
                    st.none() | st.booleans() | st.text(max_size=2) | st.lists(st.none()),
                    max_size=2),
)
# one part of a scalar: zero, non-finite, or of either sign with a size
# log-uniform in [1e-150, 1e150]
_PART = st.one_of(st.sampled_from([0.0, float("nan"), float("inf"), float("-inf")]),
                  st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]),
                            st.floats(-150.0, 150.0)))


@st.composite
def _parameter_documents(draw):
    """A generic parameter file with up to three entries dropped or replaced
    by junk, by another rank, or by a scalar part that is zero, non-finite or
    of any size in [1e-150, 1e150]; bare, under a config object, or replaced
    whole."""
    doc = sample_generic(seed=draw(st.integers(1, 3)), n=draw(st.sampled_from([2, 3]))).to_dict()
    for key in draw(st.lists(st.sampled_from(list(doc)), max_size=3, unique=True)):
        how = draw(st.sampled_from(["drop", "junk", "value"]))
        if how == "drop":
            del doc[key]
        elif how == "junk":
            doc[key] = draw(_JUNK)
        elif key == "n":
            doc[key] = draw(st.sampled_from([0, -1, 1, 2, 3, 11, 2.5, True, "2"]))
        else:
            doc[key] = {"re": draw(_PART), "im": draw(_PART)}
    wrap = draw(st.sampled_from(["bare", "config", "replaced"]))
    if wrap == "config":
        return {"params": doc, "seed": draw(st.integers(0, 3))}
    return draw(_JUNK) if wrap == "replaced" else doc


@st.composite
def _extreme_points(draw):
    """A generic point with one to three scalars replaced by finite values of
    any phase and a size log-uniform in [1e-150, 1e150]; kappa_sqrt follows
    kappa, so that the point is well formed."""
    doc = sample_generic(seed=draw(st.integers(1, 3)), n=draw(st.sampled_from([2, 3]))).to_dict()
    keys = [key for key in doc if key not in ("n", "kappa_sqrt")]
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True)):
        z = 10.0 ** draw(st.floats(-150.0, 150.0)) * cmath.exp(1j * draw(st.floats(0.0, 6.3)))
        doc[key] = {"re": z.real, "im": z.imag}
        if key == "kappa":
            root = cmath.sqrt(z)
            doc["kappa_sqrt"] = {"re": root.real, "im": root.imag}
    return doc


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_extreme_points(), argv=st.sampled_from([
    ["verify", "algebra"], ["verify", "matchmaker"], ["verify", "baxter", "--samples", "4"],
    ["verify", "transfer", "--samples", "4"], ["verify", "koornwinder"],
    ["koornwinder", "compute", "--lambda", "1,0"],
    ["emit", "tables", "--kind", "hamiltonian_spectrum"],
]))
def test_no_extreme_finite_point_crashes_the_driver(tmp_path, doc, argv):
    """At a well-formed point with scalars of any size, which no seed's
    stream would draw, every command passes, fails or refuses: no traceback
    and no internal defect."""
    pfile = _write(tmp_path, doc)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv + ["--params", pfile])
    assert code in (0, 1, 2), err.getvalue()
    assert code != 2 or "refused: " in err.getvalue()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_parameter_documents(), argv=st.sampled_from([
    ["verify", "algebra"], ["verify", "baxter", "--samples", "4"],
    ["koornwinder", "compute", "--lambda", "1,0"], ["koornwinder", "compute", "--lambda", "1,0,-1"],
    ["emit", "tables", "--kind", "hamiltonian_spectrum"],
]))
def test_no_parameter_file_crashes_the_driver(tmp_path, doc, argv):
    """Whatever a --params file holds, the driver passes, fails or refuses:
    no traceback and no internal defect.  Finite scalar parts range over
    1e-150 to 1e150, so extreme finite points that no seed's stream would
    draw are fuzzed too."""
    pfile = _write(tmp_path, doc)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv + ["--params", pfile])
    assert code in (0, 1, 2), err.getvalue()
    assert code != 2 or "refused: " in err.getvalue()


def test_a_closed_stdout_is_a_refusal(tmp_path):
    """With stdout closed at start the report cannot be written: exit 2 and
    one refusal line, where writing it raised AttributeError (exit 1) and
    the final flush would have too."""
    from pathlib import Path

    import heckespin

    src = str(Path(heckespin.__file__).resolve().parents[1])
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m heckespin.cli verify algebra --n 2 >&-',
                           sys.executable], cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True)
    assert proc.returncode == 2, proc.stderr.decode()
    assert proc.stderr.decode().splitlines() == ["refused: cannot write to stdout: it is closed"]


@pytest.mark.parametrize("argv", [
    ["verify", "algebra", "--n", "2", "--report"],
    ["koornwinder", "compute", "--n", "2", "--lambda", "1,0", "--out"],
], ids=["report", "out"])
def test_an_output_file_in_a_missing_directory_is_a_refusal(tmp_path, capsys, argv):
    """A --report or --out file that cannot be opened is refused with exit 2
    and one line, where open raised FileNotFoundError with a traceback."""
    target = tmp_path / "missing" / "x.json"
    capsys.readouterr()
    assert run([*argv, str(target)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"refused: cannot write {target}: No such file or directory"]


def test_a_table_directory_that_is_a_file_is_a_refusal(tmp_path, capsys):
    """emit tables cannot make its output directory over a file: exit 2,
    where os.makedirs raised FileExistsError with a traceback."""
    target = tmp_path / "tables"
    target.write_text("")
    capsys.readouterr()
    assert run(["emit", "tables", "--kind", "koornwinder", "--n", "2", "--m", "1",
                "--out", str(target)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"refused: cannot write {target}: File exists"]


def _plant_guard(monkeypatch, module, name, fires):
    """Wrap module.name so that, like a layer's own guard, it raises a
    GenericityError naming its parameter point where fires(point) holds;
    the points it sees are logged in the returned list."""
    honest, seen = getattr(module, name), []

    def guarded(*args, **kw):
        point = next(a for a in args if isinstance(a, ParamSet))
        seen.append(point)
        if fires(point):
            raise GenericityError("planted guard", point=point)
        return honest(*args, **kw)

    monkeypatch.setattr(module, name, guarded)
    return seen


@pytest.mark.parametrize("module,name,argv,m", [
    ("spinrep", "principal_series_basis", ["verify", "algebra", "--n", "2"], None),
    ("koornwinder", "compute_P_detail", ["koornwinder", "compute", "--lambda", "1,0"], None),
    ("qkz", "build_polynomial_solution", ["qkz", "build", "--n", "2", "--m", "1"], 1),
], ids=["verify", "compute", "qkz build"])
def test_a_guard_at_the_drawn_point_takes_the_next_draw(monkeypatch, tmp_path, capsys, module, name,
                                                       argv, m):
    """A guard that refuses the first point of the seed's stream makes the
    command run at the stream's next point, with that point's output: the
    same as the command at a parameter file holding it."""
    import importlib

    first, second = itertools.islice(generic_draws(3, 2, m), 2)
    seen = _plant_guard(monkeypatch, importlib.import_module(f"heckespin.{module}"), name,
                        lambda p: p == first)
    capsys.readouterr()
    assert run([*argv, "--seed", "3"]) == 0
    retried = capsys.readouterr().out
    assert seen == [first, second]
    assert run([*argv, "--seed", "3", "--params", _write(tmp_path, second.to_dict())]) == 0
    assert capsys.readouterr().out == retried


def test_a_guard_at_a_qkz_point_takes_the_next_draw_of_its_degree(monkeypatch, tmp_path):
    """Inside verify qkz the solution's point has its own stream, of its
    degree m: a guard at its first point moves it alone to the next."""
    import heckespin.qkz as qkz

    first, second = itertools.islice(generic_draws(3, 2, -1), 2)
    seen = _plant_guard(monkeypatch, qkz, "build_polynomial_solution", lambda p: p == first)
    report = tmp_path / "r.json"
    assert run(["verify", "qkz", "--n", "2", "--m", "-1", "--seed", "3", "--report", str(report)]) == 0
    # then the refusal row at the suite's own unconstrained point
    assert seen == [first, second, next(generic_draws(3, 2))]


def test_a_guard_at_every_draw_refuses_once_the_draws_are_spent(monkeypatch, capsys):
    """A guard that refuses every point spends the seed's 64 draws, each in
    the |q| band tried once, then refuses with exit 2."""
    import heckespin.spinrep as spinrep

    seen = _plant_guard(monkeypatch, spinrep, "principal_series_basis", lambda p: True)
    assert run(["verify", "algebra", "--n", "2", "--seed", "3"]) == 2
    assert "refused: no generic parameter point for seed=3, n=2 in 64 draws" in capsys.readouterr().err
    draws = generic_draws(3, 2)
    assert seen == [next(draws) for _ in seen]
    with pytest.raises(GenericityError, match="no generic parameter point"):
        next(draws)


def test_a_pole_at_the_sample_points_refuses_without_a_parameter_redraw(monkeypatch, capsys, tmp_path):
    """A pole at the sample points is no GenericityError naming the
    parameter point: the command refuses without a second parameter draw."""
    import heckespin.baxter as baxter
    import heckespin.numerics as numerics

    def at_pole(*args, **kw):
        raise GenericityError("evaluation at a pole")

    honest, drawn, first = numerics.generic_draws, [], sample_generic(seed=1, n=3)

    def logged(*args):
        for p in honest(*args):
            drawn.append(p)
            yield p

    monkeypatch.setattr(baxter, "cocycle_factors", at_pole)
    monkeypatch.setattr(numerics, "generic_draws", logged)
    assert run(["verify", "baxter", "--n", "3", "--report", str(tmp_path / "r.json")]) == 2
    assert "refused: evaluation at a pole" in capsys.readouterr().err
    assert drawn == [first]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_planted_spectral_collision_is_refused(tmp_path, capsys, n):
    """With q a root of unity of order k <= 3 the labels (1, 0, ...) and
    (1 + k, 0, ...) share a spectral vector: koornwinder compute refuses the
    second at such a parameter file, as the polynomial layer's guard does."""
    for order in (1, 2, 3):
        q_sqrt = cmath.exp(1j * cmath.pi / order)
        pfile = _params_file(tmp_path, seed=8, n=n, q_sqrt={"re": q_sqrt.real, "im": q_sqrt.imag})
        label = ",".join(map(str, (1 + order,) + (0,) * (n - 1)))
        capsys.readouterr()
        assert run(["koornwinder", "compute", "--params", pfile, "--lambda", label]) == 2
        assert f"refused: non-generic spectrum at lambda=({1 + order}," in capsys.readouterr().err


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("key", ["kappa0", "kappan"])
def test_a_vanishing_loop_weight_passes_the_idempotent_row(tmp_path, key, n):
    """At kappa_j = i the loop weight delta_j vanishes and e_j^2 = 0 holds.
    The row is on the scale of its factors, so the rounding of e_j^2 no
    longer reads as a relative defect of 1, which failed verify all there."""
    pfile = _params_file(tmp_path, seed=1, n=n, **{key: {"re": 0.0, "im": 1.0}})
    report = tmp_path / "r.json"
    assert run(["verify", "all", "--params", pfile, "--report", str(report)]) == 0
    rows = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert rows[f"algebra: diagram idempotent e{0 if key == 'kappa0' else n}"]["residual"] < 1e-15


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mutant", ["scaled factor", "bent K_0"])
def test_a_distorted_cocycle_factor_fails_the_block_rows(monkeypatch, n, mutant):
    """The word and transport rows apply both sides to one block of vectors;
    the first factor of each left-hand side scaled by 1.01, or every K_0
    factor with its second column scaled by 1.01, fails both rows."""
    import heckespin.baxter as baxter
    import heckespin.commands as commands

    honest, calls = baxter.cocycle_factors, []

    def distorted(params, word, t):
        factors = honest(params, word, t)
        calls.append(word)
        if mutant == "scaled factor":
            if len(calls) % 2 and factors:
                factors[0] = (1.01 * factors[0][0], factors[0][1])
            return factors
        return [(b @ np.diag([1, 1.01]), legs) if a == 0 else (b, legs)
                for a, (b, legs) in zip(word, factors)]

    monkeypatch.setattr(baxter, "cocycle_factors", distorted)
    cfg = commands.Config(n=n, seed=1)
    rows = {c.name: c.row(cfg.tolerance) for c in commands.suite_baxter(cfg, sample_generic(seed=1, n=n))}
    for name in ("word independence", "commuting translation transports"):
        assert not rows[name]["pass"] and rows[name]["residual"] > 1e-3, (name, rows[name])


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("mutant", ["scaled generator", "swapped limit columns"])
def test_a_distorted_matchmaker_operator_fails_its_block_row(monkeypatch, n, mutant):
    """The intertwining and degenerate-point rows apply both sides to the
    suite's block of vectors: the matchmaker generator e_1 scaled by 1.01
    fails the first, and the limit map with its first two columns swapped
    fails the second, while the other row still passes."""
    import heckespin.commands as commands
    import heckespin.matchings as matchings

    honest_e, honest_psi = matchings.matchmaker_matrix, matchings.intertwiner_Psi
    if mutant == "scaled generator":
        failing, passing = "equivalence intertwines projectors", "degenerate point sign map"
        monkeypatch.setattr(matchings, "matchmaker_matrix",
                            lambda j, *args: (1.01 if j == 1 else 1) * honest_e(j, *args))
    else:
        failing, passing = "degenerate point sign map", "equivalence intertwines projectors"
        monkeypatch.setattr(matchings, "intertwiner_Psi", lambda params, limit=False: (
            honest_psi(params, limit)[:, [1, 0, *range(2, 2**n)]] if limit else honest_psi(params)))
    cfg = commands.Config(n=n, seed=1)
    rows = {c.name: c.row(cfg.tolerance) for c in commands.suite_matchmaker(cfg, sample_generic(seed=1, n=n))}
    assert not rows[failing]["pass"] and rows[failing]["residual"] > 1e-3, rows[failing]
    assert rows[passing]["pass"], rows[passing]


# runs the transfer suite at n = 8, seed 1, in double precision (imports,
# caches and the double peak), then in extended precision, holding one
# dense operator if ARGV[1] is "control"; prints the rise of the peak RSS
# in bytes.  The peak is the process's VmHWM: ru_maxrss would carry over
# the parent's RSS, which the child's address space had before its exec.
_EXTENDED_RISE = """
import sys
import mpmath
import numpy as np
import heckespin.commands as commands
from heckespin.numerics import generic_draws

def peak():
    with open("/proc/self/status") as status:
        return 1024 * next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

n = 8
p = next(generic_draws(1, n))
commands.suite_transfer(commands.Config(n=n, seed=1), p)
start = peak()
held = np.ones((2**n, 2**n), complex) if sys.argv[1] == "control" else None
commands.suite_transfer(commands.Config(n=n, seed=1, precision="extended"), p)
print(peak() - start)
"""


def test_the_spin_suites_hold_no_dense_operator():
    """At n = 8 the Murphy commutator row and the algebra and baxter suites
    peak below one dense 2^n x 2^n complex operator (1 MiB) above their
    start, and the transfer suite below that plus the peak of one full MPO
    pass (tensorops._PASS block entries, 16 points on the block), which no
    sample count raises: every other operator identity runs on a block of
    vectors, and the principal basis is a Monomial.  The extended suite's
    40-digit row is measured by peak RSS in a child process, as tracing
    its mpmath objects takes seconds: it raises the peak over the double
    suite's by less than half a dense operator, where a control child that
    holds one dense operator through the same suite raises it by more."""
    import tracemalloc
    from pathlib import Path

    import heckespin
    import heckespin.commands as commands
    from heckespin.spinrep import build_spin_rep, murphy_commutator_residual
    from heckespin.tensorops import _PASS, apply_mpo, evaluate
    from heckespin.transfer import transfer_mpo

    src = str(Path(heckespin.__file__).resolve().parents[1])
    n = 8
    p, cfg, dense = sample_generic(seed=1, n=n), commands.Config(n=n, seed=1), 16 * 4**n

    def child(mode):
        return subprocess.Popen([sys.executable, "-c", _EXTENDED_RISE, mode], stdout=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": src}, text=True)

    def rows(suite):  # the suite's report rows: every product evaluated
        return [c.row(cfg.tolerance) for c in suite(cfg, p)]

    def peak(fn, *args):
        fn(*args)  # the caches and imports of a first call
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    with child("extended") as extended, child("control") as control:
        block, rep = commands._block(cfg, 2**n), build_spin_rep(p)
        assert peak(lambda: evaluate(murphy_commutator_residual(rep, block))) < dense
        assert peak(rows, commands.suite_algebra) < dense
        assert peak(rows, commands.suite_baxter) < dense
        rng = stream(1)
        x, *t = np.array([torus_point(rng, n + 1, (0.8, 1.3)) for _ in range(_PASS // block.size)]).T
        one_pass = peak(lambda: apply_mpo(transfer_mpo(p, x, t), block))
        assert peak(rows, commands.suite_transfer) < one_pass + dense
        rise = {"extended": int(extended.communicate()[0]), "control": int(control.communicate()[0])}
    assert rise["extended"] < dense / 2 < rise["control"], rise
