"""Workload job lists and the correctness gate for every job kind.

A job is one ``python -m heckespin.cli`` command line whose whole output
is its standard output.  A gate reads only that output and the exit code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

EXPECTED_CHECKS = json.loads(
    (Path(__file__).with_name("expected_checks.json")).read_text(encoding="utf-8")
)

CHAIN_N = 6  # the largest spin-chain size the README documents

# A run executes its job list REPEATS times.  NOMINAL_SEED_S is the wall
# time of one job seed's jobs on a 2-core machine with one BLAS thread; a
# run takes max(1, round(seconds / (REPEATS * nominal))) job seeds, so the
# number of jobs in a run, and with it the meaning of every order
# statistic, depends only on --seconds and never on the machine's speed.
REPEATS = 3
NOMINAL_SEED_S = {"chain": 13.0, "verify-all": 4.0}
WORKLOADS = tuple(NOMINAL_SEED_S)


@dataclass
class Job:
    index: int
    kind: str  # verify | spectrum
    argv: list[str]
    expect: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def job_seeds(workload: str, seed: int, seconds: float) -> list[int]:
    count = max(1, round(seconds / (REPEATS * NOMINAL_SEED_S[workload])))
    return [seed + 1000 * i for i in range(count)]


def build_jobs(workload: str, seed: int, seconds: float) -> list[Job]:
    jobs: list[Job] = []

    def add(kind, argv, **kw):
        jobs.append(Job(len(jobs), kind, [str(a) for a in argv], **kw))

    for s in job_seeds(workload, seed, seconds):
        if workload == "chain":
            for suite in ("algebra", "matchmaker", "baxter", "transfer"):
                add("verify", ["verify", suite, "--n", CHAIN_N, "--seed", s],
                    expect={"checks": f"verify {suite} --n {CHAIN_N}"})
            add("spectrum", ["emit", "tables", "--kind", "hamiltonian_spectrum",
                             "--n", CHAIN_N, "--seed", s], expect={"n": CHAIN_N})
        elif workload == "verify-all":
            for n in (3, 2):
                add("verify", ["verify", "all", "--n", n, "--seed", s],
                    expect={"checks": f"verify all --n {n}"})
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return jobs


@dataclass
class Verdict:
    """valid: the output is well formed and agrees with the exit code.
    failing: names of checks the gate rejects (empty when the job passed)."""

    valid: bool
    failing: list[str]


def _parse(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _report_verdict(job: Job, code: int, stdout: bytes) -> Verdict:
    report = _parse(stdout)
    if not isinstance(report, dict) or not isinstance(report.get("checks"), list):
        if code == 0:
            return Verdict(False, ["no report on standard output"])
        return Verdict(True, [f"exit {code}"])  # a refusal or defect, reported on stderr
    rows = report["checks"]
    try:
        names = [r["name"] for r in rows]
        inconsistent = [r["name"] for r in rows
                        if r["pass"] is not (float(r["residual"]) < float(r["tolerance"]))]
        failing = [r["name"] for r in rows if r["pass"] is not True]
    except (KeyError, TypeError, ValueError):
        return Verdict(False, ["malformed check row"])
    expected = EXPECTED_CHECKS[job.expect["checks"]]
    if sorted(names) != sorted(expected):
        missing = sorted(set(expected) - set(names))
        extra = sorted(set(names) - set(expected))
        return Verdict(False, [f"check names differ: missing {missing}, extra {extra}"])
    if inconsistent:
        return Verdict(False, [f"pass disagrees with residual < tolerance: {inconsistent}"])
    if code not in (0, 1) or (code == 0) != (not failing):
        return Verdict(False, failing or [f"exit {code} with every check passing"])
    return Verdict(True, failing)


def _spectrum_verdict(job: Job, code: int, stdout: bytes) -> Verdict:
    if code != 0:
        return Verdict(True, [f"exit {code}"])
    data = _parse(stdout)
    n = job.expect["n"]
    if not isinstance(data, dict) or data.get("kind") != "hamiltonian_spectrum":
        return Verdict(False, ["no spectrum on standard output"])
    forms = data.get("forms")
    if data.get("n") != n or not isinstance(forms, dict) or set(forms) != {"transfer", "pauli", "tl"}:
        return Verdict(False, ["spectrum forms or size differ"])
    failing = [f"form {f}: {len(v)} eigenvalues, expected {2 ** n}"
               for f, v in sorted(forms.items()) if len(v) != 2 ** n]
    if data.get("agree") is not True:
        failing.append(f"forms disagree (max pairwise gap {data.get('max_pairwise_gap')})")
    return Verdict(not failing, failing)


GATES = {"verify": _report_verdict, "spectrum": _spectrum_verdict}


def judge(job: Job, code: int, stdout: bytes) -> Verdict:
    return GATES[job.kind](job, code, stdout)


def tamper(job: Job, stdout: bytes) -> bytes:
    """A passing job's output with one value corrupted, for the negative
    control: the gate must reject it."""
    data = json.loads(stdout)
    if job.kind == "verify":
        row = data["checks"][0]
        row["residual"], row["pass"] = 10 * row["tolerance"], False
    else:
        data["forms"]["tl"] = data["forms"]["tl"][1:]
    return json.dumps(data).encode()
