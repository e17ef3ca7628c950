"""heckespin benchmark: real CLI jobs, one process at a time.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  Every job is a fresh
``python -m heckespin.cli ...`` process with BLAS threads pinned to one;
jobs run back to back (a closed loop with a single client).  A run makes
its job list from --workload, --seed and --seconds and runs the list
jobs.REPEATS times; every output is checked by the gates in
perfbench/jobs.py and must be byte-identical to the same job's output in
the first pass.  With --trace 0 every pass is untraced and the run reports
the end-to-end metrics.  With --trace 1 the run makes one untraced pass
and then one pass with every job under perfbench/tracejob.py, and reports
the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Everything else (environment,
every job, failures, span totals) is written to
.perfbench/<workload>-seed<seed>-trace<t>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import jobs as jobspec  # noqa: E402
import tracejob  # noqa: E402

SETUP_PER_PASS = 3
RUN_BUDGET_S = 170.0  # every run must end within 180 s
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# per-function metrics: <module>.<function or class>.{calls,busy_s}
FUNCTIONS = {
    "numerics": ("sample_generic", "l1_ball", "laurent_mul", "divided_difference", "LaurentPoly"),
    "weyl": ("min_coset_reps", "reduced_word", "WeylElem"),
    "tensorops": ("op_on_legs", "partial_trace_first"),
    "spinrep": ("build_spin_rep", "murphy_Y", "principal_series_basis"),
    "matchings": ("intertwiner_Psi", "matchmaker_matrix"),
    "baxter": ("baxter_j", "transport_C_tau", "check_ybe_re"),
    "transfer": ("transfer_T", "transfer_T_deriv", "monodromy_U", "hamiltonian"),
    "koornwinder": ("compute_P_detail", "noumi_Y_apply"),
    "qkz": ("build_polynomial_solution", "verify_solution"),
}
SUITES = ("algebra", "matchmaker", "baxter", "transfer", "koornwinder", "qkz")

END_TO_END = {
    "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for layer in tracejob.LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.busy_s": "s",
                      f"{layer}.self_s": "s", f"{layer}.errors": "count"})
    for layer, fns in FUNCTIONS.items():
        for fn in fns:
            units.update({f"{layer}.{fn}.calls": "count", f"{layer}.{fn}.busy_s": "s"})
    units["koornwinder.compute_P_detail.first_s"] = "s"
    units["koornwinder.compute_P_detail.repeat_s"] = "s"
    units.update({f"cli.suite_{s}.busy_s": "s" for s in SUITES})
    units["unattributed_s"] = "s"
    units["trace_overhead"] = "1/s"
    return units


class BenchError(RuntimeError):
    pass


@dataclass
class Run:
    code: int
    wall_s: float
    rss_mb: float
    spawn: float  # perf_counter at spawn (CLOCK_MONOTONIC, shared with the child)
    end: float


def run_process(cmd, cwd, env, stdout_path, stderr_path, deadline) -> Run:
    """Run one process to exit; wall time from spawn to reaping, peak RSS
    from the kernel's accounting for that child alone."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("run budget exhausted before the next job")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
    if t1 >= deadline:
        raise BenchError(f"job exceeded the run budget: {' '.join(map(str, cmd))}")
    return Run(proc.returncode, t1 - t0, usage.ru_maxrss / 1024.0, t0, t1)


def digest(code: int, stdout: bytes) -> str:
    return hashlib.sha256(f"exit {code}\n".encode() + stdout).hexdigest()


def run_pass(job_list, pass_dir: Path, root: Path, env, deadline, traced: bool):
    pass_dir.mkdir(parents=True)
    results = []
    t0 = time.perf_counter()
    for job in job_list:
        if traced:
            spans = pass_dir / f"j{job.index:02d}.spans"
            cmd = [sys.executable, str(root / "perfbench" / "tracejob.py"), str(spans), "--"]
        else:
            cmd = [sys.executable, "-m", "heckespin.cli"]
        results.append({"run": run_process(cmd + job.argv, pass_dir, env,
                                           pass_dir / f"j{job.index:02d}.stdout",
                                           pass_dir / f"j{job.index:02d}.stderr", deadline)})
    elapsed = time.perf_counter() - t0
    for job, res in zip(job_list, results):
        stdout = (pass_dir / f"j{job.index:02d}.stdout").read_bytes()
        err = (pass_dir / f"j{job.index:02d}.stderr").read_text(errors="replace").strip()
        res.update(stdout=stdout, verdict=jobspec.judge(job, res["run"].code, stdout),
                   digest=digest(res["run"].code, stdout),
                   stderr_tail=err.splitlines()[-1][:300] if err else "")
    return results, elapsed


def tail(walls: list[float]) -> dict:
    """The highest percentile with at least ten jobs beyond it.  Where that
    percentile would not lie above the median (fewer than 23 jobs), the
    slowest job is given instead; the result states which."""
    ordered = sorted(walls)
    n = len(ordered)
    k = n - 11 if n - 11 > n // 2 else n - 1
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / n,
            "samples": n, "jobs_beyond": n - 1 - k}


def environment(root: Path, env: dict) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        src.update(f.relative_to(root).as_posix().encode() + b"\n" + f.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": sha or "not a git checkout",
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"), "mpmath": version("mpmath"), "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "thread_pins": {k: env[k] for k in THREAD_PINS},
        "concurrency": "one job process at a time (closed loop, one client)",
    }


def layer_metrics(job_list, results, untraced_jobs_per_s, traced_jobs_per_s, pass_dir):
    units = per_layer_units()
    metrics = {name: 0.0 if unit == "s" else 0 for name, unit in units.items()}
    accounting, per_job = [], []
    first_by_degree: dict[str, list[float]] = {}
    for job, res in zip(job_list, results):
        prefix = pass_dir / f"j{job.index:02d}.spans"
        if not Path(str(prefix) + ".json").exists():
            continue
        summary = tracejob.summarize(str(prefix))
        for layer, vals in summary["layers"].items():
            for key, val in vals.items():
                metrics[f"{layer}.{key}"] += val
        for name, vals in summary["kinds"].items():
            for key, val in vals.items():
                if f"{name}.{key}" in metrics:
                    metrics[f"{name}.{key}"] += val
        for tag, durs in summary["tagged_s"].items():
            which = "first_s" if tag.startswith("first") else "repeat_s"
            metrics[f"koornwinder.compute_P_detail.{which}"] += sum(durs)
            if which == "first_s":
                first_by_degree.setdefault(tag, []).extend(durs)
        run, marks = res["run"], summary["marks"]
        attributed = sum(v["self_s"] for v in summary["layers"].values())
        metrics["unattributed_s"] += run.wall_s - attributed
        accounting.append({
            "job": job.label, "wall_s": run.wall_s,
            "interpreter_start_s": marks["start"] - run.spawn,
            "import_s": marks["imported"] - marks["main"],
            "wrap_s": marks["wrapped"] - marks["imported"],
            "layer_self_s": {k: v["self_s"] for k, v in summary["layers"].items() if v["calls"]},
            "attributed_s": attributed,
            "write_and_exit_s": run.end - marks["done"],
            "unattributed_s": run.wall_s - attributed,
            "spans": summary["spans"],
        })
        per_job.append({"job": job.label, "kinds": summary["kinds"],
                        "errors_by_type": summary["errors_by_type"], "tagged_s": summary["tagged_s"]})
    metrics["trace_overhead"] = traced_jobs_per_s - untraced_jobs_per_s
    detail = {"accounting": accounting, "per_job": per_job,
              "compute_P_detail_first_calls_s": first_by_degree}
    return metrics, units, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=jobspec.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "heckespin" / "cli.py").is_file():
        print("error: run from the root of a heckespin checkout (src/heckespin is missing)",
              file=sys.stderr)
        return 2
    declared = root / "BENCHMARK.json"
    if declared.is_file():
        spec = json.loads(declared.read_text(encoding="utf-8"))
        if ([m["name"] for m in spec["end_to_end"]] != list(END_TO_END)
                or [m["name"] for m in spec["per_layer"]] != list(per_layer_units())
                or [w["name"] for w in spec["workloads"]] != list(jobspec.WORKLOADS)):
            print("error: BENCHMARK.json and perfbench/run.py name different metrics or workloads",
                  file=sys.stderr)
            return 2
    if args.workload == "all":
        return run_all(root, args)
    try:
        result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(root: Path, args) -> int:
    """Every workload, untraced and traced, one after the other.  Each run
    is its own process: a child's peak RSS includes what its parent had
    resident when it was spawned, so no run may inherit a large parent."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in jobspec.WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", trace],
                cwd=root, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                print(f"error: {workload} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, val in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = val
    print(json.dumps(combined, sort_keys=True))
    return 0


def run_workload(root: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.perf_counter() + RUN_BUDGET_S
    work = root / ".perfbench" / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env.pop("PYTHONSTARTUP", None)
    info = environment(root, env)

    # Set-up: a fresh process that imports heckespin.cli, builds the parser
    # and exits; every CLI job pays it.  Its samples are spread over the run,
    # a few before each pass, so that a slow spell of the machine does not
    # decide the median.  The first ones also warm the interpreter and the
    # import caches, so every pass is measured.
    setup_dir = work / "setup"
    setup_dir.mkdir()
    setup: list[Run] = []

    def measure_setup(count):
        for _ in range(count):
            i = len(setup)
            setup.append(run_process([sys.executable, "-m", "heckespin.cli", "--help"], setup_dir,
                                     env, setup_dir / f"{i}.stdout", setup_dir / f"{i}.stderr",
                                     deadline))
            if setup[-1].code != 0:
                raise BenchError("heckespin.cli --help failed; see " + str(setup_dir))

    job_list = jobspec.build_jobs(workload, seed, seconds)
    # Every pass runs the whole list and pass 1 is the reference for byte
    # identity.  A traced run makes one untraced pass and one traced pass.
    plan = [False, True] if traced else [False] * jobspec.REPEATS
    passes = []
    for i, t in enumerate(plan):
        measure_setup(1 if traced else SETUP_PER_PASS)
        passes.append(run_pass(job_list, work / f"pass{i + 1}", root, env, deadline, traced=t))
    reference = passes[0][0]

    failures, wrong = [], []
    for number, (results, _) in enumerate(passes, start=1):
        for job, res, ref in zip(job_list, results, reference):
            verdict, code = res["verdict"], res["run"].code
            where = f"pass {number}: {job.label}"
            if not verdict.valid:
                wrong.append(f"{where}: output rejected by the gate: {verdict.failing}")
            elif code == 0 and verdict.failing:
                wrong.append(f"{where}: exit 0 but the gate failed: {verdict.failing}")
            if res["digest"] != ref["digest"]:
                wrong.append(f"{where}: output differs from pass 1 (criterion 9)")
            if code != 0 or verdict.failing or not verdict.valid:
                failures.append({"pass": number, "job": job.label, "exit": code,
                                 "failing": verdict.failing,
                                 "stderr": res["stderr_tail"]})
    # negative control: a tampered copy of each kind's first passing output
    controls = {}
    for job, res in zip(job_list, reference):
        if job.kind in controls or res["run"].code != 0 or res["verdict"].failing:
            continue
        bad = jobspec.judge(job, 0, jobspec.tamper(job, res["stdout"]))
        controls[job.kind] = {"job": job.label, "rejected": bool(not bad.valid or bad.failing)}
    for kind, ctl in controls.items():
        if not ctl["rejected"]:
            wrong.append(f"negative control: a tampered {kind} output passed the gate")

    executions = [res["run"] for results, _ in passes for res in results]
    per_job = [[results[job.index]["run"] for results, _ in passes] for job in job_list]
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
        "job_seeds": jobspec.job_seeds(workload, seed, seconds),
        "environment": info,
        "setup_s": [r.wall_s for r in setup],
        "passes": [{"traced": t, "elapsed_s": elapsed} for t, (_, elapsed) in zip(plan, passes)],
        "jobs": [{"job": job.label,
                  "exit": [r.code for r in runs],
                  "wall_s": [r.wall_s for r in runs],
                  "rss_mb": max(r.rss_mb for r in runs),
                  "failing": reference[job.index]["verdict"].failing}
                 for job, runs in zip(job_list, per_job)],
        "failures": failures, "wrong_outputs": wrong, "negative_controls": controls,
        "fail_ratio": len(failures) / (len(job_list) * len(passes)),
    }
    if traced:
        metrics, units, trace_detail = layer_metrics(
            job_list, passes[1][0], len(job_list) / passes[0][1], len(job_list) / passes[1][1],
            work / "pass2")
        detail["trace"] = trace_detail
    else:
        # a job's wall time is the median over its repeats
        walls = [statistics.median(r.wall_s for r in runs) for runs in per_job]
        tl = tail(walls)
        metrics = {
            "jobs_per_s": len(executions) / sum(elapsed for _, elapsed in passes),
            "job_p50_s": statistics.median_low(walls),
            "job_tail_s": tl["value"],
            "setup_s": statistics.median(r.wall_s for r in setup),
            "peak_rss_mb": max(r.rss_mb for r in executions),
        }
        units = END_TO_END
        detail["job_tail"] = tl
    detail["metrics"] = metrics
    # kernel accounting charges a child with its parent's resident set at
    # spawn, so the benchmark's own peak must stay below the jobs' peaks
    detail["benchmark_process_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (work / "result.json").write_text(json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8")
    report(detail, metrics, units)
    return {
        "correct": not wrong,
        "attempted": len(job_list) * len(passes),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def report(detail: dict, metrics: dict, units: dict):
    env = detail["environment"]
    print(f"# workload {detail['workload']} seed {detail['seed']} "
          f"job seeds {detail['job_seeds']} traced {detail['traced']}")
    print(f"# git {env['git_sha']} src {env['src_sha256'][:12]} python {env['python']} "
          f"numpy {env['numpy']} mpmath {env['mpmath']} scipy {env['scipy']} "
          f"nproc {env['nproc']} cpu {env['cpu_model']!r} pins {env['thread_pins']}; "
          f"{env['concurrency']}")
    for job in detail["jobs"]:
        walls = " ".join(f"{w:.3f}" for w in job["wall_s"])
        print(f"  job exit={job['exit']} wall_s=[{walls}] :: {job['job']}")
    executions = len(detail["jobs"]) * len(detail["passes"])
    print(f"# fail_ratio {detail['fail_ratio']:.4f} ({len(detail['failures'])} of {executions} job runs)")
    for f in detail["failures"]:
        print(f"  FAILED pass={f['pass']} exit={f['exit']} :: {f['job']} :: {f['failing'][:6]} :: {f['stderr']}")
    for w in detail["wrong_outputs"]:
        print(f"  WRONG {w}")
    for kind, ctl in detail["negative_controls"].items():
        print(f"# negative control {kind}: tampered output {'rejected' if ctl['rejected'] else 'ACCEPTED'}")
    if "job_tail" in detail:
        t = detail["job_tail"]
        print(f"# job_tail_s is p{t['percentile']:.1f} of {t['samples']} jobs, {t['jobs_beyond']} beyond")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
