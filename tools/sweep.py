"""Report parity of heckespin commands between two source trees.

    python tools/sweep.py                        # the default grid, this tree
    python tools/sweep.py --against ../parent    # also another tree, then the differences
    python tools/sweep.py --against ../parent "verify baxter --n 2 --seed 1" \\
        "qkz build --n 2 --m 1 --out sol.json; qkz verify --in sol.json"

A tree is a directory holding src/heckespin; the tree under test is the
checkout this file lives in.  Each tree runs the whole grid through
heckespin.cli.main in one child process, BLAS pinned to one thread, in a
temporary working directory of its own.  A job is one command, or several
separated by ';' that share files; each job runs in a fresh subdirectory,
so the relative --out and --report paths of the grid land there.

Per command and tree one JSON line: the tree, the argv, the exit code
(argparse's SystemExit is caught; an uncaught exception counts as exit 1
with its type and message on stderr, not its traceback, whose paths name
the tree), and the sha256 of stdout, of stderr with every "wall N ms"
masked, and of each file in the job's directory afterwards.  With
--against, the last line counts the commands and lists those whose exit
code or hashes differ between the trees.  The tool judges nothing: it
exits 0 whatever differs.

All commands of a tree share one interpreter, as a long-lived caller's
would: module caches stay warm and a Python warning shows once per
process, so stderr can differ from separate `heckespin` processes.  The
default grid (630 commands) takes about a minute per tree, two trees at
once on a 2-core host.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WALL = re.compile(rb"wall \d+ ms")


def default_grid() -> list:
    """The parity grid: every spin suite at n = 2..10 and the full and qKZ
    suites at seeds 1-20, the known failing baxter seeds, extended
    precision, each writing command, the koornwinder tables at the
    polynomial caps (n = 3, m = 4), a stored solution as the --params
    config file of an agreeing and of a contradicting rank, of an unmet
    existence constraint, of the matchmaker suite, of the qKZ suite (which
    skips its refusal row there) and of qkz verify on another solution, the
    one-site qKZ suite, and four more refusals (two of them --samples 0)."""
    seeds = range(1, 21)
    grid = [f"verify {suite} --n {n} --seed {s}" for suite in ("algebra", "matchmaker", "baxter", "transfer")
            for n in (2, 3, 4, 6, 8, 10) for s in seeds]
    grid += [f"verify all --n {n} --seed {s}" for n in (1, 2, 3, 4) for s in seeds]
    grid += [f"verify qkz --n {n} --seed {s}" for n in (2, 3) for s in seeds]
    grid += [
        "verify baxter --n 10 --seed 42",
        "verify baxter --n 10 --seed 444",
        "verify transfer --n 3 --precision extended --seed 1",
        "verify baxter --n 2 --seed 1 --report report.json",
        "emit tables --kind koornwinder --n 2 --m 2 --seed 1 --out tables",
        "emit tables --kind koornwinder --n 3 --m 4 --seed 1 --out tables",
        "emit tables --kind hamiltonian_spectrum --n 4 --seed 1 --out spectrum.json",
        "koornwinder compute --n 2 --lambda 1,0 --seed 1 --out polynomial.json",
        "qkz build --n 2 --m 1 --seed 1 --out sol.json; qkz verify --in sol.json --seed 1",
        "qkz build --n 2 --m 1 --seed 1 --out sol.json; verify algebra --params sol.json;"
        " verify algebra --n 3 --params sol.json",
        "qkz build --n 2 --m 1 --seed 1 --out sol.json; qkz build --m -1 --params sol.json",
        "qkz build --n 2 --m 1 --seed 1 --out a.json; qkz build --n 2 --m 1 --seed 2 --out b.json;"
        " qkz verify --in a.json --params b.json",
        "koornwinder compute --n 3 --lambda 1,0,-1 --seed 1",
        "emit tables --kind hamiltonian_spectrum --n 2 --seed 1",
        "verify baxter --n 1 --seed 1",
        "verify all --n 11 --seed 1",
        "qkz build --n 2 --m 1 --seed 1 --out sol.json; verify matchmaker --params sol.json",
        "qkz build --n 2 --m 1 --seed 1 --out sol.json; verify qkz --m 1 --params sol.json",
        "verify qkz --n 1 --seed 1",
        "verify baxter --n 3 --samples 0",
        "qkz build --n 2 --m 1 --seed 1 --out sol.json; qkz verify --in sol.json --samples 0",
    ]
    return grid


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list) -> tuple:
    """heckespin.cli.main on argv: (exit code, stdout, stderr)."""
    from heckespin import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
        except Exception as exc:  # an uncaught exception ends a real process with 1
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, out.getvalue().encode(), err.getvalue().encode()


def child(tree: str) -> None:
    """Run the jobs read from stdin on tree in a fresh temporary directory,
    one JSON line per command to stdout."""
    import heckespin

    if not Path(heckespin.__file__).resolve().is_relative_to(Path(tree, "src").resolve()):
        raise SystemExit(f"heckespin imported from {heckespin.__file__}, not from {tree}")
    jobs, home = json.load(sys.stdin), os.getcwd()
    with tempfile.TemporaryDirectory(prefix="sweep-") as tmp:
        for k, job in enumerate(jobs):
            cwd = Path(tmp, str(k))
            cwd.mkdir()
            os.chdir(cwd)
            for argv in job:
                code, out, err = _run(argv)
                files = {str(path.relative_to(cwd)): _sha(path.read_bytes())
                         for path in sorted(cwd.rglob("*")) if path.is_file()}
                line = {"tree": tree, "argv": argv, "exit": code, "stdout": _sha(out),
                        "stderr": _sha(WALL.sub(b"wall N ms", err)), "files": files}
                print(json.dumps(line), flush=True)
        os.chdir(home)


def sweep(jobs: list, trees: list) -> list:
    """Run jobs on every tree at once, one child process each; the lines of
    each tree, in grid order."""
    procs = []
    with contextlib.ExitStack() as stack:
        for tree in trees:
            env = {**os.environ, **PINS,
                   "PYTHONPATH": os.pathsep.join([str(tree / "src"), os.environ.get("PYTHONPATH", "")])}
            out = stack.enter_context(tempfile.TemporaryFile("w+"))
            proc = subprocess.Popen([sys.executable, __file__, "--child", str(tree)], env=env,
                                    text=True, stdin=subprocess.PIPE, stdout=out)
            proc.stdin.write(json.dumps(jobs))
            proc.stdin.close()
            procs.append((tree, proc, out))
        codes = [proc.wait() for _, proc, _ in procs]
        lines = []
        for (tree, proc, out), code in zip(procs, codes):
            if code != 0:
                raise SystemExit(f"the child for {tree} exited {code}")
            out.seek(0)
            lines.append([json.loads(text) for text in out])
    return lines


def differing(mine: list, theirs: list) -> list:
    """The argv strings of the commands whose exit code or hashes differ."""
    keys = ("argv", "exit", "stdout", "stderr", "files")
    return [shlex.join(a["argv"]) for a, b in zip(mine, theirs)
            if [a[k] for k in keys] != [b[k] for k in keys]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="a second tree (a directory holding src/heckespin)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("jobs", nargs="*", help="jobs to run in place of the default grid; "
                        "';' separates the commands of one job")
    args = parser.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    jobs = [[shlex.split(cmd) for cmd in job.split(";")] for job in args.jobs or default_grid()]
    trees = [HERE] + ([args.against.resolve()] if args.against else [])
    lines = sweep(jobs, trees)
    for tree_lines in lines:
        for line in tree_lines:
            print(json.dumps(line))
    if args.against:
        print(json.dumps({"commands": len(lines[0]), "differ": differing(*lines)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
