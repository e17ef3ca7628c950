"""Line coverage of a tree's src/ under its tests, from the standard library
alone, the tests' child processes included.

    python tools/linecov.py                      # this checkout's tier-1
    python tools/linecov.py -- -x tests/test_cli.py

The tree is copied to a temporary directory, without .git and caches, and
pytest runs there in a child process, BLAS pinned to one thread, with the
copy's src/ first on PYTHONPATH.  A sitecustomize.py written into that
src/ starts a sys.settrace collector in every Python process that finds it:
pytest itself, and each process a test starts with the package's own src/
on its PYTHONPATH, as the command-line tests do.  A process
records the lines it runs of each file under src/ and writes them out at
exit: in an atexit handler, and again in os._exit, which the collector
wraps, as cli.entry runs the atexit handlers and then ends in os._exit.

A file's lines are the line numbers of its compiled code objects
(co_lines), so blank lines, comments and function docstrings never count.
Per file of src/ one JSON line: its path, its line count, the lines
reached and the unreached line numbers; then a total line with pytest's
exit code.  The tool judges nothing: it exits 0 whatever it finds.  Tier-1
takes about twice its usual wall under the collector.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench",
                              ".benchmarks")

# the collector; {root} is the copy's src/ and {out} the directory that
# takes one file of "path<TAB>line" rows per process
_SITE = """import atexit, os, sys

_ROOT, _OUT, _SEEN = {root!r}, {out!r}, set()


def _line(frame, event, arg):
    if event == "line":
        _SEEN.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name.startswith(_ROOT) and name != __file__:
        _SEEN.add((name, frame.f_lineno))
        return _line
    return None


def _dump():
    with open(os.path.join(_OUT, "lines-%d.txt" % os.getpid()), "a", encoding="utf-8") as fh:
        fh.writelines("%s\\t%d\\n" % seen for seen in list(_SEEN))


def _exit(code, _exit=os._exit):
    _dump()
    _exit(code)


sys.settrace(_call)
atexit.register(_dump)
os._exit = _exit
"""


def code_lines(path: Path) -> set:
    """The line numbers of every instruction of the file's code objects; a
    module's code starts with an instruction at line 0, which is no line."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def collect(tree: Path, pytest_args: list) -> tuple:
    """(pytest's exit code, {path under tree: (lines, reached lines)}) for
    every .py file under tree/src, with tree's tests run under the collector."""
    with tempfile.TemporaryDirectory(prefix="linecov-") as tmp:
        copy, out = Path(tmp).resolve() / "tree", Path(tmp).resolve() / "lines"
        shutil.copytree(tree, copy, ignore=SKIP)
        out.mkdir()
        src = copy / "src"
        site = src / "sitecustomize.py"
        site.write_text(_SITE.format(root=str(src) + os.sep, out=str(out)), encoding="utf-8")
        env = {**os.environ, **PINS,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *pytest_args],
                              cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode
        seen: dict = {}
        for dump in out.iterdir():
            for row in dump.read_text(encoding="utf-8").splitlines():
                name, line = row.rsplit("\t", 1)
                seen.setdefault(name, set()).add(int(line))
        files = sorted(path for path in src.rglob("*.py") if path != site)
        return code, {str(path.relative_to(copy)): (lines, lines & seen.get(str(path), set()))
                      for path in files for lines in [code_lines(path)]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest, after --")
    args = parser.parse_args(argv)
    code, files = collect(HERE, args.pytest_args)
    for path, (lines, reached) in files.items():
        print(json.dumps({"file": path, "lines": len(lines), "reached": len(reached),
                          "unreached": sorted(lines - reached)}))
    print(json.dumps({"pytest_exit": code, "lines": sum(len(lines) for lines, _ in files.values()),
                      "reached": sum(len(reached) for _, reached in files.values())}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
