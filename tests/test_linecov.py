"""The line-coverage collector (tools/linecov.py): on a planted package of
two functions, one called by a test and one only by a child process the
test starts, it finds exactly the one line no process ran."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PACKAGE = '''def inside(flag):
    if flag:
        return 1
    return 2


def child():
    return 3
'''

TESTS = '''import os
import subprocess
import sys
from pathlib import Path

import pkg


def test_inside():
    assert pkg.inside(True) == 1


def test_child():
    src = str(Path(pkg.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", "import pkg; print(pkg.child())"],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.stdout == "3\\n"
'''


def _tool():
    spec = importlib.util.spec_from_file_location("linecov", ROOT / "tools" / "linecov.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_collector_counts_child_processes_and_finds_the_unreached_line(tmp_path):
    linecov = _tool()
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text(PACKAGE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pkg.py").write_text(TESTS)

    code, files = linecov.collect(tmp_path, [])
    assert code == 0
    [(path, (lines, reached))] = files.items()
    assert path == str(Path("src", "pkg", "__init__.py"))
    assert lines == {1, 2, 3, 4, 7, 8}
    assert lines - reached == {4}  # child()'s body ran only in the child process
