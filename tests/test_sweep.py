"""The parity sweep (tools/sweep.py): a tree against itself differs nowhere,
and against a copy with one check's context edited it differs exactly in
the command that runs that check."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
JOBS = [[["verify", suite, "--n", "2", "--seed", "1"]] for suite in ("algebra", "baxter", "transfer")]


def _tool():
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "tools" / "sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_sweep_reports_exactly_the_commands_an_edit_reaches(tmp_path):
    sweep = _tool()
    edited = tmp_path / "edited"
    shutil.copytree(ROOT / "src", edited / "src", ignore=shutil.ignore_patterns("__pycache__"))
    commands = edited / "src" / "heckespin" / "commands.py"
    text = commands.read_text(encoding="utf-8")
    context = "the ordered product over any word for a group element matches the"
    assert text.count(context) == 1
    commands.write_text(text.replace(context, context.upper()), encoding="utf-8")

    mine, again, theirs = sweep.sweep(JOBS, [ROOT, ROOT, edited])
    assert [line["argv"] for line in mine] == [argv for [argv] in JOBS]
    assert [line["exit"] for line in mine] == [0, 0, 0]
    assert sweep.differing(mine, again) == []
    assert sweep.differing(mine, theirs) == ["verify baxter --n 2 --seed 1"]
