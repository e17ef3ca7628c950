"""Command-line driver: verification suites, polynomial computation,
solution build/verify, and table emission.

Reports are plain JSON with keys sorted and checks sorted by name, so a
fixed command line, config file, and seed always produce byte-identical
output; wall-clock timing goes to stderr only.  Exit codes: 0 all checks
pass, 1 at least one check failed, 2 a usage error, a flag that the command
does not read among them (the package's SETTINGS), or a refusal: a
precondition, cap, genericity or pole refusal, an input that cannot be read
(unreadable or malformed JSON, a mistyped, zero or non-finite parameter, a
negative seed) or an output that cannot be written, 3 an internal defect,
which includes any ValueError that no input reaches.

This module imports only argparse, atexit, os and sys: it loads the command
module (commands.py) once the arguments parse, so --help and usage errors
load no numpy and no module of the package beyond its __init__.py.
"""

import argparse
import atexit
import os
import sys


def _add_settings(parser, fn):
    """A flag for each setting the parser's command reads (SETTINGS), None
    unless given so that a file value shows through, and fn, which picks the
    command out of the command module for main to run."""
    from . import SETTINGS

    parser.set_defaults(fn=fn)
    command = parser.prog.split(" ", 1)[1]  # prog "heckespin qkz build": "qkz build"
    for name, (flag, readers) in SETTINGS.items():
        if command in readers:
            parser.add_argument(f"--{name}", **flag)


def build_parser() -> argparse.ArgumentParser:
    from . import SUITES

    parser = argparse.ArgumentParser(
        prog="heckespin",
        description="verification suites and artifacts for the two-boundary spin chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=(*SUITES, "all"))
    _add_settings(p_verify, lambda c: c.cmd_verify)

    koorn_sub = sub.add_parser("koornwinder", help="polynomial computations").add_subparsers(
        dest="subcommand", required=True)
    _add_settings(koorn_sub.add_parser("compute", help="compute one labeled polynomial"),
                  lambda c: c.cmd_koornwinder_compute)

    qkz_sub = sub.add_parser("qkz", help="difference-equation solutions").add_subparsers(
        dest="subcommand", required=True)
    _add_settings(qkz_sub.add_parser("build", help="build a polynomial solution"),
                  lambda c: c.cmd_qkz_build)
    p_qv = qkz_sub.add_parser("verify", help="verify a stored solution")
    p_qv.add_argument("--in", dest="infile", required=True, help="solution JSON file")
    _add_settings(p_qv, lambda c: c.cmd_qkz_verify)

    emit_sub = sub.add_parser("emit", help="emit JSON artifacts").add_subparsers(
        dest="subcommand", required=True)
    p_tables = emit_sub.add_parser("tables", help="write polynomial or spectrum tables")
    p_tables.add_argument("--kind", choices=("koornwinder", "hamiltonian_spectrum"), required=True)
    _add_settings(p_tables, lambda c: c.cmd_emit_tables)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from . import GenericityError, InternalDefectError, RefusalError, commands

    try:
        return args.fn(commands)(args)
    except (RefusalError, GenericityError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        payload = getattr(exc, "report", None)
        if payload is not None:
            import json

            print(json.dumps({"refusal": payload}, sort_keys=True, indent=2), file=sys.stderr)
        return 2
    except (InternalDefectError, ValueError) as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    """The process entry of `python -m heckespin.cli` and the heckespin script:
    main's exit code ends the process once the atexit handlers have run and
    stdout and stderr are flushed, skipping the interpreter's teardown of
    modules and numpy state that nothing reads again.  argparse's exits
    (--help, usage errors) and uncaught exceptions take the normal path."""
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None: the descriptor was closed at start
                stream.flush()
        except OSError:  # a closed pipe; the interpreter's own exit gives 120
            code = 120
    os._exit(code)


if __name__ == "__main__":
    entry()
