"""Static checks over the package source: every function and class is used
by the package itself, so code that only tests call lives beside the tests;
every file is opened in a with statement; four functions catch a refusal;
one module spells a complex number as JSON; one function draws parameter
points; one module opens the random streams and checks the run caps; one
function multiplies out the two sides of a product identity; one module
defines the MPO pass, and the retired transfer wrappers are gone; no spin
layer casts to complex; and the console script is the process entry of
cli.py."""

import ast
from pathlib import Path

import pytest

import heckespin

SRC = Path(heckespin.__file__).resolve().parent


def _references(node) -> list:
    """The names a subtree refers to: Name ids and Attribute attributes."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def uncalled_names(src: Path = SRC) -> list:
    """module.name of every function or class (nested ones and methods too)
    that no Name or Attribute anywhere in src refers to outside its own
    definition; dunders are exempt."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    total: dict = {}
    for tree in trees.values():
        for name in _references(tree):
            total[name] = total.get(name, 0) + 1
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if total.get(node.name, 0) == _references(node).count(node.name):
                out.append(f"{module}.{node.name}")
    return out


def test_every_function_and_class_in_src_has_a_caller_in_src():
    assert uncalled_names() == []


def test_a_planted_uncalled_function_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def recursive(k):\n    return recursive(k - 1) if k else 0\n\n\n"
        "class Holder:\n    def __repr__(self):\n        return 'x'\n\n"
        "    def method(self):\n        return self.method\n"
    )
    (tmp_path / "main.py").write_text("from mod import used\n\nused()\n")
    assert uncalled_names(tmp_path) == ["mod.recursive", "mod.Holder", "mod.method"]


def unmanaged_opens(src: Path = SRC) -> list:
    """module:line of every open(...) call in src that is not the expression
    of a with item: the process ends with os._exit, which runs no finalizer
    that would flush and close a file left open."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        managed = {id(item.context_expr) for node in ast.walk(tree)
                   if isinstance(node, (ast.With, ast.AsyncWith)) for item in node.items}
        out += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open" and id(node) not in managed]
    return out


def test_every_open_in_src_is_a_with_item():
    assert unmanaged_opens() == []


def test_a_planted_open_outside_a_with_is_flagged(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def read(path):\n    with open(path) as fh:\n        return fh.read()\n\n\n"
        "def write(path, text):\n    fh = open(path, 'w')\n    fh.write(text)\n\n\n"
        "def peek(path):\n    return open(path).read()\n"
    )
    assert unmanaged_opens(tmp_path) == ["mod:7", "mod:12"]


# the classes of a refusal and their bases: an except that names one of
# these, or a bare except, catches a refusal
_REFUSALS = {"GenericityError", "RefusalError", "RuntimeError", "Exception", "BaseException"}
# the handlers of a refusal: the entry maps it to exit 2, _at_point redraws
# the point a guard names, run_suite skips a capped suite in verify all, and
# the qKZ suite's refusal row expects its build to refuse
_REFUSAL_SITES = ("cli.main", "commands._at_point", "commands.run_suite", "commands.suite_qkz")


def _catches_a_refusal(node) -> bool:
    return isinstance(node, ast.ExceptHandler) and (
        node.type is None or bool(_REFUSALS & set(_references(node.type))))


def refusal_handlers(src: Path = SRC) -> list:
    """module.function of every except clause in src that catches a refusal
    (_REFUSALS), outside the four functions that handle one
    (_REFUSAL_SITES): no other code may catch a refusal to redraw a point,
    drop a row or pass a job, so a spectral pole, a GenericityError that
    names no point, refuses the job."""
    return [site for site in _sites(src, _catches_a_refusal) if site not in _REFUSAL_SITES]


def test_only_the_entry_the_redraw_the_skip_and_the_refusal_row_catch_a_refusal():
    assert refusal_handlers() == []


def test_a_planted_refusal_handler_is_flagged(tmp_path):
    (tmp_path / "layer.py").write_text(
        "import heckespin\nfrom heckespin import GenericityError, RefusalError\n\n\n"
        "def redraw(f):\n    try:\n        return f()\n    except GenericityError:\n        return None\n\n\n"
        "def drop(f):\n    try:\n        return f()\n"
        "    except (ValueError, heckespin.RefusalError) as err:\n        return err\n\n\n"
        "def broad(f):\n    try:\n        return f()\n    except Exception:\n        return None\n\n\n"
        "def bare(f):\n    try:\n        return f()\n    except:\n        return None\n\n\n"
        "def other(f):\n    try:\n        return f()\n"
        "    except (ValueError, heckespin.InternalDefectError):\n        return None\n"
    )
    (tmp_path / "cli.py").write_text(
        "from heckespin import GenericityError, RefusalError\n\n\n"
        "def main(f):\n    try:\n        return f()\n    except (RefusalError, GenericityError):\n"
        "        return 2\n\n\n"
        "def helper(f):\n    try:\n        return f()\n    except RefusalError:\n        return 2\n"
    )
    (tmp_path / "commands.py").write_text(
        "from . import numerics\n\n\n"
        "def _at_point(f, p):\n    try:\n        return f(p)\n"
        "    except numerics.GenericityError as exc:\n        return exc\n\n\n"
        "def suite_algebra(f):\n    try:\n        return f()\n    except RuntimeError:\n        return []\n"
    )
    assert refusal_handlers(tmp_path) == [
        "cli.helper", "commands.suite_algebra", "layer.redraw", "layer.drop", "layer.broad", "layer.bare"]


def complex_keys(src: Path = SRC) -> list:
    """module:line of every string "re" or "im" in src outside numerics.py,
    whose _c2d and _d2c are the one codec of a complex number as JSON."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree) if path.name != "numerics.py"
                and isinstance(node, ast.Constant) and node.value in ("re", "im")]
    return out


def test_only_numerics_spells_a_complex_number_as_json():
    assert complex_keys() == []


def test_a_planted_complex_key_is_flagged(tmp_path):
    (tmp_path / "numerics.py").write_text(
        "def _c2d(z):\n    return {'im': z.imag, 're': z.real}\n"
    )
    (tmp_path / "mod.py").write_text(
        "import re\n\n\n"
        "def encode(z):\n    return {'re': z.real, 'im': z.imag}\n\n\n"
        "def decode(d):\n    return complex(d['re'], d[\"im\"])\n\n\n"
        "def word(text):\n    return re.sub('rem', 'imp', text)\n"
    )
    assert complex_keys(tmp_path) == ["mod:5", "mod:5", "mod:9", "mod:9"]


def _enclosed_sites(node, where: str, hit, out: list) -> list:
    """where, extended by the name of each enclosing function or class, of
    every node under node for which hit(node) holds, in source order."""
    for child in ast.iter_child_nodes(node):
        if hit(child):
            out.append(where)
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        _enclosed_sites(child, f"{where}.{child.name}" if inner else where, hit, out)
    return out


def _sites(src: Path, hit) -> list:
    """module.function of every node of src for which hit(node) holds."""
    return [site for path in sorted(src.glob("*.py"))
            for site in _enclosed_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem, hit, [])]


def draw_sites(src: Path = SRC) -> list:
    """module.function of every reference to numerics.generic_draws in src,
    in source order per module: the package draws its parameter points in
    commands._at_point alone, so a report's fingerprint names the point that
    each of its rows ran at."""
    return _sites(src, lambda node: _name(node) == "generic_draws")


def test_only_at_point_draws_a_parameter_point():
    assert draw_sites() == ["commands._at_point"]


def test_a_planted_parameter_draw_is_flagged(tmp_path):
    (tmp_path / "commands.py").write_text(
        "from . import numerics\n\n\n"
        "def _at_point(cfg):\n    return next(numerics.generic_draws(cfg.seed, cfg.n))\n\n\n"
        "def suite(cfg):\n    free = lambda: numerics.generic_draws(cfg.seed + 101, cfg.n)\n"
        "    return free\n"
    )
    (tmp_path / "mod.py").write_text(
        "from .numerics import generic_draws\n\nPOINT = next(generic_draws(1, 2))\n\n\n"
        "class Holder:\n    def point(self):\n        return next(generic_draws(1, 2))\n\n\n"
        "def doc():\n    \"\"\">>> next(generic_draws(1, 2))\"\"\"\n"
    )
    assert draw_sites(tmp_path) == ["commands._at_point", "commands.suite", "mod", "mod.Holder.point"]


def _called(names):
    """A hit for _sites: a call of one of names, bare or as an attribute."""
    return lambda node: isinstance(node, ast.Call) and _name(node.func) in names


def stray_streams(src: Path = SRC) -> list:
    """module.function of every call of numerics.stream in src outside
    numerics.generic_draws and commands: commands opens every stream a row
    draws from and hands it in, so one module decides which stream each row
    reads."""
    return [site for site in _sites(src, _called({"stream"}))
            if site != "numerics.generic_draws" and site.split(".")[0] != "commands"]


def test_only_commands_opens_a_stream():
    assert stray_streams() == []


def test_a_planted_stream_is_flagged(tmp_path):
    (tmp_path / "numerics.py").write_text(
        "import random\n\n\n"
        "def stream(seed):\n    return random.Random(seed)\n\n\n"
        "def generic_draws(seed):\n    return stream(seed)\n\n\n"
        "def spectral(seed):\n    return stream(seed)\n"
    )
    (tmp_path / "commands.py").write_text(
        "from . import numerics\n\n\n"
        "def suite(cfg):\n    return numerics.stream(cfg.seed)\n"
    )
    (tmp_path / "layer.py").write_text(
        "import sys\n\nfrom . import numerics\nfrom .numerics import stream\n\nRNG = stream(1)\n\n\n"
        "def battery(params, samples, seed=1):\n    return numerics.stream(seed)\n\n\n"
        "def flush():\n    for stream in (sys.stdout, sys.stderr):\n        stream.flush()\n"
    )
    assert stray_streams(tmp_path) == ["layer", "layer.battery", "numerics.spectral"]


def stray_caps(src: Path = SRC) -> list:
    """module.function of every call of a run cap (check_dim_cap, check_caps,
    check_degree_cap) in src outside the package's __init__, which defines
    them, and commands, which checks each once before sampling: no layer
    refuses a rank or degree on a suite's behalf."""
    caps = _called({"check_dim_cap", "check_caps", "check_degree_cap"})
    return [site for site in _sites(src, caps) if site.split(".")[0] not in ("__init__", "commands")]


def test_only_commands_checks_a_run_cap():
    assert stray_caps() == []


def test_a_planted_cap_check_is_flagged(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "def check_caps(n, degree=0):\n    return n\n\n\n"
        "def check_degree_cap(n, m):\n    check_caps(n)\n"
    )
    (tmp_path / "commands.py").write_text(
        "from . import check_caps\n\n_CAPS = {'koornwinder': lambda cfg: check_caps(cfg.n)}\n"
    )
    (tmp_path / "layer.py").write_text(
        "import heckespin\nfrom . import check_dim_cap, check_identity_rank\n\n\n"
        "def build(n):\n    check_dim_cap(n)\n    check_identity_rank(n)\n\n\n"
        "class Solver:\n    def solve(self, n, m):\n        heckespin.check_degree_cap(n, m)\n"
    )
    assert stray_caps(tmp_path) == ["layer.build", "layer.Solver.solve"]


def _name(node):
    """The name a Name or Attribute node spells, else None."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _calls(node, names) -> bool:
    """Whether node calls one of names, itself or as an operand of arithmetic."""
    if isinstance(node, ast.BinOp):
        return _calls(node.left, names) or _calls(node.right, names)
    return isinstance(node, ast.Call) and _name(node.func) in names


def _own_returns(fn):
    """The return statements of fn itself, not of the functions inside it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Return):
            yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def product_residuals(src: Path = SRC) -> list:
    """module:line of every product identity src evaluates outside
    tensorops.evaluate, the one evaluator of tensorops.Product records: each
    rel_residual call with an argument that is a factor_product result
    (directly, through a function that returns one, or in arithmetic), and
    each reference to the retired paths _relation, row_residual and
    Monomial.row."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    functions = [fn for tree in trees.values() for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
    producers, grown = {"factor_product"}, True
    while grown:
        found = {fn.name for fn in functions if any(_calls(r.value, producers) for r in _own_returns(fn))}
        grown, producers = not found <= producers, producers | found
    out = []
    for module, tree in trees.items():
        evaluator = {id(node) for fn in functions if module == "tensorops" and fn.name == "evaluate"
                     and fn in tree.body for node in ast.walk(fn)}
        for node in ast.walk(tree):
            retired = (_name(node) in ("_relation", "row_residual")
                       or isinstance(node, ast.Attribute) and node.attr == "row"
                       and _name(node.value) == "Monomial")
            rolled = (isinstance(node, ast.Call) and _name(node.func) == "rel_residual"
                      and any(_calls(arg, producers) for arg in [*node.args, *(k.value for k in node.keywords)]))
            if (retired or rolled) and id(node) not in evaluator:
                out.append(f"{module}:{node.lineno}")
    return out


def test_only_the_evaluator_multiplies_out_a_product_row():
    assert product_residuals() == []


def test_a_planted_product_residual_is_flagged(tmp_path):
    (tmp_path / "tensorops.py").write_text(
        "def factor_product(factors, m, a=None):\n    return a\n\n\n"
        "def evaluate(p):\n    return rel_residual(factor_product(p.lhs, 2), factor_product(p.rhs, 2))\n"
    )
    (tmp_path / "mod.py").write_text(
        "from .tensorops import Monomial, factor_product, row_residual\n\n\n"
        "def murphy(a):\n    return factor_product([], 2, a)\n\n\n"
        "def rows(a, b):\n"
        "    def cocycle(v):\n        return murphy(v)\n\n"
        "    out = [rel_residual(cocycle(a), b), rel_residual(a, b=2 * factor_product([], 2, b))]\n"
        "    out.append(rel_residual(trace(factor_product([], 2, a)), b))\n"
        "    out += [row_residual([a], [b]), _relation({}, [0], [0]), Monomial.row([a], [b])]\n"
        "    return out\n"
    )
    assert product_residuals(tmp_path) == ["mod:12", "mod:12", "mod:14", "mod:14", "mod:14"]


def mpo_passes(src: Path = SRC) -> list:
    """module.name of every definition, a function, class or assignment at
    any depth, of the retired transfer wrappers (transfer_apply,
    monodromy_U, transfer_T_mp and transfer._apply), and of the MPO pass
    (apply_mpo and its _PASS) outside tensorops, whose factor loop is the
    one way through an MPO."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([node.name] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                     else [_name(t) for t in node.targets] if isinstance(node, ast.Assign)
                     else [_name(node.target)] if isinstance(node, ast.AnnAssign) else [])
            out += [f"{path.stem}.{name}" for name in names
                    if name in ("transfer_apply", "monodromy_U", "transfer_T_mp")
                    or name == "_apply" and path.stem == "transfer"
                    or name in ("apply_mpo", "_PASS") and path.stem != "tensorops"]
    return out


def test_only_tensorops_runs_an_mpo_pass():
    assert mpo_passes() == []


def test_a_planted_mpo_pass_is_flagged(tmp_path):
    (tmp_path / "tensorops.py").write_text(
        "_PASS = 2**14\n\n\ndef apply_mpo(sites, v):\n    return [v]\n"
    )
    (tmp_path / "transfer.py").write_text(
        "_PASS: int = 2**10\n\n\ndef _apply(sites, v):\n    return v\n\n\n"
        "def transfer_apply(params, x, t, v):\n    return _apply([], v)\n"
    )
    (tmp_path / "commands.py").write_text(
        "def _apply(row):\n    return row\n\n\n"
        "class monodromy_U:\n    def transfer_T_mp(self, v):\n        apply_mpo = None\n        return v\n"
    )
    assert mpo_passes(tmp_path) == ["commands.monodromy_U", "commands.transfer_T_mp", "commands.apply_mpo",
                                    "transfer._PASS", "transfer._apply", "transfer.transfer_apply"]


# the spin layers, which evaluate in the scalar type of their inputs
_SPIN_LAYERS = ("baxter", "matchings", "spinrep", "tensorops", "transfer")
# module.function of the numeric-input defaults there that may cast to
# complex: none is left, as torus_point's draws are complex already and
# hamiltonian's default operand is the integer identity
_COMPLEX_DEFAULTS: tuple = ()
_COMPLEX = {"complex", "complex64", "complex128", "cdouble", "csingle", "clongdouble"}


def _casts_to_complex(node) -> bool:
    """A call of complex or of a numpy complex type, a complex type handed
    to a call (astype(complex), np.zeros(shape, complex)) or named in its
    dtype keyword, or the literal 0j."""
    if isinstance(node, ast.Call):
        return _name(node.func) in _COMPLEX or _name(node.func) not in ("isinstance", "issubclass") and any(
            _name(arg) in _COMPLEX for arg in node.args)
    if isinstance(node, ast.keyword):
        return node.arg == "dtype" and bool(_COMPLEX & set(_references(node.value)))
    return isinstance(node, ast.Constant) and type(node.value) is complex and node.value == 0


def complex_casts(src: Path = SRC, allowed: tuple = _COMPLEX_DEFAULTS) -> list:
    """module.function of every cast to complex in the spin layers
    (_SPIN_LAYERS) outside the allowed sites: a block, an identity, a seed
    or a constant there takes the scalar type of the parameters and the
    operands, so that exact inputs give exact rows (tests/test_exact.py)."""
    return [site for site in _sites(src, _casts_to_complex)
            if site.split(".")[0] in _SPIN_LAYERS and site not in allowed]


def test_no_spin_layer_casts_to_complex():
    assert complex_casts() == []


def test_a_planted_complex_cast_is_flagged(tmp_path):
    (tmp_path / "baxter.py").write_text(
        "import numpy as np\n\nEYE = np.eye(2, dtype=complex)\n\n\n"
        "def horner(coeffs, x) -> complex:\n    out = 0j\n    for c in coeffs:\n"
        "        out = out * x + complex(c)\n    return out\n\n\n"
        "def block(rows):\n    return np.array(rows).astype(np.complex128)\n\n\n"
        "def draws(points):\n    return np.array(points, complex)\n\n\n"
        "def eye(exact):\n    return np.eye(2, dtype=object if exact else complex)\n\n\n"
        "def fine(z):\n    return isinstance(z, complex) and np.exp(2j * z)\n"
    )
    (tmp_path / "transfer.py").write_text(
        "import numpy as np\n\n\ndef hamiltonian(v=None):\n    return np.eye(4, dtype=np.cdouble) if v is None else v\n"
    )
    (tmp_path / "numerics.py").write_text("def decode(d):\n    return complex(d['re'], d['im']) + 0j\n")
    assert complex_casts(tmp_path) == ["baxter", "baxter.horner", "baxter.horner", "baxter.block",
                                       "baxter.draws", "baxter.eye", "transfer.hamiltonian"]
    assert complex_casts(tmp_path, ("baxter.eye", "transfer.hamiltonian"))[-1] == "baxter.draws"


def test_the_console_script_is_the_function_the_main_block_calls():
    """The heckespin script and `python -m heckespin.cli` take one process
    entry, so an installed script skips the same teardown."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parents[1] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("the package is not run from its source tree")
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    [stmt] = block.body
    assert isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
    assert scripts["heckespin"] == f"heckespin.cli:{ast.unparse(stmt.value.func)}"


def test_no_module_in_src_draws_from_numpy():
    """Every draw comes from numerics.stream, the standard library's
    generator: no module of the package names numpy's generators."""
    hits = [f"{path.stem}:{k}" for path in sorted(SRC.glob("*.py"))
            for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if any(word in line for word in ("np.random", "numpy.random", "default_rng", "SeedSequence"))]
    assert hits == []
