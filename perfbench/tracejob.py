"""Run one heckespin command with every layer boundary wrapped in a span.

    python perfbench/tracejob.py SPANS_PREFIX -- verify all --n 3

The public functions of the ten heckespin modules, and the methods of
LaurentPoly, WeylElem and RationalMat, are replaced by timing wrappers
wherever the package binds them: module globals, names taken with
``from ... import`` and dispatch tables such as ``cli._SUITE_FNS``.  Then
``heckespin.cli.main`` runs on the given arguments, exactly as
``python -m heckespin.cli`` would.  Spans stay in memory and are written
when the command ends, to SPANS_PREFIX.json (names, clock marks and the
spans that raised) and SPANS_PREFIX.bin (four arrays, one entry per span:
kind, parent, start, end).  No file of the package is edited.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

_T_START = time.perf_counter()

LAYERS = (
    "numerics", "weyl", "tensorops", "spinrep", "matchings",
    "baxter", "transfer", "koornwinder", "qkz", "cli",
)
CLASSES = {"numerics": ("LaurentPoly",), "weyl": ("WeylElem",), "baxter": ("RationalMat",)}
# object-protocol dunders (hashing, equality, repr) are left alone: they are
# called from inside dict and set operations and carry no layer work
_WRAPPED_DUNDERS = {"__init__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__call__"}


class Tracer:
    """Span store shared by every wrapper of one process."""

    def __init__(self):
        self.names: list[str] = []  # kind -> "layer.function" or "layer.Class"
        self.layer_of: list[int] = []  # kind -> index into LAYERS
        self.kinds = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.raised: list[tuple[int, str]] = []
        self.tags: dict[int, str] = {}

    def kind(self, layer: str, name: str) -> int:
        full = f"{layer}.{name}"
        if full in self.names:
            return self.names.index(full)
        self.names.append(full)
        self.layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    def wrap(self, fn, kind: int, tag=None):
        kinds, parents, starts, ends = self.kinds, self.parents, self.starts, self.ends
        stack, raised, tags = self.stack, self.raised, self.tags
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(kinds)
            if tag is not None:
                tags[idx] = tag(args, kwargs)
            kinds.append(kind)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised.append((idx, type(exc).__name__))
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        return wrapper

    def write(self, prefix: str, marks: dict):
        meta = {
            "names": self.names,
            "layers": [LAYERS[i] for i in self.layer_of],
            "count": len(self.kinds),
            "marks": marks,
            "raised": self.raised,
            "tags": {str(k): v for k, v in self.tags.items()},
        }
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.kinds, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def _first_call_tag():
    """Tag compute_P_detail calls 'first' or 'repeat' per (parameter
    fingerprint, |lambda|), read from the call's own arguments."""
    seen = set()

    def tag(args, kwargs):
        lam = args[0] if args else kwargs["lam"]
        params = args[1] if len(args) > 1 else kwargs["params"]
        degree = sum(abs(int(v)) for v in lam)
        key = (params.fingerprint(), degree)
        first = key not in seen
        seen.add(key)
        return f"{'first' if first else 'repeat'} n={len(lam)} degree={degree}"

    return tag


def install(tracer: Tracer):
    """Wrap every layer's public functions and the listed classes' methods,
    then rebind each wrapped object wherever a package module holds it."""
    modules = {layer: importlib.import_module(f"heckespin.{layer}") for layer in LAYERS}
    swap = {}  # id(original) -> wrapper
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if callable(obj) and not isinstance(obj, type) and not name.startswith("_") \
                    and getattr(obj, "__module__", None) == mod.__name__:
                tag = _first_call_tag() if (layer, name) == ("koornwinder", "compute_P_detail") else None
                swap[id(obj)] = tracer.wrap(obj, tracer.kind(layer, name), tag)
        for cls_name in CLASSES.get(layer, ()):
            cls = getattr(mod, cls_name)
            kind = tracer.kind(layer, cls_name)
            done = {}
            for name, raw in list(vars(cls).items()):
                if name.startswith("__") and name not in _WRAPPED_DUNDERS:
                    continue
                if isinstance(raw, (staticmethod, classmethod)):
                    fn, rewrap = raw.__func__, type(raw)
                elif callable(raw) and not isinstance(raw, type):
                    fn, rewrap = raw, None
                else:
                    continue
                if id(fn) not in done:
                    done[id(fn)] = tracer.wrap(fn, kind)
                setattr(cls, name, rewrap(done[id(fn)]) if rewrap else done[id(fn)])
    holders = [importlib.import_module("heckespin")] + list(modules.values())
    for mod in holders:
        for name, val in list(vars(mod).items()):
            if id(val) in swap:
                setattr(mod, name, swap[id(val)])
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if id(item) in swap:
                        val[key] = swap[id(item)]
    return modules["cli"]


def summarize(prefix: str) -> dict:
    """Per-layer and per-kind totals of one job's spans.

    busy: time from the outermost entry into a layer (or kind) to its exit,
    so nested calls count once.  self: time in which the innermost open
    span belongs to the layer; summed over layers it equals the time spent
    inside any span.  errors: exceptions that left a span whose parent is in
    another layer (or that had no parent), i.e. that left the layer.
    """
    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    count, names, layers = meta["count"], meta["names"], meta["layers"]
    kinds, parents, starts, ends = array("i"), array("i"), array("d"), array("d")
    with open(prefix + ".bin", "rb") as fh:
        for arr in (kinds, parents, starts, ends):
            arr.fromfile(fh, count)
    layer_idx = [LAYERS.index(name) for name in layers]
    nk, nl = len(names), len(LAYERS)
    kind_calls, kind_busy = [0] * nk, [0.0] * nk
    layer_calls, layer_busy, layer_self = [0] * nl, [0.0] * nl, [0.0] * nl
    kind_depth, layer_depth = [0] * nk, [0] * nl
    child_time = [0.0] * count
    stack: list[int] = []
    for i in range(count):
        k, p = kinds[i], parents[i]
        while stack and stack[-1] != p:
            j = stack.pop()
            kind_depth[kinds[j]] -= 1
            layer_depth[layer_idx[kinds[j]]] -= 1
        lyr = layer_idx[k]
        dur = ends[i] - starts[i]
        kind_calls[k] += 1
        layer_calls[lyr] += 1
        if kind_depth[k] == 0:
            kind_busy[k] += dur
        if layer_depth[lyr] == 0:
            layer_busy[lyr] += dur
        kind_depth[k] += 1
        layer_depth[lyr] += 1
        stack.append(i)
        if p >= 0:
            child_time[p] += dur
    for i in range(count):
        layer_self[layer_idx[kinds[i]]] += ends[i] - starts[i] - child_time[i]
    layer_errors = [0] * nl
    raised_types: dict[str, int] = {}
    for i, exc in meta["raised"]:
        p = parents[i]
        lyr = layer_idx[kinds[i]]
        if p < 0 or layer_idx[kinds[p]] != lyr:
            layer_errors[lyr] += 1
            key = f"{LAYERS[lyr]}: {exc}"
            raised_types[key] = raised_types.get(key, 0) + 1
    tagged: dict[str, list[float]] = {}
    for idx, tag in meta["tags"].items():
        i = int(idx)
        tagged.setdefault(tag, []).append(ends[i] - starts[i])
    return {
        "marks": meta["marks"],
        "spans": count,
        "spanned_s": sum(ends[i] - starts[i] for i in range(count) if parents[i] < 0),
        "layers": {
            LAYERS[lyr]: {"calls": layer_calls[lyr], "busy_s": layer_busy[lyr],
                          "self_s": layer_self[lyr], "errors": layer_errors[lyr]}
            for lyr in range(nl)
        },
        "kinds": {names[k]: {"calls": kind_calls[k], "busy_s": kind_busy[k]} for k in range(nk)},
        "errors_by_type": raised_types,
        "tagged_s": tagged,
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    prefix, cli_args = argv[0], argv[2:]
    t_main = time.perf_counter()
    import heckespin.cli  # noqa: F401  (import cost, outside every span)

    t_imported = time.perf_counter()
    tracer = Tracer()
    cli = install(tracer)
    t_wrapped = time.perf_counter()
    rc = 1
    try:
        rc = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        t_done = time.perf_counter()
        tracer.write(prefix, {
            "start": _T_START, "main": t_main, "imported": t_imported,
            "wrapped": t_wrapped, "done": t_done,
        })
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
