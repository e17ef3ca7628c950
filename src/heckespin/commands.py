"""The commands of the driver (cli.py), loaded once its arguments parse:
the verification suites, their caps and their streams, the reports, and
the polynomial, solution and table artifacts.

A suite beyond its caps (_CAPS, the package's own checks, which no layer
repeats) refuses before sampling, and without a parameter file before it
imports numpy or a layer.  "verify all" runs the suites within theirs and
lists the others in a "skipped" report key, {suite: reason}, absent when
none is skipped; a skip is not a pass, and the stderr line reads "PASS (k
checks, s suites skipped, ...)".  With no suite left, "verify all" refuses
before sampling and names every reason.

A suite returns its checks as Check records and never reads the tolerance;
run_suite and cmd_qkz_verify turn each into its report row.  Each row
battery draws from a fresh numerics.stream(cfg.seed) its suite hands it.

This module imports only the standard library; each command imports the
layers it calls, because single-suite jobs should not pay for numpy or for
compiling layers they never call.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

from . import (SETTINGS, SUITES, RefusalError, check_caps, check_degree_cap, check_dim_cap,
               check_identity_rank)

if TYPE_CHECKING:
    from .numerics import ParamSet

_CONTROL_FLOOR = 1e-3
_KOORNWINDER_DEGREE = 3  # suite_koornwinder checks every label up to this degree


@dataclass
class Config:
    n: int = 2
    seed: int = 1
    precision: str = "double"
    tolerance: float = 1e-9
    samples: int = 20
    m: int | None = None
    lam: tuple | None = None
    params: ParamSet | None = None
    out: str | None = None
    report: str | None = None


def _typed(key: str, value):
    """A setting or lambda entry from a file with the type of its flag: one
    of its choices, a real number for a float, else an integer; never a bool."""
    flag = SETTINGS[key][0]
    if isinstance(value, bool):
        raise TypeError(f"{key} must not be a bool")
    if "choices" in flag and value not in flag["choices"]:
        raise TypeError(f"{key} must be {' or '.join(flag['choices'])}, not {value!r}")
    if flag.get("type") is float and not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a real number, not {value!r}")
    if "choices" in flag:
        return value
    return float(value) if flag.get("type") is float else operator.index(value)


def _read_json(path):
    """The JSON document in the file at path; RefusalError if unreadable or
    not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise RefusalError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise RefusalError(f"malformed JSON in {path}: {exc}") from exc


def _load_config(args) -> Config:
    """flag > file > default; the file may be a bare parameter dictionary
    or a config object with an optional "params" entry, whose rank sets
    the rank; a config object sets only the settings the command has flags
    for.  A file whose top level is not an object, a missing or mistyped
    entry, a rank (flag or file) that is not the parameter set's, a label
    whose length is not the rank, a label that is not integers, a rank
    below 1, a negative seed, fewer than one sample and a tolerance that is
    not finite and positive are refused."""
    merged: dict = {}
    # the settings a file gives as scalars, typed as their flags type them:
    # those the command reads, as the parser gives args exactly those
    typed = [key for key, (flag, _readers) in SETTINGS.items()
             if key in vars(args) and {"type", "choices"} & flag.keys()]
    if args.params:
        data = _read_json(args.params)
        if not isinstance(data, dict):
            raise RefusalError("malformed parameters: the top level is not a JSON object")
        from .numerics import ParamSet

        try:
            if "q_sqrt" in data:
                merged["params"] = ParamSet.from_dict(data)
            else:
                merged = {key: _typed(key, data[key]) for key in typed if key in data}
                if "lambda" in data and "lam" in vars(args):
                    merged["lam"] = tuple(_typed("lambda", v) for v in data["lambda"])
                if "params" in data:
                    merged["params"] = ParamSet.from_dict(data["params"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise RefusalError(f"malformed parameters: {type(exc).__name__} {exc}") from exc
    merged.update({key: val for key, val in vars(args).items() if key in typed and val is not None})
    if getattr(args, "lam", None) is not None:
        try:
            merged["lam"] = tuple(int(v) for v in args.lam.split(","))
        except ValueError as exc:
            raise RefusalError(f"--lambda must be comma-separated integers, not {args.lam!r}") from exc
    if "params" in merged and merged.setdefault("n", merged["params"].n) != merged["params"].n:
        raise RefusalError(f"rank n={merged['n']} does not match the rank {merged['params'].n}"
                           " of the parameter set")
    if "lam" in merged and merged.setdefault("n", len(merged["lam"])) != len(merged["lam"]):
        raise RefusalError("label length does not match the rank")
    cfg = Config(**merged, out=getattr(args, "out", None), report=getattr(args, "report", None))
    if cfg.n < 1:
        raise RefusalError("rank n must be at least 1")
    if cfg.seed < 0:
        raise RefusalError(f"seed must be non-negative, not {cfg.seed}")
    if cfg.samples < 1:
        raise RefusalError(f"samples must be at least 1, not {cfg.samples}")
    if not (math.isfinite(cfg.tolerance) and cfg.tolerance > 0):
        raise RefusalError(f"tolerance must be finite and positive, not {cfg.tolerance}")
    return cfg


def _qkz_degrees(cfg: Config) -> list:
    return [cfg.m] if cfg.m is not None else [-1, 0, 1]


def _at_point(cfg: Config, work, mcondition=None):
    """(p, work(p)) at the point p a command runs at, once the caller has
    checked its caps (_CAPS): cfg.params if given, else the first point of
    cfg.seed's stream and, while a layer's guard refuses the point drawn (a
    GenericityError naming it), the next."""
    from . import numerics

    if cfg.params is not None:
        return cfg.params, work(cfg.params)
    # the stream raises GenericityError once its draws are spent
    for p in numerics.generic_draws(cfg.seed, cfg.n, mcondition):
        try:
            return p, work(p)
        except numerics.GenericityError as exc:
            if exc.point != p:
                raise


class Check(NamedTuple):
    """One check of a suite before it meets a tolerance: the value it
    measured (a number, a tensorops.Product, or a tuple of values whose
    largest it reads; tensorops.evaluate) and what that value means.  least
    is the check's own least tolerance, for a value that carries more
    rounding than the others.

    With a floor the value must reach the floor instead, and the residual
    is the shortfall max(0, floor - value), NaN (which fails) when the value
    is NaN.  Negative controls (_control) are such checks, as they invert
    the usual reading: the deviation of a deliberately broken identity must
    be LARGE for the control to count, and reporting the shortfall keeps
    the uniform rule "pass iff residual < tolerance"."""

    name: str
    value: float | tuple
    context: str = ""
    floor: float | None = None
    least: float = 0.0

    def row(self, tolerance: float) -> dict:
        """The report row, passed iff its residual is below max(tolerance,
        least); with a floor its context names the floor and the value."""
        value = self.value
        if isinstance(value, tuple):  # a suite that made one imported tensorops
            from .tensorops import evaluate

            value = evaluate(value)
        tolerance, value, context = float(max(tolerance, self.least)), float(value), self.context
        if self.floor is not None:
            context += (f"; the value must exceed {self.floor:g} (observed {value:.6e}); "
                        "the reported residual is the shortfall below that floor")
            value = 0.0 if value >= self.floor else self.floor - value
        return {"name": self.name, "residual": value, "tolerance": tolerance,
                "pass": bool(value < tolerance), "context": context}


def _control(name, raw, context):
    return Check(name, raw, "negative control; " + context, _CONTROL_FLOOR)


def _block(cfg: Config, rows: int):
    """A suite's block of vectors (tensorops.gaussian_block), from the block's
    own stream numerics.stream(cfg.seed, block=True), so no sampled point moves."""
    from .numerics import stream
    from .tensorops import gaussian_block

    return gaussian_block(stream(cfg.seed, block=True), rows)


# ---------------------------------------------------------------- suites


def suite_algebra(cfg: Config, p: ParamSet):
    import numpy as np

    from .spinrep import (check_hecke_relations, check_tl_relations, loop_weights, murphy_Y,
                          murphy_commutator_residual, principal_series_basis, quotient_map_residuals)

    basis, zeta, _reps, rep = principal_series_basis(p)
    weights = loop_weights(p)
    checks = [Check(prefix + key, val, ctx) for prefix, res, ctx in (
        ("hecke ", check_hecke_relations(rep.T, p),
         "defining relations of the generator family in the spin representation"),
        ("diagram ", check_tl_relations(rep.e, weights),
         "diagram-algebra relations for the projector family"),
        ("quotient ", quotient_map_residuals(rep),
         "the generator image decomposes through the projector family"),
    ) for key, val in res.items()]
    checks.append(Check(
        "commuting family pairwise", murphy_commutator_residual(rep, _block(cfg, rep.dim)),
        "the 2n-fold generator products commute with one another",
    ))
    v0 = np.eye(rep.dim, 1, dtype=int)
    worst = np.max([np.abs(murphy_Y(rep, i, v0) - zeta[i - 1] * v0).max()
                    for i in range(1, p.n + 1)])
    distinct = np.bincount(basis.index).max() == 1  # then B's singular values are its |weights|
    smin = np.abs(basis.weight).min() * distinct if np.isfinite(basis.weight).all() else np.nan
    bad = dict(rep.T)
    block, legs = bad[min(1, p.n)]
    bad[min(1, p.n)] = (1.01 * block, legs)
    return checks + [
        Check("highest weight eigenvalues", worst,
              "the all-plus vector is a joint eigenvector with the boundary-weighted"
              " geometric eigenvalue string"),
        Check("principal basis independence", smin,
              "smallest singular value of the coset-representative basis", floor=1e-8),
        _control("control scaled generator", tuple(check_hecke_relations(bad, p).values()),
                 "scaling one generator by 1.01 must break the defining relations"),
    ]


def suite_matchmaker(cfg: Config, p: ParamSet):
    import numpy as np

    from .matchings import intertwiner_Psi, matchmaker_betas, matchmaker_matrix
    from .numerics import rel_residual
    from .spinrep import build_spin_rep, check_tl_relations, loop_weights
    from .tensorops import apply_on_legs

    n, v = p.n, _block(cfg, 2**p.n)
    weights = loop_weights(p)
    beta0, beta1 = matchmaker_betas(p)
    mats = {j: matchmaker_matrix(j, weights, beta0, beta1) for j in range(n + 1)}
    checks = [Check("matchmaker " + key, val, "diagram-algebra relations in the matching basis")
              for key, val in check_tl_relations(mats, weights).items()]
    rep = build_spin_rep(p)
    psi = intertwiner_Psi(p)
    psi_v = psi @ v
    worst = np.max([rel_residual(apply_on_legs(*rep.e[j], psi_v, n), psi @ (mats[j] @ v))
                    for j in range(n + 1)])
    smin = float(np.linalg.svd(psi, compute_uv=False)[-1]) if np.isfinite(psi).all() else np.nan
    # the gauge weights only rescale basis vectors, so detuning them cannot
    # break any relation; the control must distort a generator itself
    bad_mats = dict(mats)
    bad_mats[min(1, n)] = 1.01 * mats[min(1, n)]
    return checks + [
        Check("equivalence intertwines projectors", worst,
              "the matching-to-spin map commutes with every projector"),
        Check("equivalence invertibility", smin,
              "smallest singular value of the matching-to-spin map", floor=1e-8),
        # Psi's column k is the matching of sign index k: the relabeling is the identity
        Check("degenerate point sign map", rel_residual(intertwiner_Psi(p, limit=True) @ v, v),
              "at the degenerate parameter point the map collapses to the"
              " sign-string relabeling"),
        _control("control scaled projector", tuple(check_tl_relations(bad_mats, weights).values()),
                 "scaling one projector by 1.01 must break the idempotent relations"),
    ]


def suite_baxter(cfg: Config, p: ParamSet):
    import numpy as np

    from .baxter import check_ybe_re, cocycle_factors
    from .numerics import stream, torus_point
    from .tensorops import Product
    from .weyl import reduced_word, tau_word

    n, v = p.n, _block(cfg, 2**p.n)

    def cocycles(word, other, t):  # the cocycles along two words at t, on the block
        return Product(cocycle_factors(p, word, t), cocycle_factors(p, other, t), a=v, b=v)

    res = check_ybe_re(p, cfg.samples, stream(cfg.seed))
    ctx = "spectral-parameter identities of the dressed generators"
    control = "negative control perturbed reflection"
    checks = [_control(control, res.pop(control), ctx)] + [Check(key, val, ctx) for key, val in res.items()]
    rng = stream(cfg.seed)

    def draw_word():
        word = [rng.randrange(0, n + 1) for _ in range(rng.randrange(1, 7))]
        return word, torus_point(rng, n, (0.7, 1.4))

    # each word's cocycle against its shortest word's at its point
    trials = [draw_word() for _ in range(max(4, cfg.samples // 2))]
    words = tuple(cocycles(word, reduced_word(word, n), t) for word, t in trials)

    # C_{tau_1}(t) C_{tau_n}(tau_1^{-1} t) against the other order, each the
    # cocycle along the concatenated translation words, over the stack of points
    t = tuple(np.array([torus_point(rng, n, (0.7, 1.4)) for _ in range(4)]).T)
    first, last = tau_word(1, n), tau_word(n, n)
    return checks + [
        Check("word independence", words,
              "the ordered product over any word for a group element matches the"
              " product over its shortest word"),
        Check("commuting translation transports", cocycles(first + last, last + first, t),
              "transports along distinct lattice directions compose in either order"),
    ]


def suite_transfer(cfg: Config, p: ParamSet):
    import numpy as np

    from .numerics import max_abs, rel_residual, stream, torus_point
    from .spinrep import build_spin_rep
    from .tensorops import apply_mpo
    from .transfer import check_transfer, check_transfer_vs_transport, hamiltonian, tl_weight, transfer_mpo

    samples = max(4, min(cfg.samples, 8))
    checks = [Check(key, val, ctx) for res, ctx in (
        (check_transfer(p, samples, stream(cfg.seed)), "double-row transfer matrix identities"),
        (check_transfer_vs_transport(p, samples, stream(cfg.seed)),
         "the transfer matrix at the distinguished points acts as the q-less translation transport"),
    ) for key, val in res.items()]
    v = _block(cfg, 2**p.n)
    h_tl, h_pauli, h_transfer = (hamiltonian(p, form, v) for form in ("tl", "pauli", "transfer"))
    checks += [
        Check("hamiltonian projector vs pauli form", rel_residual(h_tl, h_pauli),
              "two closed forms of the spin-chain hamiltonian"),
        Check("hamiltonian transfer vs pauli form", rel_residual(h_transfer, h_pauli),
              "the logarithmic derivative of the normalized transfer matrix against the closed form",
              least=1e-7),
    ]
    if cfg.precision == "extended":
        import mpmath

        rng = stream(cfg.seed)
        x = complex(0.83 * np.exp(2j * np.pi * rng.random()))
        t = torus_point(rng, p.n, (0.8, 1.3))
        with mpmath.workdps(40):  # one column per pass: an entry takes about 30 complex numbers' bytes
            mpc = np.frompyfunc(mpmath.mpc, 1, 1)
            sites = transfer_mpo(p, mpmath.mpc(x), mpc(t))
            wide = np.hstack([apply_mpo(sites, mpc(col[:, None]))[0] for col in v.T]).astype(complex)
        checks.append(Check(
            "extended precision transfer agreement",
            rel_residual(apply_mpo(transfer_mpo(p, x, t), v)[0], wide),
            "the double-precision transfer matrix on the suite's block against"
            " a 40-digit evaluation at one generic point",
        ))
    # kappa0 enters only the boundary term B = w_0 e_0: detune it by the d whose
    # first-order change d * max|dB/dlog kappa0| is 10x the floor of max|H V| /
    # max|V|, as a fixed d fades while H grows with n (d <= 1, also at a 0 or NaN slope)
    def boundary(f):
        q = p.replace(kappa0=p.kappa0 * f)
        return tl_weight(q, 0) * build_spin_rep(q).e[0][0]

    slope = max_abs(boundary(1 + 1e-6) - boundary(1 - 1e-6)) / 2e-6
    detune = min(1.0, 10 * _CONTROL_FLOOR * max_abs(h_pauli) / max_abs(v) / slope) if slope > 0 else 1.0
    raw = rel_residual(hamiltonian(p.replace(kappa0=p.kappa0 * (1 + detune)), "tl", v), h_pauli)
    return checks + [_control(
        "control detuned boundary", raw,
        "detuning one boundary parameter until its first-order change of the"
        " boundary term is 1e-2 of max|H V| / max|V| must separate the closed forms",
    )]


def suite_koornwinder(cfg: Config, p: ParamSet):
    """Every label of degree at most _KOORNWINDER_DEGREE from one
    label_polynomials call, checking all labels of degree r at once on the
    ball of radius r, a degree at a time; its zero label is the constant."""
    import numpy as np

    from .koornwinder import fixed_by_si, label_polynomials
    from .numerics import l1_ball

    n = p.n
    labels = l1_ball(n, _KOORNWINDER_DEGREE)
    dets = label_polynomials(labels, p)
    const = dets[labels.index((0,) * n)].poly
    # the joint and monic residuals, the stabilizer residuals at fixed and at
    # moving (label, i); folded by np.max / np.min, so a NaN fails
    stab = np.array([det.stab for det in dets])
    at = np.array([[fixed_by_si(i, lam) for i in range(1, n + 1)] for lam in labels])
    ctx = f"all {len(dets)} labels with degree at most {_KOORNWINDER_DEGREE}"
    return [
        # every coefficient against those of 1: one at the zero exponent, else 0
        Check("constant polynomial", np.abs(const.coeffs - ~const.exps.any(axis=1)).max(),
              "the zero label yields the constant polynomial exactly"),
        Check("joint eigenvector residual", np.max([det.residual for det in dets]), ctx, least=1e-8),
        Check("monic leading coefficient", np.max([det.monic for det in dets]), ctx),
        Check("stabilizer eigenvalue at symmetric labels", np.max(stab[at], initial=0.0),
              "labels fixed by a simple reflection are generator eigenvectors", least=1e-8),
        Check("stabilizer separation at moving labels", np.min(stab[~at], initial=np.inf),
              "labels moved by a simple reflection must not be generator eigenvectors",
              floor=_CONTROL_FLOOR),
    ]


def _solution_checks(cfg: Config, sol, prefix: str = "") -> list:
    """The rows of qkz.verify_solution on sol, at cfg's samples and seed,
    each named prefix + its key: verify qkz and qkz verify report these."""
    from .numerics import stream
    from .qkz import verify_solution

    return [Check(prefix + key, val, "pointwise residuals at random generic points", least=1e-8)
            for key, val in verify_solution(sol, cfg.samples, stream(cfg.seed)).items()]


def suite_qkz(cfg: Config, p: ParamSet):
    from .numerics import LaurentPoly, max_abs, stream
    from .qkz import build_polynomial_solution, verify_solution

    checks, sols = [], []
    ms = _qkz_degrees(cfg)
    for m in ms:
        _point, sol = _at_point(cfg, lambda p, m=m: build_polynomial_solution(p, m), mcondition=m)
        sols.append(sol)
        checks += _solution_checks(cfg, sol, f"solution m={m}: ")
        checks.append(Check(f"solution m={m}: nontrivial", max_abs(sol.components.coeffs),
                            "largest coefficient of the assembled solution", floor=1e-6))
    if cfg.params is None:
        # p, the point the report fingerprints, was drawn with no constraint
        try:
            build_polynomial_solution(p, ms[0])
            refused = 1.0
        except RefusalError:
            refused = 0.0
        coeffs = sols[0].components.coeffs.copy()
        coeffs[0] *= 1.01
        bad = replace(sols[0], components=LaurentPoly(sols[0].components.exps, coeffs))
        raw = tuple(verify_solution(bad, 4, stream(cfg.seed)).values())
        checks += [
            Check("refusal on unconstrained parameters", refused,
                  "building at a generic unconstrained point must refuse"),
            _control("control distorted solution", raw,
                     "scaling one component by 1.01 must break the difference equations"),
        ]
    return checks


# suite name -> suite(cfg, p) -> checks, in the order verify all runs them
_SUITE_FNS = dict(zip(SUITES, (suite_algebra, suite_matchmaker, suite_baxter, suite_transfer,
                               suite_koornwinder, suite_qkz), strict=True))


def _qkz_caps(cfg: Config):
    """Each qKZ degree's cap; at a parameter file's point each degree must
    meet its existence constraint first, as its build does."""
    for m in _qkz_degrees(cfg):
        if cfg.params is not None:
            from .qkz import require_mcondition

            require_mcondition(cfg.params, m)
        check_degree_cap(cfg.n, m)


# suite -> caps(cfg), which raise RefusalError beyond them
_CAPS = {
    "algebra": lambda cfg: check_dim_cap(cfg.n),
    "matchmaker": lambda cfg: check_dim_cap(cfg.n),
    "baxter": lambda cfg: (check_dim_cap(cfg.n), check_identity_rank(cfg.n)),
    "transfer": lambda cfg: check_dim_cap(cfg.n),
    "koornwinder": lambda cfg: check_caps(cfg.n, _KOORNWINDER_DEGREE),
    "qkz": _qkz_caps,
}


def run_suite(name: str, cfg: Config):
    """Execute one named suite, or for "all" each suite within its caps, and
    assemble the report: every cap is checked before the point is drawn,
    once, and handed to each suite that runs."""
    t0 = time.monotonic()
    names = list(_SUITE_FNS) if name == "all" else [name]
    skipped = {}
    for sub in names:
        try:
            _CAPS[sub](cfg)
        except RefusalError as exc:
            if name != "all":
                raise
            skipped[sub] = str(exc)
    names = [sub for sub in names if sub not in skipped]
    if not names:
        raise RefusalError("every suite is beyond its caps: " + "; ".join(
            f"{sub}: {why}" for sub, why in skipped.items()))

    def run_suites(p):
        return [c._replace(name=f"{sub}: {c.name}" if name == "all" else c.name).row(cfg.tolerance)
                for sub in names for c in _SUITE_FNS[sub](cfg, p)]

    p, checks = _at_point(cfg, run_suites)
    return _report(name, cfg, p, checks, skipped), int(1000 * (time.monotonic() - t0))


def _report(suite: str, cfg: Config, params: ParamSet, checks, skipped=None) -> dict:
    return {
        "suite": suite,
        "seed": cfg.seed,
        "params_fingerprint": params.fingerprint(),
        "checks": sorted(checks, key=lambda c: c["name"]),
        **({"skipped": skipped} if skipped else {}),
    }


def _emit_report(report, wall_ms, cfg):
    _write_json(report, cfg.report)
    ok = all(c["pass"] for c in report["checks"])
    skips = len(report.get("skipped", ()))
    skipped = f"{skips} suite{'s' * (skips > 1)} skipped, " if skips else ""
    print(f"suite {report['suite']}: {'PASS' if ok else 'FAIL'} "
          f"({len(report['checks'])} checks, {skipped}wall {wall_ms} ms)", file=sys.stderr)
    return 0 if ok else 1


# ------------------------------------------------------------- commands


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    return _emit_report(*run_suite(args.suite, cfg), cfg)


def _polynomial_payload(det) -> dict:
    from .numerics import _c2d

    return {"polynomial": det.poly.to_dicts()[0],
            "metadata": {"lambda": list(det.lam), "gamma_lambda": list(map(_c2d, det.gamma.tolist())),
                         "eigen_residual": det.residual, "span_size": det.span_size}}


def cmd_koornwinder_compute(args) -> int:
    cfg = _load_config(args)
    if cfg.lam is None:
        raise RefusalError("--lambda is required (comma-separated integers)")
    check_caps(cfg.n, sum(abs(v) for v in cfg.lam))
    from .koornwinder import compute_P_detail

    p, det = _at_point(cfg, lambda p: compute_P_detail(cfg.lam, p))
    payload = _polynomial_payload(det)
    payload["params_fingerprint"] = p.fingerprint()
    _write_json(payload, cfg.out)
    return 0


def cmd_qkz_build(args) -> int:
    cfg = _load_config(args)
    cfg.m = 1 if cfg.m is None else cfg.m
    _CAPS["qkz"](cfg)
    from .qkz import build_polynomial_solution

    _point, sol = _at_point(cfg, lambda p: build_polynomial_solution(p, cfg.m), mcondition=cfg.m)
    _write_json(sol.to_dict(), cfg.out)
    return 0


def cmd_qkz_verify(args) -> int:
    cfg = _load_config(args)
    data = _read_json(args.infile)
    from .qkz import KZSolution

    sol = KZSolution.from_dict(data)
    if cfg.params not in (None, sol.params):
        raise RefusalError(f"the parameter set in {args.params} is not the solution's")
    t0 = time.monotonic()
    checks = [c.row(cfg.tolerance) for c in _solution_checks(cfg, sol)]
    report = _report("qkz-verify", cfg, sol.params, checks)
    return _emit_report(report, int(1000 * (time.monotonic() - t0)), cfg)


def cmd_emit_tables(args) -> int:
    cfg = _load_config(args)
    bound = cfg.m if cfg.m is not None else 2
    if args.kind == "hamiltonian_spectrum":
        _CAPS["transfer"](cfg)
        import numpy as np

        from .numerics import _c2d
        from .transfer import hamiltonian

        def eigenvalues(p):
            spectra = {}
            for form in ("transfer", "pauli", "tl"):
                h = hamiltonian(p, form=form)
                if not np.isfinite(h).all():
                    raise RefusalError(f"the {form} form of the Hamiltonian overflows at this point")
                spectra[form] = sorted(np.linalg.eigvals(h),
                                       key=lambda z: (round(z.real, 9), round(z.imag, 9)))
            return spectra

        p, spectra = _at_point(cfg, eigenvalues)
        gap = max(abs(x - y)
                  for va, vb in itertools.combinations(spectra.values(), 2) for x, y in zip(va, vb))
        forms = {form: list(map(_c2d, vals)) for form, vals in spectra.items()}
        _write_json({"kind": "hamiltonian_spectrum", "n": p.n, "forms": forms, "max_pairwise_gap": gap,
                     "agree": bool(gap < 1e-7), "params_fingerprint": p.fingerprint()}, cfg.out)
        return 0
    check_caps(cfg.n, bound)
    if bound < 0:
        raise RefusalError("the degree bound --m must be at least 0")
    from .koornwinder import label_polynomials
    from .numerics import l1_ball

    labels = l1_ball(cfg.n, bound)
    p, dets = _at_point(cfg, lambda p: label_polynomials(labels, p))
    out_dir = cfg.out or "tables_koornwinder"
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise RefusalError(f"cannot write {out_dir}: {exc.strerror or exc}") from exc
    entries = []
    for lam, det in zip(labels, dets):
        fname = "lam_" + "_".join(str(v) for v in lam) + ".json"
        _write_json(_polynomial_payload(det), os.path.join(out_dir, fname))
        entries.append(fname)
    manifest = {"kind": "koornwinder", "n": cfg.n, "degree_bound": bound, "entries": entries,
                "params_fingerprint": p.fingerprint()}
    _write_json(manifest, os.path.join(out_dir, "manifest.json"))
    print(f"wrote {len(entries)} files to {out_dir}", file=sys.stderr)
    return 0


def _write_json(payload, out):
    """payload as JSON, keys sorted, to the file out, else to stdout;
    RefusalError when it cannot be written there."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    try:
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif sys.stdout is None:
            raise RefusalError("cannot write to stdout: it is closed")
        else:
            sys.stdout.write(text)
    except OSError as exc:
        raise RefusalError(f"cannot write {out or 'to stdout'}: {exc.strerror or exc}") from exc
