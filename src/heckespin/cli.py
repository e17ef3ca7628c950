"""Command-line driver: verification suites, polynomial computation,
solution build/verify, and table emission.

Reports are plain JSON with keys sorted and checks sorted by name, so a
fixed command line, config file, and seed always produce byte-identical
output; wall-clock timing goes to stderr only.  Exit codes: 0 all checks
pass, 1 at least one check failed, 2 precondition or genericity refusal
(including caps and config errors), 3 internal defect.

Negative-control checks invert the usual reading: the underlying deviation
must be LARGE for the control to count.  To keep the uniform rule
"pass iff residual < tolerance", such checks report the shortfall
max(0, floor - deviation) instead of the deviation itself, and say so in
their context string.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .baxter import check_identity_rank, check_ybe_re, cocycle_C, transport_factors
from .koornwinder import (
    check_caps,
    compute_P_detail,
    fixed_by_si,
    stabilizer_eigen_residual,
)
from .matchings import (
    enumerate_matchings,
    intertwiner_Psi,
    matchmaker_betas,
    matchmaker_matrix,
)
from .numerics import (
    GenericityError,
    InternalDefectError,
    LaurentPoly,
    ParamSet,
    PoleProximityError,
    RefusalError,
    l1_ball,
    pole_free,
    rel_residual,
    sample_generic,
    torus_point,
)
from .qkz import KZSolution, build_polynomial_solution, check_degree_cap, verify_solution
from .spinrep import (
    build_spin_rep,
    check_dim_cap,
    check_hecke_relations,
    check_tl_relations,
    delta_from_kappa,
    murphy_commutator_residual,
    murphy_Y,
    principal_series_basis,
    quotient_map_residuals,
)
from .tensorops import apply_on_legs, factor_product
from .transfer import check_transfer, check_transfer_vs_transport, hamiltonian, transfer_T, transfer_T_mp
from .weyl import WeylElem, reduced_word

_CONTROL_FLOOR = 1e-3

# settings a config file or a flag may give, flag first
_SETTINGS = ("n", "seed", "precision", "tolerance", "samples", "m")


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


def _load_config(args) -> Config:
    """flag > file > default; the file may be a bare parameter dictionary
    or a config object with an optional "params" entry."""
    merged: dict = {}
    if getattr(args, "params", None):
        with open(args.params, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if "q_sqrt" in data:
            merged["params"] = ParamSet.from_dict(data)
        else:
            merged = {key: data[key] for key in _SETTINGS if key in data}
            if "lambda" in data:
                merged["lam"] = tuple(int(v) for v in data["lambda"])
            if "params" in data:
                merged["params"] = ParamSet.from_dict(data["params"])
    for key in _SETTINGS:
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
    if getattr(args, "lam", None) is not None:
        merged["lam"] = tuple(int(v) for v in args.lam.split(","))
    if "params" in merged:
        merged["n"] = merged["params"].n
    return Config(**merged, out=getattr(args, "out", None),
                  report=getattr(args, "report", None))


def _resolve_params(cfg: Config, mcondition=None) -> ParamSet:
    """cfg.params if given, else the generic point of cfg.seed and cfg.n."""
    if cfg.params is not None:
        return cfg.params
    return sample_generic(seed=cfg.seed, n=cfg.n, mcondition=mcondition)


def _qkz_degrees(cfg: Config) -> list:
    return [cfg.m] if cfg.m is not None else [-1, 0, 1]


def _gate(suite: str, cfg: Config) -> None:
    """Refuse before anything is sampled when cfg lies beyond the suite's
    caps.  The qKZ degree cap is checked here only for sampled points; a
    parameter file meets it when the solution is built."""
    if suite == "koornwinder":
        check_caps(cfg.n)
    elif suite == "baxter":
        check_dim_cap(cfg.n)
        check_identity_rank(cfg.n)
    elif suite == "qkz":
        if cfg.params is None:
            for m in _qkz_degrees(cfg):
                check_degree_cap(cfg.n, m)
    else:
        check_dim_cap(cfg.n)


def _check(name, residual, tolerance, context=""):
    residual = float(residual)
    return {
        "name": name,
        "residual": residual,
        "tolerance": float(tolerance),
        "pass": bool(residual < tolerance),
        "context": context,
    }


def _floor_check(name, value, floor, tolerance, context):
    """pass iff value >= floor, reported as the shortfall below the floor."""
    shortfall = max(0.0, floor - float(value))
    ctx = context + (
        f"; the value must exceed {floor:g} (observed {float(value):.6e}); "
        "the reported residual is the shortfall below that floor"
    )
    return _check(name, shortfall, tolerance, ctx)


def _control_check(name, raw, tolerance, context):
    return _floor_check(name, raw, _CONTROL_FLOOR, tolerance, "negative control; " + context)


def _from_residuals(prefix, res, tol, context=""):
    out = []
    for name, val in sorted(res.items()):
        full = prefix + name
        if name.startswith("negative control"):
            out.append(_control_check(full, val, tol, context))
        else:
            out.append(_check(full, val, tol, context))
    return out


# ---------------------------------------------------------------- suites


def suite_algebra(cfg: Config, p: ParamSet):
    basis, zeta, _reps, rep = principal_series_basis(p)
    tl = delta_from_kappa(p)
    checks = []
    checks += _from_residuals(
        "hecke ", check_hecke_relations(rep.T, p), cfg.tolerance,
        "defining relations of the generator family in the spin representation",
    )
    checks += _from_residuals(
        "diagram ", check_tl_relations(rep.e, tl, p.n), cfg.tolerance,
        "diagram-algebra relations for the projector family",
    )
    checks += _from_residuals(
        "quotient ", quotient_map_residuals(rep), cfg.tolerance,
        "the generator image decomposes through the projector family",
    )
    checks.append(_check(
        "commuting family pairwise", murphy_commutator_residual(rep), cfg.tolerance,
        "the 2n-fold generator products commute with one another",
    ))
    v0 = np.zeros((rep.dim, 1), dtype=complex)
    v0[0] = 1.0
    worst = 0.0
    for i in range(1, p.n + 1):
        worst = max(worst, float(np.abs(murphy_Y(rep, i, v0) - zeta[i - 1] * v0).max()))
    checks.append(_check(
        "highest weight eigenvalues", worst, cfg.tolerance,
        "the all-plus vector is a joint eigenvector with the boundary-weighted"
        " geometric eigenvalue string",
    ))
    smin = float(np.linalg.svd(basis, compute_uv=False)[-1])
    checks.append(_floor_check(
        "principal basis independence", smin, 1e-8, cfg.tolerance,
        "smallest singular value of the coset-representative basis",
    ))
    bad = dict(rep.T)
    block, legs = bad[min(1, p.n)]
    bad[min(1, p.n)] = (1.01 * block, legs)
    raw = max(check_hecke_relations(bad, p).values())
    checks.append(_control_check(
        "control scaled generator", raw, cfg.tolerance,
        "scaling one generator by 1.01 must break the defining relations",
    ))
    return checks


def suite_matchmaker(cfg: Config, p: ParamSet):
    n = p.n
    tl = delta_from_kappa(p)
    beta0, beta1 = matchmaker_betas(p)
    mats = {j: matchmaker_matrix(j, tl, beta0, beta1, n) for j in range(n + 1)}
    checks = _from_residuals(
        "matchmaker ", check_tl_relations(mats, tl, n), cfg.tolerance,
        "diagram-algebra relations in the matching basis",
    )
    rep = build_spin_rep(p)
    psi = intertwiner_Psi(p)
    worst = 0.0
    for j in range(n + 1):
        block, legs = rep.e[j]
        worst = max(worst, rel_residual(apply_on_legs(block, legs, psi, n), psi @ mats[j]))
    checks.append(_check(
        "equivalence intertwines projectors", worst, cfg.tolerance,
        "the matching-to-spin map commutes with every projector",
    ))
    smin = float(np.linalg.svd(psi, compute_uv=False)[-1])
    checks.append(_floor_check(
        "equivalence invertibility", smin, 1e-8, cfg.tolerance,
        "smallest singular value of the matching-to-spin map",
    ))
    limit_map = intertwiner_Psi(p, limit=True)
    expected = np.zeros_like(limit_map)
    for col, match in enumerate(enumerate_matchings(n)):
        expected[match.nu_index(), col] = 1.0
    checks.append(_check(
        "degenerate point sign map", rel_residual(limit_map, expected), cfg.tolerance,
        "at the degenerate parameter point the map collapses to the"
        " sign-string relabeling",
    ))
    # the gauge weights only rescale basis vectors, so detuning them cannot
    # break any relation; the control must distort a generator itself
    bad_mats = dict(mats)
    bad_mats[min(1, n)] = 1.01 * mats[min(1, n)]
    raw = max(check_tl_relations(bad_mats, tl, n).values())
    checks.append(_control_check(
        "control scaled projector", raw, cfg.tolerance,
        "scaling one projector by 1.01 must break the idempotent relations",
    ))
    return checks


def suite_baxter(cfg: Config, p: ParamSet):
    n = p.n
    checks = _from_residuals(
        "", check_ybe_re(p, samples=cfg.samples, seed=cfg.seed), cfg.tolerance,
        "spectral-parameter identities of the dressed generators",
    )
    rng = np.random.default_rng(cfg.seed)

    def word_trial():
        length = int(rng.integers(1, 7))
        word = [int(rng.integers(0, n + 1)) for _ in range(length)]
        t = torus_point(rng, n, (0.7, 1.4))
        shortest = reduced_word(WeylElem.from_word(word, n))
        return rel_residual(cocycle_C(p, word, t), cocycle_C(p, shortest, t))

    checks.append(_check(
        "word independence", max(pole_free(word_trial, max(4, cfg.samples // 2))),
        cfg.tolerance,
        "the ordered product over any word for a group element matches the"
        " product over its shortest word",
    ))

    def transport_trial():
        t = torus_point(rng, n, (0.7, 1.4))
        shift_1 = (t[0] / p.q,) + t[1:]
        shift_n = t[:-1] + (t[-1] / p.q,)
        lhs = transport_factors(p, 1, t) + transport_factors(p, n, shift_1)
        rhs = transport_factors(p, n, t) + transport_factors(p, 1, shift_n)
        return rel_residual(factor_product(lhs, n), factor_product(rhs, n))

    checks.append(_check(
        "commuting translation transports", max(pole_free(transport_trial, 4)), cfg.tolerance,
        "transports along distinct lattice directions compose in either order",
    ))
    return checks


def suite_transfer(cfg: Config, p: ParamSet):
    samples = max(4, min(cfg.samples, 8))
    checks = _from_residuals(
        "", check_transfer(p, samples=samples, seed=cfg.seed), cfg.tolerance,
        "double-row transfer matrix identities",
    )
    checks += _from_residuals(
        "", check_transfer_vs_transport(p, samples=samples, seed=cfg.seed),
        cfg.tolerance,
        "the transfer matrix at the distinguished points acts as the"
        " q-less translation transport",
    )
    h_tl = hamiltonian(p, form="tl")
    h_pauli = hamiltonian(p, form="pauli")
    h_transfer = hamiltonian(p, form="transfer")
    checks.append(_check(
        "hamiltonian projector vs pauli form", rel_residual(h_tl, h_pauli),
        cfg.tolerance, "two closed forms of the spin-chain hamiltonian",
    ))
    checks.append(_check(
        "hamiltonian transfer vs pauli form", rel_residual(h_transfer, h_pauli),
        max(cfg.tolerance, 1e-7),
        "the logarithmic derivative of the normalized transfer matrix"
        " against the closed form",
    ))
    if cfg.precision == "extended":
        rng = np.random.default_rng(cfg.seed)
        x = complex(0.83 * np.exp(2j * np.pi * rng.uniform()))
        t = torus_point(rng, p.n, (0.8, 1.3))
        hi = transfer_T_mp(p, x, t, digits=40)
        lo = transfer_T(p, x, t)
        checks.append(_check(
            "extended precision transfer agreement", rel_residual(lo, hi),
            cfg.tolerance,
            "the double-precision transfer matrix against a 40-digit"
            " evaluation at one generic point",
        ))
    bad = p.replace(kappa0=p.kappa0 * 1.01)
    raw = rel_residual(hamiltonian(bad, form="tl"), h_pauli)
    checks.append(_control_check(
        "control detuned boundary", raw, cfg.tolerance,
        "detuning one boundary parameter by 1.01 must separate the closed forms",
    ))
    return checks


def suite_koornwinder(cfg: Config, p: ParamSet):
    n = p.n
    radius = 3
    checks = []
    const = compute_P_detail((0,) * n, p)
    diff = (const.poly + LaurentPoly.one(n).scale(-1.0)).max_abs()
    checks.append(_check(
        "constant polynomial", diff, cfg.tolerance,
        "the zero label yields the constant polynomial exactly",
    ))
    worst_eig = 0.0
    worst_monic = 0.0
    worst_fixed = 0.0
    sep = float("inf")
    count = 0
    for lam in l1_ball(n, radius):
        det = compute_P_detail(tuple(lam), p)
        worst_eig = max(worst_eig, det.residual)
        lead = det.poly.terms.get(tuple(lam), 0.0)
        worst_monic = max(worst_monic, abs(lead - 1.0))
        for i in range(1, n + 1):
            r = stabilizer_eigen_residual(i, det.poly, p)
            if fixed_by_si(i, tuple(lam)):
                worst_fixed = max(worst_fixed, r)
            else:
                sep = min(sep, r)
        count += 1
    ctx = f"all {count} labels with degree at most {radius}"
    checks.append(_check(
        "joint eigenvector residual", worst_eig, max(cfg.tolerance, 1e-8), ctx,
    ))
    checks.append(_check("monic leading coefficient", worst_monic, cfg.tolerance, ctx))
    checks.append(_check(
        "stabilizer eigenvalue at symmetric labels", worst_fixed,
        max(cfg.tolerance, 1e-8),
        "labels fixed by a simple reflection are generator eigenvectors",
    ))
    checks.append(_floor_check(
        "stabilizer separation at moving labels", sep, _CONTROL_FLOOR,
        cfg.tolerance,
        "labels moved by a simple reflection must not be generator eigenvectors",
    ))
    return checks


def suite_qkz(cfg: Config, p: ParamSet):
    checks = []
    ms = _qkz_degrees(cfg)
    sols = []
    for m in ms:
        at_m = p if cfg.params is not None else sample_generic(seed=cfg.seed, n=p.n, mcondition=m)
        sol = build_polynomial_solution(at_m, m)
        sols.append(sol)
        res = verify_solution(sol, samples=cfg.samples, seed=cfg.seed)
        checks += _from_residuals(
            f"solution m={m}: ", res, max(cfg.tolerance, 1e-8),
            "pointwise residuals at random generic points",
        )
        checks.append(_floor_check(
            f"solution m={m}: nontrivial", sol.max_coeff(), 1e-6, cfg.tolerance,
            "largest coefficient of the assembled solution",
        ))
    if cfg.params is None:
        free = sample_generic(seed=cfg.seed + 101, n=p.n)
        try:
            build_polynomial_solution(free, ms[0])
            refused = 1.0
        except RefusalError:
            refused = 0.0
        checks.append(_check(
            "refusal on unconstrained parameters", refused, cfg.tolerance,
            "building at a generic unconstrained point must refuse",
        ))
        sol = sols[0]
        bad = KZSolution(
            params=sol.params,
            components=[c.scale(1.0) for c in sol.components],
            metadata=dict(sol.metadata),
        )
        bad.components[0] = bad.components[0].scale(1.01)
        raw = max(verify_solution(bad, samples=4, seed=cfg.seed).values())
        checks.append(_control_check(
            "control distorted solution", raw, cfg.tolerance,
            "scaling one component by 1.01 must break the difference equations",
        ))
    return checks


# suite name -> suite(cfg, p) -> checks, in the order verify all runs them
_SUITE_FNS = {
    "algebra": suite_algebra,
    "matchmaker": suite_matchmaker,
    "baxter": suite_baxter,
    "transfer": suite_transfer,
    "koornwinder": suite_koornwinder,
    "qkz": suite_qkz,
}


def run_suite(name: str, cfg: Config):
    """Execute one named suite (or all of them) and assemble the report:
    every requested suite's caps are checked, then the point is drawn once
    and handed to each suite."""
    t0 = time.monotonic()
    if name == "all":
        # the polynomial suites cap n first; keep that refusal text
        check_caps(cfg.n)
    names = list(_SUITE_FNS) if name == "all" else [name]
    for sub in names:
        _gate(sub, cfg)
    p = _resolve_params(cfg)
    checks = []
    for sub in names:
        prefix = f"{sub}: " if name == "all" else ""
        checks += [dict(c, name=prefix + c["name"]) for c in _SUITE_FNS[sub](cfg, p)]
    return _report(name, cfg, p, checks), int(1000 * (time.monotonic() - t0))


def _report(suite: str, cfg: Config, params: ParamSet, checks) -> dict:
    return {
        "suite": suite,
        "seed": cfg.seed,
        "params_fingerprint": params.fingerprint(),
        "checks": sorted(checks, key=lambda c: c["name"]),
    }


def _emit_report(report, cfg, wall_ms):
    _write_json(report, cfg.report)
    ok = all(c["pass"] for c in report["checks"])
    print(
        f"suite {report['suite']}: {'PASS' if ok else 'FAIL'} "
        f"({len(report['checks'])} checks, wall {wall_ms} ms)",
        file=sys.stderr,
    )
    return 0 if ok else 1


# ------------------------------------------------------------- commands


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    report, wall_ms = run_suite(args.suite, cfg)
    return _emit_report(report, cfg, wall_ms)


def _polynomial_payload(det) -> dict:
    return {
        "polynomial": det.poly.to_dict(),
        "metadata": {
            "lambda": list(det.spectral.lam),
            "gamma_lambda": [{"re": g.real, "im": g.imag} for g in det.spectral.gamma],
            "eigen_residual": det.residual,
            "span_size": det.span_size,
        },
    }


def cmd_koornwinder_compute(args) -> int:
    cfg = _load_config(args)
    if cfg.lam is None:
        raise ValueError("--lambda is required (comma-separated integers)")
    lam = cfg.lam
    if cfg.params is not None and cfg.params.n != len(lam):
        raise ValueError("label length does not match the parameter rank")
    cfg.n = len(lam)
    check_caps(cfg.n, sum(abs(v) for v in lam))
    p = _resolve_params(cfg)
    payload = _polynomial_payload(compute_P_detail(lam, p))
    payload["params_fingerprint"] = p.fingerprint()
    _write_json(payload, cfg.out)
    return 0


def cmd_qkz_build(args) -> int:
    cfg = _load_config(args)
    if cfg.m is None:
        cfg.m = 1
    _gate("qkz", cfg)
    sol = build_polynomial_solution(_resolve_params(cfg, mcondition=cfg.m), cfg.m)
    _write_json(sol.to_dict(), cfg.out)
    return 0


def cmd_qkz_verify(args) -> int:
    cfg = _load_config(args)
    with open(args.infile, "r", encoding="utf-8") as fh:
        sol = KZSolution.from_dict(json.load(fh))
    t0 = time.monotonic()
    checks = _from_residuals(
        "", verify_solution(sol, samples=cfg.samples, seed=cfg.seed),
        max(cfg.tolerance, 1e-8), "pointwise residuals at random generic points",
    )
    report = _report("qkz-verify", cfg, sol.params, checks)
    return _emit_report(report, cfg, int(1000 * (time.monotonic() - t0)))


def cmd_emit_tables(args) -> int:
    cfg = _load_config(args)
    if args.kind == "koornwinder":
        bound = cfg.m if cfg.m is not None else 2
        if bound >= 0:
            check_caps(cfg.n, bound)
        out_dir = cfg.out or "tables_koornwinder"
        os.makedirs(out_dir, exist_ok=True)
        p = _resolve_params(cfg)
        entries = []
        labels = [tuple(v) for v in l1_ball(cfg.n, bound)] if bound >= 0 else []
        for lam in sorted(labels):
            payload = _polynomial_payload(compute_P_detail(lam, p))
            fname = "lam_" + "_".join(str(v) for v in lam) + ".json"
            _write_json(payload, os.path.join(out_dir, fname))
            entries.append(fname)
        manifest = {
            "kind": "koornwinder",
            "n": cfg.n,
            "degree_bound": bound,
            "entries": entries,
            "params_fingerprint": p.fingerprint(),
        }
        _write_json(manifest, os.path.join(out_dir, "manifest.json"))
        print(f"wrote {len(entries)} files to {out_dir}", file=sys.stderr)
        return 0
    check_dim_cap(cfg.n)
    p = _resolve_params(cfg)
    spectra = {
        form: sorted(np.linalg.eigvals(hamiltonian(p, form=form)),
                     key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        for form in ("transfer", "pauli", "tl")
    }
    gap = max(
        abs(complex(x) - complex(y))
        for va, vb in itertools.combinations(spectra.values(), 2)
        for x, y in zip(va, vb)
    )
    payload = {
        "kind": "hamiltonian_spectrum",
        "n": p.n,
        "forms": {form: [{"re": v.real, "im": v.imag} for v in vals]
                  for form, vals in spectra.items()},
        "max_pairwise_gap": gap,
        "agree": bool(gap < 1e-7),
        "params_fingerprint": p.fingerprint(),
    }
    _write_json(payload, cfg.out)
    return 0


def _write_json(payload, out):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(parser):
    parser.add_argument("--n", type=int, default=None, help="chain length / rank")
    parser.add_argument("--seed", type=int, default=None, help="deterministic sampling seed")
    parser.add_argument(
        "--precision", choices=("double", "extended"), default=None,
        help="extended adds high-precision cross-checks where supported",
    )
    parser.add_argument("--tolerance", type=float, default=None, help="pass threshold")
    parser.add_argument("--samples", type=int, default=None, help="random sample count")
    parser.add_argument("--params", default=None, help="JSON config or parameter file")
    parser.add_argument(
        "--m", type=int, default=None,
        help="translation degree; degree bound for emitted polynomial tables",
    )
    parser.add_argument(
        "--lambda", dest="lam", default=None,
        help="polynomial label, comma-separated integers",
    )
    parser.add_argument("--out", default=None, help="output file (or directory for tables)")
    parser.add_argument("--report", default=None, help="write the check report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckespin",
        description="verification suites and artifacts for the two-boundary spin chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=(*_SUITE_FNS, "all"))
    _add_common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_koorn = sub.add_parser("koornwinder", help="polynomial computations")
    koorn_sub = p_koorn.add_subparsers(dest="subcommand", required=True)
    p_kc = koorn_sub.add_parser("compute", help="compute one labeled polynomial")
    _add_common(p_kc)
    p_kc.set_defaults(fn=cmd_koornwinder_compute)

    p_qkz = sub.add_parser("qkz", help="difference-equation solutions")
    qkz_sub = p_qkz.add_subparsers(dest="subcommand", required=True)
    p_qb = qkz_sub.add_parser("build", help="build a polynomial solution")
    _add_common(p_qb)
    p_qb.set_defaults(fn=cmd_qkz_build)
    p_qv = qkz_sub.add_parser("verify", help="verify a stored solution")
    p_qv.add_argument("--in", dest="infile", required=True, help="solution JSON file")
    _add_common(p_qv)
    p_qv.set_defaults(fn=cmd_qkz_verify)

    p_emit = sub.add_parser("emit", help="emit JSON artifacts")
    emit_sub = p_emit.add_subparsers(dest="subcommand", required=True)
    p_tables = emit_sub.add_parser("tables", help="write polynomial or spectrum tables")
    p_tables.add_argument(
        "--kind", choices=("koornwinder", "hamiltonian_spectrum"), required=True,
    )
    _add_common(p_tables)
    p_tables.set_defaults(fn=cmd_emit_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (RefusalError, GenericityError, PoleProximityError, ValueError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        cond = getattr(exc, "report", None)
        if cond is not None:
            print(
                json.dumps({"refusal": cond.to_dict()}, sort_keys=True, indent=2),
                file=sys.stderr,
            )
        return 2
    except InternalDefectError as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
