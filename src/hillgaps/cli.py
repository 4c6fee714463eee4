"""Command-line front end: spectrum, gaps, verify, converge.

Outputs are deterministic: identical inputs and seed produce byte-identical
files.  Exit codes: 0 success, 1 asserted-invariant failure, 2 input
error, 3 numerical-method failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .errors import InputError, NumericalError
from .gaps import (
    decay_slope,
    default_fit_start,
    residuals,
    rho,
    rho_via_convolution,
    verify_marchenko_ostrovskii,
    verify_membership_consistency,
    weighted_tail_report,
)
from .potential import Potential, hormander_norm, load_potential
from .sequence_spaces import (
    ConvTrials,
    TwoSidedSeq,
    check_or_class,
    check_sandwich,
    conv_lemma_report,
    convolve,
    make_weight,
    power_weight,
    weighted_norm,
)
from .spectrum import (
    BandEdges,
    CrossValidation,
    DiscriminantConfig,
    GalerkinConfig,
    band_edges_discriminant,
    band_edges_galerkin,
    discriminant,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"bad range {text!r}, expected LO:HI") from exc


def _parse_levels(text: str) -> list[int]:
    try:
        levels = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad sweep {text!r}, expected comma-separated integers") from exc
    if len(levels) < 2:
        raise InputError("sweep needs at least two levels")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise InputError(f"sweep levels must increase, got {text!r}")
    return levels


def _load_weight_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        raise InputError(f"cannot read weight file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _weights_from_args(args) -> list:
    specs = [_load_weight_file(p) for p in (args.weight or [])]
    if not specs:
        specs = [{"kind": "power", "s": 1.0}]
    return [make_weight(s) for s in specs]


def _configs(args) -> tuple[GalerkinConfig, DiscriminantConfig]:
    g = GalerkinConfig(n_trunc=args.trunc)
    d = DiscriminantConfig(steps=args.steps) if args.steps is not None else DiscriminantConfig()
    return g, d


def _edges_for(q: Potential, args, method: str) -> BandEdges:
    gcfg, dcfg = _configs(args)
    if method == "galerkin":
        return band_edges_galerkin(q, args.nmax, gcfg)
    if method == "discriminant":
        return band_edges_discriminant(q, args.nmax, dcfg)
    raise InputError(f"method {method!r} is only available for the spectrum command")


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write output {path}: {exc.strerror or exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _sibling(out: str, suffix: str) -> Path:
    p = Path(out)
    return p.with_name(p.stem + suffix)


def cmd_spectrum(args) -> int:
    q = load_potential(args.potential)
    if args.method == "both":
        cv = CrossValidation(_edges_for(q, args, "galerkin"), _edges_for(q, args, "discriminant"))
        if args.format == "json":
            _emit(serialize.dump_json(serialize.cross_to_doc(cv)), args.out)
        elif args.out:
            tables = [(edges.method, serialize.edges_to_csv(edges)) for edges in (cv.galerkin, cv.discriminant)]
            for method, text in tables:
                _write(_sibling(args.out, f".{method}.csv"), text)
        else:
            rows = serialize.edges_rows(cv.galerkin) + serialize.edges_rows(cv.discriminant)
            sys.stdout.write(serialize.to_csv(serialize.EDGE_HEADER, rows))
        print(f"max relative edge discrepancy: {serialize.fmt(cv.max_rel_discrepancy)}", file=sys.stderr)
        return EXIT_OK
    edges = _edges_for(q, args, args.method)
    if args.format == "json":
        _emit(serialize.dump_json(serialize.edges_to_doc(edges)), args.out)
    else:
        _emit(serialize.edges_to_csv(edges), args.out)
    return EXIT_OK


def cmd_gaps(args) -> int:
    q = load_potential(args.potential)
    weights = _weights_from_args(args)
    edges = _edges_for(q, args, args.method)
    report = residuals(q, edges)
    n_range = _parse_range(args.range) if args.range else (
        min(default_fit_start(q), max(1, args.nmax - 4)),
        args.nmax,
    )
    lo, hi = n_range

    slopes = {}
    for label, col in (("gamma", report.gamma), ("resid_plain", np.abs(report.resid_plain))):
        try:
            fit = decay_slope(col, lo, hi)
            slopes[label] = {
                "slope": fit.slope,
                "rms_residual": fit.rms_residual,
                "used_points": fit.used_points,
                "zero_count": fit.zero_count,
                "n_lo": lo,
                "n_hi": hi,
            }
        except InputError as exc:
            slopes[label] = {"error": str(exc)}

    tails = {}
    for w in weights:
        tails[w.describe()] = weighted_tail_report(np.abs(report.resid_plain), w, n_range)

    rho_summary = {
        "rho_1_re": float(report.rho[0].real),
        "rho_1_im": float(report.rho[0].imag),
    }

    if args.format == "json":
        doc = {
            "gaps": serialize.gap_report_to_doc(report),
            "fit_range": {"lo": lo, "hi": hi},
            "slopes": slopes,
            "rho_summary": rho_summary,
            "tails": {
                name: {
                    "m": [int(m) for m in t.m],
                    "partial_sum": [float(x) for x in t.partial_sum],
                    "increment": [float(x) for x in t.increment],
                }
                for name, t in tails.items()
            },
        }
        _emit(serialize.dump_json(doc), args.out)
    else:
        # every artifact is rendered before any is written: a failing run leaves no partial output
        table = serialize.gap_report_to_csv(report)
        summary = serialize.dump_json({"fit_range": {"lo": lo, "hi": hi}, "slopes": slopes, "rho_summary": rho_summary})
        if args.out:
            tail_csvs = [serialize.tail_to_csv(t) for t in tails.values()]
            _write(args.out, table)
            _write(_sibling(args.out, ".summary.json"), summary)
            for i, text in enumerate(tail_csvs):
                _write(_sibling(args.out, f".tail{i}.csv"), text)
        else:
            sys.stdout.write(table + summary)
    return EXIT_OK


def _verify_battery(q: Potential, weights, args) -> tuple[dict, bool]:
    """Run the asserted invariants and the report-only blocks; returns (doc, ok)."""
    # first, so a truncation past its bound exits 2 before any sequence is built
    edges = _edges_for(q, args, args.method)
    checks = []
    ok = True

    def record(name: str, passed: bool, detail: dict):
        nonlocal ok
        checks.append({"name": name, "passed": bool(passed), **detail})
        ok = ok and bool(passed)

    # weight extension: value 1 at the origin, symmetric, positive
    ext_ok = True
    k_checked = 2000
    for w in weights:
        kmax = int(min(2000, w.max_index))
        k_checked = min(k_checked, kmax)
        vals = np.asarray(w(np.arange(0, kmax + 1)))
        neg = np.asarray(w(-np.arange(0, kmax + 1)))
        ext_ok = ext_ok and vals[0] == 1.0 and np.all(vals > 0) and np.array_equal(vals, neg)
    record("weight_extension", ext_ok, {"k_checked": k_checked})

    # convolution identity and commutativity on a small deterministic pair
    rng = np.random.default_rng(args.seed)
    a, b = (TwoSidedSeq(rng.standard_normal(m) + 1j * rng.standard_normal(m)) for m in (13, 9))
    ident = np.array_equal(convolve(TwoSidedSeq.delta(0), a).coef, a.coef)
    comm = np.array_equal(convolve(a, b).coef, convolve(b, a).coef)
    record("convolution_identity_commutativity", ident and comm, {})

    # two-route equality of the correction
    q0 = q.without_mean()
    kmax_rho = max(1, min(2 * q.cutoff + 2, args.nmax))
    conv = rho_via_convolution(q0, kmax_rho)
    worst = 0.0
    for n in range(1, kmax_rho + 1):
        worst = max(worst, float(abs(rho(q0, n) - conv[n - 1])))
    record("rho_two_route_equality", worst <= 1e-14, {"max_abs_diff": worst})

    # coefficient-norm consistency
    norms = (hormander_norm(q, power_weight(1.0)), weighted_norm(q.two_sided(), power_weight(1.0)))
    if not all(math.isfinite(x) for x in norms):
        raise NumericalError(f"coefficient norm overflows: h^1 norms {norms[0]!r} and {norms[1]!r}")
    diff = abs(norms[0] - norms[1])
    record("coefficient_norm_consistency", diff == 0.0, {"abs_diff": diff})

    # spectrum, residuals, triangle inequality
    report = residuals(q, edges)
    n_range = _parse_range(args.range) if args.range else (1, args.nmax)
    membership = []
    tri_ok = True
    for w in weights:
        m = verify_membership_consistency(q, w, report, n_range)
        tri_ok = tri_ok and m.triangle_ok
        membership.append(
            {
                "weight": w.describe(),
                "gamma_norm": m.gamma_norm,
                "two_qhat_norm": m.two_qhat_norm,
                "resid_plain_norm": m.resid_plain_norm,
                "ratio": m.ratio if np.isfinite(m.ratio) else None,
                "triangle_ok": m.triangle_ok,
                "triangle_slack": m.triangle_slack,
            }
        )
    record("membership_triangle_inequality", tri_ok, {"blocks": membership})

    # convolution boundedness: failure-regime witness must grow
    fail_rep = conv_lemma_report(0.0, 0.0, 0.0, ConvTrials(sizes=(8, 16, 32), seed=args.seed))
    growth = fail_rep.growth_factor
    record(
        "conv_failure_witness_growth",
        fail_rep.regime == "fails to hold" and growth >= 1.5,
        {"regime": fail_rep.regime, "growth_factor": growth},
    )

    # report-only blocks
    bounded_rep = conv_lemma_report(1.0, 1.0, 1.0, ConvTrials(sizes=(8, 16), pairs_per_size=20, seed=args.seed))
    sandwich = []
    for w in weights:
        entry = {"weight": w.describe(), "s": args.sandwich_s}
        k_max = int(min(2000, w.max_index))
        if k_max < 2:  # a slope needs two points: skipped, not failed
            entry.update(passed=None, not_applicable=f"needs k_max >= 2, the weight ends at {k_max}")
        else:
            r = check_sandwich(w, args.sandwich_s, k_max)
            entry.update(
                c_low=r.c_low,
                c_high=r.c_high,
                lower_slope=r.lower_slope,
                upper_slope=r.upper_slope,
                passed=r.passed,
            )
        sandwich.append(entry)
    orc = []
    for w in weights:
        r = check_or_class(w, args.or_a, args.or_c, min(args.or_tmax, w.max_index))
        orc.append(
            {
                "weight": w.describe(),
                "a": r.a,
                "c": r.c,
                "passed": r.passed,
                "worst_ratio": r.worst_ratio,
                "worst_t": r.worst_t,
                "worst_lambda": r.worst_lambda,
            }
        )
    mo = verify_marchenko_ostrovskii(q, args.mo_s, report, n_range)
    reports = {
        "conv_bounded_regime": {
            "regime": bounded_rep.regime,
            "samples": [
                {"size": s.size, "max_ratio": s.max_ratio, "mean_ratio": s.mean_ratio}
                for s in bounded_rep.samples
            ],
            "trend_ok": bounded_rep.trend_ok,
        },
        "sandwich": sandwich,
        "or_class": orc,
        "marchenko_ostrovskii": {
            "s": mo.s,
            "m": [int(x) for x in mo.m],
            "gap_partial": [float(x) for x in mo.gap_partial],
            "coeff_partial": [float(x) for x in mo.coeff_partial],
        },
    }
    doc = {"checks": checks, "reports": reports, "all_passed": ok}
    return doc, ok


def cmd_verify(args) -> int:
    q = load_potential(args.potential)
    weights = _weights_from_args(args)
    doc, ok = _verify_battery(q, weights, args)
    _emit(serialize.dump_json(doc), args.out)
    for c in doc["checks"]:
        print(f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_converge(args) -> int:
    q = load_potential(args.potential)
    levels = _parse_levels(args.sweep)
    rows = []
    if args.target == "trunc":
        per_level = []
        for n_trunc in levels:
            edges = band_edges_galerkin(q, args.nmax, GalerkinConfig(n_trunc=n_trunc))
            per_level.append(edges.all_edges())
        for i, n_trunc in enumerate(levels):
            row = {"level": n_trunc}
            if i > 0:
                row["max_abs_change"] = float(np.max(np.abs(per_level[i] - per_level[i - 1])))
            rows.append(row)
    else:
        vals = [discriminant(q, args.lam, DiscriminantConfig(steps=s)) for s in levels]
        for i, s in enumerate(levels):
            row = {"level": s, "delta": vals[i]}
            if i > 0:
                row["abs_change"] = abs(vals[i] - vals[i - 1])
            rows.append(row)
        diffs = [r.get("abs_change") for r in rows[1:]]
        orders = []
        for i in range(len(diffs) - 1):
            if diffs[i] > 0 and diffs[i + 1] > 0:
                orders.append(float(np.log2(diffs[i] / diffs[i + 1])))
        if orders:
            rows.append({"estimated_order": orders})
    doc = {"target": args.target, "rows": rows}
    if args.format == "json":
        _emit(serialize.dump_json(doc), args.out)
    else:
        keys = sorted({k for r in rows for k in r})
        _emit(serialize.to_csv(keys, [[r.get(k, "") for k in keys] for r in rows]), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hillgaps",
        description="Band edges and spectral gap reports for 1-periodic potentials",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--potential", required=True, help="potential JSON file")
        p.add_argument("--nmax", type=int, default=8)
        p.add_argument("--method", choices=["galerkin", "discriminant", "both"], default="galerkin")
        p.add_argument("--trunc", type=int, default=None, help="Galerkin truncation override")
        p.add_argument("--steps", type=int, default=None, help="integrator steps per period")
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("spectrum", help="band edge table")
    common(sp)
    sp.set_defaults(func=cmd_spectrum)

    gp = sub.add_parser("gaps", help="gap lengths, corrections, residual report")
    common(gp)
    gp.add_argument("--weight", action="append", help="weight JSON file (repeatable)")
    gp.add_argument("--range", default=None, help="fit range LO:HI")
    gp.set_defaults(func=cmd_gaps)

    vp = sub.add_parser("verify", help="run invariant checks and asymptotic reports")
    common(vp)
    vp.add_argument("--weight", action="append", help="weight JSON file (repeatable)")
    vp.add_argument("--range", default=None, help="report range LO:HI")
    vp.add_argument("--sandwich-s", type=float, default=1.0)
    vp.add_argument("--or-a", type=float, default=2.0)
    vp.add_argument("--or-c", type=float, default=16.0)
    vp.add_argument("--or-tmax", type=float, default=1000.0)
    vp.add_argument("--mo-s", type=int, default=1)
    vp.set_defaults(func=cmd_verify)
    vp.set_defaults(format="json")

    cp = sub.add_parser("converge", help="truncation or step-count sweep")
    common(cp)
    cp.add_argument("--sweep", required=True, help="comma-separated levels, e.g. 32,64,128")
    cp.add_argument("--target", choices=["trunc", "steps"], default="trunc")
    cp.add_argument("--lam", type=float, default=10.0, help="spectral point for steps sweeps")
    cp.set_defaults(func=cmd_converge)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
