"""Command-line front end: spectrum, gaps, verify, converge.

Each subcommand parses its own options, calls the library, and writes
what :mod:`hillgaps.serialize` renders; no JSON key or CSV column is named
here.  Outputs are deterministic: identical inputs (and, for ``verify``,
seed) produce byte-identical files.  Exit codes: 0 success, 1
asserted-invariant failure, 2 input error, 3 numerical-method failure.
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
    rho_routes_allowance,
    rho_via_convolution,
    verify_marchenko_ostrovskii,
    verify_membership_consistency,
    weighted_tail_report,
)
from .potential import Potential, hormander_norm, load_potential
from .sequence_spaces import (
    check_or_class,
    check_sandwich,
    conv_lemma_report,
    make_weight,
    power_weight,
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
    weights = [make_weight(s) for s in specs]
    named = {}
    for w in weights:
        if named.setdefault(w.describe(), w) != w:
            raise InputError(f"two different weights are both named {w.describe()}")
    return weights


def _edges_for(q: Potential, args, method: str) -> BandEdges:
    # both configurations are built, so a bad --trunc or --steps is refused whichever route runs
    gcfg = GalerkinConfig(n_trunc=args.trunc)
    dcfg = DiscriminantConfig(steps=args.steps) if args.steps is not None else None
    if method == "galerkin":
        return band_edges_galerkin(q, args.nmax, gcfg)
    return band_edges_discriminant(q, args.nmax, dcfg)


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
    if args.method != "both":
        edges = _edges_for(q, args, args.method)
        if args.format == "json":
            _emit(serialize.dump_json(serialize.edges_to_doc(edges)), args.out)
        else:
            _emit(serialize.edges_to_csv(edges), args.out)
        return EXIT_OK
    cv = CrossValidation(_edges_for(q, args, "galerkin"), _edges_for(q, args, "discriminant"))
    if args.format == "json":
        _emit(serialize.dump_json(serialize.cross_to_doc(cv)), args.out)
    elif args.out:
        # both tables are rendered before either is written
        tables = [(edges.method, serialize.edges_to_csv(edges)) for edges in (cv.galerkin, cv.discriminant)]
        for method, text in tables:
            _write(_sibling(args.out, f".{method}.csv"), text)
    else:
        sys.stdout.write(serialize.cross_to_csv(cv))
    print(f"max relative edge discrepancy: {serialize.fmt(cv.max_rel_discrepancy)}", file=sys.stderr)
    return EXIT_OK


def _fit_or_refusal(col: np.ndarray, lo: int, hi: int):
    """The decay fit of ``col`` over [lo, hi], or the InputError that refused it."""
    try:
        return decay_slope(col, lo, hi)
    except InputError as exc:
        return exc


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
    summary = serialize.gaps_summary(
        report, n_range, _fit_or_refusal(report.gamma, lo, hi), _fit_or_refusal(np.abs(report.resid_plain), lo, hi)
    )
    tails = {w.describe(): weighted_tail_report(np.abs(report.resid_plain), w, n_range) for w in weights}

    if args.format == "json":
        _emit(serialize.dump_json(serialize.gaps_to_doc(report, summary, tails)), args.out)
        return EXIT_OK
    # every artifact is rendered before any is written: a failing run leaves no partial output
    table = serialize.gap_report_to_csv(report)
    summary_text = serialize.dump_json(summary)
    if args.out:
        tail_csvs = [serialize.tail_to_csv(t) for t in tails.values()]
        _write(args.out, table)
        _write(_sibling(args.out, ".summary.json"), summary_text)
        for i, text in enumerate(tail_csvs):
            _write(_sibling(args.out, f".tail{i}.csv"), text)
    else:
        sys.stdout.write(table + summary_text)
    return EXIT_OK


def _verify_battery(q: Potential, weights, args) -> tuple[list[tuple[str, bool, dict]], dict]:
    """Run the two asserted checks and the report-only blocks; returns the checks and the document.

    Each asserted check reads q and can fail on it (see ``rho_routes_allowance`` and
    ``verify_membership_consistency``); ``--seed`` seeds only the bounded-regime report.
    """
    # first, so a truncation past its bound exits 2 before any sequence is built
    edges = _edges_for(q, args, args.method)
    # a finite h^1 norm keeps every product and sum of the rho routes finite
    norm = hormander_norm(q, power_weight(1.0))
    if not math.isfinite(norm):
        raise NumericalError(f"coefficient norm overflows: h^1 norm {norm!r}")
    checks = []

    # two-route equality of the correction
    q0 = q.without_mean()
    kmax_rho = max(1, min(2 * q.cutoff + 2, args.nmax))
    diff = np.abs(rho(q0, np.arange(1, kmax_rho + 1)) - rho_via_convolution(q0, kmax_rho))
    rho_ok = bool(np.all(diff <= rho_routes_allowance(q0, kmax_rho)))
    checks.append(("rho_two_route_equality", rho_ok, serialize.rho_routes_detail(max([0.0] + diff.tolist()))))

    # spectrum, residuals, triangle inequality
    report = residuals(q, edges)
    n_range = _parse_range(args.range) if args.range else (1, args.nmax)
    membership = [(w.describe(), verify_membership_consistency(w, report, n_range)) for w in weights]
    tri_ok = all(m.triangle_ok for _, m in membership)
    checks.append(("membership_triangle_inequality", tri_ok, serialize.membership_detail(membership)))

    # report-only blocks
    bounded_rep = conv_lemma_report(1.0, 1.0, 1.0, sizes=(8, 16), pairs_per_size=20, seed=args.seed)
    sandwich = []
    for w in weights:
        k_max = int(min(2000, w.max_index))
        sandwich.append((w.describe(), k_max, check_sandwich(w, args.sandwich_s, k_max)))
    orc = [(w.describe(), check_or_class(w, args.or_a, args.or_c, args.or_tmax)) for w in weights]
    mo = verify_marchenko_ostrovskii(q, args.mo_s, report, n_range)
    return checks, serialize.verify_to_doc(checks, bounded_rep, args.sandwich_s, sandwich, orc, mo)


def cmd_verify(args) -> int:
    q = load_potential(args.potential)
    weights = _weights_from_args(args)
    checks, doc = _verify_battery(q, weights, args)
    _emit(serialize.dump_json(doc), args.out)
    for name, passed, _ in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}", file=sys.stderr)
    return EXIT_OK if all(passed for _, passed, _ in checks) else EXIT_INVARIANT


def cmd_converge(args) -> int:
    q = load_potential(args.potential)
    levels = _parse_levels(args.sweep)
    if args.target == "trunc":
        per_level = [band_edges_galerkin(q, args.nmax, GalerkinConfig(n_trunc=n)).all_edges() for n in levels]
        changes = [float(np.max(np.abs(b - a))) for a, b in zip(per_level, per_level[1:])]
        rows = serialize.converge_trunc_rows(levels, changes)
    else:
        deltas = [discriminant(q, args.lam, DiscriminantConfig(steps=s)) for s in levels]
        changes = [abs(b - a) for a, b in zip(deltas, deltas[1:])]
        orders = [float(np.log2(a / b)) for a, b in zip(changes, changes[1:]) if a > 0 and b > 0]
        rows = serialize.converge_steps_rows(levels, deltas, changes, orders)
    if args.format == "json":
        _emit(serialize.dump_json(serialize.converge_to_doc(args.target, rows)), args.out)
    else:
        _emit(serialize.converge_to_csv(rows), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hillgaps",
        description="Band edges and spectral gap reports for 1-periodic potentials",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--potential", required=True, help="potential JSON file")
        p.add_argument("--nmax", type=int, default=8)
        return p

    def solver(p, methods: list[str]) -> None:
        p.add_argument("--method", choices=methods, default="galerkin")
        p.add_argument("--trunc", type=int, default=None, help="Galerkin truncation override")
        p.add_argument("--steps", type=int, default=None, help="integrator steps per period")

    def output(p, formats: bool = True) -> None:
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")
        if formats:
            p.add_argument("--format", choices=["csv", "json"], default="csv")

    def weights(p, range_help: str) -> None:
        p.add_argument("--weight", action="append", help="weight JSON file (repeatable)")
        p.add_argument("--range", default=None, help=range_help)

    sp = command("spectrum", cmd_spectrum, "band edge table")
    solver(sp, ["galerkin", "discriminant", "both"])
    output(sp)

    gp = command("gaps", cmd_gaps, "gap lengths, corrections, residual report")
    solver(gp, ["galerkin", "discriminant"])
    output(gp)
    weights(gp, "fit range LO:HI")

    vp = command("verify", cmd_verify, "run invariant checks and asymptotic reports (JSON)")
    solver(vp, ["galerkin", "discriminant"])
    output(vp, formats=False)
    vp.add_argument("--seed", type=int, default=0)
    weights(vp, "report range LO:HI")
    vp.add_argument("--sandwich-s", type=float, default=1.0)
    vp.add_argument("--or-a", type=float, default=2.0)
    vp.add_argument("--or-c", type=float, default=16.0)
    vp.add_argument("--or-tmax", type=float, default=1000.0)
    vp.add_argument("--mo-s", type=int, default=1)

    cp = command("converge", cmd_converge, "truncation or step-count sweep")
    cp.add_argument("--sweep", required=True, help="comma-separated levels, e.g. 32,64,128")
    cp.add_argument("--target", choices=["trunc", "steps"], default="trunc")
    cp.add_argument("--lam", type=float, default=10.0, help="spectral point for steps sweeps")
    output(cp)

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
