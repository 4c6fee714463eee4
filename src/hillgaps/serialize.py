"""The output layer: every JSON key and CSV column of the command-line reports.

The command-line front end computes the library's records and hands them
here; this module alone turns them into documents and tables.  CSV and
JSON share one cell list per record (an edge row, a gap row, a tail row),
so the two formats of one record cannot drift apart.  CSV floats carry 17
significant digits so values round-trip exactly; output contains no
timestamps or environment data, making byte-identical reruns the norm
rather than the exception.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .errors import InputError, NumericalError
from .gaps import GapReport, MembershipReport, SlopeFit, SummabilityReport, TailTable
from .sequence_spaces import ConvLemmaReport, OrClassReport, SandwichReport
from .spectrum import BandEdges, CrossValidation

JSON_SCHEMA = "hill-gaps/1"

EDGE_HEADER = ["n", "parity", "lambda_minus", "lambda_plus", "gap", "method", "n_trunc_or_steps"]
GAP_HEADER = ["n", "gamma", "two_qhat", "rho_re", "rho_im", "resid_plain", "resid_corrected"]
TAIL_HEADER = ["m", "partial_sum", "increment"]


def fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def to_csv(header: list[str], rows) -> str:
    """One CSV table: the header, then each row with its cells through fmt.

    As in :func:`dump_json`, a non-finite float cell is a numerical failure.
    """
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(header)
    for row in rows:
        bad = [x for x in row if isinstance(x, float) and not math.isfinite(x)]
        if bad:
            raise NumericalError(f"non-finite value in the CSV report: {bad[0]!r} in row {row!r}")
        wr.writerow([fmt(x) for x in row])
    return buf.getvalue()


def dump_json(doc: dict) -> str:
    """Strict JSON: a non-finite value is a numerical failure, never a bare NaN or Infinity."""
    wrapped = {"schema": JSON_SCHEMA}
    wrapped.update(doc)
    try:
        return json.dumps(wrapped, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"non-finite value in the JSON report: {exc}") from exc


def _fields(record, names: tuple[str, ...]) -> dict:
    """The named fields of a report record, under their own names."""
    return {name: getattr(record, name) for name in names}


def _edge_cells(n: int, lo: float, hi: float) -> list:
    """The cells n, parity, lambda_minus, lambda_plus, gap of one edge pair."""
    return [n, BandEdges.parity(n), lo, hi, hi - lo]


def _edge_rows(edges: BandEdges) -> list[list]:
    pairs = [(edges.lambda0, edges.lambda0), *edges.pairs]
    return [_edge_cells(n, lo, hi) + [edges.method, edges.resolution] for n, (lo, hi) in enumerate(pairs)]


def edges_to_csv(edges: BandEdges) -> str:
    return to_csv(EDGE_HEADER, _edge_rows(edges))


def cross_to_csv(cv: CrossValidation) -> str:
    """The rows of both routes in one table, Galerkin first."""
    return to_csv(EDGE_HEADER, _edge_rows(cv.galerkin) + _edge_rows(cv.discriminant))


def edges_to_doc(edges: BandEdges) -> dict:
    return {
        "method": edges.method,
        "resolution": edges.resolution,
        "lambda0": edges.lambda0,
        "pairs": [
            dict(zip(EDGE_HEADER, _edge_cells(n, lo, hi)), collapsed=bool(collapsed))
            for n, ((lo, hi), collapsed) in enumerate(zip(edges.pairs, edges.collapsed), start=1)
        ],
    }


def cross_to_doc(cv: CrossValidation) -> dict:
    return {
        "max_rel_discrepancy": cv.max_rel_discrepancy,
        "galerkin": edges_to_doc(cv.galerkin),
        "discriminant": edges_to_doc(cv.discriminant),
    }


def _gap_cells(report: GapReport, i: int) -> list:
    """The GAP_HEADER cells of index report.n[i]."""
    return [
        int(report.n[i]),
        float(report.gamma[i]),
        float(report.two_qhat[i]),
        float(report.rho[i].real),
        float(report.rho[i].imag),
        float(report.resid_plain[i]),
        float(report.resid_corrected[i]),
    ]


def gap_report_to_csv(report: GapReport) -> str:
    return to_csv(GAP_HEADER, (_gap_cells(report, i) for i in range(report.n.size)))


def gap_report_to_doc(report: GapReport) -> dict:
    return {
        "method": report.method,
        "rows": [dict(zip(GAP_HEADER, _gap_cells(report, i))) for i in range(report.n.size)],
    }


def _tail_rows(table: TailTable) -> list[list]:
    return [[int(m), float(s), float(d)] for m, s, d in zip(table.m, table.partial_sum, table.increment)]


def tail_to_csv(table: TailTable) -> str:
    return to_csv(TAIL_HEADER, _tail_rows(table))


def _slope_to_doc(fit: SlopeFit | InputError, n_range: tuple[int, int]) -> dict:
    if isinstance(fit, InputError):
        return {"error": str(fit)}
    doc = _fields(fit, ("slope", "rms_residual", "used_points", "zero_count"))
    return {**doc, "n_lo": n_range[0], "n_hi": n_range[1]}


def gaps_summary(
    report: GapReport, n_range: tuple[int, int], gamma_fit: SlopeFit | InputError, resid_fit: SlopeFit | InputError
) -> dict:
    """Fit range, decay slopes of gamma and |resid_plain| (or why a fit was refused), and rho(1).

    The JSON gaps document carries it inline; a CSV run writes it as the
    ``.summary.json`` sibling (or after the table on stdout).
    """
    return {
        "fit_range": {"lo": n_range[0], "hi": n_range[1]},
        "slopes": {"gamma": _slope_to_doc(gamma_fit, n_range), "resid_plain": _slope_to_doc(resid_fit, n_range)},
        "rho_summary": {"rho_1_re": float(report.rho[0].real), "rho_1_im": float(report.rho[0].imag)},
    }


def gaps_to_doc(report: GapReport, summary: dict, tails: dict[str, TailTable]) -> dict:
    """The JSON gaps document: rows, the summary, and one column table per weight name."""
    columns = {}
    for name, table in tails.items():
        rows = _tail_rows(table)
        columns[name] = {key: [row[j] for row in rows] for j, key in enumerate(TAIL_HEADER)}
    return {"gaps": gap_report_to_doc(report), **summary, "tails": columns}


# detail blocks of the verify checks, which are (name, passed, detail) triples
def rho_routes_detail(max_abs_diff: float) -> dict:
    return {"max_abs_diff": max_abs_diff}


def membership_detail(blocks: list[tuple[str, MembershipReport]]) -> dict:
    return {
        "blocks": [
            {
                "weight": name,
                **_fields(m, ("gamma_norm", "two_qhat_norm", "resid_plain_norm")),
                "ratio": m.ratio if math.isfinite(m.ratio) else None,
                **_fields(m, ("triangle_ok", "triangle_slack")),
            }
            for name, m in blocks
        ]
    }


def _sandwich_to_doc(name: str, s: float, k_max: int, r: SandwichReport | None) -> dict:
    if r is None:
        reason = f"needs k_max >= 2, the weight ends at {k_max}"
        return {"weight": name, "s": s, "passed": None, "not_applicable": reason}
    return {"weight": name, "s": s, **_fields(r, ("c_low", "c_high", "lower_slope", "upper_slope", "passed"))}


def verify_to_doc(
    checks: list[tuple[str, bool, dict]],
    bounded: ConvLemmaReport,
    sandwich_s: float,
    sandwich: list[tuple[str, int, SandwichReport | None]],
    or_class: list[tuple[str, OrClassReport]],
    mo: SummabilityReport,
) -> dict:
    """The verify document: the asserted checks, then the report-only blocks.

    A sandwich entry without a report (a weight that ends before k = 2, where
    the check does not apply) is written as not applicable at its k_max.
    """
    return {
        "checks": [{"name": name, "passed": bool(passed), **detail} for name, passed, detail in checks],
        "reports": {
            "conv_bounded_regime": {
                "regime": bounded.regime,
                "samples": [_fields(sample, ("size", "max_ratio", "mean_ratio")) for sample in bounded.samples],
                "trend_ok": bounded.trend_ok,
            },
            "sandwich": [_sandwich_to_doc(name, sandwich_s, k_max, r) for name, k_max, r in sandwich],
            "or_class": [
                {"weight": name, **_fields(r, ("a", "c", "passed", "worst_ratio", "worst_t", "worst_lambda"))}
                for name, r in or_class
            ],
            "marchenko_ostrovskii": {
                "s": mo.s,
                "m": [int(x) for x in mo.m],
                "gap_partial": [float(x) for x in mo.gap_partial],
                "coeff_partial": [float(x) for x in mo.coeff_partial],
            },
        },
        "all_passed": all(passed for _, passed, _ in checks),
    }


def converge_trunc_rows(levels: list[int], changes: list[float]) -> list[dict]:
    """One row per truncation level, with the largest edge change from the level before."""
    return [{"level": levels[0]}] + [{"level": n, "max_abs_change": c} for n, c in zip(levels[1:], changes)]


def converge_steps_rows(levels: list[int], deltas: list[float], changes: list[float], orders: list[float]) -> list:
    """One row per step count with its trace and change, then the estimated orders when there are any."""
    rows = [{"level": levels[0], "delta": deltas[0]}]
    rows += [{"level": s, "delta": d, "abs_change": c} for s, d, c in zip(levels[1:], deltas[1:], changes)]
    if orders:
        rows.append({"estimated_order": orders})
    return rows


def converge_to_doc(target: str, rows: list[dict]) -> dict:
    return {"target": target, "rows": rows}


def converge_to_csv(rows: list[dict]) -> str:
    """The rows as one table over the sorted union of their keys; a missing cell is empty.

    The estimated orders, one list in the JSON form, take one row each.
    """
    flat = []
    for r in rows:
        flat += [{"estimated_order": o} for o in r["estimated_order"]] if "estimated_order" in r else [r]
    keys = sorted({k for r in flat for k in r})
    return to_csv(keys, [[r.get(k, "") for k in keys] for r in flat])
