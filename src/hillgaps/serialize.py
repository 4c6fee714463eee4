"""Deterministic CSV and JSON emission for the command-line reports.

CSV floats carry 17 significant digits so values round-trip exactly;
output contains no timestamps or environment data, making byte-identical
reruns the norm rather than the exception.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .errors import NumericalError
from .gaps import GapReport, TailTable
from .spectrum import BandEdges, CrossValidation

JSON_SCHEMA = "hill-gaps/1"


def fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def edges_rows(edges: BandEdges) -> list[list]:
    rows = [[0, BandEdges.parity(0), edges.lambda0, edges.lambda0, 0.0, edges.method, edges.resolution]]
    for n, (lo, hi) in enumerate(edges.pairs, start=1):
        rows.append([n, BandEdges.parity(n), lo, hi, hi - lo, edges.method, edges.resolution])
    return rows


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


EDGE_HEADER = ["n", "parity", "lambda_minus", "lambda_plus", "gap", "method", "n_trunc_or_steps"]


def edges_to_csv(edges: BandEdges) -> str:
    return to_csv(EDGE_HEADER, edges_rows(edges))


GAP_HEADER = ["n", "gamma", "two_qhat", "rho_re", "rho_im", "resid_plain", "resid_corrected"]


def gap_report_to_csv(report: GapReport) -> str:
    return to_csv(
        GAP_HEADER,
        (
            [
                int(n),
                float(report.gamma[i]),
                float(report.two_qhat[i]),
                float(report.rho[i].real),
                float(report.rho[i].imag),
                float(report.resid_plain[i]),
                float(report.resid_corrected[i]),
            ]
            for i, n in enumerate(report.n)
        ),
    )


def tail_to_csv(table: TailTable) -> str:
    return to_csv(
        ["m", "partial_sum", "increment"],
        ([int(m), float(table.partial_sum[i]), float(table.increment[i])] for i, m in enumerate(table.m)),
    )


def edges_to_doc(edges: BandEdges) -> dict:
    return {
        "method": edges.method,
        "resolution": edges.resolution,
        "lambda0": edges.lambda0,
        "pairs": [
            {
                "n": n,
                "parity": BandEdges.parity(n),
                "lambda_minus": lo,
                "lambda_plus": hi,
                "gap": hi - lo,
                "collapsed": bool(edges.collapsed[n - 1]) if edges.collapsed else False,
            }
            for n, (lo, hi) in enumerate(edges.pairs, start=1)
        ],
    }


def gap_report_to_doc(report: GapReport) -> dict:
    return {
        "method": report.method,
        "rows": [
            {
                "n": int(n),
                "gamma": float(report.gamma[i]),
                "two_qhat": float(report.two_qhat[i]),
                "rho_re": float(report.rho[i].real),
                "rho_im": float(report.rho[i].imag),
                "resid_plain": float(report.resid_plain[i]),
                "resid_corrected": float(report.resid_corrected[i]),
                "clamped": bool(report.clamped[i]),
            }
            for i, n in enumerate(report.n)
        ],
    }


def cross_to_doc(cv: CrossValidation) -> dict:
    return {
        "max_rel_discrepancy": cv.max_rel_discrepancy,
        "galerkin": edges_to_doc(cv.galerkin),
        "discriminant": edges_to_doc(cv.discriminant),
    }


def dump_json(doc: dict) -> str:
    """Strict JSON: a non-finite value is a numerical failure, never a bare NaN or Infinity."""
    wrapped = {"schema": JSON_SCHEMA}
    wrapped.update(doc)
    try:
        return json.dumps(wrapped, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"non-finite value in the JSON report: {exc}") from exc
