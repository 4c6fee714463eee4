"""Output checks: a job fails when any check here returns a reason.

Edges are compared with the stored references (``reference_edges.json``)
at 1e-9 relative to max(1, |lambda|), plus the roundoff floor of a dense
Hermitian eigensolve, 8 eps ||A||, taken at the reference truncation, which
bounds the job's own truncation too.  The floor matters only for the lowest
edges at n_max = 48..128: there, doubling the truncation alone moves an edge
by up to 1.7e-8 (measured), because eigvalsh roundoff grows with the matrix
norm ~ (2 pi n_trunc)^2.  Gap lengths and the summability partial sums that
``gaps`` and ``verify`` report are checked with the same edge tolerance
carried through their formulas.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

EDGE_RTOL = 1e-9
MAX_CROSS_DISCREPANCY = 1e-8
_EPS = 2.0**-52

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_edges.json")


def load_references() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as f:
        return json.load(f)


def _ref_edges(ref: dict, n_max: int) -> tuple[list[float], list[float]]:
    """Reference edges lambda0, l1-, l1+, ... up to n_max and their tolerances."""
    if n_max > ref["n_max"]:
        raise ValueError(f"reference covers n <= {ref['n_max']}, job needs {n_max}")
    edges = [ref["lambda0"]] + [x for pair in ref["pairs"][:n_max] for x in pair]
    norm = (2.0 * math.pi * (ref["n_trunc"] + 1)) ** 2 + 2.0 * ref["coeff_l1"]
    floor = 8.0 * _EPS * norm
    return edges, [EDGE_RTOL * max(1.0, abs(e)) + floor for e in edges]


def _compare_edges(doc: dict, edges: list[float], tols: list[float]) -> str | None:
    got = [doc["lambda0"]] + [x for p in doc["pairs"] for x in (p["lambda_minus"], p["lambda_plus"])]
    if len(got) != len(edges):
        return f"{doc['method']}: {len(got)} edges, expected {len(edges)}"
    for i, (g, e, t) in enumerate(zip(got, edges, tols)):
        if not abs(g - e) <= t:
            return f"{doc['method']}: edge {i} = {g!r} differs from reference {e!r} by more than {t:.3g}"
    return None


def _gap_refs(edges: list[float], tols: list[float]) -> tuple[list[float], list[float]]:
    gammas = [edges[2 * n] - edges[2 * n - 1] for n in range(1, (len(edges) + 1) // 2)]
    gtols = [tols[2 * n] + tols[2 * n - 1] for n in range(1, (len(edges) + 1) // 2)]
    return gammas, gtols


def check_document(job: dict, doc: dict, ref: dict) -> str | None:
    """Reason the parsed output of ``job`` is wrong, or None when it is correct."""
    edges, tols = _ref_edges(ref, job["n_max"])
    if job["command"] == "spectrum":
        if not doc["max_rel_discrepancy"] <= MAX_CROSS_DISCREPANCY:
            return f"cross-method discrepancy {doc['max_rel_discrepancy']!r} above {MAX_CROSS_DISCREPANCY:g}"
        return _compare_edges(doc["galerkin"], edges, tols) or _compare_edges(doc["discriminant"], edges, tols)

    gammas, gtols = _gap_refs(edges, tols)
    if job["command"] == "gaps":
        rows = doc["gaps"]["rows"]
        if len(rows) != len(gammas):
            return f"{len(rows)} gap rows, expected {len(gammas)}"
        for row, g, t in zip(rows, gammas, gtols):
            if not abs(row["gamma"] - g) <= t:
                return f"gamma({row['n']}) = {row['gamma']!r} differs from reference {g!r} by more than {t:.3g}"
        return None

    if doc.get("all_passed") is not True:
        failed = [c["name"] for c in doc.get("checks", []) if not c.get("passed")]
        return f"verify all_passed is not true (failed: {failed})"
    # default --mo-s 1 over the default range 1..n_max: partial sums of (1+2n)^2 gamma(n)^2
    mo = doc["reports"]["marchenko_ostrovskii"]
    if mo["s"] != 1 or mo["m"] != list(range(1, len(gammas) + 1)):
        return "summability report does not cover s = 1 over 1..n_max"
    acc = bound = 0.0
    for n, (g, t, got) in enumerate(zip(gammas, gtols, mo["gap_partial"]), start=1):
        w = (1.0 + 2.0 * n) ** 2
        acc += w * g * g
        bound += w * (2.0 * abs(g) * t + t * t)
        if not abs(got - acc) <= bound + 1e-12 * acc:
            return f"gap_partial({n}) = {got!r} differs from reference {acc!r} by more than {bound:.3g}"
    return None


def judge(job: dict, rc: int, out: bytes, stdout: str, first_digest: str | None, ref: dict):
    """Return (digest, reason) for one execution; reason is None on success.

    A job fails when it exits non-zero, when its output (file plus stdout)
    hashes differently from the first execution of the same job in this
    run, or when its content fails :func:`check_document`.
    """
    digest = hashlib.sha256(out + stdout.encode("utf-8")).hexdigest()
    if rc != 0:
        return digest, f"exit code {rc}"
    if first_digest is not None and digest != first_digest:
        return digest, "output digest changed between repeats"
    try:
        doc = json.loads(out)
        return digest, check_document(job, doc, ref)
    except (ValueError, KeyError, TypeError) as exc:
        return digest, f"malformed output: {exc!r}"
