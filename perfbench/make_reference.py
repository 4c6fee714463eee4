"""Regenerate ``reference_edges.json``, the edges every job output is checked against.

Each reference is the Galerkin route at twice its default truncation, which
is independent of the truncation a job runs at and, unlike the discriminant
route, affordable at n_max = 96..128.  Run from the repository root:

    python3 perfbench/make_reference.py

It prints, per potential, how far the default-truncation edges sit from the
reference; the benchmark accepts up to 1e-9 relative.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from hillgaps import GalerkinConfig, band_edges_galerkin, potential_from_dict  # noqa: E402

REFERENCE_PATH = os.path.join(HERE, "reference_edges.json")


def reference_labels() -> dict[str, int]:
    """Every potential label a workload can use, with the largest n_max it needs."""
    labels = {"mathieu(0.5)": 8, "power_decay(2,32)": 32, "power_decay(1,128)": 128, "power_decay(2,96)": 96}
    for p in range(workloads.PHASE_POOL):
        labels[f"random_hs(1,96,{p})"] = 96
        labels[f"random_hs(1,48,{p})"] = 48
    return labels


def main() -> int:
    refs = {}
    for label, n_max in reference_labels().items():
        q = potential_from_dict(workloads.potential_doc(label))
        default = GalerkinConfig().resolve(n_max, q.cutoff)
        ref = band_edges_galerkin(q, n_max, GalerkinConfig(n_trunc=2 * default))
        base = band_edges_galerkin(q, n_max)
        a, b = ref.all_edges(), base.all_edges()
        rel = float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))))
        print(f"{label}: n_trunc {2 * default}, default-truncation rel diff {rel:.3e}", flush=True)
        refs[label] = {
            "n_max": n_max,
            "n_trunc": 2 * default,
            "coeff_l1": sum(abs(v) for _, v in q.coeffs),
            "lambda0": ref.lambda0,
            "pairs": [list(p) for p in ref.pairs],
        }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
