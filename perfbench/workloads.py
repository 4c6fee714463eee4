"""Workload definitions: the generated input files and the CLI jobs of one pass.

Inputs are written by this module from closed-form coefficient formulas, so
the program under test only ever sees potential and weight JSON files.  The
seed picks the job order, the phase seed of every random potential (from a
pool whose reference edges are stored in ``reference_edges.json``) and the
``--seed`` of ``verify``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("crossval", "decay-galerkin", "verify-weights")

# random_hs phase seeds are drawn from range(PHASE_POOL); make_reference.py
# stores reference edges for every one of them
PHASE_POOL = 8

WEIGHTS = {
    "power": {"kind": "power", "s": 1.0},
    "example_2_4": {"kind": "example_2_4", "s": 1.0},
    "log_power": {"kind": "log_power", "s": 1.0, "r": [2.0]},
}


def mathieu(c: float) -> list[tuple[int, complex]]:
    return [(1, complex(c))]


def power_decay(p: float, cutoff: int) -> list[tuple[int, complex]]:
    return [(k, complex((1.0 + 2.0 * k) ** (-p))) for k in range(1, cutoff + 1)]


def random_hs(s: float, cutoff: int, phase_seed: int) -> list[tuple[int, complex]]:
    theta = np.random.default_rng(phase_seed).uniform(0.0, 2.0 * math.pi, size=cutoff)
    return [
        (k, complex(np.exp(1j * theta[k - 1]) * (1.0 + 2.0 * k) ** (-(s + 1.0))))
        for k in range(1, cutoff + 1)
    ]


def coefficients(label: str) -> list[tuple[int, complex]]:
    """Coefficients for a reference label such as ``random_hs(1,48,3)``."""
    name, _, rest = label.partition("(")
    args = [float(x) for x in rest.rstrip(")").split(",")]
    if name == "mathieu":
        return mathieu(args[0])
    if name == "power_decay":
        return power_decay(args[0], int(args[1]))
    if name == "random_hs":
        return random_hs(args[0], int(args[1]), int(args[2]))
    raise ValueError(f"unknown potential label {label!r}")


def potential_doc(label: str) -> dict:
    return {
        "mean": 0.0,
        "coeffs": [{"k": k, "re": v.real, "im": v.imag} for k, v in coefficients(label)],
    }


# (job id, subcommand, potential label, n_max at full size, n_max at tiny size)
def _job_table(workload: str, rng: np.random.Generator) -> list[tuple[str, str, str, int, int]]:
    if workload == "crossval":
        return [
            ("cv-mathieu", "spectrum", "mathieu(0.5)", 8, 2),
            ("cv-power", "spectrum", "power_decay(2,32)", 28, 2),
        ]
    if workload == "decay-galerkin":
        phase = int(rng.integers(PHASE_POOL))
        return [
            ("dg-power1", "gaps", "power_decay(1,128)", 128, 8),
            ("dg-power2", "gaps", "power_decay(2,96)", 96, 8),
            ("dg-random", "gaps", f"random_hs(1,96,{phase})", 96, 8),
        ]
    if workload == "verify-weights":
        phase = int(rng.integers(PHASE_POOL))
        return [
            ("vw-random", "verify", f"random_hs(1,48,{phase})", 48, 8),
            ("vw-power", "verify", "power_decay(2,32)", 32, 8),
            ("vw-mathieu", "verify", "mathieu(0.5)", 8, 4),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int, workdir: str, tiny: bool = False) -> list[dict]:
    """Write the workload's input files into ``workdir`` and return its jobs.

    Each job carries the argv for ``hillgaps.cli.main``, its output path and
    what the output check needs: the subcommand, the reference label and the
    n_max.
    """
    rng = np.random.default_rng(seed)
    table = _job_table(workload, rng)
    verify_seed = int(rng.integers(2**31))
    order = rng.permutation(len(table))

    weight_paths = []
    for name, spec in WEIGHTS.items():
        path = os.path.join(workdir, f"weight_{name}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(spec, f)
        weight_paths.append(path)

    jobs = []
    for i in order:
        job_id, command, label, n_full, n_tiny = table[i]
        n_max = n_tiny if tiny else n_full
        pot_path = os.path.join(workdir, f"{job_id}.potential.json")
        with open(pot_path, "w", encoding="utf-8") as f:
            json.dump(potential_doc(label), f)
        out = os.path.join(workdir, f"{job_id}.out.json")
        argv = [command, "--potential", pot_path, "--nmax", str(n_max), "--out", out]
        weights = {"spectrum": [], "gaps": weight_paths[:1], "verify": weight_paths}[command]
        for path in weights:
            argv += ["--weight", path]
        if command == "spectrum":
            argv += ["--method", "both", "--format", "json"]
        elif command == "gaps":
            argv += ["--method", "galerkin", "--format", "json"]
        else:
            argv += ["--seed", str(verify_seed)]
        jobs.append(
            {
                "id": job_id,
                "command": command,
                "label": label,
                "n_max": n_max,
                "potential": pot_path,
                "weights": weights,
                "out": out,
                "argv": argv,
            }
        )
    return jobs
