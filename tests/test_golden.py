"""Golden CLI outputs: every artifact must match tests/golden/ byte for byte.

Each case runs ``hillgaps.cli.main`` with ``--out`` into a directory of its
own and compares every file written there (the artifact and its sibling
files) with the committed copies under ``tests/golden/<case>/``.  Only
files are compared; diagnostics on stdout and stderr are not artifacts.
A change that alters an output on purpose regenerates the goldens with

    PYTHONPATH=src python tests/test_golden.py

and the diff of ``tests/golden/`` becomes part of that change.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

from hillgaps import mathieu, potential_to_dict, power_decay
from hillgaps.cli import main

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {
    "pd2_16": potential_to_dict(power_decay(2.0, 16)),
    "mathieu01": potential_to_dict(mathieu(0.1)),
    "w_power": {"kind": "power", "s": 1.0},
    "w_ex24": {"kind": "example_2_4", "s": 1.0},
}

# case -> (--out file name, argv); argv tokens naming an input become its path
CASES = {
    "spectrum_galerkin_csv": ("edges.csv", ["spectrum", "--potential", "pd2_16", "--nmax", "8"]),
    "spectrum_galerkin_json": (
        "edges.json",
        ["spectrum", "--potential", "pd2_16", "--nmax", "8", "--format", "json"],
    ),
    "spectrum_both_json": (
        "edges.json",
        ["spectrum", "--potential", "mathieu01", "--nmax", "3", "--method", "both",
         "--steps", "512", "--format", "json"],
    ),
    "spectrum_both_csv": (
        "edges.csv",
        ["spectrum", "--potential", "mathieu01", "--nmax", "3", "--method", "both", "--steps", "512"],
    ),
    "gaps_json": (
        "gaps.json",
        ["gaps", "--potential", "pd2_16", "--nmax", "8", "--weight", "w_power", "--range", "2:8",
         "--format", "json"],
    ),
    "gaps_csv": (
        "gaps.csv",
        ["gaps", "--potential", "pd2_16", "--nmax", "8", "--weight", "w_power", "--range", "2:8"],
    ),
    "verify_two_weights": (
        "verify.json",
        ["verify", "--potential", "pd2_16", "--nmax", "8", "--weight", "w_power", "--weight", "w_ex24"],
    ),
    "converge_trunc_csv": (
        "converge.csv",
        ["converge", "--potential", "pd2_16", "--nmax", "8", "--sweep", "32,48,64", "--target", "trunc"],
    ),
    "converge_steps_json": (
        "converge.json",
        ["converge", "--potential", "pd2_16", "--sweep", "256,512,1024", "--target", "steps",
         "--lam", "60.0", "--format", "json"],
    ),
}


def run_case(case: str, inputs_dir: Path, out_dir: Path) -> int:
    """Write the inputs, run the case with its artifact in ``out_dir``; returns the exit code."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in INPUTS.items():
        p = inputs_dir / f"{name}.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(p)
    out_name, argv = CASES[case]
    out_dir.mkdir(parents=True, exist_ok=True)
    return main([paths.get(tok, tok) for tok in argv] + ["--out", str(out_dir / out_name)])


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path):
    out_dir = tmp_path / "out"
    assert run_case(case, tmp_path / "inputs", out_dir) == 0
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in out_dir.iterdir()) == expected
    for name in expected:
        assert (out_dir / name).read_bytes() == (GOLDEN / case / name).read_bytes(), f"{case}/{name}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            shutil.rmtree(GOLDEN / case, ignore_errors=True)
            rc = run_case(case, Path(tmp), GOLDEN / case)
            print(f"{case}: exit {rc}", file=sys.stderr)
            if rc != 0:
                sys.exit(rc)
