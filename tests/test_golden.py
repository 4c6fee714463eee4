"""Golden CLI outputs: every artifact must match tests/golden/ byte for byte.

Each case runs ``hillgaps.cli.main`` with ``--out`` into a directory of its
own and compares every file written there (the artifact and its sibling
files) with the committed copies under ``tests/golden/<case>/``.  Two
cases also run without ``--out``, and their stdout artifact is compared
with the same files; diagnostics on stderr are not artifacts.
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


def case_argv(case: str, inputs_dir: Path) -> list[str]:
    """Write the inputs into ``inputs_dir`` and return the case's argv, without ``--out``."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in INPUTS.items():
        p = inputs_dir / f"{name}.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(p)
    return [paths.get(tok, tok) for tok in CASES[case][1]]


def run_case(case: str, inputs_dir: Path, out_dir: Path) -> int:
    """Write the inputs, run the case with its artifact in ``out_dir``; returns the exit code."""
    argv = case_argv(case, inputs_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return main(argv + ["--out", str(out_dir / CASES[case][0])])


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path):
    out_dir = tmp_path / "out"
    assert run_case(case, tmp_path / "inputs", out_dir) == 0
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in out_dir.iterdir()) == expected
    for name in expected:
        assert (out_dir / name).read_bytes() == (GOLDEN / case / name).read_bytes(), f"{case}/{name}"


def _golden(case: str, name: str) -> str:
    return (GOLDEN / case / name).read_text(encoding="utf-8")


# without --out the artifacts go to stdout: one edge table holding the rows of
# both routes, and the gap table followed by its summary
STDOUT = {
    "spectrum_both_csv": lambda: _golden("spectrum_both_csv", "edges.galerkin.csv")
    + "".join(_golden("spectrum_both_csv", "edges.discriminant.csv").splitlines(keepends=True)[1:]),
    "gaps_csv": lambda: _golden("gaps_csv", "gaps.csv") + _golden("gaps_csv", "gaps.summary.json"),
}


@pytest.mark.parametrize("case", sorted(STDOUT))
def test_golden_stdout(case, tmp_path, capsys):
    assert main(case_argv(case, tmp_path)) == 0
    assert capsys.readouterr().out == STDOUT[case]()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            shutil.rmtree(GOLDEN / case, ignore_errors=True)
            rc = run_case(case, Path(tmp), GOLDEN / case)
            print(f"{case}: exit {rc}", file=sys.stderr)
            if rc != 0:
                sys.exit(rc)
