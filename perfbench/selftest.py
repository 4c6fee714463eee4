"""Self-tests of the benchmark itself (not of hillgaps).

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's own test collection: the
smoke runs start worker processes and take about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCH = json.load(_f)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
        check=False,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_prints_every_end_to_end_metric(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "tiny")
    res = _result(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())
    machine = json.loads(proc.stdout.splitlines()[0].removeprefix("machine: "))
    assert res["metrics"]["run_s"]["value"] == pytest.approx(machine["raw_run_s"] * machine["wall_scale"])
    assert res["metrics"]["cpu_s"]["value"] == pytest.approx(machine["raw_cpu_s"] * machine["cpu_scale"])
    assert machine["calibration_units"] >= res["attempted"]


def test_traced_run_prints_every_per_layer_metric():
    res = _result(_run(ROOT, "--workload", "verify-weights", "--seed", "3", "--seconds", "1", "--trace", "1", "--size", "tiny"))
    assert res["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert res["metrics"]["sequence_spaces.convolve_calls"]["value"] > 0


def test_workload_names_match():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ja = workloads.build("decay-galerkin", 7, str(a))
    jb = workloads.build("decay-galerkin", 7, str(b))
    assert [j["id"] for j in ja] == [j["id"] for j in jb]
    for ea, eb in zip(sorted(a.iterdir()), sorted(b.iterdir())):
        assert ea.read_bytes() == eb.read_bytes()


def _good_output(tmp_path) -> tuple[dict, bytes, str]:
    """A correct verify job output produced by the program at tiny size."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hillgaps import cli

    job = [j for j in workloads.build("verify-weights", 3, str(tmp_path), tiny=True) if j["id"] == "vw-mathieu"][0]
    assert cli.main(job["argv"]) == 0
    with open(job["out"], "rb") as f:
        return job, f.read(), ""


def test_corrupted_outputs_count_as_failures(tmp_path):
    refs = checks.load_references()
    job, out, stdout = _good_output(tmp_path)
    ref = refs[job["label"]]
    digest, reason = checks.judge(job, 0, out, stdout, None, ref)
    assert reason is None

    samples = {job["id"]: []}
    for rc, body, first in ((0, out, digest), (3, out, digest), (0, out, "0" * 64), (0, out.replace(b"true", b"false"), None)):
        _, why = checks.judge(job, rc, body, stdout, first, ref)
        samples[job["id"]].append({"failure": why})
    attempted, failures = run.tally(samples)
    assert attempted == 4
    reasons = [why for _, why in failures]
    assert reasons[:2] == ["exit code 3", "output digest changed between repeats"]
    assert len(reasons) == 3 and reasons[2].startswith("verify all_passed is not true")


def test_wrong_edges_fail_the_reference_check(tmp_path):
    refs = checks.load_references()
    job, out, _ = _good_output(tmp_path)
    doc = json.loads(out)
    doc["reports"]["marchenko_ostrovskii"]["gap_partial"][-1] *= 1.0 + 1e-6
    assert "gap_partial" in checks.check_document(job, doc, refs[job["label"]])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "crossval", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
