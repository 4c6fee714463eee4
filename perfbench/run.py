"""hillgaps benchmark: one command, three CLI workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload crossval --seed 1 --seconds 30 --trace 0

The seed generates the input files (``workloads.py``); a fresh worker
process then runs the workload's ``hillgaps.cli.main`` jobs back to back, one
client in a closed loop, with BLAS pinned to one thread, for ``--seconds``
seconds.  Every output is checked (``checks.py``).  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
which holds the end-to-end metrics with ``--trace 0`` and the per-layer
metrics of ``tracer.py`` with ``--trace 1``.  See README.md in this
directory for the workloads, the layer map and the predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
SETUP_REPEATS = 11
# Median time of one calibration unit (worker.Calibration) on the reference
# host, a 2-vCPU x86-64 KVM guest with OpenBLAS 0.3.31.  run_s, cpu_s and
# setup_s are scaled to that host speed: raw time x reference / measured.
CALIBRATION_REF_S = 0.004
DEADLINE_S = 170.0  # the whole command must end within 180 s


def _pass_time(samples: dict, key: str, traced: bool) -> float:
    """Median of each job's repeats, summed over the jobs: one pass."""
    return sum(statistics.median(s[key] for s in reps if s["traced"] == traced) for reps in samples.values())


def tally(samples: dict) -> tuple[int, list[tuple[str, str]]]:
    """Executions attempted and (job, reason) for each one that failed."""
    attempted = sum(len(reps) for reps in samples.values())
    failures = [(job, s["failure"]) for job, reps in samples.items() for s in reps if s["failure"]]
    return attempted, failures


def _worker(mode: str, spec_path: str, env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, spec_path],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> tuple[dict, dict]:
    """Run one benchmark measurement; returns (result line, machine record)."""
    started = time.monotonic()
    machine = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
    }
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("HILLGAPS_THREADS", None)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        jobs = workloads.build(workload, seed, workdir, tiny=tiny)
        spec = {"root": ROOT, "jobs": jobs, "seconds": seconds, "trace": trace}
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump(spec, f)

        def remaining():
            return DEADLINE_S - (time.monotonic() - started)

        probes = [_worker("--probe", spec_path, env, remaining()) for _ in range(SETUP_REPEATS + 1)][1:]
        res = _worker("--run", spec_path, env, remaining())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    machine.update(res["machine"])
    samples = res["samples"]
    attempted, failures = tally(samples)
    for job, reason in failures[:10]:
        print(f"FAILED {job}: {reason}", file=sys.stderr)

    run_s = _pass_time(samples, "wall", traced=False)
    cpu_s = _pass_time(samples, "cpu", traced=False)
    calibration = res["calibration"]
    wall_scale = CALIBRATION_REF_S / statistics.median(calibration["wall"])
    cpu_scale = CALIBRATION_REF_S / statistics.median(calibration["cpu"])
    setup_s = statistics.median(p["setup_s"] for p in probes)
    # each set-up sample is scaled by the calibration its own probe ran
    scaled_setup_s = statistics.median(p["setup_s"] * CALIBRATION_REF_S / p["calibration_s"] for p in probes)
    machine.update(
        raw_run_s=run_s,
        raw_cpu_s=cpu_s,
        raw_setup_s=setup_s,
        calibration_units=len(calibration["wall"]),
        wall_scale=wall_scale,
        cpu_scale=cpu_scale,
    )
    if trace:
        metrics = tracer.summarize(
            {job: [s["layers"] for s in reps if s["traced"]] for job, reps in samples.items()},
            set(res["present_layers"]),
        )
        metrics["trace.overhead_s"] = _pass_time(samples, "wall", traced=True) - run_s
        if res["absent_bindings"]:
            print(f"absent (not traced): {', '.join(res['absent_bindings'])}", file=sys.stderr)
        units = {name: tracer.METRICS[name][0] for name in metrics}
    else:
        metrics = {
            "run_s": run_s * wall_scale,
            "cpu_s": cpu_s * cpu_scale,
            "setup_s": scaled_setup_s,
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - len(failures) / attempted,
        }
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, machine


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: self-test sizes")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "hillgaps", "__init__.py")):
        print(f"hillgaps sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result, machine = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size == "tiny")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print("machine: " + json.dumps(machine, sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{result['attempted']} jobs, {result['failed']} failed, "
        f"fail_frac {result['failed'] / result['attempted']:.6g}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
