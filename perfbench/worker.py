"""Benchmark worker: one process, one client, jobs run back to back.

``run.py`` starts this file in a fresh interpreter with single-threaded BLAS.
Two modes:

* ``--probe SPEC``: time ``import hillgaps`` plus parsing every input of the
  workload, then run the calibration kernel briefly, print both and exit
  (one set-up sample with the host speed at that moment).
* ``--run SPEC``: run the workload's jobs through ``hillgaps.cli.main`` in a
  closed loop for the spec's time budget, check every output, and print one
  JSON line with per-job samples.  With tracing on, passes alternate between
  untraced and traced, so the tracing overhead is measured under the same
  conditions as the run.  After every job, outside the timed region, a fixed
  calibration kernel (``Calibration``) runs for a tenth of the job's time, so
  ``run.py`` can scale pass times by the host speed seen during the run.

The spec is the JSON file ``run.py`` writes: root, jobs, seconds, trace.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback


def _import_hillgaps(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import hillgaps

    expected = os.path.join(root, "src", "hillgaps")
    if os.path.dirname(os.path.abspath(hillgaps.__file__)) != os.path.abspath(expected):
        raise SystemExit(f"imported hillgaps from {hillgaps.__file__}, not from {expected}")
    return hillgaps


def probe(spec: dict) -> float:
    t0 = time.perf_counter()
    hg = _import_hillgaps(spec["root"])
    for job in spec["jobs"]:
        hg.load_potential(job["potential"])
        for path in job["weights"]:
            with open(path, encoding="utf-8") as f:
                hg.make_weight(json.load(f))
    return time.perf_counter() - t0


class Calibration:
    """A fixed kernel that never calls hillgaps, timed to track host speed.

    On a shared host the speed of a core drifts by tens of percent over
    minutes, in CPU time as much as in wall time.  One unit does the kinds
    of work the workloads do: a Python complex
    multiply-accumulate loop (as in ``convolve``), elementwise numpy steps
    over a batch in double and extended precision (as in a discriminant
    sweep), and a dense complex Hermitian eigensolve (as in Galerkin).
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(12345)
        m = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self.herm = m + m.conj().T
        self.coef = [complex(x, y) for x, y in rng.standard_normal((72, 2))]
        self.lams = {dt: rng.uniform(-50.0, 50.0, 128).astype(dt) for dt in (np.float64, np.longdouble)}
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def _unit(self) -> None:
        np = self.np
        coef, n = self.coef, len(self.coef)
        acc = 0j
        for k in range(n):
            for j in range(n):
                acc += coef[k - j] * coef[j]
        for lams in self.lams.values():
            u = np.ones_like(lams)
            for i in range(24):
                w = lams.dtype.type(i) - lams
                m = np.sqrt(np.abs(w)) * lams.dtype.type(0.01)
                u = np.where(w >= 0.0, np.cosh(m), np.cos(m)) * u
                u /= np.abs(u).max()
        np.linalg.eigvalsh(self.herm)

    def run_for(self, seconds: float) -> None:
        """Run whole units until ``seconds`` have passed, at least one."""
        end = time.perf_counter() + seconds
        while True:
            c0 = time.process_time()
            t0 = time.perf_counter()
            self._unit()
            t1 = time.perf_counter()
            self.wall.append(t1 - t0)
            self.cpu.append(time.process_time() - c0)
            if t1 >= end:
                return


CALIBRATION_SHARE = 0.1
PROBE_CALIBRATION_S = 0.05


def _machine(hg) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "hillgaps": getattr(hg, "__version__", "unknown"),
    }


def run(spec: dict) -> dict:
    hg = _import_hillgaps(spec["root"])
    import checks
    from hillgaps import cli

    refs = checks.load_references()
    jobs = spec["jobs"]
    tracer = None
    if spec["trace"]:
        import tracer as tracer_mod

        # by module path: the package re-exports a function named ``gaps``
        tracer = tracer_mod.Tracer(
            {name: importlib.import_module(f"hillgaps.{name}") for name in tracer_mod.MODULES}
        )

    # warm-up outside the timed region: lazy imports and first-call set-up
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["spectrum", "--potential", jobs[0]["potential"], "--nmax", "2", "--out", jobs[0]["out"]])
    calibration = Calibration()
    calibration.run_for(0.0)

    samples = {job["id"]: [] for job in jobs}
    digests: dict[str, str] = {}
    last_wall: dict[str, float] = {}
    budget = spec["seconds"]
    min_passes = 2 if tracer else 1
    start = time.perf_counter()
    pass_no = 0
    running = True
    while running:
        traced = tracer is not None and pass_no % 2 == 1
        if traced:
            tracer.install()
        try:
            for job in jobs:
                if pass_no >= min_passes and time.perf_counter() - start + last_wall.get(job["id"], 0.0) > budget:
                    running = False
                    break
                if traced:
                    tracer.spans.clear()
                stdout = io.StringIO()
                c0 = time.process_time()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(stdout):
                    try:
                        rc = cli.main(job["argv"])
                    except Exception:  # an escaped traceback is a failed job, as exit 1 would be
                        traceback.print_exc()
                        rc = 1
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
                last_wall[job["id"]] = wall
                try:
                    with open(job["out"], "rb") as f:
                        out = f.read()
                    os.remove(job["out"])
                except FileNotFoundError:
                    out = b""
                digest, reason = checks.judge(job, rc, out, stdout.getvalue(), digests.get(job["id"]), refs[job["label"]])
                digests.setdefault(job["id"], digest)
                sample = {"wall": wall, "cpu": cpu, "traced": traced, "failure": reason}
                if traced:
                    sample["layers"] = tracer_mod.job_layers(tracer.spans, wall)
                samples[job["id"]].append(sample)
                calibration.run_for(CALIBRATION_SHARE * wall)
        finally:
            if traced:
                tracer.uninstall()
        pass_no += 1
    return {
        "samples": samples,
        "calibration": {"wall": calibration.wall, "cpu": calibration.cpu},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "present_layers": sorted(tracer.present) if tracer else [],
        "absent_bindings": tracer.absent if tracer else [],
        "machine": _machine(hg),
    }


def main() -> int:
    mode, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if mode == "--probe":
        setup_s = probe(spec)
        calibration = Calibration()
        calibration.run_for(PROBE_CALIBRATION_S)
        print(json.dumps({"setup_s": setup_s, "calibration_s": statistics.median(calibration.wall)}))
    else:
        print(json.dumps(run(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
