"""The names the benchmark's tracer hooks still exist.

``perfbench/tracer.py`` wraps hillgaps functions by the binding its caller
looks up, and reports a binding that is gone as absent; a deletion that
removes a hooked name then drops metrics from every traced benchmark run.
Building the tracer only looks the bindings up (patches go in with
``install``), so this check runs in well under a second; one traced CLI
run checks that the spans of a default solve turn into layer metrics.
"""

import importlib
import importlib.util
import json
import time
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_hooked_binding_but_the_two_known_absent():
    tracer_mod = _tracer_module()
    modules = {name: importlib.import_module(f"hillgaps.{name}") for name in tracer_mod.MODULES}
    tracer = tracer_mod.Tracer(modules)
    # cli no longer imports convolve or weighted_norm; their layers are
    # traced through gaps.convolve, sequence_spaces.convolve and cli.hormander_norm
    assert tracer.absent == ["sequence_spaces.convolve (convolve)", "sequence_spaces.norms (weighted_norm)"]
    assert modules["cli"].rho_via_convolution is modules["gaps"].rho_via_convolution


def test_traced_default_solve_reports_its_layers(tmp_path, capsys):
    # with no --steps the CLI passes no configuration, so the tracer reads the
    # doublings from ``resolution``; the step-count estimate's sweeps return
    # in place of raising, so every traced sweep span carries its info
    tracer_mod = _tracer_module()
    modules = {name: importlib.import_module(f"hillgaps.{name}") for name in tracer_mod.MODULES}
    pot = tmp_path / "mathieu.json"
    pot.write_text(json.dumps({"mean": 0.0, "coeffs": [{"k": 1, "re": 0.5, "im": 0.0}]}), encoding="utf-8")
    tracer = tracer_mod.Tracer(modules)
    tracer.install()
    try:
        t0 = time.perf_counter()
        rc = modules["cli"].main(["spectrum", "--potential", str(pot), "--nmax", "8", "--method", "both"])
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rc == 0
    layers = tracer_mod.job_layers(tracer.spans, wall)
    assert layers["spectrum.step_doublings"] >= 0
    assert layers["spectrum.sweeps"] > 0
