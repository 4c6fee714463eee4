"""The names the benchmark's tracer hooks still exist.

``perfbench/tracer.py`` wraps hillgaps functions by the binding its caller
looks up, and reports a binding that is gone as absent; a deletion that
removes a hooked name then drops metrics from every traced benchmark run.
Building the tracer only looks the bindings up (patches go in with
``install``), so this check runs in well under a second.
"""

import importlib
import importlib.util
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
