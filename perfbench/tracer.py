"""Per-layer spans recorded from the benchmark side.

The tracer wraps the public functions of each hillgaps module by replacing
the name binding its caller looks up (``cli.residuals``,
``spectrum.galerkin_matrix``, ``serialize.dump_json``, ...), so the program
itself is unchanged.  ``_Propagator.delta`` is the one private hook: it is
where sweeps and lambda points are counted, until the program exposes its
own counters.  A binding that no longer exists is reported as absent and its
metrics are left out; the run goes on.

Spans live in memory for the duration of one job; :func:`job_layers` turns
them into per-layer seconds and counts.  Layer times are inclusive, so a
nested layer (``spectrum.sweep`` inside ``spectrum.discriminant``) is also
part of its parent's time.
"""

from __future__ import annotations

import math
import statistics
import time
import types

MODULES = ("cli", "spectrum", "gaps", "sequence_spaces", "serialize")
SMALL_BATCH = 128  # sweeps over fewer lambda points count as small batches


def _sweep_info(args, kwargs, result):
    lams = args[1] if len(args) > 1 else kwargs["lams"]
    extended = args[2] if len(args) > 2 else kwargs.get("extended", False)
    return {"lams": int(getattr(lams, "size", 1)), "extended": bool(extended)}


def _discriminant_info(args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    configured = cfg.steps if cfg is not None else result.resolution
    return {"doublings": round(math.log2(result.resolution / configured))}


def _galerkin_info(args, kwargs, result):
    return {"dim": 2 * result.resolution + 1}


def _text_info(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))} if isinstance(result, str) else {}


class Tracer:
    """Installs and removes span-recording wrappers around hillgaps layers."""

    def __init__(self, hillgaps_modules: dict):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.absent: list[str] = []
        self.present: set[str] = set()
        cli, spectrum, gaps, seq, serialize = (hillgaps_modules[name] for name in MODULES)
        plan = [
            (cli, "load_potential", "potential.load", None),
            (cli, "band_edges_galerkin", "spectrum.galerkin", _galerkin_info),
            (spectrum, "galerkin_matrix", "spectrum.galerkin_matrix", None),
            (cli, "band_edges_discriminant", "spectrum.discriminant", _discriminant_info),
            (getattr(spectrum, "_Propagator", None), "delta", "spectrum.sweep", _sweep_info),
            (cli, "residuals", "gaps.residuals", None),
            (cli, "rho", "gaps.rho", None),
            (cli, "rho_via_convolution", "gaps.rho_via_convolution", None),
            (cli, "verify_membership_consistency", "gaps.membership", None),
            (cli, "verify_marchenko_ostrovskii", "gaps.summability", None),
            (cli, "decay_slope", "gaps.fit_tail", None),
            (cli, "weighted_tail_report", "gaps.fit_tail", None),
            (cli, "convolve", "sequence_spaces.convolve", None),
            (gaps, "convolve", "sequence_spaces.convolve", None),
            (seq, "convolve", "sequence_spaces.convolve", None),
            (cli, "conv_lemma_report", "sequence_spaces.conv_lemma", None),
            (cli, "check_sandwich", "sequence_spaces.weight_checks", None),
            (cli, "check_or_class", "sequence_spaces.weight_checks", None),
            (cli, "hormander_norm", "sequence_spaces.norms", None),
            (cli, "weighted_norm", "sequence_spaces.norms", None),
        ]
        for name in sorted(n for n in vars(serialize) if not n.startswith("_")):
            if isinstance(getattr(serialize, name), types.FunctionType) and getattr(serialize, name).__module__ == serialize.__name__:
                plan.append((serialize, name, "serialize", _text_info))
        for owner, attr, layer, info in plan:
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{layer} ({attr})")
                continue
            self._patches.append((owner, attr, original, self._wrap(original, layer, info)))
            self.present.add(layer)
        self._patch_eigvalsh(spectrum)

    def _patch_eigvalsh(self, spectrum) -> None:
        # spectrum calls np.linalg.eigvalsh: give it a copy of the numpy
        # namespace whose linalg.eigvalsh records a span
        np_mod = getattr(spectrum, "np", None)
        linalg = getattr(np_mod, "linalg", None)
        if getattr(linalg, "eigvalsh", None) is None:
            self.absent.append("spectrum.np.linalg.eigvalsh")
            return
        fake_linalg = types.ModuleType(linalg.__name__)
        fake_linalg.__dict__.update(vars(linalg))
        fake_linalg.eigvalsh = self._wrap(linalg.eigvalsh, "spectrum.eigvalsh", None)
        fake_np = types.ModuleType(np_mod.__name__)
        fake_np.__dict__.update(vars(np_mod))
        fake_np.linalg = fake_linalg
        self._patches.append((spectrum, "np", np_mod, fake_np))
        self.present.add("spectrum.eigvalsh")

    def _wrap(self, fn, layer: str, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (layer, t0, t1, parent, None)
            if info is not None:
                spans[idx] = (layer, t0, t1, parent, info(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        self.spans.clear()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


# per-layer metric -> (unit, layers it needs); a metric is left out
# of the results when any layer it needs is absent
METRICS = {
    "cli.self_s": ("s", ()),
    "potential.load_s": ("s", ("potential.load",)),
    "spectrum.galerkin_s": ("s", ("spectrum.galerkin",)),
    "spectrum.galerkin_matrix_s": ("s", ("spectrum.galerkin_matrix",)),
    "spectrum.eigvalsh_s": ("s", ("spectrum.eigvalsh",)),
    "spectrum.galerkin_dim": ("count", ("spectrum.galerkin",)),
    "spectrum.discriminant_s": ("s", ("spectrum.discriminant",)),
    "spectrum.sweep_s": ("s", ("spectrum.sweep",)),
    "spectrum.root_self_s": ("s", ("spectrum.discriminant", "spectrum.sweep")),
    "spectrum.sweep_double_s": ("s", ("spectrum.sweep",)),
    "spectrum.sweep_extended_s": ("s", ("spectrum.sweep",)),
    "spectrum.sweep_small_batch_s": ("s", ("spectrum.sweep",)),
    "spectrum.sweep_large_batch_s": ("s", ("spectrum.sweep",)),
    "spectrum.sweeps": ("count", ("spectrum.sweep",)),
    "spectrum.lambda_evals": ("count", ("spectrum.sweep",)),
    "spectrum.extended_sweeps": ("count", ("spectrum.sweep",)),
    "spectrum.batch_mean": ("count", ("spectrum.sweep",)),
    "spectrum.step_doublings": ("count", ("spectrum.discriminant",)),
    "gaps.residuals_s": ("s", ("gaps.residuals",)),
    "gaps.rho_s": ("s", ("gaps.rho",)),
    "gaps.rho_via_convolution_s": ("s", ("gaps.rho_via_convolution",)),
    "gaps.membership_s": ("s", ("gaps.membership",)),
    "gaps.summability_s": ("s", ("gaps.summability",)),
    "gaps.fit_tail_s": ("s", ("gaps.fit_tail",)),
    "sequence_spaces.convolve_s": ("s", ("sequence_spaces.convolve",)),
    "sequence_spaces.convolve_calls": ("count", ("sequence_spaces.convolve",)),
    "sequence_spaces.conv_lemma_s": ("s", ("sequence_spaces.conv_lemma",)),
    "sequence_spaces.weight_checks_s": ("s", ("sequence_spaces.weight_checks",)),
    "sequence_spaces.norms_s": ("s", ("sequence_spaces.norms",)),
    "serialize.s": ("s", ("serialize",)),
    "serialize.bytes": ("count", ("serialize",)),
    "trace.overhead_s": ("s", ()),
}


def job_layers(spans: list, wall: float) -> dict:
    """Per-layer seconds and counts of one job from its spans.

    A span nested inside a span of the same layer is not counted twice.
    ``cli.self_s`` is the job's wall time outside every top-level span.
    """
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    layer_of = [s[0] for s in spans]
    top = 0.0
    for layer, t0, t1, parent, info in spans:
        dt = t1 - t0
        if parent == -1:
            top += dt
        p = parent
        while p != -1 and layer_of[p] != layer:
            p = spans[p][3]
        if p == -1:
            add(layer + "_s" if layer != "serialize" else "serialize.s", dt)
            if info and "bytes" in info:
                add("serialize.bytes", info["bytes"])
        if layer == "spectrum.sweep":
            add("spectrum.sweeps", 1)
            add("spectrum.lambda_evals", info["lams"])
            add("spectrum.sweep_extended_s" if info["extended"] else "spectrum.sweep_double_s", dt)
            add("spectrum.sweep_small_batch_s" if info["lams"] < SMALL_BATCH else "spectrum.sweep_large_batch_s", dt)
            if info["extended"]:
                add("spectrum.extended_sweeps", 1)
        elif layer == "spectrum.discriminant":
            add("spectrum.step_doublings", info["doublings"])
        elif layer == "spectrum.galerkin":
            out["spectrum.galerkin_dim"] = max(out.get("spectrum.galerkin_dim", 0), info["dim"])
        elif layer == "sequence_spaces.convolve":
            add("sequence_spaces.convolve_calls", 1)
    out["cli.self_s"] = wall - top
    return out


def summarize(per_job: dict[str, list[dict]], present: set[str]) -> dict[str, float]:
    """Workload-level layer metrics from the traced repeats of every job.

    Each job contributes the median of its repeats, and jobs add up, like
    ``run_s``; ``spectrum.galerkin_dim`` is the largest dimension instead.
    """
    out = {}
    for name, (_, needs) in METRICS.items():
        if name in ("spectrum.root_self_s", "spectrum.batch_mean", "trace.overhead_s"):
            continue
        if not all(layer in present for layer in needs):
            continue
        vals = [statistics.median(rep.get(name, 0.0) for rep in reps) for reps in per_job.values() if reps]
        out[name] = max(vals, default=0.0) if name == "spectrum.galerkin_dim" else sum(vals)
    if "spectrum.discriminant_s" in out and "spectrum.sweep_s" in out:
        out["spectrum.root_self_s"] = out["spectrum.discriminant_s"] - out["spectrum.sweep_s"]
    if "spectrum.sweeps" in out:
        sweeps = out["spectrum.sweeps"]
        out["spectrum.batch_mean"] = out["spectrum.lambda_evals"] / sweeps if sweeps else 0.0
    return out

