"""Weights on the integers and finitely supported two-sided sequences.

A weight is a positive function on the integers with value 1 at the
origin and symmetric in the sign of the index; every constructor applies
that extension automatically.  Sequences are finitely supported maps from
the integers to the complex numbers, stored as centred arrays, and all
operations on them (weighted norms, convolution) are exact finite sums.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, as_float, as_int

WEIGHT_KINDS = ("power", "log_power", "example_2_4", "table")

# Slope threshold used by the sandwich trend test: log-log slopes beyond
# this magnitude count as a monotone divergence of the ratio.
SANDWICH_SLOPE_TOL = 0.1

# Largest t_max of the scaling-ratio check: 33 ratios per unit of t.
_OR_TMAX = 1e6


# Smallest k >= 1 at which every iterated-log factor of (1 + k) is positive,
# by the number of exponents: 1 + k must exceed 1, e and e^e in turn.  Four
# or more would need 1 + k > e^e^e = 3.8e6 and are refused.
_ITERATED_LOG_FLOOR = (1, 1, 2, 15)


@dataclass(frozen=True)
class Weight:
    """Positive symmetric weight on the integers with value 1 at 0.

    Construct through :func:`make_weight` or one of the named helpers so
    parameter validation runs.  Instances evaluate at integers via call
    syntax and at real arguments via :meth:`at_real` (formula kinds use
    their closed form, sampled kinds interpolate linearly).
    """

    kind: str
    s: float = 0.0
    exponents: tuple[float, ...] = ()
    table: tuple[float, ...] = ()
    clamp_from: int = 1

    def __call__(self, k):
        arr = np.asarray(k)
        kabs = np.abs(arr).astype(np.int64)
        return self._positive(self._eval_abs(kabs.astype(float)), kabs)

    def at_real(self, t):
        """Evaluate the symmetric real-argument extension at |t|."""
        arr = np.asarray(t, dtype=float)
        tabs = np.abs(arr)
        if self.kind in ("power", "log_power"):
            out = self._eval_abs(tabs)
        else:
            out = self._interp(tabs)
        return self._positive(out, tabs)

    def _positive(self, out: np.ndarray, at: np.ndarray):
        """``out``, as a float for a scalar argument, once every value is positive and finite.

        A value that overflowed or underflowed float64 is a numerical failure.
        """
        if out.ndim == 0:
            v = float(out)
            if 0.0 < v < math.inf:
                return v
        elif np.all((out > 0.0) & (out < math.inf)):
            return out
        i = np.flatnonzero(~((out > 0.0) & (out < math.inf)))[0]
        raise NumericalError(
            f"weight {self.describe()} is {float(out.flat[i])!r} at |k|={float(at.flat[i]):g}: "
            "outside the positive float64 range"
        )

    @property
    def max_index(self) -> float:
        """Largest |k| this weight can evaluate (inf for formula kinds)."""
        if self.kind == "table":
            return float(len(self.table))
        return math.inf

    def describe(self) -> str:
        if self.kind == "power":
            return f"power(s={self.s:g})"
        if self.kind == "log_power":
            return f"log_power(s={self.s:g}, r={list(self.exponents)})"
        if self.kind == "example_2_4":
            return f"example_2_4(s={self.s:g})"
        return f"table(len={len(self.table)})"

    # internal evaluation on |k| (float array in, float array out); a value
    # that leaves float64 is reported by _positive
    @np.errstate(over="ignore", invalid="ignore")
    def _eval_abs(self, kabs: np.ndarray) -> np.ndarray:
        if self.kind == "power":
            out = (1.0 + 2.0 * kabs) ** self.s
        elif self.kind == "log_power":
            kk = np.maximum(kabs, float(self.clamp_from))
            out = (1.0 + 2.0 * kk) ** self.s
            v = 1.0 + kk
            for r in self.exponents:
                v = np.log(v)
                out = out * v**r
        elif self.kind == "example_2_4":
            kk = np.maximum(kabs, 1.0)
            out = kk**self.s
            even = (np.mod(kabs, 2.0) == 0.0) & (kabs > 0)
            out = np.where(even, out * np.log1p(kabs), out)
        else:
            tab = np.asarray(self.table)
            if np.any(kabs > len(tab)):
                bad = float(np.max(kabs))
                raise InputError(
                    f"table weight of length {len(tab)} evaluated at |k|={bad:g}"
                )
            idx = np.maximum(kabs.astype(np.int64), 1) - 1
            out = tab[idx]
        return np.where(kabs == 0.0, 1.0, out)

    @np.errstate(over="ignore", invalid="ignore")
    def _interp(self, tabs: np.ndarray) -> np.ndarray:
        # piecewise-linear through the integer samples, with node 1.0 at t=0
        if self.kind == "table" and np.any(tabs > len(self.table)):
            raise InputError(
                f"table weight of length {len(self.table)} evaluated at t={np.max(tabs):g}"
            )
        lo = np.floor(tabs)
        frac = tabs - lo
        vlo = self._eval_abs(lo)
        vhi = self._eval_abs(np.minimum(lo + 1.0, self.max_index))
        return vlo + frac * (vhi - vlo)


def make_weight(spec) -> Weight:
    """Build a weight from a descriptor.

    Accepts either a ``Weight`` (returned unchanged) or a mapping like
    ``{"kind": "power", "s": 1.5}``; see the JSON forms in the README.
    Table values may also be given as a mapping ``{k: value}`` with
    ``k >= 1``; a ``0`` key is ignored with a warning since the value at
    the origin is always 1.
    """
    if isinstance(spec, Weight):
        return spec
    if not isinstance(spec, dict):
        raise InputError(f"weight descriptor must be a mapping, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in WEIGHT_KINDS:
        raise InputError(f"unknown weight kind {kind!r}; expected one of {WEIGHT_KINDS}")

    if kind == "table":
        values = spec.get("values")
        if isinstance(values, dict):
            items = [(as_int(k, "table weight index"), v) for k, v in values.items()]
            items.sort(key=lambda kv: kv[0])
            if any(k == 0 for k, _ in items):
                warnings.warn("table weight value at k=0 ignored; the origin value is 1")
                items = [(k, v) for k, v in items if k != 0]
            if not items or [k for k, _ in items] != list(range(1, len(items) + 1)):
                raise InputError("table weight mapping must cover k = 1..K without holes")
            values = [v for _, v in items]
        values = list(values) if isinstance(values, Iterable) else []
        if not values:
            raise InputError("table weight needs a nonempty 'values' list")
        vals = [as_float(v, f"table weight value at k={i}") for i, v in enumerate(values, start=1)]
        for i, v in enumerate(vals, start=1):
            if not math.isfinite(v) or v <= 0.0:
                raise InputError(f"table weight value at k={i} must be positive, got {v!r}")
        return Weight(kind="table", table=tuple(vals))

    s = as_float(spec.get("s", 0.0), "weight parameter s")
    if not math.isfinite(s):
        raise InputError("weight parameter s must be finite")
    if kind != "power" and s < 0:
        raise InputError(f"s < 0 is only accepted for power weights, got s={s:g} for {kind}")

    if kind == "power":
        return Weight(kind="power", s=s)
    if kind == "example_2_4":
        return Weight(kind="example_2_4", s=s)

    raw = spec.get("r", ())
    raw = raw if isinstance(raw, (list, tuple)) else [raw]
    exps = tuple(as_float(r, "log_power exponent") for r in raw)
    if any(not math.isfinite(r) for r in exps):
        raise InputError("log_power exponents must be finite")
    if len(exps) >= len(_ITERATED_LOG_FLOOR):
        raise InputError("log_power weight needs an impractically large positive range")
    return Weight(kind="log_power", s=s, exponents=exps, clamp_from=_ITERATED_LOG_FLOOR[len(exps)])


def power_weight(s: float) -> Weight:
    return make_weight({"kind": "power", "s": s})


def log_power_weight(s: float, exponents) -> Weight:
    return make_weight({"kind": "log_power", "s": s, "r": list(exponents)})


def example_2_4_weight(s: float) -> Weight:
    return make_weight({"kind": "example_2_4", "s": s})


def table_weight(values) -> Weight:
    return make_weight({"kind": "table", "values": values})


# ----------------------------------------------------------------------
# Two-sided sequences
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TwoSidedSeq:
    """Finitely supported complex sequence on the integers.

    ``coef`` is a read-only complex array of odd length centred at the
    origin: ``coef[support + k]`` is the value at k, and the sequence
    vanishes for |k| beyond ``support``.  The constructor copies its
    argument.
    """

    coef: np.ndarray

    def __post_init__(self):
        coef = np.array(self.coef, dtype=complex)
        if coef.ndim != 1 or coef.size % 2 == 0:
            raise InputError(f"a two-sided sequence needs a 1-d array of odd length, got shape {coef.shape}")
        coef.flags.writeable = False
        object.__setattr__(self, "coef", coef)

    @property
    def support(self) -> int:
        return self.coef.size // 2

    @staticmethod
    def delta(k: int = 0, value: complex = 1.0 + 0j) -> "TwoSidedSeq":
        coef = np.zeros(2 * abs(k) + 1, dtype=complex)
        coef[abs(k) + k] = value
        return TwoSidedSeq(coef)

    @staticmethod
    def indicator(n: int) -> "TwoSidedSeq":
        """The sequence equal to 1 on [-n, n] and 0 elsewhere."""
        return TwoSidedSeq(np.ones(2 * n + 1, dtype=complex))


def weighted_norm(a: TwoSidedSeq, w: Weight) -> float:
    """Hilbert norm (sum over k of w(k)^2 |a(k)|^2)^(1/2), an exact finite sum.

    The weight is evaluated at the nonzero indices only, and the terms
    accumulate as a running sum in ascending index order (not pairwise),
    so repeated evaluations are bit-identical.
    """
    return float(_norms(a.coef, w))


def _norms(v: np.ndarray, w: Weight) -> np.ndarray:
    """:func:`weighted_norm` of each row of the centred arrays ``v`` (..., 2m+1).

    The weight is evaluated once, at the indices where some row is nonzero.
    """
    cols = np.flatnonzero(np.any(v.reshape(-1, v.shape[-1]) != 0, axis=0))
    return weighted_norm_at(cols - v.shape[-1] // 2, v[..., cols], w)


@np.errstate(over="ignore", invalid="ignore")
def _weighted_squares(k: np.ndarray, v: np.ndarray, w: Weight) -> np.ndarray:
    """The h^w summands w(k_i)^2 (re(v_i)^2 + im(v_i)^2), an exact +0 where v_i = 0, over any batch axes of ``v``.

    Every weighted norm, tail and summability column is a running sum of these.
    """
    wk = w(k)
    return np.where(v != 0, (wk * wk) * (v.real * v.real + v.imag * v.imag), 0.0)


@np.errstate(over="ignore", invalid="ignore")
def weighted_norm_at(k: np.ndarray, v: np.ndarray, w: Weight) -> np.ndarray:
    """(sum_i w(k_i)^2 |v_i|^2)^(1/2) for integer indices ``k``, summed in their order.

    The summation of :func:`weighted_norm`: with ``k`` ascending and the
    zero values left out it gives the same bits.  ``v`` may carry leading
    batch axes, for one norm per row.  A zero entry of a row adds an exact
    +0, which leaves a running sum of nonnegative terms unchanged.
    """
    if k.size == 0:
        return np.zeros(v.shape[:-1])
    return np.sqrt(np.cumsum(_weighted_squares(k, v, w), axis=-1)[..., -1])


def _ordered(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Operand pairs (a, b), row by row, in the canonical order (x, y) of :func:`convolve`.

    Shorter operands come first; equal lengths are ordered by their
    (re, im) values in index order, and an equal pair keeps its order.
    """
    if a.shape[-1] != b.shape[-1]:
        return (a, b) if a.shape[-1] < b.shape[-1] else (b, a)
    fa, fb = a.view(float), b.view(float)
    diff = fa != fb
    first = np.argmax(diff, axis=-1)[..., None]
    keep = ~diff.any(axis=-1, keepdims=True) | (
        np.take_along_axis(fa, first, -1) < np.take_along_axis(fb, first, -1)
    )
    return np.where(keep, a, b), np.where(keep, b, a)


@np.errstate(over="ignore", invalid="ignore")
def _convolve_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_j x(k-j) y(j) for each row pair of x (..., nx) and y (..., ny), ascending j.

    One shifted copy of x per shift j is added to every row at once: the
    products x * y(j), spelled out in real arithmetic because numpy's
    complex multiply rounds differently from the scalar one, or +0 in the
    rows where y(j) = 0, so an inf * 0 never enters.  The running sums
    start at +0 and so never become -0, which makes each +0 an exact
    identity: every output has the bits of adding one shifted copy of x
    per nonzero y(j) in ascending j.  A shift with y(j) = 0 in every row
    is skipped.  The memory is O(rows x (nx + ny)).
    """
    nx, ny = x.shape[-1], y.shape[-1]
    out = np.zeros(x.shape[:-1] + (nx + ny - 1,), dtype=complex)
    re, im, xr, xi = out.real, out.imag, x.real.copy(), x.imag.copy()
    # y(j) of every row as a column, shift first, and buffers for one shift's products
    yj = np.moveaxis(y, -1, 0)[..., None]
    yr, yi, zero = yj.real.copy(), yj.imag.copy(), yj[..., 0] == 0
    skip, mixed = zero.reshape(ny, -1).all(axis=1).tolist(), zero.reshape(ny, -1).any(axis=1).tolist()
    pr, pi, t = np.empty((3,) + x.shape)
    for j in range(ny):
        if skip[j]:
            continue
        np.multiply(xr, yr[j], out=pr)
        pr -= np.multiply(xi, yi[j], out=t)
        np.multiply(xr, yi[j], out=pi)
        pi += np.multiply(xi, yr[j], out=t)
        if mixed[j]:
            pr[zero[j]] = 0.0
            pi[zero[j]] = 0.0
        re[..., j : j + nx] += pr
        im[..., j : j + nx] += pi
    return out


def convolve(a: TwoSidedSeq, b: TwoSidedSeq) -> TwoSidedSeq:
    """Convolution (a*b)(k) = sum_j a(k-j) b(j) by direct summation.

    The operand pair is put into a canonical order (x, y) first, so
    convolve(a, b) and convolve(b, a) run the identical summation and
    agree bit-exactly.  Each nonzero y(j) adds x shifted by j, so every
    output sums its terms in ascending j (see :func:`_convolve_rows`).
    """
    return TwoSidedSeq(_convolve_rows(*_ordered(a.coef, b.coef)))


def _ratios(a: np.ndarray, b: np.ndarray, ws: Weight, wr: Weight, wt: Weight) -> np.ndarray:
    """||a*b||_wt / (||a||_ws ||b||_wr) for each row pair of the centred arrays a and b."""
    den = _norms(a, ws) * _norms(b, wr)
    if np.any(den == 0.0):
        raise InputError("convolution ratio undefined for a zero factor")
    return _norms(_convolve_rows(*_ordered(a, b)), wt) / den


def convolution_ratio(a: TwoSidedSeq, b: TwoSidedSeq, s: float, r: float, t: float) -> float:
    """Ratio ||a*b||_{h^t} / (||a||_{h^s} ||b||_{h^r}) for one pair."""
    return float(_ratios(a.coef, b.coef, power_weight(s), power_weight(r), power_weight(t)))


# ----------------------------------------------------------------------
# Convolution boundedness report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConvTrials:
    """Trial sizes and sampling for the convolution boundedness report.

    The trial family follows from the regime: random pairs where the
    product is bounded, the symmetric indicator where it fails to hold.
    """

    sizes: tuple[int, ...] = (8, 16, 32)
    pairs_per_size: int = 50
    seed: int = 0


@dataclass(frozen=True)
class ConvSizeSample:
    size: int
    max_ratio: float
    mean_ratio: float


@dataclass(frozen=True)
class ConvLemmaReport:
    regime: str  # "bounded" | "fails to hold"
    samples: tuple[ConvSizeSample, ...]
    trend_ok: bool
    growth_factor: float  # max ratio at largest size / max ratio at smallest


def conv_lemma_report(s: float, r: float, t: float, trials: ConvTrials = ConvTrials()) -> ConvLemmaReport:
    """Sample convolution norm ratios over trial families and classify (s, r, t).

    The margin s + r - t > 1/2 marks the bounded regime; anything at or
    below it is reported as "fails to hold".  In the bounded regime the
    per-size maximum ratios should be non-increasing beyond the smallest
    size, up to 5 percent; in the failure regime the symmetric indicator
    family produces strictly increasing ratios.  A size's random pairs
    come from one draw, (re a, im a, re b, im b) per pair, and their
    ratios from one batched convolution.
    """
    if s < 0 or r < 0:
        raise InputError(f"convolution report requires s, r >= 0, got ({s:g}, {r:g})")
    if t > min(s, r):
        raise InputError(f"t={t:g} exceeds min(s, r)={min(s, r):g}: target order out of range")
    bounded = s + r - t > 0.5
    regime = "bounded" if bounded else "fails to hold"

    ws, wr, wt = power_weight(s), power_weight(r), power_weight(t)
    rng = np.random.default_rng(trials.seed)
    samples = []
    for n in trials.sizes:
        if bounded:
            draw = rng.standard_normal((trials.pairs_per_size, 4, 2 * n + 1))
            a, b = draw[:, 0] + 1j * draw[:, 1], draw[:, 2] + 1j * draw[:, 3]
        else:
            a = b = TwoSidedSeq.indicator(n).coef[None]
        ratios = _ratios(a, b, ws, wr, wt)
        samples.append(ConvSizeSample(size=n, max_ratio=float(max(ratios)), mean_ratio=float(np.mean(ratios))))

    trend_ok = all(
        samples[i + 1].max_ratio <= samples[i].max_ratio * 1.05
        for i in range(1, len(samples) - 1)
    )
    if len(samples) >= 2:
        growth = samples[-1].max_ratio / samples[0].max_ratio
    else:
        growth = 1.0
    return ConvLemmaReport(regime=regime, samples=tuple(samples), trend_ok=trend_ok, growth_factor=growth)


# ----------------------------------------------------------------------
# Weight class checks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OrClassReport:
    passed: bool
    worst_ratio: float  # the sampled ratio farthest from [1/c, c], as max(ratio, 1/ratio)
    worst_t: float
    worst_lambda: float
    a: float
    c: float


def check_or_class(w: Weight, a: float, c: float, t_max: float) -> OrClassReport:
    """Check the scaling-ratio condition w(lam*t)/w(t) in [1/c, c] on a grid.

    Samples t in [1, t_max] at step 1 and 33 points lam in [1, a];
    reports the extremal ratio and where it occurred.  Grid pairs where a
    table weight cannot be evaluated are skipped, and t stops at the end
    of a table.  a and c must be finite and above 1, and t_max must lie in
    [1, 1e6]: the grid takes 33 ratios per unit of t.
    """
    if not (math.isfinite(a) and math.isfinite(c) and a > 1 and c > 1):
        raise InputError(f"scaling check requires finite a > 1 and c > 1, got a={a!r}, c={c!r}")
    if not 1 <= t_max <= _OR_TMAX:
        raise InputError(f"scaling check requires t_max in [1, {_OR_TMAX:g}], got {t_max!r}")
    bound = w.max_index
    ts = np.arange(1.0, min(float(t_max), bound) + 1e-9, 1.0)
    lams = np.linspace(1.0, a, 33)
    base = w.at_real(ts)
    worst = 1.0
    worst_t = 1.0
    worst_lam = 1.0
    for lam in lams:
        tt = lam * ts
        valid = tt <= bound
        if not np.any(valid):
            continue
        with np.errstate(over="ignore", divide="ignore"):
            ratio = w.at_real(tt[valid]) / base[valid]
            dev = np.maximum(ratio, 1.0 / ratio)
        i = int(np.argmax(dev))
        if not math.isfinite(dev[i]):
            raise NumericalError(
                f"scaling ratio of weight {w.describe()} overflows float64 at t={ts[valid][i]:g}, lambda={lam:g}"
            )
        if dev[i] > worst:
            worst = float(dev[i])
            worst_t = float(ts[valid][i])
            worst_lam = float(lam)
    return OrClassReport(
        passed=bool(worst <= c), worst_ratio=worst, worst_t=worst_t,
        worst_lambda=worst_lam, a=a, c=c,
    )


@dataclass(frozen=True)
class SandwichReport:
    s: float
    c_low: float  # min over k of w(k) / k^s
    c_high: float  # max over k of w(k) / k^(1+s)
    lower_slope: float  # log-log trend of w(k) / k^s over the upper half range
    upper_slope: float  # log-log trend of w(k) / k^(1+s)
    upper_diverging: bool
    passed: bool


def check_sandwich(w: Weight, s: float, k_max: int) -> SandwichReport | None:
    """Report whether w(k) sits between k^s and k^(1+s) at finite scale.

    The two-sided comparison is asymptotic, so this emits constants plus a
    log-log trend slope over the upper half of the range rather than a
    hard assertion: a lower ratio trending to zero or an upper ratio
    trending up marks a divergence.  A slope needs two points, so for
    k_max < 2 the check does not apply and returns None.
    """
    if not (math.isfinite(s) and s >= 0):
        raise InputError(f"sandwich check needs a finite s >= 0, got {s!r}")
    if k_max < 2:
        return None
    ks = np.arange(1, k_max + 1, dtype=float)
    wk = np.asarray(w(np.arange(1, k_max + 1)))
    with np.errstate(over="ignore", divide="ignore"):
        low = wk / ks**s
        high = wk / ks ** (1.0 + s)
    if not (np.all(np.isfinite(low) & (low > 0.0)) and np.all(np.isfinite(high) & (high > 0.0))):
        raise NumericalError(f"sandwich ratios of weight {w.describe()} at s={s:g} leave the positive float64 range")
    half = max(2, k_max // 2)
    logs = np.log(ks[half - 1 :])
    lower_slope = float(np.polyfit(logs, np.log(low[half - 1 :]), 1)[0])
    upper_slope = float(np.polyfit(logs, np.log(high[half - 1 :]), 1)[0])
    lower_vanishing = lower_slope < -SANDWICH_SLOPE_TOL
    upper_diverging = upper_slope > SANDWICH_SLOPE_TOL
    c_low = float(np.min(low))
    c_high = float(np.max(high))
    return SandwichReport(
        s=s, c_low=c_low, c_high=c_high,
        lower_slope=lower_slope, upper_slope=upper_slope, upper_diverging=upper_diverging,
        passed=bool(c_low > 0 and not lower_vanishing and not upper_diverging),
    )
