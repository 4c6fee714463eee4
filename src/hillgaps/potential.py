"""1-periodic real-valued potentials stored by Fourier coefficient.

Only the mean and the coefficients at positive frequencies are stored;
reads at negative frequencies return the conjugate, so reality of the
potential is structural rather than validated data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, as_float, as_int
from .sequence_spaces import TwoSidedSeq, Weight, weighted_norm_at


@dataclass(frozen=True)
class Potential:
    """Fourier data of a 1-periodic real potential: mean plus c_k for k >= 1."""

    mean: float
    coeffs: tuple[tuple[int, complex], ...]  # ascending k >= 1, zeros dropped
    _lookup: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_lookup", dict(self.coeffs))

    @property
    def cutoff(self) -> int:
        """Largest frequency with a nonzero coefficient."""
        return self.coeffs[-1][0] if self.coeffs else 0

    def coefficient(self, k: int) -> complex:
        """Two-sided read: c(0) is the mean, c(-k) = conj(c(k))."""
        if k == 0:
            return complex(self.mean)
        if k < 0:
            return self._lookup.get(-k, 0j).conjugate()
        return self._lookup.get(k, 0j)

    def evaluate(self, x) -> float | np.ndarray:
        """Value of the potential at x (reduced mod 1); exact 1-periodicity."""
        arr = np.asarray(x, dtype=float)
        xr = arr - np.floor(arr)
        out = np.full(xr.shape, self.mean, dtype=float)
        for k, v in self.coeffs:
            out = out + 2.0 * (np.exp(2j * np.pi * k * xr) * v).real
        if arr.ndim == 0:
            return float(out)
        return out

    def two_sided(self) -> TwoSidedSeq:
        """Full coefficient sequence on the integers with conjugate symmetry."""
        coef = np.zeros(2 * self.cutoff + 1, dtype=complex)
        coef[self.cutoff] = self.mean
        for k, v in self.coeffs:
            coef[self.cutoff + k] = v
            coef[self.cutoff - k] = v.conjugate()
        return TwoSidedSeq(coef)

    def nonzero_coefficients(self) -> list[tuple[int, complex]]:
        """(k, c(k)) for every nonzero c(k) on the integers, mean included, in ascending k."""
        mid = [(0, complex(self.mean))] if self.mean != 0.0 else []
        return [(-k, v.conjugate()) for k, v in reversed(self.coeffs)] + mid + list(self.coeffs)

    def without_mean(self) -> "Potential":
        return Potential(mean=0.0, coeffs=self.coeffs)

    def l1_bound(self) -> float:
        """Upper bound for max |q(x)| - useful for spectral brackets."""
        return abs(self.mean) + 2.0 * sum(abs(v) for _, v in self.coeffs)


def from_fourier(mean: float, coeffs) -> Potential:
    """Build a potential from its mean and coefficients at k >= 1.

    Rejects non-finite values, indices k <= 0, and duplicate indices.
    """
    mean = float(mean)
    if not math.isfinite(mean):
        raise InputError("potential mean must be finite")
    seen: dict[int, complex] = {}
    for k, v in coeffs:
        k = int(k)
        v = complex(v)
        if k <= 0:
            raise InputError(f"coefficient index k={k} must be >= 1")
        if k in seen:
            raise InputError(f"duplicate coefficient index k={k}")
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise InputError(f"coefficient at k={k} must be finite")
        seen[k] = v
    items = tuple((k, v) for k, v in sorted(seen.items()) if v != 0j)
    return Potential(mean=mean, coeffs=items)


def hormander_norm(q: Potential, w: Weight) -> float:
    """Weighted norm of the full coefficient sequence (circle case).

    The weighted sequence norm of the two-sided coefficients, mean included
    with weight 1 at the origin.  It sums over the nonzero coefficients
    only, in ascending index, so it costs O(number of coefficients) however
    large the cutoff, and has the bits of
    :func:`hillgaps.sequence_spaces.weighted_norm` on ``q.two_sided()``.
    """
    terms = q.nonzero_coefficients()
    k = np.array([a for a, _ in terms], dtype=np.int64)
    v = np.array([c for _, c in terms], dtype=complex)
    return float(weighted_norm_at(k, v, w))


# ----------------------------------------------------------------------
# Named test potentials
# ----------------------------------------------------------------------

_LAME_MAX_CUTOFF = 4096  # the Galerkin truncation bound: a larger cutoff cannot be solved


def mathieu(c: float) -> Potential:
    """q(x) = 2 c cos(2 pi x): the single-harmonic potential."""
    return from_fourier(0.0, [(1, c)])


def lame(ell: int, t: float) -> Potential:
    """Mean-zero part of ell (ell + 1) wp(x + tau / 2), periods 1 and tau = i t.

    Exactly ell gaps are open.  With p = exp(-pi t) the coefficients are
    c(k) = -ell (ell + 1) 4 pi^2 k p^k / (1 - p^(2k)); the cutoff is the
    first k with |c(k)| <= eps |c(1)|, and must not exceed 4096.
    """
    if ell < 1 or ell != int(ell):
        raise InputError(f"lame needs an integer ell >= 1, got ell={ell!r}")
    if not (math.isfinite(t) and t > 0.0):
        raise InputError(f"lame needs a finite t > 0, got t={t!r}")
    k = np.arange(1, _LAME_MAX_CUTOFF + 1)
    scale = -ell * (ell + 1) * 4.0 * math.pi**2
    with np.errstate(over="ignore"):  # a c(1) that overflows is refused by from_fourier
        c = scale * k * np.exp(-math.pi * t * k) / -np.expm1(-2.0 * math.pi * t * k)  # 1 - p^(2k) = -expm1
    below = np.abs(c) <= np.finfo(float).eps * abs(c[0])
    if not below.any():
        raise InputError(f"lame needs a cutoff above {_LAME_MAX_CUTOFF} at t={t!r}")
    cutoff = int(np.argmax(below)) + 1
    return from_fourier(0.0, zip(k[:cutoff].tolist(), c[:cutoff].tolist()))


def two_harmonic(c1: float, c2: float) -> Potential:
    return from_fourier(0.0, [(1, c1), (2, c2)])


def power_decay(p: float, cutoff: int) -> Potential:
    """Coefficients (1 + 2k)^(-p) for k = 1..cutoff; needs p > 1/2."""
    if p <= 0.5:
        raise InputError(f"power_decay needs p > 1/2, got p={p:g}")
    if cutoff < 1:
        raise InputError("power_decay needs cutoff >= 1")
    return from_fourier(0.0, [(k, (1.0 + 2.0 * k) ** (-p)) for k in range(1, cutoff + 1)])


def random_hs(s: float, cutoff: int, seed: int) -> Potential:
    """Random-phase coefficients with magnitude (1 + 2k)^(-(s+1)); reproducible by seed."""
    if cutoff < 1:
        raise InputError("random_hs needs cutoff >= 1")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=cutoff)
    coeffs = [
        (k, np.exp(1j * theta[k - 1]) * (1.0 + 2.0 * k) ** (-(s + 1.0)))
        for k in range(1, cutoff + 1)
    ]
    return from_fourier(0.0, coeffs)


# ----------------------------------------------------------------------
# JSON form
# ----------------------------------------------------------------------


def potential_from_dict(doc: dict) -> Potential:
    if not isinstance(doc, dict):
        raise InputError("potential document must be a JSON object")
    mean = as_float(doc.get("mean", 0.0), "potential mean")
    raw = doc.get("coeffs", [])
    if not isinstance(raw, list):
        raise InputError("potential 'coeffs' must be a list")
    coeffs = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "k" not in item:
            raise InputError(f"coefficient entry {i} must be an object with 'k'")
        k = as_int(item["k"], f"coefficient entry {i} 'k'")
        re = as_float(item.get("re", 0.0), f"coefficient at k={k} 're'")
        im = as_float(item.get("im", 0.0), f"coefficient at k={k} 'im'")
        coeffs.append((k, complex(re, im)))
    return from_fourier(mean, coeffs)


def potential_to_dict(q: Potential) -> dict:
    return {
        "mean": q.mean,
        "coeffs": [{"k": k, "re": v.real, "im": v.imag} for k, v in q.coeffs],
    }


def load_potential(path: str) -> Potential:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise InputError(f"cannot read potential file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return potential_from_dict(doc)
