"""Gap lengths, the second-order coefficient correction, and residual reports.

The leading term of the n-th gap length is twice the modulus of the n-th
Fourier coefficient; the correction rho(n) sharpens it.  Everything here
is an exact finite sum over the potential's support, so the two summation
routes for rho (direct, and convolution of the divided coefficients) can
be compared within a derived rounding allowance.  Infinite-dimensional
membership claims are never asserted: they are rendered as exact
finite-sum inequalities plus plateau and slope reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .potential import Potential, hormander_norm
from .sequence_spaces import TwoSidedSeq, Weight, _weighted_squares, convolve, power_weight, weighted_norm_at
from .spectrum import BandEdges


def rho(q: Potential, n: int | np.ndarray) -> complex | np.ndarray:
    """Second-order gap correction at index n, as a direct exact sum.

    For q = sum_k c(k) exp(2 pi i k x), reducing the operator onto the
    resonant pair exp(+-i pi n x) gives at second order

        rho(n) = 1/(4 pi^2) * sum_{a+b=n, a,b != 0} c(a) c(b) / (a b),

    summed in ascending a over the nonzero coefficients c(a), a != 0, with
    b = n - a nonzero and c(b) != 0.  The terms skipped are exact zeros, so
    this has the bits of the sum over every a = n-K..K for cutoff K, in
    O(number of coefficients) steps however large K is.  Vanishes
    identically for n > 2K.  ``n`` is one int, for one complex, or an
    integer array, for an array of the same values at once (see
    :func:`_rho_at`).
    """
    if np.ndim(n) == 0:
        if n < 1:
            raise InputError("rho is defined for n >= 1")
        return complex(_rho_at(q, [n])[0]) if n <= 2 * q.cutoff else 0j
    ns = np.asarray(n)
    if ns.size and ns.min() < 1:
        raise InputError("rho is defined for n >= 1")
    return _rho_at(q, ns)


def _quot(re: np.ndarray, im: np.ndarray, d) -> tuple[np.ndarray, np.ndarray]:
    """(re + i im) / d for real nonzero d, as CPython before 3.14 divides a complex by a real.

    That division takes d as d + 0i and scales by ratio = 0/d and
    denom = d + 0 * ratio; the ratio terms are signed zeros that can flip
    the sign of a zero part, and an inf meets them as NaN.  CPython 3.14
    divides each part by d instead.  The older rule is kept on purpose,
    so the results do not depend on the Python version.
    """
    ratio = 0.0 / d
    denom = d + 0.0 * ratio
    return (re + im * ratio) / denom, (im - re * ratio) / denom


# Largest number of terms in one block of the rho kernel: 512 KiB of
# complex values, whatever the number of indices and coefficients.
_RHO_BLOCK = 1 << 15


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _rho_at(q: Potential, ns: np.ndarray) -> np.ndarray:
    """rho(n) for each index of ``ns`` (every one >= 1), with the bits of the scalar sum.

    For each n the terms c(a) c(n-a) / (a (n-a)) are summed in ascending a
    over the nonzero coefficients, a != 0; c(n-a) is looked up among them
    by binary search, so the memory is O(indices x coefficients), in
    blocks of at most _RHO_BLOCK terms, and never O(cutoff).  The complex
    product and the division by the integer a (n-a) are spelled out as
    CPython computes them (see :func:`_quot`).  A term has |a|, |n-a| <= K
    for the cutoff K.  While K < 2^53 the indices are int64, where n - a
    can wrap only far below -K, and a (n-a) is formed in float64, which is
    the integer product rounded once, as Python rounds it; past that they
    are Python integers, each product exact before its one rounding.  A
    term that Python skips is an exact +0 here, which leaves a running sum
    that starts at +0 unchanged, and the sum is np.add.accumulate from a
    zero column, as sequential as Python's.
    """
    small = q.cutoff < 2**53
    itype = np.int64 if small else object
    terms = [(a, c) for a, c in q.nonzero_coefficients() if a != 0]
    keys = np.array([a for a, _ in terms], dtype=itype)
    vals = np.array([c for _, c in terms], dtype=complex)
    ns = np.asarray(ns, dtype=itype)
    ar, ai = vals.real, vals.imag
    out = np.zeros(ns.size, dtype=complex)
    rows = max(1, _RHO_BLOCK // max(1, keys.size))
    for i0 in range(0, ns.size, rows):
        b = ns[i0 : i0 + rows, None] - keys
        pos = np.minimum(np.searchsorted(keys, b), keys.size - 1)
        cb = vals[pos]
        hit = (keys[pos] == b) & (cb != 0)
        br, bi = cb.real, cb.imag
        den = keys.astype(float) * b if small else (keys * b).astype(float)
        tr, ti = _quot(ar * br - ai * bi, ar * bi + ai * br, den)
        acc = np.zeros((b.shape[0], keys.size + 1), dtype=complex)
        acc.real[:, 1:] = np.where(hit, tr, 0.0)
        acc.imag[:, 1:] = np.where(hit, ti, 0.0)
        out[i0 : i0 + rows] = np.add.accumulate(acc, axis=1)[:, -1]
    re, im = _quot(out.real, out.imag, 4.0 * math.pi * math.pi)
    out.real, out.imag = re, im
    return out


def rho_via_convolution(q: Potential, n_max: int) -> np.ndarray:
    """The same correction through the convolution of divided coefficients.

    With a(k) = c(k)/k (and a(0) = 0) the correction equals (a*a)(n) up
    to the 1/(4 pi^2) factor; the excluded indices of the direct sum are
    the terms that a(0) = 0 kills.  One convolution serves every index:
    the result holds rho(n) for n = 1..n_max.  Requires a mean-zero
    potential, matching the normalization that makes a(0) = 0 the honest
    value.
    """
    if n_max < 1:
        raise InputError("rho is defined for n >= 1")
    if q.mean != 0.0:
        raise InputError("rho_via_convolution requires a mean-zero potential")
    k = np.arange(-q.cutoff, q.cutoff + 1)
    k[q.cutoff] = 1  # c(0) = 0, so a(0) = 0
    c = q.two_sided().coef
    a = np.zeros_like(c)
    a.real, a.imag = _quot(c.real, c.imag, k)
    divided = TwoSidedSeq(a)
    square = convolve(divided, divided).coef[2 * q.cutoff + 1 :][:n_max]  # (a*a)(n) for n >= 1
    out = np.zeros(n_max, dtype=complex)
    out.real[: square.size], out.imag[: square.size] = _quot(square.real, square.imag, 4.0 * math.pi * math.pi)
    return out


def rho_routes_allowance(q: Potential, n_max: int) -> np.ndarray:
    """Rounding allowance for |rho(q, n) - rho_via_convolution(q, n_max)[n - 1]|, n = 1..n_max.

    Both routes sum the terms t(a) = c(a) c(n-a) / (a (n-a)) of the same
    coefficients, at most m nonzero for the m nonzero c(k), and divide by
    the same float 4 pi^2.  With u = eps/2, per part and to first order,
    each term is within 4u |t(a)| in either route: the direct route rounds
    the complex product (within 2u |c(a) c(n-a)|), a (n-a) and the
    quotient; the convolution route rounds each c(k)/k (moving the product
    by 2u |t(a)|) and then the product.  Each running sum adds
    (m - 1) u sum_a |t(a)| and the last division u times the result.  So
    the difference is within sqrt(2) (m + 4) eps S(n), where S(n) is
    sum_a |t(a)| / (4 pi^2).  A rounding into the subnormal range errs by
    up to eta/2 instead (eta the smallest subnormal), and a rounded c(k)/k
    carries that through its partner's modulus: at most
    sqrt(2) (m + ||c(k)/k||_1 + 1) eta more.  The allowance is twice both
    bounds.  q must have mean zero and a finite h^1 norm, which keeps
    every product and sum finite.
    """
    k = np.abs(np.arange(-q.cutoff, q.cutoff + 1))
    k[q.cutoff] = 1  # c(0) = 0
    modulus = np.abs(q.two_sided().coef)
    divided = modulus / k
    s = np.convolve(divided, divided)[2 * q.cutoff + 1 :][:n_max] / (4.0 * math.pi * math.pi)
    s = np.pad(s, (0, n_max - s.size))
    eps, eta = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    m = np.count_nonzero(modulus)
    return 2.0 * math.sqrt(2.0) * ((m + 4) * eps * s + (m + divided.sum() + 1) * eta)


@dataclass(frozen=True)
class GapReport:
    """Per-index gap data: lengths, leading terms, corrections, residuals.

    Columns are stored as computed: ``gamma`` = ``edges.gaps()``, ``two_qhat``
    = 2|c(n)|, ``resid_plain`` = gamma - two_qhat, which recomputes bit-identically
    from them, and ``resid_corrected`` = gamma - 2|c(n) + rho|, which needs the
    complex c(n) the report does not keep.
    """

    n: np.ndarray
    gamma: np.ndarray
    two_qhat: np.ndarray
    rho: np.ndarray  # complex
    resid_plain: np.ndarray
    resid_corrected: np.ndarray
    method: str

    @property
    def n_max(self) -> int:
        return int(self.n[-1])


def residuals(q: Potential, edges: BandEdges) -> GapReport:
    """Populate the gap report for a potential and its computed edges."""
    gamma = edges.gaps()
    ns = np.arange(1, edges.n_max + 1)
    qn = np.array([q.coefficient(int(n)) for n in ns])
    rhos = rho(q, ns)
    two_qhat = 2.0 * np.abs(qn)
    resid_plain = gamma - two_qhat
    resid_corrected = gamma - 2.0 * np.abs(qn + rhos)
    return GapReport(
        n=ns,
        gamma=gamma,
        two_qhat=two_qhat,
        rho=rhos,
        resid_plain=resid_plain,
        resid_corrected=resid_corrected,
        method=edges.method,
    )


# ----------------------------------------------------------------------
# Weighted tail tables and decay fits
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TailTable:
    """Cumulative weighted sums sum_{n<=m} w(n)^2 r(n)^2 with increments."""

    m: np.ndarray
    partial_sum: np.ndarray
    increment: np.ndarray


def weighted_tail_report(r: np.ndarray, w: Weight, n_range: tuple[int, int]) -> TailTable:
    """Partial sums of the weighted squares of a one-sided sequence.

    ``r`` is indexed from n = 1; the table rows cover m in ``n_range``
    (inclusive) while each partial sum accumulates from n = 1.
    """
    r = np.asarray(r, dtype=float)
    lo, hi = n_range
    if not 1 <= lo <= hi <= r.size:
        raise InputError(f"n_range {n_range} outside the sequence length {r.size}")
    terms = _weighted_squares(np.arange(1, r.size + 1), r, w)
    with np.errstate(over="ignore"):
        csum = np.cumsum(terms)
    if not np.isfinite(csum[hi - 1]):
        raise NumericalError(f"weighted tail of {w.describe()} overflows float64 by m = {hi}")
    return TailTable(m=np.arange(lo, hi + 1), partial_sum=csum[lo - 1 : hi], increment=terms[lo - 1 : hi])


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    rms_residual: float
    used_points: int
    zero_count: int


def decay_slope(r: np.ndarray, n_lo: int, n_hi: int) -> SlopeFit:
    """Least-squares slope of log |r(n)| against log n over [n_lo, n_hi].

    Exact zeros are excluded from the fit and counted (collapsed gaps of
    symmetric potentials produce exact zeros).  Fewer than five usable
    points is an error.
    """
    r = np.asarray(r, dtype=float)
    if n_hi <= n_lo + 4:
        raise InputError("decay fit needs n_hi > n_lo + 4")
    if not 1 <= n_lo <= n_hi <= r.size:
        raise InputError(f"fit range [{n_lo}, {n_hi}] outside the sequence length {r.size}")
    ns = np.arange(n_lo, n_hi + 1)
    vals = r[n_lo - 1 : n_hi]
    nz = vals != 0.0
    zero_count = int(np.sum(~nz))
    if int(np.sum(nz)) < 5:
        raise InputError(f"only {int(np.sum(nz))} nonzero points in [{n_lo}, {n_hi}]; need 5")
    x = np.log(ns[nz].astype(float))
    y = np.log(np.abs(vals[nz]))
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    rms = float(np.sqrt(np.mean((y - fit) ** 2)))
    return SlopeFit(slope=float(slope), rms_residual=rms, used_points=int(np.sum(nz)), zero_count=zero_count)


def default_fit_start(q: Potential) -> int:
    """Default start of the asymptotic range: max(4, 2 ceil ||q||_{h^0})."""
    norm = hormander_norm(q, power_weight(0.0))
    if not math.isfinite(norm):
        raise NumericalError("potential h^0 norm overflows float64, so there is no default fit range; give one")
    return max(4, 2 * math.ceil(norm))


# ----------------------------------------------------------------------
# Finite-scale verification reports
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MembershipReport:
    """Finite-scale comparison of gap-sequence and coefficient-sequence norms.

    The triangle inequality |gamma_norm - two_qhat_norm| <= resid_norm
    holds for the exact norms and is asserted up to the rounding of the
    computed ones (see :func:`verify_membership_consistency`); the norm
    ratio is diagnostic only since membership itself is asymptotic.
    """

    gamma_norm: float
    two_qhat_norm: float
    resid_plain_norm: float
    ratio: float  # gamma_norm / two_qhat_norm (inf when the denominator is 0)
    triangle_ok: bool
    triangle_slack: float  # resid_norm - |gamma_norm - two_qhat_norm|


def verify_membership_consistency(w: Weight, report: GapReport, n_range: tuple[int, int]) -> MembershipReport:
    """Compare weighted partial norms of gap lengths and coefficient moduli, from one batched running sum.

    The triangle check allows for rounding.  With a = gamma, b = two_qhat,
    r = fl(a - b) as stored, m terms and u = eps/2: |N(a) - N(b)| <= N(a - b)
    holds exactly for the exact norms N under the computed weights.  A term
    w^2 (v^2 + 0) takes three roundings, the running sum m - 1 and the sqrt
    one, so a computed norm N' is within e = (m + 3) u (1 + O(mu)) of N;
    and N(r) >= (1 - u) N(a - b).  With the rounding of |N'(a) - N'(b)|,

        |N'(a) - N'(b)| - N'(r) <= (e + 2u) N'(r) + e (N'(a) + N'(b)) + O((mu)^2)
                                <= (m + 5) u (N'(a) + N'(b) + N'(r)) + O((mu)^2).

    ``triangle_ok`` allows twice that first-order bound, (m + 5) eps times
    the sum of the three norms, assuming no term falls below 2^-1022 (where
    a product's error is absolute).  ``triangle_slack`` stays raw.
    """
    lo, hi = n_range
    if not 1 <= lo <= hi <= report.n_max:
        raise InputError(f"n_range {n_range} outside the report range 1..{report.n_max}")
    rows = np.stack([report.gamma, report.two_qhat, report.resid_plain])[:, lo - 1 : hi]
    norms = weighted_norm_at(np.arange(lo, hi + 1), rows, w)
    if not np.all(np.isfinite(norms)):
        raise NumericalError(f"weighted partial norm under {w.describe()} overflows float64 by n = {hi}")
    gamma_norm, two_qhat_norm, resid_norm = norms.tolist()
    diff = abs(gamma_norm - two_qhat_norm)
    allowance = (hi - lo + 6) * np.finfo(float).eps * (gamma_norm + two_qhat_norm + resid_norm)
    return MembershipReport(
        gamma_norm=gamma_norm,
        two_qhat_norm=two_qhat_norm,
        resid_plain_norm=resid_norm,
        ratio=(gamma_norm / two_qhat_norm if two_qhat_norm > 0 else math.inf),
        triangle_ok=bool(diff <= resid_norm + allowance),
        triangle_slack=resid_norm - diff,
    )


@dataclass(frozen=True)
class SummabilityReport:
    """Square-summability of gap lengths against the coefficient norm, integer order.

    Emits the partial sums of (1+2n)^{2s} gamma(n)^2 next to the partial
    sums of the squared coefficient norm of matching order; both finite,
    plateau behaviour left to the reader.
    """

    s: int
    m: np.ndarray
    gap_partial: np.ndarray
    coeff_partial: np.ndarray


def verify_marchenko_ostrovskii(
    q: Potential, s: int, report: GapReport, n_range: tuple[int, int]
) -> SummabilityReport:
    """Running sums over m in ``n_range`` of the h^s summands of gamma(1..m), and of mean^2 plus twice c(1..m)'s."""
    if s < 0 or int(s) != s:
        raise InputError("summability order s must be a nonnegative integer")
    s = int(s)
    lo, hi = n_range
    if not 1 <= lo <= hi <= report.n_max:
        raise InputError(f"n_range {n_range} outside the report range 1..{report.n_max}")
    # float ** raises where numpy would return inf: an overflowing weight is
    # the order's fault, an overflowing sum of a valid potential is float64's
    try:
        (1.0 + 2.0 * report.n_max) ** (2 * s)
    except OverflowError as exc:
        raise InputError(
            f"summability order s={s} overflows the weight (1+2m)^(2s) for m <= {report.n_max}"
        ) from exc
    w = power_weight(s)
    ks = np.arange(report.n_max + 1)
    coeff_terms = _weighted_squares(ks, np.array([q.coefficient(int(k)) for k in ks]), w)
    with np.errstate(over="ignore"):
        coeff_terms[1:] *= 2.0
        coeff_csum = np.cumsum(coeff_terms)[1:]
        gap_csum = np.cumsum(_weighted_squares(report.n, report.gamma, w))
    for name, csum in (("coefficient norm", coeff_csum), ("gap sum", gap_csum)):
        if not math.isfinite(csum[-1]):
            raise NumericalError(f"order-{s} {name} overflows float64 for this potential")
    return SummabilityReport(
        s=s, m=np.arange(lo, hi + 1), gap_partial=gap_csum[lo - 1 : hi], coeff_partial=coeff_csum[lo - 1 : hi]
    )
