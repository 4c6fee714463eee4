"""Band edges of -u'' + q u by two independent numerical routes.

Route one truncates the periodic and semiperiodic eigenvalue problems in
a real cos/sin Fourier basis and diagonalizes the resulting real symmetric
matrices; for an even potential the cos and sin blocks decouple and are
solved apart.
Route two integrates the fundamental system across one period with a
fixed-step fourth-order scheme and locates the band edges as the roots of
D = trace^2 - 4 of the monodromy matrix; for an even potential it
integrates half the period and folds the monodromy from it.  The two
routes share no numerics, which makes their agreement a meaningful check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, InputError, IntegrationError, InterlacingError, NumericalError
from .potential import Potential

# Interlacing / gap-sign tolerances, scale-aware: tol(x) = ATOL + RTOL * |x|
EDGE_ATOL = 1e-10
EDGE_RTOL = 1e-10

_WRONSKIAN_LIMIT = 1e-6  # integration failure threshold
_ROOT_TOL = 1e-12  # relative: refine until width <= _ROOT_TOL * (1 + |lambda|)
_MAX_REFINE = 200  # refinement steps before a bracket that will not close is an error
_GAP_RTOL = 1e-3  # an edge of a gap of width gamma refines to at most _GAP_RTOL * gamma
_MAX_JUMPS = 40  # parabola jumps on one gap before its best point stands as a double root
# scale of the rounding bound B of D = trace^2 - 4 (see _Propagator); against
# extended precision, within a gap width of every gap centre, the error of D
# stayed below 0.36 B, but on the zero potential, whose equal steps round
# alike, it reached 1.1 B at n = 8 and 3.2 B at n = 16
_D_ROUNDING = 64.0 * np.finfo(float).eps
_MAX_STEP_RETRIES = 2  # restarts of a discriminant solve, each at twice the steps, on witness failure
_BLOCK_ELEMS = 1 << 14  # steps x lambdas per block of step propagators: bounds sweep memory
_SWEEP_SPACE = 7 * (_BLOCK_ELEMS + _BLOCK_ELEMS // 2)  # floats of sweep buffers for a batch of <= _BLOCK_ELEMS / 2
_MAX_TRUNC = 4096  # largest Galerkin truncation: a dim-8193 float64 matrix is 0.54 GB
_MAX_STEPS = 65536  # largest integrator step count: a sweep at it is 32x one at the default
_DEFAULT_STEPS = 2048  # steps of DiscriminantConfig, and the most a solve with none given chooses
_STEP_CANDIDATES = (256, 512, 1024)  # counts a solve with none given tries first (see _chosen_propagator)
# edge errors ran at up to 12.2 times the estimate on the tests' potentials, and
# tier-1 holds power_decay(2, 32) n = 28 within 1e-11 of Galerkin, _edge_tol / 10
_RICHARDSON_SAFETY = 16.0 * 10.0
_SCAN_POINTS = 9  # samples of D per inter-band window, its two band probes included
_TAN_LIMIT = math.pi / 4  # largest half angle a step propagator takes from tan (see _step_deviations)


def _edge_tol(x: float) -> float:
    return EDGE_ATOL + EDGE_RTOL * abs(x)


@dataclass(frozen=True)
class GalerkinConfig:
    """Truncation policy for the Fourier basis solver.

    ``n_trunc`` is the number of retained frequencies per side; when left
    unset it defaults to max(64, 2 n_max + 16, ceil(n_max / 2) + 2 K).
    Edge n lives near basis index n / 2, so the highest reported edge sits
    at index ceil(n_max / 2), and c(k) couples index j only to j +- k with
    |k| <= K: ceil(n_max / 2) + 2 K is exactly two full coupling hops past
    it.  2 n_max + 16 is the safety floor and 64 keeps small problems as
    they are.  Rayleigh-Ritz edges converge from above, quadratically in
    the eigenvector tail cut off, while the eigensolver's rounding floor
    grows like n_trunc^2, so a truncation larger than this costs accuracy
    as well as time.  Either way it must lie in [2 n_max + 16, 4096].
    """

    n_trunc: int | None = None

    def resolve(self, n_max: int, cutoff: int) -> int:
        n = self.n_trunc if self.n_trunc is not None else max(64, 2 * n_max + 16, (n_max + 1) // 2 + 2 * cutoff)
        if n < 2 * n_max + 16:
            raise InputError(f"n_trunc={n} below the safety floor {2 * n_max + 16}")
        if n > _MAX_TRUNC:
            raise InputError(
                f"n_trunc={n} exceeds the largest truncation {_MAX_TRUNC} "
                f"(n_max={n_max}, potential cutoff K={cutoff})"
            )
        return n


@dataclass(frozen=True)
class DiscriminantConfig:
    """Integrator step count for the monodromy-trace solver, in [256, 65536]."""

    steps: int = _DEFAULT_STEPS

    def __post_init__(self):
        if self.steps < 256:
            raise InputError(f"steps={self.steps} below the minimum 256")
        if self.steps > _MAX_STEPS:
            raise InputError(f"steps={self.steps} exceeds the largest step count {_MAX_STEPS}")


@dataclass(frozen=True)
class BandEdges:
    """lambda_0 plus the ordered edge pairs (lambda_n^-, lambda_n^+).

    Pair n comes from the periodic problem for even n and the semiperiodic
    problem for odd n.  ``resolution`` records the truncation size or
    integrator step count actually used.  Construction raises
    InterlacingError unless every edge is finite, no pair has lambda^+ <
    lambda^-, and each pair starts above the previous edge up to tolerance.
    """

    lambda0: float
    pairs: tuple[tuple[float, float], ...]
    method: str
    resolution: int

    def __post_init__(self):
        if not math.isfinite(self.lambda0):
            raise InterlacingError(0, f"non-finite lambda_0 = {self.lambda0!r}")
        prev_hi = self.lambda0
        for n, (lo, hi) in enumerate(self.pairs, start=1):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InterlacingError(n, f"non-finite edge pair ({lo!r}, {hi!r})")
            if lo < prev_hi - _edge_tol(max(abs(prev_hi), abs(lo), abs(hi))):
                raise InterlacingError(n, f"lambda_{n}^- = {lo!r} not above previous edge {prev_hi!r}")
            if hi < lo:
                raise InterlacingError(n, f"negative gap: lambda_{n}^+ = {hi!r} < lambda_{n}^- = {lo!r}")
            prev_hi = hi

    @property
    def collapsed(self) -> tuple[bool, ...]:
        """Flags the pairs the solver reported as a double root (identical edges)."""
        return tuple(hi == lo for lo, hi in self.pairs)

    @property
    def n_max(self) -> int:
        return len(self.pairs)

    @staticmethod
    def parity(n: int) -> str:
        return "periodic" if n % 2 == 0 else "semiperiodic"

    def gaps(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.pairs])

    def all_edges(self) -> np.ndarray:
        out = [self.lambda0]
        for lo, hi in self.pairs:
            out.extend((lo, hi))
        return np.array(out)


# ----------------------------------------------------------------------
# Fourier basis route
# ----------------------------------------------------------------------


@np.errstate(over="ignore")  # entries that overflow are reported as non-finite edges
def galerkin_matrix(q: Potential, parity: str, n_trunc: int) -> np.ndarray:
    """Truncated operator matrix in the real periodic or semiperiodic basis.

    A real potential maps real functions to real functions, so the matrix
    is taken in a real orthonormal basis and comes out real symmetric
    (``float64``).  Periodic basis: 1, sqrt2 cos(2 pi j x) for j = 1..n_trunc,
    then sqrt2 sin(2 pi j x) for j = 1..n_trunc.  Semiperiodic basis:
    sqrt2 cos(pi (2j+1) x), then sqrt2 sin(pi (2j+1) x), for j = 0..n_trunc-1.
    Both have the dimension of the exponential basis they replace.

    Write pi m_a for the frequency of the a-th cos (or sin) function, so
    m_a = 2j or 2j+1; with the coefficients c(k) of q, t = (m_a - m_b)/2 and
    h = (m_a + m_b)/2 the entries are Toeplitz plus Hankel:

    * cos-cos: Re c(t) + Re c(h), plus (pi m_a)^2 on the diagonal;
    * sin-sin: Re c(t) - Re c(h), plus (pi m_a)^2 on the diagonal;
    * cos-sin (row a, column b): Im c(t) - Im c(h), and its transpose;
    * periodic constant row: 0, sqrt2 Re c(j) against the cosines and
      -sqrt2 Im c(j) against the sines.

    For an even potential (every c(k) real) the cos-sin block is exactly
    zero.  Expects the mean already stripped; the caller adds it back as a
    spectral shift.
    """
    if q.mean != 0.0:
        raise InputError("galerkin_matrix expects a mean-zero potential")
    if parity not in ("periodic", "semiperiodic"):
        raise InputError(f"unknown parity {parity!r}")
    if n_trunc < q.cutoff:
        raise InputError(
            f"n_trunc={n_trunc} below potential cutoff {q.cutoff}: truncation would alias"
        )
    periodic = parity == "periodic"
    first = 2 if periodic else 1  # m_a = first + 2a, so t = a - b and h = a + b + first
    # two-sided Re/Im lookup over every index t and h can take
    span = first + 2 * n_trunc - 2
    re = np.zeros(2 * span + 1)
    im = np.zeros(2 * span + 1)
    for k, v in q.coeffs:
        if k <= span:
            re[span + k] = re[span - k] = v.real
            im[span + k] = v.imag
            im[span - k] = -v.imag
    window = np.lib.stride_tricks.sliding_window_view

    def toeplitz(x):  # view of x[span + a - b]
        return window(x[span - n_trunc + 1 : span + n_trunc], n_trunc)[:, ::-1]

    def hankel(x):  # view of x[span + a + b + first]
        return window(x[span + first :], n_trunc)

    off = 1 if periodic else 0
    nc = off + n_trunc  # constant (periodic) and cosines come first, sines last
    mat = np.empty((nc + n_trunc, nc + n_trunc))
    re_t, re_h = toeplitz(re), hankel(re)
    mat[off:nc, off:nc] = re_t + re_h
    mat[nc:, nc:] = re_t - re_h
    mat[off:nc, nc:] = toeplitz(im) - hankel(im)
    mat[nc:, off:nc] = mat[off:nc, nc:].T
    if periodic:
        mat[0, 0] = 0.0
        mat[0, 1:nc] = math.sqrt(2.0) * re[span + 1 : span + n_trunc + 1]
        mat[0, nc:] = -math.sqrt(2.0) * im[span + 1 : span + n_trunc + 1]
        mat[1:, 0] = mat[0, 1:]
    free = (np.pi * (first + 2 * np.arange(n_trunc))) ** 2
    idx = np.arange(n_trunc)
    mat[off + idx, off + idx] += free
    mat[nc + idx, nc + idx] += free
    return mat


def _eigenvalues(mat: np.ndarray, n_sin: int) -> np.ndarray:
    """Ascending eigenvalues of a Galerkin matrix whose last ``n_sin`` rows are the sines.

    When the cos-sin block is exactly zero (an even potential) the two
    diagonal blocks are solved apart and their eigenvalues merged.  A matrix
    with entries that overflowed to inf has NaN eigenvalues, which
    :class:`BandEdges` refuses as non-finite edges.
    """
    if not np.isfinite(mat).all():
        return np.full(mat.shape[0], np.nan)
    nc = mat.shape[0] - n_sin
    if np.any(mat[:nc, nc:]):
        return np.linalg.eigvalsh(mat)
    return np.sort(np.concatenate((np.linalg.eigvalsh(mat[:nc, :nc]), np.linalg.eigvalsh(mat[nc:, nc:]))))


@np.errstate(over="ignore")  # a mean that overflows the edges is reported as non-finite edges
def band_edges_galerkin(q: Potential, n_max: int, cfg: GalerkinConfig = GalerkinConfig()) -> BandEdges:
    """Band edges from real-symmetric eigensolves of both parity problems.

    Sorted periodic eigenvalues mu and semiperiodic eigenvalues nu pair up
    in counting order: lambda_0 = mu_0, lambda_{2m}^-+ = mu_{2m-1}, mu_{2m},
    lambda_{2m+1}^-+ = nu_{2m}, nu_{2m+1}.  :class:`BandEdges` asserts the
    interlacing ordering, and a violation raises with the offending index.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    q0 = q.without_mean()
    n_trunc = cfg.resolve(n_max, q.cutoff)
    mu = _eigenvalues(galerkin_matrix(q0, "periodic", n_trunc), n_trunc) + q.mean
    nu = _eigenvalues(galerkin_matrix(q0, "semiperiodic", n_trunc), n_trunc) + q.mean
    pairs = []
    for n in range(1, n_max + 1):
        if n % 2 == 0:
            pairs.append((float(mu[n - 1]), float(mu[n])))
        else:
            pairs.append((float(nu[n - 1]), float(nu[n])))
    return BandEdges(lambda0=float(mu[0]), pairs=tuple(pairs), method="galerkin", resolution=n_trunc)


# ----------------------------------------------------------------------
# Monodromy trace route
# ----------------------------------------------------------------------


_GAUSS_OFFSET = math.sqrt(3.0) / 6.0


def _step_terms(qa: np.ndarray, qb: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    """h qbar and the commutator term d = sqrt3/12 h^2 (q_a - q_b) of each step."""
    return h * (0.5 * (qa + qb)), (math.sqrt(3.0) / 12.0) * h * h * (qa - qb)


def _step_deviations(
    qa: np.ndarray, qb: np.ndarray, h, lams: np.ndarray, lam_osc: float, out: np.ndarray, work: np.ndarray
):
    """E = M - I of the propagator M of each step, into ``out`` as E11, E12, E21, E22.

    ``qa``/``qb`` hold q at the two Gauss points of each step.  With their
    mean qbar, the commutator term d = sqrt3/12 h^2 (q_a - q_b), wbar =
    qbar - lambda and mu^2 = d^2 + h^2 wbar, M = [[c + s d, s h],
    [s h wbar, c - s d]] where c = cos m, s = sin(m)/m (mu^2 < 0) or
    c = cosh m, s = sinh(m)/m.  In the half angle x = m/2, c - 1 =
    -2 sin^2 x (or 2 sinh^2 x) and s = sin x cos x / x, so each deviation,
    O(h), keeps its full relative precision.

    Above ``lam_osc`` every step oscillates, and there one t = tan x gives
    c - 1 = -2 t^2 / (1 + t^2) and s = t / (x (1 + t^2)) at a fraction of
    the cost of sin and cos.  tan is singular at x = pi/2, so steps past
    x = pi/4 keep sin and cos.  So does every lambda at or below
    ``lam_osc``, bit for bit: there some steps grow, the monodromy can
    reach 1e5..1e8, and the Wronskian witness passes or fails on its last
    bit.  The choice depends on lambda alone, so a lambda gets the same
    bits in any batch.  ``work`` holds three arrays of the shape of one
    entry for the intermediates.
    """
    hq, d = _step_terms(qa, qb, h)
    x, sn, cs = work
    # x^2 = mu^2 / 4, signed
    np.subtract((0.25 * (d * d + h * hq))[:, None], (0.25 * h * h) * lams, out=x)
    trig = x < 0.0
    hyp = ~trig
    np.abs(x, out=x)
    np.sqrt(x, out=x)
    # below 1e-20, sin x / x and sinh x / x are 1 and sin^2 x is below
    # 1e-40; the clamp only keeps x = 0 from giving 0/0
    np.maximum(x, 1e-20, out=x)
    c1, s = out[3], sn  # c - 1 and s
    tan = lams > lam_osc
    if tan.any():
        tan = tan & trig & (x <= _TAN_LIMIT)
        t = np.tan(x, out=sn)
        np.multiply(t, t, out=cs)
        np.multiply(cs, -2.0, out=c1)
        cs += 1.0
        c1 /= cs  # -2 t^2 / (1 + t^2)
        cs *= x
        t /= cs  # t / (x (1 + t^2))
        trig &= ~tan
    for f_sn, f_cs, sign, where in ((np.sin, np.cos, -2.0, trig), (np.sinh, np.cosh, 2.0, hyp)):
        if where.all():
            where = ...  # the whole block, as views
        elif not where.any():
            continue
        xs = x[where]
        sw, cw = f_sn(xs), f_cs(xs)
        c1[where] = sign * (sw * sw)
        s[where] = sw * cw / xs
    np.multiply(s, h, out=out[1])
    np.subtract(hq[:, None], h * lams, out=out[2])  # h wbar
    out[2] *= s
    np.multiply(s, d[:, None], out=x)
    np.add(c1, x, out=out[0])
    np.subtract(c1, x, out=out[3])


@functools.lru_cache(maxsize=None)
def _bit_reversed(n: int) -> np.ndarray:
    """Indices 0..n-1 (n a power of two) in bit-reversed order.

    Leaves stored in this order put the earlier and the later factor of
    every pair of a perfect binary tree in the two halves of each level.
    """
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    rev.flags.writeable = False
    return rev


def _combine(left: np.ndarray, right: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """``out`` = E of (I + left)(I + right), that is left + right + left right.

    ``left`` is the later run.  The sums are grouped around the shared
    factors 1 + left_11 and 1 + left_22: each rounds at 1 but multiplies an
    O(h) entry, so the product keeps the relative precision of E.  ``out``
    must not overlap the operands; ``tmp`` holds three arrays of its shape.
    """
    l11, l12, l21, l22 = left
    r11, r12, r21, r22 = right
    a11, a22, t = tmp
    np.add(l11, 1.0, out=a11)
    np.add(l22, 1.0, out=a22)
    # out11 = l11 + a11 r11 + l12 r21, out22 = l22 + a22 r22 + l21 r12
    np.multiply(a11, r11, out=out[0])
    np.add(out[0], l11, out=out[0])
    np.multiply(l12, r21, out=t)
    np.add(out[0], t, out=out[0])
    np.multiply(a22, r22, out=out[3])
    np.add(out[3], l22, out=out[3])
    np.multiply(l21, r12, out=t)
    np.add(out[3], t, out=out[3])
    # out12 = a11 r12 + l12 (1 + r22), out21 = a22 r21 + l21 (1 + r11)
    np.multiply(a11, r12, out=out[1])
    np.add(r22, 1.0, out=t)
    np.multiply(t, l12, out=t)
    np.add(out[1], t, out=out[1])
    np.multiply(a22, r21, out=out[2])
    np.add(r11, 1.0, out=t)
    np.multiply(t, l21, out=t)
    np.add(out[2], t, out=out[2])


def _combine_angles(left: np.ndarray, out: np.ndarray, th_left: np.ndarray, th_right: np.ndarray) -> np.ndarray:
    """Lifted angle of (I + out) e2 from those of (I + left) e2 and (I + right) e2 (see :class:`_Propagator`)."""
    a, b, u, v = left[1], 1.0 + left[3], out[1], 1.0 + out[3]
    phi = np.arctan2(b * u - a * v, a * u + b * v)
    centre = np.pi * (np.floor(th_right / np.pi) + 0.5)
    return th_left + phi + 2.0 * np.pi * np.round((centre - phi) / (2.0 * np.pi))


class _WitnessError(IntegrationError):
    """The Wronskian witness failed: a solve at more steps may pass."""


class _Propagator:
    """Vectorized fixed-step 4th-order integration of the fundamental system.

    Each step applies the exact exponential of the two-point Gauss
    (Magnus) average of the coefficient matrix, so every step propagator
    has unit determinant by construction: the scheme cannot leak
    amplitude, which is what keeps trace values honest near band edges
    where the roots of D = trace^2 - 4 live.  The step count is fixed, and
    the potential sampled at the two Gauss points of every step, once at
    construction, along with ``lam_osc``, the lambda above which every
    step oscillates; calls batch an array of spectral parameters through it.

    A sweep multiplies the step propagators as a tree, not one step after
    another.  The steps split into aligned power-of-two runs, at most
    ``_BLOCK_ELEMS`` steps x lambdas at a time; each run is reduced level
    by level, neighbours pairwise, and equal runs merge as in a binary
    counter.  The grouping depends on the step count alone, so a lambda
    gets the same bits in any batch.  Every partial product is carried as
    its deviation E from the identity, (I + L)(I + R) = I + (L + R + L R),
    so the O(h) step deviations keep their relative precision and the
    rounding grows with the tree depth, not with the step count.  The
    trace is 2 + E11 + E22.  Since det M = 1, D = trace^2 - 4 equals
    (E11 - E22)^2 + 4 E12 E21: near a gap M is close to +-I, every term is
    small and keeps its absolute precision, so D loses digits like eps /
    gamma where trace -+ 2 loses them like eps / gamma^2.

    When the potential is even (every stored coefficient real) and the
    step count even, a sweep multiplies only the first half period A = [[a,
    b], [c, d]].  Step steps - 1 - j is step j reflected, which swaps its
    two Gauss points and turns its propagator into R M_j^-1 R with R =
    diag(1, -1), so the whole period is M = R A^-1 R A = [[ad + bc, 2 bd],
    [2 ac, ad + bc]] and, with ad - bc = 1, E11 = E22 = 2 bc, E12 = 2 bd and
    E21 = 2 ac (Magnus and Winkler, Hill's Equation, 1966, 1.4).  Each is a
    product with no cancellation, and D = 16 abcd.  The potential's odd
    part would break the reflection, and an odd step count has a middle
    step, so either sweeps the full period.

    With ``count`` a sweep carries next to E the lifted Pruefer angle
    atan2(u, u') of (u, u') = (I + E) e2, which crosses each multiple of pi
    upward at a zero of u (Magnus and Winkler, ch. 2; Johnson and Moser,
    Comm. Math. Phys. 84, 1982).  A step of half angle x turns e2 by [pi j,
    pi (j + 1)), j = floor(2 x / pi) (0 if it grows).  A later G keeps
    orientation, so G F e2 turns from G e2 within F e2's half turn.  Each
    turn is its angle taken nearest the centre of its half turn.  N =
    floor(angle / pi) zeros of u lie in (0, 1]; folded, the Dirichlet
    eigenfunctions are odd or even about 1/2, so N = floor(2 angle / pi) of A.

    The rounding of E21 grows like eps w and that of E12 like eps / w, with
    w = sqrt(1 + |lambda|) the free frequency, so D's rounding bound is
    taken in the balanced basis diag(sqrt w, 1 / sqrt w), which leaves D
    unchanged: with s = |E11 - E22| + 2 (w |E12| + |E21| / w) and r =
    ``_D_ROUNDING``, B = r (s + s^2) + r^2.  (Near an edge E21 or E12
    vanishes; the unbalanced s was exceeded 26-fold there.)  The Wronskian
    det(I + E) of the product swept, det A of a folded half period, remains
    the on-line accuracy witness; its failure raises ``_WitnessError``.  A
    non-finite trace, D or witness is an overflow, which more steps cannot
    cure, so it raises plain IntegrationError.

    The grid puts 2 steps / K Gauss points on each oscillation of the
    potential's highest harmonic K.  Below 8 of them (4 K > steps) the
    sweep no longer resolves q, and far below it aliases q outright, so
    that raises InputError.
    """

    def __init__(self, q: Potential, steps: int):
        if 4 * q.cutoff > steps:
            raise InputError(
                f"steps={steps} below 4 K = {4 * q.cutoff} for the potential cutoff K={q.cutoff}: "
                "the integrator grid would alias the potential"
            )
        self.q = q
        self.even = all(v.imag == 0.0 for _, v in q.coeffs)
        self.steps = steps
        h = 1.0 / steps
        base = np.arange(steps) * h
        with np.errstate(all="ignore"):  # an overflowing q shows as a non-finite trace in delta
            self.qa = np.asarray(q.evaluate(base + (0.5 - _GAUSS_OFFSET) * h), dtype=float)
            self.qb = np.asarray(q.evaluate(base + (0.5 + _GAUSS_OFFSET) * h), dtype=float)
            # above it every step oscillates (see _step_deviations); NaN if q overflows
            hq, d = _step_terms(self.qa, self.qb, h)
            self.lam_osc = float(np.max((d * d + h * hq) / (h * h)))
        # the sweep buffers, kept across sweeps: arrays this large come fresh
        # from mmap unless malloc's threshold happens to lie above them, and
        # then every sweep page-faults them in again
        self._space = np.empty(0)

    def _sweep(self, lams: np.ndarray, count: bool = False):
        nl = lams.size
        block = 1 << max(0, (_BLOCK_ELEMS // nl).bit_length() - 1)  # a power of two
        half = max(1, block // 2)
        big, small = block * nl, half * nl
        if self._space.size < 7 * (big + small):
            # at once the size that any batch of up to _BLOCK_ELEMS / 2 points
            # needs: a buffer grown batch by batch kept about 1 MB more resident
            self._space = np.empty(max(7 * (big + small), _SWEEP_SPACE))
        space = self._space
        bufs = (space[: 4 * big].reshape(4, block, nl), space[4 * big : 4 * (big + small)].reshape(4, half, nl))
        tmp = space[4 * (big + small) : 4 * big + 7 * small].reshape(3, half, nl)
        work = space[4 * big + 7 * small : 7 * (big + small)].reshape(3, block, nl)
        h = 1.0 / self.steps
        fold = self.even and self.steps % 2 == 0
        swept = self.steps // 2 if fold else self.steps
        stack: list = []  # finished runs (length, (E, angle)) in step order; lengths strictly decrease
        free: list = []  # spent run arrays, reused so that large batches do not page-fault

        def take():
            return free.pop() if free else np.empty((4, nl))

        def merge(later, earlier):
            out = take()
            _combine(later[0], earlier[0], out, tmp[:, 0])
            free.extend((later[0], earlier[0]))
            return out, count and _combine_angles(later[0], out, later[1], earlier[1])

        i0 = 0
        while i0 < swept:
            # the largest power-of-two chunk that fits, at most a block; it is
            # aligned, so the runs are the binary decomposition of the steps swept
            n = min(block, 1 << ((swept - i0).bit_length() - 1))
            at = i0 + _bit_reversed(n)
            e = bufs[0]
            _step_deviations(self.qa[at], self.qb[at], h, lams, self.lam_osc, e[:, :n], work[:, :n])
            if count:  # each step's angle, taken nearest the centre of [pi j, pi (j + 1)) (see above)
                hq, d = _step_terms(self.qa[at], self.qb[at], h)
                th = np.arctan2(e[1, :n], 1.0 + e[3, :n])
                if (h * h) * lams.max() >= np.min(d * d + h * hq) + np.pi**2:  # some step turns past pi
                    j = np.floor(np.sqrt(np.maximum((h * h) * lams - (d * d + h * hq)[:, None], 0.0)) / np.pi)
                    th += 2.0 * np.pi * np.round((np.pi * (j + 0.5) - th) / (2.0 * np.pi))
            i0 += n
            length, side = n, 0
            while n > 1:  # in bit-reversed order, each level pairs the two contiguous halves
                n //= 2
                side = 1 - side
                _combine(e[:, n : 2 * n], e[:, :n], bufs[side][:, :n], tmp[:, :n])
                if count:
                    th = _combine_angles(e[:, n : 2 * n], bufs[side][:, :n], th[n : 2 * n], th[:n])
                e = bufs[side]
            run = (take(), count and th[0])
            run[0][...] = e[:, 0]
            while stack and stack[-1][0] == length:
                run, length = merge(run, stack.pop()[1]), 2 * length
            stack.append((length, run))
        run = stack.pop()[1]
        while stack:  # merge the binary decomposition, latest run first
            run = merge(run, stack.pop()[1])
        (e11, e12, e21, e22), angle = run
        wronskian = (1.0 + e11) * (1.0 + e22) - e12 * e21
        if fold:  # run is the half period A = I + E; M = R A^-1 R A with R = diag(1, -1)
            b, c = e12, e21
            e12 = 2.0 * b * (1.0 + e22)
            e21 = 2.0 * (1.0 + e11) * c
            e11 = e22 = 2.0 * b * c
        delta = 2.0 + (e11 + e22)
        split = e11 - e22
        disc = split * split + 4.0 * (e12 * e21)
        omega = np.sqrt(1.0 + np.abs(lams))
        scaled = np.abs(split) + 2.0 * (omega * np.abs(e12) + np.abs(e21) / omega)
        bound = _D_ROUNDING * (scaled * (1.0 + scaled) + _D_ROUNDING)
        turns = count and np.floor(angle / (0.5 * np.pi if fold else np.pi))  # the Dirichlet zero count
        position = count and 2.0 * turns + np.where(disc < 0.0, 0.0, np.where(delta * (-1.0) ** turns > 0.0, -1.0, 1.0))
        return delta, disc, bound, wronskian, position

    @np.errstate(all="ignore")  # overflow shows as a non-finite trace, reported below
    def delta(self, lams, count: bool = False, witness: bool = True) -> tuple[np.ndarray, ...] | None:
        """Trace, D = trace^2 - 4 and D's rounding bound at each of ``lams``.

        With ``count`` also the spectral position P = 2 N + s from the Dirichlet zero count N, with s = 0 where
        D < 0, else -1 where sign trace = (-1)^N and +1 where not: 2 m across band m, 2 n - 1 across gap n.
        A failed witness raises ``_WitnessError``, or with ``witness`` False returns None.
        """
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        delta, disc, bound, wronskian, position = self._sweep(lams, count)
        if not all(np.isfinite(v).all() for v in (delta, disc, wronskian)):
            raise IntegrationError(f"non-finite trace or Wronskian at steps={self.steps}: the solution overflows")
        drift = float(np.max(np.abs(wronskian - 1.0)))
        if drift > _WRONSKIAN_LIMIT:
            if not witness:
                return None
            raise _WitnessError(f"Wronskian drift {drift:.3e} beyond {_WRONSKIAN_LIMIT:g} at steps={self.steps}")
        return (delta, disc, bound, position) if count else (delta, disc, bound)


def discriminant(q: Potential, lam: float, cfg: DiscriminantConfig = DiscriminantConfig()) -> float:
    """Trace of the one-period monodromy matrix at spectral parameter lam.

    Evaluated at exactly ``cfg.steps``; for an even q at an even step count
    it is folded from the first half period (see :class:`_Propagator`).
    """
    if not math.isfinite(lam):
        raise InputError(f"spectral parameter must be finite, got {lam!r}")
    return float(_Propagator(q, cfg.steps).delta(lam)[0][0])


def _bisect_position(prop: _Propagator, lo, hi, target) -> tuple[np.ndarray, ...]:
    """Points of spectral position ``target`` between lo and hi, P(lo) < target < P(hi), with D, B and P there.

    One sweep per halving; a bracket stops at a point of its position, or once :func:`_root_tol` wide.
    """
    lo, hi, target = (np.array(v, dtype=float) for v in (lo, hi, target))
    x, d, b, p = (np.empty_like(lo) for _ in range(4))
    live = np.arange(lo.size)
    for _ in range(_MAX_REFINE):
        if not live.size:
            break
        x[live] = mid = 0.5 * (lo[live] + hi[live])
        _, d[live], b[live], p[live] = prop.delta(mid, count=True)
        below = p[live] < target[live]
        lo[live[below]], hi[live[~below]] = mid[below], mid[~below]
        live = live[(p[live] != target[live]) & (hi[live] - lo[live] > _root_tol(mid, math.inf))]
    return x, d, b, p


def _probe_points(q: Potential, n_max: int) -> np.ndarray:
    """-(l1 bound of q) - 1, then the free band centres (pi (m + 1/2))^2, m = 0..n_max."""
    return np.concatenate(([-(q.l1_bound() + 1.0)], (np.pi * (np.arange(n_max + 1) + 0.5)) ** 2))


def _band_probes(prop: _Propagator, n_max: int, first=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A point left of the spectrum, then one point inside each band 0..n_max, with D and its bound B at each.

    The first point and the free band centres (pi (m + 1/2))^2 share one
    sweep, ``first`` if already taken, which counts their spectral position P
    (see :meth:`_Propagator.delta`).
    A centre whose P is not 2 m is replaced by bisection on P over [(pi m)^2
    - L, (pi (m + 1))^2 + L], L = max |q| + 1, which holds band m by Sturm
    comparison.  At or below min q - 1, D >= 4 sinh^2 1 ~ 5.5, as the trace
    is at least 2 cosh sqrt(min q - lambda): D <= 0 there is a failed sweep.
    """
    x = _probe_points(prop.q, n_max)
    _, d, b, p = first if first is not None else prop.delta(x, count=True)
    if not d[0] > 0.0:
        raise BracketError(f"D = {d[0]!r} at lambda = {x[0]!r}, left of the spectrum, where it must be positive")
    m = np.flatnonzero(p[1:] != 2 * np.arange(n_max + 1))
    lo, hi = (np.pi * m) ** 2 + x[0], (np.pi * (m + 1)) ** 2 - x[0]
    x[m + 1], d[m + 1], b[m + 1], p[m + 1] = _bisect_position(prop, lo, hi, 2 * m)
    for n in m[p[m + 1] != 2 * m]:
        raise BracketError(f"no point of band {n} found by bisection, last at lambda = {float(x[n + 1])!r}")
    return x, d, b


def _parabola(x: np.ndarray, d: np.ndarray, i: int) -> tuple[float, float, float]:
    """Vertex c, curvature k and peak P of D = P - k (lambda - c)^2 through samples i-1, i, i+1.

    c is kept between the outer two samples.  Where the three samples are
    not concave, k is 0, c is x[i] and P is D there.
    """
    x0, x1, x2 = (float(v) for v in x[i - 1 : i + 2])
    d0, d1, d2 = (float(v) for v in d[i - 1 : i + 2])
    s01 = (d1 - d0) / (x1 - x0)
    k = (s01 - (d2 - d1) / (x2 - x1)) / (x2 - x0)
    if not k > 0.0:
        return x1, 0.0, d1
    c = min(max(0.5 * (x0 + x1) + s01 / (2.0 * k), x0), x2)
    return c, k, d1 + k * (c - x1) ** 2


def _root_tol(x, cap):
    """Refinement tolerance at x: min(_ROOT_TOL (1 + |x|), cap), at least 4 ulp(x)."""
    x = np.abs(x)
    return np.maximum(np.minimum(_ROOT_TOL * (1.0 + x), cap), 4.0 * np.spacing(x))


@np.errstate(all="ignore")  # a degenerate interpolant is rejected below by its non-finite step
def _refine_roots(fn, a, fa, b, fb, cap=math.inf, guess=math.nan):
    """Batched Chandrupatla iteration on sign-changing brackets, each to its tolerance.

    ``a``/``b`` carry the bracket endpoints per edge with f(a) and f(b) of
    opposite sign (or zero); ``fn(x, idx)`` evaluates f of the edges
    ``idx`` at ``x``.  Each step evaluates one point per open bracket, which
    replaces the bracket end of its sign, so the bracket always holds a
    sign change.  The first point is the edge's ``guess``, or the midpoint
    where that is NaN.  Every later point comes from the inverse quadratic
    through the two ends and the point dropped last where that interpolant
    is monotone over the bracket, else it is the midpoint (Chandrupatla,
    Adv. Eng. Software 28 (1997) 145-149).  Every point stays at least half
    the tolerance inside the bracket, so once the newest end lies within
    half the tolerance of the root the next step closes the bracket from
    the far side.  An edge leaves the batch once its bracket is at most
    :func:`_root_tol` wide, with the edge's ``cap``, or it hits an exact
    zero; returns the endpoint with the smaller |f| of each bracket.
    Raises BracketError if any bracket is still open after ``_MAX_REFINE``
    steps.
    """
    # x1 is the newest bracket end, x2 the other, x3 the end dropped last
    x1, f1, x2, f2 = (np.array(v, dtype=float) for v in (a, fa, b, fb))
    x3, f3 = x2.copy(), f2.copy()
    cap = np.broadcast_to(np.asarray(cap, dtype=float), x1.shape)
    guess = np.broadcast_to(np.asarray(guess, dtype=float), x1.shape)
    t = np.where(np.isnan(guess), 0.5, (guess - x1) / (x2 - x1))  # next point x1 + t (x2 - x1)
    for step in range(_MAX_REFINE + 1):
        first = np.abs(f1) <= np.abs(f2)
        xm, fm = np.where(first, x1, x2), np.where(first, f1, f2)
        width = np.abs(x2 - x1)
        tol = _root_tol(xm, cap)
        live = np.flatnonzero((width > tol) & (fm != 0.0))
        if live.size == 0:
            return xm
        if step == _MAX_REFINE:
            i = int(live[0])
            raise BracketError(f"bracket [{x1[i]!r}, {x2[i]!r}] still open after {_MAX_REFINE} refinement steps")
        lx1, lf1, lx2, lf2 = x1[live], f1[live], x2[live], f2[live]
        margin = 0.5 * tol[live] / width[live]
        xt = lx1 + np.clip(t[live], margin, 1.0 - margin) * (lx2 - lx1)
        ft = np.asarray(fn(xt, live), dtype=float)
        same = np.sign(ft) == np.sign(lf1)
        x3[live], f3[live] = np.where(same, lx1, lx2), np.where(same, lf1, lf2)
        x2[live], f2[live] = np.where(same, lx2, lx1), np.where(same, lf2, lf1)
        x1[live], f1[live] = xt, ft
        nx1, nf1, nx2, nf2, nx3, nf3 = (v[live] for v in (x1, f1, x2, f2, x3, f3))
        # the inverse quadratic is monotone over the bracket iff phi^2 < xi
        # and (1 - phi)^2 < 1 - xi, with xi and phi where x1 and f1 sit
        # between x2 and x3 and between f2 and f3
        xi = (nx1 - nx2) / (nx3 - nx2)
        phi = (nf1 - nf2) / (nf3 - nf2)
        alpha = (nx3 - nx1) / (nx2 - nx1)
        iqi = nf1 / (nf1 - nf2) * nf3 / (nf3 - nf2) - alpha * nf1 / (nf3 - nf1) * nf2 / (nf2 - nf3)
        use = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi) & np.isfinite(iqi)
        t[live] = np.where(use, iqi, 0.5)


def band_edges_discriminant(q: Potential, n_max: int, cfg: DiscriminantConfig | None = None) -> BandEdges:
    """Band edges as roots of D = trace(lambda)^2 - 4, in double precision.

    The mean-free potential is solved and the mean added back to every
    edge, as in the Fourier route: trace_q(lambda) = trace_{q - mean}(lambda
    - mean).  Between neighbouring band probes (:func:`_band_probes`),
    where D < 0, a 9-point scan looks for the gap; its two ends are the
    probes, and every sample is kept.  A gap is open as soon as
    one of its samples has D above its rounding bound B.  Until then it
    jumps by the parabola D = P - k (lambda - c)^2 through its largest
    sample and that sample's two neighbours: the next samples are c and
    c +- w, with w = max(sqrt(P / k) / 2, 2 sqrt(B / k), spacing / 64), at
    most half the spacing.  Once the samples around the largest one are at
    most 4 sqrt(B / k) apart with none above B, the gap is below the
    rounding bound of D and reported collapsed, with identical edges at c;
    a gap still pending after ``_MAX_JUMPS`` jumps collapses at its best
    sample.  Before either collapse, a largest sample below -8 B, where a
    double root peaks at least -B, shows a missed hump: bisection on the
    spectral position between the gap's probes adds a sample of the gap,
    once, and the rules above go on.  A batched Chandrupatla
    iteration (:func:`_refine_roots`) then refines lambda_0 and both edges
    of every open gap as sign changes of D, each to ``_ROOT_TOL`` (1 +
    |lambda|) but to at most ``_GAP_RTOL`` of the gap's parabola width
    2 sqrt(P / k), and never below 4 ulp(lambda); an edge of an open gap
    starts from its parabola root c -+ sqrt(P / k).  Without ``cfg`` the
    solve runs at the count :func:`_chosen_propagator` picks, and again at
    2048 unless :func:`_narrow_gaps_hold`.  A failed Wronskian witness
    restarts a solve at twice the steps, up to ``_MAX_STEPS`` and to
    ``_MAX_STEP_RETRIES`` doublings of ``cfg.steps``, or without ``cfg`` of
    2048, so a chosen count gives up no later than the 2048-step solve;
    ``resolution`` is the one step count used.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    q0 = q.without_mean()
    last = min((cfg or DiscriminantConfig()).steps << _MAX_STEP_RETRIES, _MAX_STEPS)

    def solve(prop: _Propagator, first=None) -> BandEdges:
        while True:
            try:
                lambda0, pairs = _solve_discriminant(prop, n_max, range(n_max), first)
                break
            except _WitnessError:
                if prop.steps >= last:
                    raise
                prop, first = _Propagator(q0, 2 * prop.steps), None
        shifted = tuple((pairs[n][0] + q.mean, pairs[n][1] + q.mean) for n in range(n_max))
        return BandEdges(lambda0=lambda0 + q.mean, pairs=shifted, method="discriminant", resolution=prop.steps)

    if cfg is not None:
        return solve(_Propagator(q0, cfg.steps))
    edges = solve(*_chosen_propagator(q0, n_max))
    if edges.resolution < _DEFAULT_STEPS and not _narrow_gaps_hold(q0, edges, q.mean):
        edges = solve(_Propagator(q0, _DEFAULT_STEPS))
    return edges


@np.errstate(divide="ignore", invalid="ignore")  # a zero slope fails its centre
def _chosen_propagator(q0: Potential, n_max: int) -> tuple[_Propagator, tuple | None]:
    """The propagator at the first candidate count whose error estimate passes, and its probe sweep.

    A candidate s >= 8 K (so that s / 2 clears the alias guard) sweeps the
    probe points and the band centres +- 1e-4 of their free band width.  Its
    trace error at each centre, |t_s - t_{s/2}| / 15, over the centred
    slope and times ``_RICHARDSON_SAFETY``, must lie within :func:`_edge_tol`.
    The estimate falls 16-fold per doubling (15.5-16.1 on the tests'
    potentials), so once it shows that the last candidate cannot pass, none
    is tried further.  A failed witness passes a candidate over; failing
    all, ``_DEFAULT_STEPS``.
    """
    x = _probe_points(q0, n_max)
    centres = x[1:]
    dx = 1e-4 * np.pi**2 * (2.0 * np.arange(n_max + 1) + 1.0)
    points = np.concatenate((x, centres - dx, centres + dx))
    tol = _edge_tol(centres)
    prev = None  # the step count of the last sweep that passed its witness, and its trace at the centres
    for steps in _STEP_CANDIDATES:
        if steps < 8 * q0.cutoff:
            continue
        if prev is None or prev[0] != steps // 2:
            half = _Propagator(q0, steps // 2).delta(centres, witness=False)
            prev = None if half is None else (steps // 2, half[0])
        prop = _Propagator(q0, steps)
        got = prop.delta(points, count=True, witness=False)
        if got is None:
            prev = None
            continue
        t, below, above = np.split(got[0][1:], 3)
        slope = np.abs(above - below) / (2.0 * dx)
        if prev is not None:
            excess = np.max(_RICHARDSON_SAFETY / 15.0 * np.abs(t - prev[1]) / (tol * slope))
            if excess <= 1.0:
                return prop, tuple(v[: n_max + 2] for v in got)
            if excess > (_STEP_CANDIDATES[-1] / steps) ** 4:
                break
        prev = steps, t
    return _Propagator(q0, _DEFAULT_STEPS), None


def _narrow_gaps_hold(q0: Potential, edges: BandEdges, mean: float) -> bool:
    """Whether each open gap of ``edges`` narrower than :func:`_edge_tol` keeps its width at half the steps.

    Truncation can open a closed gap, 16-fold wider per halving (``lame(1,
    2)`` gap 2: 9.4e-12 at 256 steps, 5.8e-13 at 512, closed from 1024);
    a gap of the potential keeps its width, here within a factor of two.
    A failed sweep holds nothing.  ``edges`` carry ``mean``.
    """
    gaps = edges.gaps()
    narrow = [n for n, (lo, hi) in enumerate(edges.pairs) if 0.0 < gaps[n] <= _edge_tol(hi - mean)]
    if not narrow:
        return True
    try:
        _, pairs = _solve_discriminant(_Propagator(q0, edges.resolution // 2), edges.n_max, narrow)
    except NumericalError:
        return False
    return all(abs((pairs[n][1] - pairs[n][0]) - gaps[n]) < gaps[n] for n in narrow)


def _solve_discriminant(prop: _Propagator, n_max: int, gaps, first=None) -> tuple[float, dict]:
    """lambda_0 and the edge pairs of ``gaps`` of ``prop.q`` at ``prop``'s steps.

    ``first`` is the probe sweep when already taken.
    """
    px, pd, pb = _band_probes(prop, n_max, first)
    probes = px[1:]

    # every sample of each gap in ascending order: lambda, D and its bound,
    # starting from the band probes on either side
    samples = {n: (px[n + 1 : n + 3], pd[n + 1 : n + 3], pb[n + 1 : n + 3]) for n in gaps}

    def add_samples(points: dict) -> None:
        """Evaluate the new points of every gap in one sweep and merge them into its samples."""
        _, d, b = prop.delta(np.concatenate(list(points.values())))
        cuts = np.cumsum([x.size for x in points.values()])[:-1]
        for (n, x), dn, bn in zip(points.items(), np.split(d, cuts), np.split(b, cuts)):
            order = np.argsort(np.concatenate((samples[n][0], x)))
            samples[n] = tuple(np.concatenate(pair)[order] for pair in zip(samples[n], (x, dn, bn)))

    add_samples({n: np.linspace(probes[n], probes[n + 1], _SCAN_POINTS)[1:-1] for n in gaps})
    open_gaps: list[int] = []
    collapsed_at: dict[int, float] = {}
    bisected: set[int] = set()
    pending = list(gaps)
    for jump in range(_MAX_JUMPS + 2):  # the last round judges the gaps bisected in the one before
        jumps, missed = {}, []
        for n in pending:
            x, d, b = samples[n]
            if np.any(d > b):
                open_gaps.append(n)
                continue
            best = int(np.argmax(d))
            i = min(max(best, 1), x.size - 2)
            c, k, peak = _parabola(x, d, i)
            spacing = 0.5 * float(x[i + 1] - x[i - 1])
            if not (k > 0.0 and spacing <= 4.0 * math.sqrt(b[i] / k)):
                if k > 0.0:
                    w = max(0.5 * math.sqrt(max(peak, 0.0) / k), 2.0 * math.sqrt(b[i] / k), spacing / 64.0)
                else:
                    w = spacing / 4.0
                w = min(w, 0.5 * spacing)
                new = np.unique(np.clip([c - w, c, c + w], x[i - 1], x[i + 1]))
                new = new[~np.isin(new, x)]
                if jump < _MAX_JUMPS and new.size:
                    jumps[n] = new
                    continue
                c = float(x[best])  # the best sample stands as the double root
            # the final spacing misses a double root's peak, at least -B, by at most 4 B
            if d[best] < -8.0 * b[best] and n not in bisected:
                missed.append(n)
            else:
                collapsed_at[n] = c
        at = np.array(missed, dtype=int)  # position 2 n + 1 lies between the probes of bands n and n + 1
        jumps.update(zip(missed, _bisect_position(prop, probes[at], probes[at + 1], 2 * at + 1)[0][:, None]))
        bisected.update(missed)
        if not jumps:
            break
        add_samples(jumps)
        pending = list(jumps)

    # sign-change brackets of D: lambda_0, then both edges of every open gap,
    # their ends taken from the samples
    ends = [(float(px[0]), float(pd[0]), float(px[1]), float(pd[1]))]
    caps = [math.inf]
    guesses = [math.nan]
    for n in sorted(open_gaps):
        x, d, _ = samples[n]
        best = int(np.argmax(d))
        c, k, peak = _parabola(x, d, min(max(best, 1), x.size - 2))
        cap = _GAP_RTOL * 2.0 * math.sqrt(peak / k) if k > 0.0 else math.inf
        half = math.sqrt(peak / k) if k > 0.0 else math.nan
        lo = hi = best
        while lo > 0 and d[lo] > 0.0:
            lo -= 1
        while hi < x.size - 1 and d[hi] > 0.0:
            hi += 1
        for side, j in enumerate((lo, hi - 1)):
            ends.append((float(x[j]), float(d[j]), float(x[j + 1]), float(d[j + 1])))
            caps.append(cap)
            guesses.append(c + (2 * side - 1) * half)
    # every bracket changes sign: D > 0 left of the spectrum and D < 0 at the probes
    a, fa, b, fb = (np.array(col) for col in zip(*ends))
    roots = _refine_roots(lambda x, idx: prop.delta(x)[1], a, fa, b, fb, np.array(caps), np.array(guesses))

    pairs = {n: (x, x) for n, x in collapsed_at.items()}
    # two roots per open gap, after lambda_0's, bracketed on either side of its best sample: lo <= hi
    for j, n in enumerate(sorted(open_gaps)):
        pairs[n] = (float(roots[2 * j + 1]), float(roots[2 * j + 2]))
    return float(roots[0]), pairs


# ----------------------------------------------------------------------
# Cross-validation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CrossValidation:
    """Band edges of one potential from both routes."""

    galerkin: BandEdges
    discriminant: BandEdges

    @property
    def max_rel_discrepancy(self) -> float:
        """Worst edge disagreement, max of |g - d| / max(1, |g|, |d|)."""
        ga = self.galerkin.all_edges()
        da = self.discriminant.all_edges()
        rel = np.abs(ga - da) / np.maximum(1.0, np.maximum(np.abs(ga), np.abs(da)))
        return float(np.max(rel))


def cross_validate(
    q: Potential,
    n_max: int,
    gcfg: GalerkinConfig = GalerkinConfig(),
    dcfg: DiscriminantConfig | None = None,
) -> CrossValidation:
    """Run both routes on the same potential; ``dcfg`` as in :func:`band_edges_discriminant`."""
    return CrossValidation(band_edges_galerkin(q, n_max, gcfg), band_edges_discriminant(q, n_max, dcfg))
