"""Band edges of -u'' + q u by two independent numerical routes.

Route one truncates the periodic and semiperiodic eigenvalue problems in
a real cos/sin Fourier basis and diagonalizes the resulting real symmetric
matrices; for an even potential the cos and sin blocks decouple and are
solved apart.
Route two integrates the fundamental system across one period with a
fixed-step fourth-order scheme and locates the band edges as the points
where the trace of the monodromy matrix equals +2 or -2.  The two routes
share no numerics, which makes their agreement a meaningful check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, InputError, IntegrationError, InterlacingError
from .potential import Potential

# Interlacing / gap-sign tolerances, scale-aware: tol(x) = ATOL + RTOL * |x|
EDGE_ATOL = 1e-10
EDGE_RTOL = 1e-10

_WRONSKIAN_LIMIT = 1e-6  # integration failure threshold
_BRACKET_EXPAND = 1.6  # growth of the step that searches left of the spectrum
_ROOT_TOL = 1e-12  # relative: refine until width <= _ROOT_TOL * (1 + |lambda|)
_MAX_REFINE = 200  # refinement steps before a bracket that will not close is an error
# height of a trace hump past +-2, in double precision: above _HUMP_OPEN
# double refines the gap; above _HUMP_SEEN it still sees the hump, and the
# gap refines in extended precision; a zoom window whose values span less
# than _HUMP_SEEN no longer locates the hump.  In extended precision a hump
# above _HUMP_SEEN is an open gap
_HUMP_OPEN = 1e-10
_HUMP_SEEN = 1e-12
_MAX_STEP_RETRIES = 2  # step count doubles this many times on witness failure
_BLOCK_ELEMS = 1 << 14  # steps x lambdas per block of step propagators: bounds sweep memory
_MAX_TRUNC = 4096  # largest Galerkin truncation: a dim-8193 float64 matrix is 0.54 GB


def _edge_tol(x: float) -> float:
    return EDGE_ATOL + EDGE_RTOL * abs(x)


@dataclass(frozen=True)
class GalerkinConfig:
    """Truncation policy for the Fourier basis solver.

    ``n_trunc`` is the number of retained frequencies per side; when left
    unset it defaults to max(64, 4 n_max + 2 K), comfortably past the
    resonances that feed the reported edges.  Either way it must lie in
    [2 n_max + 16, 4096].
    """

    n_trunc: int | None = None

    def resolve(self, n_max: int, cutoff: int) -> int:
        n = self.n_trunc if self.n_trunc is not None else max(64, 4 * n_max + 2 * cutoff)
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
    """Integrator step count for the monodromy-trace solver."""

    steps: int = 2048

    def __post_init__(self):
        if self.steps < 256:
            raise InputError(f"steps={self.steps} below the minimum 256")


@dataclass(frozen=True)
class BandEdges:
    """lambda_0 plus the ordered edge pairs (lambda_n^-, lambda_n^+).

    Pair n comes from the periodic problem for even n and the semiperiodic
    problem for odd n.  ``collapsed`` flags pairs the solver reported as a
    double root (identical edges); ``resolution`` records the truncation
    size or integrator step count actually used.
    """

    lambda0: float
    pairs: tuple[tuple[float, float], ...]
    method: str
    resolution: int
    collapsed: tuple[bool, ...] = ()

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

    def validate(self) -> None:
        """Raise InterlacingError unless every edge is finite and the edges interlace up to tolerance."""
        if not math.isfinite(self.lambda0):
            raise InterlacingError(0, f"non-finite lambda_0 = {self.lambda0!r}")
        prev_hi = self.lambda0
        for n, (lo, hi) in enumerate(self.pairs, start=1):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InterlacingError(n, f"non-finite edge pair ({lo!r}, {hi!r})")
            tol = _edge_tol(max(abs(prev_hi), abs(lo), abs(hi)))
            if lo < prev_hi - tol:
                raise InterlacingError(n, f"lambda_{n}^- = {lo!r} not above previous edge {prev_hi!r}")
            if hi < lo - tol:
                raise InterlacingError(n, f"negative gap: lambda_{n}^+ = {hi!r} < lambda_{n}^- = {lo!r}")
            prev_hi = hi


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
    :meth:`BandEdges.validate` reports as non-finite edges.
    """
    if not np.isfinite(mat).all():
        return np.full(mat.shape[0], np.nan)
    nc = mat.shape[0] - n_sin
    if np.any(mat[:nc, nc:]):
        return np.linalg.eigvalsh(mat)
    return np.sort(np.concatenate((np.linalg.eigvalsh(mat[:nc, :nc]), np.linalg.eigvalsh(mat[nc:, nc:]))))


def band_edges_galerkin(q: Potential, n_max: int, cfg: GalerkinConfig = GalerkinConfig()) -> BandEdges:
    """Band edges from real-symmetric eigensolves of both parity problems.

    Sorted periodic eigenvalues mu and semiperiodic eigenvalues nu pair up
    in counting order: lambda_0 = mu_0, lambda_{2m}^-+ = mu_{2m-1}, mu_{2m},
    lambda_{2m+1}^-+ = nu_{2m}, nu_{2m+1}.  The interlacing ordering is
    asserted afterwards and a violation raises with the offending index.
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
    edges = BandEdges(
        lambda0=float(mu[0]),
        pairs=tuple(pairs),
        method="galerkin",
        resolution=n_trunc,
        collapsed=tuple(hi == lo for lo, hi in pairs),
    )
    edges.validate()
    return edges


# ----------------------------------------------------------------------
# Monodromy trace route
# ----------------------------------------------------------------------


_GAUSS_OFFSET = math.sqrt(3.0) / 6.0


def _step_deviations(qa: np.ndarray, qb: np.ndarray, h, lams: np.ndarray, out: np.ndarray, work: np.ndarray):
    """E = M - I of the propagator M of each step, into ``out`` as E11, E12, E21, E22.

    ``qa``/``qb`` hold q at the two Gauss points of each step.  With their
    mean qbar, the commutator term d = sqrt3/12 h^2 (q_a - q_b), wbar =
    qbar - lambda and mu^2 = d^2 + h^2 wbar, M = [[c + s d, s h],
    [s h wbar, c - s d]] where c = cos m, s = sin(m)/m (mu^2 < 0) or
    c = cosh m, s = sinh(m)/m.  In the half angle x = m/2, c - 1 =
    -2 sin^2 x (or 2 sinh^2 x) and s = sin x cos x / x, so each deviation,
    O(h), keeps its full relative precision.  ``work`` holds three arrays
    of the shape of one entry for the intermediates.
    """
    dt = lams.dtype
    hq = h * (dt.type(0.5) * (qa + qb))
    d = dt.type(math.sqrt(3.0) / 12.0) * h * h * (qa - qb)
    x, sn, cs = work
    quarter = dt.type(0.25)
    # x^2 = mu^2 / 4, signed
    np.subtract((quarter * (d * d + h * hq))[:, None], (quarter * h * h) * lams, out=x)
    trig = x < 0.0
    hyp = ~trig
    np.abs(x, out=x)
    np.sqrt(x, out=x)
    # below 1e-20, sin x / x and sinh x / x are 1 and sin^2 x is below
    # 1e-40; the clamp only keeps x = 0 from giving 0/0
    np.maximum(x, dt.type(1e-20), out=x)
    for f_sn, f_cs, where in ((np.sin, np.cos, trig), (np.sinh, np.cosh, hyp)):
        if where.all():
            f_sn(x, out=sn)
            f_cs(x, out=cs)
        elif where.any():
            sn[where] = f_sn(x[where])
            cs[where] = f_cs(x[where])
    c1 = out[3]
    np.multiply(sn, sn, out=c1)
    c1 *= dt.type(-2.0)  # c - 1
    if hyp.any():
        np.negative(c1, out=c1, where=hyp)
    s = sn
    s *= cs
    s /= x
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


class _Propagator:
    """Vectorized fixed-step 4th-order integration of the fundamental system.

    Each step applies the exact exponential of the two-point Gauss
    (Magnus) average of the coefficient matrix, so every step propagator
    has unit determinant by construction: the scheme cannot leak
    amplitude, which is what keeps trace values honest near band edges
    where the roots of trace -+ 2 live.  The potential is sampled once per
    step count at the two Gauss points of every step; calls batch an
    array of spectral parameters through the same sweep.

    A sweep multiplies the step propagators as a tree, not one step after
    another.  The steps split into aligned power-of-two runs, at most
    ``_BLOCK_ELEMS`` steps x lambdas at a time; each run is reduced level
    by level, neighbours pairwise, and equal runs merge as in a binary
    counter.  The grouping depends on the step count alone, so a lambda
    gets the same bits in any batch.  Every partial product is carried as
    its deviation E from the identity, (I + L)(I + R) = I + (L + R + L R),
    so the O(h) step deviations keep their relative precision and the
    rounding grows with the tree depth, not with the step count.  The
    trace is 2 + E11 + E22.  The Wronskian det(I + E) remains the on-line
    accuracy witness: on failure the step count doubles, twice at most.
    A non-finite trace or witness is an overflow, which more steps cannot
    cure, so it raises at once.  ``extended=True`` runs the sweep in
    extended precision, which humps too low for double precision need.
    """

    def __init__(self, q: Potential, steps: int):
        self.q = q
        self.requested = steps
        self.steps = steps
        self.retries_left = _MAX_STEP_RETRIES
        self._grid_for = 0
        self._qvals: dict = {}

    def _grid(self, dtype) -> tuple[np.ndarray, np.ndarray]:
        if self._grid_for != self.steps:
            self._qvals.clear()
            self._grid_for = self.steps
        if dtype not in self._qvals:
            h = 1.0 / self.steps
            base = np.arange(self.steps) * h
            qa = np.asarray(self.q.evaluate(base + (0.5 - _GAUSS_OFFSET) * h)).astype(dtype)
            qb = np.asarray(self.q.evaluate(base + (0.5 + _GAUSS_OFFSET) * h)).astype(dtype)
            self._qvals[dtype] = (qa, qb)
        return self._qvals[dtype]

    @staticmethod
    def _sweep(qa: np.ndarray, qb: np.ndarray, steps: int, lams: np.ndarray):
        nl = lams.size
        block = 1 << max(0, (_BLOCK_ELEMS // nl).bit_length() - 1)  # a power of two
        dt = qa.dtype
        bufs = (np.empty((4, block, nl), dtype=dt), np.empty((4, max(1, block // 2), nl), dtype=dt))
        tmp = np.empty((3, max(1, block // 2), nl), dtype=dt)
        work = np.empty((3, block, nl), dtype=dt)
        h = dt.type(1.0) / dt.type(steps)
        stack: list = []  # finished runs (length, E) in step order; lengths strictly decrease
        free: list = []  # spent run arrays, reused so that large batches do not page-fault

        def take():
            return free.pop() if free else np.empty((4, nl), dtype=dt)

        def merge(later, earlier):
            out = take()
            _combine(later, earlier, out, tmp[:, 0])
            free.extend((later, earlier))
            return out

        i0 = 0
        while i0 < steps:
            # the largest power-of-two chunk that fits, at most a block; it is
            # aligned, so the runs are the binary decomposition of steps
            n = min(block, 1 << ((steps - i0).bit_length() - 1))
            at = i0 + _bit_reversed(n)
            e = bufs[0]
            _step_deviations(qa[at], qb[at], h, lams, e[:, :n], work[:, :n])
            i0 += n
            length, side = n, 0
            while n > 1:  # in bit-reversed order, each level pairs the two contiguous halves
                n //= 2
                side = 1 - side
                _combine(e[:, n : 2 * n], e[:, :n], bufs[side][:, :n], tmp[:, :n])
                e = bufs[side]
            run = take()
            run[...] = e[:, 0]
            while stack and stack[-1][0] == length:
                run, length = merge(run, stack.pop()[1]), 2 * length
            stack.append((length, run))
        run = stack.pop()[1]
        while stack:  # fold the binary decomposition of steps, latest run first
            run = merge(run, stack.pop()[1])
        e11, e12, e21, e22 = run
        delta = 2.0 + (e11 + e22)
        wronskian = (1.0 + e11) * (1.0 + e22) - e12 * e21
        return delta, wronskian

    @np.errstate(all="ignore")  # overflow shows as a non-finite trace, reported below
    def delta(self, lams, extended: bool = False) -> np.ndarray:
        dtype = np.dtype(np.longdouble) if extended else np.dtype(float)
        lams = np.atleast_1d(np.asarray(lams, dtype=float)).astype(dtype)
        while True:
            qa, qb = self._grid(dtype)
            delta, wronskian = self._sweep(qa, qb, self.steps, lams)
            if not (np.isfinite(delta).all() and np.isfinite(wronskian).all()):
                raise IntegrationError(
                    f"non-finite monodromy trace or Wronskian at steps={self.steps} "
                    f"({self.requested} requested): the solution overflows"
                )
            drift = float(np.max(np.abs(wronskian - 1.0)))
            if drift <= _WRONSKIAN_LIMIT:
                return delta
            if self.retries_left <= 0:
                raise IntegrationError(
                    f"Wronskian drift {drift:.3e} beyond {_WRONSKIAN_LIMIT:g} at steps={self.steps}"
                )
            self.retries_left -= 1
            self.steps *= 2

    @np.errstate(all="ignore")
    def wronskian_drift(self, lams) -> float:
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        qa, qb = self._grid(np.dtype(float))
        _, wronskian = self._sweep(qa, qb, self.steps, lams)
        return float(np.max(np.abs(wronskian - 1.0)))


def discriminant(q: Potential, lam: float, cfg: DiscriminantConfig = DiscriminantConfig()) -> float:
    """Trace of the one-period monodromy matrix at spectral parameter lam."""
    return float(_Propagator(q, cfg.steps).delta(lam)[0])


def _band_probes(prop: _Propagator, n_max: int) -> np.ndarray:
    """One spectral point strictly inside each band 0..n_max (|trace| < 2)."""
    probes = (np.pi * (np.arange(n_max + 1) + 0.5)) ** 2
    vals = prop.delta(probes)
    bad = np.where(np.abs(vals) >= 2.0)[0]
    for n in bad:
        lo = (np.pi * n) ** 2
        hi = (np.pi * (n + 1)) ** 2
        found = False
        count = 17
        for _ in range(3):
            xs = np.linspace(lo, hi, count + 2)[1:-1]
            vs = prop.delta(xs)
            i = int(np.argmin(np.abs(vs)))
            if abs(vs[i]) < 2.0 - 1e-9:
                probes[n] = xs[i]
                found = True
                break
            count *= 3
        if not found:
            raise BracketError(f"no interior point found for band {n}")
    return probes


def _lambda0_left(prop: _Propagator) -> float:
    """A point left of the spectrum, where the trace exceeds 2."""
    lo = -prop.q.l1_bound() - 1.0
    width = 1.0
    for _ in range(60):
        if float(prop.delta(lo)[0]) > 2.0:
            return lo
        lo -= width
        width *= _BRACKET_EXPAND
    raise BracketError("no left bracket for the lowest edge within the expansion budget")


def _parabolic_peak(xs: np.ndarray, ys: np.ndarray) -> float:
    """Vertex abscissa through three points; falls back to the middle one."""
    x0, x1, x2 = xs
    y0, y1, y2 = ys
    denom = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
    if denom == 0.0:
        return float(x1)
    num = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
    vertex = x1 - 0.5 * num / denom
    if not (min(x0, x2) <= vertex <= max(x0, x2)):
        return float(x1)
    return float(vertex)


def _refine_roots(fn, a, fa, b, fb):
    """Batched safeguarded secant on sign-changing brackets, each to ``_ROOT_TOL``.

    ``a``/``b`` carry the bracket endpoints per edge with f(a) and f(b) of
    opposite sign (or zero); ``fn(x, idx)`` evaluates f of the edges
    ``idx`` at ``x``.  Each step tries the secant through the two points
    of an edge with the smallest |f| so far, inside its live bracket.  A
    secant step that moves less than half the tolerance is pushed out to
    half the tolerance, so the bracket can close from the far side, and a
    secant step that fails to halve the bracket is followed by a
    bisection.  An edge leaves the batch once its bracket is at most
    ``_ROOT_TOL (1 + |lambda|)`` wide or it hits an exact zero; returns the
    endpoint with the smaller |f| of each bracket.  Raises BracketError if
    any bracket is still open after ``_MAX_REFINE`` steps.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    # an exact zero at an endpoint is already the root
    hit = fa == 0.0
    b, fb = np.where(hit, a, b), np.where(hit, fa, fb)
    hit = fb == 0.0
    a, fa = np.where(hit, b, a), np.where(hit, fb, fa)
    a_best = np.abs(fa) <= np.abs(fb)
    x0, f0 = np.where(a_best, b, a), np.where(a_best, fb, fa)
    x1, f1 = np.where(a_best, a, b), np.where(a_best, fa, fb)
    bisect = np.zeros(a.size, dtype=bool)
    for _ in range(_MAX_REFINE):
        width = np.abs(b - a)
        tol = _ROOT_TOL * (1.0 + np.abs(b))
        live = np.flatnonzero(width > tol)
        if live.size == 0:
            return np.where(np.abs(fa) <= np.abs(fb), a, b)
        la, lb, lx0, lx1, lf0, lf1 = a[live], b[live], x0[live], x1[live], f0[live], f1[live]
        mid = 0.5 * (la + lb)
        denom = lf1 - lf0
        secant = ~bisect[live] & (denom != 0.0)
        cand = lx1 - lf1 * (lx1 - lx0) / np.where(secant, denom, 1.0)
        half_tol = 0.5 * tol[live]
        cand = np.where(np.abs(cand - lx1) < half_tol, lx1 + np.copysign(half_tol, cand - lx1), cand)
        secant &= (cand > np.minimum(la, lb)) & (cand < np.maximum(la, lb))
        cand = np.where(secant, cand, mid)
        fc = np.asarray(fn(cand, live), dtype=float)
        # cand replaces the endpoint of its sign; an exact zero closes the bracket
        exact = fc == 0.0
        left = exact | (np.sign(fc) == np.sign(fa[live]))
        right = exact | ~left
        a[live], fa[live] = np.where(left, cand, la), np.where(left, fc, fa[live])
        b[live], fb[live] = np.where(right, cand, lb), np.where(right, fc, fb[live])
        bisect[live] = secant & (np.abs(b[live] - a[live]) > 0.5 * width[live])
        # x1 holds the point with the smallest |f|, x0 the runner-up
        best = np.abs(fc) < np.abs(lf1)
        second = ~best & (np.abs(fc) < np.abs(lf0))
        x0[live] = np.where(best, lx1, np.where(second, cand, lx0))
        f0[live] = np.where(best, lf1, np.where(second, fc, lf0))
        x1[live], f1[live] = np.where(best, cand, lx1), np.where(best, fc, lf1)
    i = int(np.flatnonzero(np.abs(b - a) > _ROOT_TOL * (1.0 + np.abs(b)))[0])
    raise BracketError(f"bracket [{a[i]!r}, {b[i]!r}] still open after {_MAX_REFINE} refinement steps")


def band_edges_discriminant(
    q: Potential, n_max: int, cfg: DiscriminantConfig = DiscriminantConfig()
) -> BandEdges:
    """Band edges as roots of trace(lambda) = +/- 2.

    The mean-free potential is solved and the mean added back to every
    edge, as in the Fourier route: trace_q(lambda) = trace_{q - mean}(lambda
    - mean).  A coarse scan between band probes and a zoom on each hump of
    the trace find the brackets, which a safeguarded secant refines to
    ``_ROOT_TOL``.  Both run in double precision wherever it resolves the
    hump, and in extended precision where it does not.  Where the target
    value is a double root (a collapsed gap) no sign change exists; the hump
    of the trace is then localized directly and the pair reported with
    identical edges.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    prop = _Propagator(q.without_mean(), cfg.steps)
    probes = _band_probes(prop, n_max)
    left0 = _lambda0_left(prop)

    signs = np.array([1.0 if n % 2 == 0 else -1.0 for n in range(1, n_max + 1)])

    # the coarse scan of each inter-band window, then a zoom on the hump of
    # the trace; gx/gg hold each gap's last evaluated grid.  One precision
    # rule judges every grid evaluated in double precision: a hump above
    # 2 + _HUMP_OPEN is refined in double, one above 2 + _HUMP_SEEN in
    # extended precision; a grid whose values span less than _HUMP_SEEN, or
    # one at the width floor, is evaluated again in extended precision and
    # its gap zooms in extended from there on.  In extended precision a
    # hump above 2 + _HUMP_SEEN is refined; at the width floor a parabola
    # fit separates a real hump from the noise floor
    windows = {n: np.linspace(probes[n], probes[n + 1], 33) for n in range(n_max)}
    gx: dict[int, np.ndarray] = {}
    gg: dict[int, np.ndarray] = {}
    extended_refine: list[int] = []
    collapsed_at: dict[int, float] = {}
    in_extended: set[int] = set()
    zoom_pts = 17
    pending = list(range(n_max))
    for _ in range(41):  # the scan and at most 40 zoom steps
        if not pending:
            break
        for extended in (False, True):
            ns = [n for n in pending if (n in in_extended) == extended]
            if not ns:
                continue
            vals = prop.delta(np.concatenate([windows[n] for n in ns]), extended=extended)
            for n, v in zip(ns, np.split(vals, np.cumsum([windows[n].size for n in ns])[:-1])):
                gx[n], gg[n] = windows[n], signs[n] * v
        still = []
        for n in pending:
            x, g = gx[n], gg[n]
            at_floor = float(x[-1] - x[0]) <= 1e-8 * (1.0 + abs(float(x[0])))
            if n not in in_extended:
                if g.max() > 2.0 + _HUMP_OPEN:
                    continue
                if g.max() > 2.0 + _HUMP_SEEN:
                    extended_refine.append(n)
                    continue
                if g.max() - g.min() < _HUMP_SEEN or at_floor:
                    in_extended.add(n)  # the same window again, in extended precision
                    still.append(n)
                    continue
            elif g.max() > 2.0 + _HUMP_SEEN:
                extended_refine.append(n)
                continue
            elif at_floor:
                # quadratic model of the hump against its residuals; the
                # subtraction happens in extended precision, the fit in double
                center = float(x[x.size // 2])
                z = x - center
                y = np.asarray(g - 2.0, dtype=float)
                c2, c1, c0 = np.polyfit(z, y, 2)
                rms = float(np.sqrt(np.mean((y - np.polyval([c2, c1, c0], z)) ** 2)))
                height = c0 - c1 * c1 / (4.0 * c2) if c2 < 0 else float(np.max(y))
                if c2 < 0 and height > max(6.0 * rms, 3e-14):
                    peak = float(np.clip(center - c1 / (2.0 * c2), x[1], x[-2]))
                    gpk = signs[n] * prop.delta(np.array([peak]), extended=True)[0]
                    if gpk > 2.0:
                        j = int(np.searchsorted(x, peak))
                        gx[n] = np.insert(x, j, peak)
                        gg[n] = np.insert(g, j, gpk)
                        extended_refine.append(n)
                        continue
                i = min(max(int(np.argmax(g)), 1), x.size - 2)
                collapsed_at[n] = _parabolic_peak(
                    np.asarray(x[i - 1 : i + 2], dtype=float),
                    np.asarray(g[i - 1 : i + 2], dtype=float),
                )
                continue
            i = min(max(int(np.argmax(g)), 1), x.size - 2)
            windows[n] = np.linspace(x[i - 1], x[i + 1], zoom_pts)
            still.append(n)
        pending = still
    for n in pending:  # zoom budget exhausted: best point stands as the double root
        collapsed_at[n] = float(gx[n][int(np.argmax(gg[n]))])

    # assemble sign-change brackets: lambda_0 plus both edges of each open
    # gap, the gaps of extended_refine in extended precision
    def brackets_for(ns):
        br_a, br_b, br_sgn, slots = [], [], [], []
        for n in ns:
            g = gg[n]
            x = gx[n]
            i_max = int(np.argmax(g))
            iL = i_max
            while iL > 0 and g[iL] > 2.0:
                iL -= 1
            iR = i_max
            while iR < g.size - 1 and g[iR] > 2.0:
                iR += 1
            br_a.extend((float(x[iL]), float(x[iR - 1])))
            br_b.extend((float(x[iL + 1]), float(x[iR])))
            br_sgn.extend((signs[n], signs[n]))
            slots.extend(((n, "minus"), (n, "plus")))
        return br_a, br_b, br_sgn, slots

    double_refine = [n for n in range(n_max) if n not in collapsed_at and n not in extended_refine]
    a1, b1, s1, slots1 = brackets_for(double_refine)
    a1 = [left0] + a1
    b1 = [float(probes[0])] + b1
    s1 = [1.0] + s1
    slots1 = [(-1, "root0")] + slots1
    a2, b2, s2, slots2 = brackets_for(extended_refine)

    def make_f(sv, extended):
        sg = np.array(sv)

        def f_batch(x, idx):
            return np.asarray(sg[idx] * prop.delta(x, extended=extended) - 2.0, dtype=float)

        return f_batch

    def at_ends(f, av, bv):  # f at both ends of every bracket, in one sweep
        k = np.arange(av.size)
        fab = f(np.concatenate((av, bv)), np.concatenate((k, k)))
        return fab[: av.size], fab[av.size :]

    roots1 = np.empty(0)
    if a1:
        f1 = make_f(s1, extended=False)
        av, bv = np.array(a1), np.array(b1)
        fa, fb = at_ends(f1, av, bv)
        bad = fa * fb > 0.0
        if np.any(bad):
            i = int(np.where(bad)[0][0])
            raise BracketError(
                f"no sign change over [{a1[i]!r}, {b1[i]!r}] for edge slot {slots1[i]}"
            )
        roots1 = _refine_roots(f1, av, fa, bv, fb)

    roots2 = np.empty(0)
    if a2:
        f2 = make_f(s2, extended=True)
        av, bv = np.array(a2), np.array(b2)
        fa, fb = at_ends(f2, av, bv)
        # humps at the resolution floor may lose their sign change on
        # re-evaluation; such gaps are numerically collapsed
        drop = sorted({slots2[i][0] for i in np.where(fa * fb > 0.0)[0]})
        if drop:
            for n in drop:
                i = slots2.index((n, "minus"))
                collapsed_at[n] = 0.5 * (float(av[i]) + float(bv[i + 1]))
            keep = [i for i, (n, _) in enumerate(slots2) if n not in drop]
            slots2 = [slots2[i] for i in keep]
            s2 = [s2[i] for i in keep]
            f2 = make_f(s2, extended=True)
            av, bv, fa, fb = av[keep], bv[keep], fa[keep], fb[keep]
        if slots2:
            roots2 = _refine_roots(f2, av, fa, bv, fb)

    lam0 = float(roots1[0])
    pairs: list[list[float]] = [[math.nan, math.nan] for _ in range(n_max)]
    collapsed = [False] * n_max
    for val, (n, side) in zip(roots1[1:], slots1[1:]):
        pairs[n][0 if side == "minus" else 1] = float(val)
    for val, (n, side) in zip(roots2, slots2):
        pairs[n][0 if side == "minus" else 1] = float(val)
    for n, x in collapsed_at.items():
        pairs[n] = [x, x]
        collapsed[n] = True

    edges = BandEdges(
        lambda0=lam0 + q.mean,
        pairs=tuple((lo + q.mean, hi + q.mean) for lo, hi in pairs),
        method="discriminant",
        resolution=prop.steps,
        collapsed=tuple(collapsed),
    )
    edges.validate()
    return edges


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
    dcfg: DiscriminantConfig = DiscriminantConfig(),
) -> CrossValidation:
    """Run both routes on the same potential."""
    return CrossValidation(band_edges_galerkin(q, n_max, gcfg), band_edges_discriminant(q, n_max, dcfg))
