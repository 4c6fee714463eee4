"""Shared oracles for the test suite.

These deliberately avoid the library's own code paths: the convolution
oracle is a literal double sum, the operator-norm oracle maximizes the
convolution ratio by alternating singular-value steps, and the Lame edges
come from theta series.  ``loop_convolve``,
``loop_norm`` and ``loop_rho`` are frozen copies of the per-shift, per-pair
and per-index loops that the library's batched kernels replaced; the
kernels must reproduce their bits, signed zeros and non-finite values
included.
"""

import math

import numpy as np

from hillgaps import TwoSidedSeq, power_weight


def brute_convolve(a: TwoSidedSeq, b: TwoSidedSeq) -> np.ndarray:
    """Literal double-sum convolution sum_j a(k-j) b(j), ascending j, as a centred array."""

    def at(seq, k):
        return complex(seq.coef[seq.support + k]) if abs(k) <= seq.support else 0j

    out = []
    kmax = a.support + b.support
    for k in range(-kmax, kmax + 1):
        acc = 0j
        for j in range(-b.support, b.support + 1):
            acc += at(a, k - j) * at(b, j)
        out.append(acc)
    return np.array(out)


def bits(z) -> tuple[int, ...]:
    """The raw 64-bit words of a float or complex value or array, so -0.0 and NaN payloads compare too."""
    arr = np.asarray(z)
    arr = np.ascontiguousarray(arr, dtype=complex if np.iscomplexobj(arr) else float)
    return tuple(arr.view(np.uint64).ravel().tolist())


@np.errstate(over="ignore", invalid="ignore")
def loop_convolve(a: TwoSidedSeq, b: TwoSidedSeq) -> np.ndarray:
    """Convolution as one shifted copy of a added per nonzero b(j), ascending j."""
    out = np.zeros(2 * (a.support + b.support) + 1, dtype=complex)
    re, im = out.real, out.imag
    ar, ai = a.coef.real, a.coef.imag
    n = a.coef.size
    for j in np.flatnonzero(b.coef):
        br, bi = b.coef.real[j], b.coef.imag[j]
        re[j : j + n] += ar * br - ai * bi
        im[j : j + n] += ar * bi + ai * br
    return out


@np.errstate(over="ignore", invalid="ignore")
def loop_norm(a: TwoSidedSeq, w) -> float:
    """Weighted norm with the weight evaluated at the nonzero indices of one sequence, as a running sum."""
    idx = np.flatnonzero(a.coef)
    if idx.size == 0:
        return 0.0
    wk = w(idx - a.support)
    v = a.coef[idx]
    return math.sqrt(np.cumsum((wk * wk) * (v.real * v.real + v.imag * v.imag))[-1])


def loop_ratio(a: TwoSidedSeq, b: TwoSidedSeq, s: float, r: float, t: float) -> float:
    """||a*b||_{h^t} / (||a||_{h^s} ||b||_{h^r}) for one pair, from the loop oracles."""
    ws, wr, wt = power_weight(s), power_weight(r), power_weight(t)
    return loop_norm(TwoSidedSeq(loop_convolve(a, b)), wt) / (loop_norm(a, ws) * loop_norm(b, wr))


def loop_rho(q, n: int) -> complex:
    """rho(n) as Python's scalar complex sum over the nonzero c(a), ascending a.

    The divisors are made complex, which is how CPython before 3.14 divides
    a complex by an int or a float; 3.14 divides each part instead, and
    the library keeps the older rule on every version.
    """
    acc = 0j
    for a, ca in q.nonzero_coefficients():
        b = n - a
        if a != 0 and b != 0:
            cb = q.coefficient(b)
            if cb:
                acc += ca * cb / complex(a * b)
    return acc / complex(4.0 * math.pi * math.pi)


def lame_edges(ell: int, t: float) -> np.ndarray:
    """The 2 ell + 1 band edges of ``lame(ell, t)``, ascending, up to a common shift (ell = 1, 2).

    With the theta constants of nome p = exp(-pi t), e1 = (pi^2/3)(th3^4 +
    th4^4), e2 = (pi^2/3)(th2^4 - th4^4) and e3 = -(pi^2/3)(th2^4 + th3^4)
    (DLMF 20.2, 23.6).  For ell = 1 the edges are -e1, -e2, -e3; for ell = 2
    they are 3 e1, 3 e2, 3 e3 and +-sqrt(3 g2), g2 = 2 (e1^2 + e2^2 + e3^2).
    """
    p = math.exp(-math.pi * t)
    m = np.arange(1, 40)
    th2 = 2.0 * np.sum(p ** ((m - 0.5) ** 2))
    th3 = 1.0 + 2.0 * np.sum(p ** (m * m))
    th4 = 1.0 + 2.0 * np.sum((-1.0) ** m * p ** (m * m))
    c = math.pi**2 / 3.0
    e = np.array([c * (th3**4 + th4**4), c * (th2**4 - th4**4), -c * (th2**4 + th3**4)])
    if ell == 1:
        return np.sort(-e)
    g2 = 2.0 * np.sum(e * e)
    return np.sort(np.concatenate((3.0 * e, [math.sqrt(3.0 * g2), -math.sqrt(3.0 * g2)])))


def _pw(s: float, kmax: int) -> np.ndarray:
    ks = np.arange(-kmax, kmax + 1)
    return (1.0 + 2.0 * np.abs(ks)) ** s


def _conv_matrix(b: np.ndarray, n: int) -> np.ndarray:
    """Matrix of a -> a*b from support [-n, n] to support [-2n, 2n]."""
    m = np.zeros((4 * n + 1, 2 * n + 1), dtype=complex)
    for j in range(2 * n + 1):
        m[j : j + 2 * n + 1, j] = b
    return m


def operator_constant(s: float, r: float, t: float, n: int, seed: int = 12345, extra_inits=()) -> float:
    """Best convolution-ratio constant over support-n pairs.

    Alternates exact singular-value maximization in each factor from a
    spread of starting points (plus any supplied pairs), so the returned
    value dominates every ratio the alternation can reach from them.
    """
    ws = _pw(s, n)
    wr = _pw(r, n)
    wt = _pw(t, 2 * n)
    rng = np.random.default_rng(seed)

    def best_a_given(bvec):
        m = np.diag(wt) @ _conv_matrix(bvec, n) @ np.diag(1.0 / ws)
        u, sv, vh = np.linalg.svd(m)
        x = vh[0].conjugate()
        a = x / ws
        bn = np.sqrt(np.sum(wr**2 * np.abs(bvec) ** 2))
        return a, sv[0] / bn

    inits = [np.ones(2 * n + 1, dtype=complex)]
    d = np.zeros(2 * n + 1, dtype=complex)
    d[n] = 1.0
    inits.append(d)
    for _ in range(6):
        inits.append(rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1))
    inits.extend(extra_inits)

    best = 0.0
    for b0 in inits:
        b = np.asarray(b0, dtype=complex)
        ratio = 0.0
        for _ in range(60):
            a, ra = best_a_given(b)
            b, rb = best_a_given(a)
            if abs(rb - ratio) <= 1e-13 * max(1.0, rb):
                ratio = rb
                break
            ratio = rb
        best = max(best, ratio)
    return best
