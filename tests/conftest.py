"""Shared oracles for the test suite.

These deliberately avoid the library's own code paths: the convolution
oracle is a literal double sum, and the operator-norm oracle maximizes the
convolution ratio by alternating singular-value steps.
"""

import numpy as np

from hillgaps import TwoSidedSeq


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
