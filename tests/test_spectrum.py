import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import lame_edges

from hillgaps import (
    BandEdges,
    BracketError,
    CrossValidation,
    DiscriminantConfig,
    GalerkinConfig,
    InputError,
    IntegrationError,
    InterlacingError,
    band_edges_discriminant,
    band_edges_galerkin,
    cross_validate,
    discriminant,
    from_fourier,
    galerkin_matrix,
    lame,
    mathieu,
    power_decay,
    random_hs,
    two_harmonic,
)
from hillgaps import spectrum
from hillgaps.spectrum import (
    _BLOCK_ELEMS,
    _GAP_RTOL,
    _MAX_REFINE,
    _ROOT_TOL,
    _chosen_propagator,
    _edge_tol,
    _eigenvalues,
    _bisect_position,
    _Propagator,
    _refine_roots,
    _root_tol,
)

ZERO = from_fourier(0.0, [])
# not even: a complex coefficient, so the sweep runs the full period
COMPLEX = from_fourier(0.0, [(2, 0.3), (4, 0.1 + 0.05j)])


# ------------------------------------------------------------- matrices


def test_galerkin_matrix_free_periodic():
    # basis order: 1, cos 2 pi j x (j = 1, 2), then sin 2 pi j x (j = 1, 2)
    m = galerkin_matrix(ZERO, "periodic", 2)
    assert m.dtype == np.float64
    want = np.diag([0.0] + 2 * [(2 * np.pi * j) ** 2 for j in (1, 2)])
    assert np.array_equal(m, want)


def test_galerkin_matrix_free_semiperiodic():
    # basis order: cos pi (2j+1) x (j = 0, 1), then sin pi (2j+1) x (j = 0, 1)
    m = galerkin_matrix(ZERO, "semiperiodic", 2)
    assert m.dtype == np.float64
    want = np.diag(2 * [(np.pi * (2 * j + 1)) ** 2 for j in (0, 1)])
    assert np.array_equal(m, want)


def test_galerkin_matrix_mathieu_band_structure():
    # q = 2c cos 2 pi x: neighbours couple by c inside the cos and sin blocks;
    # the constant couples to cos 2 pi x by sqrt2 c, and the semiperiodic
    # Hankel term splits the lowest pair by +-c
    c = 0.7
    n = 4
    m = galerkin_matrix(mathieu(c), "periodic", n)
    off = m - np.diag(np.diag(m))
    want = np.zeros((2 * n + 1, 2 * n + 1))
    for j in range(1, n):
        for block in (0, n):
            want[block + j, block + j + 1] = want[block + j + 1, block + j] = c
    want[0, 1] = want[1, 0] = np.sqrt(2.0) * c
    assert np.array_equal(off, want)

    m = galerkin_matrix(mathieu(c), "semiperiodic", n)
    want = np.diag(2 * [(np.pi * (2 * j + 1)) ** 2 for j in range(n)])
    for j in range(n - 1):
        for block in (0, n):
            want[block + j, block + j + 1] = want[block + j + 1, block + j] = c
    want[0, 0] += c
    want[n, n] -= c
    assert np.array_equal(m, want)


def _toeplitz_plus_hankel(q, parity, n_trunc):
    """Entry-by-entry reference for the real-basis matrix, from q.coefficient."""
    periodic = parity == "periodic"
    ms = [2 * j for j in range(1, n_trunc + 1)] if periodic else [2 * j + 1 for j in range(n_trunc)]
    off = 1 if periodic else 0
    nc = off + n_trunc
    want = np.zeros((nc + n_trunc, nc + n_trunc))
    for a, ma in enumerate(ms):
        for b, mb in enumerate(ms):
            ct = q.coefficient((ma - mb) // 2)
            ch = q.coefficient((ma + mb) // 2)
            free = (np.pi * ma) ** 2 if a == b else 0.0
            want[off + a, off + b] = ct.real + ch.real + free
            want[nc + a, nc + b] = ct.real - ch.real + free
            want[off + a, nc + b] = ct.imag - ch.imag
            want[nc + b, off + a] = ct.imag - ch.imag
    if periodic:
        for j in range(1, n_trunc + 1):
            want[0, j] = want[j, 0] = np.sqrt(2.0) * q.coefficient(j).real
            want[0, n_trunc + j] = want[n_trunc + j, 0] = -np.sqrt(2.0) * q.coefficient(j).imag
    return want


def test_galerkin_matrix_hermitian_exactly():
    # real symmetric, bit for bit, with Toeplitz-plus-Hankel entries
    q = random_hs(1.0, 8, 3)
    for parity in ("periodic", "semiperiodic"):
        m = galerkin_matrix(q, parity, 16)
        assert m.dtype == np.float64
        assert np.array_equal(m, m.T)
        assert np.array_equal(m, _toeplitz_plus_hankel(q, parity, 16))


def _complex_galerkin_matrix(q, parity, n_trunc):
    """The operator in the exponential basis: free diagonal plus c(j - l)."""
    js = np.arange(-n_trunc, n_trunc + 1) if parity == "periodic" else np.arange(-n_trunc, n_trunc)
    diag = (np.pi * (2 * js + (parity == "semiperiodic"))) ** 2
    mat = np.array([[q.coefficient(int(j - l)) for l in js] for j in js])
    return mat + np.diag(diag)


def _floor(mat):
    return 8.0 * np.finfo(float).eps * np.linalg.norm(mat, 2)


@pytest.mark.parametrize("parity", ["periodic", "semiperiodic"])
@pytest.mark.parametrize(
    "q",
    [mathieu(0.7), power_decay(2.0, 32), random_hs(1.0, 48, 3)],
    ids=["mathieu", "power_decay", "random_hs"],
)
def test_real_basis_matches_complex_oracle(q, parity):
    # the lower half of the spectrum holds every reported edge; the top of a
    # dense solve's spectrum carries a larger roundoff constant
    n_trunc = 96
    real = galerkin_matrix(q, parity, n_trunc)
    oracle = _complex_galerkin_matrix(q, parity, n_trunc)
    want = np.linalg.eigvalsh(oracle)[:n_trunc]
    assert np.max(np.abs(np.linalg.eigvalsh(real)[:n_trunc] - want)) <= _floor(real)


@pytest.mark.parametrize("parity", ["periodic", "semiperiodic"])
def test_even_split_matches_unsplit_solve(parity):
    n_trunc = 96
    for q in (mathieu(0.7), power_decay(2.0, 32)):
        m = galerkin_matrix(q, parity, n_trunc)
        nc = m.shape[0] - n_trunc
        assert not np.any(m[:nc, nc:])  # even q: cos and sin decouple
        split = _eigenvalues(m, n_trunc)
        assert np.max(np.abs(split[:n_trunc] - np.linalg.eigvalsh(m)[:n_trunc])) <= _floor(m)
    assert np.any(galerkin_matrix(random_hs(1.0, 48, 3), parity, n_trunc)[:nc, nc:])


def test_galerkin_matrix_rejects_aliasing_and_mean():
    with pytest.raises(InputError, match="alias"):
        galerkin_matrix(power_decay(2.0, 8), "periodic", 4)
    with pytest.raises(InputError, match="mean"):
        galerkin_matrix(from_fourier(1.0, [(1, 0.1)]), "periodic", 8)
    with pytest.raises(InputError):
        galerkin_matrix(ZERO, "dirichlet", 8)


def test_galerkin_config_floor():
    with pytest.raises(InputError):
        band_edges_galerkin(ZERO, 30, GalerkinConfig(n_trunc=64))


def test_galerkin_default_truncation():
    assert GalerkinConfig().resolve(8, 16) == 64
    assert GalerkinConfig().resolve(128, 128) == 320
    assert GalerkinConfig().resolve(96, 32) == 208
    assert GalerkinConfig().resolve(32, 40) == 96


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2000), st.integers(0, 4096))
def test_galerkin_default_within_floor_and_former_default(n_max, cutoff):
    # never below the safety floor, and never above max(64, 4 n_max + 2 K) or
    # max(64, 2 n_max + 16, n_max + 2 K): the default solves every input
    # either earlier default solved, at no larger a matrix
    former = max(64, 4 * n_max + 2 * cutoff)
    try:
        n = GalerkinConfig().resolve(n_max, cutoff)
    except InputError:
        assert former > 4096
        return
    assert max(2 * n_max + 16, cutoff) <= n <= min(former, max(64, 2 * n_max + 16, n_max + 2 * cutoff))


@pytest.mark.parametrize(
    "q, n_max",
    [
        (random_hs(1.0, 48, 3), 48),
        (random_hs(0.0, 96, 1), 16),
        (power_decay(2.0, 32), 60),
        (power_decay(1.0, 128), 128),
    ],
    ids=["K=n", "K>>n", "K<<n", "K=n=128"],
)
def test_default_truncation_edges(q, n_max):
    # at the default truncation the edges agree with the discriminant route, and
    # doubling the truncation moves them by no more than the eigensolver's
    # rounding floor, 8 eps ||A|| with ||A|| ~ (2 pi (n_trunc + 1))^2 for each solve
    edges = band_edges_galerkin(q, n_max)
    ref = band_edges_discriminant(q, n_max).all_edges()
    got = edges.all_edges()
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.maximum(np.abs(got), np.abs(ref)))) <= 1e-10
    n_trunc = edges.resolution
    doubled = band_edges_galerkin(q, n_max, GalerkinConfig(n_trunc=2 * n_trunc)).all_edges()
    assert np.max(np.abs(got - doubled)) <= _doubling_floor(n_trunc)


def _doubling_floor(n_trunc):
    """Rounding floor of two Galerkin solves at n_trunc and 2 n_trunc, 8 eps (2 pi (n + 1))^2 each."""
    return 8.0 * np.finfo(float).eps * sum((2.0 * np.pi * (n + 1)) ** 2 for n in (n_trunc, 2 * n_trunc))


def test_default_truncation_strong_coupling():
    # c(40) = 30 + 30i couples index j to j +- 40 strongly; at n_max = 32 the
    # default, ceil(32 / 2) + 2 * 40 = 96, lies below n_max + 2 K = 112, and
    # doubling it moves no edge past the rounding floor.  Only the doubled
    # truncation is the reference here: at its default 2048 steps the
    # discriminant route is itself about 5e-9 off on this potential
    q = from_fourier(0.0, [(1, 30.0), (40, 30.0 + 30.0j)])
    edges = band_edges_galerkin(q, 32)
    assert edges.resolution == 96
    doubled = band_edges_galerkin(q, 32, GalerkinConfig(n_trunc=192)).all_edges()
    assert np.max(np.abs(edges.all_edges() - doubled)) <= _doubling_floor(96)


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("t", [0.3, 0.5, 1.0, 2.0])
def test_lame_galerkin_closed_forms(ell, t):
    # at the default truncation the 2 ell + 1 lowest edges match the theta
    # series up to their common shift, and every gap n > ell is closed, both
    # within the eigensolver's rounding floor 8 eps (2 pi n_trunc)^2
    edges = band_edges_galerkin(lame(ell, t), 8)
    floor = 8.0 * np.finfo(float).eps * (2.0 * np.pi * edges.resolution) ** 2
    got = edges.all_edges()[: 2 * ell + 1]
    exact = lame_edges(ell, t)
    assert np.max(np.abs((got - got[0]) - (exact - exact[0]))) <= floor
    assert np.max(edges.gaps()[ell:]) <= floor


# ------------------------------------------------------------- free operator


def test_free_operator_galerkin_exact():
    edges = band_edges_galerkin(ZERO, 5)
    assert edges.lambda0 == 0.0
    for n, (lo, hi) in enumerate(edges.pairs, start=1):
        assert lo == hi == (n * np.pi) ** 2


def test_constant_potential_is_shifted_free():
    edges = band_edges_galerkin(from_fourier(5.0, []), 5)
    assert edges.lambda0 == 5.0
    for n, (lo, hi) in enumerate(edges.pairs, start=1):
        assert lo == hi == pytest.approx((n * np.pi) ** 2 + 5.0, rel=1e-15)


@pytest.mark.parametrize("steps", [256, 1000, 2048, 4096])
def test_free_operator_discriminant_collapsed(steps):
    # equal steps round alike, so D's error on q = 0 can exceed its rounding
    # bound B (up to 3.2 B measured); no gap opens at these counts all the same
    edges = band_edges_discriminant(ZERO, 24, DiscriminantConfig(steps=steps))
    assert edges.resolution == steps
    assert all(edges.collapsed)
    assert abs(edges.lambda0) < 1e-9
    for n, (lo, hi) in enumerate(edges.pairs, start=1):
        assert lo == hi
        assert lo == pytest.approx((n * np.pi) ** 2, rel=1e-14)


# ------------------------------------------------------------- discriminant values


def test_discriminant_closed_forms():
    assert discriminant(ZERO, np.pi**2 / 4) == pytest.approx(0.0, abs=1e-12)
    assert discriminant(ZERO, 0.0) == pytest.approx(2.0, rel=1e-13)
    assert discriminant(ZERO, -1.0) == pytest.approx(2 * np.cosh(1.0), rel=1e-13)


def test_wronskian_witness_tiny(monkeypatch):
    # the witness delta checks, det A of the half period for the folded even
    # potential, passes a limit 1000 times tighter than its own: no sweep
    # fails and the solve needs no restart
    monkeypatch.setattr(spectrum, "_WRONSKIAN_LIMIT", 1e-9)
    sweeps, _ = _count_sweeps(monkeypatch)
    for q in (mathieu(0.5), COMPLEX):
        _Propagator(q, 2048).delta(np.array([np.pi**2 / 4, 0.0, -1.0, 500.0]))
        assert band_edges_discriminant(q, 4, DiscriminantConfig(steps=2048)).resolution == 2048
    assert {steps for steps, _ in sweeps} == {2048}


def test_step_doubling_then_integration_error(monkeypatch):
    # q = 160 i exp(2 pi i 32 x): at 2048 steps the witness passes on the
    # probes, the scan and the brackets, then fails on one refinement sweep
    # at lambda = -159.27 (drift 3.8e-6).  The solve restarts at 4096 steps
    # and takes every sample there: its edges are those of a solve started
    # at 4096, 5.6e-8 from Galerkin where the mixed solve was 1.3e-7 off
    q = from_fourier(0.0, [(32, 160j)])
    sweeps, _ = _count_sweeps(monkeypatch)
    edges = band_edges_discriminant(q, 4, DiscriminantConfig(steps=2048))
    steps = [s for s, _ in sweeps]
    first = steps.index(4096)
    assert set(steps[:first]) == {2048} and set(steps[first:]) == {4096}
    assert edges.resolution == 4096
    assert edges == band_edges_discriminant(q, 4, DiscriminantConfig(steps=4096))
    # exp(100) growth below the spectrum stays finite, but the Wronskian
    # loses every digit to cancellation at any step count: one sweep, one error
    with pytest.raises(IntegrationError, match="Wronskian.*steps=256"):
        _Propagator(ZERO, 256).delta(-1e4)


@pytest.mark.parametrize(
    "start, tried", [(256, [256, 512, 1024]), (32768, [32768, 65536])], ids=["retries", "max-steps"]
)
def test_restarts_stop_at_retries_and_max_steps(monkeypatch, start, tried):
    # a witness that always fails: the solve restarts twice at most, never
    # past _MAX_STEPS, and the error names the last step count
    monkeypatch.setattr(spectrum, "_WRONSKIAN_LIMIT", -1.0)
    sweeps, _ = _count_sweeps(monkeypatch)
    with pytest.raises(IntegrationError, match=f"Wronskian.*steps={tried[-1]}$"):
        band_edges_discriminant(ZERO, 2, DiscriminantConfig(steps=start))
    assert [s for s, _ in sweeps] == tried


def test_non_finite_trace_raises_at_once(monkeypatch):
    # exp(1000) growth overflows: more steps cannot cure it, so no restart
    sweeps, _ = _count_sweeps(monkeypatch)
    with pytest.raises(IntegrationError, match=r"non-finite.*steps=256"):
        band_edges_discriminant(from_fourier(0.0, [(2, 1e154)]), 2, DiscriminantConfig(steps=256))
    assert [s for s, _ in sweeps] == [256]


def test_sweep_batch_invariance():
    # 1000 steps: blocks of 963 (batch 17) and 17 (batch 924) steps leave a
    # partial last block; past _BLOCK_ELEMS points each block is one step
    prop = _Propagator(mathieu(0.5), 1000)
    probes = np.array([-2.0, 22.0, np.pi**2])  # below the spectrum, in band 1, in gap 1
    alone = [np.concatenate(parts) for parts in zip(*(prop.delta(x) for x in probes))]
    trace, disc, bound = alone
    assert trace[0] > 2.0 and abs(trace[1]) < 2.0 and trace[2] < -2.0
    assert disc[0] > bound[0] and disc[1] < -bound[1] and disc[2] > bound[2]
    for size in (17, 924, _BLOCK_ELEMS + 27):
        batch = np.linspace(-50.0, 2000.0, size)
        at = [0, size // 2, size - 1]
        batch[at] = probes
        for got, want in zip(prop.delta(batch), alone):
            assert np.array_equal(got[at], want)


def _sequential_monodromy(prop: _Propagator, lams: np.ndarray) -> np.ndarray:
    """Test oracle: the monodromy matrix multiplied in step by step, in extended precision.

    Each step is the exact exponential of the two-point Gauss average of the
    coefficient matrix, applied to the fundamental pair one step at a time,
    with the potential at the Gauss points of ``prop``'s grid.  Returns
    M11, M12, M21, M22 as ``np.longdouble`` arrays.
    """
    ld = np.longdouble
    qa, qb = (np.asarray(v, dtype=ld) for v in (prop.qa, prop.qb))
    h = ld(1) / ld(qa.size)
    lams = np.asarray(lams, dtype=float).astype(ld)
    u = np.array([np.ones_like(lams), np.zeros_like(lams)])
    p = u[::-1].copy()
    for wa, wb in zip(qa, qb):
        w1, w2 = wa - lams, wb - lams
        wbar = (w1 + w2) / 2
        d = ld(np.sqrt(3.0) / 12.0) * h * h * (w1 - w2)
        mu2 = d * d + h * h * wbar
        m = np.sqrt(np.abs(mu2))
        hyp = mu2 >= 0
        c = np.where(hyp, np.cosh(np.where(hyp, m, 0)), np.cos(m))
        s = np.where(hyp, np.sinh(np.where(hyp, m, 0)), np.sin(m)) / np.where(m > 0, m, 1)
        s = np.where(m > 0, s, 1)
        m11, m12, m21, m22 = c + s * d, s * h, s * h * wbar, c - s * d
        u, p = m11 * u + m12 * p, m21 * u + m22 * p
    return np.array([u[0], p[0], u[1], p[1]])


def _sin_cos_deviations(qa, qb, h, lams):
    """Test copy of the step deviations E = M - I in the sin/cos and sinh/cosh form.

    Operation for operation the arithmetic of every step that
    ``_step_deviations`` leaves out of its tan form, so it gives the same
    bits there.  Returns E11, E12, E21, E22.
    """
    hq = h * (0.5 * (qa + qb))
    d = (np.sqrt(3.0) / 12.0) * h * h * (qa - qb)
    x = (0.25 * (d * d + h * hq))[:, None] - (0.25 * h * h) * lams
    hyp = x >= 0.0
    x = np.maximum(np.sqrt(np.abs(x)), 1e-20)
    with np.errstate(over="ignore"):
        sn = np.where(hyp, np.sinh(x), np.sin(x))
        cs = np.where(hyp, np.cosh(x), np.cos(x))
    c1 = np.where(hyp, 2.0, -2.0) * (sn * sn)
    s = sn * cs / x
    sd = s * d[:, None]
    return np.array([c1 + sd, s * h, (hq[:, None] - h * lams) * s, c1 - sd])


def _leaf(qa, qb, h, lams, lam_osc):
    out = np.empty((4, qa.size, lams.size))
    spectrum._step_deviations(qa, qb, h, lams, lam_osc, out, np.empty((3, qa.size, lams.size)))
    return out


def test_tan_leaf_within_4_ulp_of_sin_cos():
    # qa = qb, so d = 0: E11 = E22 = c - 1 and E12 = s h exactly.  The
    # lambdas run from just above max q, where x is tiny, across the tan
    # limit x = pi/4 at lambda - q = (128 pi)^2 = 1.6e5
    h = 1.0 / 256
    q = 1000.0 * np.sin(2 * np.pi * np.arange(256) * h)
    lams = np.concatenate((1000.0 + np.geomspace(1e-6, 1.5e5, 40), np.linspace(1.55e5, 1.7e5, 41)))
    x = np.sqrt((0.25 * h * h) * lams - (0.25 * (h * (h * q)))[:, None])  # as the leaf rounds it
    tan = x <= np.pi / 4
    assert tan.any() and not tan.all()
    got, want = _leaf(q, q, h, lams, 1000.0), _sin_cos_deviations(q, q, h, lams)
    assert np.array_equal(got[0], got[3])
    for g, w in ((got[0], want[0]), (got[1] / h, want[1] / h)):
        assert np.all(np.abs(g - w) <= 4 * np.finfo(float).eps * np.abs(w))
        assert np.array_equal(g[~tan], w[~tan])
        assert not np.array_equal(g[tan], w[tan])


def test_sin_cos_leaf_bit_identical_at_or_below_lam_osc():
    # below min q every step is hyperbolic, between min q and lam_osc the
    # steps mix; the lambdas above lam_osc in the same block take tan
    prop = _Propagator(COMPLEX, 256)
    low = np.concatenate((np.linspace(-30.0, prop.lam_osc, 30), [np.nextafter(prop.lam_osc, -np.inf)]))
    lams = np.concatenate((low, [np.nextafter(prop.lam_osc, np.inf), 50.0, 2000.0]))
    args = prop.qa, prop.qb, 1.0 / 256
    want = _sin_cos_deviations(*args, low)
    assert np.array_equal(_leaf(*args, low, prop.lam_osc), want)
    got = _leaf(*args, lams, prop.lam_osc)
    assert np.array_equal(got[:, :, : low.size], want)
    assert not np.array_equal(got[:, :, low.size :], _sin_cos_deviations(*args, lams[low.size :]))


@pytest.mark.parametrize("steps", [256, 1000, 2048, 4096])
def test_sweep_closed_forms_zero_potential(steps):
    # the step-by-step product reached 6.0e-13 here (4096 steps, lambda <= -1)
    lams = np.array([-25.0, -1.0, 0.0, np.pi**2 / 4, 10.0, 50.0, 500.0, 2000.0])
    root = np.sqrt(np.abs(lams))
    exact = np.where(lams < 0, 2 * np.cosh(root), 2 * np.cos(root))
    got = _Propagator(ZERO, steps).delta(lams)[0]
    assert np.max(np.abs(got - exact) / np.maximum(1.0, np.abs(exact))) <= 5e-14


@pytest.mark.parametrize(
    "q, steps, top",
    [
        (mathieu(0.5), 1000, 2000.0),
        (mathieu(0.5), 2048, 2000.0),
        (random_hs(1.0, 48, 3), 2048, 2000.0),
        # half angles past pi/4 from lambda = (128 pi)^2 = 1.6e5: sin and cos there
        (mathieu(0.5), 256, 3e5),
    ],
    ids=["1000", "2048", "random_hs", "256-past-tan-limit"],
)
def test_sweep_matches_sequential_oracle(q, steps, top):
    # the oracle runs the full period step by step, so this also checks the
    # half-period fold of the even mathieu potential against it
    prop = _Propagator(q, steps)
    lams = np.linspace(-50.0, top, 924)
    m11, _, _, m22 = _sequential_monodromy(prop, lams)
    ref = m11 + m22
    for size in (1, 17, 924):
        at = np.linspace(0, lams.size - 1, size).astype(int) if size > 1 else [lams.size // 2]
        got = prop.delta(lams[at])[0]
        assert np.max(np.abs(got - ref[at]) / np.maximum(1.0, np.abs(ref[at]))) <= 1e-13


@pytest.mark.parametrize(
    "q, n_max",
    [(mathieu(0.5), 8), (power_decay(2.0, 32), 28), (COMPLEX, 8)],
    ids=["mathieu", "power_decay", "complex"],
)
def test_disc_within_its_rounding_bound(q, n_max):
    # 21 points across twice the width of every gap (1e-9 lambda for a
    # collapsed one), edges included: there D = trace^2 - 4 is small and
    # its rounding bound B is what decides open, collapsed and the jumps.
    # The oracle runs the full period, the sweep folds the two even cases;
    # the largest error seen is 0.35 B (power_decay)
    centres, widths = zip(*(((lo + hi) / 2, max(hi - lo, 1e-9 * hi)) for lo, hi in band_edges_galerkin(q, n_max).pairs))
    lams = (np.array(centres)[:, None] + np.array(widths)[:, None] * np.linspace(-1.0, 1.0, 21)).ravel()
    prop = _Propagator(q, 2048)
    m11, m12, m21, m22 = _sequential_monodromy(prop, lams)
    exact = ((m11 - m22) ** 2 + 4 * m12 * m21).astype(float)
    _, disc, bound = prop.delta(lams)
    assert np.all(np.abs(disc - exact) <= bound)


def test_discriminant_config_validation():
    with pytest.raises(InputError):
        DiscriminantConfig(steps=128)


def test_discriminant_fourth_order_convergence():
    q = two_harmonic(2.0, 1.0)
    lam = 60.0
    ref = discriminant(q, lam, DiscriminantConfig(steps=8192))
    errs = [abs(discriminant(q, lam, DiscriminantConfig(steps=s)) - ref) for s in (256, 512)]
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)


# ------------------------------------------------------------- edge pairing and gaps


def test_mathieu_first_gap_near_leading_term():
    edges = band_edges_discriminant(mathieu(0.1), 3)
    gap1 = edges.gaps()[0]
    assert abs(gap1 - 0.2) / 0.2 < 0.05


def _count_sweeps(monkeypatch):
    """Record what every propagator sweep the discriminant route runs integrates.

    Returns the (step count, batch size) of each sweep, and the (steps,
    batch size) of each chunk of step propagators the sweeps evaluate:
    their steps add up to the steps a sweep actually integrates, and their
    products to its step x lambda work.
    """
    sweeps, chunks = [], []
    sweep = _Propagator._sweep
    step_deviations = spectrum._step_deviations

    def counted(self, lams, *args):
        sweeps.append((self.steps, lams.size))
        return sweep(self, lams, *args)

    def counted_steps(qa, qb, h, lams, *args):
        chunks.append((qa.size, lams.size))
        return step_deviations(qa, qb, h, lams, *args)

    monkeypatch.setattr(_Propagator, "_sweep", counted)
    monkeypatch.setattr(spectrum, "_step_deviations", counted_steps)
    return sweeps, chunks


def test_narrow_gaps_refine_in_double(monkeypatch):
    # gaps 3..28 are 4e-2 down to 6e-4 wide: each is open in the scan or
    # after one parabola jump (49 sweeps when humps were zoomed 8x a step)
    sweeps, _ = _count_sweeps(monkeypatch)
    cv = cross_validate(power_decay(2.0, 32), 28)
    assert len(sweeps) <= 30
    assert not any(cv.discriminant.collapsed)
    assert cv.max_rel_discrepancy <= 1e-11


def _assert_open_like_galerkin(cv, ns):
    for n in ns:
        assert not cv.discriminant.collapsed[n - 1]
        g, d = cv.galerkin.gaps()[n - 1], cv.discriminant.gaps()[n - 1]
        assert abs(d - g) <= 1e-3 * g


def test_low_humps_open_in_double():
    # gaps 4 and 5 are 5.6e-8 and 4.5e-11 wide, far below where trace -+ 2
    # resolves a hump in double precision; D = trace^2 - 4 still sees them
    cv = cross_validate(mathieu(0.5), 8)
    _assert_open_like_galerkin(cv, (4, 5))
    assert cv.discriminant.collapsed[:5] == (False,) * 5
    assert cv.max_rel_discrepancy <= 1e-8


def test_cos_potential_gap_4_open():
    # q = 4 cos 2 pi x: gap 4 is 1.44e-5 wide; reported collapsed, it put
    # the cross-method discrepancy at 4.6e-8
    cv = cross_validate(from_fourier(0.0, [(1, 2.0)]), 8)
    _assert_open_like_galerkin(cv, (4,))
    assert abs(cv.galerkin.gaps()[3] - 1.4443e-5) <= 1e-3 * 1.4443e-5
    assert cv.max_rel_discrepancy <= 1e-8


def test_mathieu_gap_3_open_at_512_steps():
    edges = band_edges_discriminant(mathieu(0.1), 3, DiscriminantConfig(steps=512))
    assert not edges.collapsed[2]
    assert abs(edges.gaps()[2] - 3.2081e-7) <= 1e-3 * 3.2081e-7


@pytest.mark.parametrize(
    "q, n_max, steps",
    [(mathieu(0.5), 8, 2048), (mathieu(0.1), 3, 512), (from_fourier(0.0, [(1, 2.0)]), 8, 2048)],
    ids=["mathieu05", "mathieu01-512", "cos"],
)
def test_refined_edges_bracket_a_sign_change(q, n_max, steps):
    # each edge lies within its tolerance of a sign change of D, the
    # tolerance capped at _GAP_RTOL of the gap
    edges = band_edges_discriminant(q, n_max, DiscriminantConfig(steps=steps))
    lams, caps = [edges.lambda0], [np.inf]
    for (lo, hi), collapsed in zip(edges.pairs, edges.collapsed):
        if not collapsed:
            lams += [lo, hi]
            caps += [_GAP_RTOL * (hi - lo)] * 2
    lams = np.array(lams)
    tol = _root_tol(lams, np.array(caps))
    prop = _Propagator(q, steps)
    below, above = prop.delta(lams - tol)[1], prop.delta(lams + tol)[1]
    assert np.all(np.sign(below) * np.sign(above) <= 0.0)


def test_period_half_potential_keeps_exact_collapses():
    # q has period 1/2: every odd gap is closed exactly, every even one open
    edges = band_edges_discriminant(from_fourier(0.0, [(2, 0.7), (4, 0.2)]), 8)
    assert edges.collapsed == (True, False) * 4
    for n in (1, 3, 5, 7):
        lo, hi = edges.pairs[n - 1]
        assert lo == hi


def test_refine_roots_closes_the_bracket():
    # the upper edge of the 5e-4-wide n = 2 gap of mathieu(0.1) at 512 steps:
    # the trace is nearly flat there (slope -3.2e-6), so trace - 2 in double
    # precision is quantized at ulp(2) over 1.4e-10 around the root.  D keeps
    # its digits there, and the refined edge lies within the tolerance of
    # its sign change
    prop = _Propagator(mathieu(0.1), 512)

    def f(x, idx=None):
        return prop.delta(x)[1]

    a, b = np.array([39.47841760435743]), np.array([40.7121181544936])
    r = float(_refine_roots(f, a, f(a), b, f(b))[0])
    tol = _ROOT_TOL * (1.0 + abs(r))
    assert f(r - tol)[0] * f(r + tol)[0] <= 0.0


class _Counted:
    """f(x, idx) of a batch of functions, one per edge, counting evaluations per edge."""

    def __init__(self, f, roots):
        self.f, self.roots = f, np.asarray(roots, dtype=float)
        self.evals = np.zeros(self.roots.size, dtype=int)

    def __call__(self, x, idx):
        self.evals[idx] += 1
        return self.f(np.asarray(x), self.roots[idx])

    def refine(self, a, b, **kw):
        a, b = np.broadcast_to(a, self.roots.shape), np.broadcast_to(b, self.roots.shape)
        fa, fb = self.f(a, self.roots), self.f(b, self.roots)
        return _refine_roots(self, a, fa, b, fb, **kw)


_SMOOTH = {
    "tanh": lambda x, r: np.tanh(x - r),
    # convex and increasing over the whole bracket: every secant lands on the
    # same side of the root, the case where a secant alternated with bisection
    "convex-cubic": lambda x, r: x**3 - r**3,
    "exp": lambda x, r: np.expm1(8.0 * (x - r)),
    # D = trace^2 - 4 of the free operator near a band edge: -4 sin^2 inside
    # the band, flattening towards -4, and 4 sinh^2 growing in the gap
    "band-edge": lambda x, r: np.where(
        x < r, -4.0 * np.sin(0.7 * np.sqrt(np.abs(r - x))) ** 2, 4.0 * np.sinh(0.7 * np.sqrt(np.abs(x - r))) ** 2
    ),
}


@pytest.mark.parametrize("name", sorted(_SMOOTH))
def test_refine_roots_smooth_within_tolerance(name):
    f = _Counted(_SMOOTH[name], [0.3712, 1.25, 2.9, 0.01])
    got = f.refine(0.0, 4.0)
    assert np.all(np.abs(got - f.roots) <= _root_tol(f.roots, np.inf))
    assert np.all(f.evals <= 20)


@pytest.mark.parametrize("name", sorted(_SMOOTH))
def test_refine_roots_step_bound(name):
    # a bracket 1e10 times the tolerance, the root off its centre, closes in
    # at most 12 evaluations per edge; bisection alone would take 34
    roots = np.array([0.3712, 1.25, 2.9])
    width = 1e10 * _root_tol(roots, np.inf)
    f = _Counted(_SMOOTH[name], roots)
    got = f.refine(roots - 0.3 * width, roots + 0.7 * width)
    assert np.all(np.abs(got - roots) <= _root_tol(roots, np.inf))
    assert f.evals.max() <= 12


def test_refine_roots_exact_zeros():
    # at an endpoint: no evaluation at all
    f = _Counted(lambda x, r: x - r, [0.0, 1.0])
    assert list(f.refine(np.array([0.0, -3.0]), np.array([2.0, 1.0]))) == [0.0, 1.0]
    assert list(f.evals) == [0, 0]
    # at an iterate: the first point is the midpoint, where f is exactly 0
    f = _Counted(lambda x, r: x - r, [0.5])
    assert f.refine(0.0, 1.0)[0] == 0.5
    assert list(f.evals) == [1]


def test_refine_roots_cap():
    # the cap tightens the 1e-12 relative tolerance (1.0e-9 at 1000) where it
    # is smaller.  A sign step only bisects, so the evaluations count the
    # halvings from width 4 down to each edge's tolerance
    roots = np.array([1000.37, 1001.2345, 1002.9])
    tol = np.array([_ROOT_TOL * 1001.0, 1e-10, 1e-11])
    f = _Counted(lambda x, r: np.sign(x - r), roots)
    got = f.refine(999.0, 1003.0, cap=np.array([1e-8, 1e-10, 1e-11]))
    assert np.all(np.abs(got - roots) <= tol)
    assert np.all(np.abs(f.evals - np.ceil(np.log2(4.0 / tol))) <= 1)


def test_refine_roots_ulp_floor_at_large_lambda():
    # a zero cap would ask for a bracket below ulp(x); the tolerance floors
    # at 4 ulp there, and the bracket closes
    roots = np.array([1e8 + 0.123, 4.5e15 + 3.0])
    f = _Counted(lambda x, r: np.tanh(x - r), roots)
    got = f.refine(roots - 1e3, roots + 2e3, cap=0.0)
    assert np.all(np.abs(got - roots) <= 4.0 * np.spacing(roots))
    assert f.evals.max() <= 60


def test_refine_roots_guess():
    # a close guess closes the bracket in a few steps; a guess outside the
    # bracket is drawn inside it, and NaN means the midpoint
    roots = np.array([0.3712, 1.25, 2.9])
    near = _Counted(_SMOOTH["band-edge"], roots)
    got = near.refine(0.0, 4.0, guess=roots + 1e-6)
    assert np.all(np.abs(got - roots) <= _root_tol(roots, np.inf))
    far = _Counted(_SMOOTH["band-edge"], roots)
    far.refine(0.0, 4.0)
    assert near.evals.sum() < far.evals.sum()
    out = _Counted(_SMOOTH["tanh"], roots)
    got = out.refine(0.0, 4.0, guess=np.array([-1.0, 9.0, np.nan]))
    assert np.all(np.abs(got - roots) <= _root_tol(roots, np.inf))


def test_refine_roots_open_bracket_raises():
    # a sign step has no slope to interpolate, so only bisection narrows the
    # bracket, and 1e300 wide it needs far more than _MAX_REFINE halvings
    f = _Counted(lambda x, r: np.sign(x - r), [1e-3])
    with pytest.raises(BracketError, match="still open"):
        f.refine(-1e300, 1e300)
    assert f.evals[0] == _MAX_REFINE


def test_discriminant_evaluation_budget(monkeypatch):
    # the benchmark's cross-validation pair: 9-point scans, probes reused as
    # scan ends, and Chandrupatla refinement from the parabola edges take
    # 1043 lambda evaluations in 37 sweeps at 2048 steps (2176 in 51 with
    # 33-point scans and a safeguarded secant).  At the counts each solve
    # chooses, 1024 and 512, they take 1119 in 36, the probe sweep with the
    # estimate's slope points.  Both potentials are even, so each sweep
    # integrates half its steps: with the estimate's sweeps and the narrow
    # gap's check at half the steps, 389k step x lambda work in all, where
    # 2048 steps took 1043 x 1024 ~ 1.07M and full-period sweeps 2.13M
    sweeps, chunks = _count_sweeps(monkeypatch)
    own = []
    for q, n_max in ((mathieu(0.5), 8), (power_decay(2.0, 32), 28)):
        sweeps.clear()
        steps = band_edges_discriminant(q, n_max).resolution
        own += [n for s, n in sweeps if s == steps]
    assert sum(own) <= 1150
    assert len(own) <= 40
    assert sum(n * nl for n, nl in chunks) <= 400_000


@pytest.mark.parametrize(
    "q, steps, swept",
    [(mathieu(0.5), 1000, 500), (mathieu(0.5), 2048, 1024), (mathieu(0.5), 1001, 1001), (COMPLEX, 2048, 2048)],
    ids=["even-1000", "even-2048", "odd-steps", "complex"],
)
def test_even_potentials_sweep_half_the_period(monkeypatch, q, steps, swept):
    # an even potential at an even step count folds the second half period
    # onto the first; an odd step count or a complex coefficient does not
    _, chunks = _count_sweeps(monkeypatch)
    _Propagator(q, steps).delta(np.linspace(-50.0, 2000.0, 17))
    assert sum(n for n, _ in chunks) == swept


# ------------------------------------------------------ spectral position

STRONG = {
    "mathieu-10": mathieu(10.0),
    "mathieu-20": mathieu(20.0),
    "two-harmonic": from_fourier(0.0, [(1, 10.0), (2, 5.0)]),
    "power-decay": power_decay(2.0, 32),
    "period-third": from_fourier(0.0, [(3, 40 + 7j)]),
}


@pytest.mark.parametrize("steps", [2048, 1000, 999])
@pytest.mark.parametrize("name", list(STRONG))
def test_position_counts_bands_at_galerkin_centres(name, steps):
    # P = 2 m at the centre of band m and P = 2 n - 1 at the centre of every
    # gap wider than 1e-6 relative; 1000 and 999 steps merge runs of unequal
    # power-of-two lengths, folded (500 steps) and over the full period
    q = STRONG[name]
    g = band_edges_galerkin(q, 12)
    lows = np.array([g.lambda0] + [hi for _, hi in g.pairs[:-1]])
    highs = np.array([lo for lo, _ in g.pairs])
    gaps = np.array(g.pairs)
    wide = np.flatnonzero(gaps[:, 1] - gaps[:, 0] > 1e-6 * (1.0 + np.abs(gaps[:, 0])))
    prop = _Propagator(q, steps)
    _, _, _, p = prop.delta(0.5 * (lows + highs), count=True)
    assert np.array_equal(p, 2.0 * np.arange(12))
    _, _, _, p = prop.delta(gaps[wide].mean(axis=1), count=True)
    assert np.array_equal(p, 2.0 * wide + 1.0)
    assert prop.delta(-q.l1_bound() - 1.0, count=True)[3][0] == -1.0


@pytest.mark.parametrize("name", ["mathieu-10", "mathieu-20", "two-harmonic", "power-decay"])
def test_folded_position_matches_full_period(name):
    # an even q folds its 2048-step sweep onto 1024 steps; 2047 steps and the
    # unfolded 2048 sweep the whole period, and P agrees on the whole grid
    lams = np.linspace(-60.0, 1600.0, 801)
    folded = _Propagator(STRONG[name], 2048).delta(lams, count=True)[3]
    unfolded = _Propagator(STRONG[name], 2048)
    unfolded.even = False
    assert np.array_equal(folded, _Propagator(STRONG[name], 2047).delta(lams, count=True)[3])
    assert np.array_equal(folded, unfolded.delta(lams, count=True)[3])
    assert np.all(np.diff(folded) >= 0.0) and folded[0] == -1.0 and folded[-1] == 24.0


def test_position_keeps_the_sweep_bits_in_any_batch():
    # the count adds P and changes no bit of the trace, D or B; P of a lambda
    # does not depend on its batch
    for prop in (_Propagator(mathieu(0.5), 1000), _Propagator(COMPLEX, 2048)):
        lams = np.linspace(-50.0, 2000.0, 57)
        plain, counted = prop.delta(lams), prop.delta(lams, count=True)
        for got, want in zip(counted[:3], plain):
            assert np.array_equal(got, want)
        alone = np.concatenate([prop.delta(x, count=True)[3] for x in lams[::7]])
        assert np.array_equal(alone, counted[3][::7])


def test_position_exact_where_steps_turn_past_pi():
    # at 256 steps a step of band 700 turns e2 by 2 x ~ 8.6 > 2 pi
    prop = _Propagator(mathieu(0.5), 256)
    m = np.arange(701)
    centres = (np.pi * (m + 0.5)) ** 2
    assert np.sqrt(centres[-1]) / 256 > 2.0 * np.pi
    assert np.array_equal(prop.delta(centres, count=True)[3], 2.0 * m)
    cv = cross_validate(mathieu(0.5), 400, dcfg=DiscriminantConfig(steps=256))
    assert cv.max_rel_discrepancy <= 3.1e-9  # 3.02e-9 before the count


def _record_bisections(monkeypatch):
    targets = []
    bisect = spectrum._bisect_position

    def recorded(prop, lo, hi, target):
        targets.extend(int(t) for t in target)
        return bisect(prop, lo, hi, target)

    monkeypatch.setattr(spectrum, "_bisect_position", recorded)
    return targets


def test_probe_bisection_finds_band_0(monkeypatch):
    # the free centre (pi / 2)^2 lies in gap 1 of mathieu(10): band 0 is bisected for
    targets = _record_bisections(monkeypatch)
    assert cross_validate(mathieu(10.0), 8).max_rel_discrepancy <= 1e-8
    assert targets == [0]


def test_missed_hump_is_bisected(monkeypatch):
    # gap 1 of this period-1/3 potential is closed at lambda = -1.489, and
    # the jumps between the probes of bands 0 and 1 end far below -8 B:
    # bisection on P = 1 between them supplies the sample at the double root
    # (the probes of bands 0, 4 and 6 are bisected for first)
    targets = _record_bisections(monkeypatch)
    cv = cross_validate(from_fourier(0.0, [(3, 16 - 40j)]), 8)
    assert targets == [0, 4, 6, 1]
    assert cv.max_rel_discrepancy <= 1e-8
    assert cv.discriminant.collapsed[:2] == (True, True)


def test_bisect_position_stops_at_the_tolerance():
    # the gaps of q = 0 are closed, so P = 1 holds at pi^2 alone
    x, _, _, p = _bisect_position(_Propagator(ZERO, 2048), [(np.pi / 2) ** 2], [(1.5 * np.pi) ** 2], [1])
    assert abs(x[0] - np.pi**2) <= _root_tol(np.pi**2, np.inf)
    assert p[0] in (0.0, 1.0, 2.0)
    assert all(v.size == 0 for v in _bisect_position(_Propagator(ZERO, 2048), [], [], []))


def test_probe_bisection_cap_names_the_band(monkeypatch):
    monkeypatch.setattr(spectrum, "_MAX_REFINE", 1)
    with pytest.raises(BracketError, match="no point of band 0 found by bisection"):
        band_edges_discriminant(mathieu(10.0), 2)


def test_seeded_strong_potentials_solve():
    # 42 potentials with K <= 4 and |c(k)| < 30, half of them even: every one
    # agrees with Galerkin (31 exited 3 when probes came from the free bands)
    rng = np.random.default_rng(5)
    for _ in range(42):
        k = int(rng.integers(1, 5))
        c = 30.0 * rng.random(k) * np.exp(2j * np.pi * rng.random(k) * rng.integers(0, 2))
        q = from_fourier(0.0, list(zip(range(1, k + 1), c)))
        assert cross_validate(q, 8).max_rel_discrepancy <= 1e-8, c


# ------------------------------------------------------ step count control


def _seeded_strong_family():
    """The 42 potentials of test_seeded_strong_potentials_solve."""
    rng = np.random.default_rng(5)
    family = []
    for _ in range(42):
        k = int(rng.integers(1, 5))
        c = 30.0 * rng.random(k) * np.exp(2j * np.pi * rng.random(k) * rng.integers(0, 2))
        family.append(from_fourier(0.0, list(zip(range(1, k + 1), c))))
    return family


FAMILIES = {
    "strong": list(STRONG.values()),
    "seeded": _seeded_strong_family(),
    "lame": [lame(ell, t) for ell in (1, 2) for t in (0.3, 0.5, 1.0, 2.0)],
}


@pytest.mark.parametrize("q, n_max, steps", [(mathieu(0.5), 8, 1024), (power_decay(2.0, 32), 28, 512)])
def test_crossval_pair_chooses_fewer_steps(q, n_max, steps):
    # the benchmark's pair: the Richardson estimate passes at 1024 and 512
    # steps; the solve there is the solve at that count, bit for bit, its
    # edges within _edge_tol of 16384 steps and within 1e-8 of Galerkin
    edges = band_edges_discriminant(q, n_max)
    assert edges.resolution == steps
    assert edges == band_edges_discriminant(q, n_max, DiscriminantConfig(steps=steps))
    ref = band_edges_discriminant(q, n_max, DiscriminantConfig(steps=16384)).all_edges()
    assert np.all(np.abs(edges.all_edges() - ref) <= _edge_tol(ref))
    assert CrossValidation(band_edges_galerkin(q, n_max), edges).max_rel_discrepancy <= 1e-8


@pytest.mark.parametrize("family", list(FAMILIES))
def test_chosen_steps_keep_edges_and_collapse_flags(family):
    # no count above 2048 is chosen; where one below it is, the edges lie
    # within _edge_tol of 16384 steps and every collapse flag is 2048's
    # (power_decay(2, 32) at 512, lame(2, 2) and two of the seeded family
    # at 1024, the rest at 2048)
    for q in FAMILIES[family]:
        assert _chosen_propagator(q.without_mean(), 8)[0].steps <= 2048
        edges = band_edges_discriminant(q, 8)
        if edges.resolution < 2048:
            ref = band_edges_discriminant(q, 8, DiscriminantConfig(steps=16384)).all_edges()
            assert np.all(np.abs(edges.all_edges() - ref) <= _edge_tol(ref))
            assert edges.collapsed == band_edges_discriminant(q, 8, DiscriminantConfig(steps=2048)).collapsed


def test_gap_opened_by_truncation_sends_the_solve_to_2048():
    # lame(1, 2) has one open gap.  The estimate passes at 512 steps, where
    # the truncation opens gap 2 by 5.8e-13 (9.4e-12 at 256 steps): the gap
    # does not hold at half the steps, and the solve runs at 2048, where it
    # is closed
    q = lame(1, 2.0)
    assert _chosen_propagator(q.without_mean(), 8)[0].steps == 512
    edges = band_edges_discriminant(q, 8)
    assert edges == band_edges_discriminant(q, 8, DiscriminantConfig(steps=2048))
    assert edges.collapsed == (False,) + (True,) * 7


def test_estimate_passes_over_witness_failures(monkeypatch):
    # a witness that always fails: each candidate's sweeps return no trace
    # and the next is tried, none raising; the solve then starts at 2048
    # and restarts twice
    monkeypatch.setattr(spectrum, "_WRONSKIAN_LIMIT", -1.0)
    sweeps, _ = _count_sweeps(monkeypatch)
    with pytest.raises(IntegrationError, match="Wronskian.*steps=8192$"):
        band_edges_discriminant(ZERO, 2)
    assert [s for s, _ in sweeps] == [128, 256, 256, 512, 512, 1024, 2048, 4096, 8192]


@pytest.mark.parametrize("q, n_max, steps, cured", [(mathieu(0.1), 3, 256, 2048), (mathieu(0.5), 8, 1024, 8192)])
def test_chosen_count_restarts_as_far_as_2048s_solve(monkeypatch, q, n_max, steps, cured):
    # a witness that fails below ``cured`` steps on every sweep after the
    # probes: the estimate and the chosen count's probe sweep pass, and the
    # restarts from the chosen count go on to where the 2048-step solve's
    # stop, so the solve ends at ``cured`` with the 2048-step solve's edges
    delta = _Propagator.delta

    def failing(self, lams, count=False, witness=True):
        if witness and not count and self.steps < cured:
            raise spectrum._WitnessError(f"failed at steps={self.steps}")
        return delta(self, lams, count, witness)

    assert _chosen_propagator(q.without_mean(), n_max)[0].steps == steps
    monkeypatch.setattr(_Propagator, "delta", failing)
    edges = band_edges_discriminant(q, n_max)
    assert edges.resolution == cured
    assert edges == band_edges_discriminant(q, n_max, DiscriminantConfig(steps=2048))


def test_mathieu_collapse_flags_at_n12():
    # gamma_4 = 5.6e-8 and gamma_5 = 4.5e-11 are open; gamma_6..gamma_8 lie
    # below the rounding bound of D at lambda ~ 355..632 and collapse
    edges = band_edges_discriminant(mathieu(0.5), 12)
    assert edges.collapsed[3:5] == (False, False)
    assert edges.collapsed[5:8] == (True, True, True)


def test_cross_method_agreement():
    cv = cross_validate(mathieu(0.5), 8)
    assert cv.max_rel_discrepancy < 1e-8
    cv2 = cross_validate(power_decay(2.0, 16), 12)
    assert cv2.max_rel_discrepancy < 1e-7


def test_shift_covariance_both_methods():
    base = two_harmonic(0.3, 0.2)
    shifted = from_fourier(5.0, [(1, 0.3), (2, 0.2)])
    for solver in (band_edges_galerkin, band_edges_discriminant):
        e1 = solver(base, 5)
        e2 = solver(shifted, 5)
        assert np.max(np.abs(e2.all_edges() - e1.all_edges() - 5.0)) < 1e-10


def test_truncation_stability():
    q = power_decay(2.0, 32)
    e1 = band_edges_galerkin(q, 8, GalerkinConfig(n_trunc=96))
    e2 = band_edges_galerkin(q, 8, GalerkinConfig(n_trunc=192))
    rel = np.abs(e1.all_edges() - e2.all_edges()) / np.maximum(1.0, np.abs(e2.all_edges()))
    assert np.max(rel) < 1e-9


def test_interlacing_on_random_potentials():
    for seed in range(10):
        assert np.all(band_edges_galerkin(random_hs(1.0, 32, seed), 12).gaps() >= 0.0)


def test_validate_raises_with_offending_index():
    pairs = ((1.0, 2.0), (1.5, 3.0))
    with pytest.raises(InterlacingError) as err:
        BandEdges(lambda0=0.0, pairs=pairs, method="synthetic", resolution=0)
    assert err.value.n == 2


def test_validate_rejects_non_finite_edges():
    nan, inf = float("nan"), float("inf")
    for lambda0, pairs, n in ((0.0, ((nan, 1.0),), 1), (0.0, ((1.0, inf),), 1), (-inf, ((1.0, 2.0),), 0)):
        with pytest.raises(InterlacingError, match="non-finite") as err:
            BandEdges(lambda0=lambda0, pairs=pairs, method="synthetic", resolution=0)
        assert err.value.n == n


def test_negative_gap_rejected():
    # lambda^+ < lambda^- is refused however small the difference
    for hi in (1.0, 2.0 - 1e-12, math.nextafter(2.0, 0.0)):
        with pytest.raises(InterlacingError, match="negative gap") as err:
            BandEdges(lambda0=0.0, pairs=((2.0, hi),), method="synthetic", resolution=0)
        assert err.value.n == 1


def test_parity_tags():
    assert BandEdges.parity(0) == "periodic"
    assert BandEdges.parity(1) == "semiperiodic"
    assert BandEdges.parity(2) == "periodic"


def test_nmax_validation():
    with pytest.raises(InputError):
        band_edges_galerkin(ZERO, 0)
    with pytest.raises(InputError):
        band_edges_discriminant(ZERO, 0)
