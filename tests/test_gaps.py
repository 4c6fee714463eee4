import math
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import bits, loop_rho

from hillgaps import (
    BandEdges,
    GapReport,
    InputError,
    Weight,
    band_edges_discriminant,
    band_edges_galerkin,
    decay_slope,
    default_fit_start,
    example_2_4_weight,
    from_fourier,
    mathieu,
    power_decay,
    power_weight,
    random_hs,
    residuals,
    rho,
    rho_routes_allowance,
    rho_via_convolution,
    two_harmonic,
    verify_marchenko_ostrovskii,
    verify_membership_consistency,
    weighted_tail_report,
)

ZERO = from_fourier(0.0, [])


# ------------------------------------------------------------------ gaps


def test_gaps_zero_potential():
    assert np.array_equal(band_edges_galerkin(ZERO, 6).gaps(), np.zeros(6))


def test_gaps_constant_potential_zero():
    assert np.array_equal(band_edges_galerkin(from_fourier(3.0, []), 6).gaps(), np.zeros(6))


# ------------------------------------------------------------------ rho


def test_rho_mathieu_single_term():
    # no pair a + b = 1 with a, b in {-1, 1}; the pair (1, 1) makes n = 2
    for c in (0.1, 0.5):
        assert rho(mathieu(c), 1) == 0
        assert rho(mathieu(c), 2) == pytest.approx(c**2 / (4 * math.pi**2), rel=1e-15)


def test_rho_vanishes_past_cutoff():
    q = two_harmonic(0.4, 0.3)
    for n in range(2 * q.cutoff + 1, 2 * q.cutoff + 10):
        assert rho(q, n) == 0j
    assert rho(ZERO, 1) == 0j
    assert rho(ZERO, 7) == 0j


def test_rho_sparse_sum_matches_dense_loop_bitwise():
    # the sum over the nonzero coefficients skips only exact-zero terms of the
    # dense loop over a = n-K..K, so it has the same bits
    rng = np.random.default_rng(11)
    for _ in range(20):
        ks = np.flatnonzero(rng.random(30) < 0.4) + 1
        q = from_fourier(rng.normal(), [(int(k), complex(*rng.normal(size=2))) for k in ks])
        for n in range(1, 2 * q.cutoff + 2):
            dense = 0j
            for a in range(n - q.cutoff, q.cutoff + 1):
                if a != 0 and a != n:
                    dense += q.coefficient(a) * q.coefficient(n - a) / (a * (n - a))
            assert rho(q, n) == dense / (4.0 * math.pi * math.pi)


def _signed_zero_potential(rng, mean: float):
    """Sparse random coefficients, some purely real or imaginary with signed-zero parts."""
    coeffs = []
    for k in np.flatnonzero(rng.random(24) < 0.5) + 1:
        re, im = rng.normal(size=2)
        kind = rng.integers(5)
        re = -0.0 if kind == 1 else 0.0 if kind == 2 else re
        im = -0.0 if kind == 3 else 0.0 if kind == 4 else im
        coeffs.append((int(k), complex(re, im)))
    return from_fourier(mean, coeffs)


@pytest.mark.parametrize("mean", [0.0, 1.5, -2.0])
def test_rho_kernel_matches_scalar_loop_bitwise(mean):
    rng = np.random.default_rng(int(10 * mean) + 40)
    for _ in range(20):
        q = _signed_zero_potential(rng, mean)
        ns = np.arange(1, 2 * q.cutoff + 3)
        expected = np.array([loop_rho(q, int(n)) for n in ns])
        assert bits(rho(q, ns)) == bits(expected)
        for n in (1, 2, 2 * q.cutoff + 2):
            assert type(rho(q, n)) is complex
            assert bits(rho(q, n)) == bits(loop_rho(q, n))


@pytest.mark.parametrize("budget", [1, 5, 64])
def test_rho_kernel_blocks_keep_the_bits(monkeypatch, budget):
    monkeypatch.setattr(sys.modules["hillgaps.gaps"], "_RHO_BLOCK", budget)
    q = _signed_zero_potential(np.random.default_rng(budget), 0.5)
    ns = np.arange(1, 2 * q.cutoff + 3)
    assert bits(rho(q, ns)) == bits(np.array([loop_rho(q, int(n)) for n in ns]))


def test_rho_kernel_overflowing_products_follow_the_fixed_division():
    # ca * cb overflows to inf, and the complex-by-real division of CPython
    # before 3.14 then meets inf * 0 through its ratio term: NaN in both
    # parts, on every Python version, where dividing each part gives infs
    for q in (
        from_fourier(0.0, [(1, 1e200), (2, 1e200j), (3, complex(1e200, -1e180))]),
        from_fourier(2.0, [(1, 1e160 + 1e160j), (2, -3e160)]),
    ):
        ns = np.arange(1, 2 * q.cutoff + 2)
        got = rho(q, ns)
        assert np.isnan(got.real[:-1]).all() and np.isnan(got.imag[:-1]).all()
        assert bits(got[-1]) == bits(0j)
        assert bits(got) == bits(np.array([loop_rho(q, int(n)) for n in ns]))


def test_rho_array_form_checks_its_indices():
    q = _signed_zero_potential(np.random.default_rng(3), 1.0)
    assert rho(q, np.arange(1, 1)).shape == (0,)
    with pytest.raises(InputError):
        rho(q, np.array([3, 0, 5]))


def test_rho_past_int64_and_at_huge_cutoffs():
    # an index past int64 is past 2K; a cutoff K >= 2^53 takes its
    # indices and a (n - a) as Python integers, each rounded once: at
    # n = k1 + k2 the product of the rounded factors is one ulp off
    assert bits(rho(mathieu(0.5), 2**63)) == bits(0j)
    assert bits(rho(mathieu(0.5), 10**30)) == bits(0j)
    k, k1, k2 = 2**61, 2**54 + 3, 2**55 + 5
    assert float(k1 * k2) != float(k1) * float(k2)
    q = from_fourier(1.0, [(k1, 0.75), (k2, -0.5j), (2**60, 0.5), (2**60 + 3, 0.25j), (k, 1 + 1j), (k + 7, -0.5)])
    ns = [1, k1 + k2, k, k + 3, 2 * k, 2 * k + 7, 2 * k + 14, 3 * 2**60, 3 * 2**60 + 3, 2 * k + 15, 2**64]
    expected = [loop_rho(q, n) for n in ns]
    assert sum(z != 0 for z in expected) == 8
    assert bits(rho(q, np.array(ns, dtype=object))) == bits(np.array(expected))
    for n, z in zip(ns, expected):
        assert bits(rho(q, n)) == bits(z)


def test_rho_huge_cutoff_is_immediate():
    q = from_fourier(0.0, [(10**12, 0.1)])
    assert rho(q, 1) == 0j
    assert rho(q, 2 * 10**12) == pytest.approx(0.01 / (4 * math.pi**2 * 10**24), rel=1e-15)


def test_rho_requires_positive_index():
    with pytest.raises(InputError):
        rho(mathieu(0.1), 0)


def test_rho_two_routes_agree():
    for q in (mathieu(0.1), two_harmonic(0.3, -0.2), power_decay(2.0, 16), random_hs(1.0, 12, 5)):
        conv = rho_via_convolution(q, 2 * q.cutoff + 2)
        for n in range(1, 2 * q.cutoff + 3):
            assert abs(rho(q, n) - conv[n - 1]) <= 1e-14


@pytest.mark.parametrize(
    "coeffs",
    [
        # the routes differ by 2.8e-14, over the absolute 1e-14 the verify check once used
        [(1, 300 + 100j), (2, 200), (3, 50 - 70j)],
        # a rounded subnormal c(k)/k, times the 1e10 partner, moves the convolution route
        [(1, 1e-310), (3, 1e-310), (5, 1e10)],
        list(random_hs(1.0, 12, 5).coeffs),
    ],
    ids=["strong", "subnormal", "random"],
)
def test_rho_routes_allowance_covers_rounding_only(coeffs):
    # the routes agree within the allowance, and a 1e-12 relative change of the largest value is far outside it
    q = from_fourier(0.0, coeffs)
    n = 2 * q.cutoff + 2
    direct = rho(q, np.arange(1, n + 1))
    allowance = rho_routes_allowance(q, n)
    assert np.all(np.abs(direct - rho_via_convolution(q, n)) <= allowance)
    i = int(np.argmax(np.abs(direct)))
    assert 1e-12 * abs(direct[i]) > allowance[i]


def test_rho_matches_second_order_gap_scaling():
    # gamma_n(eps q) = 2 |eps c(n) + eps^2 rho(n)| + O(eps^3), so the eps^2
    # coefficient of gamma - 2 |eps c(n)| measured from Galerkin gaps must be
    # 2 Re(rho conj c)/|c|, or 2 |rho| where c(n) = 0
    eps = 1e-2
    for q, n_max in ((two_harmonic(0.4, 0.3), 4), (power_decay(2.0, 8), 7)):
        q_eps = from_fourier(0.0, [(k, eps * v) for k, v in q.coeffs])
        gamma = band_edges_galerkin(q_eps, n_max).gaps()
        for n in range(1, n_max + 1):
            c, r = q.coefficient(n), rho(q, n)
            measured = (gamma[n - 1] - 2.0 * abs(eps * c)) / eps**2
            expected = 2.0 * (r * c.conjugate()).real / abs(c) if c != 0 else 2.0 * abs(r)
            assert measured == pytest.approx(expected, rel=1e-3)


def test_rho_convolution_route_rejects_mean():
    with pytest.raises(InputError):
        rho_via_convolution(from_fourier(1.0, [(1, 0.1)]), 1)
    # the direct route never reads the mean
    assert rho(from_fourier(1.0, [(1, 0.1)]), 1) == rho(mathieu(0.1), 1)


def test_rho_power_decay_elementwise():
    q = power_decay(2.0, 16)
    conv = rho_via_convolution(q, 16)
    for n in range(1, 17):
        assert abs(rho(q, n) - conv[n - 1]) <= 1e-14


# ------------------------------------------------------------------ residual report


def test_residuals_zero_potential_all_zero():
    rep = residuals(ZERO, band_edges_galerkin(ZERO, 6))
    for col in (rep.gamma, rep.two_qhat, rep.resid_plain, rep.resid_corrected):
        assert np.array_equal(col, np.zeros(6))
    assert np.array_equal(rep.rho, np.zeros(6, dtype=complex))


def test_residuals_huge_cutoff_is_immediate():
    # c(n - a) is looked up among the nonzero coefficients: nothing of size K
    q = from_fourier(0.0, [(10**12, 0.1)])
    pairs = tuple((float(n) ** 2, float(n) ** 2 + 0.5) for n in range(1, 5))
    edges = BandEdges(lambda0=0.0, pairs=pairs, method="synthetic", resolution=0)
    tracemalloc.start()
    try:
        rep = residuals(q, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits(rep.rho) == bits(np.zeros(4, dtype=complex))
    assert np.array_equal(rep.gamma, np.full(4, 0.5))
    assert peak < 2**20


def test_residuals_recompute_exactly():
    q = power_decay(2.0, 16)
    rep = residuals(q, band_edges_galerkin(q, 12))
    assert np.array_equal(rep.resid_plain, rep.gamma - rep.two_qhat)
    qn = np.array([q.coefficient(int(n)) for n in rep.n])
    assert np.array_equal(rep.resid_corrected, rep.gamma - 2.0 * np.abs(qn + rep.rho))
    assert np.array_equal(rep.two_qhat, 2.0 * np.abs(qn))


def test_residuals_mathieu_leading_term():
    q = mathieu(0.1)
    rep = residuals(q, band_edges_discriminant(q, 3))
    assert rep.two_qhat[0] == pytest.approx(0.2, rel=1e-15)
    assert rep.rho[0] == 0
    assert rep.rho[1] == pytest.approx(0.01 / (4 * math.pi**2), rel=1e-14)
    # triangle bound relating the two residuals through the correction
    assert abs(rep.resid_corrected[0]) <= abs(rep.resid_plain[0]) + 2 * abs(rep.rho[0]) + 1e-15


def test_corrected_residual_beyond_support_equals_plain():
    # past twice the coefficient cutoff both the coefficient and the
    # correction vanish, so the residuals coincide
    for c in (0.1, 0.5):
        q = mathieu(c)
        rep = residuals(q, band_edges_galerkin(q, 12))
        for i in range(2, 12):
            assert rep.resid_corrected[i] == rep.resid_plain[i]
            assert abs(rep.resid_corrected[i]) <= abs(rep.resid_plain[i])


def test_power_decay_residual_smaller_than_leading():
    q = power_decay(2.0, 32)
    rep = residuals(q, band_edges_galerkin(q, 28))
    ratio = np.abs(rep.resid_plain[7:28]) / rep.two_qhat[7:28]
    assert np.all(ratio < 0.5)


# ------------------------------------------------------------------ tails and slopes


def test_weighted_tail_zero_sequence():
    t = weighted_tail_report(np.zeros(20), power_weight(1.0), (1, 20))
    assert np.array_equal(t.partial_sum, np.zeros(20))
    assert np.array_equal(t.increment, np.zeros(20))


def test_weighted_tail_p_series_increments_decrease():
    ns = np.arange(1, 41)
    r = ns**-2.0
    t = weighted_tail_report(r, power_weight(1.0), (5, 40))
    assert np.all(np.diff(t.increment) < 0)
    # cumulative sums grow toward a finite limit: increments shrink like m^-2
    assert t.increment[-1] < 2e-2 * t.increment[0]


def test_weighted_tail_range_validation():
    with pytest.raises(InputError):
        weighted_tail_report(np.ones(10), power_weight(1.0), (5, 20))


def test_decay_slope_exact_power_laws():
    ns = np.arange(1, 101)
    fit = decay_slope(ns**-2.0, 10, 60)
    assert fit.slope == pytest.approx(-2.0, abs=1e-6)
    assert fit.rms_residual < 1e-12
    fit2 = decay_slope(7.0 * ns**-3.5, 10, 60)
    assert fit2.slope == pytest.approx(-3.5, abs=1e-6)


def test_decay_slope_excludes_zeros():
    ns = np.arange(1, 31)
    r = ns**-2.0
    r[4::5] = 0.0
    fit = decay_slope(r, 1, 30)
    assert fit.zero_count == 6
    assert fit.used_points == 24
    assert fit.slope == pytest.approx(-2.0, abs=1e-6)


def test_decay_slope_needs_points():
    with pytest.raises(InputError):
        decay_slope(np.zeros(30), 10, 20)
    with pytest.raises(InputError):
        decay_slope(np.ones(30), 10, 13)


def test_mathieu_residual_decay_is_fast():
    # residuals fall superpolynomially just past the support; further out the
    # eigensolver noise floor flattens the fit, so the window stays low
    q = mathieu(0.5)
    rep = residuals(q, band_edges_galerkin(q, 20))
    fit = decay_slope(np.abs(rep.resid_plain), 2, 8)
    assert fit.slope <= -2.0


def test_default_fit_start():
    assert default_fit_start(ZERO) == 4
    assert default_fit_start(from_fourier(10.0, [])) == 20


# ------------------------------------------------------------------ membership and summability


def test_membership_zero_potential():
    rep = residuals(ZERO, band_edges_galerkin(ZERO, 8))
    m = verify_membership_consistency(power_weight(1.0), rep, (1, 8))
    assert m.gamma_norm == 0.0
    assert m.two_qhat_norm == 0.0
    assert m.triangle_ok


def test_membership_triangle_exact_mathieu():
    q = mathieu(0.1)
    rep = residuals(q, band_edges_galerkin(q, 10))
    m = verify_membership_consistency(power_weight(1.0), rep, (1, 10))
    assert m.triangle_ok
    assert abs(m.gamma_norm - m.two_qhat_norm) <= m.resid_plain_norm


def test_membership_ratio_band_power_decay():
    q = power_decay(2.0, 32)
    rep = residuals(q, band_edges_galerkin(q, 28))
    m = verify_membership_consistency(example_2_4_weight(1.0), rep, (8, 28))
    assert m.triangle_ok
    assert 1.0 <= m.ratio <= 3.0


def test_membership_norms_match_per_m_sums():
    # reference: each norm summed afresh from n_lo, in n order, of w(n)^2 v(n)^2 as conftest.loop_norm forms it
    def partial(vals, w, lo, m):
        acc = 0.0
        for n in range(lo, m + 1):
            wn = float(w(n))
            acc += (wn * wn) * (vals[n - 1] * vals[n - 1])
        return math.sqrt(acc)

    q = power_decay(2.0, 32)
    rep = residuals(q, band_edges_galerkin(q, 28))
    w = example_2_4_weight(1.0)
    m = verify_membership_consistency(w, rep, (8, 28))
    assert m.gamma_norm == partial(rep.gamma, w, 8, 28)
    assert m.two_qhat_norm == partial(rep.two_qhat, w, 8, 28)
    assert m.resid_plain_norm == partial(rep.resid_plain, w, 8, 28)


def _parallel_report(shrink: float) -> GapReport:
    # gamma = 2 two_qhat, so |N(gamma) - N(two_qhat)| = N(gamma - two_qhat): the triangle inequality is an equality
    two_qhat = np.array([0.3, 0.02, 1.7, 0.0, 5e-3, 0.11])
    gamma = 2.0 * two_qhat
    ns = np.arange(1, gamma.size + 1)
    return GapReport(
        n=ns, gamma=gamma, two_qhat=two_qhat, rho=np.zeros(ns.size, dtype=complex),
        resid_plain=(gamma - two_qhat) * (1.0 - shrink), resid_corrected=gamma - two_qhat, method="galerkin",
    )


@pytest.mark.parametrize("w", [power_weight(0.0), power_weight(1.0), example_2_4_weight(1.0)], ids=Weight.describe)
def test_membership_triangle_allows_rounding_only(w):
    # at equality the check passes within its rounding allowance; a residual
    # norm 1e-9 short, far beyond the allowance, still fails
    exact = verify_membership_consistency(w, _parallel_report(0.0), (1, 6))
    assert exact.triangle_ok
    assert abs(exact.triangle_slack) <= 1e-15 * exact.gamma_norm
    short = verify_membership_consistency(w, _parallel_report(1e-9), (1, 6))
    assert not short.triangle_ok
    assert short.triangle_slack < 0


def test_marchenko_ostrovskii_zero():
    rep = residuals(ZERO, band_edges_galerkin(ZERO, 8))
    mo = verify_marchenko_ostrovskii(ZERO, 2, rep, (1, 8))
    assert np.array_equal(mo.gap_partial, np.zeros(8))
    assert np.array_equal(mo.coeff_partial, np.zeros(8))


def test_marchenko_ostrovskii_mathieu_plateau():
    q = mathieu(0.5)
    rep = residuals(q, band_edges_galerkin(q, 16))
    mo = verify_marchenko_ostrovskii(q, 2, rep, (1, 16))
    # everything beyond the first gap contributes almost nothing
    assert mo.gap_partial[-1] == pytest.approx(mo.gap_partial[2], rel=1e-3)
    assert mo.gap_partial[-1] > 0


def test_marchenko_ostrovskii_same_order():
    q = power_decay(1.2, 48)
    rep = residuals(q, band_edges_galerkin(q, 48))
    mo = verify_marchenko_ostrovskii(q, 0, rep, (1, 48))
    ratio = mo.gap_partial[-1] / mo.coeff_partial[-1]
    assert 0.1 < ratio < 10.0


def test_marchenko_ostrovskii_rejects_fractional_s():
    q = mathieu(0.1)
    rep = residuals(q, band_edges_galerkin(q, 6))
    with pytest.raises(InputError):
        verify_marchenko_ostrovskii(q, 1.5, rep, (1, 6))
    with pytest.raises(InputError):
        verify_marchenko_ostrovskii(q, -1, rep, (1, 6))
