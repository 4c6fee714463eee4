"""Acceptance criteria, one test per criterion, with a printed verdict line.

Each test computes its criterion at the stated tolerance and prints
``ACCEPTANCE <n>: PASS/FAIL`` before asserting, so the transcript carries
the full scoreboard even when a criterion fails.
"""

import math
import time

import numpy as np
import pytest
from conftest import operator_constant

from hillgaps import (
    GalerkinConfig,
    InterlacingError,
    TwoSidedSeq,
    band_edges_discriminant,
    band_edges_galerkin,
    check_sandwich,
    conv_lemma_report,
    convolution_ratio,
    cross_validate,
    decay_slope,
    example_2_4_weight,
    from_fourier,
    hormander_norm,
    log_power_weight,
    mathieu,
    power_decay,
    power_weight,
    random_hs,
    residuals,
    rho,
    rho_via_convolution,
    table_weight,
    two_harmonic,
    verify_membership_consistency,
    weighted_norm,
)

ZERO = from_fourier(0.0, [])


def verdict(n, ok, detail=""):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


@pytest.fixture(scope="module")
def mathieu01_report():
    q = mathieu(0.1)
    return q, residuals(q, band_edges_discriminant(q, 8))


@pytest.fixture(scope="module")
def mathieu05_report():
    q = mathieu(0.5)
    return q, residuals(q, band_edges_galerkin(q, 12))


@pytest.fixture(scope="module")
def pd32_report():
    q = power_decay(2.0, 32)
    return q, residuals(q, band_edges_galerkin(q, 28))


def test_criterion_1_free_operator():
    t0 = time.perf_counter()
    edges = band_edges_galerkin(ZERO, 20, GalerkinConfig(n_trunc=64))
    elapsed = time.perf_counter() - t0
    worst = abs(edges.lambda0)
    for n, (lo, hi) in enumerate(edges.pairs, start=1):
        exact = (n * np.pi) ** 2
        worst = max(worst, abs(lo - exact) / exact, abs(hi - exact) / exact)
    gaps_zero = bool(np.all(edges.gaps() == 0.0))
    ok = worst < 1e-10 and gaps_zero and elapsed < 1.0
    assert verdict(1, ok, f"max rel err {worst:.2e}, gaps all zero: {gaps_zero}, {elapsed:.3f}s")


def test_criterion_2_cross_method_oracle():
    t0 = time.perf_counter()
    d1 = cross_validate(mathieu(0.5), 8).max_rel_discrepancy
    d2 = cross_validate(power_decay(2.0, 16), 8).max_rel_discrepancy
    elapsed = time.perf_counter() - t0
    ok = d1 < 1e-8 and d2 < 1e-8 and elapsed < 10.0
    assert verdict(2, ok, f"mathieu {d1:.2e}, power_decay {d2:.2e}, {elapsed:.1f}s")


def test_criterion_3_interlacing_random_potentials():
    violations = 0
    worst_gap = 0.0
    for seed in range(100):
        try:
            edges = band_edges_galerkin(random_hs(1.0, 32, seed), 12)
        except InterlacingError:
            violations += 1
            continue
        worst_gap = min(worst_gap, float(np.min(edges.gaps())))
    ok = violations == 0 and worst_gap >= -1e-10
    assert verdict(3, ok, f"violations {violations}, most negative gap {worst_gap:.2e}")


def test_criterion_4_leading_term_and_correction(mathieu01_report):
    q, rep = mathieu01_report
    gamma1 = rep.gamma[0]
    lead_ok = abs(gamma1 - 0.2) / 0.2 < 0.05
    # a single harmonic has no pair a + b = 1 with a, b in {-1, 1}, and the
    # pair (1, 1) at n = 2 gives rho(2) = c^2 / (4 pi^2)
    rho_ok = (
        rho(q, 1) == 0
        and abs(rho(q, 2) - 0.01 / (4 * math.pi**2)) <= 1e-14
        and all(abs(rho(q, n) - rho_via_convolution(q, 2)[n - 1]) <= 1e-14 for n in (1, 2))
    )
    # gamma(1) = 2c - c^3/(32 pi^4): the n = 1 residual is third order, so a
    # second-order correction leaves it as it is; at n = 2 the correction is
    # the whole leading residual, gamma(2) = c^2/(2 pi^2) + O(c^4)
    unchanged_at_1 = rep.resid_corrected[0] == rep.resid_plain[0]
    improvement_ok = abs(rep.resid_corrected[1]) < abs(rep.resid_plain[1])
    ok = lead_ok and rho_ok and unchanged_at_1 and improvement_ok
    verdict(
        4,
        ok,
        f"gamma(1)={gamma1:.9f} (lead ok {lead_ok}), rho ok {rho_ok}, "
        f"corrected(1) == plain(1): {unchanged_at_1}, "
        f"|corrected(2)|={abs(rep.resid_corrected[1]):.3e} < |plain(2)|={abs(rep.resid_plain[1]):.3e}: {improvement_ok}",
    )
    assert lead_ok
    assert rho_ok
    assert unchanged_at_1
    assert improvement_ok


def test_criterion_5_residual_decay(pd32_report):
    t0 = time.perf_counter()
    q, rep = pd32_report
    fit_resid = decay_slope(np.abs(rep.resid_plain), 8, 28)
    fit_gamma = decay_slope(rep.gamma, 8, 28)
    elapsed = time.perf_counter() - t0
    ok = fit_resid.slope <= -2.0 and abs(fit_gamma.slope + 2.0) <= 0.2 and elapsed < 30.0
    assert verdict(
        5, ok, f"resid slope {fit_resid.slope:.3f} <= -2, gamma slope {fit_gamma.slope:.3f} in -2+-0.2, {elapsed:.1f}s"
    )


def test_criterion_6_corrected_dominates(mathieu05_report):
    q, rep = mathieu05_report
    ok = all(
        abs(rep.resid_corrected[n - 1]) <= abs(rep.resid_plain[n - 1]) for n in range(2, 13)
    )
    assert verdict(6, ok, "corrected residual within plain residual for n in [2, 12]")


def test_criterion_7_convolution_both_regimes():
    const = operator_constant(1.0, 1.0, 1.0, 16)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        def draw():
            v = rng.standard_normal(33) + 1j * rng.standard_normal(33)
            return TwoSidedSeq(v)
        worst = max(worst, convolution_ratio(draw(), draw(), 1.0, 1.0, 1.0))
    bounded_ok = worst <= const * (1 + 1e-9)
    rep = conv_lemma_report(0.0, 0.0, 0.0, sizes=(8, 16, 32))
    r8 = rep.samples[0].max_ratio
    r32 = rep.samples[-1].max_ratio
    witness_ok = rep.regime == "fails to hold" and r32 >= 1.5 * r8
    ok = bounded_ok and witness_ok
    assert verdict(
        7, ok, f"max random ratio {worst:.4f} vs constant {const:.4f}; witness growth {r32 / r8:.2f}x"
    )


def test_criterion_8_weight_machinery():
    weights = [
        power_weight(1.5),
        log_power_weight(1.0, [2.0, -1.0]),
        example_2_4_weight(1.0),
        table_weight(list(np.linspace(1.0, 3.0, 10**4))),
    ]
    ks = np.arange(0, 10**4 + 1)
    ext_ok = True
    for w in weights:
        vals = np.asarray(w(ks))
        ext_ok = ext_ok and vals[0] == 1.0 and np.all(vals > 0) and np.array_equal(vals, np.asarray(w(-ks)))
    sandwich_ok = all(check_sandwich(example_2_4_weight(s), s, 2000).passed for s in (0.0, 1.0))
    rep = check_sandwich(power_weight(3.0), 1.0, 1000)
    diverge_ok = (not rep.passed) and rep.upper_diverging
    ok = ext_ok and sandwich_ok and diverge_ok
    assert verdict(
        8, ok, f"extension ok {ext_ok}, example weight sandwich ok {sandwich_ok}, power(s+2) diverges {diverge_ok}"
    )


def test_criterion_9_coefficient_norm():
    w = power_weight(1.5)
    exact = all(
        hormander_norm(random_hs(1.0, 16, seed), w)
        == weighted_norm(random_hs(1.0, 16, seed).two_sided(), w)
        for seed in range(100)
    )
    single_ok = all(
        hormander_norm(mathieu(1.0), power_weight(s)) == pytest.approx(math.sqrt(2.0) * 3.0**s, rel=1e-12)
        for s in (0.0, 1.0, 2.0, 3.5)
    )
    ok = exact and single_ok
    assert verdict(9, ok, f"exact equality on 100 potentials: {exact}, closed form: {single_ok}")


def test_criterion_10_triangle_inequality_everywhere(mathieu01_report, mathieu05_report, pd32_report):
    reports = [mathieu01_report, mathieu05_report, pd32_report]
    q = two_harmonic(0.3, -0.2)
    reports.append((q, residuals(q, band_edges_galerkin(q, 10))))
    q = power_decay(2.0, 16)
    reports.append((q, residuals(q, band_edges_galerkin(q, 10))))
    reports.append((ZERO, residuals(ZERO, band_edges_galerkin(ZERO, 10))))
    for seed in range(3):
        q = random_hs(1.0, 32, seed)
        reports.append((q, residuals(q, band_edges_galerkin(q, 12))))
    weights = [power_weight(0.0), power_weight(1.0), example_2_4_weight(1.0)]
    checked = 0
    ok = True
    for q, rep in reports:
        nm = rep.n_max
        for w in weights:
            for rng in ((1, nm), (max(1, nm // 2), nm)):
                m = verify_membership_consistency(w, rep, rng)
                ok = ok and m.triangle_ok
                checked += 1
    assert verdict(10, ok, f"{checked} report/weight/range combinations, all exact")
