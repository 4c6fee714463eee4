import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from conftest import bits, brute_convolve, loop_convolve, loop_ratio, operator_constant

from hillgaps import (
    InputError,
    TwoSidedSeq,
    Weight,
    check_or_class,
    check_sandwich,
    conv_lemma_report,
    convolution_ratio,
    convolve,
    example_2_4_weight,
    log_power_weight,
    make_weight,
    power_weight,
    table_weight,
    weighted_norm,
)


def rand_seq(rng, n):
    return TwoSidedSeq(rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1))


def _scaled(a, factor):
    return TwoSidedSeq(factor * a.coef)


def _plus(a, b):
    n = max(a.support, b.support)
    return TwoSidedSeq(np.pad(a.coef, n - a.support) + np.pad(b.coef, n - b.support))


def _ascending_norm(a, w):
    """Weighted norm as a per-index running sum in ascending k, one scalar weight call each."""
    acc = 0.0
    for k, v in zip(range(-a.support, a.support + 1), a.coef):
        if v != 0:
            wk = float(w(k))
            acc += (wk * wk) * (v.real * v.real + v.imag * v.imag)
    return math.sqrt(acc)


# ---------------------------------------------------------------- weights


def test_power_weight_values():
    w = power_weight(1.0)
    assert w(3) == 7.0
    assert w(-3) == 7.0
    assert w(0) == 1.0


def test_example_2_4_values():
    w = example_2_4_weight(0.0)
    assert w(2) == pytest.approx(math.log(3), rel=1e-15)
    assert w(3) == 1.0
    assert w(0) == 1.0


def test_table_weight_symmetric_extension():
    w = table_weight([5.0] * 10)
    assert w(-1) == 5.0
    assert w(0) == 1.0
    with pytest.raises(InputError):
        w(11)


def test_table_weight_rejects_nonpositive_with_index():
    with pytest.raises(InputError, match="k=3"):
        table_weight([1.0, 2.0, -1.0])


def test_table_weight_zero_index_ignored_with_warning():
    with pytest.warns(UserWarning):
        w = make_weight({"kind": "table", "values": {0: 99.0, 1: 2.0, 2: 3.0}})
    assert w(0) == 1.0
    assert w(1) == 2.0


def test_negative_s_only_for_power():
    assert power_weight(-1.5)(2) == pytest.approx(5.0 ** (-1.5))
    with pytest.raises(InputError):
        example_2_4_weight(-0.5)
    with pytest.raises(InputError):
        log_power_weight(-1.0, [1.0])


@pytest.mark.parametrize(
    "w, name",
    [
        (power_weight(1.0), "power(s=1)"),
        (power_weight(1.0000001), "power(s=1.0000001)"),
        (power_weight(-1.5), "power(s=-1.5)"),
        (power_weight(1e16), "power(s=1e+16)"),
        (example_2_4_weight(1.0), "example_2_4(s=1)"),
        (log_power_weight(1.0, [2.0]), "log_power(s=1, r=[2.0])"),
        (table_weight([1.0, 2.0, 3.0]), "table(len=3)"),
    ],
)
def test_describe_names_s_by_its_shortest_repr(w, name):
    assert w.describe() == name


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        make_weight({"kind": "exp"})


def test_log_power_positive_despite_small_k():
    # loglog(1+k) is negative at k=1; the constructor clamps early indices
    w = log_power_weight(1.0, [2.0, -1.0])
    ks = np.arange(1, 200)
    assert np.all(np.asarray(w(ks)) > 0)
    assert w(0) == 1.0


def test_iterated_log_floor_per_depth():
    # 1 + k must exceed 1, e and e^e for one, two and three iterated logs
    for exps, floor in (((), 1), ((1.0,), 1), ((1.0, 1.0), 2), ((1.0, 1.0, 1.0), 15)):
        assert log_power_weight(1.0, exps).clamp_from == floor

        def positive(k):
            v = 1.0 + k
            for _ in exps:
                v = math.log(v)
                if v <= 0.0:
                    return False
            return True

        assert positive(floor)
        if exps:
            assert not positive(floor - 1)
    with pytest.raises(InputError, match="impractically large"):
        log_power_weight(1.0, [1.0] * 4)


def test_log_power_weight_built_directly_equals_helper():
    # the clamp index follows from the exponents, so a Weight built without
    # make_weight evaluates and compares like the helper's
    direct = Weight(kind="log_power", s=1.0, exponents=(1.0, 1.0))
    helper = log_power_weight(1.0, (1.0, 1.0))
    assert direct == helper
    ks = np.arange(-40, 41)
    assert bits(direct(ks)) == bits(helper(ks))
    assert bits(direct.at_real(ks + 0.5)) == bits(helper.at_real(ks + 0.5))


def test_weight_extension_invariants_all_kinds():
    weights = [
        power_weight(1.5),
        log_power_weight(1.0, [2.0, -1.0]),
        example_2_4_weight(1.0),
        table_weight(list(np.linspace(1.0, 3.0, 10**4))),
    ]
    ks = np.arange(0, 10**4 + 1)
    for w in weights:
        vplus = np.asarray(w(ks))
        vminus = np.asarray(w(-ks))
        assert vplus[0] == 1.0
        assert np.array_equal(vplus, vminus)
        assert np.all(vplus > 0)


# ---------------------------------------------------------------- norms


def test_weighted_norm_examples():
    w1 = power_weight(1.0)
    assert weighted_norm(TwoSidedSeq.delta(3), w1) == 7.0
    assert weighted_norm(TwoSidedSeq.delta(0), example_2_4_weight(2.0)) == 1.0
    a = TwoSidedSeq([1.0, 0.0, 1.0])
    assert weighted_norm(a, w1) == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-15)


def test_weighted_norm_zero_iff_zero():
    w = power_weight(2.0)
    assert weighted_norm(TwoSidedSeq([0.0]), w) == 0.0
    assert weighted_norm(TwoSidedSeq.delta(5, 1e-120), w) > 0.0


@pytest.mark.parametrize("w", [power_weight(0.0), power_weight(1.0), example_2_4_weight(1.0)], ids=Weight.describe)
def test_weighted_norm_matches_ascending_scalar_sum_bitwise(w):
    # these weights evaluate identically as arrays and as scalars over |k| <= 3000
    rng = np.random.default_rng(23)
    coef = rng.standard_normal(6001) + 1j * rng.standard_normal(6001)
    coef[rng.integers(0, 6001, 500)] = 0.0
    a = TwoSidedSeq(coef)
    assert weighted_norm(a, w) == _ascending_norm(a, w)


def test_sequence_coef_is_read_only_copy():
    src = np.array([1.0, 2.0, 3.0])
    a = TwoSidedSeq(src)
    src[1] = 7.0
    assert a.coef[1] == 2.0
    assert not a.coef.flags.writeable
    with pytest.raises(ValueError):
        a.coef[1] = 5.0
    with pytest.raises(InputError):
        TwoSidedSeq([1.0, 2.0])


def test_norm_axioms_on_random_sequences():
    rng = np.random.default_rng(7)
    w = power_weight(1.5)
    for _ in range(50):
        a = rand_seq(rng, 8)
        b = rand_seq(rng, 8)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        na, nb = weighted_norm(a, w), weighted_norm(b, w)
        # homogeneity
        assert weighted_norm(_scaled(a, lam), w) == pytest.approx(abs(lam) * na, rel=1e-12)
        # triangle
        assert weighted_norm(_plus(a, b), w) <= na + nb + 1e-12 * (na + nb)
        # parallelogram (Hilbert norm)
        lhs = weighted_norm(_plus(a, b), w) ** 2 + weighted_norm(_plus(a, _scaled(b, -1)), w) ** 2
        assert lhs == pytest.approx(2 * na**2 + 2 * nb**2, rel=1e-12)


# ---------------------------------------------------------------- convolution


def test_convolve_identity_exact():
    rng = np.random.default_rng(3)
    a = rand_seq(rng, 6)
    assert np.array_equal(convolve(TwoSidedSeq.delta(0), a).coef, a.coef)


def test_convolve_shift():
    out = convolve(TwoSidedSeq.delta(1), TwoSidedSeq.delta(2))
    assert np.array_equal(out.coef, TwoSidedSeq.delta(3).coef)


def test_convolve_matches_double_sum_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rand_seq(rng, 8)
        b = rand_seq(rng, 8)
        assert np.array_equal(convolve(a, b).coef, brute_convolve(a, b))


def _with_zeros(rng, c):
    """A copy of c with zero entries and signed-zero parts scattered in."""
    c = c.copy()
    c[rng.random(c.size) < 0.25] = 0
    c[rng.random(c.size) < 0.1] = complex(-0.0, -0.0)
    c.real[rng.random(c.size) < 0.2] = -0.0
    c.imag[rng.random(c.size) < 0.2] = -0.0
    return c


@pytest.mark.parametrize("na, nb", [(0, 0), (0, 5), (3, 7), (7, 3), (6, 6)])
def test_convolve_kernel_matches_loop_oracle_bitwise(na, nb):
    rng = np.random.default_rng(100 + 10 * na + nb)
    for _ in range(10):
        a = TwoSidedSeq(_with_zeros(rng, rand_seq(rng, na).coef))
        b = TwoSidedSeq(_with_zeros(rng, rand_seq(rng, nb).coef))
        for x, y in ((a, b), (b, a), (a, a)):
            assert bits(convolve(x, y).coef) == bits(loop_convolve(x, y))


def test_convolve_kernel_batch_rows_with_zeros_at_different_shifts():
    # a shift where y(j) = 0 in some rows only adds +0 there, and an inf of
    # x in such a row meets no 0
    seq = sys.modules["hillgaps.sequence_spaces"]
    rng = np.random.default_rng(8)
    for na, nb in ((0, 3), (4, 9), (6, 6)):
        a = np.array([_with_zeros(rng, rand_seq(rng, na).coef) for _ in range(6)])
        b = np.array([_with_zeros(rng, rand_seq(rng, nb).coef) for _ in range(6)])
        a[2, 0] = np.inf
        b[2, :] = 0.0
        b[2, 1] = 2 - 1j
        out = seq._convolve_rows(a, b)
        for i in range(6):
            assert bits(out[i]) == bits(loop_convolve(TwoSidedSeq(a[i]), TwoSidedSeq(b[i])))


def test_convolve_kernel_non_finite_entry_against_zero_partner():
    # the zero entries of the summed operand add nothing, so the inf meets no 0
    x = TwoSidedSeq(np.array([np.inf, 1 - 2j, 2]))
    y = TwoSidedSeq(np.array([0, -0.0, 3 + 3j, 0, 0]))
    out = convolve(x, y).coef
    assert not np.isnan(out).any()
    assert bits(out) == bits(loop_convolve(x, y))
    # a non-finite entry of the summed operand meets the zeros of the shifted
    # one in both, with the same NaN bits
    x = TwoSidedSeq(np.array([0, 1, -0.0]))
    y = TwoSidedSeq(np.array([0, np.inf, 3 + 3j, complex(np.nan, 1), 0]))
    assert bits(convolve(x, y).coef) == bits(loop_convolve(x, y))


def test_convolve_support_4096_bitwise_in_bounded_memory_and_time():
    # the largest support verify convolves: no dense grid of all 8193 x 16385
    # shifted products (2 GiB), and no slower than the per-shift loop
    rng = np.random.default_rng(4096)
    a, b = rand_seq(rng, 4096), rand_seq(rng, 4096)
    times = {"kernel": [], "loop": []}
    for _ in range(2):
        for name, f in (("loop", loop_convolve), ("kernel", lambda a, b: convolve(a, b).coef)):
            t0 = time.perf_counter()
            out = f(a, b)
            times[name].append(time.perf_counter() - t0)
            if name == "loop":
                expected = out
    tracemalloc.start()
    try:
        out = convolve(a, b).coef
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits(out) == bits(expected)
    assert peak < 64 * 2**20
    # the kernel runs the loop's eight ufunc calls per shift into buffers;
    # the margin is for timing noise only
    assert min(times["kernel"]) <= 1.1 * min(times["loop"])


def test_convolve_bilinear_and_support():
    rng = np.random.default_rng(9)
    a, b, c = rand_seq(rng, 5), rand_seq(rng, 6), rand_seq(rng, 4)
    lam = 0.37 - 1.2j
    lhs = convolve(_plus(a, _scaled(b, lam)), c)
    rhs = _plus(convolve(a, c), _scaled(convolve(b, c), lam))
    assert lhs.support == rhs.support
    for u, v in zip(lhs.coef, rhs.coef):
        assert u == pytest.approx(v, rel=1e-12, abs=1e-12)
    assert lhs.support <= _plus(a, b).support + c.support


# ---------------------------------------------------------------- boundedness report


def test_conv_ratio_delta_pair():
    d = TwoSidedSeq.delta(0)
    assert convolution_ratio(d, d, 1.0, 1.0, 0.0) == 1.0


def test_conv_lemma_regime_classification():
    assert conv_lemma_report(1.0, 1.0, 0.0, sizes=(4, 8)).regime == "bounded"
    assert conv_lemma_report(0.0, 0.0, 0.0).regime == "fails to hold"


def test_conv_lemma_rejects_bad_t():
    with pytest.raises(InputError):
        conv_lemma_report(1.0, 0.5, 0.75)


def test_failure_regime_indicator_growth():
    rep = conv_lemma_report(0.0, 0.0, 0.0, sizes=(8, 16, 32))
    maxima = [s.max_ratio for s in rep.samples]
    assert maxima[0] < maxima[1] < maxima[2]
    assert rep.growth_factor >= 1.5
    # closed form for the indicator family: ||a*a||^2 = (2N+1)^2 + 2 sum_{j<=2N} j^2
    for s_ in rep.samples:
        n = s_.size
        norm2 = (2 * n + 1) ** 2 + 2 * sum(j * j for j in range(1, 2 * n + 1))
        assert s_.max_ratio == pytest.approx(math.sqrt(norm2) / (2 * n + 1), rel=1e-13)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("srt", [(1.0, 1.0, 1.0), (1.5, 1.25, 0.5), (0.0, 0.0, 0.0), (0.5, 0.25, 0.25)])
def test_conv_lemma_batched_draw_matches_per_pair_path(seed, srt):
    # one draw of (re a, im a, re b, im b) per pair is the stream of one
    # pair of sequences at a time, and the batched ratios have its bits
    s, r, t = srt
    sizes, pairs_per_size = (4, 8, 16), 12
    rep = conv_lemma_report(s, r, t, sizes, pairs_per_size, seed)
    rng = np.random.default_rng(seed)
    for sample, n in zip(rep.samples, sizes):
        if rep.regime == "bounded":
            pairs = [(rand_seq(rng, n), rand_seq(rng, n)) for _ in range(pairs_per_size)]
        else:
            pairs = [(TwoSidedSeq.indicator(n), TwoSidedSeq.indicator(n))]
        ratios = [loop_ratio(a, b, s, r, t) for a, b in pairs]
        assert sample.size == n
        assert bits(sample.max_ratio) == bits(max(ratios))
        assert bits(sample.mean_ratio) == bits(float(np.mean(ratios)))


def test_convolution_ratio_matches_per_pair_path_bitwise():
    rng = np.random.default_rng(21)
    for na, nb in ((2, 5), (5, 2), (4, 4)):
        a = TwoSidedSeq(_with_zeros(rng, rand_seq(rng, na).coef))
        b = TwoSidedSeq(_with_zeros(rng, rand_seq(rng, nb).coef))
        for srt in ((1.0, 1.0, 1.0), (1.5, 0.75, -0.5)):
            assert bits(convolution_ratio(a, b, *srt)) == bits(loop_ratio(a, b, *srt))


def test_bounded_regime_random_pairs_below_constant():
    const = operator_constant(1.0, 1.0, 1.0, 16)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(200):
        a, b = rand_seq(rng, 16), rand_seq(rng, 16)
        worst = max(worst, convolution_ratio(a, b, 1.0, 1.0, 1.0))
    assert worst <= const * (1 + 1e-9)


# ---------------------------------------------------------------- weight-class checks


def test_or_class_power_weight_passes():
    rep = check_or_class(power_weight(2.0), 2.0, 16.0, 1000.0)
    assert rep.passed
    assert rep.worst_ratio < 4.0 + 1e-9  # ratio bounded by lambda^2 = 4


def test_or_class_exponential_table_fails():
    w = table_weight([math.exp(k) for k in range(1, 101)])
    rep = check_or_class(w, 2.0, 1e6, 100.0)
    assert not rep.passed
    assert rep.worst_ratio > 1e6


def test_or_class_example_2_4_frozen_values():
    # the parity jump t=999 -> 1998 costs w(1998)/w(999) = 2 log(1999) ~ 15.2,
    # so the class constant must be at least that large on this range
    rep8 = check_or_class(example_2_4_weight(1.0), 2.0, 8.0, 1000.0)
    assert not rep8.passed
    assert rep8.worst_ratio == pytest.approx(2.0 * math.log(1999.0), rel=1e-12)
    assert (rep8.worst_t, rep8.worst_lambda) == (999.0, 2.0)
    rep16 = check_or_class(example_2_4_weight(1.0), 2.0, 16.0, 1000.0)
    assert rep16.passed


def test_or_class_rejects_bad_params():
    with pytest.raises(InputError):
        check_or_class(power_weight(1.0), 1.0, 2.0, 100.0)


def test_sandwich_power_same_s_passes():
    for s in (0.5, 1.0, 2.0):
        rep = check_sandwich(power_weight(s), s, 1000)
        assert rep.passed
        assert 2.0**s <= rep.c_low <= 3.0**s + 1e-9


def test_sandwich_example_2_4_passes():
    for s in (0.0, 1.0):
        rep = check_sandwich(example_2_4_weight(s), s, 2000)
        assert rep.passed
        assert not rep.upper_diverging


def test_sandwich_power_s_plus_2_fails_upper():
    rep = check_sandwich(power_weight(3.0), 1.0, 1000)
    assert not rep.passed
    assert rep.upper_diverging
    assert rep.upper_slope == pytest.approx(1.0, abs=0.05)
