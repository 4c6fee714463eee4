import json
import math

import numpy as np
import pytest

from hillgaps import (
    InputError,
    from_fourier,
    hormander_norm,
    lame,
    load_potential,
    mathieu,
    potential_from_dict,
    potential_to_dict,
    power_decay,
    power_weight,
    random_hs,
    two_harmonic,
    weighted_norm,
)


def test_mathieu_construction_and_value():
    q = mathieu(0.1)
    assert q.evaluate(0.0) == pytest.approx(0.2, rel=1e-15)
    xs = np.linspace(0, 1, 64, endpoint=False)
    assert np.allclose(q.evaluate(xs), 0.2 * np.cos(2 * np.pi * xs), atol=1e-15)


def test_lame_coefficients_and_cutoff():
    # c(k) = -ell (ell + 1) 4 pi^2 k p^k / (1 - p^(2k)), p = exp(-pi t), kept up
    # to the first k whose |c(k)| is at most eps |c(1)|
    p = math.exp(-math.pi)
    q = lame(2, 1.0)
    c = [q.coefficient(k) for k in range(1, q.cutoff + 1)]
    assert c[0] == pytest.approx(-24.0 * math.pi**2 * p / (1.0 - p * p), rel=1e-15)
    assert all(v.imag == 0.0 and v.real < 0.0 for v in c)
    eps = np.finfo(float).eps
    assert abs(c[-1]) <= eps * abs(c[0]) < abs(c[-2])
    assert q.cutoff == 14
    assert lame(1, 1000.0).coeffs == ()  # every coefficient underflows: q is its mean, 0
    for ell, t in ((0, 1.0), (1.5, 1.0), (1, 0.0), (1, -1.0), (1, float("nan")), (1, float("inf")), (1, 1e-4), (1, 1e-320)):
        with pytest.raises(InputError):
            lame(ell, t)


def test_constant_potential():
    q = from_fourier(5.0, [])
    assert q.evaluate(0.123) == 5.0
    assert q.cutoff == 0


def test_imaginary_coefficient_gives_real_sine():
    q = from_fourier(0.0, [(1, 0.3j)])
    xs = np.linspace(0, 1, 128, endpoint=False)
    assert np.allclose(q.evaluate(xs), -0.6 * np.sin(2 * np.pi * xs), atol=1e-14)


def test_evaluate_single_harmonic_example():
    q = from_fourier(0.0, [(2, 0.5)])
    assert q.evaluate(0.25) == pytest.approx(-1.0, rel=1e-14)


def test_from_fourier_rejections():
    with pytest.raises(InputError):
        from_fourier(0.0, [(0, 1.0)])
    with pytest.raises(InputError):
        from_fourier(0.0, [(-2, 1.0)])
    with pytest.raises(InputError):
        from_fourier(0.0, [(1, 1.0), (1, 2.0)])
    with pytest.raises(InputError):
        from_fourier(float("nan"), [])
    with pytest.raises(InputError):
        from_fourier(0.0, [(1, complex(float("inf"), 0))])


def test_conjugate_reads():
    q = from_fourier(1.5, [(2, 0.5 + 0.25j)])
    assert q.coefficient(2) == 0.5 + 0.25j
    assert q.coefficient(-2) == 0.5 - 0.25j
    assert q.coefficient(0) == 1.5
    assert q.coefficient(7) == 0j


def test_periodicity_exact_on_dyadic_grid():
    q = two_harmonic(0.3, -0.2)
    xs = np.array([i / 256 for i in range(256)])
    assert np.array_equal(q.evaluate(xs), q.evaluate(xs + 1.0))


def test_reality_of_complex_form():
    rng = np.random.default_rng(2)
    for seed in range(5):
        q = random_hs(1.0, 32, seed)
        xs = np.linspace(0, 1, 1024, endpoint=False)
        seq = q.two_sided()
        vals = np.zeros(xs.size, dtype=complex)
        for k, v in zip(range(-seq.support, seq.support + 1), seq.coef):
            vals += v * np.exp(2j * np.pi * k * xs)
        l1 = np.sum(np.abs(seq.coef))
        assert np.max(np.abs(vals.imag)) < 1e-12 * (1 + l1)
        assert np.allclose(vals.real, q.evaluate(xs), atol=1e-12 * (1 + l1))


def test_hormander_norm_single_harmonic():
    for s in (0.0, 1.0, 2.5):
        q = mathieu(1.0)  # q = 2 cos(2 pi x), |c(+-1)| = 1
        assert hormander_norm(q, power_weight(s)) == pytest.approx(
            math.sqrt(2.0) * 3.0**s, rel=1e-12
        )
    assert hormander_norm(from_fourier(0.0, []), power_weight(1.0)) == 0.0


def test_hormander_norm_matches_direct_sum():
    q = power_decay(2.0, 32)
    w = power_weight(1.0)
    direct = q.mean**2
    for k in range(1, 33):
        direct += 2.0 * (1.0 + 2.0 * k) ** 2 * abs(q.coefficient(k)) ** 2
    assert hormander_norm(q, w) == pytest.approx(math.sqrt(direct), rel=1e-13)


def test_hormander_norm_equals_weighted_norm_exactly():
    # the sum over the nonzero coefficients has the bits of the dense two-sided
    # norm, also with holes in the coefficients and a nonzero mean
    rng = np.random.default_rng(7)
    sparse = [
        from_fourier(rng.normal(), [(int(k), complex(*rng.normal(size=2))) for k in np.flatnonzero(rng.random(40) < 0.3) + 1])
        for _ in range(20)
    ]
    for q in [random_hs(1.0, 16, seed) for seed in range(100)] + sparse:
        for s in (1.5, 0.0, -0.7):
            assert hormander_norm(q, power_weight(s)) == weighted_norm(q.two_sided(), power_weight(s))


def test_hormander_norm_huge_cutoff_without_dense_sequence():
    q = from_fourier(0.0, [(10**12, 0.1)])
    assert hormander_norm(q, power_weight(0.0)) == pytest.approx(0.1 * math.sqrt(2.0), rel=1e-15)


def test_power_decay_coefficients():
    q = power_decay(2.0, 4)
    vals = [q.coefficient(k) for k in range(1, 5)]
    assert vals == [1 / 9, 1 / 25, 1 / 49, 1 / 81]
    with pytest.raises(InputError):
        power_decay(0.5, 4)


def test_random_hs_reproducible_and_decaying():
    q1 = random_hs(1.0, 64, 7)
    q2 = random_hs(1.0, 64, 7)
    assert q1 == q2
    q3 = random_hs(1.0, 64, 8)
    assert q1 != q3
    for k in (1, 10, 64):
        assert abs(q1.coefficient(k)) == pytest.approx((1 + 2 * k) ** (-2.0), rel=1e-12)


def test_json_round_trip(tmp_path):
    q = from_fourier(1.25, [(1, 0.1 + 0.05j), (3, -0.2j)])
    path = tmp_path / "q.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(potential_to_dict(q), f)
    assert load_potential(str(path)) == q


def test_json_reader_rejections(tmp_path):
    with pytest.raises(InputError):
        potential_from_dict({"mean": 0.0, "coeffs": [{"k": 0, "re": 1.0}]})
    with pytest.raises(InputError):
        potential_from_dict({"mean": 0.0, "coeffs": [{"k": 2, "re": 1.0}, {"k": 2, "re": 2.0}]})
    with pytest.raises(InputError):
        potential_from_dict({"mean": 0.0, "coeffs": [{"re": 1.0}]})
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    with pytest.raises(InputError, match=r":1:"):
        load_potential(str(bad))
    with pytest.raises(InputError):
        load_potential(str(tmp_path / "missing.json"))


def test_potential_dict_form():
    q = two_harmonic(0.25, -0.125)
    assert potential_from_dict(potential_to_dict(q)) == q
