"""Design-route tests: both substitution routes against hand-worked results."""

import math
import random
import re
import struct
import sys

import numpy as np
import pytest

from tustin.discretize import (
    ContinuousTransferFunction,
    DegenerateLeadingCoefficientError,
    DigitalFilterCoefficients,
    FilterDesignError,
    NonCausalError,
    NonPositiveRateError,
    _split_pole_at_one,
    normalize,
    pole_radii,
    tustin_direct,
    tustin_horner,
)
from tustin.analysis import analytic_response_continuous, analytic_response_digital
from tustin.polynomial import Polynomial

ROUTES = [tustin_horner, tustin_direct]


def tf(num, den) -> ContinuousTransferFunction:
    return ContinuousTransferFunction.from_descending(num, den)


# --------------------------------------------------------- golden designs


@pytest.mark.parametrize("design", ROUTES)
def test_first_order_lowpass_golden(design):
    # 1/(10s + 1) at a 0.1 Hz loop rate: all three coefficients are 1/3
    coeffs = design(tf([1.0], [10.0, 1.0]), 0.1)
    third = 1.0 / 3.0
    assert coeffs.a_hat == pytest.approx([third, third], abs=1e-12)
    assert coeffs.b_hat == pytest.approx([third], abs=1e-12)
    assert coeffs.order == 1
    assert coeffs.loop_rate_hz == 0.1


@pytest.mark.parametrize("design", ROUTES)
def test_second_order_golden(design):
    # 2/(s^2 + 2s + 2) at 1 Hz
    coeffs = design(tf([2.0], [1.0, 2.0, 2.0]), 1.0)
    assert coeffs.a_hat == pytest.approx([0.2, 0.4, 0.2], abs=1e-12)
    assert coeffs.b_hat == pytest.approx([0.4, -0.2], abs=1e-12)


def test_routes_agree_on_goldens():
    for num, den, rate in [([1.0], [10.0, 1.0], 0.1), ([2.0], [1.0, 2.0, 2.0], 1.0)]:
        h = tustin_horner(tf(num, den), rate)
        d = tustin_direct(tf(num, den), rate)
        assert h.a_hat == pytest.approx(d.a_hat, abs=1e-12)
        assert h.b_hat == pytest.approx(d.b_hat, abs=1e-12)


@pytest.mark.parametrize("design", ROUTES)
def test_triple_integrator_is_binomial(design):
    # 1/s^3 with 2*f_l = 1 maps to (z + 1)^3 / (z - 1)^3, exactly
    coeffs = design(tf([1.0], [1.0, 0.0, 0.0, 0.0]), 0.5)
    assert coeffs.a_hat == (1.0, 3.0, 3.0, 1.0)
    assert coeffs.b_hat == (3.0, -3.0, 1.0)


@pytest.mark.parametrize("design", ROUTES)
def test_pure_gain(design):
    coeffs = design(tf([3.0], [6.0]), 100.0)
    assert coeffs.a_hat == (0.5,)
    assert coeffs.b_hat == ()
    assert coeffs.order == 0


# ------------------------------------------------------------ validation


def test_noncausal_rejected():
    with pytest.raises(NonCausalError):
        tf([1.0, 0.0], [1.0])


def test_zero_leading_denominator_rejected():
    with pytest.raises(FilterDesignError):
        tf([1.0], [0.0, 1.0])


def test_nonpositive_rate_rejected():
    lp = tf([1.0], [10.0, 1.0])
    for rate in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(NonPositiveRateError):
            tustin_horner(lp, rate)


@pytest.mark.parametrize("design", ROUTES)
@pytest.mark.parametrize("rate", [1e-200, 1e-160, 1e160])
def test_rate_out_of_float_range_refused(design, rate):
    # (2*f_l)**2 is 0, subnormal and inf at these rates
    message = f"loop rate {rate!r} Hz is out of float64 range for order 2"
    with pytest.raises(FilterDesignError, match=f"^{re.escape(message)}$"):
        design(tf([1.0], [1.0, 1.0, 1.0]), rate)


@pytest.mark.parametrize("rate", [1e-150, 1e150])
def test_rate_inside_float_range_designs(rate):
    h = tustin_horner(tf([1.0], [1.0, 1.0, 1.0]), rate)
    d = tustin_direct(tf([1.0], [1.0, 1.0, 1.0]), rate)
    for got, ref in ((h.a_hat, d.a_hat), (h.b_hat, d.b_hat)):
        scale = max(abs(v) for v in ref)
        assert 0.0 < scale and max(abs(g - r) for g, r in zip(got, ref)) <= 1e-9 * scale


def test_rate_range_covers_the_power_either_route_computes():
    # (2*f_l)**20 at this rate is normal as a product of 20 factors, which
    # the stepwise route divides by, but subnormal as ** computes it, which
    # the direct route multiplies by (glibc's pow)
    two_fl = 4.1434988397562096e-16
    assert math.prod([two_fl] * 20) >= sys.float_info.min > two_fl**20
    for design in ROUTES:
        with pytest.raises(FilterDesignError, match="out of float64 range for order 20"):
            design(tf([1.0], np.poly([-1.0] * 20).tolist()), two_fl / 2.0)


@pytest.mark.parametrize("design", ROUTES)
def test_degenerate_normalization(design):
    # (s - 2)(s + 1) has a root exactly at s = 2*f_l when f_l = 1 Hz, so
    # the z-domain leading coefficient collapses to zero
    with pytest.raises(DegenerateLeadingCoefficientError):
        design(tf([1.0], [1.0, -1.0, -2.0]), 1.0)


def test_coefficient_container_validation():
    with pytest.raises(FilterDesignError):
        DigitalFilterCoefficients((1.0, 2.0), (0.5, 0.5), 10.0)  # lengths
    with pytest.raises(FilterDesignError):
        DigitalFilterCoefficients((1.0, float("nan")), (0.5,), 10.0)
    with pytest.raises(NonPositiveRateError):
        DigitalFilterCoefficients((1.0,), (), 0.0)


def test_normalize_rejects_mismatched_orders():
    with pytest.raises(FilterDesignError):
        normalize(Polynomial((1.0, 1.0)), Polynomial((1.0, 1.0, 1.0)), 10.0)


def test_normalize_rejects_a_zero_denominator():
    # 0 < 1e-12 * 0 is false, so only a "not above" test catches this
    with pytest.raises(DegenerateLeadingCoefficientError):
        normalize(Polynomial((1.0,)), Polynomial((0.0,)), 10.0)
    with pytest.raises(DegenerateLeadingCoefficientError):
        normalize(Polynomial((1.0, 2.0)), Polynomial((0.0, 0.0)), 10.0)


def test_normalize_worked_example():
    # N[z] = 2.5z + 2.5, D[z] = 7.5z - 2.5 is the lowpass walkthrough
    got = normalize(
        Polynomial.from_descending([2.5, 2.5]),
        Polynomial.from_descending([7.5, -2.5]),
        0.1,
    )
    third = 1.0 / 3.0
    assert got.a_hat == pytest.approx([third, third], abs=1e-15)
    assert got.b_hat == pytest.approx([third], abs=1e-15)


def test_dc_gain():
    assert tf([2.0], [1.0, 2.0, 2.0]).dc_gain() == 1.0
    with pytest.raises(ZeroDivisionError):
        tf([1.0], [1.0, 0.0]).dc_gain()


# ------------------------------------------------------------ properties


def _random_causal_tf(rng: random.Random, max_order: int = 6):
    n = rng.randint(1, max_order)
    m = rng.randint(0, n)

    def coeff():
        mag = 10.0 ** rng.uniform(-3.0, 3.0)
        return mag if rng.random() < 0.5 else -mag

    den = [coeff() for _ in range(n + 1)]
    num = [coeff() for _ in range(m + 1)]
    return tf(num, den)


def test_dc_gain_is_preserved():
    # z = 1 maps to s = 0: sum(a_hat) / (1 - sum(b_hat)) equals H(0).
    # Draws are kept mildly conditioned; the identity is exact algebra, but
    # wildly spread coefficients turn both sums into pure cancellation.
    rng = random.Random(201)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 4)
        m = rng.randint(0, n)
        den = [rng.uniform(0.2, 5.0) for _ in range(n + 1)]
        num = [rng.uniform(0.2, 5.0) for _ in range(m + 1)]
        t = tf(num, den)
        try:
            coeffs = tustin_horner(t, 10.0 ** rng.uniform(0.0, 2.0))
        except DegenerateLeadingCoefficientError:
            continue
        feedback = 1.0 - sum(coeffs.b_hat)
        if abs(feedback) < 1e-3 * (1.0 + sum(abs(v) for v in coeffs.b_hat)):
            continue  # near-integrator; the quotient itself is ill-posed
        digital_dc = sum(coeffs.a_hat) / feedback
        want = t.dc_gain()
        assert abs(digital_dc - want) <= 1e-9 * max(1.0, abs(want))
        checked += 1


def _vec_close(a, b, rtol):
    scale = max(max(abs(v) for v in a), max(abs(v) for v in b), 1e-300)
    return len(a) == len(b) and all(
        abs(x - y) <= rtol * scale for x, y in zip(a, b)
    )


def test_common_scale_cancels():
    # scaling numerator and denominator together must not move the result;
    # agreement is judged against the coefficient vector's scale because a
    # cancelled individual entry carries no relative accuracy of its own
    rng = random.Random(202)
    for _ in range(50):
        t = _random_causal_tf(rng, 4)
        k = 10.0 ** rng.uniform(-2.0, 2.0)
        scaled = tf(
            [k * v for v in t.numerator.descending()],
            [k * v for v in t.denominator.descending()],
        )
        a = tustin_horner(t, 50.0)
        b = tustin_horner(scaled, 50.0)
        assert _vec_close(a.a_hat, b.a_hat, 1e-12)
        assert not a.b_hat or _vec_close(a.b_hat, b.b_hat, 1e-12)


def test_warping_identity_spot_check():
    # the digital curve equals the continuous curve at the warped frequency
    t = tf([2.0], [1.0, 2.0, 2.0])
    rate = 100.0
    coeffs = tustin_horner(t, rate)
    for f in (0.5, 3.0, 11.0, 27.0):
        omega = 2.0 * math.pi * f
        warped = 2.0 * rate * math.tan(omega / (2.0 * rate))
        hd = analytic_response_digital(coeffs, omega)
        hc = analytic_response_continuous(t, warped)
        assert abs(hd - hc) <= 1e-9 * abs(hc)


def test_pole_radii_stable_and_unstable():
    stable = tustin_horner(tf([2.0], [1.0, 2.0, 2.0]), 1.0)
    assert all(r < 1.0 for r in pole_radii(stable))
    # right-half-plane pole lands outside the unit circle
    unstable = tustin_horner(tf([1.0], [1.0, -1.0]), 10.0)
    assert max(pole_radii(unstable)) > 1.0
    assert pole_radii(tustin_horner(tf([1.0], [2.0]), 10.0)) == ()


def test_pole_radii_returns_a_trailing_zero_as_a_pole_at_the_origin():
    # the pole at s = -2*f_l maps onto z = 0: b_hat is -0.0, which the
    # companion matrix leaves out as np.roots does
    coeffs = tustin_horner(tf([1.0], [1.0, 2000.0]), 1000.0)
    assert struct.pack("<d", *coeffs.b_hat) == struct.pack("<d", -0.0)
    assert pole_radii(coeffs) == (0.0,)


@pytest.mark.parametrize("b_hat", [(), (0.0,), (0.0, -0.0, 0.0)],
                         ids=["order0", "zero-b_hat-1", "zero-b_hat-3"])
def test_a_design_without_a_nonzero_pole_has_its_poles_at_the_origin(b_hat):
    # The companion matrix is 0 x 0: every pole sits at z = 0, none at z = 1.
    coeffs = DigitalFilterCoefficients((2.5,) + (0.0,) * len(b_hat), b_hat, 1000.0)
    assert pole_radii(coeffs) == (0.0,) * len(b_hat)
    quotient, found = _split_pole_at_one(coeffs)
    assert quotient is coeffs and found is False


def test_pole_radii_sorted_descending():
    coeffs = tustin_horner(tf([1.0], [1.0, 12.0, 20.0]), 100.0)
    radii = pole_radii(coeffs)
    assert list(radii) == sorted(radii, reverse=True)
