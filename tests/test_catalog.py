"""Catalog filters against their reference 1 kHz coefficient listings.

The expected vectors are 5-significant-figure listings, so each element is
compared at 5e-5 relative.
"""

import cmath
import math

import pytest

from tustin import catalog
from tustin.analysis import analytic_response_continuous
from tustin.discretize import pole_radii, tustin_horner

RATE = 1000.0

# (name, tf factory, a_hat, b_hat) reference vectors for a 1 kHz loop
FIXTURES = [
    (
        "lowpass1",
        lambda: catalog.lowpass1(2.0 * math.pi * 10.0),
        [3.0459e-02, 3.0459e-02],
        [9.3908e-01],
    ),
    (
        "butterworth2",
        lambda: catalog.butterworth2(2.0 * math.pi * 10.0),
        [9.4408e-04, 1.8882e-03, 9.4408e-04],
        [1.9112e00, -9.1500e-01],
    ),
    (
        "notch",
        lambda: catalog.notch(2.0 * math.pi * 60.0, 5.0),
        [9.6487e-01, -1.7973e00, 9.6487e-01],
        [1.7973e00, -9.2975e-01],
    ),
    (
        "multiorder",
        catalog.multiorder_example,
        [1.7198e02, -4.9816e02, 4.8074e02, -1.5455e02],
        [2.6305e00, -2.3162e00, 6.8252e-01],
    ),
    (
        "pid",
        lambda: catalog.pid(15.0, 2.0, 0.25, 0.0035),
        [1.5002e01, -3.0002e01, 1.5000e01],
        [2.0000e00, -1.0000e00],
    ),
    (
        "leadlag",
        lambda: catalog.leadlag(10.0, 2.0 * math.pi, 20.0 * math.pi),
        [9.7259e00, -9.6650e00],
        [9.3908e-01],
    ),
]


@pytest.mark.parametrize("name,factory,a_want,b_want", FIXTURES, ids=[f[0] for f in FIXTURES])
def test_reference_coefficients(name, factory, a_want, b_want):
    coeffs = tustin_horner(factory(), RATE)
    for got, want in zip(coeffs.a_hat, a_want, strict=True):
        assert got == pytest.approx(want, rel=5e-5), name
    for got, want in zip(coeffs.b_hat, b_want, strict=True):
        assert got == pytest.approx(want, rel=5e-5), name


def test_lowpass1_shape():
    t = catalog.lowpass1(2.0)
    assert t.numerator.descending() == (1.0,)
    assert t.denominator.descending() == (0.5, 1.0)
    assert t.dc_gain() == 1.0


def test_butterworth2_half_power_at_cutoff():
    wc = 2.0 * math.pi * 10.0
    h = analytic_response_continuous(catalog.butterworth2(wc), wc)
    assert 20.0 * math.log10(abs(h)) == pytest.approx(-3.0103, abs=1e-3)
    assert catalog.butterworth2(wc).dc_gain() == 1.0


def test_notch_kills_its_center_frequency():
    wn = 2.0 * math.pi * 60.0
    t = catalog.notch(wn, 5.0)
    # numerator s^2 + wn^2 vanishes identically at s = j*wn
    num = (1j * wn) ** 2 + wn * wn
    assert abs(num) < 1e-6 * wn * wn
    assert abs(analytic_response_continuous(t, wn)) < 1e-12
    assert t.dc_gain() == 1.0


def test_pid_keeps_integrator_pole_on_unit_circle():
    coeffs = tustin_horner(catalog.pid(15.0, 2.0, 0.25, 0.0035), RATE)
    assert max(pole_radii(coeffs)) == pytest.approx(1.0, abs=1e-9)


def test_pid_without_integral_term_drops_to_proper_form():
    # ki = 0 still has the s-denominator; H(0) is undefined
    t = catalog.pid(2.0, 0.0, 0.0, 0.01)
    with pytest.raises(ZeroDivisionError):
        t.dc_gain()


def test_leadlag_with_equal_corner_is_flat_gain():
    t = catalog.leadlag(7.0, 3.0, 3.0)
    for w in (0.1, 1.0, 10.0, 500.0):
        assert abs(analytic_response_continuous(t, w)) == pytest.approx(7.0, rel=1e-12)


def test_leadlag_asymptotic_gains():
    # DC gain is g*zero/pole, high-frequency magnitude tends to g
    t = catalog.leadlag(10.0, 2.0 * math.pi, 20.0 * math.pi)
    assert t.dc_gain() == pytest.approx(1.0, rel=1e-12)
    hi = abs(analytic_response_continuous(t, 1e6))
    assert hi == pytest.approx(10.0, rel=1e-3)


def test_multiorder_dc_gain():
    t = catalog.multiorder_example()
    assert t.dc_gain() == pytest.approx(4.7261, rel=1e-4)
    assert t.order == 3


def test_parameter_validation():
    with pytest.raises(ValueError):
        catalog.lowpass1(0.0)
    with pytest.raises(ValueError):
        catalog.butterworth2(-1.0)
    with pytest.raises(ValueError):
        catalog.notch(100.0, 0.0)
    with pytest.raises(ValueError):
        catalog.notch(0.0, 5.0)
    with pytest.raises(ValueError):
        catalog.leadlag(1.0, 3.0, 0.0)  # pole at the origin
    with pytest.raises(ValueError):
        catalog.leadlag(0.0, 3.0, 3.0)  # zero gain
    with pytest.raises(ValueError):
        catalog.pid(1.0, 1.0, 1.0, 0.0)


@pytest.mark.parametrize("build, message", [
    (lambda: catalog.pid(float("inf"), 1.0, 1.0, 1.0), "kp must be finite, got inf"),
    (lambda: catalog.pid(1.0, 1.0, float("nan"), 1.0), "kd must be finite, got nan"),
    (lambda: catalog.leadlag(1.0, float("nan"), 3.0), "zero must be finite, got nan"),
    (lambda: catalog.lowpass1(float("inf")), "omega0 must be positive and finite, got inf"),
    (lambda: catalog.notch(10.0, -1.0), "q must be positive and finite, got -1.0"),
    (lambda: catalog.pid(1.0, 1.0, 1.0, 0), "tau must be positive and finite, got 0"),
], ids=["pid-kp", "pid-kd", "leadlag-zero", "lowpass1-omega0", "notch-q", "pid-tau"])
def test_parameter_errors_name_the_bad_value(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_phase_lead_between_corners():
    # a lead network's phase peaks between zero and pole
    t = catalog.leadlag(1.0, 1.0, 100.0)
    w_mid = 10.0  # geometric mean of the corners
    ph = cmath.phase(analytic_response_continuous(t, w_mid))
    assert math.degrees(ph) > 50.0
