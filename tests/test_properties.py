"""Property tests: the vectorized sweep and response evaluator against the
plain algorithms they replace."""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tustin import ContinuousTransferFunction, bode_digital, tustin_horner
from tustin.signals import ChirpSpec, _step_angles, chirp_quadrature

# ------------------------------------------------------------ chirp sweep


def phasor_recursion(theta):
    # cos_i = a cos_{i-1} - b sin_{i-1}, sin_i = b cos_{i-1} + a sin_{i-1}
    # with (a, b) = (cos theta_i, sin theta_i), seeded at (1, 0)
    step_cos = np.cos(theta).tolist()
    step_sin = np.sin(theta).tolist()
    c, s = 1.0, 0.0
    cos_out, sin_out = [c], [s]
    for a, b in zip(step_cos, step_sin):
        c, s = a * c - b * s, b * c + a * s
        cos_out.append(c)
        sin_out.append(s)
    return np.array(cos_out), np.array(sin_out)


@st.composite
def chirp_specs(draw):
    rate = draw(st.floats(1.0, 1e5))
    n = draw(st.integers(2, 3000))
    omega_min = draw(st.floats(1e-3, 1e4))
    omega_max = omega_min * (1.0 + draw(st.floats(1e-3, 1e4)))
    kind = draw(st.sampled_from(["linear", "exponential"]))
    amplitude = draw(st.floats(-10.0, 10.0))
    return ChirpSpec(kind, omega_min, omega_max, n / rate, amplitude, rate)


@settings(deadline=None)
@given(chirp_specs())
def test_chirp_quadrature_is_the_phasor_recursion_bitwise(spec):
    cos_got, sin_got = chirp_quadrature(spec)
    cos_want, sin_want = phasor_recursion(_step_angles(spec))
    assert cos_got.tobytes() == cos_want.tobytes()
    assert sin_got.tobytes() == sin_want.tobytes()


# ------------------------------------------------------ digital response

RATE = 1000.0


def sum_of_powers_response(coeffs, omega):
    # (sum a_hat[k] z^-k) / (1 - sum b_hat[k] z^-(k+1)), accumulating z^-k
    zinv = cmath.exp(complex(0.0, -omega / coeffs.loop_rate_hz))
    num = 0j
    zk = 1.0 + 0j
    for a in coeffs.a_hat:
        num += a * zk
        zk *= zinv
    den = 1.0 + 0j
    zk = zinv
    for b in coeffs.b_hat:
        den -= b * zk
        zk *= zinv
    return num / den


# Corners from rate/20 to 0.4 * rate and damping >= 0.3 keep the direct-form
# polynomials well enough conditioned that two evaluation orders agree far
# inside 1e-9; lower corners put poles near z = 1, where they cannot.
log_corner = st.floats(math.log(RATE / 20.0), math.log(0.4 * RATE))


@st.composite
def stable_designs(draw):
    order = draw(st.integers(1, 6))
    den = np.array([1.0])
    while len(den) - 1 < order:
        w = 2.0 * math.pi * math.exp(draw(log_corner))
        if order - (len(den) - 1) >= 2 and draw(st.booleans()):
            zeta = draw(st.floats(0.3, 1.0))
            den = np.polymul(den, [1.0, 2.0 * zeta * w, w * w])
        else:
            den = np.polymul(den, [1.0, w])
    num = np.array([draw(st.floats(0.1, 10.0))])
    for _ in range(draw(st.integers(0, order))):
        num = np.polymul(num, [1.0, 2.0 * math.pi * math.exp(draw(log_corner))])
    tf = ContinuousTransferFunction.from_descending(num.tolist(), den.tolist())
    return tustin_horner(tf, RATE)


@settings(deadline=None)
@given(stable_designs())
def test_bode_digital_matches_sum_of_powers(coeffs):
    freqs = np.logspace(-1.0, math.log10(0.45 * RATE), 50)
    points = bode_digital(coeffs, freqs)
    got = np.array([
        10.0 ** (p.magnitude_db / 20.0) * cmath.exp(1j * math.radians(p.phase_deg))
        for p in points
    ])
    want = np.array([sum_of_powers_response(coeffs, 2.0 * math.pi * f) for f in freqs])
    assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))
