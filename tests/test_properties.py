"""Property tests: the vectorized sweep, response evaluator and chirp
demodulator against the plain algorithms they replace, the stepwise design
route against the direct expansion, the runtime against its difference
equation written out term by term, the block kernel against the fold, the
canonical expression text against the parser, and a curve compared with
itself."""

import cmath
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tustin import (
    ContinuousTransferFunction,
    bode_digital,
    chirp_bode,
    tustin_direct,
    tustin_horner,
)
from tustin.analysis import MAGNITUDE_DB_FLOOR, FrequencyResponsePoint, compare_responses
from tustin.discretize import DigitalFilterCoefficients
from tustin.runtime import BLOCK_LEN, SLICE_BLOCKS, DigitalFilter, filter_series, process
from tustin.tfparse import canonical_text, parse_expression
from tustin.signals import (
    ChirpSpec,
    TimeSeries,
    _step_angles,
    chirp_phase,
    chirp_quadrature,
    generate_chirp,
)

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


def placed_roots(draw, order, p):
    # p times real factors (s + w) and damped pairs s^2 + 2 zeta w s + w^2
    # at drawn corners, until the product has the given order
    while len(p) - 1 < order:
        w = 2.0 * math.pi * math.exp(draw(log_corner))
        if order - (len(p) - 1) >= 2 and draw(st.booleans()):
            zeta = draw(st.floats(0.3, 1.0))
            p = np.polymul(p, [1.0, 2.0 * zeta * w, w * w])
        else:
            p = np.polymul(p, [1.0, w])
    return p


@st.composite
def stable_designs(draw):
    order = draw(st.integers(1, 6))
    den = placed_roots(draw, order, np.array([1.0]))
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


# ------------------------------------------------------- design routes


@st.composite
def placed_transfer_functions(draw):
    # orders 0-12, real and complex poles and zeros; order 0 is a pure gain
    order = draw(st.integers(0, 12))
    den = placed_roots(draw, order, np.array([1.0]))
    gain = np.array([draw(st.floats(0.1, 10.0))])
    num = placed_roots(draw, draw(st.integers(0, order)), gain)
    return ContinuousTransferFunction.from_descending(num.tolist(), den.tolist())


@settings(deadline=None)
@given(placed_transfer_functions())
def test_stepwise_route_matches_direct_expansion(tf):
    # 1e-9 of each vector's largest entry, as acceptance criterion 4
    h = tustin_horner(tf, RATE)
    d = tustin_direct(tf, RATE)
    for got, ref in ((h.a_hat, d.a_hat), (h.b_hat, d.b_hat)):
        assert len(got) == len(ref)
        if ref:
            scale = max(abs(v) for v in ref)
            assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-9 * scale


# ------------------------------------------------------ chirp demodulation


def chirp_bode_per_window(coeffs, spec, window_cycles, hop_cycles):
    # One window at a time: fit input and output by lstsq against sin and
    # cos of the accumulated phase; the response is the ratio of the fits.
    x = generate_chirp(spec).samples
    y = process(coeffs, TimeSeries(spec.sample_rate, x)).samples
    phase = chirp_phase(spec)
    ref = np.column_stack([np.sin(phase), np.cos(phase)])
    window = 2.0 * math.pi * window_cycles
    hop = 2.0 * math.pi * hop_cycles
    freqs, ratios = [], []
    k = 0
    while k * hop + window <= phase[-1]:
        i0 = int(np.searchsorted(phase, k * hop))
        i1 = int(np.searchsorted(phase, k * hop + window))
        k += 1
        if i1 - i0 < 4:
            continue
        (px, qx), (py, qy) = (
            np.linalg.lstsq(ref[i0:i1], u[i0:i1], rcond=None)[0] for u in (x, y)
        )
        elapsed = (i1 - 1 - i0) * (1.0 / spec.sample_rate)
        freqs.append((phase[i1 - 1] - phase[i0]) / elapsed / (2.0 * math.pi))
        ratios.append(complex(py, qy) / complex(px, qx))
    return freqs, np.array(ratios)


@st.composite
def chirp_measurements(draw):
    # at least the two decades chirp_bode asks for, below 0.45 * RATE
    fmin = math.exp(draw(st.floats(math.log(0.2), math.log(4.0))))
    fmax = fmin * 10.0 ** draw(st.floats(2.01, math.log10(0.45 * RATE / fmin)))
    kind = draw(st.sampled_from(["linear", "exponential"]))
    amplitude = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
    duration = draw(st.integers(500, 4000)) / RATE
    spec = ChirpSpec(kind, 2.0 * math.pi * fmin, 2.0 * math.pi * fmax, duration,
                     amplitude, RATE)
    return spec, draw(st.floats(0.25, 8.0)), draw(st.floats(0.25, 4.0))


@settings(deadline=None, max_examples=50)
@given(stable_designs(), chirp_measurements())
def test_chirp_bode_matches_a_per_window_fit(coeffs, measurement):
    spec, window_cycles, hop_cycles = measurement
    freqs, want = chirp_bode_per_window(coeffs, spec, window_cycles, hop_cycles)
    if not freqs:
        with pytest.raises(ValueError, match="no demodulation window fits"):
            chirp_bode(coeffs, spec, window_cycles, hop_cycles)
        return
    points = chirp_bode(coeffs, spec, window_cycles, hop_cycles)
    assert np.array([p.freq_hz for p in points]).tobytes() == np.array(freqs).tobytes()
    got = np.array([
        10.0 ** (p.magnitude_db / 20.0) * cmath.exp(1j * math.radians(p.phase_deg))
        for p in points
    ])
    assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want).max())


# ------------------------------------------------------- runtime tick


def difference_equation(coeffs, xs, heuristic, reset_at):
    # Histories as most-recent-first lists; acc = 0.0, then a[k]*x[k] and
    # b[k]*y[k] added one at a time in index order.  Inputs of magnitude
    # below the smallest normal are flushed to 0.0.
    a, b = coeffs.a_hat, coeffs.b_hat
    out = []
    for i, v in enumerate(xs):
        if i == 0 or i == reset_at:
            x, y, first = [0.0] * len(a), [0.0] * len(b), True
        if -sys.float_info.min < v < sys.float_info.min:
            v = 0.0
        if first:
            first = False
            if heuristic:
                x, y = [v] * len(a), [v] * len(b)
        x = [v] + x[:-1]
        acc = 0.0
        for k in range(len(a)):
            acc += a[k] * x[k]
        for k in range(len(b)):
            acc += b[k] * y[k]
        y = ([acc] + y)[:len(b)]
        out.append(acc)
    return out, tuple(x), tuple(y)


@st.composite
def filter_runs(draw):
    order = draw(st.integers(0, 12))
    a = draw(st.lists(st.floats(-10.0, 10.0), min_size=order + 1, max_size=order + 1))
    # sum |b_hat| < 1 keeps every run bounded, so outputs stay finite
    bound = 0.99 / max(order, 1)
    b = draw(st.lists(st.floats(-bound, bound), min_size=order, max_size=order))
    sample = st.one_of(
        st.floats(-1e3, 1e3),
        st.sampled_from([0.0, -0.0, 1e-310, -1e-310, 5e-324, -5e-324,
                         sys.float_info.min, -sys.float_info.min]),
    )
    xs = draw(st.lists(sample, min_size=1, max_size=200))
    heuristic = draw(st.booleans())
    reset_at = draw(st.integers(0, len(xs)))
    return DigitalFilterCoefficients(a, b, 1000.0), xs, heuristic, reset_at


@settings(deadline=None)
@given(filter_runs())
def test_tick_and_process_are_the_difference_equation_bitwise(run):
    coeffs, xs, heuristic, reset_at = run
    f = DigitalFilter(coeffs, heuristic)
    got = []
    for i, v in enumerate(xs):
        if i == reset_at:
            f.reset()
        got.append(f.tick(v))
    want, x_want, y_want = difference_equation(coeffs, xs, heuristic, reset_at)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert (f.x_hist, f.y_hist) == (x_want, y_want)
    whole = process(coeffs, TimeSeries(1000.0, xs), heuristic)
    once, _, _ = difference_equation(coeffs, xs, heuristic, None)
    assert whole.samples.tobytes() == np.array(once).tobytes()


# ------------------------------------------------------------ block kernel


# One sample, one block and one sample either side of it, several blocks,
# and more blocks than one slice of the block products.
series_lengths = st.sampled_from(
    [1, BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1, 7 * BLOCK_LEN + 45,
     (SLICE_BLOCKS + 2) * BLOCK_LEN + 3]
)
kernel_samples = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1e-310, -5e-324, sys.float_info.min]),
)


@settings(deadline=None)
@given(
    stable_designs(),
    series_lengths.flatmap(lambda n: arrays(np.float64, n, elements=kernel_samples)),
    st.booleans(),
)
def test_filter_series_matches_the_fold(coeffs, xs, heuristic):
    series = TimeSeries(RATE, xs)
    got = filter_series(coeffs, series, heuristic).samples
    want = process(coeffs, series, heuristic).samples
    # Outputs below the smallest normal float (2.2e-308) round on an absolute
    # grid of 5e-324 that no relative bound covers: inputs of that size left
    # the two 140 grid steps apart, so gaps under 1e-318 always pass.
    assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want).max() + 1e-318)


# ------------------------------------------------------- canonical text


def bits(values):
    return struct.pack(f"<{len(values)}d", *values)


finite_coeffs = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def transfer_functions(draw):
    den = draw(st.lists(finite_coeffs, min_size=1, max_size=8))
    if den[0] == 0.0:
        den[0] = 1.0
    num = draw(st.lists(finite_coeffs, min_size=1, max_size=len(den)))
    return ContinuousTransferFunction.from_descending(num, den)


@given(transfer_functions())
@example(ContinuousTransferFunction.from_descending([-0.0, 1.0], [1.0, -0.0]))
@example(ContinuousTransferFunction.from_descending([0.0, -0.0], [-5e-324, 0.0]))
@example(ContinuousTransferFunction.from_descending([1e-310], [2.2250738585072014e-308]))
def test_canonical_text_keeps_every_coefficient_bit(tf):
    back = parse_expression(canonical_text(tf))
    assert bits(back.numerator.coeffs) == bits(tf.numerator.coeffs)
    assert bits(back.denominator.coeffs) == bits(tf.denominator.coeffs)


# ------------------------------------------------------------- comparison


# What read_bode_csv can hand over: finite positive frequencies, magnitudes
# below +inf (-inf is a transmission zero) and finite phases.
response_points = st.builds(
    FrequencyResponsePoint,
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(allow_nan=False, max_value=math.inf, exclude_max=True),
    finite_coeffs,
)


@settings(deadline=None)
@given(st.lists(response_points, min_size=1, max_size=30))
@example([FrequencyResponsePoint(1.0, 0.0, 0.0), FrequencyResponsePoint(1.0, 0.0, 0.0)])
def test_a_curve_compared_with_itself_deviates_nowhere(curve):
    # Two different responses at one log-frequency cannot be interpolated.
    f = np.log10([p.freq_hz for p in curve])
    at = {}
    for x, p in zip(f.tolist(), curve):
        at.setdefault(x, set()).add((max(p.magnitude_db, MAGNITUDE_DB_FLOOR), p.phase_deg))
    if any(len(v) > 1 for v in at.values()):
        with pytest.raises(ValueError, match="^second curve: two different responses"):
            compare_responses(curve, curve)
        return
    got = compare_responses(curve, curve)
    assert got.points_compared == len(curve)
    assert got.max_abs_magnitude_db == got.mean_abs_magnitude_db == 0.0
    assert got.max_abs_phase_deg == got.mean_abs_phase_deg == 0.0
