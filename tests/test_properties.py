"""Property tests: the vectorized sweep, response evaluator and stepped-sine
fit against the plain algorithms they replace, the chirp's spectral ratio
and stepped sine on pid designs against the analytic digital response,
the stepwise design route against the direct expansion, the split of a
pole at z = 1 against the np.roots rule it replaced, the runtime
against its difference equation written out term by term, the block
kernel against the fold, the canonical expression text against the
parser, a curve compared with itself, and response curves and their files
against the frozen-dataclass points they replace."""

import cmath
import io
import math
import re
import struct
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tustin import (
    ContinuousTransferFunction,
    analysis,
    bode_continuous,
    bode_digital,
    catalog,
    chirp_bode,
    read_bode_csv,
    stepped_sine_bode,
    tustin_direct,
    tustin_horner,
    write_bode_csv,
)
from tustin.analysis import (
    BODE_CSV_HEADER,
    MAGNITUDE_DB_FLOOR,
    STEPPED_SINE_MAX_FREQ_FRACTION,
    FrequencyResponsePoint,
    compare_responses,
)
from tustin.csvio import read_csv, write_csv
from tustin.discretize import (
    UNIT_CIRCLE_MARGIN,
    DigitalFilterCoefficients,
    _split_pole_at_one,
    normalize,
    pole_radii,
)
from tustin.polynomial import Polynomial
from tustin.runtime import BLOCK_LEN, SLICE_BLOCKS, DigitalFilter, filter_series, process
from tustin.tfparse import MAX_EXPONENT, canonical_text, parse_expression
from tustin.signals import (
    ChirpSpec,
    TimeSeries,
    _step_angles,
    chirp_quadrature,
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
def stable_transfer_functions(draw):
    order = draw(st.integers(1, 6))
    den = placed_roots(draw, order, np.array([1.0]))
    num = np.array([draw(st.floats(0.1, 10.0))])
    for _ in range(draw(st.integers(0, order))):
        num = np.polymul(num, [1.0, 2.0 * math.pi * math.exp(draw(log_corner))])
    return ContinuousTransferFunction.from_descending(num.tolist(), den.tolist())


stable_designs = stable_transfer_functions().map(lambda tf: tustin_horner(tf, RATE))


@settings(deadline=None)
@given(stable_designs)
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


def polynomial_route(tf, rate):
    """tustin_horner as one Polynomial object per step: the oracle that the
    stepwise route on one coefficient list must equal bit for bit."""

    def shift(p, c):
        n = p.declared_order
        w = list(p.descending())
        for k in range(n):
            for j in range(1, n + 1 - k):
                w[j] += c * w[j - 1]
        return Polynomial(tuple(reversed(w)))

    def scale(p, c):
        out, factor = [], 1.0
        for v in p.coeffs:
            out.append(v * factor)
            factor *= c
        return Polynomial(tuple(out))

    def substitute(d, two_fl):
        coeffs, power = [], 1.0
        for c in d:
            coeffs.append(c / power)
            power *= two_fl
        q = shift(Polynomial(tuple(coeffs)), 1.0)
        q = Polynomial(tuple(reversed(q.coeffs)))
        return shift(scale(q, 0.5), -1.0)

    n = tf.order
    num_z = substitute(((0.0,) * n + tf.numerator.descending())[-(n + 1):], 2.0 * rate)
    den_z = substitute(tf.denominator.descending(), 2.0 * rate)
    return normalize(num_z.descending(), den_z.descending(), rate)


def roots_radii(coeffs):
    b = np.array(coeffs.b_hat)
    return tuple(sorted(abs(np.roots([1, *(-b)])), reverse=True))


loop_rates = st.floats(math.log(1e-3), math.log(1e6)).map(math.exp)


# Stable H(s) of orders 0-12 stay stable at every rate; the corners are
# placed for 1 kHz, so the drawn rates also put them far above and below
# Nyquist.  Pinned: a pure gain (order 0), pid's integrator on z = 1, and
# poles at s = -2*f_l, which map onto z = 0 as trailing zeros of b_hat.
@settings(deadline=None)
@given(placed_transfer_functions(), loop_rates)
@example(ContinuousTransferFunction.from_descending([3.0], [2.0]), 1000.0)
@example(catalog.pid(1.0, 3.0, 0.5, 300.0), 1000.0)
@example(ContinuousTransferFunction.from_descending([1.0], [1.0, 2000.0]), 1000.0)
@example(ContinuousTransferFunction.from_descending(
    [1.0], np.poly([-2000.0, -1955.0, -2068.0]).tolist()), 1000.0)
def test_list_route_and_pole_radii_match_their_oracles_bitwise(tf, rate):
    got = tustin_horner(tf, rate)
    want = polynomial_route(tf, rate)
    assert bits(got.a_hat) == bits(want.a_hat)
    assert bits(got.b_hat) == bits(want.b_hat)
    assert bits(pole_radii(got)) == bits(roots_radii(got))


# ------------------------------------------------- chirp spectral ratio


@st.composite
def chirp_measurements(draw):
    # from one octave up to 0.45 * RATE
    fmin = math.exp(draw(st.floats(math.log(0.2), math.log(4.0))))
    fmax = fmin * 2.0 ** draw(st.floats(1.0, math.log2(0.45 * RATE / fmin)))
    kind = draw(st.sampled_from(["linear", "exponential"]))
    amplitude = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
    duration = draw(st.integers(500, 4000)) / RATE
    return ChirpSpec(kind, 2.0 * math.pi * fmin, 2.0 * math.pi * fmax, duration,
                     amplitude, RATE)


@st.composite
def pid_designs(draw, rates=st.just(RATE)):
    # kp and ki log-uniform on 0.01-100, tau on 1-1000 rad/s: the integrator
    # at z = 1, the derivative pole at 1 kHz anywhere from 0.999 to -0.33
    kp, ki = (10.0 ** draw(st.floats(-2.0, 2.0)) for _ in range(2))
    tau = 10.0 ** draw(st.floats(0.0, 3.0))
    return tustin_horner(catalog.pid(kp, ki, draw(st.floats(0.0, 1.0)), tau), draw(rates))


# The ratio of spectra is exact up to the impulse-response tail left past
# N samples (SETTLE_TAIL_RTOL of its total) and rounding: every point lies
# within 1e-9 of the largest |H| on the grid.  A pid's sweep runs the
# design with its integrator divided out, and the ratio is divided by
# 1 - e^-jw: 990 random pids with these sweeps came within 1.1e-10.
CHIRP_RTOL = 1e-9


@settings(deadline=None, max_examples=50)
@given(st.one_of(stable_designs, pid_designs()), chirp_measurements())
def test_chirp_bode_matches_bode_digital(coeffs, spec):
    fmin, fmax = spec.omega_min / (2.0 * math.pi), spec.omega_max / (2.0 * math.pi)
    try:
        points = chirp_bode(coeffs, spec)
    except ValueError as exc:
        # A band too narrow for the padded length: the refusal must name
        # that length and the count of the documented bins, under two.
        m = re.fullmatch(
            rf"sweep of {re.escape(repr(spec.duration_s))} s is too short: zero-padded "
            rf"to (\d+) samples, it puts (\d+) DFT bins inside "
            rf"{re.escape(f'{fmin:.9g}-{fmax:.9g}')} Hz, fewer than 2", str(exc))
        assert m is not None, str(exc)
        n, count = int(m[1]), int(m[2])
        assert n & (n - 1) == 0 and n >= round(spec.duration_s * RATE)
        step = RATE / n
        bins = np.unique(np.rint(np.geomspace(fmin, fmax, analysis.CHIRP_POINTS) / step))
        assert count == np.count_nonzero((bins * step > fmin) & (bins * step < fmax)) < 2
        return
    freqs = np.array([p.freq_hz for p in points])
    assert freqs.size >= 2 and np.all(np.diff(freqs) > 0.0)
    assert fmin < freqs[0] and freqs[-1] < fmax
    got = np.array([
        10.0 ** (p.magnitude_db / 20.0) * cmath.exp(1j * math.radians(p.phase_deg))
        for p in points
    ])
    want = np.array([
        10.0 ** (p.magnitude_db / 20.0) * cmath.exp(1j * math.radians(p.phase_deg))
        for p in bode_digital(coeffs, freqs)
    ])
    assert np.all(np.abs(got - want) <= CHIRP_RTOL * np.abs(want).max())


def fit_quadrature_windows(sin_ref, cos_ref, u, edges):
    # The multi-window least-squares fit, the reference that the one-window
    # analysis._fit_quadrature must match bit for bit at edges [0].
    terms = np.stack([sin_ref * sin_ref, cos_ref * cos_ref, sin_ref * cos_ref,
                      u * sin_ref, u * cos_ref])
    sss, scc, ssc, us, uc = np.add.reduceat(terms, edges, axis=1)[:, ::2]
    det = sss * scc - ssc * ssc
    if np.any(det <= 0.0):
        raise ValueError("degenerate demodulation window")
    fit = np.empty(det.shape, dtype=complex)
    fit.real = (scc * us - ssc * uc) / det
    fit.imag = (sss * uc - ssc * us) / det
    return fit


@settings(deadline=None, max_examples=20)
@given(st.integers(10, 10**6), st.integers(0, 2**32 - 1))
def test_fit_reduces_each_product_as_the_stacked_fit_does_bitwise(length, seed):
    # _fit_quadrature never stacks its five products; each row's sum must
    # still equal the stacked reduceat's, bit for bit.
    rng = np.random.default_rng(seed)
    phase = np.cumsum(rng.uniform(0.0, 0.5, length))
    sin_ref, cos_ref = np.sin(phase), np.cos(phase)
    p, q = rng.uniform(-2.0, 2.0, 2)
    u = p * sin_ref + q * cos_ref + rng.normal(0.0, 1e-3, length)
    got = analysis._fit_quadrature(sin_ref, cos_ref, u)
    want = fit_quadrature_windows(sin_ref, cos_ref, u, [0])[0]
    assert struct.pack("<2d", got.real, got.imag) == struct.pack("<2d", want.real, want.imag)


@settings(deadline=None, max_examples=25)
@given(stable_designs, st.lists(
    st.floats(0.1, STEPPED_SINE_MAX_FREQ_FRACTION * RATE, exclude_max=True),
    min_size=1, max_size=4,
))
def test_stepped_fit_is_the_multi_window_fit_bitwise(coeffs, grid):
    got = stepped_sine_bode(coeffs, grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_fit_quadrature",
                   lambda s, c, u: fit_quadrature_windows(s, c, u, [0])[0])
        want = stepped_sine_bode(coeffs, grid)
    assert point_bits(got) == point_bits(want)


def complex_response(curve):
    t = curve.table
    return 10.0 ** (t[:, 1] / 20.0) * np.exp(1j * np.radians(t[:, 2]))


# A pid's probe runs the design with its integrator divided out, settled as
# any other, and the fit is divided by 1 - e^-jw.  1,000 random draws of
# these pids and grids (0.1-449 Hz) came within 4.2e-11 of the largest |H|
# on the grid.
STEPPED_PID_RTOL = 1e-9


@settings(deadline=None, max_examples=25)
@given(pid_designs(), st.lists(
    st.floats(0.1, STEPPED_SINE_MAX_FREQ_FRACTION * RATE, exclude_max=True),
    min_size=1, max_size=4,
))
def test_stepped_bode_of_a_pid_matches_bode_digital(coeffs, grid):
    got, want = (complex_response(c) for c in (stepped_sine_bode(coeffs, grid),
                                               bode_digital(coeffs, grid)))
    assert np.all(np.abs(got - want) <= STEPPED_PID_RTOL * np.abs(want).max())


@st.composite
def pids_at_any_rate_and_grids(draw):
    # rates log-uniform on 100 Hz-100 kHz, probes log-uniform on
    # 1e-5-0.45 of the rate, so no probe runs past a few 1e5 samples
    # beyond its settle
    coeffs = draw(pid_designs(st.floats(2.0, 5.0).map(lambda e: 10.0**e)))
    rate = coeffs.loop_rate_hz
    top = STEPPED_SINE_MAX_FREQ_FRACTION * rate
    probe = st.floats(math.log10(1e-5 * rate), math.log10(top)).map(lambda e: 10.0**e)
    return coeffs, draw(st.lists(probe.filter(lambda f: f < top), min_size=1, max_size=4))


# 300 draws of these pids and grids came within 2.5e-8 of the largest |H|
# on the grid, and 300 with probes down to 0.1 Hz within 1.2e-7.
# The largest errors sit at the lowest probes of pids whose derivative
# pole lies near the unit circle: 1e-6 leaves a margin over that tail.
STEPPED_PID_ANY_RATE_RTOL = 1e-6


@settings(deadline=None, max_examples=25)
@given(pids_at_any_rate_and_grids())
# the quotient's derivative pole at radius 0.99985
@example((tustin_horner(catalog.pid(62.0, 1.96, 0.27, 10.5), 71799.0), [0.75, 3.0, 30.0]))
def test_stepped_bode_of_a_pid_at_any_rate_matches_bode_digital(case):
    coeffs, grid = case
    try:
        curve = stepped_sine_bode(coeffs, grid)
    except ValueError as exc:
        # a derivative pole too slow to settle within SETTLE_MAX_SAMPLES
        assert str(exc).startswith("stepped bode: the impulse response outlasts ")
        return
    got, want = complex_response(curve), complex_response(bode_digital(coeffs, grid))
    assert np.all(np.abs(got - want) <= STEPPED_PID_ANY_RATE_RTOL * np.abs(want).max())


# ------------------------------------------------------ a pole at z = 1


def roots_split_pole_at_one(coeffs):
    # The rule before it shared pole_radii's eigen-solve: np.roots' pole
    # nearest 1 decides, and the running sums of D(z) are D(z) / (z - 1).
    den = [1.0, *(-b for b in coeffs.b_hat)]
    if not np.abs(np.roots(den) - 1.0).min(initial=np.inf) <= UNIT_CIRCLE_MARGIN:
        return coeffs.b_hat, False
    return (*-np.cumsum(den)[1:-1], 0.0), True


@st.composite
def stable_designs_to_order_8(draw):
    den = placed_roots(draw, draw(st.integers(1, 8)), np.array([1.0]))
    return tustin_horner(ContinuousTransferFunction.from_descending([1.0], den.tolist()), RATE)


def butterworth4(corner_hz):
    w = 2.0 * math.pi * corner_hz
    poles = w * np.exp(1j * math.pi * np.arange(5, 12, 2) / 8.0)
    return ContinuousTransferFunction.from_descending([w**4], np.poly(poles).real.tolist())


# The @examples: D(1) near zero with no pole near z = 1 (a repeated pole,
# a 1 Hz Butterworth-4), and pids at 100 Hz-100 kHz, the last with its
# integrator 8.1e-12 from z = 1.
@settings(deadline=None)
@given(st.one_of(pid_designs(st.floats(1.0, 5.0).map(lambda e: 10.0**e)),
                 stable_designs_to_order_8()))
@example(tustin_horner(ContinuousTransferFunction.from_descending(
    [1296.0], np.poly([-6.0] * 4).tolist()), RATE))
@example(tustin_horner(butterworth4(1.0), RATE))
@example(tustin_horner(catalog.pid(1.0, 3.0, 0.5, 300.0), 100.0))
@example(tustin_horner(catalog.pid(1.0, 3.0, 0.5, 300.0), RATE))
@example(tustin_horner(catalog.pid(1.0, 3.0, 0.5, 300.0), 1e5))
@example(tustin_horner(catalog.pid(2.0, 0.01, 0.0, 1.0), 1e5))
def test_the_pole_at_z_1_split_is_the_np_roots_rule_bitwise(coeffs):
    got, found = _split_pole_at_one(coeffs)
    want_b_hat, want_found = roots_split_pole_at_one(coeffs)
    assert found is want_found
    assert bits(got.b_hat) == bits(want_b_hat)
    assert (got.a_hat, got.loop_rate_hz) == (coeffs.a_hat, coeffs.loop_rate_hz)


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


def high_order_run(order, heuristic):
    # A run like filter_runs' at an order it does not draw.
    rng = np.random.default_rng(order)
    bound = 0.99 / order
    coeffs = DigitalFilterCoefficients(
        rng.uniform(-10.0, 10.0, order + 1), rng.uniform(-bound, bound, order), 1000.0)
    xs = rng.uniform(-1e3, 1e3, 200).tolist()
    xs[50:54] = [1e-310, -5e-324, sys.float_info.min, -0.0]
    return coeffs, xs, heuristic, 120


# The parser's largest power of s, a design only the fold runs, and one
# whose sum has too many terms for a single expression to compile.
@settings(deadline=None)
@given(filter_runs())
@example(high_order_run(MAX_EXPONENT, True))
@example(high_order_run(MAX_EXPONENT, False))
@example(high_order_run(BLOCK_LEN + 1, True))
@example(high_order_run(BLOCK_LEN + 1, False))
@example(high_order_run(4096, True))
@example(high_order_run(4096, False))
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
    stable_designs,
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


# --------------------------------------------------------- response points


@dataclass(frozen=True)
class DataclassPoint:
    # A response point as a frozen dataclass, built and read field by field.
    freq_hz: float
    magnitude_db: float
    phase_deg: float


def dataclass_points(freqs_hz, response):
    h = np.asarray(response, dtype=complex)
    with np.errstate(divide="ignore"):
        mag_db = 20.0 * np.log10(np.abs(h))
    phase_deg = np.degrees(np.unwrap(np.angle(h)))
    freqs = np.asarray(freqs_hz, dtype=float).tolist()
    return [
        DataclassPoint(f, m, p)
        for f, m, p in zip(freqs, mag_db.tolist(), phase_deg.tolist())
    ]


def dataclass_write_bode_csv(points, fh):
    write_csv(fh, BODE_CSV_HEADER, [
        [p.freq_hz for p in points],
        np.maximum([p.magnitude_db for p in points], MAGNITUDE_DB_FLOOR),
        [p.phase_deg for p in points],
    ])


def dataclass_read_bode_csv(fh):
    return [DataclassPoint(*row) for row in read_csv(fh, BODE_CSV_HEADER).tolist()]


def point_bits(points):
    # Every field as its float64 bytes; a numpy scalar would pack too, so
    # the fields' type is checked as well.
    fields = [(p.freq_hz, p.magnitude_db, p.phase_deg) for p in points]
    assert all(type(v) is float for row in fields for v in row)
    return [struct.pack("<3d", *row) for row in fields]


def curve_or_error(make):
    try:
        return make()
    except ValueError as e:
        return type(e), str(e)


response_grids = st.lists(
    st.floats(0.1, STEPPED_SINE_MAX_FREQ_FRACTION * RATE, exclude_max=True), max_size=40
)


@settings(deadline=None, max_examples=40)
@given(stable_transfer_functions(), response_grids, chirp_measurements())
@example(  # a transmission zero at 50 Hz: -inf dB in memory, the floor in files
    catalog.notch(2.0 * math.pi * 50.0, 5.0), [10.0, 50.0, 200.0],
    ChirpSpec("exponential", 2.0 * math.pi * 0.5, 2.0 * math.pi * 400.0, 2.0, 1.0, RATE),
)
def test_curves_and_files_are_the_dataclass_route_bitwise(tf, grid, spec):
    coeffs = tustin_horner(tf, RATE)
    curves = {
        "continuous": lambda: bode_continuous(tf, grid),
        "digital": lambda: bode_digital(coeffs, grid),
        "stepped": lambda: stepped_sine_bode(coeffs, grid[:3]),
        "chirp": lambda: chirp_bode(coeffs, spec),
    }
    for name, make in curves.items():
        got = curve_or_error(make)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_to_points", dataclass_points)
            want = curve_or_error(make)
        if isinstance(want, tuple):
            assert got == want, name
            continue
        assert all(type(p) is FrequencyResponsePoint for p in got), name
        assert point_bits(got) == point_bits(want), name
        got_file, want_file = io.StringIO(), io.StringIO()
        write_bode_csv(got, got_file)
        dataclass_write_bode_csv(want, want_file)
        assert got_file.getvalue() == want_file.getvalue(), name
        # a curve's table and a list of its points are one file and one comparison
        listed_file = io.StringIO()
        write_bode_csv(list(got), listed_file)
        assert listed_file.getvalue() == got_file.getvalue(), name
        if len(got):
            assert curve_or_error(lambda: compare_responses(got, got)) == curve_or_error(
                lambda: compare_responses(list(got), list(got))), name
        back = read_bode_csv(io.StringIO(got_file.getvalue()))
        want_back = dataclass_read_bode_csv(io.StringIO(want_file.getvalue()))
        assert point_bits(back) == point_bits(want_back), name


# Runs of phases: single values, nan, +-inf and -0.0 among them, and pairs
# a step apart.  From an anchor j/8 in [-6/8, 6/8], a step of +-pi lands
# exactly, so the pair's difference is +-pi itself, where np.unwrap keeps
# the sign of the step; steps of 2 pi k wrap to about 0.
phase_steps = st.sampled_from([math.pi, -math.pi]) | st.integers(-4, 4).map(
    lambda k: 2.0 * math.pi * k)
phase_values = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
phase_pairs = st.tuples(st.integers(-6, 6).map(lambda j: j / 8.0), phase_steps).map(
    lambda a: [a[0], a[0] + a[1]])
phase_runs = st.lists(phase_values.map(lambda v: [v]) | phase_pairs, max_size=20).map(
    lambda parts: np.array([v for part in parts for v in part], dtype=float))


@given(phase_runs)
@example(np.array([]))
@example(np.array([-0.0]))
@example(np.array([0.0, math.pi, 0.0, -math.pi, -0.0]))
@example(np.array([math.pi, 2.0 * math.pi, math.nan, 1.0, math.inf, -math.inf, -0.0]))
@example(np.array([0.0] * 8 + [math.inf, math.nan]))
# the first jump late in a long run, a jump between the first two values,
# and an inf and a nan jump after finite ones
@example(np.array([0.1 * k for k in range(40)] + [-0.0, 0.5]))
@example(np.array([-0.0, 4.0, 4.5, -5.0]))
@example(np.array([0.0, 4.0, 8.0, 12.0, math.inf, 1.0, math.nan, 2.0, -math.inf]))
# a difference that overflows to -inf
@example(np.array([1e308, -1e308]))
def test_unwrap_is_numpys_bitwise(p):
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = analysis._unwrap(p), np.unwrap(p)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, p)


# ------------------------------------------------------ analytic evaluators


def polyval_table(freqs_hz, h):
    # The curve table as numpy writes it: the steps of the evaluators'
    # first vectorized form, on numpy's own angle and unwrap.
    table = np.empty((len(h), 3))
    table[:, 0] = freqs_hz
    with np.errstate(divide="ignore"):
        table[:, 1] = 20.0 * np.log10(np.abs(h))
    table[:, 2] = np.degrees(np.unwrap(np.angle(h)))
    return table


@st.composite
def evaluator_cases(draw):
    # H(s) of orders 0-12, its design, and an unsorted grid below Nyquist
    # that repeats one frequency.  A zero of either sign may lead both
    # numerators, where polyval's first product meets it (prepended to
    # H(s) where its order allows, on z^-n of the design), or be all of
    # them, where its sign reaches the phase.
    tf = draw(placed_transfer_functions())
    coeffs = tustin_horner(tf, RATE)
    num, den = tf.numerator.descending(), tf.denominator.descending()
    zero = draw(st.sampled_from([0.0, -0.0]))
    where = draw(st.sampled_from(["nowhere", "leading", "everywhere"]))
    if where == "leading":
        if len(num) < len(den):
            tf = ContinuousTransferFunction.from_descending([zero, *num], den)
        coeffs = DigitalFilterCoefficients((*coeffs.a_hat[:-1], zero), coeffs.b_hat, RATE)
    elif where == "everywhere":
        tf = ContinuousTransferFunction.from_descending([zero] * len(num), den)
        coeffs = DigitalFilterCoefficients((zero,) * len(coeffs.a_hat), coeffs.b_hat, RATE)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([1, 2, 3, 7, 17, 1000]))
    grid = np.exp(rng.uniform(math.log(1e-2), math.log(0.4999 * RATE), size))
    grid[rng.integers(size)] = grid[0]
    return tf, coeffs, grid


@settings(deadline=None)
@given(evaluator_cases())
def test_analytic_curves_are_the_polyval_ratio_bitwise(case):
    tf, coeffs, grid = case
    w = 2.0 * math.pi * grid
    s = 1j * w
    zinv = np.exp(-1j * w / RATE)
    num, den = tf.numerator.descending(), tf.denominator.descending()
    dden = [-b for b in reversed(coeffs.b_hat)] + [1.0]
    want_c = polyval_table(grid, np.polyval(num, s) / np.polyval(den, s))
    want_d = polyval_table(grid, np.polyval(coeffs.a_hat[::-1], zinv) / np.polyval(dden, zinv))
    assert bode_continuous(tf, grid).table.tobytes() == want_c.tobytes()
    assert bode_digital(coeffs, grid).table.tobytes() == want_d.tobytes()
    assert bode_digital(coeffs, grid.tolist()).table.tobytes() == want_d.tobytes()


finite_points = st.builds(FrequencyResponsePoint, finite_coeffs, finite_coeffs, finite_coeffs)


@given(st.lists(finite_points, max_size=20))
def test_a_point_is_the_tuple_of_its_fields(curve):
    # It equals and hashes as the plain tuple, as the frozen dataclass hashed.
    for p in curve:
        fields = (p.freq_hz, p.magnitude_db, p.phase_deg)
        assert p == fields and tuple(p) == fields
        assert hash(p) == hash(fields) == hash(DataclassPoint(*fields))
        with pytest.raises(AttributeError):
            p.freq_hz = 1.0
