"""Difference-equation runtime: tick semantics, startup, state hygiene, and
the block kernel against the fold of ticks."""

import math
import random
import sys

import numpy as np
import pytest

from tustin.discretize import (
    ContinuousTransferFunction,
    DigitalFilterCoefficients,
    tustin_horner,
)
from tustin import catalog, runtime
from tustin.runtime import (
    BLOCK_LEN,
    DigitalFilter,
    RateMismatchError,
    filter_series,
    process,
)
from tustin.signals import TimeSeries, generate_sine

LP_COEFFS = tustin_horner(
    ContinuousTransferFunction.from_descending([1.0], [10.0, 1.0]), 0.1
)
BUTTER = tustin_horner(catalog.butterworth2(2.0 * math.pi * 10.0), 1000.0)
IDENTITY = DigitalFilterCoefficients((1.0,), (), 1000.0)


def test_lowpass_hand_ticks():
    # with all-1/3 coefficients and histories preloaded to the first input:
    # 5 -> (5+5)/3 + 5/3 = 5, then 8 -> (8+5)/3 + 5/3 = 6
    f = DigitalFilter(LP_COEFFS)
    assert f.tick(5.0) == pytest.approx(5.0, abs=1e-12)
    assert f.tick(8.0) == pytest.approx(6.0, abs=1e-12)
    assert f.x_hist == pytest.approx([8.0, 5.0])
    assert f.y_hist == pytest.approx([6.0])


def test_identity_filter_passes_through():
    f = DigitalFilter(IDENTITY)
    for v in (0.0, 1.5, -3.25, 1e6):
        assert f.tick(v) == v


def test_startup_heuristic_holds_constants():
    # a unity-DC filter must emit the constant from the very first tick
    f = DigitalFilter(BUTTER)
    outs = [f.tick(5.0) for _ in range(2000)]
    assert max(abs(v - 5.0) for v in outs) < 1e-11


def test_without_heuristic_startup_transient_is_large():
    f = DigitalFilter(BUTTER, use_startup_heuristic=False)
    first = f.tick(5.0)
    # first output is a_hat[0]*5, nowhere near 5
    assert abs(first - 5.0) > 0.5
    assert first == pytest.approx(BUTTER.a_hat[0] * 5.0, rel=1e-12)


def test_heuristic_is_neutral_when_first_input_is_zero():
    fa = DigitalFilter(BUTTER, use_startup_heuristic=True)
    fb = DigitalFilter(BUTTER, use_startup_heuristic=False)
    rng = random.Random(31)
    xs = [0.0] + [rng.uniform(-1.0, 1.0) for _ in range(200)]
    for x in xs:
        assert fa.tick(x) == pytest.approx(fb.tick(x), abs=1e-12)


def test_step_response_settles_to_dc_gain():
    f = DigitalFilter(BUTTER, use_startup_heuristic=False)
    y = 0.0
    for _ in range(3000):
        y = f.tick(1.0)
    assert y == pytest.approx(1.0, abs=1e-6)


def test_linearity():
    rng = random.Random(32)
    xs = np.array([rng.uniform(-2.0, 2.0) for _ in range(400)])
    zs = np.array([rng.uniform(-2.0, 2.0) for _ in range(400)])
    a, b = 1.7, -0.4

    def run(v):
        return process(BUTTER, TimeSeries(1000.0, v), use_startup_heuristic=False)

    lhs = run(a * xs + b * zs).samples
    rhs = a * run(xs).samples + b * run(zs).samples
    assert np.abs(lhs - rhs).max() < 1e-9


def test_time_invariance():
    rng = random.Random(33)
    xs = [rng.uniform(-1.0, 1.0) for _ in range(300)]
    shift = 7
    plain = process(BUTTER, TimeSeries(1000.0, xs), use_startup_heuristic=False)
    delayed = process(
        BUTTER, TimeSeries(1000.0, [0.0] * shift + xs), use_startup_heuristic=False
    )
    assert np.abs(delayed.samples[shift:] - plain.samples).max() < 1e-9


def test_nan_input_rejected_before_state_changes():
    f = DigitalFilter(LP_COEFFS)
    f.tick(5.0)
    x_before, y_before = f.x_hist, f.y_hist
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            f.tick(bad)
    assert f.x_hist == x_before
    assert f.y_hist == y_before
    # the stream continues as if the bad samples never arrived
    assert f.tick(8.0) == pytest.approx(6.0, abs=1e-12)


def test_denormal_inputs_are_flushed_to_zero():
    f = DigitalFilter(IDENTITY)
    tiny = sys.float_info.min / 4.0
    assert f.tick(tiny) == 0.0
    assert f.tick(-tiny) == 0.0
    assert f.tick(sys.float_info.min) == sys.float_info.min


def test_reset_rearms_heuristic_and_zeroes_state():
    f = DigitalFilter(LP_COEFFS)
    seq = [5.0, 8.0, -2.0]
    first = [f.tick(v) for v in seq]
    f.reset()
    assert f.first_tick
    assert f.x_hist == (0.0, 0.0)
    assert f.y_hist == (0.0,)
    assert [f.tick(v) for v in seq] == first


def test_process_checks_rate():
    series = generate_sine(10.0, 1.0, 0.0, 0.1, 999.0)
    with pytest.raises(RateMismatchError):
        process(BUTTER, series)
    # a rate inside the tolerance band is accepted
    near = TimeSeries(1000.0 * (1.0 + 1e-10), [0.0, 1.0, 0.0])
    process(BUTTER, near)


def test_process_matches_manual_ticks():
    series = generate_sine(25.0, 1.0, 0.0, 0.05, 1000.0)
    out = process(BUTTER, series)
    f = DigitalFilter(BUTTER)
    manual = [f.tick(v) for v in series.samples]
    assert out.samples == pytest.approx(manual, abs=0.0)
    assert out.sample_rate == series.sample_rate
    assert len(out) == len(series)


class NaiveFilter:
    """Reference implementation with explicit list shifting."""

    def __init__(self, coeffs, heuristic=True):
        self.a = list(coeffs.a_hat)
        self.b = list(coeffs.b_hat)
        self.x = [0.0] * len(self.a)
        self.y = [0.0] * len(self.b)
        self.heuristic = heuristic
        self.first = True

    def tick(self, x0):
        if self.first:
            self.first = False
            if self.heuristic:
                self.x = [x0] * len(self.x)
                self.y = [x0] * len(self.y)
        self.x = [x0] + self.x[:-1]
        y0 = sum(ak * xk for ak, xk in zip(self.a, self.x))
        y0 += sum(bk * yk for bk, yk in zip(self.b, self.y))
        if self.y:
            self.y = [y0] + self.y[:-1]
        return y0


@pytest.mark.parametrize("heuristic", [True, False])
def test_ring_buffer_matches_naive_shift_register(heuristic):
    rng = random.Random(34)
    for _ in range(20):
        n = rng.randint(0, 5)
        a = tuple(rng.uniform(-1.0, 1.0) for _ in range(n + 1))
        b = tuple(rng.uniform(-0.3, 0.3) for _ in range(n))  # keep it stable
        coeffs = DigitalFilterCoefficients(a, b, 100.0)
        fast = DigitalFilter(coeffs, use_startup_heuristic=heuristic)
        slow = NaiveFilter(coeffs, heuristic=heuristic)
        for _ in range(200):
            x = rng.uniform(-10.0, 10.0)
            got = fast.tick(x)
            want = slow.tick(x)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("coeffs, index, radius", [
    # y = 1.5 y_prev + x overflows float64 after ~1691 ticks of 1e10
    (DigitalFilterCoefficients((1.0, 0.0), (1.5,), 1000.0), 1691, "1.5"),
    # order 0 has no poles; the very first product overflows
    (DigitalFilterCoefficients((1e300,), (), 1000.0), 0, "0"),
])
def test_process_names_the_first_non_finite_output(coeffs, index, radius):
    series = TimeSeries(1000.0, np.full(5000, 1e10))
    with pytest.raises(ValueError) as info:
        process(coeffs, series)
    assert str(info.value) == (
        f"filter output is not finite from sample {index} on; "
        f"largest z-pole radius {radius}"
    )


def test_process_stops_ticking_at_the_first_non_finite_output(monkeypatch):
    calls = []
    tick = DigitalFilter.tick

    def counting_tick(self, x0):
        calls.append(x0)
        return tick(self, x0)

    monkeypatch.setattr(DigitalFilter, "tick", counting_tick)
    coeffs = DigitalFilterCoefficients((1.0, 0.0), (1.5,), 1000.0)
    with pytest.raises(ValueError, match="from sample 1691 on"):
        process(coeffs, TimeSeries(1000.0, np.full(5000, 1e10)))
    assert len(calls) == 1692


def test_coeffs_are_read_only():
    f = DigitalFilter(BUTTER)
    with pytest.raises(AttributeError):
        f.coeffs = IDENTITY
    assert f.coeffs is BUTTER


# ------------------------------------------------------------ block kernel


def butterworth(order, corner_hz):
    # w^n / prod(s - p_k), the poles evenly spaced on the left half circle
    w = 2.0 * math.pi * corner_hz
    k = np.arange(order)
    den = np.real(np.poly(w * np.exp(1j * np.pi * (2 * k + order + 1) / (2 * order))))
    return ContinuousTransferFunction.from_descending([den[-1]], den.tolist())


@pytest.mark.parametrize("coeffs", [
    # poles inside the circle, but a direct form whose block products
    # would miss the fold by orders of magnitude: the rounding estimate is
    # far above the limit
    tustin_horner(butterworth(6, 5.0), 1000.0),
    # the integrator's pole sits on the unit circle
    tustin_horner(catalog.pid(2.0, 5.0, 0.1, 100.0), 1000.0),
    # order 0 carries no state
    IDENTITY,
    # a state longer than one block
    DigitalFilterCoefficients(
        tuple(np.linspace(1.0, 0.0, BLOCK_LEN + 2) / (BLOCK_LEN + 2)),
        (0.0,) * (BLOCK_LEN + 1), 1000.0,
    ),
], ids=["butterworth6-5Hz", "pid", "order0", "order-above-block"])
@pytest.mark.parametrize("heuristic", [True, False])
def test_filter_series_folds_where_blocks_cannot_be_trusted(coeffs, heuristic):
    rng = np.random.default_rng(35)
    series = TimeSeries(1000.0, rng.uniform(-1.0, 1.0, 5 * BLOCK_LEN + 3) + 2.0)
    got = filter_series(coeffs, series, heuristic)
    want = process(coeffs, series, heuristic)
    assert got.samples.tobytes() == want.samples.tobytes()


def _raised(fn, coeffs, series):
    with pytest.raises(ValueError) as info:
        fn(coeffs, series)
    return type(info.value), str(info.value)


def _with_nan():
    series = TimeSeries(1000.0, [1.0, 2.0, 3.0])
    # past TimeSeries' own finiteness check, as a foreign series could be
    object.__setattr__(series, "samples", np.array([1.0, float("nan"), 3.0]))
    return series


@pytest.mark.parametrize("coeffs, series, error, message", [
    (DigitalFilterCoefficients((1.0, 0.0), (1.5,), 1000.0),
     TimeSeries(1000.0, np.full(5000, 1e10)), ValueError,
     "not finite from sample 1691 on"),
    (BUTTER, TimeSeries(1000.0, np.full(500, 1e308)), ValueError,
     "not finite from sample 0 on"),
    (BUTTER, _with_nan(), ValueError, "filter input must be finite, got nan"),
    (BUTTER, generate_sine(10.0, 1.0, 0.0, 0.1, 999.0), RateMismatchError,
     "!= design rate"),
], ids=["diverges", "overflows", "nan-input", "rate"])
def test_filter_series_raises_what_process_raises(coeffs, series, error, message):
    raised = _raised(filter_series, coeffs, series)
    assert raised == _raised(process, coeffs, series)
    assert raised[0] is error and message in raised[1]


@pytest.mark.parametrize("coeffs", [
    BUTTER, tustin_horner(catalog.pid(2.0, 5.0, 0.1, 100.0), 1000.0),
], ids=["blocks", "fold"])
def test_filter_series_checks_the_rate_once(monkeypatch, coeffs):
    series = TimeSeries(1000.0, np.ones(300))
    calls = []
    check = runtime._check_rate
    monkeypatch.setattr(runtime, "_check_rate", lambda *a: calls.append(a) or check(*a))
    filter_series(coeffs, series)
    assert calls == [(coeffs, series)]


@pytest.mark.parametrize("coeffs, rtol", [
    (BUTTER, 1e-12),
    # n = 6: each block's window reaches six inputs back, over slice edges
    (tustin_horner(butterworth(6, 100.0), 1000.0), 1e-12),
    # pole radius 0.999686: an output history still weighs 0.7 eight blocks
    # on; the bound is the kernel property test's
    (tustin_horner(catalog.notch(2.0 * math.pi * 5.0, 50.0), 1000.0), 1e-10),
], ids=["butter2", "butterworth6-100Hz", "notch-5Hz-q50"])
@pytest.mark.parametrize("heuristic", [True, False], ids=["heuristic", "zero-start"])
def test_filter_series_carries_state_across_slices(monkeypatch, coeffs, rtol, heuristic):
    assert runtime._block_realization(coeffs) is not None
    series = generate_sine(3.0, 1.0, 0.5, 10 * BLOCK_LEN / 1000.0, 1000.0)
    want = process(coeffs, series, heuristic).samples
    whole = filter_series(coeffs, series, heuristic).samples
    monkeypatch.setattr(runtime, "SLICE_BLOCKS", 3)
    sliced = filter_series(coeffs, series, heuristic).samples
    for got in (whole, sliced):
        assert np.abs(got - want).max() <= rtol * np.abs(want).max()
