"""Frequency-response analysis: analytic curves, both measurement routes,
comparison, and the CSV contract."""

import copy
import io
import math
import pickle
import re
import struct

import numpy as np
import pytest

from tustin import analysis, catalog, runtime
from tustin.analysis import (
    BODE_CSV_HEADER,
    MAGNITUDE_DB_FLOOR,
    SETTLE_TAIL_RTOL,
    AboveNyquistError,
    DenominatorZeroError,
    DisjointRangesError,
    FrequencyResponsePoint,
    ResponseCurve,
    analytic_response_continuous,
    analytic_response_digital,
    bode_continuous,
    bode_digital,
    chirp_bode,
    compare_responses,
    read_bode_csv,
    stepped_sine_bode,
    write_bode_csv,
)
from tustin.discretize import (
    UNIT_CIRCLE_MARGIN,
    ContinuousTransferFunction,
    DigitalFilterCoefficients,
    _split_pole_at_one,
    pole_radii,
    tustin_horner,
)
from tustin.runtime import RateMismatchError, process
from tustin.signals import ChirpSpec, TimeSeries

TWO_PI = 2.0 * math.pi
RATE = 1000.0

BUTTER = tustin_horner(catalog.butterworth2(TWO_PI * 10.0), RATE)
LOWPASS = tustin_horner(catalog.lowpass1(TWO_PI * 10.0), RATE)
NOTCH = tustin_horner(catalog.notch(TWO_PI * 60.0, 5.0), RATE)
IDENTITY = DigitalFilterCoefficients((1.0,), (), RATE)


def chirp(fmin=0.1, fmax=100.0, duration=60.0, rate=RATE, amp=1.0, kind="exponential"):
    return ChirpSpec(kind, TWO_PI * fmin, TWO_PI * fmax, duration, amp, rate)


# ------------------------------------------------------- analytic curves


def test_continuous_lowpass_corner():
    t = catalog.lowpass1(2.0)
    h = analytic_response_continuous(t, 2.0)
    assert abs(h) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert math.degrees(math.atan2(h.imag, h.real)) == pytest.approx(-45.0, abs=1e-9)


def test_continuous_denominator_zero():
    t = ContinuousTransferFunction.from_descending([1.0], [1.0, 0.0, 4.0])
    with pytest.raises(DenominatorZeroError):
        analytic_response_continuous(t, 2.0)  # pole exactly at j*2


@pytest.mark.parametrize("omega", [0.0, -1.0, float("nan")])
def test_continuous_refuses_an_omega_that_is_not_positive_and_finite(omega):
    message = f"^omega must be positive and finite, got {omega!r}$"
    with pytest.raises(ValueError, match=message):
        analytic_response_continuous(catalog.lowpass1(2.0), omega)


def test_digital_identity_is_flat():
    for w in (0.01, 1.0, 100.0, 3000.0):
        assert analytic_response_digital(IDENTITY, w) == 1.0 + 0j


def test_digital_golden_point():
    # H_d(e^{jw dt}) for the all-1/3 first-order filter at 0.1 Hz loop rate
    coeffs = tustin_horner(
        ContinuousTransferFunction.from_descending([1.0], [10.0, 1.0]), 0.1
    )
    w = 0.05
    z = np.exp(1j * w / 0.1)
    want = ((1.0 + 1.0 / z) / 3.0) / (1.0 - (1.0 / 3.0) / z)
    got = analytic_response_digital(coeffs, w)
    assert got == pytest.approx(want, rel=1e-12)


def test_digital_rejects_at_and_above_nyquist():
    with pytest.raises(AboveNyquistError):
        analytic_response_digital(BUTTER, math.pi * RATE)
    with pytest.raises(AboveNyquistError):
        analytic_response_digital(BUTTER, math.pi * RATE * 1.5)
    # just below is fine
    analytic_response_digital(BUTTER, math.pi * RATE * 0.999)


def test_nyquist_refusals_name_the_first_omega_at_or_above_the_limit():
    nyquist = math.pi * RATE
    with pytest.raises(AboveNyquistError) as info:
        bode_digital(BUTTER, [100.0, 500.0, 600.0])
    assert str(info.value) == (
        f"omega = {TWO_PI * 500.0} rad/s is not below the Nyquist angular "
        f"frequency {nyquist} rad/s"
    )
    with pytest.raises(AboveNyquistError) as info:
        chirp_bode(LOWPASS, chirp(fmin=1.0, fmax=600.0, duration=20.0))
    assert str(info.value) == (
        f"sweep end omega = {TWO_PI * 600.0} rad/s is not below the Nyquist "
        f"angular frequency {nyquist} rad/s"
    )


@pytest.mark.parametrize("grid, shape", [([[1.0, 2.0]], (1, 2)), (5.0, ())],
                         ids=["two-dimensional", "scalar"])
def test_a_grid_that_is_not_one_dimensional_is_refused_naming_its_shape(grid, shape):
    for evaluate in (lambda: bode_continuous(catalog.lowpass1(1.0), grid),
                     lambda: bode_digital(BUTTER, grid),
                     lambda: stepped_sine_bode(BUTTER, grid)):
        with pytest.raises(ValueError) as info:
            evaluate()
        assert str(info.value) == (
            f"frequency grid must be one-dimensional, got shape {shape}"
        )


def random_stable_design(seed):
    # Orders 1-12: real poles and damped pairs at corners 0.5-400 Hz, and
    # up to as many real zeros as poles.
    rng = np.random.default_rng(seed)
    order = 1 + seed % 12
    poles = []
    while len(poles) < order:
        w = TWO_PI * math.exp(rng.uniform(math.log(0.5), math.log(400.0)))
        if order - len(poles) >= 2 and rng.random() < 0.5:
            zeta = rng.uniform(0.05, 1.0)
            p = complex(-zeta * w, w * math.sqrt(1.0 - zeta * zeta))
            poles += [p, p.conjugate()]
        else:
            poles.append(-w)
    nzeros = rng.integers(0, order + 1)
    zeros = -TWO_PI * np.exp(rng.uniform(math.log(0.5), math.log(400.0), nzeros))
    num = rng.uniform(0.1, 10.0) * np.atleast_1d(np.real(np.poly(zeros)))
    den = np.real(np.poly(poles))
    return ContinuousTransferFunction.from_descending(num.tolist(), den.tolist())


@pytest.mark.parametrize("tf", [
    catalog.lowpass1(TWO_PI * 10.0),
    catalog.butterworth2(TWO_PI * 10.0),
    catalog.notch(TWO_PI * 60.0, 5.0),
    catalog.pid(2.0, 1.0, 0.05, 0.001),
    catalog.leadlag(1.0, TWO_PI * 5.0, TWO_PI * 50.0),
    catalog.multiorder_example(),
    *[random_stable_design(seed) for seed in range(24)],
])
def test_analytic_responses_are_numpys_polyval_ratio_bitwise(tf):
    coeffs = tustin_horner(tf, RATE)
    w = TWO_PI * np.logspace(-2.0, math.log10(0.4999 * RATE), 500)
    s = 1j * w
    num, den = tf.numerator.descending(), tf.denominator.descending()
    want_c = np.polyval(num, s) / np.polyval(den, s)
    zinv = np.exp(-1j * w / RATE)
    dnum = coeffs.a_hat[::-1]
    dden = [-b for b in reversed(coeffs.b_hat)] + [1.0]
    want_d = np.polyval(dnum, zinv) / np.polyval(dden, zinv)
    got_c = np.array([analytic_response_continuous(tf, wk) for wk in w.tolist()])
    got_d = np.array([analytic_response_digital(coeffs, wk) for wk in w.tolist()])
    assert got_c.tobytes() == want_c.tobytes()
    assert got_d.tobytes() == want_d.tobytes()


def test_bode_point_lists():
    freqs = [1.0, 10.0, 100.0]
    pts = bode_continuous(catalog.butterworth2(TWO_PI * 10.0), freqs)
    assert [p.freq_hz for p in pts] == freqs
    assert pts[1].magnitude_db == pytest.approx(-3.0103, abs=1e-3)
    dpts = bode_digital(BUTTER, freqs)
    assert dpts[0].magnitude_db == pytest.approx(pts[0].magnitude_db, abs=1e-3)


def test_a_point_is_a_named_tuple_of_its_three_fields():
    # What consumers rely on: the names in this order, unpacking, and a
    # curve as its N x 3 array (equality and hashing: test_properties).
    assert FrequencyResponsePoint._fields == ("freq_hz", "magnitude_db", "phase_deg")
    pts = bode_digital(BUTTER, [1.0, 10.0])
    f, m, ph = pts[1]
    assert (f, m, ph) == (pts[1].freq_hz, pts[1].magnitude_db, pts[1].phase_deg)
    table = np.array(pts)
    assert table.shape == (2, 3)
    assert table.tolist() == [[p.freq_hz, p.magnitude_db, p.phase_deg] for p in pts]


def test_a_curve_indexes_slices_and_unpacks_as_its_list_of_points():
    curve = bode_digital(BUTTER, [1.0, 10.0, 100.0])
    points = list(curve)
    assert len(curve) == 3
    assert curve[0] == points[0] and curve[-1] == points[2] and curve[-3] == points[0]
    with pytest.raises(IndexError):
        curve[3]
    with pytest.raises(IndexError):
        curve[-4]
    tail = curve[1:]
    assert type(tail) is ResponseCurve and list(tail) == points[1:]
    assert list(curve[::-1]) == points[::-1]
    (only,) = curve[1:2]
    assert only == points[1]
    # every field a Python float, bitwise the table's
    assert all(type(v) is float for p in curve for v in p)
    assert [struct.pack("<3d", *p) for p in curve] == [row.tobytes() for row in curve.table]
    assert [struct.pack("<3d", *curve[i]) for i in range(3)] == [row.tobytes() for row in curve.table]


def test_curves_equal_as_tables_and_as_lists_of_points():
    nan = math.nan
    curve = ResponseCurve([[1.0, -0.0, 5.0], [2.0, 3.0, 4.0]])
    same = ResponseCurve([[1.0, 0.0, 5.0], [2.0, 3.0, 4.0]])
    points = [FrequencyResponsePoint(1.0, 0.0, 5.0), FrequencyResponsePoint(2.0, 3.0, 4.0)]
    assert curve == same and same == curve and not curve != same
    assert curve == points and points == curve and not curve != points and not points != curve
    assert curve != points[:1] and points[:1] != curve
    assert curve != same[:1] and curve != ResponseCurve(np.empty((0, 3)))
    assert ResponseCurve(np.empty((0, 3))) == []
    with_nan = ResponseCurve([[1.0, nan, 5.0]])
    assert with_nan != ResponseCurve([[1.0, nan, 5.0]])
    assert with_nan != [FrequencyResponsePoint(1.0, nan, 5.0)]
    assert [FrequencyResponsePoint(1.0, nan, 5.0)] != with_nan
    with pytest.raises(TypeError):
        hash(curve)


@pytest.mark.parametrize("other", [None, 1.0, "abc", b"abc"], ids=["none", "float", "str", "bytes"])
def test_a_curve_and_a_value_that_is_no_sequence_of_points_are_unequal(other):
    curve = ResponseCurve([[1.0, 0.0, 5.0]])
    assert curve.__eq__(other) is NotImplemented
    assert curve != other and other != curve


def test_a_curve_repr_shows_its_table():
    curve = ResponseCurve([[1.0, -3.0, 5.0]])
    assert repr(curve) == f"ResponseCurve({curve.table!r})"


def test_a_curve_is_read_only_and_its_array_is_a_writable_copy():
    curve = bode_digital(BUTTER, [1.0, 10.0])
    before = curve.table.copy()
    with pytest.raises(ValueError):
        curve.table[0, 0] = 5.0
    table = np.array(curve)
    assert table.flags.writeable and not np.shares_memory(table, curve.table)
    table[0, 0] = 5.0
    assert curve.table.tobytes() == before.tobytes()
    # numpy >= 2 asks for the table itself with copy=False; it is never
    # handed out (called directly: numpy 1's np.array(..., copy=False) differs)
    with pytest.raises(ValueError, match="read .table instead"):
        curve.__array__(copy=False)
    for back in (pickle.loads(pickle.dumps(curve)), copy.deepcopy(curve), copy.copy(curve)):
        assert type(back) is ResponseCurve and back == curve
        assert back.table.tobytes() == before.tobytes()
        with pytest.raises(ValueError):
            back.table[0, 0] = 5.0


@pytest.mark.parametrize("evaluate", [
    lambda grid: bode_continuous(catalog.butterworth2(TWO_PI * 10.0), grid),
    lambda grid: bode_digital(BUTTER, grid),
    lambda grid: stepped_sine_bode(BUTTER, grid),
], ids=["continuous", "digital", "stepped"])
def test_a_curve_shares_no_memory_with_its_grid(evaluate):
    # The evaluators hand their own fresh table to the curve, uncopied; the
    # grid passed in is only read, and the public constructor still copies.
    grid = np.array([1.0, 10.0, 100.0])
    curve = evaluate(grid)
    assert not curve.table.flags.writeable
    assert not np.shares_memory(curve.table, grid)
    before = curve.table.copy()
    grid[:] = 7.0
    assert curve.table.tobytes() == before.tobytes()
    rebuilt = ResponseCurve(curve.table)
    assert not np.shares_memory(rebuilt.table, curve.table)
    assert not rebuilt.table.flags.writeable and rebuilt == curve


@pytest.mark.parametrize("table", [np.zeros((1, 6)), np.zeros(6), np.zeros((2, 3, 1)), []],
                         ids=["1x6", "flat", "3-d", "empty list"])
def test_a_curve_is_built_only_from_an_n_by_3_table(table):
    with pytest.raises(ValueError) as info:
        ResponseCurve(table)
    assert str(info.value) == f"a response curve is an N x 3 table, got shape {np.shape(table)}"


def test_a_transmission_zero_is_minus_inf_in_memory_and_the_floor_in_files():
    (zero,) = bode_continuous(catalog.notch(TWO_PI * 50.0, 5.0), [50.0])
    assert zero.magnitude_db == -math.inf
    buf = io.StringIO()
    write_bode_csv([zero], buf)
    (back,) = read_bode_csv(io.StringIO(buf.getvalue()))
    assert back[:2] == (50.0, MAGNITUDE_DB_FLOOR)


def test_phase_is_unwrapped_along_grid():
    # third-order-ish phase sweep has to cross -180 without jumping back
    coeffs = tustin_horner(catalog.multiorder_example(), RATE)
    freqs = np.logspace(-1.0, 2.0, 200)
    pts = bode_digital(coeffs, freqs)
    ph = [p.phase_deg for p in pts]
    assert max(abs(a - b) for a, b in zip(ph, ph[1:])) < 180.0


# ------------------------------------------------------- stepped sine


def test_stepped_identity_is_exactly_flat():
    pts = stepped_sine_bode(IDENTITY, [1.0, 10.0, 100.0])
    for p in pts:
        assert p.magnitude_db == 0.0
        assert p.phase_deg == 0.0


def test_stepped_butterworth_half_power():
    pts = stepped_sine_bode(BUTTER, [10.0])
    assert pts[0].magnitude_db == pytest.approx(-3.01, abs=0.1)


def test_stepped_matches_analytic_digital():
    freqs = [2.0, 5.0, 10.0, 20.0, 50.0]
    measured = stepped_sine_bode(BUTTER, freqs)
    truth = bode_digital(BUTTER, freqs)
    for m, t in zip(measured, truth):
        assert m.magnitude_db == pytest.approx(t.magnitude_db, abs=1e-3)
        assert m.phase_deg == pytest.approx(t.phase_deg, abs=0.1)


def test_stepped_notch_depth():
    # the digital null sits at the prewarped image of the design frequency
    f_null = RATE / math.pi * math.atan(TWO_PI * 60.0 / (2.0 * RATE))
    pts = stepped_sine_bode(NOTCH, [30.0, f_null, 120.0])
    assert pts[0].magnitude_db > -1.0
    assert pts[1].magnitude_db < -40.0  # deep rejection at the null
    assert pts[2].magnitude_db > -1.0


DEFAULT_GRID = np.logspace(-1.0, 2.0, 40)


@pytest.mark.parametrize("tf, grid, max_db", [
    (catalog.butterworth2(TWO_PI * 12.3), DEFAULT_GRID, 1e-9),
    # pole radius 0.999686: 86,124 samples of settle
    (catalog.notch(TWO_PI * 5.0, 50.0), np.linspace(4.9, 5.2, 31), 1e-6),
    # a repeated pole, whose tail outlasts r**k
    (ContinuousTransferFunction.from_descending([1.0], np.poly([-6.0] * 4).tolist()),
     DEFAULT_GRID, 1e-4),
], ids=["butter2", "notch-q50", "repeated-pole"])
def test_stepped_default_settle_matches_analytic_digital(tf, grid, max_db):
    coeffs = tustin_horner(tf, RATE)
    pairs = zip(stepped_sine_bode(coeffs, grid), bode_digital(coeffs, grid))
    assert max(abs(m.magnitude_db - t.magnitude_db) for m, t in pairs) <= max_db


def assert_tail_falls_below_tolerance_at(coeffs, k):
    impulse = np.zeros(4 * k)
    impulse[0] = 1.0
    h = np.abs(process(coeffs, TimeSeries(coeffs.loop_rate_hz, impulse), False).samples)
    assert h[k:].sum() <= SETTLE_TAIL_RTOL * h.sum() < h[k - 1:].sum()


def test_settle_length_is_where_the_impulse_tail_falls_below_tolerance():
    coeffs = tustin_horner(catalog.butterworth2(TWO_PI * 12.3), RATE)
    quotient, found, k = analysis._settle(coeffs, "test")
    # no pole at z = 1: the design itself is the quotient
    assert quotient is coeffs and not found
    assert_tail_falls_below_tolerance_at(quotient, k)


REPEATED_POLE = ContinuousTransferFunction.from_descending(
    [1296.0], np.poly([-6.0] * 4).tolist()
)


def butterworth4(corner_hz):
    w = TWO_PI * corner_hz
    poles = w * np.exp(1j * math.pi * np.arange(5, 12, 2) / 8.0)
    return ContinuousTransferFunction.from_descending([w**4], np.poly(poles).real.tolist())


@pytest.mark.parametrize("tf, rate, integrator", [
    # D(1) = 1 - sum(b_hat) is near zero, but no pole is near z = 1
    (REPEATED_POLE, RATE, False),
    (butterworth4(1.0), RATE, False),
    (catalog.pid(1.0, 3.0, 0.5, 300.0), 100.0, True),
    (catalog.pid(1.0, 3.0, 0.5, 300.0), RATE, True),
    (catalog.pid(1.0, 3.0, 0.5, 300.0), 1e5, True),
    # the integrator 8.1e-12 from z = 1, the farthest of all pids checked
    (catalog.pid(2.0, 0.01, 0.0, 1.0), 1e5, True),
], ids=["repeated-pole", "butter4-1hz", "pid-100hz", "pid-1khz", "pid-100khz", "pid-slow-100khz"])
def test_a_pole_at_z_1_is_found_by_the_pole_itself(tf, rate, integrator):
    coeffs = tustin_horner(tf, rate)
    quotient, found, settle = analysis._settle(coeffs, "test")
    assert found is integrator
    if integrator:
        # on the unit circle, so only the quotient has a tail to measure
        assert pole_radii(coeffs)[0] >= 1.0 - UNIT_CIRCLE_MARGIN
        assert quotient == _split_pole_at_one(coeffs)[0]
        assert analysis._settle(quotient, "test") == (quotient, False, settle)
        # Q = (1 - z^-1) H, the factor the measured methods divide by
        omega = TWO_PI * rate * np.array([1e-3, 0.01, 0.1, 0.4])
        want = [(1.0 - np.exp(-1j * w / rate)) * analytic_response_digital(coeffs, w)
                for w in omega]
        got = [analytic_response_digital(quotient, w) for w in omega]
        assert got == pytest.approx(want, rel=1e-9)
    else:
        assert quotient is coeffs
        # the sum of the denominator's coefficients alone cannot tell
        assert abs(1.0 - sum(coeffs.b_hat)) < 2e-9
    assert_tail_falls_below_tolerance_at(quotient, settle)


def test_stepped_and_chirp_of_a_pid_never_run_the_per_sample_fold(monkeypatch):
    # The quotient has every pole inside the unit circle, so filter_series
    # runs it on the block kernel and never falls back to runtime.process.
    def fold(*args, **kwargs):
        raise AssertionError("runtime.process was called")

    monkeypatch.setattr(runtime, "process", fold)
    coeffs = tustin_horner(catalog.pid(1.0, 3.0, 0.5, 300.0), RATE)
    grid = np.logspace(-1.0, 2.0, 10)
    for curve in (stepped_sine_bode(coeffs, grid), chirp_bode(coeffs, chirp(duration=20.0))):
        got, want = curve.table, bode_digital(coeffs, curve.table[:, 0]).table
        assert np.abs(got[:, 1:] - want[:, 1:]).max() <= 1e-8


# A pole at z = -1 never settles, 1.5 is unstable, and of a double pole at
# z = 1 one is divided out.
UNSETTLED_POLES = [((-1.0,), 1.0), ((1.5,), 1.5), ((2.0, -1.0), 1.0)]


def unit_circle_refusal(method, radius):
    return (f"{method} bode: a z-pole other than one at z = 1 lies on or outside the "
            f"unit circle; the largest radius is {radius!r}")


@pytest.mark.parametrize("b_hat, radius", UNSETTLED_POLES)
def test_stepped_refuses_a_pole_on_or_outside_the_unit_circle(b_hat, radius):
    coeffs = DigitalFilterCoefficients((1.0,) + (0.0,) * len(b_hat), b_hat, RATE)
    with pytest.raises(ValueError) as info:
        stepped_sine_bode(coeffs, [1.0, 10.0])
    assert str(info.value) == unit_circle_refusal("stepped", radius)


def test_stepped_and_chirp_refuse_a_tail_that_outlasts_half_the_longest_run(monkeypatch):
    # every pole inside the circle, but the tail is still above tolerance
    # after the longest run
    notch = tustin_horner(catalog.notch(TWO_PI * 5.0, 50.0), RATE)
    radius = max(pole_radii(notch))
    assert radius < 1.0 - UNIT_CIRCLE_MARGIN
    monkeypatch.setattr(analysis, "SETTLE_MAX_SAMPLES", 4096)
    ending = f"the impulse response outlasts 2048 samples; the largest radius is {radius!r}"
    with pytest.raises(ValueError) as info:
        stepped_sine_bode(notch, [0.5, 5.0, 50.0])
    assert str(info.value) == "stepped bode: " + ending
    with pytest.raises(ValueError) as info:
        chirp_bode(notch, chirp(duration=10.0))
    assert str(info.value) == "chirp bode: " + ending


@pytest.mark.parametrize("tf", [
    catalog.pid(1.0, 3.0, 0.5, 300.0),
    catalog.pid(1.0, 2.0, 0.1, 200.0),
], ids=["pid-1-3-0.5-300", "pid-1-2-0.1-200"])
def test_stepped_pid_matches_analytic_digital_on_the_default_grid(tf):
    # The probe runs the quotient, the integrator divided out, and the fit
    # is divided by 1 - e^-jw.
    coeffs = tustin_horner(tf, RATE)
    grid = np.logspace(-1.0, 2.0, 200)
    got, want = stepped_sine_bode(coeffs, grid).table, bode_digital(coeffs, grid).table
    assert np.abs(got[:, 1] - want[:, 1]).max() <= 1e-8
    assert np.abs(got[:, 2] - want[:, 2]).max() <= 1e-7


@pytest.mark.parametrize("scale", [1.0, -2.0, 0.0])
def test_a_fit_against_collinear_references_is_refused(scale):
    # a cosine reference that is a multiple of the sine leaves the normal
    # equations singular: no quadrature split exists
    ref = np.sin(np.linspace(0.0, 3.0, 50))
    with pytest.raises(ValueError, match="^degenerate stepped-sine fit$"):
        analysis._fit_quadrature(ref, scale * ref, np.cos(np.linspace(0.0, 3.0, 50)))


def test_stepped_validation():
    with pytest.raises(ValueError):
        stepped_sine_bode(BUTTER, [])
    with pytest.raises(ValueError):
        stepped_sine_bode(BUTTER, [0.45 * RATE])  # at the grid ceiling
    with pytest.raises(ValueError):
        stepped_sine_bode(BUTTER, [-1.0])


# ------------------------------------------------- chirp spectral ratio


def test_chirp_identity_is_exactly_flat():
    pts = chirp_bode(IDENTITY, chirp(duration=30.0))
    assert len(pts) > 50
    for p in pts:
        assert p.magnitude_db == 0.0
        assert p.phase_deg == 0.0


def test_chirp_matches_analytic_digital_for_lowpass():
    pts = chirp_bode(LOWPASS, chirp())
    inside = [p for p in pts if 0.2 <= p.freq_hz <= 80.0]
    assert len(inside) > 100
    truth = bode_digital(LOWPASS, [p.freq_hz for p in inside])
    for m, t in zip(inside, truth):
        assert m.magnitude_db == pytest.approx(t.magnitude_db, abs=0.5)
        assert m.phase_deg == pytest.approx(t.phase_deg, abs=5.0)


def test_chirp_reports_increasing_frequencies():
    pts = chirp_bode(LOWPASS, chirp(duration=20.0))
    freqs = [p.freq_hz for p in pts]
    assert all(a < b for a, b in zip(freqs, freqs[1:]))
    # DFT bins strictly inside the sweep's band
    assert 0.1 < freqs[0] < 1.0
    assert 50.0 < freqs[-1] < 100.0


@pytest.mark.parametrize("kind", ["exponential", "linear"])
def test_chirp_bins_are_distinct_log_grid_bins_inside_the_band(kind):
    spec = chirp(fmin=0.2, fmax=80.0, duration=10.0, kind=kind)
    freqs = np.array([p.freq_hz for p in chirp_bode(BUTTER, spec)])
    # 10 s plus butter2's tail pads to 16384 samples: bins of 1000/16384 Hz
    step = RATE / 16384
    bins = freqs / step
    assert np.array_equal(bins, np.round(bins))
    grid = np.geomspace(0.2, 80.0, analysis.CHIRP_POINTS)
    want = np.unique(np.rint(grid / step)) * step
    assert freqs.tolist() == want[(want > 0.2) & (want < 80.0)].tolist()
    assert np.all(np.diff(freqs) > 0.0)


PINNED = {
    "lowpass1": catalog.lowpass1(TWO_PI * 10.0),
    "butter2": catalog.butterworth2(TWO_PI * 10.0),
    "notch-q5": catalog.notch(TWO_PI * 50.0, 5.0),
    "notch-q50": catalog.notch(TWO_PI * 50.0, 50.0),
    "multiorder": catalog.multiorder_example(),
    "pid": catalog.pid(1.0, 3.0, 0.5, 300.0),
}


@pytest.mark.parametrize("kind", ["exponential", "linear"])
@pytest.mark.parametrize("name", list(PINNED))
def test_chirp_matches_bode_digital_on_the_default_band(name, kind):
    # bode's defaults at 1 kHz: 0.1-100 Hz in 120 s.  A 4-cycle window fit
    # missed the notches by 22-25 dB and pid by 0.49 dB here.
    coeffs = tustin_horner(PINNED[name], RATE)
    pts = chirp_bode(coeffs, chirp(duration=120.0, kind=kind))
    assert len(pts) > 150
    truth = bode_digital(coeffs, [p.freq_hz for p in pts])
    dmag = max(abs(m.magnitude_db - t.magnitude_db) for m, t in zip(pts, truth))
    dph = max(abs(m.phase_deg - t.phase_deg) for m, t in zip(pts, truth))
    assert dmag <= 1e-7
    assert dph <= 1e-6


def test_chirp_leadlag_asymptotes():
    coeffs = tustin_horner(catalog.leadlag(10.0, TWO_PI, 20.0 * math.pi), RATE)
    pts = chirp_bode(coeffs, chirp())
    low = [p for p in pts if p.freq_hz < 0.35]
    high = [p for p in pts if p.freq_hz > 60.0]
    assert low and high
    for p in low:
        assert p.magnitude_db == pytest.approx(0.0, abs=0.5)
    for p in high:
        assert p.magnitude_db == pytest.approx(20.0, abs=0.5)


def test_chirp_validation():
    with pytest.raises(RateMismatchError):
        chirp_bode(LOWPASS, chirp(rate=999.0))


@pytest.mark.parametrize("name", ["butter2", "notch-q5", "pid", "multiorder"])
@pytest.mark.parametrize("fmin, fmax", [(10.0, 100.0), (20.0, 40.0), (100.0, 300.0)],
                         ids=["10-100Hz", "20-40Hz", "100-300Hz"])
def test_chirp_measures_a_band_of_under_two_decades(name, fmin, fmax):
    # The ratio of spectra needs no band width: only the two-bin minimum.
    coeffs = tustin_horner(PINNED[name], RATE)
    pts = chirp_bode(coeffs, chirp(fmin=fmin, fmax=fmax, duration=120.0))
    assert len(pts) > 150 and fmin < pts[0].freq_hz and pts[-1].freq_hz < fmax
    truth = bode_digital(coeffs, pts.table[:, 0]).table
    assert np.abs(pts.table[:, 1] - truth[:, 1]).max() <= 1e-9
    assert np.abs(pts.table[:, 2] - truth[:, 2]).max() <= 1e-8


@pytest.mark.parametrize("name", ["butter2", "pid"])
def test_chirp_curve_does_not_depend_on_the_amplitude(name):
    # chirp_bode filters the unit sweep: H = Y/X whatever the sweep's level,
    # also for one the filter would flush to zero or one that is zero.
    coeffs = tustin_horner(PINNED[name], RATE)
    want = chirp_bode(coeffs, chirp(duration=20.0)).table
    for amp in (-3.0, 1e-310, 0.0, 1e300):
        got = chirp_bode(coeffs, chirp(duration=20.0, amp=amp)).table
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "name, value",
    [
        ("window_cycles", math.nan),
        ("window_cycles", math.inf),
        ("window_cycles", 1e308),
        ("hop_cycles", math.nan),
        ("hop_cycles", math.inf),
        ("hop_cycles", 1e-300),
        ("hop_cycles", 0.001),
    ],
)
def test_chirp_refuses_a_window_or_hop_it_cannot_use(name, value):
    # The spectral ratio has no windows: the old tuning keywords are refused
    # loudly, not ignored.
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        chirp_bode(LOWPASS, chirp(duration=10.0), **{name: value})


@pytest.mark.parametrize("b_hat, radius", UNSETTLED_POLES)
def test_chirp_refuses_a_pole_on_or_outside_the_unit_circle(b_hat, radius):
    coeffs = DigitalFilterCoefficients((1.0,) + (0.0,) * len(b_hat), b_hat, RATE)
    with pytest.raises(ValueError) as info:
        chirp_bode(coeffs, chirp(duration=10.0))
    assert str(info.value) == unit_circle_refusal("chirp", radius)


def test_chirp_refuses_a_sweep_too_short_for_two_bins():
    # 2 s pads to 4096 samples: bins 0.244 Hz apart, none inside 0.001-0.1 Hz
    with pytest.raises(ValueError, match=r"^sweep of 2\.0 s is too short: .* 0 DFT bins"):
        chirp_bode(LOWPASS, chirp(fmin=0.001, fmax=0.1, duration=2.0))


@pytest.mark.parametrize("fmax", [900.0, RATE / 2.0])
def test_chirp_refuses_a_sweep_that_reaches_nyquist(fmax):
    # above Nyquist the samples are an alias's: 900 Hz at 1 kHz would be
    # reported with the response at ~100 Hz
    with pytest.raises(AboveNyquistError, match="is not below the Nyquist"):
        chirp_bode(LOWPASS, chirp(fmin=1.0, fmax=fmax, duration=20.0))


# ------------------------------------------------------------- comparison


def test_compare_identical_curves_is_zero():
    pts = bode_digital(BUTTER, np.logspace(-1, 2, 50))
    cmp = compare_responses(pts, pts)
    assert cmp.points_compared == 50
    assert cmp.max_abs_magnitude_db == 0.0
    assert cmp.max_abs_phase_deg == 0.0


def test_compare_known_offset():
    a = [FrequencyResponsePoint(f, 0.0, 0.0) for f in (1.0, 10.0, 100.0)]
    b = [FrequencyResponsePoint(f, 2.0, -30.0) for f in (1.0, 10.0, 100.0)]
    cmp = compare_responses(a, b)
    assert cmp.max_abs_magnitude_db == pytest.approx(2.0)
    assert cmp.mean_abs_magnitude_db == pytest.approx(2.0)
    assert cmp.max_abs_phase_deg == pytest.approx(30.0)


def test_compare_interpolates_in_log_frequency():
    # b sampled at decade edges, a in the middle: log interpolation of a
    # line through (1, 0 dB) and (100, 40 dB) gives 20 dB at 10 Hz
    a = [FrequencyResponsePoint(10.0, 20.0, 0.0)]
    b = [
        FrequencyResponsePoint(1.0, 0.0, 0.0),
        FrequencyResponsePoint(100.0, 40.0, 0.0),
    ]
    cmp = compare_responses(a, b)
    assert cmp.max_abs_magnitude_db == pytest.approx(0.0, abs=1e-12)


def test_compare_restricts_to_overlap():
    a = [FrequencyResponsePoint(f, 1.0, 0.0) for f in (1.0, 10.0, 100.0)]
    b = [FrequencyResponsePoint(f, 1.0, 0.0) for f in (5.0, 50.0)]
    cmp = compare_responses(a, b)
    assert cmp.points_compared == 1  # only 10 Hz lies inside [5, 50]


def test_compare_disjoint_ranges():
    a = [FrequencyResponsePoint(1.0, 0.0, 0.0), FrequencyResponsePoint(2.0, 0.0, 0.0)]
    b = [FrequencyResponsePoint(50.0, 0.0, 0.0), FrequencyResponsePoint(90.0, 0.0, 0.0)]
    with pytest.raises(DisjointRangesError):
        compare_responses(a, b)
    with pytest.raises(ValueError):
        compare_responses(a, [])


def test_compare_clamps_deep_nulls():
    a = [FrequencyResponsePoint(1.0, -2000.0, 0.0)]
    b = [FrequencyResponsePoint(1.0, MAGNITUDE_DB_FLOOR, 0.0)]
    cmp = compare_responses(a, b)
    assert cmp.max_abs_magnitude_db == 0.0


def test_compare_accepts_a_transmission_zero():
    a = [FrequencyResponsePoint(1.0, float("-inf"), 0.0)]
    b = [FrequencyResponsePoint(1.0, MAGNITUDE_DB_FLOOR, 0.0)]
    assert compare_responses(a, b).max_abs_magnitude_db == 0.0


def test_compare_refuses_two_responses_at_one_frequency():
    a = [FrequencyResponsePoint(f, 0.0, 0.0) for f in (1.0, 2.0, 4.0)]
    split = a + [FrequencyResponsePoint(2.0, 0.0, 1.0)]
    with pytest.raises(ValueError, match=r"^second curve: two different responses at 2\.0 Hz"):
        compare_responses(a, split)
    # as the first curve every point is checked, so the repeat is measured
    assert compare_responses(split, a).max_abs_phase_deg == 1.0
    # a point repeated exactly is one response
    assert compare_responses(a, a + a[1:2]).max_abs_phase_deg == 0.0


@pytest.mark.parametrize("point", [
    FrequencyResponsePoint(float("inf"), 0.0, 0.0),
    FrequencyResponsePoint(1.0, float("inf"), 0.0),
    FrequencyResponsePoint(1.0, 0.0, float("-inf")),
], ids=["frequency", "magnitude", "phase"])
def test_compare_rejects_infinities(point):
    a = [FrequencyResponsePoint(1.0, 0.0, 0.0)]
    with pytest.raises(ValueError, match="^first curve: "):
        compare_responses([point], a)


# --------------------------------------------------------------- CSV I/O


def test_csv_round_trip():
    pts = bode_digital(BUTTER, np.logspace(-1, 2, 40))
    buf = io.StringIO()
    write_bode_csv(pts, buf)
    text = buf.getvalue()
    assert text.startswith(BODE_CSV_HEADER + "\n")
    back = read_bode_csv(io.StringIO(text))
    assert len(back) == len(pts)
    for p, q in zip(pts, back):
        assert q.freq_hz == pytest.approx(p.freq_hz, rel=1e-8)
        assert q.magnitude_db == pytest.approx(p.magnitude_db, rel=1e-8, abs=1e-8)
        assert q.phase_deg == pytest.approx(p.phase_deg, rel=1e-8, abs=1e-8)


def test_csv_write_clamps_magnitude_floor():
    buf = io.StringIO()
    write_bode_csv([FrequencyResponsePoint(60.0, -1e9, 10.0)], buf)
    line = buf.getvalue().splitlines()[1]
    assert line == "60,-300,10"


CURVE = [FrequencyResponsePoint(f, 0.0, 0.0) for f in (1.0, 2.0, 4.0)]


@pytest.mark.parametrize("points, shape", [
    ([(1.0, -3.0), (2.0, -6.0), (4.0, -9.0)], "(3, 2)"),
    ([(1.0, -3.0, 5.0, 2.0, -6.0, 4.0)], "(1, 6)"),
    ([(1.0, -3.0, 5.0), (2.0, -6.0)], "(2,)"),
    ([(1.0, -3.0), (2.0, -6.0, 4.0)], "(2,)"),
], ids=["pairs", "six-field point", "short last row", "short first row"])
def test_points_that_are_no_n_by_3_table_are_refused_everywhere(points, shape):
    # Not regrouped into rows of three: every reader of points refuses them
    # as the curve's constructor does, ragged rows included.
    message = f"^a response curve is an N x 3 table, got shape {re.escape(shape)}$"
    with pytest.raises(ValueError, match=message):
        ResponseCurve(points)
    with pytest.raises(ValueError, match=message):
        write_bode_csv(points, io.StringIO())
    with pytest.raises(ValueError, match=message):
        compare_responses(points, CURVE)
    with pytest.raises(ValueError, match=message):
        compare_responses(CURVE, iter(points))


def test_a_field_that_is_no_number_keeps_numpys_message():
    with pytest.raises(ValueError, match="could not convert string to float"):
        ResponseCurve([("1.0", "x", "2.0")])


def test_csv_writer_takes_no_points_and_any_iterable_of_points():
    buf = io.StringIO()
    write_bode_csv([], buf)
    assert buf.getvalue() == BODE_CSV_HEADER + "\n"
    buf = io.StringIO()
    write_bode_csv((p for p in CURVE), buf)
    assert buf.getvalue() == BODE_CSV_HEADER + "\n1,0,0\n2,0,0\n4,0,0\n"


def test_csv_reader_rejects_bad_input():
    with pytest.raises(ValueError):
        read_bode_csv(io.StringIO("wrong,header,here\n1,2,3\n"))
    with pytest.raises(ValueError):
        read_bode_csv(io.StringIO(BODE_CSV_HEADER + "\n1,2\n"))
    with pytest.raises(ValueError):
        read_bode_csv(io.StringIO(BODE_CSV_HEADER + "\n1,two,3\n"))


def test_csv_reader_skips_blank_lines():
    pts = read_bode_csv(io.StringIO(BODE_CSV_HEADER + "\n1,2,3\n\n4,5,6\n"))
    assert len(pts) == 2
