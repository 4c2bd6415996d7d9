"""Frequency-response analysis: analytic curves, both measurement routes,
comparison, and the CSV contract."""

import io
import math

import numpy as np
import pytest

from tustin import analysis, catalog
from tustin.analysis import (
    BODE_CSV_HEADER,
    FALLBACK_SETTLE_CYCLES,
    MAGNITUDE_DB_FLOOR,
    SETTLE_TAIL_RTOL,
    AboveNyquistError,
    DenominatorZeroError,
    DisjointRangesError,
    FrequencyResponsePoint,
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
    ContinuousTransferFunction,
    DigitalFilterCoefficients,
    tustin_horner,
)
from tustin.runtime import RateMismatchError, process
from tustin.signals import ChirpSpec, TimeSeries, chirp_phase, sample_count

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


def test_stepped_more_cycles_does_not_drift():
    short = stepped_sine_bode(BUTTER, [10.0], settle_cycles=5, measure_cycles=2)
    long = stepped_sine_bode(BUTTER, [10.0], settle_cycles=40, measure_cycles=10)
    truth = bode_digital(BUTTER, [10.0])[0]
    err_short = abs(short[0].magnitude_db - truth.magnitude_db)
    err_long = abs(long[0].magnitude_db - truth.magnitude_db)
    assert err_long <= err_short + 1e-6


DEFAULT_GRID = np.logspace(-1.0, 2.0, 40)


@pytest.mark.parametrize("tf, grid, max_db", [
    (catalog.butterworth2(TWO_PI * 12.3), DEFAULT_GRID, 1e-9),
    # pole radius 0.999686: 86,124 samples of settle, 20 cycles are 4,000
    (catalog.notch(TWO_PI * 5.0, 50.0), np.linspace(4.9, 5.2, 31), 1e-6),
    # a repeated pole, whose tail outlasts r**k
    (ContinuousTransferFunction.from_descending([1.0], np.poly([-6.0] * 4).tolist()),
     DEFAULT_GRID, 1e-4),
], ids=["butter2", "notch-q50", "repeated-pole"])
def test_stepped_default_settle_matches_analytic_digital(tf, grid, max_db):
    coeffs = tustin_horner(tf, RATE)
    pairs = zip(stepped_sine_bode(coeffs, grid), bode_digital(coeffs, grid))
    assert max(abs(m.magnitude_db - t.magnitude_db) for m, t in pairs) <= max_db


def test_settle_length_is_where_the_impulse_tail_falls_below_tolerance():
    coeffs = tustin_horner(catalog.butterworth2(TWO_PI * 12.3), RATE)
    k = analysis._settle_samples(coeffs)
    impulse = np.zeros(4 * k)
    impulse[0] = 1.0
    h = np.abs(process(coeffs, TimeSeries(RATE, impulse), False).samples)
    assert h[k:].sum() <= SETTLE_TAIL_RTOL * h.sum() < h[k - 1:].sum()


def test_stepped_falls_back_to_fixed_cycles_without_a_settle_length(monkeypatch):
    # pid's integrator sits on the unit circle: no impulse tail to measure
    pid = tustin_horner(catalog.pid(1.0, 2.0, 0.1, 200.0), RATE)
    assert analysis._settle_samples(pid) is None
    freqs = [0.5, 5.0, 50.0]
    fixed = stepped_sine_bode(pid, freqs, settle_cycles=FALLBACK_SETTLE_CYCLES)
    assert stepped_sine_bode(pid, freqs) == fixed
    # a tail that outlasts half the longest impulse run
    notch = tustin_horner(catalog.notch(TWO_PI * 5.0, 50.0), RATE)
    monkeypatch.setattr(analysis, "SETTLE_MAX_SAMPLES", 4096)
    assert analysis._settle_samples(notch) is None
    fixed = stepped_sine_bode(notch, freqs, settle_cycles=FALLBACK_SETTLE_CYCLES)
    assert stepped_sine_bode(notch, freqs) == fixed


def test_stepped_validation():
    with pytest.raises(ValueError):
        stepped_sine_bode(BUTTER, [])
    with pytest.raises(ValueError):
        stepped_sine_bode(BUTTER, [10.0], settle_cycles=4)
    with pytest.raises(ValueError):
        stepped_sine_bode(BUTTER, [10.0], measure_cycles=1)
    with pytest.raises(ValueError):
        stepped_sine_bode(BUTTER, [0.45 * RATE])  # at the grid ceiling
    with pytest.raises(ValueError):
        stepped_sine_bode(BUTTER, [-1.0])


# ------------------------------------------------------- chirp demodulation


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
    # window averages live strictly inside the sweep's band
    assert 0.1 < freqs[0] < 1.0
    assert 50.0 < freqs[-1] < 100.0


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
    with pytest.raises(ValueError):
        chirp_bode(LOWPASS, chirp(fmin=1.0, fmax=50.0))  # under two decades
    with pytest.raises(ValueError):
        chirp_bode(LOWPASS, chirp(amp=0.0))
    with pytest.raises(ValueError, match="smaller inputs to zero"):
        chirp_bode(LOWPASS, chirp(amp=-1e-310))
    with pytest.raises(RateMismatchError):
        chirp_bode(LOWPASS, chirp(rate=999.0))
    with pytest.raises(ValueError):
        chirp_bode(LOWPASS, chirp(), window_cycles=0.0)
    with pytest.raises(ValueError):
        chirp_bode(LOWPASS, chirp(), hop_cycles=-1.0)


@pytest.mark.parametrize(
    "name, value",
    [
        ("window_cycles", math.nan),
        ("window_cycles", math.inf),
        ("window_cycles", 1e308),  # finite, but not in radians
        ("hop_cycles", math.nan),
        ("hop_cycles", math.inf),
        ("hop_cycles", 1e-300),
        ("hop_cycles", 0.001),  # below the 0.1-cycle step at 100 Hz
    ],
)
def test_chirp_refuses_a_window_or_hop_it_cannot_use(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        chirp_bode(LOWPASS, chirp(duration=10.0), **{name: value})


@pytest.mark.parametrize("fmax", [900.0, RATE / 2.0])
def test_chirp_refuses_a_sweep_that_reaches_nyquist(fmax):
    # above Nyquist the samples are an alias's: 900 Hz at 1 kHz would be
    # reported with the response at ~100 Hz
    with pytest.raises(AboveNyquistError, match="is not below the Nyquist"):
        chirp_bode(LOWPASS, chirp(fmin=1.0, fmax=fmax, duration=20.0))


def test_chirp_accepts_a_hop_of_the_largest_phase_step():
    spec = chirp(duration=10.0)
    step = np.diff(chirp_phase(spec)).max() / TWO_PI
    points = chirp_bode(LOWPASS, spec, window_cycles=4.0, hop_cycles=step)
    freqs = [p.freq_hz for p in points]
    assert len(freqs) <= sample_count(spec)
    assert all(a < b for a, b in zip(freqs, freqs[1:]))


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
