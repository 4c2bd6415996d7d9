"""Signal generation: sweep laws, rotation recursion health, fixed sines."""

import math

import numpy as np
import pytest

from tustin.signals import (
    MAX_SAMPLES,
    ChirpSpec,
    TimeSeries,
    chirp_quadrature,
    generate_chirp,
    generate_sine,
    instantaneous_frequency,
    sample_count,
)

TWO_PI = 2.0 * math.pi


def spec(kind="exponential", fmin=0.1, fmax=100.0, duration=10.0, rate=1000.0, amp=1.0):
    return ChirpSpec(kind, TWO_PI * fmin, TWO_PI * fmax, duration, amp, rate)


# ------------------------------------------------------------- TimeSeries


def test_time_series_basics():
    ts = TimeSeries(10.0, [1.0, 2.0, 3.0])
    assert len(ts) == 3
    assert ts.times == pytest.approx([0.0, 0.1, 0.2])
    assert ts.samples.dtype == np.float64
    with pytest.raises(ValueError):
        TimeSeries(10.0, [1.0, float("nan")])
    with pytest.raises(ValueError):
        TimeSeries(0.0, [1.0, 2.0])


def test_time_series_offset_start():
    ts = TimeSeries(2.0, [0.0, 0.0], t0=5.0)
    assert ts.times == pytest.approx([5.0, 5.5])


def test_time_series_samples_are_read_only():
    ts = TimeSeries(10.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        ts.samples[0] = 99.0


@pytest.mark.parametrize("samples", [[[1.0, 2.0], [3.0, 4.0]], []], ids=["2-D", "empty"])
def test_time_series_needs_a_non_empty_1d_array(samples):
    with pytest.raises(ValueError, match="^samples must be a non-empty 1-D array$"):
        TimeSeries(10.0, samples)


@pytest.mark.parametrize("rate", [0.0, -10.0, float("nan"), float("inf")])
def test_time_series_names_a_rate_that_is_not_positive_and_finite(rate):
    message = f"^sample rate must be positive and finite, got {rate!r}$"
    with pytest.raises(ValueError, match=message):
        TimeSeries(rate, [1.0, 2.0])


# -------------------------------------------------------------- sweep law


def test_sweep_endpoints_are_exact():
    for kind in ("linear", "exponential"):
        s = spec(kind=kind)
        assert instantaneous_frequency(s, 0.0) == s.omega_min
        assert instantaneous_frequency(s, s.duration_s) == pytest.approx(
            s.omega_max, rel=1e-15
        )


def test_linear_sweep_midpoint_is_arithmetic_mean():
    s = spec(kind="linear")
    mid = instantaneous_frequency(s, s.duration_s / 2.0)
    assert mid == pytest.approx((s.omega_min + s.omega_max) / 2.0, rel=1e-12)


def test_exponential_sweep_midpoint_is_geometric_mean():
    s = spec(kind="exponential")
    mid = instantaneous_frequency(s, s.duration_s / 2.0)
    assert mid == pytest.approx(math.sqrt(s.omega_min * s.omega_max), rel=1e-12)


def test_sweep_is_monotone():
    for kind in ("linear", "exponential"):
        s = spec(kind=kind, duration=2.0)
        grid = np.linspace(0.0, s.duration_s, 500)
        vals = [instantaneous_frequency(s, t) for t in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_sweep_rejects_out_of_range_time():
    s = spec()
    with pytest.raises(ValueError):
        instantaneous_frequency(s, -0.001)
    with pytest.raises(ValueError):
        instantaneous_frequency(s, s.duration_s + 0.001)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(kind="quadratic")
    with pytest.raises(ValueError):
        ChirpSpec("linear", 0.0, 10.0, 1.0, 1.0, 100.0)
    with pytest.raises(ValueError):
        ChirpSpec("linear", 10.0, 10.0, 1.0, 1.0, 100.0)  # must strictly grow
    with pytest.raises(ValueError):
        ChirpSpec("linear", 1.0, 10.0, -1.0, 1.0, 100.0)
    with pytest.raises(ValueError):
        ChirpSpec("linear", 1.0, 10.0, 1.0, 1.0, 0.5)  # under two samples
    with pytest.raises(ValueError):
        ChirpSpec("linear", 1.0, 10.0, float(MAX_SAMPLES), 1.0, 10.0)


def test_sample_count_rounds():
    assert sample_count(spec(duration=1.0, rate=1000.0)) == 1000
    assert sample_count(spec(duration=0.9996, rate=1000.0)) == 1000


@pytest.mark.parametrize("field, value, message", [
    ("omega_max", float("nan"), "omega_max must be finite, got nan"),
    ("amplitude", float("inf"), "amplitude must be finite, got inf"),
    ("omega_min", float("nan"), "omega_min must be positive and finite, got nan"),
    ("omega_min", 0.0, "omega_min must be positive and finite, got 0.0"),
    ("duration_s", float("nan"), "duration_s must be positive and finite, got nan"),
    ("duration_s", -1.0, "duration_s must be positive and finite, got -1.0"),
    ("sample_rate", -100.0, "sample_rate must be positive and finite, got -100.0"),
    ("sample_rate", float("inf"), "sample_rate must be positive and finite, got inf"),
], ids=["nan-omega-max", "inf-amplitude", "nan-omega-min", "zero-omega-min", "nan-duration",
        "negative-duration", "negative-rate", "inf-rate"])
def test_spec_names_the_bad_field_and_value(field, value, message):
    fields = dict(kind="linear", omega_min=1.0, omega_max=10.0, duration_s=1.0,
                  amplitude=1.0, sample_rate=100.0)
    fields[field] = value
    with pytest.raises(ValueError) as info:
        ChirpSpec(**fields)
    assert str(info.value) == message


# ------------------------------------------------------ rotation recursion


def test_chirp_starts_at_zero_crossing():
    series = generate_chirp(spec())
    assert series.samples[0] == 0.0
    cos0, sin0 = (arr[0] for arr in chirp_quadrature(spec()))
    assert (cos0, sin0) == (1.0, 0.0)


def test_quadrature_norm_stays_near_one():
    s = spec(duration=100.0, rate=1000.0)  # 1e5 samples
    cos_s, sin_s = chirp_quadrature(s)
    norm_err = np.abs(cos_s * cos_s + sin_s * sin_s - 1.0)
    assert norm_err.max() <= 1e-9


def accumulated_phase(s):
    # Running sum of the angle steps w_c(i*dt)*dt, i = 1 .. N-1, from 0:
    # the angle the recursion has turned through on landing on sample i.
    steps = [instantaneous_frequency(s, i / s.sample_rate) / s.sample_rate
             for i in range(1, sample_count(s))]
    return np.concatenate(([0.0], np.cumsum(steps)))


def test_quadrature_matches_accumulated_phase():
    s = spec(duration=2.0)
    phase = accumulated_phase(s)
    cos_s, sin_s = chirp_quadrature(s)
    assert len(cos_s) == len(phase) == sample_count(s)
    # the recursion is the phase's cosine/sine up to accumulated rounding
    assert np.abs(cos_s - np.cos(phase)).max() < 1e-9
    assert np.abs(sin_s - np.sin(phase)).max() < 1e-9


def test_phase_is_strictly_increasing():
    # every step turns the phasor forward, by less than pi at 100 Hz of 1 kHz
    cos_s, sin_s = chirp_quadrature(spec(duration=1.0))
    assert np.all(np.diff(np.unwrap(np.arctan2(sin_s, cos_s))) > 0.0)


def test_chirp_envelope_and_amplitude():
    series = generate_chirp(spec(amp=2.5, duration=5.0))
    assert np.abs(series.samples).max() <= 2.5 * (1.0 + 1e-12)
    # a sweep that crosses many cycles gets close to its envelope
    assert np.abs(series.samples).max() > 2.49


def test_near_degenerate_sweep_tracks_fixed_sine():
    # squeeze the sweep to a hair above constant: it must reproduce a sine
    f0 = 5.0
    s = ChirpSpec("linear", TWO_PI * f0, TWO_PI * f0 * (1.0 + 1e-9), 2.0, 1.0, 500.0)
    swept = generate_chirp(s).samples
    fixed = generate_sine(f0, 1.0, 0.0, 2.0, 500.0).samples
    assert np.abs(swept - fixed).max() < 1e-6


def test_zero_amplitude_is_silent():
    series = generate_chirp(spec(amp=0.0, duration=1.0))
    assert np.all(series.samples == 0.0)


# ------------------------------------------------------------- fixed sine


def test_sine_quarter_period_lattice():
    # sampling at 4x the frequency lands on 0, A, 0, -A
    ts = generate_sine(2.0, 3.0, 0.0, 1.0, 8.0)
    assert len(ts) == 8
    want = [0.0, 3.0, 0.0, -3.0] * 2
    assert ts.samples == pytest.approx(want, abs=1e-9)


def test_sine_offset_first_sample():
    # offset sine opens exactly at its offset: sin(0) contributes nothing
    ts = generate_sine(100.0, 1.0, 5.0, 0.1, 1000.0)
    assert ts.samples[0] == 5.0
    assert ts.samples.min() >= 4.0 - 1e-12
    assert ts.samples.max() <= 6.0 + 1e-12


def test_sine_validation():
    with pytest.raises(ValueError):
        generate_sine(-1.0, 1.0, 0.0, 1.0, 100.0)
    with pytest.raises(ValueError):
        generate_sine(1.0, 1.0, 0.0, 0.0, 100.0)
    with pytest.raises(ValueError):
        generate_sine(1.0, 1.0, 0.0, 1.0, -100.0)
    with pytest.raises(ValueError):
        generate_sine(1.0, float("inf"), 0.0, 1.0, 100.0)
    with pytest.raises(ValueError):
        generate_sine(1.0, 1.0, 0.0, float(MAX_SAMPLES), 10.0)


@pytest.mark.parametrize("args, message", [
    ((1.0, 1.0, 0.0, 0.004, 100.0), "duration is shorter than one sample"),
    ((1.0, 1.0, 0.0, 0.0, 100.0), "duration_s must be positive and finite, got 0.0"),
    ((1.0, 1.0, 0.0, float("inf"), 100.0), "duration_s must be positive and finite, got inf"),
    ((1.0, 1.0, 0.0, 1.0, -100.0), "sample_rate must be positive and finite, got -100.0"),
    ((1.0, 1.0, 0.0, 1.0, float("nan")), "sample_rate must be positive and finite, got nan"),
    ((1.0, 1.0, 0.0, float(MAX_SAMPLES), 10.0),
     f"duration * rate exceeds {MAX_SAMPLES} samples; refusing"),
    ((float("nan"), 1.0, 0.0, 1.0, 100.0), "freq_hz must be finite, got nan"),
    ((1.0, float("-inf"), 0.0, 1.0, 100.0), "amplitude must be finite, got -inf"),
    ((1.0, 1.0, float("inf"), 1.0, 100.0), "offset must be finite, got inf"),
], ids=["under-one-sample", "zero-duration", "inf-duration", "negative-rate", "nan-rate", "cap",
        "nan-freq", "inf-amplitude", "inf-offset"])
def test_sine_names_the_bad_argument(args, message):
    with pytest.raises(ValueError) as info:
        generate_sine(*args)
    assert str(info.value) == message


def test_sine_times_start_at_zero_and_stay_inside_duration():
    ts = generate_sine(1.0, 1.0, 0.0, 2.0, 10.0)
    assert ts.times[0] == 0.0
    assert ts.times[-1] < 2.0
