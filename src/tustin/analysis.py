"""Frequency-response verification of designed filters.

Three independent views of the same filter are available:

* analytic continuous response N(jw)/D(jw) of the source transfer function,
* analytic digital response of the difference equation on the unit circle,
* measured responses, by stepped-sine fitting or by demodulating a chirp.

The measured views know their input exactly, so they fit only the filter
output, by least squares against the generator's own sine: the stepped
probe itself, or the chirp's phasor states (sin_i, cos_i).

Because the design applies no prewarping, the digital response at angular
frequency w equals the continuous response at 2*f_l*tan(w*dt/2); curves are
expected to diverge near the Nyquist frequency and agree well below it.

Measured and analytic curves are exchanged as lists of
:class:`FrequencyResponsePoint` and serialize to/from a three-column CSV
(``freq_hz,magnitude_db,phase_deg``).  Magnitudes at exact transmission
zeros are -inf in memory and clamp to -300 dB in files.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .discretize import ContinuousTransferFunction, DigitalFilterCoefficients, pole_radii
from .csvio import read_csv, write_csv
from .runtime import UNIT_CIRCLE_MARGIN, filter_series
# Not called here: perfbench's span tests expect the fold in this namespace.
from .runtime import process  # noqa: F401
from .signals import ChirpSpec, TimeSeries, chirp_phase, chirp_quadrature, generate_sine

BODE_CSV_HEADER = "freq_hz,magnitude_db,phase_deg"

# File-format stand-in for -inf dB at transmission zeros.
MAGNITUDE_DB_FLOOR = -300.0

# Stepped-sine grids must stay below this fraction of the loop rate; above
# it the per-cycle sample count is too small for a trustworthy fit.
STEPPED_SINE_MAX_FREQ_FRACTION = 0.45

# A stepped-sine probe settles, by default, until the impulse response's
# tail sum_{j>=k} |h_j| is at most this fraction of sum |h|: a unit sine
# started from rest is then that close to its steady state at every
# measured sample.
SETTLE_TAIL_RTOL = 1e-12

# The longest impulse response run to find that tail, in samples.  A design
# whose tail outlasts half of it (a pole within about 5e-5 of the unit
# circle), or whose poles reach the unit circle, settles for a fixed
# FALLBACK_SETTLE_CYCLES input cycles instead.
SETTLE_MAX_SAMPLES = 2**20
FALLBACK_SETTLE_CYCLES = 20


class AboveNyquistError(ValueError):
    """Requested frequency is at or above the Nyquist frequency."""


class DenominatorZeroError(ZeroDivisionError):
    """The response denominator vanished at the requested frequency."""


class DisjointRangesError(ValueError):
    """Two response curves share no frequency overlap."""


@dataclass(frozen=True)
class FrequencyResponsePoint:
    freq_hz: float
    magnitude_db: float
    phase_deg: float


@dataclass(frozen=True)
class ResponseComparison:
    """Absolute deviations between two curves on their common grid."""

    points_compared: int
    max_abs_magnitude_db: float
    mean_abs_magnitude_db: float
    max_abs_phase_deg: float
    mean_abs_phase_deg: float


def _checked_omegas(omega: Sequence[float]) -> np.ndarray:
    w = np.asarray(omega)
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
    if bad.size:
        raise ValueError(
            f"omega must be positive and finite, got {w[bad[0]].item()!r}"
        )
    return w


def _rational(
    num: Sequence[float], den: Sequence[float], x: np.ndarray, w: np.ndarray,
    what: str,
) -> np.ndarray:
    # N(x)/D(x) on a whole grid, both polynomials descending in x.
    d = np.polyval(den, x)
    zero = np.flatnonzero(d == 0.0)
    if zero.size:
        raise DenominatorZeroError(f"{what} vanishes at omega = {w[zero[0]].item()}")
    return _divide(np.polyval(num, x), d)


def _divide(n: np.ndarray, d: np.ndarray) -> np.ndarray:
    # n / d by Python's own complex division (Smith's method), which
    # numpy's differs from in the last bit: results stay those of the
    # scalar arithmetic the curves have always been computed with.
    big = np.abs(d.real) >= np.abs(d.imag)
    p = np.where(big, d.imag, d.real)
    q = np.where(big, d.real, d.imag)
    u = np.where(big, n.real, n.imag)
    v = np.where(big, n.imag, n.real)
    ratio = p / q
    denom = q + p * ratio
    out = np.empty(n.shape, dtype=complex)
    out.real = (u + v * ratio) / denom
    out.imag = np.where(big, v - u * ratio, u * ratio - v) / denom
    return out


def _continuous(tf: ContinuousTransferFunction, omega: Sequence[float]) -> np.ndarray:
    w = _checked_omegas(omega)
    return _rational(
        tf.numerator.descending(), tf.denominator.descending(), 1j * w, w,
        "denominator",
    )


def _digital(coeffs: DigitalFilterCoefficients, omega: Sequence[float]) -> np.ndarray:
    # (sum a_hat[k] x^k) / (1 - sum b_hat[k] x^(k+1)) at x = z^-1.
    w = _checked_omegas(omega)
    nyquist = math.pi * coeffs.loop_rate_hz
    above = np.flatnonzero(w >= nyquist)
    if above.size:
        raise AboveNyquistError(
            f"omega = {w[above[0]].item()} rad/s is not below the Nyquist "
            f"angular frequency {nyquist} rad/s"
        )
    zinv = np.exp(-1j * w / coeffs.loop_rate_hz)
    den = [-b for b in reversed(coeffs.b_hat)] + [1.0]
    return _rational(coeffs.a_hat[::-1], den, zinv, w, "response denominator")


def analytic_response_continuous(
    tf: ContinuousTransferFunction, omega: float
) -> complex:
    """H(j*omega) of the continuous transfer function, omega in rad/s > 0."""
    return complex(_continuous(tf, [omega])[0])


def analytic_response_digital(
    coeffs: DigitalFilterCoefficients, omega: float
) -> complex:
    """Difference-equation response at z = exp(j*omega*dt).

    Evaluates (sum a_hat[k] z^-k) / (1 - sum b_hat[k] z^-(k+1)).  omega is
    rad/s and must sit strictly below the Nyquist angular frequency
    pi * loop_rate.
    """
    return complex(_digital(coeffs, [omega])[0])


def _to_points(
    freqs_hz: Sequence[float], response: Sequence[complex]
) -> list[FrequencyResponsePoint]:
    h = np.asarray(response, dtype=complex)
    with np.errstate(divide="ignore"):
        mag_db = 20.0 * np.log10(np.abs(h))
    phase_deg = np.degrees(np.unwrap(np.angle(h)))
    freqs = np.asarray(freqs_hz, dtype=float).tolist()
    return [
        FrequencyResponsePoint(f, m, p)
        for f, m, p in zip(freqs, mag_db.tolist(), phase_deg.tolist())
    ]


def bode_continuous(
    tf: ContinuousTransferFunction, freqs_hz: Sequence[float]
) -> list[FrequencyResponsePoint]:
    """Analytic continuous response over a frequency grid (Hz)."""
    omega = 2.0 * math.pi * np.asarray(freqs_hz, dtype=float)
    return _to_points(freqs_hz, _continuous(tf, omega))


def bode_digital(
    coeffs: DigitalFilterCoefficients, freqs_hz: Sequence[float]
) -> list[FrequencyResponsePoint]:
    """Analytic digital response over a frequency grid (Hz)."""
    omega = 2.0 * math.pi * np.asarray(freqs_hz, dtype=float)
    return _to_points(freqs_hz, _digital(coeffs, omega))


def _fit_quadrature(
    sin_ref: np.ndarray, cos_ref: np.ndarray, u: np.ndarray, edges: Sequence[int]
) -> np.ndarray:
    # Least-squares fit u ~ p*sin_ref + q*cos_ref via the 2x2 normal
    # equations on each window [edges[0], edges[1]), [edges[2], edges[3]),
    # ...; with an odd count the last window runs to the end.  Returns
    # p + jq per window.  Solving exactly (instead of summing
    # u*exp(-j*phase)) removes the second-harmonic leakage of short
    # windows.  Each sum is its own reduceat segment: a difference of
    # running sums would cancel away a stopband's or a notch's few digits.
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


def _settle_samples(coeffs: DigitalFilterCoefficients) -> int | None:
    """Samples until the impulse-response tail falls to SETTLE_TAIL_RTOL.

    None where no such length is found: a pole on or outside the unit
    circle, or a tail that outlasts half of SETTLE_MAX_SAMPLES.
    """
    if max(pole_radii(coeffs), default=0.0) >= 1.0 - UNIT_CIRCLE_MARGIN:
        return None
    n = 1024
    while n <= SETTLE_MAX_SAMPLES:
        impulse = np.zeros(n)
        impulse[0] = 1.0
        h = filter_series(
            coeffs, TimeSeries(coeffs.loop_rate_hz, impulse), use_startup_heuristic=False
        )
        # tail[k] = sum_{j>=k} |h_j|, summed from the far end.
        tail = np.cumsum(np.abs(h.samples[::-1]))[::-1]
        limit = SETTLE_TAIL_RTOL * tail[0]
        if tail[n // 2] <= limit:
            return int(np.argmax(tail <= limit))
        n *= 4
    return None


def stepped_sine_bode(
    coeffs: DigitalFilterCoefficients,
    freq_grid_hz: Sequence[float],
    settle_cycles: int | None = None,
    measure_cycles: int = 5,
) -> list[FrequencyResponsePoint]:
    """Measure the response one frequency at a time with unit sines.

    Parameters
    ----------
    coeffs : DigitalFilterCoefficients
        The filter under test; runs at its design rate.
    freq_grid_hz : sequence of float
        Probe frequencies, each below STEPPED_SINE_MAX_FREQ_FRACTION of the
        loop rate.
    settle_cycles : int, optional
        Input cycles discarded before measuring (>= 5); lets the filter
        transient die off.  By default every probe settles for the design's
        own memory instead: the samples after which its impulse-response
        tail is at most SETTLE_TAIL_RTOL of its total, or
        FALLBACK_SETTLE_CYCLES cycles where that cannot be found (see
        SETTLE_MAX_SAMPLES).
    measure_cycles : int
        Input cycles fitted with least squares (>= 2).

    Returns
    -------
    list of FrequencyResponsePoint
        Magnitude 20*log10 sqrt(p**2 + q**2) and phase atan2(q, p) of the
        fit y ~ p sin + q cos, phase unwrapped along the grid.
    """
    if settle_cycles is not None and settle_cycles < 5:
        raise ValueError("settle_cycles must be at least 5")
    if measure_cycles < 2:
        raise ValueError("measure_cycles must be at least 2")
    rate = coeffs.loop_rate_hz
    freqs = [float(f) for f in freq_grid_hz]
    if not freqs:
        raise ValueError("frequency grid is empty")
    for f in freqs:
        if not (0.0 < f < STEPPED_SINE_MAX_FREQ_FRACTION * rate):
            raise ValueError(
                f"grid frequency {f} Hz outside (0, "
                f"{STEPPED_SINE_MAX_FREQ_FRACTION} * loop rate)"
            )
    settle = None
    if settle_cycles is None:
        settle = _settle_samples(coeffs)
        settle_cycles = FALLBACK_SETTLE_CYCLES
    responses = []
    for f in freqs:
        cycles = settle_cycles if settle is None else settle * f / rate
        duration = (cycles + measure_cycles) / f
        series = generate_sine(f, 1.0, 0.0, duration, rate)
        out = filter_series(coeffs, series)
        i0 = int(round(cycles / f * rate))
        # A unit sine with no offset is its own sine reference.
        cos_ref = np.cos(2.0 * math.pi * f * series.times[i0:])
        responses.append(
            _fit_quadrature(series.samples[i0:], cos_ref, out.samples[i0:], [0])[0]
        )
    return _to_points(freqs, responses)


def chirp_bode(
    coeffs: DigitalFilterCoefficients,
    spec: ChirpSpec,
    window_cycles: float = 4.0,
    hop_cycles: float = 1.0,
) -> list[FrequencyResponsePoint]:
    """Measure the response in one pass by demodulating a chirp.

    The chirp A*sin_i (A = ``spec.amplitude``) is filtered once.  The output alone is demodulated,
    against the generator's own phasor states (sin_i, cos_i), over sliding
    windows spanning ``window_cycles`` of the accumulated phase and hopping
    by ``hop_cycles``; the input is known exactly, so the fit divided by A
    is the response, one point per window at the window's average
    frequency.  Windows that would run past the end of the sweep are
    dropped, not padded, and so are windows of fewer than 4 samples.

    The sweep must cover at least two decades, have an amplitude of at
    least the smallest normal float in magnitude (the filter flushes
    smaller inputs to zero) and be sampled at the filter's design rate;
    :func:`~tustin.runtime.filter_series` raises RateMismatchError otherwise.
    """
    if spec.omega_max < 100.0 * spec.omega_min:
        raise ValueError("sweep must cover at least two decades")
    if abs(spec.amplitude) < sys.float_info.min:
        raise ValueError(
            f"chirp amplitude must be at least {sys.float_info.min!r} in magnitude "
            f"(the filter flushes smaller inputs to zero), got {spec.amplitude!r}"
        )
    if window_cycles <= 0.0 or hop_cycles <= 0.0:
        raise ValueError("window_cycles and hop_cycles must be positive")
    cos_states, sin_states = chirp_quadrature(spec)
    y = filter_series(coeffs, TimeSeries(spec.sample_rate, spec.amplitude * sin_states))
    phase = chirp_phase(spec)
    window_span = 2.0 * math.pi * window_cycles
    hop_span = 2.0 * math.pi * hop_cycles
    # One window more than fit, so rounding cannot lose the last one.
    starts = np.arange((phase[-1] - window_span) // hop_span + 2.0) * hop_span
    ends = starts + window_span
    i0 = np.searchsorted(phase, starts, side="left")
    i1 = np.searchsorted(phase, ends, side="left")
    keep = (ends <= phase[-1]) & (i1 - i0 >= 4)
    i0, i1 = i0[keep], i1[keep]
    if not i0.size:
        raise ValueError("sweep too short: no demodulation window fits")
    # Every kept window ends at or before the last sample (end <= phase[-1]),
    # so the interleaved edges are valid reduceat indices.
    edges = np.column_stack([i0, i1]).ravel()
    fit = _fit_quadrature(sin_states, cos_states, y.samples, edges)
    elapsed = (i1 - 1 - i0) * (1.0 / spec.sample_rate)
    freqs = (phase[i1 - 1] - phase[i0]) / elapsed / (2.0 * math.pi)
    return _to_points(freqs, fit / spec.amplitude)


def _sorted_curve(
    points: Sequence[FrequencyResponsePoint], which: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frequency, floor-clamped magnitude and phase, in frequency order.

    A nan anywhere would make the deviations nan, which pass any threshold,
    so a curve holding one, or an infinity that could meet another, is
    refused with its name.
    """
    f, mag, ph = np.array([[p.freq_hz, p.magnitude_db, p.phase_deg] for p in points]).T
    if not np.all((f > 0.0) & (f < np.inf)):
        raise ValueError(f"{which} curve: frequencies must be finite and positive")
    # -inf dB is a transmission zero, clamped to the floor below.
    if not (np.all(mag < np.inf) and np.all(np.isfinite(ph))):
        raise ValueError(f"{which} curve: magnitudes must be below +inf, phases finite")
    order = np.argsort(f)
    return f[order], np.maximum(mag[order], MAGNITUDE_DB_FLOOR), ph[order]


def compare_responses(
    a: Sequence[FrequencyResponsePoint], b: Sequence[FrequencyResponsePoint]
) -> ResponseComparison:
    """Deviations between two curves on their common frequency range.

    The second curve is interpolated onto the first curve's grid points
    inside the overlap, linearly in log-frequency; it may repeat a point
    but not give two different responses at one frequency.  Magnitudes
    below the -300 dB file floor are clamped before differencing so a
    transmission zero does not produce an infinite deviation.
    """
    if not a or not b:
        raise ValueError("cannot compare an empty response curve")
    fa, mag_a, ph_a = _sorted_curve(a, "first")
    fb, mag_b, ph_b = _sorted_curve(b, "second")
    # Interpolation needs one value per log-frequency knot: repeated points
    # of the second curve must agree, or the deviation depends on which one
    # np.interp happens to pick.
    xb = np.log10(fb)
    same = np.flatnonzero(xb[1:] == xb[:-1])
    split = same[(mag_b[same] != mag_b[same + 1]) | (ph_b[same] != ph_b[same + 1])]
    if split.size:
        raise ValueError(
            f"second curve: two different responses at {fb[split[0]].item()!r} Hz"
        )
    lo = max(fa[0], fb[0])
    hi = min(fa[-1], fb[-1])
    if lo > hi:
        raise DisjointRangesError(
            f"no overlap: [{fa[0]}, {fa[-1]}] Hz vs [{fb[0]}, {fb[-1]}] Hz"
        )
    keep = (fa >= lo) & (fa <= hi)
    xc = np.log10(fa[keep])
    dmag = np.abs(mag_a[keep] - np.interp(xc, xb, mag_b))
    dph = np.abs(ph_a[keep] - np.interp(xc, xb, ph_b))
    return ResponseComparison(
        points_compared=int(xc.size),
        max_abs_magnitude_db=float(dmag.max()),
        mean_abs_magnitude_db=float(dmag.mean()),
        max_abs_phase_deg=float(dph.max()),
        mean_abs_phase_deg=float(dph.mean()),
    )


def write_bode_csv(points: Iterable[FrequencyResponsePoint], fh: TextIO) -> None:
    """Write a response curve as CSV with 9 significant digits."""
    pts = list(points)
    write_csv(fh, BODE_CSV_HEADER, [
        [p.freq_hz for p in pts],
        np.maximum([p.magnitude_db for p in pts], MAGNITUDE_DB_FLOOR),
        [p.phase_deg for p in pts],
    ])


def read_bode_csv(fh: TextIO) -> list[FrequencyResponsePoint]:
    """Read a response curve written by write_bode_csv."""
    rows = read_csv(fh, BODE_CSV_HEADER).tolist()
    return [FrequencyResponsePoint(*row) for row in rows]
