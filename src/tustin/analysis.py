"""Frequency-response verification of designed filters.

Three independent views of the same filter are available:

* analytic continuous response N(jw)/D(jw) of the source transfer function,
* analytic digital response of the difference equation on the unit circle,
* measured responses, by stepped-sine fitting or as a chirp's spectral ratio.

Both analytic views are numpy's ``np.polyval(num, x) / np.polyval(den, x)``
on the whole grid, bit for bit, with x = j*w or z^-1 = exp(-j*w*dt).

The measured views know their input exactly.  Stepped sine fits only the
filter output, by least squares against the probe sine itself.  The chirp
divides the DFT of the filter output by that of the sweep, both zero-padded
past the design's impulse-response tail, so the ratio is the response at
each bin up to that tail and rounding.  Both settle by one rule,
:func:`_settle`, and both filter what it leaves: the design itself, or,
with a pole at z = 1 such as pid's integrator, the quotient
Q = (1 - z^-1) H, whose measured response they divide by 1 - e^-jw.

Because the design applies no prewarping, the digital response at angular
frequency w equals the continuous response at 2*f_l*tan(w*dt/2); curves are
expected to diverge near the Nyquist frequency and agree well below it.

Measured and analytic curves are exchanged as :class:`ResponseCurve`, a
read-only sequence of :class:`FrequencyResponsePoint` (a NamedTuple
``(freq_hz, magnitude_db, phase_deg)``) kept as its N x 3 float64 table in
those columns, and serialize to/from a three-column CSV with the same
columns.  The evaluators, the CSV writer and the comparison work on the
table; a point is built only when it is read.  Magnitudes at exact
transmission zeros are -inf in memory and clamp to -300 dB in files.
"""

from __future__ import annotations

import math
import operator
from collections import abc
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, NamedTuple, Sequence, TextIO

import numpy as np

from .discretize import (UNIT_CIRCLE_MARGIN, ContinuousTransferFunction,
                         DigitalFilterCoefficients, _split_pole_at_one, pole_radii)
from .csvio import read_csv, write_csv
from .runtime import filter_series
# Not called here: perfbench's span tests expect the fold in this namespace.
from .runtime import process  # noqa: F401
from .signals import ChirpSpec, TimeSeries, chirp_quadrature, generate_sine

BODE_CSV_HEADER = "freq_hz,magnitude_db,phase_deg"

# File-format stand-in for -inf dB at transmission zeros.
MAGNITUDE_DB_FLOOR = -300.0

# Stepped-sine grids must stay below this fraction of the loop rate; above
# it the per-cycle sample count is too small for a trustworthy fit.
STEPPED_SINE_MAX_FREQ_FRACTION = 0.45

# A stepped-sine probe settles until the impulse response's tail
# sum_{j>=k} |h_j| is at most this fraction of sum |h|: a unit sine started
# from rest is then that close to its steady state at every measured
# sample.  chirp_bode zero-pads its sweep by the same tail.
SETTLE_TAIL_RTOL = 1e-12

# The longest impulse response run to find that tail, in samples.  Both
# measured methods refuse a design whose tail outlasts half of it (a pole
# within about 5e-5 of the unit circle).
SETTLE_MAX_SAMPLES = 2**20

# Input cycles a stepped-sine probe fits after it has settled.
MEASURE_CYCLES = 5

# chirp_bode reports the DFT bins nearest a log grid of this many points
# over the sweep band, the default grid size of the other methods.
CHIRP_POINTS = 200


class AboveNyquistError(ValueError):
    """Requested frequency is at or above the Nyquist frequency."""


class DenominatorZeroError(ZeroDivisionError):
    """The response denominator vanished at the requested frequency."""


class DisjointRangesError(ValueError):
    """Two response curves share no frequency overlap."""


class FrequencyResponsePoint(NamedTuple):
    """One point of a response curve.  A tuple: it unpacks and indexes, and
    equals and hashes as the plain tuple of its three fields."""

    freq_hz: float
    magnitude_db: float
    phase_deg: float


class ResponseCurve(abc.Sequence):
    """A response curve: a read-only sequence of FrequencyResponsePoint.

    ``table`` is the curve, an N x 3 float64 array of ``freq_hz``,
    ``magnitude_db`` and ``phase_deg`` with its write flag cleared; the
    constructor copies any N x 3 table into one and refuses other shapes.
    Indexing and iteration build points of Python floats, bitwise the
    table's, only when they are read; a slice is a curve.  Two curves are
    equal when their tables are (nan unequal, -0.0 equal to 0.0, as for
    lists of floats); a curve and another sequence compare as lists.  Like
    a list it is unhashable, and ``np.array(curve)`` is a writable copy of
    the table.  ``list(curve)`` is the list of its points.
    """

    __slots__ = ("table",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, table: Sequence[Sequence[float]] | np.ndarray) -> None:
        t = np.array(table, dtype=np.float64)
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError(f"a response curve is an N x 3 table, got shape {t.shape}")
        t.flags.writeable = False
        self.table = t

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ResponseCurve(self.table[i])
        return tuple.__new__(FrequencyResponsePoint, self.table[operator.index(i)].tolist())

    def __iter__(self):
        # Column lists zipped into rows: a third cheaper than one list per row.
        # tuple.__new__ is the C constructor, which FrequencyResponsePoint._make
        # wraps in Python code (3.10-3.12).
        return map(tuple.__new__, repeat(FrequencyResponsePoint), zip(*self.table.T.tolist()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResponseCurve):
            return self.table.shape == other.table.shape and bool(np.all(self.table == other.table))
        if isinstance(other, abc.Sequence) and not isinstance(other, (str, bytes)):
            return list(self) == list(other)
        return NotImplemented

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # numpy >= 2 passes copy; the table itself is never handed out.
        if copy is False:
            raise ValueError("a curve's array is a copy of its read-only table; read .table instead")
        return np.array(self.table, dtype=dtype)

    def __reduce__(self):
        # Through the constructor, so an unpickled table is read-only too.
        return ResponseCurve, (self.table,)

    def __repr__(self) -> str:
        return f"ResponseCurve({self.table!r})"


@dataclass(frozen=True)
class ResponseComparison:
    """Absolute deviations between two curves on their common grid."""

    points_compared: int
    max_abs_magnitude_db: float
    mean_abs_magnitude_db: float
    max_abs_phase_deg: float
    mean_abs_phase_deg: float


def _one_dimensional(grid: Sequence[float]) -> np.ndarray:
    g = np.asarray(grid)
    if g.ndim != 1:
        raise ValueError(f"frequency grid must be one-dimensional, got shape {g.shape}")
    return g


def _checked_omegas(omega: Sequence[float]) -> np.ndarray:
    w = _one_dimensional(omega)
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
    if bad.size:
        raise ValueError(
            f"omega must be positive and finite, got {w[bad[0]].item()!r}"
        )
    return w


def _below_nyquist(omega: np.ndarray, rate_hz: float, what: str) -> None:
    # Raises AboveNyquistError naming the first omega at or above pi * rate.
    nyquist = math.pi * rate_hz
    above = np.flatnonzero(omega >= nyquist)
    if above.size:
        raise AboveNyquistError(
            f"{what} = {omega[above[0]].item()} rad/s is not below the Nyquist "
            f"angular frequency {nyquist} rad/s"
        )


def _rational(
    num: Sequence[float], den: Sequence[float], x: np.ndarray, w: np.ndarray,
    what: str,
) -> np.ndarray:
    # N(x)/D(x) on a whole grid, both polynomials descending in x.
    d = np.polyval(den, x)
    zero = np.flatnonzero(d == 0.0)
    if zero.size:
        raise DenominatorZeroError(f"{what} vanishes at omega = {w[zero[0]].item()}")
    return np.polyval(num, x) / d


def _continuous(tf: ContinuousTransferFunction, omega: Sequence[float]) -> np.ndarray:
    w = _checked_omegas(omega)
    return _rational(
        tf.numerator.descending(), tf.denominator.descending(), 1j * w, w,
        "denominator",
    )


def _digital(coeffs: DigitalFilterCoefficients, omega: Sequence[float]) -> np.ndarray:
    # (sum a_hat[k] x^k) / (1 - sum b_hat[k] x^(k+1)) at x = z^-1.
    w = _checked_omegas(omega)
    _below_nyquist(w, coeffs.loop_rate_hz, "omega")
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


def _to_points(freqs_hz: Sequence[float], response: Sequence[complex]) -> ResponseCurve:
    h = np.asarray(response, dtype=complex)
    with np.errstate(divide="ignore"):
        mag_db = 20.0 * np.log10(np.abs(h))
    phase_deg = np.degrees(np.unwrap(np.angle(h)))
    return ResponseCurve(np.column_stack([np.asarray(freqs_hz, dtype=float), mag_db, phase_deg]))


def _table(points: Iterable[FrequencyResponsePoint]) -> np.ndarray:
    # A curve's own table, or any other iterable of points as its N x 3
    # table, also for N = 0.  np.array would look up the array protocols on
    # every point (a tuple subclass); one pass over the run of fields takes
    # about a sixth of that time.
    if isinstance(points, ResponseCurve):
        return points.table
    return np.fromiter(chain.from_iterable(points), float).reshape(-1, 3)


def bode_continuous(
    tf: ContinuousTransferFunction, freqs_hz: Sequence[float]
) -> ResponseCurve:
    """Analytic continuous response over a frequency grid (Hz)."""
    omega = 2.0 * math.pi * np.asarray(freqs_hz, dtype=float)
    return _to_points(freqs_hz, _continuous(tf, omega))


def bode_digital(
    coeffs: DigitalFilterCoefficients, freqs_hz: Sequence[float]
) -> ResponseCurve:
    """Analytic digital response over a frequency grid (Hz)."""
    omega = 2.0 * math.pi * np.asarray(freqs_hz, dtype=float)
    return _to_points(freqs_hz, _digital(coeffs, omega))


def _fit_quadrature(sin_ref: np.ndarray, cos_ref: np.ndarray, u: np.ndarray) -> complex:
    # Least-squares fit u ~ p*sin_ref + q*cos_ref via the 2x2 normal
    # equations; returns p + jq.  Solving exactly (instead of summing
    # u*exp(-j*phase)) removes the second-harmonic leakage of a fit over a
    # span that rounding has made not quite whole cycles.  Each product is
    # reduced as it is formed, so one full-length row is alive at a time.
    # The curves' bits pin reduceat's summation order, not np.sum's.
    sss, scc, ssc, us, uc = (np.add.reduceat(p * q, [0])[0] for p, q in (
        (sin_ref, sin_ref), (cos_ref, cos_ref), (sin_ref, cos_ref), (u, sin_ref), (u, cos_ref)))
    det = sss * scc - ssc * ssc
    if det <= 0.0:
        raise ValueError("degenerate stepped-sine fit")
    return complex((scc * us - ssc * uc) / det, (sss * uc - ssc * us) / det)


def _settle(coeffs: DigitalFilterCoefficients,
            method: str) -> tuple[DigitalFilterCoefficients, bool, int]:
    """The design to filter, whether it divides out a pole at z = 1, and
    the samples that design settles in.

    A pole at z = 1, such as pid's integrator, leaves a tail that never
    decays, so it is divided out first (see
    :func:`~tustin.discretize._split_pole_at_one`): the quotient
    Q = (1 - z^-1) H is what both measured methods filter, and
    :func:`_measured_curve` divides its response by that factor.
    Without such a pole the quotient is ``coeffs`` itself.  The quotient
    settles in k samples, the smallest k at which its impulse-response
    tail sum_{j>=k} |h_j| is at most SETTLE_TAIL_RTOL of sum |h|.  The
    ValueError, naming ``method`` and the largest pole radius left, gives
    one of two reasons there is no k: a pole left on or within
    UNIT_CIRCLE_MARGIN of the unit circle, or outside it; or a tail that
    outlasts half of SETTLE_MAX_SAMPLES.
    """
    quotient, integrator = _split_pole_at_one(coeffs)
    radius = max(pole_radii(quotient), default=0.0)
    if radius >= 1.0 - UNIT_CIRCLE_MARGIN:
        reason = "a z-pole other than one at z = 1 lies on or outside the unit circle"
    else:
        reason = f"the impulse response outlasts {SETTLE_MAX_SAMPLES // 2} samples"
        n = 1024
        while n <= SETTLE_MAX_SAMPLES:
            impulse = np.zeros(n)
            impulse[0] = 1.0
            h = filter_series(quotient, TimeSeries(quotient.loop_rate_hz, impulse),
                              use_startup_heuristic=False)
            # tail[k] = sum_{j>=k} |h_j|, summed from the far end.
            tail = np.cumsum(np.abs(h.samples[::-1]))[::-1]
            limit = SETTLE_TAIL_RTOL * tail[0]
            if tail[n // 2] <= limit:
                return quotient, integrator, int(np.argmax(tail <= limit))
            n *= 4
    raise ValueError(f"{method} bode: {reason}; the largest radius is {radius!r}")


def _measured_curve(freqs_hz: Sequence[float], q: Sequence[complex], integrator: bool,
                    rate_hz: float) -> ResponseCurve:
    # The curve of q, the measured response of the quotient from _settle.
    # With a pole at z = 1 divided out, H = q / (1 - e^-jw), w = 2 pi f /
    # rate_hz, the divisor written as 2j sin(w/2) e^(-jw/2): 1 - e^-jw loses
    # about eps/w of relative accuracy at small w, and w is 6e-6 rad at
    # 0.1 Hz and 100 kHz.
    if integrator:
        half = math.pi * np.asarray(freqs_hz) / rate_hz
        q = np.asarray(q) / (2j * np.sin(half) * np.exp(-1j * half))
    return _to_points(freqs_hz, q)


def stepped_sine_bode(
    coeffs: DigitalFilterCoefficients, freq_grid_hz: Sequence[float]
) -> ResponseCurve:
    """Measure the response one frequency at a time with unit sines.

    Parameters
    ----------
    coeffs : DigitalFilterCoefficients
        The filter under test; runs at its design rate.
    freq_grid_hz : sequence of float
        Probe frequencies, a one-dimensional grid, each below
        STEPPED_SINE_MAX_FREQ_FRACTION of the loop rate.

    Every probe settles for the design's own memory, the samples
    :func:`_settle` finds, and then fits MEASURE_CYCLES input cycles;
    a design that cannot settle is refused there with ValueError.  With a
    pole at z = 1 every probe runs the quotient Q = (1 - z^-1) H instead,
    and each fitted Q is divided by 1 - e^-jw.

    Returns
    -------
    ResponseCurve
        One point per grid frequency, in grid order: magnitude
        20*log10 sqrt(p**2 + q**2) and phase atan2(q, p) of the fit
        y ~ p sin + q cos, phase unwrapped along the grid.
    """
    rate = coeffs.loop_rate_hz
    freqs = [float(f) for f in _one_dimensional(freq_grid_hz)]
    if not freqs:
        raise ValueError("frequency grid is empty")
    for f in freqs:
        if not (0.0 < f < STEPPED_SINE_MAX_FREQ_FRACTION * rate):
            raise ValueError(
                f"grid frequency {f} Hz outside (0, "
                f"{STEPPED_SINE_MAX_FREQ_FRACTION} * loop rate)"
            )
    quotient, integrator, settle = _settle(coeffs, "stepped")
    responses = []
    for f in freqs:
        # settle samples, then MEASURE_CYCLES cycles to fit.  A unit sine
        # with no offset is its own sine reference.
        series = generate_sine(f, 1.0, 0.0, (settle * f / rate + MEASURE_CYCLES) / f, rate)
        out = filter_series(quotient, series)
        cos_ref = np.cos(2.0 * math.pi * f * series.times[settle:])
        responses.append(_fit_quadrature(series.samples[settle:], cos_ref, out.samples[settle:]))
    return _measured_curve(freqs, responses, integrator, rate)


def chirp_bode(coeffs: DigitalFilterCoefficients, spec: ChirpSpec) -> ResponseCurve:
    """Measure the response in one pass as the ratio of two spectra.

    The unit sweep x = sin_i of ``spec``'s law, band and length (its
    amplitude is not read: H = Y/X does not depend on it) is zero-padded
    to N samples, the next power of two at or above its length plus the
    design's impulse-response tail (see :func:`_settle`), and filtered
    once from rest.  The input is known exactly and y = h * x, so the
    response is H = Y/X, the ratio of their DFTs, exact up to that tail
    and rounding.  It is reported at the distinct DFT bins nearest a
    CHIRP_POINTS-point log grid over the sweep band, keeping only bins
    strictly inside it; a band or sweep that leaves fewer than two is
    refused.

    A design that cannot settle is refused there with ValueError.  With a
    pole at z = 1, such as pid's integrator, the sweep runs through the
    quotient Q = (1 - z^-1) H instead, and H = (Y/X) / (1 - e^-jw).

    The sweep must end below the Nyquist frequency (AboveNyquistError
    otherwise) and be sampled at the filter's design rate;
    :func:`~tustin.runtime.filter_series` raises RateMismatchError otherwise.
    """
    # Above Nyquist the samples are those of an alias; its response would be
    # reported at the wrong frequency.
    _below_nyquist(np.array([spec.omega_max]), spec.sample_rate, "sweep end omega")
    quotient, integrator, tail = _settle(coeffs, "chirp")
    x = chirp_quadrature(spec)[1]
    n = 1 << (len(x) + tail - 1).bit_length()
    x = np.pad(x, (0, n - len(x)))
    y = filter_series(quotient, TimeSeries(spec.sample_rate, x), use_startup_heuristic=False).samples
    fmin, fmax = spec.omega_min / (2.0 * math.pi), spec.omega_max / (2.0 * math.pi)
    step = spec.sample_rate / n
    bins = np.unique(np.rint(np.geomspace(fmin, fmax, CHIRP_POINTS) / step).astype(int))
    bins = bins[(bins * step > fmin) & (bins * step < fmax)]
    if bins.size < 2:
        raise ValueError(
            f"sweep of {spec.duration_s!r} s is too short: zero-padded to {n} samples, "
            f"it puts {bins.size} DFT bins inside {fmin:.9g}-{fmax:.9g} Hz, fewer than 2"
        )
    # One rfft per row: numpy's batched one took 8 ms at N = 2^17, two 5 ms.
    big_x, big_y = (np.fft.rfft(u)[bins] for u in (x, y))
    (xr, xi), (yr, yi) = (big_x.real, big_x.imag), (big_y.real, big_y.imag)
    # Y conj(X) / |X|^2 in real arithmetic is exactly 1 where Y == X;
    # numpy's complex division is not, nor its product where it fuses a
    # multiply and an add.
    norm = xr * xr + xi * xi
    h = (yr * xr + yi * xi) / norm + 1j * ((yi * xr - yr * xi) / norm)
    return _measured_curve(bins * step, h, integrator, spec.sample_rate)


def _sorted_curve(
    points: Sequence[FrequencyResponsePoint], which: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frequency, floor-clamped magnitude and phase, in frequency order.

    A nan anywhere would make the deviations nan, which pass any threshold,
    so a curve holding one, or an infinity that could meet another, is
    refused with its name.
    """
    f, mag, ph = _table(points).T
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
    f, mag, ph = _table(points).T
    write_csv(fh, BODE_CSV_HEADER, [f, np.maximum(mag, MAGNITUDE_DB_FLOOR), ph])


def read_bode_csv(fh: TextIO) -> ResponseCurve:
    """Read a response curve written by write_bode_csv."""
    return ResponseCurve(read_csv(fh, BODE_CSV_HEADER))
