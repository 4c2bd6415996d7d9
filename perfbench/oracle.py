"""References the benchmark checks tustin's outputs against.

Filter outputs are compared with ``scipy.signal.lfilter`` when scipy can be
imported and with a plain recurrence written here otherwise; responses are
evaluated with ``numpy.polyval``.  None of this calls tustin.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance of a filter output, anchored to the segment's scale.
FILTER_RTOL = 1e-9
# Largest rounding of a value written with 9 significant digits, relative.
CSV_9G_RTOL = 5e-9


def scipy_signal():
    """scipy.signal, or None; imported on first use, after the measurement,
    so that it adds nothing to set-up time or peak memory."""
    try:
        import scipy.signal
    except ImportError:  # scipy is a yardstick, never a dependency
        return None
    return scipy.signal


def reference_name() -> str:
    return "scipy.signal.lfilter" if scipy_signal() is not None else "numpy recurrence"


def recurrence(a_hat, b_hat, x: np.ndarray, x0: float) -> np.ndarray:
    """y[i] = sum a_hat[k] x[i-k] + sum b_hat[k] y[i-1-k], one sample at a
    time, with past inputs and outputs starting at x0 (tustin's startup
    heuristic)."""
    a = [float(v) for v in a_hat]
    b = [float(v) for v in b_hat]
    xs = [float(x0)] * len(a)
    ys = [float(x0)] * len(b)
    out = np.empty(len(x))
    for i, v in enumerate(np.asarray(x, dtype=float).tolist()):
        xs = [v] + xs[:-1]
        acc = sum(ak * xk for ak, xk in zip(a, xs)) + sum(bk * yk for bk, yk in zip(b, ys))
        if b:
            ys = [acc] + ys[:-1]
        out[i] = acc
    return out


def filter_reference(a_hat, b_hat, x: np.ndarray) -> np.ndarray:
    """Expected filter output, both histories preloaded with x[0]."""
    x = np.asarray(x, dtype=float)
    x0 = float(x[0])
    sig = scipy_signal()
    if sig is None:
        return recurrence(a_hat, b_hat, x, x0)
    b = np.asarray(a_hat, dtype=float)
    a = np.concatenate(([1.0], -np.asarray(b_hat, dtype=float)))
    n = len(b_hat)
    if n == 0:
        return sig.lfilter(b, a, x)
    zi = sig.lfiltic(b, a, [x0] * n, [x0] * n)
    return sig.lfilter(b, a, x, zi=zi)[0]


def _digital_polys(a_hat, b_hat) -> tuple[list[float], list[float]]:
    # sum a_hat[k] z^-k / (1 - sum b_hat[k] z^-(k+1)), descending in 1/z
    return list(a_hat)[::-1], [-float(v) for v in b_hat][::-1] + [1.0]


def _zinv(rate_hz: float, freqs_hz) -> np.ndarray:
    return np.exp(-2j * math.pi * np.asarray(freqs_hz, dtype=float) / rate_hz)


def continuous_response(num, den, freqs_hz: np.ndarray) -> np.ndarray:
    s = 2j * math.pi * np.asarray(freqs_hz, dtype=float)
    return np.polyval(num, s) / np.polyval(den, s)


def digital_response(a_hat, b_hat, rate_hz: float, freqs_hz: np.ndarray) -> np.ndarray:
    num, den = _digital_polys(a_hat, b_hat)
    zinv = _zinv(rate_hz, freqs_hz)
    return np.polyval(num, zinv) / np.polyval(den, zinv)


def _rounding_bound(num, den, x: np.ndarray) -> np.ndarray:
    # Evaluating a degree-n polynomial in floating point, by Horner's rule or
    # by summing powers, errs by at most about 2 n eps sum |c_k| |x|^k; two
    # such evaluations of N/D can disagree by twice the sum of both relative
    # bounds.  Where D nearly cancels this grows without limit: float64 then
    # cannot pin the response down and any answer within it is right.
    eps = np.finfo(float).eps
    ax = np.abs(x)
    rel = 0.0
    for c in (num, den):
        n = len(c)
        rel = rel + 2 * n * eps * np.polyval(np.abs(c), ax) / np.abs(np.polyval(c, x))
    return 2.0 * rel


def continuous_tolerance(num, den, freqs_hz: np.ndarray) -> np.ndarray:
    """Relative disagreement two correct evaluators may show, per frequency."""
    return _rounding_bound(num, den, 2j * math.pi * np.asarray(freqs_hz, dtype=float))


def digital_tolerance(a_hat, b_hat, rate_hz: float, freqs_hz: np.ndarray) -> np.ndarray:
    num, den = _digital_polys(a_hat, b_hat)
    return _rounding_bound(num, den, _zinv(rate_hz, freqs_hz))


def points_match(points, h: np.ndarray, rtol: np.ndarray) -> bool:
    """Do response points (dB, deg) agree with h within rtol (plus 1e-9)?

    Where rtol reaches 1 the value is lost to rounding and is not checked.
    """
    mag = np.array([p.magnitude_db for p in points])
    ph = np.radians([p.phase_deg for p in points])
    got = 10.0 ** (mag / 20.0) * np.exp(1j * ph)
    ok = (np.abs(got - h) <= (rtol + 1e-9) * np.abs(h)) | (rtol >= 1.0)
    return bool(np.all(ok))


def db_deg(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude (dB) and unwrapped phase (deg) along a grid."""
    with np.errstate(divide="ignore"):
        mag = 20.0 * np.log10(np.abs(h))
    return mag, np.degrees(np.unwrap(np.angle(h)))


def _warped_pair(num, den, a_hat, b_hat, rate_hz: float, freqs_hz) -> tuple[np.ndarray, np.ndarray]:
    """Digital response at f and continuous response at the warped
    frequency f_l tan(pi f / f_l) / pi, which the bilinear map makes equal."""
    warped = rate_hz / math.pi * np.tan(math.pi * np.asarray(freqs_hz) / rate_hz)
    return digital_response(a_hat, b_hat, rate_hz, freqs_hz), continuous_response(num, den, warped)


def warp_error_db(num, den, a_hat, b_hat, rate_hz: float, freqs_hz: np.ndarray) -> float:
    """Largest |dB| gap of the warping identity over the grid."""
    hd, hc = _warped_pair(num, den, a_hat, b_hat, rate_hz, freqs_hz)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        err = np.abs(20.0 * np.log10(np.abs(hd) / np.abs(hc)))
    # a non-finite point has a vanished denominator: no figure to report there
    return float(np.max(err[np.isfinite(err)], initial=0.0))


def warp_error_rel(num, den, a_hat, b_hat, rate_hz: float, freqs_hz: np.ndarray) -> float:
    """Largest |Hd - Hc| / |Hc| of the warping identity (criterion 5's form)."""
    hd, hc = _warped_pair(num, den, a_hat, b_hat, rate_hz, freqs_hz)
    return float(np.max(np.abs(hd - hc) / np.abs(hc)))


def vector_gap(got, ref) -> float:
    """Largest elementwise difference relative to the reference vector's scale."""
    if not len(ref):
        return 0.0
    scale = max(max(abs(v) for v in ref), 1e-300)
    return max(abs(g - r) for g, r in zip(got, ref, strict=True)) / scale
