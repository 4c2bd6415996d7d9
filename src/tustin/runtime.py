"""Fixed-rate execution of a designed difference equation.

Each tick computes y[0] = b_hat . y_prev + a_hat . x_hist, shifts the new
input and output into their histories and returns y[0].  Histories are
fixed-length deques ordered most-recent-first: a shift register in which
appending the newest value drops the oldest, so a tick is O(order).

On the very first tick both histories are filled with the first input
before the normal update runs.  For a unity-DC filter that starts the
output on top of the input instead of ramping from zero; disable it with
``use_startup_heuristic=False`` to get the classical zero initial state.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from itertools import repeat, takewhile

from .discretize import DigitalFilterCoefficients, pole_radii
from .signals import TimeSeries

import numpy as np

# Inputs below the smallest normal magnitude are flushed to zero before the
# dot products; feeding denormals through an IIR recursion is a well-known
# slow path on real hardware.
_MIN_NORMAL = sys.float_info.min

# Relative disagreement between a series' sample rate and the design rate
# beyond which processing refuses to run.
RATE_RTOL = 1e-9


class RateMismatchError(ValueError):
    """Input series is sampled at a different rate than the filter design."""


class DigitalFilter:
    """Mutable filter state over an immutable coefficient set.

    Single-owner: one thread ticks a filter at a time.  Share the
    coefficients freely, not the filter.
    """

    __slots__ = ("_coeffs", "use_startup_heuristic", "first_tick", "_x", "_y")

    def __init__(
        self,
        coeffs: DigitalFilterCoefficients,
        use_startup_heuristic: bool = True,
    ) -> None:
        self._coeffs = coeffs
        self.use_startup_heuristic = bool(use_startup_heuristic)
        self._x = deque(maxlen=len(coeffs.a_hat))
        self._y = deque(maxlen=len(coeffs.b_hat))
        self.reset()

    @property
    def coeffs(self) -> DigitalFilterCoefficients:
        """The design this filter runs; read-only, its order sizes the histories."""
        return self._coeffs

    @property
    def x_hist(self) -> tuple[float, ...]:
        """Input history, most recent first."""
        return tuple(self._x)

    @property
    def y_hist(self) -> tuple[float, ...]:
        """Output history, most recent first (empty for order 0)."""
        return tuple(self._y)

    def reset(self) -> None:
        """Zero the histories and re-arm the startup heuristic."""
        self._x.extend(repeat(0.0, self._x.maxlen))
        self._y.extend(repeat(0.0, self._y.maxlen))
        self.first_tick = True

    def tick(self, x0: float) -> float:
        """Advance one sample period: take input x0, return output y0."""
        x0 = float(x0)
        if not math.isfinite(x0):
            raise ValueError(f"filter input must be finite, got {x0!r}")
        if -_MIN_NORMAL < x0 < _MIN_NORMAL:
            x0 = 0.0
        x = self._x
        y = self._y
        if self.first_tick:
            self.first_tick = False
            if self.use_startup_heuristic:
                x.extend(repeat(x0, x.maxlen))
                y.extend(repeat(x0, y.maxlen))
        x.appendleft(x0)
        # Plain left-to-right accumulation: process() and the tests pin
        # this summation order bitwise, which sum() or a dot would change.
        acc = 0.0
        for ak, xk in zip(self._coeffs.a_hat, x):
            acc += ak * xk
        for bk, yk in zip(self._coeffs.b_hat, y):
            acc += bk * yk
        y.appendleft(acc)
        return acc


def process(
    coeffs: DigitalFilterCoefficients,
    series: TimeSeries,
    use_startup_heuristic: bool = True,
) -> TimeSeries:
    """Run a fresh filter over a whole series; a fold of tick().

    The series must be sampled at the design loop rate (within RATE_RTOL
    relative), otherwise RateMismatchError is raised.  An output that
    overflows to inf or nan stops the run and raises ValueError naming that
    sample and the design's largest z-pole radius.
    """
    if abs(series.sample_rate - coeffs.loop_rate_hz) > RATE_RTOL * coeffs.loop_rate_hz:
        raise RateMismatchError(
            f"series rate {series.sample_rate} Hz != design rate "
            f"{coeffs.loop_rate_hz} Hz"
        )
    tick = DigitalFilter(coeffs, use_startup_heuristic).tick
    out = np.fromiter(
        takewhile(math.isfinite, map(tick, series.samples.tolist())), np.float64
    )
    if len(out) < len(series):
        raise ValueError(
            f"filter output is not finite from sample {len(out)} on; "
            f"largest z-pole radius {max(pole_radii(coeffs), default=0.0):.6g}"
        )
    return TimeSeries(series.sample_rate, out, series.t0)
