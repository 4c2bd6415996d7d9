"""Stock continuous-time filters, ready for discretization.

All corner/notch parameters are angular frequencies in rad/s; the CLI layer
converts from Hz.  Each constructor returns a causal
:class:`~tustin.discretize.ContinuousTransferFunction`.
"""

from __future__ import annotations

import math

from .discretize import ContinuousTransferFunction, _positive


def lowpass1(omega0: float) -> ContinuousTransferFunction:
    """First-order low-pass 1 / (s/omega0 + 1)."""
    w = _positive("omega0", omega0)
    return ContinuousTransferFunction.from_descending([1.0], [1.0 / w, 1.0])


def butterworth2(omega_c: float) -> ContinuousTransferFunction:
    """Second-order Butterworth low-pass, -3 dB at omega_c."""
    w = _positive("omega_c", omega_c)
    return ContinuousTransferFunction.from_descending(
        [w * w], [1.0, math.sqrt(2.0) * w, w * w]
    )


def notch(omega_n: float, q: float) -> ContinuousTransferFunction:
    """Unity-gain notch (s^2 + omega_n^2) / (s^2 + omega_n/q s + omega_n^2)."""
    w = _positive("omega_n", omega_n)
    qq = _positive("q", q)
    return ContinuousTransferFunction.from_descending(
        [1.0, 0.0, w * w], [1.0, w / qq, w * w]
    )


def pid(kp: float, ki: float, kd: float, tau: float) -> ContinuousTransferFunction:
    """PID with a first-order roll-off on the derivative branch.

    Kp + Ki/s + Kd*tau*s/(s + tau), put over the common denominator
    s*(s + tau).  tau bounds the derivative gain at high frequency.
    """
    t = _positive("tau", tau)
    for name, v in (("kp", kp), ("ki", ki), ("kd", kd)):
        if not math.isfinite(float(v)):
            raise ValueError(f"{name} must be finite, got {v!r}")
    return ContinuousTransferFunction.from_descending(
        [kp + kd * t, kp * t + ki, ki * t], [1.0, t, 0.0]
    )


def leadlag(gain: float, zero: float, pole: float) -> ContinuousTransferFunction:
    """Lead-lag section gain * (s + zero) / (s + pole).

    High-frequency magnitude tends to |gain|, DC gain is gain*zero/pole.
    """
    p = _positive("pole", pole)
    g = float(gain)
    z = float(zero)
    if not math.isfinite(g) or g == 0.0:
        raise ValueError(f"gain must be nonzero and finite, got {gain!r}")
    if not math.isfinite(z):
        raise ValueError(f"zero must be finite, got {zero!r}")
    return ContinuousTransferFunction.from_descending([g, g * z], [1.0, p])


def multiorder_example() -> ContinuousTransferFunction:
    """A fixed third-order section with widely spread coefficients.

    Exercises the pipeline on a transfer function whose coefficients span
    eight orders of magnitude; useful as a stress fixture.
    """
    return ContinuousTransferFunction.from_descending(
        [196.92, 21033.79, 427573.90, 18317222.93],
        [1.0, 382.16, 60851.34, 3875784.59],
    )
