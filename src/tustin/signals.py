"""Test-signal generation: swept sines (chirps) and fixed sines.

A chirp sample is never computed as sin(big phase).  Each step rotates a
unit phasor by the current instantaneous angle increment

    cos_i = cos(w_c dt) cos_{i-1} - sin(w_c dt) sin_{i-1}
    sin_i = sin(w_c dt) cos_{i-1} + cos(w_c dt) sin_{i-1}

seeded at (1, 0), with w_c evaluated at the sample's own time i*dt (left
endpoint of the sweep law).  The recursion is evaluated as a running
complex product of the step phasors cos(w_c dt) + j sin(w_c dt), which
performs the same multiplies in the same order.  The rotation keeps
cos**2 + sin**2 pinned to 1 to rounding error over millions of samples.
:func:`generate_chirp` scales the sine states by the amplitude.  The chirp
Bode measurement filters the unit sweep, those sine states themselves, and
divides by its spectrum, so generator and analyzer share the very same
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discretize import _finite, _positive

# Hard cap on duration * sample_rate; beyond this the sample count no
# longer fits comfortably in memory and is certainly a typo.
MAX_SAMPLES = 1_000_000_000

CHIRP_KINDS = ("linear", "exponential")


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real signal.

    Samples are stored as a read-only float64 array; ``t0`` is the time of
    the first sample.  All samples must be finite.
    """

    sample_rate: float
    samples: np.ndarray
    t0: float = 0.0

    def __post_init__(self) -> None:
        rate = _positive("sample rate", self.sample_rate)
        data = np.asarray(self.samples, dtype=np.float64)
        if data.ndim != 1 or data.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(data)):
            raise ValueError("samples must all be finite")
        data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "sample_rate", rate)
        object.__setattr__(self, "samples", data)
        object.__setattr__(self, "t0", float(self.t0))

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self)) / self.sample_rate


@dataclass(frozen=True)
class ChirpSpec:
    """Parameters of a frequency sweep.

    kind is "linear" or "exponential"; omega bounds are rad/s with
    0 < omega_min < omega_max; duration_s spans the sweep; amplitude may be
    any finite value (0 gives a silent series).
    """

    kind: str
    omega_min: float
    omega_max: float
    duration_s: float
    amplitude: float
    sample_rate: float

    def __post_init__(self) -> None:
        if self.kind not in CHIRP_KINDS:
            raise ValueError(f"kind must be one of {CHIRP_KINDS}, got {self.kind!r}")
        for name, check in (("omega_max", _finite), ("amplitude", _finite),
                            ("omega_min", _positive), ("duration_s", _positive),
                            ("sample_rate", _positive)):
            object.__setattr__(self, name, check(name, getattr(self, name)))
        if self.omega_max <= self.omega_min:
            raise ValueError("omega_max must exceed omega_min")
        if sample_count(self) < 2:
            raise ValueError("sweep is shorter than two samples")


def _sample_count(duration_s: float, sample_rate: float) -> int:
    # Samples at times i/rate inside [0, duration), at most MAX_SAMPLES.
    if duration_s * sample_rate > MAX_SAMPLES:
        raise ValueError(f"duration * rate exceeds {MAX_SAMPLES} samples; refusing")
    return int(round(duration_s * sample_rate))


def sample_count(spec: ChirpSpec) -> int:
    """Number of samples in the sweep; times i/rate stay inside [0, T)."""
    return _sample_count(spec.duration_s, spec.sample_rate)


def instantaneous_frequency(spec: ChirpSpec, t: float) -> float:
    """Sweep law w_c(t) in rad/s, defined on 0 <= t <= duration.

    Linear sweeps interpolate the omega bounds; exponential sweeps follow
    omega_min * (omega_max/omega_min)**(t/T).  Both hit the bounds exactly
    (to rounding) at t = 0 and t = T.
    """
    t = float(t)
    if not (0.0 <= t <= spec.duration_s):
        raise ValueError(
            f"t = {t} outside the sweep interval [0, {spec.duration_s}]"
        )
    return _sweep_law(spec, t)


def _sweep_law(spec: ChirpSpec, t):
    # w_c at a time or at an array of times.
    if spec.kind == "linear":
        return (spec.omega_max - spec.omega_min) / spec.duration_s * t + spec.omega_min
    return spec.omega_min * (spec.omega_max / spec.omega_min) ** (t / spec.duration_s)


def _step_angles(spec: ChirpSpec) -> np.ndarray:
    # Angle increments theta_i = w_c(i*dt)*dt for i = 1 .. N-1; step i
    # rotates sample i-1 into sample i.
    t = np.arange(1, sample_count(spec)) / spec.sample_rate
    return _sweep_law(spec, t) / spec.sample_rate


def chirp_quadrature(spec: ChirpSpec) -> tuple[np.ndarray, np.ndarray]:
    """Unit phasor states (cos_i, sin_i) of the sweep recursion."""
    theta = _step_angles(spec)
    steps = np.empty(len(theta) + 1, dtype=complex)
    steps[0] = 1.0
    steps.real[1:] = np.cos(theta)
    steps.imag[1:] = np.sin(theta)
    states = np.cumprod(steps)
    return states.real.copy(), states.imag.copy()


def generate_chirp(spec: ChirpSpec) -> TimeSeries:
    """Swept sine A*sin(accumulated phase), starting from zero crossing."""
    _, sin_states = chirp_quadrature(spec)
    return TimeSeries(spec.sample_rate, spec.amplitude * sin_states)


def generate_sine(
    freq_hz: float,
    amplitude: float,
    offset: float,
    duration_s: float,
    sample_rate: float,
) -> TimeSeries:
    """Fixed sine amplitude*sin(2 pi f t) + offset on t = i/rate in [0, T)."""
    freq_hz = _finite("freq_hz", freq_hz)
    amplitude = _finite("amplitude", amplitude)
    offset = _finite("offset", offset)
    if freq_hz < 0.0:
        raise ValueError("freq_hz must be nonnegative")
    duration_s = _positive("duration_s", duration_s)
    sample_rate = _positive("sample_rate", sample_rate)
    n = _sample_count(duration_s, sample_rate)
    if n < 1:
        raise ValueError("duration is shorter than one sample")
    t = np.arange(n) / sample_rate
    return TimeSeries(sample_rate, amplitude * np.sin(2.0 * math.pi * freq_hz * t) + offset)
