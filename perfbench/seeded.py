"""Seeded workload inputs.

Everything a workload feeds the program is drawn here from one
``numpy.random.Generator`` seeded by ``--seed``, so the same seed gives
byte-identical inputs (see :func:`input_digest`) and another seed gives
different ones.  The amount of work each input carries is fixed by the
workload, not by the seed: filter orders sum to a constant, the design
corpus has the same number of transfer functions of every order, and the
pipeline sizes are constants.  Only values move with the seed, so
run-to-run spread measures the program and not the draw.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

LOOP_RATE_HZ = 1000.0

# control_loop: one segment is a second of loop time; the filters are
# reset at each segment start so the startup heuristic runs again.
SEGMENT_STEPS = 1000
SEGMENTS = 32
# Two seeded Butterworth filters of orders k and BUTTER_ORDER_SUM - k keep
# the per-step work the same for every seed while the orders vary.
BUTTER_ORDER_SUM = 12
BUTTER_ORDERS = (4, 8)
# Corners below about 50 Hz make an order-8 direct-form recursion at 1 kHz
# lose more than 1e-9 of precision between two correct implementations
# (3e-9 at 30 Hz, 1e-3 at 5 Hz); that is ROADMAP item 3's defect, which
# design_sweep reports under discretize.warp_err_db.*.
BUTTER_CORNER_HZ = (50.0, 150.0)

# design_sweep
DESIGN_ORDERS = tuple(range(1, 13))
DESIGNS_PER_ORDER = 50
# One design in this many is given as --num/--den lists, the rest as text.
LIST_FORM_EVERY = 4
POLE_BAND_HZ = (0.1, 100.0)
GAIN_DECADES = 3.0
RESPONSE_POINTS = 1000

# batch_pipeline: the README CLI pipeline.
CHIRP_FMIN_HZ = 0.1
CHIRP_FMAX_HZ = 100.0
CHIRP_DURATION_S = 120.0
STEPPED_POINTS = 40
PIPELINE_CUTOFF_HZ = (5.0, 20.0)


def butterworth_den(order: int, omega_c: float) -> list[float]:
    """Descending denominator of an analog Butterworth low-pass."""
    k = np.arange(1, order + 1)
    poles = omega_c * np.exp(1j * math.pi * (2 * k + order - 1) / (2 * order))
    return np.real(np.poly(poles)).tolist()


@dataclass(frozen=True)
class FilterSpec:
    """One member of the control bank: a catalog family and its arguments."""

    name: str
    family: str
    params: tuple[float, ...]


@dataclass(frozen=True)
class ControlInputs:
    bank: tuple[FilterSpec, ...]
    offset: float
    samples: np.ndarray  # SEGMENTS * SEGMENT_STEPS loop inputs


@dataclass(frozen=True)
class DesignCase:
    order: int
    num: tuple[float, ...]
    den: tuple[float, ...]
    text: str | None  # expression text, or None for --num/--den lists
    num_list: str
    den_list: str


@dataclass(frozen=True)
class PipelineInputs:
    cutoff_hz: float
    amplitude: float


def control_inputs(seed: int) -> ControlInputs:
    rng = np.random.default_rng([seed, 1])
    two_pi = 2.0 * math.pi
    k = int(rng.integers(BUTTER_ORDERS[0], BUTTER_ORDERS[1] + 1))
    orders = (k, BUTTER_ORDER_SUM - k)
    bank = [
        FilterSpec("lowpass1", "lowpass1", (two_pi * rng.uniform(5.0, 50.0),)),
        FilterSpec("butter2", "butter2", (two_pi * rng.uniform(5.0, 50.0),)),
        FilterSpec("notch", "notch", (two_pi * rng.uniform(40.0, 60.0), rng.uniform(5.0, 30.0))),
        FilterSpec("pid", "pid", (rng.uniform(0.5, 2.0), rng.uniform(1.0, 10.0),
                                  rng.uniform(0.01, 0.1), two_pi * rng.uniform(50.0, 150.0))),
        FilterSpec("leadlag", "leadlag", (rng.uniform(0.5, 2.0), two_pi * rng.uniform(1.0, 10.0),
                                          two_pi * rng.uniform(20.0, 100.0))),
        FilterSpec("multiorder", "multiorder", ()),
    ]
    for i, n in enumerate(orders):
        wc = two_pi * rng.uniform(*BUTTER_CORNER_HZ)
        bank.append(FilterSpec(f"butter{n}_{i}", "butterworth", (float(n), wc)))
    offset = float(rng.uniform(2.0, 8.0))
    samples = offset + rng.standard_normal(SEGMENTS * SEGMENT_STEPS)
    return ControlInputs(tuple(bank), offset, samples)


def _stable_roots(rng: np.random.Generator, n: int) -> list[complex]:
    roots: list[complex] = []
    while len(roots) < n:
        w = 2.0 * math.pi * 10.0 ** rng.uniform(*np.log10(POLE_BAND_HZ))
        if n - len(roots) >= 2 and rng.random() < 0.6:
            zeta = rng.uniform(0.05, 1.0)
            p = complex(-zeta * w, w * math.sqrt(1.0 - zeta * zeta))
            roots += [p, p.conjugate()]
        else:
            roots.append(complex(-w, 0.0))
    return roots


def _zeros(rng: np.random.Generator, m: int) -> list[complex]:
    # Real zeros in either half plane: H(s) only needs stable poles.
    return [complex(-2.0 * math.pi * 10.0 ** rng.uniform(*np.log10(POLE_BAND_HZ))
                    * rng.choice((-1.0, 1.0)), 0.0) for _ in range(m)]


def _expression(num: tuple[float, ...], den: tuple[float, ...]) -> str:
    def poly(desc: tuple[float, ...]) -> str:
        n = len(desc) - 1
        terms = []
        for i, c in enumerate(desc):
            p = n - i
            mag = repr(abs(c))
            body = mag if p == 0 else f"{mag}s" if p == 1 else f"{mag}s^{p}"
            terms.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(terms)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]
    return f"({poly(num)})/({poly(den)})"


def design_cases(seed: int) -> tuple[DesignCase, ...]:
    """DESIGNS_PER_ORDER stable H(s) of every order, shuffled."""
    rng = np.random.default_rng([seed, 2])
    cases = []
    for order in DESIGN_ORDERS:
        for _ in range(DESIGNS_PER_ORDER):
            m = int(rng.integers(0, order + 1))
            den_scale = 10.0 ** rng.uniform(-GAIN_DECADES, GAIN_DECADES)
            gain = 10.0 ** rng.uniform(-GAIN_DECADES, GAIN_DECADES)
            den = tuple(float(v) * den_scale for v in np.real(np.poly(_stable_roots(rng, order))))
            num = tuple(float(v) * gain for v in np.real(np.poly(_zeros(rng, m)))) if m else (gain,)
            cases.append((order, num, den))
    order_idx = rng.permutation(len(cases))
    out = []
    for i, j in enumerate(order_idx):
        order, num, den = cases[j]
        text = None if i % LIST_FORM_EVERY == 0 else _expression(num, den)
        out.append(DesignCase(order, num, den, text,
                              ",".join(repr(v) for v in num), ",".join(repr(v) for v in den)))
    return tuple(out)


def pipeline_inputs(seed: int) -> PipelineInputs:
    rng = np.random.default_rng([seed, 3])
    return PipelineInputs(float(rng.uniform(*PIPELINE_CUTOFF_HZ)), float(rng.uniform(0.5, 2.0)))


def generate(workload: str, seed: int):
    return {"control_loop": control_inputs, "batch_pipeline": pipeline_inputs,
            "design_sweep": design_cases}[workload](seed)


def input_digest(inputs) -> str:
    """sha256 over a canonical byte form of any workload's inputs."""
    h = hashlib.sha256()

    def feed(obj) -> None:
        if isinstance(obj, np.ndarray):
            h.update(np.ascontiguousarray(obj, dtype=np.float64).tobytes())
        elif isinstance(obj, (tuple, list)):
            h.update(b"[")
            for v in obj:
                feed(v)
            h.update(b"]")
        elif hasattr(obj, "__dataclass_fields__"):
            for name in obj.__dataclass_fields__:
                h.update(name.encode())
                feed(getattr(obj, name))
        else:
            h.update(json.dumps(obj).encode() if not isinstance(obj, float) else repr(obj).encode())

    feed(inputs)
    return h.hexdigest()
