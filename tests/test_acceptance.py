"""Acceptance suite: nine go/no-go checks with fixed tolerances and budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion alongside the measured margins.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tustin import catalog
from tustin.analysis import (
    analytic_response_continuous,
    analytic_response_digital,
    bode_digital,
    chirp_bode,
    stepped_sine_bode,
)
from tustin.discretize import (
    ContinuousTransferFunction,
    DegenerateLeadingCoefficientError,
    tustin_direct,
    tustin_horner,
)
from tustin.runtime import DigitalFilter
from tustin.signals import ChirpSpec, chirp_quadrature, instantaneous_frequency, sample_count
from tustin.tfparse import TfSyntaxError, parse_expression
from tustin.discretize import FilterDesignError

TWO_PI = 2.0 * math.pi
RATE = 1000.0


@contextmanager
def criterion(number, title):
    notes = {}
    try:
        yield notes
    except BaseException:
        print(f"[criterion {number}] FAIL  {title}")
        raise
    detail = f"  ({notes['detail']})" if "detail" in notes else ""
    print(f"[criterion {number}] PASS  {title}{detail}")


def catalog_filters():
    return [
        ("lowpass1", catalog.lowpass1(TWO_PI * 10.0)),
        ("butterworth2", catalog.butterworth2(TWO_PI * 10.0)),
        ("notch", catalog.notch(TWO_PI * 60.0, 5.0)),
        ("multiorder", catalog.multiorder_example()),
        ("pid", catalog.pid(15.0, 2.0, 0.25, 0.0035)),
        ("leadlag", catalog.leadlag(10.0, TWO_PI, 20.0 * math.pi)),
    ]


def test_criterion_1_first_order_golden_design():
    with criterion(1, "first-order golden design, exact thirds, under 1 ms") as notes:
        tf = ContinuousTransferFunction.from_descending([1.0], [10.0, 1.0])
        coeffs = tustin_horner(tf, 0.1)
        third = 1.0 / 3.0
        errs = [
            abs(coeffs.a_hat[0] - third),
            abs(coeffs.a_hat[1] - third),
            abs(coeffs.b_hat[0] - third),
        ]
        assert max(errs) <= 1e-12
        best = math.inf
        for _ in range(7):
            t0 = time.perf_counter()
            tustin_horner(tf, 0.1)
            best = min(best, time.perf_counter() - t0)
        assert best < 1e-3
        notes["detail"] = f"max err {max(errs):.2e}, design {best * 1e6:.0f} us"


def test_criterion_2_second_order_golden_design():
    with criterion(2, "second-order golden design exact to 1e-12") as notes:
        tf = ContinuousTransferFunction.from_descending([2.0], [1.0, 2.0, 2.0])
        coeffs = tustin_horner(tf, 1.0)
        want_a = (0.2, 0.4, 0.2)
        want_b = (0.4, -0.2)
        err = max(
            max(abs(g - w) for g, w in zip(coeffs.a_hat, want_a)),
            max(abs(g - w) for g, w in zip(coeffs.b_hat, want_b)),
        )
        assert err <= 1e-12
        notes["detail"] = f"max err {err:.2e}"


REFERENCE_1KHZ = {
    "lowpass1": ([3.0459e-02, 3.0459e-02], [9.3908e-01]),
    "butterworth2": ([9.4408e-04, 1.8882e-03, 9.4408e-04], [1.9112e00, -9.1500e-01]),
    "notch": ([9.6487e-01, -1.7973e00, 9.6487e-01], [1.7973e00, -9.2975e-01]),
    "multiorder": (
        [1.7198e02, -4.9816e02, 4.8074e02, -1.5455e02],
        [2.6305e00, -2.3162e00, 6.8252e-01],
    ),
    "pid": ([1.5002e01, -3.0002e01, 1.5000e01], [2.0000e00, -1.0000e00]),
    "leadlag": ([9.7259e00, -9.6650e00], [9.3908e-01]),
}


def test_criterion_3_catalog_matches_reference_listings():
    with criterion(3, "catalog at 1 kHz matches reference listings to 5 sig figs") as notes:
        filters = catalog_filters()
        t0 = time.perf_counter()
        designed = [(name, tustin_horner(tf, RATE)) for name, tf in filters]
        elapsed = time.perf_counter() - t0
        worst = 0.0
        for name, coeffs in designed:
            want_a, want_b = REFERENCE_1KHZ[name]
            for got, want in zip(coeffs.a_hat, want_a, strict=True):
                worst = max(worst, abs(got - want) / abs(want))
            for got, want in zip(coeffs.b_hat, want_b, strict=True):
                worst = max(worst, abs(got - want) / abs(want))
        assert worst <= 5e-5
        assert elapsed < 0.1
        notes["detail"] = f"worst rel err {worst:.2e}, all designs in {elapsed * 1e3:.1f} ms"


def test_criterion_4_oracle_equivalence_500_random_designs():
    with criterion(4, "stepwise and direct substitution agree on 500 random designs") as notes:
        rng = random.Random(20260819)

        def coeff():
            mag = 10.0 ** rng.uniform(-3.0, 3.0)
            return mag if rng.random() < 0.5 else -mag

        t0 = time.perf_counter()
        worst = 0.0
        done = 0
        while done < 500:
            n = rng.randint(1, 6)
            m = rng.randint(0, n)
            den = [coeff() for _ in range(n + 1)]
            num = [coeff() for _ in range(m + 1)]
            rate = 10.0 ** rng.uniform(-1.0, 4.0)
            tf = ContinuousTransferFunction.from_descending(num, den)
            try:
                h = tustin_horner(tf, rate)
            except DegenerateLeadingCoefficientError:
                continue
            d = tustin_direct(tf, rate)
            # elementwise 1e-9 relative, anchored to each vector's scale:
            # a cancelled single coefficient has no relative accuracy of
            # its own, but both routes must agree at the vector's level
            for got, ref in ((h.a_hat, d.a_hat), (h.b_hat, d.b_hat)):
                if not ref:
                    continue
                scale = max(max(abs(v) for v in ref), 1e-300)
                for g, r in zip(got, ref, strict=True):
                    worst = max(worst, abs(g - r) / scale)
            done += 1
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-9, f"worst relative disagreement {worst:.3e}"
        assert elapsed < 5.0
        notes["detail"] = f"worst rel err {worst:.2e} over {done} designs in {elapsed:.2f} s"


def test_criterion_5_warping_identity_across_catalog():
    with criterion(5, "digital response equals continuous response at warped frequency") as notes:
        t0 = time.perf_counter()
        # four decades up to 90% of Nyquist; the identity is limited by
        # coefficient rounding near an integrator pole (error ~ eps/theta^2),
        # so probing far below this band measures float64, not the design
        hi = math.log10(0.9 * math.pi * RATE * (1.0 - 1e-12))
        omegas = np.logspace(hi - 4.0, hi, 100)
        worst = 0.0
        for name, tf in catalog_filters():
            coeffs = tustin_horner(tf, RATE)
            for omega in omegas:
                warped = 2.0 * RATE * math.tan(omega / (2.0 * RATE))
                hd = analytic_response_digital(coeffs, omega)
                hc = analytic_response_continuous(tf, warped)
                worst = max(worst, abs(hd - hc) / abs(hc))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-6
        assert elapsed < 2.0
        notes["detail"] = f"worst rel err {worst:.2e} in {elapsed * 1e3:.0f} ms"


def test_criterion_6_startup_heuristic_constancy():
    with criterion(6, "unity-DC filters hold a constant from tick one") as notes:
        worst = 0.0
        checked = []
        for name, tf in catalog_filters():
            try:
                if abs(tf.dc_gain() - 1.0) > 1e-12:
                    continue
            except ZeroDivisionError:
                continue
            filt = DigitalFilter(tustin_horner(tf, RATE))
            dev = max(abs(filt.tick(5.0) - 5.0) for _ in range(10_000))
            worst = max(worst, dev)
            checked.append(name)
        assert {"lowpass1", "butterworth2", "notch"} <= set(checked)
        assert worst <= 1e-12, f"constant drifted by {worst:.3e}"
        # without the heuristic the same constant starts far from 5
        bare = DigitalFilter(
            tustin_horner(catalog.butterworth2(TWO_PI * 10.0), RATE),
            use_startup_heuristic=False,
        )
        first = bare.tick(5.0)
        assert abs(first - 5.0) / 5.0 > 0.10
        notes["detail"] = (
            f"{len(checked)} filters, worst dev {worst:.2e}; "
            f"bare first tick {first:.3g}"
        )


def test_criterion_7_chirp_integrity_one_million_samples():
    with criterion(7, "1e6-sample sweep keeps unit amplitude and exact endpoints") as notes:
        spec = ChirpSpec(
            "exponential", TWO_PI * 0.1, TWO_PI * 100.0, 1000.0, 1.0, 1000.0
        )
        assert sample_count(spec) == 1_000_000
        cos_s, sin_s = chirp_quadrature(spec)
        norm_err = float(np.abs(cos_s * cos_s + sin_s * sin_s - 1.0).max())
        assert norm_err <= 1e-9
        assert instantaneous_frequency(spec, 0.0) == spec.omega_min
        assert instantaneous_frequency(spec, spec.duration_s) == spec.omega_max
        notes["detail"] = f"worst norm err {norm_err:.2e}, endpoints bit-exact"


def test_criterion_8_bode_pipeline():
    with criterion(8, "stepped and chirp measurements reproduce the filter's response") as notes:
        t0 = time.perf_counter()
        coeffs = tustin_horner(catalog.butterworth2(TWO_PI * 10.0), RATE)

        grid = sorted(set(np.logspace(0.0, 2.0, 21).tolist()) | {10.0, 50.0, 100.0})
        stepped = {p.freq_hz: p.magnitude_db for p in stepped_sine_bode(coeffs, grid)}
        assert abs(stepped[10.0] - (-3.01)) <= 0.1

        mags = [stepped[f] for f in grid]
        assert all(a > b for a, b in zip(mags, mags[1:])), "roll-off not monotone"

        def warped(f):
            return RATE / math.pi * math.tan(math.pi * f / RATE)

        slope = (stepped[100.0] - stepped[50.0]) / math.log10(warped(100.0) / warped(50.0))
        assert abs(slope - (-40.0)) <= 6.0, f"corrected slope {slope:.2f} dB/dec"

        spec = ChirpSpec(
            "exponential", TWO_PI * 0.1, TWO_PI * 100.0, 120.0, 1.0, RATE
        )
        # DFT bins nearest a 200-point log grid of 0.1-100 Hz: 172 in 0.2-80 Hz
        measured = [p for p in chirp_bode(coeffs, spec) if 0.2 <= p.freq_hz <= 80.0]
        assert len(measured) > 150
        truth = bode_digital(coeffs, [p.freq_hz for p in measured])
        dmag = max(abs(m.magnitude_db - t.magnitude_db) for m, t in zip(measured, truth))
        dph = max(abs(m.phase_deg - t.phase_deg) for m, t in zip(measured, truth))
        assert dmag <= 1e-7
        assert dph <= 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        notes["detail"] = (
            f"-3 dB point {stepped[10.0]:.3f} dB, slope {slope:.1f} dB/dec, "
            f"chirp dev {dmag:.1e} dB / {dph:.1e} deg, {elapsed:.1f} s"
        )


PARSE_CORPUS = [
    ("1/(10s+1)", [1.0], [10.0, 1.0]),
    ("2/(s^2+2s+2)", [2.0], [1.0, 2.0, 2.0]),
    (
        "(s^2 + 142122.30)/(s^2 + 75.398*s + 142122.30)",
        [1.0, 0.0, 142122.30],
        [1.0, 75.398, 142122.30],
    ),
    ("3947.84/(s^2 + 88.858s + 3947.84)", [3947.84], [1.0, 88.858, 3947.84]),
    ("(15.25s^2 + 15.007s + 2)/(s^2 + 0.0035s)", [15.25, 15.007, 2.0], [1.0, 0.0035, 0.0]),
    ("(10s + 62.832)/(s + 62.832)", [10.0, 62.832], [1.0, 62.832]),
    ("  1.5e3 / ( 2.5E-2 s + 1 ) ", [1500.0], [0.025, 1.0]),
    ("(s + s + 1)/(s^2 - 0.5)", [2.0, 1.0], [1.0, 0.0, -0.5]),
]

FUZZ_ALPHABET = "0123456789.se^*/+-() \t"


def test_criterion_9_parser_totality_and_fidelity():
    with criterion(9, "parser consumes a fuzz barrage and corpus bit-exactly") as notes:
        for text, num, den in PARSE_CORPUS:
            got = parse_expression(text)
            want = ContinuousTransferFunction.from_descending(num, den)
            assert got.numerator.coeffs == want.numerator.coeffs, text
            assert got.denominator.coeffs == want.denominator.coeffs, text

        rng = random.Random(20260819)
        outcomes = {"ok": 0, "syntax": 0, "design": 0}
        for i in range(100_000):
            if i % 3 == 2:
                raw = bytes(rng.randrange(256) for _ in range(rng.randint(1, 12)))
                text = raw.decode("latin-1")
            else:
                text = "".join(
                    rng.choice(FUZZ_ALPHABET) for _ in range(rng.randint(1, 24))
                )
            try:
                parse_expression(text)
                outcomes["ok"] += 1
            except TfSyntaxError:
                outcomes["syntax"] += 1
            except FilterDesignError:
                outcomes["design"] += 1
        assert sum(outcomes.values()) == 100_000
        assert all(v > 0 for v in outcomes.values()), outcomes
        notes["detail"] = (
            f"{len(PARSE_CORPUS)} corpus strings bit-exact; fuzz outcomes {outcomes}"
        )
