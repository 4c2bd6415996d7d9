"""The realized filter against H(s) itself, in the time domain.

Tustin's map is the trapezoidal rule applied to a state-space form of H(s)
(Franklin, Powell & Workman, *Digital Control of Dynamic Systems*, 3rd ed.,
6.3.1; Astrom & Wittenmark, *Computer-Controlled Systems*, 8.2).  So for a
smooth input the filter's output converges to H(s)'s exact response at
second order in the sample period: each doubling of the rate divides the
error by about 4.  ``scipy.signal.lsim`` gives that exact response for the
piecewise-linear input through the samples.
"""

import math

import numpy as np
import pytest
from scipy import signal

from tustin import catalog
from tustin.discretize import ContinuousTransferFunction, tustin_horner
from tustin.runtime import process
from tustin.signals import TimeSeries

TWO_PI = 2.0 * math.pi

# Rates from 500 Hz to 8 kHz, each the double of the one before.
RATES_HZ = [500.0 * 2**k for k in range(5)]
DURATION_S = 2.0

# Error ratio per rate doubling.  At the designs below it read 3.82-4.03.
# Their corners scaled by 0.5, 0.7, 1.4 and 2 read 3.74-4.07, apart from
# leadlag at 1.4 and 2 (4.30, 4.60: 500 Hz is coarse for a 100 Hz pole) and
# butter4 at 5 and 7 Hz (2.06, 3.81 at 8 kHz, where its rounding shows).
RATIO_BAND = (3.6, 4.4)


def butterworth4(corner_hz):
    w = TWO_PI * corner_hz
    poles = w * np.exp(1j * math.pi * np.arange(5, 12, 2) / 8.0)
    return ContinuousTransferFunction.from_descending([w**4], np.poly(poles).real.tolist())


DESIGNS = {
    "butter2": catalog.butterworth2(TWO_PI * 10.0),
    "butter4": butterworth4(10.0),
    "notch": catalog.notch(TWO_PI * 50.0, 5.0),
    "leadlag": catalog.leadlag(2.0, TWO_PI * 5.0, TWO_PI * 50.0),
}


def relative_error(tf, rate):
    # max |y - y_c| / max |y_c| of the filter run from rest against H(s).
    t = np.arange(round(DURATION_S * rate)) / rate
    u = np.sin(TWO_PI * 3.0 * t) * np.exp(-t) + 0.5 * np.sin(TWO_PI * 7.0 * t)
    y = process(tustin_horner(tf, rate), TimeSeries(rate, u), use_startup_heuristic=False).samples
    _, want, _ = signal.lsim((tf.numerator.descending(), tf.denominator.descending()), u, t)
    return np.max(np.abs(y - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("name", DESIGNS)
def test_the_filter_converges_to_h_of_s_at_second_order(name):
    errors = [relative_error(DESIGNS[name], rate) for rate in RATES_HZ]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    lo, hi = RATIO_BAND
    assert all(lo <= r <= hi for r in ratios), (errors, ratios)
