"""Digital IIR filter design via the bilinear transform.

Design path: write down a continuous transfer function H(s) (directly, from
text, or from the catalog), convert it at a loop rate with
:func:`tustin_horner`, then run the resulting coefficients sample by sample
with :class:`DigitalFilter`, or in batch with the block kernel
:func:`filter_series` (or :func:`process`, the plain fold of ticks).  The
signals and analysis modules generate test sweeps and measure the realized
frequency response against the analytic curves.
"""

from .analysis import (
    AboveNyquistError,
    DenominatorZeroError,
    DisjointRangesError,
    FrequencyResponsePoint,
    ResponseComparison,
    analytic_response_continuous,
    analytic_response_digital,
    bode_continuous,
    bode_digital,
    chirp_bode,
    compare_responses,
    read_bode_csv,
    stepped_sine_bode,
    write_bode_csv,
)
from .discretize import (
    ContinuousTransferFunction,
    DegenerateLeadingCoefficientError,
    DigitalFilterCoefficients,
    FilterDesignError,
    NonCausalError,
    NonPositiveRateError,
    normalize,
    pole_radii,
    tustin_direct,
    tustin_horner,
)
from .polynomial import Polynomial
from .runtime import DigitalFilter, RateMismatchError, filter_series, process
from .signals import (
    ChirpSpec,
    TimeSeries,
    chirp_phase,
    chirp_quadrature,
    generate_chirp,
    generate_sine,
    instantaneous_frequency,
)
from .tfparse import TfSyntaxError, canonical_text, parse_coeff_lists, parse_expression

__version__ = "0.1.0"

__all__ = [
    "AboveNyquistError",
    "ChirpSpec",
    "ContinuousTransferFunction",
    "DegenerateLeadingCoefficientError",
    "DenominatorZeroError",
    "DigitalFilter",
    "DigitalFilterCoefficients",
    "DisjointRangesError",
    "FilterDesignError",
    "FrequencyResponsePoint",
    "NonCausalError",
    "NonPositiveRateError",
    "Polynomial",
    "RateMismatchError",
    "ResponseComparison",
    "TfSyntaxError",
    "TimeSeries",
    "analytic_response_continuous",
    "analytic_response_digital",
    "bode_continuous",
    "bode_digital",
    "canonical_text",
    "chirp_bode",
    "chirp_phase",
    "chirp_quadrature",
    "compare_responses",
    "filter_series",
    "generate_chirp",
    "generate_sine",
    "instantaneous_frequency",
    "normalize",
    "parse_coeff_lists",
    "parse_expression",
    "pole_radii",
    "process",
    "read_bode_csv",
    "stepped_sine_bode",
    "tustin_direct",
    "tustin_horner",
    "write_bode_csv",
]
