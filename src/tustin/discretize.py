"""Continuous transfer functions to difference-equation coefficients.

The conversion substitutes s = 2*f_l*(z - 1)/(z + 1) at a fixed loop rate
f_l (Hz) and normalizes the result into the two coefficient vectors of the
difference equation

    y[0] = b_hat . y_prev + a_hat . x_hist

Two independent routes are provided.  :func:`tustin_horner` is the
production path: a stepwise polynomial pipeline (divide out s**n,
substitute, shift, reverse, scale, shift back).  ``_horner_substitution``
runs every step on one list of coefficients: the shift and the scaling
are :func:`tustin.polynomial.taylor_shift` and
:func:`tustin.polynomial.scale_argument`, the reversal is a slice, and one
Polynomial per side is built at the end.  :func:`tustin_direct` expands
the substitution by brute force: numpy expands each product
(z - 1)**(n-k) * (z + 1)**k from its roots +1 and -1.  Only the
substitution differs; the rate checks, the padding and the normalization
are shared.  The routes agree to rounding error and cross-check each
other in the test suite.

No frequency prewarping is applied: the digital response at angular
frequency w equals the continuous response at the warped frequency
2*f_l*tan(w/(2*f_l)), an identity the analysis module exploits.

Coefficient vectors on this module's surface are descending in power;
see :mod:`tustin.polynomial` for the storage convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .polynomial import Polynomial, scale_argument, taylor_shift

# A leading z-domain denominator coefficient not above this fraction of
# the largest denominator coefficient means the map collapsed the filter
# order (the continuous denominator has a root at s = 2*f_l) and no
# meaningful normalization exists.
DEGENERACY_RTOL = 1e-12


class FilterDesignError(ValueError):
    """Base class for design-time rejections."""


class NonCausalError(FilterDesignError):
    """Numerator degree exceeds denominator degree."""


class NonPositiveRateError(FilterDesignError):
    """Loop rate must be a positive, finite number of Hz."""


class DegenerateLeadingCoefficientError(FilterDesignError):
    """The z-domain denominator lost its leading coefficient."""


@dataclass(frozen=True)
class ContinuousTransferFunction:
    """Causal rational transfer function H(s) = N(s)/D(s).

    ``numerator`` and ``denominator`` keep their own declared orders
    (m and n); causality requires m <= n and the leading denominator
    coefficient must be nonzero.  Declared orders are authoritative:
    a zero leading numerator coefficient is kept, not trimmed.
    """

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self) -> None:
        m = self.numerator.declared_order
        n = self.denominator.declared_order
        if m > n:
            raise NonCausalError(
                f"numerator degree {m} exceeds denominator degree {n}"
            )
        if self.denominator.descending()[0] == 0.0:
            raise FilterDesignError(
                "leading denominator coefficient must be nonzero"
            )

    @classmethod
    def from_descending(
        cls, numerator: Sequence[float], denominator: Sequence[float]
    ) -> "ContinuousTransferFunction":
        return cls(
            Polynomial.from_descending(numerator),
            Polynomial.from_descending(denominator),
        )

    @property
    def order(self) -> int:
        """Denominator degree n; the order of the designed filter."""
        return self.denominator.declared_order

    def dc_gain(self) -> float:
        """H(0), the ratio of the two constant coefficients.

        Raises ZeroDivisionError when the denominator constant term is
        zero (a pole at s = 0 has no DC gain).
        """
        return self.numerator.coeffs[0] / self.denominator.coeffs[0]


@dataclass(frozen=True)
class DigitalFilterCoefficients:
    """Normalized difference-equation coefficients at a fixed loop rate.

    ``a_hat`` has n + 1 entries (weights on current and past inputs),
    ``b_hat`` has n entries (weights on past outputs), both descending in
    z power.  Instances are immutable and safe to share between filters.
    """

    a_hat: tuple[float, ...]
    b_hat: tuple[float, ...]
    loop_rate_hz: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_hat", tuple(float(v) for v in self.a_hat))
        object.__setattr__(self, "b_hat", tuple(float(v) for v in self.b_hat))
        if len(self.a_hat) != len(self.b_hat) + 1:
            raise FilterDesignError(
                f"a_hat needs exactly one more entry than b_hat, got "
                f"{len(self.a_hat)} and {len(self.b_hat)}"
            )
        for v in self.a_hat + self.b_hat:
            if not math.isfinite(v):
                raise FilterDesignError(f"non-finite coefficient: {v!r}")
        _positive("loop rate", self.loop_rate_hz, NonPositiveRateError)

    @property
    def order(self) -> int:
        return len(self.b_hat)


def _positive(name: str, value: float, error: type[ValueError] = ValueError) -> float:
    """value as a float; raises error naming it unless positive and finite."""
    v = float(value)
    if not (math.isfinite(v) and v > 0.0):
        raise error(f"{name} must be positive and finite, got {value!r}")
    return v


def _finite(name: str, value: float) -> float:
    """value as a float; raises ValueError naming it unless finite."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return v


def normalize(
    num_z: Polynomial, den_z: Polynomial, loop_rate_hz: float
) -> DigitalFilterCoefficients:
    """Divide N[z]/D[z] through by the leading D[z] coefficient.

    Returns a_hat (scaled numerator, descending) and b_hat (negated scaled
    denominator tail, coefficients of z**(n-1) ... z**0).  Raises
    DegenerateLeadingCoefficientError when the leading coefficient is
    negligible next to the rest of D[z], or D[z] is zero.
    """
    if num_z.declared_order != den_z.declared_order:
        raise FilterDesignError(
            "numerator and denominator must share a declared order "
            f"({num_z.declared_order} != {den_z.declared_order})"
        )
    den = den_z.descending()
    lead = den[0]
    if not abs(lead) > DEGENERACY_RTOL * max(abs(v) for v in den):
        raise DegenerateLeadingCoefficientError(
            "leading z-domain denominator coefficient is negligible; the "
            "continuous denominator vanishes at s = 2*f_l (try a different "
            "loop rate)"
        )
    a_hat = tuple(v / lead for v in num_z.descending())
    b_hat = tuple(-v / lead for v in den[1:])
    return DigitalFilterCoefficients(a_hat, b_hat, loop_rate_hz)


def _horner_substitution(d: Sequence[float], two_fl: float) -> Polynomial:
    """One side of the stepwise route: p(s), as its padded descending
    coefficients d, -> p's z-domain polynomial.

    With d[k] the coefficient of s**(n-k), dividing by s**n and
    substituting s = 2*f_l/x turns p into sum(d[k] / (2*f_l)**k * x**k);
    the remaining steps move x through +1 shift, reversal, halving of the
    argument and -1 shift, landing on the polynomial in z.  Every step
    acts on one coefficient list w: the x coefficients come out ascending,
    the slice before the first shift makes them descending, and the slice
    after it is the reversal.
    """
    w = []
    scale = 1.0
    for c in d:
        w.append(c / scale)
        scale *= two_fl
    w = taylor_shift(w[::-1], 1.0)[::-1]
    return Polynomial.from_descending(taylor_shift(scale_argument(w, 0.5), -1.0))


def _direct_substitution(c: Sequence[float], two_fl: float) -> Polynomial:
    # N[z] = sum_k c_k (2 f_l)^(n-k) (z-1)^(n-k) (z+1)^k with c_k the padded
    # descending coefficients; the (z+1)^n common factor has already been
    # multiplied through.  np.poly expands each product from its roots.
    n = len(c) - 1
    total = np.zeros(n + 1)
    for k in range(n + 1):
        factor = c[k] * two_fl ** (n - k)
        if factor != 0.0:
            total += factor * np.poly([1.0] * (n - k) + [-1.0] * k)
    return Polynomial.from_descending(total.tolist())


def _design(
    tf: ContinuousTransferFunction,
    loop_rate_hz: float,
    substitute: Callable[[Sequence[float], float], Polynomial],
) -> DigitalFilterCoefficients:
    n = tf.order
    two_fl = 2.0 * _positive("loop rate", loop_rate_hz, NonPositiveRateError)
    # Both routes scale by (2*f_l)**k, k <= n: the stepwise one by products
    # of k factors, the direct one by **.  Either is monotone in k, and the
    # two can round to opposite sides of a range edge, so both are checked.
    try:
        powers = (math.prod([two_fl] * n), two_fl ** n)
    except OverflowError:
        powers = (math.inf,)
    if not all(np.finfo(float).tiny <= p < math.inf for p in powers):
        raise FilterDesignError(
            f"loop rate {loop_rate_hz!r} Hz is out of float64 range for order {n}"
        )
    # The numerator's coefficients zero-padded to order n, descending.
    num_z = substitute((tf.numerator.coeffs + (0.0,) * n)[n::-1], two_fl)
    den_z = substitute(tf.denominator.descending(), two_fl)
    return normalize(num_z, den_z, loop_rate_hz)


def tustin_horner(
    tf: ContinuousTransferFunction, loop_rate_hz: float
) -> DigitalFilterCoefficients:
    """Convert H(s) to difference-equation coefficients, stepwise route.

    The numerator is padded to the denominator's order before the pipeline
    so both sides are transformed at the same degree; the shared normalizer
    then produces a_hat and b_hat.
    """
    return _design(tf, loop_rate_hz, _horner_substitution)


def tustin_direct(
    tf: ContinuousTransferFunction, loop_rate_hz: float
) -> DigitalFilterCoefficients:
    """Convert H(s) by brute-force substitution and expansion.

    Each (z - 1)**(n-k) * (z + 1)**k product is expanded by numpy from its
    roots +1 and -1.  Shares only the rate check, the padding and the
    normalizer with :func:`tustin_horner`; exists as the cross-check oracle
    and for spot verification.
    """
    return _design(tf, loop_rate_hz, _direct_substitution)


# A pole that the design maps exactly onto z = 1 (pid's integrator) comes
# back from the companion eigen-solve a rounding error to either side of it:
# every pole this close to the unit circle counts as on it.
UNIT_CIRCLE_MARGIN = 1e-9


def _poles(b_hat: tuple[float, ...]) -> np.ndarray:
    # Roots of z**n - b_hat[0] z**(n-1) - ... - b_hat[n-1] but those at
    # z = 0 that trailing zero b_hat entries put there: the eigenvalues of
    # the companion matrix that numpy.roots builds, the rest of b_hat its
    # first row, so these are numpy.roots' roots bit for bit.  Without a
    # nonzero entry the companion is 0 x 0 and has no eigenvalues.
    m = max((i + 1 for i, v in enumerate(b_hat) if v), default=0)
    companion = np.eye(m, k=-1)
    companion[:1] = b_hat[:m]
    return np.linalg.eigvals(companion)


def pole_radii(coeffs: DigitalFilterCoefficients) -> tuple[float, ...]:
    """Magnitudes of the z-domain poles, largest first.

    Roots of z**n - b_hat[0] z**(n-1) - ... - b_hat[n-1]; trailing zero
    b_hat entries are poles at z = 0.  A radius above 1 means the
    difference equation is unstable at this rate, and one within
    UNIT_CIRCLE_MARGIN of 1 counts as on the unit circle.
    """
    radii = np.abs(_poles(coeffs.b_hat))
    return tuple(np.sort(radii)[::-1].tolist() + [0.0] * (len(coeffs.b_hat) - len(radii)))


def _split_pole_at_one(
    coeffs: DigitalFilterCoefficients,
) -> tuple[DigitalFilterCoefficients, bool]:
    """coeffs with a pole at z = 1 divided out, and whether there was one.

    A pole at z = 1, such as pid's integrator, counts when the z-pole
    nearest 1 lies within UNIT_CIRCLE_MARGIN of it; the sum of the
    denominator's coefficients alone cannot tell.  Without one, coeffs
    come back as they are.
    """
    if not np.abs(_poles(coeffs.b_hat) - 1.0).min(initial=np.inf) <= UNIT_CIRCLE_MARGIN:
        return coeffs, False
    # D(z) = z^n - b_hat[0] z^(n-1) - ...: the running sums of its
    # coefficients are those of D(z) / (z - 1).  A trailing zero b_hat, a
    # pole at z = 0, keeps a_hat's length valid for that quotient.
    den = [1.0, *(-b for b in coeffs.b_hat)]
    return replace(coeffs, b_hat=(*-np.cumsum(den)[1:-1], 0.0)), True
