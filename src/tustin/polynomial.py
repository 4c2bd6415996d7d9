"""Dense univariate real polynomials and the stepwise Tustin route's steps.

This module holds the :class:`Polynomial` container and the three
operations of the paper's Horner pipeline: :func:`taylor_shift`,
:func:`reverse_coefficients` and :func:`scale_argument`.  The direct route
expands its products with numpy instead.

Coefficients are stored in ascending power order: ``coeffs[k]`` multiplies
``x**k``.  The tuple always has ``declared_order + 1`` entries, so a
polynomial of lower actual degree keeps its zero high-order coefficients.
That padding is load-bearing: the coefficient reversal step of the design
pipeline reverses over the full declared length, and trimming would
silently change the result.

Everything on the public surface of the package (constructors, printed
coefficient lists, CLI) speaks the descending engineering convention
``[c_n, ..., c_1, c_0]``; use :meth:`Polynomial.from_descending` and
:meth:`Polynomial.descending` at that boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def _as_finite_floats(values: Iterable[float]) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if not out:
        raise ValueError("polynomial needs at least one coefficient")
    for v in out:
        if not math.isfinite(v):
            raise ValueError(f"non-finite polynomial coefficient: {v!r}")
    return out


@dataclass(frozen=True)
class Polynomial:
    """Immutable real polynomial, ascending coefficients, fixed declared order."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _as_finite_floats(self.coeffs))

    @classmethod
    def from_descending(cls, coeffs: Sequence[float]) -> "Polynomial":
        """Build from descending-power coefficients; see :meth:`padded` to
        raise the declared order."""
        return cls(tuple(reversed(coeffs)))

    @property
    def declared_order(self) -> int:
        return len(self.coeffs) - 1

    def descending(self) -> tuple[float, ...]:
        """Coefficients in descending power order (engineering convention)."""
        return tuple(reversed(self.coeffs))

    def padded(self, order: int) -> "Polynomial":
        """Same polynomial with the declared order raised to ``order``."""
        if order < self.declared_order:
            raise ValueError(
                f"cannot pad order {self.declared_order} down to {order}"
            )
        return Polynomial(self.coeffs + (0.0,) * (order - self.declared_order))


def taylor_shift(p: Polynomial, c: float) -> Polynomial:
    """Return q with q(x) = p(x + c).

    Computed by ``declared_order`` passes of synthetic division, each pass
    peeling off one Taylor coefficient of p about c.  O(n^2) and exact for
    the integer shifts the design pipeline uses.
    """
    if not math.isfinite(c):
        raise ValueError("shift amount must be finite")
    n = p.declared_order
    w = list(p.descending())
    for k in range(n):
        for j in range(1, n + 1 - k):
            w[j] += c * w[j - 1]
    return Polynomial(tuple(reversed(w)))


def reverse_coefficients(p: Polynomial) -> Polynomial:
    """Return q with q(x) = x**n * p(1/x), n the declared order.

    The reversal runs over the full padded coefficient tuple; zero leading
    coefficients shift the result exactly as the substitution demands.
    """
    return Polynomial(tuple(reversed(p.coeffs)))


def scale_argument(p: Polynomial, c: float) -> Polynomial:
    """Return q with q(x) = p(c * x), i.e. coeffs[k] scaled by c**k."""
    if not math.isfinite(c):
        raise ValueError("argument scale must be finite")
    if c == 0.0:
        raise ValueError("argument scale must be nonzero")
    out = []
    factor = 1.0
    for v in p.coeffs:
        out.append(v * factor)
        factor *= c
    return Polynomial(tuple(out))
