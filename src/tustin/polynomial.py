"""Dense univariate real polynomials and the stepwise Tustin route's steps.

This module holds the :class:`Polynomial` container and two steps of the
paper's Horner pipeline, :func:`taylor_shift` and :func:`scale_argument`.
The steps work in place on one plain list of descending coefficients, not
on Polynomial objects: ``discretize._horner_substitution`` runs the whole
pipeline on that list, reverses it with a slice, and builds a Polynomial
once at the end, where the coefficients are checked.  The direct route
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


def taylor_shift(w: list[float], c: float) -> list[float]:
    """Shift w, descending coefficients of p, in place to those of p(x + c).

    ``len(w) - 1`` passes of synthetic division, each pass peeling off one
    Taylor coefficient of p about c.  O(n^2) and exact for the integer
    shifts the design route uses.  Returns w.
    """
    if not math.isfinite(c):
        raise ValueError("shift amount must be finite")
    for k in range(len(w) - 1, 0, -1):
        for j in range(1, k + 1):
            w[j] += c * w[j - 1]
    return w


def scale_argument(w: list[float], c: float) -> list[float]:
    """Scale w, descending coefficients of p, in place to those of p(c * x).

    The coefficient of x**k is multiplied by c**k, the power built up one
    factor at a time from the constant term.  Returns w.
    """
    if not math.isfinite(c):
        raise ValueError("argument scale must be finite")
    if c == 0.0:
        raise ValueError("argument scale must be nonzero")
    factor = 1.0
    for i in range(len(w) - 1, -1, -1):
        w[i] *= factor
        factor *= c
    return w
