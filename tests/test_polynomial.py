"""Unit tests for the polynomial layer.

The worked step values below were computed by hand from the first-order
lowpass design walkthrough (denominator 10s + 1 mapped through the
substitution at a 0.1 Hz loop rate), so they double as a frozen trace of
the pipeline's intermediate states.  The steps act in place on a list of
descending coefficients; the reversal between them is a slice.
"""

import random

import numpy as np
import pytest

from tustin.polynomial import Polynomial, scale_argument, taylor_shift


def desc(p: Polynomial) -> list[float]:
    return list(p.descending())


# ---------------------------------------------------------------- basics


def test_from_descending_round_trip():
    p = Polynomial.from_descending([3.0, 2.0, 1.0])
    assert p.coeffs == (1.0, 2.0, 3.0)
    assert desc(p) == [3.0, 2.0, 1.0]
    assert p.declared_order == 2


def test_from_descending_pads_high_end():
    # numerator 1 declared at order 1 becomes 0*s + 1
    p = Polynomial.from_descending([1.0]).padded(1)
    assert desc(p) == [0.0, 1.0]
    assert p.declared_order == 1


def test_padding_is_preserved_not_trimmed():
    p = Polynomial((1.0, 0.0, 0.0))
    assert p.declared_order == 2
    assert p.padded(4).declared_order == 4
    with pytest.raises(ValueError):
        p.padded(1)


def test_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        Polynomial(())
    with pytest.raises(ValueError):
        Polynomial((1.0, float("nan")))
    with pytest.raises(ValueError):
        Polynomial.from_descending([float("inf"), 1.0])


# ------------------------------------------------- worked pipeline steps


def test_taylor_shift_first_order_step():
    # 5x shifted by +1 is 5x + 5
    assert taylor_shift([5.0, 0.0], 1.0) == [5.0, 5.0]


def test_taylor_shift_second_order_step():
    # 0.5x^2 + x + 1 shifted by +1: 0.5(x+1)^2 + (x+1) + 1 = 0.5x^2 + 2x + 2.5
    assert taylor_shift([0.5, 1.0, 1.0], 1.0) == pytest.approx([0.5, 2.0, 2.5], abs=1e-15)


def test_reverse_step():
    assert [5.0, 15.0][::-1] == [15.0, 5.0]


def test_scale_argument_step():
    assert scale_argument([15.0, 5.0], 0.5) == [7.5, 5.0]


def test_scale_argument_second_order_step():
    assert scale_argument([2.5, 2.0, 0.5], 0.5) == pytest.approx([0.625, 1.0, 0.5], abs=1e-15)


def test_taylor_shift_back_completes_walkthrough():
    # denominator path lands on 7.5x - 2.5, proportional to 3z - 1
    assert taylor_shift([7.5, 5.0], -1.0) == pytest.approx([7.5, -2.5], abs=1e-15)


def test_reverse_uses_declared_order():
    # reversal over the padded length is what makes pure-gain numerators work
    p = Polynomial.from_descending([1.0]).padded(2)  # 0x^2 + 0x + 1
    assert desc(p)[::-1] == [1.0, 0.0, 0.0]


def test_scale_argument_rejects_zero():
    with pytest.raises(ValueError):
        scale_argument([2.0, 1.0], 0.0)
    with pytest.raises(ValueError):
        taylor_shift([2.0, 1.0], float("nan"))


def test_scale_argument_rejects_nan():
    with pytest.raises(ValueError, match="^argument scale must be finite$"):
        scale_argument([2.0, 1.0], float("nan"))


# ------------------------------------------------------ property checks


def _random_poly(rng: random.Random, max_order: int = 6) -> list[float]:
    n = rng.randint(0, max_order)
    return [rng.uniform(-10.0, 10.0) for _ in range(n + 1)]


def _close(p: list[float], q: list[float], rtol: float) -> bool:
    scale = max(max(abs(v) for v in p), 1.0)
    return len(p) == len(q) and all(abs(a - b) <= rtol * scale for a, b in zip(p, q))


def test_shift_and_unshift_round_trip():
    rng = random.Random(101)
    for _ in range(200):
        p = _random_poly(rng)
        c = rng.uniform(-3.0, 3.0)
        back = taylor_shift(taylor_shift(list(p), c), -c)
        assert _close(p, back, 1e-12)


def test_reverse_is_involution():
    rng = random.Random(102)
    for _ in range(200):
        p = _random_poly(rng)
        assert p[::-1][::-1] == p


def test_scale_round_trip():
    rng = random.Random(103)
    for _ in range(200):
        p = _random_poly(rng)
        c = rng.choice([0.5, 2.0, -1.0, 0.25, 3.0])
        assert _close(p, scale_argument(scale_argument(list(p), c), 1.0 / c), 1e-12)


def test_shift_agrees_with_evaluation():
    # q = shift(p, c) must satisfy q(x) = p(x + c) pointwise
    rng = random.Random(104)
    for _ in range(200):
        p = _random_poly(rng)
        c = rng.uniform(-2.0, 2.0)
        q = taylor_shift(list(p), c)
        x = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        want = np.polyval(p, x + c)
        got = np.polyval(q, x)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
