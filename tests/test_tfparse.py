"""Expression parser: golden parses, grammar corners, error reporting, fuzz."""

import math
import random
import struct

import pytest

from tustin.discretize import ContinuousTransferFunction, FilterDesignError, NonCausalError
from tustin.tfparse import (
    MAX_EXPONENT,
    TfSyntaxError,
    _flat_sides,
    _parse_coeff_list,
    _token_sides,
    canonical_text,
    parse_coeff_lists,
    parse_expression,
)


def nums(tf):
    return list(tf.numerator.descending())


def dens(tf):
    return list(tf.denominator.descending())


# ---------------------------------------------------------- golden parses


def test_first_order_lowpass_expression():
    tf = parse_expression("1/(10s+1)")
    assert nums(tf) == [1.0]
    assert dens(tf) == [10.0, 1.0]


def test_second_order_expression():
    tf = parse_expression("2/(s^2+2s+2)")
    assert nums(tf) == [2.0]
    assert dens(tf) == [1.0, 2.0, 2.0]


def test_notch_literal():
    tf = parse_expression("(s^2 + 142122.30)/(s^2 + 75.398*s + 142122.30)")
    assert nums(tf) == [1.0, 0.0, 142122.30]
    assert dens(tf) == [1.0, 75.398, 142122.30]


def test_number_alone_is_a_gain():
    tf = parse_expression("3.5")
    assert nums(tf) == [3.5]
    assert dens(tf) == [1.0]


def test_bare_s_is_noncausal():
    with pytest.raises(NonCausalError):
        parse_expression("s")


# ------------------------------------------------------------ grammar


def test_explicit_and_implicit_multiplication_agree():
    assert nums(parse_expression("10*s/(s+1)")) == nums(parse_expression("10s/(s+1)"))


def test_signs_and_whitespace():
    tf = parse_expression("  - 2 s + 1 / ( s ^ 2 - 0.5 ) ")
    assert nums(tf) == [-2.0, 1.0]
    assert dens(tf) == [1.0, 0.0, -0.5]


def test_like_terms_accumulate():
    tf = parse_expression("(s + s + 1 + 2)/(s^2)")
    assert nums(tf) == [2.0, 3.0]
    assert dens(tf) == [1.0, 0.0, 0.0]


def test_parenthesized_groups_add():
    tf = parse_expression("((s+1) + (2s-3))/(s+4)")
    assert nums(tf) == [3.0, -2.0]
    assert dens(tf) == [1.0, 4.0]


@pytest.mark.parametrize(
    "text, want",
    [
        ("-(s+1) + 2s", [1.0, -1.0]),  # the group's sign applies to its whole sum
        ("1 - -(s - 2)", [1.0, -1.0]),  # a unary sign after a binary one
        ("0.1 + (0.2 + 0.3)", [0.6]),  # the group is summed first: not 0.6000000000000001
        ("s + (-0.0)", [1.0, -0.0]),  # a merged group keeps a signed zero
    ],
)
def test_a_group_joins_the_enclosing_sum_at_its_close(text, want):
    got = nums(parse_expression(text + "/(s^2+1)"))
    assert [(v, math.copysign(1.0, v)) for v in got] == [
        (v, math.copysign(1.0, v)) for v in want
    ]


def test_exponent_one_and_zero():
    tf = parse_expression("(s^1 + 2)/(s^2 + s^0)")
    assert nums(tf) == [1.0, 2.0]
    assert dens(tf) == [1.0, 0.0, 1.0]
    padded = parse_expression("1/(s^" + "0" * 5000 + "1+1)")
    assert dens(padded) == [1.0, 1.0]


def test_scientific_notation_coefficients():
    tf = parse_expression("1.5e3/(2.5E-2s + 1)")
    assert nums(tf) == [1500.0]
    assert dens(tf) == [0.025, 1.0]


def test_denominator_defaults_to_one():
    tf = parse_expression("0.25")
    assert dens(tf) == [1.0]


def test_leading_sign_inside_parens():
    tf = parse_expression("(-s + 2)/(+s + 1)")
    assert nums(tf) == [-1.0, 2.0]
    assert dens(tf) == [1.0, 1.0]


# ------------------------------------------------------------- rejection


def test_error_carries_positions():
    with pytest.raises(TfSyntaxError) as exc_info:
        parse_expression("1/(10q+1)")
    err = exc_info.value
    assert err.byte_offset == 5
    assert "q" in err.found


def test_byte_offset_counts_utf8_bytes():
    # the mu takes two bytes; the error after it must count both
    with pytest.raises(TfSyntaxError) as exc_info:
        parse_expression("µ")
    assert exc_info.value.byte_offset == 0
    with pytest.raises(TfSyntaxError) as exc_info:
        parse_expression("1+µ")
    assert exc_info.value.byte_offset == 2


def test_nested_division_rejected():
    with pytest.raises(TfSyntaxError) as exc_info:
        parse_expression("1/(1/(s+1))")
    assert "division cannot nest" in str(exc_info.value)


def test_double_division_rejected():
    with pytest.raises(TfSyntaxError) as exc_info:
        parse_expression("1/(s+1)/(s+2)")
    assert "only one division" in str(exc_info.value)


def test_oversize_exponent_rejected():
    parse_expression(f"1/(s^{MAX_EXPONENT})")  # the bound itself is fine
    with pytest.raises(TfSyntaxError):
        parse_expression(f"1/(s^{MAX_EXPONENT + 1})")


def test_an_exponent_is_bounded_by_its_digits_at_any_length():
    # int() refuses more than 4,300 digits: the bound must be met first
    found = []
    for count in (40, 5000):
        with pytest.raises(TfSyntaxError) as exc_info:
            parse_expression("1/(s^" + "3" * count + ")")
        found.append((exc_info.value.expected, exc_info.value.byte_offset))
    assert found == [(f"an exponent no greater than {MAX_EXPONENT}", 5)] * 2


def test_fractional_exponent_rejected():
    with pytest.raises(TfSyntaxError):
        parse_expression("1/(s^2.5)")


def test_overflowing_literal_rejected():
    with pytest.raises(TfSyntaxError):
        parse_expression("9e999/(s+1)")
    with pytest.raises(TfSyntaxError):
        parse_expression("1/(9e999s+1)")


def test_truncated_inputs_fail_cleanly():
    for text in ("", "1/", "1/(s+1", "(", "1+", "2*", "s^", "1/()"):
        with pytest.raises(TfSyntaxError):
            parse_expression(text)


@pytest.mark.parametrize(
    "text, offset, message",
    [
        ("1+µ", 2, "expected a number, 's', or an operator, found 'µ'"),
        # float() reads an Arabic-Indic three and a fullwidth one; the grammar does not
        ("\u0663/(s+\uff11)", 0, "expected a number, 's', or an operator, found '\u0663'"),
        ("1+*", 2, "expected a number, 's', or '(', found '*'"),
        ("1/(9e999s+1)", 3, "expected a number representable as a float, found '9e999'"),
        ("2*3", 2, "expected 's' after '*', found '3'"),
        ("1/(s^2.5)", 5, "expected a nonnegative integer exponent, found '2.5'"),
        ("1/(s^33)", 5, "expected an exponent no greater than 32, found '33'"),
        ("1/(s+1", 6, "expected ')', found end of input"),
        ("1/(1/(s+1))", 4,
         "expected ')' (division cannot nest inside parentheses), found '/'"),
        ("2 3", 2, "expected '+', '-', '/', or end of input, found '3'"),
        ("1/(s+1))", 7, "expected '+', '-', or end of input, found ')'"),
        ("1/(s+1)/(s+2)", 7,
         "expected end of input (only one division is allowed), found '/'"),
        # like terms whose sum overflows: at the term, or at the group's close
        ("1e308 + 1e308", 8,
         "expected a sum of like terms representable as a float, found '1e308'"),
        ("(1e308s + 1e308s)/(s+1)", 10,
         "expected a sum of like terms representable as a float, found '1e308'"),
        ("1e308 + (1e308)", 14,
         "expected a sum of like terms representable as a float, found ')'"),
    ],
)
def test_every_syntax_error_names_its_offset_and_expectation(text, offset, message):
    with pytest.raises(TfSyntaxError) as exc_info:
        parse_expression(text)
    assert exc_info.value.byte_offset == offset
    assert str(exc_info.value) == f"at byte {offset}: {message}"


def test_improper_ratio_rejected():
    with pytest.raises(NonCausalError):
        parse_expression("(s^2+1)/(s+1)")


def test_zero_leading_denominator_rejected():
    # declared order 2, but the s^2 terms cancel to zero
    with pytest.raises(FilterDesignError):
        parse_expression("1/(s^2 - s^2 + s + 1)")


# ----------------------------------------------------------- coeff lists


def test_coeff_lists_commas_and_whitespace():
    tf = parse_coeff_lists("1", "10,1")
    assert nums(tf) == [1.0]
    assert dens(tf) == [10.0, 1.0]
    tf = parse_coeff_lists("2.5 -1e2", "  1 ,  0.5 ,2 ")
    assert nums(tf) == [2.5, -100.0]
    assert dens(tf) == [1.0, 0.5, 2.0]


def test_coeff_lists_reject_junk():
    with pytest.raises(TfSyntaxError):
        parse_coeff_lists("1", "10,one")
    with pytest.raises(TfSyntaxError):
        parse_coeff_lists("", "1")
    with pytest.raises(TfSyntaxError):
        parse_coeff_lists("nan", "1")
    with pytest.raises(TfSyntaxError):
        parse_coeff_lists("1e999", "1")
    with pytest.raises(TfSyntaxError):
        parse_coeff_lists("1", "1,2,s")


@pytest.mark.parametrize("space", ["\u00a0", "\u3000"], ids=["nbsp", "ideographic"])
def test_whitespace_is_ascii_only(space):
    with pytest.raises(TfSyntaxError) as exc_info:
        parse_expression(f"1/(s{space}+ 1)")
    assert exc_info.value.byte_offset == 4
    assert exc_info.value.found == repr(space)
    with pytest.raises(TfSyntaxError) as exc_info:
        parse_coeff_lists("1", f"1,{space}1")
    assert exc_info.value.byte_offset == 2
    assert exc_info.value.found == repr(f"{space}1")


def test_coeff_lists_take_only_ascii_digits():
    with pytest.raises(TfSyntaxError) as exc_info:
        parse_coeff_lists("\u0663", "1,\uff12")
    assert str(exc_info.value) == (
        "at byte 0: expected a decimal number in the numerator list, found '\u0663'"
    )


# ------------------------------------------------------------ round trip


def test_canonical_text_round_trips_bitwise():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(0, 5)
        m = rng.randint(0, n)
        num = [rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-12, 12) for _ in range(m + 1)]
        den = [rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-12, 12) for _ in range(n + 1)]
        if den[0] == 0.0:
            den[0] = 1.0
        tf = parse_coeff_lists(
            ",".join(repr(v) for v in num), ",".join(repr(v) for v in den)
        )
        back = parse_expression(canonical_text(tf))
        assert back.numerator.coeffs == tf.numerator.coeffs
        assert back.denominator.coeffs == tf.denominator.coeffs


# ------------------------------------------------------------------ fuzz


ALPHABET = "0123456789.se^*/+-() \t"
LIST_ALPHABET = "0123456789.eE+-, \t"

# Flat-form corners, each against the token parser; the last three must
# fall back to it.
FLAT_EXAMPLES = [
    "-0.0",
    "s + -0.0",
    "(s^007 + 1)/(s^2 + 1)",
    "2 * s ^ 2 / (s^3 + 1)",
    "(s - -2)/(s^2 + 1)",
    "1e5s/(s + 1)",
    "\t(s + 1)\n/\n ( 2 s^2\t+ 3 ) \n",
    "1/(s\xa0+ 1)",
    "1/(s^33 + 1)",
    "1e308 + 1e308",
]


def outcome(parse, *args):
    """A parse's coefficient bits, or its exception's type and message."""
    try:
        tf = parse(*args)
    except (TfSyntaxError, FilterDesignError) as exc:
        return type(exc), str(exc)
    return [struct.pack("<d", v) for v in tf.numerator.coeffs + tf.denominator.coeffs]


def token_parse(text):
    return ContinuousTransferFunction.from_descending(*_token_sides(text))


def field_parse(num_text, den_text):
    return ContinuousTransferFunction.from_descending(
        _parse_coeff_list(num_text, "numerator"), _parse_coeff_list(den_text, "denominator")
    )


def test_fuzz_structured_never_crashes():
    # every input gives what the token parser gives, on either route
    rng = random.Random(7)
    outcomes = {"ok": 0, "syntax": 0, "design": 0}
    flat = 0
    texts = FLAT_EXAMPLES + [
        "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, 24))) for _ in range(20000)
    ]
    for text in texts:
        got = outcome(parse_expression, text)
        assert got == outcome(token_parse, text), repr(text)
        flat += _flat_sides(text) is not None
        if isinstance(got, list):
            outcomes["ok"] += 1
        elif got[0] is TfSyntaxError:
            outcomes["syntax"] += 1
        else:
            outcomes["design"] += 1
        num, den = (
            "".join(rng.choice(LIST_ALPHABET) for _ in range(rng.randint(0, 12)))
            for _ in range(2)
        )
        assert outcome(parse_coeff_lists, num, den) == outcome(field_parse, num, den)
    # every outcome class must actually occur, and both routes must run
    assert all(v > 0 for v in outcomes.values()), outcomes
    assert flat > 0
    assert [_flat_sides(text) for text in FLAT_EXAMPLES[-3:]] == [None] * 3


def test_fuzz_random_bytes_never_crash():
    rng = random.Random(11)
    for _ in range(5000):
        text = bytes(rng.randrange(256) for _ in range(rng.randint(1, 16))).decode(
            "latin-1"
        )
        assert outcome(parse_expression, text) == outcome(token_parse, text), repr(text)
        assert outcome(parse_coeff_lists, text, text) == outcome(field_parse, text, text)
