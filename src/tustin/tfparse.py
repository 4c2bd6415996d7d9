"""Text forms of transfer functions: expressions and coefficient lists.

The expression grammar covers the usual way a transfer function is written
down in engineering notes::

    expr := poly "/" poly | poly
    poly := term (("+" | "-") term)*
    term := number? ("*"? "s" ("^" uint)?)?     (at least one part present)

with parentheses allowed around a polynomial, implicit multiplication
between a coefficient and s ("10s"), one optional sign at the start of a
term, and insignificant ASCII whitespace.  "^" binds tighter than multiplication,
which binds tighter than "+"/"-".  Exactly one division may appear, at the
top level; exponents above MAX_EXPONENT are rejected.

An expression takes one of two routes, chosen from the text itself.  The
flat form, at most one "/" between two sides that are each a flat sum of
terms with an optional pair of parentheses around it, is read whole terms
at a time: one regex match checks a side's shape and one findall yields its
terms.  Everything else goes to the token parser, and so does flat text
whose exponent exceeds MAX_EXPONENT or whose literal or sum of like terms
overflows.  Both routes add the terms of each power in the order written,
so they give the same coefficients to the bit, and errors come only from
the token parser.

The token parser lexes the whole input before any grammar rule runs, so a
character that starts no token is reported first.  It then reads the tokens
in one pass.  A "(" pushes the enclosing sum and the group's sign onto a
stack of open groups; its ")" pops them and adds the group's sum into the
enclosing one, power by power and times that sign, as one operand.

A coefficient list is read field by field: each run of characters between
commas and ASCII whitespace must be one finite decimal number, and the
first field that is not is the one reported.

Parsing is total: any input string either yields a transfer function or
raises TfSyntaxError (or a FilterDesignError when the text is well-formed
but names an impossible filter, e.g. "s").  Offsets in errors count UTF-8
bytes from the start of the input.
"""

from __future__ import annotations

import functools
import math
import re

from .discretize import ContinuousTransferFunction

MAX_EXPONENT = 32

# ASCII digits only: \d, like float(), also takes other scripts' digits.
# Each number matches in one way only, so a failed match of the patterns
# below backtracks through it in linear time.
_NUMBER = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"

# Every character starts a token; "bad" catches the one that cannot.  Like
# the digits, whitespace is ASCII only: re.ASCII keeps \s from taking U+00A0.
_TOKEN_RE = re.compile(
    rf"(?P<ws>\s+)|(?P<num>{_NUMBER})|(?P<sym>[-+*/^()s])|(?P<bad>.)",
    re.DOTALL | re.ASCII,
)

_UINT_RE = re.compile(r"[0-9]+")

_COEFF_RE = re.compile(rf"[+-]?{_NUMBER}")

# What the token parser expects where like terms overflow as they are added.
_SUM = "a sum of like terms representable as a float"

# The patterns of the flat form and of a list field, compiled by _compiled
# at their first use.  A side of the flat form: an optional "(" and its ")"
# around a signed sum of terms.  An exponent has at most two digits after
# its leading zeros, so int() never sees a long one.  Every piece matches
# in one way only (no two whitespace runs touch), so a failed match takes
# linear time.
_POWER = r"s(?:\s*\^\s*(?:0*[1-9][0-9]?|0+))?"
_BODY = rf"(?:{_NUMBER}(?:\s*(?:\*\s*)?{_POWER})?|{_POWER})"
_SIDE = rf"\s*(?:(\()\s*)?((?:[-+]\s*)?{_BODY}(?:\s*[-+]\s*(?:[-+]\s*)?{_BODY})*)\s*(?(1)\)\s*)"
# One term of the sum that _SIDE matched: the operator or sign before it, a
# second sign, the number ("" when absent), "s" or "", and the exponent's
# digits after its leading zeros.
_TERM = rf"\s*([-+]?)\s*([-+]?)\s*({_NUMBER}|(?=s))\s*(?:\*\s*)?(s?)(?:\s*\^\s*0*([0-9]+))?"
# _TERM's two signs, joined, and its "s" and exponent, joined, as the token
# parser's sign and power.  An exponent above MAX_EXPONENT is absent.
_SIGNS = {"": 1.0, "+": 1.0, "-": -1.0, "++": 1.0, "+-": -1.0, "-+": -1.0, "--": 1.0}
_POWERS = {"": 0, "s": 1, **{f"s{k}": k for k in range(MAX_EXPONENT + 1)}}
# One field of a coefficient list.
_FIELD = r"[^\s,]+"


@functools.cache
def _compiled(pattern: str) -> re.Pattern[str]:
    # At import, compiling the flat form's patterns would add about 2 ms to
    # the start of every process.
    return re.compile(pattern, re.ASCII)


class TfSyntaxError(ValueError):
    """Malformed transfer-function text.

    Carries the UTF-8 byte offset of the offending lexeme plus a
    description of what was expected and what was found.
    """

    def __init__(self, text: str, char_pos: int, expected: str, found: str):
        self.byte_offset = len(text[:char_pos].encode("utf-8", "surrogatepass"))
        self.expected = expected
        self.found = found
        super().__init__(
            f"at byte {self.byte_offset}: expected {expected}, found {found}"
        )


def _lex(text: str) -> list[tuple[str, str, int]]:
    """(kind, lexeme, offset) per token; kind is "num", "end" or the lexeme."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        if kind == "bad":
            raise TfSyntaxError(
                text, m.start(), "a number, 's', or an operator", repr(lexeme)
            )
        if kind != "ws":
            tokens.append((kind if kind == "num" else lexeme, lexeme, m.start()))
    tokens.append(("end", "end of input", len(text)))
    return tokens


def _add_term(acc: dict[int, float], pwr: int, coeff: float) -> float:
    """Add coeff into power pwr of acc; returns the power's new sum."""
    # A power starts from its first term, not from 0.0: 0.0 + -0.0 is +0.0,
    # and canonical_text promises that a -0.0 coefficient survives.
    acc[pwr] = total = acc[pwr] + coeff if pwr in acc else coeff
    return total


def _descending(acc: dict[int, float]) -> list[float]:
    order = max(acc)
    return [acc.get(k, 0.0) for k in range(order, -1, -1)]


def parse_expression(text: str) -> ContinuousTransferFunction:
    """Parse an expression like "2/(s^2 + 2s + 2)" into a transfer function."""
    sides = _flat_sides(text) or _token_sides(text)
    return ContinuousTransferFunction.from_descending(*sides)


def _flat_sides(text: str) -> tuple[list[float], list[float]] | None:
    """The descending coefficients of flat-form text, or None for any other
    text, whose coefficients or error the token parser gives."""
    num_text, slash, den_text = text.partition("/")
    sides = []
    for side in (num_text, den_text) if slash else (num_text,):
        m = _compiled(_SIDE).fullmatch(side)
        if m is None:
            return None
        acc: dict[int, float] = {}
        for op, sign, number, s, exp in _compiled(_TERM).findall(side, *m.span(2)):
            pwr = _POWERS.get(s + exp)
            if pwr is None:
                return None
            _add_term(acc, pwr, _SIGNS[op + sign] * (float(number) if number else 1.0))
        # An overflowing literal or sum is the token parser's error.
        if not all(map(math.isfinite, acc.values())):
            return None
        sides.append(_descending(acc))
    return sides[0], sides[1] if slash else [1.0]


def _token_sides(text: str) -> tuple[list[float], list[float]]:
    """The descending coefficients of any expression text; raises
    TfSyntaxError at the first token the grammar cannot take."""
    tokens = _lex(text)

    def fail(expected: str, at: int | None = None) -> TfSyntaxError:
        kind, lexeme, pos = tokens[i if at is None else at]
        found = lexeme if kind == "end" else repr(lexeme)
        return TfSyntaxError(text, pos, expected, found)

    num = None  # the numerator's sum, once "/" is read
    acc: dict[int, float] = {}  # power -> coefficient of the innermost open sum
    groups: list[tuple[dict[int, float], float]] = []  # per open "(": outer sum, sign
    sign, operand, i = 1.0, True, 0  # the next operand's sign; whether one is due
    while True:
        kind = tokens[i][0]
        if operand:
            if kind == "+" or kind == "-":
                sign = -sign if kind == "-" else sign
                i += 1
                kind = tokens[i][0]
            if kind == "(":
                groups.append((acc, sign))
                acc, sign = {}, 1.0
                i += 1
                continue
            # term := number? ("*"? "s" ("^" uint)?)?
            coeff, pwr, term = 1.0, 0, i
            if kind == "num":
                coeff = float(tokens[i][1])
                if math.isinf(coeff):
                    raise fail("a number representable as a float")
                i += 1
                kind = tokens[i][0]
                if kind == "*":
                    i += 1
                    kind = tokens[i][0]
                    if kind != "s":
                        raise fail("'s' after '*'")
            elif kind != "s":
                raise fail("a number, 's', or '('")
            if kind == "s":
                pwr = 1
                i += 1
                if tokens[i][0] == "^":
                    i += 1
                    kind, lexeme = tokens[i][:2]
                    if kind != "num" or _UINT_RE.fullmatch(lexeme) is None:
                        raise fail("a nonnegative integer exponent")
                    # Length first: int() refuses more than 4,300 digits.
                    digits = lexeme.lstrip("0") or "0"
                    pwr = int(digits) if len(digits) <= len(str(MAX_EXPONENT)) else math.inf
                    if pwr > MAX_EXPONENT:
                        raise fail(f"an exponent no greater than {MAX_EXPONENT}")
                    i += 1
            if math.isinf(_add_term(acc, pwr, sign * coeff)):
                raise fail(_SUM, term)
            operand = False
            continue
        if kind == "+" or kind == "-":
            sign, operand = (-1.0 if kind == "-" else 1.0), True
        elif groups:
            if kind == "/":
                raise fail("')' (division cannot nest inside parentheses)")
            if kind != ")":
                raise fail("')'")
            outer, group_sign = groups.pop()
            for k, v in acc.items():
                if math.isinf(_add_term(outer, k, group_sign * v)):
                    raise fail(_SUM)
            acc = outer
        elif kind == "end":
            break
        elif num is None:
            if kind != "/":
                raise fail("'+', '-', '/', or end of input")
            num, acc, sign, operand = acc, {}, 1.0, True
        elif kind == "/":
            raise fail("end of input (only one division is allowed)")
        else:
            raise fail("'+', '-', or end of input")
        i += 1
    if num is None:
        num, acc = acc, {0: 1.0}
    return _descending(num), _descending(acc)


def _parse_coeff_list(text: str, which: str) -> list[float]:
    """The numbers of a list, read field by field; raises TfSyntaxError at
    the first field that is not a finite decimal number."""
    out = []
    for m in _compiled(_FIELD).finditer(text):
        if _COEFF_RE.fullmatch(m.group()) is None:
            raise TfSyntaxError(
                text, m.start(), f"a decimal number in the {which} list",
                repr(m.group()),
            )
        v = float(m.group())
        if math.isinf(v):
            raise TfSyntaxError(
                text, m.start(), "a number representable as a float", repr(m.group())
            )
        out.append(v)
    if not out:
        raise TfSyntaxError(
            text, len(text), f"at least one {which} coefficient", "end of input"
        )
    return out


def parse_coeff_lists(num_text: str, den_text: str) -> ContinuousTransferFunction:
    """Parse descending coefficient lists, comma or ASCII-whitespace separated."""
    num = _parse_coeff_list(num_text, "numerator")
    den = _parse_coeff_list(den_text, "denominator")
    return ContinuousTransferFunction.from_descending(num, den)


def canonical_text(tf: ContinuousTransferFunction) -> str:
    """Render a transfer function so that re-parsing it is lossless.

    Every power gets an explicit term with a repr-exact coefficient, so the
    declared orders and the coefficient bit patterns survive a round trip.
    """

    def poly_text(desc: tuple[float, ...]) -> str:
        n = len(desc) - 1
        return " + ".join(f"{c!r}*s^{n - i}" for i, c in enumerate(desc))

    return (
        f"({poly_text(tf.numerator.descending())})"
        f"/({poly_text(tf.denominator.descending())})"
    )
