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

The whole input is lexed before any grammar rule runs, so a character that
starts no token is reported first.  The parser then reads the tokens in one
pass.  A "(" pushes the enclosing sum and the group's sign onto a stack of
open groups; its ")" pops them and adds the group's sum into the enclosing
one, power by power and times that sign, as one operand.

Parsing is total: any input string either yields a transfer function or
raises TfSyntaxError (or a FilterDesignError when the text is well-formed
but names an impossible filter, e.g. "s").  Offsets in errors count UTF-8
bytes from the start of the input.
"""

from __future__ import annotations

import math
import re

from .discretize import ContinuousTransferFunction

MAX_EXPONENT = 32

# ASCII digits only: \d, like float(), also takes other scripts' digits.
_NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"

# Every character starts a token; "bad" catches the one that cannot.  Like
# the digits, whitespace is ASCII only: re.ASCII keeps \s from taking U+00A0.
_TOKEN_RE = re.compile(
    rf"(?P<ws>\s+)|(?P<num>{_NUMBER})|(?P<sym>[-+*/^()s])|(?P<bad>.)",
    re.DOTALL | re.ASCII,
)

_UINT_RE = re.compile(r"[0-9]+")

_COEFF_RE = re.compile(rf"[+-]?{_NUMBER}")


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


def _add_term(acc: dict[int, float], pwr: int, coeff: float) -> None:
    # A power starts from its first term, not from 0.0: 0.0 + -0.0 is +0.0,
    # and canonical_text promises that a -0.0 coefficient survives.
    acc[pwr] = acc[pwr] + coeff if pwr in acc else coeff


def _descending(acc: dict[int, float]) -> list[float]:
    order = max(acc)
    return [acc.get(k, 0.0) for k in range(order, -1, -1)]


def parse_expression(text: str) -> ContinuousTransferFunction:
    """Parse an expression like "2/(s^2 + 2s + 2)" into a transfer function."""
    tokens = _lex(text)

    def fail(expected: str) -> TfSyntaxError:
        kind, lexeme, pos = tokens[i]
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
            coeff, pwr = 1.0, 0
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
            _add_term(acc, pwr, sign * coeff)
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
                _add_term(outer, k, group_sign * v)
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
    return ContinuousTransferFunction.from_descending(_descending(num), _descending(acc))


def _parse_coeff_list(text: str, which: str) -> list[float]:
    out = []
    for m in re.finditer(r"[^\s,]+", text, re.ASCII):
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
