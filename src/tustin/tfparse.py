"""Text forms of transfer functions: expressions and coefficient lists.

The expression grammar covers the usual way a transfer function is written
down in engineering notes::

    expr := poly "/" poly | poly
    poly := term (("+" | "-") term)*
    term := number? ("*"? "s" ("^" uint)?)?     (at least one part present)

with parentheses allowed around a polynomial, implicit multiplication
between a coefficient and s ("10s"), one optional sign at the start of a
term, and insignificant whitespace.  "^" binds tighter than multiplication,
which binds tighter than "+"/"-".  Exactly one division may appear, at the
top level; exponents above MAX_EXPONENT are rejected.

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

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<s>s)"
    r"|(?P<op>[-+*/^()])"
)

_UINT_RE = re.compile(r"\d+")

_COEFF_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


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


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _lex(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise TfSyntaxError(
                text, pos, "a number, 's', or an operator", repr(text[pos])
            )
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "end of input", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str) -> "TfSyntaxError":
        tok = self.peek()
        found = tok.text if tok.kind == "end" else repr(tok.text)
        raise TfSyntaxError(self.text, tok.pos, expected, found)

    def poly(self) -> dict[int, float]:
        acc: dict[int, float] = {}
        self.operand(acc, negate=False)
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                self.operand(acc, negate=tok.text == "-")
            else:
                return acc

    def operand(self, acc: dict[int, float], negate: bool) -> None:
        sign = -1.0 if negate else 1.0
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            if tok.text == "-":
                sign = -sign
            tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.poly()
            closer = self.peek()
            if not (closer.kind == "op" and closer.text == ")"):
                if closer.kind == "op" and closer.text == "/":
                    self.fail("')' (division cannot nest inside parentheses)")
                self.fail("')'")
            self.advance()
            for k, v in inner.items():
                _add_term(acc, k, sign * v)
            return
        coeff, pwr = self.term()
        _add_term(acc, pwr, sign * coeff)

    def term(self) -> tuple[float, int]:
        tok = self.peek()
        if tok.kind == "num":
            coeff = float(tok.text)
            if math.isinf(coeff):
                self.fail("a number representable as a float")
            self.advance()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "*":
                self.advance()
                if self.peek().kind != "s":
                    self.fail("'s' after '*'")
                self.advance()
                return coeff, self.power_suffix()
            if nxt.kind == "s":
                self.advance()
                return coeff, self.power_suffix()
            return coeff, 0
        if tok.kind == "s":
            self.advance()
            return 1.0, self.power_suffix()
        self.fail("a number, 's', or '('")
        raise AssertionError("unreachable")

    def power_suffix(self) -> int:
        tok = self.peek()
        if not (tok.kind == "op" and tok.text == "^"):
            return 1
        self.advance()
        exp = self.peek()
        if exp.kind != "num" or _UINT_RE.fullmatch(exp.text) is None:
            self.fail("a nonnegative integer exponent")
        if int(exp.text) > MAX_EXPONENT:
            self.fail(f"an exponent no greater than {MAX_EXPONENT}")
        self.advance()
        return int(exp.text)


def _add_term(acc: dict[int, float], pwr: int, coeff: float) -> None:
    # A power starts from its first term, not from 0.0: 0.0 + -0.0 is +0.0,
    # and canonical_text promises that a -0.0 coefficient survives.
    acc[pwr] = acc[pwr] + coeff if pwr in acc else coeff


def _descending(acc: dict[int, float]) -> list[float]:
    order = max(acc)
    return [acc.get(k, 0.0) for k in range(order, -1, -1)]


def parse_expression(text: str) -> ContinuousTransferFunction:
    """Parse an expression like "2/(s^2 + 2s + 2)" into a transfer function."""
    p = _Parser(text)
    num = p.poly()
    tok = p.peek()
    if tok.kind == "op" and tok.text == "/":
        p.advance()
        den = p.poly()
        tail = p.peek()
        if tail.kind == "op" and tail.text == "/":
            p.fail("end of input (only one division is allowed)")
        if tail.kind != "end":
            p.fail("'+', '-', or end of input")
    elif tok.kind == "end":
        den = {0: 1.0}
    else:
        p.fail("'+', '-', '/', or end of input")
    return ContinuousTransferFunction.from_descending(
        _descending(num), _descending(den)
    )


def _parse_coeff_list(text: str, which: str) -> list[float]:
    out = []
    for m in re.finditer(r"[^\s,]+", text):
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
    """Parse descending coefficient lists, comma or whitespace separated."""
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
