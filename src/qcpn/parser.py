"""Expression parser and printer for sphere-algebra elements.

Grammar (precedence: power > juxtaposition > unary minus > addition):

    expr     := term (('+' | '-') term)*
    term     := '-'* factors
    factors  := factor (('*')? factor)*
    factor   := atom ('^' exponent)?
    atom     := RATIONAL | 'q' | GEN | '(' expr ')'
    exponent := ['-'] INT [ '/' INT ]      (halves allowed only on q)
    GEN      := 'z' INT '*'?

Juxtaposition multiplies; a '*' directly after a generator is the star,
anywhere else it is multiplication.  A generator name takes every digit
that follows the 'z', so z12 is z_12, never z_1 times 2.  A RATIONAL with
a zero denominator is a parse error, and so is a number with more digits than
Python converts to int (4,300 by default); a generator index that long is out of range.

Products of monomial factors (numbers, q, generators and their powers) are
built as words: the words concatenate and the coefficients multiply, so
z_i^k is the word of k letters.  The whole expression is rewritten once, at
the end, which normal forms being unique makes the same as rewriting after
every factor.  A parenthesized group is normalized as a unit when it closes;
a product with a multi-term factor, and the power of a group, go through
``mul`` one factor at a time, so a sum is never expanded unreduced.

``print_expr`` is ``str`` of an NCPoly, which writes this grammar and so
reads back as the same element; it refuses a coefficient with a polynomial
denominator (ValueError), and a coefficient past the digit limit above is an
ArithmeticError that names the limit.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import List, Tuple

from .ncpoly import NCPoly, Presentation, mul, normalize
from .qcoeff import ZERO, QScalar, qpow


_MAX_NESTING = 1_000  # parenthesis depth; each level costs five frames of the recursive descent

sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))  # room for _MAX_NESTING levels


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?:(?P<gen>z\d+\*?)|(?P<num>\d+(?:/\d+)?)|(?P<q>q)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        for kind in ("gen", "num", "q", "op"):
            val = m.group(kind)
            if val is not None:
                if kind == "num" and "/" in val and not _fraction(val.split("/")[1], m.start(kind)):
                    raise ParseError(f"zero denominator in {val!r}", m.start(kind))
                out.append((kind, val, m.start(kind)))
                break
        pos = m.end()
    return out


def _fraction(val: str, pos: int) -> Fraction:
    """Value of a number literal; one past the interpreter's int-conversion digit limit is a ParseError."""
    try:
        return Fraction(val)
    except ValueError:
        raise ParseError(f"number literal longer than {sys.get_int_max_str_digits()} digits", pos) from None


class _Parser:
    def __init__(self, text: str, P: Presentation):
        self.toks = _tokenize(text)
        self.i = 0
        self.P = P
        self.text = text
        self.depth = 0  # open parentheses

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, len(self.text))

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> NCPoly:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input {val!r}", pos)
        return normalize(e, self.P)

    def expr(self) -> NCPoly:
        acc = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                t = self.term()
                acc = acc + (t if val == "+" else -t)
            else:
                return acc

    def term(self) -> NCPoly:
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "-":
                self.take()
                sign = -sign
            else:
                break
        f = self.factors()
        return f if sign > 0 else -f

    def factors(self) -> NCPoly:
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
            elif not (kind in ("gen", "num", "q") or (kind == "op" and val == "(")):
                return acc
            acc = _times(acc, self.factor(), self.P)

    def factor(self) -> NCPoly:
        base, kind = self.atom()
        tok, val, _ = self.peek()
        if tok != "op" or val != "^":
            return base
        self.take()
        e = self.exponent(halves=kind == "q")
        if kind == "q":
            return NCPoly.scalar(qpow(e))
        if e.denominator != 1 or e < 0:
            raise ParseError("only nonnegative integer powers on this base", self.peek()[2])
        k = int(e)
        if kind == "gen":
            ((w, _),) = base.terms.items()
            return NCPoly.word(w * k)
        if kind == "num":
            return NCPoly.scalar(base.terms.get((), ZERO) ** k)
        out = NCPoly.one()
        for _ in range(k):
            out = mul(out, base, self.P)
        return out

    def exponent(self, halves: bool) -> Fraction:
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.take()
            sign = -1
        kind, val, pos = self.take()
        if kind != "num":
            raise ParseError("expected an exponent", pos)
        f = _fraction(val, pos) * sign
        if f.denominator not in (1, 2) or (f.denominator == 2 and not halves):
            raise ParseError("fractional exponents only as halves of q", pos)
        return f

    def atom(self) -> Tuple[NCPoly, str]:
        """The base of a factor and its token kind ('num', 'q', 'gen', or '(' for a group, normalized as a unit)."""
        kind, val, pos = self.take()
        if kind == "num":
            return NCPoly.scalar(QScalar.from_fraction(_fraction(val, pos))), kind
        if kind == "q":
            return NCPoly.scalar(qpow(1)), kind
        if kind == "gen":
            starred = val.endswith("*")
            digits = val[1:].rstrip("*").lstrip("0") or "0"
            if len(digits) > len(str(self.P.n)) or int(digits) > self.P.n:  # length first: int() has a digit limit
                raise ParseError(f"generator z{digits} out of range for n={self.P.n}", pos)
            return NCPoly.gen(int(digits), starred), kind
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING} levels", pos)
            e = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return normalize(e, self.P), "("
        raise ParseError("unexpected end of input" if kind is None else f"unexpected token {val!r}", pos)


def _times(a: NCPoly, b: NCPoly, P: Presentation) -> NCPoly:
    """a * b: the concatenated word when neither has two terms, else the normalized product."""
    if len(a.terms) > 1 or len(b.terms) > 1:
        return mul(a, b, P)
    if not (a.terms and b.terms):
        return NCPoly.zero()
    ((wa, ca),) = a.terms.items()
    ((wb, cb),) = b.terms.items()
    # most factors are generators, with coefficient 1: skip their QScalar product
    return NCPoly({wa + wb: cb if ca.is_one() else ca if cb.is_one() else ca * cb})


def parse_expr(text: str, n: int, P: Presentation | None = None) -> NCPoly:
    """Parse and normalize a sphere-algebra expression at level n."""
    return _Parser(text, P or Presentation(n)).parse()


def print_expr(a: NCPoly) -> str:
    """``str(a)``, the canonical text that parse_expr reads back as a.

    A polynomial denominator is a ValueError (the grammar has no such form);
    a coefficient longer than Python's int-to-text digit limit is an
    ArithmeticError that names the limit.
    """
    if any(len(c.den) > 1 for c in a.terms.values()):
        raise ValueError("coefficient with polynomial denominator cannot be printed in the grammar")
    try:
        return str(a)
    except ValueError:  # int-to-text past sys.get_int_max_str_digits()
        raise ArithmeticError(
            f"normal form has a coefficient longer than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's integer-to-text limit"
        ) from None
