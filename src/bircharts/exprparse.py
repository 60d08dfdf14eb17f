"""Expression front-end for rational functions.

Grammar (standard precedence, ^ binds tightest, then unary minus, then
* /, then + -; binary - and / associate left):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ['^' integer] | '-' factor
    atom   := integer | var | '(' expr ')'
    var    := name ['(' indices ')']

Indexed variables like u(1,2) map onto canonical universe names ("u12");
a bare name is accepted when it is itself a universe variable, so printed
canonical forms parse back to themselves.

A subexpression stays a ``MultiPoly`` while it is a polynomial, and a
division by a nonzero constant scales it.  It becomes a canonical
``RatFunc`` only at a division by a non-constant or a negative power, and
combines canonically from then on, so polynomial input pays no gcd.

An exponent whose absolute value exceeds ``MAX_EXPONENT`` is rejected
before any power is computed, so a hostile input such as
``(u(1,2)+1)^100000`` fails at once instead of expanding.  An integer
literal (a constant, an index or an exponent) longer than
``MAX_LITERAL_DIGITS`` digits is rejected before it is converted.
"""

from __future__ import annotations

import re
from typing import Sequence

from .exact_arith import MultiPoly, RatFunc


def indexed_name(stem: str, indices: Sequence[int]) -> str:
    """Canonical name of an indexed variable: u(1,2) is u12, and once an
    index passes 9 the indices are joined by underscores, u(1,10) is u1_10."""
    if all(k < 10 for k in indices):
        return stem + "".join(str(k) for k in indices)
    return stem + "_".join(str(k) for k in indices)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


MAX_EXPONENT = 1000
MAX_LITERAL_DIGITS = 1000

# an integer, a name, a symbol, or any other non-space character (an error)
_TOKEN = re.compile(r"(\d+)|([^\W\d]\w*)|([-+*/^(),])|(\S)")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        digits, name, symbol, _ = m.groups()
        i = m.start()
        if digits is not None:
            if len(digits) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal of {len(digits)} digits exceeds the limit "
                    f"of {MAX_LITERAL_DIGITS} digits", i)
            tokens.append(("int", digits, i))
        elif symbol is not None:
            tokens.append((symbol, symbol, i))
        elif name is not None and (name[0].isalpha() or name[0] == "_"):
            tokens.append(("name", name, i))
        else:
            raise ParseError(f"unexpected character {m.group()[0]!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, universe: Sequence[str]):
        self.text = text
        self.universe = tuple(universe)
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    # grammar ----------------------------------------------------------

    def parse(self) -> RatFunc:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return RatFunc(value)

    def expr(self) -> MultiPoly | RatFunc:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> MultiPoly | RatFunc:
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            elif (type(value) is MultiPoly and type(rhs) is MultiPoly
                    and rhs.is_const and not rhs.is_zero):
                value = value.scale(1 / rhs.const_value)
            else:
                value = RatFunc(value) / rhs
        return value

    def factor(self) -> MultiPoly | RatFunc:
        if self.peek()[0] == "-":
            self.advance()
            return -self.factor()
        value = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            tok = self.expect("int")
            digits = tok[1].lstrip("0")
            # compare lengths first: never convert an arbitrarily long digit string
            if (len(digits) > len(str(MAX_EXPONENT))
                    or int(digits or "0") > MAX_EXPONENT):
                raise ParseError(
                    f"exponent {tok[1]} exceeds the limit {MAX_EXPONENT}", tok[2])
            value = (value if sign > 0 else RatFunc(value)) ** (sign * int(tok[1]))
        return value

    def atom(self) -> MultiPoly | RatFunc:
        tok = self.advance()
        if tok[0] == "int":
            return MultiPoly.const(self.universe, int(tok[1]))
        if tok[0] == "(":
            value = self.expr()
            self.expect(")")
            return value
        if tok[0] == "name":
            return self.variable(tok)
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])

    def variable(self, tok) -> MultiPoly:
        name, pos = tok[1], tok[2]
        if self.peek()[0] == "(":
            self.advance()
            indices = [int(self.expect("int")[1])]
            while self.peek()[0] == ",":
                self.advance()
                indices.append(int(self.expect("int")[1]))
            self.expect(")")
            canonical = indexed_name(name, indices)
        else:
            canonical = name
        if canonical in self.universe:
            return MultiPoly.variable(self.universe, canonical)
        if any(v.rstrip("0123456789_") == name for v in self.universe):
            raise ParseError(f"index out of bounds for {name!r}", pos)
        raise ParseError(f"unknown variable {canonical!r}", pos)


def parse_expression(text: str, universe: Sequence[str]) -> RatFunc:
    """Parse text into a canonical rational function over the universe."""
    return _Parser(text, universe).parse()
