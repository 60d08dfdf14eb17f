"""Expression front-end for rational functions.

Grammar (standard precedence, ^ binds tightest, then unary minus, then
* /, then + -; binary - and / associate left):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-'* atom ['^' integer]
    atom   := integer | var | '(' expr ')'
    var    := name ['(' indices ')']

Indexed variables like u(1,2) map onto canonical universe names ("u12");
a bare name is accepted when it is itself a universe variable, so printed
canonical forms parse back to themselves.

One regex scan makes the tokens.  An indexed variable ``u(i, ...)`` is
one token, resolved to its exponent key through the kernel's name->key
table (``_keys``, built once per universe).  The parser never looks inside
a key: only ``exact_arith`` reads the key layout.

A subexpression is held as a raw term dict over those keys while it is a
polynomial, with no zero coefficient.  Products and powers are the
kernel's term-dict product and power (``_product``, ``_power``), which
check the total degree first, as ``MultiPoly`` arithmetic does, so past
``MAX_DEGREE`` they raise ``DegreeLimitError``, and past the kernel's
term budget ``Unsupported``, before the raw product runs.  Each sum is
added in place into one dict, and a division by a nonzero constant scales
it.  The dict becomes a polynomial only at the end of the parse, or as a
``RatFunc`` at a division by a non-constant (one ``ratfunc_normalize`` of
the two dicts) or a negative power; from then on the subexpression
combines canonically, so polynomial input pays no gcd.

An exponent whose absolute value exceeds ``MAX_EXPONENT`` is rejected
before any power is computed, so a hostile input such as
``(u(1,2)+1)^100000`` fails at once instead of expanding.  An integer
literal (a constant, an index or an exponent) longer than
``MAX_LITERAL_DIGITS`` digits is rejected before it is converted.  A run
of unary minus signs is read in a loop, and parentheses nested deeper
than ``MAX_NESTING`` are rejected, so the parser's recursion stays
within a fixed depth whatever the input.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import islice
from typing import Sequence

from .exact_arith import (MultiPoly, RatFunc, _canon, _div, _keys, _power,
                          _product, ratfunc_normalize)


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
MAX_NESTING = 100

# an indexed variable (its name and its index list), an integer, a name, a
# symbol, or any other non-space character (an error)
_TOKEN = re.compile(r"([^\W\d]\w*)\s*\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)"
                    r"|(\d+)|([^\W\d]\w*)|([-+*/^(),])|(\S)")
_DIGITS = re.compile(r"\d+")


def _match(text: str, k: int):
    """The k-th match of the token scan, or None for the end of the text."""
    return next(islice(_TOKEN.finditer(text), k, None), None)


def _error(text: str, k: int, template: str) -> ParseError:
    """``template`` filled with the text of the k-th token, at its position."""
    m = _match(text, k)
    if m is None:
        return ParseError(template.format(""), len(text))
    return ParseError(template.format(next(filter(None, m.groups()))), m.start())


def _check_literals(text: str, k: int) -> None:
    """Raise for the first integer literal in the k-th token that is longer
    than ``MAX_LITERAL_DIGITS``, before any is converted."""
    m = _match(text, k)
    group = 2 if m.group(2) else 3
    for d in _DIGITS.finditer(m.group(group)):
        if len(d.group()) > MAX_LITERAL_DIGITS:
            raise ParseError(
                f"integer literal of {len(d.group())} digits exceeds the limit "
                f"of {MAX_LITERAL_DIGITS} digits", m.start(group) + d.start())


@lru_cache(maxsize=1024)
def _spelled(stem: str, indices: str) -> str:
    """The canonical name of ``stem(indices)``, indices as written."""
    return indexed_name(stem, [int(k) for k in indices.split(",")])


def _scan(text: str, keys: dict) -> tuple:
    """Token kinds and values.  A variable's value is its key, or None
    when it is not in the universe (an error once the parser reaches it);
    an integer's value is its int."""
    kinds = []
    values = []
    for stem, indices, digits, name, symbol, _ in _TOKEN.findall(text):
        if symbol:
            kinds.append(symbol)
            values.append(None)
            continue
        if digits:
            if len(digits) > MAX_LITERAL_DIGITS:
                _check_literals(text, len(kinds))
            kinds.append("int")
            values.append(int(digits))
            continue
        # a name must start with a letter or _; any other character is
        # unexpected as well, and leaves stem and name empty
        first = (stem or name)[:1]
        if not (first.isalpha() or first == "_"):
            raise _error(text, len(kinds), "unexpected character {0[0]!r}")
        if name:
            kinds.append("name")
            values.append(keys.get(name))
            continue
        if len(indices) > MAX_LITERAL_DIGITS:
            _check_literals(text, len(kinds))
        kinds.append("var")
        values.append(keys.get(_spelled(stem, indices)))
    kinds.append("end")
    values.append(None)
    return kinds, values


def _negated(value):
    if type(value) is dict:
        return {e: -c for e, c in value.items()}
    return -value


class _Parser:
    def __init__(self, text: str, universe: tuple):
        self.text = text
        self.universe = universe
        self.width = len(universe)
        self.kinds, self.values = _scan(text, _keys(universe))
        self.i = 0
        self.depth = 0

    def fail(self, k: int, template: str):
        raise _error(self.text, k, template)

    def poly(self, terms: dict) -> MultiPoly:
        return MultiPoly._make(self.universe, _canon(terms))

    def rational(self, value) -> RatFunc:
        """A term dict as a canonical rational function; a RatFunc as is."""
        if type(value) is dict:
            return RatFunc(self.poly(value))
        return value

    # grammar ----------------------------------------------------------

    def parse(self) -> RatFunc:
        value = self.expr()
        if self.kinds[self.i] != "end":
            self.fail(self.i, "unexpected trailing input {!r}")
        return self.rational(value)

    def expr(self):
        kinds = self.kinds
        value = self.term()
        while kinds[self.i] in ("+", "-"):
            op = kinds[self.i]
            self.i += 1
            rhs = self.term()
            if op == "-":
                rhs = _negated(rhs)
            if type(value) is not dict or type(rhs) is not dict:
                value = self.rational(value) + self.rational(rhs)
                continue
            if len(rhs) > len(value):
                value, rhs = rhs, value
            get = value.get
            for e, c in rhs.items():
                s = get(e, 0) + c
                if s:
                    value[e] = s
                else:
                    del value[e]
        return value

    def term(self):
        kinds = self.kinds
        value = self.factor()
        while kinds[self.i] in ("*", "/"):
            op = kinds[self.i]
            self.i += 1
            rhs = self.factor()
            if type(value) is not dict or type(rhs) is not dict:
                if op == "*":
                    value = self.rational(value) * self.rational(rhs)
                else:
                    value = self.rational(value) / self.rational(rhs)
            elif op == "*":
                value = _product(value, rhs, self.width)
            elif not rhs:
                raise ZeroDivisionError("division by the zero function")
            elif len(rhs) == 1 and 0 in rhs:
                c = _div(1, rhs[0])
                if c != 1:
                    value = {e: x * c for e, x in value.items()}
            else:
                value = ratfunc_normalize(self.poly(value), self.poly(rhs))
        return value

    def factor(self):
        kinds = self.kinds
        start = self.i
        while kinds[self.i] == "-":
            self.i += 1
        negative = (self.i - start) & 1
        value = self.power(self.atom())
        return _negated(value) if negative else value

    def power(self, value):
        kinds = self.kinds
        if kinds[self.i] != "^":
            return value
        i = self.i + 1
        negative = kinds[i] == "-"
        if negative:
            i += 1
        if kinds[i] != "int":
            self.fail(i, "expected 'int', found {!r}")
        k = self.values[i]
        if k > MAX_EXPONENT:
            self.fail(i, f"exponent {{}} exceeds the limit {MAX_EXPONENT}")
        self.i = i + 1
        if negative:
            return self.rational(value) ** -k
        if type(value) is not dict:
            return value ** k
        return _power(value, k, self.width)

    def atom(self):
        i = self.i
        kind = self.kinds[i]
        self.i = i + 1
        if kind == "var" or kind == "name":
            key = self.values[i]
            if kind == "name" and self.kinds[i + 1] == "(":
                self.indices(i + 1)
            if key is None:
                self.unknown(i)
            return {key: 1}
        if kind == "int":
            c = self.values[i]
            return {0: c} if c else {}
        if kind == "(":
            if self.depth == MAX_NESTING:
                self.fail(i, f"parentheses nested deeper than the limit "
                             f"of {MAX_NESTING}")
            self.depth += 1
            value = self.expr()
            if self.kinds[self.i] != ")":
                self.fail(self.i, "expected ')', found {!r}")
            self.i += 1
            self.depth -= 1
            return value
        self.fail(i, "unexpected token {!r}")

    # errors -----------------------------------------------------------

    def indices(self, k: int):
        """Report the index list opening at token k: had it been well
        formed, the scan would have made the variable one token."""
        kinds = self.kinds
        while True:
            k += 1
            if kinds[k] != "int":
                self.fail(k, "expected 'int', found {!r}")
            k += 1
            if kinds[k] != ",":
                self.fail(k, "expected ')', found {!r}")

    def unknown(self, k: int):
        m = _match(self.text, k)
        name = m.group(1) or m.group(4)
        canonical = _spelled(name, m.group(2)) if m.group(2) else name
        # only an index list can be out of bounds; a bare stem is unknown
        if m.group(2) and any(v.rstrip("0123456789_") == name
                              for v in self.universe):
            raise ParseError(f"index out of bounds for {name!r}", m.start())
        raise ParseError(f"unknown variable {canonical!r}", m.start())


def parse_expression(text: str, universe: Sequence[str]) -> RatFunc:
    """Parse text into a canonical rational function over the universe."""
    return _Parser(text, tuple(universe)).parse()
