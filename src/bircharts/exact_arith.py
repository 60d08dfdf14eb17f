"""Exact symbolic arithmetic over the rationals.

Three layers: arbitrary-precision rationals (stdlib ``Fraction``), sparse
multivariate polynomials over a fixed ordered variable universe, and
rational functions kept in a unique canonical form.  All values are
immutable and all operations are pure, so equality of canonical forms is
plain structural equality.

Canonical form of a rational function num/den:

* gcd(num, den) = 1 as polynomials (primitive-part GCD),
* num and den have integer coefficients whose contents are coprime,
* den has a positive leading coefficient in graded-lex order,
* the zero function is 0/1.

Polynomials are dicts mapping exponent keys to nonzero coefficients.  The
key of an exponent vector e over a universe of n variables is one ``int``
of n + 1 fields of 16 bits: the total degree in the top field, then e_0,
..., e_{n-1}, the first variable highest (the packed exponent vectors of
Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", 2007).  The top bit of every field is a guard
bit and stays clear, so no exponent and no total degree exceeds
``MAX_DEGREE`` = 32767; a product, a power or a constructor that would
pass it raises ``DegreeLimitError``, a ``ValueError``.  With these keys a
monomial product is one integer addition, graded-lex order is integer
order (``max(terms)`` is the leading term), the constant term has key 0,
and a divisor's key fits under a dividend's exactly when subtracting it
from the dividend's with every guard bit set leaves every guard bit set.
``MultiPoly.exponents()`` decodes the keys back to tuples.  A coefficient
is an ``int`` when it is integral and a ``Fraction`` otherwise, so the
integer polynomials that canonical forms consist of never touch
``Fraction``.  The graded-lex order is used only for canonical printing
and leading-term queries; no mathematical meaning is attached to it.

The public ``MultiPoly(vars, terms)`` constructor validates and
canonicalizes its input.  Kernel arithmetic builds its results through the
trusted ``MultiPoly._make``, which stores terms it already knows to be
valid without checking them again.  There is one product and one power
on term dicts, ``_product`` and ``_power``: each checks the total degree,
takes the raw product (``_mul_terms``, or ``_pow_terms`` by repeated
squaring) and makes it canonical once with ``_canon``.  ``MultiPoly``
arithmetic and the expression parser both call them.  A raw product
past ``_TERM_BUDGET`` pairs of terms raises ``Unsupported`` before it runs.

Only this module reads the key layout.  Other modules hold keys without
looking inside them: the parser takes each variable's key from the table
``_keys``, and ``membership`` its vector fields from ``_derivation``.

There is one exact division and one content routine, on term dicts, shared
by ``poly_exact_div``, ``poly_gcd``'s divisor test and the heuristic gcd.
It takes the remainder's terms off a heap in descending graded-lex order,
so no term is looked at twice.  A remainder left by a divisor the kernel
found (a gcd or a content) raises ``KernelInvariantError``, by a caller's
divisor a ``ValueError``.  A single term c * x^a and a polynomial have the
gcd x^m, m the componentwise minimum of a and the polynomial's exponents
(``_min_key``): ``poly_gcd`` answers it at once, and ``ratfunc_normalize``
and ``substitute`` shift m out of a quotient with a one-term side.  The
canonical scaling takes no primitive parts: it clears the denominators of
both sides and divides them by one gcd of all their coefficients, so an
integer polynomial over a monic monomial is kept as it is.

``substitute`` sums c * prod(v_i ** e_i) over the terms with one power
table per variable, in the arithmetic the values call for; a polynomial
decodes its keys to each term's nonzero exponents once and keeps them
(``_sparse_terms``).  When every value has a single-term denominator
c_i * x^m_i (m_i = 0 for a constant), each is divided by c_i and the sum
is taken on raw term dicts over one denominator x^top, the componentwise
maximum (``_max_key``) of the weights w(e) = sum e_i * m_i.  The m_i form
a shift table, and a polynomial keeps its weights and their maximum per
table value next to its decode (``_weighted``), so substitutions with
equal tables weigh it once.  Each term's product starts from
x^(top - w(e)) and adds its last power straight into the sum.  The
degree is bounded before any product, so no key carries, and
past ``_TERM_BUDGET`` pairs of terms in the raw products of one pullback
``Unsupported`` is raised.  With a denominator of two or more terms the
sum is taken in canonical ``RatFunc`` arithmetic: polynomial arithmetic
on rational values clears ever larger denominators (the tests ran past
ten minutes), and canonical arithmetic on polynomial values pays gcds at
every step (dense pullbacks ran under a quarter of the speed).

Two values may be combined only when their universes agree; a constant joins
a non-constant operand's universe (it mentions no variable, so no capture can
occur) and two constants over different universes go to ``()``, so operand
order never changes a universe.  Any other mix raises ``UniverseError``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import compress, repeat
from math import gcd as _igcd, lcm as _ilcm
from operator import mul, or_
from struct import Struct
from typing import (Collection, Iterable, Mapping, NamedTuple, Optional,
                    Sequence)

from .root_data import Unsupported


class UniverseError(ValueError):
    """Two values over different (non-constant) variable universes were mixed."""


class PoleError(ArithmeticError):
    """A substitution made a denominator vanish identically."""


class DegreeLimitError(ValueError):
    """A polynomial's total degree would exceed ``MAX_DEGREE``."""


class KernelInvariantError(RuntimeError):
    """A division by a gcd or a content left a remainder: a kernel fault."""


# exponent keys (see the module docstring)
_BITS = 16
_FIELD = (1 << _BITS) - 1
MAX_DEGREE = (1 << _BITS - 1) - 1

# The pairs of terms that the raw products of one pullback, or one raw
# product of ``_product`` and ``_power``, may form.
_TERM_BUDGET = 10 ** 6
_OVER_BUDGET = "the pullback would multiply more than {} pairs of terms"

# ``_INT.issuperset(map(type, coefficients))`` tests in C that all are ints
_INT = frozenset((int,))


@lru_cache(maxsize=None)
def _layout(width: int) -> tuple:
    """Structs that write the fields of a key, degree first, and read its
    exponents back without the degree."""
    return Struct(f">{width + 1}H"), Struct(f">2x{width}H")


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise DegreeLimitError(
            f"total degree {degree} exceeds the limit {MAX_DEGREE}")


def _pack(exp: tuple) -> int:
    """The key of a tuple of non-negative exponents."""
    degree = sum(exp)
    _check_degree(degree)
    return int.from_bytes(_layout(len(exp))[0].pack(degree, *exp), "big")


def _unpack(key: int, width: int) -> tuple:
    """The exponent tuple of a key."""
    reader = _layout(width)[1]
    return reader.unpack(key.to_bytes(reader.size, "big"))


def _shift(width: int, i: int) -> int:
    """Bit offset of the field of variable i."""
    return _BITS * (width - 1 - i)


def _var_key(width: int, i: int) -> int:
    """The key of the i-th variable."""
    return 1 << _BITS * width | 1 << _shift(width, i)


@lru_cache(maxsize=64)
def _keys(universe: tuple) -> dict:
    """The key of each variable of the universe, by name (the first
    position of a repeated name); callers only read it."""
    width = len(universe)
    keys: dict = {}
    for i, name in enumerate(universe):
        keys.setdefault(name, _var_key(width, i))
    return keys


def _degree_in(terms: dict, width: int, i: int) -> int:
    """The largest exponent of variable i in the term dict; -1 when empty."""
    s = _shift(width, i)
    return max((e >> s & _FIELD for e in terms), default=-1)


@lru_cache(maxsize=None)
def _guards(fields: int) -> int:
    """The guard bits of the lowest ``fields`` fields."""
    return (1 << _BITS * fields) // _FIELD << _BITS - 1


def _support(keys: Iterable[int], width: int) -> tuple:
    """Indices of the variables with a nonzero exponent in some key."""
    return tuple(compress(range(width), _unpack(reduce(or_, keys, 0), width)))


def _min_key(keys: Collection[int], width: int) -> int:
    """The key of the componentwise minimum of the (nonempty) keys.  A
    field of ``(e | guards) - ones`` keeps its guard bit exactly when its
    exponent is nonzero, so the AND of these over the keys marks the
    variables in every term; most often it is 0 after a few terms, and
    only the variables it marks are decoded."""
    guards = _guards(width)
    ones = guards >> _BITS - 1
    common = guards
    for e in keys:
        common &= (e | guards) - ones
        if not common:
            return 0
    key = 0
    for i in compress(range(width), _unpack(common, width)):
        s = _shift(width, i)
        key += min(e >> s & _FIELD for e in keys) * _var_key(width, i)
    return key


def _max_key(keys: Collection[int], width: int) -> int:
    """The key of the componentwise maximum of the (nonempty) keys, checked
    as by ``_pack``.  A field of ``(a | guards) - b`` keeps its guard bit
    exactly when a's exponent is at least b's; the degree of the maximum is
    its key mod 2**16 - 1 while the keys' degrees sum below that."""
    s = _BITS * width
    guards = _guards(width)
    top = bound = 0
    for e in keys:
        bound += e >> s
        e &= (1 << s) - 1
        keep = ((top | guards) - e & guards) >> _BITS - 1
        top = e ^ (top ^ e) & keep * _FIELD
    if bound > MAX_DEGREE:  # a key may also carry into its degree field
        _check_degree(max(keys) >> s)
        _check_degree(sum(_unpack(top, width)))
    return top % _FIELD << s | top


def _coeff(value):
    """Canonical coefficient: ``int`` when integral, ``Fraction`` otherwise."""
    if type(value) is int:
        return value
    c = Fraction(value)
    return c.numerator if c.denominator == 1 else c


def _canon(terms: dict) -> dict:
    """Drop zero coefficients and store integral Fractions as int.  The
    caller's dict is fresh, and is changed in place when it has no zero."""
    if not all(terms.values()):
        terms = {e: c for e, c in terms.items() if c}
    if not _INT.issuperset(map(type, terms.values())):
        for e, c in terms.items():
            if type(c) is not int and c.denominator == 1:
                terms[e] = c.numerator
    return terms


def _mul_terms(at: dict, bt: dict, out: Optional[dict] = None) -> dict:
    """The product of two term dicts, added into ``out`` when given; not
    canonical.  The caller keeps every total degree within ``MAX_DEGREE``,
    so no key carries.  A single-term operand makes every key distinct."""
    if len(at) > len(bt):
        at, bt = bt, at
    if out is None:
        out = {}
        if len(at) == 1:
            (e1, c1), = at.items()
            for e2, c2 in bt.items():
                out[e1 + e2] = c1 * c2
            return out
    bt = bt.items()
    for e1, c1 in at.items():
        for e2, c2 in bt:
            e = e1 + e2
            c = c1 * c2
            if e in out:
                c += out[e]
            out[e] = c
    return out


def _budgeted(at: dict, bt: dict) -> dict:
    """The raw product of two term dicts, refused as ``Unsupported`` past
    ``_TERM_BUDGET`` pairs of terms before it runs."""
    if len(at) * len(bt) > _TERM_BUDGET:
        raise Unsupported(
            f"a product of {len(at)} by {len(bt)} terms would multiply "
            f"more than {_TERM_BUDGET} pairs of terms")
    return _mul_terms(at, bt)


def _product(at: dict, bt: dict, width: int) -> dict:
    """The canonical product of two term dicts without zero coefficients
    over a universe of ``width`` variables, after its degree check: the top
    fields of the leading keys hold the largest total degrees."""
    if at and bt:
        s = _BITS * width
        _check_degree((max(at) >> s) + (max(bt) >> s))
    return _canon(_budgeted(at, bt))


def _power(terms: dict, k: int, width: int) -> dict:
    """The canonical k-th power (k >= 0) of a term dict without zero
    coefficients, after its degree check; the dict itself when k is 1."""
    if terms:
        _check_degree((max(terms) >> _BITS * width) * k)
    return _canon(_pow_terms(terms, k))


def _pow_terms(terms: dict, k: int) -> dict:
    """A term dict raised to k >= 0 by repeated squaring on raw term
    dicts, each product budgeted; not canonical, and the dict itself when
    k is 1.  The caller checks the degree.  A single term is raised
    directly."""
    if not k:
        return {0: 1}
    if len(terms) == 1:
        (e, c), = terms.items()
        return {e * k: c ** k}
    result = None
    while True:
        if k & 1:
            result = terms if result is None else _budgeted(result, terms)
        k >>= 1
        if not k:
            return result
        terms = _budgeted(terms, terms)


def _div(a, b):
    """Canonical coefficient a/b; exact integer division when it is exact."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coeff(Fraction(a) / b)


class MultiPoly:
    """Sparse multivariate polynomial over Q.

    ``vars`` is the ordered universe; ``terms`` maps exponent keys over it
    to nonzero coefficients (see the module docstring), and the public
    constructor takes exponent tuples of length len(vars) in their place.
    The zero polynomial has no terms.
    """

    __slots__ = ("vars", "terms", "_sparse", "_weights")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, Fraction]):
        vs = tuple(vars)
        clean = {}
        width = len(vs)
        for exp, coeff in terms.items():
            e = tuple(int(x) for x in exp)
            if len(e) != width:
                raise ValueError(
                    f"exponent vector {e} has length {len(e)}, expected {width}")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            key = _pack(e)
            c = _coeff(coeff)
            if c != 0:
                clean[key] = c
        self.vars = vs
        self.terms = clean

    @classmethod
    def _make(cls, vars: tuple, terms: dict) -> "MultiPoly":
        """Trusted constructor: ``vars`` is a tuple and ``terms`` already
        canonical (right width, non-negative exponents, nonzero canonical
        coefficients).  The dict is stored, not copied."""
        obj = object.__new__(cls)
        obj.vars = vars
        obj.terms = terms
        return obj

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: Sequence[str]) -> "MultiPoly":
        return _small_const(tuple(vars), 0)

    @classmethod
    def const(cls, vars: Sequence[str], value) -> "MultiPoly":
        vs = tuple(vars)
        c = _coeff(value)
        if type(c) is int and -_SMALL <= c <= _SMALL:
            return _small_const(vs, c)
        return cls._make(vs, {0: c})

    @classmethod
    def one(cls, vars: Sequence[str]) -> "MultiPoly":
        return _small_const(tuple(vars), 1)

    @classmethod
    def variable(cls, vars: Sequence[str], name: str) -> "MultiPoly":
        vs = tuple(vars)
        key = _keys(vs).get(name)
        if key is None:
            raise UniverseError(f"variable {name!r} not in universe {vs}")
        return cls._make(vs, {key: 1})

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        t = self.terms
        return not t or (len(t) == 1 and 0 in t)

    @property
    def is_one(self) -> bool:
        t = self.terms
        return len(t) == 1 and t.get(0) == 1

    @property
    def const_value(self) -> Fraction:
        if not self.is_const:
            raise ValueError("polynomial is not constant")
        if not self.terms:
            return Fraction(0)
        return Fraction(next(iter(self.terms.values())))

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def leading_exp(self) -> tuple:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        return _unpack(max(self.terms), len(self.vars))

    def leading_coeff(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[max(self.terms)]

    def degree_in(self, index: int) -> int:
        return _degree_in(self.terms, len(self.vars), index)

    def variables_present(self) -> tuple:
        """Indices of universe variables that actually occur."""
        return _support(self.terms, len(self.vars))

    def exponents(self) -> dict:
        """The terms keyed by exponent tuples instead of keys."""
        width = len(self.vars)
        return {_unpack(e, width): c for e, c in self.terms.items()}

    # -- coercion -----------------------------------------------------

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return None, None
        if self.vars == other.vars:
            return self, other
        if self.is_const and other.is_const:
            return MultiPoly.const((), self.const_value)._pair(other.const_value)
        if other.is_const:
            return self, MultiPoly.const(self.vars, other.const_value)
        if self.is_const:
            return MultiPoly.const(other.vars, self.const_value), other
        raise UniverseError(
            f"cannot mix universes {self.vars} and {other.vars}")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        terms = dict(a.terms)
        get = terms.get
        for e, c in b.terms.items():
            s = get(e, 0) + c
            if not s:
                del terms[e]
            elif type(s) is int or s.denominator != 1:
                terms[e] = s
            else:
                terms[e] = s.numerator
        return MultiPoly._make(a.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        t = self.terms
        if len(t) <= 1:
            if not t:
                return self
            c = t.get(0)
            if type(c) is int and -_SMALL <= c <= _SMALL:
                return _small_const(self.vars, -c)
        return MultiPoly._make(self.vars, {e: -c for e, c in t.items()})

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return MultiPoly._make(a.vars, _product(a.terms, b.terms, len(a.vars)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        if k == 1:
            return self
        return MultiPoly._make(self.vars, _power(self.terms, k, len(self.vars)))

    def scale(self, c) -> "MultiPoly":
        c = _coeff(c)
        if not c:
            return _small_const(self.vars, 0)
        if c == 1:
            return self
        return MultiPoly._make(
            self.vars, _canon({e: x * c for e, x in self.terms.items()}))

    # -- comparison / printing ----------------------------------------

    def __eq__(self, other):
        try:
            a, b = self._pair(other)
        except UniverseError:
            return False
        if a is None:
            return NotImplemented
        return a.terms == b.terms

    __hash__ = None

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        width = len(self.vars)
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(self.vars, _unpack(e, width)):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mag = abs(c)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = str(mag) + "*" + "*".join(factors)
            else:
                body = str(mag)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"MultiPoly({self})"


_SMALL = 256


@lru_cache(maxsize=None)
def _small_const(vs: tuple, c: int) -> MultiPoly:
    """The shared constant polynomial c over ``vs``, for |c| <= _SMALL.

    Values are immutable, so, as with CPython's small ints, each small
    constant over one universe is a single object: numeric results (whose
    entries are small fractions, with denominators mostly 1) hold no
    copies of them.
    """
    return MultiPoly._make(vs, {0: c} if c else {})


# ---------------------------------------------------------------------
# polynomial division and GCD
# ---------------------------------------------------------------------


def _int_div(a: int, b: int):
    """a // b when b divides a, else None."""
    q, r = divmod(a, b)
    return None if r else q


def _quotient(p: dict, d: dict, div=_div):
    """Quotient of the term dicts p / d (d nonzero), or None when d does
    not divide p; ``div`` divides coefficients and returns None when it
    cannot.  Each step adds only terms below the one it cancels, so the
    heap hands out every remainder term once, largest first."""
    d_exp = max(d)
    d_lc = d[d_exp]
    d_terms = d.items()
    rem = dict(p)
    get = rem.get
    heap = [-e for e in rem]
    heapify(heap)
    quot: dict = {}
    if not heap:
        return quot
    top = -heap[0]
    if d_exp > top:
        return None
    # d_exp <= top, so these guard bits cover every field of both
    guards = _guards(-(-top.bit_length() // _BITS))
    while rem:
        lexp = -heappop(heap)
        c = get(lexp)
        if c is None:
            continue
        qexp = (lexp | guards) - d_exp
        if qexp & guards != guards:
            return None
        qexp ^= guards
        qc = div(c, d_lc)
        if qc is None:
            return None
        quot[qexp] = qc
        for e, dc in d_terms:
            t = qexp + e
            s = get(t, 0) - qc * dc
            if not s:
                del rem[t]
                continue
            if t not in rem:
                heappush(heap, -t)
            rem[t] = s
    return quot


def poly_exact_div(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Exact division p/d; raises ValueError when d does not divide p."""
    return _exact_div(p, d, ValueError)


def _exact_div(p: MultiPoly, d: MultiPoly, error=KernelInvariantError) -> MultiPoly:
    """p/d; a remainder raises ``error``, for a divisor the kernel found."""
    p, d = p._pair(d)
    if d.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero:
        return p
    if d.is_const:
        return p.scale(_div(1, d.const_value))
    quot = _quotient(p.terms, d.terms)
    if quot is None:
        raise error("polynomial division is not exact")
    return MultiPoly._make(p.vars, quot)


def _primitive_terms(terms: dict):
    """Write the nonzero term dict as scale * P, with P integer, of content
    1 and with a positive graded-lex leading coefficient.  The scale is an
    ``int`` when integral, and P is ``terms`` itself when the scale is 1."""
    num = 0
    den = 1
    for c in terms.values():
        if type(c) is int:
            num = _igcd(num, c)
        else:
            num = _igcd(num, c.numerator)
            den = _ilcm(den, c.denominator)
    if terms[max(terms)] < 0:
        num = -num
    if num == 1 and den == 1:
        return 1, terms
    # every c * den is an integer multiple of num
    prim = {e: c * den // num for e, c in terms.items()}
    return (num if den == 1 else Fraction(num, den)), prim


def _int_primitive(p: MultiPoly):
    """Write the nonzero p as scale * P (see ``_primitive_terms``)."""
    if p.is_const:
        return p.const_value, _small_const(p.vars, 1)
    scale, prim = _primitive_terms(p.terms)
    return scale, (p if prim is p.terms else MultiPoly._make(p.vars, prim))


def _primitive_positive(p: MultiPoly) -> MultiPoly:
    """Integer-primitive associate with positive graded-lex leading coefficient."""
    if p.is_zero:
        return p
    _, prim = _int_primitive(p)
    return prim


def _sparse_terms(p: MultiPoly) -> tuple:
    """(key, coefficient, (index, exponent) pairs of the nonzero exponents)
    per term of p, keys ascending; decoded once and kept, with a dict for
    the weights of ``_weighted``."""
    sparse = getattr(p, "_sparse", None)
    if sparse is None:
        p._weights = {}
        sparse = p._sparse = tuple(
            (e, c, tuple(compress(enumerate(ex), ex)))
            for e, c in sorted(p.terms.items()) for ex in (_unpack(e, len(p.vars)),))
    return sparse


def _monomial_content(p: MultiPoly) -> int:
    """Key of the componentwise minimum exponent over all terms (p nonzero)."""
    return _min_key(p.terms, len(p.vars))


def _shift_down(p: MultiPoly, mono: int) -> MultiPoly:
    if not mono:
        return p
    return MultiPoly._make(p.vars, {e - mono: c for e, c in p.terms.items()})


def _univ(p: MultiPoly, v: int) -> dict:
    """View of p as univariate in variable index v: degree -> coefficient poly."""
    width = len(p.vars)
    s, unit = _shift(width, v), _var_key(width, v)
    coeffs: dict = {}
    for e, c in p.terms.items():
        k = e >> s & _FIELD
        # e determines (k, e - k * unit) and back, so no two terms collide
        coeffs.setdefault(k, {})[e - k * unit] = c
    return {d: MultiPoly._make(p.vars, t) for d, t in coeffs.items()}


def _derivation(p: MultiPoly, pairs: Iterable[tuple]) -> MultiPoly:
    """D(p) for the vector field D = sum of x_t d/dx_s over the index
    pairs (s, t): x_t d/dx_s takes the term c * x^e to
    c * e_s * x^(e - unit_s + unit_t), of the same total degree."""
    width = len(p.vars)
    steps = [(_shift(width, s), _var_key(width, t) - _var_key(width, s))
             for s, t in pairs]
    terms: dict = {}
    for e, c in p.terms.items():
        for shift, step in steps:
            es = e >> shift & _FIELD
            if es:
                f = e + step
                terms[f] = terms.get(f, 0) + c * es
    return MultiPoly._make(p.vars, _canon(terms))


def _from_univ(coeffs: dict, v: int, vars: tuple) -> MultiPoly:
    unit = _var_key(len(vars), v)
    terms: dict = {}
    for d, poly in coeffs.items():
        for e, c in poly.terms.items():
            terms[e + d * unit] = c
    return MultiPoly._make(vars, terms)


def _prem(f: dict, g: dict) -> dict:
    """Pseudo-remainder of univariate views (deg f >= deg g, g nonzero)."""
    n = max(f)
    m = max(g)
    lc_g = g[m]
    r = dict(f)
    e = n - m + 1
    while r and max(r) >= m:
        dr = max(r)
        s = r[dr]
        new = {d: c * lc_g for d, c in r.items()}
        for d, c in g.items():
            k = d + dr - m
            val = new.get(k)
            nv = (val - s * c) if val is not None else -(s * c)
            if nv.is_zero:
                new.pop(k, None)
            else:
                new[k] = nv
        r = new
        e -= 1
    if e > 0 and r:
        lcp = lc_g ** e
        r = {d: c * lcp for d, c in r.items()}
    return r


def _subresultant_last(f: dict, g: dict) -> dict:
    """Last nonzero member of the subresultant PRS of two univariate views."""
    n, m = max(f), max(g)
    if n < m:
        f, g, n, m = g, f, m, n
    d = n - m
    sign = (-1) ** (d + 1)
    h = _prem(f, g)
    h = {k: c.scale(sign) for k, c in h.items()}
    lc = g[m]
    c = lc ** d
    c = -c
    last = g
    while h:
        k = max(h)
        last = h
        f, g, m, d = g, h, k, m - k
        b = (-lc) * (c ** d)
        h = _prem(f, g)
        h = {deg: _exact_div(cf, b) for deg, cf in h.items()}
        lc = g[m]
        if d > 1:
            c = _exact_div((-lc) ** d, c ** (d - 1))
        else:
            c = -lc
    return last


def _content_of_univ(coeffs: dict) -> MultiPoly:
    acc = None
    for cf in coeffs.values():
        acc = cf if acc is None else poly_gcd(acc, cf)
        if acc.is_one:
            break
    return acc


# Heuristic GCD: evaluate at a large integer, take the gcd one level down,
# reconstruct by balanced base-xi digits, and certify by trial division.
# Works on integer term dicts; the trial division runs over Z, so the first
# coefficient that does not divide ends it.  Falls back to the subresultant
# PRS when it fails to converge.


class _HeuristicFailed(Exception):
    pass


def _eval_at_int_raw(terms: dict, v: int, xi: int, width: int) -> dict:
    shift, unit = _shift(width, v), _var_key(width, v)
    powers = {0: 1}
    out: dict = {}
    for e, c in terms.items():
        k = e >> shift & _FIELD
        if k not in powers:
            powers[k] = xi ** k
        key = e - k * unit
        s = out.get(key, 0) + c * powers[k]
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _balanced_digits_raw(ge: dict, v: int, xi: int, width: int) -> dict:
    unit = _var_key(width, v)
    half = xi // 2
    cur = dict(ge)
    terms: dict = {}
    j = 0
    while cur:
        nxt: dict = {}
        for e, c in cur.items():
            d = c % xi
            if d > half:
                d -= xi
            if d:
                terms[e + j * unit] = d
            rest = (c - d) // xi
            if rest:
                nxt[e] = rest
        cur = nxt
        j += 1
    return terms


def _heu_gcd_raw(p: dict, q: dict, width: int) -> dict:
    """Content-inclusive gcd over the integers of nonzero integer term dicts;
    each level evaluates away a present variable, so at most width deep."""
    cp, p = _primitive_terms(p)
    cq, q = _primitive_terms(q)
    common = _igcd(cp, cq)
    present = _support((*p, *q), width)
    if not present:
        # both primitive parts are 1, so the gcd is the common content
        return {0: common}
    v = min(present, key=lambda i: max(_degree_in(p, width, i),
                                       _degree_in(q, width, i)))
    hp = max(abs(c) for c in p.values())
    hq = max(abs(c) for c in q.values())
    xi = 2 * min(hp, hq) + 29
    for _ in range(6):
        pe = _eval_at_int_raw(p, v, xi, width)
        qe = _eval_at_int_raw(q, v, xi, width)
        if pe and qe:
            try:
                g_low = _heu_gcd_raw(pe, qe, width)
            except _HeuristicFailed:
                g_low = None
            if g_low is not None:
                # the balanced digits of a nonzero gcd are never empty
                _, g = _primitive_terms(_balanced_digits_raw(g_low, v, xi, width))
                if (_quotient(p, g, _int_div) is not None
                        and _quotient(q, g, _int_div) is not None):
                    if common > 1:
                        g = {e: common * c for e, c in g.items()}
                    return g
        xi = xi * 73 // 32 + 31
    raise _HeuristicFailed


def _heu_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Heuristic gcd of integer-primitive polynomials; raises on failure."""
    return MultiPoly._make(p.vars, _heu_gcd_raw(p.terms, q.terms, len(p.vars)))


def _gcd_core(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """GCD of nonzero polynomials with trivial monomial content (up to units)."""
    if p.is_const or q.is_const:
        return MultiPoly.one(p.vars)
    if p == q:
        return p
    present = set(p.variables_present()) | set(q.variables_present())
    v = min(present)
    pu = _univ(p, v)
    qu = _univ(q, v)
    cp = _content_of_univ(pu)
    cq = _content_of_univ(qu)
    cg = poly_gcd(cp, cq)
    pp = _exact_div(p, cp)
    qq = _exact_div(q, cq)
    if pp.degree_in(v) <= 0 or qq.degree_in(v) <= 0:
        return cg
    last = _subresultant_last(_univ(pp, v), _univ(qq, v))
    if max(last) == 0:
        return cg
    flat = _from_univ(last, v, p.vars)
    cont = _content_of_univ(_univ(flat, v))
    prim = _exact_div(flat, cont)
    return cg * prim


# Coprimality certificate.  For each variable x present in both inputs,
# every other variable is specialised at a point mod a prime where both
# leading coefficients in x survive, and the univariate gcd of the two
# images is taken mod the prime.  A common factor g involving x divides
# both inputs over Z (Gauss), its leading coefficient in x divides theirs,
# so its image keeps its x-degree and divides both images.  Hence a
# constant image gcd for every shared variable proves the gcd is 1: the
# answer is exact, and only its reach depends on the points.  Cases where
# the certificate cannot conclude fall through to the gcd proper.

_CERT_PRIME = (1 << 61) - 1
_CERT_TRIES = 3


@lru_cache(maxsize=None)
def _cert_point(width: int, attempt: int) -> tuple:
    """The attempt-th evaluation point for a universe of ``width``
    variables: fixed, seeded values mod the prime, none of them 0 or 1."""
    rng = random.Random(f"{width}/{attempt}")
    return tuple(rng.randrange(2, _CERT_PRIME) for _ in range(width))


def _univ_images(terms: dict, shared, point: tuple) -> dict:
    """Per shared variable v, the coefficient list mod the prime of terms
    with every variable but v set to ``point``; None where the leading
    coefficient in v vanishes there."""
    P = _CERT_PRIME
    width = len(point)
    powers = [{} for _ in point]
    full = []
    for e, c in terms.items():
        e = _unpack(e, width)
        val = c
        for i in compress(range(width), e):
            k = e[i]
            cache = powers[i]
            pw = cache.get(k)
            if pw is None:
                pw = cache[k] = pow(point[i], k, P)
            val = val * pw % P
        full.append((e, val))
    images = {}
    for v in shared:
        # divide the full value by point[v] ** e[v] to free the variable v
        inv = pow(point[v], -1, P)
        unpow = [1]
        for _ in range(max(e[v] for e, val in full)):
            unpow.append(unpow[-1] * inv % P)
        coeffs = [0] * len(unpow)
        for e, val in full:
            k = e[v]
            coeffs[k] += val * unpow[k]
        coeffs = [c % P for c in coeffs]
        images[v] = coeffs if coeffs[-1] else None
    return images


def _gcd_degree_mod(f: list, g: list) -> int:
    """Degree of the gcd mod the prime of two coefficient lists (low to
    high) with nonzero leading coefficients."""
    P = _CERT_PRIME
    if len(f) < len(g):
        f, g = g, f
    f = list(f)
    while g:
        inv = pow(g[-1], -1, P)
        m = len(g) - 1
        while len(f) > m:
            c = f[-1] * inv % P
            shift = len(f) - 1 - m
            for k in range(m):
                f[shift + k] = (f[shift + k] - c * g[k]) % P
            f.pop()
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


def _certified_coprime(p: MultiPoly, q: MultiPoly) -> bool:
    """True only if the integer polynomials p and q are coprime; False
    when the certificate does not conclude."""
    pending = sorted(set(p.variables_present()) & set(q.variables_present()))
    for attempt in range(_CERT_TRIES):
        if not pending:
            return True
        point = _cert_point(len(p.vars), attempt)
        ip = _univ_images(p.terms, pending, point)
        iq = _univ_images(q.terms, pending, point)
        retry = []
        for v in pending:
            fp, fq = ip[v], iq[v]
            if fp is None or fq is None:
                retry.append(v)
            elif _gcd_degree_mod(fp, fq) > 0:
                return False
        pending = retry
    return not pending


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Greatest common divisor, integer-primitive with positive leading coeff.

    gcd(p, 0) is the normalized associate of p; gcd of two nonzero constants
    is 1 (constants are units over Q).  A single term c * x^a and a
    polynomial have the gcd x^m, read off their exponents.  Coprime inputs
    are recognised by the certificate above before any gcd is computed,
    and an input that divides the other by one exact division of the
    primitive parts, before the heuristic.
    """
    p, q = p._pair(q)
    if p.is_zero:
        return _primitive_positive(q)
    if q.is_zero:
        return _primitive_positive(p)
    if p.is_const or q.is_const:
        return MultiPoly.one(p.vars)
    if len(p.terms) == 1 or len(q.terms) == 1:
        # a term c * x^a and a polynomial share x^m, with m the
        # componentwise minimum of a and the polynomial's exponents
        m = _min_key((*p.terms, *q.terms), len(p.vars))
        return MultiPoly._make(p.vars, {m: 1}) if m else MultiPoly.one(p.vars)
    mp = _monomial_content(p)
    mq = _monomial_content(q)
    shared = _min_key((mp, mq), len(p.vars))
    # both have two or more terms, so neither shifted one is a constant
    p0 = _shift_down(p, mp)
    q0 = _shift_down(q, mq)
    pp, qp = _primitive_positive(p0), _primitive_positive(q0)
    if _certified_coprime(pp, qp):
        core = MultiPoly.one(p.vars)
    else:
        # only the one with the smaller leading term can divide the
        # other, and a primitive divisor over Q divides over Z (Gauss)
        if max(pp.terms) < max(qp.terms):
            pp, qp = qp, pp
        if _quotient(pp.terms, qp.terms, _int_div) is not None:
            core = qp
        else:
            try:
                core = _heu_gcd(pp, qp)
            except _HeuristicFailed:
                core = _gcd_core(p0, q0)
    if shared:
        core = core * MultiPoly._make(p.vars, {shared: 1})
    return _primitive_positive(core)


# ---------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------


class RatFunc:
    """Rational function over Q in canonical form (see module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, RatFunc) and den is None:
            self.num, self.den = num.num, num.den
            return
        if not isinstance(num, MultiPoly):
            raise TypeError("num must be a MultiPoly (or use RatFunc.const/var)")
        if den is None:
            den = MultiPoly.one(num.vars)
        f = ratfunc_normalize(num, den)
        self.num, self.den = f.num, f.den

    @classmethod
    def _raw(cls, num: MultiPoly, den: MultiPoly) -> "RatFunc":
        obj = object.__new__(cls)
        obj.num = num
        obj.den = den
        return obj

    @classmethod
    def const(cls, vars: Sequence[str], value) -> "RatFunc":
        vs = tuple(vars)
        c = _coeff(value)
        if type(c) is int and -_SMALL <= c <= _SMALL:
            return _small_ratfunc(vs, c)
        c = Fraction(c)
        return cls._raw(MultiPoly.const(vs, c.numerator),
                        MultiPoly.const(vs, c.denominator))

    @classmethod
    def var(cls, vars: Sequence[str], name: str) -> "RatFunc":
        p = MultiPoly.variable(vars, name)
        return cls._raw(p, MultiPoly.one(p.vars))

    @property
    def universe(self) -> tuple:
        return self.num.vars

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_const(self) -> bool:
        return self.num.is_const and self.den.is_const

    @property
    def const_value(self) -> Fraction:
        return self.num.const_value / self.den.const_value

    # -- coercion -----------------------------------------------------

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(self.universe, other)
        elif isinstance(other, MultiPoly):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return None, None
        if self.universe == other.universe:
            return self, other
        if self.is_const and other.is_const:
            return RatFunc.const((), self.const_value)._pair(other.const_value)
        if other.is_const:
            return self, RatFunc.const(self.universe, other.const_value)
        if self.is_const:
            return RatFunc.const(other.universe, self.const_value), other
        raise UniverseError(
            f"cannot mix universes {self.universe} and {other.universe}")

    # -- field arithmetic ----------------------------------------------
    #
    # Operands are canonical, so sums and products are reduced with the
    # classical small-gcd scheme (gcd of denominators first, then the
    # combined numerator against that): the results are automatically
    # coprime and only the integer-content scaling remains.

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if a.is_zero:
            return b
        if b.is_zero:
            return a
        if a.den == b.den:
            t = a.num + b.num
            h = poly_gcd(t, a.den)
            if h.is_one:
                return _canonical_scale(t, a.den)
            return _canonical_scale(_exact_div(t, h),
                                    _exact_div(a.den, h))
        g = poly_gcd(a.den, b.den)
        if g.is_one:
            return _canonical_scale(a.num * b.den + b.num * a.den,
                                    a.den * b.den)
        bd = _exact_div(a.den, g)
        dd = _exact_div(b.den, g)
        t = a.num * dd + b.num * bd
        h = poly_gcd(t, g)
        if h.is_one:
            return _canonical_scale(t, bd * b.den)
        return _canonical_scale(_exact_div(t, h),
                                bd * _exact_div(b.den, h))

    __radd__ = __add__

    def __neg__(self):
        if not self.num.terms:
            return self
        return RatFunc._raw(-self.num, self.den)

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if a.is_zero or b.is_zero:
            return RatFunc.const(a.universe, 0)
        g1 = poly_gcd(a.num, b.den)
        g2 = poly_gcd(b.num, a.den)
        an = a.num if g1.is_one else _exact_div(a.num, g1)
        bd = b.den if g1.is_one else _exact_div(b.den, g1)
        bn = b.num if g2.is_one else _exact_div(b.num, g2)
        ad = a.den if g2.is_one else _exact_div(a.den, g2)
        return _canonical_scale(an * bn, ad * bd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inv()

    def __rtruediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return b.__truediv__(a)

    def inv(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return _canonical_scale(self.den, self.num)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise ValueError("exponent must be an integer")
        if k < 0:
            return self.inv() ** (-k)
        return _canonical_scale(self.num ** k, self.den ** k)

    # -- comparison / printing ----------------------------------------

    def __eq__(self, other):
        try:
            a, b = self._pair(other)
        except UniverseError:
            return False
        if a is None:
            return NotImplemented
        return a.num == b.num and a.den == b.den

    __hash__ = None

    def __str__(self):
        if self.den.is_one:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


@lru_cache(maxsize=None)
def _small_ratfunc(vs: tuple, c: int) -> RatFunc:
    """The shared constant rational function c over ``vs``, for
    |c| <= _SMALL, as ``_small_const`` is for polynomials."""
    return RatFunc._raw(_small_const(vs, c), _small_const(vs, 1))


def _canonical_scale(num: MultiPoly, den: MultiPoly) -> RatFunc:
    """Canonical scaling of an already poly-coprime pair: both sides made
    integer and divided by the gcd of all their coefficients, signed as
    den's leading one.  Over a monic monomial (1 among them) an integer
    num is kept as it is, whatever its content."""
    if num.is_zero:
        return RatFunc.const(num.vars, 0)
    if num.is_const and den.is_const:
        return RatFunc.const(num.vars, num.const_value / den.const_value)
    nt, dt = num.terms, den.terms
    if not (_INT.issuperset(map(type, dt.values()))
            and _INT.issuperset(map(type, nt.values()))):
        k = _ilcm(*(c.denominator for c in (*nt.values(), *dt.values())
                    if type(c) is not int))
        nt = {e: int(c * k) for e, c in nt.items()}
        dt = {e: int(c * k) for e, c in dt.items()}
    g = _igcd(*dt.values())
    if g != 1:
        g = _igcd(g, *nt.values())
    if dt[max(dt)] < 0:
        g = -g
    if g != 1:
        nt = {e: c // g for e, c in nt.items()}
        dt = {e: c // g for e, c in dt.items()}
    return RatFunc._raw(
        num if nt is num.terms else MultiPoly._make(num.vars, nt),
        den if dt is den.terms else MultiPoly._make(den.vars, dt))


def ratfunc_normalize(num: MultiPoly, den: MultiPoly) -> RatFunc:
    """Canonical form of num/den; raises on a zero denominator.  A side
    of one term takes no ``poly_gcd``: the gcd is a monomial, read off
    the exponents."""
    num, den = num._pair(den)
    if den.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_const or den.is_const:
        return _canonical_scale(num, den)
    if len(num.terms) > 1 < len(den.terms):
        g = poly_gcd(num, den)
        if not g.is_monomial:
            return _canonical_scale(_exact_div(num, g), _exact_div(den, g))
    return _shifted_quotient(num.vars, num.terms, den.terms)


def _shifted_quotient(vars: tuple, nt: dict, dt: dict) -> RatFunc:
    """Canonical form of the term dicts nt/dt (dt nonzero) whose gcd is a
    monomial x^m, as it is when one side is a single term c * x^a: m is
    the componentwise minimum of all their exponents, shifted out."""
    m = 0 if 0 in nt or 0 in dt else _min_key((*nt, *dt), len(vars))
    if m:
        nt = {e - m: c for e, c in nt.items()}
        dt = {e - m: c for e, c in dt.items()}
    return _canonical_scale(MultiPoly._make(vars, nt), MultiPoly._make(vars, dt))


def is_polynomial(f: RatFunc) -> bool:
    """True iff the canonical denominator is a (nonzero) constant."""
    return f.den.is_const


def _fields_outside(universe: tuple, names: Iterable[str]) -> int:
    """The key fields of the universe's variables not among names."""
    names = set(names)
    return sum(_FIELD << _shift(len(universe), i)
               for i, v in enumerate(universe) if v not in names)


def is_laurent_in(f: RatFunc, names: Iterable[str]) -> bool:
    """True iff the canonical denominator is a monomial in variables from names."""
    return _laurent_outside(f, _fields_outside(f.den.vars, names))


def _laurent_outside(f: RatFunc, fields: int) -> bool:
    """Whether the canonical denominator is a monomial with no exponent in
    the key fields ``fields``, prepared once by ``_fields_outside``."""
    den = f.den.terms
    return len(den) == 1 and not next(iter(den)) & fields


class Substitution(NamedTuple):
    """An assignment prepared for ``substitute``: one value per variable
    of the ``source`` universe, over the ``target`` universe.  ``shifts``
    and ``degrees`` are None when some value's denominator has two or more
    terms; otherwise each value is the term dict of its numerator divided
    by c_i, ``shifts`` holds the key of the m_i of each value's
    denominator c_i * x^m_i (0 for a constant; a polynomial keeps its
    weights per table value), ``degrees`` each value's total degree and
    ``reach`` the largest."""

    source: tuple
    target: tuple
    values: tuple
    shifts: Optional[tuple]
    degrees: Optional[tuple]
    reach: int = 0


def prepare_substitution(universe: Sequence[str],
                         assignment: Mapping[str, RatFunc]) -> Substitution:
    """The assignment of every variable of the universe, prepared once."""
    missing = [v for v in universe if v not in assignment]
    if missing:
        raise ValueError(f"unassigned variables: {missing}")
    values = [RatFunc.const((), val) if isinstance(val, (int, Fraction))
              else RatFunc(val) for val in map(assignment.__getitem__, universe)]
    targets = {val.universe for val in values if not val.is_const}
    if len(targets) > 1:
        raise UniverseError("assignment values live in different universes")
    tvars = targets.pop() if targets else values[0].universe if values else ()
    values = [val if val.universe == tvars
              else RatFunc.const(tvars, val.const_value) for val in values]
    if any(len(val.den.terms) != 1 for val in values):
        return Substitution(tuple(universe), tvars, tuple(values), None, None)
    dens = [next(iter(val.den.terms.items())) for val in values]
    nums = tuple(val.num.scale(_div(1, c)).terms
                 for val, (_, c) in zip(values, dens))
    degrees = tuple(max(p, default=0) >> _BITS * len(tvars) for p in nums)
    return Substitution(tuple(universe), tvars, nums, tuple(m for m, _ in dens),
                        degrees, max(degrees, default=0))


def _weighted(p: MultiPoly, shifts: tuple, width: int) -> tuple:
    """(the weights w(e) = sum e_i * m_i of ``_sparse_terms(p)``, their
    componentwise maximum), kept per table value next to the decode but not
    on a shared constant.  A nonzero key fixes its width (in a wider
    universe its degree field reads 0), so for a table that is not all
    zero, equal tables give equal weights.  A field of w(e) carries only
    past degree 2**16, which ``_max_key`` refuses."""
    if p.is_const:
        return [0] * len(p.terms), 0
    terms = _sparse_terms(p)
    entry = p._weights.get(shifts)
    if entry is None:
        weights = [sum([k * shifts[i] for i, k in ex]) for _, _, ex in terms]
        entry = p._weights[shifts] = weights, _max_key(weights, width)
    return entry


def substitute(f: RatFunc,
               assignment: Mapping[str, RatFunc] | Substitution) -> RatFunc:
    """Composite f(assignment); every universe variable of f must be
    assigned, by a mapping or by a ``Substitution`` prepared over f's
    universe.

    Raises PoleError when the denominator of f vanishes identically under
    the assignment.
    """
    sub = (assignment if isinstance(assignment, Substitution)
           else prepare_substitution(f.universe, assignment))
    if sub.source != f.universe:
        raise ValueError(f"substitution prepared for {sub.source}, "
                         f"not for {f.universe}")
    _, tvars, values, shifts, degrees, reach = sub
    terms = _sparse_terms(f.num), _sparse_terms(f.den)
    if shifts is None:
        # canonical RatFunc arithmetic, each power of a value taken once
        power = lru_cache(maxsize=None)(lambda i, k: values[i] ** k)
        num, den = (sum((reduce(mul, (power(i, k) for i, k in ex), RatFunc.const(tvars, c))
                         for _, c, ex in g), RatFunc.const(tvars, 0)) for g in terms)
        if den.is_zero:
            raise PoleError("pullback undefined: chart lies in pole locus")
        return num / den
    # values[i] = P_i / (c_i * x^m_i): a term c * x^e of f.num or f.den
    # is c * prod P_i^e_i over x^w(e), shifted up to the common
    # denominator x^top, the componentwise maximum of all the weights
    width = len(tvars)
    top_field = _BITS * width
    nw = dw = repeat(0)
    top = 0
    if any(shifts):
        nw, nhi = _weighted(f.num, shifts, width)
        dw, dhi = _weighted(f.den, shifts, width)
        top = _max_key((nhi, dhi), width) if nhi and dhi else nhi | dhi
    sides = (terms[0], nw), (terms[1], dw)
    # a term's product has the degree of x^(top - w(e)) plus sum e_i *
    # deg P_i, at most deg x^top + deg f * reach (f's leading keys are
    # last); past that bound the largest is checked before any product
    if ((top >> top_field) + (max((terms[0] or terms[1])[-1][0], terms[1][-1][0])
                              >> _BITS * len(f.universe)) * reach > MAX_DEGREE):
        _check_degree((top >> top_field) + max(
            sum(k * degrees[i] for i, k in ex) - (w >> top_field)
            for g, ws in sides for (_, _, ex), w in zip(g, ws)))
    # a term's product starts from c * x^(top - w(e)) and adds its last
    # power, from one power table per variable, straight into the sum; a
    # constant term (first, as keys ascend) starts the sum.  The raw
    # products of one pullback may form _TERM_BUDGET pairs of terms,
    # counted before each product.
    powers: dict = {}
    spent = 0
    pulled = []
    for g, ws in sides:
        if len(g) == 1 and not g[0][0]:
            # a constant c pulls back to c * x^top
            pulled.append({top: g[0][1]})
            continue
        total: dict = {}
        for (_, c, ex), w in zip(g, ws):
            t = {top - w: c}
            if not ex:
                total = t
            for pair in ex:
                i, k = pair
                cache = powers.get(i)
                if cache is None:
                    cache = powers[i] = [None, values[i]]
                while len(cache) <= k:
                    spent += len(cache[-1]) * len(values[i])
                    if spent > _TERM_BUDGET:
                        raise Unsupported(_OVER_BUDGET.format(_TERM_BUDGET))
                    cache.append(_mul_terms(cache[-1], values[i]))
                spent += len(t) * len(cache[k])
                if spent > _TERM_BUDGET:
                    raise Unsupported(_OVER_BUDGET.format(_TERM_BUDGET))
                t = _mul_terms(t, cache[k], total if pair is ex[-1] else None)
        pulled.append(_canon(total))
    nt, dt = pulled
    if not dt:
        raise PoleError("pullback undefined: chart lies in pole locus")
    if len(nt) == 1 or len(dt) == 1:
        return _shifted_quotient(tvars, nt, dt)
    return ratfunc_normalize(MultiPoly._make(tvars, nt), MultiPoly._make(tvars, dt))
