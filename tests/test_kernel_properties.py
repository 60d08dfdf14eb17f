"""Canonical-form invariants of the exact kernel, as properties.

Kernel arithmetic builds its results with the trusted ``MultiPoly._make``,
which checks nothing.  These properties re-validate every result through
the public constructor, so a producer that emits a zero coefficient, an
exponent vector of the wrong width, an integral Fraction or a float fails
here.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from bircharts import (MultiPoly, PoleError, RatFunc, exact_arith,  # noqa: E402
                       poly_exact_div, poly_gcd, ratfunc_normalize, substitute)

from helpers import reference_substitute  # noqa: E402

XY = ("x", "y")
AB = ("a", "b")
ST = ("s", "t")

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

coeffs = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=5))


def polys(vars, max_deg=2, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in vars])
    terms = st.dictionaries(exps, coeffs, max_size=max_terms)
    return terms.map(lambda t: MultiPoly(vars, t))


def nonzero_polys(vars, **kw):
    return polys(vars, **kw).filter(lambda p: not p.is_zero)


def ratfuncs(vars, **kw):
    return st.builds(RatFunc, polys(vars, **kw), nonzero_polys(vars, **kw))


def assert_canonical(p: MultiPoly):
    assert type(p.vars) is tuple
    assert p == MultiPoly(p.vars, p.terms)
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == len(p.vars)
        assert all(type(x) is int and x >= 0 for x in e)
        if type(c) is int:
            assert c != 0
        else:
            assert type(c) is Fraction and c.denominator != 1


def assert_canonical_ratfunc(f: RatFunc):
    assert_canonical(f.num)
    assert_canonical(f.den)
    assert f.num.vars == f.den.vars


@SETTINGS
@given(polys(XY), polys(XY), coeffs)
def test_ring_operations_give_canonical_polys(p, q, c):
    for r in (p, q, p + q, p - q, -p, p * q, p * p, p.scale(c), p + c, c * q):
        assert_canonical(r)


@SETTINGS
@given(polys(XY), nonzero_polys(XY))
def test_exact_division_gives_canonical_quotient(p, q):
    quot = poly_exact_div(p * q, q)
    assert_canonical(quot)
    assert quot == p


@SETTINGS
@given(nonzero_polys(XY), nonzero_polys(XY), nonzero_polys(XY, max_deg=1))
def test_gcd_is_canonical_and_divides_both(p, q, common):
    a, b = p * common, q * common
    g = poly_gcd(a, b)
    assert_canonical(g)
    for x in (a, b):
        cofactor = poly_exact_div(x, g)
        assert_canonical(cofactor)
        assert cofactor * g == x
    # the shared factor divides the gcd
    assert_canonical(poly_exact_div(g, poly_gcd(common, common)))


@SETTINGS
@given(ratfuncs(XY), ratfuncs(XY))
def test_field_operations_give_canonical_forms(f, g):
    results = [f, g, f + g, f - g, f * g, -f, f * f]
    if not g.is_zero:
        results.append(f / g)
    for r in results:
        assert_canonical_ratfunc(r)


@SETTINGS
@given(ratfuncs(XY))
def test_normalize_is_idempotent(f):
    again = ratfunc_normalize(f.num, f.den)
    assert again == f
    assert again.num.terms == f.num.terms and again.den.terms == f.den.terms


@SETTINGS
@given(coeffs, st.integers(1, 6), ratfuncs(XY, max_deg=1, max_terms=2))
def test_const_value_is_a_fraction(c, k, f):
    for r in (RatFunc.const(XY, c), RatFunc.const((), Fraction(c) / k),
              f - f, RatFunc.const(XY, c) * k):
        assert type(r.const_value) is Fraction
        assert type(r.num.const_value) is Fraction
        assert type(r.den.const_value) is Fraction
    assert RatFunc.const(XY, c).const_value == c
    if not f.is_zero:
        assert type((f / f).const_value) is Fraction


@SETTINGS
@given(ratfuncs(XY, max_deg=1, max_terms=3),
       st.tuples(ratfuncs(AB, max_deg=1, max_terms=2),
                 ratfuncs(AB, max_deg=1, max_terms=2)),
       st.tuples(polys(ST, max_deg=1, max_terms=2),
                 polys(ST, max_deg=1, max_terms=2)))
def test_substitute_composes(f, inner, outer):
    s1 = dict(zip(XY, inner))
    s2 = {v: RatFunc(p) for v, p in zip(AB, outer)}
    try:
        once = substitute(substitute(f, s1), s2)
        composed = {v: substitute(val, s2) for v, val in s1.items()}
        direct = substitute(f, composed)
    except PoleError:
        assume(False)
    assert_canonical_ratfunc(once)
    assert_canonical_ratfunc(direct)
    assert once == direct


substituted = st.one_of(
    coeffs.map(lambda c: RatFunc.const(AB, c)),
    st.builds(lambda p, k: RatFunc(p) / k, polys(AB, max_deg=1, max_terms=3),
              st.integers(1, 6)),
    ratfuncs(AB, max_deg=1, max_terms=2))


@SETTINGS
@given(ratfuncs(XY, max_deg=3, max_terms=3), st.tuples(substituted, substituted))
def test_substitute_matches_term_by_term_reference(f, vals):
    try:
        got = substitute(f, dict(zip(XY, vals)))
    except PoleError:
        with pytest.raises(ZeroDivisionError):
            reference_substitute(f, vals, AB)
        return
    assert_canonical_ratfunc(got)
    assert got == reference_substitute(f, vals, AB)


@SETTINGS
@given(nonzero_polys(XY), nonzero_polys(XY), nonzero_polys(XY, max_deg=1))
def test_subresultant_route_is_canonical_and_agrees(p, q, common):
    # the heuristic route rarely fails, so the subresultant fallback is
    # called directly, on inputs with trivial monomial content
    a, b = p * common, q * common
    a = exact_arith._shift_down(a, exact_arith._monomial_content(a))
    b = exact_arith._shift_down(b, exact_arith._monomial_content(b))
    g = exact_arith._gcd_core(a, b)
    assert_canonical(g)
    for x in (a, b):
        assert poly_exact_div(x, g) * g == x
    assert exact_arith._primitive_positive(g) == poly_gcd(a, b)


XYZ = ("x", "y", "z")


@SETTINGS
@given(nonzero_polys(XYZ, max_terms=3), nonzero_polys(XYZ, max_terms=3),
       nonzero_polys(XYZ, max_deg=1).filter(lambda r: not r.is_const))
def test_gcd_keeps_a_shared_factor(p, q, r):
    # the coprimality certificate never fires on inputs with a common factor
    g = poly_gcd(p * r, q * r)
    assert_canonical(g)
    assert poly_exact_div(g, r) * r == g


@SETTINGS
@given(nonzero_polys(XYZ, max_terms=3), nonzero_polys(XYZ, max_terms=3),
       nonzero_polys(XYZ, max_deg=1, max_terms=2))
def test_certified_coprime_agrees_with_gcd_core(p, q, common):
    a, b = p * common, q * common
    a = exact_arith._primitive_positive(
        exact_arith._shift_down(a, exact_arith._monomial_content(a)))
    b = exact_arith._primitive_positive(
        exact_arith._shift_down(b, exact_arith._monomial_content(b)))
    assume(not (a.is_const or b.is_const))
    # exact when it fires, and at these fixed points it fires on every
    # coprime pair drawn here
    coprime = exact_arith._gcd_core(a, b).is_const
    assert exact_arith._certified_coprime(a, b) == coprime
    assert poly_gcd(a, b).is_one == coprime
