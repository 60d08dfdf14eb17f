"""Canonical-form invariants of the exact kernel, as properties.

Kernel arithmetic builds its results with the trusted ``MultiPoly._make``,
which checks nothing.  These properties re-validate every result through
the public constructor, so a producer that emits a zero coefficient, an
exponent vector of the wrong width, an integral Fraction or a float fails
here.  Pullbacks along the torus charts of G/U- and G, whose term weights
are kept per shift table, are checked against a term-by-term reference.
A property checks ``iota``, which is built from the kernel's
determinants, against independent Fraction arithmetic.  Two check the
Weyl-group elements of ``root_data`` (a word and its image of rho, lengths
by descent): against a breadth-first enumeration of the group, and against
integer action matrices built and multiplied independently.  The last one
takes Theorem 0.3 as an oracle: U is an affine space, so a canonical p/q
is in its coordinate ring exactly when q is a constant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from bircharts import (MultiPoly, PoleError, RatFunc, TorusPoint,  # noqa: E402
                       Weight, cartan, chart_G, decide_O_U, distinguished_word,
                       exact_arith, g_variables, iota, is_reduced, length,
                       membership, poly_exact_div, poly_gcd, ratfunc_normalize,
                       substitute, u_variables, weyl_apply, weyl_from_word)

from helpers import (enumerate_weyl_group, matrix_apply,  # noqa: E402
                     matrix_lengths, matrix_product, normalize_by_gcd,
                     reference_substitute, weyl_matrix)

XY = ("x", "y")
XYZ = ("x", "y", "z")
AB = ("a", "b")
ST = ("s", "t")

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

coeffs = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=5))
int_coeffs = st.integers(-6, 6)


def polys(vars, max_deg=2, max_terms=4, cs=coeffs):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in vars])
    terms = st.dictionaries(exps, cs, max_size=max_terms)
    return terms.map(lambda t: MultiPoly(vars, t))


def nonzero_polys(vars, **kw):
    return polys(vars, **kw).filter(lambda p: not p.is_zero)


def ratfuncs(vars, **kw):
    return st.builds(RatFunc, polys(vars, **kw), nonzero_polys(vars, **kw))


def assert_canonical(p: MultiPoly):
    assert type(p.vars) is tuple
    assert all(type(k) is int for k in p.terms)
    assert p == MultiPoly(p.vars, p.exponents())
    for e, c in p.exponents().items():
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


nonzero_coeffs = coeffs.filter(bool)


@SETTINGS
@given(nonzero_coeffs, st.tuples(*[st.integers(0, 2)] * 3),
       nonzero_polys(XYZ, max_terms=5),
       nonzero_coeffs, st.tuples(*[st.integers(0, 2)] * 3), st.booleans())
def test_a_monomial_side_normalizes_as_by_the_gcd(c, e, p, k, shared, first):
    # num or den a single term c * x^e: its gcd with the other side is a
    # monomial, found without poly_gcd; the shared factor k * x^shared
    # gives both sides a common monomial and a common content
    common = MultiPoly(XYZ, {shared: k})
    term = MultiPoly(XYZ, {e: c}) * common
    other = p * common
    num, den = (term, other) if first else (other, term)
    got = ratfunc_normalize(num, den)
    assert (got.num, got.den) == normalize_by_gcd(num, den)
    assert_canonical_ratfunc(got)


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


def single_terms(vars, coeff_strategy, max_deg=2):
    """A single nonzero term c * x^e."""
    exps = st.tuples(*[st.integers(0, max_deg) for _ in vars])
    return st.builds(lambda e, c: MultiPoly(vars, {e: c}), exps,
                     coeff_strategy.filter(bool))


substituted = st.one_of(
    coeffs.map(lambda c: RatFunc.const(AB, c)),
    st.builds(lambda p, k: RatFunc(p) / k, polys(AB, max_deg=1, max_terms=3),
              st.integers(1, 6)),
    # monomial denominators k * a^i * b^j
    st.builds(RatFunc, polys(AB, max_deg=1, max_terms=3),
              single_terms(AB, int_coeffs)),
    ratfuncs(AB, max_deg=1, max_terms=2))


# every term of these but the constant one has three or more variable
# factors; monomial denominators take the raw branch of substitute, a
# denominator of two terms the RatFunc one
full_exps = st.tuples(*[st.integers(1, 2)] * 3)
full_polys = st.builds(
    lambda c, t: MultiPoly(XYZ, {(0, 0, 0): c, **t}),
    int_coeffs.filter(bool),
    st.dictionaries(full_exps, int_coeffs.filter(bool), min_size=1, max_size=3))
monomial_dens = st.builds(RatFunc, polys(AB, max_deg=1, max_terms=3),
                          single_terms(AB, int_coeffs))
two_term_dens = st.builds(
    lambda p, e, c, k: RatFunc(p, MultiPoly(AB, {e: c, (0, 0): k})),
    polys(AB, max_deg=1, max_terms=2), st.sampled_from([(1, 0), (0, 1), (1, 1)]),
    int_coeffs.filter(bool), int_coeffs.filter(bool)).filter(
    lambda f: len(f.den.terms) == 2)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.tuples(ratfuncs(XY, max_deg=3, max_terms=3),
              st.tuples(substituted, substituted)),
    st.tuples(st.builds(RatFunc, full_polys, full_polys),
              st.one_of(st.tuples(monomial_dens, monomial_dens, monomial_dens),
                        st.tuples(two_term_dens, substituted, substituted)))))
def test_substitute_matches_term_by_term_reference(case):
    f, vals = case
    try:
        got = substitute(f, dict(zip(f.universe, vals)))
    except PoleError:
        with pytest.raises(ZeroDivisionError):
            reference_substitute(f, vals, AB)
        return
    assert_canonical_ratfunc(got)
    assert got == reference_substitute(f, vals, AB)


def reference_product(p: MultiPoly, q: MultiPoly) -> dict:
    """p * q over exponent tuples and Fractions, term by term."""
    out: dict = {}
    for e1, c1 in p.exponents().items():
        for e2, c2 in q.exponents().items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {e: c for e, c in out.items() if c}


int_polys = polys(XY, max_terms=5, cs=int_coeffs)
product_pairs = st.one_of(
    st.tuples(polys(XY, max_terms=5), polys(XY, max_terms=5)),
    st.tuples(int_polys, int_polys),
    # one-term operands, on either side
    st.tuples(single_terms(XY, coeffs), polys(XY, max_terms=5)),
    st.tuples(polys(XY, max_terms=5), single_terms(XY, int_coeffs)),
    # (u + v)(u - v) = u^2 - v^2: the cross terms cancel
    st.builds(lambda u, v: (u + v, u - v), polys(XY), polys(XY)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(product_pairs)
def test_product_matches_term_by_term_reference(pair):
    p, q = pair
    want = reference_product(p, q)
    for r in (p * q, q * p):
        assert_canonical(r)
        assert r.exponents() == want


@lru_cache(maxsize=None)
def _chart_values(cid, n):
    matrix = membership._chart(cid, n)
    return [matrix.entry(i, j) for _, i, j in membership._entries("g", n)]


@st.composite
def torus_chart_cases(draw):
    """(n, space, phi): at sl3 or sl4, a G/U- or G space and a sparse
    function of the g_ij, a polynomial, c/(polynomial) or a quotient of
    polynomials whose terms have one to three factors, next to a constant
    term that may be 0."""
    n = draw(st.sampled_from([3, 4]))
    names = g_variables(n)

    def sparse():
        p = MultiPoly.const(names, draw(int_coeffs))
        for _ in range(draw(st.integers(1, 3))):
            factors = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
            p = p + reduce(lambda t, v: t * MultiPoly.variable(names, v), factors,
                           MultiPoly.const(names, draw(int_coeffs.filter(bool))))
        return p

    shape = draw(st.sampled_from(["poly", "c/poly", "poly/poly"]))
    num = (MultiPoly.const(names, draw(int_coeffs.filter(bool)))
           if shape == "c/poly" else sparse())
    den = MultiPoly.one(names) if shape == "poly" else sparse()
    assume(not den.is_zero)
    return n, draw(st.sampled_from(["GmodU", "G"])), RatFunc(num, den)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(torus_chart_cases())
def test_torus_chart_pullbacks_match_the_term_by_term_reference(case):
    # the weights of phi are built for the first chart of each shift table
    # and reused by the others
    n, space, phi = case
    for cid in membership._CHARTS[space]:
        prepared = membership._chart_substitution(cid, n)
        values = _chart_values(cid, n)
        try:
            got = substitute(phi, prepared)
        except PoleError:
            with pytest.raises(ZeroDivisionError):
                reference_substitute(phi, values, prepared.target)
            continue
        assert_canonical_ratfunc(got)
        assert got == reference_substitute(phi, values, prepared.target)


@SETTINGS
@given(polys(XY), coeffs.filter(bool))
def test_gcd_with_a_nonzero_constant_is_one(p, c):
    const = MultiPoly.const(XY, c)
    for g in (poly_gcd(p, const), poly_gcd(const, p)):
        assert g.is_one
        assert_canonical(g)


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


def _no_heuristic(p, q):
    raise AssertionError("the heuristic gcd ran")


@SETTINGS
@given(nonzero_polys(XYZ, max_terms=3), nonzero_polys(XYZ, max_terms=3))
def test_gcd_of_a_multiple_is_its_divisor_without_the_heuristic(p, q):
    a = exact_arith._shift_down(p * q, exact_arith._monomial_content(p * q))
    b = exact_arith._shift_down(q, exact_arith._monomial_content(q))
    core = exact_arith._primitive_positive(exact_arith._gcd_core(a, b))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_arith, "_heu_gcd", _no_heuristic)
        for g in (poly_gcd(p * q, q), poly_gcd(q, p * q)):
            assert_canonical(g)
            assert g == exact_arith._primitive_positive(q)
        assert poly_gcd(a, b) == core


def _divides_term(d: MultiPoly, r: MultiPoly) -> bool:
    # a divisor of a monomial is a monomial (up to a unit)
    if not d.is_monomial:
        return False
    (de,), (re,) = d.exponents(), r.exponents()
    return all(a <= b for a, b in zip(de, re))


@SETTINGS
@given(st.sampled_from(["int", "fraction"]), st.data())
def test_division_returns_the_cofactor_or_reports_not_exact(kind, data):
    cs = int_coeffs if kind == "int" else coeffs
    q = data.draw(polys(XY, cs=cs))
    d = data.draw(polys(XY, cs=cs).filter(lambda p: not p.is_const))
    r = data.draw(single_terms(XY, cs))
    assert exact_arith._quotient((q * d).terms, d.terms) == q.terms
    assume(not _divides_term(d, r))
    assert exact_arith._quotient((q * d + r).terms, d.terms) is None
    with pytest.raises(ValueError):
        poly_exact_div(q * d + r, d)


@SETTINGS
@given(polys(XY, cs=int_coeffs),
       polys(XY, cs=int_coeffs).filter(lambda p: not p.is_const), st.data())
def test_integer_trial_division_is_division_by_a_primitive_divisor(q, d, data):
    # the heuristic gcd divides over Z by a primitive candidate; by Gauss's
    # lemma that succeeds exactly when division over Q does
    d = exact_arith._primitive_positive(d)
    p = q * d
    quot = exact_arith._quotient(p.terms, d.terms, exact_arith._int_div)
    assert quot == q.terms
    assert all(type(c) is int for c in quot.values())
    # a term that lands on one of p's own terms, often the leading one,
    # makes a quotient coefficient fail to divide
    exps = st.tuples(*[st.integers(0, 2) for _ in XY])
    e = data.draw(st.sampled_from(sorted(p.exponents())) if p.terms else exps)
    r = MultiPoly(XY, {e: data.draw(int_coeffs.filter(bool))})
    assume(not _divides_term(d, r))
    assert exact_arith._quotient((p + r).terms, d.terms,
                                 exact_arith._int_div) is None


def exponent_lists(width):
    """One to six exponent tuples over ``width`` variables, each entry at
    most MAX_DEGREE // width, so every total degree is within the limit."""
    bound = exact_arith.MAX_DEGREE // max(width, 1)
    entry = st.one_of(st.integers(0, 3), st.integers(0, bound))
    return st.lists(st.tuples(*[entry] * width), min_size=1, max_size=6)


@SETTINGS
@given(st.integers(0, 6).flatmap(
    lambda w: st.tuples(st.just(w), exponent_lists(w))))
def test_packed_keys_decode_and_order_as_graded_lex(case):
    width, exps = case
    keys = [exact_arith._pack(e) for e in exps]
    assert [exact_arith._unpack(k, width) for k in keys] == exps
    # integer order of keys is the order of the (total degree, tuple) key
    for a, ka in zip(exps, keys):
        for b, kb in zip(exps, keys):
            assert (ka < kb) == ((sum(a), a) < (sum(b), b))
            if sum(a) + sum(b) <= exact_arith.MAX_DEGREE:
                assert ka + kb == exact_arith._pack(
                    tuple(x + y for x, y in zip(a, b)))
    assert exact_arith._unpack(exact_arith._min_key(keys, width), width) \
        == tuple(map(min, zip(*exps)))
    assert exact_arith._support(keys, width) == tuple(
        i for i in range(width) if any(e[i] for e in exps))


def _top_heavy_exponents(width):
    """One to six exponent tuples over ``width`` variables with up to three
    nonzero entries each, drawn at 0, at small values and near
    MAX_DEGREE, each total degree within the limit."""
    top = exact_arith.MAX_DEGREE
    entry = st.one_of(st.integers(1, 3), st.integers(top - 3, top),
                      st.integers(1, top))
    exps = st.dictionaries(st.integers(0, width - 1), entry, max_size=3).map(
        lambda d: tuple(d.get(i, 0) for i in range(width)))
    return st.lists(exps.filter(lambda e: sum(e) <= top), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 25).flatmap(
    lambda w: st.tuples(st.just(w), _top_heavy_exponents(w))))
def test_max_key_is_the_decoded_componentwise_max(case):
    width, exps = case
    keys = [exact_arith._pack(e) for e in exps]
    top = tuple(map(max, zip(*exps)))
    if sum(top) > exact_arith.MAX_DEGREE:
        # _max_key raises exactly when packing the decoded maximum does
        with pytest.raises(exact_arith.DegreeLimitError):
            exact_arith._pack(top)
        with pytest.raises(exact_arith.DegreeLimitError):
            exact_arith._max_key(keys, width)
    else:
        assert exact_arith._max_key(keys, width) == exact_arith._pack(top)


@SETTINGS
@given(nonzero_polys(XYZ, max_terms=3), nonzero_polys(XYZ, max_terms=3),
       st.integers(0, 2), st.integers(1, 3))
def test_quotient_refuses_a_divisor_whose_leading_exponent_does_not_fit(
        p, d, i, extra):
    # a divisor's leading exponent is at most the dividend's in every field;
    # here it exceeds it in field i by at least ``extra``
    lead_p, lead_d = p.leading_exp(), d.leading_exp()
    k = max(0, lead_p[i] + extra - lead_d[i])
    d = d * MultiPoly.variable(XYZ, XYZ[i]) ** k
    assert d.leading_exp()[i] > lead_p[i]
    higher = p * MultiPoly.variable(XYZ, XYZ[i]) ** extra
    for divisor in (d, higher):
        assert exact_arith._quotient(p.terms, divisor.terms) is None
        with pytest.raises(ValueError):
            poly_exact_div(p, divisor)
    # a constant dividend, the key 0, by a divisor of higher degree
    assert exact_arith._quotient({0: 1}, d.terms) is None
    p, d = map(exact_arith._primitive_positive, (p, d))
    assert exact_arith._quotient(p.terms, d.terms,
                                 exact_arith._int_div) is None


@SETTINGS
@given(nonzero_polys(XYZ, max_terms=5))
def test_content_routine_splits_off_a_positive_primitive_part(p):
    scale, prim = exact_arith._primitive_terms(p.terms)
    P = MultiPoly._make(XYZ, prim)
    assert P.scale(scale) == p
    assert type(scale) is int or scale.denominator != 1
    assert all(type(c) is int for c in prim.values())
    content = 0
    for c in prim.values():
        content = gcd(content, c)
    assert content == 1
    assert P.leading_coeff() > 0
    if scale == 1:
        assert prim is p.terms
    assert exact_arith._primitive_positive(p) == P


def _fraction_det(rows):
    """Determinant by Fraction Gaussian elimination (independent of _det)."""
    m = [list(r) for r in rows]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            for j in range(k, len(m)):
                m[i][j] -= f * m[k][j]
    return det


@lru_cache(maxsize=None)
def _weyl_oracle(label, rank):
    d = cartan(label, rank)
    return d, enumerate_weyl_group(d)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2),
                        ("B", 3), ("C", 3), ("D", 4), ("G", 2)]), st.data())
def test_weyl_words_agree_with_the_group_enumeration(type_, data):
    d, dist = _weyl_oracle(*type_)
    letters = st.integers(1, d.rank)
    word = tuple(data.draw(st.lists(letters, max_size=d.nu + 2)))
    if data.draw(st.booleans()):
        # the same element: a cancelling pair s_i s_i put in anywhere
        cut, i = data.draw(st.integers(0, len(word))), data.draw(letters)
        other = word[:cut] + (i, i) + word[cut:]
    else:
        other = tuple(data.draw(st.lists(letters, max_size=d.nu + 2)))
    w, w_other = weyl_from_word(word, d), weyl_from_word(other, d)
    # the same elements multiplied one simple reflection at a time
    by_products = [reduce(lambda acc, i: acc * d.simple(i), x, d.identity())
                   for x in (word, other)]
    assert w == by_products[0] and w_other == by_products[1]
    assert (w == w_other) == (by_products[0] == by_products[1])
    assert length(w, d) == dist[w]
    assert is_reduced(word, d) == (dist[w] == len(word))
    for j in range(1, d.rank + 1):
        om = d.fundamental_weight(j)
        assert w.apply(om) == weyl_apply(word, om, d)


@lru_cache(maxsize=None)
def _matrix_oracle(label, rank):
    d = cartan(label, rank)
    return d, matrix_lengths(d)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2),
                        ("F", 4)]), st.data())
def test_weyl_elements_agree_with_the_matrix_oracle(type_, data):
    d, dist = _matrix_oracle(*type_)
    letters = st.integers(1, d.rank)
    word = tuple(data.draw(st.lists(letters, max_size=d.nu + 2)))
    if data.draw(st.booleans()):
        # the same element by another word: a cancelling pair put in
        cut, i = data.draw(st.integers(0, len(word))), data.draw(letters)
        other = word[:cut] + (i, i) + word[cut:]
    else:
        other = tuple(data.draw(st.lists(letters, max_size=d.nu + 2)))
    m, m_other = weyl_matrix(word, d), weyl_matrix(other, d)
    w, w_other = weyl_from_word(word, d), weyl_from_word(other, d)
    assert (w == w_other) == (m == m_other)
    if m == m_other:
        assert hash(w) == hash(w_other)
    weight = Weight(tuple(data.draw(st.lists(st.integers(-3, 3), min_size=d.rank,
                                             max_size=d.rank))))
    prod = w * w_other
    assert prod.word == word + other
    for v in [weight] + [d.fundamental_weight(j) for j in range(1, d.rank + 1)]:
        assert w.apply(v).coords == matrix_apply(m, v.coords)
        assert prod.apply(v).coords == matrix_apply(matrix_product(m, m_other), v.coords)
    assert prod == weyl_from_word(word + other, d)
    assert length(w, d) == dist[m]
    assert length(prod, d) == dist[matrix_product(m, m_other)]
    assert is_reduced(word, d) == (dist[m] == len(word))


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 5), st.data())
def test_iota_is_the_complementary_minor_matrix(n, data):
    nu = n * (n - 1) // 2
    word = distinguished_word(cartan("A", n - 1), 0)
    params = data.draw(st.lists(small_rationals, min_size=nu, max_size=nu))
    params2 = data.draw(st.lists(small_rationals, min_size=nu, max_size=nu))
    torus = data.draw(st.lists(small_rationals.filter(bool),
                               min_size=n - 1, max_size=n - 1))
    g = chart_G(word, word, params, TorusPoint(tuple(
        RatFunc.const((), c) for c in torus)), params2, "pm", n)
    vals = [[e.const_value for e in row] for row in g.entries]
    got = iota(g)
    inv = g.inverse()
    for i in range(n):
        for j in range(n):
            minor = [[vals[a][b] for b in range(n) if b != j]
                     for a in range(n) if a != i]
            assert got.entries[i][j] == _fraction_det(minor)
            # iota(g) = h (g^T)^{-1} h^{-1} with h = diag(1, -1, 1, ...)
            sign = 1 if (i + j) % 2 == 0 else -1
            assert got.entries[i][j] == sign * inv.entries[j][i]
            # and the inverse read off iota is the inverse
            assert sum(vals[i][k] * inv.entries[k][j].const_value
                       for k in range(n)) == (1 if i == j else 0)


@st.composite
def u_functions(draw):
    """(n, phi, the one failing chart or None): a canonical rational function
    of the u_ij at sl3-sl5, a polynomial over a constant, over a small
    polynomial or times and over one, or at sl4 a polynomial plus a multiple
    of the criterion-04 witness, which fails on u:jj1 alone."""
    kind = draw(st.sampled_from(["const", "poly", "cancel", "witness"]))
    n = 4 if kind == "witness" else draw(st.sampled_from([5, 4, 3]))
    uv = u_variables(n)
    num = RatFunc(draw(polys(uv, max_deg=2, max_terms=3, cs=int_coeffs)))
    if kind == "const":
        return n, num / draw(st.integers(1, 6)), None
    if kind != "witness":
        den = RatFunc(draw(polys(uv, max_deg=1, max_terms=2, cs=int_coeffs)
                           .filter(lambda p: not p.is_const)))
        return n, (num / den if kind == "poly" else num * den / den), None
    u = {v: RatFunc.var(uv, v) for v in uv}
    witness = u["u12"] - (u["u13"] * u["u34"] - u["u14"]) / (
        u["u23"] * u["u34"] - u["u24"])
    return n, num + draw(st.integers(1, 6)) * witness, "u:jj1"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(u_functions())
def test_unipotent_membership_is_a_constant_denominator(case):
    n, phi, failing = case
    verdict = decide_O_U(phi, n)
    assert verdict.member == phi.den.is_const
    if failing is not None:
        assert [c.chart.label for c in verdict.certificates if not c.ok] == [failing]
