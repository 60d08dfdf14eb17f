"""Canonical forms, GCDs, field arithmetic, substitution."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest

from bircharts import (ChartId, DegreeLimitError, MultiPoly, PoleError,
                       RatFunc, UniverseError, Unsupported, exact_arith,
                       g_variables, is_laurent_in, is_polynomial, membership,
                       poly_exact_div, poly_gcd, ratfunc_normalize, substitute)

from helpers import (divide_univariate, random_nonzero_poly, random_poly,
                     reference_substitute)

XY = ("x", "y")


def _x():
    return MultiPoly.variable(XY, "x")


def _y():
    return MultiPoly.variable(XY, "y")


def test_normalize_cancels_common_factor():
    # independent long-division oracle in one variable:
    # (x^2 - 1) / (x - 1) = x + 1 remainder 0
    quot, rem = divide_univariate([-1, 0, 1], [-1, 1])
    assert rem == [] and quot == [Fraction(1), Fraction(1)]
    x = _x()
    f = ratfunc_normalize(x * x - 1, x - 1)
    assert f.num == x + 1
    assert f.den.is_one


def test_normalize_shifts_out_a_monomial_gcd(monkeypatch):
    # gcd x*y: divided out by an exponent shift, not by the heap division
    monkeypatch.setattr(exact_arith, "_exact_div", None)
    x, y = _x(), _y()
    f = ratfunc_normalize(3 * x * x * y + 6 * x * y, 9 * x * y * y)
    assert f.num == x + 2 and f.den == 3 * y


def test_an_inexact_division_by_a_divisor_the_kernel_found_is_its_fault():
    # a caller's divisor is an input error; one the kernel found (a gcd or
    # a content) that leaves a remainder is an invariant failure
    x, y = _x(), _y()
    with pytest.raises(ValueError, match="not exact"):
        poly_exact_div(x + 1, y)
    with pytest.raises(exact_arith.KernelInvariantError, match="not exact"):
        exact_arith._exact_div(x + 1, y)
    assert not issubclass(exact_arith.KernelInvariantError,
                          (ValueError, ArithmeticError))


def test_normalize_zero_numerator():
    f = ratfunc_normalize(MultiPoly.zero(XY), _x())
    assert f.num.is_zero and f.den.is_one


def test_normalize_integer_content():
    f = ratfunc_normalize(_x().scale(2), MultiPoly.const(XY, 4))
    assert f.num == _x() and f.den == MultiPoly.const(XY, 2)


def test_normalize_denominator_sign():
    f = ratfunc_normalize(_x(), -_y())
    assert f.num == -_x() and f.den == _y()


def test_normalize_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        ratfunc_normalize(_x(), MultiPoly.zero(XY))


def test_arith_examples():
    x, y = RatFunc(_x()), RatFunc(_y())
    s = x.inv() + y.inv()
    assert s == RatFunc(_x() + _y(), _x() * _y())
    h = x + y
    assert h * h.inv() == 1
    names = ("a2", "a5")
    a2, a5 = RatFunc.var(names, "a2"), RatFunc.var(names, "a5")
    assert (a2 + a5) - a2 == a5


def test_divide_by_zero_function():
    x = RatFunc(_x())
    with pytest.raises(ZeroDivisionError):
        x / (x - x)


def test_poly_gcd_from_factored_inputs():
    # p and q are built from known factorizations, so their gcd is the
    # shared factor (x + y) times gcd(x - y, x + y) = 1.
    x, y = _x(), _y()
    p = (x - y) * (x + y)
    q = (x + y) * (x + y)
    assert poly_gcd(p, q) == x + y


def test_poly_gcd_with_zero_and_coprime():
    x, y = _x(), _y()
    p = (x + 1).scale(-3)
    assert poly_gcd(p, MultiPoly.zero(XY)) == x + 1
    assert poly_gcd(x + 1, y + 1).is_one


def test_poly_gcd_random_divisor_property():
    rng = random.Random(20250801)
    for _ in range(40):
        p = random_nonzero_poly(rng, XY)
        q = random_nonzero_poly(rng, XY)
        d = random_nonzero_poly(rng, XY)
        g = poly_gcd(p * d, q * d)
        expected = poly_gcd(d * poly_gcd(p, q), MultiPoly.zero(XY))
        assert g == expected
        # the gcd divides both inputs
        poly_exact_div(p * d, g)
        poly_exact_div(q * d, g)


def test_heuristic_and_subresultant_routes_agree():
    # the two internal gcd routes must compute associates of the same divisor
    from bircharts.exact_arith import (_gcd_core, _heu_gcd, _HeuristicFailed,
                                       _monomial_content, _primitive_positive,
                                       _shift_down)

    rng = random.Random(41)
    V = ("x", "y", "z")
    checked = 0
    for _ in range(60):
        p = random_nonzero_poly(rng, V, max_deg=2, max_terms=3)
        q = random_nonzero_poly(rng, V, max_deg=2, max_terms=3)
        d = random_nonzero_poly(rng, V, max_deg=1, max_terms=2)
        a, b = p * d, q * d
        a = _shift_down(a, _monomial_content(a))
        b = _shift_down(b, _monomial_content(b))
        if a.is_const or b.is_const:
            continue
        slow = _primitive_positive(_gcd_core(a, b))
        try:
            fast = _heu_gcd(_primitive_positive(a), _primitive_positive(b))
        except _HeuristicFailed:
            continue
        assert _primitive_positive(fast) == slow
        checked += 1
    assert checked > 40


def test_heuristic_gcd_answers_past_the_subresultant_budget():
    # the subresultant route is refused on this pair at the kernel's term
    # budget (a product of 4,668 by 496 terms); the heuristic answers
    rng = random.Random(0)
    V = ("v", "w", "x", "y", "z")
    g, a, b = (random_nonzero_poly(rng, V, max_deg=4, max_terms=8) for _ in range(3))
    d = poly_gcd(g * a, g * b)
    poly_exact_div(g * a, d)
    poly_exact_div(g * b, d)
    poly_exact_div(d, g)


def test_poly_gcd_fractional_coefficients():
    # contents are units over Q, so scaling the inputs cannot change the gcd
    x, y = _x(), _y()
    p = ((x + y) * (x - 1)).scale(Fraction(1, 2))
    q = ((x + y) * (y + 2)).scale(Fraction(3, 7))
    assert poly_gcd(p, q) == x + y


def test_gcd_of_coprime_multiples_of_a_factor_reaches_the_heuristic(monkeypatch):
    # neither p*r nor q*r divides the other, so the trial division fails
    # and the heuristic gcd finds r
    x, y = _x(), _y()
    r = x * y + 3 * y + 1
    calls = []
    real = exact_arith._heu_gcd
    monkeypatch.setattr(exact_arith, "_heu_gcd",
                        lambda p, q: calls.append(1) or real(p, q))
    assert poly_gcd((x + 2 * y) * r, (y - 3) * r) == r
    assert len(calls) == 1


def test_pow_negative_exponent():
    x = RatFunc(_x())
    assert x ** -2 == (x * x).inv()
    with pytest.raises(ZeroDivisionError):
        RatFunc.const(XY, 0) ** -1


def test_canonical_form_is_unique_random():
    rng = random.Random(7)
    for _ in range(40):
        p = random_poly(rng, XY)
        q = random_nonzero_poly(rng, XY)
        r = random_nonzero_poly(rng, XY)
        assert ratfunc_normalize(p * r, q * r) == ratfunc_normalize(p, q)


def test_field_axioms_random():
    rng = random.Random(11)
    V = ("x", "y", "z")
    for _ in range(25):
        f = RatFunc(random_poly(rng, V, max_deg=1), random_nonzero_poly(rng, V, max_deg=1))
        g = RatFunc(random_poly(rng, V, max_deg=1), random_nonzero_poly(rng, V, max_deg=1))
        h = RatFunc(random_poly(rng, V, max_deg=1), random_nonzero_poly(rng, V, max_deg=1))
        assert (f + g) * h == f * h + g * h
        if not f.is_zero:
            assert f * f.inv() == 1


def _sl4_assignment():
    # strictly-upper entries of the first SL4 bipartite chart
    names = tuple(f"a{k}" for k in range(1, 7))
    a1, a2, a3, a4, a5, a6 = (RatFunc.var(names, v) for v in names)
    return {
        "u12": a2 + a5, "u13": a2 * a4, "u14": a2 * a4 * a6,
        "u23": a1 + a4, "u24": a1 * a3 + a1 * a6 + a4 * a6, "u34": a3 + a6,
    }, (a1, a2, a3, a4, a5, a6)


def test_substitute_chart_pullbacks():
    uvars = ("u12", "u13", "u14", "u23", "u24", "u34")
    assignment, a = _sl4_assignment()
    u12 = RatFunc.var(uvars, "u12")
    assert substitute(u12, assignment) == a[1] + a[4]
    u13, u14 = RatFunc.var(uvars, "u13"), RatFunc.var(uvars, "u14")
    assert substitute(u14 / u13, assignment) == a[5]


def test_substitute_identity():
    rng = random.Random(3)
    f = RatFunc(random_poly(rng, XY), random_nonzero_poly(rng, XY))
    ident = {v: RatFunc.var(XY, v) for v in XY}
    assert substitute(f, ident) == f


def test_substitute_requires_full_assignment():
    f = RatFunc(_x())
    with pytest.raises(ValueError):
        substitute(f, {"x": RatFunc.const((), 1)})


def test_substitute_is_ring_homomorphism_random():
    rng = random.Random(23)
    target = ("a", "b")

    def rpoly():
        return random_poly(rng, XY, max_deg=1, max_terms=2)

    def rval():
        return RatFunc(random_poly(rng, target, max_deg=1, max_terms=2),
                       random_nonzero_poly(rng, target, max_deg=1, max_terms=2))

    for _ in range(15):
        f = RatFunc(rpoly(), random_nonzero_poly(rng, XY, max_deg=1, max_terms=2))
        g = RatFunc(rpoly(), random_nonzero_poly(rng, XY, max_deg=1, max_terms=2))
        sub = {"x": rval(), "y": rval()}
        try:
            fs, gs = substitute(f, sub), substitute(g, sub)
            assert substitute(f + g, sub) == fs + gs
            assert substitute(f * g, sub) == fs * gs
        except PoleError:
            continue


def test_substitute_pole_error():
    f = RatFunc(MultiPoly.one(XY), _x() - _y())
    a = RatFunc.var(("a",), "a")
    with pytest.raises(PoleError):
        substitute(f, {"x": a, "y": a})


AB = ("a", "b")


def _matches_reference(f, assignment, universe=AB):
    values = [assignment[v] for v in f.universe]
    return substitute(f, assignment) == reference_substitute(f, values, universe)


def _ab():
    return RatFunc.var(AB, "a"), RatFunc.var(AB, "b")


def test_substitute_polynomial_values_with_constant_denominators():
    a, b = _ab()
    x, y = RatFunc(_x()), RatFunc(_y())
    f = (x ** 3 * y - 3 * y + 1) / (x + 2 * y * y + 5)
    assert _matches_reference(
        f, {"x": (a + 1) / 2, "y": RatFunc.const(AB, Fraction(3, 4))})
    assert _matches_reference(f, {"x": (a * b - 1) / 6, "y": (2 * b + a) / 3})


def test_substitute_mixes_constant_and_nonconstant_values():
    a, b = _ab()
    x, y = RatFunc(_x()), RatFunc(_y())
    f = (x * x + x * y - y ** 3) / (y + 7)
    for xval, yval in [(3, a + b), (Fraction(-2, 5), a * b / 4),
                       (RatFunc.const((), Fraction(1, 3)), (a + 1) / b),
                       (a - b, Fraction(5, 2))]:
        assert _matches_reference(f, {"x": xval, "y": yval})


def test_substitute_rational_values():
    a, b = _ab()
    x, y = RatFunc(_x()), RatFunc(_y())
    f = (x * x * y + 2 * x ** 3 - 1) / (x * y + y * y + 1)
    for assignment in [{"x": 1 / a, "y": (a + b) / (a - b)},
                       {"x": (a * a + 1) / (b + 2), "y": b / (a + 1)}]:
        assert _matches_reference(f, assignment)


def test_substitute_pole_error_with_rational_values():
    f = RatFunc(MultiPoly.one(XY), _x() - _y())
    a = RatFunc.var(("a",), "a")
    # a monomial denominator, then a two-term one
    for value in (1 / a, 1 / (a + 1)):
        with pytest.raises(PoleError):
            substitute(f, {"x": value, "y": value})


def test_substitute_monomial_denominators():
    a, b = _ab()
    x, y = RatFunc(_x()), RatFunc(_y())
    f = (x ** 3 * y - 3 * y + 1) / (x * y + 2 * y * y + 5)
    for assignment in [{"x": (a + 1) / (2 * a), "y": b / (3 * a * a * b)},
                       {"x": 1 / b, "y": (a * b - 1) / (6 * b ** 3)},
                       {"x": (a - b) / (a * b), "y": Fraction(3, 4)}]:
        assert _matches_reference(f, assignment)
        assert _matches_reference(f.inv(), assignment)


def test_prepared_substitution_matches_a_plain_mapping():
    a, b = _ab()
    x, y = RatFunc(_x()), RatFunc(_y())
    functions = [x * y - 3, (x ** 2 + y) / (x - 2 * y), 1 / y]
    # single-term denominators, a constant, and a two-term denominator
    for assignment in [{"x": (a + 1) / (2 * a), "y": b / (3 * a * b * b)},
                       {"x": a - b, "y": Fraction(3, 4)},
                       {"x": a / (a + b), "y": b + 1}]:
        prepared = exact_arith.prepare_substitution(XY, assignment)
        for f in functions:
            assert substitute(f, prepared) == substitute(f, assignment)
    with pytest.raises(ValueError, match="prepared for"):
        substitute(RatFunc.var(AB, "a"), prepared)
    with pytest.raises(ValueError, match="unassigned"):
        exact_arith.prepare_substitution(XY, {"x": a})


def _sl3_right_minor_functions():
    """Products of right minors of the generic 3x3 matrix (minors on its
    last columns, which are invariant under lower unitriangular factors on
    the right) and reciprocals of right minors."""
    names = g_variables(3)
    g = {v: RatFunc.var(names, v) for v in names}
    col3 = [g["g13"], g["g23"], g["g33"]]
    cols23 = [g["g12"] * g["g23"] - g["g13"] * g["g22"],
              g["g12"] * g["g33"] - g["g13"] * g["g32"],
              g["g22"] * g["g33"] - g["g23"] * g["g32"]]
    return [col3[0] * col3[1] - 2 * cols23[2], col3[2] * cols23[0] + 1,
            cols23[0] * cols23[1], 3 / col3[1], Fraction(-1, 2) / cols23[1]]


def _sl3_two_sided_quotient():
    """A quotient of right minors whose pullbacks along the sl3 quotient
    charts have two or more terms on each side."""
    names = g_variables(3)
    g = {v: RatFunc.var(names, v) for v in names}
    det23 = g["g12"] * g["g23"] - g["g13"] * g["g22"]
    return (g["g13"] * g["g23"] + 1) / (det23 + 2)


def _sl3_pullback(matrix):
    """The assignment g_ij -> entry (i, j) of a 3x3 chart matrix."""
    return {f"g{i}{j}": matrix.entry(i, j)
            for i in range(1, 4) for j in range(1, 4)}


def test_monomial_pullbacks_normalize_once(monkeypatch):
    # the polynomial branch normalizes once, at the end; the RatFunc branch
    # would pay gcds at every product and sum.  A pullback with a side of
    # one term c * x^m needs no gcd at all, one with two longer sides one
    calls = []
    real_gcd = exact_arith.poly_gcd
    monkeypatch.setattr(exact_arith, "poly_gcd",
                        lambda p, q: calls.append(1) or real_gcd(p, q))
    matrix = membership._chart(ChartId("GmodU", 0, sign="+"), 3)
    for phi in _sl3_right_minor_functions():
        calls.clear()
        got = substitute(phi, _sl3_pullback(matrix))
        assert 1 in (len(got.num.terms), len(got.den.terms))
        assert len(calls) == 0
    phi = _sl3_two_sided_quotient()
    calls.clear()
    got = substitute(phi, _sl3_pullback(matrix))
    assert len(got.num.terms) > 1 and len(got.den.terms) > 1
    assert len(calls) == 1


def test_a_term_product_is_added_into_the_sum_by_its_last_factor(monkeypatch):
    # each term of f has two or more factors; its product is never built
    # on its own, with or without its coefficient, to be added afterwards
    a, b = _ab()
    x, y = RatFunc(_x()), RatFunc(_y())
    f = 3 * x * y ** 2 - 2 * x ** 2 * y
    values = {"x": a + 2 * b + 1, "y": a * b - b + 2}
    P = {v: val.num for v, val in values.items()}
    whole = []
    for e, c in f.num.exponents().items():
        powers = P["x"] ** e[0] * P["y"] ** e[1]
        whole += [powers.terms, powers.scale(c).terms]
    want = reference_substitute(f, [values["x"], values["y"]], AB)
    seen = []
    real = exact_arith._mul_terms

    def spy(at, bt, out=None):
        # raw products may hold cancelled terms
        seen.extend({e: c for e, c in t.items() if c} for t in (at, bt))
        return real(at, bt, out)

    monkeypatch.setattr(exact_arith, "_mul_terms", spy)
    assert substitute(f, values) == want
    assert seen and not any(t in whole for t in seen)


def test_substitute_through_sl3_quotient_and_group_charts():
    # chart entries have monomial denominators in the torus coordinates
    matrices = [membership._chart(cid, 3) for space in ("GmodU", "G")
                for cid in membership._CHARTS[space]]
    assert len(matrices) == 12
    for matrix in matrices:
        assignment = _sl3_pullback(matrix)
        universe = matrix.entry(1, 1).universe
        for phi in _sl3_right_minor_functions():
            assert _matches_reference(phi, assignment, universe)


def test_is_polynomial_examples():
    x = _x()
    assert is_polynomial(RatFunc(x * x - 1, x - 1))
    names = ("a2", "a5")
    s = RatFunc.var(names, "a2") + RatFunc.var(names, "a5")
    assert not is_polynomial(s.inv())
    assert is_polynomial(RatFunc.const(XY, 5))


def test_is_polynomial_closed_under_ring_ops():
    rng = random.Random(5)
    for _ in range(20):
        f = RatFunc(random_poly(rng, XY))
        g = RatFunc(random_poly(rng, XY))
        assert is_polynomial(f * g) and is_polynomial(f + g)


def test_is_laurent_examples():
    AT = ("a", "t")
    a, t = RatFunc.var(AT, "a"), RatFunc.var(AT, "t")
    assert is_laurent_in((a + t) / (t * t), {"t"})
    assert not is_laurent_in(RatFunc.const(AT, 1) / (t * t + a * RatFunc.var(AT, "a")), {"t"})
    assert is_laurent_in(RatFunc(_x() + 1), set())


def test_is_laurent_in_reads_the_denominator_key():
    universe = ("a", "t1", "b", "t2")
    a, t1, b, t2 = (RatFunc.var(universe, v) for v in universe)
    torus = ("t1", "t2")
    cases = [
        ((a + t1) / 3, True),             # a constant denominator
        (a / (t1 * t2 ** 2), True),       # a torus monomial
        (5 / (-2 * t2), True),
        (t1 / (a * t1 * t2), False),      # a monomial outside the torus
        (1 / b, False),
        (1 / (t1 + t2), False),           # two terms
        (a / (t1 * t2 - 1), False),
    ]
    for f, want in cases:
        for names in (torus, set(torus), list(torus), iter(torus)):
            assert is_laurent_in(f, names) is want
        # the decoded definition: a one-term denominator whose variables
        # all lie among the names
        den = f.den
        assert want == (den.is_monomial and all(
            universe[i] in torus for i in den.variables_present()))
    # nothing is Laurent in no names but a polynomial
    assert is_laurent_in((a + t1) / 3, ())
    assert not is_laurent_in(a / t1, ())


def test_universe_mixing_rules():
    x = RatFunc.var(("x",), "x")
    u = RatFunc.var(("u",), "u")
    with pytest.raises(UniverseError):
        _ = x + u
    # constants promote silently
    c = RatFunc.const((), 7)
    assert x + c == RatFunc(MultiPoly.variable(("x",), "x") + 7)


def test_printing_golden():
    names = ("a1", "a2", "a3")
    a1, a2, a3 = (RatFunc.var(names, v) for v in names)
    f = (a1 * a2 + 3) / (a3 * a3)
    assert str(f) == "(a1*a2 + 3)/(a3^2)"
    assert str(RatFunc.const(names, 0)) == "0"
    assert str(a1 - a2) == "a1 - a2"


def test_reflected_division_by_unsupported_operand_is_type_error():
    x = RatFunc(_x())
    with pytest.raises(TypeError):
        _ = 1.5 / x
    with pytest.raises(TypeError):
        _ = "a" / x
    assert 2 / x == RatFunc(MultiPoly.const(XY, 2), _x())


def test_integral_coefficients_are_ints():
    p = MultiPoly(XY, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3), (0, 0): 0})
    assert p.exponents() == {(1, 0): 2, (0, 1): Fraction(1, 3)}
    assert type(p.exponents()[(1, 0)]) is int
    q = p * p.scale(3)
    assert q.exponents() == {(2, 0): 12, (1, 1): 4, (0, 2): Fraction(1, 3)}
    assert [type(c) for c in q.exponents().values()] == [int, int, Fraction]
    assert type((p + p.scale(2)).exponents()[(0, 1)]) is int
    assert type(MultiPoly.const(XY, Fraction(6, 3)).const_value) is Fraction


def test_degree_limit_is_an_input_error():
    x = _x()
    assert issubclass(DegreeLimitError, ValueError)
    assert (x ** 32767).exponents() == {(32767, 0): 1}
    half = x ** 20000
    with pytest.raises(DegreeLimitError,
                       match="total degree 40000 exceeds the limit 32767"):
        half * (half + _y())
    with pytest.raises(DegreeLimitError, match="limit 32767"):
        (x + 1) ** 40000
    with pytest.raises(DegreeLimitError, match="limit 32767"):
        RatFunc(x) ** -40000
    with pytest.raises(DegreeLimitError, match="total degree 40000 exceeds"):
        MultiPoly(("x",), {(40000,): 1})
    with pytest.raises(DegreeLimitError, match="total degree 40000 exceeds"):
        MultiPoly(XY, {(20000, 20000): 1})


def test_pullback_degree_limit_is_checked_per_term():
    # a pullback term's degree is known before its products, from the
    # values' degrees and its start monomial, and checked then
    x, w = (RatFunc.var(("x", "w"), v) for v in ("x", "w"))
    y = RatFunc.var(("y",), "y")
    with pytest.raises(DegreeLimitError, match="total degree 40000 exceeds"):
        substitute(x ** 200, {"x": y ** 200, "w": y})
    # 151 * 217 = 32767, the limit itself
    got = substitute(x ** 151, {"x": y ** 217, "w": y})
    assert got.num.exponents() == {(32767,): 1} and got.den.is_one
    got = substitute(x ** 151, {"x": 1 / y ** 217, "w": y})
    assert got.num.is_one and got.den.exponents() == {(32767,): 1}
    # the term w^2 starts from y^16000, the shift to the denominator of x
    with pytest.raises(DegreeLimitError, match="total degree 32800 exceeds"):
        substitute(x + w ** 2, {"x": 1 / y ** 16000, "w": y ** 8400})
    got = substitute(x + w ** 2, {"x": 1 / y ** 16000, "w": y ** 8383})
    assert got.num.exponents() == {(32766,): 1, (0,): 1}
    assert got.den.exponents() == {(16000,): 1}


def test_pullback_term_budget_is_checked_before_each_product(monkeypatch):
    # the raw products of one pullback, power tables included, may form at
    # most _TERM_BUDGET pairs of terms; the product that would pass it is
    # refused before it runs, as unsupported
    x, w = (RatFunc.var(("x", "w"), v) for v in ("x", "w"))
    a, b = _ab()
    # a polynomial over a monomial denominator normalizes without products
    phi = (x + w) ** 3 * x - 2
    values = {"x": a + b, "w": (a - 1) / b}
    pairs = []
    real = exact_arith._mul_terms

    def spy(at, bt, out=None):
        pairs.append(len(at) * len(bt))
        return real(at, bt, out)

    monkeypatch.setattr(exact_arith, "_mul_terms", spy)
    want = substitute(phi, values)
    ran = list(pairs)
    assert want == reference_substitute(phi, [values["x"], values["w"]], AB)
    monkeypatch.setattr(exact_arith, "_TERM_BUDGET", sum(ran))
    assert substitute(phi, values) == want
    monkeypatch.setattr(exact_arith, "_TERM_BUDGET", sum(ran) - 1)
    pairs.clear()
    with pytest.raises(Unsupported, match=f"more than {sum(ran) - 1} pairs"):
        substitute(phi, values)
    # every product but the last ran
    assert pairs == ran[:-1]


def _scale_by_contents(num, den):
    """Canonical scaling by the content round-trip: both sides divided by
    their contents, the ratio of the contents multiplied back."""
    cn, pn = exact_arith._int_primitive(num)
    cd, pd = exact_arith._int_primitive(den)
    ratio = Fraction(cn) / Fraction(cd)
    return pn.scale(ratio.numerator), pd.scale(ratio.denominator)


def test_canonical_scale_keeps_an_integer_polynomial_over_one():
    one = MultiPoly.one(XY)
    num = _x().scale(-2) - 4
    f = exact_arith._canonical_scale(num, one)
    assert f.num is num and f.den is one and str(f) == "-2*x - 4"
    assert (f.num, f.den) == _scale_by_contents(num, one)
    # and so is one over a monic monomial, the common denominator of a
    # chart pullback
    mono = _x() * _y() ** 2
    f = exact_arith._canonical_scale(num, mono)
    assert f.num is num and f.den is mono
    assert (f.num, f.den) == _scale_by_contents(num, mono)
    # Fraction coefficients are still scaled: x/2 is x over 2
    half = _x().scale(Fraction(1, 2))
    g = exact_arith._canonical_scale(half, one)
    assert g.num == _x() and g.den == MultiPoly.const(XY, 2)
    assert (g.num, g.den) == _scale_by_contents(half, one)
    assert [type(c) for c in g.num.terms.values()] == [int]


def test_coprimality_certificate_on_minors():
    # distinct 2x2 minors of a generic 3x3 upper unitriangular matrix are
    # coprime; the certificate proves it, and a shared factor defeats it
    vs = ("u12", "u13", "u23", "x")
    u12, u13, u23, x = (MultiPoly.variable(vs, v) for v in vs)
    m1 = u12 * u23 - u13
    m2 = u13 + x * u23
    assert exact_arith._certified_coprime(m1, m2)
    assert poly_gcd(m1, m2).is_one
    assert not exact_arith._certified_coprime(m1 * m2, m2 * m2 + m1 * m2)
    assert poly_gcd(m1 * m2, m2 * (m2 + m1)) == m2
    # no shared variable: coprime without any evaluation
    assert exact_arith._certified_coprime(u12 + 1, u23 * x + 1)


def test_coprimality_certificate_moves_off_a_vanishing_leading_coefficient():
    vs = ("x", "y")
    x, y = (MultiPoly.variable(vs, v) for v in vs)
    c = exact_arith._cert_point(2, 0)[1]
    p = (y - c) * x + 1  # leading coefficient in x vanishes at the first point
    assert exact_arith._certified_coprime(p, x + y)
    assert not exact_arith._certified_coprime(p * (x + y), (x - y) * (x + y))


@pytest.mark.parametrize("c", [0, 1, -1, 2, -256, 256, Fraction(6, 3)])
def test_small_constants_are_shared(c):
    # one object per universe and value; equal to the unshared form
    f = RatFunc.const(XY, c)
    assert f is RatFunc.const(list(XY), int(c))
    assert f.num is MultiPoly.const(XY, c) and f.den is MultiPoly.one(XY)
    assert f == RatFunc(MultiPoly(XY, {(0, 0): c}))
    assert -MultiPoly.const(XY, c) is MultiPoly.const(XY, -c)
    assert (-f).num is MultiPoly.const(XY, -c) and -f == RatFunc.const(XY, -c)
    assert RatFunc.const(("z",), c) is not f


def test_negating_zero_returns_it_and_large_constants_stay_exact():
    for zero in (MultiPoly.zero(XY), RatFunc.const(XY, 0), RatFunc(_x() - _x())):
        assert -zero is zero
    for c in (257, -257, Fraction(1, 2), Fraction(-513, 2)):
        f = RatFunc.const(XY, c)
        assert f.const_value == c and (-f).const_value == -c
        assert -MultiPoly(XY, {(0, 0): c}) == MultiPoly.const(XY, -c)


def test_a_failed_heuristic_hands_the_gcd_to_the_subresultant_prs(monkeypatch):
    # D is the product of xi + 1 over the heuristic's six evaluation points
    # for inputs of height 3 (xi = 35, 110, 281, 672, 1564, 3598), so at each
    # the integer gcd is (xi + 2)(xi + 1) and every reconstruction fails its
    # trial division
    x = MultiPoly.variable(("x",), "x")
    D = 4271553406404360
    calls = []
    real = exact_arith._gcd_core
    monkeypatch.setattr(exact_arith, "_gcd_core",
                        lambda p, q: calls.append(1) or real(p, q))
    assert poly_gcd((x + 2) * (x + 1), (x + 2) * (x + 1 + D)) == x + 2
    assert len(calls) == 1


def test_a_heuristic_failure_one_level_down_moves_to_the_next_point(monkeypatch):
    # neither input divides the other and they are not coprime, so the gcd
    # goes to the heuristic; its first gcd one level down fails, and the
    # top level retries at its next point instead of giving up
    x, y = _x(), _y()
    r = x + y + 1
    calls = []
    real = exact_arith._heu_gcd_raw

    def flaky(p, q, width):
        calls.append(1)
        if len(calls) == 2:
            raise exact_arith._HeuristicFailed
        return real(p, q, width)

    core = []
    real_core = exact_arith._gcd_core
    monkeypatch.setattr(exact_arith, "_heu_gcd_raw", flaky)
    monkeypatch.setattr(exact_arith, "_gcd_core",
                        lambda p, q: core.append(1) or real_core(p, q))
    assert poly_gcd(r * (x - y), r * (x + 2 * y + 3)) == r
    assert len(calls) > 2 and not core


@pytest.mark.parametrize("kind", [MultiPoly, RatFunc])
def test_a_results_universe_does_not_depend_on_operand_order(kind):
    def universe(v):
        return v.vars if kind is MultiPoly else v.universe

    ab, empty = kind.const(("a", "b"), 2), kind.const((), 3)
    ops = [operator.add, operator.sub, operator.mul]
    if kind is RatFunc:
        ops.append(operator.truediv)
    for op in ops:
        # two constants over different universes meet over ()
        assert universe(op(ab, empty)) == universe(op(empty, ab)) == ()
        assert op(ab, empty) == kind.const((), op(Fraction(2), 3))
        assert op(empty, ab) == kind.const((), op(Fraction(3), 2))
    assert ab == kind.const((), 2) and kind.const((), 2) == ab
    assert not ab == empty and not empty == ab
    # a constant beside a non-constant joins the non-constant's universe
    x = kind.variable(("x",), "x") if kind is MultiPoly else kind.var(("x",), "x")
    assert universe(x + ab) == universe(ab + x) == ("x",)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: MultiPoly(("x",), {(1, 2): 1}), ValueError,
                 "exponent vector (1, 2) has length 2, expected 1", id="width"),
    pytest.param(lambda: MultiPoly(("x",), {(-1,): 1}), ValueError,
                 "negative exponent in (-1,)", id="negative"),
    pytest.param(lambda: MultiPoly.variable(("x",), "y"), UniverseError,
                 "variable 'y' not in universe ('x',)", id="variable"),
    pytest.param(lambda: MultiPoly.variable(("x",), "x").const_value, ValueError,
                 "polynomial is not constant", id="const_value"),
    pytest.param(lambda: MultiPoly.zero(("x",)).leading_exp(), ValueError,
                 "zero polynomial has no leading term", id="leading_exp"),
    pytest.param(lambda: MultiPoly.zero(("x",)).leading_coeff(), ValueError,
                 "zero polynomial has no leading term", id="leading_coeff"),
    pytest.param(lambda: MultiPoly.variable(("x",), "x") ** -1, ValueError,
                 "polynomial exponent must be a non-negative integer", id="poly-power"),
    pytest.param(lambda: poly_exact_div(_x(), MultiPoly.zero(XY)), ZeroDivisionError,
                 "division by zero polynomial", id="exact-div"),
    pytest.param(lambda: RatFunc(3), TypeError,
                 "num must be a MultiPoly (or use RatFunc.const/var)", id="ratfunc"),
    pytest.param(lambda: RatFunc.var(("x",), "x") ** 1.5, ValueError,
                 "exponent must be an integer", id="ratfunc-power"),
    pytest.param(lambda: exact_arith.prepare_substitution(
                     XY, {"x": RatFunc.var(("a",), "a"), "y": RatFunc.var(("b",), "b")}),
                 UniverseError, "assignment values live in different universes",
                 id="substitution"),
])
def test_kernel_input_checks(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
