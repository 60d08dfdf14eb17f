"""Canonical forms, GCDs, field arithmetic, substitution."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bircharts import (ChartId, MultiPoly, PoleError, RatFunc, UniverseError,
                       cartan, distinguished_word, exact_arith, g_variables,
                       is_laurent_in, is_polynomial, membership,
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


def test_poly_gcd_fractional_coefficients():
    # contents are units over Q, so scaling the inputs cannot change the gcd
    x, y = _x(), _y()
    p = ((x + y) * (x - 1)).scale(Fraction(1, 2))
    q = ((x + y) * (y + 2)).scale(Fraction(3, 7))
    assert poly_gcd(p, q) == x + y


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


def _sl3_pullback(matrix):
    """The assignment g_ij -> entry (i, j) of a 3x3 chart matrix."""
    return {f"g{i}{j}": matrix.entry(i, j)
            for i in range(1, 4) for j in range(1, 4)}


def test_monomial_pullbacks_normalize_once(monkeypatch):
    # the polynomial branch pays one gcd, in the final normalization; the
    # RatFunc branch would pay gcds at every product and sum
    calls = []
    real_gcd = exact_arith.poly_gcd
    monkeypatch.setattr(exact_arith, "poly_gcd",
                        lambda p, q: calls.append(1) or real_gcd(p, q))
    jj = distinguished_word(cartan("A", 2), 0)
    matrix = membership._chart(ChartId("GmodU", 0, sign="+"), jj, None, 3)
    for phi in _sl3_right_minor_functions():
        calls.clear()
        substitute(phi, _sl3_pullback(matrix))
        assert len(calls) == 1


def test_substitute_through_sl3_quotient_and_group_charts():
    # chart entries have monomial denominators in the torus coordinates
    words = [distinguished_word(cartan("A", 2), eps) for eps in (0, 1)]
    matrices = [membership._chart(ChartId("GmodU", eps, sign=sign), jj, None, 3)
                for eps, jj in enumerate(words) for sign in ("+", "-")]
    matrices += [membership._chart(ChartId("G", eps, eps2=eps2, variant=variant),
                                   jj, jj2, 3)
                 for eps, jj in enumerate(words) for eps2, jj2 in enumerate(words)
                 for variant in ("pm", "mp")]
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
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 3)}
    assert type(p.terms[(1, 0)]) is int
    q = p * p.scale(3)
    assert q.terms == {(2, 0): 12, (1, 1): 4, (0, 2): Fraction(1, 3)}
    assert [type(c) for c in q.terms.values()] == [int, int, Fraction]
    assert type((p + p.scale(2)).terms[(0, 1)]) is int
    assert type(MultiPoly.const(XY, Fraction(6, 3)).const_value) is Fraction


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
