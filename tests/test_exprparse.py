"""Expression grammar, precedence, errors, print round trip."""

from __future__ import annotations

import random

import pytest

from bircharts import (ParseError, RatFunc, g_variables, parse_expression,
                       u_variables)
from bircharts import exact_arith
from bircharts.exprparse import MAX_EXPONENT, MAX_LITERAL_DIGITS, MAX_NESTING

from helpers import random_nonzero_poly, random_poly

UV = u_variables(4)


def test_parse_rejection_witness_expression():
    phi = parse_expression(
        "u(1,2) - (u(1,3)*u(3,4)-u(1,4))/(u(2,3)*u(3,4)-u(2,4))", UV)
    u = {v: RatFunc.var(UV, v) for v in UV}
    expected = u["u12"] - (u["u13"] * u["u34"] - u["u14"]) / (
        u["u23"] * u["u34"] - u["u24"])
    assert phi == expected


def test_parse_integer_division_is_exact():
    f = parse_expression("1/2 + 1/2", UV)
    assert f == RatFunc.const(UV, 1)
    with pytest.raises(ZeroDivisionError):
        parse_expression("1/0", UV)


def test_parse_exponent():
    f = parse_expression("a(1)^2*a(2)", ("a1", "a2"))
    a1 = RatFunc.var(("a1", "a2"), "a1")
    a2 = RatFunc.var(("a1", "a2"), "a2")
    assert f == a1 * a1 * a2
    assert parse_expression("a(1)^-1", ("a1", "a2")) == a1.inv()


def test_precedence_and_associativity():
    assert parse_expression("2-3-4", ()) == RatFunc.const((), -5)
    assert parse_expression("12/3/2", ()) == RatFunc.const((), 2)
    assert parse_expression("-2^2", ()) == RatFunc.const((), -4)
    assert parse_expression("2+3*4", ()) == RatFunc.const((), 14)
    assert parse_expression("(2+3)*4", ()) == RatFunc.const((), 20)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_expression("u(1,2) + ", UV)
    assert "position" in str(err.value)
    with pytest.raises(ParseError, match="unknown variable"):
        parse_expression("w(1,2)", UV)
    with pytest.raises(ParseError, match="out of bounds"):
        parse_expression("u(1,9)", UV)
    # a bare stem has no index to be out of bounds
    with pytest.raises(ParseError, match=r"unknown variable 'u' \(at position 4\)"):
        parse_expression("1 + u", UV)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_expression("u(1,2) $ 3", UV)
    with pytest.raises(ParseError):
        parse_expression("u(1,2))", UV)


def test_bare_canonical_names_parse():
    assert parse_expression("u12", UV) == RatFunc.var(UV, "u12")


def test_parse_print_round_trip_random():
    rng = random.Random(20250801)
    for _ in range(25):
        f = RatFunc(random_poly(rng, UV[:3], max_deg=2, max_terms=3),
                    random_nonzero_poly(rng, UV[:3], max_deg=2, max_terms=2))
        assert parse_expression(str(f), UV[:3]) == f


def _random_expression(rng, names, depth):
    """Build (text, value) pairs bottom-up, evaluating with RatFunc ops."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            k = rng.randint(0, 9)
            return str(k), RatFunc.const(names, k)
        v = rng.choice(names)
        return f"{v[0]}({','.join(v[1:])})", RatFunc.var(names, v)
    op = rng.choice("+-*/^")
    left_text, left = _random_expression(rng, names, depth - 1)
    if op == "^":
        k = rng.randint(0, 3)
        return f"({left_text})^{k}", left ** k
    right_text, right = _random_expression(rng, names, depth - 1)
    if op == "+":
        return f"({left_text})+({right_text})", left + right
    if op == "-":
        return f"({left_text})-({right_text})", left - right
    if op == "*":
        return f"({left_text})*({right_text})", left * right
    if right.is_zero:
        return f"({left_text})", left
    return f"({left_text})/({right_text})", left / right


def test_parser_fuzz_against_direct_evaluation():
    rng = random.Random(99)
    names = UV[:4]
    for _ in range(60):
        text, expected = _random_expression(rng, names, 3)
        assert parse_expression(text, names) == expected


def test_huge_exponent_rejected_with_position():
    # only the error path: the power itself is never computed
    text = "(u(1,2)+1)^100000"
    with pytest.raises(ParseError, match="exponent 100000 exceeds") as err:
        parse_expression(text, UV)
    assert err.value.pos == text.index("100000")
    with pytest.raises(ParseError, match="exceeds"):
        parse_expression("u(1,2)^-" + "9" * 5000, UV)
    with pytest.raises(ParseError, match="exceeds"):
        parse_expression(f"u(1,2)^{MAX_EXPONENT + 1}", UV)


def test_exponent_at_the_limit_parses():
    assert parse_expression(f"2^{MAX_EXPONENT}", ()) == RatFunc.const((), 2 ** MAX_EXPONENT)
    assert parse_expression(f"u(1,2)^-000{MAX_EXPONENT}", UV) == \
        RatFunc.var(UV, "u12") ** -MAX_EXPONENT


def test_long_literal_rejected_with_position():
    # only the error path: the literal is never converted
    text = "u(1,2) + " + "1" * 5000
    with pytest.raises(ParseError, match="5000 digits exceeds") as err:
        parse_expression(text, UV)
    assert err.value.pos == text.index("1" * 5000)
    with pytest.raises(ParseError, match="exceeds") as err:
        parse_expression("1" * 5000, ())
    assert err.value.pos == 0


def test_long_index_rejected_with_position():
    text = "u(1," + "2" * (MAX_LITERAL_DIGITS + 1) + ")"
    with pytest.raises(ParseError, match="exceeds") as err:
        parse_expression(text, UV)
    assert err.value.pos == 4


def test_literal_at_the_digit_limit_parses():
    digits = "7" * MAX_LITERAL_DIGITS
    assert parse_expression(digits, ()) == RatFunc.const((), int(digits))


def test_two_digit_indices_round_trip_at_sl11():
    # the parser and the membership universes share one naming rule
    phi = parse_expression("u(1,10)*u(10,11)", u_variables(11))
    assert str(phi) == "u1_10*u10_11"
    assert parse_expression(str(phi), u_variables(11)) == phi
    g = parse_expression("g(10,11)", g_variables(11))
    assert str(g) == "g10_11"
    assert parse_expression(str(g), g_variables(11)) == g


def test_zero_divisor_is_the_zero_function():
    for text in ("1/(u(1,2)-u(1,2))", "(u(1,2)-u(1,2))^-1"):
        with pytest.raises(ZeroDivisionError,
                           match="^division by the zero function$"):
            parse_expression(text, UV)


def test_polynomial_input_pays_no_gcd(monkeypatch):
    calls = []
    real_gcd = exact_arith.poly_gcd
    monkeypatch.setattr(exact_arith, "poly_gcd",
                        lambda p, q: calls.append(1) or real_gcd(p, q))
    phi = parse_expression("(u(1,2)+2)^3*u(3,4)/6 - u(1,3)*u(2,4)/4", UV)
    assert calls == []
    assert phi.den == RatFunc.const(UV, 12).num
    # c/(polynomial) is one canonical division
    parse_expression("5/(u(1,2)*u(3,4)+1)", UV)
    assert len(calls) <= 2


def test_characters_outside_the_grammar_keep_their_positions():
    with pytest.raises(ParseError, match=r"unexpected character '\$'") as err:
        parse_expression("u(1,2) $ 3", UV)
    assert err.value.pos == 7
    with pytest.raises(ParseError, match="unexpected character '½'") as err:
        parse_expression("1 + ½", UV)
    assert err.value.pos == 4
    with pytest.raises(ParseError, match="unknown variable 'é'") as err:
        parse_expression(" é", UV)
    assert err.value.pos == 1


def test_indexed_variables_with_spaces_one_index_and_two_digits():
    assert parse_expression("u( 1 , 2 )*u (2,3)", UV) == \
        RatFunc.var(UV, "u12") * RatFunc.var(UV, "u23")
    assert parse_expression("a(1)^2 - a( 2 )", ("a1", "a2")) == \
        RatFunc.var(("a1", "a2"), "a1") ** 2 - RatFunc.var(("a1", "a2"), "a2")
    uv11 = u_variables(11)
    assert parse_expression("u(1,10) - u(1, 10)", uv11).is_zero
    assert parse_expression("u(1,10)", uv11) == RatFunc.var(uv11, "u1_10")


def test_zero_factors_and_zero_powers():
    assert parse_expression("0*u(1,2)^3", UV).is_zero
    assert parse_expression("u(1,2)^3*0 + 0", UV).is_zero
    assert parse_expression("(u(1,2)-u(1,2))^0", UV) == RatFunc.const(UV, 1)
    assert parse_expression("(u(1,2)-u(1,2))^2", UV).is_zero


def test_total_degree_limit_through_the_parser():
    # an exponent past MAX_EXPONENT is a parse error before any power ...
    text = "u(1,2)^20000*u(1,2)^20000"
    with pytest.raises(ParseError, match="exponent 20000 exceeds") as err:
        parse_expression(text, UV)
    assert err.value.pos == 7
    # ... and a product past the kernel's degree limit raises there
    with pytest.raises(exact_arith.DegreeLimitError, match="total degree 40000"):
        parse_expression("(u(1,2)^1000)^20*(u(1,2)^1000)^20", UV)
    with pytest.raises(exact_arith.DegreeLimitError, match="total degree 32768"):
        parse_expression("(u(1,2)^1000)^32*u(1,2)^768", UV)
    assert parse_expression("(u(1,2)^1000)^32*u(1,2)^767", UV) == \
        RatFunc.var(UV, "u12") ** exact_arith.MAX_DEGREE
    # a sum whose leading terms cancel has the degree of what is left
    cancelled = "((u(1,2)^1000)^32 + u(2,3) - (u(1,2)^1000)^32)*(u(1,2)^1000)^32*u(1,2)^766"
    assert parse_expression(cancelled, UV) == \
        RatFunc.var(UV, "u23") * RatFunc.var(UV, "u12") ** 32766


@pytest.mark.parametrize("text, degree", [
    # products of a single term by a single term, by a sum, and of two sums
    ("(u(1,2)^1000)^32*u(1,2)^767", 32767),
    ("(u(1,2)^1000)^32*u(1,2)^768", 32768),
    ("(u(1,2)^1000)^32*(u(1,2)^767 + u(2,3))", 32767),
    ("(u(1,2)^1000)^32*(u(1,2)^768 + u(2,3))", 32768),
    ("((u(1,2)^1000)^32 + 1)*(u(1,2)^767 - u(2,3))", 32767),
    ("((u(1,2)^1000)^32 + 1)*(u(1,2)^768 - u(2,3))", 32768),
    # powers of a single term and of a sum: 151 * 217 = 32767, 512 * 64 = 32768
    ("(u(1,2)^151)^217", 32767),
    ("(u(1,2)^512)^64", 32768),
    ("(u(1,2)^151 + u(2,3))^217", 32767),
    ("(u(1,2)^512 + u(2,3))^64", 32768),
])
def test_parser_and_multipoly_share_the_degree_limit(text, degree):
    # the same text, evaluated by Python with MultiPoly arithmetic
    def u(i, j):
        return exact_arith.MultiPoly.variable(UV, f"u{i}{j}")

    def by_multipoly():
        return RatFunc(eval(text.replace("^", "**"), {"u": u}))

    if degree > exact_arith.MAX_DEGREE:
        message = f"total degree {degree} exceeds the limit 32767"
        for build in (by_multipoly, lambda: parse_expression(text, UV)):
            with pytest.raises(exact_arith.DegreeLimitError) as err:
                build()
            assert str(err.value) == message
    else:
        got = parse_expression(text, UV)
        assert got == by_multipoly()
        assert sum(got.num.leading_exp()) == degree


@pytest.mark.parametrize("text, message, pos", [
    ("u(1,)", "expected 'int', found ')'", 4),
    ("u(1 2)", "expected ')', found '2'", 4),
    ("u(", "expected 'int', found ''", 2),
    ("u(1,2", "expected ')', found ''", 5),
])
def test_malformed_index_lists_keep_their_positions(text, message, pos):
    with pytest.raises(ParseError) as err:
        parse_expression(text, UV)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


def test_dense_polynomial_input_builds_no_polynomial_per_factor(monkeypatch):
    text = ("3*u(1,2)^2*u(2,3)*u(2,4) - 5*u(1,3)^3*u(3,4)^2*u(1,4)"
            " + u(1,4)*u(2,4)^2*u(3,4) - 7*u(1,2)*u(2,3)^3 + 2")
    expected = parse_expression(text, UV)
    calls = []
    poly = exact_arith.MultiPoly
    for name in ("__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(poly, name, lambda a, b, real=getattr(poly, name), name=name:
                            calls.append(name) or real(a, b))
    variable = poly.variable
    monkeypatch.setattr(poly, "variable", staticmethod(
        lambda vars, v: calls.append("variable") or variable(vars, v)))
    assert parse_expression(text, UV) == expected
    assert calls == []


def test_a_product_past_the_term_budget_is_refused_before_it_runs(monkeypatch):
    # each raw product of _product and _power, every squaring included,
    # may form at most _TERM_BUDGET pairs of terms; the one that would
    # pass it raises Unsupported before it runs
    pairs = []
    real = exact_arith._mul_terms

    def spy(at, bt, out=None):
        pairs.append(len(at) * len(bt))
        return real(at, bt, out)

    monkeypatch.setattr(exact_arith, "_mul_terms", spy)
    # (x + y)^4 squares 2 terms, then 3; its product by x + y is 5 by 2
    text = "(u(1,2)+u(2,3))^4*(u(1,2)+u(2,3))"
    want = parse_expression(text, UV)
    assert pairs == [4, 9, 10]
    monkeypatch.setattr(exact_arith, "_TERM_BUDGET", 10)
    assert parse_expression(text, UV) == want
    for budget, ran in ((9, [4, 9]), (8, [4])):
        monkeypatch.setattr(exact_arith, "_TERM_BUDGET", budget)
        pairs.clear()
        with pytest.raises(exact_arith.Unsupported,
                           match=f"more than {budget} pairs of terms"):
            parse_expression(text, UV)
        assert pairs == ran


@pytest.mark.parametrize("text, sizes", [
    # the power has 501,501 terms; by squaring, the 40th power (861
    # terms) times the 64th (2,145) would form 1,846,845 pairs
    ("(u(1,2)+u(2,3)+u(1,3))^1000", "861 by 2145"),
    # each power has 1,001 terms, their product 1,002,001 pairs
    ("(u(1,2)+u(2,3))^1000*(u(1,2)+u(2,3))^1000", "1001 by 1001"),
])
def test_hostile_powers_stop_in_the_parse(text, sizes):
    with pytest.raises(exact_arith.Unsupported,
                       match=f"^a product of {sizes} terms would multiply "
                             f"more than 1000000 pairs of terms$"):
        parse_expression(text, u_variables(3))


def test_division_by_a_polynomial_is_one_normalization():
    # p*r/(q*r) by the parser equals the same quotient by the RatFunc
    # operators, which take the inverse and then the product
    rng = random.Random(29)
    for _ in range(40):
        p, q, r = (random_nonzero_poly(rng, UV, max_deg=2, max_terms=3)
                   for _ in range(3))
        num, den = p * r, q * r
        if den.is_const:
            continue
        got = parse_expression(f"({num})/({den})", UV)
        want = RatFunc(num) * RatFunc(den).inv()
        assert (got.num, got.den) == (want.num, want.den)


@pytest.mark.parametrize("text, message, pos", [
    # an exponent that is not an integer literal
    ("u(1,2)^(2)", "expected 'int', found '('", 7),
    ("u(1,2)^-u(1,3)", "expected 'int', found 'u'", 8),
    # an unclosed parenthesized expression
    ("(u(1,2)", "expected ')', found ''", 7),
    ("(u(1,2) u(1,3))", "expected ')', found 'u'", 8),
])
def test_exponents_and_parentheses_keep_their_positions(text, message, pos):
    with pytest.raises(ParseError) as err:
        parse_expression(text, UV)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


def test_parentheses_nest_up_to_the_limit():
    u12 = RatFunc.var(UV, "u12")
    text = "(" * MAX_NESTING + "u(1,2)" + ")" * MAX_NESTING
    assert parse_expression(text, UV) == u12
    # depth counts open parentheses, not all of them
    text = "(u(1,2)) * " * 3 * MAX_NESTING + "1"
    assert parse_expression(text, UV) == u12 ** (3 * MAX_NESTING)


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 10000])
def test_parentheses_past_the_limit_are_a_parse_error(depth):
    text = "-(u(1,3) + " * 2 + "(" * (depth - 2) + "u(1,2)" + ")" * depth
    with pytest.raises(ParseError) as err:
        parse_expression(text, UV)
    assert f"nested deeper than the limit of {MAX_NESTING}" in str(err.value)
    # at the first parenthesis past the limit
    assert err.value.pos == len("-(u(1,3) + ") * 2 + MAX_NESTING - 2


@pytest.mark.parametrize("signs", [1, 2, 999, 1000, 10001])
def test_a_run_of_unary_minus_signs_costs_no_recursion(signs):
    u12 = RatFunc.var(UV, "u12")
    want = u12 ** 2 if signs % 2 == 0 else -(u12 ** 2)
    assert parse_expression("-" * signs + "u(1,2)^2", UV) == want
    assert parse_expression("3 - " + "-" * signs + "u(1,2)^2", UV) == 3 - want
