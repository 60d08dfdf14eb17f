"""The parser against canonical ``RatFunc`` arithmetic, as a property.

The parser keeps a subexpression a polynomial until a division by a
non-constant or a negative power; the reference evaluates every tree with
canonical rational-function arithmetic throughout.  Both must give the
same canonical form, coefficient types included, and the same error for a
zero divisor.
"""

from __future__ import annotations

import operator

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bircharts import RatFunc, parse_expression, u_variables  # noqa: E402

UV = u_variables(3)

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}

# a tree is (text, value); value None means that evaluating it divides by
# the zero function
leaves = st.one_of(
    st.integers(0, 9).map(lambda k: (str(k), RatFunc.const(UV, k))),
    st.sampled_from(UV).map(
        lambda v: (f"u({v[1]},{v[2]})", RatFunc.var(UV, v))))


def _binary(args):
    op, (lt, lv), (rt, rv) = args
    text = f"({lt}){op}({rt})"
    if lv is None or rv is None or (op == "/" and rv.is_zero):
        return text, None
    return text, OPS[op](lv, rv)


def _power(args):
    (t, v), k = args
    if v is None or (k < 0 and v.is_zero):
        return f"({t})^{k}", None
    return f"({t})^{k}", v ** k


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(_binary),
        st.tuples(children, st.integers(-2, 3)).map(_power),
        children.map(lambda c: (f"-({c[0]})", None if c[1] is None else -c[1])))


trees = st.recursive(leaves, _extend, max_leaves=7)


def _form(f: RatFunc):
    """The canonical form with coefficient types, so an integral Fraction
    where the reference has an int counts as a difference."""
    return tuple(sorted((e, type(c), c) for e, c in p.exponents().items())
                 for p in (f.num, f.den))


@SETTINGS
@given(trees)
@example(("u(1,2)/(u(1,2)+1)*(u(1,2)+1)/u(1,2)", RatFunc.const(UV, 1)))
@example(("(u(1,2)*u(2,3)-3)/6/(u(1,3)/2)",
          (RatFunc.var(UV, "u12") * RatFunc.var(UV, "u23") - 3)
          / (3 * RatFunc.var(UV, "u13"))))
@example(("u(1,3)/(1/(u(1,2)+u(2,3)))^-2",
          RatFunc.var(UV, "u13") / (RatFunc.var(UV, "u12") + RatFunc.var(UV, "u23")) ** 2))
@example(("(u(1,2)-u(1,2))^-1", None))
def test_parse_matches_canonical_arithmetic(tree):
    _check(*tree)


def _check(text, expected):
    if expected is None:
        with pytest.raises(ZeroDivisionError, match="division by the zero function"):
            parse_expression(text, UV)
        return
    assert _form(parse_expression(text, UV)) == _form(expected)


@SETTINGS
@given(trees, st.data())
def test_whitespace_between_tokens_changes_nothing(tree, data):
    # a tree's text has no spaces; a gap between two tokens is any gap
    # that does not split a name or an integer
    text, expected = tree
    spaces = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
    spaced = []
    for i, ch in enumerate(text):
        if not (i and text[i - 1].isalnum() and ch.isalnum()):
            spaced.append(data.draw(spaces))
        spaced.append(ch)
    spaced.append(data.draw(spaces))
    _check("".join(spaced), expected)
