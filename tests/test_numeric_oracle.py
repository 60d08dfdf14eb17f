"""Differential checks of the symbolic kernel against plain Fraction math.

Every symbolic value is also evaluated at random rational points with a
raw term-by-term evaluator that bypasses the polynomial machinery, so a
canonicalization bug in gcd, fraction reduction or substitution would
show up as a numeric mismatch.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bircharts import (RatFunc, cartan, chart_U, distinguished_word,
                       invert_chart, param_names, substitute, transition,
                       twist)

from helpers import random_nonzero_poly, random_poly


def eval_poly(p, point) -> Fraction:
    """Term-by-term evaluation with Fraction arithmetic only."""
    total = Fraction(0)
    for exp, coeff in p.exponents().items():
        value = Fraction(coeff)
        for name, k in zip(p.vars, exp):
            value *= point[name] ** k
        total += value
    return total


def eval_ratfunc(f, point) -> Fraction:
    den = eval_poly(f.den, point)
    if den == 0:
        raise ZeroDivisionError
    return eval_poly(f.num, point) / den


def random_point(rng, names):
    return {v: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for v in names}


def test_field_ops_match_fraction_arithmetic():
    rng = random.Random(20250801)
    V = ("x", "y", "z")
    for _ in range(60):
        f = RatFunc(random_poly(rng, V), random_nonzero_poly(rng, V))
        g = RatFunc(random_poly(rng, V), random_nonzero_poly(rng, V))
        combos = [f + g, f - g, f * g]
        if not g.is_zero:
            combos.append(f / g)
        for _ in range(3):
            point = random_point(rng, V)
            try:
                fv = eval_ratfunc(f, point)
                gv = eval_ratfunc(g, point)
                expect = [fv + gv, fv - gv, fv * gv]
                if not g.is_zero:
                    if gv == 0:
                        continue
                    expect.append(fv / gv)
                got = [eval_ratfunc(c, point) for c in combos]
            except ZeroDivisionError:
                continue
            assert got == expect


def test_substitution_matches_pointwise_composition():
    rng = random.Random(7)
    V = ("x", "y")
    W = ("a", "b")
    for _ in range(25):
        f = RatFunc(random_poly(rng, V, max_deg=2, max_terms=3),
                    random_nonzero_poly(rng, V, max_deg=2, max_terms=3))
        sub = {
            "x": RatFunc(random_poly(rng, W, max_deg=1, max_terms=2),
                         random_nonzero_poly(rng, W, max_deg=1, max_terms=2)),
            "y": RatFunc(random_poly(rng, W, max_deg=1, max_terms=2),
                         random_nonzero_poly(rng, W, max_deg=1, max_terms=2)),
        }
        try:
            composite = substitute(f, sub)
        except ArithmeticError:
            continue
        for _ in range(3):
            point = random_point(rng, W)
            try:
                inner = {v: eval_ratfunc(sub[v], point) for v in V}
                expect = eval_ratfunc(f, inner)
                got = eval_ratfunc(composite, point)
            except ZeroDivisionError:
                continue
            assert got == expect


def test_transition_matches_numeric_chart_equality():
    # chart product at source parameters == chart product at transformed
    # parameters, checked entrywise at rational points
    rng = random.Random(3)
    d = cartan("A", 3)
    jj0, jj1 = distinguished_word(d, 0), distinguished_word(d, 1)
    names = param_names(1, 6)
    tmap = transition(jj1, jj0, d, param_names=names)
    for _ in range(10):
        point = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                 for v in names}
        bvals = [point[v] for v in names]
        avals = [eval_ratfunc(f, point) for f in tmap.formulas]
        lhs = chart_U(jj1, bvals, 4)
        rhs = chart_U(jj0, avals, 4)
        assert lhs == rhs


def test_inversion_matches_numeric_solution():
    rng = random.Random(11)
    for n, eps in [(3, 0), (4, 0), (4, 1)]:
        d = cartan("A", n - 1)
        jj = distinguished_word(d, eps)
        for _ in range(5):
            params = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in jj]
            u = chart_U(jj, params, n)
            got = invert_chart(u, eps, n)
            assert [g.const_value for g in got] == params


def test_twist_fixed_points_numeric():
    # applying the involution twice returns to the start, entrywise
    rng = random.Random(13)
    d = cartan("A", 3)
    jj = distinguished_word(d, 0)
    for _ in range(5):
        params = [Fraction(rng.randint(1, 6)) for _ in jj]
        u = chart_U(jj, params, 4)
        again = twist(twist(u))
        for i in range(4):
            for j in range(4):
                assert again.entries[i][j] == u.entries[i][j]
