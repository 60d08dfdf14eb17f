"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm

from bircharts import (GroupMatrix, MultiPoly, RatFunc, cartan,
                       distinguished_word, lift, poly_exact_div, poly_gcd,
                       substitute, u_variables)
from bircharts.sl_realization import _det


def random_poly(rng: random.Random, vars, max_deg=2, max_terms=3,
                coeff_range=(-5, 5)) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in vars)
        terms[exp] = rng.randint(*coeff_range)
    return MultiPoly(vars, terms)


def random_nonzero_poly(rng, vars, **kw) -> MultiPoly:
    while True:
        p = random_poly(rng, vars, **kw)
        if not p.is_zero:
            return p


def random_ratfunc(rng, vars, **kw) -> RatFunc:
    return RatFunc(random_poly(rng, vars, **kw), random_nonzero_poly(rng, vars, **kw))


def reference_substitute(f: RatFunc, values, universe) -> RatFunc:
    """f at values (in the order of f's universe), term by term with the
    RatFunc operators; int and Fraction values become constants."""
    values = [v if isinstance(v, RatFunc) else RatFunc.const(universe, v)
              for v in values]

    def evaluate(p):
        total = RatFunc.const(universe, 0)
        for e, c in p.exponents().items():
            term = RatFunc.const(universe, c)
            for v, k in zip(values, e):
                term = term * v ** k
            total = total + term
        return total

    return evaluate(f.num) / evaluate(f.den)


def normalize_by_gcd(num: MultiPoly, den: MultiPoly) -> tuple:
    """The canonical (num, den) of num/den by the general route: both
    divided by their ``poly_gcd``, then by their rational contents, whose
    ratio in lowest terms is multiplied back, signed so that the
    denominator's leading coefficient is positive."""
    g = poly_gcd(num, den)
    num, den = poly_exact_div(num, g), poly_exact_div(den, g)
    if num.is_zero:
        return MultiPoly.zero(num.vars), MultiPoly.one(num.vars)

    def content(p):
        cs = [Fraction(c) for c in p.exponents().values()]
        return Fraction(reduce(gcd, (c.numerator for c in cs), 0),
                        reduce(lcm, (c.denominator for c in cs), 1))

    cn, cd = content(num), content(den)
    ratio = cn / cd
    sign = 1 if den.leading_coeff() > 0 else -1
    return (num.scale(sign * ratio.numerator / cn),
            den.scale(sign * ratio.denominator / cd))


def dense_u_inputs(seed: int, n: int, count: int) -> list:
    """Seeded dense functions on the unipotent group of SL_n, cycling
    through p, (p*q)/q and q/(q*p).  Every term of p and q raises every
    u-entry to a power: up to 2 (p) or 1 (q) on the first superdiagonal,
    up to 1 above it; each has a nonzero constant term."""
    rng = random.Random(f"dense-u/{seed}/{n}")
    names = u_variables(n)
    dists = [j - i for i in range(1, n) for j in range(i + 1, n + 1)]

    def dense(terms, top):
        exps = {}
        for _ in range(terms):
            e = tuple(rng.randint(0, top if d == 1 else 1) for d in dists)
            exps[e] = rng.choice((-1, 1)) * rng.randint(1, 5)
        exps[(0,) * len(names)] = rng.randint(1, 3)
        return RatFunc(MultiPoly(names, exps))

    inputs = []
    for k in range(count):
        p, q = dense(3, 2), dense(2, 1)
        inputs.append((p, p * q / q, q / (q * p))[k % 3])
    return inputs


def divide_univariate(num, den):
    """Long division of univariate coefficient lists (ascending powers).

    Independent oracle: returns (quotient, remainder) over Fraction.
    """
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    rem = list(num)
    while len(rem) >= len(den) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(den):
            break
        shift = len(rem) - len(den)
        factor = rem[-1] / den[-1]
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def enumerate_weyl_group(datum):
    """BFS over the Weyl group; element -> length of a shortest word."""
    ident = datum.identity()
    dist = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, datum.rank + 1):
                ws = w * datum.simple(i)
                if ws not in dist:
                    dist[ws] = dist[w] + 1
                    nxt.append(ws)
        frontier = nxt
    return dist


def weyl_matrix(word, datum):
    """Integer action matrix of s_{i1} ... s_{ik} on the weight lattice, in
    fundamental-weight coordinates.  Right multiplication by s_i is a column
    operation: column i loses the alpha_i-combination of the columns, with
    alpha_i read off the Cartan matrix."""
    r = datum.rank
    rows = [[int(a == b) for b in range(r)] for a in range(r)]
    for i in word:
        for row in rows:
            row[i - 1] -= sum(datum.cartan[j][i - 1] * row[j] for j in range(r))
    return tuple(tuple(row) for row in rows)


def matrix_apply(m, coords):
    return tuple(sum(a * c for a, c in zip(row, coords)) for row in m)


def matrix_product(m1, m2):
    cols = tuple(zip(*m2))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                 for row in m1)


def matrix_lengths(datum):
    """BFS over the Weyl group as action matrices, multiplied one simple
    reflection at a time: matrix -> length of a shortest word."""
    ident = weyl_matrix((), datum)
    simples = [weyl_matrix((i,), datum) for i in range(1, datum.rank + 1)]
    dist = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for s in simples:
                ms = matrix_product(m, s)
                if ms not in dist:
                    dist[ms] = dist[m] + 1
                    nxt.append(ms)
        frontier = nxt
    return dist


def all_reduced_words(element, datum, dist=None):
    """Every reduced word of an element, via descent recursion."""
    if dist is None:
        dist = enumerate_weyl_group(datum)
    if dist[element] == 0:
        return [()]
    words = []
    for i in range(1, datum.rank + 1):
        shorter = element * datum.simple(i)
        if dist[shorter] == dist[element] - 1:
            for w in all_reduced_words(shorter, datum, dist):
                words.append(w + (i,))
    return words


# Frozen closed forms for the two SL4 bipartite charts: strictly-upper
# entries as polynomials in the six chart parameters.

def golden_sl4_entries(eps: int):
    names = tuple(("a" if eps == 0 else "b") + str(k) for k in range(1, 7))
    v = {name: RatFunc.var(names, name) for name in names}
    if eps == 0:
        a1, a2, a3, a4, a5, a6 = (v[f"a{k}"] for k in range(1, 7))
        return names, {
            (1, 2): a2 + a5,
            (1, 3): a2 * a4,
            (1, 4): a2 * a4 * a6,
            (2, 3): a1 + a4,
            (2, 4): a1 * a3 + a1 * a6 + a4 * a6,
            (3, 4): a3 + a6,
        }
    b1, b2, b3, b4, b5, b6 = (v[f"b{k}"] for k in range(1, 7))
    return names, {
        (1, 2): b1 + b4,
        (1, 3): b1 * b3 + b1 * b6 + b4 * b6,
        (1, 4): b1 * b3 * b5,
        (2, 3): b3 + b6,
        (2, 4): b3 * b5,
        (3, 4): b2 + b5,
    }


def peeled_inversion_formulas(word, n):
    """Reference inverse of the unipotent chart along a reduced word for
    w0, by peeling factors off the left of the generic upper unitriangular
    matrix g (Chamber Ansatz, Berenstein-Fomin-Zelevinsky 1996).  Before
    letter i, w is w0 times the simple reflections already peeled, in
    one-line notation; the parameter a is the ratio of the minors of g on
    rows 1..i and on rows 1..i-1, i+1, both on the columns w(1..i).  Then
    g <- x_i(-a) g and w <- w s_i."""
    uu = u_variables(n)
    g = [[RatFunc.const(uu, int(i == j)) for j in range(n)] for i in range(n)]
    # u_variables(n) lists the entries above the diagonal row by row
    above = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), name in zip(above, uu):
        g[i][j] = RatFunc.var(uu, name)
    w = list(range(n, 0, -1))
    params = []
    for i in word:
        cols = sorted(w[:i])
        rows = list(range(i - 1))
        a = (_det([[g[r][c - 1] for c in cols] for r in rows + [i - 1]])
             / _det([[g[r][c - 1] for c in cols] for r in rows + [i]]))
        params.append(a)
        g[i - 1] = [x - a * y for x, y in zip(g[i - 1], g[i])]
        w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(params)


# Frozen closed-form inverse of the first SL4 bipartite chart: the six
# parameters as rational functions of the strictly-upper entries.

SL4_INVERSION_EXPRS = (
    "(u(1,3)*u(2,4)-u(1,4)*u(2,3))/(u(1,3)*u(3,4)-u(1,4))",
    "(u(1,3)*u(3,4)-u(1,4))/(u(2,3)*u(3,4)-u(2,4))",
    "(u(1,3)*u(3,4)-u(1,4))/u(1,3)",
    "u(1,3)*(u(2,3)*u(3,4)-u(2,4))/(u(1,3)*u(3,4)-u(1,4))",
    "u(1,2)-(u(1,3)*u(3,4)-u(1,4))/(u(2,3)*u(3,4)-u(2,4))",
    "u(1,4)/u(1,3)",
)


def golden_sl4_transition():
    """Frozen closed form of the second-to-first word parameter transform."""
    names = tuple(f"b{k}" for k in range(1, 7))
    b = {v: RatFunc.var(names, v) for v in names}
    p = b["b1"] * b["b3"] + b["b1"] * b["b6"] + b["b4"] * b["b6"]
    q = b["b2"] * b["b3"] + b["b2"] * b["b6"] + b["b5"] * b["b6"]
    r = (b["b1"] * b["b2"] * b["b3"] + b["b1"] * b["b2"] * b["b6"]
         + b["b1"] * b["b5"] * b["b6"] + b["b2"] * b["b4"] * b["b6"]
         + b["b4"] * b["b5"] * b["b6"])
    formulas = (
        b["b3"] * b["b4"] * b["b5"] * b["b6"] / r,
        r / q,
        r / p,
        p * q / r,
        b["b2"] * b["b3"] * b["b4"] / q,
        b["b1"] * b["b3"] * b["b5"] / p,
    )
    return names, formulas, (p, q, r)


# Reference chart products: every letter a freshly built, determinant-checked
# elementary matrix multiplied in with a full matmul, the torus as a diagonal
# matrix and the w0 lift as a product of generator matrices.

def reference_generator(kind, i, a, n):
    """x_i(a) = I + a E_{i,i+1} or y_i(a) = I + a E_{i+1,i}."""
    m = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    if kind == "x":
        m[i - 1][i] = a
    else:
        m[i][i - 1] = a
    return GroupMatrix(m)


def reference_product(kind, word, params, n):
    out = GroupMatrix.identity(n)
    for i, a in zip(word, params):
        out = out @ reference_generator(kind, i, a, n)
    return out


def reference_chart_GmodU(word, params, t, sign, n):
    if sign == "+":
        return reference_product("x", word, params, n) @ t.matrix()
    w0 = distinguished_word(cartan("A", n - 1), 0)
    return reference_product("y", word, params, n) @ t.matrix() @ lift(w0, "dot", n)


def reference_chart_G(word, word2, params, t, params2, variant, n):
    if variant == "pm":
        return (reference_product("x", word, params, n) @ t.matrix()
                @ reference_product("y", word2, params2, n))
    return (reference_product("y", word, params, n) @ t.inverse().matrix()
            @ reference_product("x", word2, params2, n))


def reference_check_invariance(phi) -> bool:
    """Right-invariance by substitution: phi(g y_j(s)) == phi(g) as rational
    functions of the g_ij and a new variable s, for each j."""
    n = isqrt(len(phi.universe))
    big = phi.universe + ("s",)
    phi_big = substitute(phi, {v: RatFunc.var(big, v) for v in phi.universe})
    s = RatFunc.var(big, "s")
    g = [[RatFunc.var(big, v) for v in phi.universe[k:k + n]]
         for k in range(0, n * n, n)]
    for j in range(n - 1):
        # g y_j(s): column j gains s times column j+1
        moved = [row[:j] + [row[j] + s * row[j + 1]] + row[j + 1:] for row in g]
        if substitute(phi, dict(zip(phi.universe, sum(moved, [])))) != phi_big:
            return False
    return True
