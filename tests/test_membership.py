"""Membership decision procedures and chart inversion."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bircharts import (ChartId, GroupMatrix, RatFunc, TorusPoint, Unsupported,
                       cartan, check_invariance, chart_G, chart_GmodU, chart_U,
                       decide_O_G, decide_O_GmodU, decide_O_U,
                       distinguished_word, g_variables, gen_minor,
                       invert_chart, is_polynomial, membership, minor_spec,
                       param_names, pullback_U, substitute, torus_names,
                       transition, u_variables, weight_sets)

from helpers import SL4_INVERSION_EXPRS, random_poly


def _uvars(n):
    names = u_variables(n)
    return names, {v: RatFunc.var(names, v) for v in names}


def _generic_u(n):
    """The upper unitriangular matrix with u_ij above the diagonal."""
    _, u = _uvars(n)
    return GroupMatrix([[1 if i == j else u[f"u{i}{j}"] if j > i else 0
                         for j in range(1, n + 1)] for i in range(1, n + 1)])


def _gvars(n):
    names = g_variables(n)
    return names, {v: RatFunc.var(names, v) for v in names}


def test_pullback_U_goldens():
    names, u = _uvars(4)
    a = param_names(0, 6)
    b = param_names(1, 6)
    got = pullback_U(u["u12"], 0, 4)
    assert got == RatFunc.var(a, "a2") + RatFunc.var(a, "a5")
    got1 = pullback_U(u["u24"], 1, 4)
    assert got1 == RatFunc.var(b, "b3") * RatFunc.var(b, "b5")
    assert pullback_U(RatFunc.const(names, 1), 0, 4) == 1


def test_decide_O_U_accepts_polynomials():
    names, u = _uvars(4)
    assert decide_O_U(u["u13"], 4).member
    rng = random.Random(20250801)
    for _ in range(25):
        phi = RatFunc(random_poly(rng, names, max_deg=2, max_terms=4))
        verdict = decide_O_U(phi, 4)
        assert verdict.member, str(phi)


def test_decide_O_U_rejection_witness():
    names, u = _uvars(4)
    phi = u["u12"] - (u["u13"] * u["u34"] - u["u14"]) / (u["u23"] * u["u34"] - u["u24"])
    verdict = decide_O_U(phi, 4)
    assert not verdict.member
    assert verdict.failing_chart.label == "u:jj1"
    by_label = {c.chart.label: c for c in verdict.certificates}
    a = param_names(0, 6)
    assert by_label["u:jj0"].pullback == RatFunc.var(a, "a5")
    assert by_label["u:jj0"].ok
    bad = by_label["u:jj1"].pullback
    assert str(bad) == "(b2*b3*b4)/(b2*b3 + b2*b6 + b5*b6)"
    assert not by_label["u:jj1"].ok


def test_decide_O_U_rejects_reciprocal_entry():
    names, u = _uvars(4)
    verdict = decide_O_U(u["u12"].inv(), 4)
    assert not verdict.member
    assert all(not c.ok for c in verdict.certificates)
    pulls = sorted(str(c.pullback) for c in verdict.certificates)
    assert pulls == ["(1)/(a2 + a5)", "(1)/(b1 + b4)"]


def test_decide_O_U_rejects_reciprocal_minors_sl3():
    n = 3
    d = cartan("A", n - 1)
    names, u_syms = _uvars(n)
    u = GroupMatrix([[1, u_syms["u12"], u_syms["u13"]],
                     [0, 1, u_syms["u23"]],
                     [0, 0, 1]])
    for eps in (0, 1):
        _, _, interior = weight_sets(d, eps)
        for w in interior:
            phi = gen_minor(minor_spec(w, d), u).inv()
            assert not decide_O_U(phi, n).member


def test_decide_O_U_consistent_with_transition():
    # a polynomial in the first chart's parameters comes from a regular
    # function exactly when the word-to-word substitution stays polynomial
    d = cartan("A", 3)
    jj0, jj1 = distinguished_word(d, 0), distinguished_word(d, 1)
    anames = param_names(0, 6)
    bnames = param_names(1, 6)
    fwd = transition(jj0, jj1, d, param_names=anames)
    sub_ab = {anames[k]: fwd.formulas[k] for k in range(6)}
    inv_formulas = [None] * 6

    uvars = u_variables(4)
    from bircharts.exprparse import parse_expression
    inv_formulas = [parse_expression(e, uvars) for e in SL4_INVERSION_EXPRS]
    sub_au = {anames[k]: inv_formulas[k] for k in range(6)}

    rng = random.Random(7)
    cases = [RatFunc(random_poly(rng, anames, max_deg=2, max_terms=3))
             for _ in range(6)]
    # include one known-member case so both branches are exercised
    member_case = (RatFunc.var(anames, "a2") + RatFunc.var(anames, "a5"))
    cases.append(member_case)
    hits = 0
    for phi_a in cases:
        via_u = substitute(phi_a, sub_au)
        route_membership = decide_O_U(via_u, 4).member
        route_transition = is_polynomial(substitute(phi_a, sub_ab))
        assert route_membership == route_transition
        hits += route_transition
    assert hits >= 1


def test_check_invariance_examples():
    names, g = _gvars(2)
    assert check_invariance(g["g12"])
    assert not check_invariance(g["g11"])
    # any function of trailing-column minors is invariant
    names3, g3 = _gvars(3)
    det23 = g3["g12"] * g3["g23"] - g3["g13"] * g3["g22"]
    assert check_invariance(det23 / (RatFunc.const(names3, 1) + g3["g13"]))


def test_check_invariance_rejects_non_square_universe():
    names = ("g11", "g12", "g21")
    with pytest.raises(ValueError, match="full matrix-entry universe"):
        check_invariance(RatFunc.var(names, "g12"))


def test_decide_O_GmodU_sl2():
    names, g = _gvars(2)
    verdict = decide_O_GmodU(g["g12"], 2)
    assert verdict.member
    assert len(verdict.certificates) == 4
    pulls = {c.chart.label: str(c.pullback) for c in verdict.certificates}
    assert pulls["g-mod-u:jj0:+"] == "(a1)/(t1)"
    assert pulls["g-mod-u:jj0:-"] == "t1"
    bad = decide_O_GmodU(g["g12"].inv(), 2)
    assert not bad.member
    assert bad.failing_chart.label == "g-mod-u:jj0:+"
    by_label = {c.chart.label: c for c in bad.certificates}
    assert str(by_label["g-mod-u:jj0:+"].pullback) == "(t1)/(a1)"
    assert decide_O_GmodU(RatFunc.const(names, 1), 2).member


def test_decide_O_GmodU_sl3_rejection():
    names, g = _gvars(3)
    bad = decide_O_GmodU(g["g13"].inv(), 3)
    assert not bad.member
    assert bad.failing_chart is not None
    # the positive-sign charts pull the reciprocal back to a non-Laurent value
    plus = [c for c in bad.certificates if c.chart.sign == "+"]
    assert all(not c.ok for c in plus)


def test_decide_O_GmodU_rejects_non_invariant():
    names, g = _gvars(2)
    with pytest.raises(ValueError, match="not a function"):
        decide_O_GmodU(g["g11"], 2)


def test_decide_O_GmodU_accepts_trailing_minors_sl3():
    names, g = _gvars(3)
    cols3 = [g["g13"], g["g23"], g["g33"]]
    minors23 = [g["g12"] * g["g23"] - g["g13"] * g["g22"],
                g["g12"] * g["g33"] - g["g13"] * g["g32"],
                g["g22"] * g["g33"] - g["g23"] * g["g32"]]
    samples = [
        cols3[0] + 2 * cols3[1] - cols3[2],
        minors23[0] - 3 * minors23[2],
        cols3[0] * minors23[1] + 1,
        cols3[2] * cols3[2] - minors23[0],
    ]
    for phi in samples:
        assert check_invariance(phi)
        assert decide_O_GmodU(phi, 3).member, str(phi)


def test_decide_O_G_sl2():
    names, g = _gvars(2)
    verdict = decide_O_G(g["g11"], 2)
    assert verdict.member
    assert len(verdict.certificates) == 8
    assert len({c.chart.label for c in verdict.certificates}) == 8
    pulls = {c.chart.label: str(c.pullback) for c in verdict.certificates}
    assert pulls["g:jj0,jj0:pm"] == "(a1*b1 + t1^2)/(t1)"
    bad = decide_O_G(g["g11"].inv(), 2)
    assert not bad.member
    assert "t1^2" in str(
        {c.chart.label: c for c in bad.certificates}["g:jj0,jj0:pm"].pullback)
    prod = decide_O_G(g["g12"] * g["g21"], 2)
    assert prod.member
    assert str(prod.certificates[0].pullback) == "(a1*b1)/(t1^2)"


def test_decisions_reject_a_smaller_groups_universe():
    # over sl3's variables, phi would be decided on a corner of sl4's charts
    _, u = _uvars(3)
    for call in (lambda: decide_O_U(u["u12"], 4), lambda: pullback_U(u["u12"], 0, 4)):
        with pytest.raises(ValueError, match="u_ij of sl4"):
            call()
    _, g = _gvars(3)
    for decide in (decide_O_G, decide_O_GmodU):
        with pytest.raises(ValueError, match="g_ij of sl4"):
            decide(g["g13"], 4)
    with pytest.raises(ValueError, match="g_ij of sl3"):
        decide_O_G(u["u12"], 3)


def test_decide_O_G_accepts_entry_polynomials_sl3():
    rng = random.Random(13)
    names, _ = _gvars(3)
    for _ in range(4):
        phi = RatFunc(random_poly(rng, names, max_deg=1, max_terms=3))
        assert decide_O_G(phi, 3).member, str(phi)


def test_certificates_are_faithful():
    names, u = _uvars(4)
    phi = u["u12"] - (u["u13"] * u["u34"] - u["u14"]) / (u["u23"] * u["u34"] - u["u24"])
    verdict = decide_O_U(phi, 4)
    for cert in verdict.certificates:
        again = pullback_U(phi, cert.chart.eps, 4)
        assert again == cert.pullback


# -- chart tables: cached charts equal freshly built ones -------------------


def _fresh_chart_U(jj, eps, n):
    names = param_names(eps, len(jj))
    return chart_U(jj, [RatFunc.var(names, v) for v in names], n)


def _fresh_chart_GmodU(jj, eps, sign, n):
    names = param_names(eps, len(jj))
    universe = names + torus_names(n)
    t = TorusPoint(tuple(RatFunc.var(universe, v) for v in torus_names(n)))
    return chart_GmodU(jj, [RatFunc.var(universe, v) for v in names], t, sign, n)


def _fresh_chart_G(jj, jj2, variant, n):
    anames, bnames = param_names(0, len(jj)), param_names(1, len(jj2))
    universe = anames + torus_names(n) + bnames
    t = TorusPoint(tuple(RatFunc.var(universe, v) for v in torus_names(n)))
    return chart_G(jj, jj2, [RatFunc.var(universe, v) for v in anames], t,
                   [RatFunc.var(universe, v) for v in bnames], variant, n)


def _pull_g(phi, matrix):
    n = matrix.n
    return substitute(phi, {f"g{i}{j}": matrix.entry(i, j)
                            for i in range(1, n + 1) for j in range(1, n + 1)})


def test_chart_tables_key_by_word_and_eps():
    # warm the tables with the default labeling, whose jj1 is the override's jj0
    names, u = _uvars(4)
    gnames, g = _gvars(4)
    phi_u = u["u12"] * u["u34"] + u["u14"]
    phi_g = g["g14"] * g["g24"] + g["g34"]
    decide_O_U(phi_u, 4)
    decide_O_GmodU(phi_g, 4)

    datum = cartan("A", 3, i0={1, 3})
    assert distinguished_word(datum, 0) == distinguished_word(cartan("A", 3), 1)
    for cert in decide_O_U(phi_u, 4, datum=datum).certificates:
        eps = cert.chart.eps
        fresh = _fresh_chart_U(distinguished_word(datum, eps), eps, 4)
        assert cert.pullback == substitute(phi_u, {
            f"u{i}{j}": fresh.entry(i, j)
            for i in range(1, 5) for j in range(i + 1, 5)})
    for cert in decide_O_GmodU(phi_g, 4, datum=datum).certificates:
        eps, sign = cert.chart.eps, cert.chart.sign
        fresh = _fresh_chart_GmodU(distinguished_word(datum, eps), eps, sign, 4)
        assert cert.pullback == _pull_g(phi_g, fresh)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cached_chart_U_equals_fresh(n):
    d = cartan("A", n - 1)
    for eps in (0, 1):
        jj = distinguished_word(d, eps)
        assert (membership._chart(ChartId("U", eps), jj, None, n)
                == _fresh_chart_U(jj, eps, n))


@pytest.mark.parametrize("n", [3, 4])
def test_cached_charts_GmodU_and_G_equal_fresh(n):
    d = cartan("A", n - 1)
    words = [distinguished_word(d, eps) for eps in (0, 1)]
    for eps, jj in enumerate(words):
        for sign in ("+", "-"):
            assert (membership._chart(ChartId("GmodU", eps, sign=sign), jj, None, n)
                    == _fresh_chart_GmodU(jj, eps, sign, n))
        for eps2, jj2 in enumerate(words):
            for variant in ("pm", "mp"):
                cid = ChartId("G", eps, eps2=eps2, variant=variant)
                assert (membership._chart(cid, jj, jj2, n)
                        == _fresh_chart_G(jj, jj2, variant, n))


def test_cached_charts_are_shared_and_immutable():
    names, g = _gvars(3)
    phi = g["g11"] * g["g23"] - g["g32"] + 2
    first = decide_O_G(phi, 3)
    assert decide_O_G(phi, 3) == first
    jj = distinguished_word(cartan("A", 2), 0)
    cid = ChartId("G", 0, eps2=0, variant="pm")
    matrix = membership._chart(cid, jj, jj, 3)
    assert matrix is membership._chart(cid, jj, jj, 3)
    assert isinstance(matrix.entries, tuple)
    assert all(isinstance(row, tuple) for row in matrix.entries)
    with pytest.raises(TypeError):
        matrix.entries[0][0] = RatFunc.const(matrix.entries[0][0].universe, 0)


def test_each_chart_is_built_once(monkeypatch):
    built = []

    def counting_chart_U(word, params, n):
        built.append((tuple(word), n))
        return chart_U(word, params, n)

    monkeypatch.setattr(membership, "chart_U", counting_chart_U)
    membership._chart.cache_clear()
    try:
        names, u = _uvars(4)
        for phi in (u["u12"], u["u13"] + u["u24"], u["u14"].inv()):
            decide_O_U(phi, 4)
    finally:
        membership._chart.cache_clear()
    assert sorted(built) == sorted((distinguished_word(cartan("A", 3), eps), 4)
                                   for eps in (0, 1))


@pytest.mark.parametrize("n,eps", [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1)])
def test_invert_chart_symbolic_round_trip(n, eps):
    d = cartan("A", n - 1)
    jj = distinguished_word(d, eps)
    names = param_names(eps, d.nu)
    params = [RatFunc.var(names, v) for v in names]
    u = chart_U(jj, params, n)
    assert invert_chart(u, eps, n) == tuple(params)


def test_invert_chart_numeric_round_trip():
    rng = random.Random(3)
    for n, eps in [(2, 0), (3, 1), (4, 0), (4, 1)]:
        d = cartan("A", n - 1)
        jj = distinguished_word(d, eps)
        for _ in range(5):
            params = [RatFunc.const((), Fraction(rng.randint(1, 9), rng.randint(1, 4)))
                      for _ in jj]
            u = chart_U(jj, params, n)
            assert list(invert_chart(u, eps, n)) == params


def test_invert_chart_sl2_trivial():
    a = RatFunc.var(("a",), "a")
    u = GroupMatrix([[1, a], [0, 1]])
    assert invert_chart(u, 0, 2) == (a,)


def test_invert_chart_sl3_closed_forms():
    # solve the 3x3 chart system by hand: u12 = a1+a3, u13 = a1*a2, u23 = a2
    names, u = _uvars(3)
    usym = GroupMatrix([[1, u["u12"], u["u13"]],
                        [0, 1, u["u23"]],
                        [0, 0, 1]])
    d = cartan("A", 2)
    for eps in (0, 1):
        word = distinguished_word(d, eps)
        got = invert_chart(usym, eps, 3)
        if word == (1, 2, 1):
            assert got == (u["u13"] / u["u23"], u["u23"],
                           u["u12"] - u["u13"] / u["u23"])
        else:
            assert got == (u["u23"] - u["u13"] / u["u12"], u["u12"],
                           u["u13"] / u["u12"])


@pytest.mark.parametrize("i0", [None, {1, 3}, {2, 4}],
                         ids=["default", "i0=1,3", "i0=2,4"])
@pytest.mark.parametrize("eps", [0, 1])
def test_invert_chart_generic_round_trip_sl5(eps, i0):
    # the chart at the inverted parameters gives back the generic matrix
    usym = _generic_u(5)
    d = cartan("A", 4, i0=i0)
    params = invert_chart(usym, eps, 5, d)
    assert chart_U(distinguished_word(d, eps), params, 5) == usym


def test_invert_chart_sl4_second_word_matches_transition():
    # the second word's formulas equal the golden first-word formulas
    # composed with the braid-move transition between the two words
    from bircharts.exprparse import parse_expression
    d = cartan("A", 3)
    jj0, jj1 = distinguished_word(d, 0), distinguished_word(d, 1)
    base = [parse_expression(e, u_variables(4)) for e in SL4_INVERSION_EXPRS]
    anames = param_names(0, 6)
    tr = transition(jj0, jj1, d, param_names=anames)
    expected = tuple(substitute(f, dict(zip(anames, base))) for f in tr.formulas)
    assert invert_chart(_generic_u(4), 1, 4) == expected


def test_invert_chart_degenerate_point_sl3():
    # an intermediate minor of the peeled matrix vanishes here, but the
    # canonical formulas are defined
    half = Fraction(1, 2)
    u = GroupMatrix([[1, half, 0], [0, 1, 0], [0, 0, 1]])
    assert distinguished_word(cartan("A", 2), 0) == (2, 1, 2)
    got = invert_chart(u, 0, 3)
    assert [p.const_value for p in got] == [0, half, 0]


def test_invert_chart_errors():
    with pytest.raises(ValueError, match="undefined"):
        invert_chart(GroupMatrix.identity(5), 0, 5)
    with pytest.raises(ValueError, match="undefined"):
        invert_chart(GroupMatrix.identity(4), 0, 4)
    with pytest.raises(ValueError, match="unitriangular"):
        invert_chart(GroupMatrix([[0, 1], [-1, 0]]), 0, 2)


def test_invert_chart_above_sl6_is_unsupported():
    with pytest.raises(Unsupported, match="up to sl6"):
        invert_chart(GroupMatrix.identity(7), 0, 7)
