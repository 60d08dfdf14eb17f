"""Membership decision procedures and chart inversion."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from bircharts import (Certificate, ChartId, GroupMatrix, RatFunc, TorusPoint, Unsupported,
                       cartan, check_invariance, chart_G, chart_GmodU, chart_U,
                       decide_O_G, decide_O_GmodU, decide_O_U,
                       distinguished_word, exact_arith, g_variables, gen_minor,
                       invert_chart, is_polynomial, membership, minor_spec,
                       param_names, pullback_U, substitute, torus_names,
                       transition, u_variables, weight_sets)
from bircharts.sl_realization import _det

from helpers import (SL4_INVERSION_EXPRS, dense_u_inputs,
                     peeled_inversion_formulas, random_poly,
                     reference_check_invariance, reference_substitute)


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


def test_dense_pullbacks_print_as_recorded():
    # sha256 of each dense sl4 and sl5 input and its pullbacks along both
    # U charts, as printed, recorded before pullbacks accumulated each term
    # in its last product and before poly_gcd tried a divisor first
    digest = hashlib.sha256()
    for n, count in ((4, 12), (5, 6)):
        for phi in dense_u_inputs(1, n, count):
            digest.update(f"{phi}\n".encode())
            for eps in (0, 1):
                digest.update(f"{pullback_U(phi, eps, n)}\n".encode())
    assert digest.hexdigest() == (
        "423ad6c04157859a5c37911e5c2bd652ec7cf7fb4f261054cbf4546aed4e3645")


def _torus_chart_inputs(n, columns=None, products=3):
    """Seeded inputs on G/U- (sums, products and quotients of right column
    minors, see ``_right_column_minors``, on at most ``columns`` columns,
    by default all but the determinant) and on G (sums of ``products``
    products of two entries, and their sums, products, quotients and
    reciprocals) at sl_n."""
    names, g, minors = _right_column_minors(n)
    rng = random.Random(f"torus-charts/{n}")
    one = RatFunc.const(names, 1)
    pool = minors[:-1] if columns is None else minors[:sum(
        math.comb(n, k) for k in range(1, columns + 1))]
    quotient, group = [], []
    for _ in range(3):
        m1, m2, m3 = (rng.choice(pool) for _ in range(3))
        c = rng.randint(1, 5)
        quotient += [c * m1 + m2 * m3 - c, m1 * m2, c / m1,
                     (m1 + c * one) / (m2 * m3 - c * one)]
        p, q = (sum((rng.randint(-4, 4) or 1) * g[rng.choice(names)]
                    * g[rng.choice(names)] for _ in range(products))
                for _ in range(2))
        group += [p + c, p * q, c / q, (p + c) / (q - c)]
    return quotient, group


def test_torus_chart_pullbacks_print_as_recorded():
    # sha256 of each G/U- and G input at sl3 and sl4 and of its pullbacks
    # along every chart of its space, as printed, recorded before a
    # pullback with a one-term side normalized without a gcd
    digest = hashlib.sha256()
    for n in (3, 4):
        quotient, group = _torus_chart_inputs(n)
        for decide, inputs in ((decide_O_GmodU, quotient), (decide_O_G, group)):
            for phi in inputs:
                digest.update(f"{phi}\n".encode())
                for cert in decide(phi, n).certificates:
                    digest.update(f"{cert.chart} {cert.ok} {cert.pullback}\n".encode())
    assert digest.hexdigest() == (
        "91161ff2dcaa862f3e3346bab888e1542c8ce087bb71aaa632efe223b5a7e8ad")


def test_sparse_sl5_torus_chart_pullbacks_print_as_recorded():
    # as above at sl5, on minors of at most two columns and single products
    # of two entries, recorded before x^top was taken on packed keys and
    # before a polynomial kept its decoded exponents
    digest = hashlib.sha256()
    quotient, group = _torus_chart_inputs(5, columns=2, products=1)
    for decide, inputs in ((decide_O_GmodU, quotient), (decide_O_G, group)):
        for phi in inputs:
            digest.update(f"{phi}\n".encode())
            for cert in decide(phi, 5).certificates:
                digest.update(f"{cert.chart} {cert.ok} {cert.pullback}\n".encode())
    assert digest.hexdigest() == (
        "17406860e07fd9c3b9e224f5ca2ec0d991ef4aa79755c8c34bb666dc9c2289cf")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_torus_chart_pullbacks_match_the_reference(n):
    # inputs whose terms pull back over different torus monomials, so that
    # x^top is the maximum of several weights on some chart of each space
    names, g = _gvars(n)
    one = RatFunc.const(names, 1)
    a, b, c, d = (g[f"g{i}{j}"] for i, j in ((1, n), (n, 1), (2, 2), (n, n)))
    inputs = [a * b + 3 * c - 2, 5 / (a * c + d * d), (a + 2 * one) / (b * d - c)]
    spread = {space: set() for space in ("GmodU", "G")}
    for space in spread:
        for cid in membership._CHARTS[space]:
            matrix = membership._chart(cid, n)
            values = [matrix.entry(i, j) for _, i, j in membership._entries("g", n)]
            prepared = membership._chart_substitution(cid, n)
            for k, phi in enumerate(inputs):
                assert substitute(phi, prepared) == reference_substitute(
                    phi, values, prepared.target)
                weights = {sum(x * m for x, m in zip(e, prepared.shifts))
                           for p in (phi.num, phi.den) for e in p.exponents()}
                if len(weights) > 1:
                    spread[space].add(k)
    assert spread == {"GmodU": {0, 1, 2}, "G": {0, 1, 2}}


def test_a_decision_decodes_its_input_once(monkeypatch):
    names, g = _gvars(3)

    def quotient():
        return (g["g11"] * g["g22"] + 2 * g["g13"]) / (g["g31"] * g["g12"] - 3)

    decide_O_G(quotient(), 3)  # builds the charts
    phi = quotient()
    decoded = []
    real = exact_arith._unpack

    def spy(key, width):
        if width == len(names):
            decoded.append(key)
        return real(key, width)

    monkeypatch.setattr(exact_arith, "_unpack", spy)
    assert len(decide_O_G(phi, 3).certificates) == 8
    # each key of the input once, not once per chart
    assert sorted(decoded) == sorted((*phi.num.terms, *phi.den.terms))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_decision_weighs_its_input_once_per_shift_table(monkeypatch, n):
    # a weight table ends in one _max_key over the weights of one side;
    # x^top takes another only when neither side is a constant, and these
    # inputs have a constant side
    names, g = _gvars(n)
    _, u = _uvars(n)
    decide_O_G(g["g11"] + 1, n)  # builds the charts
    decide_O_GmodU(g[f"g1{n}"] + 1, n)
    decide_O_U(u["u12"], n)
    built = []
    real = exact_arith._max_key

    def spy(keys, width):
        built.append(len(keys))
        return real(keys, width)

    monkeypatch.setattr(exact_arith, "_max_key", spy)
    cases = [(decide_O_G, g["g11"] * g["g22"] - 3 * g[f"g{n}1"] + 2, 2),
             (decide_O_G, 5 / (g["g12"] * g["g21"] + 2), 2),
             (decide_O_GmodU, g[f"g1{n}"] * g[f"g2{n}"] + 2, 2),
             (decide_O_GmodU, 3 / (g[f"g1{n}"] + 1), 2),
             (decide_O_U, u["u12"] * u[f"u2{n}"] + 1, 0),
             (decide_O_U, 1 / (u["u12"] + 2), 0)]
    for decide, phi, tables in cases:
        built.clear()
        decide(phi, n)
        assert len(built) == tables, (decide.__name__, str(phi))
        # a second decision on the same value weighs nothing again
        decide(phi, n)
        assert len(built) == tables


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_charts_with_equal_shift_tables_hold_one_table(n):
    # the weights are kept per table value: the 4 G/U- and the 8 G charts
    # have two distinct shift tables (G at sl2 one), so a decision weighs
    # its input at most twice
    for space in ("GmodU", "G"):
        tables = [membership._chart_substitution(cid, n).shifts
                  for cid in membership._CHARTS[space]]
        assert len(set(tables)) == (1 if (n, space) == (2, "G") else 2)


def test_the_term_budget_is_per_pullback(monkeypatch):
    # each chart's pullback forms fewer pairs of terms than the budget, all
    # eight together more; the decision stands as without the budget
    names, g = _gvars(3)
    phi = (g["g11"] * g["g23"] + 3 * g["g32"] + 1) ** 2 + g["g22"]
    want = decide_O_G(phi, 3)
    pairs = []
    real = exact_arith._mul_terms

    def spy(at, bt, out=None):
        pairs[-1] += len(at) * len(bt)
        return real(at, bt, out)

    monkeypatch.setattr(exact_arith, "_mul_terms", spy)
    for cid in membership._CHARTS["G"]:
        pairs.append(0)
        substitute(phi, membership._chart_substitution(cid, 3))
    most = max(pairs)
    assert most < sum(pairs)
    monkeypatch.setattr(exact_arith, "_TERM_BUDGET", most)
    assert decide_O_G(phi, 3) == want
    monkeypatch.setattr(exact_arith, "_TERM_BUDGET", most - 1)
    with pytest.raises(Unsupported, match=f"more than {most - 1} pairs"):
        decide_O_G(phi, 3)


def test_a_pullback_of_degree_22000_is_taken_along_every_chart():
    # g31^11000 pulls back to a numerator of degree 22,000 over a torus
    # monomial of degree 11,000; a common denominator of every chart value
    # would take it to 33,000, past MAX_DEGREE
    names, g = _gvars(3)
    phi = g["g31"] ** 11000
    for cid in membership._CHARTS["G"]:
        pb = substitute(phi, membership._chart_substitution(cid, 3))
        (num,), (den,) = pb.num.exponents(), pb.den.exponents()
        assert (sum(num), sum(den)) == (22000, 11000)
    assert decide_O_G(phi, 3).member


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


def _right_column_minors(n):
    """The minors of the generic matrix on any k rows and the last k columns,
    which right multiplication by the lower unitriangular group fixes."""
    names, g = _gvars(n)
    minors = []
    for k in range(1, n + 1):
        for rows in itertools.combinations(range(1, n + 1), k):
            minors.append(_det([[g[f"g{i}{j}"] for j in range(n - k + 1, n + 1)]
                                for i in rows]))
    return names, g, minors


@pytest.mark.parametrize("n", [2, 3, 4])
def test_check_invariance_matches_substitution(n):
    names, g, minors = _right_column_minors(n)
    left = [g[f"g{i}{j}"] for i in range(1, n + 1) for j in range(1, n)]
    rng = random.Random(f"invariance/{n}")
    one = RatFunc.const(names, 1)
    for _ in range(6):
        m1, m2, m3 = (rng.choice(minors) for _ in range(3))
        c1, c2 = rng.randint(1, 5), rng.randint(-5, -1)
        invariant = (c1 * m1 + m2 * m3 + c2, m1 * m2 * m3,
                     (m1 + c1 * one) / (m2 * m3 + c1 * one))
        e = rng.choice(left)
        non_invariant = (invariant[0] + e, invariant[1] * e,
                         invariant[0] / (m2 + e), e / (m1 + c1 * one),
                         # a constant over a non-invariant side, and a
                         # non-invariant polynomial: D(r) = 0 decides
                         c2 / (m3 + e), m3 * e - c1)
        for phi in invariant + (c2 / m3,):
            assert check_invariance(phi) and reference_check_invariance(phi)
        for phi in non_invariant:
            assert not check_invariance(phi)
            assert not reference_check_invariance(phi)


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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("form", [
    lambda g, det: g["g11"] + (det - 1) / g["g12"],
    lambda g, det: det.inv(),
    lambda g, det: (det - 1) / (g["g12"] * g["g21"] + 7),
    lambda g, det: (det + 1).inv()],
    ids=["g11+(det-1)/g12", "1/det", "(det-1)/(g12*g21+7)", "1/(det+1)"])
def test_decide_O_G_accepts_functions_regular_only_modulo_det_minus_one(n, form):
    # each denominator vanishes somewhere on the matrices, but not on SL_n
    _, g = _gvars(n)
    det = _det([[g[f"g{i}{j}"] for j in range(1, n + 1)] for i in range(1, n + 1)])
    phi = form(g, det)
    assert not phi.den.is_const
    assert decide_O_G(phi, n).member


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


def test_chart_id_record_is_frozen_and_hashes_by_value():
    cid = ChartId("G", 0, eps2=1, variant="pm")
    assert repr(cid) == "ChartId(space='G', eps=0, sign=None, eps2=1, variant='pm')"
    assert str(cid) == cid.label == "g:jj0,jj1:pm"
    twin = ChartId("G", 0, eps2=1, variant="pm")
    assert cid == twin and hash(cid) == hash(twin)
    assert cid != ChartId("G", 0, eps2=1, variant="mp")
    with pytest.raises(AttributeError):
        cid.eps = 1


def test_certificate_record_is_frozen_and_hashes_by_value():
    names = ("a", "b")
    pullback = RatFunc.var(names, "a") / RatFunc.var(names, "b")
    cert = Certificate(ChartId("U", 1), pullback, True)
    assert repr(cert) == ("Certificate(chart=ChartId(space='U', eps=1, sign=None, "
                          "eps2=None, variant=None), pullback=RatFunc((a)/(b)), ok=True)")
    assert cert == Certificate(ChartId("U", 1), pullback, True)
    # a certificate hashes its fields, and a RatFunc has no hash
    with pytest.raises(TypeError, match="unhashable"):
        hash(cert)
    with pytest.raises(AttributeError):
        cert.ok = False


def test_chart_tables_key_by_word_and_eps():
    # the tables are keyed by (chart, n) and the word is that of eps at n:
    # after sl3 is warmed, each sl4 certificate is the pullback along a
    # fresh chart of its own word
    for n in (3, 4):
        names, u = _uvars(n)
        gnames, g = _gvars(n)
        phi_u = u["u12"] * u[f"u{n - 1}{n}"] + u[f"u1{n}"]
        phi_g = g[f"g1{n}"] * g[f"g2{n}"] + g[f"g3{n}"]
        d = cartan("A", n - 1)
        for cert in decide_O_U(phi_u, n).certificates:
            eps = cert.chart.eps
            fresh = _fresh_chart_U(distinguished_word(d, eps), eps, n)
            assert cert.pullback == substitute(phi_u, {
                f"u{i}{j}": fresh.entry(i, j)
                for i in range(1, n + 1) for j in range(i + 1, n + 1)})
        for cert in decide_O_GmodU(phi_g, n).certificates:
            eps, sign = cert.chart.eps, cert.chart.sign
            fresh = _fresh_chart_GmodU(distinguished_word(d, eps), eps, sign, n)
            assert cert.pullback == _pull_g(phi_g, fresh)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cached_chart_U_equals_fresh(n):
    d = cartan("A", n - 1)
    for eps in (0, 1):
        jj = distinguished_word(d, eps)
        assert membership._chart(ChartId("U", eps), n) == _fresh_chart_U(jj, eps, n)


@pytest.mark.parametrize("n", [3, 4])
def test_cached_charts_GmodU_and_G_equal_fresh(n):
    d = cartan("A", n - 1)
    words = [distinguished_word(d, eps) for eps in (0, 1)]
    for eps, jj in enumerate(words):
        for sign in ("+", "-"):
            assert (membership._chart(ChartId("GmodU", eps, sign=sign), n)
                    == _fresh_chart_GmodU(jj, eps, sign, n))
        for eps2, jj2 in enumerate(words):
            for variant in ("pm", "mp"):
                cid = ChartId("G", eps, eps2=eps2, variant=variant)
                assert membership._chart(cid, n) == _fresh_chart_G(jj, jj2, variant, n)


def test_cached_charts_are_shared_and_immutable():
    names, g = _gvars(3)
    phi = g["g11"] * g["g23"] - g["g32"] + 2
    first = decide_O_G(phi, 3)
    assert decide_O_G(phi, 3) == first
    cid = ChartId("G", 0, eps2=0, variant="pm")
    assert (membership._chart_substitution(cid, 3)
            is membership._chart_substitution(cid, 3))
    matrix = membership._chart(cid, 3)
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
    membership._chart_substitution.cache_clear()
    try:
        names, u = _uvars(4)
        for phi in (u["u12"], u["u13"] + u["u24"], u["u14"].inv()):
            decide_O_U(phi, 4)
    finally:
        membership._chart_substitution.cache_clear()
    assert sorted(built) == sorted((distinguished_word(cartan("A", 3), eps), 4)
                                   for eps in (0, 1))


@pytest.mark.parametrize("space,count", [("U", 2), ("GmodU", 4), ("G", 8)])
def test_prepared_chart_substitution_matches_a_plain_dict(space, count):
    stem = "u" if space == "U" else "g"
    _, x = _uvars(3) if stem == "u" else _gvars(3)
    # the last column of g: no entry of it vanishes on a G/U- chart
    a, b, c = (x[v] for v in (("u12", "u13", "u23") if stem == "u"
                              else ("g13", "g23", "g33")))
    # a member, a pole, and a denominator of two terms
    inputs = [a * c - 2 * b + 1, 3 / b, (a - c) / (a * b + 2 * c)]
    assert len(membership._CHARTS[space]) == count
    for cid in membership._CHARTS[space]:
        matrix = membership._chart(cid, 3)
        plain = {name: matrix.entry(i, j)
                 for name, i, j in membership._entries(stem, 3)}
        prepared = membership._chart_substitution(cid, 3)
        for phi in inputs:
            assert substitute(phi, prepared) == substitute(phi, plain)


def test_a_second_decision_prepares_nothing(monkeypatch):
    prepared = []
    real = membership.prepare_substitution

    def counting(*args):
        prepared.append(args[0])
        return real(*args)

    monkeypatch.setattr(membership, "prepare_substitution", counting)
    membership._chart_substitution.cache_clear()
    names, g = _gvars(3)
    decide_O_G(g["g11"] * g["g22"] - g["g31"], 3)
    assert len(prepared) == 8
    decide_O_G(1 / g["g12"], 3)
    assert len(prepared) == 8
    # an inversion prepares its point once for all of its formulas
    prepared.clear()
    d = cartan("A", 2)
    params = [RatFunc.const((), k) for k in (2, 3, 5)]
    u = chart_U(distinguished_word(d, 0), params, 3)
    assert list(invert_chart(u, 0, 3)) == params
    assert prepared == [u_variables(3)]


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


@pytest.mark.parametrize("eps", [0, 1])
def test_invert_chart_generic_round_trip_sl5(eps):
    # the chart at the inverted parameters gives back the generic matrix
    usym = _generic_u(5)
    params = invert_chart(usym, eps, 5)
    assert chart_U(distinguished_word(cartan("A", 4), eps), params, 5) == usym


@pytest.mark.parametrize("n,eps", [(3, 0), (3, 1), (4, 0), (4, 1), (5, 0),
                                   (5, 1), (6, 1)])
def test_chamber_inversion_equals_peeling(n, eps):
    # the chamber minors of the twisted generic matrix give the formulas
    # that peeling factors off the generic matrix gives; sl6 jj0 is left
    # out, as its peeling takes about 9 s
    word = distinguished_word(cartan("A", n - 1), eps)
    assert (membership._inversion_formulas(word, n)
            == peeled_inversion_formulas(word, n))


@pytest.mark.parametrize("eps", [0, 1])
def test_invert_chart_generic_round_trip_sl6(eps):
    usym = _generic_u(6)
    params = invert_chart(usym, eps, 6)
    assert chart_U(distinguished_word(cartan("A", 5), eps), params, 6) == usym


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


@pytest.mark.parametrize("decide,universe,bound", [
    (decide_O_U, u_variables, 20), (decide_O_GmodU, g_variables, 16),
    (decide_O_G, g_variables, 8)])
def test_decisions_above_their_bound_are_unsupported(decide, universe, bound):
    # at the bound the universe is checked: a function of sl(bound+1)'s
    # entries is an input error, not an unsupported size
    phi = RatFunc.const(universe(bound + 1), 1)
    with pytest.raises(ValueError, match=f"sl{bound}"):
        decide(phi, bound)
    with pytest.raises(Unsupported, match=f"up to sl{bound}, not sl{bound + 1}"):
        decide(phi, bound + 1)


def test_invert_chart_above_sl6_is_unsupported():
    with pytest.raises(Unsupported, match="up to sl6"):
        invert_chart(GroupMatrix.identity(7), 0, 7)


@pytest.mark.parametrize("u, message", [
    (GroupMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "matrix size does not match n"),
    (GroupMatrix([[1, 0], [1, 1]]), "chart inversion expects an upper unitriangular matrix"),
])
def test_invert_chart_input_checks(u, message):
    with pytest.raises(ValueError) as err:
        invert_chart(u, 0, 2)
    assert type(err.value) is ValueError and str(err.value) == message
