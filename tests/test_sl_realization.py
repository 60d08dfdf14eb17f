"""Pinned generators, charts, lifts, minors, Gauss decomposition, twist."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bircharts import (GroupMatrix, MinorSpec, RatFunc, TorusPoint, cartan,
                       chart_G, chart_GmodU, chart_U, chart_weights,
                       distinguished_word, gauss_decompose, gen_minor,
                       generator, iota, is_reduced, lift, minor_spec,
                       sl_realization, torus_point, twist, weight_sets,
                       weyl_apply)

from helpers import (all_reduced_words, enumerate_weyl_group,
                     reference_chart_G, reference_chart_GmodU,
                     reference_product)


def _sym(names):
    return {v: RatFunc.var(tuple(names), v) for v in names}


def test_generator_golden_matrices():
    s = _sym(["a"])["a"]
    x1 = generator("x", 1, s, 4)
    assert str(x1) == "[[1, a, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"
    assert str(lift((1,), "dot", 2)) == "[[0, 1], [-1, 0]]"
    assert str(lift((1,), "ddot", 2)) == "[[0, -1], [1, 0]]"
    with pytest.raises(ValueError):
        generator("x", 4, s, 4)
    with pytest.raises(ValueError):
        generator("x", 1, None, 4)


def test_torus_point():
    t = _sym(["t1", "t2"])
    m = torus_point([t["t1"], t["t2"]])
    assert m.is_diagonal
    # leading principal 2x2 minor reads the second coordinate
    assert m.entry(1, 1) * m.entry(2, 2) == t["t2"]
    assert torus_point([RatFunc.const((), 1)]) == GroupMatrix.identity(2)
    with pytest.raises(ValueError):
        torus_point([RatFunc.const((), 0)])


def test_chart_U_golden_sl3():
    a = _sym(["a1", "a2", "a3"])
    m = chart_U((1, 2, 1), [a["a1"], a["a2"], a["a3"]], 3)
    assert str(m) == "[[1, a1 + a3, a1*a2], [0, 1, a2], [0, 0, 1]]"
    assert chart_U((1, 2, 1), [0, 0, 0], 3) == GroupMatrix.identity(3)
    with pytest.raises(ValueError):
        chart_U((1, 2), [a["a1"]], 3)


def test_chart_GmodU_golden_sl2():
    v = _sym(["a", "t1"])
    t = TorusPoint((v["t1"],))
    plus = chart_GmodU((1,), [v["a"]], t, "+", 2)
    assert str(plus) == "[[t1, (a)/(t1)], [0, (1)/(t1)]]"
    minus = chart_GmodU((1,), [v["a"]], t, "-", 2)
    assert str(minus) == "[[0, t1], [(-1)/(t1), a*t1]]"
    ident = chart_GmodU((1,), [RatFunc.const(("t1",), 0)],
                        TorusPoint((RatFunc.const(("t1",), 1),)), "+", 2)
    assert ident == GroupMatrix.identity(2)


def test_torus_point_rejects_zero_and_non_ratfunc_coordinates():
    with pytest.raises(ValueError, match="torus coordinates must be nonzero RatFuncs"):
        TorusPoint((RatFunc.const(("t1",), 0),))
    with pytest.raises(ValueError, match="torus coordinates must be nonzero RatFuncs"):
        TorusPoint((1,))
    t = TorusPoint((RatFunc.var(("t1",), "t1"),))
    assert t.n == 2
    with pytest.raises(AttributeError):
        t.coords = ()


def test_minor_spec_record_is_frozen_and_hashes_by_value():
    spec = MinorSpec(2, (1, 2))
    assert repr(spec) == "MinorSpec(i=2, w_word=(1, 2))"
    assert spec == MinorSpec(2, (1, 2)) and hash(spec) == hash(MinorSpec(2, (1, 2)))
    with pytest.raises(AttributeError):
        spec.i = 1


def test_chart_G_golden_sl2():
    v = _sym(["a", "t1", "b"])
    t = TorusPoint((v["t1"],))
    pm = chart_G((1,), (1,), [v["a"]], t, [v["b"]], "pm", 2)
    assert pm.entry(1, 1) == v["t1"] + v["a"] * v["b"] / v["t1"]
    assert pm.entry(1, 2) == v["a"] / v["t1"]
    assert pm.entry(2, 1) == v["b"] / v["t1"]
    assert pm.entry(2, 2) == v["t1"].inv()
    mp0 = chart_G((1,), (1,), [RatFunc.const(("t1",), 0)],
                  TorusPoint((RatFunc.var(("t1",), "t1"),)),
                  [RatFunc.const(("t1",), 0)], "mp", 2)
    tt = RatFunc.var(("t1",), "t1")
    assert mp0.entry(1, 1) == tt.inv() and mp0.entry(2, 2) == tt
    assert pm.det() == 1


def test_chart_G_swap_automorphism_identity():
    # the reversed-variant chart is the automorphism applied entrywise
    for n in (2, 3):
        nu = n * (n - 1) // 2
        names = ([f"a{k}" for k in range(1, nu + 1)]
                 + [f"t{i}" for i in range(1, n)]
                 + [f"b{k}" for k in range(1, nu + 1)])
        v = _sym(names)
        t = TorusPoint(tuple(v[f"t{i}"] for i in range(1, n)))
        d = cartan("A", n - 1)
        jj0 = distinguished_word(d, 0)
        jj1 = distinguished_word(d, 1)
        a = [v[f"a{k}"] for k in range(1, nu + 1)]
        b = [v[f"b{k}"] for k in range(1, nu + 1)]
        pm = chart_G(jj0, jj1, a, t, b, "pm", n)
        mp = chart_G(jj0, jj1, a, t, b, "mp", n)
        assert iota(pm) == mp


def test_lift_well_defined_exhaustive_sl3():
    d = cartan("A", 2)
    dist = enumerate_weyl_group(d)
    for elem in dist:
        words = all_reduced_words(elem, d, dist)
        for style in ("dot", "ddot"):
            lifts = [lift(w, style, 3) for w in words]
            assert all(m == lifts[0] for m in lifts)


def test_lift_rejects_non_reduced():
    with pytest.raises(ValueError):
        lift((1, 1), "dot", 3)
    assert lift((), "dot", 3) == GroupMatrix.identity(3)


def test_pinning_relations():
    # additivity and torus conjugation for every size up to five
    for n in range(2, 6):
        names = tuple(["a", "b"] + [f"t{i}" for i in range(1, n)])
        v = _sym(names)
        t = TorusPoint(tuple(v[f"t{i}"] for i in range(1, n)))
        tm = t.matrix()
        tinv = t.inverse().matrix()
        for i in range(1, n):
            xa = generator("x", i, v["a"], n)
            xb = generator("x", i, v["b"], n)
            assert xa @ xb == generator("x", i, v["a"] + v["b"], n)
            # alpha_i(t) = t_{i-1}^{-1} t_i^2 t_{i+1}^{-1} in these coordinates
            alpha = v[f"t{i}"] ** 2
            if i > 1:
                alpha = alpha / v[f"t{i-1}"]
            if i < n - 1:
                alpha = alpha / v[f"t{i+1}"]
            assert tm @ xa @ tinv == generator("x", i, alpha * v["a"], n)
            # the lift squares to the coroot at -1
            sq = lift((i,), "dot", n) @ lift((i,), "dot", n)
            expect = [[(-1 if a == b and a in (i - 1, i) else int(a == b))
                       for b in range(n)] for a in range(n)]
            assert sq == GroupMatrix(expect)


def test_braid_matrix_identity_sl3():
    v = _sym(["a", "b", "c"])
    a, b, c = v["a"], v["b"], v["c"]
    s = a + c
    for (i, j) in ((1, 2), (2, 1)):
        lhs = (generator("x", i, a, 3) @ generator("x", j, b, 3)
               @ generator("x", i, c, 3))
        rhs = (generator("x", j, b * c / s, 3) @ generator("x", i, s, 3)
               @ generator("x", j, a * b / s, 3))
        assert lhs == rhs


def test_iota_generator_identities():
    v = _sym(["a"])
    for n in (2, 3, 4):
        for i in range(1, n):
            assert iota(generator("x", i, v["a"], n)) == generator("y", i, v["a"], n)
            assert iota(generator("y", i, v["a"], n)) == generator("x", i, v["a"], n)
        names = tuple(f"t{i}" for i in range(1, n))
        tv = _sym(names)
        t = TorusPoint(tuple(tv[f"t{i}"] for i in range(1, n)))
        assert iota(t.matrix()) == t.inverse().matrix()


def test_iota_is_involution_random():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.choice([2, 3])
        word = tuple(rng.randint(1, n - 1) for _ in range(4))
        params = [Fraction(rng.randint(-4, 4)) for _ in word]
        g = chart_U(word, params, n) @ generator(
            "y", 1, RatFunc.const((), rng.randint(1, 3)), n)
        assert iota(iota(g)) == g


def _symbolic_unitriangular(n, stem="u"):
    names = tuple(f"{stem}{i}{j}" for i in range(1, n + 1)
                  for j in range(i + 1, n + 1))
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == j:
                row.append(RatFunc.const(names, 1))
            elif i < j:
                row.append(RatFunc.var(names, f"{stem}{i}{j}"))
            else:
                row.append(RatFunc.const(names, 0))
        rows.append(row)
    return GroupMatrix(rows)


def test_gen_minor_examples():
    d = cartan("A", 2)
    u = _symbolic_unitriangular(3)
    for i in (1, 2):
        spec = minor_spec(d.fundamental_weight(i), d)
        assert gen_minor(spec, u) == 1
    g = weyl_apply((1,), d.fundamental_weight(1), d)
    assert str(gen_minor(minor_spec(g, d), u)) == "u12"


def test_gen_minor_witness_independent():
    # two distinct reduced witnesses of the same weight give equal minors
    for n in (3, 4):
        d = cartan("A", n - 1)
        dist = enumerate_weyl_group(d)
        u = _symbolic_unitriangular(n)
        from bircharts import MinorSpec

        seen = {}
        count = 0
        for elem in dist:
            for i in range(1, n):
                target = elem.apply(d.fundamental_weight(i))
                words = all_reduced_words(elem, d, dist)[:2]
                vals = [gen_minor(MinorSpec(i, w), u) for w in words]
                assert all(v == vals[0] for v in vals)
                key = (i, target.coords)
                if key in seen:
                    assert seen[key] == vals[0]
                    count += 1
                else:
                    seen[key] = vals[0]
            if count > 8:
                break


def test_minor_left_right_equivariance():
    # lower-unitriangular times torus on the left scales by the character;
    # upper-unitriangular on the right leaves the minor unchanged
    for n in (3, 4):
        d = cartan("A", n - 1)
        names = tuple([f"g{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
                      + [f"l{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
                      + [f"r{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
                      + [f"t{i}" for i in range(1, n)])
        v = _sym(names)
        g = [[v[f"g{i}{j}"] for j in range(1, n + 1)] for i in range(1, n + 1)]
        lo = [[v[f"l{j}{i}"] if i > j else RatFunc.const(names, 1 if i == j else 0)
               for j in range(1, n + 1)] for i in range(1, n + 1)]
        up = [[v[f"r{i}{j}"] if i < j else RatFunc.const(names, 1 if i == j else 0)
               for j in range(1, n + 1)] for i in range(1, n + 1)]
        t = TorusPoint(tuple(v[f"t{i}"] for i in range(1, n)))

        def minor(rows, i):
            from bircharts.sl_realization import _det
            return _det([[rows[a][b] for b in range(i)] for a in range(i)])

        def matmul(a_rows, b_rows):
            return [[sum((a_rows[i][k] * b_rows[k][j] for k in range(n)),
                         RatFunc.const((), 0)) for j in range(n)]
                    for i in range(n)]

        left = matmul(matmul(lo, [list(r) for r in t.matrix().entries]), g)
        right = matmul(g, up)
        for i in range(1, n):
            assert minor(left, i) == t.coords[i - 1] * minor(g, i)
            assert minor(right, i) == minor(g, i)
        assert gen_minor(minor_spec(d.fundamental_weight(1), d),
                         GroupMatrix.identity(n)) == 1


def test_minor_nonvanishing_on_chart():
    # every weight family member pulls back to a nonzero function
    for n in (3, 4):
        d = cartan("A", n - 1)
        for eps in (0, 1):
            jj = distinguished_word(d, eps)
            names = tuple(f"a{k}" for k in range(1, d.nu + 1))
            u = chart_U(jj, [RatFunc.var(names, v) for v in names], n)
            cw = chart_weights(d, eps)
            weights = set(cw.gamma.values()) | set(cw.gamma_tilde.values())
            for w in weights:
                assert not gen_minor(minor_spec(w, d), u).is_zero


def test_gauss_decompose():
    assert gauss_decompose(GroupMatrix.identity(3)) == (
        GroupMatrix.identity(3), GroupMatrix.identity(3), GroupMatrix.identity(3))
    a = RatFunc.var(("a",), "a")
    g = GroupMatrix([[a, RatFunc.const(("a",), -1)],
                     [RatFunc.const(("a",), 1), RatFunc.const(("a",), 0)]])
    L, D, U = gauss_decompose(g)
    assert str(L) == "[[1, 0], [(1)/(a), 1]]"
    assert str(D) == "[[a, 0], [0, (1)/(a)]]"
    assert str(U) == "[[1, (-1)/(a)], [0, 1]]"
    assert L @ D @ U == g
    with pytest.raises(ValueError):
        gauss_decompose(GroupMatrix([[0, 1], [-1, 0]]))


def test_twist_golden_and_involution():
    a = RatFunc.var(("a",), "a")
    u = GroupMatrix([[1, a], [0, 1]])
    tw = twist(u)
    assert str(tw) == "[[1, (1)/(a)], [0, 1]]"
    assert tw.is_upper_unitriangular
    assert twist(tw) == u
    u3 = chart_U((1, 2, 1), [1, 2, 3], 3)
    assert twist(twist(u3)) == u3
    with pytest.raises(ValueError):
        twist(GroupMatrix.identity(3))


def test_twist_along_a_word():
    d = cartan("A", 3)
    jj0, jj1 = distinguished_word(d, 0), distinguished_word(d, 1)
    u = chart_U(jj0, [1, 2, 3, 4, 5, 6], 4)
    assert twist(u, jj1) == twist(u)  # two reduced words of w0
    with pytest.raises(ValueError, match="not reduced"):
        twist(u, (1, 1))
    # eta_w for w = s1 s2 sends x_1(a) x_2(b) to x_2(1/b) x_1(1/a)
    a, b = (RatFunc.var(("a", "b"), v) for v in ("a", "b"))
    assert twist(chart_U((1, 2), [a, b], 3), (1, 2)) == \
        chart_U((2, 1), [b.inv(), a.inv()], 3)


def test_twist_involution_symbolic_sl3():
    d = cartan("A", 2)
    names = ("a1", "a2", "a3")
    params = [RatFunc.var(names, v) for v in names]
    for eps in (0, 1):
        u = chart_U(distinguished_word(d, eps), params, 3)
        assert twist(twist(u)) == u


def test_twist_divides_only_for_its_lower_factor(monkeypatch):
    # the twist reads L alone: at most one division per entry below the
    # diagonal, n(n-1)/2 = 6 at sl4, and none for D or U
    d = cartan("A", 3)
    names = tuple(f"a{k}" for k in range(1, d.nu + 1))
    u = chart_U(distinguished_word(d, 0), [RatFunc.var(names, v) for v in names], 4)
    expected = twist(u)
    divisions = []
    divide = RatFunc.__truediv__
    monkeypatch.setattr(RatFunc, "__truediv__",
                        lambda a, b: divisions.append(b) or divide(a, b))
    assert twist(u) == expected
    assert 0 < len(divisions) <= 6


def test_big_cell_spot_check_positive_points():
    # positive parameters land in the big cell with all interior minors nonzero
    rng = random.Random(20250801)
    for n in (3, 4):
        d = cartan("A", n - 1)
        for eps in (0, 1):
            jj = distinguished_word(d, eps)
            _, _, interior = weight_sets(d, eps)
            specs = [minor_spec(w, d) for w in interior]
            for _ in range(10):
                params = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                          for _ in jj]
                u = chart_U(jj, params, n)
                au = twist(u)
                for spec in specs:
                    assert not gen_minor(spec, au).is_zero


def test_group_matrix_validation():
    with pytest.raises(ValueError):
        GroupMatrix([[1, 0], [0, 2]])
    with pytest.raises(ValueError):
        GroupMatrix([[1, 0, 0], [0, 1, 0]])
    m = GroupMatrix([[2, 1], [1, 1]])
    assert m.det() == 1


def _twist_by_lift_inverse(u):
    """The twist built as stated: u times the inverted w0 dot lift."""
    n = u.n
    w0 = distinguished_word(cartan("A", n - 1), 0)
    L, _, _ = gauss_decompose(u @ lift(w0, "dot", n).inverse())
    return iota(L)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_twist_column_swaps_match_lift_inverse(n):
    d = cartan("A", n - 1)
    rng = random.Random(f"twist/{n}")
    for eps in (0, 1):
        jj = distinguished_word(d, eps)
        params = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in jj]
        u = chart_U(jj, params, n)
        assert twist(u) == _twist_by_lift_inverse(u)
    names = tuple(f"a{k}" for k in range(1, d.nu + 1))
    u = chart_U(distinguished_word(d, n % 2), [RatFunc.var(names, v) for v in names], n)
    assert twist(u) == _twist_by_lift_inverse(u)


def _chart_arguments(n):
    """Parameters a, torus point t and parameters b: symbolic up to sl4,
    seeded positive rationals above."""
    nu = n * (n - 1) // 2
    names = ([f"a{k}" for k in range(1, nu + 1)] + [f"t{i}" for i in range(1, n)]
             + [f"b{k}" for k in range(1, nu + 1)])
    if n <= 4:
        values = [RatFunc.var(tuple(names), v) for v in names]
    else:
        rng = random.Random(f"charts/{n}")
        values = [RatFunc.const((), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
                  for _ in names]
    return values[:nu], TorusPoint(tuple(values[nu:nu + n - 1])), values[nu + n - 1:]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_charts_equal_generator_products(n):
    d = cartan("A", n - 1)
    words = [distinguished_word(d, eps) for eps in (0, 1)]
    a, t, b = _chart_arguments(n)
    for jj in words:
        assert chart_U(jj, a, n) == reference_product("x", jj, a, n)
        for sign in ("+", "-"):
            assert (chart_GmodU(jj, a, t, sign, n)
                    == reference_chart_GmodU(jj, a, t, sign, n))
        for jj2 in words:
            for variant in ("pm", "mp"):
                assert (chart_G(jj, jj2, a, t, b, variant, n)
                        == reference_chart_G(jj, jj2, a, t, b, variant, n))


def _library_matrices(n):
    """One matrix of every kind the library builds at sl_n."""
    d = cartan("A", n - 1)
    jj0, jj1 = (distinguished_word(d, eps) for eps in (0, 1))
    a, t, b = _chart_arguments(n)
    u = chart_U(jj0, a, n)
    g = chart_G(jj0, jj1, a, t, b, "mp", n)
    return [GroupMatrix.identity(n), t.matrix(), t.inverse().matrix(),
            torus_point(t.coords), u, twist(u), twist(u, jj0[:2]), iota(g),
            g.inverse(), g @ u, *gauss_decompose(g),
            lift(jj0, "dot", n), lift(jj1, "ddot", n),
            *(generator(kind, i, a[0], n) for kind in ("x", "y") for i in range(1, n)),
            *(lift((i,), style, n) for style in ("dot", "ddot") for i in range(1, n)),
            *(chart_GmodU(jj, a, t, sign, n) for jj in (jj0, jj1) for sign in "+-"),
            *(chart_G(jj0, jj1, a, t, b, variant, n) for variant in ("pm", "mp"))]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_library_matrices_pass_the_public_constructor(n):
    # the trusted constructor stores tuples of RatFuncs that the validating
    # one accepts unchanged: square, determinant 1
    for m in _library_matrices(n):
        assert type(m.entries) is tuple and len(m.entries) == m.n == n
        assert all(type(row) is tuple and len(row) == n
                   and all(isinstance(e, RatFunc) for e in row)
                   for row in m.entries)
        assert GroupMatrix(m.entries) == m


def test_built_matrices_compute_no_determinant(monkeypatch):
    calls = []
    det, method = sl_realization._det, GroupMatrix.det
    monkeypatch.setattr(sl_realization, "_det",
                        lambda rows: calls.append("_det") or det(rows))
    monkeypatch.setattr(GroupMatrix, "det",
                        lambda self: calls.append("det") or method(self))
    lift(distinguished_word(cartan("A", 4), 0), "ddot", 5)
    generator("x", 1, _sym(["a"])["a"], 4)
    assert calls == []


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_s_swaps_match_dot_lift(n):
    d = cartan("A", n - 1)
    rng = random.Random(f"swaps/{n}")
    word = ()
    for _ in range(2 * n):
        i = rng.randint(1, n - 1)
        if is_reduced(word + (i,), d):
            word += (i,)
    for w in (distinguished_word(d, 0), distinguished_word(d, 1), word):
        rows = [list(row) for row in GroupMatrix.identity(n).entries]
        assert GroupMatrix(sl_realization._act(rows, "s", w)) == lift(w, "dot", n)


def test_column_operations_reject_an_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        chart_U((1, 3), [1, 2], 3)
    with pytest.raises(ValueError, match="out of range"):
        chart_U((0,), [1], 3)



_T = TorusPoint((RatFunc.var(("t",), "t"),))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: GroupMatrix.identity(2) @ GroupMatrix.identity(3),
                 "size mismatch", id="matmul"),
    # the Weyl lifts are built by lift alone
    pytest.param(lambda: generator("sdot", 1, None, 2),
                 "unknown generator kind 'sdot'", id="generator"),
    pytest.param(lambda: lift((1,), "dash", 2), "unknown lift style 'dash'", id="lift"),
    pytest.param(lambda: chart_GmodU((1,), [], _T, "+", 2),
                 "length mismatch: expected 1 parameters", id="GmodU-count"),
    pytest.param(lambda: chart_GmodU((1,), [1], _T, "*", 2),
                 "unknown sign '*'", id="GmodU-sign"),
    pytest.param(lambda: chart_G((1,), (1,), [1], _T, [], "pm", 2),
                 "length mismatch: expected 1 parameters per block", id="G-count"),
    pytest.param(lambda: chart_G((1,), (1,), [1], _T, [1], "pp", 2),
                 "unknown variant 'pp'", id="G-variant"),
    pytest.param(lambda: twist(lift((1,), "dot", 2)),
                 "twist is defined on upper unitriangular matrices", id="twist"),
])
def test_matrix_builder_input_checks(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message
