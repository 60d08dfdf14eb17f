"""The benchmark's own tests: python3 -m pytest -q perfbench/test_perfbench.py"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bircharts  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import oracle  # noqa: E402
from oracle import Poly, evaluate, minor, unipotent_matrix, upper_chart  # noqa: E402
from workloads import (PLANS, WHY, check_transition, generate_round,  # noqa: E402
                       membership_input)


def test_rounds_are_deterministic_per_seed():
    for workload in PLANS:
        a = generate_round(workload, 7, 0)
        b = generate_round(workload, 7, 0)
        assert [(o.kind, o.n, o.payload, o.expect) for o in a] == \
               [(o.kind, o.n, o.payload, o.expect) for o in b]
        c = generate_round(workload, 8, 0)
        assert [o.payload for o in a] != [o.payload for o in c]
        assert sorted(f"{o.kind}{o.n}" for o in a) == sorted(f"{o.kind}{o.n}" for o in c)


def test_every_round_puts_ten_samples_beyond_p90():
    for workload, plan in PLANS.items():
        assert sum(count for _, _, count in plan) >= 100, workload


def test_expected_verdicts_hold_on_small_cases():
    decide = {"u": bircharts.decide_O_U, "dense": bircharts.decide_O_U,
              "g-mod-u": bircharts.decide_O_GmodU, "g": bircharts.decide_O_G}
    rng = random.Random(3)
    for kind, n in (("u", 3), ("u", 4), ("g-mod-u", 2), ("g-mod-u", 3), ("g", 2),
                    ("dense", 3)):
        universe = (bircharts.u_variables(n) if kind in ("u", "dense")
                    else bircharts.g_variables(n))
        for index in range(4):
            text, member, shape = membership_input(rng, kind, n, index)
            phi = bircharts.parse_expression(text, universe)
            assert decide[kind](phi, n).member == member, (kind, n, shape, text)


def test_poly_text_parses_back_and_never_leads_with_minus():
    x, y = Poly.var("u(1,2)"), Poly.var("u(2,3)")
    p = Poly.const(-3) * x * x - y + Poly.const(2)
    text = p.text()
    assert not text.startswith("-")
    point = {"u12": Fraction(2, 3), "u23": Fraction(-5, 7)}
    phi = bircharts.parse_expression(text, bircharts.u_variables(3))
    assert evaluate(str(phi), point) == Fraction(-3) * Fraction(4, 9) + Fraction(5, 7) + 2


def test_unipotent_minor_is_the_textbook_one():
    m = minor(unipotent_matrix(3), [0, 1], [1, 2])
    want = Poly.var("u(1,2)") * Poly.var("u(2,3)") - Poly.var("u(1,3)")
    assert m.terms == want.terms


def test_transition_check_accepts_the_braid_relation_and_rejects_a_wrong_map():
    # x1(a) x2(b) x1(c) = x2(bc/(a+c)) x1(a+c) x2(ab/(a+c))
    report = {"values": {"source_word": [1, 2, 1], "target_word": [2, 1, 2],
                         "source_params": ["a1", "a2", "a3"],
                         "formulas": {"c1": "(a2*a3)/(a1 + a3)", "c2": "a1 + a3",
                                      "c3": "(a1*a2)/(a1 + a3)"}}}
    assert check_transition(report, 3) == ""
    report["values"]["formulas"]["c2"] = "a1 + 2*a3"
    assert check_transition(report, 3) == "formulas do not reproduce the source chart"
    a = [Fraction(1, 2), Fraction(3), Fraction(2, 5)]
    assert upper_chart([1, 2, 1], a, 3)[0][2] == a[0] * a[1]


def test_oracle_twist_matches_the_library_and_is_an_involution():
    from bircharts import sl_realization as sl
    word, params = (1, 2, 1), [Fraction(2), Fraction(1, 3), Fraction(5, 4)]
    u = sl.chart_U(word, params, 3)
    au = sl.twist(u)
    values = [[e.const_value for e in row] for row in au.entries]
    assert oracle.twist(upper_chart(word, params, 3)) == values
    assert oracle.twist(values) == upper_chart(word, params, 3)


def test_self_time_on_a_hand_built_tree():
    #  root [0, 10]: a [1, 4], b [5, 9]; b has c [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert spans.self_times(start, end, parent) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_spans_recursion_and_operator_aggregation():
    tracer = spans.Tracer()

    def fact(k):
        return 1 if k <= 1 else k * traced_fact(k - 1)

    traced_fact = tracer.span("m.fact", fact)
    add = tracer.arith(lambda a, b: a + b)
    mul = tracer.arith(lambda a, b: a * b)

    def outer():
        add(1, 2)
        mul(3, 4)
        return traced_fact(5)

    tracer.op_id = 0
    assert tracer.span("m.outer", outer)() == 120
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["m.outer", spans.ARITH, "m.fact"]
    assert tracer.calls["m.fact"] == 5 and tracer.calls[spans.ARITH] == 2
    assert list(tracer.parent) == [-1, 0, 0]
    selfs = spans.self_times(tracer.start, tracer.end, tracer.parent)
    total = tracer.end[0] - tracer.start[0]
    assert abs(sum(selfs) - total) < 1e-12


def test_ratio_bases():
    tracer = spans.Tracer()
    tracer.calls["exact_arith.poly_gcd"] = 4
    tracer.counts["exact_arith.poly_gcd.nonconst"] = 3
    build = spans._build_hook(tracer, "sl_realization.chart")
    build(((1, 2), [Fraction(1)], 3), {})
    build(((1, 2), [Fraction(1)], 3), {})
    build(((2, 1), [Fraction(1)], 3), {})
    m = spans.per_layer_metrics(tracer, op_time=1.0, overhead=1.0)
    assert m["exact_arith.poly_gcd.nonconst_ratio"] == 0.75
    assert m["sl_realization.chart.builds"] == 3
    assert m["sl_realization.chart.repeat_ratio"] == 1 / 3
    assert m["sl_realization.lift.repeat_ratio"] == 0.0  # no lift built: base 0

    gcd = spans._gcd_hook(tracer)
    const, var = bircharts.MultiPoly.const(("x",), 2), bircharts.MultiPoly.variable(("x",), "x")
    gcd((const, const), {})
    gcd((const, var), {})
    assert tracer.counts["exact_arith.poly_gcd.nonconst"] == 4


def test_install_wraps_every_lookup_and_uninstall_restores():
    from bircharts import membership, sl_realization
    original = sl_realization.chart_U
    tracer = spans.Tracer()
    tracer.install(bircharts)
    try:
        assert membership.chart_U is sl_realization.chart_U is bircharts.chart_U
        assert membership.chart_U is not original
        uv = bircharts.u_variables(3)
        tracer.op_id = 0
        assert bircharts.decide_O_U(bircharts.parse_expression("u(1,3)", uv), 3).member
    finally:
        tracer.uninstall()
    assert membership.chart_U is original and bircharts.chart_U is original
    m = spans.per_layer_metrics(tracer, op_time=1.0, overhead=1.0)
    assert m["membership.decide_O_U.calls"] == 1
    assert m["membership.pullback_U.calls"] == 2
    assert m["sl_realization.chart.builds"] == 2
    assert m["sl_realization.chart.repeat_ratio"] == 0.0
    assert m["exact_arith.arith.calls"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        spans.per_layer_metric_names()
