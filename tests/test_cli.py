"""Command-line surface: subcommands, exit codes, report stability."""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bircharts
from bircharts import cli, root_data, sl_realization
from bircharts.cli import main

from helpers import golden_sl4_transition


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out) if out else None, err


def test_membership_member_exit_zero(capsys):
    code, report, _ = run_json(capsys, "membership", "u", "--group", "sl4",
                               "--expr", "u(1,3)")
    assert code == 0
    assert report["member"] is True
    assert report["group"] == "sl4"
    assert {c["chart"] for c in report["certificates"]} == {"u:jj0", "u:jj1"}


def test_membership_rejection_exit_one(capsys):
    expr = "u(1,2) - (u(1,3)*u(3,4)-u(1,4))/(u(2,3)*u(3,4)-u(2,4))"
    code, report, _ = run_json(capsys, "membership", "u", "--group", "sl4",
                               "--expr", expr)
    assert code == 1
    assert report["member"] is False
    assert report["failing_chart"] == "u:jj1"
    certs = {c["chart"]: c for c in report["certificates"]}
    assert certs["u:jj0"]["pullback"] == "a5"
    assert certs["u:jj1"]["pullback"] == "(b2*b3*b4)/(b2*b3 + b2*b6 + b5*b6)"


def test_membership_g_mod_u(capsys):
    code, report, _ = run_json(capsys, "membership", "g-mod-u",
                               "--group", "sl2", "--expr", "g(1,2)")
    assert code == 0 and report["member"] is True
    code, report, _ = run_json(capsys, "membership", "g", "--group", "sl2",
                               "--expr", "1/g(1,1)")
    assert code == 1 and report["member"] is False


@pytest.mark.parametrize("space,expr", [
    ("g", "1/(g(1,1)*g(2,2)-g(1,2)*g(2,1)-1)"),
    ("g-mod-u", "1/(g(1,2)*g(2,1)-g(1,1)*g(2,2)+1)")], ids=["g", "g-mod-u"])
def test_membership_denominator_vanishing_on_the_group_exit_two(capsys, space, expr):
    code, out, err = run(capsys, "membership", space, "--group", "sl2",
                         "--expr", expr)
    assert code == 2 and out == ""
    assert "denominator vanishes on SL_2" in err


def test_transition_reproduces_golden_formulas(capsys):
    code, report, _ = run_json(capsys, "transition", "--group", "sl4",
                               "--from", "jj1", "--to", "jj0")
    assert code == 0
    names, expected, _ = golden_sl4_transition()
    formulas = report["values"]["formulas"]
    assert formulas == {f"a{k}": str(f) for k, f in enumerate(expected, 1)}


def test_chart_eval_and_invert(tmp_path, capsys):
    code, report, _ = run_json(capsys, "chart", "eval", "--group", "sl3",
                               "--word", "jj1", "--params", "1,2,3")
    assert code == 0
    assert report["values"]["matrix"] == [["1", "4", "2"], ["0", "1", "2"],
                                          ["0", "0", "1"]]
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps([["1", "7", "8", "48"], ["0", "1", "5", "33"],
                                 ["0", "0", "1", "9"], ["0", "0", "0", "1"]]))
    code, report, _ = run_json(capsys, "chart", "invert", "--group", "sl4",
                               "--eps", "0", "--matrix", str(mfile))
    assert code == 0
    assert report["values"]["params"] == ["1", "2", "3", "4", "5", "6"]


def test_numeric_chart_eval_builds_over_the_empty_universe(capsys, monkeypatch):
    # constant parameters go in over (), not over the word's parameter names,
    # and so do the chart's entries
    calls = []
    real = sl_realization.chart_U
    monkeypatch.setattr(sl_realization, "chart_U",
                        lambda word, params, n: calls.append(
                            (params, real(word, params, n))) or calls[-1][1])
    code, report, _ = run_json(capsys, "chart", "eval", "--group", "sl4",
                               "--params", "1,2,3,1/2,5,6")
    assert code == 0 and len(calls) == 1
    params, matrix = calls[0]
    assert {p.universe for p in params} == {()}
    assert {e.universe for row in matrix.entries for e in row} == {()}
    assert report["values"]["matrix"] == [["1", "7", "1", "6"], ["0", "1", "(3)/(2)", "12"],
                                          ["0", "0", "1", "9"], ["0", "0", "0", "1"]]


def test_chart_invert_singular_matrix_is_negative_verdict(tmp_path, capsys):
    mfile = tmp_path / "id.json"
    mfile.write_text(json.dumps([["1", "0"], ["0", "1"]]))
    code, report, _ = run_json(capsys, "chart", "invert", "--group", "sl3",
                               "--eps", "0", "--matrix", str(mfile))
    # wrong size is a usage error
    assert code == 2
    mfile.write_text(json.dumps([["1", "0", "0"], ["0", "1", "0"],
                                 ["0", "0", "1"]]))
    code, report, _ = run_json(capsys, "chart", "invert", "--group", "sl3",
                               "--eps", "0", "--matrix", str(mfile))
    assert code == 1
    assert "undefined" in report["error"]


def test_chart_eval_then_invert_sl5(tmp_path, capsys):
    params = [str(k) for k in range(1, 11)]
    code, report, _ = run_json(capsys, "chart", "eval", "--group", "sl5",
                               "--params", ",".join(params))
    assert code == 0
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(report["values"]["matrix"]))
    code, report, _ = run_json(capsys, "chart", "invert", "--group", "sl5",
                               "--eps", "0", "--matrix", str(mfile))
    assert code == 0
    assert report["values"]["params"] == params


def test_chart_invert_non_unitriangular_is_a_usage_error(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps([["1", "2", "3"], ["0", "1", "4"],
                                 ["0", "1", "5"]]))
    code, out, err = run(capsys, "chart", "invert", "--group", "sl3",
                         "--eps", "0", "--matrix", str(mfile))
    assert code == 2 and out == ""
    assert "upper unitriangular" in err


def test_weights_and_verify(capsys):
    code, report, _ = run_json(capsys, "weights", "--type", "A3", "--eps", "0")
    assert code == 0
    assert report["values"]["word"] == [2, 1, 3, 2, 1, 3]
    assert len(report["values"]["interior"]) == 3
    code, report, _ = run_json(capsys, "verify-lemmas", "--type", "A3")
    assert code == 0
    checks = report["values"]["checks"]["A3"]
    assert all(c["passed"] or c["skipped"] for c in checks)


# sha256 of each report's values as sorted-key JSON, recorded when the
# command built the chart weights and the weight sets by two walks
@pytest.mark.parametrize("argv, digest", [
    (("--type", "A3"),
     "45f966a162475de53e9effd75634f6f7d0410a6b7e61ac30554f1e175779c5ac"),
    (("--type", "A3", "--eps", "1"),
     "0bbd86bd781a78ad86e46bd1a7856cee7403fc52115d698e6b79ebb086925bbf"),
    (("--type", "E8", "--rank-budget", "8"),
     "6df7068721ee648c62cfd8e005cd00b6cebb2e339baa0cf8f9f46f63493135d7"),
    (("--type", "E8", "--rank-budget", "8", "--eps", "1"),
     "3acfaa5bae8a853d0ba7e0258572fe2ba2a1bc2189edbf913234e4a32301c0e1"),
], ids=["A3-jj0", "A3-jj1", "E8-jj0", "E8-jj1"])
def test_weights_report_is_unchanged_from_one_walk(capsys, monkeypatch, argv,
                                                   digest):
    walks = []
    real = root_data._families

    def counted(*args):
        walks.append(args)
        return real(*args)

    monkeypatch.setattr(root_data, "_families", counted)
    monkeypatch.setattr(cli, "_families", counted)
    code, report, _ = run_json(capsys, "weights", *argv)
    assert code == 0
    assert len(walks) == 1
    values = json.dumps(report["values"], sort_keys=True).encode()
    assert hashlib.sha256(values).hexdigest() == digest


def test_verify_lemmas_negative_verdict_exits_one(capsys, monkeypatch):
    real = root_data._families

    def off_w0_translates(datum, eps):
        cw, sets, mixed = real(datum, eps)
        cw.gamma[1] = root_data.Weight((0, 0, 0))
        return cw, sets, mixed

    monkeypatch.setattr(root_data, "_families", off_w0_translates)
    code, report, _ = run_json(capsys, "verify-lemmas", "--type", "A3")
    assert code == 1 and report["member"] is False
    failed = [c for c in report["values"]["checks"]["A3"] if not c["passed"]]
    assert {"name": "chart-weight-classification", "passed": False,
            "skipped": False,
            "detail": "eps=0, gamma[1] not a w0-translate"} in failed


def test_verify_all_small_types(capsys):
    code, report, _ = run_json(capsys, "verify-lemmas", "--all-small-types")
    assert code == 0
    assert set(report["values"]["checks"]) == {
        "A1", "A2", "A3", "A4", "A5", "B2", "B3", "C3", "D4", "G2"}


@pytest.mark.parametrize("flags", [(), ("--type", "A3", "--all-small-types")],
                         ids=["neither", "both"])
def test_verify_takes_exactly_one_of_type_and_all_small_types(capsys, flags):
    code, out, err = run(capsys, "verify-lemmas", *flags)
    assert code == 2 and out == ""
    assert "--type" in err and "--all-small-types" in err


@pytest.mark.parametrize("command", ["weights", "verify-lemmas"])
def test_type_and_rank_budget_are_checked_before_the_datum_is_built(capsys, command):
    started = time.monotonic()
    code, _, err = run(capsys, command, "--type", "A100000")
    assert code == 2 and "rank 100000 exceeds the rank budget 6" in err
    assert time.monotonic() - started < 1
    code, _, err = run(capsys, command, "--type", "E9", "--rank-budget", "10")
    assert code == 2 and "invalid finite type E9" in err


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "membership", "u", "--group", "sl1", "--expr", "1")[0] == 2
    assert run(capsys, "membership", "u", "--group", "sl4", "--expr", "u(1,9)")[0] == 2
    assert run(capsys, "membership", "u", "--group", "sl4", "--expr", "u(1,")[0] == 2
    assert run(capsys, "weights", "--type", "E8")[0] == 2  # over the rank budget
    assert run(capsys, "nonsense")[0] == 2


@pytest.mark.parametrize("argv, message", [
    (("membership", "u", "--group", "sl²", "--expr", "u(1,2)"),
     "invalid group 'sl²'; expected slN"),
    (("chart", "eval", "--group", "sl³"), "invalid group 'sl³'; expected slN"),
    (("weights", "--type", "A²"), "invalid type label 'A²'"),
])
def test_labels_take_only_decimal_digits(capsys, argv, message):
    # a superscript is a digit to str.isdigit, but not a decimal digit
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == f"error: {message}"


def test_empty_params_is_a_usage_error(capsys):
    code, out, err = run(capsys, "chart", "eval", "--group", "sl3", "--params", "")
    assert code == 2 and out == ""
    assert "need 3 parameters, got 0" in err


def test_chart_eval_custom_word(capsys):
    code, report, _ = run_json(capsys, "chart", "eval", "--group", "sl3",
                               "--word", "1,2", "--params", "2,3")
    assert code == 0
    assert report["values"]["matrix"] == [["1", "2", "6"], ["0", "1", "3"],
                                          ["0", "0", "1"]]


def test_chart_eval_bad_letters_name_the_word(capsys):
    code, _, err = run(capsys, "chart", "eval", "--group", "sl3",
                       "--word", "1,x")
    assert code == 2
    assert "invalid word '1,x'" in err
    # letters are the word itself; the custom choice and --letters are gone
    code, _, err = run(capsys, "chart", "eval", "--group", "sl3",
                       "--word", "custom")
    assert code == 2
    assert "invalid word 'custom'" in err
    code, _, err = run(capsys, "chart", "eval", "--group", "sl3",
                       "--word", "1,2", "--letters", "1,2")
    assert code == 2
    assert "unrecognized arguments: --letters" in err


def test_labeling_override_swaps_words(capsys):
    # what the override I0 = {1, 3} gave at eps 0 is the default at eps 1
    code, report, _ = run_json(capsys, "weights", "--type", "A3", "--eps", "1")
    assert code == 0
    assert report["values"]["word"] == [1, 3, 2, 1, 3, 2]
    code, _, err = run(capsys, "weights", "--type", "A3", "--labeling", "i0=1,3")
    assert code == 2
    assert "unrecognized arguments: --labeling" in err


def test_json_reports_stable(capsys):
    argv = ("membership", "u", "--group", "sl3", "--expr", "u(1,2)")
    _, rep1, _ = run_json(capsys, *argv)
    _, rep2, _ = run_json(capsys, *argv)
    rep1.pop("elapsed_ms")
    rep2.pop("elapsed_ms")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    assert "seed" not in rep1
    assert rep1["version"]


@pytest.mark.parametrize("flag", [("--seed", "5"), ("--config", "f")],
                         ids=["seed", "config"])
def test_removed_flags_are_usage_errors(capsys, flag):
    code, out, err = run(capsys, "weights", "--type", "A3", *flag)
    assert code == 2 and out == ""
    assert "unrecognized arguments: " + " ".join(flag) in err
    assert run(capsys, *flag, "weights", "--type", "A3")[0] == 2


@pytest.mark.parametrize("argv", [
    ("membership", "u", "--group", "sl3", "--expr", "u(1,2)"),
    ("chart", "eval", "--group", "sl3", "--params", "1,2,3"),
    ("chart", "invert", "--group", "sl3", "--eps", "0"),
    ("transition", "--group", "sl3", "--from", "jj1", "--to", "jj0"),
    ("weights", "--type", "E8"),
    ("verify-lemmas", "--type", "A2")],
    ids=["membership", "chart-eval", "chart-invert", "transition", "weights",
         "verify-lemmas"])
def test_flags_before_and_after_the_subcommand(tmp_path, capsys, argv):
    if "invert" in argv:
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps([["1", "4", "2"], ["0", "1", "2"],
                                     ["0", "0", "1"]]))
        argv += ("--matrix", str(mfile))
    # E8 is over the default rank budget, so its report shows that the
    # budget was read in either position
    flags = ("--json", "--rank-budget", "8")
    reports = []
    for order in ((*flags, *argv), (*argv, *flags)):
        code, out, _ = run(capsys, *order)
        assert code == 0
        report = json.loads(out)
        report.pop("command")
        report.pop("elapsed_ms")
        reports.append(report)
    assert reports[0] == reports[1]


def test_huge_exponent_is_a_usage_error(capsys):
    code, out, err = run(capsys, "membership", "u", "--group", "sl4",
                         "--expr", "(u(1,2)+1)^100000")
    assert code == 2 and out == ""
    assert "exponent 100000 exceeds the limit" in err and "position 11" in err


def test_degree_above_the_limit_is_a_usage_error(capsys):
    started = time.monotonic()
    code, out, err = run(capsys, "membership", "u", "--group", "sl3",
                         "--expr", "(u(1,2)^1000)^1000")
    assert code == 2 and out == ""
    assert "total degree 1000000 exceeds the limit 32767" in err
    assert time.monotonic() - started < 5


def test_a_pullback_past_the_degree_limit_is_unsupported(capsys):
    # the input's degree, 17,000, is within the limit; its pullback along
    # u:jj0, 34,000, is not, which the input did not ask for
    started = time.monotonic()
    code, out, err = run(capsys, "membership", "u", "--group", "sl3",
                         "--expr", "(u(1,3)^1000)^17")
    assert code == 3 and out == ""
    assert err == ("error: unsupported: along the chart u:jj0, the pullback's "
                   "total degree 34000 exceeds the limit 32767\n")
    assert time.monotonic() - started < 5
    # 22,000 along every G chart is within it
    code, out, _ = run(capsys, "membership", "g", "--group", "sl3",
                       "--expr", "(g(3,1)^1000)^11")
    assert code == 0 and "member: True" in out


def test_an_internal_kernel_failure_exits_three(monkeypatch, capsys):
    # a gcd that does not divide: the exact division by it is the kernel's
    # fault, not the input's
    from bircharts import exact_arith

    def not_a_divisor(p, q):
        return p + exact_arith.MultiPoly.variable(p.vars, p.vars[0])

    monkeypatch.setattr(exact_arith, "poly_gcd", not_a_divisor)
    code, out, err = run(capsys, "membership", "g", "--group", "sl3", "--expr",
                         "(g(1,1)*g(2,2)+1)/(g(1,2)*g(2,1)+2)")
    assert code == 3 and out == ""
    assert err.startswith("internal error: KernelInvariantError: "
                          "polynomial division is not exact")


def test_a_pullback_past_the_term_budget_is_unsupported(capsys):
    # the pullback (a1 + a2 + a3)^1000 has 501,501 terms; the power table
    # of u(2,3) -> a1 + a3 alone passes the budget, and the run stops there
    started = time.monotonic()
    code, out, err = run(capsys, "membership", "u", "--group", "sl3",
                         "--expr", "(u(1,2)+u(2,3))^1000")
    assert code == 3 and out == ""
    assert err.startswith("error: unsupported: the pullback would multiply "
                          "more than 1000000 pairs of terms")
    assert time.monotonic() - started < 5


def test_a_power_past_the_term_budget_is_unsupported(capsys):
    # squaring toward the 501,501-term power is refused in the parse
    started = time.monotonic()
    code, out, err = run(capsys, "membership", "u", "--group", "sl3",
                         "--expr", "(u(1,2)+u(2,3)+u(1,3))^1000")
    assert code == 3 and out == ""
    assert err.startswith("error: unsupported: a product of 861 by 2145 terms")
    assert time.monotonic() - started < 5


def test_long_literal_is_a_usage_error(capsys):
    code, out, err = run(capsys, "membership", "u", "--group", "sl4",
                         "--expr", "u(1,2) + " + "1" * 5000)
    assert code == 2 and out == ""
    assert "exceeds the limit" in err and "position 9" in err


@pytest.mark.parametrize("depth", [250, 10000])
def test_deep_parentheses_are_a_usage_error(capsys, depth):
    code, out, err = run(capsys, "membership", "u", "--group", "sl3", "--expr",
                         "(" * depth + "u(1,2)" + ")" * depth)
    assert code == 2 and out == ""
    assert "nested deeper than the limit" in err and "position 100" in err


def test_a_thousand_unary_minus_signs_decide(capsys):
    code, report, _ = run_json(capsys, "membership", "u", "--group", "sl3",
                               "--expr=" + "-" * 1000 + "u(1,2)")
    assert code == 0 and report["member"] is True


def test_a_deeply_nested_matrix_file_is_a_usage_error(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    mfile.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "chart", "invert", "--group", "sl2",
                         "--eps", "0", "--matrix", str(mfile))
    assert code == 2 and out == ""
    assert "nests its JSON arrays too deeply" in err


def test_unsupported_requests_exit_three(tmp_path, capsys):
    # refused before the matrix file is read, so a missing file is fine
    code, out, err = run(capsys, "chart", "invert", "--group", "sl7", "--eps", "0",
                         "--matrix", str(tmp_path / "absent.json"))
    assert code == 3 and out == ""
    assert err.startswith("error: unsupported: chart inversion")
    # the search budget is gone with the search
    assert run(capsys, "transition", "--group", "sl3", "--from", "jj1", "--to",
               "jj0", "--bfs-budget", "5")[0] == 2


@pytest.mark.parametrize("space,stem,bound", [("u", "u", 20), ("g-mod-u", "g", 16),
                                              ("g", "g", 8)])
def test_membership_above_its_bound_exits_three_before_parsing(capsys, space,
                                                               stem, bound):
    # at the bound the expression is parsed: an entry outside the group is
    # a usage error
    code, _, err = run(capsys, "membership", space, "--group", f"sl{bound}",
                       "--expr", f"{stem}(1,{bound + 1})")
    assert code == 2 and "out of bounds" in err
    # above it nothing is parsed, so the same input is refused as unsupported
    for n in (bound + 1, 3000):
        started = time.monotonic()
        code, out, err = run(capsys, "membership", space, "--group", f"sl{n}",
                             "--expr", f"{stem}(1,{bound + 1})")
        assert code == 3 and out == ""
        assert err.startswith("error: unsupported: ")
        assert f"up to sl{bound}, not sl{n}" in err
        assert time.monotonic() - started < 1


@pytest.mark.parametrize("argv", [("transition", "--from", "1", "--to", "1"),
                                  ("chart", "eval", "--word", "1", "--params", "1")],
                         ids=["transition", "chart-eval"])
def test_charts_and_transitions_above_their_bound_exit_three(capsys, argv):
    # at the bound a one-letter word runs
    assert run(capsys, *argv, "--group", "sl50")[0] == 0
    # above it nothing is built, not even the datum
    for n in (51, 100000):
        started = time.monotonic()
        code, out, err = run(capsys, *argv, "--group", f"sl{n}")
        assert code == 3 and out == ""
        assert err.startswith("error: unsupported: ")
        assert f"up to sl50, not sl{n}" in err
        assert time.monotonic() - started < 1


def test_transition_builds_one_datum(capsys, monkeypatch):
    # the CLI and the twist share the cached A_{n-1} datum
    built = []
    init = root_data.CartanDatum.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(root_data.CartanDatum, "__init__", counting)
    sl_realization._datum_for.cache_clear()
    code, _, _ = run(capsys, "transition", "--group", "sl7",
                     "--from", "1,2,1", "--to", "2,1,2")
    assert code == 0 and built == [("A", 6)]


def test_symbolic_chart_eval_has_the_u_membership_bound(capsys):
    # the symbolic chart is the chart a U membership decision builds
    started = time.monotonic()
    code, out, err = run(capsys, "chart", "eval", "--group", "sl21")
    assert code == 3 and out == ""
    assert "up to sl20, not sl21" in err
    assert time.monotonic() - started < 1
    assert run(capsys, "chart", "eval", "--group", "sl3")[0] == 0


# Standard-library modules that no command should load: dataclasses brings
# inspect, ast, dis and tokenize with it.
_HEAVY = ("dataclasses", "inspect")

# Runs the CLI in a fresh interpreter and prints the bircharts modules and
# the _HEAVY modules it loaded; with no arguments it only imports the CLI.
_LOADED = ("import sys, bircharts.cli as cli; "
           "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
           "print(*sorted(m for m in sys.modules "
           f"if m.startswith('bircharts') or m in {_HEAVY!r})); "
           "sys.exit(code)")
_BARE = f"import sys; print(*sorted(m for m in sys.modules if m in {_HEAVY!r}))"


def _fresh_interpreter(snippet, *argv):
    src = Path(bircharts.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", snippet, *argv],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


@functools.lru_cache(maxsize=None)
def _bare_modules():
    """The _HEAVY modules that an interpreter loads before any import."""
    return frozenset(_fresh_interpreter(_BARE))


def loaded_modules(*argv):
    """The bircharts modules a CLI run loads, and the _HEAVY modules it
    loads beyond those of a bare interpreter."""
    return _fresh_interpreter(_LOADED, *argv) - _bare_modules()


@pytest.mark.parametrize("argv", [(), ("weights", "--type", "A3"),
                                  ("verify-lemmas", "--type", "A3")],
                         ids=["import", "weights", "verify-lemmas"])
def test_weight_commands_load_only_root_data(argv):
    assert loaded_modules(*argv) == {"bircharts", "bircharts.cli",
                                     "bircharts.root_data"}


def test_each_subcommand_loads_only_what_it_runs():
    loaded = loaded_modules("transition", "--group", "sl4", "--from", "jj1",
                            "--to", "jj0")
    assert "bircharts.braid_engine" in loaded
    assert not loaded & {"bircharts.membership", "bircharts.exprparse"}
    loaded = loaded_modules("membership", "u", "--group", "sl3", "--expr", "u(1,3)")
    assert "bircharts.membership" in loaded
    assert "bircharts.braid_engine" not in loaded


@pytest.mark.parametrize("argv", [
    (), ("weights", "--type", "A3"), ("verify-lemmas", "--type", "A3"),
    ("transition", "--group", "sl4", "--from", "jj1", "--to", "jj0"),
    ("membership", "u", "--group", "sl3", "--expr", "u(1,3)"),
    ("chart", "eval", "--group", "sl3", "--params", "1,2,3"),
], ids=["import", "weights", "verify-lemmas", "transition", "membership-u",
        "chart-eval"])
def test_no_command_loads_dataclasses_or_inspect(argv):
    assert not loaded_modules(*argv) & set(_HEAVY)
