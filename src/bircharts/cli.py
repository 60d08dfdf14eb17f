"""Command-line front end.

Subcommands: membership (u | g-mod-u | g), chart (eval | invert),
transition, weights, verify-lemmas.  --json and --rank-budget go before
or after the subcommand; every other setting is a flag of the subcommand.
Reports print human-readable by default and as stable JSON with --json.
A word is jj0, jj1 or letters.

Exit codes: 0 success / member, 1 valid run with a negative verdict,
2 usage error, 3 unsupported request (such as a group above a membership,
inversion or chart bound, refused before the input is read) or internal
invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
# Every subcommand needs root_data; each handler imports the rest of what it
# runs, so that weights and verify-lemmas load neither the exact kernel nor
# the charts.
from .root_data import (Unsupported, _families, cartan, distinguished_word,
                        parse_type, verify_lemmas)

DEFAULT_RANK_BUDGET = 6


class UsageError(ValueError):
    pass


class NegativeVerdict(Exception):
    """Valid run whose outcome is negative (exit code 1)."""

    def __init__(self, report):
        self.report = report


def _parse_group(text: str) -> int:
    text = text.strip().lower()
    if not text.startswith("sl") or not text[2:].isdecimal():
        raise UsageError(f"invalid group {text!r}; expected slN")
    n = int(text[2:])
    if n < 2:
        raise UsageError("group size must be at least 2")
    return n


def _word_arg(text: str, datum):
    text = text.strip().lower()
    if text in ("jj0", "jj1"):
        return distinguished_word(datum, int(text[2])), text
    try:
        letters = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"invalid word {text!r}; expected jj0, jj1 or letters") from None
    return letters, "custom"


def _certificates_json(verdict):
    return [{"chart": c.chart.label, "pullback": str(c.pullback), "ok": c.ok}
            for c in verdict.certificates]


# -- subcommand handlers -------------------------------------------------


# space -> (chart table, variable universe, decision); the last two are
# names in membership, looked up at call time, so a wrapper put on them
# sees the call
_SPACES = {
    "u": ("U", "u_variables", "decide_O_U"),
    "g-mod-u": ("GmodU", "g_variables", "decide_O_GmodU"),
    "g": ("G", "g_variables", "decide_O_G"),
}


def _cmd_membership(args):
    from . import membership
    from .exprparse import parse_expression

    n = _parse_group(args.group)
    space, variables, decide = _SPACES[args.space]
    membership.require_decidable(space, n)
    universe = getattr(membership, variables)(n)
    verdict = getattr(membership, decide)(parse_expression(args.expr, universe), n)
    report = {
        "group": f"sl{n}",
        "member": verdict.member,
        "certificates": _certificates_json(verdict),
    }
    if not verdict.member:
        report["failing_chart"] = verdict.failing_chart.label
        raise NegativeVerdict(report)
    return report


# The largest n a chart eval or transition is built for.  It was set as the
# largest n whose slowest input finished cold within 10 s; now (CLI, Python
# 3.11) eval of jj0 or jj1 with every parameter 1 takes 0.6 s at sl50, and
# transition jj1 -> jj0 is refused on its run length in 0.2 s.  It stays
# until the fixed caps are derived from one per-run work budget.
_MAX_CHART_N = 50


def _sl_datum(n: int):
    from .sl_realization import _datum_for

    if n > _MAX_CHART_N:
        raise Unsupported(f"charts and transitions are built up to "
                          f"sl{_MAX_CHART_N}, not sl{n}")
    return _datum_for(n)


def _cmd_chart_eval(args):
    from .exact_arith import RatFunc
    from .exprparse import parse_expression
    from .membership import param_names, require_decidable
    from .sl_realization import chart_U

    n = _parse_group(args.group)
    if args.params is None:
        # the symbolic chart is the one a U membership decision builds
        require_decidable("U", n)
    word, tag = _word_arg(args.word, _sl_datum(n))
    universe = param_names(1 if tag == "jj1" else 0, len(word))
    if args.params is None:
        params = [RatFunc.var(universe, v) for v in universe]
    else:
        texts = args.params.split(",") if args.params else []
        if len(texts) != len(word):
            raise UsageError(
                f"need {len(word)} parameters, got {len(texts)}")
        # a constant goes in over the empty universe, so that the column
        # operations on it do not carry exponent keys of the word's width
        params = [RatFunc.const((), p.const_value) if p.is_const else p
                  for p in (parse_expression(t, universe) for t in texts)]
    matrix = chart_U(word, params, n)
    return {
        "group": f"sl{n}",
        "values": {
            "word": list(word),
            "matrix": [[str(e) for e in row] for row in matrix.entries],
        },
    }


def _cmd_chart_invert(args):
    from .exprparse import parse_expression
    from .membership import invert_chart, require_invertible, u_variables
    from .sl_realization import GroupMatrix

    n = _parse_group(args.group)
    require_invertible(n)
    with open(args.matrix) as fh:
        try:
            raw = json.load(fh)
        except RecursionError:
            raise UsageError("matrix file nests its JSON arrays too deeply") from None
    if (not isinstance(raw, list) or len(raw) != n
            or any(not isinstance(r, list) or len(r) != n for r in raw)):
        raise UsageError(f"matrix file must hold an {n}x{n} array of expressions")
    universe = u_variables(n)
    entries = [[parse_expression(str(e), universe) for e in row] for row in raw]
    matrix = GroupMatrix(entries)
    if not matrix.is_upper_unitriangular:
        raise UsageError("chart inversion expects an upper unitriangular matrix")
    try:
        params = invert_chart(matrix, args.eps, n)
    except ValueError as exc:
        raise NegativeVerdict({"group": f"sl{n}", "error": str(exc)}) from None
    return {
        "group": f"sl{n}",
        "values": {
            "eps": args.eps,
            "params": [str(p) for p in params],
        },
    }


def _cmd_transition(args):
    from .braid_engine import transition

    n = _parse_group(args.group)
    datum = _sl_datum(n)
    word1, tag1 = _word_arg(args.from_word, datum)
    word2, tag2 = _word_arg(args.to_word, datum)
    stems = {"jj0": "a", "jj1": "b", "custom": "c"}
    names = tuple(f"{stems[tag1]}{k}" for k in range(1, len(word1) + 1))
    tmap = transition(word1, word2, datum, param_names=names)
    target_stem = stems[tag2] if tag2 != "custom" else "p"
    return {
        "group": f"sl{n}",
        "values": {
            "source_word": list(tmap.source_word),
            "target_word": list(tmap.target_word),
            "source_params": list(names),
            "formulas": {
                f"{target_stem}{k}": str(f)
                for k, f in enumerate(tmap.formulas, 1)
            },
        },
    }


def _type_datum(label, budget):
    """The datum of a type label; the type and the rank budget are checked
    on the label, before anything is built."""
    letter, rank = parse_type(label)
    if rank > budget:
        raise UsageError(f"rank {rank} exceeds the rank budget {budget}")
    return cartan(letter, rank)


def _cmd_weights(args):
    datum = _type_datum(args.type, args.rank_budget)
    # one walk for the chart weights and the weight sets together
    cw, (y_prime, y_dprime, y_eps), _ = _families(datum, args.eps)
    return {
        "group": args.type,
        "values": {
            "eps": args.eps,
            "word": list(cw.word),
            "blocks": [list(b) for b in cw.blocks],
            "gamma": {str(k): str(w) for k, w in sorted(cw.gamma.items())},
            "gamma_tilde": {str(k): str(w) for k, w in sorted(cw.gamma_tilde.items())},
            "stage": {f"l={l},i={i}": str(w)
                      for (l, i), w in sorted(cw.stage.items())},
            "fundamental": sorted(str(w) for w in y_prime),
            "lowest": sorted(str(w) for w in y_dprime),
            "interior": sorted(str(w) for w in y_eps),
        },
    }


_SMALL_TYPES = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "C3", "D4", "G2")


def _cmd_verify(args):
    labels = _SMALL_TYPES if args.all_small_types else (args.type,)
    results = {}
    ok = True
    for label in labels:
        datum = _type_datum(label, args.rank_budget)
        report = verify_lemmas(datum)
        ok = ok and report.all_passed
        results[label] = [
            {"name": c.name, "passed": c.passed, "skipped": c.skipped,
             **({"detail": c.detail} if c.detail else {})}
            for c in report.checks
        ]
    report = {"group": ",".join(labels), "values": {"checks": results},
              "member": ok}
    if not ok:
        raise NegativeVerdict(report)
    return report


# -- driver ---------------------------------------------------------------


def _add_common(parser, root: bool):
    # Present on the root parser with real defaults and on every subparser
    # with SUPPRESS defaults, so the flags work in either position without
    # the subparser clobbering values parsed at the root.
    d = (lambda v: v) if root else (lambda v: argparse.SUPPRESS)
    parser.add_argument("--json", action="store_true", default=d(False))
    parser.add_argument("--rank-budget", type=int, default=d(DEFAULT_RANK_BUDGET))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bircharts",
        description="Exact birational charts and coordinate-ring membership for SL_n")
    _add_common(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(parent, name, handler=None, **kwargs):
        p = parent.add_parser(name, **kwargs)
        _add_common(p, root=False)
        if handler is not None:
            p.set_defaults(handler=handler)
        return p

    p = subparser(sub, "membership", _cmd_membership,
                  help="decide coordinate-ring membership")
    p.add_argument("space", choices=list(_SPACES))
    p.add_argument("--group", default="sl4")
    p.add_argument("--expr", required=True)

    p = subparser(sub, "chart", help="evaluate or invert a unipotent chart")
    charts = p.add_subparsers(dest="chart_command", required=True)
    pe = subparser(charts, "eval", _cmd_chart_eval)
    pe.add_argument("--group", default="sl4")
    pe.add_argument("--word", default="jj0", help="jj0, jj1 or letters, e.g. 1,2,1")
    pe.add_argument("--params", default=None)
    pi = subparser(charts, "invert", _cmd_chart_invert)
    pi.add_argument("--group", default="sl4")
    pi.add_argument("--eps", type=int, choices=[0, 1], required=True)
    pi.add_argument("--matrix", required=True,
                    help="JSON file with an n x n array of expression strings")

    p = subparser(sub, "transition", _cmd_transition,
                  help="parameter transform between reduced words")
    p.add_argument("--group", default="sl4")
    p.add_argument("--from", dest="from_word", required=True)
    p.add_argument("--to", dest="to_word", required=True)

    p = subparser(sub, "weights", _cmd_weights,
                  help="weight families of a bipartite word")
    p.add_argument("--type", required=True)
    p.add_argument("--eps", type=int, choices=[0, 1], default=0)

    p = subparser(sub, "verify-lemmas", _cmd_verify,
                  help="run the combinatorial check suite")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--type")
    which.add_argument("--all-small-types", action="store_true")

    return parser


def _print_human(report):
    for key, value in report.items():
        if key == "certificates":
            print("certificates:")
            for c in value:
                mark = "ok" if c["ok"] else "REJECT"
                print(f"  {c['chart']}: {c['pullback']}  [{mark}]")
        elif key == "values" and isinstance(value, dict):
            for k, v in value.items():
                print(f"{k}: {json.dumps(v) if isinstance(v, (list, dict)) else v}")
        else:
            print(f"{key}: {value}")


def run_command(argv, args) -> tuple:
    """Execute a parsed invocation; returns (exit_code, report or None, error).

    The report carries the command echo, group descriptor, verdicts or
    values, timing, and the package version.
    """
    started = time.monotonic()
    try:
        code, report = 0, args.handler(args)
    except NegativeVerdict as verdict:
        code, report = 1, dict(verdict.report)
    except Unsupported as exc:
        return 3, None, f"error: unsupported: {exc}"
    except (ValueError, OSError, ZeroDivisionError) as exc:
        # usage, parse and JSON errors are ValueErrors too
        return 2, None, f"error: {exc}"
    except Exception as exc:  # internal invariant failure
        return 3, None, f"internal error: {type(exc).__name__}: {exc}"
    report["command"] = " ".join(argv)
    report["version"] = __version__
    report["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    return code, report, None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    code, report, error = run_command(argv, args)
    if error is not None:
        print(error, file=sys.stderr)
        return code
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        _print_human(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
