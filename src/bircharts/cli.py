"""Command-line front end.

Subcommands: membership (u | g-mod-u | g), chart (eval | invert),
transition, weights, verify-lemmas.  Reports print human-readable by
default and as stable JSON with --json.

Exit codes: 0 success / member, 1 valid run with a negative verdict,
2 usage error, 3 unsupported request or internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .braid_engine import transition
from .exact_arith import RatFunc
from .exprparse import ParseError, parse_expression
from .membership import (DEFAULT_SEED, decide_O_G, decide_O_GmodU, decide_O_U,
                         g_variables, invert_chart, require_invertible,
                         u_variables)
from .root_data import (cartan, chart_weights, distinguished_word, parse_type,
                        verify_lemmas, weight_sets)
from .sl_realization import GroupMatrix, Unsupported, chart_U

DEFAULT_RANK_BUDGET = 6


class UsageError(ValueError):
    pass


class NegativeVerdict(Exception):
    """Valid run whose outcome is negative (exit code 1)."""

    def __init__(self, report):
        self.report = report


def _parse_group(text: str) -> int:
    text = text.strip().lower()
    if not text.startswith("sl") or not text[2:].isdigit():
        raise UsageError(f"invalid group {text!r}; expected slN")
    n = int(text[2:])
    if n < 2:
        raise UsageError("group size must be at least 2")
    return n


def _parse_labeling(text):
    if text is None:
        return None
    text = text.strip()
    if not text.startswith("i0="):
        raise UsageError("labeling must look like i0=2 or i0=1,3")
    try:
        return {int(x) for x in text[3:].split(",") if x}
    except ValueError:
        raise UsageError("labeling must list integer nodes") from None


_CONFIG_KEYS = ("group", "labeling", "seed", "rank-budget")


def _read_config(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r}; expected one of "
                                 + ", ".join(_CONFIG_KEYS))
            values[key] = val
    return values


def _datum_for_group(n: int, labeling):
    return cartan("A", n - 1, i0=labeling)


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


# space -> (variable universe, decision); the decisions are looked up at
# call time, so a wrapper put on their module-level names sees the call
_SPACES = {
    "u": (u_variables, lambda *a: decide_O_U(*a)),
    "g-mod-u": (g_variables, lambda *a: decide_O_GmodU(*a)),
    "g": (g_variables, lambda *a: decide_O_G(*a)),
}


def _cmd_membership(args, common):
    n = _parse_group(args.group)
    datum = _datum_for_group(n, common["labeling"])
    variables, decide = _SPACES[args.space]
    verdict = decide(parse_expression(args.expr, variables(n)), n, datum)
    report = {
        "group": f"sl{n}",
        "member": verdict.member,
        "certificates": _certificates_json(verdict),
    }
    if not verdict.member:
        report["failing_chart"] = verdict.failing_chart.label
        raise NegativeVerdict(report)
    return report


def _cmd_chart_eval(args, common):
    n = _parse_group(args.group)
    datum = _datum_for_group(n, common["labeling"])
    if args.word == "custom":
        if not args.letters:
            raise UsageError("--word custom requires --letters")
        word = tuple(int(x) for x in args.letters.split(","))
    else:
        word, _ = _word_arg(args.word, datum)
    stem = "b" if args.word == "jj1" else "a"
    universe = tuple(f"{stem}{k}" for k in range(1, len(word) + 1))
    if args.params:
        texts = args.params.split(",")
        if len(texts) != len(word):
            raise UsageError(
                f"need {len(word)} parameters, got {len(texts)}")
        params = [parse_expression(t, universe) for t in texts]
    else:
        params = [RatFunc.var(universe, v) for v in universe]
    matrix = chart_U(word, params, n)
    return {
        "group": f"sl{n}",
        "values": {
            "word": list(word),
            "matrix": [[str(e) for e in row] for row in matrix.entries],
        },
    }


def _cmd_chart_invert(args, common):
    n = _parse_group(args.group)
    require_invertible(n)
    datum = _datum_for_group(n, common["labeling"])
    with open(args.matrix) as fh:
        raw = json.load(fh)
    if (not isinstance(raw, list) or len(raw) != n
            or any(not isinstance(r, list) or len(r) != n for r in raw)):
        raise UsageError(f"matrix file must hold an {n}x{n} array of expressions")
    universe = u_variables(n)
    entries = [[parse_expression(str(e), universe) for e in row] for row in raw]
    matrix = GroupMatrix(entries)
    if not matrix.is_upper_unitriangular:
        raise UsageError("chart inversion expects an upper unitriangular matrix")
    try:
        params = invert_chart(matrix, args.eps, n, datum)
    except ValueError as exc:
        raise NegativeVerdict({"group": f"sl{n}", "error": str(exc)}) from None
    return {
        "group": f"sl{n}",
        "values": {
            "eps": args.eps,
            "params": [str(p) for p in params],
        },
    }


def _cmd_transition(args, common):
    n = _parse_group(args.group)
    datum = _datum_for_group(n, common["labeling"])
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


def _check_rank_budget(datum, budget):
    if datum.rank > budget:
        raise UsageError(
            f"rank {datum.rank} exceeds the rank budget {budget}")


def _cmd_weights(args, common):
    letter, rank = parse_type(args.type)
    datum = cartan(letter, rank, i0=common["labeling"])
    _check_rank_budget(datum, common["rank_budget"])
    cw = chart_weights(datum, args.eps)
    y_prime, y_dprime, y_eps = weight_sets(datum, args.eps)
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


def _cmd_verify(args, common):
    labels = _SMALL_TYPES if args.all_small_types else (args.type,)
    if labels == (None,):
        raise UsageError("verify-lemmas needs --type or --all-small-types")
    results = {}
    ok = True
    for label in labels:
        letter, rank = parse_type(label)
        datum = cartan(letter, rank, i0=common["labeling"])
        _check_rank_budget(datum, common["rank_budget"])
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
    parser.add_argument("--seed", type=int, default=d(None))
    parser.add_argument("--json", action="store_true", default=d(False))
    parser.add_argument("--labeling", default=d(None),
                        help="bipartition override, e.g. i0=2 or i0=1,3")
    parser.add_argument("--config", default=d(None),
                        help="key = value file with defaults ("
                        + ", ".join(_CONFIG_KEYS) + ")")
    parser.add_argument("--rank-budget", type=int, default=d(None))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bircharts",
        description="Exact birational charts and coordinate-ring membership for SL_n")
    _add_common(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def subparser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_common(p, root=False)
        return p

    p = subparser("membership", help="decide coordinate-ring membership")
    p.add_argument("space", choices=list(_SPACES))
    p.add_argument("--group", required=False)
    p.add_argument("--expr", required=True)

    p = subparser("chart", help="evaluate or invert a unipotent chart")
    charts = p.add_subparsers(dest="chart_command", required=True)

    def chart_sub(name):
        q = charts.add_parser(name)
        _add_common(q, root=False)
        return q

    pe = chart_sub("eval")
    pe.add_argument("--group", required=False)
    pe.add_argument("--word", choices=["jj0", "jj1", "custom"], default="jj0")
    pe.add_argument("--letters", default=None)
    pe.add_argument("--params", default=None)
    pi = chart_sub("invert")
    pi.add_argument("--group", required=False)
    pi.add_argument("--eps", type=int, choices=[0, 1], required=True)
    pi.add_argument("--matrix", required=True,
                    help="JSON file with an n x n array of expression strings")

    p = subparser("transition", help="parameter transform between reduced words")
    p.add_argument("--group", required=False)
    p.add_argument("--from", dest="from_word", required=True)
    p.add_argument("--to", dest="to_word", required=True)

    p = subparser("weights", help="weight families of a bipartite word")
    p.add_argument("--type", required=True)
    p.add_argument("--eps", type=int, choices=[0, 1], default=0)

    p = subparser("verify-lemmas", help="run the combinatorial check suite")
    p.add_argument("--type", default=None)
    p.add_argument("--all-small-types", action="store_true")

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
    values, the effective seed, timing, and the package version.
    """
    started = time.monotonic()
    try:
        config = _read_config(args.config) if args.config else {}
        common = {
            "labeling": _parse_labeling(
                args.labeling if args.labeling is not None
                else config.get("labeling")),
            "seed": args.seed if args.seed is not None
            else int(config.get("seed", DEFAULT_SEED)),
            "rank_budget": args.rank_budget if args.rank_budget is not None
            else int(config.get("rank-budget", DEFAULT_RANK_BUDGET)),
        }
        if getattr(args, "group", None) is None and hasattr(args, "group"):
            args.group = config.get("group", "sl4")
        if getattr(args, "chart_command", None) is not None:
            handler = (_cmd_chart_eval if args.chart_command == "eval"
                       else _cmd_chart_invert)
        else:
            handler = {
                "membership": _cmd_membership,
                "transition": _cmd_transition,
                "weights": _cmd_weights,
                "verify-lemmas": _cmd_verify,
            }[args.command]
        code, report = 0, handler(args, common)
    except NegativeVerdict as verdict:
        code, report = 1, dict(verdict.report)
    except Unsupported as exc:
        return 3, None, f"error: unsupported: {exc}"
    except (UsageError, ParseError, ValueError, OSError,
            ZeroDivisionError, json.JSONDecodeError) as exc:
        return 2, None, f"error: {exc}"
    except Exception as exc:  # internal invariant failure
        return 3, None, f"internal error: {type(exc).__name__}: {exc}"
    report["command"] = " ".join(argv)
    report["seed"] = common["seed"]
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
