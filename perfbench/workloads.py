"""Workload definitions: seeded inputs, the ops that run them, and checks.

Every input is generated from the run seed with the independent
constructions in ``oracle``; the program receives only expression
strings, parameter lists and argv.  Each generated input carries the
outcome known by construction:

* a polynomial in the u_ij (g_ij) is a member of O(U) (O(G));
* a polynomial in right-justified minors (columns n-k+1..n, k < n) is
  right-invariant and a member of O(G/U-);
* c/r with c a non-zero constant and r non-constant on the space is a
  non-member, because only constants are units there (on SL_n, a
  polynomial of degree < n that is not constant as a polynomial is not
  constant on the group);
* positive chart parameters land in the big cell, so the twist there is
  the one computed independently with Fractions, it is an involution, and
  every interior minor of the twisted point is non-zero;
* a transition's formulas, substituted into the target chart, reproduce
  the source chart (checked at a positive rational point);
* verify-lemmas passes for every type.

A round is a fixed multiset of op kinds in a seeded order, so every round
of a workload does the same mix of work on fresh inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import (Poly, evaluate, g_names, group_matrix, minor, u_names,
                    unipotent_matrix, upper_chart)

# Why each workload exists; BENCHMARK.json carries the same text.
WHY = {
    "session-sparse": "one process deciding short sparse inputs at sl3-sl7: chart "
                      "builds take ~86% of op time and repeat on ~90% of calls, so "
                      "a chart or lift cache shows here",
    "session-dense": "criterion-04-style dense polynomials and gcd ratios at "
                     "sl4-sl5: substitute takes ~56% of op time, the kernel ~96% of "
                     "self time; chart build ~36% bounds a chart cache's gain",
    "numeric-spot": "chart_U, twist and interior minors at fresh positive "
                    "rationals, sl3-sl6: lift ~71%, determinants ~26%, all constant "
                    "RatFunc arithmetic; a value-keyed chart cache never hits",
    "cli-oneshot": "one CLI child per op: process start and import ~57% of op "
                   "time, braid search ~14%, root_data ~5%; no cross-call cache; "
                   "includes the sl6 transition that exceeds its search budget",
}

# (kind, n, count) per round.  Counts favour the small sizes so that a
# round holds at least 100 ops, which puts at least 10 samples beyond p90,
# and they put p50 and p90 inside groups of ops of like cost rather than
# on the edge between two groups, where they would jump from run to run.
# In cli-oneshot, p50 falls among the verify-lemmas and sl4 transition
# commands, whose inputs are fixed, which keeps it steadier than among
# commands with generated expressions.
PLANS = {
    "session-sparse": [
        ("u", 4, 36), ("u", 5, 20), ("u", 6, 4), ("u", 7, 1),
        ("g-mod-u", 3, 36), ("g-mod-u", 4, 5), ("g-mod-u", 5, 1),
        ("g", 3, 18), ("g", 4, 2), ("g", 5, 1),
    ],
    "session-dense": [
        ("dense", 4, 75), ("dense", 5, 25),
    ],
    "numeric-spot": [
        ("numeric", 3, 38), ("numeric", 4, 30), ("numeric", 5, 12), ("numeric", 6, 20),
    ],
    "cli-oneshot": [
        ("u", 4, 10), ("u", 5, 4), ("u", 6, 4), ("u", 7, 1),
        ("g-mod-u", 3, 8), ("g-mod-u", 4, 4), ("g-mod-u", 5, 1),
        ("g", 3, 4), ("g", 4, 1), ("g", 5, 1),
        ("transition", 4, 20), ("transition", 5, 3), ("transition", 6, 1),
        ("verify", "small", 4), ("verify", "single", 36),
        ("verify", "E6", 1), ("verify", "E7", 2), ("verify", "E8", 1),
    ],
}

# Powers of the dense inputs per n, for the entries u(i, i+d), d = 1, 2,
# ...: (the large factor p, the small gcd factor q).  Per-variable degree
# is at most 3 at sl4 and 2 at sl5; p is large enough that its pullback,
# not the chart, dominates.
DENSE_EXPONENTS = {
    3: (((2, 1), (1,)), ((1, 0), (1,))),
    4: (((3, 3, 2), (3, 2), (1,)), ((2, 1, 0), (1, 0), (0,))),
    5: (((2, 1, 1, 0), (1, 1, 1), (1, 1), (0,)),
        ((1, 1, 0, 0), (1, 0, 0), (0, 0), (0,))),
}

SINGLE_TYPES = ("A3", "A4", "B3", "C3", "D4", "G2", "F4", "B4")


@dataclass
class Op:
    kind: str        # "u", "g-mod-u", "g", "dense", "numeric", "transition", "verify"
    n: object        # group size, or the verify-lemmas selector
    payload: object  # expression text, (eps, params), or CLI argv
    expect: object   # expected membership verdict; None where not a verdict
    label: str       # shape tag, for failure reports


# -- seeded generators --------------------------------------------------------


def _nonzero(rng, lo=1, hi=9) -> int:
    return rng.randint(lo, hi) * rng.choice((1, -1))


def sparse_poly(rng, names, degree: int) -> Poly:
    """1-3 terms, each a product of 1..degree variables, plus maybe a
    constant; never constant."""
    p = Poly()
    while p.is_const:
        p = Poly.const(rng.randint(0, 3))
        for _ in range(rng.randint(1, 3)):
            term = Poly.const(_nonzero(rng))
            for name in rng.choices(names, k=rng.randint(1, degree)):
                term = term * Poly.var(name)
            p = p + term
    return p


def dense_poly(rng, n: int, exponents, terms: int) -> Poly:
    """Criterion-04-style: every term raises every u-entry to a power.
    ``exponents[d - 1]`` lists the powers of the entries u(i, i+d), dealt
    out among them in a seeded order; the size of an entry's pullback
    grows with d, so fixing the powers per d keeps the cost of an op
    nearly the same from seed to seed."""
    p = Poly()
    while p.is_const:
        p = Poly()
        for _ in range(terms):
            term = Poly.const(_nonzero(rng, 1, 5))
            for d, powers in enumerate(exponents, 1):
                names = [f"u({i},{i + d})" for i in range(1, n - d + 1)]
                for name, k in zip(names, rng.sample(powers, len(powers))):
                    term = term * Poly.var(name) ** k
            p = p + term
    return p


def flag_minor(rng, n: int) -> Poly:
    """Minor of the symbolic unipotent matrix on rows 1..k (k <= 3, as the
    interior minors of criterion 04 at sl4) and a random column set other
    than 1..k; a non-constant polynomial in the u_ij."""
    um = unipotent_matrix(n)
    while True:
        k = rng.randint(1, min(n - 1, 3))
        cols = sorted(rng.sample(range(n), k))
        if cols == list(range(k)):
            continue
        m = minor(um, list(range(k)), cols)
        if not m.is_const:
            return m


def right_minor(rng, n: int) -> Poly:
    """Minor of the symbolic group matrix on the last k columns, k < n and
    k <= 2 so that the inputs stay sparse."""
    k = rng.randint(1, min(n - 1, 2))
    rows = sorted(rng.sample(range(n), k))
    return minor(group_matrix(n), rows, list(range(n - k, n)))


def membership_input(rng, kind: str, n: int, index: int):
    """(text, expected member, shape) for the index-th op of this kind."""
    if kind == "u":
        names = u_names(n)
        shape = ("member", "member", "pole", "minor")[index % 4]
        if shape == "member":
            return sparse_poly(rng, names, 3).text(), True, shape
        r = sparse_poly(rng, names, 2) if shape == "pole" else flag_minor(rng, n)
        return f"{rng.randint(1, 9)}/({r.text()})", False, shape
    if kind == "g-mod-u":
        shape = ("member", "pole")[index % 2]
        if shape == "pole":
            r = right_minor(rng, n) + Poly.const(rng.randint(-3, 3))
            return f"{rng.randint(1, 9)}/({r.text()})", False, shape
        p = Poly.const(rng.randint(0, 3))
        for _ in range(rng.randint(1, 2)):
            term = Poly.const(_nonzero(rng))
            for _ in range(rng.randint(1, 2)):
                term = term * right_minor(rng, n)
            p = p + term
        return p.text(), True, shape
    if kind == "g":
        names = g_names(n)
        shape = ("member", "pole")[index % 2]
        if shape == "member":
            return sparse_poly(rng, names, 2).text(), True, shape
        return f"{rng.randint(1, 9)}/({sparse_poly(rng, names, min(2, n - 1)).text()})", \
            False, shape
    if kind == "dense":
        big, small = DENSE_EXPONENTS[n]
        shape = ("member", "member", "gcd-member", "gcd-pole")[index % 4]
        p = dense_poly(rng, n, big, 4)
        if shape == "member":
            return p.text(), True, shape
        q = dense_poly(rng, n, small, 2)
        if shape == "gcd-member":
            return f"(({p.text()})*({q.text()}))/({q.text()})", True, shape
        return f"({q.text()})/(({q.text()})*({p.text()}))", False, shape
    raise ValueError(f"unknown membership kind {kind!r}")


def cli_argv(rng, kind: str, n, index: int):
    """(argv after the program name, expected verdict, shape)."""
    if kind in ("u", "g-mod-u", "g"):
        text, member, shape = membership_input(rng, kind, n, index)
        return ["membership", kind, "--group", f"sl{n}", f"--expr={text}", "--json"], \
            member, shape
    if kind == "transition":
        return ["transition", "--group", f"sl{n}", "--from", "jj1", "--to", "jj0",
                "--json"], None, "jj1-jj0"
    if n == "small":
        return ["verify-lemmas", "--all-small-types", "--json"], True, "small"
    label = SINGLE_TYPES[index % len(SINGLE_TYPES)] if n == "single" else n
    return ["verify-lemmas", "--type", label, "--rank-budget", "8", "--json"], True, label


def generate_round(workload: str, seed: int, index: int) -> list:
    """The index-th round of a workload: the plan's multiset in seeded order."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = []
    for kind, n, count in PLANS[workload]:
        for k in range(count):
            if workload == "cli-oneshot":
                argv, expect, shape = cli_argv(rng, kind, n, k)
                ops.append(Op(kind, n, argv, expect, shape))
            elif kind == "numeric":
                eps = k % 2
                nu = n * (n - 1) // 2
                params = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(nu)]
                ops.append(Op(kind, n, (eps, params), None, f"jj{eps}"))
            else:
                text, expect, shape = membership_input(rng, kind, n, k)
                ops.append(Op(kind, n, text, expect, shape))
    rng.shuffle(ops)
    return ops


# -- output checks (never timed) ---------------------------------------------


def check_transition(report: dict, n: int) -> str:
    """'' when the printed formulas carry the source chart onto the target
    chart at a positive rational point, else the reason."""
    values = report.get("values", {})
    src, dst = values.get("source_word"), values.get("target_word")
    names, formulas = values.get("source_params"), values.get("formulas")
    nu = n * (n - 1) // 2
    if not (src and dst and names and formulas) or len(src) != nu or len(dst) != nu:
        return "transition report lacks words or formulas"
    if src == dst or any(not 1 <= i < n for i in src + dst):
        return "transition words are not two distinct words in 1..n-1"
    rng = random.Random(f"transition/{n}")
    point = {name: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for name in names}
    try:
        target = [evaluate(formulas[k], point) for k in sorted(formulas, key=lambda s: int(s[1:]))]
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        return f"formula does not evaluate: {exc}"
    if upper_chart(dst, target, n) != upper_chart(src, [point[v] for v in names], n):
        return "formulas do not reproduce the source chart"
    return ""


def check_cli(op: Op, result) -> tuple:
    """(status, message): status is 'ok', 'failed' (no answer) or 'wrong'."""
    code, out, err = result
    if code not in (0, 1):
        return "failed", (err.strip().splitlines() or [f"exit {code}"])[-1]
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "wrong", f"exit {code} without a JSON report"
    if op.kind == "transition":
        reason = "exit 1 for a connectable pair" if code else check_transition(report, op.n)
        return ("wrong", reason) if reason else ("ok", "")
    if (code == 0) != op.expect or report.get("member") != op.expect:
        return "wrong", f"exit {code}, expected member={op.expect}"
    return "ok", ""
