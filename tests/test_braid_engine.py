"""Move rules, reduced-word graph search, and type-A transition maps by
the twist eta_w and chamber minors, checked against move composition."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from bircharts import (Move, RatFunc, Unsupported, apply_move, available_moves,
                       braid_engine, cartan, chart_U, distinguished_word,
                       substitute, transition, word_path)

from helpers import golden_sl4_transition


def test_move_record_is_frozen_and_hashes_by_value():
    move = Move(0, "braid3")
    assert repr(move) == "Move(position=0, kind='braid3')"
    assert move == Move(0, "braid3") and hash(move) == hash(Move(0, "braid3"))
    with pytest.raises(AttributeError):
        move.position = 1


def _params(names):
    return tuple(RatFunc.var(tuple(names), v) for v in names)


def test_braid3_golden_sl3():
    d = cartan("A", 2)
    a = _params(["a1", "a2", "a3"])
    word, params = apply_move((1, 2, 1), a, Move(0, "braid3"), d)
    assert word == (2, 1, 2)
    s = a[0] + a[2]
    assert params == (a[1] * a[2] / s, s, a[0] * a[1] / s)
    # defining property: same chart product
    assert chart_U((1, 2, 1), a, 3) == chart_U(word, params, 3)


def test_commute_move_sl4():
    d = cartan("A", 3)
    p = _params(["p1", "p2"])
    word, params = apply_move((1, 3), p, Move(0, "commute"), d)
    assert word == (3, 1) and params == (p[1], p[0])
    assert chart_U((1, 3), p, 4) == chart_U(word, params, 4)
    with pytest.raises(ValueError):
        apply_move((1, 2), p, Move(0, "commute"), d)


def test_braid3_degenerate_zero_last_parameter():
    d = cartan("A", 2)
    a = _params(["a", "b"])
    zero = RatFunc.const(("a", "b"), 0)
    word, params = apply_move((1, 2, 1), (a[0], a[1], zero), Move(0, "braid3"), d)
    assert word == (2, 1, 2)
    assert params == (zero, a[0], a[1])


def test_braid3_undefined_locus():
    d = cartan("A", 2)
    a = _params(["a", "b"])
    with pytest.raises(ValueError, match="undefined on this locus"):
        apply_move((1, 2, 1), (a[0], a[1], -a[0]), Move(0, "braid3"), d)


def test_move_soundness_random_words():
    rng = random.Random(99)
    d = cartan("A", 3)
    for _ in range(20):
        word = tuple(rng.randint(1, 3) for _ in range(5))
        names = tuple(f"c{k}" for k in range(len(word)))
        params = _params(names)
        moves = available_moves(word, d)
        if not moves:
            continue
        move = rng.choice(moves)
        try:
            w2, p2 = apply_move(word, params, move, d)
        except ValueError:
            continue
        assert chart_U(word, params, 4) == chart_U(w2, p2, 4)


def test_word_path_basics():
    d3 = cartan("A", 2)
    assert word_path((1, 2, 1), (1, 2, 1), d3) == []
    path = word_path((1, 2, 1), (2, 1, 2), d3)
    assert path == [Move(0, "braid3")]
    with pytest.raises(ValueError, match="different"):
        word_path((1,), (2,), d3)
    d4 = cartan("A", 3)
    assert word_path(distinguished_word(d4, 1), distinguished_word(d4, 0), d4)


def test_word_path_budget():
    d4 = cartan("A", 3)
    with pytest.raises(ValueError, match="budget"):
        word_path(distinguished_word(d4, 1), distinguished_word(d4, 0), d4, budget=2)


def test_word_path_rejects_higher_braid_orders():
    d = cartan("B", 2)
    with pytest.raises(ValueError, match="order 4 or 6"):
        word_path((1, 2, 1, 2), (2, 1, 2, 1), d)


def test_transition_identity():
    d = cartan("A", 2)
    t = transition((1, 2, 1), (1, 2, 1), d)
    assert t.formulas == _params(["a1", "a2", "a3"])


def test_transition_single_move_sl3():
    d = cartan("A", 2)
    t = transition((1, 2, 1), (2, 1, 2), d)
    a = _params(["a1", "a2", "a3"])
    s = a[0] + a[2]
    assert t.formulas == (a[1] * a[2] / s, s, a[0] * a[1] / s)


def test_transition_golden_sl4():
    d = cartan("A", 3)
    names, expected, _ = golden_sl4_transition()
    t = transition(distinguished_word(d, 1), distinguished_word(d, 0), d,
                   param_names=names)
    assert t.formulas == expected


def test_transition_soundness_symbolic():
    d = cartan("A", 3)
    jj0, jj1 = distinguished_word(d, 0), distinguished_word(d, 1)
    names = tuple(f"b{k}" for k in range(1, 7))
    t = transition(jj1, jj0, d, param_names=names)
    assert chart_U(jj0, t.formulas, 4) == chart_U(jj1, _params(names), 4)


@pytest.mark.parametrize("n", [3, 4])
def test_transition_round_trip(n):
    d = cartan("A", n - 1)
    jj0, jj1 = distinguished_word(d, 0), distinguished_word(d, 1)
    bnames = tuple(f"b{k}" for k in range(1, d.nu + 1))
    anames = tuple(f"a{k}" for k in range(1, d.nu + 1))
    fwd = transition(jj1, jj0, d, param_names=bnames)
    back = transition(jj0, jj1, d, param_names=anames)
    assignment = {anames[k]: fwd.formulas[k] for k in range(d.nu)}
    for k in range(d.nu):
        assert substitute(back.formulas[k], assignment) == RatFunc.var(bnames, bnames[k])


def test_transition_path_independent():
    d = cartan("A", 3)
    jj0, jj1 = distinguished_word(d, 0), distinguished_word(d, 1)
    names = tuple(f"b{k}" for k in range(1, 7))
    direct = transition(jj1, jj0, d, param_names=names)
    # a different route: hop through an intermediate word first
    mid_word, _ = apply_move(jj1, _params(names), Move(0, "commute"), d)
    leg1 = transition(jj1, mid_word, d, param_names=names)
    leg2 = transition(mid_word, jj0, d, param_names=names)
    assignment = {names[k]: leg1.formulas[k] for k in range(6)}
    composed = tuple(substitute(f, assignment) for f in leg2.formulas)
    assert composed == direct.formulas


def test_transition_formulas_subtraction_free():
    for n in (3, 4):
        d = cartan("A", n - 1)
        jj0, jj1 = distinguished_word(d, 0), distinguished_word(d, 1)
        for src, dst in ((jj1, jj0), (jj0, jj1)):
            t = transition(src, dst, d)
            for f in t.formulas:
                assert all(c > 0 for c in f.num.terms.values())
                assert all(c > 0 for c in f.den.terms.values())


def _by_moves(w1, w2, d, names):
    """The transition as a composition of moves along a word-graph path."""
    word, vals = tuple(w1), _params(names)
    for move in word_path(w1, w2, d):
        word, vals = apply_move(word, vals, move, d)
    assert word == tuple(w2)
    return vals


def _random_word(n, rng, length=None):
    """A reduced word of SL_n grown by random ascents (w0 by default)."""
    w, word = list(range(1, n + 1)), []
    while length is None or len(word) < length:
        ascents = [i for i in range(1, n) if w[i - 1] < w[i]]
        if not ascents:
            break
        i = rng.choice(ascents)
        w[i - 1], w[i] = w[i], w[i - 1]
        word.append(i)
    return tuple(word)


def _moved(word, d, rng, steps=6):
    """Another reduced word of the same element, by random moves."""
    ones = tuple(RatFunc.const((), 1) for _ in word)
    for _ in range(steps):
        moves = available_moves(word, d)
        if moves:
            word, _ = apply_move(word, ones, rng.choice(moves), d)
    return word


@pytest.mark.parametrize("n", [3, 4, 5])
def test_transition_equals_move_composition(n):
    d = cartan("A", n - 1)
    jj0, jj1 = distinguished_word(d, 0), distinguished_word(d, 1)
    names = tuple(f"b{k}" for k in range(1, d.nu + 1))
    for src, dst in ((jj1, jj0), (jj0, jj1)):
        assert transition(src, dst, d, param_names=names).formulas == \
            _by_moves(src, dst, d, names)


@pytest.mark.parametrize("n", [4, 5])
def test_transition_equals_move_composition_on_random_words(n):
    d = cartan("A", n - 1)
    rng = random.Random(f"words/{n}")
    names = tuple(f"c{k}" for k in range(1, d.nu + 1))
    words = {_random_word(n, rng) for _ in range(12)}
    assert len(words) >= 5
    for k, word in enumerate(sorted(words)[:5]):
        other = distinguished_word(d, k % 2)
        src, dst = (word, other) if k % 2 else (other, word)
        assert transition(src, dst, d, param_names=names).formulas == \
            _by_moves(src, dst, d, names)


def test_transition_of_shorter_words_sl4():
    d = cartan("A", 3)
    rng = random.Random("shorter/4")
    pairs = set()
    for _ in range(40):
        w1 = _random_word(4, rng, rng.randint(2, 5))
        w2 = _moved(w1, d, rng)
        if w1 != w2:
            pairs.add((w1, w2))
    assert len(pairs) >= 5
    for w1, w2 in sorted(pairs)[:8]:
        names = tuple(f"c{k}" for k in range(1, len(w1) + 1))
        t = transition(w1, w2, d, param_names=names)
        assert t.formulas == _by_moves(w1, w2, d, names)
        assert all(f.universe == names for f in t.formulas)


def test_transition_sl6_reproduces_the_source_chart():
    d = cartan("A", 5)
    jj0, jj1 = distinguished_word(d, 0), distinguished_word(d, 1)
    names = tuple(f"b{k}" for k in range(1, 16))
    t = transition(jj1, jj0, d, param_names=names)
    rng = random.Random("transition/6")
    point = {v: RatFunc.const((), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
             for v in names}
    target = [substitute(f, point) for f in t.formulas]
    assert chart_U(jj0, target, 6) == chart_U(jj1, [point[v] for v in names], 6)


def test_transition_of_short_words_in_a_large_group():
    # the twist eta_w grows with the word, not with w0, so a short word
    # costs about the same at sl10 as at sl3
    d = cartan("A", 9)
    rng = random.Random("short/10")
    pairs = [((1, 2, 1), (2, 1, 2)), ((8, 9, 8), (9, 8, 9)), ((1, 9), (9, 1)),
             ((3, 4, 3, 7), (7, 4, 3, 4)),
             ((1, 3, 5, 7, 2, 4, 6), (7, 5, 3, 1, 6, 4, 2))]  # a run of 7 letters
    for _ in range(4):
        w1 = tuple(i + 4 for i in _random_word(5, rng, rng.randint(3, 6)))
        pairs.append((w1, _moved(w1, d, rng)))
    started = time.monotonic()
    for w1, w2 in pairs:
        names = tuple(f"c{k}" for k in range(1, len(w1) + 1))
        assert transition(w1, w2, d, param_names=names).formulas == \
            _by_moves(w1, w2, d, names)
    assert time.monotonic() - started < 10  # about 0.1 s; minutes if w0 of sl10 is built


def test_transition_of_separated_blocks_is_the_blocks_transitions():
    # jj1 -> jj0 of SL_4 on letters 1-3 and again on 6-8 of sl10: generators
    # of the two blocks commute, so each block transforms as in sl4
    d4, d10 = cartan("A", 3), cartan("A", 9)
    jj1, jj0 = distinguished_word(d4, 1), distinguished_word(d4, 0)
    w1 = jj1 + tuple(i + 5 for i in jj1)
    w2 = tuple(i + 5 for i in jj0) + jj0
    names = tuple(f"c{k}" for k in range(1, 13))
    t = transition(w1, w2, d10, param_names=names)
    full = {v: RatFunc.var(names, v) for v in names}
    blocks = [transition(jj1, jj0, d4, param_names=names[6:]).formulas,
              transition(jj1, jj0, d4, param_names=names[:6]).formulas]
    assert t.formulas == tuple(substitute(f, full) for f in sum(blocks, ()))


def test_transition_in_type_A_searches_no_word_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("word_path called in type A")

    monkeypatch.setattr(braid_engine, "word_path", refuse)
    d = cartan("A", 4)
    assert transition(distinguished_word(d, 1), distinguished_word(d, 0), d)


def _canonical_word(word, n):
    """The reduced word of the element of ``word`` that removes the largest
    right descent first, read backwards; far from ``word`` in the word graph."""
    w = list(range(1, n + 1))
    for i in word:
        w[i - 1], w[i] = w[i], w[i - 1]
    out = []
    while True:
        descents = [i for i in range(1, n) if w[i - 1] > w[i]]
        if not descents:
            return tuple(reversed(out))
        i = max(descents)
        w[i - 1], w[i] = w[i], w[i - 1]
        out.append(i)


def _reproduces_the_source_chart(w1, w2, n, seed):
    t = transition(w1, w2, cartan("A", n - 1))
    rng = random.Random(seed)
    point = {v: RatFunc.const((), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
             for v in t.formulas[0].universe}
    target = [substitute(f, point) for f in t.formulas]
    return chart_U(w2, target, n) == chart_U(w1, list(point.values()), n)


def test_transition_of_a_long_run_far_apart_in_the_word_graph():
    # 21 letters on 21 adjacent generators of sl22: odd letters then even
    # ones, against each odd letter followed by the even one below it
    w1 = tuple(range(1, 22, 2)) + tuple(range(2, 21, 2))
    w2 = (1,) + sum(((i, i - 1) for i in range(3, 22, 2)), ())
    assert _reproduces_the_source_chart(w1, w2, 22, "sl22")
    # and a word of length 18 at sl8 against the element's canonical word
    w1 = _random_word(8, random.Random("sl8/0"), 18)
    w2 = _canonical_word(w1, 8)
    assert len(w1) == 18 and w1 != w2
    assert _reproduces_the_source_chart(w1, w2, 8, "sl8")


def test_transition_beyond_the_chamber_range_gives_up_as_unsupported():
    d = cartan("A", 7)
    started = time.monotonic()
    with pytest.raises(Unsupported, match="holds 28 letters"):
        transition(distinguished_word(d, 1), distinguished_word(d, 0), d)
    assert time.monotonic() - started < 1


@pytest.mark.parametrize("n,seconds", [(40, 2), (60, 5)])
def test_long_words_are_checked_and_refused_fast(n, seconds):
    # 780 and 1770 letters: the run is refused from the source word's
    # letters, before reducedness or the element is computed
    started = time.monotonic()
    d = cartan("A", n - 1)
    with pytest.raises(Unsupported, match=f"holds {d.nu} letters"):
        transition(distinguished_word(d, 1), distinguished_word(d, 0), d)
    assert time.monotonic() - started < seconds


def test_long_runs_are_refused_before_the_words_are_checked(monkeypatch):
    # a non-reduced word with a 28-letter run: Unsupported, not ValueError
    def refuse(*args, **kwargs):
        raise AssertionError("words checked before the run was refused")

    monkeypatch.setattr(braid_engine, "weyl_from_word", refuse)
    monkeypatch.setattr(braid_engine, "length", refuse)
    d = cartan("A", 7)
    word = (1, 2, 3, 4, 5, 6, 7) * 4
    with pytest.raises(Unsupported, match="holds 28 letters"):
        transition(word, word, d)


@pytest.mark.parametrize("label,rank", [("B", 2), ("B", 3), ("C", 3), ("D", 4),
                                        ("F", 4), ("G", 2), ("E", 6)])
def test_transition_outside_type_A_is_unsupported(label, rank):
    # D4 jj1 -> jj0 used to compose 31 braid moves for over 100 s
    d = cartan(label, rank)
    started = time.monotonic()
    with pytest.raises(Unsupported, match=f"type A, not {label}"):
        transition(distinguished_word(d, 1), distinguished_word(d, 0), d)
    assert time.monotonic() - started < 1


def test_transition_in_other_simply_laced_types():
    # words a few moves apart, and a word to itself, are refused all the same
    d4 = cartan("D", 4)
    w1 = (2, 1, 3, 4, 2, 1, 3, 4, 2, 1)
    w2 = _moved(w1, d4, random.Random("d4"), steps=40)
    assert w1 != w2
    for src, dst in ((w1, w2), (w2, w1), (w1, w1)):
        with pytest.raises(Unsupported, match="type A, not D"):
            transition(src, dst, d4)


def test_transition_rejects_bad_words_and_higher_braid_orders():
    d = cartan("A", 3)
    with pytest.raises(ValueError, match="different"):
        transition((1, 2), (2, 1), d)
    with pytest.raises(ValueError, match="reduced"):
        transition((1, 1), (2, 2), d)
    with pytest.raises(ValueError, match="different"):
        transition((), (1,), d)
    with pytest.raises(Unsupported, match="type A, not B"):
        transition((1, 3), (3, 1), cartan("B", 3))
    with pytest.raises(Unsupported, match="type A, not B"):
        transition((1, 2, 1, 2), (2, 1, 2, 1), cartan("B", 2))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: apply_move((1, 3), _params("ab"), Move(1, "commute"), cartan("A", 3)),
                 "move position out of range", id="commute-position"),
    pytest.param(lambda: apply_move((1, 2), _params("ab"), Move(0, "braid3"), cartan("A", 3)),
                 "move position out of range", id="braid3-position"),
    pytest.param(lambda: apply_move((1, 3, 1), _params("abc"), Move(0, "braid3"), cartan("A", 3)),
                 "braid move not applicable here", id="braid3-pattern"),
    pytest.param(lambda: apply_move((1, 3), _params("ab"), Move(0, "swap"), cartan("A", 3)),
                 "unknown move kind 'swap'", id="kind"),
    pytest.param(lambda: apply_move((1, 3), _params("a"), Move(0, "commute"), cartan("A", 3)),
                 "length mismatch between word and parameters", id="params"),
    pytest.param(lambda: transition((1,), (1,), cartan("A", 1), ("a", "b")),
                 "need one parameter name per letter", id="transition-names"),
])
def test_move_and_transition_input_checks(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message
