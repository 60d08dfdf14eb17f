"""Transition maps between chart parametrizations, and the braid moves
they fall back on.

``transition`` changes the parameters of the unipotent chart along one
reduced word into those along another.  In type A it uses the Chamber
Ansatz (Berenstein-Fomin-Zelevinsky 1996, Thm 1.4).  The source chart is
twisted once, z = twist(chart_U(word1, params)), and the k-th target
parameter is a ratio of four chamber minors of z around the k-th crossing
of word2:

    t_k = D(w[:i+1]) D(w[:i-1]) / (D(w[:i]) D((w s_i)[:i]))

where i is the k-th letter of word2, w = s_{i_1} ... s_{i_{k-1}} in
one-line notation, and D(J) is the minor of z on rows 1..|J| and the
sorted columns J (D of no columns or of all n columns is 1).  Each
distinct minor is computed once.  Most gcds taken in reducing the ratio
are of coprime polynomials, which the certificate in ``poly_gcd`` settles
before its heuristic runs.

Generators of different runs of adjacent letters commute, so each run a
word uses is transformed on its own, as a word of the smallest SL_n that
holds it; a short word costs the same in every group.  Two reduced words
of an element shorter than w0 are completed by a common suffix to words
for w0.  The suffix parameters are set to 1 and must come back unchanged,
which is checked.

Runs beyond SL_7, where the chamber formulas outgrow memory, and the other
Cartan types compose braid moves: ``word_path`` finds a move sequence by
breadth-first search of the word graph, and ``apply_move`` applies the
commuting rule or the order-3 parameter rule

    x_i(a) x_j(b) x_i(c) = x_j(bc/(a+c)) x_i(a+c) x_j(ab/(a+c)),

which is certified against the symbolic matrix identity in the test
suite, where the moves also check the chamber route.  ``transition``
raises ``Unsupported`` when the search exceeds its budget or the words
need an order-4 or order-6 move.  Nothing bounds the arithmetic along the
path: D4 jj1 -> jj0 finds its 31 moves in 0.02 s, then composes past 100 s.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .exact_arith import RatFunc
from .root_data import CartanDatum, cartan, is_reduced, weyl_from_word
from .sl_realization import Unsupported, _det, chart_U, twist

@dataclass(frozen=True)
class Move:
    """A local rewrite at ``position``: "commute" swaps two letters whose
    generators commute, "braid3" rewrites an (i, j, i) pattern."""

    position: int
    kind: str


@dataclass(frozen=True)
class TransitionMap:
    """Change of chart parameters between two reduced words.

    ``formulas[k]`` expresses the k-th target parameter as a rational
    function of the source parameters: substituting them into the target
    chart reproduces the source chart.
    """

    source_word: tuple
    target_word: tuple
    formulas: tuple


def _braid3_pair(datum: CartanDatum, i: int, j: int) -> bool:
    return (i != j and
            datum.cartan[i - 1][j - 1] * datum.cartan[j - 1][i - 1] == 1)


def _move_word(word: tuple, move: Move, datum: CartanDatum) -> tuple:
    p = move.position
    if move.kind == "commute":
        if p < 0 or p + 1 >= len(word):
            raise ValueError("move position out of range")
        i, j = word[p], word[p + 1]
        if i == j or not datum.commuting(i, j):
            raise ValueError("commute move not applicable here")
        return word[:p] + (j, i) + word[p + 2:]
    if move.kind == "braid3":
        if p < 0 or p + 2 >= len(word):
            raise ValueError("move position out of range")
        i, j, i2 = word[p], word[p + 1], word[p + 2]
        if i != i2 or not _braid3_pair(datum, i, j):
            raise ValueError("braid move not applicable here")
        return word[:p] + (j, i, j) + word[p + 3:]
    raise ValueError(f"unknown move kind {move.kind!r}")


def apply_move(word: Sequence[int], params: Sequence[RatFunc], move: Move,
               datum: CartanDatum):
    """Apply a move to a word and its chart parameters.

    Returns (word', params') with the defining property that the chart
    product along word' at params' equals the chart product along word at
    params.
    """
    word = tuple(word)
    params = tuple(params)
    if len(word) != len(params):
        raise ValueError("length mismatch between word and parameters")
    new_word = _move_word(word, move, datum)
    p = move.position
    if move.kind == "commute":
        new_params = params[:p] + (params[p + 1], params[p]) + params[p + 2:]
    else:
        a, b, c = params[p], params[p + 1], params[p + 2]
        s = a + c
        if s.is_zero:
            raise ValueError("transition undefined on this locus")
        new_params = params[:p] + (b * c / s, s, a * b / s) + params[p + 3:]
    return new_word, new_params


def available_moves(word: tuple, datum: CartanDatum):
    moves = []
    for p in range(len(word) - 1):
        i, j = word[p], word[p + 1]
        if i != j and datum.commuting(i, j):
            moves.append(Move(p, "commute"))
    for p in range(len(word) - 2):
        i, j = word[p], word[p + 1]
        if word[p + 2] == i and _braid3_pair(datum, i, j):
            moves.append(Move(p, "braid3"))
    return moves


def word_path(word1: Sequence[int], word2: Sequence[int], datum: CartanDatum,
              budget: int = 200_000):
    """Breadth-first move sequence transforming word1 into word2."""
    w1, w2 = tuple(word1), tuple(word2)
    if not is_reduced(w1, datum) or not is_reduced(w2, datum):
        raise ValueError("both words must be reduced")
    if weyl_from_word(w1, datum) != weyl_from_word(w2, datum):
        raise ValueError("reduced words have different Weyl-group products")
    if w1 == w2:
        return []
    parent: dict = {w1: None}
    queue = deque([w1])
    visited = 1
    while queue:
        cur = queue.popleft()
        for move in available_moves(cur, datum):
            nxt = _move_word(cur, move, datum)
            if nxt in parent:
                continue
            parent[nxt] = (cur, move)
            if nxt == w2:
                path = []
                node = nxt
                while parent[node] is not None:
                    prev, mv = parent[node]
                    path.append(mv)
                    node = prev
                path.reverse()
                return path
            visited += 1
            if visited > budget:
                raise ValueError("word graph search budget exceeded")
            queue.append(nxt)
    raise ValueError(
        "connecting these words requires a braid move of order 4 or 6 (unsupported)")


def _completion(word: tuple, n: int) -> tuple:
    """Letters that extend a reduced word of SL_n to a reduced word for w0."""
    w = list(range(1, n + 1))
    for i in word:
        w[i - 1], w[i] = w[i], w[i - 1]
    suffix = []
    i = 1
    while i < n:
        if w[i - 1] < w[i]:
            w[i - 1], w[i] = w[i], w[i - 1]
            suffix.append(i)
            i = 1
        else:
            i += 1
    return tuple(suffix)


def _chamber_parameters(source: tuple, target: tuple, params: tuple,
                        n: int) -> tuple:
    """Parameters along ``target`` (a word for w0) of chart_U(source, params)."""
    z = twist(chart_U(source, params, n)).entries
    one = RatFunc.const(params[0].universe, 1)
    minors: dict = {}

    def minor(cols):
        key = tuple(sorted(cols))
        if len(key) in (0, n):
            return one
        if key not in minors:
            minors[key] = _det([[z[r][c - 1] for c in key]
                                for r in range(len(key))])
        return minors[key]

    w = list(range(1, n + 1))
    out = []
    for i in target:
        ws = list(w)
        ws[i - 1], ws[i] = w[i], w[i - 1]
        out.append(minor(w[:i + 1]) * minor(w[:i - 1])
                   / (minor(w[:i]) * minor(ws[:i])))
        w = ws
    return tuple(out)


def _chamber_transition(word1: tuple, word2: tuple, params: tuple,
                        n: int) -> tuple:
    """Parameters along word2 of chart_U(word1, params, n)."""
    if word1 == word2:
        return params
    suffix = _completion(word1, n)
    # The target parameters do not depend on the suffix parameters (the
    # suffix factor cancels on the right), so those are set to 1; the
    # chamber minors stay nonzero there, being positive at positive points.
    ones = (RatFunc.const(params[0].universe, 1),) * len(suffix)
    out = _chamber_parameters(word1 + suffix, word2 + suffix, params + ones, n)
    if out[len(word1):] != ones:
        raise AssertionError("the completing suffix changed its parameters")
    return out[:len(word1)]


def _runs(word: tuple) -> list:
    """The maximal runs of consecutive letters that a word uses."""
    runs: list = []
    for i in sorted(set(word)):
        if runs and runs[-1][-1] == i - 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


def _restricted(word1: tuple, word2: tuple, run: list):
    """Both words cut down to the letters of ``run``, shifted to start at 1,
    with the positions the letters came from.

    Generators of different runs commute, so each chart is the product of
    its runs' charts, and the two words' cuts spell one element of SL_n,
    n = len(run) + 1.
    """
    at1 = [k for k, i in enumerate(word1) if i in run]
    at2 = [k for k, i in enumerate(word2) if i in run]
    lo = run[0] - 1
    return (tuple(word1[k] - lo for k in at1), tuple(word2[k] - lo for k in at2),
            at1, at2)


def _compose_moves(word1: tuple, word2: tuple, params: tuple,
                   datum: CartanDatum) -> tuple:
    """Parameters along word2, composing the moves of a word-graph path."""
    try:
        path = word_path(word1, word2, datum)
    except ValueError as exc:  # the words are valid: the search gave up
        raise Unsupported(str(exc)) from None
    word = word1
    for move in path:
        word, params = apply_move(word, params, move, datum)
    return params


# The chamber construction grows with the run, not with the words: w0 of
# SL_7 takes seconds, w0 of SL_8 exhausts gigabytes, and 21 letters on 21
# adjacent generators run for minutes.  Longer runs compose braid moves.
_CHAMBER_MAX_N = 7


def transition(word1: Sequence[int], word2: Sequence[int], datum: CartanDatum,
               param_names: Optional[Sequence[str]] = None) -> TransitionMap:
    """Parameters along word2 of the chart along word1.

    word1 and word2 must be reduced words of one Weyl group element;
    ``formulas[k]`` is the k-th parameter along word2 as a canonical
    rational function of ``param_names`` (a1, a2, ... by default).  Runs of
    adjacent generators within SL_7 use the Chamber Ansatz; longer runs and
    other types compose braid moves, and raise ``Unsupported`` where the
    move search exceeds its budget or needs a move of order 4 or 6.
    """
    w1, w2 = tuple(word1), tuple(word2)
    if param_names is None:
        param_names = tuple(f"a{k}" for k in range(1, len(w1) + 1))
    universe = tuple(param_names)
    if len(universe) != len(w1):
        raise ValueError("need one parameter name per letter")
    if not is_reduced(w1, datum) or not is_reduced(w2, datum):
        raise ValueError("both words must be reduced")
    if weyl_from_word(w1, datum) != weyl_from_word(w2, datum):
        raise ValueError("reduced words have different Weyl-group products")
    params = tuple(RatFunc.var(universe, v) for v in universe)
    if w1 == w2:
        return TransitionMap(w1, w2, params)
    if datum.type_label != "A":
        return TransitionMap(w1, w2, _compose_moves(w1, w2, params, datum))
    formulas = [None] * len(w2)
    for run in _runs(w1):
        s1, s2, at1, at2 = _restricted(w1, w2, run)
        sub = tuple(params[k] for k in at1)
        n = len(run) + 1
        if n <= _CHAMBER_MAX_N:
            out = _chamber_transition(s1, s2, sub, n)
        else:
            out = _compose_moves(s1, s2, sub, cartan("A", n - 1))
        for k, f in zip(at2, out):
            formulas[k] = f
    return TransitionMap(w1, w2, tuple(formulas))
