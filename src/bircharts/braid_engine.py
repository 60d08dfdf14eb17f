"""Transition maps between chart parametrizations of type A, and the
braid moves of the reduced-word graph.

``transition`` changes the parameters of the unipotent chart along one
reduced word into those along another.  It follows Berenstein-Zelevinsky
(1997) and Fomin-Zelevinsky (1999): for x the source chart along a word for
w, the twist z = twist(x, word) (eta_w: the lower factor L of x times the
lift of w^-1, pushed through the swap automorphism) holds the target
parameters as ratios of chamber minors, which
``sl_realization._chamber_parameters`` reads off along word2; chart
inversion reads the same minors of the twisted generic matrix.  This
works for every w, so no word is completed to w0 and no word is cut into
runs.  Most gcds taken in reducing the ratios are of coprime polynomials,
which the certificate in ``poly_gcd`` settles before its heuristic runs.

Requests are refused from the input before any work: another Cartan type,
and a source word with a run of more than 27 adjacent letters (the cost
grows with the longest run), raise ``Unsupported`` before reducedness is
checked.

``word_path`` finds a move sequence by breadth-first search of the word
graph, and ``apply_move`` applies the commuting rule or the order-3
parameter rule

    x_i(a) x_j(b) x_i(c) = x_j(bc/(a+c)) x_i(a+c) x_j(ab/(a+c)),

which is certified against the symbolic matrix identity in the test
suite.  ``transition`` does not use them; the tests compare it against the
composition of these moves.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional, Sequence

from .exact_arith import RatFunc
from .root_data import CartanDatum, Unsupported, length, weyl_from_word
from .sl_realization import _chamber_parameters, chart_U, twist

class Move(NamedTuple):
    """A local rewrite at ``position``: "commute" swaps two letters whose
    generators commute, "braid3" rewrites an (i, j, i) pattern."""

    position: int
    kind: str


class TransitionMap(NamedTuple):
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


def _check_same_element(w1: tuple, w2: tuple, datum: CartanDatum) -> None:
    """Raise ValueError unless w1 and w2 are reduced words of one element;
    each word's element is built once."""
    elements = []
    for w in (w1, w2):
        elements.append(weyl_from_word(w, datum))
        if length(elements[-1], datum) != len(w):
            raise ValueError("both words must be reduced")
    if elements[0] != elements[1]:
        raise ValueError("reduced words have different Weyl-group products")


def word_path(word1: Sequence[int], word2: Sequence[int], datum: CartanDatum,
              budget: int = 200_000):
    """Breadth-first move sequence transforming word1 into word2."""
    w1, w2 = tuple(word1), tuple(word2)
    _check_same_element(w1, w2, datum)
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


def _runs(word: tuple) -> list:
    """The maximal runs of consecutive letters that a word uses."""
    runs: list = []
    for i in sorted(set(word)):
        if runs and runs[-1][-1] == i - 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    return runs


# The twist grows with the longest run of adjacent letters, not with the
# group: pairs with 27 letters in one run took 0.3-7 s and under 50 MB at
# sl8-sl12 (a far sl8 pair passes the kernel's term budget in one product),
# while w0 of SL_8 (28 letters) did not finish in 250 s.
_MAX_RUN_LETTERS = 27


def transition(word1: Sequence[int], word2: Sequence[int], datum: CartanDatum,
               param_names: Optional[Sequence[str]] = None) -> TransitionMap:
    """Parameters along word2 of the chart along word1, in type A.

    word1 and word2 must be reduced words of one Weyl group element;
    ``formulas[k]`` is the k-th parameter along word2 as a canonical
    rational function of ``param_names`` (a1, a2, ... by default).  The
    source chart is twisted once by eta_w and the chamber minors are read.
    Another Cartan type, or a run of more than 27 adjacent letters in
    word1, raises ``Unsupported`` before the words are checked.
    """
    w1, w2 = tuple(word1), tuple(word2)
    if datum.type_label != "A":
        raise Unsupported(f"transitions are implemented in type A, "
                          f"not {datum.type_label}")
    longest = max((sum(i in run for i in w1) for run in _runs(w1)), default=0)
    if longest > _MAX_RUN_LETTERS:
        raise Unsupported(
            f"a run of adjacent generators holds {longest} letters; "
            f"transitions are implemented up to {_MAX_RUN_LETTERS}")
    if param_names is None:
        param_names = tuple(f"a{k}" for k in range(1, len(w1) + 1))
    universe = tuple(param_names)
    if len(universe) != len(w1):
        raise ValueError("need one parameter name per letter")
    _check_same_element(w1, w2, datum)
    params = tuple(RatFunc.var(universe, v) for v in universe)
    if w1 == w2:
        return TransitionMap(w1, w2, params)
    z = twist(chart_U(w1, params, datum.rank + 1), w1)
    return TransitionMap(w1, w2, _chamber_parameters(z, w2))
