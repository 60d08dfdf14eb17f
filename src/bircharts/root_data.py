"""Finite root systems and the bipartite-word weight combinatorics.

Conventions, fixed once and validated by tests against the SL_4 golden
vectors rather than assumed:

* Cartan matrix entries are a[i][j] = <coroot_i, root_j> (0-indexed
  storage, 1-indexed node labels following Bourbaki numbering).
* A Weyl element is a witness word and its image of rho = (1, ..., 1).
  rho is regular, so W acts simply transitively on its orbit and the
  image decides equality; a product joins the words and carries the right
  factor's image along the left factor's word.
* Lengths come from one descent loop, ``_descend``.  rho = (1, ..., 1) is
  regular, so l(w) counts the reflections that bring w(rho) back to rho,
  and nu those that bring -rho = w0(rho) there.  No root is enumerated.
* ``weyl_apply((i1, ..., ik), w)`` computes s_{i1}(s_{i2}(... s_{ik}(w))),
  i.e. the rightmost letter acts first.  The suffix weights of a chart
  word come from one backward walk over the images of the fundamental
  weights, and its stage weights from one forward walk (``_families``).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

Word = tuple  # tuple[int, ...], letters are node labels 1..r


class Unsupported(Exception):
    """A well-formed request that this implementation does not cover, such
    as a transition outside type A or a chart inversion above sl6."""

_VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 3,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def _check_finite_type(type_label: str, rank: int) -> None:
    check = _VALID_RANKS.get(type_label)
    if check is None or not check(rank):
        raise ValueError(f"invalid finite type {type_label}{rank}")


def _cartan_matrix(type_label: str, rank: int):
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def edge(i, j, aij=-1, aji=-1):
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji

    if type_label in ("A", "B", "C"):
        for i in range(1, rank):
            edge(i, i + 1)
        if type_label == "B":
            edge(rank - 1, rank, -1, -2)  # last simple root short
        elif type_label == "C":
            edge(rank - 1, rank, -2, -1)  # last simple root long
    elif type_label == "D":
        for i in range(1, rank - 1):
            edge(i, i + 1)
        edge(rank - 2, rank)
    elif type_label == "E":
        edge(1, 3)
        for i in range(3, rank):
            edge(i, i + 1)
        edge(2, 4)
    elif type_label == "F":
        edge(1, 2)
        edge(2, 3, -1, -2)
        edge(3, 4)
    elif type_label == "G":
        edge(1, 2, -3, -1)
    else:
        raise ValueError(f"unknown type label {type_label!r}")
    return tuple(tuple(row) for row in a)


class Weight(NamedTuple):
    """Integral weight in fundamental-weight coordinates."""

    coords: tuple

    def pairing(self, node: int) -> int:
        """<coroot_node, self> for a 1-based node label."""
        return self.coords[node - 1]

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class WeylElement:
    """Weyl group element as a witness word and its image of rho.

    ``word`` multiplies to the element (it need not be reduced); ``rho`` is
    the element's image of rho = (1, ..., 1), which alone decides equality
    and hashing.
    """

    __slots__ = ("word", "rho", "_datum")

    def __init__(self, word: Word, rho: Weight, datum: "CartanDatum"):
        self.word, self.rho, self._datum = word, rho, datum

    def apply(self, w: Weight) -> Weight:
        return weyl_apply(self.word, w, self._datum)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.word + other.word, self.apply(other.rho), self._datum)

    @property
    def is_identity(self) -> bool:
        return all(c == 1 for c in self.rho.coords)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.rho == other.rho

    def __hash__(self):
        return hash(self.rho)

    def __repr__(self):
        return f"WeylElement(word={self.word})"


class CartanDatum:
    """Root-system data for a finite type, with a fixed bipartition.

    Holds the Cartan matrix, each simple root alpha_i in fundamental-weight
    coordinates as its nonzero entries, nu (the number of positive roots,
    counted as the descent steps from -rho) and the Coxeter number
    h = 2 nu / r.  The bipartition (I0, I1) 2-colors the Dynkin diagram
    with node 1 in I1.  A connected diagram has only this 2-coloring and
    its swap, and the swap exchanges the words for eps = 0 and 1, so the
    charts of both words cover every labeling.
    """

    def __init__(self, type_label: str, rank: int):
        _check_finite_type(type_label, rank)
        self.type_label = type_label
        self.rank = rank
        self.cartan = _cartan_matrix(type_label, rank)
        self._alpha = tuple(tuple((j, a) for j, a in enumerate(self.alpha_omega(i)) if a)
                            for i in range(1, rank + 1))
        self.nu = len(_descend(self, Weight((-1,) * rank))[0])
        if (2 * self.nu) % rank:
            raise AssertionError("Coxeter number 2*nu/r is not an integer")
        self.h = 2 * self.nu // rank
        self.i0, self.i1 = self._bipartition()
        self._word_cache: dict = {}
        self._w0: Optional[WeylElement] = None

    # -- construction helpers ------------------------------------------

    def _bipartition(self):
        color = {1: 1}
        stack = [1]
        while stack:
            v = stack.pop()
            for u in range(1, self.rank + 1):
                if u not in color and self.cartan[v - 1][u - 1]:
                    color[u] = 1 - color[v]
                    stack.append(u)
        if len(color) != self.rank:
            raise AssertionError("Dynkin diagram is not connected")
        return tuple(tuple(i for i in sorted(color) if color[i] == c) for c in (0, 1))

    # -- basic data -----------------------------------------------------

    def class_nodes(self, parity: int) -> tuple:
        return self.i0 if parity % 2 == 0 else self.i1

    def commuting(self, i: int, j: int) -> bool:
        """Whether the root subgroups at i and j commute (membership in I*)."""
        return i == j or self.cartan[i - 1][j - 1] == 0

    def fundamental_weight(self, i: int) -> Weight:
        e = [0] * self.rank
        e[i - 1] = 1
        return Weight(tuple(e))

    def alpha_omega(self, i: int) -> tuple:
        """Simple root alpha_i in fundamental-weight coordinates."""
        return tuple(self.cartan[j][i - 1] for j in range(self.rank))

    def simple(self, i: int) -> WeylElement:
        return weyl_from_word((i,), self)

    def identity(self) -> WeylElement:
        return weyl_from_word((), self)

    def __repr__(self):
        return f"CartanDatum({self.type_label}{self.rank}, I0={self.i0}, I1={self.i1})"


def cartan(type_label: str, rank: int) -> CartanDatum:
    """Fully populated datum for a valid finite type."""
    return CartanDatum(type_label, rank)


def parse_type(label: str):
    """Split a label like "A3" or "G2" into (letter, rank) of a finite type,
    checked without building its datum."""
    label = label.strip()
    if len(label) < 2 or label[0] not in _VALID_RANKS or not label[1:].isdecimal():
        raise ValueError(f"invalid type label {label!r}")
    _check_finite_type(label[0], int(label[1:]))
    return label[0], int(label[1:])


# ---------------------------------------------------------------------
# Weyl group operations
# ---------------------------------------------------------------------


def weyl_from_word(word: Sequence[int], datum: CartanDatum) -> WeylElement:
    """s_{i1} ... s_{ik}: every letter is range-checked first, since a
    reflection would read node 0 as the last node, and then rho is reflected
    along the word."""
    word = tuple(word)
    for i in word:
        if not 1 <= i <= datum.rank:
            raise ValueError(f"node {i} out of range")
    return WeylElement(word, weyl_apply(word, Weight((1,) * datum.rank), datum), datum)


def weyl_apply(word: Sequence[int], w: Weight, datum: CartanDatum) -> Weight:
    """s_{i1}(s_{i2}(... s_{ik}(w))) for word = (i1, ..., ik)."""
    c = list(w.coords)
    for i in reversed(tuple(word)):
        _reflect(c, i, datum)
    return Weight(tuple(c))


def _reflect(c: list, i: int, datum: CartanDatum) -> int:
    """s_i on the coordinates c, in place; returns the smallest index that
    changed (the 0-based index of alpha_i's first nonzero entry)."""
    k, alpha = c[i - 1], datum._alpha[i - 1]
    for j, a in alpha:
        c[j] -= k * a
    return alpha[0][0]


def _descend(datum: CartanDatum, weight: Weight):
    """(word, dominant weight): reflect at the first negative coordinate
    until there is none.  The dominant weight is carried to ``weight`` by
    weyl_from_word(word), and each step shortens that element by one, so
    the word is reduced.  The coordinates before the reflected one are
    nonnegative and only those of alpha_i change, so the next search starts
    at the first of them."""
    word: list = []
    c, start = list(weight.coords), 0
    while True:
        i = next((j for j in range(start, len(c)) if c[j] < 0), None)
        if i is None:
            return tuple(word), Weight(tuple(c))
        word.append(i + 1)
        start = _reflect(c, i + 1, datum)


def length(w: WeylElement, datum: CartanDatum) -> int:
    """Descent steps from w(rho) back to rho, rho = (1, ..., 1) regular."""
    return len(_descend(datum, w.rho)[0])


def is_reduced(word: Sequence[int], datum: CartanDatum) -> bool:
    w = weyl_from_word(word, datum)
    return length(w, datum) == len(w.word)


def longest_element(datum: CartanDatum) -> WeylElement:
    if datum._w0 is None:
        w = weyl_from_word(distinguished_word(datum, 0), datum)
        if length(w, datum) != datum.nu:
            raise AssertionError("bipartite word does not multiply to the longest element")
        datum._w0 = w
    return datum._w0


def class_word(datum: CartanDatum, parity: int) -> Word:
    """Ascending word on one bipartition class (its letters commute)."""
    return tuple(datum.class_nodes(parity))


def distinguished_word(datum: CartanDatum, eps: int) -> Word:
    """Bipartite word of length nu: the two classes alternate h times.

    Block l consists of the nodes of class [eps + l] in ascending order.
    The word is verified to be reduced once per datum and eps; later calls
    return the same tuple.
    """
    if eps in datum._word_cache:
        return datum._word_cache[eps]
    word: list = []
    for l in range(datum.h):
        word.extend(datum.class_nodes(eps + l))
    word_t = tuple(word)
    if len(word_t) != datum.nu:
        raise AssertionError("bipartite word has wrong length")
    if not is_reduced(word_t, datum):
        raise AssertionError("bipartite word is not reduced")
    datum._word_cache[eps] = word_t
    return word_t


# ---------------------------------------------------------------------
# weight families attached to a bipartite word
# ---------------------------------------------------------------------


class ChartWeights(NamedTuple):
    """All weight families attached to one bipartite chart word.

    gamma[k] applies the full suffix of reflections at positions nu..k to
    the fundamental weight of the letter at k; gamma_tilde[k] applies the
    strict suffix (positions nu..k+1).  stage[(l, i)] applies l-1 whole
    class blocks and one extra reflection to the fundamental weight at i.
    blocks partitions 1..nu into the consecutive alternation blocks.
    """

    word: Word
    gamma: dict
    gamma_tilde: dict
    stage: dict
    blocks: tuple


def _right_reflect(cols: list, i: int, datum: CartanDatum) -> tuple:
    """Replace the columns of w by those of w s_{i+1}, in place, and return
    the one that changed: column i loses the alpha_{i+1}-combination."""
    col = cols[i]
    for j, a in datum._alpha[i]:
        col = tuple(x - a * y for x, y in zip(col, cols[j]))
    cols[i] = col
    return col


def _families(datum: CartanDatum, eps: int):
    """(chart weights, weight sets, mixed) for the bipartite word of eps.

    gamma, gamma_tilde, mixed and the w0-translates come from one backward
    walk: cols[j-1] is the image of the j-th fundamental weight under the
    suffix from k, and right multiplication by s_i changes column i only,
    which loses the alpha_i-combination of the columns.  mixed[k] maps each
    letter that does not commute with the letter at k (a Dynkin neighbour)
    to its column.  The stage weights come from one forward walk with the
    same column update: stage (l, i) is column i of the stage prefix times
    s_i, and the nodes of one block commute, so each of them moves only
    its own column.
    """
    jj = distinguished_word(datum, eps)
    r, ks = datum.rank, range(1, len(jj) + 1)
    gamma, gamma_tilde, mixed = dict.fromkeys(ks), dict.fromkeys(ks), {}
    cols = [tuple(int(a == b) for a in range(r)) for b in range(r)]
    for k in reversed(ks):
        i = jj[k - 1] - 1
        gamma_tilde[k] = Weight(cols[i])
        gamma[k] = Weight(_right_reflect(cols, i, datum))
        mixed[k] = {j + 1: Weight(cols[j]) for j, _ in datum._alpha[i] if j != i}
    # the whole word is reduced for w0, so the last columns are its images
    w0_images = frozenset(Weight(c) for c in cols)

    stage = {}
    pcols = [tuple(int(a == b) for a in range(r)) for b in range(r)]
    for l in range(1, datum.h - 1):
        for i in datum.class_nodes(eps + datum.h - l):
            stage[(l, i)] = Weight(_right_reflect(pcols, i - 1, datum))

    blocks = []
    pos = 1
    for l in range(datum.h):
        size = len(datum.class_nodes(eps + l))
        blocks.append(tuple(range(pos, pos + size)))
        pos += size

    cw = ChartWeights(jj, gamma, gamma_tilde, stage, tuple(blocks))
    y_prime = frozenset(datum.fundamental_weight(i) for i in range(1, datum.rank + 1))
    return cw, (y_prime, w0_images, frozenset(stage.values())), mixed


def chart_weights(datum: CartanDatum, eps: int) -> ChartWeights:
    return _families(datum, eps)[0]


def weight_sets(datum: CartanDatum, eps: int):
    """(fundamental weights, their w0-translates, interior block weights)."""
    return _families(datum, eps)[1]


def _fundamental_descent(w: Weight, datum: CartanDatum):
    """(word, i) with the word's element of minimal length carrying the i-th
    fundamental weight to w.

    Found by descending to the dominant weight; the descent word is
    reduced, hence of minimal length.
    """
    word, cur = _descend(datum, w)
    ones = [j + 1 for j, c in enumerate(cur.coords) if c == 1]
    if len(ones) != 1 or sum(cur.coords) != 1:
        raise ValueError(f"{w} is not in the orbit of a fundamental weight")
    return word, ones[0]


# ---------------------------------------------------------------------
# executable verification of the weight-family lemmas
# ---------------------------------------------------------------------


class LemmaCheck(NamedTuple):
    name: str
    passed: bool
    skipped: bool = False
    detail: str = ""


class VerificationReport(NamedTuple):
    type_label: str
    checks: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    def check(self, name: str) -> LemmaCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


_CHECKS = ("bipartite-blocks-additive-length", "chart-weight-classification",
           "noncommuting-pair-weights", "pairing-nonneg-on-first-class",
           "pairing-negative-on-second-class", "interior-weights-distinct",
           "interior-weight-count", "interior-disjoint-from-extremes")


def _violations(datum: CartanDatum):
    """(check name, detail) for every violation of every weight lemma, by
    exhaustive enumeration; each bipartite word is walked once."""
    additive, classes, pairs, nonneg, negative, distinct, count, disjoint = _CHECKS
    h = datum.h
    for eps in (0, 1):
        cw, (y_prime, y_dprime, _), mixed = _families(datum, eps)
        # Lengths add along the alternating class blocks, totalling nu.
        acc, expect = datum.identity(), 0
        for l in range(h):
            acc = acc * weyl_from_word(class_word(datum, eps + l), datum)
            expect += len(datum.class_nodes(eps + l))
            got = length(acc, datum)
            if got != expect:
                yield additive, f"eps={eps}, block {l}: length {got} != {expect}"
        if got != datum.nu:
            yield additive, f"eps={eps}: full product has length {got}"

        # Suffix weights land where the block combinatorics says they land:
        # on block m, gamma pairs with stage level h-m+1 (m >= 3) and
        # gamma_tilde with level h-m-1 (m <= h-2); the levels are forced by
        # which bipartition class the letter at position k belongs to.  On
        # the last two blocks gamma_tilde is fundamental, and on the first
        # two gamma is a w0-translate.
        for m, block in enumerate(cw.blocks, 1):
            for k in block:
                i = cw.word[k - 1]
                if m >= 3 and cw.gamma[k] != cw.stage[(h - m + 1, i)]:
                    yield classes, f"eps={eps}, gamma[{k}] != stage[({h - m + 1},{i})]"
                if m <= h - 2 and cw.gamma_tilde[k] != cw.stage[(h - m - 1, i)]:
                    yield classes, f"eps={eps}, gamma_tilde[{k}] != stage[({h - m - 1},{i})]"
                if m >= h - 1 and cw.gamma_tilde[k] not in y_prime:
                    yield classes, f"eps={eps}, gamma_tilde[{k}] not fundamental"
                if m <= 2 and cw.gamma[k] not in y_dprime:
                    yield classes, f"eps={eps}, gamma[{k}] not a w0-translate"

        # Mixed suffix weights for non-commuting letter pairs stay in the family.
        gamma_values = set(cw.gamma.values())
        for k in range(1, datum.nu + 1):
            for j, w in mixed[k].items():
                if w not in gamma_values and w not in y_prime:
                    yield pairs, f"eps={eps}, k={k} with letter {j} escapes"

        # Sign conditions on the interior block weights.
        first_class = datum.class_nodes(eps + h)
        second_class = datum.class_nodes(eps + h + 1)
        for (l, i), w in cw.stage.items():
            if any(w.pairing(j) < 0 for j in first_class):
                yield nonneg, f"eps={eps}, stage[({l},{i})] negative on first class"
            if not any(w.pairing(j) < 0 for j in second_class):
                yield negative, f"eps={eps}, stage[({l},{i})] nonnegative on second class"

        # Interior weights are pairwise distinct and count nu - r.
        interior = set(cw.stage.values())
        if len(interior) != len(cw.stage):
            yield distinct, f"eps={eps}: repeated interior weight"
        if len(interior) != datum.nu - datum.rank:
            yield count, f"eps={eps}: {len(interior)} != nu-r = {datum.nu - datum.rank}"

        # Interior weights avoid the fundamental weights and their w0-translates.
        if interior & y_prime:
            yield disjoint, f"eps={eps}: interior meets fundamental set"
        if interior & y_dprime:
            yield disjoint, f"eps={eps}: interior meets w0-translate set"


def verify_lemmas(datum: CartanDatum) -> VerificationReport:
    """The weight-lemma checks in ``_CHECKS`` order: a failing one reports
    its first violation, and rank one skips the disjointness check."""
    first: dict = {}
    for name, detail in _violations(datum):
        first.setdefault(name, detail)
    checks = [LemmaCheck(name, name not in first, detail=first.get(name, ""))
              for name in _CHECKS]
    if datum.type_label == "A" and datum.rank == 1:
        checks[-1] = LemmaCheck(_CHECKS[-1], True, skipped=True,
                                detail="not asserted in rank one")
    return VerificationReport(f"{datum.type_label}{datum.rank}", checks)
