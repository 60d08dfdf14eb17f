"""Finite root systems and the bipartite-word weight combinatorics.

Conventions, fixed once and validated by tests against the SL_4 golden
vectors rather than assumed:

* Cartan matrix entries are a[i][j] = <coroot_i, root_j> (0-indexed
  storage, 1-indexed node labels following Bourbaki numbering).
* A Weyl element is identified with its integer action matrix on the
  weight lattice in fundamental-weight coordinates; reduced words are
  witnesses, not identities.
* ``weyl_apply((i1, ..., ik), w)`` computes s_{i1}(s_{i2}(... s_{ik}(w))),
  i.e. the rightmost letter acts first.  The suffix-product weights below
  are therefore computed by passing suffixes reversed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

Word = tuple  # tuple[int, ...], letters are node labels 1..r

_VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 3,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


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


@dataclass(frozen=True)
class Weight:
    """Integral weight in fundamental-weight coordinates."""

    coords: tuple

    def pairing(self, node: int) -> int:
        """<coroot_node, self> for a 1-based node label."""
        return self.coords[node - 1]

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class WeylElement:
    """Weyl group element as its action matrix on the weight lattice.

    Equality and hashing use the matrix alone; ``word`` is a witness whose
    product equals the element (it need not be reduced).
    """

    __slots__ = ("matrix", "word")

    def __init__(self, matrix, word=()):
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        self.word = tuple(word)

    def apply(self, w: Weight) -> Weight:
        c = w.coords
        return Weight(tuple(sum(row[j] * c[j] for j in range(len(c)))
                            for row in self.matrix))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        m1, m2 = self.matrix, other.matrix
        r = len(m1)
        prod = tuple(
            tuple(sum(m1[i][k] * m2[k][j] for k in range(r)) for j in range(r))
            for i in range(r))
        return WeylElement(prod, self.word + other.word)

    @property
    def is_identity(self) -> bool:
        r = len(self.matrix)
        return all(self.matrix[i][j] == (1 if i == j else 0)
                   for i in range(r) for j in range(r))

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"WeylElement(word={self.word})"


class CartanDatum:
    """Root-system data for a finite type, with a fixed bipartition.

    The bipartition (I0, I1) 2-colors the Dynkin diagram; the default
    labeling puts node 1 in I1 and may be overridden with an explicit I0.
    """

    def __init__(self, type_label: str, rank: int, i0: Optional[Iterable[int]] = None):
        check = _VALID_RANKS.get(type_label)
        if check is None or not check(rank):
            raise ValueError(f"invalid finite type {type_label}{rank}")
        self.type_label = type_label
        self.rank = rank
        self.cartan = _cartan_matrix(type_label, rank)
        self.positive_roots = self._enumerate_positive_roots()
        self.nu = len(self.positive_roots)
        if (2 * self.nu) % rank:
            raise AssertionError("Coxeter number 2*nu/r is not an integer")
        self.h = 2 * self.nu // rank
        self.i0, self.i1 = self._bipartition(i0)
        self._simple_cache: dict = {}
        self._word_cache: dict = {}
        self._w0: Optional[WeylElement] = None
        # omega-coordinate vectors of the positive roots, for length counting
        self._pos_omega = tuple(self._root_to_omega(c) for c in self.positive_roots)
        self._pos_omega_set = frozenset(self._pos_omega)

    # -- construction helpers ------------------------------------------

    def _reflect_root(self, i: int, c: tuple) -> tuple:
        # s_i on root coordinates: c_i -> c_i - sum_j a[i][j] c_j
        pairing = sum(self.cartan[i][j] * c[j] for j in range(self.rank))
        out = list(c)
        out[i] -= pairing
        return tuple(out)

    def _enumerate_positive_roots(self):
        simple = []
        for i in range(self.rank):
            e = [0] * self.rank
            e[i] = 1
            simple.append(tuple(e))
        seen = set(simple)
        frontier = set(simple)
        while frontier:
            new = set()
            for c in frontier:
                for i in range(self.rank):
                    img = self._reflect_root(i, c)
                    if img not in seen:
                        new.add(img)
            seen |= new
            frontier = new
        pos = [c for c in seen if all(x >= 0 for x in c)]
        pos.sort(key=lambda c: (sum(c), c))
        return tuple(pos)

    def _bipartition(self, i0_override):
        adj = {i: [] for i in range(1, self.rank + 1)}
        for i in range(self.rank):
            for j in range(self.rank):
                if i != j and self.cartan[i][j] != 0:
                    adj[i + 1].append(j + 1)
        if i0_override is not None:
            i0 = frozenset(int(x) for x in i0_override)
            if not i0 <= set(adj):
                raise ValueError("labeling override mentions unknown nodes")
            i1 = frozenset(set(adj) - i0)
            for cls in (i0, i1):
                for i in cls:
                    for j in cls:
                        if i != j and self.cartan[i - 1][j - 1] != 0:
                            raise ValueError(
                                "labeling override is not a valid two-coloring")
            return tuple(sorted(i0)), tuple(sorted(i1))
        color = {1: 1}
        stack = [1]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in color:
                    color[u] = 1 - color[v]
                    stack.append(u)
        if len(color) != self.rank:
            raise AssertionError("Dynkin diagram is not connected")
        i0 = tuple(sorted(i for i, c in color.items() if c == 0))
        i1 = tuple(sorted(i for i, c in color.items() if c == 1))
        return i0, i1

    def _root_to_omega(self, c: tuple) -> tuple:
        return tuple(sum(self.cartan[j][i] * c[i] for i in range(self.rank))
                     for j in range(self.rank))

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

    def reflect_weight(self, i: int, w: Weight) -> Weight:
        k = w.coords[i - 1]
        if k == 0:
            return w
        alpha = self.alpha_omega(i)
        return Weight(tuple(c - k * a for c, a in zip(w.coords, alpha)))

    def simple(self, i: int) -> WeylElement:
        if i not in self._simple_cache:
            if not 1 <= i <= self.rank:
                raise ValueError(f"node {i} out of range")
            alpha = self.alpha_omega(i)
            m = [[1 if a == b else 0 for b in range(self.rank)]
                 for a in range(self.rank)]
            for j in range(self.rank):
                m[j][i - 1] -= alpha[j]
            self._simple_cache[i] = WeylElement(m, (i,))
        return self._simple_cache[i]

    def identity(self) -> WeylElement:
        return WeylElement(
            [[1 if a == b else 0 for b in range(self.rank)] for a in range(self.rank)])

    def __repr__(self):
        return f"CartanDatum({self.type_label}{self.rank}, I0={self.i0}, I1={self.i1})"


def cartan(type_label: str, rank: int, i0: Optional[Iterable[int]] = None) -> CartanDatum:
    """Fully populated datum for a valid finite type."""
    return CartanDatum(type_label, rank, i0)


def parse_type(label: str):
    """Split a label like "A3" or "G2" into (letter, rank)."""
    label = label.strip()
    if len(label) < 2 or label[0] not in _VALID_RANKS or not label[1:].isdigit():
        raise ValueError(f"invalid type label {label!r}")
    return label[0], int(label[1:])


# ---------------------------------------------------------------------
# Weyl group operations
# ---------------------------------------------------------------------


def weyl_from_word(word: Sequence[int], datum: CartanDatum) -> WeylElement:
    out = datum.identity()
    for i in word:
        out = out * datum.simple(i)
    return WeylElement(out.matrix, tuple(word))


def weyl_apply(word: Sequence[int], w: Weight, datum: CartanDatum) -> Weight:
    """s_{i1}(s_{i2}(... s_{ik}(w))) for word = (i1, ..., ik)."""
    for i in reversed(tuple(word)):
        w = datum.reflect_weight(i, w)
    return w


def length(w: WeylElement, datum: CartanDatum) -> int:
    """Number of positive roots sent to negative roots."""
    count = 0
    m = w.matrix
    r = datum.rank
    for omega in datum._pos_omega:
        img = tuple(sum(m[a][b] * omega[b] for b in range(r)) for a in range(r))
        if tuple(-x for x in img) in datum._pos_omega_set:
            count += 1
    return count


def is_reduced(word: Sequence[int], datum: CartanDatum) -> bool:
    return length(weyl_from_word(word, datum), datum) == len(tuple(word))


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


@dataclass(frozen=True, eq=True)
class ChartWeights:
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


def chart_weights(datum: CartanDatum, eps: int) -> ChartWeights:
    jj = distinguished_word(datum, eps)
    nu = datum.nu

    suffix = [None] * (nu + 2)
    suffix[nu + 1] = datum.identity()
    for k in range(nu, 0, -1):
        suffix[k] = suffix[k + 1] * datum.simple(jj[k - 1])

    gamma = {}
    gamma_tilde = {}
    for k in range(1, nu + 1):
        om = datum.fundamental_weight(jj[k - 1])
        gamma[k] = suffix[k].apply(om)
        gamma_tilde[k] = suffix[k + 1].apply(om)

    stage = {}
    for l in range(1, datum.h - 1):
        for i in datum.class_nodes(eps + datum.h - l):
            word: list = []
            for step in range(datum.h - 1, datum.h - l, -1):
                word.extend(datum.class_nodes(eps + step))
            word.append(i)
            stage[(l, i)] = weyl_apply(word, datum.fundamental_weight(i), datum)

    blocks = []
    pos = 1
    for l in range(datum.h):
        size = len(datum.class_nodes(eps + l))
        blocks.append(tuple(range(pos, pos + size)))
        pos += size

    return ChartWeights(jj, gamma, gamma_tilde, stage, tuple(blocks))


def weight_sets(datum: CartanDatum, eps: int):
    """(fundamental weights, their w0-translates, interior block weights)."""
    w0 = longest_element(datum)
    y_prime = frozenset(datum.fundamental_weight(i) for i in range(1, datum.rank + 1))
    y_dprime = frozenset(w0.apply(datum.fundamental_weight(i))
                         for i in range(1, datum.rank + 1))
    y_eps = frozenset(chart_weights(datum, eps).stage.values())
    return y_prime, y_dprime, y_eps


def _fundamental_descent(w: Weight, datum: CartanDatum):
    """(u, i) with u of minimal length carrying the i-th fundamental weight
    to w.

    Found by repeatedly reflecting at a node that pairs negatively until
    the weight is dominant; the recorded word is reduced.
    """
    word: list = []
    cur = w
    while True:
        neg = next((j for j in range(1, datum.rank + 1) if cur.coords[j - 1] < 0), None)
        if neg is None:
            break
        word.append(neg)
        cur = datum.reflect_weight(neg, cur)
    ones = [j + 1 for j, c in enumerate(cur.coords) if c == 1]
    if len(ones) != 1 or sum(cur.coords) != 1:
        raise ValueError(f"{w} is not in the orbit of a fundamental weight")
    elem = weyl_from_word(word, datum)
    if length(elem, datum) != len(word):
        raise AssertionError("descent word is not reduced")
    return elem, ones[0]


def fundamental_orbit_index(w: Weight, datum: CartanDatum) -> int:
    """The i with w in the Weyl orbit of the i-th fundamental weight."""
    return _fundamental_descent(w, datum)[1]


def minimal_coset_rep(w: Weight, datum: CartanDatum) -> WeylElement:
    """Minimal-length Weyl element carrying a fundamental weight to w."""
    return _fundamental_descent(w, datum)[0]


def simple_below(i: int, w: WeylElement, datum: CartanDatum) -> bool:
    """Whether w moves the i-th fundamental weight (w outside the i-stabilizer)."""
    om = datum.fundamental_weight(i)
    return w.apply(om) != om


# ---------------------------------------------------------------------
# executable verification of the weight-family lemmas
# ---------------------------------------------------------------------


@dataclass
class LemmaCheck:
    name: str
    passed: bool
    skipped: bool = False
    detail: str = ""


@dataclass
class VerificationReport:
    type_label: str
    checks: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    def check(self, name: str) -> LemmaCheck:
        return next(c for c in self.checks if c.name == name)


def verify_lemmas(datum: CartanDatum) -> VerificationReport:
    """Run every bipartite-word weight check by exhaustive enumeration."""
    report = VerificationReport(f"{datum.type_label}{datum.rank}")
    add = report.checks.append

    # Lengths add along the alternating class blocks, totalling nu.
    ok, detail = True, ""
    for eps in (0, 1):
        acc = datum.identity()
        expect = 0
        for l in range(datum.h):
            acc = acc * weyl_from_word(class_word(datum, eps + l), datum)
            expect += len(datum.class_nodes(eps + l))
            got = length(acc, datum)
            if got != expect:
                ok, detail = False, f"eps={eps}, block {l}: length {got} != {expect}"
                break
        if ok and length(acc, datum) != datum.nu:
            ok, detail = False, f"eps={eps}: full product has length {length(acc, datum)}"
        if not ok:
            break
    add(LemmaCheck("bipartite-blocks-additive-length", ok, detail=detail))

    data = {eps: chart_weights(datum, eps) for eps in (0, 1)}
    sets = {eps: weight_sets(datum, eps) for eps in (0, 1)}

    # Suffix weights land where the block combinatorics says they land:
    # on block m, gamma pairs with stage level h-m+1 (m >= 3) and
    # gamma_tilde with level h-m-1 (m <= h-2); the levels are forced by
    # which bipartition class the letter at position k belongs to.
    ok, detail = True, ""
    for eps in (0, 1):
        cw = data[eps]
        y_prime, y_dprime, _ = sets[eps]
        for m in range(3, datum.h + 1):
            l = datum.h - m + 1
            for k in cw.blocks[m - 1]:
                if cw.gamma[k] != cw.stage[(l, cw.word[k - 1])]:
                    ok, detail = False, f"eps={eps}, gamma[{k}] != stage[({l},{cw.word[k-1]})]"
        for m in range(1, datum.h - 1):
            l = datum.h - m - 1
            for k in cw.blocks[m - 1]:
                if cw.gamma_tilde[k] != cw.stage[(l, cw.word[k - 1])]:
                    ok, detail = False, f"eps={eps}, gamma_tilde[{k}] != stage[({l},{cw.word[k-1]})]"
        for block in cw.blocks[-2:]:
            for k in block:
                if cw.gamma_tilde[k] not in y_prime:
                    ok, detail = False, f"eps={eps}, gamma_tilde[{k}] not fundamental"
        for block in cw.blocks[:2]:
            for k in block:
                if cw.gamma[k] not in y_dprime:
                    ok, detail = False, f"eps={eps}, gamma[{k}] not a w0-translate"
    add(LemmaCheck("chart-weight-classification", ok, detail=detail))

    # Mixed suffix weights for non-commuting letter pairs stay in the family.
    ok, detail = True, ""
    for eps in (0, 1):
        cw = data[eps]
        y_prime, _, _ = sets[eps]
        nu = datum.nu
        suffix = [None] * (nu + 2)
        suffix[nu + 1] = datum.identity()
        for k in range(nu, 0, -1):
            suffix[k] = suffix[k + 1] * datum.simple(cw.word[k - 1])
        gamma_values = set(cw.gamma.values())
        for k in range(1, nu + 1):
            for kp in range(1, nu + 1):
                if datum.commuting(cw.word[k - 1], cw.word[kp - 1]):
                    continue
                mixed = suffix[k].apply(datum.fundamental_weight(cw.word[kp - 1]))
                if mixed not in gamma_values and mixed not in y_prime:
                    ok, detail = False, f"eps={eps}, pair (k={k},k'={kp}) escapes"
    add(LemmaCheck("noncommuting-pair-weights", ok, detail=detail))

    # Sign conditions on the interior block weights.
    ok_a, det_a, ok_b, det_b = True, "", True, ""
    for eps in (0, 1):
        cw = data[eps]
        first_class = datum.class_nodes(eps + datum.h)
        second_class = datum.class_nodes(eps + datum.h + 1)
        for (l, i), w in cw.stage.items():
            if any(w.pairing(j) < 0 for j in first_class):
                ok_a, det_a = False, f"eps={eps}, stage[({l},{i})] negative on first class"
            if not any(w.pairing(j) < 0 for j in second_class):
                ok_b, det_b = False, f"eps={eps}, stage[({l},{i})] nonnegative on second class"
    add(LemmaCheck("pairing-nonneg-on-first-class", ok_a, detail=det_a))
    add(LemmaCheck("pairing-negative-on-second-class", ok_b, detail=det_b))

    # Interior weights are pairwise distinct and count nu - r.
    ok, detail = True, ""
    count_ok, count_detail = True, ""
    for eps in (0, 1):
        stage = data[eps].stage
        values = list(stage.values())
        if len(set(values)) != len(values):
            ok, detail = False, f"eps={eps}: repeated interior weight"
        if len(set(values)) != datum.nu - datum.rank:
            count_ok, count_detail = (
                False, f"eps={eps}: {len(set(values))} != nu-r = {datum.nu - datum.rank}")
    add(LemmaCheck("interior-weights-distinct", ok, detail=detail))
    add(LemmaCheck("interior-weight-count", count_ok, detail=count_detail))

    # Interior weights avoid the fundamental weights and their w0-translates.
    if datum.type_label == "A" and datum.rank == 1:
        add(LemmaCheck("interior-disjoint-from-extremes", True, skipped=True,
                       detail="not asserted in rank one"))
    else:
        ok, detail = True, ""
        for eps in (0, 1):
            y_prime, y_dprime, y_eps = sets[eps]
            if y_eps & y_prime:
                ok, detail = False, f"eps={eps}: interior meets fundamental set"
            if y_eps & y_dprime:
                ok, detail = False, f"eps={eps}: interior meets w0-translate set"
        add(LemmaCheck("interior-disjoint-from-extremes", ok, detail=detail))

    return report
