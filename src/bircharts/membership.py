"""Coordinate-ring membership decision procedures.

A rational function on the unipotent group U (resp. the flag-type
quotient G/U-, the full group G) is regular if and only if its pullback
along each of the two (resp. four, eight) distinguished bipartite charts
is a polynomial that is Laurent in the torus coordinates; U charts have
none, so there the pullback must be a polynomial.  One table lists the
charts of each space in certificate order, and one loop pulls the function
back along each and returns a verdict with one certificate per chart; a
certificate records the pullback itself so it can be re-checked
independently.  The function must be given over the space's own
variables, ``u_variables(n)`` or ``g_variables(n)``.

The chart matrices do not depend on the function being decided.  Each is
built lazily, on first use, once per process per (chart, words, n), and a
pullback is then a table lookup plus ``substitute``.  Certificates are the
same as with a fresh build.  The chart entries are polynomials over
monomials in the torus coordinates, so a pullback is summed with
polynomial arithmetic over one common monomial and needs no per-step gcd,
only its one final normalization.  Held at once, the unipotent charts at
sl3-sl7 and the quotient and full-group charts at sl3-sl5 take about
1.6 MB (tracemalloc), of which the eight sl5 full-group charts take
0.77 MB.

Chart inversion works for every n by one construction: factors are peeled
off the left of the generic unitriangular matrix, each parameter a ratio of
minors.  The formulas are built once per (word, n) and then substituted;
a point is undefined only where a canonical denominator vanishes.  Building
them takes under 0.01 s at sl4, 0.05-0.08 s at sl5 and 2.6-24 s at sl6,
depending on the word (Python 3.11); at sl7 it did not finish in 500 s,
so inversion above sl6 raises ``Unsupported`` before any work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Optional

from .exact_arith import (MultiPoly, PoleError, RatFunc, is_laurent_in,
                          substitute)
from .root_data import CartanDatum, distinguished_word
from .sl_realization import (GroupMatrix, TorusPoint, Unsupported, _datum_for,
                             _det, chart_G, chart_GmodU, chart_U)

DEFAULT_SEED = 20250801


@dataclass(frozen=True)
class ChartId:
    """Identifier of one distinguished chart.

    space "U" uses eps alone; "GmodU" adds a sign; "G" adds a second word
    index and a variant ("pm" for x t y, "mp" for y t^-1 x).
    """

    space: str
    eps: int
    sign: Optional[str] = None
    eps2: Optional[int] = None
    variant: Optional[str] = None

    @property
    def label(self) -> str:
        if self.space == "U":
            return f"u:jj{self.eps}"
        if self.space == "GmodU":
            return f"g-mod-u:jj{self.eps}:{self.sign}"
        return f"g:jj{self.eps},jj{self.eps2}:{self.variant}"

    def __str__(self):
        return self.label


@dataclass(frozen=True)
class Certificate:
    chart: ChartId
    pullback: RatFunc
    ok: bool


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    certificates: tuple
    failing_chart: Optional[ChartId]


# -- variable universes -------------------------------------------------


@lru_cache(maxsize=None)
def _entries(stem: str, n: int) -> tuple:
    """(name, i, j) for each matrix-entry variable, row by row: u_ij
    strictly above the diagonal, g_ij everywhere (u1_10 past index 9)."""
    return tuple((f"{stem}{i}{j}" if i < 10 and j < 10 else f"{stem}{i}_{j}", i, j)
                 for i in range(1, n + 1)
                 for j in range(i + 1 if stem == "u" else 1, n + 1))


def u_variables(n: int) -> tuple:
    return tuple(name for name, _, _ in _entries("u", n))


def g_variables(n: int) -> tuple:
    return tuple(name for name, _, _ in _entries("g", n))


def param_names(eps: int, nu: int) -> tuple:
    stem = "a" if eps == 0 else "b"
    return tuple(f"{stem}{k}" for k in range(1, nu + 1))


def torus_names(n: int) -> tuple:
    return tuple(f"t{i}" for i in range(1, n))


def _require_universe(phi: RatFunc, stem: str, n: int) -> None:
    if phi.universe != tuple(name for name, _, _ in _entries(stem, n)):
        raise ValueError(f"expected a function of the {stem}_ij of sl{n}, "
                         f"got one over {phi.universe}")


def _pull_through_matrix(phi: RatFunc, stem: str, matrix) -> RatFunc:
    """phi with each entry variable replaced by that entry of matrix, a
    sequence of rows."""
    return substitute(phi, {name: matrix[i - 1][j - 1]
                            for name, i, j in _entries(stem, len(matrix))})


# -- chart table --------------------------------------------------------
#
# The charts of each space in certificate order.  A chart matrix is cached
# by its ChartId and the words themselves rather than the datum, so a
# labeling override gives other keys instead of a stale hit.

_CHARTS = {
    "U": tuple(ChartId("U", eps) for eps in (0, 1)),
    "GmodU": tuple(ChartId("GmodU", eps, sign=sign)
                   for eps in (0, 1) for sign in ("+", "-")),
    "G": tuple(ChartId("G", eps, eps2=eps2, variant=variant)
               for eps in (0, 1) for eps2 in (0, 1) for variant in ("pm", "mp")),
}


def _datum(n: int, datum: Optional[CartanDatum]) -> CartanDatum:
    return datum if datum is not None else _datum_for(n)


@lru_cache(maxsize=None)
def _chart(cid: ChartId, jj: tuple, jj2: Optional[tuple], n: int) -> GroupMatrix:
    """The chart matrix over its parameters: those of jj (a... for eps 0,
    b... for 1, a... in G), then the torus coordinates (not in U), then in
    G the b-parameters of jj2."""
    space = cid.space
    blocks = (param_names(0 if space == "G" else cid.eps, len(jj)),
              () if space == "U" else torus_names(n),
              param_names(1, len(jj2)) if space == "G" else ())
    universe = sum(blocks, ())
    params, t, params2 = ([RatFunc.var(universe, v) for v in b] for b in blocks)
    if space == "U":
        return chart_U(jj, params, n)
    if space == "GmodU":
        return chart_GmodU(jj, params, TorusPoint(tuple(t)), cid.sign, n)
    return chart_G(jj, jj2, params, TorusPoint(tuple(t)), params2, cid.variant, n)


def _pullback(phi: RatFunc, cid: ChartId, d: CartanDatum, n: int) -> RatFunc:
    jj = distinguished_word(d, cid.eps)
    jj2 = None if cid.eps2 is None else distinguished_word(d, cid.eps2)
    return _pull_through_matrix(phi, "u" if cid.space == "U" else "g",
                                _chart(cid, jj, jj2, n).entries)


def _decide(phi: RatFunc, space: str, n: int,
            datum: Optional[CartanDatum]) -> MembershipVerdict:
    """One certificate per chart of the space, in table order: the
    pullback, and whether it is a polynomial that is Laurent in the torus
    coordinates (a U chart has none, so there it must be a polynomial)."""
    _require_universe(phi, "u" if space == "U" else "g", n)
    d = _datum(n, datum)
    tnames = torus_names(n)
    certs = []
    for cid in _CHARTS[space]:
        # U charts go through the public pullback_U, so that a wrapper on
        # that name (perfbench/spans.py) sees the decision's pullbacks
        pb = (pullback_U(phi, cid.eps, n, d) if space == "U"
              else _pullback(phi, cid, d, n))
        certs.append(Certificate(cid, pb, is_laurent_in(pb, tnames)))
    failing = next((c.chart for c in certs if not c.ok), None)
    return MembershipVerdict(failing is None, tuple(certs), failing)


# -- the three spaces ---------------------------------------------------


def pullback_U(phi: RatFunc, eps: int, n: int,
               datum: Optional[CartanDatum] = None) -> RatFunc:
    """Pullback along the bipartite unipotent chart for eps."""
    _require_universe(phi, "u", n)
    return _pullback(phi, ChartId("U", eps), _datum(n, datum), n)


def decide_O_U(phi: RatFunc, n: int,
               datum: Optional[CartanDatum] = None) -> MembershipVerdict:
    """Membership in the polynomial ring of the unipotent group."""
    return _decide(phi, "U", n, datum)


def check_invariance(phi: RatFunc) -> bool:
    """Whether phi(g y_j(s)) = phi(g) for every lower one-parameter subgroup."""
    n = isqrt(len(phi.universe))
    if phi.universe != g_variables(n):
        raise ValueError("expected a full matrix-entry universe")
    big = phi.universe + ("s",)
    # phi over (g, s): a 0 appended to each exponent keeps the graded-lex
    # order, so the padded form is canonical as it stands
    num, den = (MultiPoly._make(big, {e + (0,): c for e, c in p.terms.items()})
                for p in (phi.num, phi.den))
    phi_big = RatFunc._raw(num, den)
    s = RatFunc.var(big, "s")
    g = [[RatFunc.var(big, v) for v in phi.universe[k:k + n]]
         for k in range(0, n * n, n)]
    for j in range(n - 1):
        # g y_j(s): column j gains s times column j+1
        moved = [row[:j] + [row[j] + s * row[j + 1]] + row[j + 1:] for row in g]
        if _pull_through_matrix(phi, "g", moved) != phi_big:
            return False
    return True


def decide_O_GmodU(phi: RatFunc, n: int,
                   datum: Optional[CartanDatum] = None) -> MembershipVerdict:
    """Membership in the coordinate ring of the flag-type quotient.

    The input must be a right-invariant rational function of the matrix
    entries; each of the four chart pullbacks must be polynomial in the
    chart parameters and Laurent in the torus coordinates.
    """
    if not check_invariance(phi):
        raise ValueError("not a function on G/U-: input is not right-invariant")
    return _decide(phi, "GmodU", n, datum)


def decide_O_G(phi: RatFunc, n: int,
               datum: Optional[CartanDatum] = None) -> MembershipVerdict:
    """Membership in the coordinate ring of the full group.

    Any rational representative in the matrix entries is accepted; all
    eight chart pullbacks must be polynomial in both parameter blocks and
    Laurent in the torus coordinates.
    """
    return _decide(phi, "G", n, datum)


# -- chart inversion ----------------------------------------------------


@lru_cache(maxsize=None)
def _inversion_formulas(word: tuple, n: int) -> tuple:
    """Inverse of the unipotent chart along a reduced word for w0, as
    rational functions of the strictly-upper matrix entries.

    Factors are peeled off the left of the generic matrix g (Chamber
    Ansatz, Berenstein-Fomin-Zelevinsky 1996).  Before letter i, w is w0
    times the simple reflections already peeled, in one-line notation; the
    parameter a is the ratio of the minors of g on rows 1..i and on rows
    1..i-1, i+1, both on the columns w(1..i).  Then g <- x_i(-a) g and
    w <- w s_i.
    """
    uu = u_variables(n)
    g = [[RatFunc.const(uu, int(i == j)) for j in range(n)] for i in range(n)]
    for name, i, j in _entries("u", n):
        g[i - 1][j - 1] = RatFunc.var(uu, name)
    w = list(range(n, 0, -1))
    params = []
    for i in word:
        cols = sorted(w[:i])
        rows = list(range(i - 1))
        a = (_det([[g[r][c - 1] for c in cols] for r in rows + [i - 1]])
             / _det([[g[r][c - 1] for c in cols] for r in rows + [i]]))
        params.append(a)
        g[i - 1] = [x - a * y for x, y in zip(g[i - 1], g[i])]
        w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(params)


def require_invertible(n: int) -> None:
    """Raise Unsupported above sl6, where building the inversion formulas
    does not finish in bounded time (see the module docstring)."""
    if n > 6:
        raise Unsupported(f"chart inversion is implemented up to sl6, not sl{n}")


def invert_chart(u: GroupMatrix, eps: int, n: int,
                 datum: Optional[CartanDatum] = None) -> tuple:
    """Chart parameters reproducing an upper unitriangular matrix."""
    require_invertible(n)
    if u.n != n:
        raise ValueError("matrix size does not match n")
    if not u.is_upper_unitriangular:
        raise ValueError("chart inversion expects an upper unitriangular matrix")
    d = _datum(n, datum)
    word = distinguished_word(d, eps)
    formulas = _inversion_formulas(word, n)
    try:
        return tuple(_pull_through_matrix(f, "u", u.entries) for f in formulas)
    except (PoleError, ZeroDivisionError):
        raise ValueError("inverse undefined at this point") from None
