"""Coordinate-ring membership decision procedures.

A rational function on the unipotent group (resp. the flag-type quotient,
the full group) is regular if and only if its pullback along each of the
two (resp. four, eight) distinguished bipartite charts is a polynomial
(resp. a polynomial that is Laurent in the torus coordinates).  Each
decision returns a verdict with one certificate per chart; a certificate
records the pullback itself so it can be re-checked independently.

The chart matrices do not depend on the function being decided.  Each is
built lazily, on first use, once per process per (space, n, word), and a
decision is then a table lookup plus ``substitute``.  Certificates are the
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

from .exact_arith import (PoleError, RatFunc, is_laurent_in, is_polynomial,
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


def _verdict(certs) -> MembershipVerdict:
    certs = tuple(certs)
    failing = next((c.chart for c in certs if not c.ok), None)
    return MembershipVerdict(failing is None, certs, failing)


# -- variable universes -------------------------------------------------


def _idx(i: int, j: int) -> str:
    return f"{i}{j}" if i < 10 and j < 10 else f"{i}_{j}"


def u_variables(n: int) -> tuple:
    return tuple(f"u{_idx(i, j)}" for i in range(1, n + 1)
                 for j in range(i + 1, n + 1))


def g_variables(n: int) -> tuple:
    return tuple(f"g{_idx(i, j)}" for i in range(1, n + 1)
                 for j in range(1, n + 1))


def param_names(eps: int, nu: int) -> tuple:
    stem = "a" if eps == 0 else "b"
    return tuple(f"{stem}{k}" for k in range(1, nu + 1))


def torus_names(n: int) -> tuple:
    return tuple(f"t{i}" for i in range(1, n))


# -- chart tables -------------------------------------------------------
#
# Keyed by the words themselves rather than the datum, so a labeling
# override gives other keys instead of a stale hit.  eps stays in the key
# where it names the parameters (a... for 0, b... for 1).


def _datum(n: int, datum: Optional[CartanDatum]) -> CartanDatum:
    return datum if datum is not None else _datum_for(n)


@lru_cache(maxsize=None)
def _cached_chart_U(jj: tuple, eps: int, n: int) -> GroupMatrix:
    universe = param_names(eps, len(jj))
    params = [RatFunc.var(universe, v) for v in universe]
    return chart_U(jj, params, n)


@lru_cache(maxsize=None)
def _cached_chart_GmodU(jj: tuple, eps: int, sign: str, n: int) -> GroupMatrix:
    names = param_names(eps, len(jj))
    tnames = torus_names(n)
    universe = names + tnames
    params = [RatFunc.var(universe, v) for v in names]
    t = TorusPoint(tuple(RatFunc.var(universe, v) for v in tnames))
    return chart_GmodU(jj, params, t, sign, n)


@lru_cache(maxsize=None)
def _cached_chart_G(jj: tuple, jj2: tuple, variant: str, n: int) -> GroupMatrix:
    anames = param_names(0, len(jj))
    bnames = param_names(1, len(jj2))
    tnames = torus_names(n)
    universe = anames + tnames + bnames
    aparams = [RatFunc.var(universe, v) for v in anames]
    bparams = [RatFunc.var(universe, v) for v in bnames]
    t = TorusPoint(tuple(RatFunc.var(universe, v) for v in tnames))
    return chart_G(jj, jj2, aparams, t, bparams, variant, n)


# -- unipotent group ----------------------------------------------------


def pullback_U(phi: RatFunc, eps: int, n: int,
               datum: Optional[CartanDatum] = None) -> RatFunc:
    """Pullback along the bipartite unipotent chart for eps."""
    jj = distinguished_word(_datum(n, datum), eps)
    matrix = _cached_chart_U(jj, eps, n)
    assignment = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            assignment[f"u{_idx(i, j)}"] = matrix.entry(i, j)
    return substitute(phi, assignment)


def decide_O_U(phi: RatFunc, n: int,
               datum: Optional[CartanDatum] = None) -> MembershipVerdict:
    """Membership in the polynomial ring of the unipotent group."""
    certs = []
    for eps in (0, 1):
        pb = pullback_U(phi, eps, n, datum)
        certs.append(Certificate(ChartId("U", eps), pb, is_polynomial(pb)))
    return _verdict(certs)


# -- flag-type quotient and full group ----------------------------------


def check_invariance(phi: RatFunc) -> bool:
    """Whether phi(g y_j(s)) = phi(g) for every lower one-parameter subgroup."""
    gvars = phi.universe
    n2 = len(gvars)
    n = isqrt(n2)
    if n * n != n2:
        raise ValueError("expected a full matrix-entry universe")
    big = gvars + ("s",)
    s = RatFunc.var(big, "s")
    idmap = {v: RatFunc.var(big, v) for v in gvars}
    phi_big = substitute(phi, idmap)
    for j in range(1, n):
        assignment = dict(idmap)
        for k in range(1, n + 1):
            assignment[f"g{_idx(k, j)}"] = (
                idmap[f"g{_idx(k, j)}"] + s * idmap[f"g{_idx(k, j + 1)}"])
        if substitute(phi, assignment) != phi_big:
            return False
    return True


def _pull_through_matrix(phi: RatFunc, matrix: GroupMatrix) -> RatFunc:
    n = matrix.n
    assignment = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assignment[f"g{_idx(i, j)}"] = matrix.entry(i, j)
    return substitute(phi, assignment)


def decide_O_GmodU(phi: RatFunc, n: int,
                   datum: Optional[CartanDatum] = None) -> MembershipVerdict:
    """Membership in the coordinate ring of the flag-type quotient.

    The input must be a right-invariant rational function of the matrix
    entries; each of the four chart pullbacks must be polynomial in the
    chart parameters and Laurent in the torus coordinates.
    """
    if not check_invariance(phi):
        raise ValueError("not a function on G/U-: input is not right-invariant")
    d = _datum(n, datum)
    tnames = torus_names(n)
    certs = []
    for eps in (0, 1):
        jj = distinguished_word(d, eps)
        for sign in ("+", "-"):
            pb = _pull_through_matrix(phi, _cached_chart_GmodU(jj, eps, sign, n))
            certs.append(Certificate(ChartId("GmodU", eps, sign=sign), pb,
                                     is_laurent_in(pb, tnames)))
    return _verdict(certs)


def decide_O_G(phi: RatFunc, n: int,
               datum: Optional[CartanDatum] = None) -> MembershipVerdict:
    """Membership in the coordinate ring of the full group.

    Any rational representative in the matrix entries is accepted; all
    eight chart pullbacks must be polynomial in both parameter blocks and
    Laurent in the torus coordinates.
    """
    d = _datum(n, datum)
    tnames = torus_names(n)
    certs = []
    for eps in (0, 1):
        for eps2 in (0, 1):
            jj = distinguished_word(d, eps)
            jj2 = distinguished_word(d, eps2)
            for variant in ("pm", "mp"):
                pb = _pull_through_matrix(phi, _cached_chart_G(jj, jj2, variant, n))
                certs.append(Certificate(
                    ChartId("G", eps, eps2=eps2, variant=variant), pb,
                    is_laurent_in(pb, tnames)))
    return _verdict(certs)


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
    g = [[RatFunc.var(uu, f"u{_idx(i, j)}") if j > i
          else RatFunc.const(uu, 1 if i == j else 0)
          for j in range(1, n + 1)] for i in range(1, n + 1)]
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
    assignment = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            assignment[f"u{_idx(i, j)}"] = u.entry(i, j)
    try:
        return tuple(substitute(f, assignment) for f in formulas)
    except (PoleError, ZeroDivisionError):
        raise ValueError("inverse undefined at this point") from None
