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
variables, ``u_variables(n)`` or ``g_variables(n)``; on G/U- it must also
be right-invariant, which ``check_invariance`` tests by vector fields D:
D(p) q = p D(q), or D(r) = 0 when the other side of p/q is a constant.

The chart matrices do not depend on the function being decided.  Each
chart is built lazily, on first use, once per process per (chart, n), from
the distinguished words of sl_n, and only its prepared substitution (see
``exact_arith``) is kept, with the key fields of the space's non-torus
parameters for the Laurent test.  The chart entries are polynomials over
monomials in the torus coordinates, so a pullback is summed over one
common monomial with no per-step gcd, and normalized without a gcd unless
both sides of the sum have two or more terms.  The 4 G/U- charts, like the
8 G charts, share 2 shift tables (the torus monomials of their entries'
denominators), so a decision decodes the function once and weighs its
terms twice.  A pullback past the kernel's term budget raises
``Unsupported``, and so, naming the chart, does one past its degree limit.
Held at once, the unipotent charts at sl3-sl7 and the quotient and
full-group charts at sl3-sl5 take about 0.56 MB, of which the eight sl5
full-group charts, built last, take 0.26 MB (tracemalloc's current size
after gc.collect(), before and after the builds).  Above a measured size
bound per space (``_MAX_N``) a decision raises ``Unsupported`` before any
chart is built.

Chart inversion reads the chamber minors of one twist, as ``transition``
does: the parameters along a word are ratios of minors of eta_w0 of the
generic unitriangular matrix (``sl_realization._chamber_parameters``).
The formulas are built once per (word, n) and then substituted; a point
is undefined only where a canonical denominator vanishes.  Building them
takes under 0.03 s up to sl5 and 0.3-0.6 s at sl6, depending on the word
(Python 3.11, 2 vCPUs); at sl7 the build of ``jj1`` did not finish in
300 s, so inversion above sl6 raises ``Unsupported`` before any work.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import NamedTuple, Optional

from .exact_arith import (DegreeLimitError, PoleError, RatFunc, Substitution,
                          _derivation, _fields_outside, _laurent_outside,
                          prepare_substitution, substitute)
from .exprparse import indexed_name
from .root_data import Unsupported, distinguished_word
from .sl_realization import (GroupMatrix, TorusPoint, _chamber_parameters,
                             _datum_for, chart_G, chart_GmodU, chart_U, twist)

class ChartId(NamedTuple):
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


class Certificate(NamedTuple):
    chart: ChartId
    pullback: RatFunc
    ok: bool


class MembershipVerdict(NamedTuple):
    member: bool
    certificates: tuple
    failing_chart: Optional[ChartId]


# -- variable universes -------------------------------------------------


@lru_cache(maxsize=None)
def _entries(stem: str, n: int) -> tuple:
    """(name, i, j) for each matrix-entry variable, row by row: u_ij
    strictly above the diagonal, g_ij everywhere, named as the parser
    names u(i,j) and g(i,j)."""
    return tuple((indexed_name(stem, (i, j)), i, j)
                 for i in range(1, n + 1)
                 for j in range(i + 1 if stem == "u" else 1, n + 1))


@lru_cache(maxsize=None)
def u_variables(n: int) -> tuple:
    return tuple(name for name, _, _ in _entries("u", n))


@lru_cache(maxsize=None)
def g_variables(n: int) -> tuple:
    return tuple(name for name, _, _ in _entries("g", n))


def param_names(eps: int, nu: int) -> tuple:
    stem = "a" if eps == 0 else "b"
    return tuple(f"{stem}{k}" for k in range(1, nu + 1))


def torus_names(n: int) -> tuple:
    return tuple(f"t{i}" for i in range(1, n))


def _require_universe(phi: RatFunc, stem: str, n: int) -> None:
    if phi.universe != (u_variables(n) if stem == "u" else g_variables(n)):
        raise ValueError(f"expected a function of the {stem}_ij of sl{n}, "
                         f"got one over {phi.universe}")


def _substitution(stem: str, matrix) -> Substitution:
    """Each entry variable replaced by that entry of matrix, a sequence of
    rows, prepared for ``substitute``."""
    entries = _entries(stem, len(matrix))
    return prepare_substitution(tuple(name for name, _, _ in entries),
                                {name: matrix[i - 1][j - 1] for name, i, j in entries})


# -- chart table --------------------------------------------------------
#
# The charts of each space in certificate order.

_CHARTS = {
    "U": tuple(ChartId("U", eps) for eps in (0, 1)),
    "GmodU": tuple(ChartId("GmodU", eps, sign=sign)
                   for eps in (0, 1) for sign in ("+", "-")),
    "G": tuple(ChartId("G", eps, eps2=eps2, variant=variant)
               for eps in (0, 1) for eps2 in (0, 1) for variant in ("pm", "mp")),
}


def _chart(cid: ChartId, n: int) -> GroupMatrix:
    """The chart matrix over its parameters: those of jj (a... for eps 0,
    b... for 1, a... in G), then the torus coordinates (not in U), then in
    G the b-parameters of jj2; jj and jj2 are the words of sl_n for eps
    and eps2."""
    space, d = cid.space, _datum_for(n)
    jj = distinguished_word(d, cid.eps)
    jj2 = None if cid.eps2 is None else distinguished_word(d, cid.eps2)
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


@lru_cache(maxsize=None)
def _chart_substitution(cid: ChartId, n: int) -> Substitution:
    """The chart's entries for the space's entry variables, prepared once."""
    return _substitution("u" if cid.space == "U" else "g", _chart(cid, n).entries)


@lru_cache(maxsize=None)
def _outside_torus(space: str, n: int) -> int:
    """The key fields of the non-torus parameters, alike on every chart of a space."""
    return _fields_outside(_chart_substitution(_CHARTS[space][0], n).target,
                           torus_names(n))


# The largest n measured to decide cold within 10 s (CLI, one run each):
# U at sl20 in 9.2 s and 509 MB, G/U- at sl16 in 5.3 s (sl17: 11 s), G at
# sl8 in 2.9 s (sl9: 12 s).  sl22 on U held 1.45 GB when stopped at 20 s.
_MAX_N = {"U": 20, "GmodU": 16, "G": 8}


def require_decidable(space: str, n: int) -> None:
    if n > _MAX_N[space]:
        raise Unsupported(f"{space} membership is decided up to "
                          f"sl{_MAX_N[space]}, not sl{n}")


def _decide(phi: RatFunc, space: str, n: int) -> MembershipVerdict:
    """One certificate per chart of the space, in table order: the
    pullback, and whether it is a polynomial that is Laurent in the torus
    coordinates (a U chart has none, so there it must be a polynomial)."""
    require_decidable(space, n)
    _require_universe(phi, "u" if space == "U" else "g", n)
    outside = _outside_torus(space, n)
    where = "U" if space == "U" else f"SL_{n}"
    certs = []
    for cid in _CHARTS[space]:
        # U charts go through the public pullback_U, so that a wrapper on
        # that name (perfbench/spans.py) sees the decision's pullbacks
        try:
            pb = (pullback_U(phi, cid.eps, n) if space == "U"
                  else substitute(phi, _chart_substitution(cid, n)))
        except PoleError:
            raise ValueError(
                f"the input's denominator vanishes on {where}: it is zero "
                f"along the chart {cid.label}, whose image is dense") from None
        except DegreeLimitError as exc:
            raise Unsupported(f"along the chart {cid.label}, the pullback's "
                              f"{exc}") from None
        certs.append(Certificate(cid, pb, _laurent_outside(pb, outside)))
    failing = next((c.chart for c in certs if not c.ok), None)
    return MembershipVerdict(failing is None, tuple(certs), failing)


# -- the three spaces ---------------------------------------------------


def pullback_U(phi: RatFunc, eps: int, n: int) -> RatFunc:
    """Pullback along the bipartite unipotent chart for eps."""
    _require_universe(phi, "u", n)
    return substitute(phi, _chart_substitution(ChartId("U", eps), n))


def decide_O_U(phi: RatFunc, n: int) -> MembershipVerdict:
    """Membership in the polynomial ring of the unipotent group."""
    return _decide(phi, "U", n)


def check_invariance(phi: RatFunc) -> bool:
    """Whether phi(g y_j(s)) = phi(g) for every lower one-parameter subgroup:
    phi = p/q is invariant under the flow of y_j exactly when D(p) q = p D(q)
    for its vector field D = sum_i g_{i,j+1} d/dg_{i,j} (characteristic 0)."""
    n = isqrt(len(phi.universe))
    if phi.universe != g_variables(n):
        raise ValueError("expected a full matrix-entry universe")
    p, q = phi.num, phi.den
    # g_{i,j} is variable (i-1)n + j-1, so the field of y_j pairs the
    # variables k of column j with k + 1, the same row of column j+1
    fields = ([(k, k + 1) for k in range(j - 1, n * n, n)] for j in range(1, n))
    if p.is_const or q.is_const:
        # D of a constant is 0: the identity is D(r) = 0 for the other side
        return all(_derivation(q if p.is_const else p, f).is_zero for f in fields)
    return all(_derivation(p, f) * q == p * _derivation(q, f) for f in fields)


def decide_O_GmodU(phi: RatFunc, n: int) -> MembershipVerdict:
    """Membership in the coordinate ring of the flag-type quotient.

    The input must be a right-invariant rational function of the matrix
    entries; each of the four chart pullbacks must be polynomial in the
    chart parameters and Laurent in the torus coordinates.
    """
    if not check_invariance(phi):
        raise ValueError("not a function on G/U-: input is not right-invariant")
    return _decide(phi, "GmodU", n)


def decide_O_G(phi: RatFunc, n: int) -> MembershipVerdict:
    """Membership in the coordinate ring of the full group.

    Any rational representative in the matrix entries is accepted; all
    eight chart pullbacks must be polynomial in both parameter blocks and
    Laurent in the torus coordinates.
    """
    return _decide(phi, "G", n)


# -- chart inversion ----------------------------------------------------


@lru_cache(maxsize=None)
def _inversion_formulas(word: tuple, n: int) -> tuple:
    """Inverse of the unipotent chart along a reduced word for w0, as
    rational functions of the strictly-upper matrix entries: the chamber
    minors of the twist of the generic upper unitriangular matrix."""
    uu = u_variables(n)
    g = [[RatFunc.const(uu, int(i == j)) for j in range(n)] for i in range(n)]
    for name, i, j in _entries("u", n):
        g[i - 1][j - 1] = RatFunc.var(uu, name)
    return _chamber_parameters(twist(GroupMatrix._make(g)), word)


def require_invertible(n: int) -> None:
    """Raise Unsupported above sl6, where building the inversion formulas
    does not finish in bounded time (see the module docstring)."""
    if n > 6:
        raise Unsupported(f"chart inversion is implemented up to sl6, not sl{n}")


def invert_chart(u: GroupMatrix, eps: int, n: int) -> tuple:
    """Chart parameters reproducing an upper unitriangular matrix."""
    require_invertible(n)
    if u.n != n:
        raise ValueError("matrix size does not match n")
    if not u.is_upper_unitriangular:
        raise ValueError("chart inversion expects an upper unitriangular matrix")
    formulas = _inversion_formulas(distinguished_word(_datum_for(n), eps), n)
    try:
        sub = _substitution("u", u.entries)
        return tuple(substitute(f, sub) for f in formulas)
    except (PoleError, ZeroDivisionError):
        raise ValueError("inverse undefined at this point") from None
