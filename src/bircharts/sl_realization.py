"""Concrete SL_n realization over exact rational functions.

Pinned generators x_i(a) = I + a E_{i,i+1} and y_i(a) = I + a E_{i+1,i},
birational chart products for the unipotent group, the flag-type quotient
and the full group, Weyl-group lifts, the automorphism swapping the two
triangular subgroups, generalized minors, LDU (Gauss) decomposition, and
the twist eta_w of a unipotent matrix, which for w0 is the big-cell twist
involution, whose chamber minors give the chart parameters along any
reduced word of w (``_chamber_parameters``, for transitions and inversion).

Right multiplication by x_i(a), y_i(a) or the dot lift of s_i is a column
operation on a list of rows, in place (``_act``); ``generator`` (x_i and
y_i only), the charts and the twist are built that way, the torus as
column scaling and their lifts as signed swaps.  ``lift`` builds both
Weyl lifts from generators.  The twist takes the swap automorphism of its
lower unitriangular factor L from L^-1 by forward substitution; ``iota``
of a general matrix takes complementary minors.  ``lift`` and
``gen_minor`` still multiply generator matrices.  The public
``GroupMatrix`` constructor validates; ``GroupMatrix._make`` is trusted,
and every matrix built here goes through it.

The torus is coordinatized so that the i-th fundamental character reads
off the i-th coordinate: diag(t1, t2/t1, ..., t_{n-1}/t_{n-2}, 1/t_{n-1}).
The swap automorphism is realized as g -> h (g^T)^{-1} h^{-1} with
h = diag(1, -1, 1, ...); the realization is certified by the generator
identities in the test suite, not assumed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .exact_arith import MultiPoly, RatFunc
from .root_data import CartanDatum, Weight, _fundamental_descent, cartan, \
    distinguished_word, is_reduced
# defined in root_data, so that the CLI catches it without loading the
# kernel; re-exported here
from .root_data import Unsupported  # noqa: F401

# the shared 0 and 1 of every matrix built here; only caller values are coerced
_ZERO = RatFunc.const((), 0)
_ONE = RatFunc.const((), 1)


def _as_ratfunc(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, MultiPoly):
        return RatFunc(x)
    return RatFunc.const((), x)


def _det(rows) -> RatFunc:
    """Determinant of a square array of RatFuncs (cofactor expansion)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    # expand along the row with the most zeros
    best = max(range(n), key=lambda i: sum(1 for e in rows[i] if e.is_zero))
    total = _ZERO
    for j, e in enumerate(rows[best]):
        if e.is_zero:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j]
                 for i in range(n) if i != best]
        term = e * _det(minor)
        total = total + (term if (best + j) % 2 == 0 else -term)
    return total


def _is_triangular(rows, upper: bool) -> bool:
    n = len(rows)
    for i in range(n):
        for j in range(n):
            if (j < i if upper else j > i) and not rows[i][j].is_zero:
                return False
    return True


class GroupMatrix:
    """Square matrix of RatFuncs with determinant 1.

    The public constructor validates: it coerces the entries to RatFuncs
    and checks that the matrix is square with determinant 1.  ``_make`` is
    trusted: the library builds every matrix it returns through it, from
    products of generators, column operations and automorphisms, whose
    determinant is 1 by construction, and stores the rows unchecked.
    """

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(_as_ratfunc(e) for e in row) for row in entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix is not square")
        self.n = n
        self.entries = rows
        d = self.det()
        if not (d.is_const and d.const_value == 1):
            raise ValueError("matrix determinant is not 1")

    @classmethod
    def _make(cls, rows) -> "GroupMatrix":
        """The matrix of square rows of RatFuncs with determinant 1, stored
        as tuples with no coercion and no determinant."""
        m = object.__new__(cls)
        m.entries = tuple(map(tuple, rows))
        m.n = len(m.entries)
        return m

    def det(self) -> RatFunc:
        return _det(self.entries)

    @classmethod
    def identity(cls, n: int) -> "GroupMatrix":
        return cls._make(_identity_rows(n))

    def __matmul__(self, other: "GroupMatrix") -> "GroupMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        n = self.n
        a, b = self.entries, other.entries
        prod = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = a[i][0] * b[0][j]
                for k in range(1, n):
                    if a[i][k].is_zero or b[k][j].is_zero:
                        continue
                    acc = acc + a[i][k] * b[k][j]
                row.append(acc)
            prod.append(row)
        return GroupMatrix._make(prod)

    def inverse(self) -> "GroupMatrix":
        # the adjugate, valid because det = 1: iota's complementary minors,
        # transposed and signed
        m = iota(self).entries
        return GroupMatrix._make([[m[j][i] if (i + j) % 2 == 0 else -m[j][i]
                                   for j in range(self.n)] for i in range(self.n)])

    @property
    def is_upper_unitriangular(self) -> bool:
        return (_is_triangular(self.entries, True)
                and all(self.entries[i][i] == 1 for i in range(self.n)))

    @property
    def is_diagonal(self) -> bool:
        return _is_triangular(self.entries, True) and _is_triangular(self.entries, False)

    def entry(self, i: int, j: int) -> RatFunc:
        """1-based access."""
        return self.entries[i - 1][j - 1]

    def __eq__(self, other):
        if not isinstance(other, GroupMatrix) or self.n != other.n:
            return NotImplemented if not isinstance(other, GroupMatrix) else False
        return all(self.entries[i][j] == other.entries[i][j]
                   for i in range(self.n) for j in range(self.n))

    __hash__ = None

    def __str__(self):
        return "[" + ", ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.entries) + "]"

    def __repr__(self):
        return f"GroupMatrix({self})"


class TorusPoint(NamedTuple("TorusPoint", [("coords", tuple)])):
    """Torus element with coordinates read off by the fundamental characters."""

    __slots__ = ()

    def __new__(cls, coords):
        for c in coords:
            if not isinstance(c, RatFunc) or c.is_zero:
                raise ValueError("torus coordinates must be nonzero RatFuncs")
        return super().__new__(cls, coords)

    @property
    def n(self) -> int:
        return len(self.coords) + 1

    def matrix(self) -> GroupMatrix:
        return GroupMatrix._make(_scale(_identity_rows(self.n), self))

    def inverse(self) -> "TorusPoint":
        return TorusPoint(tuple(c.inv() for c in self.coords))


def torus_point(coords: Sequence[RatFunc]) -> GroupMatrix:
    """Realized torus element; the i-th fundamental character equals coords[i-1]."""
    return TorusPoint(tuple(_as_ratfunc(c) for c in coords)).matrix()


def _identity_rows(n: int) -> list:
    return [[_ONE if r == c else _ZERO for c in range(n)] for r in range(n)]


def _act(rows: list, kind: str, word: Sequence[int],
         params: Optional[Sequence] = None) -> list:
    """rows times the kind-letters along the word, in place: x_i(a) adds a
    times column i to column i+1, y_i(a) adds a times column i+1 to column
    i, and s_i (no parameter) moves column i+1, negated, to column i and
    column i to column i+1.  Zero source entries are skipped."""
    word = tuple(word)
    params = (None,) * len(word) if params is None else tuple(map(_as_ratfunc, params))
    if len(word) != len(params):
        raise ValueError(
            f"length mismatch: word has {len(word)} letters, {len(params)} parameters")
    for i, a in zip(word, params):
        if not 1 <= i < len(rows):
            raise ValueError(f"index {i} out of range for SL_{len(rows)}")
        p, q = (i, i - 1) if kind == "y" else (i - 1, i)
        for row in rows:
            if kind == "s":
                row[p], row[q] = -row[q], row[p]
            elif not row[p].is_zero:
                row[q] = row[q] + a * row[p]
    return rows


def _scale(rows: list, t: TorusPoint) -> list:
    """rows times the torus element t, in place, as column scaling."""
    c = t.coords
    diag = [c[0], *(c[k] / c[k - 1] for k in range(1, len(c))), c[-1].inv()]
    for row in rows:
        row[:] = [e * d for e, d in zip(row, diag)]
    return rows


def generator(kind: str, i: int, arg: Optional[RatFunc], n: int) -> GroupMatrix:
    """The pinned generators x_i(arg) (kind "x") and y_i(arg) (kind "y");
    ``lift`` builds both Weyl lifts from them."""
    if kind not in ("x", "y"):
        raise ValueError(f"unknown generator kind {kind!r}")
    if arg is None:
        raise ValueError(f"generator {kind!r} requires an argument")
    return GroupMatrix._make(_act(_identity_rows(n), kind, (i,), (arg,)))


def chart_U(word: Sequence[int], params: Sequence, n: int) -> GroupMatrix:
    """Product of upper one-parameter generators along the word."""
    return GroupMatrix._make(_act(_identity_rows(n), "x", word, params))


@lru_cache(maxsize=None)
def _datum_for(n: int) -> CartanDatum:
    return cartan("A", n - 1)


def lift(word: Sequence[int], style: str, n: int) -> GroupMatrix:
    """Group lift of a reduced word; independent of the chosen reduced word."""
    word = tuple(word)
    if style not in ("dot", "ddot"):
        raise ValueError(f"unknown lift style {style!r}")
    if word and not is_reduced(word, _datum_for(n)):
        raise ValueError("word is not reduced")
    a, b = ("x", "y") if style == "dot" else ("y", "x")
    out = GroupMatrix.identity(n)
    for i in word:
        # s_i is x_i(1) y_i(-1) x_i(1) (dot) or y_i(1) x_i(-1) y_i(1) (ddot)
        out = out @ (generator(a, i, _ONE, n) @ generator(b, i, -_ONE, n)
                     @ generator(a, i, _ONE, n))
    return out


def chart_GmodU(word: Sequence[int], params: Sequence, t: TorusPoint,
                sign: str, n: int) -> GroupMatrix:
    """Coset representative for the flag-type quotient chart.

    sign "+" gives (x-product) t; sign "-" gives (y-product) t w0-lift.
    Callers treat the result modulo right multiplication by the lower
    unitriangular subgroup.
    """
    nu = n * (n - 1) // 2
    if len(tuple(params)) != nu:
        raise ValueError(f"length mismatch: expected {nu} parameters")
    if sign not in ("+", "-"):
        raise ValueError(f"unknown sign {sign!r}")
    rows = _scale(_act(_identity_rows(n), "x" if sign == "+" else "y", word, params), t)
    w0 = distinguished_word(_datum_for(n), 0) if sign == "-" else ()
    return GroupMatrix._make(_act(rows, "s", w0))


def chart_G(word: Sequence[int], word2: Sequence[int], params: Sequence,
            t: TorusPoint, params2: Sequence, variant: str, n: int) -> GroupMatrix:
    """Full-group chart: "pm" is (x-product) t (y-product), "mp" is
    (y-product) t^{-1} (x-product)."""
    nu = n * (n - 1) // 2
    if len(tuple(params)) != nu or len(tuple(params2)) != nu:
        raise ValueError(f"length mismatch: expected {nu} parameters per block")
    if variant not in ("pm", "mp"):
        raise ValueError(f"unknown variant {variant!r}")
    first, second = ("x", "y") if variant == "pm" else ("y", "x")
    rows = _scale(_act(_identity_rows(n), first, word, params),
                  t if variant == "pm" else t.inverse())
    return GroupMatrix._make(_act(rows, second, word2, params2))


def iota(g: GroupMatrix) -> GroupMatrix:
    """The pinning-swapping automorphism: x_i(a) <-> y_i(a), t -> t^{-1}.
    Entry (i, j) is the minor of g without row i and column j, which is
    h (g^T)^{-1} h^{-1} for h = diag(1, -1, 1, ...), as det g = 1."""
    n = g.n
    rows = g.entries
    if n == 1:
        return GroupMatrix._make([[rows[0][0].inv()]])
    return GroupMatrix._make(
        [[_det([[rows[a][b] for b in range(n) if b != j]
                for a in range(n) if a != i]) for j in range(n)]
         for i in range(n)])


class MinorSpec(NamedTuple):
    """Generalized minor: fundamental index i translated by a Weyl witness."""

    i: int
    w_word: tuple


def minor_spec(weight: Weight, datum: CartanDatum) -> MinorSpec:
    """MinorSpec for a weight in the orbit of a fundamental weight."""
    word, i = _fundamental_descent(weight, datum)
    return MinorSpec(i, word)


def gen_minor(spec: MinorSpec, g: GroupMatrix) -> RatFunc:
    """Value of the generalized minor at g.

    Realized as the leading principal i x i minor of g times the ddot lift
    of the witness word; the result depends only on the witness's weight.
    """
    m = g @ lift(spec.w_word, "ddot", g.n)
    rows = [[m.entries[a][b] for b in range(spec.i)] for a in range(spec.i)]
    return _det(rows)


def _eliminate(m: list) -> list:
    """The rows of L for rows m = L (D U), L lower unitriangular, by
    elimination in place: each row update touches only the columns right
    of its pivot, so m ends holding D U on and above the diagonal (what is
    left below it is never read)."""
    n = len(m)
    lower = _identity_rows(n)
    for k in range(n):
        pivot = m[k][k]
        if pivot.is_zero:
            raise ValueError("not Gauss-decomposable")
        for i in range(k + 1, n):
            if m[i][k].is_zero:
                continue
            factor = m[i][k] / pivot
            lower[i][k] = factor
            m[i][k + 1:] = [a - factor * b
                            for a, b in zip(m[i][k + 1:], m[k][k + 1:])]
    return lower


def gauss_decompose(g: GroupMatrix):
    """g = L D U with L lower unitriangular, D diagonal, U upper unitriangular.

    Defined exactly when all leading principal minors are nonzero as
    rational functions.
    """
    n = g.n
    m = [list(row) for row in g.entries]
    lower = _eliminate(m)
    diag = [m[k][k] for k in range(n)]
    upper = [[(m[i][j] / diag[i]) if j >= i else _ZERO for j in range(n)]
             for i in range(n)]
    D = [[diag[i] if i == j else _ZERO for j in range(n)] for i in range(n)]
    return GroupMatrix._make(lower), GroupMatrix._make(D), GroupMatrix._make(upper)


def _iota_of_lower(lower: list) -> list:
    """iota(L) for a lower unitriangular L, as rows: entry (i, j) is
    (-1)^(i+j) times entry (j, i) of L^-1, which forward substitution gives
    without a division because the diagonal of L is 1."""
    n = len(lower)
    inv = _identity_rows(n)
    for i in range(n):
        for j in range(i):
            acc = _ZERO
            for k in range(j, i):
                if not (lower[i][k].is_zero or inv[k][j].is_zero):
                    acc = acc + lower[i][k] * inv[k][j]
            inv[i][j] = -acc
    return [[inv[j][i] if (i + j) % 2 == 0 else -inv[j][i] for j in range(n)]
            for i in range(n)]


def twist(u: GroupMatrix, word: Optional[Sequence[int]] = None) -> GroupMatrix:
    """The twist eta_w of an upper unitriangular matrix, for w the element
    of a reduced word (w0 by default, the big-cell twist involution).

    Gauss-decompose u times the dot lift of w^-1 (s-swaps along the reversed
    word) as L D U, building L alone, and push L through the swap
    automorphism.  That lift differs from the inverse lift of w by a
    diagonal right factor, which changes D and U but not L.  Defined exactly where the leading principal
    minors of u times the lift are nonzero; for u = chart_U(word, params)
    with positive parameters they are.
    """
    if not u.is_upper_unitriangular:
        raise ValueError("twist is defined on upper unitriangular matrices")
    n = u.n
    if word is None:
        word = distinguished_word(_datum_for(n), 0)
    elif not is_reduced(word, _datum_for(n)):
        raise ValueError("word is not reduced")
    rows = _act([list(row) for row in u.entries], "s", tuple(word)[::-1])
    try:
        lower = _eliminate(rows)
    except ValueError:
        raise ValueError("twist undefined: a leading principal minor vanishes") from None
    return GroupMatrix._make(_iota_of_lower(lower))


def _chamber_parameters(z: GroupMatrix, word: Sequence[int]) -> tuple:
    """The parameters of x along a reduced word of w, read off its twist
    z = eta_w(x) by chamber minors (Berenstein-Fomin-Zelevinsky 1996,
    Thm 1.4): for i the k-th letter and v = s_{i_1} ... s_{i_{k-1}} in
    one-line notation, the k-th is D(v[:i+1]) D(v[:i-1]) / (D(v[:i])
    D((v s_i)[:i])), where D(J) is the minor of z on rows 1..|J| and the
    sorted columns J (1 for none or all n).  Each minor is computed once."""
    n, rows = z.n, z.entries
    minors = dict.fromkeys(((), tuple(range(1, n + 1))), _ONE)

    def minor(cols):
        key = tuple(sorted(cols))
        if key not in minors:
            minors[key] = _det([[rows[r][c - 1] for c in key]
                                for r in range(len(key))])
        return minors[key]

    v = list(range(1, n + 1))
    out = []
    for i in word:
        vs = list(v)
        vs[i - 1], vs[i] = v[i], v[i - 1]
        out.append(minor(v[:i + 1]) * minor(v[:i - 1])
                   / (minor(v[:i]) * minor(vs[:i])))
        v = vs
    return tuple(out)
