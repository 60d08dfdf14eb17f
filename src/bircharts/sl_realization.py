"""Concrete SL_n realization over exact rational functions.

Pinned generators x_i(a) = I + a E_{i,i+1} and y_i(a) = I + a E_{i+1,i},
birational chart products for the unipotent group, the flag-type quotient
and the full group, Weyl-group lifts, the automorphism swapping the two
triangular subgroups, generalized minors, LDU (Gauss) decomposition, and
the big-cell twist involution.

The torus is coordinatized so that the i-th fundamental character reads
off the i-th coordinate: diag(t1, t2/t1, ..., t_{n-1}/t_{n-2}, 1/t_{n-1}).
The swap automorphism is realized as g -> h (g^T)^{-1} h^{-1} with
h = diag(1, -1, 1, ...); the realization is certified by the generator
identities in the test suite, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .exact_arith import MultiPoly, RatFunc
from .root_data import CartanDatum, Weight, _fundamental_descent, cartan, \
    distinguished_word, is_reduced


class Unsupported(Exception):
    """A well-formed request that this implementation does not cover, such
    as a transition that needs an order-4 braid move or a chart inversion
    above sl6."""


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
    total = RatFunc.const((), 0)
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

    The determinant is verified on construction; products of verified
    matrices skip the check (the determinant is multiplicative).
    """

    __slots__ = ("n", "entries")

    def __init__(self, entries, check: bool = True):
        rows = tuple(tuple(_as_ratfunc(e) for e in row) for row in entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix is not square")
        self.n = n
        self.entries = rows
        if check:
            d = self.det()
            if not (d.is_const and d.const_value == 1):
                raise ValueError("matrix determinant is not 1")

    def det(self) -> RatFunc:
        rows = [list(r) for r in self.entries]
        if _is_triangular(rows, True) or _is_triangular(rows, False):
            d = RatFunc.const((), 1)
            for i in range(self.n):
                d = d * rows[i][i]
            return d
        return _det(rows)

    @classmethod
    def identity(cls, n: int) -> "GroupMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)],
                   check=False)

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
        return GroupMatrix(prod, check=False)

    def inverse(self) -> "GroupMatrix":
        # adjugate; valid because det = 1
        n = self.n
        rows = self.entries
        if n == 1:
            return GroupMatrix([[rows[0][0].inv()]], check=False)
        inv = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = [[rows[a][b] for b in range(n) if b != i]
                         for a in range(n) if a != j]
                c = _det(minor)
                row.append(c if (i + j) % 2 == 0 else -c)
            inv.append(row)
        return GroupMatrix(inv, check=False)

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


@dataclass(frozen=True)
class TorusPoint:
    """Torus element with coordinates read off by the fundamental characters."""

    coords: tuple

    def __post_init__(self):
        for c in self.coords:
            if not isinstance(c, RatFunc) or c.is_zero:
                raise ValueError("torus coordinates must be nonzero RatFuncs")

    @property
    def n(self) -> int:
        return len(self.coords) + 1

    def matrix(self) -> GroupMatrix:
        n = self.n
        diag = [self.coords[0]]
        for k in range(1, n - 1):
            diag.append(self.coords[k] / self.coords[k - 1])
        diag.append(self.coords[-1].inv())
        return GroupMatrix(
            [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)],
            check=False)

    def inverse(self) -> "TorusPoint":
        return TorusPoint(tuple(c.inv() for c in self.coords))


def torus_point(coords: Sequence[RatFunc]) -> GroupMatrix:
    """Realized torus element; the i-th fundamental character equals coords[i-1]."""
    return TorusPoint(tuple(_as_ratfunc(c) for c in coords)).matrix()


def generator(kind: str, i: int, arg: Optional[RatFunc], n: int) -> GroupMatrix:
    """Pinned generators: x/y one-parameter subgroups, sdot/sddot Weyl lifts."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"index {i} out of range for SL_{n}")
    if kind in ("x", "y"):
        if arg is None:
            raise ValueError(f"generator {kind!r} requires an argument")
        a = _as_ratfunc(arg)
        m = [[_as_ratfunc(1 if r == c else 0) for c in range(n)] for r in range(n)]
        if kind == "x":
            m[i - 1][i] = a
        else:
            m[i][i - 1] = a
        return GroupMatrix(m)
    if kind == "sdot":
        one = RatFunc.const((), 1)
        return (generator("x", i, one, n) @ generator("y", i, -one, n)
                @ generator("x", i, one, n))
    if kind == "sddot":
        one = RatFunc.const((), 1)
        return (generator("y", i, one, n) @ generator("x", i, -one, n)
                @ generator("y", i, one, n))
    raise ValueError(f"unknown generator kind {kind!r}")


def _product(kind: str, word: Sequence[int], params: Sequence, n: int) -> GroupMatrix:
    word = tuple(word)
    params = tuple(params)
    if len(word) != len(params):
        raise ValueError(
            f"length mismatch: word has {len(word)} letters, {len(params)} parameters")
    out = GroupMatrix.identity(n)
    for i, a in zip(word, params):
        out = out @ generator(kind, i, _as_ratfunc(a), n)
    return out


def chart_U(word: Sequence[int], params: Sequence, n: int) -> GroupMatrix:
    """Product of upper one-parameter generators along the word."""
    return _product("x", word, params, n)


@lru_cache(maxsize=None)
def _datum_for(n: int) -> CartanDatum:
    return cartan("A", n - 1)


@lru_cache(maxsize=None)
def _w0_word(n: int) -> tuple:
    return distinguished_word(_datum_for(n), 0)


def lift(word: Sequence[int], style: str, n: int) -> GroupMatrix:
    """Group lift of a reduced word; independent of the chosen reduced word."""
    word = tuple(word)
    if style not in ("dot", "ddot"):
        raise ValueError(f"unknown lift style {style!r}")
    if word and not is_reduced(word, _datum_for(n)):
        raise ValueError("word is not reduced")
    out = GroupMatrix.identity(n)
    kind = "sdot" if style == "dot" else "sddot"
    for i in word:
        out = out @ generator(kind, i, None, n)
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
    if sign == "+":
        return _product("x", word, params, n) @ t.matrix()
    if sign == "-":
        return _product("y", word, params, n) @ t.matrix() @ lift(_w0_word(n), "dot", n)
    raise ValueError(f"unknown sign {sign!r}")


def chart_G(word: Sequence[int], word2: Sequence[int], params: Sequence,
            t: TorusPoint, params2: Sequence, variant: str, n: int) -> GroupMatrix:
    """Full-group chart: "pm" is (x-product) t (y-product), "mp" is
    (y-product) t^{-1} (x-product)."""
    nu = n * (n - 1) // 2
    if len(tuple(params)) != nu or len(tuple(params2)) != nu:
        raise ValueError(f"length mismatch: expected {nu} parameters per block")
    if variant == "pm":
        return _product("x", word, params, n) @ t.matrix() @ _product("y", word2, params2, n)
    if variant == "mp":
        return (_product("y", word, params, n) @ t.inverse().matrix()
                @ _product("x", word2, params2, n))
    raise ValueError(f"unknown variant {variant!r}")


def iota(g: GroupMatrix) -> GroupMatrix:
    """The pinning-swapping automorphism: x_i(a) <-> y_i(a), t -> t^{-1}.
    Entry (i, j) is the minor of g without row i and column j, which is
    h (g^T)^{-1} h^{-1} for h = diag(1, -1, 1, ...), as det g = 1."""
    n = g.n
    rows = g.entries
    if n == 1:
        return GroupMatrix([[rows[0][0].inv()]], check=False)
    return GroupMatrix(
        [[_det([[rows[a][b] for b in range(n) if b != j]
                for a in range(n) if a != i]) for j in range(n)]
         for i in range(n)], check=False)


@dataclass(frozen=True)
class MinorSpec:
    """Generalized minor: fundamental index i translated by a Weyl witness."""

    i: int
    w_word: tuple


def minor_spec(weight: Weight, datum: CartanDatum) -> MinorSpec:
    """MinorSpec for a weight in the orbit of a fundamental weight."""
    w, i = _fundamental_descent(weight, datum)
    return MinorSpec(i, w.word)


def gen_minor(spec: MinorSpec, g: GroupMatrix) -> RatFunc:
    """Value of the generalized minor at g.

    Realized as the leading principal i x i minor of g times the ddot lift
    of the witness word; the result depends only on the witness's weight.
    """
    m = g @ lift(spec.w_word, "ddot", g.n)
    rows = [[m.entries[a][b] for b in range(spec.i)] for a in range(spec.i)]
    return _det(rows)


def gauss_decompose(g: GroupMatrix):
    """g = L D U with L lower unitriangular, D diagonal, U upper unitriangular.

    Defined exactly when all leading principal minors are nonzero as
    rational functions.
    """
    n = g.n
    m = [list(row) for row in g.entries]
    lower = [[_as_ratfunc(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = m[k][k]
        if pivot.is_zero:
            raise ValueError("not Gauss-decomposable")
        for i in range(k + 1, n):
            if m[i][k].is_zero:
                continue
            factor = m[i][k] / pivot
            lower[i][k] = factor
            m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    diag = [m[k][k] for k in range(n)]
    upper = [[(m[i][j] / diag[i]) if j >= i else _as_ratfunc(0) for j in range(n)]
             for i in range(n)]
    L = GroupMatrix(lower, check=False)
    D = GroupMatrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)],
                    check=False)
    U = GroupMatrix(upper, check=False)
    return L, D, U


def twist(u: GroupMatrix) -> GroupMatrix:
    """Big-cell twist involution on the upper unitriangular group.

    Gauss-decompose u times the inverse w0-lift and push the lower factor
    through the swap automorphism; defined exactly on the big cell.
    """
    if not u.is_upper_unitriangular:
        raise ValueError("twist is defined on upper unitriangular matrices")
    # The inverse of the dot lift of w0 is the product of the inverses of
    # its letters' lifts in reverse order; right multiplication by the
    # inverse of sdot_i moves column i+1 to column i and column i, negated,
    # to column i+1.
    rows = [list(row) for row in u.entries]
    for i in reversed(_w0_word(u.n)):
        for row in rows:
            row[i - 1], row[i] = row[i], -row[i - 1]
    m = GroupMatrix(rows, check=False)
    try:
        L, _, _ = gauss_decompose(m)
    except ValueError:
        raise ValueError("twist undefined: matrix outside the big cell") from None
    return iota(L)
