"""Independent arithmetic for building inputs and checking outputs.

Nothing here imports bircharts.  Expected outcomes are derived from these
constructions, never read back from the library under test:

* ``Poly`` is a small integer polynomial in named variables whose names
  are the expression-grammar tokens (``u(1,2)``, ``g(3,1)``), so that a
  generated polynomial prints straight into an input string.
* ``minor`` expands a determinant of polynomial entries, which gives the
  generalized and right-justified minors the workloads take reciprocals
  of.
* ``evaluate`` and ``upper_chart`` check a printed transition map at a
  rational point with plain ``Fraction`` arithmetic.
* ``twist`` recomputes the big-cell twist of a numeric unipotent matrix
  with plain ``Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations


class Poly:
    """Integer polynomial: {monomial: coefficient}, a monomial being a
    sorted tuple of (variable name, exponent) pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls({(): c})

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({((name, 1),): 1})

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                exps = dict(m1)
                for name, k in m2:
                    exps[name] = exps.get(name, 0) + k
                m = tuple(sorted(exps.items()))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(out)

    def __pow__(self, k: int) -> "Poly":
        out = Poly.const(1)
        for _ in range(k):
            out = out * self
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return all(m == () for m in self.terms)

    def text(self) -> str:
        """Expression-grammar text; never starts with a minus sign, so it
        can follow a command-line flag."""
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda mc: (-mc[1] > 0, mc[0])):
            factors = [name if k == 1 else f"{name}^{k}" for name, k in m]
            mag = abs(c)
            body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
            if not parts:
                parts.append(("0 - " if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)


def minor(matrix, rows, cols) -> Poly:
    """Determinant of the submatrix (0-based rows, cols) by Leibniz expansion."""
    total = Poly()
    for perm in permutations(range(len(cols))):
        inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                         if perm[a] > perm[b])
        term = Poly.const(-1 if inversions % 2 else 1)
        for r, p in zip(rows, perm):
            term = term * matrix[r][cols[p]]
            if term.is_zero:
                break
        total = total + term
    return total


def unipotent_matrix(n: int):
    """Symbolic upper unitriangular matrix with entries u(i,j)."""
    return [[Poly.const(1) if i == j else Poly.var(f"u({i + 1},{j + 1})") if i < j
             else Poly() for j in range(n)] for i in range(n)]


def group_matrix(n: int):
    """Symbolic matrix with entries g(i,j)."""
    return [[Poly.var(f"g({i + 1},{j + 1})") for j in range(n)] for i in range(n)]


def u_names(n: int) -> list:
    return [f"u({i},{j})" for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def g_names(n: int) -> list:
    return [f"g({i},{j})" for i in range(1, n + 1) for j in range(1, n + 1)]


# -- checking printed rational functions at a point -------------------------


def _tokens(text: str):
    out, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "+-*/^()":
            out.append(c)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i:
                raise ValueError(f"unexpected character {c!r} in {text!r}")
            out.append(text[i:j])
            i = j
    return out


def evaluate(text: str, values) -> Fraction:
    """Value of a printed rational expression at ``values`` (name -> Fraction)."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def expr():
        v = term()
        while peek() in ("+", "-"):
            v = v + term() if take() == "+" else v - term()
        return v

    def term():
        v = factor()
        while peek() in ("*", "/"):
            v = v * factor() if take() == "*" else v / factor()
        return v

    def factor():
        if peek() == "-":
            take()
            return -factor()
        v = atom()
        if peek() == "^":
            take()
            v = v ** int(take())
        return v

    def atom():
        tok = take()
        if tok == "(":
            v = expr()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return v
        if tok.isdigit():
            return Fraction(int(tok))
        return Fraction(values[tok])

    value = expr()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return value


def upper_chart(word, params, n: int):
    """Product x_{i1}(a1) ... x_{ik}(ak) of upper one-parameter subgroups."""
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i, a in zip(word, params):
        # right multiplication by I + a E_{i,i+1} adds a * column i to column i+1
        for r in range(n):
            m[r][i] += a * m[r][i - 1]
    return m


# -- the big-cell twist on numeric matrices -----------------------------------


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _inverse(m):
    """Gauss-Jordan inverse of an invertible Fraction matrix."""
    n = len(m)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [r[n:] for r in rows]


def w0_lift(n: int):
    """Product of the lifts [[0, 1], [-1, 0]] of s_i along the reduced word
    (1, 2, 1, 3, 2, 1, ...) of the longest element; the product does not
    depend on the reduced word."""
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for top in range(1, n):
        for i in range(top, 0, -1):
            # right multiplication by the lift of s_i acts on columns i-1, i
            for r in range(n):
                m[r][i - 1], m[r][i] = -m[r][i], m[r][i - 1]
    return m


def twist(u):
    """iota(L) for u w0_lift^-1 = L D U, iota(g) = (g^-1)^T with the signs
    (-1)^(i+j); raises ValueError off the big cell."""
    n = len(u)
    m = _matmul(u, _inverse(w0_lift(n)))
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        if m[k][k] == 0:
            raise ValueError("not in the big cell")
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            lower[i][k] = f
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    inv = _inverse(lower)
    return [[inv[j][i] * (-1) ** (i + j) for j in range(n)] for i in range(n)]
