"""Exact linear algebra over the rationals.

Solving, inverses and the Sylvester test all rest on one kernel,
:func:`rref`: a sparse reduced row echelon form over {col: Fraction} rows,
with zero tolerance; floating point never enters.
Characteristic polynomials are computed over the rationals via an exact
Hessenberg reduction, and real-rootedness is decided by Sturm sequences on
the square-free part.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "Matrix",
    "Polynomial",
    "rref",
    "solve_exact",
    "inverse",
    "is_positive_definite",
    "char_poly",
    "real_rooted",
]


def _coerce_entry(x):
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"unsupported exact matrix entry: {type(x).__name__}")


class Matrix:
    """Dense matrix with Fraction entries (row-major lists)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = [[_coerce_entry(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged rows")

    @classmethod
    def _trusted(cls, data: list) -> "Matrix":
        """Wrap rectangular rows of Fraction entries without copying or
        coercing them; ``data`` is owned by the new matrix."""
        m = cls.__new__(cls)
        m.data = data
        m.rows = len(data)
        m.cols = len(data[0]) if data else 0
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._trusted([[Fraction(0)] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = Fraction(1)
        return m

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = list(entries)
        m = cls.zeros(len(entries), len(entries))
        for i, e in enumerate(entries):
            m.data[i][i] = _coerce_entry(e)
        return m

    def __getitem__(self, idx):
        i, j = idx
        return self.data[i][j]

    def transpose(self) -> "Matrix":
        return Matrix._trusted([list(col) for col in zip(*self.data)])

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix._trusted(
            [[x + y for x, y in zip(a, b)] for a, b in zip(self.data, other.data)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix._trusted(
            [[x - y for x, y in zip(a, b)] for a, b in zip(self.data, other.data)]
        )

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, s) -> "Matrix":
        s = _coerce_entry(s)
        return Matrix._trusted([[s * x for x in row] for row in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            arow = self.data[i]
            orow = out[i]
            for k in range(self.cols):
                a = arow[k]
                if not a:
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    b = brow[j]
                    if b:
                        orow[j] = orow[j] + a * b
        return Matrix._trusted(out)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.data[i][j] == other.data[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.data))

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.data[i][j] == self.data[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        t = Fraction(0)
        for i in range(self.rows):
            t = t + self.data[i][i]
        return t

    def to_strings(self):
        return [[str(x) for x in row] for row in self.data]

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix[{self.rows}x{self.cols}]({body})"


def _cleared(rows) -> tuple:
    """(integer rows, D): rational ``rows`` as integer rows over their one
    positive common denominator D, the lcm of the entries' denominators."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


# ---------------------------------------------------------------------------
# The sparse exact row-reduction kernel
# ---------------------------------------------------------------------------


def _eliminate(row: dict, pc, prow: dict) -> None:
    """Clear column pc of ``row`` in place with ``prow``, which is 1 at pc."""
    f = row.pop(pc)
    for c, v in prow.items():
        if c == pc:
            continue
        nv = row[c] - f * v if c in row else -(f * v)
        if nv:
            row[c] = nv
        else:
            del row[c]


def _reduce(row: dict, pivots: dict) -> dict:
    """A copy of ``row`` with every pivot column cleared by its pivot row.

    Each pivot row leads at its own column and holds no column of a pivot
    made before it, so clearing one pivot column can only bring in columns
    of later pivots, and the loop ends.
    """
    row = {c: v for c, v in row.items() if v}
    while True:
        pc = next((c for c in row if c in pivots), None)
        if pc is None:
            return row
        _eliminate(row, pc, pivots[pc])


def rref(rows):
    """Reduced row echelon form of exact sparse rows: (pivots, leads).

    ``rows`` is an iterable of {col: Fraction} dictionaries.  ``pivots``
    maps each pivot column to its row, normalised to 1 at the pivot, whose
    leftmost entry is the pivot and which is 0 at every other pivot column.
    ``leads`` holds, for each input row, the (col, value) it led with after
    reduction by the rows before it, or None if it reduced to zero.  The
    RREF is unique, so neither depends on elimination order.
    """
    pivots: dict = {}
    leads = []
    for row in rows:
        row = _reduce(row, pivots)
        if not row:
            leads.append(None)
            continue
        pc = min(row)
        d = row[pc]
        leads.append((pc, d))
        pivots[pc] = {c: v / d for c, v in row.items()}
    # Back-substitute, rightmost pivot first, so each row is cleared against
    # rows that are already reduced.
    for pc in sorted(pivots, reverse=True):
        row = pivots[pc]
        for qc in [c for c in row if c != pc and c in pivots]:
            _eliminate(row, qc, pivots[qc])
    return pivots, leads


def solve_exact(A: Matrix, b: Matrix):
    """Solve A x = b exactly; returns None when the system is inconsistent.

    Works for rectangular A; when the solution is underdetermined the free
    variables are set to zero.
    """
    if A.rows != b.rows:
        raise ValueError("A and b must have the same number of rows")
    n = A.cols
    pivots, _ = rref(dict(enumerate(a + r)) for a, r in zip(A.data, b.data))
    if any(pc >= n for pc in pivots):
        return None  # a row of A reduced to zero with a nonzero right-hand side
    x = Matrix.zeros(n, b.cols)
    for pc, row in pivots.items():
        x.data[pc] = [row.get(n + j, Fraction(0)) for j in range(b.cols)]
    return x


def inverse(A: Matrix) -> Matrix:
    if A.rows != A.cols:
        raise ValueError("inverse of a non-square matrix")
    x = solve_exact(A, Matrix.identity(A.rows))
    if x is None or (A @ x) != Matrix.identity(A.rows):
        raise ValueError("matrix is singular")
    return x


def is_positive_definite(G: Matrix) -> bool:
    """Exact Sylvester criterion: all leading principal minors positive.

    Row k of G, reduced by the rows before it, leads at column k with the
    ratio of the (k+1)-th to the k-th leading minor exactly when those k
    minors are nonzero; so G is positive definite iff every row does, with
    a positive value.
    """
    if not G.is_symmetric():
        return False
    _, leads = rref(dict(enumerate(row)) for row in G.data)
    return all(
        lead is not None and lead[0] == k and lead[1] > 0
        for k, lead in enumerate(leads)
    )


# ---------------------------------------------------------------------------
# Polynomials over Q and Sturm real-rootedness
# ---------------------------------------------------------------------------


class Polynomial:
    """Polynomial with Fraction coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = a[:]
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def divmod(self, other: "Polynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = self.coeffs[:]
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.coeffs
        while len(rem) >= len(d) and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(d):
                break
            f = rem[-1] / d[-1]
            shift = len(rem) - len(d)
            q[shift] = f
            for i, c in enumerate(d):
                rem[shift + i] -= f * c
            rem.pop()
        return Polynomial(q), Polynomial(rem)

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.leading()
        return Polynomial([c / lead for c in self.coeffs])

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"({c})*t^{i}" if i else f"({c})")
        return " + ".join(terms)

    __repr__ = __str__


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd via Euclid with monic normalization each step."""
    a, b = Polynomial(a.coeffs), Polynomial(b.coeffs)
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r.monic() if not r.is_zero() else r
    return a.monic() if not a.is_zero() else a


def char_poly(A: Matrix) -> Polynomial:
    """det(tI - A) for a square rational matrix, via Hessenberg reduction."""
    if A.rows != A.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = A.rows
    H = [row[:] for row in A.data]
    # Exact Hessenberg form: eliminate below the first subdiagonal.
    for col in range(n - 2):
        piv = None
        for i in range(col + 1, n):
            if H[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != col + 1:
            H[col + 1], H[piv] = H[piv], H[col + 1]
            for row in H:
                row[col + 1], row[piv] = row[piv], row[col + 1]
        d = H[col + 1][col]
        for i in range(col + 2, n):
            f = H[i][col]
            if not f:
                continue
            ratio = f / d
            for j in range(n):
                H[i][j] -= ratio * H[col + 1][j]
            for r in range(n):
                H[r][col + 1] += ratio * H[r][i]
    # Leading-minor recurrence for det(tI - H) on a Hessenberg matrix.
    one = Polynomial([Fraction(1)])
    t = Polynomial([Fraction(0), Fraction(1)])
    p = [one]  # p[k] = char poly of the leading k x k block
    for k in range(1, n + 1):
        term = (t - Polynomial([H[k - 1][k - 1]])) * p[k - 1]
        prod = Fraction(1)
        for i in range(k - 2, -1, -1):
            prod *= H[i + 1][i]
            term = term - (H[i][k - 1] * prod) * p[i]
        p.append(term)
    return p[n]


def _sign_changes(values) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if (x > 0) != (y > 0))


def _sign_at_infinity(p: Polynomial, positive: bool) -> Fraction:
    lead = p.leading()
    if positive or p.degree % 2 == 0:
        return lead
    return -lead


def real_rooted(p: Polynomial) -> bool:
    """True iff every complex root of p is real, decided by Sturm sequences.

    Multiplicities are removed first (gcd with the derivative), then the real
    roots of the square-free part are counted and compared to its degree.
    """
    if p.is_zero():
        raise ValueError("real-rootedness of the zero polynomial is undefined")
    if p.degree == 0:
        return True
    g = poly_gcd(p, p.derivative())
    sf, _ = p.divmod(g)
    sf = sf.monic()
    if sf.degree == 0:
        return True
    chain = [sf, sf.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        _, r = chain[-2].divmod(chain[-1])
        if r.is_zero():
            break
        # scale only by positive constants; sign flips would corrupt the
        # variation counts
        scale = abs(r.leading())
        chain.append(Polynomial([-c / scale for c in r.coeffs]))
    chain = [q for q in chain if not q.is_zero()]
    at_minus = [_sign_at_infinity(q, positive=False) for q in chain]
    at_plus = [_sign_at_infinity(q, positive=True) for q in chain]
    count = _sign_changes(at_minus) - _sign_changes(at_plus)
    return count == sf.degree
