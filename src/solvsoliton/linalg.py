"""Exact linear algebra over the rationals.

A :class:`Matrix` is stored as integer rows over one denominator, the form
every kernel reads.  Inverses and the Sylvester test rest on one kernel,
:func:`rref`: a fraction-free sparse reduced row echelon form over
{col: int} rows, each kept primitive, with zero tolerance; floating point
never enters.
Characteristic polynomials come from Faddeev-LeVerrier on ``@`` and
:meth:`Matrix.trace`, so ``rref`` is the one exact elimination, and
real-rootedness is decided by Sturm sequences on the square-free part.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "Matrix",
    "Polynomial",
    "rref",
    "inverse",
    "is_positive_definite",
    "char_poly",
    "real_rooted",
]


class Matrix:
    """Exact rational matrix, stored once: ``table[i] = {col: int}`` holds
    the nonzero entries of row i as integers over one positive denominator
    ``den``, in lowest terms (gcd(den, every entry) = 1), so equal matrices
    have equal (rows, cols, den, table) and ``==`` compares exactly that.

    ``Matrix(data)`` builds one from nested lists of ``int``/``Fraction``
    entries, and :meth:`from_table` from integer rows; the kernels read
    ``table`` and ``den`` directly.  ``Fraction``s are formed only where
    values leave: ``M[i, j]`` and :meth:`to_strings`.
    """

    __slots__ = ("rows", "cols", "table", "den")

    def __init__(self, data):
        data = [list(row) for row in data]
        cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        for row in data:
            for x in row:
                if not isinstance(x, (int, Fraction)):
                    raise TypeError(f"unsupported exact matrix entry: {type(x).__name__}")
        # The lcm of the reduced denominators leaves the integer entries
        # with gcd 1 together with it.
        den = math.lcm(*(x.denominator for row in data for x in row if x))
        self.rows = len(data)
        self.cols = cols
        self.den = den
        self.table = [
            {c: x.numerator * (den // x.denominator) for c, x in enumerate(row) if x}
            for row in data
        ]

    @classmethod
    def from_table(cls, table: list, den: int, cols: int) -> "Matrix":
        """The matrix of the integer rows ``table`` ({col: int}, no stored
        zeros) over the positive ``den``, divided to lowest terms; ``table``
        is owned by the new matrix."""
        g = math.gcd(den, *(v for row in table for v in row.values()))
        if g > 1:
            table = [{c: v // g for c, v in row.items()} for row in table]
            den //= g
        m = cls.__new__(cls)
        m.rows = len(table)
        m.cols = cols
        m.table = table
        m.den = den
        return m

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        """The diagonal matrix of ``entries``, cleared to integers as one
        row first, so no off-diagonal zero is formed."""
        row = cls([entries])
        table = [{} for _ in range(row.cols)]
        for i, v in row.table[0].items():
            table[i][i] = v
        return cls.from_table(table, row.den, row.cols)

    def __getitem__(self, idx):
        i, j = idx
        return Fraction(self.table[i].get(j, 0), self.den)

    def transpose(self) -> "Matrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.table):
            for j, v in row.items():
                out[j][i] = v
        return Matrix.from_table(out, self.den, self.rows)

    def scale(self, s) -> "Matrix":
        p, q = s.numerator, s.denominator
        if not p:
            return Matrix.from_table([{} for _ in self.table], 1, self.cols)
        return Matrix.from_table(
            [{c: p * v for c, v in row.items()} for row in self.table], q * self.den, self.cols
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product, summed in integers over the nonzero entries of the
        two operands, over the product of their denominators."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return Matrix.from_table(
            _row_product(self.table, other.table), self.den * other.den, other.cols
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other, summed in integers over the lcm of the two
        denominators."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        out = []
        for x, y in zip(self.table, other.table):
            row = {c: a * v for c, v in x.items()}
            for c, v in y.items():
                row[c] = row.get(c, 0) + b * v
            out.append({c: v for c, v in row.items() if v})
        return Matrix.from_table(out, den, self.cols)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return Fraction(sum(row.get(i, 0) for i, row in enumerate(self.table)), self.den)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.den, self.table) == (
            other.rows,
            other.cols,
            other.den,
            other.table,
        )

    def __hash__(self):
        rows = tuple(frozenset(row.items()) for row in self.table)
        return hash((self.rows, self.cols, self.den, rows))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.table == self.transpose().table

    def to_strings(self):
        den, cols = self.den, range(self.cols)
        return [[str(Fraction(row[j], den)) if j in row else "0" for j in cols] for row in self.table]

    def __repr__(self):
        body = "; ".join(" ".join(row) for row in self.to_strings())
        return f"Matrix[{self.rows}x{self.cols}]({body})"


# ---------------------------------------------------------------------------
# The sparse exact row-reduction kernel
# ---------------------------------------------------------------------------


def _row_product(X: list, Y: list) -> list:
    """X Y for matrices given as sparse integer rows {col: int}."""
    out = []
    for xrow in X:
        acc: dict = {}
        for k, x in xrow.items():
            for j, y in Y[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


def _make_primitive(row: dict) -> None:
    """Divide the integer ``row`` in place by the gcd of its entries."""
    g = math.gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def _eliminate(row: dict, pc, prow: dict) -> None:
    """Clear column pc of the integer ``row`` in place with ``prow``, which is
    positive at pc: row <- a*row - f*prow with a/f = prow[pc]/row[pc] in
    lowest terms, so row is scaled by the positive a."""
    f = row.pop(pc)
    a = prow[pc]
    g = math.gcd(f, a)
    if g > 1:
        f //= g
        a //= g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in prow.items():
        if c == pc:
            continue
        nv = row.get(c, 0) - f * v
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)


def _reduce(row: dict, pivots: dict) -> dict:
    """A primitive copy of ``row`` with every pivot column cleared by its
    pivot row, a positive multiple of the row that rational elimination
    would leave.

    Each pivot row leads at its own column and holds no column of a pivot
    made before it, so clearing one pivot column can only bring in columns
    of later pivots, and the loop ends.
    """
    row = {c: v for c, v in row.items() if v}
    while True:
        pc = next((c for c in row if c in pivots), None)
        if pc is None:
            break
        _eliminate(row, pc, pivots[pc])
    if row:
        _make_primitive(row)
    return row


def rref(rows):
    """Reduced row echelon form of sparse integer rows: (pivots, leads).

    ``rows`` is an iterable of {col: int} dictionaries; a rational system
    enters with each row cleared of its denominators, which leaves the
    row space unchanged.  The elimination is fraction-free.  ``pivots``
    maps each pivot column to its row, primitive (entries with gcd 1) and
    positive at the pivot, whose leftmost entry is the pivot and which is 0
    at every other pivot column: the one positive primitive multiple of the
    rational RREF row, so it does not depend on elimination order.
    ``leads`` holds, for each input row, the (col, value) it led with after
    reduction by the rows before it, or None if it reduced to zero; value is
    a positive multiple of the lead that rational elimination would give,
    so it has the same sign.  A caller divides once, on the way out.
    """
    pivots: dict = {}
    leads = []
    for row in rows:
        row = _reduce(row, pivots)
        if not row:
            leads.append(None)
            continue
        pc = min(row)
        v = row[pc]
        leads.append((pc, v))
        if v < 0:
            for c in row:
                row[c] = -row[c]
        pivots[pc] = row
    # Back-substitute, rightmost pivot first, so each row is cleared against
    # rows that are already reduced; each elimination keeps the pivot
    # positive.
    for pc in sorted(pivots, reverse=True):
        row = pivots[pc]
        others = [c for c in row if c != pc and c in pivots]
        for qc in others:
            _eliminate(row, qc, pivots[qc])
        if others:
            _make_primitive(row)
    return pivots, leads


def inverse(A: Matrix) -> Matrix:
    """A^{-1}, from the RREF of the integer rows of [A | I] over A's
    denominator.

    With L the lcm of the pivots, L A^{-1} is an integer matrix X, and
    A X = L I is checked in integers on A's rows.
    """
    if A.rows != A.cols:
        raise ValueError("inverse of a non-square matrix")
    n, den = A.rows, A.den
    pivots, _ = rref({**row, n + i: den} for i, row in enumerate(A.table))
    if len(pivots) != n or max(pivots) >= n:
        raise ValueError("matrix is singular")
    L = math.lcm(*(row[pc] for pc, row in pivots.items()))
    X = [None] * n
    for pc, row in pivots.items():
        f = L // row[pc]
        X[pc] = {c - n: f * v for c, v in row.items() if c >= n}
    # Row i of A, times its denominator, times X is den * L * e_i.
    if any(prod != {i: den * L} for i, prod in enumerate(_row_product(A.table, X))):
        raise ValueError("matrix is singular")
    return Matrix.from_table(X, L, n)


def is_positive_definite(G: Matrix) -> bool:
    """Exact Sylvester criterion: all leading principal minors positive.

    Row k of G, reduced by the rows before it, leads at column k with the
    ratio of the (k+1)-th to the k-th leading minor exactly when those k
    minors are nonzero; the integer elimination keeps that value's sign, so
    G is positive definite iff every row leads at its own column with a
    positive value.
    """
    if not G.is_symmetric():
        return False
    _, leads = rref(G.table)
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
    """det(tI - A) for a square rational matrix, by Faddeev-LeVerrier: with
    M_1 = I and c_n = 1, c_{n-k} = -tr(A M_k)/k and M_{k+1} = A M_k +
    c_{n-k} I."""
    if A.rows != A.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = A.rows
    coeffs = [Fraction(1)]  # highest degree first
    AM = Matrix.from_table([{} for _ in range(n)], 1, n)
    for k in range(1, n + 1):
        AM = A @ (AM + Matrix.diagonal([coeffs[-1]] * n))
        coeffs.append(-AM.trace() / k)
    return Polynomial(coeffs[::-1])


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
