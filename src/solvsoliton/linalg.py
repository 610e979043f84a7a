"""Exact linear algebra over the rationals.

A :class:`Matrix` is stored as integer rows over one denominator, the form
every kernel reads.  Inverses, the Sylvester test and real spectra (by
Hermite's quadratic form) rest on one kernel, :func:`rref`: a fraction-free
sparse reduced row echelon form over {col: int} rows, each kept primitive,
with zero tolerance; floating point never enters.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "Matrix",
    "rref",
    "inverse",
    "is_positive_definite",
    "has_real_spectrum",
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


def _positive_form(rows, semidefinite: bool) -> bool:
    """Whether the symmetric integer matrix ``rows`` is positive definite,
    or with ``semidefinite`` positive semidefinite.

    Row k, reduced by the rows before it, is row k of a Schur complement
    up to a positive factor.  So the matrix is definite iff every row leads
    at its own column with a positive value, and semidefinite iff every row
    does so or reduces to zero; a lead elsewhere means an indefinite form.
    """
    _, leads = rref(rows)
    return all(
        lead[0] == k and lead[1] > 0 if lead else semidefinite
        for k, lead in enumerate(leads)
    )


def is_positive_definite(G: Matrix) -> bool:
    """Exact Sylvester criterion: all leading principal minors positive.

    Row k of G, reduced by the rows before it, leads at column k with the
    ratio of the (k+1)-th to the k-th leading minor exactly when those k
    minors are nonzero; the integer elimination keeps that value's sign.
    """
    return G.is_symmetric() and _positive_form(G.table, semidefinite=False)


def has_real_spectrum(A: Matrix) -> bool:
    """True iff every eigenvalue of the square matrix A is real.

    Hermite's quadratic form H_ij = tr(A^(i+j)), 0 <= i, j < d, has rank
    the number of distinct eigenvalues and signature the number of distinct
    real ones (Basu, Pollack and Roy, *Algorithms in Real Algebraic
    Geometry*, ch. 4), so it is positive semidefinite iff the spectrum is
    real.  The integer rows den A give D H D, D = diag(den^i), of the same
    inertia.
    """
    if A.rows != A.cols:
        raise ValueError("spectrum of a non-square matrix")
    d = A.rows
    sums = [d] + [0] * (2 * d)
    power = [{i: 1} for i in range(d)]
    for k in range(1, 2 * d - 1):
        power = _row_product(power, A.table)
        if not any(power):
            break  # every later power sum is 0
        sums[k] = sum(row.get(i, 0) for i, row in enumerate(power))
    hankel = ({j: sums[i + j] for j in range(d) if sums[i + j]} for i in range(d))
    return _positive_form(hankel, semidefinite=True)
