"""Exact linear algebra over the rationals.

Inverses and the Sylvester test rest on one kernel,
:func:`rref`: a fraction-free sparse reduced row echelon form over
{col: int} rows, each kept primitive, with zero tolerance; floating point
never enters.
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
    "inverse",
    "is_positive_definite",
    "char_poly",
    "real_rooted",
]


# The one shared zero entry: equal lists of rows then compare untouched
# zeros by identity.
_ZERO = Fraction(0)


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
        return cls._trusted([[_ZERO] * cols for _ in range(rows)])

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
        return Matrix._trusted(
            [[_ZERO if x is _ZERO else s * x for x in row] for row in self.data]
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product, summed in integers over the nonzero entries of the
        two operands cleared to one denominator each; one ``Fraction`` per
        nonzero entry of the result."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        A, da = _cleared(self.data)
        B, db = _cleared(other.data)
        den = da * db
        cols = range(other.cols)
        return Matrix._trusted(
            [
                [Fraction(row[j], den) if j in row else _ZERO for j in cols]
                for row in _row_product(_sparse_rows(A), _sparse_rows(B))
            ]
        )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.data))

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.data == self.transpose().data

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
    den = math.lcm(*(x.denominator for row in rows for x in row if x is not _ZERO))
    return [
        [0 if x is _ZERO else x.numerator * (den // x.denominator) for x in row]
        for row in rows
    ], den


# ---------------------------------------------------------------------------
# The sparse exact row-reduction kernel
# ---------------------------------------------------------------------------


def _int_row(entries) -> tuple:
    """(row, den): the nonzero entries of a rational row as {col: int} over
    den, the lcm of their denominators.  The shared zero is skipped by
    identity, before any ``Fraction`` method runs."""
    nonzero = [(c, x) for c, x in enumerate(entries) if x is not _ZERO and x]
    den = math.lcm(*(x.denominator for _, x in nonzero))
    return {c: x.numerator * (den // x.denominator) for c, x in nonzero}, den


def _sparse_rows(rows) -> list:
    """The nonzero entries of each row, as {col: value}."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


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
    """A^{-1}, from the RREF of the integer rows of [A | I].

    With L the lcm of the pivots, L A^{-1} is an integer matrix X, and
    A X = L I is checked in integers on the cleared rows of A before any
    ``Fraction`` is formed.
    """
    if A.rows != A.cols:
        raise ValueError("inverse of a non-square matrix")
    n = A.rows
    cleared = [_int_row(entries) for entries in A.data]
    pivots, _ = rref({**row, n + i: den} for i, (row, den) in enumerate(cleared))
    if len(pivots) != n or max(pivots) >= n:
        raise ValueError("matrix is singular")
    L = math.lcm(*(row[pc] for pc, row in pivots.items()))
    X = [None] * n
    for pc, row in pivots.items():
        f = L // row[pc]
        X[pc] = {c - n: f * v for c, v in row.items() if c >= n}
    # Row i of A, cleared by den_i, times X is den_i * L * e_i.
    products = _row_product([row for row, _ in cleared], X)
    if any(prod != {i: den * L} for i, (prod, (_, den)) in enumerate(zip(products, cleared))):
        raise ValueError("matrix is singular")
    return Matrix._trusted(
        [[Fraction(xrow[j], L) if j in xrow else _ZERO for j in range(n)] for xrow in X]
    )


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
    _, leads = rref(_int_row(row)[0] for row in G.data)
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
