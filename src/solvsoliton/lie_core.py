"""Lie algebras presented by sparse structure constants.

One table per algebra: the structure constants are stored once, as
integers over their one common denominator, and every kernel sums over
those integers.  Adjoints, the Jacobi check with a witness, the Leibniz
test for derivations, verification of a declared abelian-plus-nilpotent
splitting, and the predicates behind the structural claims: derived
algebra, unimodularity and complete solvability, the last by Hermite's
quadratic form on the basis adjoints.  Everything is exact.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .linalg import Matrix, has_real_spectrum, rref

__all__ = [
    "StructureConstants",
    "STRUCTURE_CLAIMS",
    "check_jacobi",
    "ad_matrix",
    "derived_algebra",
    "is_unimodular",
    "is_solvable",
    "is_completely_solvable",
    "is_derivation",
    "verify_splitting",
    "subalgebra",
]


class StructureConstants:
    """Sparse bracket table over one denominator: [e_i, e_j] = sum_k c_ij^k e_k
    with c_ij^k = v / den is stored as ``table[i][j] = [(k, v), ...]``, the
    nonzero integers v in increasing k, in both orientations.  ``den`` is
    the lcm of the reduced denominators of the c_ij^k, so the stored form is
    canonical: equal algebras have equal (dim, den, table).

    :meth:`from_triples` is the public constructor; the kernels read
    ``table`` and ``den`` directly.
    """

    __slots__ = ("dim", "table", "den")

    def __init__(self, dim: int, table: list, den: int):
        self.dim = dim
        self.table = table
        self.den = den

    @classmethod
    def from_triples(cls, dim: int, triples) -> "StructureConstants":
        """Build from [e_i, e_j] += value * e_k entries given for i < j."""
        upper: dict = {}
        for i, j, k, value in triples:
            if not (0 <= i < j < dim and 0 <= k < dim):
                raise ValueError(f"bad triple ({i}, {j}, {k})")
            row = upper.setdefault((i, j), {})
            value = Fraction(value)
            row[k] = row[k] + value if k in row else value
        den = math.lcm(*(v.denominator for row in upper.values() for v in row.values()))
        table = [[[] for _ in range(dim)] for _ in range(dim)]
        for (i, j), row in upper.items():
            for k in sorted(row):
                v = row[k]
                if v:
                    v = v.numerator * (den // v.denominator)
                    table[i][j].append((k, v))
                    table[j][i].append((k, -v))
        return cls(dim, table, den)

    def triples(self):
        den = self.den
        return [
            (i, j, k, Fraction(v, den))
            for i, row in enumerate(self.table)
            for j in range(i + 1, self.dim)
            for k, v in row[j]
        ]

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return (self.dim, self.den, self.table) == (other.dim, other.den, other.table)

    def __hash__(self):
        return hash((self.dim, tuple(self.triples())))

    def __repr__(self):
        return f"StructureConstants(dim={self.dim}, nonzero={len(self.triples())})"


def _basis_vector(d: int, i: int) -> list:
    v = [Fraction(0)] * d
    v[i] = Fraction(1)
    return v


def _jacobi_witness(L: StructureConstants):
    """First (i, j, k, defect vector) with a nonzero Jacobiator, or None.

    Triples are reported in i < j < k order.  The Jacobiator
    [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] is accumulated
    as a sparse {index: value} defect per triple, and only for the triples
    that some nonzero bracket [[e_a, e_b], e_e] reaches.  A repeated index
    gives a zero Jacobiator by antisymmetry, so those terms are skipped.
    The sums run on the integer table, times C^2 with C = ``L.den``; only a
    witness becomes ``Fraction``s.
    """
    d = L.dim
    sp, C = L.table, L.den
    # outer[m] = the indices e with a nonzero [e_m, e_e].
    outer = [[e for e in range(d) if sp[m][e]] for m in range(d)]
    defects: dict = {}
    for a in range(d):
        for b in range(a + 1, d):
            for m, v in sp[a][b]:
                for e in outer[m]:
                    # [[e_a, e_b], e_e] is a cyclic term of the sorted triple
                    # when (a, b, e) is an even permutation of it; a < e < b
                    # is the one odd case, which flips the sign.
                    if e > b:
                        key, f = (a, b, e), v
                    elif e < a:
                        key, f = (e, a, b), v
                    elif a < e < b:
                        key, f = (a, e, b), -v
                    else:
                        continue
                    out = defects.get(key)
                    if out is None:
                        out = defects[key] = {}
                    for r, w in sp[m][e]:
                        out[r] = out.get(r, 0) + f * w
    for key in sorted(defects):
        out = defects[key]
        if any(out.values()):
            return (*key, [Fraction(out.get(r, 0), C * C) for r in range(d)])
    return None


def check_jacobi(L: StructureConstants):
    """(ok, witness): witness is the first failing (i, j, k, defect vector)."""
    witness = _jacobi_witness(L)
    return witness is None, witness


def ad_matrix(L: StructureConstants, x) -> Matrix:
    """Matrix of y -> [x, y] in the fixed basis, summed on the integer table
    with x cleared to integers over the lcm of its denominators."""
    d = L.dim
    xden = math.lcm(*(xi.denominator for xi in x if xi))
    out = [{} for _ in range(d)]
    for i, xi in enumerate(x):
        if not xi:
            continue
        xi = xi.numerator * (xden // xi.denominator)
        for j, col in enumerate(L.table[i]):
            for k, v in col:
                out[k][j] = out[k].get(j, 0) + xi * v
    table = [{j: v for j, v in row.items() if v} for row in out]
    return Matrix.from_table(table, L.den * xden, d)


def _bracket_rows(sp: list, x: dict, y: dict) -> dict:
    """den [x, y] for sparse integer {index: value} vectors, over the
    nonzero entries of the integer table ``sp`` only (see
    :class:`StructureConstants`); zero sums may be left in."""
    out: dict = {}
    for a, xa in x.items():
        row = sp[a]
        for b, yb in y.items():
            f = xa * yb
            for k, v in row[b]:
                out[k] = out.get(k, 0) + f * v
    return out


def _span_rows(rows) -> list:
    """Primitive integer RREF rows ({index: int}) of the span of integer
    rows, in pivot order."""
    pivots, _ = rref(rows)
    return [pivots[pc] for pc in sorted(pivots)]


def _basis_rows(indices) -> list:
    return [{i: 1} for i in indices]


def derived_algebra(L: StructureConstants) -> list:
    """RREF basis of [L, L], each row 1 at its pivot."""
    d = L.dim
    sp = L.table
    rows = _span_rows(dict(sp[i][j]) for i in range(d) for j in range(i + 1, d))
    return [[Fraction(row.get(k, 0), row[min(row)]) for k in range(d)] for row in rows]


def is_unimodular(L: StructureConstants) -> bool:
    """tr(ad e_i) = sum_j c_ij^j vanishes for every basis vector e_i."""
    sp = L.table
    return all(
        sum(v for j, row in enumerate(sp[i]) for k, v in row if k == j) == 0
        for i in range(L.dim)
    )


def is_solvable(L: StructureConstants) -> bool:
    """Derived series reaches zero."""
    sp = L.table
    current = _basis_rows(range(L.dim))
    while current:
        nxt = _span_rows(
            _bracket_rows(sp, x, y)
            for a, x in enumerate(current)
            for y in current[a + 1 :]
        )
        if len(nxt) >= len(current):
            return False
        current = nxt
    return True


def _lower_central_series_vanishes(L: StructureConstants, indices) -> bool:
    """Nilpotency of the span of the basis vectors ``indices`` (assumed a
    subalgebra): the series n, [n, n], [n, [n, n]], ... reaches zero.
    [n, n] is spanned by the brackets of the pairs i < j, by antisymmetry."""
    sp = L.table
    indices = list(indices)
    basis = _basis_rows(indices)
    size = len(basis)
    current = _span_rows(dict(sp[i][j]) for a, i in enumerate(indices) for j in indices[a + 1 :])
    while current:
        if len(current) >= size:
            return False
        size = len(current)
        current = _span_rows(_bracket_rows(sp, x, y) for x in basis for y in current)
    return True


def is_completely_solvable(L: StructureConstants) -> bool:
    """All ad-eigenvalues real, decided exactly on the basis adjoints.

    The basis suffices.  By Lie's theorem, ad(L_C) of a solvable L is
    simultaneously triangular in some basis of L_C, with diagonal entries
    alpha_k(x) linear in x.  The eigenvalues of ad e_i are the alpha_k(e_i),
    decided real by Hermite's quadratic form; a real x = sum x_i e_i then
    has the real eigenvalues alpha_k(x) = sum x_i alpha_k(e_i).
    """
    if not is_solvable(L):
        raise ValueError("complete solvability is only defined for solvable algebras")
    d = L.dim
    return all(has_real_spectrum(ad_matrix(L, _basis_vector(d, i))) for i in range(d))


def _leibniz_defects(L: StructureConstants, X: list):
    """Nonzero Leibniz defects of the integer matrix rows X ({col: int}, no
    stored zeros), times the structure constants' denominator ``L.den``, as
    ((i, j), {k: int}) in i < j order.

    The defect X[e_i, e_j] - [X e_i, e_j] - [e_i, X e_j] is linear in X and
    summed over the nonzero structure constants and entries of X only.
    Pairs with i >= j are omitted: the defect is antisymmetric in (i, j).
    A ``Matrix`` enters as its ``table``, the integer rows over its one
    denominator, so no zero test or witness needs a division.
    """
    d = L.dim
    sp = L.table
    # cols[m] = nonzero (r, X[r][m]) of X e_m.
    cols = [[] for _ in range(d)]
    for r, row in enumerate(X):
        for m, x in row.items():
            cols[m].append((r, x))
    for i in range(d):
        for j in range(i + 1, d):
            out: dict = {}
            for m, v in sp[i][j]:
                for k, x in cols[m]:
                    out[k] = out.get(k, 0) + v * x
            for m, x in cols[i]:
                for k, v in sp[m][j]:
                    out[k] = out.get(k, 0) - x * v
            for m, x in cols[j]:
                for k, v in sp[i][m]:
                    out[k] = out.get(k, 0) - x * v
            out = {k: v for k, v in out.items() if v}
            if out:
                yield (i, j), out


def is_derivation(L: StructureConstants, D: Matrix):
    """(ok, witness): witness is the first failing basis pair (i, j), i < j."""
    first = next(_leibniz_defects(L, D.table), None)
    return (True, None) if first is None else (False, first[0])


def verify_splitting(L: StructureConstants, a, G: Matrix) -> dict:
    """Check the splitting declared by the basis indices ``a`` of the
    abelian part against the algebra and the metric.

    The nilpotent part is the rest of the basis, a *declared* nilradical
    candidate: the report certifies ideal-ness, nilpotency, and containment
    of the derived algebra separately rather than computing a nilradical
    from scratch.  It is the dict {"n_is_ideal", "n_is_nilpotent",
    "n_contains_derived", "a_is_abelian", "a_orthogonal_to_n"} of bools, in
    that order; the splitting verifies when all of them hold.
    """
    d = L.dim
    if len(set(a)) != len(a) or not all(0 <= i < d for i in a):
        raise ValueError("abelian part indices must be distinct basis indices")
    # The parts are spans of basis vectors, so a bracket lies in n exactly
    # when its nonzero structure constants all land on n's indices.
    sp = L.table
    in_n = [i not in a for i in range(d)]
    n = [i for i in range(d) if in_n[i]]

    def lands_in_n(i, j):
        return all(in_n[k] for k, _ in sp[i][j])

    return {
        "n_is_ideal": all(lands_in_n(i, j) for i in range(d) for j in n),
        "n_is_nilpotent": _lower_central_series_vanishes(L, n),
        "n_contains_derived": all(
            lands_in_n(i, j) for i in range(d) for j in range(i + 1, d)
        ),
        "a_is_abelian": not any(sp[i][j] for i in a for j in a),
        "a_orthogonal_to_n": not any(j in G.table[i] for i in a for j in n),
    }


def subalgebra(L: StructureConstants, indices) -> StructureConstants:
    """Restriction to the span of the given basis indices (must be closed).

    The parent's integer rows are renumbered by position in ``indices`` and
    divided by the gcd of the parent's denominator and their entries, so
    the restriction's ``den`` is canonical too."""
    indices = list(indices)
    pos = {g: i for i, g in enumerate(indices)}
    try:
        table = [
            [sorted([(pos[k], v) for k, v in row[gb]]) for gb in indices]
            for row in (L.table[i] for i in indices)
        ]
    except KeyError:
        raise ValueError("index set does not span a subalgebra") from None
    g = math.gcd(L.den, *(v for row in table for col in row for _, v in col))
    if g > 1:
        table = [[[(k, v // g) for k, v in col] for col in row] for row in table]
    return StructureConstants(len(indices), table, L.den // g)


# The predicates behind the paper's structural claims, for a certificate to
# call: the derived algebra (the Heisenberg nilradical at n = 1),
# non-unimodularity for n > 1, and complete solvability.
STRUCTURE_CLAIMS = namedtuple(
    "StructureClaims", "derived_algebra is_unimodular is_completely_solvable"
)(derived_algebra, is_unimodular, is_completely_solvable)
