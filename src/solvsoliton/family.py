"""The deformed-metric family of solvable Lie algebras.

For a rank parameter n this module builds the (4n-1)-dimensional solvable
Lie algebra b |x heis_{2n+1} (an Iwasawa subalgebra acting on a Heisenberg
algebra), the two-parameter family of inner products g indexed by (rho, c),
the grading derivation delta, the evaluation map onto coordinate tangent
vectors, the slice metric as products of powers of rho + a, and the
closed-form Ricci endomorphism that the curvature routes are checked
against.

Ordered basis:

    (B1R, B1I, B2R, B2I, ..., B_{n-1}R, B_{n-1}I,
     e0, f0, e1, f1, ..., e_{n-1}, f_{n-1}, Z)

n = 1, the Heisenberg algebra (e0, f0, Z), has an empty solvable part; only
the brackets, the splitting and the verdict label single it out.  The mixed
brackets between the solvable part and the Heisenberg part are stated as in
the paper, over the complex combinations E_k = e_k - i f_k: one coefficient
table per generator, expanded to the real basis by one rule in
:func:`_mixed_triples`.  The tests check the expansion
against the printed adjoint blocks (``TestAdjoint`` in test_lie_core.py, and
``TestRealFromComplex`` and ``TestBuildLieAlgebra`` in test_family.py).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .lie_core import StructureConstants, check_jacobi, is_derivation
from .linalg import Matrix
from .metric_lie import MetricLieAlgebra
from .scalars import power_jet

__all__ = [
    "FamilyParams",
    "build_lie_algebra",
    "build_gram",
    "build_delta",
    "build_embedding",
    "family_splitting",
    "metric_algebra",
    "coordinate_names",
    "slice_multiplicities",
    "slice_diagonal",
    "coordinate_gram_values",
    "einstein_constant",
    "ricci_eigenvalue_formulas",
    "expected_ric_matrix",
    "predicted_status",
    "classify_status",
]

_HALF = Fraction(1, 2)


class FamilyParams:
    """Family parameters: rank n >= 1, slice rho > 0, deformation c >= 0.

    A value object: equal parameters compare and hash alike.  The exact
    jets at the working rho are set at construction: ``slice_jets`` lists
    (g_i, g_i'/g_i, g_i''/g_i) of the slice metric's diagonal entries in
    coordinate order, each distinct entry of :func:`slice_diagonal`
    evaluated once, and ``warp_jet`` is (f, f'/f, f''/f) of the warp factor.
    """

    __slots__ = ("n", "rho", "c", "slice_jets", "warp_jet")

    def __init__(self, n: int, rho, c):
        self.n = n
        self.rho = Fraction(rho)
        self.c = Fraction(c)
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.c < 0:
            raise ValueError("c must be non-negative")
        entries = slice_diagonal(self.n, self.c)
        jets = {entry: power_jet(self.rho, *entry) for entry in set(entries)}
        self.slice_jets = [jets[entry] for entry in entries]
        self.warp_jet = power_jet(self.rho, *_warp_factor(self.c))

    def __eq__(self, other):
        if not isinstance(other, FamilyParams):
            return NotImplemented
        return (self.n, self.rho, self.c) == (other.n, other.rho, other.c)

    def __hash__(self):
        return hash((self.n, self.rho, self.c))

    def __repr__(self):
        return f"FamilyParams(n={self.n}, rho={self.rho}, c={self.c})"

    @property
    def dim(self) -> int:
        return 4 * self.n - 1


# --- basis bookkeeping -----------------------------------------------------


def _idx_br(n: int, a: int) -> int:
    return 2 * (a - 1)


def _idx_bi(n: int, a: int) -> int:
    return 2 * (a - 1) + 1


def _idx_e(n: int, k: int) -> int:
    return 2 * n - 2 + 2 * k


def _idx_f(n: int, k: int) -> int:
    return _idx_e(n, k) + 1


def _idx_z(n: int) -> int:
    return 4 * n - 2


# --- brackets --------------------------------------------------------------


def _mixed_triples(n: int):
    """Triples (X, source, target, coefficient) of the mixed brackets of the
    solvable generators X = B_aR, B_aI with the e_k and f_k.

    Each X has one table {(k, j): (Re c, Im c)} of [X, E_k] = sum_j c E_j
    over E_k = e_k - i f_k.  X is real, so [X, e_k] and -[X, f_k] are the
    real and imaginary parts of [X, E_k], which expands each entry by one
    rule: [X, e_k] = re e_j + im f_j and [X, f_k] = -im e_j + re f_j.
    """
    h = _HALF
    for a in range(1, n):
        if a == 1:
            r_table = {(0, 1): (-1, 0), (1, 0): (-1, 0)}
            i_table = {(0, 0): (0, -1), (0, 1): (0, 1), (1, 0): (0, -1), (1, 1): (0, 1)}
        else:
            r_table = {(0, a): (-h, 0), (1, a): (-h, 0), (a, 0): (-h, 0), (a, 1): (h, 0)}
            i_table = {(0, a): (0, h), (1, a): (0, h), (a, 0): (0, -h), (a, 1): (0, h)}
        for x, table in ((_idx_br(n, a), r_table), (_idx_bi(n, a), i_table)):
            for (k, j), (re, im) in table.items():
                ek, fk, ej, fj = _idx_e(n, k), _idx_f(n, k), _idx_e(n, j), _idx_f(n, j)
                if re:
                    yield x, ek, ej, re
                    yield x, fk, fj, re
                if im:
                    yield x, ek, fj, im
                    yield x, fk, ej, -im


@lru_cache(maxsize=None)
def build_lie_algebra(n: int) -> StructureConstants:
    """Structure constants of the family algebra in the fixed basis order.

    The Jacobi identity is verified on construction.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    d = 4 * n - 1
    triples = []
    # Heisenberg part: [e0, f0] = Z, [e_k, f_k] = -Z for k >= 1.
    triples.append((_idx_e(n, 0), _idx_f(n, 0), _idx_z(n), Fraction(1)))
    for k in range(1, n):
        triples.append((_idx_e(n, k), _idx_f(n, k), _idx_z(n), Fraction(-1)))
    if n > 1:
        # Solvable part.
        triples.append((_idx_br(n, 1), _idx_bi(n, 1), _idx_bi(n, 1), Fraction(2)))
        for a in range(2, n):
            triples.append((_idx_br(n, 1), _idx_br(n, a), _idx_br(n, a), Fraction(1)))
            triples.append((_idx_br(n, 1), _idx_bi(n, a), _idx_bi(n, a), Fraction(1)))
            triples.append((_idx_br(n, a), _idx_bi(n, a), _idx_bi(n, 1), _HALF))
        # Mixed action on the Heisenberg part, from the complex tables.
        triples += _mixed_triples(n)
    L = StructureConstants.from_triples(d, triples)
    ok, witness = check_jacobi(L)
    if not ok:
        raise AssertionError(f"Jacobi identity failed at triple {witness[:3]}")
    return L


def build_gram(p: FamilyParams) -> Matrix:
    """Gram matrix of the family inner product in the fixed basis.

    Positive definiteness is certified where it is used, by
    :class:`MetricLieAlgebra`.
    """
    n, rho, c = p.n, p.rho, p.c
    entries = []
    if n > 1:
        entries += [(rho + c) / rho, (rho + c) ** 3 / (rho**2 * (rho + 2 * c))]
        entries += [(rho + c) / (4 * rho)] * (2 * n - 4)
    entries += [(rho + 2 * c) / (4 * rho**2)] * 2
    entries += [Fraction(1) / (4 * rho)] * (2 * n - 2)
    entries.append((rho + c) / (4 * rho**2) / (rho + 2 * c))
    d = len(entries)
    g = [[e if i == j else 0 for j in range(d)] for i, e in enumerate(entries)]
    if n > 1:
        g[1][d - 1] = g[d - 1][1] = -(c / (2 * rho**2)) * ((rho + c) / (rho + 2 * c))
    return Matrix(g)


def build_delta(n: int) -> Matrix:
    """The grading derivation: 0 on the solvable part, 1 on e/f, 2 on Z."""
    out = Matrix.diagonal([0] * (2 * n - 2) + [1] * (2 * n) + [2])
    ok, witness = is_derivation(build_lie_algebra(n), out)
    if not ok:
        raise AssertionError(f"delta failed the Leibniz identity at pair {witness}")
    return out


def family_splitting(n: int) -> tuple:
    """Basis indices of the abelian part {B1R}, empty at n = 1; the declared
    nilradical is the rest of the basis."""
    return () if n == 1 else (0,)


def metric_algebra(p: FamilyParams) -> MetricLieAlgebra:
    return MetricLieAlgebra(build_lie_algebra(p.n), build_gram(p))


# --- coordinate side of the hypersurface -----------------------------------


def coordinate_names(n: int) -> list:
    """Hypersurface coordinate order: (b^a, t^a, phi, zeta~_0, zeta^0, ...)."""
    names = []
    for a in range(1, n):
        names += [f"b{a}", f"t{a}"]
    names.append("phi")
    names += ["zt0", "z0"]
    for j in range(1, n):
        names += [f"zt{j}", f"z{j}"]
    return names


def slice_multiplicities(n: int) -> tuple:
    """Sizes of the slice's four blocks b, phi, z0 and zrest in coordinate
    order, the multiplicities of the shape and Ricci spectra; the b and
    zrest blocks are empty at n = 1."""
    return (2 * n - 2, 1, 2, 2 * n - 2)


def slice_diagonal(n: int, c) -> list:
    """Diagonal of the slice metric g_rho in coordinate order, each entry
    K * prod (rho + a)^p given as its (K, ((a, p), ...)) for
    :func:`~solvsoliton.scalars.power_jet`:

        b = (rho + c)/(4 rho),   phi = (rho + c)/(4 rho^2 (rho + 2c)),
        z0 = (rho + 2c)/(2 rho^2),   zrest = 1/(2 rho).

    ``AmbientMetric.jets`` restates them on purpose, as the independent
    ambient assembly, and :func:`build_gram` in the algebra basis, tied to
    them by the P^T G P check of :func:`build_embedding`.
    """
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    b = (quarter, ((0, -1), (c, 1)))
    phi = (quarter, ((0, -2), (c, 1), (2 * c, -1)))
    z0 = (half, ((0, -2), (2 * c, 1)))
    zrest = (half, ((0, -1),))
    blocks = zip((b, phi, z0, zrest), slice_multiplicities(n))
    return [entry for entry, m in blocks for _ in range(m)]


def _warp_factor(c) -> tuple:
    """The warp factor f = (rho + 2c)/(4 rho^2 (rho + c)) as its (K, ((a, p), ...))
    for :func:`~solvsoliton.scalars.power_jet`; ``AmbientMetric.jets``
    restates it on purpose, as the independent ambient assembly."""
    return Fraction(1, 4), ((0, -2), (c, -1), (2 * c, 1))


def coordinate_gram_values(p: FamilyParams) -> list:
    """Diagonal of the coordinate Gram matrix at the base point."""
    return [g for g, _, _ in p.slice_jets]


def build_embedding(p: FamilyParams, gram: Matrix) -> Matrix:
    """The evaluation map P: column j holds the coordinates of the j-th
    algebra basis vector in the frame (d_b, d_t, d_phi, sqrt(2) d_zeta).

    In the rescaled zeta frame the e/f columns are +-1/2 rather than
    +-1/sqrt(2), so P is rational.  The coordinate Ricci endomorphism is
    diagonal, hence unchanged by the rescaling, and the Gram matrix of the
    frame is the coordinate Gram with its 2n zeta entries doubled.
    P^T G_frame P is checked against the family Gram matrix ``gram`` (that
    is, :func:`build_gram` of ``p``).
    """
    n, c = p.n, p.c
    d = p.dim
    names = coordinate_names(n)
    row = {name: i for i, name in enumerate(names)}
    P = [[0] * d for _ in range(d)]
    if n > 1:
        P[row["b1"]][0] = 2
        P[row["t1"]][1] = 2
        P[row["phi"]][1] = -2 * c
    for a in range(2, n):
        P[row[f"b{a}"]][_idx_br(n, a)] = 1
        P[row[f"t{a}"]][_idx_bi(n, a)] = 1
    P[row["zt0"]][_idx_e(n, 0)] = _HALF
    P[row["z0"]][_idx_f(n, 0)] = _HALF
    for j in range(1, n):
        P[row[f"zt{j}"]][_idx_e(n, j)] = _HALF
        P[row[f"z{j}"]][_idx_f(n, j)] = -_HALF
    P[row["phi"]][_idx_z(n)] = 1
    P = Matrix(P)
    g_frame = Matrix.diagonal(
        2 * g if name.startswith("z") else g
        for name, g in zip(names, coordinate_gram_values(p))
    )
    if P.transpose() @ g_frame @ P != gram:
        raise AssertionError("embedding failed the Gram consistency identity")
    return P


# --- closed forms ------------------------------------------------------------


def einstein_constant(n: int) -> int:
    """lambda = -2(n + 2), with Ric = lambda g on the 4n-dimensional ambient metric."""
    return -2 * (n + 2)


def ricci_eigenvalue_formulas(n: int, rho: Fraction, c: Fraction):
    """The four principal Ricci curvatures as exact rational functions."""
    rho, c = Fraction(rho), Fraction(c)
    den12 = (rho + c) * (rho + 2 * c)
    r1 = (-2 * (n + 2) * rho**2 - 4 * (n + 2) * c * rho - 6 * c**2) / den12
    r2 = (
        2 * n * rho**4
        + (12 * n - 8) * c * rho**3
        + (28 * n - 26) * c**2 * rho**2
        + 32 * (n - 1) * c**3 * rho
        + 16 * (n - 1) * c**4
    ) / ((rho + c) * (rho + 2 * c) ** 3)
    r3 = (
        2
        * (-(rho**3) + (2 * n - 3) * c * rho**2 + (8 * n - 8) * c**2 * rho + (8 * n - 8) * c**3)
        / (rho + 2 * c) ** 3
    )
    r4 = -2 * (rho + 3 * c) / (rho + 2 * c)
    return r1, r2, r3, r4


def expected_ric_matrix(p: FamilyParams) -> Matrix:
    """Ricci endomorphism in the family basis, from the closed forms."""
    n, rho, c = p.n, p.rho, p.c
    r1, r2, r3, r4 = ricci_eigenvalue_formulas(n, rho, c)
    diag = [r1] * (2 * n - 2) + [r3] * 2 + [r4] * (2 * n - 2) + [r2]
    d = len(diag)
    out = [[e if i == j else 0 for j in range(d)] for i, e in enumerate(diag)]
    if n > 1:
        out[d - 1][1] = 2 * c * (r1 - r2)
    return Matrix(out)


def predicted_status(n: int, c: Fraction) -> str:
    """Expected verdict label: nilsoliton / solvsoliton / not_soliton."""
    if n == 1:
        return "nilsoliton"
    return "solvsoliton" if Fraction(c) == 0 else "not_soliton"


def classify_status(n: int, status: str) -> str:
    """Verdict label for a family instance from the status of its direct
    soliton verdict (nilpotent only when n = 1)."""
    if status != "soliton":
        return "not_soliton"
    return "nilsoliton" if n == 1 else "solvsoliton"
