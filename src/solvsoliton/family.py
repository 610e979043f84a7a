"""The deformed-metric family of solvable Lie algebras.

For a rank parameter n this module builds the (4n-1)-dimensional solvable
Lie algebra b |x heis_{2n+1} (an Iwasawa subalgebra acting on a Heisenberg
algebra), the two-parameter family of inner products g indexed by (rho, c),
the grading derivation delta, the evaluation map onto coordinate tangent
vectors, and every closed-form expected value used for cross-checking.

Ordered basis for n > 1:

    (B1R, B1I, B2R, B2I, ..., B_{n-1}R, B_{n-1}I,
     e0, f0, e1, f1, ..., e_{n-1}, f_{n-1}, Z)

and (e0, f0, Z) for n = 1.  The mixed brackets between the solvable part and
the Heisenberg part are stated over the complex combinations E_k = e_k - i f_k
and expanded to the real basis by :func:`real_from_complex_brackets`; the
expansion is cross-validated elsewhere against the printed adjoint blocks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .lie_core import Splitting, StructureConstants, check_jacobi, is_derivation
from .linalg import Matrix, is_positive_definite
from .metric_lie import MetricLieAlgebra
from .scalars import surd

__all__ = [
    "FamilyParams",
    "BasisEmbedding",
    "ClosedForms",
    "basis_labels",
    "build_lie_algebra",
    "real_from_complex_brackets",
    "build_gram",
    "build_delta",
    "build_embedding",
    "family_splitting",
    "metric_algebra",
    "coordinate_names",
    "slice_diagonal",
    "coordinate_gram_values",
    "ricci_eigenvalue_formulas",
    "expected_closed_forms",
    "expected_ric_matrix",
    "expected_ad_b1r",
    "expected_ad_b1r_star",
    "expected_ad_h_sym",
    "expected_killing_operator",
    "expected_mean_curvature",
    "expected_normality_commutator",
    "predicted_status",
    "classify_status",
]

_HALF = Fraction(1, 2)


class FamilyParams:
    """Family parameters: rank n >= 1, slice rho > 0, deformation c >= 0.

    A value object: equal parameters compare and hash alike.
    """

    __slots__ = ("n", "rho", "c")

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
    return (2 * n - 2 if n > 1 else 0) + 2 * k


def _idx_f(n: int, k: int) -> int:
    return _idx_e(n, k) + 1


def _idx_z(n: int) -> int:
    return 4 * n - 2


def basis_labels(n: int) -> list:
    if n == 1:
        return ["e0", "f0", "Z"]
    labels = []
    for a in range(1, n):
        labels += [f"B{a}R", f"B{a}I"]
    for k in range(n):
        labels += [f"e{k}", f"f{k}"]
    labels.append("Z")
    return labels


# --- complex-to-real bracket expansion --------------------------------------


def real_from_complex_brackets(n: int, rows: dict) -> list:
    """Expand brackets stated over E_k = e_k - i f_k into the real basis.

    ``rows`` maps ("E", k) and ("Ebar", k) to {j: (re, im)} coefficient
    dictionaries over the E_j (conjugate rows are coefficients over Ebar_j).
    The conjugate rows must match the E rows exactly (same re, negated im);
    any mismatch raises, since the source table lists them redundantly.

    Returns triples ((src_kind, k), (tgt_kind, j), coefficient) over the real
    basis with kinds "e"/"f", using
    [X, e_k] = sum_j Re(c_j) e_j + Im(c_j) f_j and
    [X, f_k] = sum_j -Im(c_j) e_j + Re(c_j) f_j.
    """

    def cleaned(row):
        return {
            j: (Fraction(re), Fraction(im))
            for j, (re, im) in row.items()
            if Fraction(re) or Fraction(im)
        }

    out = []
    for k in range(n):
        erow = cleaned(rows.get(("E", k), {}))
        expected_conj = {j: (re, -im) for j, (re, im) in erow.items()}
        if ("Ebar", k) in rows and cleaned(rows[("Ebar", k)]) != expected_conj:
            raise ValueError(f"conjugate bracket row for k={k} is inconsistent")
        for j, (re, im) in erow.items():
            if re:
                out.append((("e", k), ("e", j), re))
                out.append((("f", k), ("f", j), re))
            if im:
                out.append((("e", k), ("f", j), im))
                out.append((("f", k), ("e", j), -im))
    return out


def _complex_rows_for_generator(n: int, kind: str, a: int) -> dict:
    """Bracket rows [X, E_k] for X among the solvable-part generators."""
    rows: dict = {}

    def put(k, j, re, im):
        rows.setdefault(("E", k), {})[j] = (Fraction(re), Fraction(im))

    if kind == "R" and a == 1:
        put(0, 1, -1, 0)
        put(1, 0, -1, 0)
    elif kind == "I" and a == 1:
        for k in (0, 1):
            put(k, 0, 0, -1)
            put(k, 1, 0, 1)
    elif kind == "R":
        put(0, a, -_HALF, 0)
        put(1, a, -_HALF, 0)
        put(a, 0, -_HALF, 0)
        put(a, 1, _HALF, 0)
    elif kind == "I":
        put(0, a, 0, _HALF)
        put(1, a, 0, _HALF)
        put(a, 0, 0, -_HALF)
        put(a, 1, 0, _HALF)
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    # Conjugate rows, listed redundantly so the expander can cross-check.
    for (tag, k), row in list(rows.items()):
        rows[("Ebar", k)] = {j: (re, -im) for j, (re, im) in row.items()}
    for k in range(n):
        rows.setdefault(("E", k), {})
        rows.setdefault(("Ebar", k), {})
    return rows


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
        # Mixed action on the Heisenberg part, via the complex table.
        real_idx = {"e": lambda k: _idx_e(n, k), "f": lambda k: _idx_f(n, k)}
        for a in range(1, n):
            for kind, gen_idx in (("R", _idx_br(n, a)), ("I", _idx_bi(n, a))):
                rows = _complex_rows_for_generator(n, kind, a)
                for (src_kind, k), (tgt_kind, j), coeff in real_from_complex_brackets(
                    n, rows
                ):
                    triples.append(
                        (gen_idx, real_idx[src_kind](k), real_idx[tgt_kind](j), coeff)
                    )
    L = StructureConstants.from_triples(d, triples)
    ok, witness = check_jacobi(L)
    if not ok:
        raise AssertionError(f"Jacobi identity failed at triple {witness[:3]}")
    return L


def build_gram(p: FamilyParams) -> Matrix:
    """Gram matrix of the family inner product in the fixed basis."""
    n, rho, c = p.n, p.rho, p.c
    if n == 1:
        g = Matrix.diagonal(
            [
                (2 * c + rho) / (4 * rho**2),
                (2 * c + rho) / (4 * rho**2),
                (c + rho) / (4 * (2 * c + rho) * rho**2),
            ]
        )
    else:
        entries = [
            (rho + c) / rho,
            (rho + c) ** 3 / (rho**2 * (rho + 2 * c)),
        ]
        entries += [(rho + c) / (4 * rho)] * (2 * n - 4)
        entries += [(rho + 2 * c) / (4 * rho**2)] * 2
        entries += [Fraction(1) / (4 * rho)] * 2
        entries += [Fraction(1) / (4 * rho)] * (2 * n - 4)
        entries.append((rho + c) / (4 * rho**2) / (rho + 2 * c))
        g = Matrix.diagonal(entries)
        off = -(c / (2 * rho**2)) * ((rho + c) / (rho + 2 * c))
        if off:
            g.data[1][4 * n - 2] = off
            g.data[4 * n - 2][1] = off
    if not is_positive_definite(g):
        raise ValueError("family Gram matrix failed positive definiteness")
    return g


def build_delta(n: int) -> Matrix:
    """The grading derivation: 0 on the solvable part, 1 on e/f, 2 on Z."""
    d = 4 * n - 1
    out = Matrix.zeros(d, d)
    for k in range(n):
        out.data[_idx_e(n, k)][_idx_e(n, k)] = Fraction(1)
        out.data[_idx_f(n, k)][_idx_f(n, k)] = Fraction(1)
    out.data[_idx_z(n)][_idx_z(n)] = Fraction(2)
    ok, witness = is_derivation(build_lie_algebra(n), out)
    if not ok:
        raise AssertionError(f"delta failed the Leibniz identity at pair {witness}")
    return out


def family_splitting(n: int) -> Splitting:
    """Abelian part {B1R} and declared nilradical (everything else)."""
    d = 4 * n - 1
    if n == 1:
        return Splitting((), tuple(range(d)))
    return Splitting((0,), tuple(range(1, d)))


def metric_algebra(p: FamilyParams) -> MetricLieAlgebra:
    return MetricLieAlgebra(build_lie_algebra(p.n), build_gram(p))


# --- coordinate side of the hypersurface -----------------------------------


def coordinate_names(n: int) -> list:
    """Hypersurface coordinate order: (b^a, t^a, phi, zeta~_0, zeta^0, ...)."""
    if n == 1:
        return ["phi", "zt0", "z0"]
    names = []
    for a in range(1, n):
        names += [f"b{a}", f"t{a}"]
    names.append("phi")
    names += ["zt0", "z0"]
    for j in range(1, n):
        names += [f"zt{j}", f"z{j}"]
    return names


def slice_diagonal(n: int, rho, c) -> list:
    """Diagonal of the slice metric g_rho in coordinate order.

    Generic in ``rho``: a ``Fraction`` gives the values at the base point, a
    ``Jet2`` in rho gives them with their first two rho-derivatives.  These
    are the only copies of the four entry formulas.
    """
    b = (rho + c) / (4 * rho)
    phi = (rho + c) / (4 * rho**2 * (rho + 2 * c))
    z0 = (rho + 2 * c) / (2 * rho**2)
    zrest = 1 / (2 * rho)
    return [b] * (2 * n - 2) + [phi] + [z0] * 2 + [zrest] * (2 * n - 2)


def coordinate_gram_values(p: FamilyParams) -> list:
    """Diagonal of the coordinate Gram matrix at the base point."""
    return slice_diagonal(p.n, p.rho, p.c)


class BasisEmbedding:
    """Columns of P express the algebra basis in coordinate tangent vectors.

    The consistency identity P^T G_coord P = G_family is verified exactly on
    construction (the sqrt(2) normalizers square away).
    """

    __slots__ = ("P", "coordinate_names")

    def __init__(self, P: Matrix, coordinate_names: list):
        self.P = P
        self.coordinate_names = coordinate_names

    def conjugate_to_family(self, endo_coords: Matrix) -> Matrix:
        """Transport an endomorphism from coordinate to family basis."""
        from .linalg import inverse

        return inverse(self.P) @ endo_coords @ self.P


def build_embedding(p: FamilyParams) -> BasisEmbedding:
    n, c = p.n, p.c
    d = p.dim
    names = coordinate_names(n)
    row = {name: i for i, name in enumerate(names)}
    P = Matrix.zeros(d, d)
    half_rt2 = surd(0, _HALF, 2)  # 1/sqrt(2)
    if n == 1:
        P.data[row["zt0"]][0] = half_rt2
        P.data[row["z0"]][1] = half_rt2
        P.data[row["phi"]][2] = Fraction(1)
    else:
        P.data[row["b1"]][0] = Fraction(2)
        P.data[row["t1"]][1] = Fraction(2)
        P.data[row["phi"]][1] = -2 * c
        for a in range(2, n):
            P.data[row[f"b{a}"]][_idx_br(n, a)] = Fraction(1)
            P.data[row[f"t{a}"]][_idx_bi(n, a)] = Fraction(1)
        P.data[row["zt0"]][_idx_e(n, 0)] = half_rt2
        P.data[row["z0"]][_idx_f(n, 0)] = half_rt2
        for j in range(1, n):
            P.data[row[f"zt{j}"]][_idx_e(n, j)] = half_rt2
            P.data[row[f"z{j}"]][_idx_f(n, j)] = -half_rt2
        P.data[row["phi"]][_idx_z(n)] = Fraction(1)
    g_coord = Matrix.diagonal(coordinate_gram_values(p))
    if P.transpose() @ g_coord @ P != build_gram(p):
        raise AssertionError("embedding failed the Gram consistency identity")
    return BasisEmbedding(P, names)


# --- closed forms ------------------------------------------------------------


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


class ClosedForms:
    """Shape-operator and Ricci spectra plus companion scalars.

    sigma and r are ordered (sigma1..sigma4), (r1..r4) with multiplicities
    (2n-2, 1, 2, 2n-2); for n = 1 the outer entries are None and their
    multiplicities vanish.
    """

    __slots__ = (
        "sigma",
        "sigma_multiplicities",
        "r",
        "tr_shape",
        "h_coeff",
        "lambda_expected",
    )

    def __init__(self, sigma, sigma_multiplicities, r, tr_shape, h_coeff, lambda_expected):
        self.sigma = sigma
        self.sigma_multiplicities = sigma_multiplicities
        self.r = r
        self.tr_shape = tr_shape
        self.h_coeff = h_coeff
        self.lambda_expected = lambda_expected


def expected_closed_forms(p: FamilyParams) -> ClosedForms:
    n, rho, c = p.n, p.rho, p.c
    q = (rho + c) / (rho + 2 * c)
    s1 = surd(0, c / (rho + c), q)
    s2 = surd(0, (2 * rho**2 + 5 * c * rho + 4 * c**2) / ((rho + 2 * c) * (rho + c)), q)
    s3 = surd(0, (rho + 4 * c) / (rho + 2 * c), q)
    s4 = surd(0, Fraction(1), q)
    tr_shape = surd(
        0,
        ((2 * n + 2) * rho**2 + (8 * n + 7) * c * rho + (8 * n + 4) * c**2)
        / ((rho + c) * (rho + 2 * c)),
        q,
    )
    r1, r2, r3, r4 = ricci_eigenvalue_formulas(n, rho, c)
    mult = (2 * n - 2, 1, 2, 2 * n - 2)
    if n == 1:
        sigma = (None, s2, s3, None)
        r = (None, r2, r3, None)
    else:
        sigma = (s1, s2, s3, s4)
        r = (r1, r2, r3, r4)
    return ClosedForms(
        sigma=sigma,
        sigma_multiplicities=mult,
        r=r,
        tr_shape=tr_shape,
        h_coeff=(2 * n - 2) * rho / (rho + c),
        lambda_expected=Fraction(-2 * (n + 2)),
    )


def expected_ric_matrix(p: FamilyParams) -> Matrix:
    """Ricci endomorphism in the family basis, from the closed forms."""
    n, rho, c = p.n, p.rho, p.c
    r1, r2, r3, r4 = ricci_eigenvalue_formulas(n, rho, c)
    if n == 1:
        return Matrix.diagonal([r3, r3, r2])
    diag = [r1] * (2 * n - 2) + [r3] * 2 + [r4] * (2 * n - 2) + [r2]
    out = Matrix.diagonal(diag)
    out.data[4 * n - 2][1] = 2 * c * (r1 - r2)
    return out


def _block_diag_entries(n: int, b1r, b1i, brest, heis0, heis1, z) -> Matrix:
    """diag(b1r, b1i, brest*1, <4x4 heis block>, heis1*1, z) layout helper."""
    d = 4 * n - 1
    out = Matrix.zeros(d, d)
    out.data[0][0] = b1r
    out.data[1][1] = b1i
    for i in range(2, 2 * n - 2):
        out.data[i][i] = brest
    for i in range(2 * n + 2, 4 * n - 2):
        out.data[i][i] = heis1
    out.data[d - 1][d - 1] = z
    base = 2 * n - 2
    for i in range(4):
        out.data[base + i][base + i] = heis0
    return out


def expected_ad_b1r(n: int) -> Matrix:
    """ad(B1R) block form: diag(0, 2, 1_{2n-4}, V4, 0_{2n-4}, 0)."""
    if n < 2:
        raise ValueError("the solvable part is empty for n = 1")
    out = _block_diag_entries(
        n, Fraction(0), Fraction(2), Fraction(1), Fraction(0), Fraction(0), Fraction(0)
    )
    base = 2 * n - 2
    for i in range(4):
        out.data[base + i][base + i] = Fraction(0)
    out.data[base][base + 2] = Fraction(-1)
    out.data[base + 1][base + 3] = Fraction(-1)
    out.data[base + 2][base] = Fraction(-1)
    out.data[base + 3][base + 1] = Fraction(-1)
    return out


def expected_ad_b1r_star(p: FamilyParams) -> Matrix:
    """Metric adjoint of ad(B1R), in closed form."""
    n, rho, c = p.n, p.rho, p.c
    if n < 2:
        raise ValueError("the solvable part is empty for n = 1")
    out = _block_diag_entries(
        n,
        Fraction(0),
        2 * (rho + c) ** 2 / (rho * (rho + 2 * c)),
        Fraction(1),
        Fraction(0),
        Fraction(0),
        -2 * c**2 / (rho * (rho + 2 * c)),
    )
    base = 2 * n - 2
    ratio = rho / (rho + 2 * c)
    out.data[base][base + 2] = -ratio
    out.data[base + 1][base + 3] = -ratio
    out.data[base + 2][base] = -(rho + 2 * c) / rho
    out.data[base + 3][base + 1] = -(rho + 2 * c) / rho
    out.data[1][4 * n - 2] = -c / (rho * (rho + 2 * c))
    out.data[4 * n - 2][1] = 4 * c * (rho + c) ** 2 / (rho * (rho + 2 * c))
    return out


def expected_ad_h_sym(p: FamilyParams) -> Matrix:
    """Closed form of the symmetric part of ad(H)."""
    n, rho, c = p.n, p.rho, p.c
    if n < 2:
        raise ValueError("the solvable part is empty for n = 1")
    m = Fraction(2 * n - 2)
    out = _block_diag_entries(
        n,
        Fraction(0),
        m * (2 * rho**2 + 4 * c * rho + c**2) / ((rho + c) * (rho + 2 * c)),
        m * rho / (rho + c),
        Fraction(0),
        Fraction(0),
        -m * c**2 / ((rho + c) * (rho + 2 * c)),
    )
    base = 2 * n - 2
    ratio = rho / (rho + 2 * c)
    out.data[base][base + 2] = -m * ratio
    out.data[base + 1][base + 3] = -m * ratio
    out.data[base + 2][base] = -m
    out.data[base + 3][base + 1] = -m
    out.data[1][4 * n - 2] = -m * c / (2 * (rho + c) * (rho + 2 * c))
    out.data[4 * n - 2][1] = m * 2 * c * (rho + c) / (rho + 2 * c)
    return out


def expected_killing_operator(p: FamilyParams) -> Matrix:
    """Killing endomorphism (2n+4) rho/(rho+c) E_{1,1} (zero for n = 1)."""
    n, rho, c = p.n, p.rho, p.c
    d = p.dim
    out = Matrix.zeros(d, d)
    if n > 1:
        out.data[0][0] = (2 * n + 4) * rho / (rho + c)
    return out


def expected_mean_curvature(p: FamilyParams) -> list:
    """(2n-2) rho/(rho+c) B1R as a coordinate vector (zero for n = 1)."""
    out = [Fraction(0)] * p.dim
    if p.n > 1:
        out[0] = (2 * p.n - 2) * p.rho / (p.rho + p.c)
    return out


def expected_normality_commutator(p: FamilyParams) -> Matrix:
    """[ad(B1R), ad(B1R)*] in closed form; zero exactly when c = 0."""
    n, rho, c = p.n, p.rho, p.c
    if n < 2:
        raise ValueError("the solvable part is empty for n = 1")
    d = p.dim
    out = Matrix.zeros(d, d)
    k1 = 4 * c * (rho + c) / (rho * (rho + 2 * c))
    base = 2 * n - 2
    for i in (0, 1):
        out.data[base + i][base + i] = k1
        out.data[base + 2 + i][base + 2 + i] = -k1
    out.data[1][d - 1] = -2 * c / (rho * (rho + 2 * c))
    out.data[d - 1][1] = -8 * c * (rho + c) ** 2 / (rho * (rho + 2 * c))
    return out


def predicted_status(n: int, c: Fraction) -> str:
    """Expected verdict label: nilsoliton / solvsoliton / not_soliton."""
    if n == 1:
        return "nilsoliton"
    return "solvsoliton" if Fraction(c) == 0 else "not_soliton"


def classify_status(n: int, is_soliton: bool) -> str:
    """Verdict label for a family instance (nilpotent only when n = 1)."""
    if not is_soliton:
        return "not_soliton"
    return "nilsoliton" if n == 1 else "solvsoliton"
