"""Metric Lie algebras: connection, curvature, and soliton certification.

Two independent decision procedures are provided for the algebraic Ricci
soliton equation ric = lambda*Id + D:

* a direct exact test of whether ric - lambda*Id passes the Leibniz rule
  for the one lambda the Leibniz defects allow, and
* the checklist route through the nilpotent part (restricted nilsoliton,
  abelian complement, normal adjoints, norm condition).

The Ricci endomorphism itself comes from the Koszul formula for
left-invariant metrics, and the classical decomposition
ric = R - B/2 - sym(ad H) is reconstructed term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile

from .lie_core import (
    Splitting,
    StructureConstants,
    _leibniz_defects,
    ad_matrix,
    bracket,
    is_derivation,
    killing_form,
    subalgebra,
    verify_splitting,
)
from .linalg import Matrix, inverse, is_positive_definite

__all__ = [
    "MetricLieAlgebra",
    "SolitonVerdict",
    "connection_coeffs",
    "verify_connection",
    "ricci_bilinear",
    "ricci_endomorphism_koszul",
    "mean_curvature_vector",
    "adjoint_operator",
    "lauret_terms",
    "curvature_operator_sums",
    "soliton_check_direct",
    "soliton_check_lauret",
]

_HALF = Fraction(1, 2)


class MetricLieAlgebra:
    """Structure constants plus a symmetric positive-definite Gram matrix."""

    __slots__ = ("L", "G", "_cache")

    def __init__(self, L: StructureConstants, G: Matrix):
        if G.rows != L.dim or G.cols != L.dim:
            raise ValueError("Gram matrix size does not match the algebra")
        if not G.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        if not is_positive_definite(G):
            raise ValueError("Gram matrix must be positive definite")
        self.L = L
        self.G = G
        self._cache: dict = {}

    @property
    def dim(self) -> int:
        return self.L.dim

    def gram_inverse(self) -> Matrix:
        gi = self._cache.get("Ginv")
        if gi is None:
            gi = inverse(self.G)
            self._cache["Ginv"] = gi
        return gi

    def splitting_report(self, s: Splitting):
        """The :func:`verify_splitting` report of ``s``, cached per splitting."""
        key = ("splitting", s)
        report = self._cache.get(key)
        if report is None:
            report = verify_splitting(self.L, s, self.G)
            self._cache[key] = report
        return report

    def inner(self, x, y) -> Fraction:
        """<x, y> under the Gram matrix, for coordinate vectors."""
        total = Fraction(0)
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.G.data[i]
            for j, yj in enumerate(y):
                if yj and row[j]:
                    total += xi * row[j] * yj
        return total


def connection_coeffs(M: MetricLieAlgebra) -> list:
    """Levi-Civita connection: Gamma[i] has column j = nabla_{e_i} e_j.

    Built from the left-invariant Koszul formula
    2<nabla_x y, z> = <[x,y],z> - <[y,z],x> + <[z,x],y>.
    Cached on the metric algebra.
    """
    cached = M._cache.get("gamma")
    if cached is not None:
        return cached
    L, G = M.L, M.G
    d = L.dim
    # Sparse rows of G^{-1}; the family Gram is diagonal but for one 2x2 block.
    ginv = [[(k, v) for k, v in enumerate(row) if v] for row in M.gram_inverse().data]
    # w[i][j][k] = <[e_i, e_j], e_k>
    w = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for m, v in L._sparse[i][j]:
                row = G.data[m]
                wij = w[i][j]
                for k in range(d):
                    if row[k]:
                        wij[k] += v * row[k]
    gammas = []
    for i in range(d):
        cols = []
        for j in range(d):
            rhs = []
            for k in range(d):
                a, b, e = w[i][j][k], w[j][k][i], w[k][i][j]
                rhs.append(_HALF * (a - b + e) if a or b or e else a)
            col = []
            for row in ginv:
                t = Fraction(0)
                for k, v in row:
                    if rhs[k]:
                        t += v * rhs[k]
                col.append(t)
            cols.append(col)
        gammas.append(Matrix([[cols[j][r] for j in range(d)] for r in range(d)]))
    M._cache["gamma"] = gammas
    return gammas


def verify_connection(M: MetricLieAlgebra):
    """(metric_ok, torsion_ok) re-checked exactly on all basis pairs."""
    L = M.L
    d = L.dim
    gammas = connection_coeffs(M)
    metric_ok = True
    torsion_ok = True
    basis = [[Fraction(int(r == i)) for r in range(d)] for i in range(d)]
    for i in range(d):
        cols_i = [gammas[i].column_vector(j) for j in range(d)]
        for j in range(d):
            for k in range(d):
                lhs = M.inner(cols_i[j], basis[k]) + M.inner(basis[j], cols_i[k])
                if lhs != 0:
                    metric_ok = False
            diff = [
                cols_i[j][r] - gammas[j].data[r][i] for r in range(d)
            ]
            br = bracket(L, basis[i], basis[j])
            if any(diff[r] - br[r] for r in range(d)):
                torsion_ok = False
    return metric_ok, torsion_ok


def ricci_bilinear(M: MetricLieAlgebra) -> Matrix:
    """Gram matrix of the Ricci form: Ric(e_i, e_j) = tr(v -> R(v, e_i) e_j)."""
    cached = M._cache.get("ricci_bilinear")
    if cached is not None:
        return cached
    L = M.L
    d = L.dim
    gammas = connection_coeffs(M)
    dense = [g.data for g in gammas]
    # Sparse columns: col[k][j] = nonzero (m, value) of nabla_{e_k} e_j.
    col = [
        [[(m, dense[k][m][j]) for m in range(d) if dense[k][m][j]] for j in range(d)]
        for k in range(d)
    ]
    trace_row = [Fraction(0)] * d
    for k in range(d):
        for m in range(d):
            if dense[k][k][m]:
                trace_row[m] += dense[k][k][m]
    out = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        gi = dense[i]
        for j in range(d):
            term1 = Fraction(0)
            for m, v in col[i][j]:
                if trace_row[m]:
                    term1 += trace_row[m] * v
            term2 = Fraction(0)
            for k in range(d):
                gik = gi[k]
                for m, v in col[k][j]:
                    if gik[m]:
                        term2 += gik[m] * v
            term3 = Fraction(0)
            for k in range(d):
                for m, v in L._sparse[k][i]:
                    if dense[m][k][j]:
                        term3 += v * dense[m][k][j]
            out[i][j] = term1 - term2 - term3
    ric = Matrix(out)
    M._cache["ricci_bilinear"] = ric
    return ric


def ricci_endomorphism_koszul(M: MetricLieAlgebra) -> Matrix:
    """Ricci endomorphism: Gram-inverse times the Ricci bilinear form."""
    cached = M._cache.get("ricci_endo")
    if cached is not None:
        return cached
    ric = M.gram_inverse() @ ricci_bilinear(M)
    M._cache["ricci_endo"] = ric
    return ric


def mean_curvature_vector(M: MetricLieAlgebra, s: Splitting) -> list:
    """The unique H in the abelian part with <H, A> = tr(ad A) there."""
    d = M.dim
    a_idx = list(s.a_indices)
    if not a_idx:
        return [Fraction(0)] * d
    sub = Matrix([[M.G.data[i][j] for j in a_idx] for i in a_idx])
    rhs = Matrix.column(
        [ad_matrix(M.L, [Fraction(int(r == i)) for r in range(d)]).trace() for i in a_idx]
    )
    from .linalg import solve_exact

    sol = solve_exact(sub, rhs)
    if sol is None:
        raise ValueError("Gram restriction to the abelian part is singular")
    H = [Fraction(0)] * d
    for pos, i in enumerate(a_idx):
        H[i] = sol.data[pos][0]
    return H


def adjoint_operator(M: MetricLieAlgebra, A: Matrix) -> Matrix:
    """Metric adjoint A* = G^{-1} A^T G."""
    if A.rows != M.dim or A.cols != M.dim:
        raise ValueError("operator size does not match the algebra")
    return M.gram_inverse() @ A.transpose() @ M.G


def _symmetric_part(M: MetricLieAlgebra, A: Matrix) -> Matrix:
    return (A + adjoint_operator(M, A)).scale(_HALF)


def lauret_terms(M: MetricLieAlgebra, s: Splitting):
    """(R, B_op, adHs) with ric = R - B_op/2 - adHs.

    B_op is the Killing endomorphism G^{-1} beta, adHs the symmetric part of
    ad(H) for the mean curvature vector H, and R is recovered from the
    already-known Ricci endomorphism, fixing the sign conventions by
    construction.
    """
    ric = ricci_endomorphism_koszul(M)
    b_op = M.gram_inverse() @ killing_form(M.L)
    H = mean_curvature_vector(M, s)
    ad_h_s = _symmetric_part(M, ad_matrix(M.L, H))
    r_term = ric + b_op.scale(_HALF) + ad_h_s
    return r_term, b_op, ad_h_s


def curvature_operator_sums(M: MetricLieAlgebra) -> Matrix:
    """The R term from its defining orthonormal-basis quadratic sums.

    Valid only for diagonal Gram matrices, where the normalizing square
    roots cancel inside the squares and the result stays rational.  Serves
    as the independent route to the R of :func:`lauret_terms`.
    """
    d = M.dim
    G = M.G
    for i in range(d):
        for j in range(d):
            if i != j and G.data[i][j] != 0:
                raise ValueError("quadratic-sum route requires a diagonal Gram matrix")
    g = [G.data[i][i] for i in range(d)]
    L = M.L
    basis = [[Fraction(int(r == i)) for r in range(d)] for i in range(d)]

    def quad(x):
        total = Fraction(0)
        for k in range(d):
            v = bracket(L, x, basis[k])
            for l in range(d):
                if v[l]:
                    total += -_HALF * (g[l] * v[l] * v[l]) / g[k]
        for k in range(d):
            for l in range(d):
                s = Fraction(0)
                for m, c in L._sparse[k][l]:
                    if x[m]:
                        s += c * g[m] * x[m]
                if s:
                    total += Fraction(1, 4) * s * s / (g[k] * g[l])
        return total

    bil = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            plus = [basis[i][r] + basis[j][r] for r in range(d)]
            minus = [basis[i][r] - basis[j][r] for r in range(d)]
            val = Fraction(1, 4) * (quad(plus) - quad(minus))
            bil[i][j] = val
            bil[j][i] = val
    return M.gram_inverse() @ Matrix(bil)


@dataclass
class SolitonVerdict:
    """Outcome of a soliton check.

    ``status`` is "soliton" or "not_soliton"; for solitons ``lambda_`` and
    the derivation ``D`` satisfy ric = lambda*Id + D exactly.  The checklist
    route also records per-condition booleans and a witness for the first
    failure (for example a nonzero commutator [ad A, ad A*]).
    """

    status: str
    lambda_: Fraction | None = None
    D: Matrix | None = None
    checklist: dict | None = None
    witness: Matrix | None = None
    lambda_source: str | None = None

    @property
    def is_soliton(self) -> bool:
        return self.status == "soliton"

    def to_jsonable(self) -> dict:
        return {
            "status": self.status,
            "lambda": None if self.lambda_ is None else str(self.lambda_),
            "lambda_source": self.lambda_source,
            "D": None if self.D is None else self.D.to_strings(),
            "checklist": self.checklist,
            "witness": None if self.witness is None else self.witness.to_strings(),
        }


def soliton_check_direct(M: MetricLieAlgebra) -> SolitonVerdict:
    """Exact test of ric = lambda*Id + D with D a derivation.

    The Leibniz defect X[e_i,e_j] - [X e_i,e_j] - [e_i,X e_j] is linear in
    X, and that of Id is minus the bracket.  So ric - lambda*Id is a
    derivation exactly when the defects of ric are lambda times those of
    Id.  On a non-abelian algebra lambda is read off at the first nonzero
    defect entry of Id; on an abelian one every endomorphism is a
    derivation and lambda is taken to be 0.  D = ric - lambda*Id is then
    tested with :func:`is_derivation`.  No basis of Der(L) is built.
    Cached on the metric algebra.
    """
    verdict = M._cache.get("soliton_direct")
    if verdict is None:
        verdict = M._cache["soliton_direct"] = _direct_verdict(M)
    return verdict


def _direct_verdict(M: MetricLieAlgebra) -> SolitonVerdict:
    L = M.L
    ident = Matrix.identity(L.dim)
    ric = ricci_endomorphism_koszul(M)
    lam = Fraction(0)
    first = next(_leibniz_defects(L, ident), None)
    if first is not None:
        # lambda = Lambda(ric) / Lambda(Id) at Id's first nonzero defect entry
        pair, id_row = first
        k = min(id_row)
        upto = takewhile(lambda entry: entry[0] <= pair, _leibniz_defects(L, ric))
        lam = dict(upto).get(pair, {}).get(k, 0) / id_row[k]
    # Lambda(ric - lambda*Id) = Lambda(ric) - lambda*Lambda(Id) by linearity.
    D = Matrix(
        [
            [x - lam if r == s else x for s, x in enumerate(row)]
            for r, row in enumerate(ric.data)
        ]
    )
    if not is_derivation(L, D)[0]:
        return SolitonVerdict(status="not_soliton")
    return SolitonVerdict(
        status="soliton",
        lambda_=lam,
        D=D,
        lambda_source="direct",
    )


def _restrict_gram(G: Matrix, indices) -> Matrix:
    return Matrix([[G.data[i][j] for j in indices] for i in indices])


def soliton_check_lauret(M: MetricLieAlgebra, s: Splitting) -> SolitonVerdict:
    """Checklist route: nilsoliton part, abelian complement, normal adjoints,
    and the norm condition tying <A, A> to tr(sym(ad A)^2) through lambda.

    The splitting must verify first.  The verdict's checklist keys are
    "nilsoliton", "a_abelian", "ad_normal", "norm_condition"; the witness is
    the first failing matrix.
    """
    report = M.splitting_report(s)
    if not report.ok:
        raise ValueError("declared splitting failed verification")
    d = M.dim
    n_idx = sorted(s.n_indices)
    sub_L = subalgebra(M.L, n_idx)
    sub_M = MetricLieAlgebra(sub_L, _restrict_gram(M.G, n_idx))
    sub_verdict = soliton_check_direct(sub_M)
    cond_nil = sub_verdict.is_soliton
    cond_abelian = report.a_is_abelian
    witness = None

    cond_normal = True
    a_ads = []
    for i in s.a_indices:
        x = [Fraction(int(r == i)) for r in range(d)]
        ad_a = ad_matrix(M.L, x)
        ad_a_star = adjoint_operator(M, ad_a)
        a_ads.append((i, ad_a, ad_a_star))
        comm = ad_a @ ad_a_star - ad_a_star @ ad_a
        if not comm.is_zero():
            cond_normal = False
            if witness is None:
                witness = comm

    direct = soliton_check_direct(M)
    if direct.is_soliton:
        lam, lam_source = direct.lambda_, "direct"
    elif sub_verdict.is_soliton:
        lam, lam_source = sub_verdict.lambda_, "nilsoliton"
    else:
        lam, lam_source = None, "none"

    cond_norm = True
    if lam is None or lam == 0:
        cond_norm = not a_ads  # vacuous only when the abelian part is empty
    else:
        for i, ad_a, ad_a_star in a_ads:
            sym = (ad_a + ad_a_star).scale(_HALF)
            target = -(sym @ sym).trace() / lam
            if M.G.data[i][i] != target:
                cond_norm = False
    checklist = {
        "nilsoliton": cond_nil,
        "a_abelian": cond_abelian,
        "ad_normal": cond_normal,
        "norm_condition": cond_norm,
    }
    ok = all(checklist.values())
    return SolitonVerdict(
        status="soliton" if ok else "not_soliton",
        lambda_=lam,
        D=direct.D if direct.is_soliton else None,
        checklist=checklist,
        witness=witness,
        lambda_source=lam_source,
    )
