"""Metric Lie algebras: connection, curvature, and soliton certification.

Two independent decision procedures are provided for the algebraic Ricci
soliton equation ric = lambda*Id + D:

* a direct exact test of whether ric - lambda*Id passes the Leibniz rule
  for the one lambda the Leibniz defects allow, and
* the checklist route through the nilpotent part (restricted nilsoliton,
  abelian complement, normal adjoints, norm condition).

The Ricci endomorphism itself comes from the Koszul formula for
left-invariant metrics, summed over the nonzero structure constants only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, takewhile

from .lie_core import (
    StructureConstants,
    _basis_vector,
    _leibniz_defects,
    ad_matrix,
    is_derivation,
    subalgebra,
)
from .linalg import Matrix, inverse

__all__ = [
    "MetricLieAlgebra",
    "connection_coeffs",
    "ricci_bilinear",
    "soliton_check_direct",
    "soliton_check_lauret",
]

class MetricLieAlgebra:
    """Structure constants plus a symmetric positive-definite Gram matrix,
    with what every curvature computation reads set once at construction:
    ``Ginv``, the inverse Gram matrix, and ``ric``, the Ricci endomorphism
    G^{-1} @ :func:`ricci_bilinear`, multiplied in integers.  The one
    elimination of :func:`~solvsoliton.linalg.inverse` certifies G and
    inverts it, and raises ValueError on a G that is not symmetric or not
    positive definite."""

    __slots__ = ("L", "G", "Ginv", "ric")

    def __init__(self, L: StructureConstants, G: Matrix):
        if G.rows != L.dim or G.cols != L.dim:
            raise ValueError("Gram matrix size does not match the algebra")
        self.L = L
        self.G = G
        self.Ginv = inverse(G)
        self.ric = self.Ginv @ ricci_bilinear(self)

    @property
    def dim(self) -> int:
        return self.L.dim


def connection_coeffs(M: MetricLieAlgebra) -> tuple:
    """Levi-Civita connection as integer sparse columns over one denominator:
    (gamma, S), where gamma[i][j] = {r: value} holds the nonzero coordinates
    of S * nabla_{e_i} e_j.

    Built from the left-invariant Koszul formula
    2<nabla_x y, z> = <[x,y],z> - <[y,z],x> + <[z,x],y>
    with w_ij(k) = <[e_i, e_j], e_k> kept only for pairs with a nonzero
    bracket.  By antisymmetry both of the last two terms are read from one
    index map, by_value[(a, c)] = {b: w_ab(c)}:
    w_jk(i) = by_value[(j, i)][k] and w_ki(j) = -by_value[(i, j)][k].
    G, G^{-1} and the structure constants enter as integers over their
    denominators D_G, D_H and C, so S = 2 D_G D_H C and every sum is over
    Python ints.
    """
    L = M.L
    d = L.dim
    sp, C = L.table, L.den
    # Integer rows of the symmetric G and G^{-1}.
    g_rows, DG = M.G.table, M.G.den
    ginv, DH = M.Ginv.table, M.Ginv.den
    w: dict = {}
    by_value: dict = {}
    for i in range(d):
        for j in range(d):
            if not sp[i][j]:
                continue
            wij: dict = {}
            for m, v in sp[i][j]:
                for k, g in g_rows[m].items():
                    wij[k] = wij.get(k, 0) + v * g
            wij = w[i, j] = {k: x for k, x in wij.items() if x}
            for k, x in wij.items():
                by_value.setdefault((i, k), {})[j] = x
    gamma = [[{} for _ in range(d)] for _ in range(d)]
    for i, j in w.keys() | by_value.keys() | {(j, i) for i, j in by_value}:
        # rhs[k] = 2 C D_G <nabla_{e_i} e_j, e_k>
        rhs = dict(w.get((i, j), ()))
        for part in (by_value.get((j, i), {}), by_value.get((i, j), {})):
            for k, x in part.items():
                rhs[k] = rhs.get(k, 0) - x
        col: dict = {}
        for k, x in rhs.items():
            if x:
                for r, g in ginv[k].items():
                    col[r] = col.get(r, 0) + g * x
        gamma[i][j] = {r: x for r, x in col.items() if x}
    return gamma, 2 * DG * DH * C


def ricci_bilinear(M: MetricLieAlgebra) -> Matrix:
    """Gram matrix of the Ricci form, Ric(e_i, e_j) = tr(v -> R(v, e_i) e_j).

    With Gamma_ij^m the coordinates of nabla_{e_i} e_j and c_ki^m the
    structure constants,
    Ric_ij = sum_m t_m Gamma_ij^m - sum_{k,m} Gamma_im^k Gamma_kj^m
             - sum_{k,m} c_ki^m Gamma_mj^k,  t_m = sum_k Gamma_km^k,
    each sum taken over the nonzero entries of the sparse columns only.
    The sums run in integers, on S Gamma and C c (see
    :func:`connection_coeffs`), as the integer rows of S^2 Ric over S^2.
    """
    L = M.L
    d = L.dim
    gamma, S = connection_coeffs(M)
    sp, C = L.table, L.den
    f = S // C
    # by_row[k][m] = {j: Gamma_kj^m}
    by_row = [[{} for _ in range(d)] for _ in range(d)]
    trace: dict = {}
    for k in range(d):
        for j, col in enumerate(gamma[k]):
            for m, x in col.items():
                by_row[k][m][j] = x
        for m in range(d):
            x = gamma[k][m].get(k)
            if x:
                trace[m] = trace.get(m, 0) + x
    out = []
    for i in range(d):
        row: dict = {}
        for j, col in enumerate(gamma[i]):
            for m, x in col.items():
                t = trace.get(m)
                if t:
                    row[j] = row.get(j, 0) + t * x
        for m, col in enumerate(gamma[i]):
            for k, x in col.items():
                for j, y in by_row[k][m].items():
                    row[j] = row.get(j, 0) - x * y
        for k in range(d):
            for m, v in sp[k][i]:
                v *= f
                for j, y in by_row[m][k].items():
                    row[j] = row.get(j, 0) - v * y
        out.append({j: v for j, v in row.items() if v})
    return Matrix.from_table(out, S * S, d)


def soliton_check_direct(M: MetricLieAlgebra) -> dict:
    """Exact test of ric = lambda*Id + D with D a derivation.  The verdict
    {"status", "lambda", "lambda_source", "D", "checklist", "witness"} holds
    "soliton", the ``Fraction`` lambda, "direct" and the ``Matrix`` D, or
    "not_soliton" and None; the checklist and witness are None.

    The Leibniz defect X[e_i,e_j] - [X e_i,e_j] - [e_i,X e_j] is linear in
    X, and that of Id is minus the bracket.  So ric - lambda*Id is a
    derivation exactly when the defects of ric are lambda times those of
    Id.  On a non-abelian algebra lambda is read off at the first nonzero
    defect entry of Id; on an abelian one every endomorphism is a
    derivation and lambda is taken to be 0.  D = ric - lambda*Id is then
    put through the Leibniz test on its integer rows.  No basis of Der(L)
    is built.
    """
    L = M.L
    d = L.dim
    R, DR = M.ric.table, M.ric.den
    lam = Fraction(0)
    ident = [{r: 1} for r in range(d)]
    first = next(_leibniz_defects(L, ident), None)
    if first is not None:
        # lambda = Lambda(ric) / Lambda(Id) at Id's first nonzero defect
        # entry; ric's defects also carry its denominator DR.
        pair, id_row = first
        k = min(id_row)
        upto = takewhile(lambda entry: entry[0] <= pair, _leibniz_defects(L, R))
        lam = Fraction(dict(upto).get(pair, {}).get(k, 0), id_row[k] * DR)
    D = M.ric - Matrix.diagonal([lam] * d)
    if not is_derivation(L, D)[0]:
        lam = D = None
    return {
        "status": "not_soliton" if D is None else "soliton",
        "lambda": lam,
        "lambda_source": None if D is None else "direct",
        "D": D,
        "checklist": None,
        "witness": None,
    }


def _restrict_gram(G: Matrix, indices) -> Matrix:
    """G restricted to the basis vectors ``indices``, its integer rows
    renumbered by position in ``indices``."""
    pos = {g: i for i, g in enumerate(indices)}
    table = [{pos[c]: v for c, v in G.table[g].items() if c in pos} for g in indices]
    return Matrix.from_table(table, G.den, len(table))


def soliton_check_lauret(M: MetricLieAlgebra, a, report: dict, direct: dict) -> dict:
    """Checklist route: nilsoliton part, abelian complement, normal adjoints,
    and the norm condition <A, B> = -tr(S(ad A) S(ad B))/lambda for every
    pair A, B of basis vectors of the abelian part, S the symmetric part.

    ``a`` holds the abelian part's basis indices, the nilradical the rest;
    ``report`` is :func:`~solvsoliton.lie_core.verify_splitting` of ``a``.
    When it fails, no nilradical is built and the verdict is "not_checked"
    with every other value None.  ``direct`` is the verdict of
    :func:`soliton_check_direct` on ``M``: when it is a soliton, its lambda
    and D are the ones the norm condition uses and the verdict reports;
    otherwise lambda is the nilradical's.  The verdict's checklist keys are
    "nilsoliton", "a_abelian", "ad_normal", "norm_condition"; the witness is
    the first nonzero commutator [ad A, ad A*], with ad A* = G^{-1} (ad A)^T G
    the metric adjoint.
    """
    if not all(report.values()):
        keys = ("lambda", "lambda_source", "D", "checklist", "witness")
        return {"status": "not_checked", **dict.fromkeys(keys)}
    d = M.dim
    n_idx = [i for i in range(d) if i not in a]
    sub_L = subalgebra(M.L, n_idx)
    sub_M = MetricLieAlgebra(sub_L, _restrict_gram(M.G, n_idx))
    sub_verdict = soliton_check_direct(sub_M)
    cond_nil = sub_verdict["status"] == "soliton"
    cond_abelian = report["a_is_abelian"]
    witness = None

    G, Ginv = M.G, M.Ginv
    cond_normal = True
    syms = []
    for i in a:
        ad = ad_matrix(M.L, _basis_vector(d, i))
        star = Ginv @ ad.transpose() @ G
        comm = ad @ star - star @ ad
        if any(comm.table):
            cond_normal = False
            if witness is None:
                witness = comm
        syms.append((i, ad + star))

    if direct["status"] == "soliton":
        lam, lam_source = direct["lambda"], "direct"
    elif cond_nil:
        lam, lam_source = sub_verdict["lambda"], "nilsoliton"
    else:
        lam, lam_source = None, "none"

    if lam is None or lam == 0:
        cond_norm = not syms  # vacuous only when the abelian part is empty
    else:
        # sym = 2 S(ad A), so <A_i, A_j> = -tr(S_i S_j)/lambda reads
        # 4 lambda G_ij = -tr(sym_i sym_j); both sides are symmetric in i, j.
        cond_norm = all(
            4 * lam * G[i, j] == -(sym_i @ sym_j).trace()
            for (i, sym_i), (j, sym_j) in combinations_with_replacement(syms, 2)
        )
    checklist = {
        "nilsoliton": cond_nil,
        "a_abelian": cond_abelian,
        "ad_normal": cond_normal,
        "norm_condition": cond_norm,
    }
    return {
        "status": "soliton" if all(checklist.values()) else "not_soliton",
        "lambda": lam,
        "lambda_source": lam_source,
        "D": direct["D"],
        "checklist": checklist,
        "witness": witness,
    }
