"""Connection, curvature, and soliton certification."""

import random
from fractions import Fraction

import pytest
from oracles import (
    add,
    adjoint_operator,
    bracket,
    column,
    column_of,
    curvature_operator_sums,
    dense,
    expected_ad_b1r_star,
    expected_ad_h_sym,
    expected_killing_operator,
    expected_mean_curvature,
    TWO_ABELIAN,
    TWO_ABELIAN_SPLITTING,
    checklist_verdict,
    expected_normality_commutator,
    fraction_soliton_check_lauret,
    fraction_table,
    identity,
    is_zero,
    lauret_terms,
    mean_curvature_vector,
    nullspace,
    solve_exact,
    trace,
    two_abelian_gram,
)

from solvsoliton.family import (
    FamilyParams,
    build_delta,
    build_lie_algebra,
    family_splitting,
    metric_algebra,
)
from solvsoliton import lie_core, linalg
from solvsoliton.lie_core import (
    StructureConstants,
    ad_matrix,
    is_derivation,
    subalgebra,
    verify_splitting,
)
from solvsoliton.linalg import Matrix, inverse
from solvsoliton.metric_lie import (
    MetricLieAlgebra,
    connection_coeffs,
    ricci_bilinear,
    soliton_check_direct,
    soliton_check_lauret,
)

HALF = Fraction(1, 2)


def heis3_flat_metric():
    return MetricLieAlgebra(build_lie_algebra(1), identity(3))


def grid(ns=(1, 2, 3), rhos=(1, Fraction(5, 2)), cs=(0, Fraction(1, 2))):
    for n in ns:
        for rho in rhos:
            for c in cs:
                yield FamilyParams(n, Fraction(rho), Fraction(c))


class TestMetricValidation:
    # the inverse of G is where a Gram matrix is certified
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            MetricLieAlgebra(build_lie_algebra(1), Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not positive definite"):
            MetricLieAlgebra(build_lie_algebra(1), Matrix.diagonal([1, -1, 1]))

    def test_sets_the_inverse_gram_and_ricci_at_construction(self):
        M = metric_algebra(FamilyParams(3, Fraction(5, 2), Fraction(1, 3)))
        assert M.Ginv == inverse(M.G)
        assert M.ric == M.Ginv @ ricci_bilinear(M)


def gram_pairing(G, x: dict, k: int):
    """<x, e_k> for a sparse coordinate vector x."""
    return sum((v * G[r, k] for r, v in x.items()), Fraction(0))


def connection_columns(M):
    """The sparse columns of :func:`connection_coeffs` divided by their
    common denominator S."""
    gamma, S = connection_coeffs(M)
    assert all(type(x) is int for row in gamma for col in row for x in col.values())
    return [[{r: Fraction(x, S) for r, x in col.items()} for col in row] for row in gamma]


class TestConnection:
    def test_abelian_connection_vanishes(self):
        L = StructureConstants.from_triples(3, [])
        M = MetricLieAlgebra(L, Matrix.diagonal([2, 3, 5]))
        assert connection_columns(M) == [[{}] * 3] * 3

    def test_denominator_is_2_DG_DH_C(self):
        # G = diag(2/3, 1/5, 7), so D_G = 15 and G^{-1} = diag(3/2, 5, 1/7)
        # has D_H = 14; the structure constants 1/2 and 1/3 give C = 6.
        L = StructureConstants.from_triples(3, [(0, 1, 2, Fraction(1, 2)), (0, 2, 1, Fraction(1, 3))])
        M = MetricLieAlgebra(L, Matrix.diagonal([Fraction(2, 3), Fraction(1, 5), 7]))
        assert connection_coeffs(M)[1] == 2 * 15 * 14 * 6

    def test_heis3_koszul_by_hand(self):
        # [e1,e2] = e3 with the flat Gram: nabla_1 e2 = e3/2,
        # nabla_1 e3 = -e2/2, nabla_2 e3 = e1/2 and the rest follow by
        # torsion-freeness; frozen from the hand Koszul computation.
        M = heis3_flat_metric()
        g = connection_columns(M)
        assert g[0][1] == {2: HALF}
        assert g[0][2] == {1: -HALF}
        assert g[1][2] == {0: HALF}
        assert g[0][0] == {}
        assert g[1][0] == {2: -HALF}

    @pytest.mark.parametrize("p", list(grid()), ids=str)
    def test_metric_and_torsion_free(self, p):
        M = metric_algebra(p)
        L, G, d = M.L, M.G, M.dim
        gamma = connection_columns(M)
        sp = fraction_table(L)
        for i in range(d):
            for j in range(d):
                # metric: <nabla_i e_j, e_k> + <e_j, nabla_i e_k> = 0
                for k in range(d):
                    assert gram_pairing(G, gamma[i][j], k) + gram_pairing(
                        G, gamma[i][k], j
                    ) == 0
                # torsion-free: nabla_i e_j - nabla_j e_i = [e_i, e_j]
                torsion = {
                    r: gamma[i][j].get(r, 0) - gamma[j][i].get(r, 0)
                    for r in gamma[i][j].keys() | gamma[j][i].keys()
                }
                assert {r: v for r, v in torsion.items() if v} == dict(sp[i][j])


def dense_connection_oracle(M):
    """Gamma[i] with column j = nabla_{e_i} e_j, from dense d x d x d tables
    w[i][j][k] = <[e_i, e_j], e_k> and the Koszul right-hand sides."""
    L, G = M.L, dense(M.G)
    d = L.dim
    ginv = [[(k, v) for k, v in enumerate(row) if v] for row in dense(M.Ginv)]
    sp = fraction_table(L)
    w = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for m, v in sp[i][j]:
                row = G[m]
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
                rhs.append(HALF * (a - b + e) if a or b or e else a)
            col = []
            for row in ginv:
                t = Fraction(0)
                for k, v in row:
                    if rhs[k]:
                        t += v * rhs[k]
                col.append(t)
            cols.append(col)
        gammas.append(Matrix([[cols[j][r] for j in range(d)] for r in range(d)]))
    return gammas


def dense_ricci_oracle(M):
    """Ric(e_i, e_j) from the dense connection tables."""
    L = M.L
    d = L.dim
    gammas = [dense(g) for g in dense_connection_oracle(M)]
    sp = fraction_table(L)
    col = [
        [[(m, gammas[k][m][j]) for m in range(d) if gammas[k][m][j]] for j in range(d)]
        for k in range(d)
    ]
    trace_row = [Fraction(0)] * d
    for k in range(d):
        for m in range(d):
            if gammas[k][k][m]:
                trace_row[m] += gammas[k][k][m]
    out = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        gi = gammas[i]
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
                for m, v in sp[k][i]:
                    if gammas[m][k][j]:
                        term3 += v * gammas[m][k][j]
            out[i][j] = term1 - term2 - term3
    return Matrix(out)


def dense_oracle_cases():
    for p in grid(ns=range(1, 7), rhos=(1, Fraction(11, 13)), cs=(0, Fraction(9, 14))):
        M = metric_algebra(p)
        yield str(p), M
        n_idx = [i for i in range(M.dim) if i not in family_splitting(p.n)]
        sub = Matrix([[M.G[i, j] for j in n_idx] for i in n_idx])
        yield f"nil-{p}", MetricLieAlgebra(subalgebra(M.L, n_idx), sub)
    # Non-family algebras under non-diagonal Gram matrices, so that general
    # rows of G^{-1} enter the connection.
    half, third = Fraction(1, 2), Fraction(1, 3)
    off = Matrix([[2, half, 0], [half, 1, third], [0, third, 3]])
    for name, triples in (
        ("rot", [(0, 1, 2, 1), (0, 2, 1, -1)]),
        ("nonuni", [(0, 1, 1, 1), (0, 2, 1, 1), (0, 2, 2, 2)]),
        ("hyperbolic", [(0, 1, 1, 1), (0, 2, 2, 1)]),
    ):
        yield f"{name}-off", MetricLieAlgebra(StructureConstants.from_triples(3, triples), off)
    rng = random.Random(5)
    B = Matrix([[Fraction(rng.randint(-2, 2)) for _ in range(7)] for _ in range(7)])
    full = add(B.transpose() @ B, identity(7))
    yield "family-n2-full-gram", MetricLieAlgebra(build_lie_algebra(2), full)


class TestDenseConnectionOracle:
    @pytest.mark.parametrize(
        "M", [pytest.param(M, id=name) for name, M in dense_oracle_cases()]
    )
    def test_sparse_kernels_match_dense_oracle(self, M):
        d = M.dim
        dense = dense_connection_oracle(M)
        assert connection_columns(M) == [
            [{r: x for r, x in enumerate(column_of(dense[i], j)) if x} for j in range(d)]
            for i in range(d)
        ]
        assert ricci_bilinear(M) == dense_ricci_oracle(M)


class TestRicci:
    def test_heis3_flat_metric_eigenvalues(self):
        # hand value: ric = diag(-1/2, -1/2, +1/2)
        ric = heis3_flat_metric().ric
        assert ric == Matrix.diagonal([-HALF, -HALF, HALF])

    def test_heis3_quadratic_sum_route(self):
        # B = 0 = H for a nilpotent algebra, so the orthonormal-basis sums
        # must reproduce the Ricci endomorphism itself.
        M = heis3_flat_metric()
        assert curvature_operator_sums(M) == M.ric

    @pytest.mark.parametrize("p", list(grid()), ids=str)
    def test_gram_times_ric_is_symmetric(self, p):
        M = metric_algebra(p)
        assert (M.G @ M.ric).is_symmetric()
        assert ricci_bilinear(M).is_symmetric()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_hyperbolic_space_model(self, d):
        # [e0, ei] = ei with the flat Gram is the solvable model of
        # hyperbolic d-space: constant curvature, ric = -(d-1) Id, Einstein
        L = StructureConstants.from_triples(d, [(0, i, i, 1) for i in range(1, d)])
        M = MetricLieAlgebra(L, identity(d))
        assert M.ric == identity(d).scale(Fraction(-(d - 1)))
        v = soliton_check_direct(M)
        assert v["status"] == "soliton" and v["lambda"] == -(d - 1) and is_zero(v["D"])

    def test_family_n1_closed_form(self):
        p = FamilyParams(1, Fraction(1), Fraction(1))
        ric = metric_algebra(p).ric
        k = Fraction(4, 27)
        assert ric == Matrix.diagonal([-k, -k, k])

    def test_family_n2_c0_closed_form(self):
        p = FamilyParams(2, Fraction(1), Fraction(0))
        ric = metric_algebra(p).ric
        assert ric == Matrix.diagonal([-8, -8, -2, -2, -2, -2, 4])


class TestAdjointOperator:
    def test_symmetric_with_identity_gram(self):
        M = heis3_flat_metric()
        A = Matrix([[1, 2, 0], [2, 5, 1], [0, 1, 3]])
        assert adjoint_operator(M, A) == A

    def test_involution_randomized(self):
        rng = random.Random(11)
        L = build_lie_algebra(1)
        for _ in range(10):
            B = Matrix(
                [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            )
            G = add(B.transpose() @ B, identity(3))
            M = MetricLieAlgebra(L, G)
            A = Matrix(
                [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            )
            assert adjoint_operator(M, adjoint_operator(M, A)) == A

    def test_family_closed_form(self):
        p = FamilyParams(2, Fraction(1), Fraction(1))
        M = metric_algebra(p)
        ad_b = ad_matrix(M.L, [Fraction(1)] + [Fraction(0)] * 6)
        star = adjoint_operator(M, ad_b)
        assert star == expected_ad_b1r_star(p)
        assert star[1, 1] == Fraction(8, 3)


class TestMeanCurvature:
    def test_family_closed_form(self):
        p = FamilyParams(2, Fraction(1), Fraction(1))
        H = mean_curvature_vector(metric_algebra(p), family_splitting(2))
        assert H == expected_mean_curvature(p)
        assert H[0] == 1

    def test_family_n3_c0(self):
        p = FamilyParams(3, Fraction(2), Fraction(0))
        H = mean_curvature_vector(metric_algebra(p), family_splitting(3))
        assert H[0] == 4 and all(x == 0 for x in H[1:])

    def test_unimodular_is_zero(self):
        p = FamilyParams(1, Fraction(1), Fraction(1))
        H = mean_curvature_vector(metric_algebra(p), family_splitting(1))
        assert all(x == 0 for x in H)


class TestLauretTerms:
    def test_killing_operator_n2_c0(self):
        p = FamilyParams(2, Fraction(1), Fraction(0))
        _, b_op, _ = lauret_terms(metric_algebra(p), family_splitting(2))
        assert b_op == expected_killing_operator(p)
        assert b_op[0, 0] == 8

    def test_ad_h_sym_closed_form(self):
        p = FamilyParams(2, Fraction(1), Fraction(1))
        _, _, ad_h_s = lauret_terms(metric_algebra(p), family_splitting(2))
        assert ad_h_s == expected_ad_h_sym(p)
        assert ad_h_s[3, 5] == Fraction(-2, 3)

    def test_heis3_r_equals_ric(self):
        p = FamilyParams(1, Fraction(1), Fraction(1))
        M = metric_algebra(p)
        r_term, b_op, ad_h_s = lauret_terms(M, family_splitting(1))
        assert is_zero(b_op) and is_zero(ad_h_s)
        assert r_term == M.ric

    @pytest.mark.parametrize("p", list(grid()), ids=str)
    def test_decomposition_identity(self, p):
        # R, B and sym(ad H) are built without reading ric
        M = metric_algebra(p)
        r_term, b_op, ad_h_s = lauret_terms(M, family_splitting(p.n))
        assert M.ric == add(r_term, b_op.scale(-HALF), ad_h_s.scale(-1))

    @pytest.mark.parametrize("a12", [Fraction(0), Fraction(1, 3)], ids=str)
    def test_decomposition_identity_two_abelian(self, a12):
        # non-diagonal Gram and a two-dimensional abelian part
        M = MetricLieAlgebra(TWO_ABELIAN, two_abelian_gram(a12))
        r_term, b_op, ad_h_s = lauret_terms(M, TWO_ABELIAN_SPLITTING)
        assert M.ric == add(r_term, b_op.scale(-HALF), ad_h_s.scale(-1))

    @pytest.mark.parametrize(
        "p",
        [FamilyParams(2, Fraction(1), Fraction(1)), FamilyParams(3, Fraction(11, 13), Fraction(9, 14))],
        ids=str,
    )
    def test_bumped_ricci_entry_fails_the_identity(self, p):
        M = metric_algebra(p)
        r_term, b_op, ad_h_s = lauret_terms(M, family_splitting(p.n))
        rebuilt = add(r_term, b_op.scale(-HALF), ad_h_s.scale(-1))
        bumped = dense(M.ric)
        bumped[1][M.dim - 1] += Fraction(1, 7)
        assert M.ric == rebuilt
        assert Matrix(bumped) != rebuilt


class TestSolitonDirect:
    @pytest.mark.parametrize(
        "rho,c",
        [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(1, 2))],
    )
    def test_n1_nilsoliton(self, rho, c):
        v = soliton_check_direct(metric_algebra(FamilyParams(1, rho, c)))
        k = 2 * rho**2 * (rho + c) / (2 * c + rho) ** 3
        assert v["status"] == "soliton"
        assert v["lambda"] == -3 * k
        assert v["D"] == build_delta(1).scale(2 * k)

    def test_n3_c0_solvsoliton(self):
        v = soliton_check_direct(metric_algebra(FamilyParams(3, Fraction(1), Fraction(0))))
        assert v["status"] == "soliton"
        assert v["lambda"] == -10
        assert v["D"] == build_delta(3).scale(8)

    def test_n2_c1_not_soliton(self):
        v = soliton_check_direct(metric_algebra(FamilyParams(2, Fraction(1), Fraction(1))))
        assert v == {
            "status": "not_soliton",
            "lambda": None,
            "lambda_source": None,
            "D": None,
            "checklist": None,
            "witness": None,
        }

    @pytest.mark.parametrize("c", [Fraction(0), Fraction(9, 14)], ids=str)
    def test_verdict_is_exact_data(self, c):
        # a soliton holds lambda as a Fraction and D = ric - lambda*Id
        M = metric_algebra(FamilyParams(1, Fraction(11, 13), c))
        v = soliton_check_direct(M)
        assert list(v) == ["status", "lambda", "lambda_source", "D", "checklist", "witness"]
        assert type(v["lambda"]) is Fraction
        assert v["D"] == add(M.ric, identity(3).scale(-v["lambda"]))
        assert (v["status"], v["lambda_source"], v["checklist"], v["witness"]) == (
            "soliton",
            "direct",
            None,
            None,
        )

    def test_returned_derivation_is_consistent(self):
        M = metric_algebra(FamilyParams(2, Fraction(1), Fraction(0)))
        v = soliton_check_direct(M)
        ok, _ = is_derivation(M.L, v["D"])
        assert ok
        assert v["D"] == add(M.ric, identity(7).scale(-v["lambda"]))

    def test_no_row_reduction_once_ricci_is_known(self, monkeypatch):
        M = metric_algebra(FamilyParams(3, Fraction(7, 5), Fraction(9, 14)))
        calls = []

        def counting_rref(rows, _rref=linalg.rref):
            calls.append(1)
            return _rref(rows)

        monkeypatch.setattr(linalg, "rref", counting_rref)
        monkeypatch.setattr(lie_core, "rref", counting_rref)
        soliton_check_direct(M)
        assert calls == []

    def test_abelian_algebra_flat_soliton(self):
        L = StructureConstants.from_triples(3, [])
        v = soliton_check_direct(MetricLieAlgebra(L, Matrix.diagonal([1, 2, 3])))
        assert v["status"] == "soliton" and v["lambda"] == 0 and is_zero(v["D"])



def dense_derivation_basis(L):
    """Der(L) as flattened matrices (index r*d + s), from the dense Leibniz
    matrix: row (i < j, k), column (r, s) holds component k of
    E[e_i, e_j] - [E e_i, e_j] - [e_i, E e_j] for the unit matrix E = E_rs."""
    d = L.dim
    basis = [[Fraction(int(r == i)) for r in range(d)] for i in range(d)]
    br = [[bracket(L, x, y) for y in basis] for x in basis]
    rows = [
        [
            (br[i][j][s] if r == k else 0)
            - (br[r][j][k] if s == i else 0)
            - (br[i][r][k] if s == j else 0)
            for r in range(d)
            for s in range(d)
        ]
        for i in range(d)
        for j in range(i + 1, d)
        for k in range(d)
    ]
    return [[x for (x,) in dense(v)] for v in nullspace(Matrix(rows))]


def dense_soliton_oracle(M):
    """(status, lambda, D) from solving ric = lambda*Id + sum_j x_j D_j over
    a basis of Der(L).  With Id itself a derivation the lambda column is
    free and the solve sets it to 0."""
    d = M.dim
    ric = M.ric
    ders = dense_derivation_basis(M.L)
    ident = identity(d)
    A = Matrix(
        [[D[r * d + s] for D in ders] + [ident[r, s]] for r in range(d) for s in range(d)]
    )
    sol = solve_exact(A, column([x for row in dense(ric) for x in row]))
    if sol is None:
        return "not_soliton", None, None
    lam = sol[-1, 0]
    return "soliton", lam, add(ric, ident.scale(-lam))


def oracle_cases():
    abelian = StructureConstants.from_triples(3, [])
    heis = build_lie_algebra(1)
    # e(2): [e0, e1] = e2, [e0, e2] = -e1, ad e0 a rotation; flat at Id
    rot = StructureConstants.from_triples(3, [(0, 1, 2, 1), (0, 2, 1, -1)])
    # [e0, e1] = e1, [e0, e2] = e1 + 2 e2: tr ad e0 = 3, not unimodular
    nonuni = StructureConstants.from_triples(3, [(0, 1, 1, 1), (0, 2, 1, 1), (0, 2, 2, 2)])
    # [e0, ei] = ei: every left-invariant metric is hyperbolic, so Einstein
    hyp = StructureConstants.from_triples(3, [(0, 1, 1, 1), (0, 2, 2, 1)])
    half, third = Fraction(1, 2), Fraction(1, 3)
    off = Matrix([[2, half, 0], [half, 1, third], [0, third, 3]])
    yield "abelian", MetricLieAlgebra(abelian, Matrix.diagonal([1, 2, 3]))
    yield "heis3-flat", MetricLieAlgebra(heis, identity(3))
    yield "heis3-off", MetricLieAlgebra(heis, off)
    yield "rot-diag", MetricLieAlgebra(rot, Matrix.diagonal([1, 1, 2]))
    yield "rot-off", MetricLieAlgebra(rot, off)
    yield "nonuni-diag", MetricLieAlgebra(nonuni, Matrix.diagonal([1, 2, 3]))
    yield "nonuni-off", MetricLieAlgebra(nonuni, off)
    yield "hyperbolic-off", MetricLieAlgebra(hyp, off)
    for n in (1, 2, 3, 4):
        for c in (0, 1):
            p = FamilyParams(n, Fraction(1), Fraction(c))
            yield f"family-n{n}-c{c}", metric_algebra(p)


class TestSolitonDenseOracle:
    def test_oracle_derivation_dimensions(self):
        assert len(dense_derivation_basis(StructureConstants.from_triples(3, []))) == 9
        assert len(dense_derivation_basis(build_lie_algebra(1))) == 6

    @pytest.mark.parametrize("M", [pytest.param(M, id=name) for name, M in oracle_cases()])
    def test_direct_matches_oracle(self, M):
        v = soliton_check_direct(M)
        assert (v["status"], v["lambda"], v["D"]) == dense_soliton_oracle(M)


class TestSolitonLauret:
    def test_n2_c0_all_conditions(self):
        M = metric_algebra(FamilyParams(2, Fraction(1), Fraction(0)))
        v = checklist_verdict(M, family_splitting(2))
        assert v["status"] == "soliton"
        assert v["checklist"] == {
            "nilsoliton": True,
            "a_abelian": True,
            "ad_normal": True,
            "norm_condition": True,
        }

    def test_n2_c1_normality_fails_with_witness(self):
        p = FamilyParams(2, Fraction(1), Fraction(1))
        v = checklist_verdict(metric_algebra(p), family_splitting(2))
        assert v["status"] == "not_soliton"
        assert v["checklist"]["ad_normal"] is False
        witness = v["witness"]
        assert witness == expected_normality_commutator(p)
        assert witness[1, 6] == Fraction(-2, 3)
        assert witness[6, 1] == Fraction(-32, 3)
        base = 2  # (e0, f0) block start at n=2
        assert witness[base, base] == Fraction(8, 3)
        assert witness[base + 2, base + 2] == Fraction(-8, 3)

    def test_heis3_reduces_to_nilsoliton_check(self):
        v = checklist_verdict(
            metric_algebra(FamilyParams(1, Fraction(1), Fraction(1))),
            family_splitting(1),
        )
        assert v["status"] == "soliton"
        assert v["checklist"]["a_abelian"] and v["checklist"]["ad_normal"]

    @pytest.mark.parametrize("p", list(grid()), ids=str)
    def test_agreement_with_direct(self, p):
        M = metric_algebra(p)
        a = family_splitting(p.n)
        direct = soliton_check_direct(M)
        checklist = soliton_check_lauret(M, a, verify_splitting(M.L, a, M.G), direct)
        assert direct["status"] == checklist["status"]

    @pytest.mark.parametrize(
        "a12, status, lam",
        [(Fraction(0), "not_soliton", None), (Fraction(2, 3), "soliton", Fraction(-3, 2))],
        ids=["orthogonal", "a12=2/3"],
    )
    def test_norm_condition_on_every_pair_of_the_abelian_part(self, a12, status, lam):
        # <A1, A2> must be -tr(S1 S2)/lambda = 2/3 (see two_abelian_gram)
        M = MetricLieAlgebra(TWO_ABELIAN, two_abelian_gram(a12))
        a = TWO_ABELIAN_SPLITTING
        direct = soliton_check_direct(M)
        checklist = soliton_check_lauret(M, a, verify_splitting(M.L, a, M.G), direct)
        assert (direct["status"], direct["lambda"]) == (status, lam)
        assert checklist["status"] == status
        assert checklist["lambda"] == Fraction(-3, 2)
        assert checklist["checklist"] == {
            "nilsoliton": True,
            "a_abelian": True,
            "ad_normal": True,
            "norm_condition": status == "soliton",
        }
        assert fraction_soliton_check_lauret(M, a)["checklist"] == checklist["checklist"]

    @pytest.mark.parametrize("c", [Fraction(0), Fraction(1)])
    def test_reports_the_direct_verdict_it_is_given(self, c):
        M = metric_algebra(FamilyParams(2, Fraction(3, 2), c))
        a = family_splitting(2)
        direct = soliton_check_direct(M)
        v = soliton_check_lauret(M, a, verify_splitting(M.L, a, M.G), direct)
        assert v["D"] is direct["D"]
        if direct["status"] == "soliton":
            assert (v["lambda"], v["lambda_source"]) == (direct["lambda"], "direct")
        else:
            assert (v["lambda"], v["lambda_source"]) == (None, "none")

    def test_lambda_falls_back_to_the_nilsoliton(self):
        # Handed a not_soliton direct verdict, the checklist takes lambda from
        # the nilradical's own direct verdict.  Here that lambda equals the
        # direct one, -8, so the checklist still passes.
        M = metric_algebra(FamilyParams(2, Fraction(1), Fraction(0)))
        a = family_splitting(2)
        n_idx = list(range(1, 7))
        nil_gram = Matrix([[M.G[i, j] for j in n_idx] for i in n_idx])
        nil = soliton_check_direct(MetricLieAlgebra(subalgebra(M.L, n_idx), nil_gram))
        report = verify_splitting(M.L, a, M.G)
        not_soliton = dict.fromkeys(["lambda", "lambda_source", "D", "checklist", "witness"])
        v = soliton_check_lauret(M, a, report, {"status": "not_soliton", **not_soliton})
        assert nil["status"] == "soliton"
        assert nil["lambda"] == soliton_check_direct(M)["lambda"] == -8
        assert (v["lambda"], v["lambda_source"], v["D"]) == (nil["lambda"], "nilsoliton", None)
        assert v["status"] == "soliton"

    def test_norm_condition_value_n2_c0(self):
        # <B1R, B1R> = 1 and -(1/lambda) tr(sym^2) = (2n+4)/(2(n+2)) = 1
        M = metric_algebra(FamilyParams(2, Fraction(1), Fraction(0)))
        ad_b = ad_matrix(M.L, [Fraction(1)] + [Fraction(0)] * 6)
        sym = add(ad_b, adjoint_operator(M, ad_b)).scale(HALF)
        assert M.G[0, 0] == 1
        assert -trace(sym @ sym) / Fraction(-8) == 1


class TestScalingCovariance:
    @pytest.mark.parametrize(
        "p",
        [
            FamilyParams(1, Fraction(1), Fraction(1)),
            FamilyParams(2, Fraction(1), Fraction(0)),
            FamilyParams(2, Fraction(1), Fraction(1)),
            FamilyParams(3, Fraction(2), Fraction(1, 2)),
        ],
        ids=str,
    )
    def test_status_invariant_lambda_scales(self, p):
        rng = random.Random(2024)
        M = metric_algebra(p)
        base = soliton_check_direct(M)
        for _ in range(3):
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled = MetricLieAlgebra(M.L, M.G.scale(t))
            assert scaled.ric == M.ric.scale(1 / t)
            v = soliton_check_direct(scaled)
            assert v["status"] == base["status"]
            if base["status"] == "soliton":
                assert v["lambda"] == base["lambda"] / t
