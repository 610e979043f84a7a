"""Family constructions: brackets, Gram matrices, embeddings, closed forms."""

from fractions import Fraction

import pytest
from oracles import bracket, column_of, dense, expected_closed_forms, times_sqrt, trace

from solvsoliton import family
from solvsoliton.family import (
    FamilyParams,
    build_delta,
    build_embedding,
    build_gram,
    build_lie_algebra,
    classify_status,
    coordinate_gram_values,
    coordinate_names,
    expected_ric_matrix,
    metric_algebra,
    predicted_status,
    ricci_eigenvalue_formulas,
)
from solvsoliton.lie_core import is_derivation
from solvsoliton.linalg import Matrix, is_positive_definite


def basis_vec(d, i):
    return [Fraction(int(r == i)) for r in range(d)]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FamilyParams(0, Fraction(1), Fraction(0))
        with pytest.raises(ValueError):
            FamilyParams(2, Fraction(0), Fraction(0))
        with pytest.raises(ValueError):
            FamilyParams(2, Fraction(1), Fraction(-1))

    def test_dim(self):
        assert FamilyParams(3, Fraction(1), Fraction(0)).dim == 11

    def test_value_semantics(self):
        p = FamilyParams(2, 1, "1/2")
        assert (p.rho, p.c) == (Fraction(1), Fraction(1, 2))
        q = FamilyParams(2, Fraction(1), Fraction(1, 2))
        assert p == q and hash(p) == hash(q)
        assert p != FamilyParams(3, Fraction(1), Fraction(1, 2))
        assert len({p, q, FamilyParams(2, Fraction(1), Fraction(0))}) == 2


class TestRealFromComplex:
    def test_b1r_on_e0(self):
        # [B1R, E0] = -E1 and [B1R, E1] = -E0: a real coefficient gives
        # [X, e_k] = re e_j and [X, f_k] = re f_j, and nothing else
        b1r, e0, f0, e1, f1 = 0, 2, 3, 4, 5
        out = [t for t in family._mixed_triples(2) if t[0] == b1r]
        assert sorted(out) == [
            (b1r, e0, e1, -1), (b1r, f0, f1, -1), (b1r, e1, e0, -1), (b1r, f1, f0, -1),
        ]

    def test_imaginary_coefficient(self):
        # [B2I, E0] = (i/2) E2 expands to [B2I, e0] = f2/2, [B2I, f0] = -e2/2
        L = build_lie_algebra(3)
        b2i, e0, f0, e2, f2 = 3, 4, 5, 8, 9
        assert bracket(L, basis_vec(11, b2i), basis_vec(11, e0)) == [
            Fraction(1, 2) if r == f2 else 0 for r in range(11)
        ]
        assert bracket(L, basis_vec(11, b2i), basis_vec(11, f0)) == [
            Fraction(-1, 2) if r == e2 else 0 for r in range(11)
        ]


class TestBuildLieAlgebra:
    def test_n1_is_heisenberg(self):
        L = build_lie_algebra(1)
        assert L.dim == 3
        assert L.triples() == [(0, 1, 2, Fraction(1))]

    def test_n2_mixed_brackets(self):
        # [B1R, e0] = -e1, [B1R, f0] = -f1, [B1R, e1] = -e0, [B1R, f1] = -f0
        L = build_lie_algebra(2)
        b1r = basis_vec(7, 0)
        assert bracket(L, b1r, basis_vec(7, 2)) == [0, 0, 0, 0, -1, 0, 0]
        assert bracket(L, b1r, basis_vec(7, 3)) == [0, 0, 0, 0, 0, -1, 0]
        assert bracket(L, b1r, basis_vec(7, 4)) == [0, 0, -1, 0, 0, 0, 0]
        assert bracket(L, b1r, basis_vec(7, 5)) == [0, 0, 0, -1, 0, 0, 0]

    def test_n2_b1i_brackets(self):
        # [B1I, e0] = f1 - f0 and [B1I, f0] = e0 - e1
        L = build_lie_algebra(2)
        b1i = basis_vec(7, 1)
        assert bracket(L, b1i, basis_vec(7, 2)) == [0, 0, 0, -1, 0, 1, 0]
        assert bracket(L, b1i, basis_vec(7, 3)) == [0, 0, 1, 0, -1, 0, 0]

    def test_solvable_part_relations(self):
        # [B1R, B1I] = 2 B1I; [B1R, BaR] = BaR; [BaR, BaI] = B1I/2
        L = build_lie_algebra(3)
        assert bracket(L, basis_vec(11, 0), basis_vec(11, 1)) == [
            0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ]
        assert bracket(L, basis_vec(11, 0), basis_vec(11, 2)) == basis_vec(11, 2)
        assert bracket(L, basis_vec(11, 0), basis_vec(11, 3)) == basis_vec(11, 3)
        out = bracket(L, basis_vec(11, 2), basis_vec(11, 3))
        assert out[1] == Fraction(1, 2) and sum(1 for x in out if x) == 1


class TestBuildGram:
    def test_n1_c0(self):
        g = build_gram(FamilyParams(1, Fraction(1), Fraction(0)))
        assert g == Matrix.diagonal([Fraction(1, 4)] * 3)

    def test_n1_general(self):
        g = build_gram(FamilyParams(1, Fraction(1), Fraction(1)))
        assert g == Matrix.diagonal([Fraction(3, 4), Fraction(3, 4), Fraction(1, 6)])

    def test_n2_c1_entries(self):
        g = build_gram(FamilyParams(2, Fraction(1), Fraction(1)))
        assert g[1, 1] == Fraction(8, 3)
        assert g[1, 6] == Fraction(-1, 3)
        assert g[6, 1] == Fraction(-1, 3)
        assert g[0, 0] == 2

    def test_n2_c0_diagonal(self):
        g = build_gram(FamilyParams(2, Fraction(1), Fraction(0)))
        assert g == Matrix.diagonal(
            [1, 1, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)]
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_positive_definite(self, n):
        g = build_gram(FamilyParams(n, Fraction(5, 2), Fraction(3)))
        assert g.is_symmetric() and is_positive_definite(g)


class TestDelta:
    def test_n1(self):
        assert build_delta(1) == Matrix.diagonal([1, 1, 2])

    def test_n2(self):
        assert build_delta(2) == Matrix.diagonal([0, 0, 1, 1, 1, 1, 2])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_leibniz(self, n):
        ok, _ = is_derivation(build_lie_algebra(n), build_delta(n))
        assert ok


class TestEmbedding:
    def test_z_column(self):
        p = FamilyParams(2, Fraction(1), Fraction(1))
        P = build_embedding(p, build_gram(p))
        col = column_of(P, 6)
        assert col[coordinate_names(2).index("phi")] == 1
        assert sum(1 for x in col if x) == 1

    def test_b1i_column_carries_deformation(self):
        p = FamilyParams(2, Fraction(1), Fraction(1))
        P = build_embedding(p, build_gram(p))
        col = column_of(P, 1)
        assert col[coordinate_names(2).index("t1")] == 2
        assert col[coordinate_names(2).index("phi")] == -2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_heisenberg_columns_are_halves_in_the_rescaled_frame(self, n):
        # e_k, f_k = +-(1/sqrt(2)) d_zeta = +-(1/2) (sqrt(2) d_zeta)
        p = FamilyParams(n, Fraction(3, 2), Fraction(1, 3))
        P = build_embedding(p, build_gram(p))
        row = {name: i for i, name in enumerate(coordinate_names(n))}
        e0 = 0 if n == 1 else 2 * n - 2  # column of e_0; f_k follows e_k
        half = Fraction(1, 2)
        for k in range(n):
            # [e_0, f_0] = Z but [e_k, f_k] = -Z for k >= 1
            expected = {
                (row[f"zt{k}"], e0 + 2 * k): half,
                (row[f"z{k}"], e0 + 2 * k + 1): half if k == 0 else -half,
            }
            for (i, j), value in expected.items():
                assert P[i, j] == value
                assert sum(1 for x in dense(P)[i] if x) == 1

    @pytest.mark.parametrize(
        "p",
        [
            FamilyParams(1, Fraction(1), Fraction(1)),
            FamilyParams(2, Fraction(1), Fraction(0)),
            FamilyParams(2, Fraction(3, 2), Fraction(2)),
            FamilyParams(3, Fraction(5, 2), Fraction(1, 2)),
        ],
        ids=str,
    )
    def test_gram_consistency_built_in(self, p):
        # build_embedding raises if P^T G_coord P != G_family
        P = build_embedding(p, build_gram(p))
        assert P.rows == p.dim
        wrong = build_gram(FamilyParams(p.n, p.rho + 1, p.c))
        with pytest.raises(AssertionError):
            build_embedding(p, wrong)

    def test_c0_no_mixing(self):
        p = FamilyParams(2, Fraction(1), Fraction(0))
        P = build_embedding(p, build_gram(p))
        g = Matrix.diagonal(coordinate_gram_values(p))
        product = P.transpose() @ g @ P
        for i in range(7):
            for j in range(7):
                if i != j:
                    assert product[i, j] == 0

    def test_coordinate_names(self):
        assert coordinate_names(2) == ["b1", "t1", "phi", "zt0", "z0", "zt1", "z1"]
        assert coordinate_names(1) == ["phi", "zt0", "z0"]


class TestClosedForms:
    def test_c0_values_any_n(self):
        for n in (2, 3, 5):
            forms = expected_closed_forms(FamilyParams(n, Fraction(2), Fraction(0)))
            assert forms.r == (-2 * (n + 2), 2 * n, -2, -2)
            assert forms.sigma == (0, 2, 1, 1)

    def test_n1_r2_equals_minus_r3(self):
        forms = expected_closed_forms(FamilyParams(1, Fraction(1), Fraction(1)))
        assert forms.r[0] is None and forms.r[3] is None
        assert forms.r[1] == Fraction(4, 27)
        assert forms.r[1] == -forms.r[2]

    def test_sigma_n2_c1(self):
        forms = expected_closed_forms(FamilyParams(2, Fraction(1), Fraction(1)))
        r = Fraction(2, 3)
        assert (forms.sigma[0], forms.q) == times_sqrt(Fraction(1, 2), r)
        assert (forms.sigma[3], forms.q) == times_sqrt(1, r)
        assert (forms.tr_shape, forms.q) == times_sqrt(Fraction(49, 6), r)

    def test_r4_closed_form(self):
        r = ricci_eigenvalue_formulas(2, Fraction(1), Fraction(1))
        assert r[3] == Fraction(-8, 3)
        assert r[0] == -5  # (-2(n+2) - 4(n+2) - 6)/6 at n=2

    def test_multiplicities(self):
        forms = expected_closed_forms(FamilyParams(3, Fraction(1), Fraction(1)))
        assert forms.sigma_multiplicities == (4, 1, 2, 4)
        assert sum(forms.sigma_multiplicities) == 11

    def test_h_coeff_and_lambda(self):
        forms = expected_closed_forms(FamilyParams(2, Fraction(1), Fraction(1)))
        assert forms.h_coeff == 1
        assert forms.lambda_expected == -8


class TestExpectedRicMatrix:
    def test_n2_c0(self):
        m = expected_ric_matrix(FamilyParams(2, Fraction(1), Fraction(0)))
        assert m == Matrix.diagonal([-8, -8, -2, -2, -2, -2, 4])

    def test_n2_c1_off_diagonal(self):
        m = expected_ric_matrix(FamilyParams(2, Fraction(1), Fraction(1)))
        r1, r2 = Fraction(-5), Fraction(49, 27)
        assert m[6, 1] == 2 * (r1 - r2)
        assert m[6, 1] == Fraction(-368, 27)

    def test_off_diagonal_vanishes_at_c0(self):
        for n in (2, 4):
            m = expected_ric_matrix(FamilyParams(n, Fraction(3), Fraction(0)))
            d = 4 * n - 1
            assert all(
                m[i, j] == 0 for i in range(d) for j in range(d) if i != j
            )

    @pytest.mark.parametrize(
        "p",
        [
            FamilyParams(1, Fraction(2), Fraction(1)),
            FamilyParams(2, Fraction(1), Fraction(1)),
            FamilyParams(3, Fraction(1), Fraction(2)),
            FamilyParams(4, Fraction(5, 2), Fraction(1, 2)),
        ],
        ids=str,
    )
    def test_matches_koszul_route(self, p):
        from solvsoliton.family import metric_algebra

        assert metric_algebra(p).ric == expected_ric_matrix(p)

    def test_trace_matches_multiplicity_sum(self):
        p = FamilyParams(3, Fraction(2), Fraction(1))
        n = p.n
        r1, r2, r3, r4 = ricci_eigenvalue_formulas(n, p.rho, p.c)
        expected_trace = (2 * n - 2) * r1 + r2 + 2 * r3 + (2 * n - 2) * r4
        assert trace(expected_ric_matrix(p)) == expected_trace


class TestPredictedStatus:
    def test_table(self):
        assert predicted_status(1, Fraction(0)) == "nilsoliton"
        assert predicted_status(1, Fraction(3)) == "nilsoliton"
        assert predicted_status(2, Fraction(0)) == "solvsoliton"
        assert predicted_status(4, Fraction(1, 2)) == "not_soliton"


class TestClassifyStatus:
    def test_labels_the_direct_verdict_status(self):
        assert classify_status(1, "soliton") == "nilsoliton"
        assert classify_status(2, "soliton") == "solvsoliton"
        assert classify_status(1, "not_soliton") == "not_soliton"
        assert classify_status(3, "not_soliton") == "not_soliton"


def delta_weights(n: int) -> list:
    """The eigenvalues w_i of the grading derivation delta, in basis order."""
    delta = build_delta(n)
    return [delta[i, i] for i in range(delta.rows)]


def exact_power(rho: Fraction, twice_exponent) -> Fraction:
    """rho ** (twice_exponent / 2), for an even twice_exponent only."""
    assert twice_exponent % 2 == 0, "half-integer power of rho"
    return rho ** int(twice_exponent // 2)


class TestReductionToT:
    """exp(s delta) is an automorphism and an isometry from G(rho, c) onto
    G(1, c/rho), so the family depends on t = c/rho alone."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "rho, c",
        [
            (Fraction(11, 13), Fraction(9, 14)),
            (Fraction(4), Fraction(0)),
            (Fraction(229, 161), Fraction(203, 157)),
        ],
    )
    def test_gram_and_ricci_scale_by_integer_powers_of_rho(self, n, rho, c):
        w = delta_weights(n)
        M = metric_algebra(FamilyParams(n, rho, c))
        M1 = metric_algebra(FamilyParams(n, Fraction(1), c / rho))
        ric, ric1 = M.ric, M1.ric
        d = M.dim
        for i in range(d):
            for j in range(d):
                g, g1 = M.G[i, j], M1.G[i, j]
                assert (g == 0) == (g1 == 0)
                if g:
                    assert g == exact_power(rho, -(w[i] + w[j])) * g1
                r, r1 = ric[i, j], ric1[i, j]
                assert (r == 0) == (r1 == 0)
                if r:
                    assert r == exact_power(rho, w[i] - w[j]) * r1


def block_labels(n: int) -> list:
    """Block a (2 <= a <= n-1) of each basis index: (B_aR, B_aI, e_a, f_a);
    None on the core (B1R, B1I, e0, f0, e1, f1, Z)."""
    labels = [None] * (4 * n - 1)
    for a in range(2, n):
        for idx in (
            family._idx_br(n, a),
            family._idx_bi(n, a),
            family._idx_e(n, a),
            family._idx_f(n, a),
        ):
            labels[idx] = a
    return labels


class TestBlockDecoupling:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_blocks_partition_the_basis(self, n):
        labels = block_labels(n)
        assert labels.count(None) == 7
        assert all(labels.count(a) == 4 for a in range(2, n))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("c", [Fraction(0), Fraction(9, 14)])
    def test_no_constant_or_gram_entry_couples_two_blocks(self, n, c):
        labels = block_labels(n)
        triples = build_lie_algebra(n).triples()
        # every block has brackets, so the check below is not vacuous
        assert {labels[x] for t in triples for x in t[:3]} == {None, *range(2, n)}
        coupled = [t[:3] for t in triples if len({labels[x] for x in t[:3]} - {None}) > 1]
        assert coupled == []
        G = build_gram(FamilyParams(n, Fraction(11, 13), c))
        d = G.rows
        assert not [
            (i, j)
            for i in range(d)
            for j in range(d)
            if G[i, j] and None not in (labels[i], labels[j]) and labels[i] != labels[j]
        ]
