"""Structure-constant Lie algebra machinery against the family and heis3."""

import random
from fractions import Fraction

import pytest
from oracles import (
    bracket,
    column,
    column_of,
    dense,
    expected_ad_b1r,
    fraction_table,
    identity,
    int_row,
    is_zero,
    killing_form,
    solve_exact,
    sparse_nullspace,
    trace,
)

from solvsoliton.family import (
    FamilyParams,
    build_delta,
    build_gram,
    build_lie_algebra,
    family_splitting,
)
from solvsoliton.lie_core import (
    STRUCTURE_CLAIMS,
    StructureConstants,
    ad_matrix,
    _jacobi_witness,
    _leibniz_defects,
    check_jacobi,
    derived_algebra,
    is_completely_solvable,
    is_derivation,
    is_solvable,
    is_unimodular,
    subalgebra,
    verify_splitting,
)
from solvsoliton.linalg import Matrix, rref


def basis_vec(d, i):
    return [Fraction(int(r == i)) for r in range(d)]


def heis3():
    return build_lie_algebra(1)


def sl2():
    # [h,e] = 2e, [h,f] = -2f, [e,f] = h in basis (h, e, f)
    return StructureConstants.from_triples(
        3, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)]
    )


class TestBracket:
    def test_self_bracket_vanishes(self):
        L = heis3()
        assert bracket(L, basis_vec(3, 0), basis_vec(3, 0)) == [0, 0, 0]

    def test_heisenberg_signs(self):
        # [e0, f0] = Z and [e1, f1] = -Z at n=2
        L = build_lie_algebra(2)
        d = L.dim
        z = basis_vec(d, d - 1)
        assert bracket(L, basis_vec(d, 2), basis_vec(d, 3)) == z
        assert bracket(L, basis_vec(d, 4), basis_vec(d, 5)) == [-x for x in z]

    def test_solvable_part_bracket_n3(self):
        # [B2R, B2I] = B1I / 2 at n=3 (indices 2, 3 -> 1)
        L = build_lie_algebra(3)
        out = bracket(L, basis_vec(11, 2), basis_vec(11, 3))
        expected = [Fraction(0)] * 11
        expected[1] = Fraction(1, 2)
        assert out == expected

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bracket(heis3(), [1, 0], [0, 1])


class TestConstruction:
    @pytest.mark.parametrize(
        "triple",
        [(1, 1, 0, 1), (1, 0, 2, 1), (0, 1, 3, 1), (-1, 1, 2, 1)],
        ids=["diagonal", "lower", "k-out-of-range", "negative"],
    )
    def test_rejects_triples_outside_the_upper_table(self, triple):
        # only [e_i, e_j] with i < j is given; [e_j, e_i] follows by
        # antisymmetry, so no input can break it
        with pytest.raises(ValueError):
            StructureConstants.from_triples(3, [(0, 1, 2, 1), triple])

    def test_cancelling_triples_leave_no_entry(self):
        L = StructureConstants.from_triples(3, [(0, 1, 2, 1), (0, 1, 2, -1), (0, 2, 1, "1/2")])
        assert L.triples() == [(0, 2, 1, Fraction(1, 2))]
        assert L.den == 2 and L.table[0][1] == [] and L.table[2][0] == [(1, -1)]

    def test_equality_is_by_bracket_table(self):
        L = build_lie_algebra(2)
        M = StructureConstants.from_triples(L.dim, reversed(L.triples()))
        assert M == L and (M.den, M.table) == (L.den, L.table) and hash(M) == hash(L)
        assert M != build_lie_algebra(1)
        assert M != StructureConstants.from_triples(L.dim, L.triples()[1:])

    def test_equal_values_store_one_canonical_table(self):
        # 1/2 given as 2/4, or as 1/3 + 1/6, is stored as 1 over den = 2
        half = StructureConstants.from_triples(3, [(0, 1, 2, Fraction(1, 2)), (0, 2, 1, 3)])
        for triples in (
            [(0, 1, 2, "2/4"), (0, 2, 1, 3)],
            [(0, 1, 2, Fraction(1, 3)), (0, 2, 1, 3), (0, 1, 2, Fraction(1, 6))],
        ):
            L = StructureConstants.from_triples(3, triples)
            assert L == half and hash(L) == hash(half)
            assert (L.den, L.table) == (half.den, half.table)
        assert half.den == 2 and half.table[0][1] == [(2, 1)] and half.table[2][0] == [(1, -6)]

    def test_subalgebra_clears_the_halves_it_leaves_out(self):
        # every 1/2 of L_3 involves the B generators; the Heisenberg part
        # (e0, f0, e1, f1, e2, f2, Z) has integer brackets only
        L = build_lie_algebra(3)
        sub = subalgebra(L, range(4, 11))
        assert L.den == 2 and sub.den == 1
        heis = StructureConstants.from_triples(7, [(0, 1, 6, 1), (2, 3, 6, -1), (4, 5, 6, -1)])
        assert sub == heis and sub.table == heis.table and hash(sub) == hash(heis)
        nil = subalgebra(L, [i for i in range(L.dim) if i not in family_splitting(3)])
        assert nil.den == 2

    def test_subalgebra_in_any_index_order(self):
        L = build_lie_algebra(3)
        indices = [10, 3, 1, 2, 9, 5, 8, 4, 7, 6]  # the nilradical, unsorted
        sub = subalgebra(L, indices)
        pos = {g: i for i, g in enumerate(indices)}
        # [e_a, e_b] for a, b in the index set, renumbered by position
        expected = [
            (*sorted((pos[i], pos[j])), pos[k], v if pos[i] < pos[j] else -v)
            for i, j, k, v in L.triples()
            if i in pos and j in pos
        ]
        assert sub == StructureConstants.from_triples(len(indices), expected)


class TestJacobi:
    def test_heis3(self):
        ok, witness = check_jacobi(heis3())
        assert ok and witness is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_family(self, n):
        ok, _ = check_jacobi(build_lie_algebra(n))
        assert ok

    def test_perturbed_family_fails_with_witness(self):
        L = build_lie_algebra(2)
        triples = L.triples()
        triples.append((0, 2, 6, Fraction(1)))  # corrupt [B1R, e0] by +Z
        bad = StructureConstants.from_triples(7, triples)
        ok, witness = check_jacobi(bad)
        assert not ok
        assert witness is not None and len(witness) == 4


def bracket_jacobi(L):
    """Reference Jacobi check from dense basis brackets, in i < j < k order."""
    d = L.dim
    basis = [basis_vec(d, i) for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                t1 = bracket(L, bracket(L, basis[i], basis[j]), basis[k])
                t2 = bracket(L, bracket(L, basis[j], basis[k]), basis[i])
                t3 = bracket(L, bracket(L, basis[k], basis[i]), basis[j])
                defect = [a + b + c for a, b, c in zip(t1, t2, t3)]
                if any(defect):
                    return False, (i, j, k, defect)
    return True, None


def dense_jacobi_witness(L):
    """The earlier Jacobi loop, kept as an exact oracle: every basis triple in
    i < j < k order, each defect summed into a dense vector."""
    d = L.dim
    sp = fraction_table(L)
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                if not (sp[i][j] or sp[j][k] or sp[k][i]):
                    continue
                defect = [Fraction(0)] * d
                for a, b, e in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, v in sp[a][b]:
                        for r, w in sp[m][e]:
                            defect[r] += v * w
                if any(defect):
                    return i, j, k, defect
    return None


def random_bracket_table(rng, d, count):
    """Structure constants with random sparse antisymmetric brackets; the
    Jacobi identity usually fails."""
    triples = []
    for _ in range(count):
        i, j = sorted(rng.sample(range(d), 2))
        triples.append((i, j, rng.randrange(d), Fraction(rng.randint(-3, 3), rng.randint(1, 4))))
    return StructureConstants.from_triples(d, triples)


class TestSparseJacobi:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_tables_match_dense_oracle(self, seed):
        rng = random.Random(seed)
        d = rng.randint(3, 9)
        L = random_bracket_table(rng, d, rng.randint(1, 3 * d))
        assert _jacobi_witness(L) == dense_jacobi_witness(L)

    @pytest.mark.parametrize(
        "n, extra",
        [
            (2, (0, 2, 6, 1)),  # [B1R, e0] += Z
            (2, (2, 4, 3, 1)),  # [e0, e1] += f0
            (2, (1, 3, 0, Fraction(1, 2))),  # [B1I, f0] += B1R/2
            (3, (0, 1, 10, 1)),  # [B1R, B1I] += Z
            (3, (4, 6, 5, -3)),  # [e0, e1] -= 3 f0
            (3, (2, 9, 9, 1)),  # [B2R, f2] += f2
        ],
    )
    def test_witness_matches_bracket_reference(self, n, extra):
        L = build_lie_algebra(n)
        bad = StructureConstants.from_triples(L.dim, L.triples() + [extra])
        expected = bracket_jacobi(bad)
        assert expected[0] is False
        assert check_jacobi(bad) == expected


class TestAdjoint:
    def test_center_acts_trivially(self):
        L = build_lie_algebra(3)
        assert is_zero(ad_matrix(L, basis_vec(11, 10)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ad_b1r_block_structure(self, n):
        L = build_lie_algebra(n)
        assert ad_matrix(L, basis_vec(L.dim, 0)) == expected_ad_b1r(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_trace_of_ad_b1r(self, n):
        L = build_lie_algebra(n)
        assert trace(ad_matrix(L, basis_vec(L.dim, 0))) == 2 * n - 2


class TestKillingForm:
    def test_heis3_vanishes(self):
        assert is_zero(killing_form(heis3()))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_family_killing(self, n):
        beta = killing_form(build_lie_algebra(n))
        d = 4 * n - 1
        assert beta[0, 0] == 2 * n + 4
        for i in range(d):
            for j in range(d):
                if (i, j) != (0, 0):
                    assert beta[i, j] == 0


class TestDerivedAlgebra:
    def test_abelian_is_trivial(self):
        L = StructureConstants.from_triples(3, [])
        assert derived_algebra(L) == []

    def test_heisenberg_center(self):
        L = build_lie_algebra(2)
        sub = subalgebra(L, [2, 3, 4, 5, 6])  # the heis_5 part
        vecs = derived_algebra(sub)
        assert len(vecs) == 1
        assert vecs[0] == basis_vec(5, 4)  # span{Z}

    @pytest.mark.parametrize("n", [2, 3])
    def test_family_derived_is_nilradical_candidate(self, n):
        L = build_lie_algebra(n)
        vecs = derived_algebra(L)
        assert len(vecs) == 4 * n - 2
        # derived algebra misses exactly the B1R direction
        assert all(v[0] == 0 for v in vecs)

    def test_derived_is_an_ideal(self):
        L = build_lie_algebra(3)
        vecs = derived_algebra(L)
        rows = [int_row(v) for v in vecs]
        for i in range(L.dim):
            for v in vecs:
                w = bracket(L, basis_vec(L.dim, i), v)
                assert len(rref([*rows, int_row(w)])[0]) == len(vecs)


class TestUnimodularSolvable:
    def test_heis3_unimodular(self):
        assert is_unimodular(heis3())

    def test_abelian_unimodular(self):
        assert is_unimodular(StructureConstants.from_triples(4, []))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_family_not_unimodular(self, n):
        assert not is_unimodular(build_lie_algebra(n))

    def test_unimodular_is_tr_ad_zero(self):
        # tr ad e0 = 1 - 1 on span(e1, e2) and tr ad e1 = tr ad e2 = 0:
        # unimodular, though no adjoint vanishes.  [e1, e2] = e2 alone has
        # tr ad e1 = 1, with e0 central.
        L = StructureConstants.from_triples(3, [(0, 1, 1, 1), (0, 2, 2, -1), (1, 2, 0, 1)])
        assert is_unimodular(L)
        assert not is_unimodular(StructureConstants.from_triples(3, [(1, 2, 2, 1)]))
        for x in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
            assert trace(ad_matrix(L, [Fraction(v) for v in x])) == 0

    def test_structure_claims_name_the_three_predicates(self):
        assert STRUCTURE_CLAIMS == (derived_algebra, is_unimodular, is_completely_solvable)
        assert STRUCTURE_CLAIMS._fields == (
            "derived_algebra",
            "is_unimodular",
            "is_completely_solvable",
        )

    def test_sl2_not_solvable(self):
        assert not is_solvable(sl2())
        with pytest.raises(ValueError):
            is_completely_solvable(sl2())

    def test_heis3_completely_solvable(self):
        assert is_completely_solvable(heis3())

    @pytest.mark.parametrize("n", range(1, 17))
    def test_family_completely_solvable(self, n):
        assert is_completely_solvable(build_lie_algebra(n))

    def test_two_dim_real_eigenvalues(self):
        # [x, y] = x + y has ad-eigenvalues {0, 1} and {0, -1}
        L = StructureConstants.from_triples(2, [(0, 1, 0, 1), (0, 1, 1, 1)])
        assert is_completely_solvable(L)

    def test_euclidean_motions_rejected(self):
        # [e1,e2] = e3, [e1,e3] = -e2: ad(e1) rotates, eigenvalues +-i
        L = StructureConstants.from_triples(3, [(0, 1, 2, 1), (0, 2, 1, -1)])
        assert is_solvable(L)
        assert not is_completely_solvable(L)


def unit_matrix(d, r, s):
    return Matrix([[int((i, j) == (r, s)) for j in range(d)] for i in range(d)])


def derivation_basis(L):
    """Der(L) as matrices: the kernel of the Leibniz system whose column
    r*d + s holds the defects of the unit matrix E_rs (all scaled alike)."""
    d = L.dim
    rows = {}  # (i, j, k) -> {r*d + s: defect}
    for r in range(d):
        for s in range(d):
            for (i, j), defect in _leibniz_defects(L, unit_matrix(d, r, s).table):
                for k, v in defect.items():
                    rows.setdefault((i, j, k), {})[r * d + s] = v
    kernel = sparse_nullspace(rows.values(), d * d)
    return [Matrix([v[r * d : (r + 1) * d] for r in range(d)]) for v in kernel]


def dense_leibniz_witness(L, D):
    """First pair i < j failing D[e_i,e_j] = [De_i,e_j] + [e_i,De_j], by bracket."""
    d = L.dim
    basis = [basis_vec(d, i) for i in range(d)]
    cols = [column_of(D, j) for j in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            b = bracket(L, basis[i], basis[j])
            lhs = [sum((D[r, m] * b[m] for m in range(d)), Fraction(0)) for r in range(d)]
            rhs1 = bracket(L, cols[i], basis[j])
            rhs2 = bracket(L, basis[i], cols[j])
            if any(lhs[r] - rhs1[r] - rhs2[r] for r in range(d)):
                return i, j
    return None


class TestDerivationSpace:
    def test_abelian_has_all_endomorphisms(self):
        L = StructureConstants.from_triples(3, [])
        assert len(derivation_basis(L)) == 9
        assert all(
            is_derivation(L, unit_matrix(3, r, s)) == (True, None)
            for r in range(3)
            for s in range(3)
        )

    def test_heis3_dimension(self):
        # hand count: D e3 determined by trace of the (e1, e2) block and
        # e3-row entries vanish, leaving 6 free parameters
        assert len(derivation_basis(heis3())) == 6

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_delta_lies_in_span(self, n):
        L = build_lie_algebra(n)
        ders = derivation_basis(L)
        delta = build_delta(n)
        d = L.dim
        cols = Matrix(
            [[D[i, j] for D in ders] for i in range(d) for j in range(d)]
        )
        rhs = column([delta[i, j] for i in range(d) for j in range(d)])
        assert solve_exact(cols, rhs) is not None

    @pytest.mark.parametrize("n", [2, 3])
    def test_basis_elements_satisfy_leibniz(self, n):
        L = build_lie_algebra(n)
        for D in derivation_basis(L):
            ok, _ = is_derivation(L, D)
            assert ok
            assert dense_leibniz_witness(L, D) is None

    def test_non_derivation_detected(self):
        L = heis3()
        D = identity(3)
        ok, witness = is_derivation(L, D)
        assert not ok and witness == (0, 1)

    def test_witness_is_first_failing_pair(self):
        # heis3 + R with e3 central; D e3 = e0 leaves (0, 1), (0, 2), (0, 3)
        # and (1, 2) intact but breaks [e1, e3] = 0, since [e1, D e3] = -e2.
        L = StructureConstants.from_triples(4, [(0, 1, 2, 1)])
        assert is_derivation(L, unit_matrix(4, 0, 3)) == (False, (1, 3))

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_dense_bracket_formula(self, n):
        # random sparse perturbations of delta fail at assorted pairs
        rng = random.Random(n)
        L = build_lie_algebra(n)
        d = L.dim
        witnesses = set()
        for _ in range(12):
            D = dense(build_delta(n))
            for _ in range(rng.randint(0, 2)):
                D[rng.randrange(d)][rng.randrange(d)] += Fraction(rng.randint(-3, 3))
            D = Matrix(D)
            ok, witness = is_derivation(L, D)
            assert witness == dense_leibniz_witness(L, D)
            assert ok == (witness is None)
            witnesses.add(witness)
        assert len(witnesses) > 2


class TestSplitting:
    def test_family_splitting_verifies(self):
        p = FamilyParams(2, Fraction(1), Fraction(1))
        report = verify_splitting(
            build_lie_algebra(2), family_splitting(2), build_gram(p)
        )
        assert all(report.values())

    def test_heis3_empty_abelian_part(self):
        p = FamilyParams(1, Fraction(1), Fraction(0))
        report = verify_splitting(
            build_lie_algebra(1), family_splitting(1), build_gram(p)
        )
        assert all(report.values())

    def test_swapped_index_fails(self):
        # moving e0 into the declared abelian part breaks it
        p = FamilyParams(2, Fraction(1), Fraction(1))
        report = verify_splitting(build_lie_algebra(2), (0, 2), build_gram(p))
        assert not all(report.values())
        assert not (report["a_is_abelian"] and report["n_is_ideal"])

    @staticmethod
    def flags(L, a, G=None):
        if G is None:
            G = identity(L.dim)
        report = verify_splitting(L, a, G)
        assert list(report) == [
            "n_is_ideal",
            "n_is_nilpotent",
            "n_contains_derived",
            "a_is_abelian",
            "a_orthogonal_to_n",
        ]
        assert not all(report.values())
        return tuple(report.values())

    def test_n_not_an_ideal(self):
        # heis3 with n = span(e0, e1): [e0, e1] = e2 leaves n
        assert self.flags(heis3(), (2,)) == (False, True, False, True, True)

    def test_n_not_nilpotent(self):
        # [e0, ei] = ei: the lower central series of L stalls at span(e1, e2)
        L = StructureConstants.from_triples(3, [(0, 1, 1, 1), (0, 2, 2, 1)])
        assert self.flags(L, ()) == (True, False, True, True, True)

    def test_derived_algebra_not_in_n(self):
        # aff(1) + R: n = span(e2) is a central ideal missing [e0, e1] = e1
        L = StructureConstants.from_triples(3, [(0, 1, 1, 1)])
        assert self.flags(L, (0, 1)) == (True, True, False, False, True)

    def test_a_not_abelian(self):
        # heis3 with a = span(e0, e1): [e0, e1] = e2 lands in the centre n
        assert self.flags(heis3(), (0, 1)) == (True, True, True, False, True)

    def test_a_not_orthogonal_to_n(self):
        G = dense(identity(7))
        G[0][3] = G[3][0] = Fraction(1, 2)
        G = Matrix(G)
        flags = self.flags(build_lie_algebra(2), family_splitting(2), G)
        assert flags == (True, True, True, True, False)

    @pytest.mark.parametrize("a", [(0, 0), (7,), (-1,), (0, 1, 0)], ids=str)
    def test_repeated_or_out_of_range_abelian_index_raises(self, a):
        with pytest.raises(ValueError, match="distinct basis indices"):
            verify_splitting(
                build_lie_algebra(2), a, build_gram(FamilyParams(2, Fraction(1), Fraction(0)))
            )

    def test_family_splitting_declares_the_abelian_part(self):
        # {B1R} for n > 1, empty at n = 1; the nilradical is the rest
        assert [family_splitting(n) for n in (1, 2, 3)] == [(), (0,), (0,)]

    def test_subalgebra_closure_required(self):
        with pytest.raises(ValueError):
            subalgebra(build_lie_algebra(2), [2, 3])  # [e0,f0] = Z escapes
        with pytest.raises(ValueError):
            subalgebra(build_lie_algebra(3), [2, 3])  # [B2R,B2I] = B1I/2 escapes
