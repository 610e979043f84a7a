"""Exact linear algebra: solving, kernels, definiteness, real spectra."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    add,
    bracket,
    column,
    conjugated_blocks,
    dense,
    identity,
    nullspace,
    solve_exact,
    sparse_nullspace,
    trace,
    zeros,
)

from solvsoliton import linalg
from solvsoliton.family import FamilyParams, build_embedding, build_gram, build_lie_algebra
from solvsoliton.lie_core import ad_matrix
from solvsoliton.linalg import (
    Matrix,
    has_real_spectrum,
    inverse,
    is_positive_definite,
    rref,
)


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return Matrix(
        [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]
    )


class TestEntries:
    def test_entries_are_rational_only(self):
        assert dense(Matrix([[1, Fraction(1, 2)]])) == [[Fraction(1), Fraction(1, 2)]]
        for build in (
            lambda: Matrix([[0.5]]),
            lambda: Matrix.diagonal([0.5]),
        ):
            with pytest.raises(TypeError):
                build()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        st.integers(0, 5).flatmap(
            lambda cols: st.lists(
                st.lists(
                    st.one_of(
                        st.just(0),
                        st.integers(-(10**30), 10**30),
                        st.fractions(max_denominator=10**40),
                    ),
                    min_size=cols,
                    max_size=cols,
                ),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_nested_lists_round_trip(self, data):
        M = Matrix(data)
        assert dense(M) == data
        assert all(type(x) is Fraction for row in dense(M) for x in row)
        # one stored form: integer rows without zeros over a positive
        # denominator in lowest terms
        assert (M.rows, M.cols) == (len(data), len(data[0]))
        assert M.den > 0
        assert all(type(v) is int and v for row in M.table for v in row.values())
        assert math.gcd(M.den, *(v for row in M.table for v in row.values())) == 1
        assert Matrix(dense(M)) == M and hash(Matrix(dense(M))) == hash(M)

    def test_equal_values_store_one_canonical_form(self):
        half = Fraction(1, 2)
        forms = [
            Matrix.diagonal([half, 0]),
            Matrix([[half, 0], [0, 0]]),
            Matrix.from_table([{0: 2}, {}], 4, 2),  # 2/4
            # 1/3 + 1/6, summed in integers over the denominator 6
            Matrix([[Fraction(1, 3), Fraction(1, 6)], [0, 0]]) @ Matrix([[1, 0], [1, 0]]),
            Matrix.diagonal([1, 0]).scale(half),
        ]
        for M in forms:
            assert (M.rows, M.cols, M.den, M.table) == (2, 2, 2, [{0: 1}, {}])
            assert M == forms[0] and hash(M) == hash(forms[0])
        zero = Matrix([[0, 0], [0, 0]])
        assert zero.den == 1 and zero.table == [{}, {}]
        assert Matrix.diagonal([half, 0]).scale(0) == zero

    def test_linalg_imports_nothing_from_scalars(self):
        from solvsoliton import linalg

        tree = ast.parse(Path(linalg.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not any(name.rsplit(".", 1)[-1] == "scalars" for name in imported)


_entries = st.one_of(
    st.just(0),
    st.integers(-(10**12), 10**12),
    st.fractions(max_denominator=12),
    st.fractions(max_denominator=10**20),
)


def _same_shape_pair():
    return st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda shape: st.tuples(
            *[
                st.lists(
                    st.lists(_entries, min_size=shape[1], max_size=shape[1]),
                    min_size=shape[0],
                    max_size=shape[0],
                )
                for _ in range(2)
            ]
        )
    )


def _is_canonical(M: Matrix) -> bool:
    """Integer rows without zeros over a positive denominator in lowest terms."""
    values = [v for row in M.table for v in row.values()]
    return M.den > 0 and all(type(v) is int and v for v in values) and math.gcd(M.den, *values) == 1


class TestArithmetic:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_same_shape_pair())
    def test_sum_and_difference_match_the_dense_sum(self, pair):
        A, B = Matrix(pair[0]), Matrix(pair[1])
        assert A + B == add(A, B)
        assert A - B == add(A, B.scale(-1))
        assert (A - B) + B == A
        assert _is_canonical(A + B) and _is_canonical(A - B)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        st.integers(1, 6).flatmap(
            lambda d: st.lists(st.lists(_entries, min_size=d, max_size=d), min_size=d, max_size=d)
        )
    )
    def test_trace_matches_the_dense_trace(self, data):
        A = Matrix(data)
        assert A.trace() == trace(A)
        assert type(A.trace()) is Fraction

    def test_cancellation_leaves_empty_rows_over_one(self):
        M = Matrix([[Fraction(1, 6), 0, 5], [Fraction(-7, 4), Fraction(2, 9), 0]])
        Z = M - M
        assert Z == zeros(2, 3)
        assert (Z.den, Z.table) == (1, [{}, {}])

    def test_sum_is_reduced_to_lowest_terms(self):
        # 1/6 + 1/3 = 1/2 and 5/6 - 1/3 = 1/2: the lcm 6 divides down to 2
        S = Matrix([[Fraction(1, 6), Fraction(5, 6)]]) + Matrix([[Fraction(1, 3), Fraction(-1, 3)]])
        assert (S.den, S.table) == (2, [{0: 1, 1: 1}])

    def test_shape_mismatch_raises(self):
        A, B = identity(2), Matrix([[1, 2, 3], [4, 5, 6]])
        for x, y in ((A, B), (B, A), (B, B.transpose())):
            with pytest.raises(ValueError):
                x + y
            with pytest.raises(ValueError):
                x - y
        with pytest.raises(ValueError):
            B.trace()


class TestSolve:
    def test_identity(self):
        x = solve_exact(identity(3), column([1, 2, 3]))
        assert x == column([1, 2, 3])

    def test_inconsistent_rank_deficient(self):
        A = Matrix([[1, 1], [2, 2]])
        assert solve_exact(A, column([1, 3])) is None

    def test_family_feasibility_lambda(self):
        # the soliton system for n=2, c=0, rho=1 is solvable with lambda = -8;
        # checked end to end in test_metric_lie, pinned here via ric - (-8)I
        # being the expected diagonal derivation
        from solvsoliton.family import FamilyParams, build_delta, metric_algebra

        M = metric_algebra(FamilyParams(2, Fraction(1), Fraction(0)))
        ric = M.ric
        D = add(ric, identity(7).scale(Fraction(8)))
        assert D == build_delta(2).scale(Fraction(6))

    def test_roundtrip_randomized(self):
        rng = random.Random(7)
        for _ in range(40):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            A = rand_matrix(rng, m, n)
            x = rand_matrix(rng, n, 1)
            b = A @ x
            sol = solve_exact(A, b)
            assert sol is not None
            assert A @ sol == b

    def test_underdetermined_solution_valid(self):
        A = Matrix([[1, 1, 0], [0, 0, 1]])
        b = column([2, 5])
        sol = solve_exact(A, b)
        assert A @ sol == b


class TestNullspace:
    def test_zero_matrix(self):
        assert len(nullspace(zeros(2, 2))) == 2

    def test_invertible(self):
        assert nullspace(Matrix([[2, 1], [1, 1]])) == []

    def test_heisenberg_leibniz_kernel_dimension(self):
        # Derivations of heis3 ([e1,e2] = e3): the Leibniz equations force
        # D[0][2] = D[1][2] = 0 and D[2][2] = D[0][0] + D[1][1], leaving the
        # six entries D[0][0], D[0][1], D[1][0], D[1][1], D[2][0], D[2][1]
        # free.  The kernel of the assembled operator must be 6-dimensional.
        L = build_lie_algebra(1)
        d = 3
        rows = []
        basis = [[Fraction(int(r == i)) for r in range(d)] for i in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                bij = bracket(L, basis[i], basis[j])
                for k in range(d):
                    row = [Fraction(0)] * (d * d)
                    for m in range(d):
                        if bij[m]:
                            row[k * d + m] += bij[m]
                    for m in range(d):
                        row[m * d + i] -= bracket(L, basis[m], basis[j])[k]
                        row[m * d + j] -= bracket(L, basis[i], basis[m])[k]
                    rows.append(row)
        kernel = nullspace(Matrix(rows))
        assert len(kernel) == 6

    def test_kernel_and_rank_nullity_randomized(self):
        rng = random.Random(31)
        for _ in range(30):
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            A = rand_matrix(rng, m, n, -2, 2)
            basis = nullspace(A)
            zero = zeros(m, 1)
            for v in basis:
                assert A @ v == zero
            # rank + nullity = cols; rank from an independent elimination
            rank = n - len(basis)
            stacked = Matrix(dense(A))
            assert rank == _row_rank(stacked)
            if basis:
                combined = Matrix([[v[i, 0] for v in basis] for i in range(n)])
                assert _row_rank(combined.transpose()) == len(basis)


def _row_rank(A: Matrix) -> int:
    rows = dense(A)
    rank = 0
    for col in range(A.cols):
        piv = None
        for r in range(rank, A.rows):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(A.rows):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestSparseNullspace:
    def test_matches_dense_randomized(self):
        # rank-nullity against the dense reference rank, plus independence
        rng = random.Random(17)
        for _ in range(25):
            m, n = rng.randint(1, 10), rng.randint(1, 10)
            A = rand_matrix(rng, m, n, -2, 2)
            sparse_rows = [
                {j: v for j, v in enumerate(row) if v} for row in dense(A)
            ]
            sparse = sparse_nullspace(sparse_rows, n)
            assert len(sparse) == n - _row_rank(A)
            if sparse:
                assert _row_rank(Matrix(sparse)) == len(sparse)
            zero = [Fraction(0)] * m
            for vec in sparse:
                out = [
                    sum((A[i, j] * vec[j] for j in range(n)), Fraction(0))
                    for i in range(m)
                ]
                assert out == zero


def _det(rows):
    """Determinant by Laplace expansion along the first row (no elimination)."""
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for j, a in enumerate(rows[0]):
        if a:
            term = a * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
            total = total + term if j % 2 == 0 else total - term
    return total


def _leading_minors(G: Matrix) -> list:
    return [_det([row[:k] for row in dense(G)[:k]]) for k in range(1, G.rows + 1)]


def _gram(B: Matrix, D: Matrix) -> Matrix:
    return B.transpose() @ D @ B


class TestRref:
    def test_row_order_does_not_matter(self):
        rng = random.Random(3)
        for _ in range(20):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            rows = [
                {c: rng.randint(-2, 2) for c in range(n)} for _ in range(m)
            ]
            pivots, _ = rref(rows)
            rng.shuffle(rows)
            assert rref(rows)[0] == pivots
            assert len(pivots) == _row_rank(Matrix([list(r.values()) for r in rows]))
            for pc, row in pivots.items():
                assert min(row) == pc and row[pc] > 0
                assert all(type(v) is int and v for v in row.values())
                assert math.gcd(*row.values()) == 1
                assert not any(qc in row for qc in pivots if qc != pc)

    def test_leads_are_ratios_of_leading_minors(self):
        # up to a positive factor per row: the integer elimination scales a
        # row only by positive multipliers, so each lead keeps the sign of
        # the ratio of consecutive leading minors
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(1, 5)
            G = _gram(rand_matrix(rng, n, n), identity(n))
            minors = _leading_minors(G)
            if not all(minors):
                continue
            _, leads = rref([{c: int(x) for c, x in enumerate(r)} for r in dense(G)])
            ratios = [minors[0]] + [b / a for a, b in zip(minors, minors[1:])]
            assert [k for k, _ in leads] == list(range(n))
            assert all(value * ratio > 0 for (_, value), ratio in zip(leads, ratios))


class TestPositiveDefinite:
    def test_against_leading_minors_randomized(self):
        rng = random.Random(23)
        seen = {True: 0, False: 0}
        for _ in range(60):
            n = rng.randint(1, 5)
            kind = rng.choice(["definite", "semidefinite", "indefinite", "symmetric"])
            if kind == "definite":
                G = _gram(rand_matrix(rng, n, n), identity(n))
                G = add(G, identity(n))
            elif kind == "semidefinite":
                r = rng.randint(0, n - 1)  # rank r < n
                G = zeros(n, n)
                if r:
                    G = _gram(rand_matrix(rng, r, n), identity(r))
            elif kind == "indefinite":
                signs = [1] * n
                signs[rng.randrange(n)] = -1
                G = _gram(rand_matrix(rng, n, n), Matrix.diagonal(signs))
            else:
                A = rand_matrix(rng, n, n)
                G = add(A, A.transpose())
            expected = all(m > 0 for m in _leading_minors(G))
            assert is_positive_definite(G) == expected
            assert not (kind in ("semidefinite", "indefinite") and expected)
            seen[expected] += 1
        assert seen[True] >= 10 and seen[False] >= 10

    def test_zero_leading_minor_rejected(self):
        # each row still leads with a positive value, but not on the diagonal
        for G in (Matrix([[0, 1], [1, 0]]), Matrix([[1, 0, 0], [0, 0, 1], [0, 1, 1]])):
            assert 0 in _leading_minors(G)
            assert not is_positive_definite(G)


class TestDetInverse:
    def test_inverse_roundtrip(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 6)
            A = rand_matrix(rng, n, n)
            if _row_rank(A) < n:
                continue
            assert A @ inverse(A) == identity(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_embedding_and_its_inverse_are_rational(self, n):
        p = FamilyParams(n, Fraction(3, 2), Fraction(1, 3))
        P = build_embedding(p, build_gram(p))
        Pinv = inverse(P)
        assert P @ Pinv == identity(P.rows) == Pinv @ P

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            inverse(Matrix([[1, 1], [1, 1]]))

    def test_inverse_checks_the_elimination_in_integers(self, monkeypatch):
        # a corrupted right-hand entry of one pivot row must fail A X = L I
        def corrupted(rows, _rref=linalg.rref):
            pivots, leads = _rref(rows)
            row = pivots[0]
            row[max(row)] += 1
            return pivots, leads

        monkeypatch.setattr(linalg, "rref", corrupted)
        with pytest.raises(ValueError, match="singular"):
            inverse(Matrix([[2, 1], [1, 3]]))

    def test_positive_definite(self):
        assert is_positive_definite(Matrix([[2, 1], [1, 2]]))
        assert not is_positive_definite(Matrix([[1, 2], [2, 1]]))
        assert not is_positive_definite(Matrix([[0, 0], [0, 1]]))
        assert not is_positive_definite(Matrix([[1, 2], [3, 4]]))  # asymmetric


def companion(coeffs):
    """The companion matrix of the monic polynomial with coefficients
    ``coeffs``, lowest degree first, leading 1 included: one Jordan block
    per distinct root."""
    d = len(coeffs) - 1
    return Matrix(
        [[int(j == i - 1) for j in range(d - 1)] + [-coeffs[i]] for i in range(d)]
    )


def monic_from_roots(*roots):
    """The coefficients of prod (t - r), lowest degree first."""
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    return coeffs


class TestRealSpectrum:
    def test_complex_pair(self):
        assert not has_real_spectrum(companion([1, 0, 1]))  # t^2 + 1

    def test_mixed_factor(self):
        # (t-1)(t^2+1)
        assert not has_real_spectrum(companion([-1, 1, -1, 1]))

    def test_with_multiplicities(self):
        # t^2 (t-2)(t-1)(t+1)^3: the companion matrix is not diagonalizable
        assert has_real_spectrum(companion(monic_from_roots(0, 0, 2, 1, -1, -1, -1)))

    def test_identity(self):
        assert has_real_spectrum(identity(2))
        assert has_real_spectrum(identity(5).scale(Fraction(-3, 7)))

    def test_nilpotent_center(self):
        L = build_lie_algebra(3)
        d = L.dim
        z = [Fraction(int(i == d - 1)) for i in range(d)]
        assert has_real_spectrum(ad_matrix(L, z))

    def test_ad_b1r_n2_spectrum(self):
        # Block form diag(0, 2, V4, 0) at n=2: eigenvalues 2, 1, 0, -1 with
        # multiplicities 1, 2, 2, 2 (V4 squares to the identity with trace 0,
        # so it contributes +1, +1, -1, -1; the trace sums to 2n-2 = 2).
        # Power sums tr(A^k), k < d, fix the characteristic polynomial.
        L = build_lie_algebra(2)
        x = [Fraction(int(i == 0)) for i in range(7)]
        A = ad_matrix(L, x)
        power = identity(7)
        for k in range(7):
            assert trace(power) == sum(lam**k for lam in (2, 1, 1, 0, 0, -1, -1))
            power = power @ A
        assert has_real_spectrum(A)

    def test_family_adjoint_n3(self):
        L = build_lie_algebra(3)
        x = [Fraction(int(i == 0)) for i in range(L.dim)]
        assert has_real_spectrum(ad_matrix(L, x))

    def test_lead_past_its_own_column_is_not_semidefinite(self):
        # diag(0, 0, 1, 1, 1, 1) + a rotation: power sums 8, 4, 2, ... with
        # D_2 = 8*2 - 4^2 = 0, so row 1 of the Hankel matrix leads at column
        # 2 with a positive value; the eigenvalues +-i make it indefinite.
        A = Matrix.diagonal([0, 0, 1, 1, 1, 1, 0, 0]) + Matrix(
            [[0] * 8] * 6 + [[0] * 6 + [0, -1], [0] * 6 + [1, 0]]
        )
        assert [trace(identity(8)), trace(A), trace(A @ A)] == [8, 4, 2]
        assert not has_real_spectrum(A)

    def test_empty_matrix_is_vacuously_real(self):
        assert has_real_spectrum(Matrix([]))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            has_real_spectrum(Matrix([[1, 2, 3], [4, 5, 6]]))

    def test_conjugates_known_by_construction(self):
        rng = random.Random(2011)
        answers = set()
        for _ in range(150):
            rows, real = conjugated_blocks(rng, rng.randint(1, 8))
            assert has_real_spectrum(Matrix(rows)) == real
            answers.add(real)
        assert answers == {True, False}

    def test_against_numeric_eigenvalues_randomized(self):
        import numpy as np

        rng = random.Random(8)
        checked = 0
        for _ in range(150):
            d = rng.randint(1, 7)
            A = rand_matrix(rng, d, d)
            imag = np.abs(np.linalg.eigvals(np.array(dense(A), dtype=float)).imag)
            # skip cases where float rounding makes the answer ambiguous
            if np.any((imag > 1e-12) & (imag < 1e-6)):
                continue
            checked += 1
            assert has_real_spectrum(A) == bool(np.all(imag < 1e-9))
        assert checked > 100
