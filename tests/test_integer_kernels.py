"""The integer kernels equal their Fraction references exactly.

``connection_coeffs``, ``ricci_bilinear``, the Ricci endomorphism
``MetricLieAlgebra.ric``, the direct soliton verdict, ``is_derivation``, the Jacobi witness, the
lower central series behind ``verify_splitting``, ``rref``, ``inverse``,
``Matrix.__matmul__`` and the checklist route ``soliton_check_lauret`` run
on integers over cleared denominators; ``tests/oracles.py`` keeps the same
loops over ``Fraction`` entries.  The draws cover the family at n = 1..5
with rho and c of 1 to 12 bits (c = 0 in part of them), random rational
Gram matrices B^T B + I with non-diagonal inverses, random symmetric
integer matrices, definite or not, and random structure constants that
break the Jacobi identity.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    TWO_ABELIAN,
    TWO_ABELIAN_SPLITTING,
    add,
    checklist_verdict,
    dense,
    fraction_connection_coeffs,
    fraction_direct_verdict,
    fraction_inverse,
    fraction_is_derivation,
    fraction_jacobi_witness,
    fraction_matmul,
    fraction_ricci_bilinear,
    fraction_ricci_endomorphism,
    fraction_rref,
    fraction_soliton_check_lauret,
    fraction_verify_splitting,
    identity,
    int_row,
    leading_minors,
)

from solvsoliton import cli, hypersurface
from solvsoliton.family import (
    FamilyParams,
    build_embedding,
    build_lie_algebra,
    family_splitting,
    metric_algebra,
)
from solvsoliton.hypersurface import ricci_endomorphism_coords
from solvsoliton.lie_core import (
    StructureConstants,
    _jacobi_witness,
    is_derivation,
    verify_splitting,
)
from solvsoliton.linalg import Matrix, inverse, rref
from solvsoliton.metric_lie import (
    MetricLieAlgebra,
    connection_coeffs,
    ricci_bilinear,
    soliton_check_direct,
)

SLOW = settings(derandomize=True, deadline=None, max_examples=15)
FAST = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def bits_rational(draw):
    """p/q with p and q of 1 to 12 bits each."""

    def part():
        bits = draw(st.integers(1, 12))
        return draw(st.integers(2 ** (bits - 1), 2**bits - 1))

    return Fraction(part(), part())


@st.composite
def family_params(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    rho = draw(bits_rational())
    c = draw(st.one_of(st.just(Fraction(0)), bits_rational()))
    return FamilyParams(n, rho, c)


def family_metrics(max_n=4):
    return family_params(max_n).map(metric_algebra)


small_fractions = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 9))


def square_matrices(d: int):
    return st.lists(
        st.lists(small_fractions, min_size=d, max_size=d), min_size=d, max_size=d
    ).map(Matrix)


@st.composite
def random_grams(draw, d: int):
    """B^T B + I for a random rational B: every row of the inverse is dense."""
    B = draw(square_matrices(d))
    return add(B.transpose() @ B, identity(d))


@st.composite
def random_gram_metrics(draw):
    """The family algebra at n = 1 or 2 under a random Gram B^T B + I."""
    L = build_lie_algebra(draw(st.integers(1, 2)))
    return MetricLieAlgebra(L, draw(random_grams(L.dim)))


@st.composite
def random_algebras(draw):
    """Random sparse structure constants on 3 to 6 basis vectors; the
    Jacobi identity fails for most of them."""
    d = draw(st.integers(3, 6))
    triple = st.tuples(
        st.integers(0, d - 2), st.integers(1, d - 1), st.integers(0, d - 1), small_fractions
    ).filter(lambda t: t[0] < t[1])
    return StructureConstants.from_triples(d, draw(st.lists(triple, max_size=8)))


@st.composite
def random_splittings(draw, d: int):
    """The abelian part's basis indices of a random splitting of range(d);
    the nilpotent part is the rest."""
    return tuple(sorted(draw(st.sets(st.integers(0, d - 1), max_size=2))))


def assert_kernels_match(M: MetricLieAlgebra, r: int, s: int):
    L, d = M.L, M.dim
    gamma, S = connection_coeffs(M)
    assert all(type(x) is int for row in gamma for col in row for x in col.values())
    assert [
        [{k: Fraction(x, S) for k, x in col.items()} for col in row] for row in gamma
    ] == fraction_connection_coeffs(M)
    got = ricci_bilinear(M)
    assert all(type(x) is int and x for row in got.table for x in row.values())
    want = fraction_ricci_bilinear(M)
    assert got == want
    # den is the lcm of the entries' reduced denominators
    assert got.den == math.lcm(*(x.denominator for row in dense(want) for x in row))
    ric = M.ric
    assert ric == fraction_ricci_endomorphism(M)

    got = soliton_check_direct(M)
    assert got == fraction_direct_verdict(M)

    candidates = [ric]
    if got["D"] is not None:
        candidates.append(got["D"])
        bumped = dense(got["D"])
        bumped[r % d][s % d] += 1
        candidates.append(Matrix(bumped))
    for X in candidates:
        assert is_derivation(L, X) == fraction_is_derivation(L, X)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(family_metrics(), st.integers(0, 15), st.integers(0, 15))
def test_family_kernels_equal_the_fraction_oracle(M, r, s):
    assert_kernels_match(M, r, s)


@SLOW
@given(random_gram_metrics(), st.integers(0, 7), st.integers(0, 7))
def test_random_gram_kernels_equal_the_fraction_oracle(M, r, s):
    assert_kernels_match(M, r, s)


# --- the Jacobi witness ------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_family_has_no_jacobi_witness(n):
    L = build_lie_algebra(n)
    assert _jacobi_witness(L) is None is fraction_jacobi_witness(L)


@FAST
@given(random_algebras())
def test_jacobi_witness_equals_the_fraction_oracle(L):
    got = _jacobi_witness(L)
    assert got == fraction_jacobi_witness(L)
    if got is not None:
        assert all(type(x) is Fraction for x in got[3])


# --- the splitting report ------------------------------------------------------


def assert_same_report(L, a, G):
    assert verify_splitting(L, a, G) == fraction_verify_splitting(L, a, G)


@SLOW
@given(family_params(), st.data())
def test_family_splitting_report_equals_the_fraction_oracle(p, data):
    M = metric_algebra(p)
    assert_same_report(M.L, family_splitting(p.n), M.G)
    assert_same_report(M.L, data.draw(random_splittings(M.dim)), M.G)


@FAST
@given(random_algebras(), st.data())
def test_random_splitting_report_equals_the_fraction_oracle(L, data):
    assert_same_report(L, data.draw(random_splittings(L.dim)), identity(L.dim))


# --- rref, inverse and products ----------------------------------------------


@FAST
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(small_fractions, min_size=n, max_size=n), min_size=1, max_size=6
)))
def test_rref_equals_the_fraction_oracle(rows):
    pivots, leads = rref(int_row(row) for row in rows)
    want, want_leads = fraction_rref(dict(enumerate(row)) for row in rows)
    assert {
        pc: {c: Fraction(v, row[pc]) for c, v in row.items()} for pc, row in pivots.items()
    } == want
    assert [None if lead is None else lead[0] for lead in leads] == [
        None if lead is None else lead[0] for lead in want_leads
    ]
    assert all(
        (a is None) == (b is None) and (a is None or (a[1] > 0) == (b[1] > 0))
        for a, b in zip(leads, want_leads)
    )


@SLOW
@given(family_params())
def test_family_inverse_equals_the_fraction_oracle(p):
    M = metric_algebra(p)
    assert inverse(M.G) == fraction_inverse(M.G) == M.Ginv
    # the intertwining P ric = ric_coords P needs an invertible P
    P = build_embedding(p, M.G)
    assert fraction_matmul(fraction_inverse(P), P) == identity(p.dim)


@FAST
@given(st.integers(1, 6).flatmap(random_grams))
def test_random_gram_inverse_equals_the_fraction_oracle(G):
    assert inverse(G) == fraction_inverse(G)


@st.composite
def symmetric_integer_matrices(draw):
    """Symmetric d x d integer matrices, d = 1 to 4, with a diagonal leaning
    positive so that both verdicts of Sylvester's criterion come up."""
    d = draw(st.integers(1, 4))
    rows = [[0] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = draw(st.integers(-2, 12))
        for j in range(i + 1, d):
            rows[i][j] = rows[j][i] = draw(st.integers(-4, 4))
    return Matrix(rows)


@FAST
@given(symmetric_integer_matrices())
@example(Matrix([[2, 1], [1, 2]]))
@example(Matrix([[1, 2], [2, 4]]))  # second leading minor 0
@example(Matrix([[0, 1], [1, 0]]))  # first leading minor 0
@example(Matrix([[1, 0, 0], [0, 2, 3], [0, 3, 1]]))  # indefinite
def test_inverse_as_the_leading_minors_and_the_fraction_oracle(G):
    if all(m > 0 for m in leading_minors(G)):
        assert inverse(G) == fraction_inverse(G)
    else:
        with pytest.raises(ValueError, match="^matrix is not positive definite$"):
            inverse(G)


@FAST
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(square_matrices(d), square_matrices(d))))
def test_matmul_equals_the_fraction_oracle(pair):
    A, B = pair
    assert A @ B == fraction_matmul(A, B)


@SLOW
@given(family_params(), st.data())
def test_coordinate_route_equals_the_fraction_oracle(p, data):
    # the report's intertwining P ric = ric_coords P against the oracle's
    # conjugation P^{-1} ric_coords P = ric, on the route and on a bumped one
    M = metric_algebra(p)
    P = build_embedding(p, M.G)
    coords = ricci_endomorphism_coords(p)

    def verdicts(coords):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hypersurface, "ricci_endomorphism_coords", lambda p: coords)
            reported = cli._ricci_agreement(p, M)["koszul_vs_coordinates"]
        conjugated = fraction_matmul(fraction_matmul(fraction_inverse(P), coords), P)
        return reported, conjugated == M.ric

    assert verdicts(coords) == (True, True)
    i, j = data.draw(st.tuples(st.integers(0, p.dim - 1), st.integers(0, p.dim - 1)))
    bump = Matrix.from_table([{j: 1} if r == i else {} for r in range(p.dim)], 1000, p.dim)
    assert verdicts(coords + bump) == (False, False)


# --- the checklist route ---------------------------------------------------------


@SLOW
@given(family_params())
def test_family_lauret_verdict_equals_the_fraction_oracle(p):
    M = metric_algebra(p)
    a = family_splitting(p.n)
    assert checklist_verdict(M, a) == fraction_soliton_check_lauret(M, a)


@SLOW
@given(st.integers(1, 2), st.data())
def test_random_gram_lauret_verdict_equals_the_fraction_oracle(n, data):
    L = build_lie_algebra(n)
    G = dense(data.draw(random_grams(L.dim)))
    a = family_splitting(n)
    # the checklist needs the abelian part orthogonal to the nilradical
    for i in a:
        for j in range(L.dim):
            if j not in a:
                G[i][j] = G[j][i] = Fraction(0)
    M = MetricLieAlgebra(L, Matrix(G))
    assert checklist_verdict(M, a) == fraction_soliton_check_lauret(M, a)


@FAST
@given(random_grams(2), random_grams(3))
@example(Matrix.diagonal([Fraction(4, 3)] * 2), identity(3))
@example(Matrix([[Fraction(4, 3), Fraction(2, 3)], [Fraction(2, 3), Fraction(4, 3)]]), identity(3))
def test_two_abelian_lauret_verdict_equals_the_fraction_oracle(Ga, Gn):
    # Block Grams on the abelian part and the nilradical; the examples are
    # two_abelian_gram at <A1, A2> = 0 and 2/3.
    G = [[Fraction(0)] * 5 for _ in range(5)]
    for block, idx in ((Ga, (0, 1)), (Gn, (2, 3, 4))):
        for r, i in enumerate(idx):
            for c, j in enumerate(idx):
                G[i][j] = block[r, c]
    M = MetricLieAlgebra(TWO_ABELIAN, Matrix(G))
    a = TWO_ABELIAN_SPLITTING
    assert checklist_verdict(M, a) == fraction_soliton_check_lauret(M, a)
