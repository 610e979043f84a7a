"""The integer curvature kernels equal their Fraction references exactly.

``connection_coeffs``, ``ricci_bilinear``, ``ricci_endomorphism_koszul``,
the direct soliton verdict and ``is_derivation`` run on integers over
cleared denominators; ``tests/oracles.py`` keeps the same loops over
``Fraction`` entries.  The draws cover the family at n = 1..4 with rho and c
of 1 to 12 bits (c = 0 in part of them), and random rational Gram matrices
with non-diagonal inverses.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    fraction_connection_coeffs,
    fraction_direct_verdict,
    fraction_is_derivation,
    fraction_ricci_bilinear,
    fraction_ricci_endomorphism,
)

from solvsoliton.family import FamilyParams, build_lie_algebra, metric_algebra
from solvsoliton.lie_core import is_derivation
from solvsoliton.linalg import Matrix
from solvsoliton.metric_lie import (
    MetricLieAlgebra,
    connection_coeffs,
    ricci_bilinear,
    ricci_endomorphism_koszul,
    soliton_check_direct,
)


@st.composite
def bits_rational(draw):
    """p/q with p and q of 1 to 12 bits each."""

    def part():
        bits = draw(st.integers(1, 12))
        return draw(st.integers(2 ** (bits - 1), 2**bits - 1))

    return Fraction(part(), part())


@st.composite
def family_metrics(draw):
    n = draw(st.integers(1, 4))
    rho = draw(bits_rational())
    c = draw(st.one_of(st.just(Fraction(0)), bits_rational()))
    return metric_algebra(FamilyParams(n, rho, c))


@st.composite
def random_gram_metrics(draw):
    """The family algebra at n = 1 or 2 under G = B^T B + I for a random
    rational B, so that every row of G^{-1} is dense."""
    L = build_lie_algebra(draw(st.integers(1, 2)))
    d = L.dim
    entry = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 9))
    B = Matrix(draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)))
    return MetricLieAlgebra(L, B.transpose() @ B + Matrix.identity(d))


def assert_kernels_match(M: MetricLieAlgebra, r: int, s: int):
    L, d = M.L, M.dim
    gamma, S = connection_coeffs(M)
    assert all(type(x) is int for row in gamma for col in row for x in col.values())
    assert [
        [{k: Fraction(x, S) for k, x in col.items()} for col in row] for row in gamma
    ] == fraction_connection_coeffs(M)
    assert ricci_bilinear(M) == fraction_ricci_bilinear(M)
    ric = ricci_endomorphism_koszul(M)
    assert ric == fraction_ricci_endomorphism(M)

    got, want = soliton_check_direct(M), fraction_direct_verdict(M)
    assert got.status == want.status
    assert got.lambda_ == want.lambda_
    assert got.D == want.D

    candidates = [ric]
    if got.D is not None:
        candidates.append(got.D)
        bumped = Matrix(got.D.data)
        bumped.data[r % d][s % d] += 1
        candidates.append(bumped)
    for X in candidates:
        assert is_derivation(L, X) == fraction_is_derivation(L, X)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(family_metrics(), st.integers(0, 15), st.integers(0, 15))
def test_family_kernels_equal_the_fraction_oracle(M, r, s):
    assert_kernels_match(M, r, s)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(random_gram_metrics(), st.integers(0, 7), st.integers(0, 7))
def test_random_gram_kernels_equal_the_fraction_oracle(M, r, s):
    assert_kernels_match(M, r, s)
