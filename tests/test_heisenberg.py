"""The Heisenberg case n = 1 through the general builders.

At n = 1 the solvable part is empty, and the family builders, the shape
operator and the CLI's principal Ricci curvatures reach it through their
general bodies.  Each must equal the n = 1 case stated apart in
``oracles`` (``heisenberg_*``), at random (rho, c) with c = 0 included.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    heisenberg_coordinate_names,
    heisenberg_embedding,
    heisenberg_gram,
    heisenberg_principal_ricci,
    heisenberg_ric_matrix,
    heisenberg_shape_operator,
    heisenberg_slice_diagonal,
    same_root_multiples,
)

from solvsoliton import cli
from solvsoliton.family import (
    FamilyParams,
    build_embedding,
    build_gram,
    coordinate_names,
    expected_ric_matrix,
    slice_diagonal,
    slice_multiplicities,
)
from solvsoliton.hypersurface import shape_operator

rationals = st.builds(Fraction, st.integers(1, 4095), st.integers(1, 4095))


def test_coordinate_names():
    assert coordinate_names(1) == heisenberg_coordinate_names()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(rationals, st.one_of(st.just(Fraction(0)), rationals))
def test_general_bodies_equal_the_heisenberg_branches(rho, c):
    p = FamilyParams(1, rho, c)
    gram = build_gram(p)
    assert gram == heisenberg_gram(p)
    assert build_embedding(p, gram) == heisenberg_embedding(p)
    assert expected_ric_matrix(p) == heisenberg_ric_matrix(p)
    assert slice_diagonal(1, c) == heisenberg_slice_diagonal(c)
    assert cli._principal_ricci(p) == heisenberg_principal_ricci(p)
    sigma, trace, q = shape_operator(p)
    h_sigma, h_trace, h_q = heisenberg_shape_operator(p)
    assert same_root_multiples((*sigma, trace), q, (*h_sigma, h_trace), h_q)


def test_slice_multiplicities():
    assert slice_multiplicities(1) == (0, 1, 2, 0)
