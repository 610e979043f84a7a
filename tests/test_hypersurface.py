"""Warp data, shape operator, and the jet-based hypersurface Ricci formula."""

from fractions import Fraction
from itertools import combinations

import pytest
from oracles import Jet2, expected_closed_forms

from solvsoliton.family import (
    FamilyParams,
    build_embedding,
    expected_ric_matrix,
    metric_algebra,
    ricci_eigenvalue_formulas,
    slice_multiplicities,
)
from solvsoliton.hypersurface import (
    hypersurface_ricci_general,
    ricci_endomorphism_coords,
    shape_operator,
    trace_identity_check,
)
from solvsoliton.linalg import Matrix, inverse

# Pointwise checks on a grid with at least 6 distinct rho and 6 distinct c
# values: every identity below is a rational-function identity of degree at
# most 4 in each of rho and c, so exact agreement on a 6x6 grid already
# certifies the identity as functions, not just at spot values.
RHO_GRID = [Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2), Fraction(1, 3), Fraction(7, 2)]
C_GRID = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(1, 5), Fraction(3)]


def displayed_h(p):
    """The displayed block functions h_i as jets in rho, in coordinate order
    for n = 2: d/drho g = -(1/rho) diag(h1 g_b, h2 g_phi, h3 g_z0, g_zrest)."""
    rv, c = Jet2.variable(p.rho), p.c
    h1 = c / (rv + c)
    h2 = (2 * rv**2 + 5 * c * rv + 4 * c**2) / ((rv + c) * (rv + 2 * c))
    h3 = (rv + 4 * c) / (rv + 2 * c)
    one = Jet2(1)
    return [h1, h1, h2, h3, h3, one, one]


def displayed_slice(p):
    """The displayed slice entries (b, phi, z0, zrest) as jets in rho, in
    coordinate order."""
    rv, c = Jet2.variable(p.rho), p.c
    b = (rv + c) / (4 * rv)
    phi = (rv + c) / (4 * rv**2 * (rv + 2 * c))
    z0 = (rv + 2 * c) / (2 * rv**2)
    zrest = 1 / (2 * rv)
    return [b] * (2 * p.n - 2) + [phi] + [z0] * 2 + [zrest] * (2 * p.n - 2)


def ratios(jet):
    """(g, g'/g, g''/g) of a jet, the form the power rule returns."""
    return jet.v, jet.d1 / jet.v, jet.d2 / jet.v


class TestWarpData:
    def test_f_value(self):
        f, _, _ = FamilyParams(2, Fraction(1), Fraction(1)).warp_jet
        assert f == Fraction(3, 8)

    def test_fprime_over_f(self):
        # f'/f = -(2 rho^2 + 7 c rho + 4 c^2)/(rho (rho+c) (rho+2c))
        p = FamilyParams(2, Fraction(2), Fraction(1))
        _, fprime_over_f, _ = p.warp_jet
        rho, c = p.rho, p.c
        assert fprime_over_f == -(2 * rho**2 + 7 * c * rho + 4 * c**2) / (
            rho * (rho + c) * (rho + 2 * c)
        )

    def test_matches_displayed_formula_on_grid(self):
        for rho in RHO_GRID:
            for c in C_GRID:
                rv = Jet2.variable(rho)
                f = (rv + 2 * c) / (4 * rv**2 * (rv + c))
                assert FamilyParams(1, rho, c).warp_jet == ratios(f)


class TestCoordinateGram:
    def test_n1_values(self):
        G = FamilyParams(1, Fraction(1), Fraction(0)).slice_jets
        assert [g for g, _, _ in G] == [
            Fraction(1, 4),
            Fraction(1, 2),
            Fraction(1, 2),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_displayed_entries_on_grid(self, n):
        for rho in RHO_GRID:
            for c in C_GRID:
                p = FamilyParams(n, rho, c)
                assert p.slice_jets == [ratios(x) for x in displayed_slice(p)]

    def test_phi_entry_first_derivative(self):
        # d/drho of the phi entry equals the displayed
        # -(1/(4 rho^3)) (2 rho^2 + 5 c rho + 4 c^2)/(rho+2c)^2
        for rho in RHO_GRID:
            for c in C_GRID:
                phi, phi_d1, _ = FamilyParams(2, rho, c).slice_jets[2]
                display = -(2 * rho**2 + 5 * c * rho + 4 * c**2) / (
                    4 * rho**3 * (rho + 2 * c) ** 2
                )
                assert phi * phi_d1 == display

    def test_derivative_matches_h_factorization(self):
        # d/drho g = -(1/rho) diag(h1 g_b, h2 g_phi, h3 g_z0, g_zrest)
        for rho in RHO_GRID[:3]:
            for c in C_GRID[:3]:
                p = FamilyParams(2, rho, c)
                for (_, d1, _), h in zip(p.slice_jets, displayed_h(p)):
                    assert d1 == -h.v / rho

    def test_entries_positive(self):
        for rho in RHO_GRID:
            for c in C_GRID:
                G = FamilyParams(3, rho, c).slice_jets
                assert all(g > 0 for g, _, _ in G)


class TestRadialEndomorphism:
    @pytest.mark.parametrize("rho", RHO_GRID[:3])
    @pytest.mark.parametrize("c", C_GRID[:3])
    def test_against_displayed_block_form(self, rho, c):
        # A_i = g_i'/(2 g_i) is -(1/2 rho) diag(h1 1_{2n-2}, h2, h3 1_2,
        # 1_{2n-2}), and its rho-derivative (g_i''/g_i - (g_i'/g_i)^2)/2 is
        # (1/2 rho^2) diag(h_i - rho h_i', ..., 1)
        p = FamilyParams(2, rho, c)
        for (_, d1, d2), h in zip(p.slice_jets, displayed_h(p)):
            assert d1 / 2 == -h.v / (2 * rho)
            assert (d2 - d1**2) / 2 == (h.v - rho * h.d1) / (2 * rho**2)


class TestShapeOperator:
    def test_c0_spectrum(self):
        sigma, _, q = shape_operator(FamilyParams(2, Fraction(1), Fraction(0)))
        assert sigma == (0, 2, 1, 1) and q == 1

    def test_sigma1_closed_form(self):
        sigma, _, q = shape_operator(FamilyParams(2, Fraction(1), Fraction(1)))
        # (1/2) sqrt(2/3) = (1/6) sqrt(6)
        assert (sigma[0], q) == (Fraction(1, 6), 6)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_closed_forms_on_grid(self, n):
        for rho in RHO_GRID:
            for c in C_GRID:
                p = FamilyParams(n, rho, c)
                sigma, trace, q = shape_operator(p)
                forms = expected_closed_forms(p)
                assert sigma == tuple(forms.sigma)
                assert trace == forms.tr_shape
                assert q == forms.q
                assert slice_multiplicities(n) == forms.sigma_multiplicities

    def test_strict_convexity_for_positive_c(self):
        # every value is x*sqrt(q), so its sign is that of x
        for c in C_GRID[1:]:
            sigma, _, _ = shape_operator(FamilyParams(2, Fraction(1), c))
            assert all(x > 0 for x in sigma)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_radicand_factoring_per_shape_operator(self, n, monkeypatch):
        from solvsoliton import scalars

        calls = []
        decompose = scalars._squarefree_decompose

        def counted(k):
            calls.append(k)
            return decompose(k)

        monkeypatch.setattr(scalars, "_squarefree_decompose", counted)
        for c in C_GRID[1:]:
            calls.clear()
            shape_operator(FamilyParams(n, Fraction(11, 13), c))
            assert len(calls) == 1

    def test_sigma1_vanishes_at_c0(self):
        for n in (2, 3):
            sigma, _, _ = shape_operator(FamilyParams(n, Fraction(3), Fraction(0)))
            assert sigma[0] == 0


class TestGeneralRicciFormula:
    @pytest.mark.parametrize("rho", [Fraction(3, 2), 1.5])
    def test_round_sphere_fixture(self, rho):
        # Concentric 2-spheres in flat R^3: g_i = rho^2, f = 1, lambda = 0
        # must give the classical Ricci endomorphism (1/rho^2) I, exactly over
        # Fraction and to rounding over float.
        one = rho / rho
        ric = hypersurface_ricci_general([rho**2] * 2, [2 * rho] * 2, [2 * one] * 2, one, 0 * one, 0)
        assert [type(r) for r in ric] == [type(rho)] * 2
        assert all(abs(r - 1 / rho**2) <= 1e-15 for r in ric)
        if isinstance(rho, Fraction):
            assert ric == [1 / rho**2] * 2

    def test_zero_warp_rejected(self):
        with pytest.raises(ZeroDivisionError):
            hypersurface_ricci_general([Fraction(1)], [0], [0], Fraction(0), 1, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_jet_ratios_give_the_ricci_of_the_jets(self, n):
        # Ric_i/g_i reads g_i only through g_i'/g_i and g_i''/g_i, so passing
        # the ratios with a unit entry equals passing g, g' and g''.
        for rho, c in ((Fraction(11, 13), Fraction(9, 14)), (Fraction(5, 3), 0), (7, Fraction(2, 9))):
            p = FamilyParams(n, rho, c)
            f, f_d1, _ = p.warp_jet
            jets = p.slice_jets
            ric = hypersurface_ricci_general(
                [g for g, _, _ in jets],
                [g * d1 for g, d1, _ in jets],
                [g * d2 for g, _, d2 in jets],
                f,
                f * f_d1,
                Fraction(-2 * (n + 2)),
            )
            assert ricci_endomorphism_coords(p) == Matrix.diagonal(ric)

    def test_family_n2_c0_coordinate_diagonal(self):
        endo = ricci_endomorphism_coords(FamilyParams(2, Fraction(1), Fraction(0)))
        assert endo == Matrix.diagonal([-8, -8, 4, -2, -2, -2, -2])

    def test_family_n1_values(self):
        # coordinate order (phi, zt0, z0): eigenvalues (r2, r3, r3)
        p = FamilyParams(1, Fraction(2), Fraction(1))
        endo = ricci_endomorphism_coords(p)
        k = 2 * p.rho**2 * (p.rho + p.c) / (p.rho + 2 * p.c) ** 3
        assert endo == Matrix.diagonal([k, -k, -k])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_spectrum_on_grid(self, n):
        for rho in RHO_GRID:
            for c in C_GRID:
                p = FamilyParams(n, rho, c)
                endo = ricci_endomorphism_coords(p)
                r1, r2, r3, r4 = ricci_eigenvalue_formulas(n, rho, c)
                expected = (
                    [r1] * (2 * n - 2) + [r2] + [r3] * 2 + [r4] * (2 * n - 2)
                )
                assert endo == Matrix.diagonal(expected)

    @pytest.mark.parametrize("n", [2, 3])
    def test_three_way_agreement(self, n):
        for rho in RHO_GRID[:3]:
            for c in C_GRID[:3]:
                p = FamilyParams(n, rho, c)
                M = metric_algebra(p)
                P = build_embedding(p, M.G)
                conjugated = inverse(P) @ ricci_endomorphism_coords(p) @ P
                koszul = M.ric
                assert conjugated == koszul == expected_ric_matrix(p)


class TestPrincipalRicci:
    def test_n3_c0(self):
        assert ricci_eigenvalue_formulas(3, Fraction(1), Fraction(0)) == (
            -10,
            6,
            -2,
            -2,
        )

    def test_r4_values(self):
        assert ricci_eigenvalue_formulas(2, Fraction(1), Fraction(1))[3] == Fraction(-8, 3)

    def test_r1_n2(self):
        assert ricci_eigenvalue_formulas(2, Fraction(1), Fraction(1))[0] == -5

    def test_r3_equals_r4_iff_c0(self):
        for rho in RHO_GRID:
            r = ricci_eigenvalue_formulas(2, rho, Fraction(0))
            assert r[2] == r[3] == -2

    def test_pairwise_distinct_for_positive_c(self):
        for n in (2, 3):
            for rho in RHO_GRID:
                for c in C_GRID[1:]:
                    r = ricci_eigenvalue_formulas(n, rho, c)
                    for a, b in combinations(r, 2):
                        assert a != b


class TestTraceIdentity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_holds_on_grid(self, n):
        for rho in RHO_GRID:
            for c in C_GRID:
                assert trace_identity_check(FamilyParams(n, rho, c))

    def test_corrupted_warp_detected(self):
        # dropping the (rho+c) factor from f breaks the identity
        p = FamilyParams(1, Fraction(1), Fraction(1))
        rv = Jet2.variable(p.rho)
        bad_f = (rv + 2 * p.c) / (4 * rv**2)
        lhs = sum(d1 for _, d1, _ in p.slice_jets) - bad_f.d1 / bad_f.v
        assert lhs != -8 * p.n * p.rho * bad_f.v
