"""Floating-point ambient metric engine: assembly, curvature, consistency."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvsoliton.coord_engine import (
    EIGENVALUE_TOL,
    GRAM_TOL,
    AmbientMetric,
    einstein_check,
    einstein_residual,
    induced_consistency,
    off_center_points,
    p_rho_point,
    ricci_from_jets,
)
from solvsoliton.family import (
    FamilyParams,
    coordinate_gram_values,
    ricci_eigenvalue_formulas,
    slice_multiplicities,
)


def dense_jets(g, dg, d2g):
    """The engine's jets as numpy arrays, with the sparse upper-triangle
    d2g[k, l][i, j] (k <= l, i <= j) expanded to the full m^4 tensor."""
    m = len(g)
    full = np.zeros((m, m, m, m))
    for (k, l), block in d2g.items():
        for (i, j), v in block.items():
            full[k, l, i, j] = full[l, k, i, j] = v
            full[k, l, j, i] = full[l, k, j, i] = v
    return np.array(g), np.array(dg), full


def sparse_d2g(d2g: np.ndarray) -> dict:
    """The upper-triangle form of a dense d2g that ricci_from_jets reads."""
    m = d2g.shape[0]
    return {
        (k, l): {(i, j): d2g[k, l, i, j] for i in range(m) for j in range(i, m)}
        for k in range(m)
        for l in range(k, m)
    }


def engine_ricci(g, dg, d2g):
    """ricci_from_jets on dense numpy jets, as a numpy array."""
    return np.array(ricci_from_jets(g.tolist(), dg.tolist(), sparse_d2g(d2g)))


def metric_value_by_complex_arithmetic(n: int, c: float, pt: np.ndarray) -> np.ndarray:
    """Direct evaluation of the displayed metric with python complex numbers.

    Independent of the jet engine: one-forms are complex coefficient vectors
    over the real coordinate differentials, and each displayed term is
    accumulated with plain complex arithmetic.
    """
    m = 4 * n
    rho = pt[0]
    i_b = lambda a: 1 + 2 * (a - 1)
    i_t = lambda a: 2 + 2 * (a - 1)
    i_phi = 2 * n - 1
    i_zt = lambda k: 2 * n + 2 * k
    i_z = lambda k: 2 * n + 2 * k + 1

    X = {a: 0.5 * (pt[i_b(a)] + 1j * pt[i_t(a)]) for a in range(1, n)}
    w0 = 0.5 * (pt[i_zt(0)] + 1j * pt[i_z(0)])
    w = {a: 0.5 * (pt[i_zt(a)] - 1j * pt[i_z(a)]) for a in range(1, n)}
    norm_x_sq = sum(abs(x) ** 2 for x in X.values())
    one_minus = 1.0 - norm_x_sq

    dX = {a: np.zeros(m, dtype=complex) for a in range(1, n)}
    for a in range(1, n):
        dX[a][i_b(a)] = 0.5
        dX[a][i_t(a)] = 0.5j
    dw0 = np.zeros(m, dtype=complex)
    dw0[i_zt(0)], dw0[i_z(0)] = 0.5, 0.5j
    dw = {a: np.zeros(m, dtype=complex) for a in range(1, n)}
    for a in range(1, n):
        dw[a][i_zt(a)], dw[a][i_z(a)] = 0.5, -0.5j

    def herm(alpha):
        return np.real(np.outer(alpha, np.conj(alpha)))

    g = np.zeros((m, m))
    f = (rho + 2 * c) / (4 * rho**2 * (rho + c))
    g[0, 0] += f

    omega = np.zeros(m, dtype=complex)
    for a in range(1, n):
        omega += np.conj(X[a]) * dX[a]
    if n > 1:
        coeff1 = (rho + c) / rho / one_minus
        for a in range(1, n):
            g += coeff1 * herm(dX[a])
        g += coeff1 / one_minus * herm(omega)

    eta = np.zeros(m)
    eta[i_phi] = 1.0
    eta -= 4.0 * np.imag(np.conj(w0) * dw0)
    for a in range(1, n):
        eta += 4.0 * np.imag(np.conj(w[a]) * dw[a])
    if n > 1:
        eta += (2.0 * c / one_minus) * np.imag(omega)
    g += (rho + c) / (rho + 2 * c) / (4 * rho**2) * np.outer(eta, eta)

    g += -2.0 / rho * herm(dw0)
    for a in range(1, n):
        g += 2.0 / rho * herm(dw[a])

    psi = dw0.copy()
    for a in range(1, n):
        psi += X[a] * dw[a]
    g += (rho + c) / rho**2 * (4.0 / one_minus) * herm(psi)
    return g


class TestAssembly:
    @pytest.mark.parametrize(
        "n,rho,c", [(1, 1.0, 0.0), (1, 2.0, 0.0), (2, 1.0, 1.0), (3, 2.0, 0.5)]
    )
    def test_block_form_at_base_point(self, n, rho, c):
        M = AmbientMetric(n, c)
        g = np.array(M.jets(p_rho_point(n, rho))[0])
        f = (rho + 2 * c) / (4 * rho**2 * (rho + c))
        assert abs(g[0, 0] - f) < 1e-12
        assert np.max(np.abs(g[0, 1:])) < 1e-12
        p = FamilyParams(n, Fraction(rho), Fraction(c))
        coord = np.diag([float(x) for x in coordinate_gram_values(p)])
        assert np.max(np.abs(g[1:, 1:] - coord)) < 1e-12

    @pytest.mark.parametrize("n,c", [(1, 0.5), (2, 1.0), (3, 0.25)])
    def test_matches_direct_complex_arithmetic(self, n, c):
        # pins the real-coordinate expansion of every displayed term
        M = AmbientMetric(n, c)
        for pt in off_center_points(n, seed=555):
            g = np.array(M.jets(pt)[0])
            gc = metric_value_by_complex_arithmetic(n, c, np.array(pt))
            assert np.max(np.abs(g - gc)) < 1e-13
            assert np.max(np.abs(g - g.T)) == 0.0

    def test_positive_definite_at_points(self):
        M = AmbientMetric(2, 1.0)
        for pt in off_center_points(2):
            eig = np.linalg.eigvalsh(np.array(M.jets(pt)[0]))
            assert eig.min() > 0

    def test_domain_validation(self):
        M = AmbientMetric(2, 1.0)
        bad = p_rho_point(2, 1.0)
        bad[1] = 2.1  # pushes ||X|| past the disc boundary
        with pytest.raises(ValueError):
            M.jets(bad)
        with pytest.raises(ValueError):
            M.jets(np.zeros(8))  # rho = 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("c", [0.0, 9 / 14])
    def test_derivatives_match_central_differences(self, n, c):
        # the engine differentiates analytically; here the independent
        # complex-arithmetic evaluation is differenced instead
        M = AmbientMetric(n, c)
        m, h = 4 * n, 1e-4
        unit = np.eye(m) * h
        value = lambda x: metric_value_by_complex_arithmetic(n, c, x)
        for pt in map(np.array, off_center_points(n)):
            _, dg, d2g = dense_jets(*M.jets(pt))

            def second(ek, el):
                plus = value(pt + ek + el) + value(pt - ek - el)
                return (plus - value(pt + ek - el) - value(pt - ek + el)) / (4 * h * h)

            fd1 = np.array([(value(pt + e) - value(pt - e)) / (2 * h) for e in unit])
            fd2 = np.array([[second(ek, el) for el in unit] for ek in unit])
            assert np.max(np.abs(dg - fd1)) < 1e-6 * np.max(np.abs(dg))
            assert np.max(np.abs(d2g - fd2)) < 1e-6 * np.max(np.abs(d2g))


def ricci_full_einsum(g, dg, d2g):
    """Reference Ricci tensor from the full dGamma tensor, O(m^5) einsums."""
    ginv = np.linalg.inv(g)
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
    s = np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, s)
    ds = (
        np.einsum("milj->mlij", d2g)
        + np.einsum("mjli->mlij", d2g)
        - np.einsum("mlij->mlij", d2g)
    )
    dgamma = 0.5 * (
        np.einsum("mkl,lij->mkij", dginv, s) + np.einsum("kl,mlij->mkij", ginv, ds)
    )
    t1 = np.einsum("kkij->ij", dgamma)
    t2 = np.einsum("jkik->ij", dgamma)
    t3 = np.einsum("kkl,lij->ij", gamma, gamma)
    t4 = np.einsum("kjl,lik->ij", gamma, gamma)
    return t1 - t2 + t3 - t4


def random_jets(m: int, seed: int):
    """Seeded SPD g with dg and d2g symmetric in the metric indices and d2g
    symmetric in its derivative indices, as the jets of a metric are."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    g = a @ a.T + m * np.eye(m)
    dg = rng.standard_normal((m, m, m))
    dg = dg + dg.transpose(0, 2, 1)
    d2g = rng.standard_normal((m, m, m, m))
    d2g = d2g + d2g.transpose(0, 1, 3, 2)
    d2g = d2g + d2g.transpose(1, 0, 2, 3)
    return g, dg, d2g


class TestRicciNumeric:
    @pytest.mark.parametrize("m", [5, 8, 12])
    def test_trace_form_matches_full_dgamma(self, m):
        for seed in range(3):
            jets = random_jets(m, seed)
            ref = ricci_full_einsum(*jets)
            ric = engine_ricci(*jets)
            assert np.max(np.abs(ric - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_flat_fixture(self):
        m = 5
        ric = engine_ricci(np.eye(m), np.zeros((m, m, m)), np.zeros((m, m, m, m)))
        assert np.max(np.abs(ric)) == 0.0

    def test_round_sphere_numeric(self):
        # polar coordinates on flat R^2: g = diag(1, r^2); Ricci = 0
        def jets_at(r):
            g = np.diag([1.0, r**2])
            dg = np.zeros((2, 2, 2))
            dg[0, 1, 1] = 2 * r
            d2g = np.zeros((2, 2, 2, 2))
            d2g[0, 0, 1, 1] = 2.0
            return g, dg, d2g

        ric = engine_ricci(*jets_at(1.7))
        assert np.max(np.abs(ric)) < 1e-14

    @pytest.mark.parametrize(
        "n,rho,c",
        [(1, 1.0, 0.0), (1, 1.0, 1.0), (2, 1.0, 1.0), (2, 2.0, 0.5), (3, 1.0, 1.0)],
    )
    def test_einstein_property(self, n, rho, c):
        M = AmbientMetric(n, c)
        lam = -2.0 * (n + 2)
        jets = M.jets(p_rho_point(n, rho))
        ric, g = np.array(ricci_from_jets(*jets)), np.array(jets[0])
        assert np.max(np.abs(ric - lam * g)) / np.max(np.abs(g)) < 1e-8
        for pt in off_center_points(n):
            assert einstein_residual(M.jets(pt)) < 1e-8

    def test_symmetric_space_case_tight(self):
        # c = 0 is the undeformed symmetric metric; residual far below 1e-8
        M = AmbientMetric(1, 0.0)
        assert einstein_residual(M.jets(p_rho_point(1, 1.0))) < 1e-10


@st.composite
def metric_points(draw):
    """(n, c, point): n <= 3, c in [0, 2] and an in-domain point with
    ||X|| <= 1/2, the range of the einstein check's own off-centre points.
    Nearer the ball's boundary the full-einsum oracle loses digits: at
    ||X|| = 0.8 it is 3e-12 from lambda g where the engine is 5e-14."""
    n = draw(st.integers(1, 3))
    c = draw(st.floats(0.0, 2.0))
    rho = draw(st.floats(0.1, 4.0))
    radius = draw(st.floats(0.0, 0.5))
    rest = draw(st.lists(st.floats(-1.0, 1.0), min_size=4 * n - 1, max_size=4 * n - 1))
    bt, rest = rest[: 2 * n - 2], rest[2 * n - 2 :]
    norm = math.sqrt(sum(v * v for v in bt))
    if norm:
        bt = [2.0 * radius * v / norm for v in bt]  # ||X|| = |bt|/2 = radius
    return n, c, [rho, *bt, *rest]


class TestProperties:
    @settings(derandomize=True, deadline=None)
    @given(metric_points())
    def test_engine_matches_oracles(self, case):
        n, c, pt = case
        M = AmbientMetric(n, c)
        jets = M.jets(pt)
        g, dg, d2g = dense_jets(*jets)
        gc = metric_value_by_complex_arithmetic(n, c, np.array(pt))
        assert np.max(np.abs(g - gc)) <= 1e-13 * np.max(np.abs(gc))
        ref = ricci_full_einsum(g, dg, d2g)
        ric = np.array(ricci_from_jets(*jets))
        assert np.max(np.abs(ric - ref)) <= 1e-12 * np.max(np.abs(ref))


def induced_at_p_rho(p: FamilyParams) -> tuple:
    """induced_consistency on the ambient jets at p's p_rho."""
    M = AmbientMetric(p.n, float(p.c))
    return induced_consistency(M.jets(p_rho_point(p.n, float(p.rho))), p)


class TestInducedConsistency:
    @pytest.mark.parametrize(
        "n,rho,c",
        [
            (2, Fraction(1), Fraction(0)),
            (1, Fraction(1), Fraction(1)),
            (3, Fraction(2), Fraction(1, 2)),
        ],
    )
    def test_report(self, n, rho, c):
        gram_err, eigenvalue_err = induced_at_p_rho(FamilyParams(n, rho, c))
        assert gram_err < 1e-12
        assert eigenvalue_err < 1e-8

    def test_n2_c0_eigenvalue_multiset(self):
        # coordinate order (b1, t1, phi, zt0, z0, zt1, z1): r1, r1, r2, r3, r3, r4, r4
        p = FamilyParams(2, Fraction(1), Fraction(0))
        r = ricci_eigenvalue_formulas(p.n, p.rho, p.c)
        multiset = [x for x, m in zip(r, slice_multiplicities(p.n)) for _ in range(m)]
        assert multiset == [-8, -8, 4, -2, -2, -2, -2]
        assert induced_at_p_rho(p)[1] < 1e-12

    @pytest.mark.parametrize("block", ["drho", "drho2"])
    def test_off_diagonal_slice_derivative_fails(self, block):
        # The entrywise slice Ricci reads only the diagonals of the rho-jets,
        # so an off-diagonal entry there must count as a Gram error.  The
        # (b1, phi) pair has distinct Ricci eigenvalues r1 != r2, so the
        # perturbation moves no eigenvalue to first order.
        p = FamilyParams(2, Fraction(11, 13), Fraction(9, 14))
        g, dg, d2g = AmbientMetric(2, float(p.c)).jets(p_rho_point(2, float(p.rho)))
        gram_err, eigenvalue_err = induced_consistency((g, dg, d2g), p)
        assert gram_err < GRAM_TOL and eigenvalue_err < EIGENVALUE_TOL
        if block == "drho":
            eps = 1e-6 * np.max(np.abs(np.array(dg[0])[1:, 1:]))
            dg[0][1][3] += eps
            dg[0][3][1] += eps
        else:  # d2g holds the upper triangle i <= j only
            eps = 1e-6 * max(abs(v) for (i, _), v in d2g[0, 0].items() if i >= 1)
            d2g[0, 0][1, 3] = d2g[0, 0].get((1, 3), 0.0) + eps
        gram_err, eigenvalue_err = induced_consistency((g, dg, d2g), p)
        assert gram_err > 1e-7
        assert eigenvalue_err < EIGENVALUE_TOL

    @pytest.mark.parametrize("rho", [Fraction(1), Fraction(1, 10**5), Fraction(10**10)])
    def test_perturbed_slice_gram_fails_at_every_scale(self, monkeypatch, rho):
        from solvsoliton import coord_engine

        p = FamilyParams(2, rho, Fraction(0))
        assert einstein_check(p)[3]
        exact = coordinate_gram_values(p)

        def perturbed(q):
            values = list(exact)
            k = values.index(max(values))
            values[k] = float(values[k]) * (1 + 1e-9)
            return values

        monkeypatch.setattr(coord_engine, "coordinate_gram_values", perturbed)
        _, gram_err, _, ok = einstein_check(p)
        assert 1e-10 < gram_err < 1e-8
        assert not ok

    def test_off_center_points_stay_in_domain(self):
        for n in (1, 2, 3):
            for pt in off_center_points(n):
                norm_x_sq = sum(v * v for v in pt[1 : 2 * n - 1]) / 4.0
                assert pt[0] > 0 and norm_x_sq <= 0.25


def test_einstein_check_refuses_a_non_finite_metric():
    # at n = 2, c = 1e300 the second X-derivatives of g, of order c^2, are inf
    p = FamilyParams(2, Fraction(1), Fraction(10**300))
    with pytest.raises(ValueError) as info:
        einstein_check(p)
    assert str(info.value) == (
        "the float metric is not finite and invertible at rho=1, c=1e+300"
    )


@pytest.mark.parametrize(
    "rho, c",
    [("1e400", "0"), ("1e-400", "0"), ("1e-320", "0"), ("1e-310", "0"), ("1", "1e400")],
)
def test_einstein_check_refuses_rho_or_c_outside_float_range(rho, c):
    # 1e400 overflows a float, 1e-400 rounds to 0, and 1e-320 and 1e-310
    # are subnormal
    with pytest.raises(ValueError) as info:
        einstein_check(FamilyParams(2, Fraction(rho), Fraction(c)))
    assert str(info.value) == "einstein needs rho and c within float range"
