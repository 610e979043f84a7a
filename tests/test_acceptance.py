"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Exact-path criteria assert with zero tolerance (Fraction equality); the
numeric ambient criterion carries its stated float tolerances.  Criteria 1
and 7 also enforce their runtime budgets.
"""

import math
import random
import time
from fractions import Fraction

from oracles import (
    add,
    adjoint_operator,
    conjugated_blocks,
    expected_ad_h_sym,
    expected_closed_forms,
    expected_killing_operator,
    expected_mean_curvature,
    expected_normality_commutator,
    killing_form,
    lauret_terms,
    mean_curvature_vector,
    nullspace,
    times_sqrt,
    trace,
    zeros,
)

from solvsoliton import family
from solvsoliton.coord_engine import einstein_check
from solvsoliton.family import (
    FamilyParams,
    build_delta,
    build_gram,
    build_lie_algebra,
    expected_ric_matrix,
    family_splitting,
    ricci_eigenvalue_formulas,
)
from solvsoliton.hypersurface import (
    ricci_endomorphism_coords,
    shape_operator,
    trace_identity_check,
)
from solvsoliton.lie_core import (
    STRUCTURE_CLAIMS,
    ad_matrix,
    check_jacobi,
    verify_splitting,
)
from solvsoliton.linalg import Matrix, has_real_spectrum, inverse
from solvsoliton.metric_lie import (
    MetricLieAlgebra,
    ricci_bilinear,
    soliton_check_direct,
    soliton_check_lauret,
)
from solvsoliton.scalars import power_jet

NS = (1, 2, 3, 4, 5)
RHOS = (Fraction(1), Fraction(2), Fraction(5, 2))
CS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3))

_metric_cache = {}


def grid_params():
    for n in NS:
        for rho in RHOS:
            for c in CS:
                yield FamilyParams(n, rho, c)


def metric_for(p):
    key = (p.n, p.rho, p.c)
    if key not in _metric_cache:
        _metric_cache[key] = family.metric_algebra(p)
    return _metric_cache[key]


def report(criterion: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def test_criterion_1_soliton_verdicts_on_the_grid():
    t0 = time.monotonic()
    ok = True
    for p in grid_params():
        M = metric_for(p)
        a = family_splitting(p.n)
        direct = soliton_check_direct(M)
        checklist = soliton_check_lauret(M, a, verify_splitting(M.L, a, M.G), direct)
        ok &= direct["status"] == checklist["status"]
        if p.n == 1:
            k = 2 * p.rho**2 * (p.rho + p.c) / (p.rho + 2 * p.c) ** 3
            ok &= direct["status"] == "soliton"
            ok &= direct["lambda"] == -3 * k
            ok &= direct["D"] == build_delta(1).scale(2 * k)
        elif p.c == 0:
            ok &= direct["status"] == "soliton"
            ok &= direct["lambda"] == -2 * (p.n + 2)
            ok &= direct["D"] == build_delta(p.n).scale(2 * p.n + 2)
        else:
            ok &= direct["status"] == "not_soliton"
            ok &= checklist["checklist"]["ad_normal"] is False
            ok &= checklist["witness"] == expected_normality_commutator(p)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(
        f"criterion 1: soliton verdicts and (lambda, D, witness) exact on the "
        f"grid in {elapsed:.1f}s (< 10s)",
        ok,
    )


def test_criterion_2_three_way_ricci_agreement():
    ok = True
    for p in grid_params():
        koszul = metric_for(p).ric
        closed = expected_ric_matrix(p)
        P = family.build_embedding(p, build_gram(p))
        conjugated = inverse(P) @ ricci_endomorphism_coords(p) @ P
        ok &= koszul == closed == conjugated
    report("criterion 2: three-way Ricci agreement, zero tolerance", ok)


def test_criterion_3_principal_curvature_closed_forms():
    ok = True
    for p in grid_params():
        forms = expected_closed_forms(p)
        ok &= shape_operator(p) == (tuple(forms.sigma), forms.tr_shape, forms.q)
        r = ricci_eigenvalue_formulas(p.n, p.rho, p.c)
        if p.c == 0:
            ok &= r == (-2 * (p.n + 2), 2 * p.n, -2, -2)
        elif p.n > 1:
            ok &= len({r[0], r[1], r[2], r[3]}) == 4  # pairwise distinct
        # the coordinate-route spectrum must be exactly these values
        endo = ricci_endomorphism_coords(p)
        expected_diag = (
            [r[0]] * (2 * p.n - 2) + [r[1]] + [r[2]] * 2 + [r[3]] * (2 * p.n - 2)
        )
        ok &= endo == Matrix.diagonal(expected_diag)
    report("criterion 3: principal curvatures and shape spectra exact", ok)


def test_criterion_4_algebraic_structure():
    ok = True
    for n in range(1, 7):
        L = build_lie_algebra(n)
        jac, _ = check_jacobi(L)
        ok &= jac
        ok &= STRUCTURE_CLAIMS.is_unimodular(L) == (n == 1)
        ok &= STRUCTURE_CLAIMS.is_completely_solvable(L)
        if n > 1:
            b1r = [Fraction(int(i == 0)) for i in range(L.dim)]
            ok &= trace(ad_matrix(L, b1r)) == 2 * n - 2
            ok &= killing_form(L)[0, 0] == 2 * n + 4
    report(
        "criterion 4: Jacobi, tr(ad), Killing value, unimodularity, complete "
        "solvability for n <= 6",
        ok,
    )


CRITERION_5_POINTS = [
    FamilyParams(n, rho, c)
    for n in (2, 3, 4, 5)
    for rho, c in ((Fraction(1), Fraction(1)), (Fraction(5, 2), Fraction(1, 2)))
]


def lauret_decomposition_holds(p: FamilyParams, M: MetricLieAlgebra) -> bool:
    """H, B and sym(ad H) against their closed forms, and ric against
    R - B/2 - sym(ad H), with R from its defining sums: none of the terms
    reads ``M.ric``."""
    a = family_splitting(p.n)
    ok = mean_curvature_vector(M, a) == expected_mean_curvature(p)
    r_term, b_op, ad_h_s = lauret_terms(M, a)
    ok &= b_op == expected_killing_operator(p)
    ok &= ad_h_s == expected_ad_h_sym(p)
    ok &= M.ric == add(r_term, b_op.scale(Fraction(-1, 2)), ad_h_s.scale(-1))
    return ok


def test_criterion_5_lauret_decomposition_identities():
    ok = all(lauret_decomposition_holds(p, metric_for(p)) for p in CRITERION_5_POINTS)
    report(
        "criterion 5: mean curvature, Killing operator, sym(ad H) exact, "
        "ric = R - B/2 - sym(ad H)",
        ok,
    )


def test_criterion_5_fails_on_a_bumped_ricci_entry():
    for p in CRITERION_5_POINTS[:4]:
        M = family.metric_algebra(p)
        bumped = [[M.ric[i, j] for j in range(M.dim)] for i in range(M.dim)]
        bumped[0][0] += Fraction(1, 1000)
        M.ric = Matrix(bumped)
        assert not lauret_decomposition_holds(p, M)


def test_criterion_6_trace_identity_and_symmetry():
    ok = True
    for p in grid_params():
        ok &= trace_identity_check(p)
        M = metric_for(p)
        ok &= (M.G @ M.ric).is_symmetric()
        ok &= ricci_bilinear(M).is_symmetric()
    report("criterion 6: jet trace identity and G*ric symmetry exact", ok)


def test_criterion_7_numeric_einstein_check():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        for rho, c in ((1.0, 0.0), (1.0, 1.0), (2.0, 0.5)):
            p = FamilyParams(n, Fraction(rho), Fraction(c))
            residuals, gram_err, eigenvalue_err, _ = einstein_check(p)
            ok &= len(residuals) == 3  # p_rho and two off-centre points
            ok &= all(r < 1e-6 for r in residuals.values())
            ok &= gram_err < 1e-12
            ok &= eigenvalue_err < 1e-8
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    report(
        f"criterion 7: ambient Einstein residual < 1e-6 and induced Gram "
        f"agreement < 1e-12 in {elapsed:.1f}s (< 60s)",
        ok,
    )


def test_criterion_8_norm_condition_at_c0():
    ok = True
    for n in (2, 3, 4, 5):
        p = FamilyParams(n, Fraction(1), Fraction(0))
        M = metric_for(p)
        lam = Fraction(-2 * (n + 2))
        b1r = [Fraction(int(i == 0)) for i in range(M.dim)]
        ad_b = ad_matrix(M.L, b1r)
        sym = add(ad_b, adjoint_operator(M, ad_b)).scale(Fraction(1, 2))
        ok &= M.G[0, 0] == -trace(sym @ sym) / lam
    report("criterion 8: norm condition <A,A> = -tr(sym(ad A)^2)/lambda at c=0", ok)


def test_criterion_9_property_suites():
    ok = True
    rng = random.Random(424242)

    # real spectra of random conjugates P B P^-1 up to 8x8, known from B
    for _ in range(8):
        rows, real = conjugated_blocks(rng, rng.randint(2, 8))
        ok &= has_real_spectrum(Matrix(rows)) == real

    # nullspace verification with rank-nullity
    for _ in range(8):
        m, n = rng.randint(2, 10), rng.randint(2, 10)
        A = Matrix(
            [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        )
        basis = nullspace(A)
        zero = zeros(m, 1)
        ok &= all(A @ v == zero for v in basis)

    # jets vs exact central differences at step 1/10^6, 1e-4 relative
    h = Fraction(1, 10**6)
    for _ in range(20):
        factors = [
            (
                Fraction(rng.randint(1, 4)),
                Fraction(rng.randint(-3, 3)),
                rng.choice([-1, 1, 2]),
            )
            for _ in range(rng.randint(2, 4))
        ]
        x0 = Fraction(rng.randint(1, 8), rng.randint(1, 3)) + Fraction(1, 7)
        if any(abs(a * x0 + b) < Fraction(1, 4) for a, b, _ in factors):
            continue

        def value(x):
            out = Fraction(1)
            for a, b, e in factors:
                out *= (a * x + b) ** e
            return out

        # (a x + b)^e enters the power rule as a^e (x + b/a)^e
        scale = Fraction(1)
        for a, _, e in factors:
            scale *= a**e
        s, ld1, ld2 = power_jet(x0, scale, [(b / a, e) for a, b, e in factors])
        jet_d1, jet_d2 = float(s * ld1), float(s * ld2)
        d1 = float((value(x0 + h) - value(x0 - h)) / (2 * h))
        d2 = float((value(x0 + h) - 2 * value(x0) + value(x0 - h)) / h**2)
        ok &= s == value(x0)
        ok &= abs(d1 - jet_d1) <= 1e-4 * max(1.0, abs(jet_d1))
        ok &= abs(d2 - jet_d2) <= 1e-4 * max(1.0, abs(jet_d2))

    # canonical surds vs double precision, 1e-12 relative
    for _ in range(60):
        q = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        b = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        approx = float(b) * math.sqrt(q)
        x, r = times_sqrt(b, q)
        exact = float(x) * math.sqrt(r)
        ok &= abs(exact - approx) <= 1e-12 * max(1.0, abs(approx))

    # scaling covariance: G -> tG keeps the status and scales lambda by 1/t
    for p in (
        FamilyParams(1, Fraction(1), Fraction(1)),
        FamilyParams(2, Fraction(1), Fraction(0)),
        FamilyParams(2, Fraction(1), Fraction(1)),
    ):
        M = metric_for(p)
        base = soliton_check_direct(M)
        t = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        scaled = MetricLieAlgebra(M.L, M.G.scale(t))
        v = soliton_check_direct(scaled)
        ok &= v["status"] == base["status"]
        if base["status"] == "soliton":
            ok &= v["lambda"] == base["lambda"] / t

    report(
        "criterion 9: real spectra of conjugates, nullspace, jet-vs-FD (1e-4), "
        "surd-vs-double (1e-12), scaling covariance",
        ok,
    )
