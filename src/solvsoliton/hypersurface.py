"""Hypersurface curvature of the deformed metrics, via exact order-2 jets.

The ambient metric has the warped form f(rho) drho^2 + g_rho; every Gram
entry of g_rho is carried as an exact jet in rho, which is all the general
Ricci formula for a hypersurface of an Einstein manifold needs:

    Ric = lambda*g + ((1/4f) tr(g^{-1} g') - f'/(4f^2)) g'
          - (2/f) h g^{-1} h + (1/2f) g'',   h = g'/2,

with the trace taken against the metric.  The shape operator with respect to
the unit normal is -(1/sqrt(f)) A for the radial endomorphism A = g^{-1} h,
so its eigenvalues live in the quadratic extension by sqrt((rho+c)/(rho+2c)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .family import FamilyParams, ricci_eigenvalue_formulas
from .linalg import Matrix, inverse
from .scalars import Jet2, sqrt_fraction

__all__ = [
    "WarpData",
    "RadialOperators",
    "ShapeOperator",
    "warp_data",
    "coordinate_gram",
    "radial_operators",
    "shape_operator",
    "hypersurface_ricci_general",
    "ricci_bilinear_coords",
    "ricci_endomorphism_coords",
    "principal_ricci",
    "trace_identity_check",
]


@dataclass
class WarpData:
    """Warp factor and block functions at a working rho, as exact jets."""

    f: Jet2
    fprime_over_f: Fraction
    h1: Jet2
    h2: Jet2
    h3: Jet2
    q: Fraction  # shared surd radicand (rho+c)/(rho+2c)


def warp_data(p: FamilyParams) -> WarpData:
    rho, c = p.rho, p.c
    rv = Jet2.variable(rho)
    f = (rv + 2 * c) / (4 * rv**2 * (rv + c))
    h1 = c / (rv + c)
    h2 = (2 * rv**2 + 5 * c * rv + 4 * c**2) / ((rv + c) * (rv + 2 * c))
    h3 = (rv + 4 * c) / (rv + 2 * c)
    return WarpData(
        f=f,
        fprime_over_f=f.d1 / f.v,
        h1=h1,
        h2=h2,
        h3=h3,
        q=(rho + c) / (rho + 2 * c),
    )


def coordinate_gram(p: FamilyParams) -> Matrix:
    """Diagonal Jet2-valued Gram of the slice metric in coordinate order."""
    n, c = p.n, p.c
    rv = Jet2.variable(p.rho)
    b_entry = (rv + c) / (4 * rv)
    phi_entry = (rv + c) / (4 * rv**2 * (rv + 2 * c))
    z0_entry = (rv + 2 * c) / (2 * rv**2)
    zrest_entry = 1 / (2 * rv)
    entries = [b_entry] * (2 * n - 2) + [phi_entry] + [z0_entry] * 2
    entries += [zrest_entry] * (2 * n - 2)
    return Matrix.diagonal(entries)


def _jet_parts(G: Matrix):
    """Split a Jet2 matrix into (values, first, second) Fraction matrices.

    Rational entries are treated as constants (zero derivatives).
    """
    gv = Matrix(
        [[x.v if isinstance(x, Jet2) else Fraction(x) for x in row] for row in G.data]
    )
    g1 = Matrix(
        [[x.d1 if isinstance(x, Jet2) else Fraction(0) for x in row] for row in G.data]
    )
    g2 = Matrix(
        [[x.d2 if isinstance(x, Jet2) else Fraction(0) for x in row] for row in G.data]
    )
    return gv, g1, g2


@lru_cache(maxsize=4)
def _slice_gram(p: FamilyParams):
    """(G, values, first, second, inverse of values) for the coordinate Gram.

    Memoised per parameter point, because one ``verify`` needs the Gram and
    its inverse three times; a sweep visits each point once, so a few entries
    suffice.
    """
    G = coordinate_gram(p)
    gv, g1, g2 = _jet_parts(G)
    return G, gv, g1, g2, inverse(gv)


@dataclass
class RadialOperators:
    """Radial endomorphism and companion Grams at the working rho.

    ``A`` carries (value, d/drho) of the endomorphism of h = g'/2 in its jet
    components; the second jet slot is not determined at order 2 and is left
    zero.  ``H`` and ``Hsq`` are the Grams of h and h^2, ``d2g`` is the Gram
    of the second rho-derivative.
    """

    A: Matrix
    H: Matrix
    Hsq: Matrix
    d2g: Matrix


def radial_operators(p: FamilyParams) -> RadialOperators:
    G, _, g1, g2, ginv = _slice_gram(p)
    d = G.rows
    for i in range(d):
        for j in range(d):
            if i != j and G.data[i][j]:
                raise ValueError("radial operators assume a diagonal coordinate Gram")
    a_entries = []
    for i in range(d):
        g = G.data[i][i]
        val = g.d1 / g.v / 2
        der = (g.d2 * g.v - g.d1 * g.d1) / (g.v * g.v) / 2
        a_entries.append(Jet2(val, der, 0))
    H = g1.scale(Fraction(1, 2))
    Hsq = H @ ginv @ H
    return RadialOperators(A=Matrix.diagonal(a_entries), H=H, Hsq=Hsq, d2g=g2)


@dataclass
class ShapeOperator:
    """Diagonal shape operator with its spectrum and multiplicities."""

    matrix: Matrix
    sigma: tuple
    multiplicities: tuple
    trace: object


def shape_operator(p: FamilyParams) -> ShapeOperator:
    n = p.n
    ops = radial_operators(p)
    f = warp_data(p).f
    sqrt_f = sqrt_fraction(f.v)
    entries = [-(ops.A.data[i][i].v) / sqrt_f for i in range(ops.A.rows)]
    mult = (2 * n - 2, 1, 2, 2 * n - 2)
    if n == 1:
        sigma = (None, entries[0], entries[1], None)
    else:
        sigma = (entries[0], entries[2 * n - 2], entries[2 * n - 1], entries[-1])
    trace = sum(entries[1:], entries[0])
    return ShapeOperator(
        matrix=Matrix.diagonal(entries),
        sigma=sigma,
        multiplicities=mult,
        trace=trace,
    )


def hypersurface_ricci_general(G: Matrix, f: Jet2, lam) -> Matrix:
    """Ricci bilinear form of a slice of an Einstein manifold, from jets.

    ``G`` is the Jet2-valued Gram of the slice metric, ``f`` the warp jet,
    ``lam`` the ambient Einstein constant.  Returns the exact Gram of the
    slice Ricci tensor at the base point.
    """
    gv, g1, g2 = _jet_parts(G)
    return _ricci_from_parts(gv, g1, g2, inverse(gv), f, lam)


def _ricci_from_parts(gv, g1, g2, ginv, f: Jet2, lam) -> Matrix:
    if f.v == 0:
        raise ZeroDivisionError("warp factor must be nonzero")
    lam = Fraction(lam)
    metric_trace = (ginv @ g1).trace()
    coeff = metric_trace / (4 * f.v) - f.d1 / (4 * f.v**2)
    hsq = g1 @ ginv @ g1  # = 4 h g^{-1} h
    ric = (
        gv.scale(lam)
        + g1.scale(coeff)
        - hsq.scale(Fraction(1, 2) / f.v)
        + g2.scale(Fraction(1, 2) / f.v)
    )
    return ric


def ricci_bilinear_coords(p: FamilyParams) -> Matrix:
    lam = Fraction(-2 * (p.n + 2))
    _, gv, g1, g2, ginv = _slice_gram(p)
    return _ricci_from_parts(gv, g1, g2, ginv, warp_data(p).f, lam)


def ricci_endomorphism_coords(p: FamilyParams) -> Matrix:
    """Ricci endomorphism of the slice in coordinate order."""
    *_, ginv = _slice_gram(p)
    return ginv @ ricci_bilinear_coords(p)


def principal_ricci(p: FamilyParams):
    """(r1, r2, r3, r4) evaluated exactly from their closed forms."""
    return ricci_eigenvalue_formulas(p.n, p.rho, p.c)


def trace_identity_check(p: FamilyParams) -> bool:
    """Exact check of tr(g^{-1} g') - f'/f = -8 n rho f at the working rho."""
    w = warp_data(p)
    _, _, g1, _, ginv = _slice_gram(p)
    lhs = (ginv @ g1).trace() - w.fprime_over_f
    rhs = -8 * p.n * p.rho * w.f.v
    return lhs == rhs
