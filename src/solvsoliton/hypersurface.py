"""Hypersurface curvature of the deformed metrics, via exact order-2 jets.

The ambient metric has the warped form f(rho) drho^2 + g_rho, and in the
coordinate frame the slice metric g_rho is diagonal for every rho and c.  So
each slice entry g_i is carried as an exact jet in rho, and every formula
below works entry by entry.  The radial endomorphism is A_i = g_i'/(2 g_i),
and the shape operator with respect to the unit normal is -A/sqrt(f), so its
eigenvalues live in the quadratic extension by sqrt((rho+c)/(rho+2c)).  The
Ricci endomorphism of a slice of an Einstein manifold with constant lambda is

    Ric_i/g_i = lambda + k g_i'/g_i - g_i'^2/(2 f g_i^2) + g_i''/(2 f g_i),
    k = (sum_j g_j'/g_j)/(4f) - f'/(4f^2),

which :func:`hypersurface_ricci_general` evaluates over ``Fraction`` here
and over ``float`` in the ambient cross-check.
"""

from __future__ import annotations

from fractions import Fraction

from .family import FamilyParams, slice_diagonal
from .linalg import Matrix
from .scalars import Jet2, sqrt_fraction

__all__ = [
    "WarpData",
    "ShapeOperator",
    "warp_data",
    "coordinate_gram",
    "shape_operator",
    "hypersurface_ricci_general",
    "ricci_endomorphism_coords",
    "trace_identity_check",
]


class WarpData:
    """Warp factor f at a working rho, as an exact jet, with f'/f."""

    __slots__ = ("f", "fprime_over_f")

    def __init__(self, f: Jet2, fprime_over_f: Fraction):
        self.f = f
        self.fprime_over_f = fprime_over_f


def warp_data(p: FamilyParams) -> WarpData:
    rv = Jet2.variable(p.rho)
    f = (rv + 2 * p.c) / (4 * rv**2 * (rv + p.c))
    return WarpData(f=f, fprime_over_f=f.d1 / f.v)


def coordinate_gram(p: FamilyParams) -> list:
    """Diagonal jets g_i(rho) of the slice metric, in coordinate order."""
    return slice_diagonal(p.n, Jet2.variable(p.rho), p.c)


class ShapeOperator:
    """Diagonal shape operator with its spectrum and multiplicities."""

    __slots__ = ("matrix", "sigma", "multiplicities", "trace")

    def __init__(self, matrix: Matrix, sigma: tuple, multiplicities: tuple, trace):
        self.matrix = matrix
        self.sigma = sigma
        self.multiplicities = multiplicities
        self.trace = trace


def shape_operator(p: FamilyParams) -> ShapeOperator:
    n = p.n
    sqrt_f = sqrt_fraction(warp_data(p).f.v)
    entries = [-(g.d1 / (2 * g.v)) / sqrt_f for g in coordinate_gram(p)]
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


def hypersurface_ricci_general(g, dg, d2g, f, df, lam) -> list:
    """Ric_i/g_i of a slice of an Einstein manifold f drho^2 + g_rho.

    ``g``, ``dg`` and ``d2g`` list the diagonal slice entries and their first
    and second rho-derivatives, ``(f, df)`` is the warp factor with its
    derivative and ``lam`` the ambient Einstein constant.  The arithmetic is
    that of the inputs: exact over ``Fraction``, rounded over ``float``.
    """
    if f == 0:
        raise ZeroDivisionError("warp factor must be nonzero")
    log_d = [d / x for x, d in zip(g, dg)]  # g_i'/g_i
    k = sum(log_d) / (4 * f) - df / (4 * f * f)
    return [
        lam + k * ld - ld * ld / (2 * f) + d2 / (2 * f * x)
        for x, ld, d2 in zip(g, log_d, d2g)
    ]


def ricci_endomorphism_coords(p: FamilyParams) -> Matrix:
    """Ricci endomorphism of the slice in coordinate order (diagonal)."""
    f = warp_data(p).f
    jets = coordinate_gram(p)
    ratios = hypersurface_ricci_general(
        [x.v for x in jets],
        [x.d1 for x in jets],
        [x.d2 for x in jets],
        f.v,
        f.d1,
        Fraction(-2 * (p.n + 2)),
    )
    return Matrix.diagonal(ratios)


def trace_identity_check(p: FamilyParams) -> bool:
    """Exact check of sum_i g_i'/g_i - f'/f = -8 n rho f at the working rho."""
    w = warp_data(p)
    lhs = sum(x.d1 / x.v for x in coordinate_gram(p)) - w.fprime_over_f
    return lhs == -8 * p.n * p.rho * w.f.v
