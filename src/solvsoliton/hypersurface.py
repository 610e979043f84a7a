"""Hypersurface curvature of the deformed metrics, via exact order-2 jets.

The ambient metric has the warped form f(rho) drho^2 + g_rho, and in the
coordinate frame the slice metric g_rho is diagonal for every rho and c.
The warp factor and each slice entry g_i are products of powers of rho + a,
so each is carried as the exact jet (g_i, g_i'/g_i, g_i''/g_i) of
:func:`~solvsoliton.scalars.power_jet` that ``FamilyParams`` sets at
construction, and every formula below works entry by entry.  The radial
endomorphism is A_i = g_i'/(2 g_i), and the shape operator with respect to
the unit normal is -A/sqrt(f).  Only that one
radical leaves the rationals: 1/sqrt(f) = 2 rho sqrt((rho+c)/(rho+2c)) =
b*sqrt(q), with rho taken out of the root before the radicand is reduced,
so each eigenvalue is x*sqrt(q) with a rational x, and the exact data are
the x's and the one integer q.  The
Ricci endomorphism of a slice of an Einstein manifold with constant lambda is

    Ric_i/g_i = lambda + k g_i'/g_i - g_i'^2/(2 f g_i^2) + g_i''/(2 f g_i),
    k = (sum_j g_j'/g_j)/(4f) - f'/(4f^2),

which :func:`hypersurface_ricci_general` evaluates over ``Fraction`` here
and over ``float`` in the ambient cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .family import FamilyParams, _warp_factor, einstein_constant, slice_multiplicities
from .linalg import Matrix
from .scalars import sqrt_parts

__all__ = [
    "shape_operator",
    "hypersurface_ricci_general",
    "ricci_endomorphism_coords",
    "trace_identity_check",
]


def shape_operator(p: FamilyParams) -> tuple:
    """(sigma, trace, q): the principal curvatures sigma_i = -(g_i'/g_i)/2 *
    1/sqrt(f), one per slice block, and their sum over the coordinates,
    each as the rational x of x*sqrt(q) with the instance's one radicand q.

    1/sqrt(f) = b*sqrt(q) is taken once: each factor (rho + a)^e of f leaves
    (rho + a)^h, h = -e/2 rounded toward zero, outside the root, so rho^2
    never reaches the radicand, and q = 1 when 1/sqrt(f) is rational.  Each
    slice block of :func:`~solvsoliton.family.slice_multiplicities` carries
    one sigma_k, None on an empty block (b and zrest at n = 1).
    """
    scale, factors = _warp_factor(p.c)
    b, radicand = Fraction(1), 1 / scale
    for a, e in factors:
        h = int(-e / 2)
        b *= (p.rho + a) ** h
        radicand *= (p.rho + a) ** (-e - 2 * h)
    root, q = sqrt_parts(radicand)
    b *= root
    coeffs = [-d1 / 2 for _, d1, _ in p.slice_jets]
    mult = slice_multiplicities(p.n)
    starts = accumulate(mult, initial=0)
    sigma = tuple(coeffs[i] * b if m else None for i, m in zip(starts, mult))
    return sigma, sum(coeffs) * b, q


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
    """Ricci endomorphism of the slice in coordinate order (diagonal).

    Ric_i/g_i reads g_i only through g_i'/g_i and g_i''/g_i, so the jets'
    ratios go in as the derivatives of a unit entry."""
    f, f_d1, _ = p.warp_jet
    jets = p.slice_jets
    ratios = hypersurface_ricci_general(
        [1] * len(jets),
        [d1 for _, d1, _ in jets],
        [d2 for _, _, d2 in jets],
        f,
        f * f_d1,
        einstein_constant(p.n),
    )
    return Matrix.diagonal(ratios)


def trace_identity_check(p: FamilyParams) -> bool:
    """Exact check of sum_i g_i'/g_i - f'/f = -8 n rho f at the working rho."""
    f, f_d1, _ = p.warp_jet
    lhs = sum(d1 for _, d1, _ in p.slice_jets) - f_d1
    return lhs == -8 * p.n * p.rho * f
