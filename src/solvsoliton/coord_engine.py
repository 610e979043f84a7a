"""Floating-point cross-validation of the exact curvature pipeline.

Assembles the full 4n-dimensional ambient metric from its closed form in
real coordinates and differentiates it analytically (no finite differencing
anywhere), on plain Python floats.  The closed form is a sum of terms
s * sum_r alpha_r (x) alpha_r: a coefficient s(rho, |X|^2) times the square
of one-forms, each carried as a sparse jet (value, gradient, Hessian), so
that each term writes only the entries of (g, dg, d2g) it makes nonzero.
The Ricci tensor takes from dGamma only the two traces it uses; its
contractions with second derivatives run over the nonzero entries of d2g.
On top of these sit the Einstein residual at arbitrary in-domain points and
the consistency of the induced slice metric with the exact modules, through
the exact path's own entrywise slice Ricci formula; :func:`einstein_check`
runs both, taking each point's jets once.
"""

from __future__ import annotations

import math
import random
import sys
from operator import mul

from .family import (
    FamilyParams,
    coordinate_gram_values,
    einstein_constant,
    ricci_eigenvalue_formulas,
    slice_multiplicities,
)
from .hypersurface import hypersurface_ricci_general
from .scalars import power_jet

__all__ = [
    "AmbientMetric",
    "p_rho_point",
    "off_center_points",
    "ricci_from_jets",
    "einstein_residual",
    "induced_consistency",
    "einstein_check",
]


def validate_point(n: int, point):
    if point[0] <= 0:
        raise ValueError("rho must be positive")
    # X^a = (b^a + i t^a)/2 must stay in the open unit ball.
    norm_x_sq = sum(v * v for v in point[1 : 2 * n - 1]) / 4.0
    if norm_x_sq >= 1.0:
        raise ValueError("point lies outside the unit-ball constraint")


def p_rho_point(n: int, rho: float) -> list:
    return [float(rho)] + [0.0] * (4 * n - 1)


def off_center_points(n: int, seed: int = 20240801) -> list:
    """Two fixed-seed in-domain points with ||X|| <= 1/2, away from p_rho."""
    rng = random.Random(seed)
    points = []
    for _ in range(2):
        pt = [rng.uniform(-0.8, 0.8) for _ in range(4 * n)]
        pt[0] = rng.uniform(0.6, 2.4)
        bt = pt[1 : 2 * n - 1]
        scale = min(1.0, 0.9 / (math.sqrt(sum(v * v for v in bt)) or 1.0))
        pt[1 : 2 * n - 1] = [v * scale for v in bt]  # ||X|| = |bt|/2 <= 0.45
        points.append(pt)
    return points


# ---------------------------------------------------------------------------
# sparse jets: a vector is a dict {index: value}; a gradient maps a variable
# to a value (or vector), a Hessian maps a pair k <= l of variables likewise.
# ---------------------------------------------------------------------------


def _add_scaled(block: dict, coef: float, P: dict):
    """block += coef * P on the keys of P."""
    if coef:
        get = block.get
        for key, v in P.items():
            block[key] = get(key, 0.0) + coef * v


def _combo(*terms) -> dict:
    """sum coef * vec over the (coef, vec) pairs."""
    out = {}
    for coef, vec in terms:
        _add_scaled(out, coef, vec)
    return out


def _sym_outer(block: dict, x: dict, y: dict):
    """block[i, j] += x_i y_j + y_i x_j on the upper triangle i <= j."""
    get = block.get
    for p, xp in x.items():
        for q, yq in y.items():
            v = xp * yq
            if p < q:
                key = p, q
            elif p > q:
                key = q, p
            else:
                key, v = (p, p), v + v
            block[key] = get(key, 0.0) + v


def _coefficient(x, n: int, scale: float, factors, u_power: int = 0):
    """Jet (value, gradient, Hessian) at x of

        scale * prod (rho + a)^p * (1 - |X|^2)^(-u_power),   (a, p) in factors,

    where x[1 : 2n-1] holds the coordinates (b^a, t^a), so that
    |X|^2 = |bt|^2 / 4.  Derivatives come from those of the logarithm; the
    rho part is the power rule shared with the exact slice jets.
    """
    nx = 2 * n - 1
    # power_jet raises OverflowError out of float range, where * would give
    # inf silently: the check then refuses the point.
    s, l1, d2 = power_jet(x[0], scale, factors)
    grad, hess = {}, {}
    if u_power:
        w = 1.0 / (1.0 - sum(v * v for v in x[1:nx]) / 4.0)
        s *= w**u_power
        su = s * u_power * w  # d/du for u = |X|^2, with du = bt/2, d2u = I/2
        quad = su * (u_power + 1) * w / 4.0
        for i in range(1, nx):
            grad[i] = su * x[i] / 2.0
            hess[0, i] = l1 * grad[i]
            for j in range(i, nx):
                hess[i, j] = quad * x[i] * x[j]
            hess[i, i] += su / 2.0
    grad[0] = s * l1
    hess[0, 0] = s * d2
    return s, grad, hess


def _unit(i: int, weight: float = 1.0):
    """Jet of the constant one-form weight * dx^i."""
    return {i: weight}, {}, {}


def _omega(x, n: int):
    """Jets of Re and Im of omega = sum conj(X^a) dX^a, X^a = (b^a + i t^a)/2."""
    re, im = ({}, {}, {}), ({}, {}, {})
    for a in range(1, n):
        b, t = 2 * a - 1, 2 * a
        re[0][b], re[0][t] = 0.25 * x[b], 0.25 * x[t]
        im[0][b], im[0][t] = -0.25 * x[t], 0.25 * x[b]
        re[1][b], re[1][t] = {b: 0.25}, {t: 0.25}
        im[1][t], im[1][b] = {b: -0.25}, {t: 0.25}
    return re, im


def _psi(x, n: int):
    """Jets of Re and Im of psi = dw_0 + sum X^a dw_a."""
    re, im = ({2 * n: 0.5}, {}, {}), ({2 * n + 1: 0.5}, {}, {})
    for a in range(1, n):
        b, t = 2 * a - 1, 2 * a
        zt, z = 2 * n + 2 * a, 2 * n + 2 * a + 1
        re[0][zt], re[0][z] = 0.25 * x[b], 0.25 * x[t]
        im[0][zt], im[0][z] = 0.25 * x[t], -0.25 * x[b]
        re[1][b], re[1][t] = {zt: 0.25}, {z: 0.25}
        im[1][t], im[1][b] = {zt: 0.25}, {z: -0.25}
    return re, im


def _eta(x, n: int, c: float):
    """Jet of eta = dphi + sum_k (z_k dzt_k - zt_k dz_k) + 2c/(1 - |X|^2) Im(omega)."""
    nx = 2 * n - 1
    value, d, h = {nx: 1.0}, {}, {}
    for k in range(n):
        zt, z = nx + 1 + 2 * k, nx + 2 + 2 * k
        value[zt], value[z] = x[z], -x[zt]
        d[z], d[zt] = {zt: 1.0}, {z: -1.0}
    if c:
        h0, h1, h2 = _coefficient(x, n, 2.0 * c, (), 1)
        im, im_d, _ = _omega(x, n)[1]
        for i, v in im.items():
            value[i] = h0 * v
        for k in range(nx):
            d[k] = _combo((h1[k], im), (h0, im_d.get(k, {})))
        for (k, l), hkl in h2.items():
            h[k, l] = _combo(
                (hkl, im), (h1[k], im_d.get(l, {})), (h1[l], im_d.get(k, {}))
            )
    return value, d, h


def _add_squares(g: dict, dg: dict, d2g: dict, coeff, forms):
    """Add s * P and its derivatives to the upper triangles g[i, j],
    dg[k][i, j] and d2g[k, l][i, j], for P = sum_r a_r (x) a_r:

        d_k (s P) = s_k P + s P_k,
        d_k d_l (s P) = s_kl P + s_k P_l + s_l P_k + s P_kl,

    where P_k and P_kl collect the symmetrised outer products a d_k a and
    a d_k d_l a + d_k a d_l a of each form; s P_kl goes straight into d2g.
    The variables of a form's Hessian must be among those of its gradient.
    """
    s0, s1, s2 = coeff
    P0, P1 = {}, {}
    for a, a1, a2 in forms:
        a = {i: v for i, v in a.items() if v}
        _sym_outer(P0, a, {i: 0.5 * v for i, v in a.items()})
        for k, ak in a1.items():
            _sym_outer(P1.setdefault(k, {}), a, ak)
        for kl, akl in a2.items():
            _sym_outer(d2g.setdefault(kl, {}), a, {i: s0 * v for i, v in akl.items()})
        variables = sorted(a1)
        for pos, k in enumerate(variables):
            for l in variables[pos:]:
                s0_a1l = {i: s0 * v for i, v in a1[l].items()}
                _sym_outer(d2g.setdefault((k, l), {}), a1[k], s0_a1l)
    _add_scaled(g, s0, P0)
    variables = sorted(s1.keys() | P1.keys())
    empty = {}
    for pos, k in enumerate(variables):
        s1k, P1k = s1.get(k, 0.0), P1.get(k, empty)
        block = dg.setdefault(k, {})
        _add_scaled(block, s1k, P0)
        _add_scaled(block, s0, P1k)
        for l in variables[pos:]:
            block = d2g.setdefault((k, l), {})
            _add_scaled(block, s2.get((k, l), 0.0), P0)
            _add_scaled(block, s1k, P1.get(l, empty))
            _add_scaled(block, s1.get(l, 0.0), P1k)


def _dense(block: dict, m: int) -> list:
    """The symmetric m x m matrix whose upper triangle is ``block``."""
    rows = [[0.0] * m for _ in range(m)]
    for (i, j), v in block.items():
        rows[i][j] = rows[j][i] = v
    return rows


class AmbientMetric:
    """Evaluator for the deformed ambient metric at points of the chart.

    Coordinate layout: rho, (b^a, t^a) for 1 <= a < n, phi, then
    (zt_k, z_k) for 0 <= k < n, with X^a = (b^a + i t^a)/2,
    w_0 = (zt_0 + i z_0)/2 and w_a = (zt_a - i z_a)/2.
    """

    def __init__(self, n: int, c: float):
        self.n = n
        self.c = float(c)
        self.dim = 4 * n

    def jets(self, x):
        """(g, dg, d2g) at the point x, summed term by term from the closed form.

        ``g[i][j]`` and ``dg[k][i][j] = d_k g_ij`` are nested lists.  The
        second derivatives are sparse: ``d2g[k, l][i, j] = d_k d_l g_ij`` for
        k <= l and i <= j, holding only the entries the closed form reaches;
        the rest are zero or follow by symmetry.
        """
        validate_point(self.n, x)
        n, c, m = self.n, self.c, self.dim
        nx = 2 * n - 1
        g, dg, d2g = {}, {}, {}

        def add(coeff, forms):
            _add_squares(g, dg, d2g, coeff, forms)

        # Warp term f drho^2, f = (rho + 2c) / (4 rho^2 (rho + c)).
        add(_coefficient(x, n, 0.25, ((0.0, -2), (c, -1), (2 * c, 1))), [_unit(0)])

        # Fubini-Study-type block: (rho + c)/rho/(1 - |X|^2) sum_a |dX^a|^2
        # + (rho + c)/rho/(1 - |X|^2)^2 |omega|^2, with |dX^a|^2 = (db^2 + dt^2)/4.
        fs = ((0.0, -1), (c, 1))
        add(_coefficient(x, n, 1.0, fs, 1), [_unit(i, 0.5) for i in range(1, nx)])
        add(_coefficient(x, n, 1.0, fs, 2), _omega(x, n))

        # Connection one-form eta squared with (rho + c)/((rho + 2c) 4 rho^2).
        coeff = _coefficient(x, n, 0.25, ((0.0, -2), (c, 1), (2 * c, -1)))
        add(coeff, [_eta(x, n, c)])

        # Indefinite-looking pairing -2/rho |dw_0|^2 + 2/rho sum_a |dw_a|^2,
        # with |dw|^2 = (dzt^2 + dz^2)/4; positivized by the last term.
        add(_coefficient(x, n, -0.5, ((0.0, -1),)), [_unit(nx + 1), _unit(nx + 2)])
        add(_coefficient(x, n, 0.5, ((0.0, -1),)), [_unit(i) for i in range(nx + 3, m)])

        # 4 (rho + c)/(rho^2 (1 - |X|^2)) |psi|^2.
        add(_coefficient(x, n, 4.0, ((0.0, -2), (c, 1)), 1), _psi(x, n))

        return _dense(g, m), [_dense(dg.get(k, {}), m) for k in range(m)], d2g


def _inverse(a) -> list:
    """Symmetrised inverse of a symmetric matrix, by Gauss-Jordan elimination
    with partial pivoting; ZeroDivisionError on a zero pivot."""
    m = len(a)
    rows = [list(row) + [0.0] * m for row in a]
    for i in range(m):
        rows[i][m + i] = 1.0
    for col in range(m):
        best = max(range(col, m), key=lambda r: abs(rows[r][col]))
        rows[col], rows[best] = rows[best], rows[col]
        pivot = rows[col][col]
        if pivot == 0:
            raise ZeroDivisionError("the metric is singular")
        top = rows[col] = [v / pivot for v in rows[col]]
        for r in range(m):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [v - f * t for v, t in zip(rows[r], top)]
    inv = [row[m:] for row in rows]
    return [[0.5 * (inv[i][j] + inv[j][i]) for j in range(m)] for i in range(m)]


def ricci_from_jets(g, dg, d2g) -> list:
    """Ricci tensor from g, dg[k][i][j] = d_k g_ij and the sparse
    d2g[k, l][i, j] = d_k d_l g_ij (k <= l, i <= j) of :meth:`AmbientMetric.jets`.

    R_ij = d_k G^k_ij - d_j G^k_ik + G^k_kl G^l_ij - G^k_jl G^l_ik, with
    G^k_ij = g^kl S_lij / 2 and S_lij = d_i g_lj + d_j g_li - d_l g_ij.  Only
    the two traces of dG are formed:

        d_k G^k_ij = ((d_k g^kl) S_lij + g^kl (d_k d_i g_lj + d_k d_j g_li
                      - d_k d_l g_ij)) / 2,
        d_j G^k_ik = d_i d_j log det g / 2
                   = (g^kl d_i d_j g_kl - tr(g^-1 d_i g g^-1 d_j g)) / 2,

    using that g, each d_k g and each d_k d_l g are symmetric and that d2g is
    symmetric in its derivative indices.  The three contractions with d2g
    run over its stored entries; tr(E_i E_j) for E_i = g^-1 d_i g and
    G^k_jl G^l_ik are dot products of flattened rows.
    """
    m = len(g)
    rng = range(m)
    ginv = _inverse(g)

    zero = [0.0] * m

    def times_ginv(row):
        """g^-1 row, as a multiple of one row of g^-1 where row has one entry."""
        nonzero = [(c, v) for c, v in enumerate(row) if v]
        if len(nonzero) > 1:
            return [sum(map(mul, ga, row)) for ga in ginv]
        if nonzero:
            ((c, v),) = nonzero
            return [v * x for x in ginv[c]]
        return zero

    # ET[i][b][a] = (g^-1 d_i g)_ab: column b of E_i, from row b of d_i g.
    ET = [[times_ginv(row) for row in dgi] for dgi in dg]
    flat_e = [[v for col in zip(*et) for v in col] for et in ET]  # E_i by rows
    flat_et = [[v for row in et for v in row] for et in ET]  # E_i^T by rows
    q = [sum(ET[k][b][k] for k in rng) for b in rng]
    div_ginv = [-sum(map(mul, gl, q)) for gl in ginv]  # d_k g^kl

    # gam[i][j][k] = G^k_ij and div_s[i][j] = (d_k g^kl) S_lij, for i <= j.
    gam = [[None] * m for _ in rng]
    div_s = [[0.0] * m for _ in rng]
    for i in rng:
        dgi = dg[i]
        cols = list(zip(*(dg[l][i] for l in rng)))  # cols[j][l] = d_l g_ij
        for j in range(i, m):
            s = [a + b - c for a, b, c in zip(dgi[j], dg[j][i], cols[j])]  # S_lij
            gam[i][j] = gam[j][i] = [0.5 * sum(map(mul, gk, s)) for gk in ginv]
            div_s[i][j] = sum(map(mul, div_ginv, s))
    trace_gam = [sum(gam[k][l][k] for k in rng) for l in rng]  # G^k_kl
    flat_p = [[v for row in gi for v in row] for gi in gam]  # G^l_ik at (k, l)
    flat_q = [[v for col in zip(*gi) for v in col] for gi in gam]  # G^k_il

    # Contractions with d2g: box = g^kl d_k d_l g_ij, hess = g^kl d_i d_j g_kl
    # and mixed = g^kl d_i d_k g_lj.  A stored entry stands for up to four
    # entries of the full tensor; ``half`` corrects the count on a diagonal.
    weighted = [[(1.0 if i == j else 2.0) * ginv[i][j] for j in rng] for i in rng]
    box = [[0.0] * m for _ in rng]
    hess = [[0.0] * m for _ in rng]
    mixed = [[0.0] * m for _ in rng]
    for (k, l), block in d2g.items():
        gk, gl, mk, ml = ginv[k], ginv[l], mixed[k], mixed[l]
        wkl = weighted[k][l]
        half = 0.5 if k == l else 1.0
        h = 0.0
        for (i, j), v in block.items():
            box[i][j] += wkl * v
            h += weighted[i][j] * v
            f = half * v if i != j else 0.5 * half * v
            mk[j] += gl[i] * f
            ml[j] += gk[i] * f
            mk[i] += gl[j] * f
            ml[i] += gk[j] * f
        hess[k][l] = h

    ric = [[0.0] * m for _ in rng]
    for i in rng:
        for j in range(i, m):
            dgamma_k_kij = 0.5 * (div_s[i][j] + mixed[i][j] + mixed[j][i] - box[i][j])
            dgamma_j_kik = 0.5 * (hess[i][j] - sum(map(mul, flat_e[i], flat_et[j])))
            t3 = sum(map(mul, trace_gam, gam[i][j]))
            t4 = sum(map(mul, flat_p[i], flat_q[j]))
            ric[i][j] = ric[j][i] = dgamma_k_kij - dgamma_j_kik + t3 - t4
    return ric


def _max_abs(values) -> float:
    """Largest |x|, or nan if any x is not finite (max alone may skip a nan)."""
    values = [abs(x) for x in values]
    return max(values, default=0.0) if all(map(math.isfinite, values)) else math.nan


def einstein_residual(jets) -> float:
    """max |Ric - lambda g| / max |g|, lambda = :func:`einstein_constant`, from
    the jets of the 4n-dimensional ambient metric at a point; nan if not finite."""
    g, dg, d2g = jets
    ric = ricci_from_jets(g, dg, d2g)
    lam = einstein_constant(len(g) // 4)
    worst = _max_abs(r - lam * x for rr, gr in zip(ric, g) for r, x in zip(rr, gr))
    return worst / _max_abs(x for row in g for x in row)


# Tolerances of einstein_check: the relative Einstein residual, the
# relative Gram error and the largest error of a Ricci eigenvalue.
RESIDUAL_TOL = 1e-6
GRAM_TOL = 1e-12
EIGENVALUE_TOL = 1e-8


def _off_diagonal_ratio(entries) -> float:
    """Largest off-diagonal entry of a symmetric block over its largest
    entry, from the (i, j, value) triples of its upper triangle."""
    entries = list(entries)
    off = _max_abs(v for i, j, v in entries if i != j)
    return off / _max_abs(v for _, _, v in entries)


def induced_consistency(jets, p: FamilyParams) -> tuple:
    """(Gram error, eigenvalue error) of the induced slice metric against
    the exact values, from the ambient jets at p_rho.

    The Gram error is relative and covers everything the entrywise slice
    Ricci formula assumes: the largest entry of the difference between the
    ambient metric's slice block (with its rho cross terms) and the exact
    diagonal slice Gram, over the largest exact entry; and the largest
    off-diagonal entry of the d/drho and d2/drho2 slice blocks, each over
    that block's largest entry.  The slice Ricci is recomputed in floating
    point from the diagonals of the jets (restriction, rho-derivatives,
    warp factor) through the exact path's own
    :func:`hypersurface_ricci_general`; the eigenvalue error is its largest
    difference from the principal curvatures in coordinate order.
    """
    n, m = p.n, 4 * p.n
    g, dg, d2g = jets
    G1, G2 = dg[0], d2g.get((0, 0), {})
    inner = range(1, m)

    coord_values = [float(x) for x in coordinate_gram_values(p)]
    slice_error = _max_abs(
        g[i][j] - (coord_values[i - 1] if i == j else 0.0) for i in inner for j in inner
    )
    gram_err = _max_abs([slice_error, *g[0][1:]]) / _max_abs(coord_values)
    gram_err = _max_abs(
        [
            gram_err,
            _off_diagonal_ratio((i, j, G1[i][j]) for i in inner for j in range(i, m)),
            _off_diagonal_ratio((i, j, v) for (i, j), v in G2.items() if i >= 1),
        ]
    )

    eigs = hypersurface_ricci_general(
        [g[i][i] for i in inner],
        [G1[i][i] for i in inner],
        [G2.get((i, i), 0.0) for i in inner],
        g[0][0],
        dg[0][0][0],
        einstein_constant(n),
    )
    r = ricci_eigenvalue_formulas(n, p.rho, p.c)
    expected = [float(x) for x, m in zip(r, slice_multiplicities(n)) for _ in range(m)]
    return gram_err, _max_abs(e - x for e, x in zip(eigs, expected))


def einstein_check(p: FamilyParams) -> tuple:
    """The ambient Einstein check at p: (relative Einstein residual by point
    name, induced Gram error, induced eigenvalue error, ok).

    The points are p_rho and the two :func:`off_center_points`; p_rho's
    jets also feed :func:`induced_consistency`.  ``ok`` holds when every
    residual is below RESIDUAL_TOL and the two induced errors below
    GRAM_TOL and EIGENVALUE_TOL.  A ValueError if rho or c is outside float
    range (rho is below the smallest normal float or either overflows), or
    if the float metric is not finite or not invertible at some point.
    """
    try:
        rho, c = float(p.rho), float(p.c)
    except OverflowError:
        rho = 0.0
    if rho < sys.float_info.min:
        raise ValueError("einstein needs rho and c within float range")
    n = p.n
    M = AmbientMetric(n, c)
    points = {"p_rho": p_rho_point(n, rho)}
    for i, pt in enumerate(off_center_points(n)):
        points[f"offcenter{i}"] = pt
    try:
        jets = {name: M.jets(pt) for name, pt in points.items()}
        residuals = {name: einstein_residual(j) for name, j in jets.items()}
        gram_err, eig_err = induced_consistency(jets["p_rho"], p)
        finite = all(map(math.isfinite, [*residuals.values(), gram_err, eig_err]))
    except ArithmeticError:
        finite = False
    if not finite:
        raise ValueError(
            "the float metric is not finite and invertible at "
            f"rho={rho:.6g}, c={c:.6g}"
        )
    ok = (
        max(residuals.values()) < RESIDUAL_TOL
        and gram_err < GRAM_TOL
        and eig_err < EIGENVALUE_TOL
    )
    return residuals, gram_err, eig_err, ok
