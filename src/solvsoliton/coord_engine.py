"""Floating-point cross-validation of the exact curvature pipeline.

Assembles the full 4n-dimensional ambient metric from its closed form in
real coordinates and differentiates it analytically by array forward mode (no
finite differencing anywhere).  The closed form is a sum of terms
s * sum_r alpha_r (x) alpha_r: a coefficient s(rho, |X|^2), carried as
(value, gradient, Hessian) arrays, times the square of one-forms whose
components carry their own gradients (and, for eta, Hessians).  Each term is
accumulated into (g, dg, d2g) once, only on the block of indices and
variables it touches.  The Ricci tensor takes from dGamma only the two traces
it uses, in O(m^4) contractions.  On top of these sit the Einstein residual
at arbitrary in-domain points and the consistency of the induced slice metric
with the exact modules, through the exact path's own entrywise slice Ricci
formula.
"""

from __future__ import annotations

import random

import numpy as np

from .family import FamilyParams, coordinate_gram_values, ricci_eigenvalue_formulas
from .hypersurface import hypersurface_ricci_general

__all__ = [
    "AmbientMetric",
    "assemble_metric",
    "p_rho_point",
    "off_center_points",
    "ricci_from_jets",
    "einstein_residual",
    "InducedReport",
    "induced_consistency",
]


def validate_point(n: int, point: np.ndarray):
    if point[0] <= 0:
        raise ValueError("rho must be positive")
    # X^a = (b^a + i t^a)/2 must stay in the open unit ball.
    norm_x_sq = float(np.sum(point[1 : 2 * n - 1] ** 2)) / 4.0
    if norm_x_sq >= 1.0:
        raise ValueError("point lies outside the unit-ball constraint")


def p_rho_point(n: int, rho: float) -> np.ndarray:
    pt = np.zeros(4 * n)
    pt[0] = float(rho)
    return pt


def off_center_points(n: int, seed: int = 20240801) -> list:
    """Two fixed-seed in-domain points with ||X|| <= 1/2, away from p_rho."""
    rng = random.Random(seed)
    points = []
    for _ in range(2):
        pt = np.array([rng.uniform(-0.8, 0.8) for _ in range(4 * n)])
        pt[0] = rng.uniform(0.6, 2.4)
        bt = pt[1 : 2 * n - 1]
        norm = np.sqrt(np.sum(bt**2)) or 1.0
        bt *= min(1.0, 0.9 / norm)  # ||X|| = |bt|/2 <= 0.45
        points.append(pt)
    return points


def _coefficient(nv, rho, scale, factors, bt=None, u_power=0):
    """(value, gradient, Hessian) over the first ``nv`` coordinates of

        scale * prod (rho + a)^p * (1 - |X|^2)^(-u_power),   (a, p) in factors,

    where ``bt`` = x[1 : 2n-1] holds the coordinates (b^a, t^a), so that
    |X|^2 = |bt|^2 / 4.  Derivatives come from those of the logarithm.
    """
    s, l1, l2 = scale, 0.0, 0.0
    for a, p in factors:
        y = rho + a
        s *= y**p
        l1 += p / y
        l2 += p / (y * y)
    grad = np.zeros(nv)
    hess = np.zeros((nv, nv))
    if u_power:
        w = 1.0 / (1.0 - (bt @ bt) / 4.0)
        s *= w**u_power
        su = s * u_power * w  # d/du for u = |X|^2, with du = bt/2, d2u = I/2
        k = 1 + len(bt)
        grad[1:k] = su * bt / 2.0
        hess[0, 1:k] = hess[1:k, 0] = l1 * su * bt / 2.0
        hess[1:k, 1:k] = (su * (u_power + 1) * w / 4.0) * np.outer(bt, bt)
        hess[1:k, 1:k] += (su / 2.0) * np.eye(k - 1)
    grad[0] = s * l1
    hess[0, 0] = s * (l1 * l1 - l2)
    return s, grad, hess


def _square(v, d, h=None):
    """Jet (P0[s, t], P1[k, s, t], P2[k, l, s, t]) of sum_r alpha_r (x) alpha_r.

    ``v[r, s]`` are the components of the one-forms on their index block,
    ``d[r, k, s]`` their first derivatives and ``h[r, k, l, s]`` their second
    derivatives over the leading variables (None where the forms are affine).
    """
    P0 = (v[:, :, None] * v[:, None, :]).sum(axis=0)  # exactly symmetric
    Q = np.einsum("rks,rt->kst", d, v)
    P1 = Q + Q.transpose(0, 2, 1)
    R = np.tensordot(d, d, axes=(0, 0)).transpose(0, 2, 1, 3)
    P2 = R + R.transpose(1, 0, 2, 3)
    if h is not None:
        nh = h.shape[1]
        H = np.einsum("rkls,rt->klst", h, v)
        P2[:nh, :nh] += H + H.transpose(0, 1, 3, 2)
    return P0, P1, P2


def _accumulate(g, dg, d2g, block, coeff, P0, P1=None, P2=None):
    """Add coeff * P to (g, dg, d2g) on the index block and over the
    variables the coefficient carries; P1 = P2 = None for a constant P0."""
    s0, s1, s2 = coeff
    nv = len(s1)
    g[block, block] += s0 * P0
    dg[:nv, block, block] += s1[:, None, None] * P0
    d2g[:nv, :nv, block, block] += s2[:, :, None, None] * P0
    if P1 is not None:
        dg[:nv, block, block] += s0 * P1
        cross = s1[:, None, None, None] * P1
        d2g[:nv, :nv, block, block] += cross + cross.transpose(1, 0, 2, 3) + s0 * P2


class AmbientMetric:
    """Evaluator for the deformed ambient metric at points of the chart.

    Coordinate layout: rho, (b^a, t^a) for 1 <= a < n, phi, then
    (zt_k, z_k) for 0 <= k < n, with X^a = (b^a + i t^a)/2,
    w_0 = (zt_0 + i z_0)/2 and w_a = (zt_a - i z_a)/2.
    """

    def __init__(self, n: int, c: float):
        if n < 1:
            raise ValueError("n must be a positive integer")
        if c < 0:
            raise ValueError("c must be non-negative")
        self.n = n
        self.c = float(c)
        self.dim = m = 4 * n
        self._jets: dict = {}
        # Derivatives [r, variable, index] of the affine one-forms: Re and Im of
        # omega = sum conj(X^a) dX^a on the (b, t) block and of
        # psi = dw_0 + sum X^a dw_a on the zeta block, both over (rho, b, t);
        # and eta's linear part sum_k (z_k dzt_k - zt_k dz_k) on indices 1..m-1.
        nx = 2 * n - 1  # rho and the (b, t) coordinates
        self._omega = np.zeros((2, nx, nx - 1))
        self._psi = np.zeros((2, nx, 2 * n))
        self._psi0 = np.zeros((2, 2 * n))
        self._psi0[0, 0] = self._psi0[1, 1] = 0.5
        for a in range(1, n):
            b, t = 2 * a - 1, 2 * a
            self._omega[0, b, b - 1] = self._omega[0, t, t - 1] = 0.25
            self._omega[1, t, b - 1], self._omega[1, b, t - 1] = -0.25, 0.25
            self._psi[0, b, 2 * a] = self._psi[0, t, 2 * a + 1] = 0.25
            self._psi[1, t, 2 * a], self._psi[1, b, 2 * a + 1] = 0.25, -0.25
        self._eta = np.zeros((1, m, m - 1))
        self._eta0 = np.zeros((1, m - 1))
        self._eta0[0, nx - 1] = 1.0  # dphi
        for k in range(n):
            zt, z = nx + 1 + 2 * k, nx + 2 + 2 * k
            self._eta[0, z, zt - 1], self._eta[0, zt, z - 1] = 1.0, -1.0
        # -2/rho |dw_0|^2 + 2/rho sum_a |dw_a|^2, divided by 1/rho.
        self._zeta_pairing = np.diag([-0.5] * 2 + [0.5] * (2 * n - 2))

    def _assemble(self, x: np.ndarray):
        """(g, dg, d2g) at x, summed term by term from the closed form."""
        n, c, m = self.n, self.c, self.dim
        nx = 2 * n - 1
        g = np.zeros((m, m))
        dg = np.zeros((m, m, m))
        d2g = np.zeros((m, m, m, m))
        rho, bt = x[0], x[1:nx]
        bt_block, zeta, eta_block = slice(1, nx), slice(nx + 1, m), slice(1, m)

        def add(block, coeff, *P):
            _accumulate(g, dg, d2g, block, coeff, *P)

        # Warp term f drho^2, f = (rho + 2c) / (4 rho^2 (rho + c)).
        f = _coefficient(1, rho, 0.25, ((0.0, -2), (c, -1), (2 * c, 1)))
        add(slice(0, 1), f, np.ones((1, 1)))

        # Fubini-Study-type block: (rho + c)/rho/(1 - |X|^2) sum_a |dX^a|^2
        # + (rho + c)/rho/(1 - |X|^2)^2 |omega|^2.
        omega = x[:nx] @ self._omega
        if n > 1:
            fs = ((0.0, -1), (c, 1))
            add(bt_block, _coefficient(nx, rho, 1.0, fs, bt, 1), 0.25 * np.eye(nx - 1))
            coeff = _coefficient(nx, rho, 1.0, fs, bt, 2)
            add(bt_block, coeff, *_square(omega, self._omega))

        # Connection one-form eta = dphi + sum_k (z_k dzt_k - zt_k dz_k)
        # + 2c/(1 - |X|^2) Im(omega), squared with (rho + c)/((rho + 2c) 4 rho^2).
        eta = self._eta0 + x @ self._eta
        eta_d, eta_h = self._eta, None
        if n > 1 and c:
            h0, h1, h2 = _coefficient(nx, rho, 2.0 * c, (), bt, 1)
            im, im_d = omega[1], self._omega[1]
            eta = eta.copy()
            eta[0, : nx - 1] += h0 * im
            eta_d = eta_d.copy()
            eta_d[0, :nx, : nx - 1] += np.outer(h1, im) + h0 * im_d
            cross = h1[:, None, None] * im_d[None, :, :]
            eta_h = np.zeros((1, nx, nx, m - 1))
            eta_h[0, :, :, : nx - 1] = (
                h2[:, :, None] * im + cross + cross.transpose(1, 0, 2)
            )
        coeff2 = _coefficient(m, rho, 0.25, ((0.0, -2), (c, 1), (2 * c, -1)))
        add(eta_block, coeff2, *_square(eta, eta_d, eta_h))

        # Indefinite-looking pairing, positivized by the last term.
        add(zeta, _coefficient(1, rho, 1.0, ((0.0, -1),)), self._zeta_pairing)

        # 4 (rho + c)/(rho^2 (1 - |X|^2)) |psi|^2.
        psi = self._psi0 + x[:nx] @ self._psi
        coeff4 = _coefficient(nx, rho, 4.0, ((0.0, -2), (c, 1)), bt, 1)
        add(zeta, coeff4, *_square(psi, self._psi))
        return g, dg, d2g

    def jets(self, point):
        """(g, dg, d2g) with dg[k] = d_k g and d2g[k, l] = d_k d_l g.

        Memoised per point; the arrays are shared and read-only.
        """
        x = np.asarray(point, dtype=float)
        key = tuple(x.tolist())
        cached = self._jets.get(key)
        if cached is not None:
            return cached
        validate_point(self.n, x)
        jets = self._assemble(x)
        for a in jets:
            a.flags.writeable = False
        self._jets[key] = jets
        return jets

    def gram(self, point) -> np.ndarray:
        return self.jets(point)[0]


def assemble_metric(n: int, c) -> AmbientMetric:
    return AmbientMetric(n, float(c))


def ricci_from_jets(g: np.ndarray, dg: np.ndarray, d2g: np.ndarray) -> np.ndarray:
    """Ricci tensor from g, dg[k] = d_k g and d2g[k, l] = d_k d_l g.

    R_ij = d_k G^k_ij - d_j G^k_ik + G^k_kl G^l_ij - G^k_jl G^l_ik, with
    G^k_ij = g^kl S_lij / 2 and S_lij = d_i g_lj + d_j g_li - d_l g_ij.  Only
    the two traces of dG are formed, each in O(m^4):

        d_k G^k_ij = ((d_k g^kl) S_lij + g^kl (d_k d_i g_lj + d_k d_j g_li
                      - d_k d_l g_ij)) / 2,
        d_j G^k_ik = d_i d_j log det g / 2
                   = (g^kl d_i d_j g_kl - tr(g^-1 d_i g g^-1 d_j g)) / 2,

    using that g, each d_k g and each d_k d_l g are symmetric and that d2g is
    symmetric in its derivative indices.
    """
    m = g.shape[0]
    ginv = np.linalg.inv(g)
    flat = ginv.ravel()
    s = (dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg).reshape(m, m * m)
    gamma = 0.5 * (ginv @ s)
    div_ginv = -(flat @ dg.reshape(m * m, m)) @ ginv  # d_k g^kl
    mixed = flat @ d2g.reshape(m, m * m, m)  # g^kl d_i d_k g_lj
    d2 = d2g.reshape(m * m, m * m)
    box = (flat @ d2).reshape(m, m)  # g^kl d_k d_l g_ij
    dgamma_k_kij = 0.5 * ((div_ginv @ s).reshape(m, m) + mixed + mixed.T - box)
    E = ginv @ dg  # E[i] = g^-1 d_i g
    trace_ee = E.reshape(m, m * m) @ E.transpose(0, 2, 1).reshape(m, m * m).T
    dgamma_j_kik = 0.5 * ((d2 @ flat).reshape(m, m) - trace_ee)
    gamma = gamma.reshape(m, m, m)
    t3 = (np.trace(gamma, axis1=0, axis2=1) @ gamma.reshape(m, m * m)).reshape(m, m)
    t4 = np.tensordot(gamma, gamma, axes=([0, 2], [2, 0])).T
    return dgamma_k_kij - dgamma_j_kik + t3 - t4


def einstein_residual(M: AmbientMetric, point) -> float:
    """max |Ric + 2(n+2) g| / max |g| at the point."""
    g, dg, d2g = M.jets(point)
    ric = ricci_from_jets(g, dg, d2g)
    lam = -2.0 * (M.n + 2)
    return float(np.max(np.abs(ric - lam * g)) / np.max(np.abs(g)))


# Tolerances of InducedReport.ok: the relative Gram error and the largest
# error of a Ricci eigenvalue.
GRAM_TOL = 1e-12
EIGENVALUE_TOL = 1e-8


class InducedReport:
    """Agreement of the ambient restriction with the exact slice data.

    ``gram_max_error`` is relative and covers everything the entrywise slice
    Ricci formula assumes: the largest entry of the difference between the
    ambient metric's slice block (with its rho cross terms) and the exact
    diagonal slice Gram, over the largest exact entry; and the largest
    off-diagonal entry of the d/drho and d2/drho2 slice blocks, each over
    that block's largest entry.  ``eigenvalues`` and ``expected`` are the
    slice Ricci eigenvalues in coordinate order.
    """

    __slots__ = ("gram_max_error", "eigenvalue_max_error", "eigenvalues", "expected")

    def __init__(
        self,
        gram_max_error: float,
        eigenvalue_max_error: float,
        eigenvalues: np.ndarray,
        expected: np.ndarray,
    ):
        self.gram_max_error = gram_max_error
        self.eigenvalue_max_error = eigenvalue_max_error
        self.eigenvalues = eigenvalues
        self.expected = expected

    def ok(self) -> bool:
        return (
            self.gram_max_error < GRAM_TOL
            and self.eigenvalue_max_error < EIGENVALUE_TOL
        )


def _off_diagonal_ratio(block: np.ndarray) -> float:
    """Largest off-diagonal entry of a square block over its largest entry."""
    off = np.abs(block - np.diag(np.diagonal(block)))
    return float(np.max(off) / np.max(np.abs(block)))


def induced_consistency(M: AmbientMetric, p: FamilyParams) -> InducedReport:
    """Compare the induced slice Gram and Ricci eigenvalues with exact values.

    The slice Ricci is recomputed in floating point from the diagonals of
    the ambient jets at p_rho (restriction, rho-derivatives, warp factor)
    through the exact path's own :func:`hypersurface_ricci_general`, and
    compared entry by entry with the principal curvatures in coordinate
    order.
    """
    if M.n != p.n or abs(M.c - float(p.c)) > 0:
        raise ValueError("ambient metric and family parameters disagree")
    n = p.n
    pt = p_rho_point(n, float(p.rho))
    g, dg, d2g = M.jets(pt)
    G1, G2 = dg[0, 1:, 1:], d2g[0, 0, 1:, 1:]

    coord_values = np.array([float(x) for x in coordinate_gram_values(p)])
    gram_err = max(
        float(np.max(np.abs(g[1:, 1:] - np.diag(coord_values)))),
        float(np.max(np.abs(g[0, 1:]))),
    ) / float(np.max(np.abs(coord_values)))
    gram_err = max(gram_err, _off_diagonal_ratio(G1), _off_diagonal_ratio(G2))

    ric = hypersurface_ricci_general(
        np.diagonal(g)[1:],
        np.diagonal(G1),
        np.diagonal(G2),
        g[0, 0],
        dg[0, 0, 0],
        -2.0 * (n + 2),
    )
    eigs = np.array(ric)
    r1, r2, r3, r4 = (float(x) for x in ricci_eigenvalue_formulas(n, p.rho, p.c))
    expected = np.array([r1] * (2 * n - 2) + [r2] + [r3] * 2 + [r4] * (2 * n - 2))
    return InducedReport(
        gram_max_error=gram_err,
        eigenvalue_max_error=float(np.max(np.abs(eigs - expected))),
        eigenvalues=eigs,
        expected=expected,
    )
