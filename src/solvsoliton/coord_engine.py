"""Floating-point cross-validation of the exact curvature pipeline.

Assembles the full 4n-dimensional ambient metric from its closed form in
real coordinates, differentiates it analytically with multivariate order-2
jets (no finite differencing anywhere), computes Christoffel symbols and the
Ricci tensor at arbitrary in-domain points, and checks the Einstein property
plus consistency of the induced slice metric with the exact modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .family import FamilyParams, coordinate_gram_values, ricci_eigenvalue_formulas

__all__ = [
    "FloatJet2",
    "Chart",
    "AmbientMetric",
    "assemble_metric",
    "ambient_coordinate_names",
    "p_rho_point",
    "off_center_points",
    "ricci_numeric",
    "ricci_from_jets",
    "einstein_residual",
    "InducedReport",
    "induced_consistency",
]


class FloatJet2:
    """Float scalar with gradient and Hessian over m active coordinates."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v: float, g: np.ndarray, h: np.ndarray):
        self.v = float(v)
        self.g = g
        self.h = h

    @classmethod
    def constant(cls, v: float, m: int) -> "FloatJet2":
        return cls(v, np.zeros(m), np.zeros((m, m)))

    @classmethod
    def variable(cls, i: int, v: float, m: int) -> "FloatJet2":
        g = np.zeros(m)
        g[i] = 1.0
        return cls(v, g, np.zeros((m, m)))

    def _coerce(self, other):
        if isinstance(other, FloatJet2):
            return other
        if isinstance(other, (int, float)):
            return FloatJet2.constant(float(other), self.g.shape[0])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FloatJet2(self.v + o.v, self.g + o.g, self.h + o.h)

    __radd__ = __add__

    def __neg__(self):
        return FloatJet2(-self.v, -self.g, -self.h)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FloatJet2(self.v - o.v, self.g - o.g, self.h - o.h)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        cross = np.outer(self.g, o.g)
        return FloatJet2(
            self.v * o.v,
            self.v * o.g + o.v * self.g,
            self.v * o.h + o.v * self.h + cross + cross.T,
        )

    __rmul__ = __mul__

    def _inverse(self):
        if self.v == 0.0:
            raise ZeroDivisionError("division by a jet with zero value")
        iv = 1.0 / self.v
        grad = -self.g * iv * iv
        outer = np.outer(self.g, self.g)
        hess = -self.h * iv * iv + 2.0 * outer * iv**3
        return FloatJet2(iv, grad, hess)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __repr__(self):
        return f"FloatJet2({self.v})"


class CJet:
    """Complex number with FloatJet2 real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: FloatJet2, im: FloatJet2):
        self.re = re
        self.im = im

    def conj(self) -> "CJet":
        return CJet(self.re, -self.im)

    def __add__(self, other: "CJet") -> "CJet":
        return CJet(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CJet") -> "CJet":
        return CJet(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "CJet") -> "CJet":
        return CJet(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def scale(self, s: FloatJet2) -> "CJet":
        return CJet(s * self.re, s * self.im)


def ambient_coordinate_names(n: int) -> list:
    from .family import coordinate_names

    return ["rho"] + coordinate_names(n)


@dataclass
class Chart:
    """Evaluation point in the global real coordinates (rho first)."""

    n: int
    point: np.ndarray

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=float)
        if self.point.shape != (4 * self.n,):
            raise ValueError(f"expected {4 * self.n} coordinates")
        validate_point(self.n, self.point)

    @property
    def coords(self) -> list:
        return ambient_coordinate_names(self.n)


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
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(2):
        pt = rng.uniform(-0.8, 0.8, size=4 * n)
        pt[0] = rng.uniform(0.6, 2.4)
        bt = pt[1 : 2 * n - 1]
        norm = np.sqrt(np.sum(bt**2)) or 1.0
        bt *= min(1.0, 0.9 / norm)  # ||X|| = |bt|/2 <= 0.45
        points.append(pt)
    return points


class AmbientMetric:
    """Evaluator for the deformed ambient metric at points of the chart."""

    def __init__(self, n: int, c: float):
        if n < 1:
            raise ValueError("n must be a positive integer")
        if c < 0:
            raise ValueError("c must be non-negative")
        self.n = n
        self.c = float(c)
        self.dim = 4 * n
        self._jets: dict = {}

    # -- assembly of the closed-form metric over jets ----------------------

    def _entries(self, point: np.ndarray) -> list:
        """The metric as a dim x dim array of FloatJet2 entries."""
        n, c, m = self.n, self.c, self.dim
        validate_point(n, np.asarray(point, dtype=float))
        jet = [FloatJet2.variable(i, float(point[i]), m) for i in range(m)]
        const = lambda v: FloatJet2.constant(v, m)

        # Coordinate layout: rho, (b^a, t^a)_{a<n}, phi, zt0, z0, (zt_j, z_j).
        i_rho = 0
        i_b = lambda a: 1 + 2 * (a - 1)
        i_t = lambda a: 2 + 2 * (a - 1)
        i_phi = 2 * n - 1
        i_zt = lambda k: (2 * n + 2 * k) if k else 2 * n
        i_z = lambda k: (2 * n + 2 * k + 1) if k else 2 * n + 1

        rho = jet[i_rho]
        half = 0.5
        X = {
            a: CJet(half * jet[i_b(a)], half * jet[i_t(a)]) for a in range(1, n)
        }
        w0 = CJet(half * jet[i_zt(0)], half * jet[i_z(0)])
        w = {a: CJet(half * jet[i_zt(a)], -half * jet[i_z(a)]) for a in range(1, n)}

        # Constant-coefficient one-forms as {coord index: CJet}.
        zero = const(0.0)
        dX = {
            a: {i_b(a): CJet(const(half), zero), i_t(a): CJet(zero, const(half))}
            for a in range(1, n)
        }
        dw0 = {i_zt(0): CJet(const(half), zero), i_z(0): CJet(zero, const(half))}
        dw = {
            a: {i_zt(a): CJet(const(half), zero), i_z(a): CJet(zero, const(-half))}
            for a in range(1, n)
        }

        def cj_scale(form, factor):
            return {mu: comp * factor for mu, comp in form.items()}

        def form_sum(*forms):
            out: dict = {}
            for form in forms:
                for mu, comp in form.items():
                    out[mu] = out[mu] + comp if mu in out else comp
            return out

        norm_x_sq = const(0.0)
        for a in range(1, n):
            norm_x_sq = norm_x_sq + X[a].re * X[a].re + X[a].im * X[a].im
        one_minus = 1.0 - norm_x_sq

        T = [[None] * m for _ in range(m)]

        def add(i, j, val):
            T[i][j] = val if T[i][j] is None else T[i][j] + val

        def add_herm(coeff, alpha):
            # coeff * |alpha|^2 as a symmetric real 2-tensor.
            items = list(alpha.items())
            for mu, amu in items:
                for nu, anu in items:
                    add(mu, nu, coeff * (amu.re * anu.re + amu.im * anu.im))

        def add_real_sq(coeff, eta):
            # grouping keeps the assembled values exactly symmetric
            items = list(eta.items())
            for mu, emu in items:
                for nu, enu in items:
                    add(mu, nu, coeff * (emu * enu))

        # Warp term f drho^2 with f = (rho + 2c)/(4 rho^2 (rho + c)).
        f = (rho + 2 * c) / (4.0 * rho * rho * (rho + c))
        add(i_rho, i_rho, f)

        # Fubini-Study-type block over the X disc.
        if n > 1:
            omega = {}
            for a in range(1, n):
                omega = form_sum(omega, cj_scale(dX[a], X[a].conj()))
            coeff1 = (rho + c) / rho / one_minus
            for a in range(1, n):
                add_herm(coeff1, dX[a])
            add_herm(coeff1 / one_minus, omega)
        else:
            omega = {}

        # Connection one-form squared.
        eta = {i_phi: const(1.0)}
        im_part: dict = {}
        pairs = [(w0, dw0, 1.0)] + [(w[a], dw[a], -1.0) for a in range(1, n)]
        for wval, dwform, sign in pairs:
            scaled = cj_scale(dwform, wval.conj())
            for mu, comp in scaled.items():
                contrib = (-4.0 * sign) * comp.im
                im_part[mu] = im_part[mu] + contrib if mu in im_part else contrib
        eta = form_sum(eta, im_part)
        if n > 1 and c:
            cfac = (2.0 * c) / one_minus
            eta = form_sum(eta, {mu: cfac * comp.im for mu, comp in omega.items()})
        coeff2 = (rho + c) / (rho + 2 * c) / (4.0 * rho * rho)
        add_real_sq(coeff2, eta)

        # Indefinite-looking pairing, positivized by the last term.
        add_herm(-2.0 / rho, dw0)
        for a in range(1, n):
            add_herm(2.0 / rho, dw[a])

        psi = dict(dw0)
        for a in range(1, n):
            psi = form_sum(psi, cj_scale(dw[a], X[a]))
        coeff4 = (rho + c) / (rho * rho) * (4.0 / one_minus)
        add_herm(coeff4, psi)

        zero_jet = const(0.0)
        return [[T[i][j] if T[i][j] is not None else zero_jet for j in range(m)] for i in range(m)]

    def jets(self, point):
        """(g, dg, d2g) with dg[k] = d_k g and d2g[k, l] = d_k d_l g.

        Memoised per point; the arrays are shared and read-only.
        """
        key = tuple(np.asarray(point, dtype=float).tolist())
        cached = self._jets.get(key)
        if cached is not None:
            return cached
        entries = self._entries(point)
        m = self.dim
        g = np.empty((m, m))
        dg = np.empty((m, m, m))
        d2g = np.empty((m, m, m, m))
        for i in range(m):
            for j in range(m):
                e = entries[i][j]
                g[i, j] = e.v
                dg[:, i, j] = e.g
                d2g[:, :, i, j] = e.h
        for a in (g, dg, d2g):
            a.flags.writeable = False
        self._jets[key] = (g, dg, d2g)
        return g, dg, d2g

    def gram(self, point) -> np.ndarray:
        return self.jets(point)[0]


def assemble_metric(n: int, c) -> AmbientMetric:
    return AmbientMetric(n, float(c))


def ricci_numeric(M: AmbientMetric, point) -> np.ndarray:
    """Ricci tensor at a point, all derivatives supplied analytically."""
    g, dg, d2g = M.jets(point)
    return ricci_from_jets(g, dg, d2g)


def ricci_from_jets(g: np.ndarray, dg: np.ndarray, d2g: np.ndarray) -> np.ndarray:
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


def einstein_residual(M: AmbientMetric, point) -> float:
    """max |Ric + 2(n+2) g| / max |g| at the point."""
    g, dg, d2g = M.jets(point)
    ric = ricci_from_jets(g, dg, d2g)
    lam = -2.0 * (M.n + 2)
    return float(np.max(np.abs(ric - lam * g)) / np.max(np.abs(g)))


@dataclass
class InducedReport:
    """Agreement of the ambient restriction with the exact slice data.

    ``gram_max_error`` is relative: the largest entry of the difference
    between the ambient metric's slice block (with its rho cross terms) and
    the exact slice Gram, over the largest entry of the exact slice Gram.
    """

    gram_max_error: float
    eigenvalue_max_error: float
    eigenvalues: np.ndarray
    expected: np.ndarray

    def ok(self, gram_tol: float = 1e-12, eig_tol: float = 1e-8) -> bool:
        return self.gram_max_error < gram_tol and self.eigenvalue_max_error < eig_tol


def induced_consistency(M: AmbientMetric, p: FamilyParams) -> InducedReport:
    """Compare the induced slice Gram and Ricci spectrum with exact values.

    The slice Ricci is recomputed in floating point from the ambient jets
    (restriction, rho-derivatives, warp factor) through the same general
    hypersurface formula, and its spectrum is matched against the exact
    principal curvatures.
    """
    if M.n != p.n or abs(M.c - float(p.c)) > 0:
        raise ValueError("ambient metric and family parameters disagree")
    n = p.n
    pt = p_rho_point(n, float(p.rho))
    g, dg, d2g = M.jets(pt)

    coord_values = np.array([float(x) for x in coordinate_gram_values(p)])
    gram_err = max(
        float(np.max(np.abs(g[1:, 1:] - np.diag(coord_values)))),
        float(np.max(np.abs(g[0, 1:]))),
    ) / float(np.max(np.abs(coord_values)))

    f_val = g[0, 0]
    f_d1 = dg[0, 0, 0]
    G = g[1:, 1:]
    G1 = dg[0][1:, 1:]
    G2 = d2g[0, 0][1:, 1:]
    ginv = np.linalg.inv(G)
    lam = -2.0 * (n + 2)
    coeff = np.trace(ginv @ G1) / (4.0 * f_val) - f_d1 / (4.0 * f_val**2)
    ric = lam * G + coeff * G1 - (G1 @ ginv @ G1) / (2.0 * f_val) + G2 / (2.0 * f_val)
    # Spectrum of the endomorphism via the symmetric generalized problem.
    chol = np.linalg.cholesky(G)
    chol_inv = np.linalg.inv(chol)
    eigs = np.sort(np.linalg.eigvalsh(chol_inv @ ric @ chol_inv.T))

    r1, r2, r3, r4 = (float(x) for x in ricci_eigenvalue_formulas(n, p.rho, p.c))
    expected = np.sort(
        np.array([r1] * (2 * n - 2) + [r2] + [r3] * 2 + [r4] * (2 * n - 2))
    )
    eig_err = float(np.max(np.abs(eigs - expected)))
    return InducedReport(
        gram_max_error=gram_err,
        eigenvalue_max_error=eig_err,
        eigenvalues=eigs,
        expected=expected,
    )
