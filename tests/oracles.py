"""Reference implementations that the tests check the package against.

None of this runs in a CLI command.  ``Jet2`` is a general order-2 jet
algebra, the reference for the power rule ``scalars.power_jet`` and for the
displayed formulas of the slice metric.  The closed forms (shape spectra,
adjoint blocks, Killing operator, mean curvature, normality commutator) are
stated independently of the curvature routes, and the decomposition
ric = R - B/2 - sym(ad H) is rebuilt term by term, without reading ric, from
the curvature operator's quadratic sums, the Killing form and the mean
curvature vector.  ``nullspace`` and ``sparse_nullspace`` give
kernels through the package's one elimination kernel, ``rref``.  The
``fraction_*`` functions are the exact curvature kernels summed over
``Fraction`` entries, as they stood before the package moved them onto
integers over cleared denominators; the integer kernels must equal them.
They read the bracket table through :func:`fraction_table`, the one
``Fraction`` view of ``StructureConstants.table`` over its ``den``, and
every matrix through :func:`dense`, the one ``Fraction`` view of a
``Matrix``, read entry by entry; sums, traces and zero tests of matrices
(:func:`add`, :func:`trace`, :func:`is_zero`) are taken on that view.
``conjugated_blocks`` hides a block matrix of known spectrum behind
elementary similarities, so ``linalg.has_real_spectrum`` has an answer
known by construction.
``TWO_ABELIAN`` is an algebra whose abelian part has dimension 2, so the
checklist's norm condition has an off-diagonal entry.
:func:`checklist_verdict` runs the checklist route with the splitting
report and the direct verdict that it takes as arguments.
The ``heisenberg_*`` functions state the n = 1 case apart, the reference
for the general builders at n = 1.
"""

import math
from fractions import Fraction
from itertools import takewhile

from solvsoliton.family import FamilyParams, ricci_eigenvalue_formulas
from solvsoliton.lie_core import (
    StructureConstants,
    ad_matrix,
    subalgebra,
    verify_splitting,
)
from solvsoliton.linalg import Matrix, rref
from solvsoliton.metric_lie import (
    MetricLieAlgebra,
    _restrict_gram,
    soliton_check_direct,
    soliton_check_lauret,
)
from solvsoliton.scalars import power_jet, sqrt_parts

_HALF = Fraction(1, 2)


def times_sqrt(x, r):
    """x*sqrt(r) for rationals x and r >= 0 as the package writes it: the
    pair (y, q) with x*sqrt(r) = y*sqrt(q), a rational y and the integer
    radicand q of ``sqrt_parts(r)``."""
    b, q = sqrt_parts(r)
    return Fraction(x) * b, q


def same_root_multiples(xs, q, ys, r) -> bool:
    """Whether x*sqrt(q) = y*sqrt(r) for each x of ``xs`` and y of ``ys``,
    None matching None only: x and y have one sign and x^2 q = y^2 r, so a
    square left inside one radicand does not matter."""
    return len(xs) == len(ys) and all(
        x is y
        if x is None or y is None
        else (x > 0) == (y > 0) and x * x * q == y * y * r
        for x, y in zip(xs, ys)
    )


def dense(M: Matrix) -> list:
    """M as dense rows of ``Fraction`` entries, each read as ``M[i, j]``."""
    return [[M[i, j] for j in range(M.cols)] for i in range(M.rows)]


def add(*terms: Matrix) -> Matrix:
    """The entrywise sum of matrices of one shape, over their dense views."""
    if len({(t.rows, t.cols) for t in terms}) != 1:
        raise ValueError("shape mismatch")
    views = [dense(t) for t in terms]
    return Matrix([[sum(xs) for xs in zip(*rows)] for rows in zip(*views)])


def trace(M: Matrix) -> Fraction:
    if M.rows != M.cols:
        raise ValueError("trace of a non-square matrix")
    return sum((M[i, i] for i in range(M.rows)), Fraction(0))


def is_zero(M: Matrix) -> bool:
    return not any(x for row in dense(M) for x in row)


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix([[0] * cols for _ in range(rows)])


def identity(n: int) -> Matrix:
    """The n x n identity matrix."""
    return Matrix.diagonal([1] * n)


def int_row(entries) -> dict:
    """The nonzero entries of a rational row as {col: int}, cleared by the
    lcm of their denominators: the row ``rref`` takes for it."""
    nonzero = [(c, Fraction(x)) for c, x in enumerate(entries) if x]
    den = math.lcm(*(x.denominator for _, x in nonzero))
    return {c: x.numerator * (den // x.denominator) for c, x in nonzero}


def solve_exact(A: Matrix, b: Matrix):
    """Solve A x = b exactly; returns None when the system is inconsistent.

    Works for rectangular A; when the solution is underdetermined the free
    variables are set to zero.  Each row of [A | b] is cleared to integers,
    and each entry of x is one quotient of a pivot row.
    """
    if A.rows != b.rows:
        raise ValueError("A and b must have the same number of rows")
    n = A.cols
    pivots, _ = rref(int_row(a + r) for a, r in zip(dense(A), dense(b)))
    if any(pc >= n for pc in pivots):
        return None  # a row of A reduced to zero with a nonzero right-hand side
    x = [[0] * b.cols for _ in range(n)]
    for pc, row in pivots.items():
        p = row[pc]
        x[pc] = [Fraction(row.get(n + j, 0), p) for j in range(b.cols)]
    return Matrix(x)


def column(entries) -> Matrix:
    """The column vector with the given entries."""
    return Matrix([[e] for e in entries])


def column_of(A: Matrix, j: int) -> list:
    """Column j of A as a list."""
    return [A[i, j] for i in range(A.rows)]


def _jet_coerce(x):
    if isinstance(x, Jet2):
        return x
    if isinstance(x, (int, Fraction)):
        return Jet2(Fraction(x), Fraction(0), Fraction(0))
    return None


class Jet2:
    """Order-2 univariate jet (value, first, second derivative), exact."""

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1=0, d2=0):
        object.__setattr__(self, "v", Fraction(v))
        object.__setattr__(self, "d1", Fraction(d1))
        object.__setattr__(self, "d2", Fraction(d2))

    def __setattr__(self, name, value):
        raise AttributeError("Jet2 is immutable")

    @classmethod
    def variable(cls, rho0) -> "Jet2":
        """The coordinate itself, evaluated at rho0."""
        return cls(Fraction(rho0), 1, 0)

    def __add__(self, other):
        o = _jet_coerce(other)
        if o is None:
            return NotImplemented
        return Jet2(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.v, -self.d1, -self.d2)

    def __sub__(self, other):
        o = _jet_coerce(other)
        if o is None:
            return NotImplemented
        return Jet2(self.v - o.v, self.d1 - o.d1, self.d2 - o.d2)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = _jet_coerce(other)
        if o is None:
            return NotImplemented
        return Jet2(
            self.v * o.v,
            self.d1 * o.v + self.v * o.d1,
            self.d2 * o.v + 2 * self.d1 * o.d1 + self.v * o.d2,
        )

    __rmul__ = __mul__

    def _inverse(self):
        if self.v == 0:
            raise ZeroDivisionError("division by a jet with zero value")
        v = self.v
        return Jet2(1 / v, -self.d1 / v**2, (2 * self.d1**2 - v * self.d2) / v**3)

    def __truediv__(self, other):
        o = _jet_coerce(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = _jet_coerce(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self._inverse() ** (-k)
        out = Jet2(1, 0, 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __bool__(self):
        return bool(self.v or self.d1 or self.d2)

    def __eq__(self, other):
        o = _jet_coerce(other)
        if o is None:
            return NotImplemented
        return (self.v, self.d1, self.d2) == (o.v, o.d1, o.d2)

    def __hash__(self):
        return hash((self.v, self.d1, self.d2))

    def __repr__(self):
        return f"Jet2({self.v}, {self.d1}, {self.d2})"


def sparse_nullspace(rows, ncols: int) -> list:
    """Kernel basis of a sparse exact system.

    ``rows`` is an iterable of {col: Fraction} dictionaries, each cleared
    to integers for ``rref``.  Returns a list of dense coefficient lists
    spanning the kernel.  Each basis vector carries 1 at its own free column
    and 0 at every other free column.
    """
    cleared = []
    for row in rows:
        cols = sorted(row)
        ints = int_row([row[c] for c in cols])
        cleared.append({cols[k]: v for k, v in ints.items()})
    pivots, _ = rref(cleared)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, row in pivots.items():
            if fc in row:
                v[pc] = -Fraction(row[fc], row[pc])
        basis.append(v)
    return basis


def nullspace(A: Matrix) -> list:
    """Basis of {v : A v = 0} as column vectors (possibly empty)."""
    rows = [dict(enumerate(row)) for row in dense(A)]
    return [column(v) for v in sparse_nullspace(rows, A.cols)]


def fraction_table(L: StructureConstants) -> list:
    """The bracket table as ``Fraction``s, ``[i][j] = [(k, c_ij^k), ...]``:
    the integer ``L.table`` over ``L.den``, which the reference kernels sum
    over.  A fresh copy each call, so a kernel builds it once."""
    den = L.den
    return [[[(k, Fraction(v, den)) for k, v in col] for col in row] for row in L.table]


def bracket(L: StructureConstants, x, y) -> list:
    """[x, y] for coordinate vectors x, y of length dim, summed over the
    integer table and divided by its denominator once."""
    d = L.dim
    if len(x) != d or len(y) != d:
        raise ValueError("vector length does not match the algebra dimension")
    out = [Fraction(0)] * d
    for i in range(d):
        xi = x[i]
        if not xi:
            continue
        row = L.table[i]
        for j in range(d):
            yj = y[j]
            if not yj:
                continue
            f = xi * yj
            for k, v in row[j]:
                out[k] += f * v
    return [v / L.den for v in out]


def killing_form(L: StructureConstants) -> Matrix:
    """beta(X, Y) = trace(ad X . ad Y) on the basis."""
    d = L.dim
    ads = [dense(ad_matrix(L, [Fraction(int(r == i)) for r in range(d)])) for i in range(d)]
    out = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            t = Fraction(0)
            for r in range(d):
                row = ads[i][r]
                for s in range(d):
                    a = row[s]
                    if a:
                        b = ads[j][s][r]
                        if b:
                            t += a * b
            out[i][j] = t
            out[j][i] = t
    return Matrix(out)


def mean_curvature_vector(M: MetricLieAlgebra, a) -> list:
    """The unique H in the abelian part, spanned by the basis vectors
    ``a``, with <H, A> = tr(ad A) there."""
    d = M.dim
    a_idx = list(a)
    if not a_idx:
        return [Fraction(0)] * d
    sub = Matrix([[M.G[i, j] for j in a_idx] for i in a_idx])
    rhs = column(
        [trace(ad_matrix(M.L, [Fraction(int(r == i)) for r in range(d)])) for i in a_idx]
    )
    sol = solve_exact(sub, rhs)
    if sol is None:
        raise ValueError("Gram restriction to the abelian part is singular")
    H = [Fraction(0)] * d
    for pos, i in enumerate(a_idx):
        H[i] = sol[pos, 0]
    return H


def _symmetric_part(M: MetricLieAlgebra, A: Matrix) -> Matrix:
    return add(A, adjoint_operator(M, A)).scale(_HALF)


def lauret_terms(M: MetricLieAlgebra, a):
    """(R, B_op, adHs), the terms of ric = R - B_op/2 - adHs.

    B_op is the Killing endomorphism G^{-1} beta, adHs the symmetric part of
    ad(H) for the mean curvature vector H of the abelian part ``a``, and R
    comes from its defining sums (:func:`curvature_operator_sums`).  None of
    the three reads ``M.ric``, so the decomposition is a check on it.
    """
    b_op = fraction_matmul(fraction_inverse(M.G), killing_form(M.L))
    H = mean_curvature_vector(M, a)
    ad_h_s = _symmetric_part(M, ad_matrix(M.L, H))
    return curvature_operator_sums(M), b_op, ad_h_s


def curvature_operator_sums(M: MetricLieAlgebra) -> Matrix:
    """The R term from its defining sums over an orthonormal basis {e_k},

        <R X, Y> = -1/2 sum_kl <[X, e_k], e_l> <[Y, e_k], e_l>
                   + 1/4 sum_kl <[e_k, e_l], X> <[e_k, e_l], Y>,

    rewritten over the basis {b_a} of the algebra.  Over an orthonormal
    basis, sum_k <u, e_k> <v, e_k> contracts the coordinates of u and v with
    G^{-1}, so the first sum is tr(ad_Y* ad_X) = tr(G^{-1} ad_Y^T G ad_X)
    and the second is sum (G^{-1})_ac (G^{-1})_bd w_ab(X) w_cd(Y), with
    w_ab(X) = <[b_a, b_b], X>.  Both are rational for any Gram matrix, with
    no square root.  R is G^{-1} times the bilinear form; ``M.ric`` is not
    read.
    """
    d = M.dim
    L = M.L
    Gi = fraction_inverse(M.G)
    G = dense(M.G)
    sp = fraction_table(L)
    ads = [ad_matrix(L, [Fraction(int(r == i)) for r in range(d)]) for i in range(d)]
    # tr(ad_Y* ad_X) = sum_pq left[Y][p][q] right[X][q][p]
    left = [dense(fraction_matmul(Gi, ad.transpose())) for ad in ads]
    right = [dense(fraction_matmul(M.G, ad)) for ad in ads]
    # w[X][a][b] = <[b_a, b_b], b_X>, and its contraction G^{-1} w[X] G^{-1}
    w = [
        [[sum((v * G[m][x] for m, v in sp[i][j]), Fraction(0)) for j in range(d)] for i in range(d)]
        for x in range(d)
    ]
    contracted = [dense(fraction_matmul(fraction_matmul(Gi, Matrix(wx)), Gi)) for wx in w]
    bil = [[Fraction(0)] * d for _ in range(d)]
    for x in range(d):
        for y in range(x, d):
            ad_sum = sum(
                (left[y][p][q] * right[x][q][p] for p in range(d) for q in range(d)),
                Fraction(0),
            )
            bracket_sum = sum(
                (contracted[x][p][q] * w[y][p][q] for p in range(d) for q in range(d)),
                Fraction(0),
            )
            bil[x][y] = bil[y][x] = -_HALF * ad_sum + Fraction(1, 4) * bracket_sum
    return fraction_matmul(Gi, Matrix(bil))


class ClosedForms:
    """Shape-operator and Ricci spectra plus companion scalars.

    sigma and r are ordered (sigma1..sigma4), (r1..r4) with multiplicities
    (2n-2, 1, 2, 2n-2); for n = 1 the outer entries are None and their
    multiplicities vanish.  Each sigma_k and tr_shape is the rational x of
    x*sqrt(q), with the one radicand q.
    """

    __slots__ = (
        "sigma",
        "sigma_multiplicities",
        "r",
        "tr_shape",
        "q",
        "h_coeff",
        "lambda_expected",
    )

    def __init__(self, sigma, sigma_multiplicities, r, tr_shape, q, h_coeff, lambda_expected):
        self.sigma = sigma
        self.sigma_multiplicities = sigma_multiplicities
        self.r = r
        self.tr_shape = tr_shape
        self.q = q
        self.h_coeff = h_coeff
        self.lambda_expected = lambda_expected


def expected_closed_forms(p: FamilyParams) -> ClosedForms:
    n, rho, c = p.n, p.rho, p.c
    b, q = sqrt_parts((rho + c) / (rho + 2 * c))
    s1 = c / (rho + c) * b
    s2 = (2 * rho**2 + 5 * c * rho + 4 * c**2) / ((rho + 2 * c) * (rho + c)) * b
    s3 = (rho + 4 * c) / (rho + 2 * c) * b
    s4 = b
    tr_shape = (
        ((2 * n + 2) * rho**2 + (8 * n + 7) * c * rho + (8 * n + 4) * c**2)
        / ((rho + c) * (rho + 2 * c))
        * b
    )
    r1, r2, r3, r4 = ricci_eigenvalue_formulas(n, rho, c)
    mult = (2 * n - 2, 1, 2, 2 * n - 2)
    if n == 1:
        sigma = (None, s2, s3, None)
        r = (None, r2, r3, None)
    else:
        sigma = (s1, s2, s3, s4)
        r = (r1, r2, r3, r4)
    return ClosedForms(
        sigma=sigma,
        sigma_multiplicities=mult,
        r=r,
        tr_shape=tr_shape,
        q=q,
        h_coeff=(2 * n - 2) * rho / (rho + c),
        lambda_expected=Fraction(-2 * (n + 2)),
    )


def _block_diag_entries(n: int, b1r, b1i, brest, heis0, heis1, z) -> list:
    """diag(b1r, b1i, brest*1, <4x4 heis block>, heis1*1, z) layout helper,
    as dense rows for the caller to fill in."""
    d = 4 * n - 1
    out = [[0] * d for _ in range(d)]
    out[0][0] = b1r
    out[1][1] = b1i
    for i in range(2, 2 * n - 2):
        out[i][i] = brest
    for i in range(2 * n + 2, 4 * n - 2):
        out[i][i] = heis1
    out[d - 1][d - 1] = z
    base = 2 * n - 2
    for i in range(4):
        out[base + i][base + i] = heis0
    return out


def expected_ad_b1r(n: int) -> Matrix:
    """ad(B1R) block form: diag(0, 2, 1_{2n-4}, V4, 0_{2n-4}, 0)."""
    if n < 2:
        raise ValueError("the solvable part is empty for n = 1")
    out = _block_diag_entries(n, 0, 2, 1, 0, 0, 0)
    base = 2 * n - 2
    out[base][base + 2] = -1
    out[base + 1][base + 3] = -1
    out[base + 2][base] = -1
    out[base + 3][base + 1] = -1
    return Matrix(out)


def expected_ad_b1r_star(p: FamilyParams) -> Matrix:
    """Metric adjoint of ad(B1R), in closed form."""
    n, rho, c = p.n, p.rho, p.c
    if n < 2:
        raise ValueError("the solvable part is empty for n = 1")
    out = _block_diag_entries(
        n,
        0,
        2 * (rho + c) ** 2 / (rho * (rho + 2 * c)),
        1,
        0,
        0,
        -2 * c**2 / (rho * (rho + 2 * c)),
    )
    base = 2 * n - 2
    ratio = rho / (rho + 2 * c)
    out[base][base + 2] = -ratio
    out[base + 1][base + 3] = -ratio
    out[base + 2][base] = -(rho + 2 * c) / rho
    out[base + 3][base + 1] = -(rho + 2 * c) / rho
    out[1][4 * n - 2] = -c / (rho * (rho + 2 * c))
    out[4 * n - 2][1] = 4 * c * (rho + c) ** 2 / (rho * (rho + 2 * c))
    return Matrix(out)


def expected_ad_h_sym(p: FamilyParams) -> Matrix:
    """Closed form of the symmetric part of ad(H)."""
    n, rho, c = p.n, p.rho, p.c
    if n < 2:
        raise ValueError("the solvable part is empty for n = 1")
    m = Fraction(2 * n - 2)
    out = _block_diag_entries(
        n,
        0,
        m * (2 * rho**2 + 4 * c * rho + c**2) / ((rho + c) * (rho + 2 * c)),
        m * rho / (rho + c),
        0,
        0,
        -m * c**2 / ((rho + c) * (rho + 2 * c)),
    )
    base = 2 * n - 2
    ratio = rho / (rho + 2 * c)
    out[base][base + 2] = -m * ratio
    out[base + 1][base + 3] = -m * ratio
    out[base + 2][base] = -m
    out[base + 3][base + 1] = -m
    out[1][4 * n - 2] = -m * c / (2 * (rho + c) * (rho + 2 * c))
    out[4 * n - 2][1] = m * 2 * c * (rho + c) / (rho + 2 * c)
    return Matrix(out)


def expected_killing_operator(p: FamilyParams) -> Matrix:
    """Killing endomorphism (2n+4) rho/(rho+c) E_{1,1} (zero for n = 1)."""
    n, rho, c = p.n, p.rho, p.c
    d = p.dim
    out = [[0] * d for _ in range(d)]
    if n > 1:
        out[0][0] = (2 * n + 4) * rho / (rho + c)
    return Matrix(out)


def expected_mean_curvature(p: FamilyParams) -> list:
    """(2n-2) rho/(rho+c) B1R as a coordinate vector (zero for n = 1)."""
    out = [Fraction(0)] * p.dim
    if p.n > 1:
        out[0] = (2 * p.n - 2) * p.rho / (p.rho + p.c)
    return out


def expected_normality_commutator(p: FamilyParams) -> Matrix:
    """[ad(B1R), ad(B1R)*] in closed form; zero exactly when c = 0."""
    n, rho, c = p.n, p.rho, p.c
    if n < 2:
        raise ValueError("the solvable part is empty for n = 1")
    d = p.dim
    out = [[0] * d for _ in range(d)]
    k1 = 4 * c * (rho + c) / (rho * (rho + 2 * c))
    base = 2 * n - 2
    for i in (0, 1):
        out[base + i][base + i] = k1
        out[base + 2 + i][base + 2 + i] = -k1
    out[1][d - 1] = -2 * c / (rho * (rho + 2 * c))
    out[d - 1][1] = -8 * c * (rho + c) ** 2 / (rho * (rho + 2 * c))
    return Matrix(out)


# ---------------------------------------------------------------------------
# The curvature kernels over Fraction entries
# ---------------------------------------------------------------------------


def fraction_connection_coeffs(M: MetricLieAlgebra) -> list:
    """Levi-Civita connection as sparse columns: gamma[i][j] = {r: value}
    holds the nonzero coordinates of nabla_{e_i} e_j.

    Built from the left-invariant Koszul formula
    2<nabla_x y, z> = <[x,y],z> - <[y,z],x> + <[z,x],y>
    with w_ij(k) = <[e_i, e_j], e_k> kept only for pairs with a nonzero
    bracket.  By antisymmetry both of the last two terms are read from one
    index map, by_value[(a, c)] = {b: w_ab(c)}:
    w_jk(i) = by_value[(j, i)][k] and w_ki(j) = -by_value[(i, j)][k].
    """
    L, G = M.L, M.G
    d = L.dim
    sp = fraction_table(L)
    # Sparse rows of the symmetric G and G^{-1}.
    g_rows = [[(k, v) for k, v in enumerate(row) if v] for row in dense(G)]
    ginv = [[(k, v) for k, v in enumerate(row) if v] for row in dense(fraction_inverse(G))]
    w: dict = {}
    by_value: dict = {}
    for i in range(d):
        for j in range(d):
            if not sp[i][j]:
                continue
            wij: dict = {}
            for m, v in sp[i][j]:
                for k, g in g_rows[m]:
                    wij[k] = wij.get(k, 0) + v * g
            wij = w[i, j] = {k: x for k, x in wij.items() if x}
            for k, x in wij.items():
                by_value.setdefault((i, k), {})[j] = x
    gamma = [[{} for _ in range(d)] for _ in range(d)]
    for i, j in w.keys() | by_value.keys() | {(j, i) for i, j in by_value}:
        # rhs[k] = 2<nabla_{e_i} e_j, e_k>
        rhs = dict(w.get((i, j), ()))
        for part in (by_value.get((j, i), {}), by_value.get((i, j), {})):
            for k, x in part.items():
                rhs[k] = rhs.get(k, 0) - x
        col: dict = {}
        for k, x in rhs.items():
            if x:
                x = _HALF * x
                for r, g in ginv[k]:
                    col[r] = col.get(r, 0) + g * x
        gamma[i][j] = {r: x for r, x in col.items() if x}
    return gamma


def fraction_ricci_bilinear(M: MetricLieAlgebra) -> Matrix:
    """Gram matrix of the Ricci form: Ric(e_i, e_j) = tr(v -> R(v, e_i) e_j).

    With Gamma_ij^m the coordinates of nabla_{e_i} e_j and c_ki^m the
    structure constants,
    Ric_ij = sum_m t_m Gamma_ij^m - sum_{k,m} Gamma_im^k Gamma_kj^m
             - sum_{k,m} c_ki^m Gamma_mj^k,  t_m = sum_k Gamma_km^k,
    each sum taken over the nonzero entries of the sparse columns only.
    """
    L = M.L
    d = L.dim
    gamma = fraction_connection_coeffs(M)
    sp = fraction_table(L)
    # by_row[k][m] = {j: Gamma_kj^m}
    by_row = [[{} for _ in range(d)] for _ in range(d)]
    trace: dict = {}
    for k in range(d):
        for j, col in enumerate(gamma[k]):
            for m, x in col.items():
                by_row[k][m][j] = x
        for m in range(d):
            x = gamma[k][m].get(k)
            if x:
                trace[m] = trace.get(m, 0) + x
    zero = Fraction(0)
    out = []
    for i in range(d):
        row: dict = {}
        for j, col in enumerate(gamma[i]):
            for m, x in col.items():
                t = trace.get(m)
                if t:
                    row[j] = row.get(j, 0) + t * x
        for m, col in enumerate(gamma[i]):
            for k, x in col.items():
                for j, y in by_row[k][m].items():
                    row[j] = row.get(j, 0) - x * y
        for k in range(d):
            for m, v in sp[k][i]:
                for j, y in by_row[m][k].items():
                    row[j] = row.get(j, 0) - v * y
        out.append([row.get(j, zero) for j in range(d)])
    return Matrix(out)


def fraction_ricci_endomorphism(M: MetricLieAlgebra) -> Matrix:
    """Ricci endomorphism: Gram-inverse times the Ricci bilinear form."""
    return fraction_matmul(fraction_inverse(M.G), fraction_ricci_bilinear(M))


def fraction_leibniz_defects(L: StructureConstants, X: Matrix):
    """Nonzero Leibniz defects of X, as ((i, j), {k: value}) in i < j order.

    The defect X[e_i, e_j] - [X e_i, e_j] - [e_i, X e_j] is linear in X and
    summed over the nonzero structure constants and entries of X only.
    Pairs with i >= j are omitted: the defect is antisymmetric in (i, j).
    """
    d = L.dim
    sp = fraction_table(L)
    # cols[m] = nonzero (r, X[r][m]) of X e_m.
    cols = [[(r, row[m]) for r, row in enumerate(dense(X)) if row[m]] for m in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            out: dict = {}
            for m, v in sp[i][j]:
                for k, x in cols[m]:
                    out[k] = out.get(k, 0) + v * x
            for m, x in cols[i]:
                for k, v in sp[m][j]:
                    out[k] = out.get(k, 0) - x * v
            for m, x in cols[j]:
                for k, v in sp[i][m]:
                    out[k] = out.get(k, 0) - x * v
            out = {k: v for k, v in out.items() if v}
            if out:
                yield (i, j), out


def fraction_is_derivation(L: StructureConstants, D: Matrix):
    """(ok, witness): witness is the first failing basis pair (i, j), i < j."""
    first = next(fraction_leibniz_defects(L, D), None)
    return (True, None) if first is None else (False, first[0])


def fraction_direct_verdict(M: MetricLieAlgebra) -> dict:
    """``soliton_check_direct`` over Fraction entries, uncached."""
    L = M.L
    ident = identity(L.dim)
    ric = fraction_ricci_endomorphism(M)
    lam = Fraction(0)
    first = next(fraction_leibniz_defects(L, ident), None)
    if first is not None:
        # lambda = Lambda(ric) / Lambda(Id) at Id's first nonzero defect entry
        pair, id_row = first
        k = min(id_row)
        upto = takewhile(lambda entry: entry[0] <= pair, fraction_leibniz_defects(L, ric))
        lam = dict(upto).get(pair, {}).get(k, 0) / id_row[k]
    # Lambda(ric - lambda*Id) = Lambda(ric) - lambda*Lambda(Id) by linearity.
    D = Matrix(
        [
            [x - lam if r == s else x for s, x in enumerate(row)]
            for r, row in enumerate(dense(ric))
        ]
    )
    soliton = fraction_is_derivation(L, D)[0]
    return {
        "status": "soliton" if soliton else "not_soliton",
        "lambda": lam if soliton else None,
        "lambda_source": "direct" if soliton else None,
        "D": D if soliton else None,
        "checklist": None,
        "witness": None,
    }


# ---------------------------------------------------------------------------
# The exact kernels over Fraction entries, before the move onto integers
# ---------------------------------------------------------------------------


def fraction_matmul(self: Matrix, other: Matrix) -> Matrix:
    """The matrix product summed over Fraction entries."""
    if self.cols != other.rows:
        raise ValueError("shape mismatch")
    A, B = dense(self), dense(other)
    out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
    for i in range(self.rows):
        arow = A[i]
        orow = out[i]
        for k in range(self.cols):
            a = arow[k]
            if not a:
                continue
            brow = B[k]
            for j in range(other.cols):
                b = brow[j]
                if b:
                    orow[j] = orow[j] + a * b
    return Matrix(out)


def conjugated_blocks(rng, d: int):
    """A random d x d matrix similar to a block matrix B, as ``Fraction``
    rows, and whether its spectrum is real, known from B.

    B is block diagonal: Jordan blocks of rational eigenvalues, and 2 x 2
    blocks [[a, -b], [b, a]] with eigenvalues a +- ib, b in {0, 1, 1/1000}.
    B is conjugated by elementary matrices E = I + k e_ij, each applied as
    row i += k row j, then column j -= k column i, which is E B E^-1 without
    any elimination.
    """
    B = [[Fraction(0)] * d for _ in range(d)]
    real = True
    i = 0
    while i < d:
        size = rng.randint(1, min(3, d - i))
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if size == 2 and rng.random() < 0.5:
            b = rng.choice((Fraction(0), Fraction(1), Fraction(1, 1000)))
            B[i][i] = B[i + 1][i + 1] = a
            B[i][i + 1], B[i + 1][i] = -b, b
            real &= b == 0
        else:
            for k in range(i, i + size):
                B[k][k] = a
                if k > i:
                    B[k - 1][k] = Fraction(1)
        i += size
    for _ in range(3 * d if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        k = rng.choice((-2, -1, 1, 2))
        B[i] = [x + k * y for x, y in zip(B[i], B[j])]
        for row in B:
            row[j] -= k * row[i]
    return B, real


def _fraction_eliminate(row: dict, pc, prow: dict) -> None:
    """Clear column pc of ``row`` in place with ``prow``, which is 1 at pc."""
    f = row.pop(pc)
    for c, v in prow.items():
        if c == pc:
            continue
        nv = row[c] - f * v if c in row else -(f * v)
        if nv:
            row[c] = nv
        else:
            del row[c]


def _fraction_reduce(row: dict, pivots: dict) -> dict:
    """A copy of ``row`` with every pivot column cleared by its pivot row.

    Each pivot row leads at its own column and holds no column of a pivot
    made before it, so clearing one pivot column can only bring in columns
    of later pivots, and the loop ends.
    """
    row = {c: v for c, v in row.items() if v}
    while True:
        pc = next((c for c in row if c in pivots), None)
        if pc is None:
            return row
        _fraction_eliminate(row, pc, pivots[pc])


def fraction_rref(rows):
    """Reduced row echelon form of exact sparse rows: (pivots, leads).

    ``rows`` is an iterable of {col: Fraction} dictionaries.  ``pivots``
    maps each pivot column to its row, normalised to 1 at the pivot, whose
    leftmost entry is the pivot and which is 0 at every other pivot column.
    ``leads`` holds, for each input row, the (col, value) it led with after
    reduction by the rows before it, or None if it reduced to zero.  The
    RREF is unique, so neither depends on elimination order.
    """
    pivots: dict = {}
    leads = []
    for row in rows:
        row = _fraction_reduce(row, pivots)
        if not row:
            leads.append(None)
            continue
        pc = min(row)
        d = row[pc]
        leads.append((pc, d))
        pivots[pc] = {c: v / d for c, v in row.items()}
    # Back-substitute, rightmost pivot first, so each row is cleared against
    # rows that are already reduced.
    for pc in sorted(pivots, reverse=True):
        row = pivots[pc]
        for qc in [c for c in row if c != pc and c in pivots]:
            _fraction_eliminate(row, qc, pivots[qc])
    return pivots, leads


def fraction_solve_exact(A: Matrix, b: Matrix):
    """Solve A x = b exactly; returns None when the system is inconsistent.

    Works for rectangular A; when the solution is underdetermined the free
    variables are set to zero.
    """
    if A.rows != b.rows:
        raise ValueError("A and b must have the same number of rows")
    n = A.cols
    pivots, _ = fraction_rref(dict(enumerate(a + r)) for a, r in zip(dense(A), dense(b)))
    if any(pc >= n for pc in pivots):
        return None  # a row of A reduced to zero with a nonzero right-hand side
    x = [[0] * b.cols for _ in range(n)]
    for pc, row in pivots.items():
        x[pc] = [row.get(n + j, 0) for j in range(b.cols)]
    return Matrix(x)


def fraction_inverse(A: Matrix) -> Matrix:
    if A.rows != A.cols:
        raise ValueError("inverse of a non-square matrix")
    x = fraction_solve_exact(A, identity(A.rows))
    if x is None or fraction_matmul(A, x) != identity(A.rows):
        raise ValueError("matrix is singular")
    return x


def fraction_jacobi_witness(L: StructureConstants):
    """First (i, j, k, defect vector) with a nonzero Jacobiator, or None.

    Triples are reported in i < j < k order.  The Jacobiator
    [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] is accumulated
    as a sparse {index: value} defect per triple, and only for the triples
    that some nonzero bracket [[e_a, e_b], e_e] reaches.  A repeated index
    gives a zero Jacobiator by antisymmetry, so those terms are skipped.
    """
    d = L.dim
    sp = fraction_table(L)
    # outer[m] = the indices e with a nonzero [e_m, e_e].
    outer = [[e for e in range(d) if sp[m][e]] for m in range(d)]
    defects: dict = {}
    for a in range(d):
        for b in range(a + 1, d):
            for m, v in sp[a][b]:
                for e in outer[m]:
                    # [[e_a, e_b], e_e] is a cyclic term of the sorted triple
                    # when (a, b, e) is an even permutation of it; a < e < b
                    # is the one odd case, which flips the sign.
                    if e > b:
                        key, f = (a, b, e), v
                    elif e < a:
                        key, f = (e, a, b), v
                    elif a < e < b:
                        key, f = (a, e, b), -v
                    else:
                        continue
                    out = defects.get(key)
                    if out is None:
                        out = defects[key] = {}
                    for r, w in sp[m][e]:
                        out[r] = out.get(r, 0) + f * w
    for key in sorted(defects):
        out = defects[key]
        if any(out.values()):
            zero = Fraction(0)
            return (*key, [out.get(r, zero) for r in range(d)])
    return None


def _fraction_bracket_rows(sp: list, x: dict, y: dict) -> dict:
    """[x, y] for sparse {index: scalar} vectors, over the nonzero entries
    of the ``Fraction`` table ``sp`` only; zero sums may be left in."""
    out: dict = {}
    for a, xa in x.items():
        row = sp[a]
        for b, yb in y.items():
            f = xa * yb
            for k, v in row[b]:
                out[k] = out.get(k, 0) + f * v
    return out


def _fraction_span_rows(rows) -> list:
    """RREF rows ({index: scalar}, 1 at the pivot) of the span, in pivot order."""
    pivots, _ = fraction_rref(rows)
    return [pivots[pc] for pc in sorted(pivots)]


def _fraction_basis_rows(indices) -> list:
    return [{i: Fraction(1)} for i in indices]


def fraction_lower_central_series_vanishes(L: StructureConstants, indices) -> bool:
    """Nilpotency of the span of the basis vectors ``indices`` (assumed a
    subalgebra): the series n, [n, n], [n, [n, n]], ... reaches zero."""
    sp = fraction_table(L)
    basis = _fraction_basis_rows(indices)
    current = basis
    while current:
        nxt = _fraction_span_rows(_fraction_bracket_rows(sp, x, y) for x in basis for y in current)
        if len(nxt) >= len(current):
            return False
        current = nxt
    return True


def fraction_verify_splitting(L: StructureConstants, a, G: Matrix) -> dict:
    """Check the splitting declared by the abelian part's basis indices
    ``a`` against the algebra and the metric.

    The nilpotent part, the rest of the basis, is a *declared* nilradical
    candidate: the report certifies ideal-ness, nilpotency, and containment
    of the derived algebra separately rather than computing a nilradical
    from scratch.
    """
    d = L.dim
    if sorted(set(a)) != sorted(a) or not set(a) <= set(range(d)):
        raise ValueError("abelian part indices must be distinct basis indices")
    n_idx = [i for i in range(d) if i not in a]
    # The parts are spans of basis vectors, so a bracket lies in n exactly
    # when its nonzero structure constants all land on n's indices.
    sp = fraction_table(L)
    in_n = [False] * d
    for i in n_idx:
        in_n[i] = True

    def lands_in_n(i, j):
        return all(in_n[k] for k, _ in sp[i][j])

    return {
        "n_is_ideal": all(lands_in_n(i, j) for i in range(d) for j in n_idx),
        "n_is_nilpotent": fraction_lower_central_series_vanishes(L, n_idx),
        "n_contains_derived": all(
            lands_in_n(i, j) for i in range(d) for j in range(i + 1, d)
        ),
        "a_is_abelian": not any(sp[i][j] for i in a for j in a),
        "a_orthogonal_to_n": all(G[i, j] == 0 for i in a for j in n_idx),
    }


def adjoint_operator(M: MetricLieAlgebra, A: Matrix) -> Matrix:
    """Metric adjoint A* = G^{-1} A^T G."""
    if A.rows != M.dim or A.cols != M.dim:
        raise ValueError("operator size does not match the algebra")
    return fraction_matmul(fraction_matmul(fraction_inverse(M.G), A.transpose()), M.G)


def checklist_verdict(M: MetricLieAlgebra, a) -> dict:
    """``soliton_check_lauret`` on ``M`` and the abelian part ``a``, given
    the splitting report and the direct verdict it takes."""
    return soliton_check_lauret(M, a, verify_splitting(M.L, a, M.G), soliton_check_direct(M))


def fraction_soliton_check_lauret(M: MetricLieAlgebra, a) -> dict:
    """Checklist route: nilsoliton part, abelian complement, normal adjoints,
    and the norm condition <A, B> = -tr(sym(ad A) sym(ad B))/lambda for
    every ordered pair A, B of basis vectors of the abelian part.

    The splitting must verify first.  The verdict's checklist keys are
    "nilsoliton", "a_abelian", "ad_normal", "norm_condition"; the witness is
    the first failing matrix.
    """
    report = verify_splitting(M.L, a, M.G)
    if not all(report.values()):
        raise ValueError("declared splitting failed verification")
    d = M.dim
    n_idx = [i for i in range(d) if i not in a]
    sub_L = subalgebra(M.L, n_idx)
    sub_M = MetricLieAlgebra(sub_L, _restrict_gram(M.G, n_idx))
    sub_verdict = soliton_check_direct(sub_M)
    cond_nil = sub_verdict["status"] == "soliton"
    cond_abelian = report["a_is_abelian"]
    witness = None

    cond_normal = True
    a_ads = []
    for i in a:
        x = [Fraction(int(r == i)) for r in range(d)]
        ad_a = ad_matrix(M.L, x)
        ad_a_star = adjoint_operator(M, ad_a)
        a_ads.append((i, ad_a, ad_a_star))
        comm = add(fraction_matmul(ad_a, ad_a_star), fraction_matmul(ad_a_star, ad_a).scale(-1))
        if not is_zero(comm):
            cond_normal = False
            if witness is None:
                witness = comm

    direct = soliton_check_direct(M)
    if direct["status"] == "soliton":
        lam, lam_source = direct["lambda"], "direct"
    elif cond_nil:
        lam, lam_source = sub_verdict["lambda"], "nilsoliton"
    else:
        lam, lam_source = None, "none"

    cond_norm = True
    if lam is None or lam == 0:
        cond_norm = not a_ads  # vacuous only when the abelian part is empty
    else:
        syms = [(i, add(ad_a, ad_a_star).scale(_HALF)) for i, ad_a, ad_a_star in a_ads]
        for i, sym_i in syms:
            for j, sym_j in syms:
                if M.G[i, j] != -trace(fraction_matmul(sym_i, sym_j)) / lam:
                    cond_norm = False
    checklist = {
        "nilsoliton": cond_nil,
        "a_abelian": cond_abelian,
        "ad_normal": cond_normal,
        "norm_condition": cond_norm,
    }
    ok = all(checklist.values())
    return {
        "status": "soliton" if ok else "not_soliton",
        "lambda": lam,
        "lambda_source": lam_source,
        "D": direct["D"] if direct["status"] == "soliton" else None,
        "checklist": checklist,
        "witness": witness,
    }


# Basis (A1, A2, X, Y, Z): [X, Y] = Z, with ad A1 = diag(1, 0, 1) and
# ad A2 = diag(0, 1, 1) on (X, Y, Z), so the abelian part has dimension 2
# and the checklist's norm condition has an off-diagonal entry <A1, A2>.
TWO_ABELIAN = StructureConstants.from_triples(
    5, [(2, 3, 4, 1), (0, 2, 2, 1), (0, 4, 4, 1), (1, 3, 3, 1), (1, 4, 4, 1)]
)
TWO_ABELIAN_SPLITTING = (0, 1)


def two_abelian_gram(a12) -> Matrix:
    """diag(4/3, 4/3, 1, 1, 1) with <A1, A2> = a12: the nilradical's
    lambda = -3/2 meets the norm condition at both diagonal entries, and at
    the off-diagonal one only for a12 = 2/3."""
    G = dense(Matrix.diagonal([Fraction(4, 3), Fraction(4, 3), 1, 1, 1]))
    G[0][1] = G[1][0] = a12
    return Matrix(G)


# ---------------------------------------------------------------------------
# The Heisenberg case n = 1, stated apart
# ---------------------------------------------------------------------------
#
# The n = 1 bodies of the family builders, the shape operator and the CLI's
# principal Ricci curvatures, written for n = 1 alone: the reference that
# the package's general bodies must equal at n = 1.


def heisenberg_gram(p: FamilyParams) -> Matrix:
    """``family.build_gram`` at n = 1."""
    rho, c = p.rho, p.c
    entries = [
        (2 * c + rho) / (4 * rho**2),
        (2 * c + rho) / (4 * rho**2),
        (c + rho) / (4 * (2 * c + rho) * rho**2),
    ]
    d = len(entries)
    g = [[e if i == j else 0 for j in range(d)] for i, e in enumerate(entries)]
    return Matrix(g)


def heisenberg_coordinate_names() -> list:
    """``family.coordinate_names`` at n = 1."""
    return ["phi", "zt0", "z0"]


def heisenberg_embedding(p: FamilyParams) -> Matrix:
    """``family.build_embedding`` at n = 1 (its Gram identity is the
    package's to check)."""
    names = heisenberg_coordinate_names()
    row = {name: i for i, name in enumerate(names)}
    P = [[0] * p.dim for _ in range(p.dim)]
    P[row["zt0"]][0] = _HALF
    P[row["z0"]][1] = _HALF
    P[row["phi"]][2] = 1
    return Matrix(P)


def heisenberg_ric_matrix(p: FamilyParams) -> Matrix:
    """``family.expected_ric_matrix`` at n = 1."""
    r1, r2, r3, r4 = ricci_eigenvalue_formulas(p.n, p.rho, p.c)
    return Matrix.diagonal([r3, r3, r2])


def heisenberg_principal_ricci(p: FamilyParams) -> tuple:
    """``cli._principal_ricci`` at n = 1: (r1, r2, r3, r4) with the two
    absent curvatures left as None."""
    r = ricci_eigenvalue_formulas(p.n, p.rho, p.c)
    return (None, r[1], r[2], None)


def heisenberg_slice_diagonal(c) -> list:
    """The slice diagonal (phi, zeta~_0, zeta^0) at n = 1, in the
    (K, ((a, p), ...)) form of ``family.slice_diagonal``."""
    phi = (Fraction(1, 4), ((0, -2), (c, 1), (2 * c, -1)))
    z0 = (Fraction(1, 2), ((0, -2), (2 * c, 1)))
    return [phi, z0, z0]


def heisenberg_shape_operator(p: FamilyParams) -> tuple:
    """``hypersurface.shape_operator`` at n = 1, (sigma, trace, q), over the
    jets of :func:`heisenberg_slice_diagonal`, with rho^2 left inside the
    root of 1/f."""
    b, q = sqrt_parts(1 / p.warp_jet[0])
    jets = [power_jet(p.rho, *entry) for entry in heisenberg_slice_diagonal(p.c)]
    coeffs = [-d1 / 2 * b for _, d1, _ in jets]
    return (None, coeffs[0], coeffs[1], None), sum(coeffs), q
