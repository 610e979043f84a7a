"""Exact scalars: rationals, quadratic surds, and the power rule for jets.

Rational numbers are plain ``fractions.Fraction`` (always reduced, positive
denominator, serialized as ``"p/q"`` or ``"p"``), and the exact pipeline runs
over them alone.  ``Surd`` is a value a + b*sqrt(q) with an integer radicand
q > 1 that is not a perfect square, built by :func:`surd` to be compared and
rendered; it has no arithmetic.  Whether a root is rational is decided
exactly, without factoring: the squares of the primes below 1000 leave the
radicand, and a square of a larger prime stays inside it.
:func:`power_jet` gives a product of powers s = K * prod (rho + a)^p with
s'/s and s''/s in rho, over ``Fraction`` or ``float``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import isqrt

__all__ = [
    "Fraction",
    "Surd",
    "power_jet",
    "rational",
    "surd",
    "sqrt_fraction",
]


def rational(value) -> Fraction:
    """Parse a rational from "p/q" / "p" strings, ints, or Fractions."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def power_jet(rho, scale, factors) -> tuple:
    """(s, s'/s, s''/s) at rho for s = scale * prod (rho + a)^p over the
    (a, p) in ``factors``, with integer powers p.

    From l1 = sum p/(rho + a) = s'/s and l2 = sum p/(rho + a)^2 = -(s'/s)',
    s''/s = l1^2 - l2.  The arithmetic is that of the inputs: exact over
    ``Fraction``, rounded over ``float``, where the power y**p in s raises
    OverflowError out of range instead of giving inf.  The square in l2 is
    y*y, so an intermediate square beyond float range gives a term of 0
    rather than refusing a finite jet.
    """
    s, l1, l2 = scale, 0, 0
    for a, p in factors:
        y = rho + a
        s *= y**p
        l1 += p / y
        l2 += p / (y * y)
    return s, l1, l1 * l1 - l2


_SMALL_LIMIT = 1000


def _primes_below(limit: int) -> list:
    """The primes below ``limit``, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return list(compress(range(limit), sieve))


_SMALL_PRIMES = _primes_below(_SMALL_LIMIT)


def _squarefree_decompose(k: int):
    """k = s^2 * m for k >= 1; returns (s, m).

    The squares of the primes below _SMALL_LIMIT are divided out, and m = 1
    exactly when k is a perfect square, which ``math.isqrt`` decides for the
    cofactor without factoring it.  m is squarefree unless the square of a
    prime above _SMALL_LIMIT divides it.
    """
    s = 1
    for p in _SMALL_PRIMES:
        pp = p * p
        if pp > k:
            break
        while k % pp == 0:
            s *= p
            k //= pp
    root = isqrt(k)
    if root * root == k:
        return s * root, 1
    return s, k


def surd(a, b=0, q=1):
    """Build a + b*sqrt(q), collapsing to a Fraction whenever exact.

    The radicand becomes an integer with the squares of the primes below
    1000 taken out (:func:`_squarefree_decompose`).  The result is a plain
    Fraction if b = 0 or q is a rational square; otherwise a Surd with
    b != 0 and q an integer > 1 that is not a perfect square.
    """
    a, b, q = Fraction(a), Fraction(b), Fraction(q)
    if b == 0 or q == 0:
        return a
    if q < 0:
        raise ValueError("negative radicand")
    # sqrt(num/den) = sqrt(num*den)/den = (s/den) sqrt(m)
    s, m = _squarefree_decompose(q.numerator * q.denominator)
    if m == 1:
        return a + b * Fraction(s, q.denominator)
    return Surd(a, b * Fraction(s, q.denominator), Fraction(m))


def sqrt_fraction(x):
    """sqrt of a non-negative Fraction as an exact scalar (Fraction or Surd)."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of a negative rational")
    if x == 0:
        return Fraction(0)
    return surd(0, 1, x)


class Surd:
    """a + b*sqrt(q) with rational a, b != 0 and an integer q > 1 that is not
    a perfect square.

    Built by the :func:`surd` factory, or directly by a caller that already
    holds such a q.  It compares and hashes by value, so two presentations
    of one number (say (1/4)sqrt(24) and (1/2)sqrt(6)) are equal; it
    converts to float and renders; it has no arithmetic.
    """

    __slots__ = ("a", "b", "q")

    def __init__(self, a: Fraction, b: Fraction, q: Fraction):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("Surd is immutable")

    def __eq__(self, other):
        if isinstance(other, Surd):
            return self._value_key() == other._value_key()
        if isinstance(other, (int, Fraction)):
            return False  # irrational, as q is not a perfect square
        return NotImplemented

    def _value_key(self):
        # b*sqrt(q) is determined by the sign of b and by b^2 q
        return self.a, self.b > 0, self.b * self.b * self.q

    def __hash__(self):
        return hash(self._value_key())

    def __float__(self):
        try:
            root = float(self.q) ** 0.5
        except OverflowError:  # q >= 2^1024, so isqrt errs by 2^-512 at most
            return float(self.a + self.b * isqrt(int(self.q)))
        return float(self.a) + float(self.b) * root

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt({self.q})"

    __repr__ = __str__
