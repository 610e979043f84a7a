"""Exact scalars: rationals, quadratic surds, and the power rule for jets.

Rational numbers are plain ``fractions.Fraction`` (always reduced, positive
denominator, serialized as ``"p/q"`` or ``"p"``), and the exact pipeline runs
over them alone.  :func:`sqrt_parts` writes the root of a rational as
b*sqrt(q) with an integer radicand q, and ``Surd`` holds such a value with
q > 1 to be compared and rendered; it has no arithmetic.  Whether a root is
rational is decided exactly, without factoring: the squares of the primes
below 1000 leave the radicand, and a square of a larger prime stays inside
it.
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
    "sqrt_parts",
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
    """k = s^2 * m for k >= 0; returns (s, m).

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


def sqrt_parts(x) -> tuple:
    """(b, q) with sqrt(x) = b*sqrt(q) for a rational x >= 0: b a Fraction
    and q an int, with q = 1 exactly when the root is rational.

    sqrt(num/den) = sqrt(num*den)/den, and the squares of the primes below
    1000 leave num*den (:func:`_squarefree_decompose`).
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of a negative rational")
    s, q = _squarefree_decompose(x.numerator * x.denominator)
    return Fraction(s, x.denominator), q


class Surd:
    """b*sqrt(q) with a rational b != 0 and an integer q > 1 that is not a
    perfect square, as :func:`sqrt_parts` leaves it.

    It compares and hashes by value, so two presentations of one number
    (say (1/4)sqrt(24) and (1/2)sqrt(6)) are equal; it converts to float
    and renders as "0 + b*sqrt(q)"; it has no arithmetic.
    """

    __slots__ = ("b", "q")

    def __init__(self, b: Fraction, q: int):
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
        return self.b > 0, self.b * self.b * self.q

    def __hash__(self):
        return hash(self._value_key())

    def __float__(self):
        try:
            root = float(self.q) ** 0.5
        except OverflowError:  # q >= 2^1024, so isqrt errs by 2^-512 at most
            return float(self.b * isqrt(self.q))
        return float(self.b) * root

    def __str__(self):
        return f"0 + {self.b}*sqrt({self.q})"

    __repr__ = __str__
