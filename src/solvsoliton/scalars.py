"""Exact scalars: the root of a rational, and the power rule for jets.

Rational numbers are plain ``fractions.Fraction``, and the exact pipeline
runs over them alone.  :func:`sqrt_parts` writes the root of a rational as
b*sqrt(q) with a rational b and an integer radicand q.  Whether a root is
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

__all__ = ["power_jet", "sqrt_parts"]


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

