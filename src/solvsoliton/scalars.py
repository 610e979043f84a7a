"""Exact scalars: rationals, quadratic surds, and the power rule for jets.

Rational numbers are plain ``fractions.Fraction`` (always reduced, positive
denominator, serialized as ``"p/q"`` or ``"p"``), and the exact pipeline runs
over them alone.  ``Surd`` is a value a + b*sqrt(q) with a canonical
squarefree radicand q, built by :func:`surd` to be compared and rendered; it
has no arithmetic.  :func:`power_jet` gives a product of powers
s = K * prod (rho + a)^p with s'/s and s''/s in rho, over ``Fraction`` or
``float``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count
from math import gcd, isqrt

__all__ = [
    "FactoringRefused",
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


# Trial division strips the primes below _SMALL_LIMIT, so a cofactor below
# _SMALL_LIMIT**2 that is left over is prime.
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
# Miller-Rabin over the first 13 prime bases proves primality below
# _MR_BOUND (Sorenson & Webster, Math. Comp. 86, 2017); a failed round proves
# compositeness at any size.
_MR_BASES = _SMALL_PRIMES[:13]
_MR_BOUND = 3317044064679887385961981
_RHO_BATCH = 128
# Pollard-Brent squarings allowed per radicand: a fixed count, so whether a
# radicand is refused does not depend on the machine.  On 2 vCPUs they take
# about 3 s on 80-160-bit cofactors and 8 s on a 278-bit one.
_RHO_BUDGET = 2**23


class FactoringRefused(ArithmeticError):
    """A radicand whose squarefree part could not be settled: splitting it
    ran past :data:`_RHO_BUDGET`, or a cofactor beyond the proven range of
    the Miller-Rabin bases is probably prime without a proof."""


def _miller_rabin(n: int) -> bool:
    """False if some base proves the odd n > 41 composite; True otherwise."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_factor(n: int, budget: int) -> tuple:
    """(d, steps): a proper factor d of the odd composite n, by Pollard rho
    in Brent's form (Brent, BIT 20, 1980) with gcds batched over _RHO_BATCH
    steps, and the squarings it took.  Raises FactoringRefused rather than
    start a run of squarings that would take more than ``budget``."""
    steps = 0

    def spend(k):
        nonlocal steps
        steps += k
        if steps > budget:
            raise FactoringRefused(
                f"a {n.bit_length()}-bit cofactor was not split within "
                f"{_RHO_BUDGET} squarings"
            )

    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            spend(r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(_RHO_BATCH, r - k)
                spend(batch)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                spend(1)
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, steps


@lru_cache(maxsize=1024)
def _cofactor_primes(k: int) -> tuple:
    """Prime factors of k > 1, which has no prime factor below _SMALL_LIMIT.

    Composites are split by rho, within _RHO_BUDGET squarings in all.  A
    factor is called prime only with a proof: below _SMALL_LIMIT**2, or by
    a Miller-Rabin pass below _MR_BOUND; a larger factor that passes is
    refused, since trial division to its square root cannot finish.
    Cached, because related radicands (q and the warp factor of one
    instance) share their hard cofactor.
    """
    factors = []
    pending = [k]
    budget = _RHO_BUDGET
    while pending:
        f = pending.pop()
        if f < _SMALL_LIMIT**2:
            factors.append(f)
        elif not _miller_rabin(f):
            d, steps = _brent_factor(f, budget)
            budget -= steps
            pending += [d, f // d]
        elif f < _MR_BOUND:
            factors.append(f)
        else:
            raise FactoringRefused(
                f"a {f.bit_length()}-bit cofactor passes Miller-Rabin beyond its proven range"
            )
    return tuple(factors)


def _squarefree_decompose(k: int):
    """k = s^2 * m with m squarefree; returns (s, m).

    Small primes are divided out; the cofactor goes to :func:`_cofactor_primes`.
    """
    factors = []
    for p in _SMALL_PRIMES:
        if p * p > k:
            break
        while k % p == 0:
            factors.append(p)
            k //= p
    if k > 1:
        factors += _cofactor_primes(k)
    s, m = 1, 1
    for p, e in Counter(factors).items():
        s *= p ** (e // 2)
        if e % 2:
            m *= p
    return s, m


def surd(a, b=0, q=1):
    """Build a + b*sqrt(q), collapsing to a Fraction whenever exact.

    Radicands are canonicalized to their squarefree integer core, so two
    presentations of the same value (say sqrt(3/8) and (1/4)sqrt(6)) compare
    equal.  The result is a plain Fraction if b = 0 or q is a
    rational square; otherwise a normalized Surd with b != 0 and q a
    squarefree integer > 1.
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
    """a + b*sqrt(q) with rational a, b != 0 and a squarefree integer q > 1.

    Built by the :func:`surd` factory, or directly by a caller that already
    holds a canonical q.  It compares, hashes, converts to float and
    renders; it has no arithmetic.
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
            return (self.a, self.b, self.q) == (other.a, other.b, other.q)
        if isinstance(other, (int, Fraction)):
            return False  # irrational by normalization
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    def __float__(self):
        return float(self.a) + float(self.b) * float(self.q) ** 0.5

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt({self.q})"

    __repr__ = __str__
