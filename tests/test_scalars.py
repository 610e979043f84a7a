"""Exact scalar arithmetic: rationals, roots of rationals, the power rule for jets."""

import random
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import Jet2, times_sqrt

from solvsoliton import scalars
from solvsoliton.scalars import power_jet


class TestRational:
    def test_basic_field_ops(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
        assert Fraction(2, 4) == Fraction(1, 2)  # reduced representation

    def test_denominator_structure_substitution(self):
        # (rho + 2c)/(rho + c) at rho=1, c=1/2
        rho, c = Fraction(1), Fraction(1, 2)
        assert (rho + 2 * c) / (rho + c) == Fraction(4, 3)

    def test_parse_and_format(self):
        assert str(Fraction(5, 6)) == "5/6"
        assert str(Fraction(7)) == "7"

    def test_field_axioms_randomized(self):
        rng = random.Random(99)

        def rand():
            return Fraction(rng.randint(-40, 40), rng.randint(1, 25))

        for _ in range(200):
            x, y, z = rand(), rand(), rand()
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)


class TestSqrtParts:
    def test_zero(self):
        assert scalars.sqrt_parts(0) == (0, 1)

    def test_rational_root(self):
        assert scalars.sqrt_parts(Fraction(9, 4)) == (Fraction(3, 2), 1)

    def test_square_factor_leaves_the_radicand(self):
        # sqrt(2/3) = (1/3) sqrt(6) and sqrt(3/4) = (1/2) sqrt(3)
        b, q = scalars.sqrt_parts(Fraction(2, 3))
        assert (b, q) == (Fraction(1, 3), 6) and type(q) is int
        assert b**2 * q == Fraction(2, 3)
        assert scalars.sqrt_parts(Fraction(3, 4)) == (Fraction(1, 2), 3)

    def test_square_of_a_large_prime_stays_inside(self):
        # 1009 is above _SMALL_LIMIT, so its square is not taken out
        assert scalars.sqrt_parts(1009**2 * 3) == (1, 1009**2 * 3)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            scalars.sqrt_parts(-1)


class TestTimesSqrt:
    def test_sigma4_value(self):
        # sqrt((rho+c)/(rho+2c)) at rho=1, c=1 is sqrt(2/3) = (1/3) sqrt(6)
        x, q = times_sqrt(1, Fraction(2, 3))
        assert (x, q) == (Fraction(1, 3), 6)
        assert abs(float(x) * q**0.5 - (2 / 3) ** 0.5) < 1e-15
        assert times_sqrt(2, Fraction(9, 4)) == (3, 1)

    def test_sigma_ratio_is_rational(self):
        # sigma1 / sigma4 = c/(rho+c) at rho=1, c=1: one radicand, rational
        # coefficients in the ratio 1/2
        rho, c = Fraction(1), Fraction(1)
        q = (rho + c) / (rho + 2 * c)
        (s1, q1), (s4, q4) = times_sqrt(c / (rho + c), q), times_sqrt(1, q)
        assert q1 == q4
        assert s1 / s4 == Fraction(1, 2)

    def test_canonical_radicands(self):
        # (2/3) sqrt(3/8) = (1/2) sqrt(2/3) = (1/6) sqrt(6): one presentation
        assert times_sqrt(Fraction(2, 3), Fraction(3, 8)) == (Fraction(1, 6), 6)
        assert times_sqrt(Fraction(1, 2), Fraction(2, 3)) == (Fraction(1, 6), 6)


class TestJet2:
    def test_variable_square(self):
        v = Jet2.variable(2)
        assert v * v == Jet2(4, 4, 2)

    def test_variable_definition(self):
        assert Jet2.variable(Fraction(3, 2)) == Jet2(Fraction(3, 2), 1, 0)

    def test_product_rule(self):
        x, y = Jet2(2, 3, 5), Jet2(7, 11, 13)
        z = x * y
        assert z.d1 == x.d1 * y.v + x.v * y.d1
        assert z.d2 == x.d2 * y.v + 2 * x.d1 * y.d1 + x.v * y.d2

    def test_warp_function_jet(self):
        # f = (rho+2c)/(4 rho^2 (rho+c)) at rho=1, c=0 is 1/(4 rho^2):
        # value 1/4, first derivative -1/2, second derivative 3/2
        rv = Jet2.variable(1)
        f = (rv + 0) / (4 * rv**2 * (rv + 0))
        assert f.v == Fraction(1, 4)
        assert f.d1 == Fraction(-1, 2)
        assert f.d2 == Fraction(3, 2)

    def test_division_requires_nonzero_value(self):
        with pytest.raises(ZeroDivisionError):
            Jet2(1) / Jet2(0, 1, 0)

    def test_reciprocal_inverts(self):
        x = Jet2(Fraction(3), Fraction(-2), Fraction(7))
        assert x * (1 / x) == Jet2(1)

    def test_negative_powers(self):
        x = Jet2.variable(Fraction(2))
        assert x ** (-1) == 1 / x



class TestPowerJet:
    def test_warp_factor(self):
        # f = (rho+2c)/(4 rho^2 (rho+c)) at rho=1, c=0 is 1/(4 rho^2):
        # value 1/4, f'/f = -2, f''/f = 6
        assert power_jet(Fraction(1), Fraction(1, 4), ((0, -2), (0, -1), (0, 1))) == (
            Fraction(1, 4),
            -2,
            6,
        )

    def test_empty_product_is_the_constant(self):
        assert power_jet(Fraction(3), Fraction(5), ()) == (5, 0, 0)

    def test_float_range_is_refused(self):
        # ** raises where * would give inf; an underflowed (rho + a)**2
        # makes p/(rho + a)**2 raise as well
        with pytest.raises(OverflowError):
            power_jet(1e300, 1.0, ((0.0, 2),))
        with pytest.raises(ZeroDivisionError):
            power_jet(1e-200, 1.0, ((0.0, -1),))

    def test_power_jet_vs_exact_finite_differences(self):
        # Central differences at step exactly 1/10^6, evaluated in rational
        # arithmetic so only the O(h^2) truncation remains; 1e-4 relative.
        # (a x + b)^e enters the power rule as a^e (x + b/a)^e.
        rng = random.Random(12345)
        h = Fraction(1, 10**6)
        checked = 0
        for _ in range(60):
            k = rng.randint(2, 4)
            factors = [
                (
                    Fraction(rng.randint(1, 4)),
                    Fraction(rng.randint(-3, 3)),
                    rng.choice([-1, 1, 1, 2]),
                )
                for _ in range(k)
            ]
            x0 = Fraction(rng.randint(1, 8), rng.randint(1, 3)) + Fraction(1, 7)
            if any(abs(a * x0 + b) < Fraction(1, 4) for a, b, _ in factors):
                continue

            def value(x):
                out = Fraction(1)
                for a, b, e in factors:
                    out *= (a * x + b) ** e
                return out

            scale = Fraction(1)
            for a, _, e in factors:
                scale *= a**e
            s, d1, d2 = power_jet(x0, scale, [(b / a, e) for a, b, e in factors])
            assert s == value(x0)
            fd1 = float((value(x0 + h) - value(x0 - h)) / (2 * h))
            fd2 = float((value(x0 + h) - 2 * value(x0) + value(x0 - h)) / h**2)
            assert abs(fd1 - float(s * d1)) <= 1e-4 * max(1.0, abs(float(s * d1)))
            assert abs(fd2 - float(s * d2)) <= 1e-4 * max(1.0, abs(float(s * d2)))
            checked += 1
        assert checked >= 40

    @settings(derandomize=True, deadline=None)
    @given(
        rho=st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=1000),
        c=st.fractions(min_value=0, max_value=100, max_denominator=1000),
        scale=st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100),
        factors=st.lists(
            st.tuples(st.integers(0, 3), st.integers(-3, 3)), max_size=4
        ),
    )
    def test_matches_the_jet_oracle_exactly(self, rho, c, scale, factors):
        # The slice entries and the warp factor are products of powers of
        # rho + k c; the general jet algebra must agree to the last bit.
        factors = [(k * c, p) for k, p in factors]
        s, d1, d2 = power_jet(rho, scale, factors)
        jet = Jet2(scale)
        for a, p in factors:
            jet = jet * (Jet2.variable(rho) + a) ** p
        assert (s, s * d1, s * d2) == (jet.v, jet.d1, jet.d2)


def trial_division_decompose(k):
    """Reference k = s^2 * m with m squarefree, by plain trial division."""
    s, m = 1, 1
    p = 2
    while p * p <= k:
        e = 0
        while k % p == 0:
            k //= p
            e += 1
        s *= p ** (e // 2)
        m *= p ** (e % 2)
        p += 1 if p == 2 else 2
    return s, m * k


class TestSquarefreeDecompose:
    def test_small_primes_match_trial_division(self):
        # The earlier construction of the table, kept as the oracle.
        def trial_division_primes(limit):
            return [p for p in range(2, limit) if all(p % d for d in range(2, isqrt(p) + 1))]

        expected = trial_division_primes(scalars._SMALL_LIMIT)
        assert scalars._SMALL_PRIMES == expected
        for limit in (2, 3, 4, 5, 25, 26, 49, 50):
            assert scalars._primes_below(limit) == trial_division_primes(limit)

    def test_matches_trial_division_on_random_inputs(self):
        rng = random.Random(20241018)
        for _ in range(60):
            k = rng.getrandbits(rng.randint(1, 40)) + 1
            assert scalars._squarefree_decompose(k) == trial_division_decompose(k)

    def test_squares_of_primes_above_2_20(self):
        # isqrt still finds the square of a large prime whole; beside another
        # prime it stays in the radicand
        primes = [
            p for p in range(2**20 + 1, 2**20 + 400, 2)
            if all(p % d for d in range(3, isqrt(p) + 1, 2))
        ][:4]
        assert len(primes) == 4
        for p in primes:
            assert scalars._squarefree_decompose(p * p) == trial_division_decompose(p * p)
            assert scalars._squarefree_decompose(p * p) == (p, 1)
            assert scalars.sqrt_parts(p * p) == (p, 1)
        p, q = primes[:2]
        assert trial_division_decompose(p * p * q) == (p, q)
        assert scalars._squarefree_decompose(p * p * q) == (1, p * p * q)

    def test_bounded_form_on_random_and_built_inputs(self):
        # k = s^2 m; m = 1 exactly when k is a perfect square; no p^2 with
        # p < _SMALL_LIMIT divides m; and where no square of a larger prime
        # divides k, (s, m) is the squarefree decomposition.
        rng = random.Random(20261019)
        small = scalars._SMALL_PRIMES
        cases = []  # (k, its squarefree decomposition, a large prime square divides k)
        for _ in range(200):
            k = rng.getrandbits(rng.randint(1, 40)) + 1
            s, m = trial_division_decompose(k)
            large = s
            for p in small:
                while large % p == 0:
                    large //= p
            cases.append((k, (s, m), large > 1))
        for _ in range(200):
            k, s, m = 1, 1, 1
            primes = rng.sample(small, 3) + rng.sample([1009, 1013, 7919, 65537], 2)
            for p in primes:
                e = rng.randint(0, 5)
                k *= p**e
                s *= p ** (e // 2)
                m *= p ** (e % 2)
            cases.append((k, (s, m), any(s % p == 0 for p in primes[3:])))
        assert sum(large for _, _, large in cases) > 50
        for k, expected, large_square in cases:
            s, m = scalars._squarefree_decompose(k)
            assert s * s * m == k
            assert (m == 1) == (isqrt(k) ** 2 == k)
            assert all(m % (p * p) for p in small)
            if not large_square:
                assert (s, m) == expected

    def test_200_bit_radicand_in_under_a_second(self):
        # q = (rho + c)/(rho + 2c) at rho = 1, c = 1e-30
        c = Fraction(1, 10**30)
        q = (1 + c) / (1 + 2 * c)
        k = q.numerator * q.denominator
        assert k.bit_length() == 200
        factors = [
            2, 3, 43, 61, 101, 3541, 9901, 27961, 4188901, 39526741, 84623843,
            45802327746425579083,
        ]
        product = 1
        for f in factors:
            product *= f
        assert product == k
        start = time.perf_counter()
        assert scalars._squarefree_decompose(k) == (1, k)
        assert time.perf_counter() - start < 1.0
