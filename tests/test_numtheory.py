import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eves.numtheory import ext_gcd, integer_nth_root, rational_nth_roots


class TestExtGcd:
    def test_worked_examples(self):
        assert ext_gcd(2, 3) == (1, -1, 1)
        assert ext_gcd(4, 4) == (4, 1, 0)
        assert ext_gcd(6, 10) == (2, 2, -1)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            ext_gcd(0, 0)

    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    def test_bezout_identity(self, a, b):
        if a == 0 and b == 0:
            return
        g, x, y = ext_gcd(a, b)
        assert g == math.gcd(a, b) > 0
        assert a * x + b * y == g

    def test_bezout_identity_bulk(self):
        rng = random.Random(101)
        for _ in range(10_000):
            a = rng.randint(-10**6, 10**6)
            b = rng.randint(-10**6, 10**6)
            if a == 0 and b == 0:
                continue
            g, x, y = ext_gcd(a, b)
            assert g == math.gcd(a, b) and a * x + b * y == g


class TestIntegerNthRoot:
    def test_worked_examples(self):
        assert integer_nth_root(8, 3) == 2
        assert integer_nth_root(-8, 3) == -2
        assert integer_nth_root(10, 2) is None

    def test_negative_even_absent(self):
        assert integer_nth_root(-4, 2) is None

    def test_edges(self):
        assert integer_nth_root(0, 5) == 0
        assert integer_nth_root(1, 7) == 1
        assert integer_nth_root(-1, 3) == -1
        assert integer_nth_root(17, 1) == 17
        with pytest.raises(ValueError):
            integer_nth_root(4, 0)

    def test_at_most_n_bits_under_a_huge_index(self):
        # r >= 2 gives r**n >= 2**n, so these return without building 2**n
        assert integer_nth_root(2, 10**20) is None
        assert integer_nth_root(-2, 10**20 + 1) is None
        assert integer_nth_root(-1, 10**20 + 1) == -1
        assert integer_nth_root(2**64 - 1, 64) is None
        assert integer_nth_root(2**64, 64) == 2

    @given(st.integers(-10**6, 10**6), st.integers(1, 9))
    def test_round_trip(self, r, n):
        m = r**n
        got = integer_nth_root(m, n)
        assert got is not None and got**n == m
        if n % 2 == 0:
            assert got == abs(r)
        else:
            assert got == r

    @given(st.integers(2, 10**6), st.integers(2, 9))
    def test_non_perfect_power(self, r, n):
        got = integer_nth_root(r**n + 1, n)
        assert got is None or got ** n == r**n + 1


class TestRationalNthRoots:
    def test_worked_examples(self):
        assert rational_nth_roots(Fraction(4), 2) == {Fraction(2), Fraction(-2)}
        assert rational_nth_roots(Fraction(8, 27), 3) == {Fraction(2, 3)}
        assert rational_nth_roots(Fraction(-4), 2) == set()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            rational_nth_roots(Fraction(0), 2)

    def test_huge_index(self):
        assert rational_nth_roots(Fraction(2, 3), 10**20) == set()
        assert rational_nth_roots(Fraction(1), 10**20) == {Fraction(1), Fraction(-1)}

    @given(
        st.fractions(min_value=-50, max_value=50, max_denominator=20),
        st.integers(1, 6),
    )
    def test_constructed_root_recovered(self, r0, n):
        if r0 == 0:
            return
        q = r0**n
        roots = rational_nth_roots(q, n)
        assert r0 in roots
        assert all(r**n == q for r in roots)
        assert len(roots) == (2 if n % 2 == 0 else 1)
