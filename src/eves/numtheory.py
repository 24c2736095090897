"""Integer and rational primitives: the extended gcd and exact integer and rational roots."""

from __future__ import annotations

from fractions import Fraction


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) > 0 and a*x + b*y == g."""
    if a == 0 and b == 0:
        raise ValueError("ext_gcd(0, 0) is undefined")
    if a == b:
        return (abs(a), 1 if a > 0 else -1, 0)
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def integer_nth_root(m: int, n: int) -> int | None:
    """The integer r with r**n == m, if one exists.

    For even n the non-negative root is returned; negative m with even n has
    no integer root and yields None.  An m of at most n bits has no root
    r >= 2, since r**n >= 2**n; otherwise exact big-integer bisection, no
    floats, whose powers stay within twice the bits of m.
    """
    if n < 1:
        raise ValueError("root index must be >= 1")
    if n == 1:
        return m
    if m < 0:
        if n % 2 == 0:
            return None
        r = integer_nth_root(-m, n)
        return None if r is None else -r
    if m in (0, 1):
        return m
    if m.bit_length() <= n:
        return None
    hi = 1 << (m.bit_length() // n + 1)
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < m:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == m else None


def rational_nth_roots(q: Fraction, n: int) -> set[Fraction]:
    """All rational r with r**n == q; a set of size 0, 1, or 2.

    Even n and q > 0 give both signs; odd n gives at most one root; a negative
    q under even n (or a non-perfect power) gives the empty set.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("zero is excluded; handle it upstream")
    if n < 1:
        raise ValueError("root index must be >= 1")
    if q < 0 and n % 2 == 0:
        return set()
    num = integer_nth_root(q.numerator, n)
    den = integer_nth_root(q.denominator, n)
    if num is None or den is None:
        return set()
    r = Fraction(num, den)
    return {r, -r} if n % 2 == 0 else {r}

