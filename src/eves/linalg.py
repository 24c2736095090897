"""Small exact linear algebra over rational matrices.

Rational matrices are tuples of row tuples of ``fractions.Fraction``; there is
no floating point and no tolerance anywhere.  The arithmetic itself runs on
Python integers: a row's denominators are cleared once by their lcm
(``clear_denominators``), and two fraction-free (Bareiss) loops do the rest.
``integer_echelon_minor`` gives a span's primitive integer echelon rows, its
pivots and its rank, and the determinant of independent rows at those pivots;
``integer_det`` gives the determinant of a square matrix, in closed form up
to 4×4 (every bracket of a configuration in P^3) and by elimination above.
``rref`` and ``rank`` are thin conversions over them that take rationals;
``rref`` returns an input that already is a reduced basis after an O(r·n)
scan, not a second elimination, since every ``configuration.Subspace``
checks its basis with it and most bases come reduced.  A span's own integer
form (membership, and determinants in its echelon basis) lives on
``configuration.Subspace``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def vec(values: Iterable) -> Vector:
    """The values as a tuple of ``Fraction``; entries that already are one are kept."""
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(r) for r in rows)


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def clear_denominators(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers n and the lcm D of the entries' denominators, with row == n / D.

    The entries must be ``int`` or ``Fraction``.
    """
    d = lcm(*[x.denominator for x in row])
    return [x.numerator * (d // x.denominator) for x in row], d


def _cleared(rows: Sequence[Sequence]) -> list[list[int]]:
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix rows have unequal lengths")
    return [clear_denominators(vec(r))[0] for r in rows]


def integer_echelon_minor(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], tuple[int, ...], int]:
    """Reduced row echelon form of an integer matrix, in primitive integer rows,
    and the minor of independent rows at its pivot columns.

    Fraction-free Gauss-Jordan elimination (Bareiss): each step replaces every
    other row by (p * row - row[c] * pivot_row) / prev, where p is the new pivot
    and prev the one before.  The division is exact, because every entry is,
    up to sign, a minor of the input, which also bounds the entries' size.
    At the end each nonzero row, divided by its gcd and signed so that its
    pivot is positive, is the reduced echelon row scaled to primitive
    integers: a canonical form of the row span.  Returns those rows, their
    pivot columns (the rank is their number) and the last pivot signed by
    the row swaps.  When the rows are independent, that last value is the
    determinant of the input rows, in their order, at the pivot columns.
    The rows must have equal lengths.
    """
    m = [list(r) for r in rows]
    n_rows = len(m)
    pivots: list[int] = []
    prev = sign = 1
    for c in range(len(m[0]) if m else 0):
        k = len(pivots)
        for pr in range(k, n_rows):
            if m[pr][c]:
                break
        else:
            continue
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        top = m[k]
        p = top[c]
        for i in range(n_rows):
            if i != k:
                row = m[i]
                f = row[c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
        if k + 1 == n_rows:
            break
    echelon = []
    for row, c in zip(m, pivots):
        g = gcd(*row) if row[c] > 0 else -gcd(*row)
        echelon.append([x // g for x in row])
    return echelon, tuple(pivots), sign * prev


def _is_reduced(rows) -> bool:
    """Whether ``rows`` is a tuple of equal-length ``Fraction`` tuples whose first nonzero
    entries are 1, at strictly increasing columns that are zero in every other row."""
    if (type(rows) is not tuple or {tuple} != set(map(type, rows)) or len(set(map(len, rows))) != 1
            or {Fraction} != set(map(type, chain.from_iterable(rows)))):
        return False
    last = -1
    for row in rows:
        c = next((c for c, x in enumerate(row) if x), -1)
        if c <= last or row[c] != 1 or sum(1 for other in rows if other[c]) != 1:
            return False
        last = c
    return True


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, int]:
    """Reduced row echelon form (zero rows dropped) and the rank; an input
    that already is a reduced echelon basis of full rank is returned as it is."""
    if _is_reduced(rows):
        return rows, len(rows)
    echelon, pivots, _ = integer_echelon_minor(_cleared(rows))
    return tuple(scale_first_nonzero(row) for row in echelon), len(pivots)


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(integer_echelon_minor(_cleared(rows))[1])


def integer_det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: in closed form up to n = 4,
    by Bareiss elimination above.

    The closed forms are the products of 2×2 minors: n = 3 expands along
    the first row, n = 4 along the first two rows (Laplace: each of their
    six 2×2 minors times its complementary minor in the last two rows).
    Bareiss works on a copy of the rows.  Every division is exact: after
    step k each remaining entry is a (k+1)-order minor of the input.
    """
    n = len(m)
    if set(map(len, m)) - {n}:
        raise ValueError("determinant requires a square matrix")
    if n == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
        return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2) - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
                + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1) + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
                - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0) + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    if n < 2:
        return m[0][0] if n else 1
    m = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pr = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pr is None:
                return 0
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def scale_first_nonzero(v: Sequence[Fraction]) -> Vector:
    """Canonical projective representative: divide by the first nonzero entry.

    The entries must be ``int`` or ``Fraction``.  Each quotient is formed from
    integers, one ``Fraction`` per entry.
    """
    pivot = next(filter(None, v), None)
    if pivot is None:
        raise ValueError("zero vector has no projective representative")
    n, d = pivot.numerator, pivot.denominator
    return tuple(Fraction(x.numerator * d, x.denominator * n) for x in v)
