"""Small exact linear algebra over rational matrices.

Everything operates on tuples of ``fractions.Fraction``; there is no floating
point and no tolerance anywhere.  Matrices are tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def vec(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(r) for r in rows)


def identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_vec(rows: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vector:
    if any(len(r) != len(v) for r in rows):
        raise ValueError("matrix/vector shape mismatch")
    return tuple(sum(a * b for a, b in zip(r, v)) for r in rows)


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    if any(len(r) != len(b) for r in a):
        raise ValueError("matrix shape mismatch")
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, int]:
    """Reduced row echelon form (zero rows dropped) and the rank."""
    m = [[Fraction(x) for x in r] for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    piv_r = 0
    for c in range(n_cols):
        pr = next((r for r in range(piv_r, n_rows) if m[r][c] != 0), None)
        if pr is None:
            continue
        m[piv_r], m[pr] = m[pr], m[piv_r]
        p = m[piv_r][c]
        m[piv_r] = [x / p for x in m[piv_r]]
        for r in range(n_rows):
            if r != piv_r and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[piv_r])]
        piv_r += 1
        if piv_r == n_rows:
            break
    return tuple(tuple(m[i]) for i in range(piv_r)), piv_r


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return rref(rows)[1]


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant via fraction-free (Bareiss) elimination.

    Denominators are cleared row by row first, so the elimination itself runs
    on integers with exact divisions only.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    m: list[list[int]] = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        d = lcm(*(f.denominator for f in fracs)) if fracs else 1
        m.append([int(f * d) for f in fracs])
        scale /= d
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pr = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pr is None:
                return Fraction(0)
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * scale * m[n - 1][n - 1]


def pivot_columns(reduced: Sequence[Sequence[Fraction]]) -> tuple[int, ...]:
    """The column of each row's leading entry in a reduced row echelon form."""
    return tuple(next(c for c, val in enumerate(row) if val != 0) for row in reduced)


def echelon_coords(
    reduced: Sequence[Sequence[Fraction]], pivots: Sequence[int], v: Sequence[Fraction]
) -> Vector | None:
    """Coefficients x with sum(x[k] * reduced[k]) == v, or None if v is not in the span.

    ``reduced`` must be a reduced row echelon form of full rank, as ``rref``
    returns it, and ``pivots`` its ``pivot_columns``.  Row k has a 1 in its
    pivot column and every other row a 0 there, so x[k] is v's entry in that
    column; the other columns only decide membership.
    """
    n = len(v)
    if any(len(row) != n for row in reduced):
        raise ValueError("basis/vector shape mismatch")
    x = tuple(Fraction(v[c]) for c in pivots)
    for c in range(n):
        if c not in pivots and sum(xk * row[c] for xk, row in zip(x, reduced)) != v[c]:
            return None
    return x


def scale_first_nonzero(v: Sequence[Fraction]) -> Vector:
    """Canonical projective representative: divide by the first nonzero entry."""
    pivot = next((x for x in v if x != 0), None)
    if pivot is None:
        raise ValueError("zero vector has no projective representative")
    return tuple(Fraction(x) / pivot for x in v)
