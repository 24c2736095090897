"""Seeded generators of admissible inputs for the benchmark.

Every configuration is admissible by construction: each point gets the same
number of tuples per unit of weight in every color, and so does each span.
The generators use only the standard library, so they share no code with the
program they feed.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

HEIGHT = 9  # largest absolute integer coordinate of a generated point


def det(rows: list[list[int]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    n, d = len(m), Fraction(1)
    for c in range(n):
        pr = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            d = -d
        d *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return d


def proportional(u: list[int], v: list[int]) -> bool:
    """Whether two integer vectors name the same projective point (or one is zero)."""
    return all(u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(i + 1, len(u)))


def _projective_key(v: list[int]) -> tuple[int, ...]:
    g = math.gcd(*v)
    v = [x // g for x in v]
    first = next(x for x in v if x != 0)
    return tuple(-x for x in v) if first < 0 else tuple(v)


def _color_lists(rng: random.Random, groups: list[list[str]], arity: int, parts: tuple[int, ...], ok) -> list[list[list[str]]]:
    """For each group of points and each color c, p_c random partitions of the
    group into blocks of ``arity``.  A partition with a block that fails ``ok``
    is drawn again, so dependent tuples are resampled."""
    colors: list[list[list[str]]] = [[] for _ in parts]
    for names in groups:
        for c, p in enumerate(parts):
            for _ in range(p):
                while True:
                    perm = names[:]
                    rng.shuffle(perm)
                    blocks = [perm[i : i + arity] for i in range(0, len(perm), arity)]
                    if all(ok(b) for b in blocks):
                        break
                colors[c].extend(blocks)
    return colors


def lines_family(rng: random.Random, n_lines: int, per_line: int, parts: tuple[int, ...], dim: int = 3) -> dict:
    """``n_lines`` random lines in P^dim with ``per_line`` distinct points each;
    color c holds p_c random perfect matchings of each line's points.

    Point degree in color c is p_c and line degree is p_c * per_line / 2, so
    the configuration is admissible with ell = n_lines * per_line / 2.
    """
    if per_line % 2:
        raise ValueError("points per line must be even")
    points: dict[str, list[int]] = {}
    seen: set[tuple[int, ...]] = set()
    groups = []
    for li in range(n_lines):
        while True:
            p = [rng.randint(-HEIGHT, HEIGHT) for _ in range(dim + 1)]
            q = [rng.randint(-HEIGHT, HEIGHT) for _ in range(dim + 1)]
            if not proportional(p, q):
                break
        names = []
        while len(names) < per_line:
            a, b = rng.randint(-7, 7), rng.randint(-7, 7)
            v = [a * x + b * y for x, y in zip(p, q)]
            if not any(v) or _projective_key(v) in seen:
                continue
            seen.add(_projective_key(v))
            name = f"l{li}p{len(names)}"
            points[name] = v
            names.append(name)
        groups.append(names)
    # distinct points on one line are always independent in pairs
    colors = _color_lists(rng, groups, 2, parts, lambda b: True)
    return _document(parts, 2, dim, points, colors)


def simplex_family(rng: random.Random, n_points: int, parts: tuple[int, ...], dim: int = 3) -> dict:
    """``n_points`` random points of P^dim and tuples of arity dim+1, so every
    tuple spans the whole space; color c holds p_c random partitions of the
    points into blocks, redrawn whenever a block is dependent."""
    arity = dim + 1
    if n_points % arity:
        raise ValueError("point count must be a multiple of dim+1")
    points: dict[str, list[int]] = {}
    seen: set[tuple[int, ...]] = set()
    while len(points) < n_points:
        v = [rng.randint(-HEIGHT, HEIGHT) for _ in range(dim + 1)]
        if not any(v) or _projective_key(v) in seen:
            continue
        seen.add(_projective_key(v))
        points[f"s{len(points)}"] = v
    colors = _color_lists(
        rng, [list(points)], arity, parts, lambda b: det([points[n] for n in b]) != 0
    )
    return _document(parts, arity, dim, points, colors)


def invertible_matrix(rng: random.Random, n: int, height: int = 3) -> list[list[int]]:
    while True:
        m = [[rng.randint(-height, height) for _ in range(n)] for _ in range(n)]
        if det(m) != 0:
            return m


def image(doc: dict, matrix: list[list[int]]) -> dict:
    """The configuration with every point mapped by ``matrix``; an invertible
    matrix keeps points distinct and tuples independent."""
    points = {
        name: [sum(a * int(x) for a, x in zip(row, coords)) for row in matrix]
        for name, coords in doc["points"].items()
    }
    return _document(tuple(doc["weight"]), doc["arity"], doc["dim"], points, doc["colors"])


def _document(parts, arity, dim, points, colors) -> dict:
    return {
        "field": "rational",
        "weight": list(parts),
        "arity": arity,
        "dim": dim,
        "points": {name: [str(x) for x in v] for name, v in points.items()},
        "colors": colors,
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"


# numerator and denominator of the scalar l: num * den is 851 or 899 for every
# choice, so the size of l, and with it the cost of the test, hardly depends on the seed
SCALARS = ((29, 31), (31, 29), (23, 37), (37, 23))


def scaled_pair(rng: random.Random, parts: tuple[int, ...], equivalent: bool) -> tuple[list[Fraction], list[Fraction]]:
    """A point z and w_k = l**p_k * z_k for a random rational l, so the pair is
    equivalent; when ``equivalent`` is false, w_0 is doubled as well.

    A doubled pair is never equivalent: a scalar m with w_k = m**p_k * z_k for
    k >= 1 must be +-l, and then m**p_0 * z_0 = +-w_0 / 2, not w_0.
    """
    num, den = rng.choice(SCALARS)
    lam = Fraction(num, den) * rng.choice((1, -1))
    z = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for _ in parts]
    w = [lam**p * x for p, x in zip(parts, z)]
    if not equivalent:
        w[0] *= 2
    return z, w


def odd_parts(rng: random.Random, lo: int, hi: int, n: int) -> tuple[int, ...]:
    """n weight parts p, p+2, p+4, ... with p odd in [lo, hi].

    Consecutive odd parts are coprime and their Bezout coefficients are about
    p/2, so the cost of an equivalence test depends on p and not on luck.
    """
    p = rng.randrange(lo | 1, hi + 1, 2)
    return tuple(p + 2 * i for i in range(n))


def rational_text(values: list[Fraction]) -> str:
    return ",".join(str(v) for v in values)
