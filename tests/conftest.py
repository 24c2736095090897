"""Shared test helpers: fixture paths and seeded random corpora."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import settings

from eves import Weight, WeightedPoint, build_configuration, product_map, wps_equivalent
from eves import linalg
from eves.oracle import _cofactor_det

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# every fixture file except the matrix file is a configuration
CONFIG_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json") if p.name != "projection_matrix.json")


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def rand_fraction(rng: random.Random, lo: int = -4, hi: int = 4, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_nonzero_fraction(rng: random.Random, hi: int = 6, max_den: int = 6) -> Fraction:
    num = rng.choice([n for n in range(-hi, hi + 1) if n != 0])
    return Fraction(num, rng.randint(1, max_den))


def random_weighted_point(rng: random.Random, weight: Weight, dense: bool = True) -> WeightedPoint:
    coords = []
    for _ in weight.parts:
        if dense or rng.random() < 0.8:
            coords.append(rand_nonzero_fraction(rng))
        else:
            coords.append(Fraction(0))
    if all(c == 0 for c in coords):
        coords[0] = Fraction(1)
    return WeightedPoint(tuple(coords), weight)


def projections_agree_by_equivalence(z: WeightedPoint, w: WeightedPoint) -> tuple[bool, ...]:
    """The reference for ``projections_agree``: both points projected to
    P(1,1) pair by pair, and each pair of images decided by ``wps_equivalent``."""
    return tuple(wps_equivalent(a, b) for a, b in zip(product_map(z), product_map(w)))


def canonical_point_reps(cfg) -> dict:
    """Each point's coordinates divided by their first nonzero entry: the
    reference canonical representatives, built from ``Fraction`` coordinates."""
    return {name: linalg.scale_first_nonzero(pt.coords) for name, pt in cfg.points.items()}


def mat_vec(rows, v) -> tuple:
    """The matrix times a column vector, in ``Fraction`` arithmetic."""
    if any(len(r) != len(v) for r in rows):
        raise ValueError("matrix/vector shape mismatch")
    return tuple(sum(a * b for a, b in zip(r, v)) for r in rows)


def mat_mul(a, b) -> tuple:
    """The matrix product, in ``Fraction`` arithmetic."""
    if any(len(r) != len(b) for r in a):
        raise ValueError("matrix shape mismatch")
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def det(rows) -> Fraction:
    """Determinant of a square matrix of rationals: denominators are cleared
    row by row, then ``linalg.integer_det``."""
    cleared = [linalg.clear_denominators(linalg.vec(row)) for row in rows]
    return Fraction(linalg.integer_det([ints for ints, _ in cleared]), math.prod(d for _, d in cleared))


def _in_span(basis, v) -> bool:
    """Rank test via vanishing of all (r+1)-minors of the stacked matrix."""
    rows = [list(b) for b in basis] + [list(v)]
    for cols in combinations(range(len(v)), len(rows)):
        if _cofactor_det([[row[c] for c in cols] for row in rows]) != 0:
            return False
    return True


def span_groups_by_rank_tests(cfg, reps) -> tuple:
    """The reference for ``oracle._span_groups``: each new distinct tuple is
    tested against every group found so far, its members in the group's span
    and the group's basis in its span, with ``_in_span``."""
    group_bases, tuple_group = [], {}
    for color in cfg.colors:
        for t in color:
            if t in tuple_group:
                continue
            vectors = [reps[name] for name in t]
            for idx, basis in enumerate(group_bases):
                if all(_in_span(basis, v) for v in vectors) and all(_in_span(vectors, b) for b in basis):
                    tuple_group[t] = idx
                    break
            else:
                tuple_group[t] = len(group_bases)
                group_bases.append(vectors)
    return group_bases, tuple_group


def random_invertible_matrix(rng: random.Random, n: int) -> tuple:
    while True:
        m = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n))
        if det(m) != 0:
            return m


def random_h_configuration(rng: random.Random, *, parts=None, dim=None, arity: int = 2):
    """A random admissible configuration, valid by construction.

    Points are grouped into blocks of collinear points; every color receives
    p_c random pairings of each block's points, so per-point and per-span
    degrees are automatically proportional to the weight.
    """
    assert arity == 2, "the random corpus uses directed segments"
    if parts is None:
        parts = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 4)))
    weight = Weight(parts)
    dim = dim if dim is not None else rng.randint(1, 3)
    n_blocks = rng.randint(1, 2)

    points: dict[str, tuple[Fraction, ...]] = {}
    colors: list[list[tuple[str, str]]] = [[] for _ in parts]
    counter = 0

    def fresh_vec() -> tuple[Fraction, ...]:
        while True:
            v = tuple(rand_fraction(rng) for _ in range(dim + 1))
            if any(v):
                return v

    for _ in range(n_blocks):
        pairs_per_matching = rng.randint(1, 2)
        n_pts = 2 * pairs_per_matching
        block: list[str] = []
        if points and rng.random() < 0.5:
            shared = rng.choice(sorted(points))
            u = points[shared]
            block.append(shared)
        else:
            u = fresh_vec()
        while True:
            v = fresh_vec()
            if linalg.rank([u, v]) == 2:
                break
        params: set[Fraction] = set()
        while len(block) < n_pts:
            t = rand_fraction(rng, -6, 6)
            if t == 0 or t in params:
                continue
            params.add(t)
            name = f"q{counter}"
            counter += 1
            points[name] = tuple(a + t * b for a, b in zip(u, v))
            block.append(name)
        for c, p_c in enumerate(parts):
            for _ in range(p_c):
                perm = rng.sample(block, n_pts)
                for e in range(pairs_per_matching):
                    colors[c].append((perm[2 * e], perm[2 * e + 1]))

    return build_configuration(weight, 2, dim, colors, points)


def random_simplex_configuration(rng: random.Random, *, parts=None, dim=None):
    """A random admissible configuration of arity dim+1, so a single span.

    Points are drawn in independent blocks of dim+1, so some partition into
    independent blocks exists.  Every color receives p_c random partitions of
    the points into blocks, each redrawn until its blocks are independent;
    every point then has degree p_c in color c, and the one span degree
    ell * p_c.
    """
    if parts is None:
        parts = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 3)))
    dim = dim if dim is not None else rng.randint(1, 3)
    arity = dim + 1
    points = {}
    for _ in range(rng.randint(1, 2)):
        while True:
            block = [tuple(rand_fraction(rng) for _ in range(arity)) for _ in range(arity)]
            if linalg.rank(block) == arity:
                break
        for v in block:
            points[f"s{len(points)}"] = v
    names = sorted(points)
    colors = []
    for p_c in parts:
        color = []
        for _ in range(p_c):
            while True:
                perm = rng.sample(names, len(names))
                blocks = [perm[i : i + arity] for i in range(0, len(perm), arity)]
                if all(linalg.rank([points[n] for n in b]) == arity for b in blocks):
                    break
            color += blocks
        colors.append(color)
    return build_configuration(Weight(parts), arity, dim, colors, points)
