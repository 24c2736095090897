"""Independent brute-force checkers shipped alongside the main algorithms.

Nothing here shares computational routines with the main pipeline: the scalar
search tries every bounded rational directly against the defining equations,
the finite-field enumeration builds equivalence classes as orbits, and the
invariant is re-evaluated with cofactor determinants, Cramer solves, and a
different representative normalization.  Admissibility is recounted from the
list view ``Configuration.colors``, one occurrence at a time, over the
oracle's own span groups, so the stored multiplicities are checked end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product

from .configuration import Configuration, DegreeReport, RTuple
from .invariant import InvariantValue, NotHConfigurationError
from .wps import Weight, WeightedPoint


@cache
def _candidates(bound: int) -> tuple[tuple[int, int], ...]:
    """Coprime (numerator, denominator) pairs up to the bound, by increasing height."""
    out: list[tuple[int, int]] = []
    for m in range(1, bound + 1):
        for k in range(1, m + 1):
            if math.gcd(k, m) == 1:
                out.append((k, m))
                if k != m:
                    out.append((m, k))
    return tuple(out)


def bounded_lambda_search(z: WeightedPoint, w: WeightedPoint, height: int = 64) -> bool:
    """Try every scalar +-a/b with a, b up to ``height`` against the definition.

    A candidate l passes iff w_k == l**p_k * z_k for every coordinate; the
    comparison is done with cross-multiplied integers.
    """
    if isinstance(height, bool) or not isinstance(height, int) or height < 1:
        raise ValueError("all bounds must be >= 1")
    if z.weight != w.weight:
        raise ValueError("points live in different weighted projective spaces")
    parts = z.weight.parts
    cols = [
        (p, zk.numerator, zk.denominator, wk.numerator, wk.denominator)
        for p, zk, wk in zip(parts, z.coords, w.coords)
    ]
    for a, b in _candidates(height):
        for s in (1, -1):
            for p, zn, zd, wn, wd in cols:
                lhs = wn * zd * b**p
                rhs = (s**p) * (a**p) * zn * wd
                if lhs != rhs:
                    break
            else:
                return True
    return False


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    return all(q % d != 0 for d in range(2, int(math.isqrt(q)) + 1))


def ff_enumerate_classes(p: Weight, q: int) -> tuple[frozenset[tuple[int, ...]], ...]:
    """Equivalence classes of nonzero vectors over the field with q elements.

    Classes are orbits of the scalar action z_k -> l**p_k * z_k for l in the
    multiplicative group, so reflexivity, symmetry, and transitivity hold by
    construction.  Orbit sizes are checked to divide q - 1 and to partition
    the q**(n+1) - 1 nonzero vectors.
    """
    if not _is_prime(q) or q > 31:
        raise ValueError("field order must be a prime <= 31")
    n_coords = len(p.parts)
    if q**n_coords > 500_000:
        raise ValueError("vector space too large to enumerate")
    vectors = [v for v in product(range(q), repeat=n_coords) if any(v)]
    seen: set[tuple[int, ...]] = set()
    classes: list[frozenset[tuple[int, ...]]] = []
    for v in vectors:
        if v in seen:
            continue
        orbit = frozenset(
            tuple((pow(lam, pk, q) * vk) % q for pk, vk in zip(p.parts, v))
            for lam in range(1, q)
        )
        if (q - 1) % len(orbit) != 0:
            raise AssertionError("orbit size must divide the group order")
        classes.append(orbit)
        seen |= orbit
    if sum(len(c) for c in classes) != q**n_coords - 1:
        raise AssertionError("classes must partition the nonzero vectors")
    return tuple(sorted(classes, key=min))


def _cofactor_det(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * _cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _last_nonzero_scaled(v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    pivot = next(x for x in reversed(v) if x != 0)
    return tuple(x / pivot for x in v)


def _in_span(basis: list[tuple[Fraction, ...]], v: tuple[Fraction, ...]) -> bool:
    """Rank test via vanishing of all (r+1)-minors of the stacked matrix."""
    rows = [list(b) for b in basis] + [list(v)]
    n_cols = len(v)
    for cols in combinations(range(n_cols), len(rows)):
        sub = [[row[c] for c in cols] for row in rows]
        if _cofactor_det(sub) != 0:
            return False
    return True


def _same_span(t1: list[tuple[Fraction, ...]], t2: list[tuple[Fraction, ...]]) -> bool:
    return all(_in_span(t1, v) for v in t2)


def _cramer_coords(basis: list[tuple[Fraction, ...]], pivot_cols: tuple[int, ...], v: tuple[Fraction, ...]) -> list[Fraction]:
    r = len(basis)
    m = [[basis[i][c] for i in range(r)] for c in pivot_cols]
    d = _cofactor_det(m)
    target = [v[c] for c in pivot_cols]
    coords = []
    for i in range(r):
        mi = [row[:i] + [t] + row[i + 1 :] for row, t in zip(m, target)]
        coords.append(_cofactor_det(mi) / d)
    # defensive full-equation check: the pivot columns determined the rest
    for c in range(len(v)):
        if sum(coords[i] * basis[i][c] for i in range(r)) != v[c]:
            raise ValueError("vector is not in the span of the basis")
    return coords


def _pivot_columns(basis: list[tuple[Fraction, ...]]) -> tuple[int, ...]:
    r = len(basis)
    n_cols = len(basis[0])
    for cols in combinations(range(n_cols), r):
        m = [[basis[i][c] for i in range(r)] for c in cols]
        if _cofactor_det(m) != 0:
            return cols
    raise ValueError("basis rows are linearly dependent")


def _span_groups(cfg: Configuration, reps: dict[str, tuple[Fraction, ...]]) -> tuple[list[list[tuple[Fraction, ...]]], dict[RTuple, int]]:
    """Distinct tuples grouped by span with minor-vanishing rank tests; each
    group's basis is the representative tuple of its first occurrence (colors
    scanned in order)."""
    group_bases: list[list[tuple[Fraction, ...]]] = []
    tuple_group: dict[RTuple, int] = {}
    for color in cfg.colors:
        for t in color:
            if t in tuple_group:
                continue
            vectors = [reps[name] for name in t]
            for idx, basis in enumerate(group_bases):
                if _same_span(basis, vectors) and _same_span(vectors, basis):
                    tuple_group[t] = idx
                    break
            else:
                tuple_group[t] = len(group_bases)
                group_bases.append(vectors)
    return group_bases, tuple_group


def _integer_multiple(values: tuple[int, ...], parts: tuple[int, ...]) -> bool:
    """Whether values = q * parts for one integer q, tested by cross-multiplication."""
    return values[0] % parts[0] == 0 and all(v * parts[0] == values[0] * p for v, p in zip(values, parts))


@dataclass(frozen=True)
class BruteDegrees:
    """Degrees recounted one tuple occurrence at a time, with the verdict they give."""

    h_valid: bool
    point_degrees: dict[str, tuple[int, ...]]
    span_degrees: list[tuple[int, ...]]  # one per span group, in order of first occurrence


def _recount(cfg: Configuration, parts: tuple[int, ...], tuple_group: dict[RTuple, int]) -> BruteDegrees:
    """Lengths and degrees counted over the list view, span degrees by ``tuple_group``."""
    colors = cfg.colors
    points = {name: [0] * len(colors) for name in cfg.points}
    spans: dict[int, list[int]] = {}
    for c, color in enumerate(colors):
        for t in color:
            for name in t:
                points[name][c] += 1
            spans.setdefault(tuple_group[t], [0] * len(colors))[c] += 1
    lengths = tuple(len(color) for color in colors)
    degrees = [lengths, *map(tuple, points.values()), *map(tuple, spans.values())]
    valid = len(parts) == len(colors) and lengths[0] > 0 and all(_integer_multiple(d, parts) for d in degrees)
    return BruteDegrees(valid, {name: tuple(d) for name, d in points.items()}, [tuple(d) for d in spans.values()])


def brute_degrees(cfg: Configuration, weight: Weight | None = None) -> BruteDegrees:
    """Recount list lengths, point degrees and span degrees from ``cfg.colors``,
    under ``weight`` when given, and decide admissibility with an integer
    proportionality test of its own."""
    parts = (weight if weight is not None else cfg.weight).parts
    reps = {name: _last_nonzero_scaled(pt.coords) for name, pt in cfg.points.items()}
    return _recount(cfg, parts, _span_groups(cfg, reps)[1])


def report_matches_recount(cfg: Configuration, report: DegreeReport, weight: Weight | None = None) -> bool:
    """Whether a degree report's point degrees, span-degree vectors (as a
    multiset, since span orders differ) and verdict equal ``brute_degrees``."""
    brute = brute_degrees(cfg, weight)
    return (
        report.point_degrees == brute.point_degrees
        and sorted(report.subspace_degrees.values()) == sorted(brute.span_degrees)
        and report.h_valid == brute.h_valid
    )


def brute_invariant(cfg: Configuration) -> InvariantValue:
    """Re-evaluate the weighted invariant with an independent pipeline.

    Representatives are scaled so the last nonzero coordinate is 1; each
    span's basis is the representative tuple of its first occurrence (colors
    scanned in order); coordinates come from Cramer solves and determinants
    from cofactor expansion.  Each distinct tuple is bracketed once, and its
    bracket is multiplied in once per occurrence in the list view.  Span
    grouping uses minor-vanishing rank tests rather than echelon forms, and
    admissibility is ``brute_degrees``' recount.
    """
    reps = {name: _last_nonzero_scaled(pt.coords) for name, pt in cfg.points.items()}
    group_bases, tuple_group = _span_groups(cfg, reps)
    if not _recount(cfg, cfg.weight.parts, tuple_group).h_valid:
        raise NotHConfigurationError("recounted degrees are not proportional to the weight")

    pivots = [_pivot_columns(basis) for basis in group_bases]
    brackets: dict[RTuple, Fraction] = {}
    coords_out = []
    for color in cfg.colors:
        prod_c = Fraction(1)
        for t in color:
            value = brackets.get(t)
            if value is None:
                idx = tuple_group[t]
                basis, cols = group_bases[idx], pivots[idx]
                value = brackets[t] = _cofactor_det([_cramer_coords(basis, cols, reps[name]) for name in t])
            prod_c *= value
        coords_out.append(prod_c)
    return InvariantValue(WeightedPoint(tuple(coords_out), cfg.weight))
