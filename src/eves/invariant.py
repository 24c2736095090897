"""Peano brackets and the weighted Eves invariant.

The bracket of an independent r-tuple is the determinant of the members'
coordinates in a chosen ordered basis of their span.  Multiplying the brackets
color by color yields a weighted projective point that is independent of every
choice made (representatives, bases, list order) and invariant under morphisms
whenever the configuration passes the admissibility check.

Brackets are computed in each span's reduced echelon basis R, the
``Subspace`` itself.  R is the identity at its pivot columns, so the
determinant in R of integer rows of the span is their minor there,
``Subspace.minor``; every bracket and basis determinant here is such a
minor.  Any other basis of a span enters only as its determinant in R,
which divides the bracket.  Evaluation reads each tuple's canonical bracket
off the configuration, where ``build_configuration`` stored it, and supplied
choices enter as scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Mapping, Sequence

from . import linalg
from .configuration import (
    Configuration,
    ProjPoint,
    RTuple,
    Subspace,
    _shown_span,
    build_configuration,
    validate_h,
)
from .linalg import Matrix, Vector
from .wps import WeightedPoint


class NotHConfigurationError(ValueError):
    """The invariant was requested for a configuration that fails admissibility."""


class MorphismError(ValueError):
    """A linear map fails to be injective on some span of the configuration."""


@dataclass(frozen=True)
class InvariantValue:
    """The invariant: a weighted point with every coordinate nonzero."""

    point: WeightedPoint

    def __post_init__(self) -> None:
        if not self.point.in_dense_locus():
            raise ValueError("invariant values have all coordinates nonzero")


@dataclass(frozen=True)
class LinearMorphism:
    """An exact rational matrix applied on the left to column coordinate vectors."""

    matrix: Matrix

    def __post_init__(self) -> None:
        rows = linalg.mat(self.matrix)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("morphism matrix must be rectangular and non-empty")
        object.__setattr__(self, "matrix", rows)


@dataclass(frozen=True)
class BasisChoice:
    """Optional overrides: per-subspace ordered bases and per-point representatives.

    Anything not listed falls back to the canonical choice (echelon basis,
    first-nonzero-scaled representative).
    """

    subspace_bases: dict[Subspace, Matrix] = field(default_factory=dict)
    point_reps: dict[str, Vector] = field(default_factory=dict)


def bracket(
    t: RTuple, basis: Sequence[Sequence[Fraction]] | Subspace, reps: Mapping[str, Sequence[Fraction]]
) -> Fraction:
    """Determinant of the tuple members' coordinates in the given span basis.

    A ``Subspace`` is its own reduced echelon basis R, kept in integers: each
    representative is cleared of denominators, checked against the span with
    ``Subspace.contains_integer``, and the cleared rows' determinant in R is
    ``Subspace.minor``; the one ``Fraction`` is the returned quotient.  Other
    basis rows B are reduced to their span first, and the bracket in B is the
    one in R divided by B's determinant in R; no rows, or rows of unequal
    length, are refused.
    """
    if isinstance(basis, Subspace):
        span, block = basis, None
    else:
        rows = linalg.mat(basis)
        reduced, rk = linalg.rref(rows)
        if rk != len(rows):
            raise ValueError("basis rows are linearly dependent")
        span = Subspace(reduced)
        block = _basis_det(span, rows)
    members, scale = [], 1
    for name in t:
        u, d = linalg.clear_denominators(reps[name])
        if not span.contains_integer(u):
            raise ValueError(f"basis does not span the representative of point {name!r}")
        members.append(u)
        scale *= d
    value = Fraction(span.minor(members), scale)
    return value if block is None else value / block


def _basis_det(span: Subspace, rows: Matrix) -> Fraction:
    """Determinant of basis rows of ``span`` in its echelon basis R: each row
    is cleared of denominators, and ``Subspace.minor`` of the cleared rows is
    divided by the product of those denominators."""
    cleared = [linalg.clear_denominators(row) for row in rows]
    return Fraction(span.minor([u for u, _ in cleared]), prod(d for _, d in cleared))


def _require_h(cfg: Configuration) -> None:
    report = validate_h(cfg)
    if not report.h_valid:
        raise NotHConfigurationError(report.first_failure or "configuration is not admissible")


def _chosen_brackets(cfg: Configuration, choices: BasisChoice | None) -> Mapping[RTuple, tuple[int, int]]:
    """Each distinct tuple's bracket in the chosen bases and representatives.

    A supplied representative is λ times the canonical one, which is 1 at the
    point's lead index, so λ is its entry there and multiplies the brackets
    of the point's tuples.  A supplied basis divides the brackets of its span
    by its determinant in the echelon basis.
    """
    if choices is None:
        return cfg.brackets
    dets: dict[Subspace, Fraction] = {}
    for span, rows in choices.subspace_bases.items():
        rows = linalg.mat(rows)
        if any(len(row) != len(span.basis[0]) for row in rows) or linalg.rref(rows) != (span.basis, len(rows)):
            raise ValueError(f"supplied basis does not span {_shown_span(cfg, span)}")
        dets[span] = _basis_det(span, rows)
    factors: dict[str, Fraction] = {}
    for name, rep in choices.point_reps.items():
        if name not in cfg.points:
            raise ValueError(f"representative supplied for unknown point {name!r}")
        rep = linalg.vec(rep)
        stored = cfg.points[name].coords
        if all(x == 0 for x in rep) or linalg.rank([rep, stored]) != 1:
            raise ValueError(f"representative for {name!r} is not a nonzero multiple of its coordinates")
        factors[name] = rep[next(c for c, x in enumerate(stored) if x)]
    table = {}
    for t, span in cfg.spans.items():
        num, den = cfg.brackets[t]
        for name in t:
            if name in factors:
                num *= factors[name].numerator
                den *= factors[name].denominator
        if span in dets:
            num *= dets[span].denominator
            den *= dets[span].numerator
        table[t] = num, den
    return table


def eves_invariant_with_choices(cfg: Configuration, choices: BasisChoice | None) -> InvariantValue:
    """The invariant computed with caller-supplied bases and representatives.

    Each distinct tuple of a color contributes its stored bracket, scaled by
    the choices, raised to the tuple's multiplicity in the color.
    """
    _require_h(cfg)
    return InvariantValue(WeightedPoint(_color_products(cfg, _chosen_brackets(cfg, choices)), cfg.weight))


def _color_products(cfg: Configuration, brackets: Mapping[RTuple, tuple[int, int]]) -> tuple[Fraction, ...]:
    """Each color's product of ``brackets``, a table of (numerator, denominator)
    pairs: every distinct tuple's bracket raised to its multiplicity in the color."""
    coords = []
    for color in cfg.counts:
        num = den = 1  # the product's numerator and denominator; one Fraction per color
        for t, k in color.items():
            n, d = brackets[t]
            num *= n**k
            den *= d**k
        coords.append(Fraction(num, den))
    return tuple(coords)


def eves_invariant(cfg: Configuration) -> InvariantValue:
    """The invariant with canonical choices; the value's class depends only on
    the configuration and its weight."""
    return eves_invariant_with_choices(cfg, None)


def _merged_name(names: list[str], used: set[str]) -> str:
    name = names[0] if len(names) == 1 else "+".join(sorted(names))
    while name in used:
        name += "'"
    return name


def apply_morphism(cfg: Configuration, morphism: LinearMorphism) -> Configuration:
    """Image configuration under a linear map injective on every span.

    Source points with the same projective image are merged under one name and
    one representative vector; the invariant class is unchanged.

    The map runs on integers.  The matrix is A / E, with E the lcm of its
    denominators and A an integer matrix, and a point is u / D, with u its
    integer row, so the image is the integer row w = A·u over E·D, which
    ``ProjPoint.from_row`` reduces by one gcd.  The ranks of images and
    which points share a projective image are read off w.
    """
    rows = morphism.matrix
    if len(rows[0]) != cfg.dim + 1:
        raise MorphismError(
            f"matrix has {len(rows[0])} columns, expected {cfg.dim + 1}"
        )
    common = lcm(*[x.denominator for row in rows for x in row])
    matrix = [[x.numerator * (common // x.denominator) for x in row] for row in rows]

    def integer_image(u: Sequence[int]) -> list[int]:
        return [sum(map(mul, a, u)) for a in matrix]

    for subspace in cfg.subspaces():
        # the images of the rows D·R: scaling a row by D leaves the rank as it is
        images = [integer_image(u) for u in subspace.scaled[1]]
        if len(linalg.integer_echelon_minor(images)[1]) != cfg.arity:
            raise MorphismError(f"matrix is not injective on {_shown_span(cfg, subspace)}")

    image_rows: dict[str, tuple[list[int], int]] = {}  # each image as an integer row over a denominator
    groups: dict[tuple[int, ...], list[str]] = {}
    for name in sorted(cfg.points):
        pt = cfg.points[name]
        w = integer_image(pt.row)
        if not any(w):
            raise MorphismError(f"point {name!r} maps to the zero vector")
        image_rows[name] = w, common * pt.denominator
        # w divided by its gcd, signed so that its lead is positive, keys its projective point
        g = gcd(*w) if next(filter(None, w)) > 0 else -gcd(*w)
        key = tuple(x // g for x in w)
        groups.setdefault(key, []).append(name)

    rename: dict[str, str] = {}
    points: dict[str, ProjPoint] = {}
    used = set()
    for key in sorted(groups, key=lambda k: groups[k][0]):
        names = groups[key]
        merged = _merged_name(names, used)
        used.add(merged)
        for n in names:
            rename[n] = merged
        points[merged] = ProjPoint.from_row(merged, *image_rows[names[0]])

    new_colors = [[tuple(rename[m] for m in t) for t in color] for color in cfg.colors]
    return build_configuration(cfg.weight, cfg.arity, len(rows) - 1, new_colors, points)
