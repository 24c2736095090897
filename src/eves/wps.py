"""Weighted projective points over exact rationals.

A weight (p_0, ..., p_n) defines the equivalence z ~ w iff some nonzero scalar
l satisfies w_k = l**p_k * z_k for all k.  Coordinates here are rationals
standing in for real scalars, or for complex ones under a complex-like
weight; the decision procedure is exact because l**g (g the gcd of the
weights at nonzero coordinates) is forced to equal one specific rational,
reducing existence of a real l to a sign test, and of a complex l to nothing.
"""

from __future__ import annotations

import math
import re
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations

from .numtheory import ext_gcd


class FieldKind(Enum):
    """Which scalar field the rational coordinates stand in for."""

    REAL_LIKE = "real"
    COMPLEX_LIKE = "complex"


@dataclass(frozen=True)
class Weight:
    parts: tuple[int, ...]
    field: FieldKind = FieldKind.REAL_LIKE

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        if any(isinstance(p, bool) or p != q for p, q in zip(self.parts, parts)):
            raise ValueError("weight parts must be integers")
        if len(parts) < 2:
            raise ValueError("weight needs at least two parts")
        if any(p < 1 for p in parts):
            raise ValueError("weight parts must be positive")
        object.__setattr__(self, "parts", parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class WeightedPoint:
    coords: tuple[Fraction, ...]
    weight: Weight

    def __post_init__(self) -> None:
        coords = tuple(Fraction(c) for c in self.coords)
        if len(coords) != len(self.weight.parts):
            raise ValueError("coordinate count does not match the weight")
        if all(c == 0 for c in coords):
            raise ValueError("coordinates must not all be zero")
        object.__setattr__(self, "coords", coords)

    def in_dense_locus(self) -> bool:
        """True when every coordinate is nonzero."""
        return all(c != 0 for c in self.coords)

    def __str__(self) -> str:
        body = " : ".join(format_rational(c) for c in self.coords)
        return f"[{body}]_{self.weight}"


def _bezout_for_gcd(values: list[int]) -> tuple[int, list[int]]:
    """gcd of the values plus coefficients a_k with sum(a_k * values[k]) == gcd."""
    g, coeffs = values[0], [1]
    for v in values[1:]:
        g2, x, y = ext_gcd(g, v)
        coeffs = [c * x for c in coeffs]
        coeffs.append(y)
        g = g2
    return g, coeffs


def wps_equivalent(z: WeightedPoint, w: WeightedPoint) -> bool:
    """Decide whether z and w name the same weighted projective point.

    True iff some scalar l != 0, real or, under a complex-like weight,
    complex, has w_k == l**p_k * z_k for every k.  Zero patterns must agree;
    over the nonzero coordinates the Bezout combination mu of the ratios pins
    down l**g, so each ratio r_k must equal mu**(p_k/g), and over the reals mu
    must admit a real g-th root (g odd or mu > 0); over the complex numbers
    every g-th root of mu will do.  Unless mu = ±1, mu**e has a numerator or
    denominator of more than e bits, so a ratio whose parts both have at most
    e bits differs from it, and mu**e is not built.
    """
    if z.weight != w.weight:
        raise ValueError("points live in different weighted projective spaces")
    for zk, wk in zip(z.coords, w.coords):
        if (zk == 0) != (wk == 0):
            return False
    nz = [k for k, zk in enumerate(z.coords) if zk != 0]
    parts = [z.weight.parts[k] for k in nz]
    ratios = [w.coords[k] / z.coords[k] for k in nz]
    g, coeffs = _bezout_for_gcd(parts)
    mu = Fraction(1)
    for r, a in zip(ratios, coeffs):
        mu *= r**a
    for r, p in zip(ratios, parts):
        e = p // g
        if (abs(mu) != 1 and max(abs(r.numerator), r.denominator).bit_length() <= e) or r != mu**e:
            return False
    return z.weight.field is FieldKind.COMPLEX_LIKE or g % 2 == 1 or mu > 0


def reduce_weight(p: Weight) -> Weight:
    """Divide out the common factor the scalar field lets us absorb.

    The returned weight defines the identical equivalence relation: over a
    complex-like field the full gcd divides out; over a real-like field the
    odd part of the gcd divides out, then factors of two as long as the
    halved parts all stay even.
    """
    parts = list(p.parts)
    g = math.gcd(*parts)
    if p.field is FieldKind.COMPLEX_LIKE:
        return Weight(tuple(x // g for x in parts), p.field)
    odd = g
    while odd % 2 == 0:
        odd //= 2
    parts = [x // odd for x in parts]
    while all(x % 4 == 0 for x in parts):
        parts = [x // 2 for x in parts]
    return Weight(tuple(parts), p.field)


def index_pairs(p: Weight) -> tuple[tuple[int, int], ...]:
    """All coordinate pairs (i, j) with i < j, in lexicographic order."""
    return tuple(combinations(range(len(p.parts)), 2))


def pair_exponents(p: Weight) -> tuple[tuple[int, int, int, int], ...]:
    """(i, j, a, b) for each index pair, in ``index_pairs`` order, with
    a = lcm(p_i,p_j)/p_i and b = lcm(p_i,p_j)/p_j: the exponents of the
    canonical axis projection [z_i**a : z_j**b]."""
    out = []
    for i, j in index_pairs(p):
        ell = math.lcm(p.parts[i], p.parts[j])
        out.append((i, j, ell // p.parts[i], ell // p.parts[j]))
    return tuple(out)


def product_map(z: WeightedPoint) -> tuple[WeightedPoint, ...]:
    """Canonical axis projections of z for every index pair, lexicographic order.

    A pair whose two coordinates are both zero raises ``ValueError``."""
    unit = Weight((1, 1), z.weight.field)
    c = z.coords
    return tuple(WeightedPoint((c[i] ** a, c[j] ** b), unit) for i, j, a, b in pair_exponents(z.weight))


def projections_agree(z: WeightedPoint, w: WeightedPoint) -> tuple[bool, ...]:
    """Per index pair, lexicographic order: whether z and w have the same canonical
    axis projection [z_i**a : z_j**b].  With r = w/z (z has no zero coordinate),
    pair (i, j) agrees iff r_i != 0 and r_i**a == r_j**b, over either field."""
    if z.weight != w.weight:
        raise ValueError("points live in different weighted projective spaces")
    if not z.in_dense_locus():
        raise ValueError("the reference point has a zero coordinate")
    r = [wk / zk for zk, wk in zip(z.coords, w.coords)]
    return tuple(r[i] != 0 and r[i] ** a == r[j] ** b for i, j, a, b in pair_exponents(z.weight))


def is_reconstructible(p: Weight) -> bool:
    """Whether generic points are pinned down by all their axis projections.

    Complex-like spaces always are; real-like spaces are iff some part is odd.
    """
    if p.field is FieldKind.COMPLEX_LIKE:
        return True
    return any(part % 2 == 1 for part in p.parts)


def nonreconstructible_witness(p: Weight) -> tuple[WeightedPoint, WeightedPoint]:
    """Two inequivalent points with identical axis-projection values.

    Defined for real-like weights with every part even: the second point
    carries -1 exactly where the part's power of two is minimal.  The pair
    realizes the two-to-one fiber of the product map.
    """
    if p.field is FieldKind.COMPLEX_LIKE:
        raise ValueError("witness pairs exist only over real-like weights")
    if any(part % 2 == 1 for part in p.parts):
        raise ValueError("witness requires every weight part to be even")
    twos = [(part & -part).bit_length() - 1 for part in p.parts]
    low = min(twos)
    ones = tuple(Fraction(1) for _ in p.parts)
    flipped = tuple(Fraction(-1) if e == low else Fraction(1) for e in twos)
    return WeightedPoint(ones, p), WeightedPoint(flipped, p)


# Longest input rational, in characters, and largest exponent in forms such as
# 1e5: together they bound the digits of every number read from input, which
# the parser handles in quadratic time.  The length also stays below the
# interpreter's own limit on reading integers (4300 digits by default).
MAX_RATIONAL_CHARS = 4096
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")  # the exponents Fraction accepts
_PLAIN_INTEGER = re.compile(r"-?[0-9]+")  # ASCII digits only: int() also reads other scripts' digits


def parse_rational(text: str) -> Fraction:
    """Parse '3', '-3', '3/4', '-3/4' into an exact rational.

    Text longer than ``MAX_RATIONAL_CHARS``, or with an exponent larger than
    that, is rejected before any arithmetic.  A plain integer is read by
    ``int``; ``Fraction`` parses every other form.
    """
    body = str(text).strip()
    if len(body) > MAX_RATIONAL_CHARS:
        raise ValueError(f"rational of {len(body)} characters exceeds the limit of {MAX_RATIONAL_CHARS}")
    if _PLAIN_INTEGER.fullmatch(body):
        return Fraction(int(body))
    exponent = _EXPONENT.search(body)
    if exponent and abs(int(exponent.group(1))) > MAX_RATIONAL_CHARS:
        raise ValueError(f"exponent exceeds the limit of {MAX_RATIONAL_CHARS}")
    try:
        return Fraction(body)
    except ZeroDivisionError:
        raise ValueError(f"invalid rational {_shown(body)}: zero denominator") from None
    except ValueError:
        raise ValueError(f"invalid rational {_shown(body)}") from None


def _shown(value: object) -> str:
    """Input for an error message: its repr when short, otherwise only its size
    (the characters of a str, the members of a tuple) or its type."""
    with suppress(ValueError):  # repr refuses an integer past the digit limit
        if len(quoted := repr(value)) <= 40:
            return quoted
    unit = {str: "characters", tuple: "members"}.get(type(value))
    return f"of {len(value)} {unit}" if unit else f"of type {type(value).__name__}"


def format_rational(x: Fraction) -> str:
    """``str(x)`` for a rational of any size.

    ``str`` of an integer raises beyond the interpreter's digit limit (4300
    digits by default); an exact answer can be longer than that.
    """
    if x.denominator == 1:
        return _int_text(x.numerator)
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"


def _int_text(n: int) -> str:
    if n < 0:
        return "-" + _int_text(-n)
    bits = n.bit_length()
    if bits <= 2000:  # at most 603 digits, below the least digit limit the interpreter accepts (640)
        return str(n)
    half = bits * 3 // 20  # n has more than 2 * half digits, since log10(2) > 3/10
    high, low = divmod(n, 10**half)
    return _int_text(high) + _int_text(low).zfill(half)


def parse_weight(text: str) -> Weight:
    """Parse a comma-separated weight such as '2,2,4'.

    Text longer than ``MAX_RATIONAL_CHARS`` is rejected before any parsing.
    """
    body = str(text)
    if len(body) > MAX_RATIONAL_CHARS:
        raise ValueError(f"weight of {len(body)} characters exceeds the limit of {MAX_RATIONAL_CHARS}")
    try:
        parts = tuple(int(x) for x in body.split(","))
    except ValueError:
        raise ValueError(f"invalid weight {_shown(body)}: parts must be integers") from None
    return Weight(parts)
