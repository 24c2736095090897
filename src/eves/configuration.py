"""Colored configurations of independent point tuples in projective space.

A configuration carries a weight with one part per color; color c is a
multiset of ell * p_c tuples of arity r, each tuple spanning an r-dimensional
linear subspace, stored as counts: each distinct tuple with its multiplicity.
A tuple (``RTuple``) is the plain tuple of its member names, in order, since
a bracket changes sign with the order; it sorts and hashes as a tuple.
The admissibility check (``validate_h``) demands that per-point and
per-span color degrees are proportional to the weight with integer ratios.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from operator import mul
from typing import Mapping, Sequence

from . import linalg
from .linalg import Matrix, Vector
from .wps import MAX_RATIONAL_CHARS, _PLAIN_INTEGER, FieldKind, Weight, _int_text, format_rational, parse_rational


# Input limits, checked before parsing; far above the fixtures and the benchmark's inputs
MAX_INPUT_BYTES = 16 * 2**20  # one configuration or matrix file
MAX_TUPLES = 100_000  # tuples in one configuration file, all colors together


RTuple = tuple[str, ...]  # an r-tuple: the ordered names of its members


class ConfigurationError(ValueError):
    """Configuration data violates a structural requirement."""


@dataclass(init=False, frozen=True)
class ProjPoint:
    """A named, immutable point of projective space, kept as integers: ``row``
    is its coordinates times ``denominator``, the lcm D of their denominators,
    and ``lead`` the row's first nonzero entry.  ``coords`` (``Fraction``) is
    built on first use.  The coordinates determine (row, D), so points compare
    and hash on (name, row, D) as on (name, coords), however they were built.
    """

    name: str
    row: tuple[int, ...]
    denominator: int
    lead: int

    def __init__(self, name: str, coords: Sequence) -> None:
        coords = tuple(coords)
        types = set(map(type, coords))
        if types == {int}:
            row, d = coords, 1
        else:  # other entries are read as ``Fraction`` reads them
            row, d = linalg.clear_denominators(coords if types <= {int, Fraction} else linalg.vec(coords))
            row = tuple(row)
        self._fill(name, row, d)

    @classmethod
    def from_row(cls, name: str, row: Sequence[int], denominator: int) -> ProjPoint:
        """The point row / denominator, from integers with a positive denominator;
        one gcd brings them to the point's own (row, D)."""
        g = gcd(denominator, *row)
        pt = cls.__new__(cls)
        pt._fill(name, tuple(x // g for x in row), denominator // g)
        return pt

    def _fill(self, name: str, row: tuple[int, ...], d: int) -> None:
        if not name:
            raise ConfigurationError("point name must be non-empty")
        lead = next(filter(None, row), None)
        if lead is None:
            raise ConfigurationError(f"point {name!r}: zero vector is not a projective point")
        self.__dict__.update(name=name, row=row, denominator=d, lead=lead)

    @cached_property
    def coords(self) -> Vector:
        d = self.denominator
        return tuple(Fraction(x, d) for x in self.row)


@dataclass(frozen=True)
class Subspace:
    """Canonical reduced-echelon basis R of an r-dimensional linear subspace.

    R is the identity at its pivot columns, so a vector's coordinates in R are
    its entries there.  The hash is that of R's integer rows D·R (``scaled``),
    which equal bases share: cheaper than hashing the rationals.
    """

    basis: Matrix

    def __post_init__(self) -> None:
        basis = linalg.mat(self.basis)
        if not basis:
            raise ConfigurationError("subspace basis must have at least one row")
        reduced, rk = linalg.rref(basis)
        if rk != len(basis) or reduced != basis:
            raise ConfigurationError("subspace basis must be reduced echelon rows of full rank")
        object.__setattr__(self, "basis", basis)
        # spans key dicts looked up once per tuple, so the hash is computed once
        object.__setattr__(self, "_hash", hash(tuple(map(tuple, self.scaled[1]))))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The column of each basis row's leading 1."""
        return tuple(next(c for c, x in enumerate(row) if x) for row in self.basis)

    @cached_property
    def scaled(self) -> tuple[int, list[list[int]]]:
        """The lcm D of the basis's denominators and the integer rows D·R."""
        d = lcm(*[x.denominator for row in self.basis for x in row])
        return d, [[x.numerator * (d // x.denominator) for x in row] for row in self.basis]

    @cached_property
    def _free_columns(self) -> tuple[tuple[int, list[int]], ...]:
        """Each free (non-pivot) column c with the column of D·R at c."""
        rows = self.scaled[1]
        return tuple((c, [row[c] for row in rows]) for c in range(len(rows[0])) if c not in self.pivots)

    def contains_integer(self, u: Sequence[int]) -> bool:
        """Whether the integer row u lies in the span: whether D·u[c] equals
        the sum of u[pivot_k]·(D·R)[k][c] at every free column c."""
        if len(u) != len(self.basis[0]):
            raise ValueError("basis/vector shape mismatch")
        d, x = self.scaled[0], [u[c] for c in self.pivots]
        return all(d * u[c] == sum(map(mul, x, column)) for c, column in self._free_columns)

    def minor(self, rows: Sequence[Sequence[int]]) -> int:
        """The determinant in R of integer rows of the span: their minor at R's pivot columns."""
        return linalg.integer_det([[row[c] for c in self.pivots] for row in rows])

    def __str__(self) -> str:
        rows = "; ".join("(" + ", ".join(format_rational(x) for x in r) + ")" for r in self.basis)
        return f"span[{rows}]"


@dataclass(frozen=True)
class Configuration:
    """``counts[c]`` maps each distinct tuple of color c, a tuple of member
    names, to its multiplicity, in sorted order; ``colors``, the sorted lists
    with repeats, is built on first use."""

    weight: Weight
    arity: int
    dim: int
    counts: tuple[dict[RTuple, int], ...]
    points: dict[str, ProjPoint]
    spans: dict[RTuple, Subspace] = field(compare=False, repr=False, default_factory=dict)
    # each distinct tuple's bracket on canonical representatives in its span's
    # echelon basis, as an unreduced (numerator, denominator) pair of ints
    brackets: dict[RTuple, tuple[int, int]] = field(compare=False, repr=False, default_factory=dict)

    @property
    def ell(self) -> int:
        """The common quotient |S_c| / p_c of the color list lengths by the weight parts."""
        return sum(self.counts[0].values()) // self.weight.parts[0]

    @cached_property
    def colors(self) -> tuple[tuple[RTuple, ...], ...]:
        """Each color as its sorted list of tuples, repeats included."""
        return tuple(tuple(t for t, k in color.items() for _ in range(k)) for color in self.counts)

    def subspaces(self) -> tuple[Subspace, ...]:
        """Distinct spans, in the order of their bases R, compared in integers:
        each span's rows D·R times L/D are L·R, with L the lcm of all spans' D."""
        spans = set(self.spans.values())
        common = lcm(*[s.scaled[0] for s in spans])

        def key(s: Subspace) -> list[list[int]]:
            d, rows = s.scaled
            return rows if d == common else [[x * (common // d) for x in row] for row in rows]

        return tuple(sorted(spans, key=key))


def _as_rtuple(t) -> RTuple:
    """The r-tuple of a sequence of point names; a ``str`` is refused, not read as its letters."""
    if type(t) is tuple:
        return t
    if isinstance(t, str):
        raise ConfigurationError("an r-tuple is a sequence of point names, not a str")
    return tuple(t)


def _span(rows: Sequence[Sequence[int]], interned: dict) -> tuple[Subspace, int] | None:
    """The span of independent integer rows and their determinant in its
    echelon basis, or None when they are dependent.

    The echelon basis is the identity at its pivot columns, so that
    determinant is the rows' minor there, which the elimination returns.
    Spans are interned in ``interned`` by their primitive integer echelon
    rows, which are canonical, so a ``Subspace`` is built once per new span.
    """
    echelon, pivots, minor = linalg.integer_echelon_minor(rows)
    if len(pivots) != len(rows):
        return None
    key = tuple(map(tuple, echelon))
    span = interned.get(key)
    if span is None:
        span = interned[key] = Subspace(tuple(map(linalg.scale_first_nonzero, echelon)))
    return span, minor


def build_configuration(
    weight: Weight,
    arity: int,
    dim: int,
    colors: Sequence[Sequence],
    points: Mapping[str, Sequence[Fraction] | ProjPoint],
) -> Configuration:
    """Validate and assemble a configuration.

    Infers ell from the color list lengths (|S_c| = ell * p_c must hold with
    one positive integer ell for every color), checks that every tuple names
    known points and is linearly independent, and stores each color as
    counts: each distinct tuple with its multiplicity, sorted on member names.

    The elimination that finds a tuple's span also brackets the tuple: a
    canonical representative is the point's integer row u (``ProjPoint.row``)
    divided by its lead, the first nonzero entry of u, so the canonical
    bracket is the rows' minor at the span's pivots over the product of the
    members' leads.

    Each elimination proves its members lie in the span it finds, and that
    is recorded per point, with the point's cleared row at the span's pivot
    columns.  A later tuple whose members all lie in one recorded span S
    needs no elimination: the determinant of their recorded rows is the
    minor an elimination would return, and it is zero exactly when the rows
    are dependent.  Only recorded facts are looked up, so a tuple sharing no
    span with earlier ones costs one elimination, as before.  At full arity
    (r = dim + 1) every tuple spans the whole space, so no tuple is
    eliminated: its minor is the determinant of its members' rows.
    """
    if arity < 1:
        raise ConfigurationError("arity must be >= 1")
    if dim < 0:
        raise ConfigurationError("dimension must be >= 0")
    if arity > dim + 1:
        raise ConfigurationError(f"arity {arity} exceeds dim+1 = {dim + 1}")
    if len(colors) != len(weight.parts):
        raise ConfigurationError(
            f"{len(colors)} color lists for a weight of length {len(weight.parts)}"
        )

    table: dict[str, ProjPoint] = {}
    for name, value in points.items():
        pt = value if isinstance(value, ProjPoint) else ProjPoint(str(name), value)
        if pt.name != name:
            raise ConfigurationError(f"point table key {name!r} does not match point name {pt.name!r}")
        if len(pt.row) != dim + 1:
            raise ConfigurationError(
                f"point {name!r}: expected {dim + 1} coordinates, got {len(pt.row)}"
            )
        table[name] = pt

    ell: int | None = None
    counts: list[dict[RTuple, int]] = []
    spans: dict[RTuple, Subspace] = {}
    brackets: dict[RTuple, tuple[int, int]] = {}
    interned: dict[tuple, Subspace] = {}
    whole: Subspace | None = None  # the span of every tuple at full arity, built at the first one
    # below full arity, facts[name][id(S)]: the point's cleared row at the pivot columns
    # of a span S an elimination placed it in.  Spans are interned, so id(S) names S and hashes in C.
    facts: dict[str, dict[int, list[int]]] = {name: {} for name in table}
    proven: dict[int, Subspace] = {}
    for c, color in enumerate(colors):
        tuples: list[RTuple] = list(color)
        if set(map(type, tuples)) - {tuple}:
            for k, t in enumerate(tuples):
                try:
                    tuples[k] = _as_rtuple(t)
                except ConfigurationError as exc:
                    raise ConfigurationError(f"colors[{c}][{k}]: {exc}") from None
        p_c = weight.parts[c]
        if len(tuples) % p_c != 0:
            raise ConfigurationError(
                f"colors[{c}]: list length {len(tuples)} is not divisible by weight part {p_c}"
            )
        quotient = len(tuples) // p_c
        if quotient == 0:
            raise ConfigurationError(f"colors[{c}]: empty color list (ell would be 0)")
        if ell is None:
            ell = quotient
        elif quotient != ell:
            raise ConfigurationError(
                f"colors[{c}]: implies ell = {quotient}, but earlier colors imply ell = {ell}"
            )
        for k, t in enumerate(tuples):
            if len(t) != arity:
                raise ConfigurationError(
                    f"colors[{c}][{k}]: tuple has {len(t)} members, expected {arity}"
                )
            for name in t:
                if not isinstance(name, str) or name not in table:
                    raise ConfigurationError(f"colors[{c}][{k}]: unknown point name {name!r}")
            if t not in spans:
                if len(set(t)) < arity:
                    minor = 0  # a repeated member: dependent, with no span or determinant work
                elif arity == dim + 1:
                    # every tuple spans the whole space, whose echelon basis is the identity
                    if whole is None:
                        whole = Subspace(linalg.identity(arity))
                    span, minor = whole, linalg.integer_det([table[name].row for name in t])
                else:
                    known = [facts[name] for name in t]
                    shared = iter(known[0])  # the first member's spans that hold every other member
                    for fact in known[1:]:
                        shared = filter(fact.__contains__, shared)
                    key = next(shared, None)
                    if key is not None:
                        span = proven[key]
                        minor = linalg.integer_det([fact[key] for fact in known])
                    else:
                        span, minor = _span([table[name].row for name in t], interned) or (None, 0)
                        if minor:
                            key = id(span)
                            proven[key] = span
                            for name, fact in zip(t, known):
                                row = table[name].row
                                fact[key] = [row[p] for p in span.pivots]
                if not minor:
                    raise ConfigurationError(f"colors[{c}][{k}]: dependent r-tuple {t}")
                spans[t] = span
                lead_product = 1
                for name in t:
                    lead_product *= table[name].lead
                brackets[t] = minor, lead_product
        # a Counter keeps first-insertion order, so counting the sorted list keeps it sorted
        counts.append(dict(Counter(sorted(tuples))))

    return Configuration(weight, arity, dim, tuple(counts), table, spans, brackets)


@dataclass(frozen=True)
class DegreeReport:
    h_valid: bool
    ell: int
    weight: Weight
    point_degrees: dict[str, tuple[int, ...]]
    subspace_degrees: dict[Subspace, tuple[int, ...]]
    point_quotients: dict[str, int | None]
    subspace_multiplicities: dict[Subspace, int | None]
    first_failure: str | None


def _proportional(degrees: tuple[int, ...], parts: tuple[int, ...]) -> int | None:
    """The common integer ratio deg_c / p_c, or None when it does not exist."""
    q, rem = divmod(degrees[0], parts[0])
    if rem != 0:
        return None
    for d, p in zip(degrees[1:], parts[1:]):
        if d != q * p:
            return None
    return q


def validate_h(cfg: Configuration, weight: Weight | None = None) -> DegreeReport:
    """Degree bookkeeping plus the admissibility verdict.

    With ``weight`` given, the stored lists are re-read under that weight
    instead (useful for probing alternative descriptions); shape mismatches
    then surface as an invalid report, never as an exception.  The report's
    ell is set by the list lengths alone: their common quotient by the
    weight parts, or 0 when they do not fit the weight.
    """
    w = weight if weight is not None else cfg.weight
    parts = w.parts
    failure: str | None = None
    sizes = [sum(color.values()) for color in cfg.counts]

    ell: int | None = None
    if len(parts) != len(sizes):
        failure = f"weight length {len(parts)} does not match {len(sizes)} colors"
    else:
        for c, size in enumerate(sizes):
            q, rem = divmod(size, parts[c])
            if rem != 0 or q == 0 or (ell is not None and q != ell):
                failure = f"colors[{c}]: length {size} incompatible with weight part {parts[c]}"
                break
            ell = q
    if failure is not None:
        ell = 0

    point_counts: dict[str, list[int]] = {name: [0] * len(sizes) for name in cfg.points}
    span_counts: dict[Subspace, list[int]] = defaultdict(lambda: [0] * len(sizes))
    for c, color in enumerate(cfg.counts):
        for t, k in color.items():
            for name in t:
                point_counts[name][c] += k
            span_counts[cfg.spans[t]][c] += k

    subspaces = cfg.subspaces()
    point_degrees = {name: tuple(v) for name, v in point_counts.items()}
    subspace_degrees = {s: tuple(span_counts[s]) for s in subspaces}

    point_quotients: dict[str, int | None] = {}
    subspace_multiplicities: dict[Subspace, int | None] = {}
    if failure is None:
        ratio = cache(lambda degrees: _proportional(degrees, parts))  # points and spans share few degree vectors
        for name in sorted(point_degrees):
            q = ratio(point_degrees[name])
            point_quotients[name] = q
            if q is None and failure is None:
                failure = f"point {name!r}: degrees {point_degrees[name]} not proportional to weight {w}"
        for s in subspaces:
            m = ratio(subspace_degrees[s])
            subspace_multiplicities[s] = m
            if m is None and failure is None:
                failure = f"{s}: degrees {subspace_degrees[s]} not proportional to weight {w}"
    else:
        point_quotients = {name: None for name in point_degrees}
        subspace_multiplicities = {s: None for s in subspace_degrees}

    return DegreeReport(
        h_valid=failure is None,
        ell=ell,
        weight=w,
        point_degrees=point_degrees,
        subspace_degrees=subspace_degrees,
        point_quotients=point_quotients,
        subspace_multiplicities=subspace_multiplicities,
        first_failure=failure,
    )


# ---------------------------------------------------------------------------
# File format: a JSON document with exact rationals written as strings.
#
# {
#   "field": "rational",
#   "weight": [2, 2, 4],
#   "arity": 2,
#   "dim": 2,
#   "points": {"A": ["1", "0", "0"], "B": ["1", "1/2", "1/2"]},
#   "colors": [[["A", "B"], ...], ...]
# }
# ---------------------------------------------------------------------------


def _note_duplicate_keys(pairs, repeated: list):
    """The object of ``pairs``.  Each key it repeats is appended to ``repeated``
    with the object; the caller names it once the whole document is read, when
    it is known whether the object is ``points``."""
    seen = {}
    for key, value in pairs:
        if key in seen:
            repeated.append((key, seen))
        seen[key] = value
    return seen


def _decode(text: str, source: str, object_pairs_hook=None):
    """The JSON document in ``text``; a decoding failure is a ``ConfigurationError`` naming ``source``."""
    try:
        return json.loads(text, object_pairs_hook=object_pairs_hook)
    except ValueError as exc:  # also an integer literal over the interpreter's digit limit
        raise ConfigurationError(f"{source}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ConfigurationError(f"{source}: JSON nests too deeply") from None


def _rational(value) -> Fraction:
    """A JSON entry read as an exact rational: a rational string or an integer.

    A refused entry raises ``ConfigurationError`` with a message that the
    caller prefixes with the entry's position."""
    if isinstance(value, bool) or isinstance(value, float):
        raise ConfigurationError(f"entries must be exact rationals, got {value!r}")
    if isinstance(value, (int, str)):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None
    raise ConfigurationError("entries must be rational strings or integers")


def parse_configuration(text: str, source: str = "<string>") -> Configuration:
    """Parse the JSON configuration format, with positional diagnostics."""
    repeated = []
    doc = _decode(text, source, lambda pairs: _note_duplicate_keys(pairs, repeated))
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{source}: top level must be an object")

    def fail(msg: str) -> ConfigurationError:
        return ConfigurationError(f"{source}: {msg}")

    if repeated:  # the first repeated key; the keys of "points" are point names
        raise fail(f"duplicate {'point name' if repeated[0][1] is doc.get('points') else 'key'} {repeated[0][0]!r}")
    for key in ("field", "weight", "arity", "dim", "points", "colors"):
        if key not in doc:
            raise fail(f"missing field {key!r}")
    if doc["field"] != "rational":
        raise fail(f"field: expected 'rational', got {doc['field']!r}")
    if not isinstance(doc["weight"], list) or not all(
        isinstance(p, int) and not isinstance(p, bool) for p in doc["weight"]
    ):
        raise fail("weight: must be a list of integers")
    if not all(isinstance(doc[k], int) and not isinstance(doc[k], bool) for k in ("arity", "dim")):
        raise fail("arity/dim: must be integers")
    if not isinstance(doc["points"], dict):
        raise fail("points: must be an object")
    if not isinstance(doc["colors"], list):
        raise fail("colors: must be a list")
    if sum(len(color) for color in doc["colors"] if isinstance(color, list)) > MAX_TUPLES:
        raise fail(f"colors: more than the limit of {MAX_TUPLES} tuples")

    try:
        weight = Weight(tuple(doc["weight"]), FieldKind.REAL_LIKE)
    except ValueError as exc:
        raise fail(f"weight: {exc}") from None

    points: dict[str, ProjPoint] = {}
    texts: dict[str, int | Fraction] = {}  # each distinct coordinate text, read once
    for name, coords in doc["points"].items():
        if not isinstance(coords, list):
            raise fail(f"points[{name!r}]: must be a list of rationals")
        values = []
        for k, v in enumerate(coords):
            x = texts.get(v) if type(v) is str else None
            if x is None:
                if type(v) is str and len(v) <= MAX_RATIONAL_CHARS and _PLAIN_INTEGER.fullmatch(v):
                    x = int(v)  # the value parse_rational reads, without a Fraction
                else:
                    try:
                        x = _rational(v)
                    except ConfigurationError as exc:
                        raise fail(f"points[{name!r}][{k}]: {exc}") from None
                if type(v) is str:
                    texts[v] = x
            values.append(x)
        try:
            points[name] = ProjPoint(name, tuple(values))
        except ConfigurationError as exc:
            raise fail(str(exc)) from None

    colors: list[list[RTuple]] = []
    for c, color in enumerate(doc["colors"]):
        if not isinstance(color, list):
            raise fail(f"colors[{c}]: must be a list of tuples")
        if set(map(type, color)) - {list} or set(map(type, chain.from_iterable(color))) - {str}:
            for k, t in enumerate(color):  # names the first entry that is not a list of names
                if not isinstance(t, list) or not all(isinstance(m, str) for m in t):
                    raise fail(f"colors[{c}][{k}]: must be a list of point names")
        colors.append(list(map(tuple, color)))

    try:
        return build_configuration(weight, doc["arity"], doc["dim"], colors, points)
    except ConfigurationError as exc:
        raise fail(str(exc)) from None


def _read_input(path) -> str:
    """The text of an input file, refused before decoding when over ``MAX_INPUT_BYTES``."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_INPUT_BYTES + 1)
    if len(data) > MAX_INPUT_BYTES:
        raise ConfigurationError(f"{path}: file exceeds the limit of {MAX_INPUT_BYTES} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise ConfigurationError(f"{path}: file is not UTF-8 text") from None


def load_configuration(path) -> Configuration:
    return parse_configuration(_read_input(path), source=str(path))


def _load_matrix(path) -> Matrix:
    """The rows of a matrix file: a non-empty JSON array of equally long rows of rationals."""
    doc = _decode(_read_input(path), str(path))
    if not isinstance(doc, list) or not doc or not all(isinstance(r, list) for r in doc):
        raise ConfigurationError(f"{path}: matrix must be a non-empty array of rows")

    def entry(value, i: int, j: int) -> Fraction:
        try:
            return _rational(value)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path}: row {i} column {j}: {exc}") from None

    rows = tuple(tuple(entry(value, i, j) for j, value in enumerate(row)) for i, row in enumerate(doc))
    if any(len(r) != len(rows[0]) for r in rows):
        raise ConfigurationError(f"{path}: matrix rows have unequal lengths")
    return rows


def _json_block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """The text ``json.dumps(..., indent=2)`` gives a list (or, with brackets
    "{}", an object) at nesting ``depth`` whose items are already written."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def configuration_to_json(cfg: Configuration) -> str:
    """Serialize in the input file format, deterministically ordered.

    The text is ``json.dumps(doc, indent=2)`` of the document plus a newline,
    written with one join per list.  Each coordinate is printed from the
    point's integer row u and its denominator D: u_k / D in lowest terms,
    which is ``format_rational`` of the coordinate, with no ``Fraction``.
    """
    quoted = {name: encode_basestring_ascii(name) for name in sorted(cfg.points)}
    points = []
    for name, key in quoted.items():
        pt = cfg.points[name]
        d = pt.denominator
        texts = []
        for x in pt.row:
            g = gcd(x, d)
            texts.append(f'"{_int_text(x // g)}"' if g == d else f'"{_int_text(x // g)}/{_int_text(d // g)}"')
        points.append(f"{key}: {_json_block(texts, 2)}")
    colors = []
    for color in cfg.counts:
        tuples = []
        for t, k in color.items():
            tuples += [_json_block([quoted[name] for name in t], 3)] * k
        colors.append(_json_block(tuples, 2))
    fields = [
        '"field": "rational"',
        f'"weight": {_json_block(list(map(str, cfg.weight.parts)), 1)}',
        f'"arity": {cfg.arity}',
        f'"dim": {cfg.dim}',
        f'"points": {_json_block(points, 1, "{}")}',
        f'"colors": {_json_block(colors, 1)}',
    ]
    return _json_block(fields, 0, "{}") + "\n"
