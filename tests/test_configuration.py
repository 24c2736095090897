import itertools
import json
import math
import random
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from eves import (
    Configuration,
    ConfigurationError,
    ProjPoint,
    RTuple,
    Subspace,
    Weight,
    build_configuration,
    configuration_to_json,
    load_configuration,
    parse_configuration,
    validate_h,
)
from eves import configuration, linalg
from eves.invariant import LinearMorphism, apply_morphism, eves_invariant
from eves.reconstruct import unit_weight_expansion
from eves.wps import MAX_RATIONAL_CHARS, format_rational, parse_rational
from conftest import mat_vec, random_h_configuration, random_invertible_matrix, random_simplex_configuration


def line_points(*ts):
    return {f"t{k}": (F(1), F(t)) for k, t in enumerate(ts)}


def lines_configuration(rng, n_lines, per_line):
    """An admissible weight-(1,1) configuration of segments on lines in P^3.

    Each line lies in a random coordinate hyperplane, so the lines' pivot
    columns differ, and each point is a random rational multiple of u + t v.
    Each color holds two random matchings of every line's points.
    """
    points, colors = {}, [[], []]
    for line in range(n_lines):
        zero = rng.randrange(4)
        while True:
            u, v = ([0 if c == zero else rng.randint(-5, 5) for c in range(4)] for _ in range(2))
            if linalg.rank([u, v]) == 2:
                break
        names = [f"l{line}p{k}" for k in range(per_line)]
        for name, t in zip(names, rng.sample(range(-20, 21), per_line)):
            scale = F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
            points[name] = tuple(scale * (a + F(t, 3) * b) for a, b in zip(u, v))
        for color in colors:
            for _ in range(2):
                perm = rng.sample(names, per_line)
                color += [(perm[e], perm[e + 1]) for e in range(0, per_line, 2)]
    return build_configuration(Weight((1, 1)), 2, 3, colors, points)


def general_position_configuration(rng, n_points):
    """Every pair of n points in general position in P^3, so no two tuples share a span.

    Weight (1, 2): color 0 holds each pair once and color 1 twice.
    """
    while True:
        points = {f"g{k}": tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)) for k in range(n_points)}
        if all(linalg.rank([points[n] for n in triple]) == 3 for triple in itertools.combinations(points, 3)):
            break
    pairs = list(itertools.combinations(points, 2))
    rng.shuffle(pairs)
    return build_configuration(Weight((1, 2)), 2, 3, [pairs, pairs + pairs[::-1]], points)


def eliminated_one_by_one(cfg):
    """Each distinct tuple's span and stored bracket, from an elimination of that tuple alone."""
    spans, brackets = {}, {}
    for t in cfg.spans:
        rows = [linalg.clear_denominators(cfg.points[name].coords)[0] for name in t]
        spans[t], minor = configuration._span(rows, {})
        brackets[t] = minor, math.prod(next(filter(None, row)) for row in rows)
    return spans, brackets


def count_calls(monkeypatch, module, name):
    """Patch ``module.name`` to record its calls; returns the list of calls."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestBuild:
    def test_cross_ratio_fixture_shape(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "cross_ratio_quadruple.json")
        assert (cfg.ell, cfg.arity, cfg.dim) == (2, 2, 1)
        assert cfg.weight.parts == (1, 1)

    def test_midpoint_fixture_shape(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "midpoint_triangle_aligned.json")
        assert cfg.ell == 3
        assert cfg.weight.parts == (2, 2, 4)
        assert [len(color) for color in cfg.colors] == [6, 6, 12]

    def test_length_not_divisible(self):
        pts = line_points(0, 1, 2)
        with pytest.raises(ConfigurationError, match="not divisible"):
            build_configuration(
                Weight((2, 1)), 2, 1,
                [[("t0", "t1")] * 3, [("t0", "t1")] * 3], pts,
            )

    def test_inconsistent_ell(self):
        pts = line_points(0, 1)
        with pytest.raises(ConfigurationError, match="ell"):
            build_configuration(
                Weight((1, 1)), 2, 1,
                [[("t0", "t1")], [("t0", "t1")] * 2], pts,
            )

    def test_empty_color(self):
        pts = line_points(0, 1)
        with pytest.raises(ConfigurationError, match="ell would be 0"):
            build_configuration(Weight((1, 1)), 2, 1, [[], []], pts)

    def test_dependent_tuple(self):
        pts = {"a": (F(1), F(2)), "b": (F(2), F(4))}
        with pytest.raises(ConfigurationError, match="dependent r-tuple"):
            build_configuration(Weight((1, 1)), 2, 1, [[("a", "b")], [("a", "b")]], pts)

    def test_unknown_point(self):
        pts = line_points(0, 1)
        with pytest.raises(ConfigurationError, match="unknown point name"):
            build_configuration(Weight((1, 1)), 2, 1, [[("t0", "nope")], [("t0", "t1")]], pts)

    def test_point_key_must_be_its_name(self):
        pts = {"a": ProjPoint("a", (F(1), F(0))), "b": ProjPoint("c", (F(1), F(1)))}
        with pytest.raises(ConfigurationError, match="point table key 'b' does not match point name 'c'"):
            build_configuration(Weight((1, 1)), 2, 1, [[("a", "b")], [("a", "b")]], pts)

    def test_zero_vector_point(self):
        with pytest.raises(ConfigurationError, match="zero vector"):
            ProjPoint("z", (F(0), F(0)))

    def test_dimension_mismatch(self):
        pts = {"a": (F(1), F(0), F(0)), "b": (F(1), F(1))}
        with pytest.raises(ConfigurationError, match="expected 2 coordinates"):
            build_configuration(Weight((1, 1)), 2, 1, [[("a", "b")], [("a", "b")]], pts)

    def test_arity_bounds(self):
        pts = line_points(0, 1)
        with pytest.raises(ConfigurationError, match="exceeds"):
            build_configuration(Weight((1, 1)), 3, 1, [[("t0", "t1")], [("t0", "t1")]], pts)

    def test_colors_stored_sorted_with_multiplicity(self):
        pts = line_points(0, 1, 2, 3)
        cfg = build_configuration(
            Weight((1, 1)), 2, 1,
            [[("t3", "t0"), ("t2", "t1")], [("t2", "t0"), ("t3", "t1")]], pts,
        )
        assert cfg.colors[0] == (RTuple(("t2", "t1")), RTuple(("t3", "t0")))


class TestTupleKeys:
    """An r-tuple is the plain tuple of its member names."""

    def test_rtuple_is_the_tuple_of_names(self):
        assert RTuple(("a", "b")) == ("a", "b")
        assert type(RTuple(("a", "b"))) is tuple

    def test_keys_are_tuples_of_names(self, fixtures_dir):
        cfgs = [load_configuration(fixtures_dir / "midpoint_triangle_aligned.json")]
        cfgs += [random_h_configuration(random.Random(seed)) for seed in range(5)]
        for cfg in cfgs:
            keys = [t for color in cfg.counts for t in color] + list(cfg.spans) + list(cfg.brackets)
            assert all(type(t) is tuple and all(type(m) is str for m in t) for t in keys)

    def test_lists_tuples_and_rtuples_key_one_entry(self):
        pts = line_points(0, 1, 2)
        forms = [list, tuple, RTuple]
        colors = [[form(("t0", "t1")) for form in forms], [form(("t2", "t1")) for form in forms]]
        cfg = build_configuration(Weight((3, 3)), 2, 1, colors, pts)
        assert cfg.counts == ({("t0", "t1"): 3}, {("t2", "t1"): 3})
        assert list(cfg.spans) == [("t0", "t1"), ("t2", "t1")]

    @pytest.mark.parametrize(
        "member, shown",
        [(1, "1"), (["b"], "['b']"), ("x" * 100_000, "of 100000 characters"), (10**5000, "of type int"),
         (["b"] * 50, "of type list")],
        ids=["int", "list", "long-str", "huge-int", "long-list"],
    )
    def test_member_not_a_name_refused(self, member, shown):
        # a member is quoted when short, otherwise named by its length or its type
        pts = {"a": (F(1), F(0)), "b": (F(0), F(1)), "1": (F(1), F(1))}
        with pytest.raises(ConfigurationError) as caught:
            build_configuration(Weight((1, 1)), 2, 1, [[("a", member)], [("a", "b")]], pts)
        assert str(caught.value) == f"colors[0][0]: unknown point name {shown}"

    def test_str_is_not_a_tuple_in_build(self):
        pts = {"a": (F(1), F(0)), "b": (F(0), F(1))}
        with pytest.raises(ConfigurationError, match=r"^colors\[1\]\[0\]: .*not a str"):
            build_configuration(Weight((1, 1)), 2, 1, [[("a", "b")], ["ab"]], pts)


class TestSpans:
    def test_whole_line(self):
        pts = {"a": (F(1), F(0)), "b": (F(0), F(1))}
        cfg = build_configuration(Weight((1, 1)), 2, 1, [[("a", "b")], [("a", "b")]], pts)
        assert cfg.spans[("a", "b")].basis == linalg.identity(2)

    def test_echelon_form(self):
        pts = {"a": (F(1), F(0), F(0)), "b": (F(1), F(1), F(1))}
        cfg = build_configuration(Weight((1, 1)), 2, 2, [[("a", "b")], [("a", "b")]], pts)
        assert cfg.spans[("a", "b")].basis == ((F(1), F(0), F(0)), (F(0), F(1), F(1)))

    def test_full_space_triangle(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "area_ratio_six_points.json")
        t = cfg.colors[0][0]
        assert cfg.spans[t].basis == linalg.identity(3)

    def test_invariant_under_rescaling_and_permutation(self):
        pts1 = {"a": (F(1), F(2), F(3)), "b": (F(0), F(1), F(5))}
        pts2 = {"a": (F(2), F(4), F(6)), "b": (F(0), F(-3), F(-15))}
        c1 = build_configuration(Weight((1, 1)), 2, 2, [[("a", "b")], [("a", "b")]], pts1)
        c2 = build_configuration(Weight((1, 1)), 2, 2, [[("b", "a")], [("b", "a")]], pts2)
        assert c1.spans[("a", "b")] == c2.spans[("b", "a")]

    def test_empty_basis_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one row"):
            Subspace(())


BIG = 10**12

echelon_entries = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


@st.composite
def span_families(draw):
    """Reduced echelon bases of one shape, in groups that share all rows but the last."""
    width = draw(st.integers(2, 5))
    rank = draw(st.integers(1, width))
    bases = []
    for _ in range(draw(st.integers(1, 4))):
        pivots = sorted(draw(st.sets(st.integers(0, width - 1), min_size=rank, max_size=rank)))
        rows = []
        for p in pivots:
            row = [F(0)] * width
            row[p] = F(1)
            rows.append(row)
        free = [(k, c) for k, p in enumerate(pivots) for c in range(p + 1, width) if c not in pivots]
        for k, c in free:
            rows[k][c] = draw(echelon_entries)
        for _ in range(draw(st.integers(1, 4))):  # variants share all rows but the last
            for k, c in free:
                if k == rank - 1:
                    rows[k][c] = draw(echelon_entries)
            bases.append(tuple(map(tuple, rows)))
    return width, rank, bases


class TestSubspaceOrder:
    @given(span_families())
    def test_integer_order_is_the_basis_order(self, family):
        width, rank, bases = family
        spans = {RTuple((f"s{k}",)): Subspace(basis) for k, basis in enumerate(bases)}
        cfg = Configuration(Weight((1, 1)), rank, width - 1, ((), ()), {}, spans)
        assert cfg.subspaces() == tuple(sorted(set(spans.values()), key=lambda s: s.basis))


class TestSubspaceHash:
    """A span hashes by its integer rows D·R, however its basis was given."""

    def test_one_key_from_int_rows_fraction_rows_and_elimination(self):
        ints = Subspace(((1, 0, 2, -3), (0, 1, 5, 7)))
        fractions = Subspace(((F(1), F(0), F(2), F(-3)), (F(0), F(1), F(5), F(7))))
        eliminated, _ = configuration._span([[1, 1, 7, 4], [2, -1, -1, -13]], {})
        assert ints == fractions == eliminated
        assert hash(ints) == hash(fractions) == hash(eliminated)
        assert len({ints: 0, fractions: 1, eliminated: 2}) == 1
        other = Subspace(((1, 0, 2, -3), (0, 1, 5, 8)))
        assert other != ints and len({ints: 0, other: 1}) == 2

    @given(span_families())
    def test_equal_spans_share_a_key_and_distinct_spans_do_not(self, family):
        _, _, bases = family
        keys = {}
        for basis in bases:
            span = Subspace(basis)
            found, _ = configuration._span([linalg.clear_denominators(row)[0] for row in basis], {})
            assert found == span and hash(found) == hash(span)
            keys[span] = basis
            keys[found] = basis
        assert len(keys) == len(set(bases))
        assert all(span.basis == basis for span, basis in keys.items())


point_entries = st.one_of(
    st.just(0),
    st.just(F(0)),
    st.integers(-3, 3),
    st.integers(-BIG, BIG),
    st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


def one_point_document(name, texts):
    """A weight-(1,1) file whose one tuple is the point itself (arity 1)."""
    return json.dumps({"field": "rational", "weight": [1, 1], "arity": 1, "dim": len(texts) - 1,
                       "points": {name: texts}, "colors": [[[name]], [[name]]]})


class TestPointRows:
    """A point is kept as its cleared integer row, over the lcm of its denominators."""

    @given(st.lists(point_entries, min_size=1, max_size=5).filter(any), st.integers(1, BIG))
    def test_row_coords_equality_and_hash(self, values, k):
        coords = linalg.vec(values)
        pt = ProjPoint("p", values)
        assert pt.coords == coords and {type(x) for x in pt.coords} == {F}
        d = math.lcm(*[x.denominator for x in coords])
        assert (pt.row, pt.denominator) == (tuple(x * d for x in coords), d)
        assert pt.lead == next(filter(None, pt.row))
        ints = [x.numerator if x.denominator == 1 else x for x in coords]
        parsed = parse_configuration(one_point_document("p", [str(x) for x in coords])).points["p"]
        scaled = ProjPoint.from_row("p", [x * k for x in pt.row], d * k)
        same = [pt, ProjPoint("p", coords), ProjPoint("p", ints), parsed, scaled]
        assert all(q == pt and hash(q) == hash(pt) and q.coords == coords for q in same)
        assert len(set(same)) == 1
        assert ProjPoint("q", values) != pt
        assert ProjPoint("p", [2 * x for x in coords]) != pt

    def test_point_is_immutable(self):
        pt = ProjPoint("p", (1, F(1, 2)))
        for name in ("name", "coords", "row", "lead"):
            with pytest.raises(AttributeError):
                setattr(pt, name, None)
            with pytest.raises(AttributeError):
                delattr(pt, name)
        assert (pt.name, pt.coords, pt.row, pt.denominator, pt.lead) == ("p", (F(1), F(1, 2)), (2, 1), 2, 2)

    @pytest.mark.parametrize("build, message", [
        (lambda: ProjPoint("z", (0, F(0), 0)), "point 'z': zero vector is not a projective point"),
        (lambda: ProjPoint("z", ()), "point 'z': zero vector is not a projective point"),
        (lambda: ProjPoint.from_row("z", (0, 0), 5), "point 'z': zero vector is not a projective point"),
        (lambda: ProjPoint("", (1, 2)), "point name must be non-empty"),
        (lambda: build_configuration(Weight((1, 1)), 1, 1, [[("a",)], [("a",)]], {"a": (1, 2, 3)}),
         "point 'a': expected 2 coordinates, got 3"),
        (lambda: parse_configuration(one_point_document("a", ["0", "0/5"])),
         "<string>: point 'a': zero vector is not a projective point"),
        (lambda: parse_configuration(one_point_document("", ["1", "2"])), "<string>: point name must be non-empty"),
    ])
    def test_refusals_keep_their_messages(self, build, message):
        with pytest.raises(ConfigurationError) as caught:
            build()
        assert str(caught.value) == message


FULL_ARITY_FIXTURES = [
    "cross_ratio_quadruple.json", "area_ratio_five_points.json", "area_ratio_six_points.json",
    "octahedral_conic.json", "octahedral_generic_S.json", "octahedral_generic_T.json",
    "segment_pair_aligned.json", "segment_pair_opposed.json",
]


def full_arity_corpus(fixtures_dir):
    rng = random.Random(12)
    cfgs = [load_configuration(fixtures_dir / name) for name in FULL_ARITY_FIXTURES]
    return cfgs + [random_simplex_configuration(rng, dim=dim) for dim in (1, 2, 3) for _ in range(8)]


class TestFullArity:
    """At arity dim+1 every tuple spans the whole space and is bracketed by one determinant."""

    def test_no_elimination_and_minors_of_one_elimination(self, fixtures_dir, monkeypatch):
        for cfg in full_arity_corpus(fixtures_dir):
            assert cfg.arity == cfg.dim + 1
            eliminations = count_calls(monkeypatch, linalg, "integer_echelon_minor")
            built = build_configuration(cfg.weight, cfg.arity, cfg.dim, cfg.colors, cfg.points)
            assert eliminations == []
            assert {s.basis for s in built.spans.values()} == {linalg.identity(cfg.arity)}
            assert len(built.subspaces()) == 1
            for t, (minor, leads) in built.brackets.items():
                rows = [linalg.clear_denominators(built.points[name].coords)[0] for name in t]
                assert minor == linalg.integer_echelon_minor(rows)[2] != 0
                assert leads == math.prod(next(filter(None, row)) for row in rows)
            assert (built.counts, built.brackets) == (cfg.counts, cfg.brackets)

    def test_parse_and_morphism_eliminate_only_the_injectivity_check(self, fixtures_dir, monkeypatch):
        eliminations = count_calls(monkeypatch, linalg, "integer_echelon_minor")
        cfg = load_configuration(fixtures_dir / "octahedral_generic_S.json")
        assert eliminations == []
        m = ((F(1, 2), F(0), F(1)), (F(0), F(2, 3), F(0)), (F(1), F(1), F(5, 7)))
        apply_morphism(cfg, LinearMorphism(m))
        assert len(eliminations) == 1

    @pytest.mark.parametrize("at", [(0, 0), (1, 1)])
    @pytest.mark.parametrize("kind", ["repeated", "proportional"])
    def test_dependent_tuple_named_by_position(self, fixtures_dir, at, kind):
        for name in ("octahedral_generic_S.json", "cross_ratio_quadruple.json"):
            cfg = load_configuration(fixtures_dir / name)
            points = dict(cfg.points)
            colors = [list(color) for color in cfg.colors]
            c, k = at
            first, *rest = colors[c][k]
            if kind == "repeated":
                bad = (first, first, *rest[1:])
            else:
                points["twice"] = ProjPoint("twice", [-2 * x for x in cfg.points[first].coords])
                bad = (first, "twice", *rest[1:])
            colors[c][k] = bad
            message = f"colors[{c}][{k}]: dependent r-tuple {bad!r}"
            with pytest.raises(ConfigurationError) as caught:
                build_configuration(cfg.weight, cfg.arity, cfg.dim, colors, points)
            assert str(caught.value) == message

    @pytest.mark.parametrize(
        "parts, colors, message",
        [
            ((1, 1), [[], []], "colors[0]: empty color list (ell would be 0)"),
            ((2, 1), [[("a",)], [("a",)]], "colors[0]: list length 1 is not divisible by weight part 2"),
            ((1, 1), [[("a", "b")], [("a", "b")]], "colors[0][0]: tuple has 2 members, expected 3001"),
            ((1, 1), [[tuple(f"p{k}" for k in range(3001))], []], "colors[0][0]: unknown point name 'p0'"),
        ],
        ids=["empty", "indivisible", "short", "unknown"],
    )
    def test_whole_span_not_built_for_a_refused_input(self, monkeypatch, parts, colors, message):
        # a tiny file declaring a huge full arity is refused before any dim² work
        identities = count_calls(monkeypatch, linalg, "identity")
        with pytest.raises(ConfigurationError) as caught:
            build_configuration(Weight(parts), 3001, 3000, colors, {})
        assert str(caught.value) == message
        assert identities == []

    @pytest.mark.parametrize(
        "t, dim, shown",
        [(("a",) * 3001, 3000, "of 3001 members"), (("a", "b", "a"), 5, "('a', 'b', 'a')")],
        ids=["full-arity", "in-a-span"],
    )
    def test_repeated_member_refused_before_span_work(self, monkeypatch, t, dim, shown):
        # a tuple listing one point twice is dependent whatever the point is
        calls = [count_calls(monkeypatch, linalg, name) for name in ("identity", "integer_det", "integer_echelon_minor")]
        points = {name: [1, k] + [0] * (dim - 1) for k, name in enumerate("ab")}
        with pytest.raises(ConfigurationError) as caught:
            build_configuration(Weight((1, 1)), len(t), dim, [[t], [t]], points)
        assert str(caught.value) == f"colors[0][0]: dependent r-tuple {shown}"
        assert calls == [[], [], []]


class TestDegrees:
    def test_cross_ratio_degrees(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "cross_ratio_quadruple.json")
        report = validate_h(cfg)
        assert report.point_degrees["alpha"][0] == 1
        assert report.point_degrees["alpha"][1] == 1
        line = cfg.spans[cfg.colors[0][0]]
        assert report.subspace_degrees[line][0] == 2
        assert report.subspace_degrees[line][1] == 2

    def test_chain_fixture_e_degree(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "eleven_point_chain.json")
        report = validate_h(cfg)
        assert report.point_degrees["E"][0] == 2
        assert report.point_degrees["E"][1] == 2
        assert report.h_valid

    def test_six_points_whole_plane_degree(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "area_ratio_six_points.json")
        whole = Subspace(linalg.identity(3))
        degrees = validate_h(cfg).subspace_degrees
        assert degrees[whole][0] == 2
        assert degrees[whole][1] == 2

    def test_absent_point_and_subspace(self, fixtures_dir):
        pts = {**line_points(0, 1), "lonely": (F(1), F(9))}
        cfg = build_configuration(Weight((1, 1)), 2, 1, [[("t0", "t1")], [("t0", "t1")]], pts)
        assert validate_h(cfg).point_degrees["lonely"][0] == 0
        other = Subspace(((F(1), F(0), F(0)), (F(0), F(1), F(0))))
        six = load_configuration(fixtures_dir / "area_ratio_six_points.json")
        assert other not in validate_h(six).subspace_degrees

    def test_degrees_independent_of_input_order(self):
        pts = line_points(0, 1, 2, 3)
        lists = [[("t3", "t0"), ("t2", "t1")], [("t2", "t0"), ("t3", "t1")]]
        shuffled = [list(reversed(color)) for color in lists]
        c1 = build_configuration(Weight((1, 1)), 2, 1, lists, pts)
        c2 = build_configuration(Weight((1, 1)), 2, 1, shuffled, pts)
        assert c1 == c2
        d1, d2 = validate_h(c1).point_degrees, validate_h(c2).point_degrees
        for name in pts:
            for c in range(2):
                assert d1[name][c] == d2[name][c]


class TestValidateH:
    def test_midpoint_valid(self, fixtures_dir):
        report = validate_h(load_configuration(fixtures_dir / "midpoint_triangle_aligned.json"))
        assert report.h_valid
        assert set(report.point_quotients.values()) == {1}
        assert set(report.subspace_multiplicities.values()) == {1}

    def test_pair_02_invalid_as_unit_weight(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "midpoint_triangle_aligned.json")
        # colors 0 and 2 of weight (2,2,4) are admissible at weight (1,1) only once expanded
        expansion = unit_weight_expansion(cfg, 0, 2)
        assert validate_h(expansion).h_valid
        report = validate_h(replace(expansion, counts=(cfg.counts[0], cfg.counts[2])))
        assert not report.h_valid
        assert report.first_failure is not None

    def test_shared_segment_trivial_case(self):
        pts = line_points(0, 1)
        cfg = build_configuration(Weight((1, 1)), 2, 1, [[("t0", "t1")], [("t0", "t1")]], pts)
        assert validate_h(cfg).h_valid

    def test_unbalanced_degrees_reported_not_raised(self):
        pts = line_points(0, 1, 2)
        cfg = build_configuration(
            Weight((1, 1)), 2, 1,
            [[("t0", "t1")], [("t0", "t2")]], pts,
        )
        report = validate_h(cfg)
        assert not report.h_valid
        assert "not proportional" in report.first_failure

    def test_random_corpus_valid_by_construction(self):
        rng = random.Random(7)
        for _ in range(50):
            cfg = random_h_configuration(rng)
            assert validate_h(cfg).h_valid

    def test_morphism_closure_and_degree_sums(self):
        rng = random.Random(8)
        for _ in range(25):
            cfg = random_h_configuration(rng)
            m = LinearMorphism(random_invertible_matrix(rng, cfg.dim + 1))
            image = apply_morphism(cfg, m)
            image_report = validate_h(image)
            assert image_report.h_valid
            degrees, image_degrees = validate_h(cfg).point_degrees, image_report.point_degrees
            # degree sums over preimages, computed through the matrix directly
            image_of = {
                name: linalg.scale_first_nonzero(mat_vec(m.matrix, pt.coords))
                for name, pt in cfg.points.items()
            }
            for img_name, img_pt in image.points.items():
                key = linalg.scale_first_nonzero(img_pt.coords)
                preimages = [n for n, v in image_of.items() if v == key]
                assert preimages
                for c in range(len(cfg.colors)):
                    total = sum(degrees[n][c] for n in preimages)
                    assert image_degrees[img_name][c] == total

    def test_restriction_inherits_h(self):
        rng = random.Random(9)
        corpus = [family(rng) for family in (random_h_configuration, random_simplex_configuration) for _ in range(25)]
        for cfg in corpus:
            n = len(cfg.weight.parts)
            for i in range(n):
                for j in range(i + 1, n):
                    assert validate_h(unit_weight_expansion(cfg, i, j)).h_valid


class TestProvenSpans:
    """A tuple whose members an earlier elimination placed in one span is bracketed by a minor."""

    def test_fewer_eliminations_than_distinct_tuples(self, fixtures_dir, monkeypatch):
        lines = lines_configuration(random.Random(3), 6, 8)
        calls = count_calls(monkeypatch, linalg, "integer_echelon_minor")
        cfg = load_configuration(fixtures_dir / "eleven_point_chain.json")
        assert len(calls) < len(cfg.spans)
        calls.clear()
        build_configuration(lines.weight, lines.arity, lines.dim, lines.colors, lines.points)
        assert len(calls) < len(lines.spans)

    def test_spans_and_brackets_equal_one_elimination_per_tuple(self):
        rng = random.Random(4)
        families = [lines_configuration(rng, 5, 6) for _ in range(4)] + [random_h_configuration(rng) for _ in range(20)]
        # arity 3 and 4, one span: each recorded pivot row feeds many tuples'
        # determinants, so a row that one of them overwrote would show here
        families += [random_simplex_configuration(rng, dim=dim) for dim in (2, 3) for _ in range(10)]
        for cfg in families:
            spans, brackets = eliminated_one_by_one(cfg)
            assert {t: s.basis for t, s in cfg.spans.items()} == {t: s.basis for t, s in spans.items()}
            assert cfg.brackets == brackets

    def test_one_elimination_per_new_span(self, monkeypatch):
        # the Subspace that _span builds checks its basis with rref, which
        # recognises the reduced rows without eliminating them again
        lines = lines_configuration(random.Random(3), 6, 8)
        eliminations = count_calls(monkeypatch, linalg, "integer_echelon_minor")
        spans = count_calls(monkeypatch, configuration, "_span")
        build_configuration(lines.weight, lines.arity, lines.dim, lines.colors, lines.points)
        assert len(eliminations) == len(spans) >= len(lines.subspaces())

    @pytest.mark.parametrize("dependent", [("b", "b"), ("a", "a2"), ("a2", "a")])
    def test_dependent_tuple_in_recorded_span(self, dependent, monkeypatch):
        # a, a2 = 2a, b and c lie on one line; the first two tuples record all
        # four points in it, so the dependent third tuple is decided by its minor
        pts = {"a": (F(1), F(0), F(2), F(0)), "a2": (F(2), F(0), F(4), F(0)),
               "b": (F(0), F(1, 2), F(0), F(1)), "c": (F(1), F(1, 2), F(2), F(1))}
        colors = [[("a", "b"), ("a2", "c"), dependent], [("a", "b"), ("a2", "c"), ("b", "c")]]
        spans = count_calls(monkeypatch, configuration, "_span")
        message = f"colors[0][2]: dependent r-tuple {dependent!r}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            build_configuration(Weight((1, 1)), 2, 3, colors, pts)
        assert len(spans) == 2

    def test_tuples_sharing_no_span_are_each_eliminated(self, monkeypatch):
        rng = random.Random(6)
        for n_points in (5, 9):
            spans = count_calls(monkeypatch, configuration, "_span")
            cfg = general_position_configuration(rng, n_points)
            assert len(spans) == len(cfg.spans) == len(cfg.subspaces()) == n_points * (n_points - 1) // 2
            monkeypatch.undo()
            expected_spans, expected_brackets = eliminated_one_by_one(cfg)
            assert {t: s.basis for t, s in cfg.spans.items()} == {t: s.basis for t, s in expected_spans.items()}
            assert cfg.brackets == expected_brackets
            expected = replace(cfg, spans=expected_spans, brackets=expected_brackets)
            assert eves_invariant(cfg).point == eves_invariant(expected).point


class TestCoordinateTexts:
    """Each distinct coordinate text is read once per file; every entry keeps its checks and its message."""

    @staticmethod
    def parse(points):
        pair = list(points)[:2]
        doc = {"field": "rational", "weight": [1, 1], "arity": 2, "dim": 2, "points": points, "colors": [[pair], [pair]]}
        return parse_configuration(json.dumps(doc))

    def test_equal_texts_give_equal_coordinates(self):
        cfg = self.parse({"a": ["1/3", "-2", "0"], "b": ["-2", "1/3", "2/6"], "c": ["0", "0", "1/3"]})
        assert cfg.points["a"].coords == (F(1, 3), F(-2), F(0))
        assert cfg.points["b"].coords == (F(-2), F(1, 3), F(1, 3))
        assert cfg.points["c"].coords == (F(0), F(0), F(1, 3))

    @pytest.mark.parametrize("points", [
        {"A": ["1", "1/0", "2"]},  # the first text read
        {"B": ["1", "2", "3"], "A": ["2", "1/0", "1"]},  # after texts read before
        {"B": ["1", "2", "3"], "A": ["2", "1/0", "1/0"], "C": ["1/0", "1", "1"]},  # repeated after it
    ])
    def test_bad_text_keeps_its_position(self, points):
        message = "<string>: points['A'][1]: invalid rational '1/0': zero denominator"
        for _ in range(2):  # a second read of the same file says the same
            with pytest.raises(ConfigurationError) as caught:
                self.parse(points)
            assert str(caught.value) == message

    @pytest.mark.parametrize("entry, problem", [
        (True, "entries must be exact rationals, got True"),
        (1.0, "entries must be exact rationals, got 1.0"),
        (None, "entries must be rational strings or integers"),
    ])
    def test_non_text_entries_are_each_checked(self, entry, problem):
        # the text "1" and the integer 1 are read before an entry equal to them as a key
        with pytest.raises(ConfigurationError) as caught:
            self.parse({"a": ["1", 1, "2"], "b": ["2", entry, "1"]})
        assert str(caught.value) == f"<string>: points['b'][1]: {problem}"

    @pytest.mark.parametrize("text", [
        "0", "-0", "007", "-007", " 5 ", "+5", "1_000", "\u0663", "3/4", "5/-7", "9" * 4096,
        "-" + "9" * 4095, "-" + "9" * 4096, "9" * 4097, "1/0",
    ], ids=range(15))
    def test_texts_read_as_parse_rational_reads_them(self, text):
        # a plain ASCII integer is read to an int, every other text by parse_rational
        try:
            expected = parse_rational(text)
        except ValueError as exc:
            with pytest.raises(ConfigurationError) as caught:
                self.parse({"B": ["2", "1", "1"], "A": ["1", text, "0"]})
            assert str(caught.value) == f"<string>: points['A'][1]: {exc}"
            return
        cfg = self.parse({"B": ["0", "1", "1"], "A": ["1", text, "0"], "C": [text, text, "1"]})
        assert cfg.points["A"].coords == (F(1), expected, F(0))
        assert cfg.points["A"] == ProjPoint("A", (F(1), expected, F(0)))
        assert cfg.points["C"].coords[:2] == (expected, expected)

    def test_integer_entries_are_read(self):
        cfg = self.parse({"a": ["1", 1, 2], "b": [2, "1", "2/3"]})
        assert cfg.points["a"].coords == (F(1), F(1), F(2))
        assert cfg.points["b"].coords == (F(2), F(1), F(2, 3))


# names with JSON escapes, control and non-ASCII characters
point_names = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\n\té€\U0001f600'), st.characters()), min_size=1, max_size=5)
# coordinates: negative, with denominators, and with more digits than ``str`` of an int prints (4300)
printed_entries = st.one_of(
    st.integers(-9, 9),
    st.integers(-BIG, BIG),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.integers(10**4300, 10**4310).map(lambda n: -n),
    st.builds(F, st.integers(10**4300, 10**4310), st.integers(2, BIG)),
)


@st.composite
def printed_configurations(draw):
    """Configurations of 1 to 4 points in P^0 to P^2, with tuples of one point or,
    in P^1 and up, of two independent points."""
    dim = draw(st.integers(0, 2))
    names = draw(st.lists(point_names, min_size=1, max_size=4, unique=True))
    points = {name: draw(st.lists(printed_entries, min_size=dim + 1, max_size=dim + 1).filter(any)) for name in names}
    arity = draw(st.integers(1, min(2, dim + 1, len(names))))
    parts = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    ell = draw(st.integers(1, 2))
    colors = [[tuple(draw(st.permutations(names))[:arity]) for _ in range(ell * p)] for p in parts]
    try:
        return build_configuration(Weight(tuple(parts)), arity, dim, colors, points)
    except ConfigurationError:  # a dependent pair
        assume(False)


class TestFileFormat:
    @given(printed_configurations())
    def test_text_is_json_dumps_with_indent_two(self, cfg):
        out = configuration_to_json(cfg)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        doc = {
            "field": "rational",
            "weight": list(cfg.weight.parts),
            "arity": cfg.arity,
            "dim": cfg.dim,
            "points": {name: [format_rational(x) for x in cfg.points[name].coords] for name in sorted(cfg.points)},
            "colors": [[list(t) for t in color] for color in cfg.colors],
        }
        assert out == json.dumps(doc, indent=2) + "\n"
        texts = [x for coords in doc["points"].values() for x in coords]
        if max(map(len, texts)) <= MAX_RATIONAL_CHARS:
            assert parse_configuration(out) == cfg

    def test_round_trip_all_fixtures(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.json")):
            if path.name == "projection_matrix.json":
                continue
            cfg = load_configuration(path)
            assert parse_configuration(configuration_to_json(cfg)) == cfg

    def test_rational_forms_accepted(self):
        text = """
        {"field": "rational", "weight": [1, 1], "arity": 2, "dim": 1,
         "points": {"a": ["3", "-3/4"], "b": [1, "2"]},
         "colors": [[["a", "b"]], [["a", "b"]]]}
        """
        cfg = parse_configuration(text)
        assert cfg.points["a"].coords == (F(3), F(-3, 4))

    def test_duplicate_point_name_diagnosed(self):
        text = '{"field": "rational", "weight": [1,1], "arity": 2, "dim": 1, "points": {"a": ["1","0"], "a": ["1","1"]}, "colors": [[],[]]}'
        with pytest.raises(ConfigurationError, match="duplicate point name 'a'"):
            parse_configuration(text, source="dup.json")

    def test_duplicate_key_outside_points_diagnosed(self):
        text = '{"field": "rational", "weight": [1,1], "weight": [1,1], "arity": 2, "dim": 1, "points": {}, "colors": [[],[]]}'
        with pytest.raises(ConfigurationError, match="^dup.json: duplicate key 'weight'$"):
            parse_configuration(text, source="dup.json")

    def test_positional_diagnostics(self):
        text = '{"field": "rational", "weight": [1,1], "arity": 2, "dim": 1, "points": {"a": ["1","x"]}, "colors": [[],[]]}'
        with pytest.raises(ConfigurationError, match=r"bad.json: points\['a'\]\[1\]"):
            parse_configuration(text, source="bad.json")

    def test_float_coordinates_rejected(self):
        text = '{"field": "rational", "weight": [1,1], "arity": 2, "dim": 1, "points": {"a": [1.5, "1"]}, "colors": [[],[]]}'
        with pytest.raises(ConfigurationError, match="exact rationals"):
            parse_configuration(text)

    def test_missing_field_diagnosed(self):
        with pytest.raises(ConfigurationError, match="missing field 'weight'"):
            parse_configuration('{"field": "rational"}', source="f.json")

    @pytest.mark.parametrize("key", ["arity", "dim"])
    def test_boolean_arity_and_dim_rejected(self, key, fixtures_dir):
        doc = json.loads((fixtures_dir / "cross_ratio_quadruple.json").read_text())
        doc[key] = True
        with pytest.raises(ConfigurationError, match="arity/dim: must be integers"):
            parse_configuration(json.dumps(doc))

    def test_wrong_field_value(self):
        text = '{"field": "float", "weight": [1,1], "arity": 2, "dim": 1, "points": {}, "colors": [[],[]]}'
        with pytest.raises(ConfigurationError, match="expected 'rational'"):
            parse_configuration(text)
