import json
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from eves import (
    CompareReport,
    LinearMorphism,
    NotHConfigurationError,
    Weight,
    WeightedPoint,
    apply_morphism,
    build_configuration,
    check_reconstruction_identity,
    compare,
    configuration_to_json,
    eves_invariant,
    load_configuration,
    parse_configuration,
    unit_weight_expansion,
    validate_h,
    wps_equivalent,
)
from eves import cli, reconstruct
from eves.configuration import RTuple
from eves.invariant import bracket
from eves.oracle import brute_invariant
from eves.reconstruct import render_compare, render_reconstruction
from eves.wps import FieldKind, index_pairs, product_map
import conftest
from conftest import (
    CONFIG_FIXTURES,
    FIXTURES,
    canonical_point_reps,
    mat_vec,
    projections_agree_by_equivalence,
    random_h_configuration,
    random_invertible_matrix,
    random_simplex_configuration,
)
from test_golden_cli import lines_document

ONE_ONE = WeightedPoint((F(1), F(1)), Weight((1, 1)))


class TestRestrictPair:
    """Color pairs taken from a configuration by ``unit_weight_expansion(cfg, i, j)``."""

    def test_black_red_pair_of_midpoint_triangle(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "midpoint_triangle_aligned.json")
        expanded = unit_weight_expansion(cfg, 0, 1)
        assert expanded.weight.parts == (1, 1)
        assert expanded.ell == cfg.ell * 2
        assert validate_h(expanded).h_valid
        assert wps_equivalent(eves_invariant(expanded).point, ONE_ONE)

    def test_index_range(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "segment_pair_aligned.json")
        for i, j in ((0, 2), (1, 0), (0, 0), (-1, 1)):
            with pytest.raises(ValueError, match=rf"^color pair \({i},{j}\) out of range for 2 colors$"):
                unit_weight_expansion(cfg, i, j)


class TestUnitWeightExpansion:
    def test_equal_parts_unchanged(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "segment_pair_opposed.json")
        expanded = unit_weight_expansion(cfg, 0, 1)
        assert expanded.weight.parts == (1, 1)
        assert expanded.colors == cfg.colors
        assert expanded.ell == cfg.ell * 2

    def test_mixed_weights_duplicate_shorter_list(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "midpoint_triangle_aligned.json")
        assert cfg.weight.parts == (2, 2, 4)
        expanded = unit_weight_expansion(cfg, 0, 2)
        assert expanded.weight.parts == (1, 1)
        assert len(expanded.colors[0]) == 2 * len(cfg.colors[0])
        assert len(expanded.colors[1]) == len(cfg.colors[2])
        assert expanded.ell == cfg.ell * 4
        assert validate_h(expanded).h_valid

    def test_trivial_weight_identity(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "cross_ratio_quadruple.json")
        expanded = unit_weight_expansion(cfg, 0, 1)
        assert expanded.colors == cfg.colors and expanded.ell == cfg.ell


def derived_corpus():
    """The fixture configurations and 40 random ones with 3 or 4 colors."""
    corpus = [load_configuration(FIXTURES / name) for name in CONFIG_FIXTURES]
    rng = random.Random(47)
    for _ in range(40):
        parts = tuple(rng.randint(1, 4) for _ in range(rng.randint(3, 4)))
        corpus.append(random_h_configuration(rng, parts=parts))
    return corpus


def assert_same_configuration(derived, built, parent):
    assert derived == built  # weight, arity, dim, ell, colors and points
    assert list(derived.points) == list(built.points)
    assert derived.spans == built.spans
    assert set(derived.spans) == set().union(*derived.counts)
    # the parent's own objects, not copies
    assert all(derived.points[name] is parent.points[name] for name in derived.points)
    assert all(derived.spans[t] is parent.spans[t] for t in derived.spans)


class TestDerivedConfigurations:
    """Pair expansions equal what build_configuration makes of the same lists."""

    def test_unit_weight_expansion_matches_build(self):
        for cfg in derived_corpus():
            for i, j in index_pairs(cfg.weight):
                p_i, p_j = cfg.weight.parts[i], cfg.weight.parts[j]
                lcm = math.lcm(p_i, p_j)
                colors = [list(cfg.colors[i]) * (lcm // p_i), list(cfg.colors[j]) * (lcm // p_j)]
                used = sorted({name for color in colors for t in color for name in t})
                built = build_configuration(
                    Weight((1, 1), cfg.weight.field), cfg.arity, cfg.dim,
                    colors, {name: cfg.points[name] for name in used},
                )
                expansion = unit_weight_expansion(cfg, i, j)
                assert_same_configuration(expansion, built, cfg)
                assert expansion.brackets is cfg.brackets
                assert expansion.ell == cfg.ell * lcm
                assert expansion.colors == tuple(tuple(sorted(c)) for c in colors)


COUNT_WEIGHTS = ((2, 3, 5), (1, 2, 3, 4), (31, 29))


def corpus_with_inputs(monkeypatch):
    """Random admissible configurations of both conftest families at COUNT_WEIGHTS,
    each with the color lists it was built from, plus one non-admissible one."""
    inputs = []

    def recording(weight, arity, dim, colors, points):
        inputs.append(colors)
        return build_configuration(weight, arity, dim, colors, points)

    monkeypatch.setattr(conftest, "build_configuration", recording)
    rng = random.Random(59)
    corpus = []
    for parts in COUNT_WEIGHTS:
        for make in (conftest.random_h_configuration, conftest.random_simplex_configuration):
            for _ in range(3):
                corpus.append((make(rng, parts=parts), inputs[-1]))
    colors = [[("a", "b"), ("c", "d")], [("a", "c"), ("b", "d")]]
    points = {name: (F(1), F(t)) for t, name in enumerate("abcd")}
    corpus.append((build_configuration(Weight((2, 2)), 2, 1, colors, points), colors))
    return corpus


def derived_with_lists(cfg, lists):
    """cfg and the unit-weight expansion of every color pair of it, each with
    the input lists it stands for, as made from cfg's input lists."""
    yield cfg, lists
    for i, j in index_pairs(cfg.weight):
        lcm = math.lcm(cfg.weight.parts[i], cfg.weight.parts[j])
        yield unit_weight_expansion(cfg, i, j), [list(lists[c]) * (lcm // cfg.weight.parts[c]) for c in (i, j)]


def naive_degrees(cfg):
    """Point degrees, span degrees, ell and verdict counted one occurrence at a
    time over the list view ``cfg.colors``."""
    n, parts = len(cfg.colors), cfg.weight.parts
    points = {name: [0] * n for name in cfg.points}
    spans = {}
    for c, color in enumerate(cfg.colors):
        for t in color:
            for name in t:
                points[name][c] += 1
            spans.setdefault(cfg.spans[t], [0] * n)[c] += 1
    ell = len(cfg.colors[0]) // parts[0]
    degrees = [*points.values(), *spans.values()]
    valid = all(len(color) == ell * p for color, p in zip(cfg.colors, parts)) and all(
        all(d == (degs[0] // parts[0]) * p for d, p in zip(degs, parts)) for degs in degrees
    )
    return {k: tuple(v) for k, v in points.items()}, {k: tuple(v) for k, v in spans.items()}, ell, valid


class TestCounts:
    """Colors are stored as counts; every reader agrees with the lists they stand for."""

    def test_validate_h_matches_naive_recount(self, monkeypatch):
        for cfg, lists in corpus_with_inputs(monkeypatch):
            for derived, derived_lists in derived_with_lists(cfg, lists):
                report = validate_h(derived)
                point_degrees, span_degrees, ell, valid = naive_degrees(derived)
                assert report.point_degrees == point_degrees
                assert report.subspace_degrees == span_degrees
                assert (report.ell, report.h_valid) == (ell, valid)
                assert derived.ell == ell

    def test_colors_are_the_sorted_input_lists(self, monkeypatch):
        for cfg, lists in corpus_with_inputs(monkeypatch):
            for derived, derived_lists in derived_with_lists(cfg, lists):
                expected = tuple(tuple(sorted(RTuple(tuple(t)) for t in color)) for color in derived_lists)
                assert derived.colors == expected
                assert [list(color) for color in derived.counts] == [
                    list(dict.fromkeys(color)) for color in expected
                ]

    def test_identity_check_expands_counts(self, monkeypatch):
        expansions = []

        def capture(parent, i, j):
            expansions.append((parent, (i, j), unit_weight_expansion(parent, i, j)))
            return expansions[-1][2]

        corpus = [cfg for cfg, _ in corpus_with_inputs(monkeypatch) if validate_h(cfg).h_valid]
        monkeypatch.setattr(reconstruct, "unit_weight_expansion", capture)
        for cfg in corpus:
            expansions.clear()
            assert check_reconstruction_identity(cfg, eves_invariant(cfg).point)
            assert [pair for _, pair, _ in expansions] == list(index_pairs(cfg.weight))
            for parent, pair, expansion in expansions:
                assert parent is cfg
                parts = [cfg.weight.parts[c] for c in pair]
                lcm = math.lcm(*parts)
                assert expansion.weight == Weight((1, 1), cfg.weight.field)
                assert expansion.counts == tuple(
                    {t: k * (lcm // p) for t, k in cfg.counts[c].items()} for c, p in zip(pair, parts)
                )
                assert [list(c) for c in expansion.counts] == [list(cfg.counts[c]) for c in pair]
                assert "colors" not in vars(expansion)


class TestReconstructionVector:
    def test_midpoint_triangle_values(self, fixtures_dir):
        for name in ("midpoint_triangle_aligned.json", "midpoint_triangle_reversed.json"):
            cfg = load_configuration(fixtures_dir / name)
            assert index_pairs(cfg.weight) == ((0, 1), (0, 2), (1, 2))
            for entry in product_map(eves_invariant(cfg).point):
                assert wps_equivalent(entry, ONE_ONE)

    def test_opposed_segments_entry(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "segment_pair_opposed.json")
        entry = product_map(eves_invariant(cfg).point)[0]
        assert entry.coords == (F(-1), F(-1))
        assert wps_equivalent(entry, ONE_ONE)


def expansion_coords(cfg):
    """Coordinates of each pair expansion's classical invariant, lexicographic pair order."""
    return [
        eves_invariant(unit_weight_expansion(cfg, i, j)).point.coords
        for i, j in index_pairs(cfg.weight)
    ]


class TestEntriesFromInvariant:
    """The entries read off E_p are the expansions' invariants, coordinate for coordinate."""

    def test_fixture_corpus(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.json")):
            if path.name == "projection_matrix.json":
                continue
            cfg = load_configuration(path)
            entries = [e.coords for e in product_map(eves_invariant(cfg).point)]
            assert entries == expansion_coords(cfg), path.name

    def test_random_corpus(self):
        # each pair's expansion is admissible with ell times lcm(p_i, p_j), and its
        # invariant is the product_map entry, coordinate for coordinate
        rng = random.Random(31)
        for n_colors in (3, 4):
            for make in (random_h_configuration, random_simplex_configuration):
                for _ in range(8):
                    cfg = make(rng, parts=tuple(rng.randint(1, 3) for _ in range(n_colors)))
                    entries = product_map(eves_invariant(cfg).point)
                    for (i, j), entry in zip(index_pairs(cfg.weight), entries, strict=True):
                        expansion = unit_weight_expansion(cfg, i, j)
                        report = validate_h(expansion)
                        assert report.h_valid
                        assert report.ell == cfg.ell * math.lcm(cfg.weight.parts[i], cfg.weight.parts[j])
                        assert eves_invariant(expansion).point.coords == entry.coords

    def test_admissible_expansion_of_non_admissible_input(self):
        # weight (2,2) with every point of degrees (1,1): the quotient 1/2 is not
        # an integer, yet the pair's weight (1,1) expansion is admissible
        points = {name: (F(1), F(t)) for t, name in enumerate("abcd")}
        colors = [[("a", "b"), ("c", "d")], [("a", "c"), ("b", "d")]]
        cfg = build_configuration(Weight((2, 2)), 2, 1, colors, points)
        assert not validate_h(cfg).h_valid
        assert validate_h(unit_weight_expansion(cfg, 0, 1)).h_valid
        with pytest.raises(NotHConfigurationError, match="point 'a'"):
            eves_invariant(cfg)


class TestReconstructionIdentity:
    def test_fixture_corpus(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.json")):
            if path.name == "projection_matrix.json":
                continue
            cfg = load_configuration(path)
            assert check_reconstruction_identity(cfg, eves_invariant(cfg).point), path.name

    def test_random_corpus(self):
        rng = random.Random(23)
        for _ in range(40):
            cfg = random_h_configuration(rng)
            assert check_reconstruction_identity(cfg, eves_invariant(cfg).point)

    def test_wrong_invariant_fails(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "segment_pair_aligned.json")
        assert not check_reconstruction_identity(cfg, WeightedPoint((F(1), F(2)), cfg.weight))

    @pytest.mark.parametrize("parts", [(2, 2), (1, 1)])
    def test_invariant_of_another_weight_refused(self, fixtures_dir, parts):
        # a two-coordinate point against the three colors of weight (2,2,4): no pair is dropped
        cfg = load_configuration(fixtures_dir / "midpoint_triangle_aligned.json")
        full = WeightedPoint((F(1, 64), F(1, 64)), Weight(parts))
        with pytest.raises(ValueError, match="different weighted projective spaces"):
            check_reconstruction_identity(cfg, full)

    def test_complex_like_weight(self):
        # in P(1,1) both fields ask for proportional coordinates, so the check answers for either
        points = {name: (F(1), F(t)) for t, name in enumerate("abcd")}
        colors = [[("a", "b"), ("c", "d")], [("a", "c"), ("b", "d")]]
        cfg = build_configuration(Weight((1, 1), FieldKind.COMPLEX_LIKE), 2, 1, colors, points)
        ep = eves_invariant(cfg).point
        assert check_reconstruction_identity(cfg, ep)
        assert not check_reconstruction_identity(cfg, WeightedPoint((2 * ep.coords[0], ep.coords[1]), cfg.weight))


def per_pair_identity(cfg, full):
    """The projection identity checked pair by pair, as the library first did:
    every distinct tuple bracketed again through ``bracket``, then each pair
    restricted, expanded to weight (1,1) and evaluated by ``eves_invariant``,
    and the value compared by ``wps_equivalent`` with the projection of ``full``."""
    reps = canonical_point_reps(cfg)
    checked = replace(cfg, brackets={t: bracket(t, span, reps).as_integer_ratio() for t, span in cfg.spans.items()})
    return all(
        wps_equivalent(eves_invariant(unit_weight_expansion(checked, i, j)).point, entry)
        for (i, j), entry in zip(index_pairs(full.weight), product_map(full))
    )


def identity_corpus():
    """The fixtures, 20 random configurations of each conftest family and a
    (31,29) family of 3 lines with 8 points each."""
    corpus = [load_configuration(FIXTURES / name) for name in CONFIG_FIXTURES]
    rng = random.Random(61)
    corpus += [random_h_configuration(rng) for _ in range(20)]
    corpus += [random_simplex_configuration(rng) for _ in range(20)]
    corpus.append(parse_configuration(json.dumps(lines_document(random.Random(7), 3, 8, (31, 29)))))
    return corpus


def identity_inputs(cfg):
    """(full, verdict) pairs: E_p, E_p rescaled by lambda^{p_c}, and E_p with one
    coordinate doubled or set to zero, for each coordinate."""
    ep = eves_invariant(cfg).point
    lam = F(-3, 2)
    yield ep, True
    yield WeightedPoint(tuple(lam**p * z for p, z in zip(ep.weight.parts, ep.coords)), ep.weight), True
    for c in range(len(ep.coords)):
        for factor in (2, 0):
            coords = list(ep.coords)
            coords[c] *= factor
            yield WeightedPoint(tuple(coords), ep.weight), False


class TestIdentityAgainstPerPairReference:
    """The check from one product per color agrees with the per-pair evaluation."""

    def test_corpus(self):
        for cfg in identity_corpus():
            for full, verdict in identity_inputs(cfg):
                assert check_reconstruction_identity(cfg, full) is verdict
                assert per_pair_identity(cfg, full) is verdict

    def test_inadmissible_expansion_refused_by_both(self):
        # every point has degrees (1,0) or (0,1): the pair's expansion fails the check
        points = {name: (F(1), F(t)) for t, name in enumerate("abc")}
        cfg = build_configuration(Weight((1, 1)), 2, 1, [[("a", "b")], [("a", "c")]], points)
        full = WeightedPoint((F(1), F(1)), cfg.weight)
        for check in (check_reconstruction_identity, per_pair_identity):
            with pytest.raises(NotHConfigurationError, match="point 'b'"):
                check(cfg, full)

    def test_check_brackets_afresh(self, fixtures_dir):
        # a stored bracket doubled: E_p evaluated from the stored table disagrees
        # with the brackets the check computes itself
        cfg = load_configuration(fixtures_dir / "midpoint_triangle_aligned.json")
        t = next(iter(cfg.counts[0]))
        num, den = cfg.brackets[t]
        corrupt = replace(cfg, brackets={**cfg.brackets, t: (2 * num, den)})
        full = eves_invariant(corrupt).point
        assert not check_reconstruction_identity(corrupt, full)
        assert not per_pair_identity(corrupt, full)

    def test_pair_with_two_zero_ratios_fails_first(self):
        # pair (0,1) is admissible and both its coordinates of full are zero;
        # pair (0,2) fails admissibility, and is never reached
        points = {name: (F(1), F(t)) for t, name in enumerate("abc")}
        colors = [[("a", "b")], [("a", "b")], [("a", "c")]]
        cfg = build_configuration(Weight((1, 1, 1)), 2, 1, colors, points)
        assert not check_reconstruction_identity(cfg, WeightedPoint((F(0), F(0), F(1)), cfg.weight))
        with pytest.raises(NotHConfigurationError):
            check_reconstruction_identity(cfg, WeightedPoint((F(1), F(1), F(1)), cfg.weight))

    def test_both_coordinates_of_a_pair_zero(self, fixtures_dir):
        # the projection of such a point is no point; the check answers false
        cfg = load_configuration(fixtures_dir / "midpoint_triangle_aligned.json")
        full = WeightedPoint((F(0), F(0), F(1)), cfg.weight)
        assert not check_reconstruction_identity(cfg, full)
        with pytest.raises(ValueError, match="must not all be zero"):
            per_pair_identity(cfg, full)


class TestCompare:
    def test_segment_pair(self, fixtures_dir):
        a = load_configuration(fixtures_dir / "segment_pair_aligned.json")
        b = load_configuration(fixtures_dir / "segment_pair_opposed.json")
        report = compare(a, b)
        assert not report.ep_equivalent
        assert report.reconstruction_equal
        assert report.invariant_a.coords == (F(1), F(1))
        assert report.invariant_b.coords == (F(-1), F(-1))

    def test_midpoint_pair(self, fixtures_dir):
        a = load_configuration(fixtures_dir / "midpoint_triangle_aligned.json")
        b = load_configuration(fixtures_dir / "midpoint_triangle_reversed.json")
        report = compare(a, b)
        assert not report.ep_equivalent
        assert report.reconstruction_equal
        assert report.pair_equal == (True, True, True)

    def test_self_compare(self, fixtures_dir):
        a = load_configuration(fixtures_dir / "midpoint_triangle_aligned.json")
        report = compare(a, a)
        assert report.ep_equivalent and report.reconstruction_equal

    def test_shape_mismatch(self, fixtures_dir):
        a = load_configuration(fixtures_dir / "segment_pair_aligned.json")
        b = load_configuration(fixtures_dir / "cross_ratio_quadruple.json")
        with pytest.raises(ValueError, match="different weights"):
            compare(a, b)

    def test_equivalence_implies_equal_reconstruction(self):
        rng = random.Random(29)
        for _ in range(20):
            cfg = random_h_configuration(rng)
            m = LinearMorphism(random_invertible_matrix(rng, cfg.dim + 1))
            report = compare(cfg, apply_morphism(cfg, m))
            assert report.ep_equivalent
            assert report.reconstruction_equal

    def test_pair_verdicts_match_pairwise_equivalence_on_fixture_pairs(self, monkeypatch):
        calls = []

        def counting(z, w):
            calls.append((z, w))
            return wps_equivalent(z, w)

        monkeypatch.setattr(reconstruct, "wps_equivalent", counting)
        configs = [load_configuration(FIXTURES / name) for name in CONFIG_FIXTURES]
        pairs = [(a, b) for a in configs for b in configs if (a.weight, a.arity) == (b.weight, b.arity)]
        assert len(pairs) > len(configs)
        for a, b in pairs:
            calls.clear()
            report = compare(a, b)
            inv_a, inv_b = report.invariant_a, report.invariant_b
            assert report.pair_equal == projections_agree_by_equivalence(inv_a, inv_b)
            assert report.ep_equivalent == wps_equivalent(inv_a, inv_b)
            assert report.reconstruction_equal == all(report.pair_equal)
            # one equivalence test at most, and none once a pair differs
            assert len(calls) == (1 if report.reconstruction_equal else 0)

    def test_complex_like_pairs_that_differ(self):
        # the pair's ratios already differ, so wps_equivalent is not reached
        points = {name: (F(1), F(t)) for t, name in enumerate("abcd")}
        weight = Weight((1, 1), FieldKind.COMPLEX_LIKE)
        a = build_configuration(weight, 2, 1, [[("a", "b"), ("c", "d")], [("a", "c"), ("b", "d")]], points)
        b = build_configuration(weight, 2, 1, [[("a", "b"), ("c", "d")], [("a", "d"), ("b", "c")]], points)
        report = compare(a, b)
        assert (report.invariant_a.coords, report.invariant_b.coords) == ((1, 4), (1, 3))
        assert report.pair_equal == (False,)
        assert not report.ep_equivalent and not report.reconstruction_equal

    def test_report_invariant_enforced(self):
        w = Weight((1, 1))
        pt = WeightedPoint((F(1), F(1)), w)
        other = WeightedPoint((F(2), F(1)), w)
        with pytest.raises(ValueError):
            CompareReport(
                ep_equivalent=True,
                pair_equal=(False,),
                invariant_a=pt,
                invariant_b=other,
            )


MEMBER_ORDER_WEIGHTS = ((1, 1), (1, 2), (2, 4), (3, 6), (2, 2, 4), (2, 3, 5))


class TestMemberOrder:
    """Swapping the two members of one tuple occurrence in color c negates
    E_p's coordinate c and leaves the others unchanged."""

    @pytest.mark.parametrize("parts", MEMBER_ORDER_WEIGHTS, ids=str)
    def test_swap_negates_one_coordinate(self, parts):
        rng = random.Random(str(parts))
        for _ in range(12):
            cfg = random_h_configuration(rng, parts=parts)
            c = rng.randrange(len(parts))
            colors = [list(color) for color in cfg.colors]
            k = rng.randrange(len(colors[c]))
            colors[c][k] = colors[c][k][::-1]
            swapped = build_configuration(cfg.weight, cfg.arity, cfg.dim, colors, cfg.points)

            before, after = eves_invariant(cfg).point.coords, eves_invariant(swapped).point.coords
            assert after == tuple(-z if k == c else z for k, z in enumerate(before))

            report = compare(cfg, swapped)
            others_even = all(p % 2 == 0 for k, p in enumerate(parts) if k != c)
            assert report.ep_equivalent is (parts[c] % 2 == 1 and others_even)
            for (i, j), equal in zip(index_pairs(cfg.weight), report.pair_equal):
                if c in (i, j):
                    assert equal is (math.lcm(parts[i], parts[j]) // parts[c] % 2 == 0)
                else:
                    assert equal


class TestTransformRoundTrip:
    """An invertible map keeps the invariant's class: the image compares equivalent to its source."""

    @given(st.integers(0, 2**32), st.booleans())
    def test_image_compares_equivalent(self, seed, simplex):
        rng = random.Random(seed)
        cfg = random_simplex_configuration(rng) if simplex else random_h_configuration(rng)
        n = cfg.dim + 1
        dens = rng.sample(range(1, 13), n)  # each row over its own denominator
        m = tuple(tuple(x / d for x in row) for row, d in zip(random_invertible_matrix(rng, n), dens))
        image = apply_morphism(cfg, LinearMorphism(m))
        # each image point is the exact image of a source point (points with one image merge)
        assert {pt.coords for pt in image.points.values()} <= {mat_vec(m, pt.coords) for pt in cfg.points.values()}
        report = compare(cfg, image)
        assert report.ep_equivalent and report.reconstruction_equal


def oracle_corpus():
    """Three configurations of each random family at 3 and at 4 colours."""
    rng = random.Random(83)
    return [
        make(rng, parts=tuple(rng.randint(1, 3) for _ in range(n_colors)))
        for n_colors in (3, 4)
        for make in (random_h_configuration, random_simplex_configuration)
        for _ in range(3)
    ]


class TestOracleConsistency:
    """What ``reconstruct --oracle`` checks holds on the random families."""

    def test_entries_and_invariant_match_brute_force(self):
        for cfg in oracle_corpus():
            full = eves_invariant(cfg).point
            for (i, j), entry in zip(index_pairs(full.weight), product_map(full)):
                expansion = unit_weight_expansion(cfg, i, j)
                assert wps_equivalent(entry, brute_invariant(expansion).point)
            assert wps_equivalent(full, brute_invariant(cfg).point)

    def test_cli_exits_zero(self, tmp_path, capsys):
        for k, cfg in enumerate(oracle_corpus()[::3]):
            path = tmp_path / f"random{k}.json"
            path.write_text(configuration_to_json(cfg), encoding="utf-8")
            assert cli.main(["reconstruct", str(path), "--oracle"]) == 0
            assert capsys.readouterr().out.endswith("projection_identity: true\n")


class TestRendering:
    def test_compare_rendering(self, fixtures_dir):
        a = load_configuration(fixtures_dir / "segment_pair_aligned.json")
        b = load_configuration(fixtures_dir / "segment_pair_opposed.json")
        text = render_compare(compare(a, b))
        assert text == (
            "h_01: [1 : 1] / [-1 : -1]\n"
            "E_p: [1 : 1]_(2,2) / [-1 : -1]_(2,2)\n"
            "ep_equivalent: false\n"
            "reconstruction_equal: true\n"
        )

    def test_reconstruction_rendering(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "segment_pair_opposed.json")
        full = eves_invariant(cfg).point
        text = render_reconstruction(product_map(full), full, True)
        assert text == (
            "h_01: [-1 : -1]\n"
            "E_p: [-1 : -1]_(2,2)\n"
            "projection_identity: true\n"
        )
