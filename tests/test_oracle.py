import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from eves import (
    NotHConfigurationError,
    Weight,
    WeightedPoint,
    build_configuration,
    eves_invariant,
    load_configuration,
    validate_h,
    wps_equivalent,
)
from eves import oracle
from eves.oracle import (
    bounded_lambda_search,
    brute_degrees,
    brute_invariant,
    ff_enumerate_classes,
    report_matches_recount,
)
from eves.reconstruct import restrict_pair, unit_weight_expansion
from conftest import random_h_configuration, random_simplex_configuration


def wpt(coords, parts):
    return WeightedPoint(tuple(F(c) for c in coords), Weight(tuple(parts)))


class TestSearchBound:
    """The height bound of ``bounded_lambda_search``."""

    def test_validation(self):
        z = wpt([1, 1], [1, 1])
        with pytest.raises(ValueError):
            bounded_lambda_search(z, z, 0)
        # the default height is 64: the scalar 64 is found, 65 is not
        assert bounded_lambda_search(z, wpt([64, 64], [1, 1]))
        assert not bounded_lambda_search(z, wpt([65, 65], [1, 1]))

    @pytest.mark.parametrize("height", [0, -5, True, False, 2.7, 3.0, "8", None])
    def test_refuses_non_positive_and_non_integer_heights(self, height):
        z = wpt([F(3, 5), -2], [3, 4])
        with pytest.raises(ValueError, match="all bounds must be >= 1"):
            bounded_lambda_search(z, z, height)

    def test_positive_integer_bound_finds_identity(self):
        z = wpt([F(3, 5), -2], [3, 4])
        assert bounded_lambda_search(z, z, 1)


class TestBoundedLambdaSearch:
    def test_worked_examples(self):
        assert bounded_lambda_search(wpt([1, 2], [2, 1]), wpt([4, 4], [2, 1]), 8)
        assert not bounded_lambda_search(wpt([1, 1], [2, 2]), wpt([-1, -1], [2, 2]), 32)
        z = wpt([F(3, 5), -2], [3, 4])
        assert bounded_lambda_search(z, z, 1)

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            bounded_lambda_search(wpt([1, 1], [1, 1]), wpt([1, 1], [2, 1]), 4)

    def test_agreement_with_decision_procedure(self):
        rng = random.Random(37)
        for _ in range(300):
            parts = tuple(rng.randint(1, 5) for _ in range(rng.randint(2, 3)))
            weight = Weight(parts)
            coords = tuple(F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in parts)
            z = WeightedPoint(coords, weight)
            lam = F(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 2, 3, 7]))
            w = WeightedPoint(tuple(lam**p * c for p, c in zip(parts, coords)), weight)
            if rng.random() < 0.4:
                # break the pair in a way no real scalar can repair
                k = rng.randrange(len(parts))
                coords_w = list(w.coords)
                coords_w[k] *= 2
                w = WeightedPoint(tuple(coords_w), weight)
            assert bounded_lambda_search(z, w, 16) == wps_equivalent(z, w)


class TestFiniteFieldClasses:
    def test_projective_line_over_f3(self):
        classes = ff_enumerate_classes(Weight((1, 1)), 3)
        assert len(classes) == 4
        assert all(len(c) == 2 for c in classes)

    def test_squared_action_over_f3(self):
        classes = ff_enumerate_classes(Weight((2, 2)), 3)
        assert len(classes) == 8
        assert all(len(c) <= 2 for c in classes)

    def test_partition_and_orbit_sizes(self):
        for parts, q in [((1, 2), 5), ((2, 3), 7), ((1, 1, 1), 3)]:
            classes = ff_enumerate_classes(Weight(parts), q)
            total = sum(len(c) for c in classes)
            assert total == q ** len(parts) - 1
            assert all((q - 1) % len(c) == 0 for c in classes)

    def test_rejects_bad_field(self):
        with pytest.raises(ValueError):
            ff_enumerate_classes(Weight((1, 1)), 4)
        with pytest.raises(ValueError):
            ff_enumerate_classes(Weight((1, 1)), 37)


class TestBruteInvariant:
    def test_fixture_corpus(self, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.json")):
            if path.name == "projection_matrix.json":
                continue
            cfg = load_configuration(path)
            assert wps_equivalent(
                brute_invariant(cfg).point, eves_invariant(cfg).point
            ), path.name

    def test_random_corpus(self):
        rng = random.Random(43)
        for _ in range(25):
            cfg = random_h_configuration(rng)
            assert wps_equivalent(brute_invariant(cfg).point, eves_invariant(cfg).point)

    def test_random_single_span_corpus(self):
        rng = random.Random(47)
        for _ in range(25):
            cfg = random_simplex_configuration(rng)
            assert len(cfg.subspaces()) == 1
            assert wps_equivalent(brute_invariant(cfg).point, eves_invariant(cfg).point)

    def test_rejects_non_admissible(self):
        pts = {f"t{k}": (F(1), F(k)) for k in range(3)}
        cfg = build_configuration(Weight((1, 1)), 2, 1, [[("t0", "t1")], [("t0", "t2")]], pts)
        with pytest.raises(NotHConfigurationError):
            brute_invariant(cfg)

    def test_each_distinct_tuple_bracketed_once(self, fixtures_dir, monkeypatch):
        """One Cramer solve per member of each distinct tuple, however often
        the tuple occurs in the list view; the value is unchanged."""
        parent = load_configuration(fixtures_dir / "midpoint_triangle_aligned.json")
        expansion = unit_weight_expansion(restrict_pair(parent, 0, 2))
        calls = []
        solve = oracle._cramer_coords
        monkeypatch.setattr(oracle, "_cramer_coords", lambda *args: calls.append(args) or solve(*args))
        for cfg in (parent, expansion):
            distinct = {t for color in cfg.colors for t in color}
            assert sum(map(len, cfg.colors)) > len(distinct)
            calls.clear()
            value = brute_invariant(cfg)
            assert len(calls) == cfg.arity * len(distinct)
            assert wps_equivalent(value.point, eves_invariant(cfg).point)


class TestBruteDegrees:
    """The oracle's recount of admissibility, independent of ``validate_h``."""

    def corpus(self, fixtures_dir):
        cfgs = [load_configuration(path) for path in sorted(fixtures_dir.glob("*.json"))
                if path.name != "projection_matrix.json"]
        rng = random.Random(53)
        return cfgs + [random_h_configuration(rng) for _ in range(15)]

    def test_agrees_with_validate_h(self, fixtures_dir):
        for cfg in self.corpus(fixtures_dir):
            for weight in (None, Weight((1, 1)), Weight((2, 2, 4))):
                report = validate_h(cfg, weight)
                brute = brute_degrees(cfg, weight)
                assert brute.point_degrees == report.point_degrees
                assert sorted(brute.span_degrees) == sorted(report.subspace_degrees.values())
                assert brute.h_valid == report.h_valid
                assert report_matches_recount(cfg, report, weight)

    def test_repeated_tuples_count_once_per_occurrence(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "segment_pair_aligned.json")
        assert any(k > 1 for color in cfg.counts for k in color.values())
        brute = brute_degrees(cfg)
        assert brute.h_valid
        assert [sum(d[c] for d in brute.span_degrees) for c in range(2)] == [len(c) for c in cfg.colors]

    def test_detects_a_wrong_report(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "midpoint_triangle_aligned.json")
        report = validate_h(cfg)
        name = sorted(report.point_degrees)[0]
        span = next(iter(report.subspace_degrees))
        bumped = tuple(d + 1 for d in report.point_degrees[name])
        assert not report_matches_recount(cfg, replace(report, h_valid=False))
        assert not report_matches_recount(cfg, replace(report, point_degrees={**report.point_degrees, name: bumped}))
        doubled = tuple(2 * d for d in report.subspace_degrees[span])
        assert not report_matches_recount(cfg, replace(report, subspace_degrees={**report.subspace_degrees, span: doubled}))

    def test_refuses_non_proportional_degrees(self):
        # every point has degrees (1,1) under weight (2,2): list lengths fit, degrees do not
        points = {name: (F(1), F(t)) for t, name in enumerate("abcd")}
        cfg = build_configuration(Weight((2, 2)), 2, 1, [[("a", "b"), ("c", "d")], [("a", "c"), ("b", "d")]], points)
        assert not brute_degrees(cfg).h_valid
        assert brute_degrees(cfg, Weight((1, 1))).h_valid
        with pytest.raises(NotHConfigurationError):
            brute_invariant(cfg)
