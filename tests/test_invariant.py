import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from eves import (
    BasisChoice,
    ConfigurationError,
    InvariantValue,
    LinearMorphism,
    MorphismError,
    NotHConfigurationError,
    RTuple,
    Subspace,
    Weight,
    WeightedPoint,
    apply_morphism,
    bracket,
    build_configuration,
    check_reconstruction_identity,
    eves_invariant,
    eves_invariant_with_choices,
    load_configuration,
    validate_h,
    wps_equivalent,
)
from eves import invariant, linalg, oracle, reconstruct
from conftest import (
    CONFIG_FIXTURES,
    FIXTURES,
    canonical_point_reps,
    det,
    mat_mul,
    mat_vec,
    random_h_configuration,
    random_invertible_matrix,
    random_simplex_configuration,
)

ONE_ONE = WeightedPoint((F(1), F(1)), Weight((1, 1)))


def classes_equal(a: WeightedPoint, b) -> bool:
    if not isinstance(b, WeightedPoint):
        b = WeightedPoint(tuple(F(x) for x in b), a.weight)
    return wps_equivalent(a, b)


class TestBracket:
    def test_counterclockwise_triangle(self):
        reps = {"a": (F(1), F(0), F(0)), "b": (F(1), F(1), F(0)), "c": (F(1), F(0), F(1))}
        value = bracket(RTuple(("a", "b", "c")), linalg.identity(3), reps)
        assert value == 1  # twice the signed area of the unit-leg triangle

    def test_segment_bracket_by_hand(self):
        reps = {"a": (F(1), F(0)), "b": (F(1), F(1))}
        assert bracket(RTuple(("a", "b")), linalg.identity(2), reps) == 1

    def test_scaling_multiplies_bracket(self):
        reps = {"a": (F(1), F(0)), "b": (F(1), F(1))}
        scaled = {"a": (F(5), F(0)), "b": reps["b"]}
        t = RTuple(("a", "b"))
        basis = linalg.identity(2)
        assert bracket(t, basis, scaled) == 5 * bracket(t, basis, reps)

    def test_member_swap_negates(self):
        reps = {"a": (F(1), F(2)), "b": (F(1), F(5))}
        basis = ((F(1), F(0)), (F(0), F(1)))
        assert bracket(RTuple(("a", "b")), basis, reps) == -bracket(RTuple(("b", "a")), basis, reps)

    def test_basis_must_span(self):
        reps = {"a": (F(1), F(0), F(0)), "b": (F(0), F(1), F(0))}
        bad_basis = ((F(1), F(0), F(0)), (F(0), F(0), F(1)))
        with pytest.raises(ValueError, match="does not span"):
            bracket(RTuple(("a", "b")), bad_basis, reps)

    def test_non_echelon_basis_by_hand(self):
        # a = b0 + b1 and b = 2*b0 - b1, so the coordinate rows are (1,1), (2,-1)
        basis = ((F(1), F(2), F(3)), (F(2), F(3), F(4)))
        reps = {"a": (F(3), F(5), F(7)), "b": (F(0), F(1), F(2))}
        assert bracket(RTuple(("a", "b")), basis, reps) == -3

    def test_dependent_members_in_the_span_bracket_to_zero(self):
        reps = {"a": (F(1), F(2), F(3)), "b": (F(2), F(4), F(6))}
        basis = ((F(1), F(2), F(3)), (F(0), F(0), F(1)))
        assert bracket(RTuple(("a", "b")), basis, reps) == 0

    def test_dependent_basis_rejected(self):
        reps = {"a": (F(1), F(2), F(3)), "b": (F(2), F(4), F(6))}
        dependent = ((F(1), F(2), F(3)), (F(2), F(4), F(6)))
        with pytest.raises(ValueError, match="linearly dependent"):
            bracket(RTuple(("a", "b")), dependent, reps)

    def test_ragged_basis_rows_rejected(self):
        reps = {"a": (F(1), F(0)), "b": (F(0), F(1))}
        with pytest.raises(ValueError, match="unequal lengths"):
            bracket(RTuple(("a", "b")), ((F(1), F(0)), (F(0), F(1), F(5))), reps)

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            bracket(RTuple(("a",)), (), {"a": (F(1),)})

    def test_representative_of_another_length_rejected(self):
        reps = {"a": (F(1), F(0), F(0)), "b": (F(0), F(1))}
        with pytest.raises(ValueError, match="basis/vector shape mismatch"):
            bracket(RTuple(("a", "b")), Subspace(linalg.identity(3)), reps)


class TestEvesInvariant:
    def test_segment_pair_fixtures(self, fixtures_dir):
        aligned = load_configuration(fixtures_dir / "segment_pair_aligned.json")
        opposed = load_configuration(fixtures_dir / "segment_pair_opposed.json")
        ea = eves_invariant(aligned).point
        eo = eves_invariant(opposed).point
        assert ea.coords == (F(1), F(1))
        assert eo.coords == (F(-1), F(-1))
        assert classes_equal(ea, (1, 1)) and classes_equal(eo, (-1, -1))
        assert not wps_equivalent(ea, eo)

    def test_midpoint_triangle_fixtures(self, fixtures_dir):
        s = load_configuration(fixtures_dir / "midpoint_triangle_aligned.json")
        t = load_configuration(fixtures_dir / "midpoint_triangle_reversed.json")
        es, et = eves_invariant(s).point, eves_invariant(t).point
        assert classes_equal(es, (1, 1, 1))
        assert classes_equal(et, (-1, -1, 1))
        assert not wps_equivalent(es, et)

    def test_value_in_dense_locus_on_corpus(self):
        rng = random.Random(11)
        for _ in range(40):
            cfg = random_h_configuration(rng)
            assert eves_invariant(cfg).point.in_dense_locus()

    def test_precondition_names_offender(self):
        pts = {f"t{k}": (F(1), F(k)) for k in range(3)}
        cfg = build_configuration(
            Weight((1, 1)), 2, 1, [[("t0", "t1")], [("t0", "t2")]], pts,
        )
        with pytest.raises(NotHConfigurationError, match="t1"):
            eves_invariant(cfg)

    def test_value_with_a_zero_coordinate_refused(self):
        with pytest.raises(ValueError, match="all coordinates nonzero"):
            InvariantValue(WeightedPoint((F(0), F(1)), Weight((1, 1))))


@pytest.fixture
def bracket_calls(monkeypatch):
    """The tuples passed to the public bracket, from either module that calls it, in call order."""
    calls = []
    original = invariant.bracket

    def counting_bracket(t, basis, reps):
        calls.append(t)
        return original(t, basis, reps)

    monkeypatch.setattr(invariant, "bracket", counting_bracket)
    monkeypatch.setattr(reconstruct, "bracket", counting_bracket)
    return calls


class TestSpanWork:
    def test_each_span_reduced_once(self, fixtures_dir, monkeypatch):
        # parsing reduces each distinct span once; canonical evaluation reduces
        # none, and a BasisChoice reduces each supplied basis once
        calls = []
        rref = linalg.rref

        def counting_rref(rows):
            calls.append(rows)
            return rref(rows)

        monkeypatch.setattr(linalg, "rref", counting_rref)
        cfg = load_configuration(fixtures_dir / "eleven_point_chain.json")
        spans = cfg.subspaces()
        assert len(spans) < sum(len(color) for color in cfg.colors)
        assert len(calls) == len(spans)
        calls.clear()
        eves_invariant(cfg)
        assert calls == []
        rng = random.Random(5)
        bases = {s: mat_mul(random_invertible_matrix(rng, cfg.arity), s.basis) for s in spans[1:]}
        eves_invariant_with_choices(cfg, BasisChoice(subspace_bases=bases))
        assert len(calls) == len(bases)

    def test_each_tuple_bracketed_once_through_bracket(self, fixtures_dir, bracket_calls):
        # evaluation multiplies the brackets stored at build time and runs no
        # bracket, with or without a BasisChoice; the identity check brackets
        # each distinct tuple once through the public bracket
        cfg = load_configuration(fixtures_dir / "eleven_point_chain.json")
        full = eves_invariant(cfg).point
        rng = random.Random(9)
        spans = cfg.subspaces()
        bases = {s: mat_mul(random_invertible_matrix(rng, cfg.arity), s.basis) for s in spans}
        reps = {name: tuple(F(-3, 2) * x for x in pt.coords) for name, pt in cfg.points.items()}
        eves_invariant_with_choices(cfg, BasisChoice(subspace_bases=bases, point_reps=reps))
        assert bracket_calls == []
        assert check_reconstruction_identity(cfg, full)
        assert bracket_calls == list(cfg.spans)

    def test_canonical_representative_computed_once_per_point(self, fixtures_dir, monkeypatch):
        # evaluation builds no canonical representative, and a BasisChoice
        # scales only the echelon rows of each supplied basis's rref check;
        # the identity check brackets integer rows and builds none either
        cfg = load_configuration(fixtures_dir / "midpoint_triangle_aligned.json")
        calls = []
        scale = linalg.scale_first_nonzero

        def counting_scale(v):
            calls.append(v)
            return scale(v)

        monkeypatch.setattr(linalg, "scale_first_nonzero", counting_scale)
        first = eves_invariant(cfg).point
        assert calls == []
        rng = random.Random(9)
        spans = cfg.subspaces()
        bases = {s: mat_mul(random_invertible_matrix(rng, cfg.arity), s.basis) for s in spans}
        reps = {name: tuple(F(-3, 2) * x for x in pt.coords) for name, pt in cfg.points.items()}
        eves_invariant_with_choices(cfg, BasisChoice(subspace_bases=bases, point_reps=reps))
        assert len(calls) == sum(s.dim for s in spans)
        calls.clear()
        assert check_reconstruction_identity(cfg, first)
        assert check_reconstruction_identity(cfg, first)
        assert eves_invariant(cfg).point == first
        assert calls == []

    def test_identity_check_brackets_each_distinct_tuple_once(self, fixtures_dir, bracket_calls):
        cfg = load_configuration(fixtures_dir / "midpoint_triangle_aligned.json")
        full = eves_invariant(cfg).point
        assert check_reconstruction_identity(cfg, full)
        assert bracket_calls == list(cfg.spans)
        assert len(bracket_calls) < sum(len(color) for color in cfg.colors)

    def test_identity_check_ignores_stored_brackets(self, fixtures_dir):
        # a wrong stored bracket changes the invariant, but the identity check
        # brackets every tuple again, so the pair expansions disagree with it
        cfg = load_configuration(fixtures_dir / "midpoint_triangle_aligned.json")
        t = cfg.colors[0][0]  # twice in colors 0 and 2 and not in 1, against the weight (2, 2, 4)
        num, den = cfg.brackets[t]
        wrong = replace(cfg, brackets={**cfg.brackets, t: (2 * num, den)})
        value = eves_invariant(wrong).point
        assert not wps_equivalent(value, eves_invariant(cfg).point)
        assert not check_reconstruction_identity(wrong, value)
        assert check_reconstruction_identity(wrong, eves_invariant(cfg).point)

    def test_build_interns_spans(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "eleven_point_chain.json")
        assert len({id(s) for s in cfg.spans.values()}) == len(cfg.subspaces())


def stored_bracket_corpus():
    """The fixture configurations and seeded random ones, with segments and with simplices."""
    corpus = [load_configuration(FIXTURES / name) for name in CONFIG_FIXTURES]
    # (t0,t1) twice in color 0 and once in color 1, which also holds (t1,t0)
    pts = {f"t{k}": (F(1), F(2 * k + 1, k + 2)) for k in range(4)}
    lists = [[("t0", "t1"), ("t2", "t3"), ("t0", "t1")], [("t0", "t1"), ("t2", "t3"), ("t1", "t0")]]
    corpus.append(build_configuration(Weight((1, 1)), 2, 1, lists, pts))
    rng = random.Random(71)
    corpus += [random_h_configuration(rng) for _ in range(30)]
    corpus += [random_simplex_configuration(rng) for _ in range(20)]
    return corpus


def public_bracket_products(cfg, bases, reps):
    """Each color's product of public brackets, with ``bases`` keyed by span."""
    return tuple(
        math.prod((bracket(t, bases.get(cfg.spans[t], cfg.spans[t]), reps) for t in color), start=F(1))
        for color in cfg.colors
    )


class TestStoredBrackets:
    """The brackets stored by build_configuration against the public bracket and the oracle."""

    def test_stored_brackets_equal_public_brackets(self):
        for cfg in stored_bracket_corpus():
            reps = canonical_point_reps(cfg)
            assert set(cfg.brackets) == set(cfg.spans)
            for t, (num, den) in cfg.brackets.items():
                assert F(num, den) == bracket(t, cfg.spans[t], reps)

    def test_invariant_is_the_product_of_public_brackets(self):
        for cfg in stored_bracket_corpus():
            value = eves_invariant(cfg).point
            assert value.coords == public_bracket_products(cfg, {}, canonical_point_reps(cfg))
            assert wps_equivalent(value, oracle.brute_invariant(cfg).point)

    def test_choices_enter_as_scalars(self):
        rng = random.Random(73)
        for cfg in stored_bracket_corpus():
            bases = {}
            for s in cfg.subspaces():  # another basis of s, each row scaled by a random rational
                scales = [F(rng.choice([-2, 1, 3]), rng.randint(1, 4)) for _ in range(cfg.arity)]
                mix = [[a * x for x in row] for a, row in zip(scales, random_invertible_matrix(rng, cfg.arity))]
                bases[s] = mat_mul(mix, s.basis)
            reps = {}
            for name, pt in cfg.points.items():
                scale = F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
                reps[name] = tuple(scale * x for x in pt.coords)
            value = eves_invariant_with_choices(cfg, BasisChoice(subspace_bases=bases, point_reps=reps))
            assert value.point.coords == public_bracket_products(cfg, bases, reps)


class TestChoiceIndependence:
    def test_canonical_choices_identical(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "cross_ratio_quadruple.json")
        assert eves_invariant_with_choices(cfg, BasisChoice()).point == eves_invariant(cfg).point

    def test_rescaled_representative(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "cross_ratio_quadruple.json")
        choice = BasisChoice(point_reps={"alpha": (F(5), F(0))})
        assert wps_equivalent(
            eves_invariant_with_choices(cfg, choice).point, eves_invariant(cfg).point
        )

    def test_basis_change(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "cross_ratio_quadruple.json")
        line = cfg.spans[cfg.colors[0][0]]
        reps = canonical_point_reps(cfg)
        for q in (((F(2), F(1)), (F(1), F(1))), ((F(2), F(1)), (F(1), F(3)))):
            basis = mat_mul(q, line.basis)
            choice = BasisChoice(subspace_bases={line: basis})
            value = eves_invariant_with_choices(cfg, choice).point
            assert wps_equivalent(value, eves_invariant(cfg).point)
            # the non-echelon basis gives each color the product of its public brackets
            expected = []
            for color in cfg.colors:
                product = F(1)
                for t in color:
                    product *= bracket(t, basis, reps)
                expected.append(product)
            assert value.coords == tuple(expected)

    def test_invalid_choices_rejected(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "cross_ratio_quadruple.json")
        line = cfg.spans[cfg.colors[0][0]]
        with pytest.raises(ValueError, match="not a nonzero multiple"):
            eves_invariant_with_choices(
                cfg, BasisChoice(point_reps={"alpha": (F(1), F(99))})
            )
        with pytest.raises(ValueError, match="representative supplied for unknown point"):
            eves_invariant_with_choices(cfg, BasisChoice(point_reps={"nope": (F(1), F(0))}))
        bad = ((F(1), F(0)), (F(2), F(0)))
        with pytest.raises(ValueError, match="does not span"):
            eves_invariant_with_choices(cfg, BasisChoice(subspace_bases={line: bad}))

    def test_ragged_basis_rejected(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "cross_ratio_quadruple.json")
        line = cfg.spans[cfg.colors[0][0]]
        ragged = ((F(1), F(0)), (F(0), F(1), F(5)))
        with pytest.raises(ValueError, match="supplied basis does not span"):
            eves_invariant_with_choices(cfg, BasisChoice(subspace_bases={line: ragged}))

    def test_wide_span_named_in_a_short_line(self):
        """A refused basis of a span whose text is over 200 characters names the
        span by its dimension and the first tuple that spans it, or by its
        dimension alone when no tuple of the configuration does."""
        unit = [tuple(F(c == k) for c in range(501)) for k in range(6)]
        points = {f"e{k}": row for k, row in enumerate(unit)}
        colors = [[("e0", "e1"), ("e2", "e3")], [("e0", "e1"), ("e2", "e3")]]
        cfg = build_configuration(Weight((1, 1)), 2, 500, colors, points)
        foreign = Subspace((unit[4], unit[5]))
        for span, name in [(cfg.spans["e2", "e3"], "span of dimension 2 through ('e2', 'e3')"),
                           (foreign, "span of dimension 2")]:
            with pytest.raises(ValueError) as info:
                eves_invariant_with_choices(cfg, BasisChoice(subspace_bases={span: (unit[0], unit[1])}))
            assert str(info.value) == f"supplied basis does not span {name}"

    def test_basis_of_another_span_rejected(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "eleven_point_chain.json")
        first, second = cfg.subspaces()[:2]
        with pytest.raises(ValueError, match="supplied basis does not span"):
            eves_invariant_with_choices(cfg, BasisChoice(subspace_bases={first: second.basis}))
        basis = mat_mul(((F(2), F(1)), (F(1), F(1))), first.basis)
        value = eves_invariant_with_choices(cfg, BasisChoice(subspace_bases={first: basis})).point
        assert wps_equivalent(value, eves_invariant(cfg).point)

    def test_random_choices_on_corpus(self):
        rng = random.Random(13)
        for _ in range(30):
            cfg = random_h_configuration(rng)
            base = eves_invariant(cfg).point
            reps = {}
            for name, pt in cfg.points.items():
                s = F(rng.choice([-3, -2, 2, 3, 5]), rng.randint(1, 3))
                reps[name] = tuple(s * x for x in pt.coords)
            bases = {}
            for s in cfg.subspaces():
                q = random_invertible_matrix(rng, cfg.arity)
                bases[s] = mat_mul(q, s.basis)
            perturbed = eves_invariant_with_choices(
                cfg, BasisChoice(subspace_bases=bases, point_reps=reps)
            ).point
            assert wps_equivalent(base, perturbed)


class TestAntisymmetry:
    def test_sign_flip_representation(self):
        # swapping one tuple in each of two colors negates those coordinates
        pts = {f"t{k}": (F(1), F(k)) for k in range(4)}
        lists = [[("t3", "t0"), ("t2", "t1")], [("t2", "t0"), ("t3", "t1")]]
        cfg = build_configuration(Weight((1, 1)), 2, 1, lists, pts)
        flipped = build_configuration(
            Weight((1, 1)), 2, 1,
            [[("t0", "t3"), ("t2", "t1")], [("t0", "t2"), ("t3", "t1")]], pts,
        )
        base = eves_invariant(cfg).point
        flip = eves_invariant(flipped).point
        assert flip.coords == (-base.coords[0], -base.coords[1])
        # a (1,1) weight absorbs the simultaneous sign flip; (2,2) does not
        assert wps_equivalent(base, flip)
        cfg22 = build_configuration(Weight((2, 2)), 2, 1, [c * 2 for c in lists], pts)
        flip22 = build_configuration(
            Weight((2, 2)), 2, 1,
            [
                [("t0", "t3"), ("t2", "t1")] + lists[0],
                [("t0", "t2"), ("t3", "t1")] + lists[1],
            ],
            pts,
        )
        b22, f22 = eves_invariant(cfg22).point, eves_invariant(flip22).point
        assert f22.coords == (-b22.coords[0], -b22.coords[1])
        assert not wps_equivalent(b22, f22)


class TestMorphisms:
    @pytest.mark.parametrize("rows", [((F(1), F(0)), (F(1),)), ()], ids=["ragged", "empty"])
    def test_matrix_must_be_rectangular(self, rows):
        with pytest.raises(ValueError, match="must be rectangular and non-empty"):
            LinearMorphism(rows)

    def test_identity(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "area_ratio_six_points.json")
        image = apply_morphism(cfg, LinearMorphism(linalg.identity(3)))
        assert eves_invariant(image).point == eves_invariant(cfg).point

    def test_random_invertible_preserves_class(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "area_ratio_six_points.json")
        rng = random.Random(17)
        for _ in range(10):
            m = LinearMorphism(random_invertible_matrix(rng, 3))
            image = apply_morphism(cfg, m)
            assert wps_equivalent(eves_invariant(image).point, eves_invariant(cfg).point)

    def test_projection_fixture(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "projection_source.json")
        m = LinearMorphism(
            ((F(1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0)), (F(0), F(0), F(1), F(0)))
        )
        image = apply_morphism(cfg, m)
        assert image.dim == 2
        assert "a1+b1" in image.points
        assert len(image.points) == len(cfg.points) - 1
        assert validate_h(image).h_valid
        assert wps_equivalent(eves_invariant(image).point, eves_invariant(cfg).point)

    @staticmethod
    def assert_images_exact(cfg, m, image):
        # every image point is the matrix times its first source point, entry for entry
        groups = {}
        for name in sorted(cfg.points):
            img = mat_vec(m.matrix, cfg.points[name].coords)
            groups.setdefault(linalg.scale_first_nonzero(img), []).append(img)
        assert sorted(pt.coords for pt in image.points.values()) == sorted(images[0] for images in groups.values())

    def test_images_exact_under_rational_matrices(self):
        # each row has its own denominator, and the points have rational coordinates
        rng = random.Random(23)
        for _ in range(15):
            cfg = random_h_configuration(rng)
            n = cfg.dim + 1
            while True:
                rows = tuple(
                    tuple(F(rng.randint(-7, 7), den * rng.randint(1, 2)) for _ in range(n))
                    for den in rng.sample([2, 3, 5, 7, 11], n)
                )
                if det(rows) != 0:
                    break
            m = LinearMorphism(rows)
            self.assert_images_exact(cfg, m, apply_morphism(cfg, m))

    def test_merged_points_keep_the_first_image_exactly(self):
        # the kernel of this rank-2 matrix is spanned by (1, 1, 1), and a2 - a lies in it
        m = LinearMorphism(((F(1, 2), F(-3, 2), F(1)), (F(2, 3), F(1, 3), F(-1)), (F(1, 5), F(0), F(-1, 5))))
        pts = {"a": (F(1), F(1, 2), F(0)), "a2": (F(7, 4), F(5, 4), F(3, 4)),
               "b": (F(0), F(1, 3), F(1)), "c": (F(2, 7), F(-1), F(1, 9))}
        cfg = build_configuration(Weight((1, 1)), 2, 2, [[("a", "b"), ("a2", "c")], [("a", "c"), ("a2", "b")]], pts)
        image = apply_morphism(cfg, m)
        assert sorted(image.points) == ["a+a2", "b", "c"]
        assert image.points["a+a2"].coords == mat_vec(m.matrix, pts["a"])
        self.assert_images_exact(cfg, m, image)

    def test_points_with_proportional_images_merge(self):
        # with the kernel (1, 1, 1) of the matrix above, a2 maps to -3 times a's
        # image and b2 to 2 times b's: unequal integer images of one projective point
        m = LinearMorphism(((F(1, 2), F(-3, 2), F(1)), (F(2, 3), F(1, 3), F(-1)), (F(1, 5), F(0), F(-1, 5))))
        pts = {"a": (F(1), F(1, 2), F(0)), "a2": (F(-3, 2), F(0), F(3, 2)),
               "b": (F(0), F(1, 3), F(1)), "b2": (F(1), F(5, 3), F(3)), "c": (F(2, 7), F(-1), F(1, 9))}
        colors = [[("a", "b"), ("a2", "c"), ("b2", "a")], [("a", "c"), ("a2", "b2"), ("b", "c")]]
        cfg = build_configuration(Weight((1, 1)), 2, 2, colors, pts)
        assert mat_vec(m.matrix, pts["a2"]) == tuple(-3 * x for x in mat_vec(m.matrix, pts["a"]))
        assert mat_vec(m.matrix, pts["b2"]) == tuple(2 * x for x in mat_vec(m.matrix, pts["b"]))
        image = apply_morphism(cfg, m)
        assert sorted(image.points) == ["a+a2", "b+b2", "c"]
        assert image.colors[1] == (("a+a2", "b+b2"), ("a+a2", "c"), ("b+b2", "c"))
        self.assert_images_exact(cfg, m, image)

    def test_rank_deficiency_names_subspace(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "cross_ratio_quadruple.json")
        squash = LinearMorphism(((F(1), F(0)), (F(0), F(0))))
        with pytest.raises(MorphismError, match="not injective on span"):
            apply_morphism(cfg, squash)

    def test_zero_image_vector(self):
        pts = {"a": (F(0), F(1)), "b": (F(1), F(1))}
        cfg = build_configuration(Weight((1, 1)), 2, 1, [[("a", "b")], [("a", "b")]], pts)
        kill_second = LinearMorphism(((F(1), F(0)), (F(1), F(0))))
        with pytest.raises(MorphismError):
            apply_morphism(cfg, kill_second)

    # a map P^2 -> P^1 with kernel (2, 6, 1): injective on the line z = 0,
    # which holds every tuple, and it sends (0, 0, 1) and (1, 3, 1) to one point
    PROJECT_FROM_K = LinearMorphism(((F(1), F(0), F(-2)), (F(0), F(1), F(-6))))

    @staticmethod
    def line_with_extra_points(extra):
        pts = {name: (F(x), F(y), F(0)) for name, x, y in (("p", 1, 0), ("q", 0, 1), ("r", 1, 1), ("s", 1, 2))}
        colors = [[("p", "q"), ("r", "s")], [("p", "r"), ("q", "s")]]
        return build_configuration(Weight((1, 1)), 2, 2, colors, {**pts, **extra})

    def test_point_in_no_tuple_with_zero_image(self):
        cfg = self.line_with_extra_points({"e": (F(2), F(6), F(1))})
        with pytest.raises(MorphismError, match="point 'e' maps to the zero vector"):
            apply_morphism(cfg, self.PROJECT_FROM_K)

    def test_merged_name_already_taken_gets_a_prime(self):
        cfg = self.line_with_extra_points(
            {"a": (F(0), F(0), F(1)), "b": (F(1), F(3), F(1)), "a+b": (F(0), F(1), F(1))}
        )
        image = apply_morphism(cfg, self.PROJECT_FROM_K)
        # a and b take the merged name a+b first, so the point named a+b becomes a+b'
        assert sorted(image.points) == ["a+b", "a+b'", "p", "q", "r", "s"]
        assert image.points["a+b"].coords == mat_vec(self.PROJECT_FROM_K.matrix, cfg.points["a"].coords)
        assert image.points["a+b'"].coords == mat_vec(self.PROJECT_FROM_K.matrix, cfg.points["a+b"].coords)
        self.assert_images_exact(cfg, self.PROJECT_FROM_K, image)

    def test_shape_mismatch(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "cross_ratio_quadruple.json")
        with pytest.raises(MorphismError, match="columns"):
            apply_morphism(cfg, LinearMorphism(linalg.identity(3)))


def seeded_family(seed: int, simplex: bool):
    """The seeded generator and a draw of random admissible configurations of
    one family, all with the same parts and dim."""
    rng = random.Random(seed)
    parts = tuple(rng.randint(1, 3) for _ in range(rng.randint(2, 4)))
    dim = rng.randint(1, 3)
    family = random_simplex_configuration if simplex else random_h_configuration
    return rng, lambda: family(rng, parts=parts, dim=dim)


def renamed(cfg, prefix: str):
    """The colour lists and point table of ``cfg`` with every point name prefixed."""
    colors = [[tuple(prefix + name for name in t) for t in color] for color in cfg.colors]
    return colors, {prefix + name: pt.coords for name, pt in cfg.points.items()}


class TestMetamorphic:
    """The paper's exact identities, coordinate by coordinate, on both random families."""

    @given(st.integers(0, 2**32), st.booleans())
    def test_disjoint_union_multiplies(self, seed, simplex):
        _, draw = seeded_family(seed, simplex)
        a, b = draw(), draw()
        colors_a, points_a = renamed(a, "a.")
        colors_b, points_b = renamed(b, "b.")
        union = build_configuration(
            a.weight, a.arity, a.dim, [x + y for x, y in zip(colors_a, colors_b)], {**points_a, **points_b}
        )
        assert validate_h(union).h_valid
        assert union.ell == a.ell + b.ell
        product = tuple(x * y for x, y in zip(eves_invariant(a).point.coords, eves_invariant(b).point.coords))
        assert eves_invariant(union).point.coords == product

    @given(st.integers(0, 2**32), st.booleans(), st.integers(2, 3))
    def test_repetition_powers(self, seed, simplex, k):
        cfg = seeded_family(seed, simplex)[1]()
        repeated = build_configuration(cfg.weight, cfg.arity, cfg.dim, [list(color) * k for color in cfg.colors], cfg.points)
        assert validate_h(repeated).h_valid
        assert repeated.ell == cfg.ell * k
        assert eves_invariant(repeated).point.coords == tuple(z**k for z in eves_invariant(cfg).point.coords)

    @given(st.integers(0, 2**32), st.booleans())
    def test_colour_permutation_permutes_coordinates(self, seed, simplex):
        rng, draw = seeded_family(seed, simplex)
        cfg = draw()
        order = rng.sample(range(len(cfg.colors)), len(cfg.colors))
        weight = Weight(tuple(cfg.weight.parts[c] for c in order))
        permuted = build_configuration(weight, cfg.arity, cfg.dim, [cfg.colors[c] for c in order], cfg.points)
        assert validate_h(permuted).h_valid
        coords = eves_invariant(cfg).point.coords
        assert eves_invariant(permuted).point.coords == tuple(coords[c] for c in order)


def on_points(name, coords):
    """Fixture ``name``'s weight, arity and colour lists on points with other coordinates."""
    cfg = load_configuration(FIXTURES / name)
    dim = len(next(iter(coords.values()))) - 1
    return build_configuration(cfg.weight, cfg.arity, dim, cfg.colors, coords)


def quadruple(a, b, c, d):
    """The cross-ratio configuration of (a, b, c, d): the fixture's colours (d,a),(c,b) and (c,a),(d,b)."""
    return on_points("cross_ratio_quadruple.json", dict(zip(("alpha", "beta", "gamma", "delta"), (a, b, c, d))))


class TestCrossRatio:
    def test_affine_0123(self):
        assert eves_invariant(quadruple((1, 0), (1, 1), (1, 2), (1, 3))).point.coords == (F(3), F(4))

    def test_harmonic_with_infinity(self):
        assert eves_invariant(quadruple((1, 0), (1, 2), (1, 1), (0, 1))).point.coords == (F(-1), F(1))

    def test_invariance_under_plane_maps(self):
        rng = random.Random(19)
        for _ in range(25):
            cfg = quadruple(*[(1, t) for t in rng.sample(range(-8, 9), 4)])
            m = LinearMorphism(random_invertible_matrix(rng, 2))
            assert wps_equivalent(eves_invariant(apply_morphism(cfg, m)).point, eves_invariant(cfg).point)

    def test_matches_direct_determinant_formula(self):
        # product of endpoint 2x2 determinants, evaluated on canonical representatives
        rng = random.Random(21)
        values = sorted({F(n, d) for n in range(-12, 13) for d in (1, 2, 3, 4)})
        for _ in range(100):
            ts = rng.sample(values, 4)
            scale = [F(rng.choice([1, 2, 3, -2])) for _ in range(4)]
            coords = [(s, s * t) for t, s in zip(ts, scale)]
            a, b, c, d = [linalg.scale_first_nonzero(v) for v in coords]
            direct = (
                (a[1] * d[0] - a[0] * d[1]) * (b[1] * c[0] - b[0] * c[1]),
                (a[1] * c[0] - a[0] * c[1]) * (b[1] * d[0] - b[0] * d[1]),
            )
            assert eves_invariant(quadruple(*coords)).point.coords == direct

    def test_rejects_coincident_and_noncollinear(self):
        # d = 2b makes the pair (d, b) dependent; a point off the line a, b, c is not admissible
        a, b, c = (1, 0, 0), (1, 1, 0), (1, 2, 0)
        with pytest.raises(ConfigurationError, match="dependent"):
            quadruple(a, b, c, (2, 2, 0))
        with pytest.raises(NotHConfigurationError):
            eves_invariant(quadruple(a, b, c, (1, 1, 1)))


class TestTriangleRatio:
    def test_six_point_value(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "area_ratio_six_points.json")
        assert eves_invariant(cfg).point.coords == (F(-12), F(36))

    def test_five_point_value(self, fixtures_dir):
        cfg = load_configuration(fixtures_dir / "area_ratio_five_points.json")
        assert eves_invariant(cfg).point.coords == (F(-28), F(12))

    def test_octahedral_swap_phenomenon(self, fixtures_dir):
        s = load_configuration(fixtures_dir / "octahedral_generic_S.json")
        e22 = eves_invariant(s).point
        e11 = eves_invariant(build_configuration(Weight((1, 1)), s.arity, s.dim, s.colors, s.points)).point
        assert e22.weight.parts == (2, 2) and e11.weight.parts == (1, 1)
        flipped22 = WeightedPoint((-e22.coords[0], -e22.coords[1]), e22.weight)
        assert not wps_equivalent(e22, flipped22)
        flipped11 = WeightedPoint((-e11.coords[0], -e11.coords[1]), e11.weight)
        assert wps_equivalent(e11, flipped11)

    def test_conic_gives_unit_ratio(self, fixtures_dir):
        conic = load_configuration(fixtures_dir / "octahedral_conic.json")
        at_one_one = build_configuration(Weight((1, 1)), conic.arity, conic.dim, conic.colors, conic.points)
        assert wps_equivalent(eves_invariant(at_one_one).point, ONE_ONE)

    def test_collinear_triple_rejected(self):
        coords = [(0, 0), (1, 0), (2, 0), (2, 1), (3, 2), (1, 1)]
        points = {f"p{k}": (1, x, y) for k, (x, y) in enumerate(coords, start=1)}
        with pytest.raises(ConfigurationError, match="dependent"):
            on_points("area_ratio_six_points.json", points)


class TestSignedLength:
    """On a line, the bracket of representatives scaled to x_0 = 1, in a basis of
    two such vectors, is the difference t_2 - t_1 of the endpoints' affine parameters."""

    REPS = {name: (F(1), F(t)) for name, t in [("o", 0), ("u", 1), ("p2", 2), ("p5", 5)]}
    CHART = ((F(1), F(0)), (F(1), F(1)))

    def test_unit_segment(self):
        assert bracket(RTuple(("o", "u")), self.CHART, self.REPS) == 1

    def test_parameter_difference(self):
        assert bracket(RTuple(("p2", "p5")), self.CHART, self.REPS) == 3
        assert bracket(RTuple(("p5", "p2")), self.CHART, self.REPS) == -3

    def test_zero_length_segment(self):
        assert bracket(RTuple(("o", "o")), self.CHART, self.REPS) == 0

    def test_chart_basis_of_another_line_rejected(self):
        # the points lie on the line z = 0 in the plane, and the basis spans the line y = 0
        reps = {"o": (F(1), F(0), F(0)), "u": (F(1), F(1), F(0))}
        basis = ((F(1), F(0), F(0)), (F(1), F(0), F(1)))
        with pytest.raises(ValueError, match="basis does not span"):
            bracket(RTuple(("o", "u")), basis, reps)

    def test_length_ratios_basis_free(self):
        other = ((F(1), F(7)), (F(1), F(4)))  # other start point, other unit, other direction
        seg_a, seg_b = RTuple(("o", "p5")), RTuple(("p2", "u"))
        ratios = [bracket(seg_a, basis, self.REPS) / bracket(seg_b, basis, self.REPS) for basis in (self.CHART, other)]
        assert ratios == [-5, -5]  # (5 - 0) / (1 - 2)
