import random
import re
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from eves import wps
from eves.wps import (
    FieldKind,
    Weight,
    WeightedPoint,
    index_pairs,
    is_reconstructible,
    nonreconstructible_witness,
    pair_exponents,
    parse_rational,
    parse_weight,
    product_map,
    projections_agree,
    reduce_weight,
    wps_equivalent,
)
from conftest import projections_agree_by_equivalence, random_weighted_point


def wpt(coords, parts, field=FieldKind.REAL_LIKE):
    return WeightedPoint(tuple(F(c) for c in coords), Weight(tuple(parts), field))


def scaled(z: WeightedPoint, lam: F) -> WeightedPoint:
    coords = tuple(lam**p * c for p, c in zip(z.weight.parts, z.coords))
    return WeightedPoint(coords, z.weight)


class TestTypes:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            Weight((2,))
        with pytest.raises(ValueError):
            Weight((1, 0))

    @pytest.mark.parametrize("part", [1.5, F(7, 2), True, "3"])
    def test_weight_refuses_non_integer_parts(self, part):
        # int() would truncate 1.5 and 7/2 and read True as 1: a wrong weight, with no error
        with pytest.raises(ValueError, match="weight parts must be integers"):
            Weight((part, 2))

    def test_weight_keeps_integral_parts(self):
        assert Weight((F(4, 2), 2.0)).parts == (2, 2)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            wpt([0, 0], [1, 1])
        with pytest.raises(ValueError):
            WeightedPoint((F(1),), Weight((1, 1)))

    def test_rendering(self):
        assert str(wpt([1, F(-3, 4)], [2, 1])) == "[1 : -3/4]_(2,1)"

    def test_parse_helpers(self):
        assert parse_rational("-3/4") == F(-3, 4)
        assert parse_rational("5") == F(5)
        with pytest.raises(ValueError):
            parse_rational("1.5x")
        assert parse_weight("2,2,4").parts == (2, 2, 4)
        with pytest.raises(ValueError):
            parse_weight("2,b")


def parse_outcome(text):
    """The value ``parse_rational`` returns for the text, or the message it raises."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def parse_outcome_through_fraction(text):
    """``parse_outcome`` with every text sent through ``Fraction``, as plain integers were before their fast path."""
    with mock.patch.object(wps, "_PLAIN_INTEGER", re.compile(r"(?!)")):
        return parse_outcome(text)


PARSE_CORPUS = [
    "0", "7", "007", "-0", "-007", "+5", "--5", "5/-7", "-5/7", "3/4", "3/0", "1_000", "1__0",
    " 7 ", "\t-12\n", "7 7", "\u0663", "-\u0663", "1e3", "1.5", "", " ", "-", "/", "5/",
    "9" * 4096, "-" + "9" * 4095, "9" * 4097, "12a", "0x10", "\uff17", 5, -12, 0,
]


class TestParseRational:
    """Plain ASCII integers take a fast path; every other text goes through ``Fraction``."""

    @pytest.mark.parametrize("text", PARSE_CORPUS, ids=range(len(PARSE_CORPUS)))
    def test_fast_path_parity_on_corpus(self, text):
        self.check(text)

    @given(st.one_of(
        st.from_regex(r"[ ]?[-+]{0,2}[0-9_]{0,8}(/[-+]?[0-9]{0,4})?[ ]?", fullmatch=True),
        st.text(alphabet="0123456789-+/_ .eE\u0663", max_size=10),
        st.integers().map(str),
    ))
    def test_fast_path_parity_on_generated_text(self, text):
        self.check(text)

    @staticmethod
    def check(text):
        outcome = parse_outcome(text)
        assert outcome == parse_outcome_through_fraction(text)
        if not isinstance(outcome, str):
            assert type(outcome) is F
            assert outcome == F(str(text).strip())


class TestEquivalence:
    def test_worked_examples(self):
        assert wps_equivalent(wpt([1, 2], [2, 1]), wpt([4, 4], [2, 1]))
        assert not wps_equivalent(wpt([1, 1], [2, 2]), wpt([-1, -1], [2, 2]))
        z = wpt([F(3, 7), -2, F(1, 5)], [3, 1, 2])
        assert wps_equivalent(z, z)

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wps_equivalent(wpt([1, 1], [1, 1]), wpt([1, 1], [1, 2]))

    def test_complex_scalar_with_even_gcd(self):
        # l = i: l**2 = -1 and l**4 = 1; no real scalar does it
        for parts, b in (([2, 2], [-1, -1]), ([2, 4], [-1, 1])):
            assert wps_equivalent(wpt([1, 1], parts, FieldKind.COMPLEX_LIKE), wpt(b, parts, FieldKind.COMPLEX_LIKE))
            assert not wps_equivalent(wpt([1, 1], parts), wpt(b, parts))

    def test_complex_equivalence_is_agreement_of_projections(self):
        """Over the complex numbers the product map is injective on dense points."""
        rng = random.Random(7)
        for _ in range(2000):
            parts = tuple(rng.choice((1, 2, 3, 4, 6, 8, 12)) for _ in range(rng.randint(2, 4)))
            weight = Weight(parts, FieldKind.COMPLEX_LIKE)
            z = random_weighted_point(rng, weight)
            if rng.random() < 0.8:
                lam = F(rng.choice([1, 2, 3]), rng.choice([1, 2, 5]))
                coords = [rng.choice([-1, 1]) * lam**p * c for p, c in zip(parts, z.coords)]
                w = WeightedPoint(tuple(coords), weight)
            else:
                w = random_weighted_point(rng, weight)
            assert wps_equivalent(z, w) == all(projections_agree(z, w))
            if wps_equivalent(WeightedPoint(z.coords, Weight(parts)), WeightedPoint(w.coords, Weight(parts))):
                assert wps_equivalent(z, w)

    def test_huge_part_skips_the_power(self):
        # g = 3 and mu = 2, so r_0 = 2 would be compared with 2**33333333333333333333
        parts = [10**20 - 1, 3]
        assert not wps_equivalent(wpt([1, 1], parts), wpt([2, 2], parts))
        assert not wps_equivalent(wpt([1, 1], parts), wpt([F(1, 2), F(1, 2)], parts))
        # mu = -1: its powers are built, at any exponent
        assert wps_equivalent(wpt([1, 1], parts), wpt([-1, -1], parts))
        assert not wps_equivalent(wpt([1, 1], parts), wpt([1, -1], parts))

    @pytest.mark.parametrize(
        "b, verdict",
        [([8, 4], True), ([F(1, 8), F(1, 4)], True), ([7, 4], False), ([F(1, 7), F(1, 4)], False), ([16, 4], False)],
    )
    def test_power_bit_bound(self, b, verdict):
        # weight (6,4): g = 2 and r_0 must equal mu**3; on the true pairs mu is 2 or 1/2 and r_0 has 4 bits
        assert wps_equivalent(wpt([1, 1], [6, 4]), wpt(b, [6, 4])) is verdict

    def test_zero_pattern_mismatch(self):
        assert not wps_equivalent(wpt([1, 0], [1, 1]), wpt([1, 1], [1, 1]))
        assert wps_equivalent(wpt([1, 0], [2, 3]), wpt([4, 0], [2, 3]))

    def test_real_scalar_without_rational_root(self):
        # witness scalar is the real fourth root of 4; no rational scalar works
        assert wps_equivalent(wpt([1, 1], [4, 4]), wpt([4, 4], [4, 4]))
        assert wps_equivalent(wpt([1, 1], [3, 3]), wpt([2, 2], [3, 3]))
        assert not wps_equivalent(wpt([1, 1], [4, 4]), wpt([-4, 4], [4, 4]))

    def test_sign_obstruction_with_even_gcd(self):
        assert not wps_equivalent(wpt([1, 1], [2, 4]), wpt([2, -4], [2, 4]))
        assert wps_equivalent(wpt([1, 1], [2, 4]), wpt([2, 4], [2, 4]))

    def test_equivalence_relation_on_random_samples(self):
        rng = random.Random(2024)
        for _ in range(1000):
            parts = tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 4)))
            weight = Weight(parts)
            z = random_weighted_point(rng, weight, dense=False)
            assert wps_equivalent(z, z)
            lam1 = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            lam2 = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            w = scaled(z, lam1)
            v = scaled(w, lam2)
            assert wps_equivalent(z, w) and wps_equivalent(w, z)
            assert wps_equivalent(z, v)  # transitivity along the chain

    @pytest.mark.parametrize("field", list(FieldKind), ids=lambda f: f.value)
    def test_weight_monotonicity(self, field):
        """Equivalence at weight k*p implies equivalence at p: w = l**(k*p) * z is (l**k)**p * z."""
        rng = random.Random(f"monotone-{field.value}")
        finer = coarser = 0
        for _ in range(300):
            parts = tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 4)))
            k = rng.choice((2, 3))
            fine, coarse = Weight(tuple(k * p for p in parts), field), Weight(parts, field)
            z = random_weighted_point(rng, fine, dense=False)
            w = scaled(z, F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
            assert wps_equivalent(z, w)
            c = rng.randrange(len(parts))
            partners = [w] + [
                WeightedPoint(tuple(f * x if n == c else x for n, x in enumerate(w.coords)), fine) for f in (-1, 2)
            ]
            lam = rng.choice([-1, 2])  # a scalar at the coarse weight only
            partners.append(WeightedPoint(tuple(lam**p * x for p, x in zip(parts, z.coords)), fine))
            for v in partners:
                at_coarse = wps_equivalent(WeightedPoint(z.coords, coarse), WeightedPoint(v.coords, coarse))
                if wps_equivalent(z, v):
                    assert at_coarse
                    finer += v is not w
                else:
                    coarser += at_coarse
        assert finer  # perturbed partners equivalent at k*p
        # over the reals some partners are equivalent at p only; over the complex
        # numbers k*p and p define one relation, as ``reduce_weight`` says
        assert bool(coarser) is (field is FieldKind.REAL_LIKE)

    def test_weight_monotonicity_has_no_converse(self):
        assert wps_equivalent(wpt([1, 1], [1, 1]), wpt([-1, -1], [1, 1]))
        assert not wps_equivalent(wpt([1, 1], [2, 2]), wpt([-1, -1], [2, 2]))

    def test_symmetry_on_unrelated_pairs(self):
        rng = random.Random(99)
        for _ in range(300):
            parts = tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 4)))
            weight = Weight(parts)
            z = random_weighted_point(rng, weight)
            w = random_weighted_point(rng, weight)
            assert wps_equivalent(z, w) == wps_equivalent(w, z)


class TestReduceWeight:
    def test_worked_examples(self):
        assert reduce_weight(Weight((3, 3, 3))).parts == (1, 1, 1)
        assert reduce_weight(Weight((4, 2), FieldKind.COMPLEX_LIKE)).parts == (2, 1)
        assert reduce_weight(Weight((2, 1))).parts == (2, 1)

    def test_all_even_keeps_factor_two(self):
        assert reduce_weight(Weight((2, 2))).parts == (2, 2)
        assert reduce_weight(Weight((4, 4))).parts == (2, 2)
        assert reduce_weight(Weight((8, 12))).parts == (4, 6)
        assert reduce_weight(Weight((6, 2))).parts == (6, 2)

    def test_complex_divides_full_gcd(self):
        assert reduce_weight(Weight((6, 9, 12), FieldKind.COMPLEX_LIKE)).parts == (2, 3, 4)

    def test_relation_preserved_on_random_samples(self):
        rng = random.Random(5150)
        for _ in range(400):
            parts = tuple(rng.choice([1, 2, 3, 4, 6, 8, 12]) for _ in range(rng.randint(2, 4)))
            weight = Weight(parts)
            reduced = reduce_weight(weight)
            z = random_weighted_point(rng, weight, dense=False)
            w = random_weighted_point(rng, weight, dense=False)
            z2 = WeightedPoint(z.coords, reduced)
            w2 = WeightedPoint(w.coords, reduced)
            assert wps_equivalent(z, w) == wps_equivalent(z2, w2)
            lam = F(rng.choice([-3, -2, 2, 3]), rng.randint(1, 2))
            assert wps_equivalent(z, scaled(z, lam))
            assert wps_equivalent(z2, WeightedPoint(scaled(z, lam).coords, reduced))


class TestAxisProjections:
    def test_pair_exponents_worked_example(self):
        assert pair_exponents(Weight((2, 2, 4))) == ((0, 1, 1, 1), (0, 2, 2, 1), (1, 2, 2, 1))
        assert pair_exponents(Weight((1, 1))) == ((0, 1, 1, 1),)

    def test_apply_worked_examples(self):
        # pair (0, 2) of weight (2, 2, 4) is [z_0**2 : z_2]
        assert product_map(wpt([1, 1, 1], [2, 2, 4]))[1].coords == (F(1), F(1))
        assert product_map(wpt([-1, -1, 1], [2, 2, 4]))[1].coords == (F(1), F(1))
        assert product_map(wpt([1, 5, 0], [2, 2, 4]))[1].coords == (F(1), F(0))
        assert product_map(wpt([2, 3, 5], [2, 2, 4]))[1].coords == (F(4), F(5))

    def test_apply_outside_domain(self):
        # pair (0, 1) has both coordinates zero: [0 : 0] is no point
        with pytest.raises(ValueError, match="must not all be zero"):
            product_map(wpt([0, 0, 1], [2, 2, 4]))

    def test_product_map_worked_examples(self):
        one_one = wpt([1, 1], [1, 1])
        for img in product_map(wpt([1, 1, 1], [2, 2, 4])):
            assert wps_equivalent(img, one_one)
        for img in product_map(wpt([-1, -1, 1], [2, 2, 4])):
            assert wps_equivalent(img, one_one)
        assert product_map(wpt([1, 2], [1, 1]))[0].coords == (F(1), F(2))

    def test_product_map_shape(self):
        imgs = product_map(wpt([1, 2, 3, 4], [1, 2, 3, 4]))
        assert len(imgs) == 6
        assert index_pairs(Weight((1, 2, 3, 4))) == (
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        )

    def test_projections_well_defined_on_classes(self):
        rng = random.Random(31)
        for _ in range(200):
            parts = tuple(rng.randint(1, 5) for _ in range(rng.randint(2, 4)))
            weight = Weight(parts)
            z = random_weighted_point(rng, weight)
            w = scaled(z, F(rng.choice([-3, -2, 2, 3]), rng.randint(1, 3)))
            for zp, wp in zip(product_map(z), product_map(w)):
                assert wps_equivalent(zp, wp)


# odd parts only, even parts only, and both
AGREEMENT_WEIGHTS = (
    (1, 1), (3, 5), (1, 3, 5), (3, 7, 9, 1),
    (2, 2), (2, 4), (2, 2, 4), (4, 6, 8), (2, 4, 6, 8),
    (1, 2), (2, 3), (3, 6), (2, 3, 5), (1, 2, 3, 4),
)


def agreement_partners(rng, z):
    """z rescaled by l**p_k, z with one coordinate negated, z with one
    coordinate doubled, and an unrelated dense point."""
    yield scaled(z, F(rng.choice([-3, -2, -1, 2, 3]), rng.randint(1, 4)))
    for factor in (-1, 2):
        coords = list(z.coords)
        coords[rng.randrange(len(coords))] *= factor
        yield WeightedPoint(tuple(coords), z.weight)
    yield random_weighted_point(rng, z.weight)


class TestProjectionsAgree:
    def test_worked_examples(self):
        assert projections_agree(wpt([1, 1], [1, 1]), wpt([3, 3], [1, 1])) == (True,)
        assert projections_agree(wpt([1, 1], [1, 1]), wpt([1, 2], [1, 1])) == (False,)
        # the (2,2) witness pair: inequivalent, with equal projections
        assert projections_agree(wpt([1, 1], [2, 2]), wpt([-1, -1], [2, 2])) == (True,)
        assert projections_agree(wpt([1, 1, 1], [2, 2, 4]), wpt([1, -1, 1], [2, 2, 4])) == (False, True, True)
        assert projections_agree(wpt([1, 2, 3, 4], [1, 2, 3, 4]), wpt([1, 2, 3, 4], [1, 2, 3, 4])) == (True,) * 6

    def test_zero_coordinates_of_w_never_agree(self):
        z = wpt([1, 1, 1], [1, 2, 3])
        assert projections_agree(z, wpt([0, 1, 1], [1, 2, 3])) == (False, False, True)
        assert projections_agree(z, wpt([0, 0, 1], [1, 2, 3])) == (False, False, False)

    def test_refusals(self):
        with pytest.raises(ValueError, match="different weighted projective spaces"):
            projections_agree(wpt([1, 1], [1, 1]), wpt([1, 1], [2, 2]))
        with pytest.raises(ValueError, match="zero coordinate"):
            projections_agree(wpt([1, 0], [1, 1]), wpt([1, 1], [1, 1]))

    def test_complex_like_weight(self):
        # the ratio equation asks nothing of the field, so no ValueError here
        z, w = wpt([1, 1], [2, 4], FieldKind.COMPLEX_LIKE), wpt([2, 4], [2, 4], FieldKind.COMPLEX_LIKE)
        assert projections_agree(z, w) == (True,)
        assert projections_agree(z, wpt([1, 2], [2, 4], FieldKind.COMPLEX_LIKE)) == (False,)

    def test_matches_pairwise_equivalence(self):
        rng = random.Random(43)
        seen = set()
        for parts in AGREEMENT_WEIGHTS:
            for _ in range(30):
                z = random_weighted_point(rng, Weight(parts))
                for w in agreement_partners(rng, z):
                    verdicts = projections_agree(z, w)
                    assert verdicts == projections_agree_by_equivalence(z, w), (z, w)
                    seen.update(verdicts)
        assert seen == {True, False}


class TestReconstructibility:
    def test_worked_examples(self):
        assert not is_reconstructible(Weight((2, 2)))
        assert is_reconstructible(Weight((1, 6, 4)))
        assert is_reconstructible(Weight((2, 2, 4), FieldKind.COMPLEX_LIKE))

    def test_witness_worked_examples(self):
        z, w = nonreconstructible_witness(Weight((2, 2, 4)))
        assert (z.coords, w.coords) == ((F(1), F(1), F(1)), (F(-1), F(-1), F(1)))
        z, w = nonreconstructible_witness(Weight((2, 2)))
        assert w.coords == (F(-1), F(-1))
        z, w = nonreconstructible_witness(Weight((4, 2)))
        assert w.coords == (F(1), F(-1))

    def test_witness_requires_all_even(self):
        with pytest.raises(ValueError):
            nonreconstructible_witness(Weight((2, 3)))
        with pytest.raises(ValueError):
            nonreconstructible_witness(Weight((2, 2), FieldKind.COMPLEX_LIKE))

    @given(st.lists(st.integers(1, 4), min_size=2, max_size=4).map(lambda p: tuple(2 * x for x in p)))
    def test_witness_pair_property(self, parts):
        weight = Weight(parts)
        z, w = nonreconstructible_witness(weight)
        assert all(
            wps_equivalent(a, b) for a, b in zip(product_map(z), product_map(w))
        )
        assert not wps_equivalent(z, w)

    def test_odd_part_injectivity_on_dense_points(self):
        # equal product-map images force equivalence when some part is odd
        rng = random.Random(888)
        for _ in range(250):
            parts = tuple(rng.randint(1, 8) for _ in range(rng.randint(2, 4)))
            if all(p % 2 == 0 for p in parts):
                parts = parts[:-1] + (parts[-1] + 1,)
            weight = Weight(parts)
            z = random_weighted_point(rng, weight)
            for signs in ([1] * len(parts), [rng.choice([1, -1]) for _ in parts]):
                lam = F(rng.choice([1, 2, 3]), rng.randint(1, 2))
                w = WeightedPoint(
                    tuple(s * lam**p * c for s, p, c in zip(signs, weight.parts, z.coords)),
                    weight,
                )
                images_equal = all(
                    wps_equivalent(a, b) for a, b in zip(product_map(z), product_map(w))
                )
                if images_equal:
                    assert wps_equivalent(z, w)

    def test_contract_with_projections_agree(self):
        # w = (e_k * lam**p_k * z_k) with random signs e_k: on a reconstructible weight,
        # all projections agree exactly when z ~ w; an all-even weight has agreeing
        # pairs that are not equivalent
        rng = random.Random(2024)
        reconstructible_agreeing = even_agreeing_inequivalent = 0
        for _ in range(3000):
            weight = Weight(tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 4))))
            z = random_weighted_point(rng, weight)
            lam = F(rng.choice([1, 2, 3, 5]), rng.randint(1, 3)) * rng.choice([1, -1])
            signs = [rng.choice([1, -1]) for _ in weight.parts]
            w = WeightedPoint(tuple(s * lam**p * c for s, p, c in zip(signs, weight.parts, z.coords)), weight)
            agree, equivalent = all(projections_agree(z, w)), wps_equivalent(z, w)
            if is_reconstructible(weight):
                assert agree == equivalent, (z, w)
                reconstructible_agreeing += agree
            else:
                even_agreeing_inequivalent += agree and not equivalent
        assert reconstructible_agreeing > 0 and even_agreeing_inequivalent > 0
