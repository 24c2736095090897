"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every comparison is exact; there are no numeric tolerances.
"""

import itertools
import math
import random
from fractions import Fraction as F

from eves import (
    BasisChoice,
    FieldKind,
    LinearMorphism,
    Weight,
    WeightedPoint,
    apply_morphism,
    build_configuration,
    check_reconstruction_identity,
    compare,
    eves_invariant,
    eves_invariant_with_choices,
    is_reconstructible,
    load_configuration,
    nonreconstructible_witness,
    product_map,
    validate_h,
    wps_equivalent,
)
from eves import linalg
from eves.oracle import bounded_lambda_search, brute_invariant
from conftest import (
    FIXTURES,
    mat_mul,
    mat_vec,
    rand_nonzero_fraction,
    random_h_configuration,
    random_invertible_matrix,
    random_weighted_point,
)

ONE_ONE = WeightedPoint((F(1), F(1)), Weight((1, 1)))


def wpt(coords, parts):
    return WeightedPoint(tuple(F(c) for c in coords), Weight(tuple(parts)))


def fixture(name):
    return load_configuration(FIXTURES / name)


def all_fixture_configurations():
    for path in sorted(FIXTURES.glob("*.json")):
        if path.name != "projection_matrix.json":
            yield path.name, load_configuration(path)


def done(label):
    print(f"ACCEPTANCE {label}: PASS")


def test_segment_pair_classes_and_reconstruction():
    s = fixture("segment_pair_aligned.json")
    t = fixture("segment_pair_opposed.json")
    es, et = eves_invariant(s).point, eves_invariant(t).point
    assert wps_equivalent(es, wpt([1, 1], [2, 2]))
    assert wps_equivalent(et, wpt([-1, -1], [2, 2]))
    assert not wps_equivalent(es, et)
    for entry_s, entry_t in zip(product_map(es), product_map(et)):
        assert wps_equivalent(entry_s, entry_t)
        assert wps_equivalent(entry_s, ONE_ONE)
        assert wps_equivalent(entry_t, ONE_ONE)
    done("segment-pair fixtures (invariants, inequivalence, equal reconstructions)")


def test_midpoint_triangle_classes_and_projections():
    s = fixture("midpoint_triangle_aligned.json")
    t = fixture("midpoint_triangle_reversed.json")
    es, et = eves_invariant(s).point, eves_invariant(t).point
    assert wps_equivalent(es, wpt([1, 1, 1], [2, 2, 4]))
    assert wps_equivalent(et, wpt([-1, -1, 1], [2, 2, 4]))
    assert not wps_equivalent(es, et)
    for inv in (es, et):
        for component in product_map(inv):
            assert wps_equivalent(component, ONE_ONE)
    done("midpoint-triangle fixtures (classes, pairwise ratios, product map)")


def test_octahedral_fixtures():
    s = fixture("octahedral_generic_S.json")
    t = fixture("octahedral_generic_T.json")
    report = compare(s, t)
    assert report.reconstruction_equal  # equal classical two-color invariants
    assert not report.ep_equivalent     # distinct weighted invariants
    generic_ratio = product_map(eves_invariant(s).point)[0]
    assert not wps_equivalent(generic_ratio, ONE_ONE)
    conic = fixture("octahedral_conic.json")
    conic_ratio = product_map(eves_invariant(conic).point)[0]
    assert wps_equivalent(conic_ratio, ONE_ONE)
    done("octahedral fixtures (unit-weight classes equal, weighted classes differ, conic test)")


def test_cross_ratio_invariance_and_direct_formula():
    cfg = fixture("cross_ratio_quadruple.json")
    rng = random.Random(404)
    values = sorted({F(n, d) for n in range(-9, 10) for d in (1, 2, 3)})
    for _ in range(100):
        # the fixture's colours (d,a),(c,b) and (c,a),(d,b) on four other points of the line
        ts = rng.sample(values, 4)
        points = {name: (F(1), t) for name, t in zip(("alpha", "beta", "gamma", "delta"), ts)}
        quadruple = build_configuration(cfg.weight, cfg.arity, cfg.dim, cfg.colors, points)
        base = eves_invariant(quadruple).point
        for _ in range(20):
            m = LinearMorphism(random_invertible_matrix(rng, 2))
            assert wps_equivalent(eves_invariant(apply_morphism(quadruple, m)).point, base)

    a = cfg.points["alpha"].coords
    b = cfg.points["beta"].coords
    c = cfg.points["gamma"].coords
    d = cfg.points["delta"].coords
    direct = (
        (a[1] * d[0] - a[0] * d[1]) * (b[1] * c[0] - b[0] * c[1]),
        (a[1] * c[0] - a[0] * c[1]) * (b[1] * d[0] - b[0] * d[1]),
    )
    assert eves_invariant(cfg).point.coords == direct
    done("cross-ratio (invariance on 100x20 random cases, direct determinant formula)")


def test_choice_independence_on_random_corpus():
    rng = random.Random(505)
    for _ in range(200):
        cfg = random_h_configuration(rng)
        base = eves_invariant(cfg).point
        reps = {}
        for name, pt in cfg.points.items():
            s = F(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 4))
            reps[name] = tuple(s * x for x in pt.coords)
        bases = {
            s: mat_mul(random_invertible_matrix(rng, cfg.arity), s.basis)
            for s in cfg.subspaces()
        }
        perturbed = eves_invariant_with_choices(
            cfg, BasisChoice(subspace_bases=bases, point_reps=reps)
        ).point
        assert wps_equivalent(base, perturbed)
        assert perturbed.in_dense_locus()
    done("choice independence (200 random admissible configurations, exact)")


def test_morphism_suite():
    rng = random.Random(606)
    for _ in range(40):
        cfg = random_h_configuration(rng)
        base = eves_invariant(cfg).point
        m = LinearMorphism(random_invertible_matrix(rng, cfg.dim + 1))
        image = apply_morphism(cfg, m)
        assert validate_h(image).h_valid
        assert wps_equivalent(eves_invariant(image).point, base)

    source = fixture("projection_source.json")
    m = LinearMorphism(
        ((F(1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0)), (F(0), F(0), F(1), F(0)))
    )
    image = apply_morphism(source, m)
    assert image.dim == 2
    assert validate_h(image).h_valid
    assert wps_equivalent(eves_invariant(image).point, eves_invariant(source).point)
    # degree sums over merged preimages
    image_of = {
        name: linalg.scale_first_nonzero(mat_vec(m.matrix, pt.coords))
        for name, pt in source.points.items()
    }
    merged = [n for n in image.points if n not in source.points]
    assert merged == ["a1+b1"]
    degrees, image_degrees = validate_h(source).point_degrees, validate_h(image).point_degrees
    for img_name, img_pt in image.points.items():
        key = linalg.scale_first_nonzero(img_pt.coords)
        preimages = [n for n, v in image_of.items() if v == key]
        for c in range(len(source.colors)):
            assert image_degrees[img_name][c] == sum(degrees[n][c] for n in preimages)
    done("morphism suite (random projective maps and the collapsing projection)")


def test_reconstruction_identity_everywhere():
    for name, cfg in all_fixture_configurations():
        assert check_reconstruction_identity(cfg, eves_invariant(cfg).point), name
    rng = random.Random(707)
    for _ in range(200):
        cfg = random_h_configuration(rng)
        assert check_reconstruction_identity(cfg, eves_invariant(cfg).point)
    done("projection identity (all fixtures plus 200 random configurations)")


def test_reconstructibility_dichotomy():
    # parity rule on every weight with parts <= 8 and length <= 4
    for length in (2, 3, 4):
        for parts in itertools.product(range(1, 9), repeat=length):
            real = Weight(parts, FieldKind.REAL_LIKE)
            assert is_reconstructible(real) == any(p % 2 == 1 for p in parts)
            assert is_reconstructible(Weight(parts, FieldKind.COMPLEX_LIKE))

    # witness pair for every all-even weight in the same range
    for length in (2, 3, 4):
        for parts in itertools.product((2, 4, 6, 8), repeat=length):
            z, w = nonreconstructible_witness(Weight(parts))
            assert all(
                wps_equivalent(a, b) for a, b in zip(product_map(z), product_map(w))
            )
            assert not wps_equivalent(z, w)

    # injectivity of the product map on dense points when some part is odd
    rng = random.Random(808)
    checked = 0
    while checked < 1000:
        parts = tuple(rng.randint(1, 8) for _ in range(rng.randint(2, 4)))
        if all(p % 2 == 0 for p in parts):
            continue
        weight = Weight(parts)
        z = random_weighted_point(rng, weight)
        g = math.gcd(*parts)
        variants = []
        lam = F(rng.choice([1, 2, 3, 5]), rng.choice([1, 2, 3]))
        variants.append(tuple(lam**p * c for p, c in zip(parts, z.coords)))
        mu = F(rng.choice([2, 3, 5]), rng.choice([1, 2]))
        variants.append(tuple(mu ** (p // g) * c for p, c in zip(parts, z.coords)))
        signs = [rng.choice([1, -1]) for _ in parts]
        variants.append(tuple(s * c for s, c in zip(signs, z.coords)))
        for coords in variants:
            w = WeightedPoint(coords, weight)
            images_equal = all(
                wps_equivalent(a, b) for a, b in zip(product_map(z), product_map(w))
            )
            if images_equal:
                assert wps_equivalent(z, w)
            checked += 1
    done("reconstructibility dichotomy (parity rule, witnesses, injectivity sample)")


def test_oracle_equivalence():
    for name, cfg in all_fixture_configurations():
        assert wps_equivalent(brute_invariant(cfg).point, eves_invariant(cfg).point), name

    rng = random.Random(1010)
    agree = 0
    positives = 0
    negatives = 0
    for _ in range(10_000):
        parts = tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 4)))
        weight = Weight(parts)
        z = WeightedPoint(tuple(rand_nonzero_fraction(rng) for _ in parts), weight)
        height_cap = rng.choice([8] * 7 + [32, 32, 64])
        while True:
            num = rng.randint(1, height_cap)
            den = rng.randint(1, height_cap)
            if math.gcd(num, den) == 1:
                break
        lam = F(rng.choice([num, -num]), den)
        coords = list(lam**p * c for p, c in zip(parts, z.coords))
        expected = True
        if rng.random() < 0.2:
            k = rng.randrange(len(parts))
            coords[k] *= 2  # no real scalar can absorb a one-coordinate stretch
            expected = False
        elif rng.random() < 0.1:
            evens = [i for i, p in enumerate(parts) if p % 2 == 0]
            k = rng.choice(evens) if evens else rng.randrange(len(parts))
            coords[k] = -coords[k]
            expected = False
        w = WeightedPoint(tuple(coords), weight)
        fast = wps_equivalent(z, w)
        slow = bounded_lambda_search(z, w)
        assert fast == slow == expected
        agree += 1
        positives += expected
        negatives += not expected
    assert agree == 10_000 and positives > 1000 and negatives > 1000
    done("oracle equivalence (brute invariant on fixtures, 10^4-pair bounded scalar pool)")
