"""The integer kernels against independent Fraction references in ``eves.oracle``.

Matrices mix zeros, small rationals and rationals with numerators and
denominators up to 10^12, with zero columns and dependent rows, from one row
up to square.
"""

import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from eves import (
    ConfigurationError,
    LinearMorphism,
    RTuple,
    Subspace,
    Weight,
    apply_morphism,
    bracket,
    build_configuration,
    eves_invariant,
    linalg,
    wps_equivalent,
)
from eves.oracle import _cofactor_det, _plucker, brute_invariant
from conftest import _in_span, det, random_h_configuration, random_simplex_configuration

BIG = 10**12


def big_rational(rng: random.Random) -> F:
    return F(rng.randint(-BIG, BIG), rng.randint(1, BIG))


entries = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(F, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


@st.composite
def matrices(draw, square: bool = False):
    width = draw(st.integers(1, 5))
    height = width if square else draw(st.integers(1, width))
    rows = [[draw(entries) for _ in range(width)] for _ in range(height)]
    for c in draw(st.sets(st.integers(0, width - 1), max_size=2)):
        for row in rows:
            row[c] = F(0)
    if height > 1 and draw(st.booleans()):  # make the last row depend on the others
        coeffs = [draw(entries) for _ in range(height - 1)]
        rows[-1] = [sum(a * row[c] for a, row in zip(coeffs, rows)) for c in range(width)]
    return [tuple(row) for row in rows]


def lead_columns(rows) -> tuple[int, ...]:
    """The columns of the first nonzero r×r minor of full-rank rows: those of
    the first Plücker key entry equal to 1."""
    key = _plucker(list(rows))[0]
    return list(combinations(range(len(rows[0])), len(rows)))[key.index(1)]


def oracle_rank(rows) -> int:
    """The largest k with a nonzero k-minor."""
    for k in range(len(rows), 0, -1):
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(len(rows[0])), k):
                if _cofactor_det([[rows[r][c] for c in cs] for r in rs]) != 0:
                    return k
    return 0


@given(matrices())
def test_rref_rank_and_pivots_agree_with_minors(rows):
    reduced, rk = linalg.rref(rows)
    assert rk == len(reduced) == oracle_rank(rows) == linalg.rank(rows)
    if rk == len(rows):
        assert Subspace(reduced).pivots == lead_columns(rows)
    else:
        with pytest.raises(ValueError, match="dependent"):
            _plucker(rows)
    if rk:  # a rank-0 matrix spans no Subspace: ``Subspace(())`` is refused
        assert all(_in_span(list(reduced), row) for row in rows)
        assert Subspace(reduced).pivots == lead_columns(reduced)


@given(matrices())
def test_integer_echelon_is_primitive_and_scales_to_rref(rows):
    echelon, pivots, _ = linalg.integer_echelon_minor([linalg.clear_denominators(row)[0] for row in rows])
    reduced, rk = linalg.rref(rows)
    assert pivots == (lead_columns(reduced) if rk else ())
    for row, ref, c in zip(echelon, reduced, pivots):
        assert row[c] > 0 and math.gcd(*row) == 1
        assert tuple(F(x, row[c]) for x in row) == ref


@given(matrices())
def test_signed_last_pivot_is_the_pivot_block_det(rows):
    ints = [linalg.clear_denominators(row)[0] for row in rows]
    echelon, pivots, minor = linalg.integer_echelon_minor(ints)
    if len(pivots) == len(rows):
        span = Subspace(linalg.rref(rows)[0])
        assert span.pivots == pivots
        assert minor == span.minor(ints) == _cofactor_det([[row[c] for c in pivots] for row in ints]) != 0


def test_ragged_rows_refused():
    with pytest.raises(ValueError, match="unequal lengths"):
        linalg.rank(((F(1), F(0), F(3)), (F(0), F(1))))
    with pytest.raises(ValueError, match="unequal lengths"):
        linalg.rref(((F(1), F(0)), (F(0), F(1), F(5))))


def eliminated(rows):
    """``rref`` without its reduced-input shortcut: the elimination it falls back to."""
    ints = [linalg.clear_denominators(linalg.vec(row))[0] for row in rows]
    echelon, pivots, _ = linalg.integer_echelon_minor(ints)
    return tuple(linalg.scale_first_nonzero(row) for row in echelon), len(pivots)


def one_defect_away(reduced, i, j):
    """Inputs that differ from the reduced basis of full rank by one defect,
    named by the defect; 0 <= i < j < len(reduced), or i == j for one row."""
    rows = list(reduced)
    defects = {
        "pivot-two": rows[:i] + [tuple(2 * x for x in rows[i])] + rows[i + 1:],
        "zero-row": rows[:i] + [(F(0),) * len(rows[0])] + rows[i:],
        "repeated-row": rows[:i + 1] + [rows[i]] + rows[i + 1:],
        "int-entries": rows[:i] + [tuple(int(x) if x.denominator == 1 else x for x in rows[i])] + rows[i + 1:],
        "list-rows": [list(row) for row in rows],
    }
    if i < j:
        above = rows[:i] + [tuple(x + y for x, y in zip(rows[i], rows[j]))] + rows[i + 1:]
        swapped = rows[:]
        swapped[i], swapped[j] = rows[j], rows[i]
        defects.update({"nonzero-above-pivot": above, "rows-swapped": swapped})
    # the list rows stay in a list; the other inputs are tuples, as from ``mat``
    return {name: rows if name == "list-rows" else tuple(rows) for name, rows in defects.items()}


@given(matrices(), st.data())
def test_reduced_input_is_returned_as_it_is(rows, data):
    reduced, rk = linalg.rref(rows)
    again = linalg.rref(reduced)
    assert again == (reduced, rk)
    if not rk:
        return
    assert again[0] is reduced
    i = data.draw(st.integers(0, rk - 1))
    j = data.draw(st.integers(i, rk - 1))
    for name, variant in one_defect_away(reduced, i, j).items():
        result = linalg.rref(variant)
        assert result == eliminated(variant) == (reduced, rk), name
        assert result[0] is not variant, name
        if name in ("int-entries", "list-rows"):  # the same basis, read by ``mat``
            assert Subspace(variant) == Subspace(reduced)
        else:
            with pytest.raises(ConfigurationError, match="reduced echelon rows of full rank"):
                Subspace(variant)
    longer = reduced[-1] + (F(0),)
    for ragged in (reduced + ((F(0),) * len(longer),), reduced[:-1] + (longer,)):
        if len(ragged) > 1:
            with pytest.raises(ValueError, match="^matrix rows have unequal lengths$"):
                linalg.rref(ragged)


@pytest.mark.parametrize("basis", [
    ((F(1), F(2), F(0)), (F(2), F(4), F(0))),  # dependent
    ((F(1), F(0), F(2)), (F(0), F(0), F(0))),  # a zero row
    ((F(1), F(2), F(0)), (F(0), F(1), F(3))),  # echelon, with a nonzero above a pivot
    ((F(0), F(1), F(3)), (F(1), F(0), F(0))),  # reduced rows out of order
    ((F(1), F(0), F(0)), (F(0), F(2), F(4))),  # a pivot of 2
], ids=["dependent", "zero-row", "not-reduced", "out-of-order", "pivot-two"])
def test_subspace_refuses_bases_that_are_not_reduced_of_full_rank(basis):
    with pytest.raises(ConfigurationError, match="^subspace basis must be reduced echelon rows of full rank$"):
        Subspace(basis)


@given(matrices(), st.lists(entries, min_size=5, max_size=5), st.booleans())
def test_membership_agrees_with_minors(rows, values, combine):
    reduced, rk = linalg.rref(rows)
    if rk == 0:
        return
    if combine:  # a vector of the span, unless every coefficient vanishes
        v = tuple(sum(a * row[c] for a, row in zip(values, rows)) for c in range(len(rows[0])))
    else:
        v = tuple(values[: len(rows[0])])
    expected = _in_span(list(reduced), v)
    span = Subspace(reduced)
    u = linalg.clear_denominators(v)[0]
    assert span.contains_integer(u) == span.contains_integer([-3 * x for x in u]) == expected


@given(matrices(), st.data())
def test_minor_is_the_determinant_in_the_echelon_basis(rows, data):
    reduced, rk = linalg.rref(rows)
    if rk == 0:
        return
    span = Subspace(reduced)
    basis = list(reduced)
    coeffs = st.lists(st.lists(st.integers(-BIG, BIG), min_size=rk, max_size=rk), min_size=rk, max_size=rk)
    combos = data.draw(coeffs)
    # member k is combination k of R's rows times its lcm d_k, so its coordinates in R are d_k times the combination
    cleared = [
        linalg.clear_denominators([sum(a * row[c] for a, row in zip(combo, basis)) for c in range(len(basis[0]))])
        for combo in combos
    ]
    members = [u for u, _ in cleared]
    assert all(span.contains_integer(u) for u in members)
    assert span.minor(members) == _cofactor_det(combos) * math.prod(d for _, d in cleared)


@given(matrices(square=True))
def test_det_agrees_with_cofactor_expansion(rows):
    assert det(rows) == _cofactor_det([list(row) for row in rows])


integers = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-BIG, BIG))


@given(st.integers(0, 6), st.data())
def test_integer_det_agrees_with_det_in_closed_form_and_by_elimination(n, data):
    rows = [[data.draw(integers) for _ in range(n)] for _ in range(n)]
    if n > 1 and data.draw(st.booleans()):  # make the last row depend on the others
        coeffs = [data.draw(integers) for _ in range(n - 1)]
        rows[-1] = [sum(a * row[c] for a, row in zip(coeffs, rows)) for c in range(n)]
    expected = _cofactor_det(rows) if n else 1
    before = [row[:] for row in rows]
    assert linalg.integer_det(rows) == det(rows) == expected
    assert rows == before  # callers reuse their rows
    height = max(n, 1)
    width = data.draw(st.integers(0, 5).filter(lambda w: w != height))
    with pytest.raises(ValueError, match="square"):
        linalg.integer_det([[1] * width for _ in range(height)])


@given(st.integers(1, 4), st.data())
def test_bracket_in_non_echelon_scaled_basis_is_read_off_its_construction(r, data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    width = data.draw(st.integers(r, 5))
    while True:
        members = [tuple(big_rational(rng) for _ in range(width)) for _ in range(r)]
        mix = [[F(rng.randint(-3, 3)) for _ in range(r)] for _ in range(r)]
        if linalg.rank(members) == r and det(mix) != 0:
            break
    # another basis of the members' span, each row scaled by a nonzero large rational
    scales = [big_rational(rng) or F(1) for _ in range(2 * r)]
    basis = [
        tuple(s * sum(a * m[c] for a, m in zip(coeffs, members)) for c in range(width))
        for s, coeffs in zip(scales, mix)
    ]
    names = [f"m{k}" for k in range(r)]
    reps = {name: tuple(s * x for x in m) for name, s, m in zip(names, scales[r:], members)}
    # the members are mix⁻¹ times the basis rows over their scales, so the bracket is a ratio of known factors
    expected = math.prod(scales[r:]) / (_cofactor_det(mix) * math.prod(scales[:r]))
    assert bracket(RTuple(tuple(names)), basis, reps) == expected


def with_large_denominators(cfg, rng):
    """The image of cfg under a random invertible map with entries up to 10^12 over 10^12."""
    n = cfg.dim + 1
    while True:
        m = tuple(tuple(big_rational(rng) for _ in range(n)) for _ in range(n))
        if det(m) != 0:
            return apply_morphism(cfg, LinearMorphism(m))


def test_brute_invariant_agrees_on_large_denominators():
    rng = random.Random(61)
    corpus = [random_h_configuration(rng) for _ in range(12)] + [random_simplex_configuration(rng) for _ in range(12)]
    for cfg in corpus:
        image = with_large_denominators(cfg, rng)
        assert max(x.denominator for p in image.points.values() for x in p.coords) > 10**6
        value = eves_invariant(image).point
        assert wps_equivalent(value, brute_invariant(image).point)
        assert wps_equivalent(value, eves_invariant(cfg).point)


def test_dependent_tuple_rejected_with_large_denominators():
    rng = random.Random(67)
    a = tuple(big_rational(rng) for _ in range(3))
    b = tuple(F(-7, BIG + 1) * x for x in a)
    pts = {"a": a, "b": b, "c": (F(1), F(0), F(0))}
    with pytest.raises(ConfigurationError) as err:
        build_configuration(Weight((1, 1)), 2, 2, [[("a", "c")], [("a", "b")]], pts)
    assert str(err.value) == "colors[1][0]: dependent r-tuple ('a', 'b')"
