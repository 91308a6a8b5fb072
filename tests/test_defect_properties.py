"""Property tests for the defect layer: primitive integer points and rank."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from moninf import defect  # noqa: E402
from moninf.defect import (  # noqa: E402
    ProjectivePointSet,
    defect_of_system,
    monomial_exponents,
)
from moninf.modp import PRIME  # noqa: E402
from test_defect import (  # noqa: E402
    _defect_by_fraction_elimination,
    _projectively_equal,
    _run_powers,
)

# small numerators and denominators, so collinear and coplanar subsets
# (nonzero defects) come up often
RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
NONZERO = st.builds(Fraction, st.integers(1, 50), st.integers(1, 50)) | \
    st.builds(Fraction, st.integers(-50, -1), st.integers(1, 50))


# coordinates of every size and sign: small, +-PRIME and its multiples
# (entries 0 mod PRIME), and beyond 2^64
COORDINATES = st.integers(-9, 9) | st.sampled_from([-PRIME, PRIME]) | \
    st.builds(int.__mul__, st.integers(-3, 3), st.just(PRIME)) | \
    st.builds(int.__add__, st.sampled_from([-2**64, 2**64, 2**70]),
              st.integers(-PRIME, PRIME))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(deadline=None)
@given(data=st.data())
def test_evaluation_rows_are_the_monomials_at_the_point(n, data):
    point = data.draw(st.tuples(*[COORDINATES] * (n + 1)))
    for q in range(9):
        exps = monomial_exponents(n, q)
        expected = [math.prod(c ** e for c, e in zip(point, exp))
                    for exp in exps]
        assert defect._evaluation_row(point, _run_powers(n, q), q) == \
            expected
        row = defect._evaluation_row(point, _run_powers(n, q), q, PRIME)
        assert row == [x % PRIME for x in expected]
        assert all(type(x) is int and 0 <= x < PRIME for x in row)
        for x, exp in zip(row, exps):
            if any(e and not c % PRIME for c, e in zip(point, exp)):
                assert x == 0


@given(point=st.lists(RATIONALS, min_size=2, max_size=5).filter(any),
       scale=NONZERO)
def test_scaled_points_store_one_primitive_tuple(point, scale):
    n = len(point) - 1
    stored = ProjectivePointSet(n, (tuple(point),)).points[0]
    scaled = ProjectivePointSet(n, (tuple(c * scale for c in point),))
    assert scaled.points[0] == stored
    assert all(type(c) is int for c in stored)
    assert math.gcd(*stored) == 1
    assert next(c for c in stored if c) > 0
    assert _projectively_equal(stored, point)


@st.composite
def _point_sets(draw):
    n = draw(st.integers(1, 3))
    raw = draw(st.lists(st.tuples(*[RATIONALS] * (n + 1)).filter(any),
                        max_size=7))
    # a copy of a point with one coordinate moved by +-PRIME is a new point
    # over Q but (up to scaling) the same point mod PRIME: the unlucky case
    for index, coord, shift in draw(st.lists(st.tuples(
            st.integers(0, 6), st.integers(0, n),
            st.sampled_from([-PRIME, PRIME])), max_size=2)):
        if index < len(raw):
            moved = list(raw[index])
            moved[coord] += shift
            raw.append(tuple(moved))
    points = []
    for point in raw:
        if not any(_projectively_equal(point, p) for p in points):
            points.append(point)
    # q runs past k - 1, where the defect is 0 without a matrix
    return n, points, draw(st.integers(0, 5))


@settings(deadline=None)
@given(_point_sets())
def test_defect_matches_fraction_elimination_on_random_sets(case):
    n, points, q = case
    pts = ProjectivePointSet(n, tuple(points))
    assert defect_of_system(pts, q) == \
        _defect_by_fraction_elimination(n, points, q)
