"""Tests for linear-system defects through projective point sets."""

from __future__ import annotations

import builtins
import itertools
import math
import random
from fractions import Fraction

import pytest

from moninf import defect
from moninf.defect import (
    ProjectivePointSet,
    defect_of_system,
    monomial_exponents,
    nodal_beta,
)
from moninf.modp import PRIME


def _fraction_rank(rows: list[list[Fraction]]) -> int:
    # plain rational Gaussian elimination, independent of the package's
    # integer fraction-free route
    rows = [row[:] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        piv_row = [x / rows[rank][col] for x in rows[rank]]
        rows[rank] = piv_row
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], piv_row)]
        rank += 1
    return rank


def _defect_by_fraction_elimination(n: int, points, q: int) -> int:
    # evaluates the raw rational input points on monomials enumerated by
    # brute force, so it shares no code with the package's normalization
    exps = [exp for exp in itertools.product(range(q + 1), repeat=n + 1)
            if sum(exp) == q]
    rows = [[math.prod((Fraction(c) ** e for c, e in zip(point, exp)),
                       start=Fraction(1))
             for exp in exps]
            for point in points]
    return len(points) - _fraction_rank(rows)


def _projectively_equal(p, r) -> bool:
    return all(a * d == b * c for (a, b), (c, d) in
               itertools.combinations(zip(p, r), 2))


def _generic_line_nodes(d: int) -> ProjectivePointSet:
    # pairwise intersections of the lines y = i*x + i^2*z, i = 1..d;
    # the lines are tangent to a smooth conic, so no three are concurrent
    points = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            points.append((Fraction(-(i + j)), Fraction(-i * j), Fraction(1)))
    return ProjectivePointSet(2, tuple(points))


def test_point_set_normalization_and_equality():
    pts = ProjectivePointSet(2, ((Fraction(2), Fraction(4), Fraction(0)),))
    assert pts.points == ((1, 2, 0),)
    pts = ProjectivePointSet(2, ((Fraction(0), Fraction(-2, 3), Fraction(1, 2)),
                                 (Fraction(-6), Fraction(3), Fraction(9))))
    assert pts.points == ((0, 4, -3), (2, -1, -3))
    with pytest.raises(ValueError):
        ProjectivePointSet(2, ((Fraction(0), Fraction(0), Fraction(0)),))
    with pytest.raises(ValueError):
        ProjectivePointSet(2, ((Fraction(1), Fraction(2)),))
    with pytest.raises(ValueError):  # projectively equal points
        ProjectivePointSet(2, ((Fraction(1), Fraction(2), Fraction(3)),
                               (Fraction(2), Fraction(4), Fraction(6))))


def test_point_set_json():
    pts = ProjectivePointSet.from_json([["1", "0", "1"], ["0", "1", "-1/2"]])
    assert pts.dim == 2
    assert len(pts) == 2
    assert pts.points == ((1, 0, 1), (0, 2, -1))
    assert ProjectivePointSet.from_json([], dim=3).points == ()
    with pytest.raises(ValueError):
        ProjectivePointSet.from_json([], dim=None)
    with pytest.raises(ValueError):
        ProjectivePointSet.from_json([["1", "x"]])
    with pytest.raises(ValueError):
        ProjectivePointSet.from_json([["1", "1/0"]])
    with pytest.raises(ValueError):
        ProjectivePointSet.from_json("points")
    with pytest.raises(ValueError):
        ProjectivePointSet.from_json([["1", "0"], ["1", "0", "0"]])


def test_point_set_json_parses_each_coordinate_once(monkeypatch):
    # a string that matched the coordinate pattern is read by int at its
    # "/", never handed to Fraction's own parser
    class NoStrings(Fraction):
        def __new__(cls, numerator=0, denominator=None):
            assert not isinstance(numerator, str), numerator
            return Fraction(numerator, denominator)

    monkeypatch.setattr(defect, "Fraction", NoStrings)
    pts = ProjectivePointSet.from_json([[" -3/4 ", "2", 5], ["7/2", "0", "1"]])
    assert pts.points == ((3, -8, -20), (7, 0, 2))
    with pytest.raises(ValueError, match="invalid rational coordinate '1/0'"):
        ProjectivePointSet.from_json([["1", "1/0"]])


def test_monomial_exponents_order_and_count():
    assert monomial_exponents(2, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert monomial_exponents(2, 2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    for n in range(1, 4):
        for q in range(0, 5):
            assert len(monomial_exponents(n, q)) == math.comb(n + q, n)


def test_three_collinear_points_give_pencil_defect():
    pts = ProjectivePointSet(2, tuple(
        (Fraction(t), Fraction(0), Fraction(1)) for t in (0, 1, 2)))
    assert defect_of_system(pts, 1) == 1
    # same three points impose independent conditions on conics
    assert defect_of_system(pts, 2) == 0


def test_six_points_on_a_conic():
    pts = ProjectivePointSet(2, tuple(
        (Fraction(t * t), Fraction(t), Fraction(1)) for t in range(6)))
    assert defect_of_system(pts, 2) == 1
    assert defect_of_system(pts, 3) == 0


def test_empty_point_set_has_zero_defect():
    pts = ProjectivePointSet.from_json([], dim=2)
    assert defect_of_system(pts, 3) == 0


def test_defect_matches_fraction_elimination():
    rng = random.Random(321)
    for _ in range(25):
        n = rng.randrange(1, 4)
        k = rng.randrange(1, 8)
        points = []
        while len(points) < k:
            candidate = tuple(
                Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                for _ in range(n + 1))
            if any(candidate) and not any(
                    _projectively_equal(candidate, p) for p in points):
                points.append(candidate)
        pts = ProjectivePointSet(n, tuple(points))
        q = rng.randrange(0, 4)
        assert defect_of_system(pts, q) == \
            _defect_by_fraction_elimination(n, points, q)


def _spy_on_integer_rank(monkeypatch) -> list[int]:
    # records the number of rows of every exact rank computation
    sizes = []
    exact = defect._integer_rank

    def spy(rows):
        sizes.append(len(rows))
        return exact(rows)

    monkeypatch.setattr(defect, "_integer_rank", spy)
    return sizes


def test_modulus_is_prime():
    assert PRIME == 2**31 - 1
    assert all(PRIME % f for f in range(2, math.isqrt(PRIME) + 1))


def test_unlucky_prime_falls_back_to_the_full_matrix(monkeypatch):
    # distinct over Q, equal modulo PRIME: the mod-p rank 2 is too low,
    # the check on the support rows fails and the whole matrix is redone
    points = [(1, 0, 0), (1, PRIME, 0), (0, 0, 1)]
    sizes = _spy_on_integer_rank(monkeypatch)
    pts = ProjectivePointSet(2, tuple(points))
    assert defect_of_system(pts, 1) == \
        _defect_by_fraction_elimination(2, points, 1) == 0
    assert sizes == [2, 3]


def test_full_rank_mod_p_needs_no_exact_arithmetic(monkeypatch):
    def refuse(rows):
        raise AssertionError("exact rank computed")

    monkeypatch.setattr(defect, "_integer_rank", refuse)
    rng = random.Random(5)
    # k <= #columns: rank k; k > #columns: rank #columns
    for n, q, k in ((2, 3, 8), (3, 2, 10), (2, 2, 9), (3, 1, 7)):
        points = set()
        while len(points) < k:
            points.add((1,) + tuple(rng.randrange(-40, 41) for _ in range(n)))
        points = sorted(points)
        assert defect_of_system(ProjectivePointSet(n, tuple(points)), q) == \
            _defect_by_fraction_elimination(n, points, q) == \
            max(0, k - math.comb(n + q, n))


def test_collinear_points_check_only_their_own_rows(monkeypatch):
    # j points on a line impose q + 1 conditions in degree q; the relations
    # among them mod p involve only them, wherever they sit in the order
    rng = random.Random(11)
    n, q, j = 3, 3, 8
    points = [(1, t, 2 * t - 1, 3 - t) for t in range(j)]
    while len(points) < 16:
        point = (1,) + tuple(rng.randrange(-20, 21) for _ in range(n))
        if point not in points:
            points.append(point)
    rng.shuffle(points)
    sizes = _spy_on_integer_rank(monkeypatch)
    assert defect_of_system(ProjectivePointSet(n, tuple(points)), q) == \
        _defect_by_fraction_elimination(n, points, q) == j - (q + 1)
    assert len(sizes) == 1 and sizes[0] <= j


def test_conic_defect_is_the_same_in_both_coordinate_orders():
    # (t^2, t, 1) and (1, t, t^2) only permute the columns of E; with the
    # largest powers in the first columns the exact check used to take
    # minutes on sets not much larger than this one
    for order in (slice(None), slice(None, None, -1)):
        points = [(t * t, t, 1)[order] for t in range(1, 81)]
        assert defect_of_system(ProjectivePointSet(2, tuple(points)), 20) == \
            80 - (2 * 20 + 1)


def _run_powers(n: int, q: int) -> list[int]:
    # the first exponents of the runs of monomial_exponents(n, q)
    return [e for e, _ in itertools.groupby(
        exp[0] for exp in monomial_exponents(n, q))]


def test_exact_rank_takes_the_columns_by_size(monkeypatch):
    # the monomials come largest power first, so the given columns are in
    # decreasing order of size; the elimination starts from them reordered
    powers = _run_powers(2, 4)
    rows = [defect._evaluation_row((t * t, t, 1), powers, 4)
            for t in range(1, 13)]
    started = []

    def spy(row):
        started.append(builtins.list(row))
        return builtins.list(row)

    monkeypatch.setattr(defect, "list", spy, raising=False)
    assert defect._integer_rank(rows) == 2 * 4 + 1
    largest = [max(map(abs, col)) for col in zip(*started)]
    assert largest == sorted(largest)
    assert largest != [max(map(abs, col)) for col in zip(*rows)]
    assert sorted(zip(*started)) == sorted(zip(*rows))


def test_monomial_exponents_runs_once_per_matrix(monkeypatch):
    # the mod-p rows, the rows of the support check and those of the
    # fallback all come from the runs of one call; a system that needs no
    # matrix (q >= k - 1) makes none
    calls = []
    enumerate_exponents = defect.monomial_exponents

    def spy(n, q):
        calls.append((n, q))
        return enumerate_exponents(n, q)

    monkeypatch.setattr(defect, "monomial_exponents", spy)
    sizes = _spy_on_integer_rank(monkeypatch)
    general = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3)]
    collinear = [(t, 0, 1) for t in (0, 1, 2)]
    unlucky = [(1, 0, 0), (1, PRIME, 0), (0, 0, 1)]
    for points, q, expected in ((general, 2, 0), (collinear, 1, 1),
                                (unlucky, 1, 0), (general, 4, 0)):
        pts = ProjectivePointSet(2, tuple(points))
        assert defect_of_system(pts, q) == expected
    assert calls == [(2, 2), (2, 1), (2, 1)]
    assert sizes == [3, 2, 3]


def test_defect_invariances():
    rng = random.Random(777)
    base = [
        (Fraction(1), Fraction(2), Fraction(3)),
        (Fraction(0), Fraction(1), Fraction(-1)),
        (Fraction(5), Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(1)),
    ]
    pts = ProjectivePointSet(2, tuple(base))
    for q in range(0, 4):
        reference = defect_of_system(pts, q)
        assert 0 <= reference <= len(pts)
        for _ in range(5):
            scaled = [
                tuple(c * Fraction(rng.randrange(1, 7), rng.randrange(1, 7))
                      for c in point)
                for point in base
            ]
            rng.shuffle(scaled)
            assert defect_of_system(ProjectivePointSet(2, tuple(scaled)), q) == reference


def test_random_points_in_general_position_have_zero_defect():
    rng = random.Random(2024)
    for _ in range(10):
        n = 2
        q = rng.randrange(1, 4)
        k = rng.randrange(1, math.comb(n + q, n) + 1)
        pts = ProjectivePointSet(n, tuple(
            (Fraction(rng.randrange(-50, 51)), Fraction(rng.randrange(-50, 51)),
             Fraction(1))
            for _ in range(k)))
        assert defect_of_system(pts, q) == 0


def test_nodal_beta_cases():
    nodes4 = _generic_line_nodes(4)
    assert len(nodes4) == 6
    assert nodal_beta(nodes4, 2, 4) == [3, 0, 0, 0]

    nodes6 = _generic_line_nodes(6)
    assert len(nodes6) == 15
    assert nodal_beta(nodes6, 2, 6) == [5, 0, 0, 0, 0, 0]

    # n, d both odd: all zeros without any defect computation
    some = ProjectivePointSet(3, ((Fraction(1), Fraction(0), Fraction(0),
                                   Fraction(0)),))
    assert nodal_beta(some, 3, 3) == [0, 0, 0]
    assert nodal_beta(some, 3, 5) == [0, 0, 0, 0, 0]

    # n odd, d even: the defect lands at s = d/2
    line_pt = ProjectivePointSet(3, ((Fraction(1), Fraction(1), Fraction(1),
                                      Fraction(1)),))
    beta = nodal_beta(line_pt, 3, 4)
    assert len(beta) == 4
    assert beta[0] == 0 and beta[1] == 0 and beta[3] == 0
    assert beta[2] == defect_of_system(line_pt, 4 * 3 // 2 - 3 - 1)


def test_nodal_beta_rejects_bad_input():
    pts = ProjectivePointSet(2, ((Fraction(1), Fraction(0), Fraction(0)),))
    with pytest.raises(ValueError):
        nodal_beta(pts, 3, 4)  # dimension mismatch
    with pytest.raises(ValueError):
        nodal_beta(pts, 2, 2)  # q = -1
    with pytest.raises(ValueError):
        defect_of_system(pts, -1)
