"""Tests for the exact cyclotomic matrix verifier."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from moninf.cyclo import ONE, MINUS_ONE, UnitRoot
from moninf.jordan import JordanStructure
from moninf.oracle import (
    CycloElement,
    CycloMatrix,
    LevelCapExceeded,
    SpectrumNotCovered,
    build_cyclic_matrix,
    build_jordan_matrix,
    cyclotomic_polynomial,
    jordan_type,
    rank,
    verify_cyclic_agreement,
)


def _poly_mul_int(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_cyclotomic_polynomial_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # first index with a coefficient outside {-1, 0, 1}
    assert -2 in cyclotomic_polynomial(105)


def test_cyclotomic_polynomials_multiply_to_power_minus_one():
    for n in (1, 2, 6, 12, 30, 36):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul_int(prod, list(cyclotomic_polynomial(d)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected


def test_element_roots_multiply_like_roots():
    a = CycloElement.from_root(UnitRoot(1, 12), 12)
    b = CycloElement.from_root(UnitRoot(1, 12), 12)
    assert a * b == CycloElement.from_root(UnitRoot(1, 6), 12)
    c = CycloElement.from_root(UnitRoot(7, 12), 12)
    assert a * c == CycloElement.from_root(UnitRoot(2, 3), 12)
    # full sum of p-th roots vanishes
    total = CycloElement.zero(5)
    for k in range(5):
        total = total + CycloElement.from_root(UnitRoot(k, 5), 5)
    assert total.is_zero()


def test_element_level_checks():
    with pytest.raises(ValueError):
        CycloElement(6, (Fraction(1),))
    with pytest.raises(ValueError):
        CycloElement.from_root(UnitRoot(1, 5), 6)
    a = CycloElement.from_rational(1, 6)
    b = CycloElement.from_rational(1, 3)
    with pytest.raises(ValueError):
        _ = a + b


def test_build_jordan_matrix_layout():
    j = JordanStructure({ONE: {2: 1}, MINUS_ONE: {1: 1}})
    m = build_jordan_matrix(j, 2)
    one = CycloElement.from_rational(1, 2)
    minus = CycloElement.from_root(MINUS_ONE, 2)
    zero = CycloElement.zero(2)
    assert m.nrows == m.ncols == 3
    assert m.entry(0, 0) == one and m.entry(0, 1) == one
    assert m.entry(1, 1) == one and m.entry(1, 0) == zero
    assert m.entry(1, 2) == zero  # no coupling across blocks
    assert m.entry(2, 2) == minus
    with pytest.raises(ValueError):
        build_jordan_matrix(j, 3)  # -1 does not live at level 3


def test_build_cyclic_matrix_layout():
    a = CycloElement.from_rational(Fraction(3), 1)
    m = CycloMatrix(1, [[a]])
    c = build_cyclic_matrix(m, 2)
    zero = CycloElement.zero(1)
    one = CycloElement.from_rational(1, 1)
    assert c.nrows == 2
    assert c.entry(0, 0) == zero and c.entry(0, 1) == a
    assert c.entry(1, 0) == one and c.entry(1, 1) == zero
    assert build_cyclic_matrix(m, 1) is m


def test_rank_basic_cases():
    one = CycloElement.from_rational(1, 4)
    zero = CycloElement.zero(4)
    i2 = CycloMatrix(4, [[one, zero], [zero, one]])
    assert rank(i2) == 2
    assert rank(CycloMatrix(4, [[zero, zero], [zero, zero]])) == 0
    assert rank(CycloMatrix(4, [], ncols=0)) == 0
    # rank drops only through genuine cyclotomic cancellation
    z = CycloElement.from_root(UnitRoot(1, 4), 4)
    zbar = CycloElement.from_root(UnitRoot(3, 4), 4)
    singular = CycloMatrix(4, [[one, z], [zbar, one]])
    assert rank(singular) == 1
    generic = CycloMatrix(4, [[one, z], [z, one]])
    assert rank(generic) == 2


def test_rank_clears_denominators():
    half = CycloElement.from_rational(Fraction(1, 2), 1)
    third = CycloElement.from_rational(Fraction(1, 3), 1)
    quarter = CycloElement.from_rational(Fraction(1, 4), 1)
    sixth = CycloElement.from_rational(Fraction(1, 6), 1)
    assert rank(CycloMatrix(1, [[half, third], [quarter, sixth]])) == 1
    assert rank(CycloMatrix(1, [[half, third], [quarter, third]])) == 2


def test_rank_invariant_under_elementary_operations():
    rng = random.Random(5150)
    level = 6
    one = CycloElement.from_rational(1, level)
    zero = CycloElement.zero(level)
    roots = [CycloElement.from_root(UnitRoot(k, 6), level) for k in range(6)]
    for _ in range(20):
        n = rng.randrange(2, 6)
        r = rng.randrange(0, n + 1)
        grid = [[one if (i == j and i < r) else zero for j in range(n)]
                for i in range(n)]
        for _ in range(12):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = roots[rng.randrange(6)]
            if rng.random() < 0.5:
                grid[i] = [x + c * y for x, y in zip(grid[i], grid[j])]
            else:
                for row in grid:
                    row[i] = row[i] + c * row[j]
        assert rank(CycloMatrix(level, grid)) == r


def _random_structure(rng: random.Random, max_dim: int = 5) -> JordanStructure:
    pairs = []
    dim = 0
    while dim < max_dim:
        den = rng.randrange(1, 7)
        size = rng.randrange(1, max_dim - dim + 1)
        pairs.append((UnitRoot(rng.randrange(den), den), size))
        dim += size
        if rng.random() < 0.3:
            break
    return JordanStructure.from_blocks(pairs)


def test_jordan_type_recovers_block_matrices():
    rng = random.Random(606)
    for _ in range(25):
        j = _random_structure(rng)
        level = math.lcm(1, *(root.den for root in j.spectrum())) if j else 1
        m = build_jordan_matrix(j, level)
        assert jordan_type(m, j.spectrum()) == j


def test_jordan_type_is_conjugation_invariant():
    rng = random.Random(77)
    level = 6
    for _ in range(10):
        j = _random_structure(rng, max_dim=4)
        spectrum_level = math.lcm(1, *(root.den for root in j.spectrum())) if j else 1
        if level % spectrum_level:
            continue
        m = build_jordan_matrix(j, level)
        grid = [list(row) for row in m.rows]
        n = len(grid)
        roots = [CycloElement.from_root(UnitRoot(k, 6), level) for k in range(6)]
        # conjugate by elementary matrices: row op plus the inverse column op
        for _ in range(10):
            if n < 2:
                break
            i, k = rng.randrange(n), rng.randrange(n)
            if i == k:
                continue
            c = roots[rng.randrange(6)]
            grid[i] = [x + c * y for x, y in zip(grid[i], grid[k])]
            for row in grid:
                row[k] = row[k] - c * row[i]
        conj = CycloMatrix(level, grid)
        assert jordan_type(conj, j.spectrum()) == j


def test_jordan_type_missing_candidate_raises():
    j = JordanStructure({ONE: {2: 1}, MINUS_ONE: {1: 1}})
    m = build_jordan_matrix(j, 2)
    with pytest.raises(SpectrumNotCovered):
        jordan_type(m, [ONE])
    # extra non-eigenvalue candidates are harmless
    assert jordan_type(m, [ONE, MINUS_ONE, UnitRoot(1, 3)]) == j


def test_jordan_type_level_cap():
    j = JordanStructure({UnitRoot(1, 7): {1: 1}, UnitRoot(6, 7): {1: 1}})
    m = build_jordan_matrix(j, 7)
    with pytest.raises(LevelCapExceeded):
        jordan_type(m, j.spectrum(), level_cap=6)
    assert jordan_type(m, j.spectrum(), level_cap=7) == j


def test_verify_cyclic_agreement_small_cases():
    j = JordanStructure({ONE: {2: 1}})
    expected, actual = verify_cyclic_agreement(j, 2)
    assert expected == actual
    assert actual == JordanStructure({ONE: {2: 1}, MINUS_ONE: {2: 1}})

    j2 = JordanStructure({UnitRoot(1, 3): {1: 1, 2: 1}})
    expected2, actual2 = verify_cyclic_agreement(j2, 3)
    assert expected2 == actual2
    assert actual2.total_dim == 9

    empty_exp, empty_act = verify_cyclic_agreement(JordanStructure(), 4)
    assert empty_exp == empty_act == JordanStructure()


def test_verify_cyclic_agreement_random_smoke():
    rng = random.Random(909)
    for _ in range(10):
        j = _random_structure(rng, max_dim=4)
        m = rng.randrange(1, 4)
        expected, actual = verify_cyclic_agreement(j, m)
        assert expected == actual
