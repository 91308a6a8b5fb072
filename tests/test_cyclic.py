"""Tests for the Jordan type of cyclic block operators."""

from __future__ import annotations

import random

import pytest

from moninf.cyclic import cyclic_power
from moninf.cyclo import ONE, MINUS_ONE, UnitRoot, mth_roots
from moninf.jordan import JordanStructure


def _from_blocks(pairs):
    """One Jordan block per (eigenvalue, size) pair."""
    return JordanStructure((root, {size: 1}) for root, size in pairs)


def _random_structure(rng: random.Random) -> JordanStructure:
    pairs = []
    for _ in range(rng.randrange(0, 8)):
        den = rng.randrange(1, 7)
        pairs.append((UnitRoot(rng.randrange(den), den), rng.randrange(1, 4)))
    return _from_blocks(pairs)


def test_order_one_is_identity():
    j = _from_blocks([(ONE, 2), (UnitRoot(1, 3), 1)])
    assert cyclic_power(j, 1) == j
    with pytest.raises(ValueError):
        cyclic_power(j, 0)


def test_known_small_case():
    j = JordanStructure({ONE: {2: 1}})
    assert cyclic_power(j, 2) == JordanStructure({ONE: {2: 1}, MINUS_ONE: {2: 1}})
    sq = JordanStructure({UnitRoot(1, 2): {1: 1}})
    assert cyclic_power(sq, 2) == JordanStructure(
        {UnitRoot(1, 4): {1: 1}, UnitRoot(3, 4): {1: 1}})


def test_block_counts_pull_back_along_mth_power():
    rng = random.Random(314)
    for _ in range(60):
        t = _random_structure(rng)
        m = rng.randrange(1, 7)
        c = cyclic_power(t, m)
        assert c.total_dim == m * t.total_dim
        expected_spectrum = sorted(
            {a for xi in t.spectrum() for a in mth_roots(xi, m)})
        assert c.spectrum() == expected_spectrum
        tables = dict(t.items())
        for alpha, table in c.items():
            assert table == tables[UnitRoot(alpha.num * m, alpha.den)]


def test_composition_multiplies_orders():
    rng = random.Random(2718)
    for _ in range(30):
        t = _random_structure(rng)
        a = rng.randrange(1, 5)
        b = rng.randrange(1, 5)
        assert cyclic_power(cyclic_power(t, a), b) == cyclic_power(t, a * b)
