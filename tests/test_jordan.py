"""Tests for Jordan structure bookkeeping."""

from __future__ import annotations

import json
import random

import pytest

from moninf.cli import _json_chunks
from moninf.cyclo import ONE, MINUS_ONE, UnitRoot
from moninf.infinity import EnumerateBeta, ProblemSpec, local_sum
from moninf.jordan import JordanStructure
from moninf.localsing import ExplicitJordan
from _product import is_conjugation_symmetric, iter_blocks


def _from_blocks(pairs):
    """One Jordan block per (eigenvalue, size) pair."""
    return JordanStructure((root, {size: 1}) for root, size in pairs)


def _sharp(j: JordanStructure, alpha: UnitRoot, size: int) -> int:
    """#_size(j)_alpha: the number of blocks of exactly that size at alpha."""
    return dict(j.items()).get(alpha, {}).get(size, 0)


def _degree(poly):
    """Sum of the exponents: the degree of a polynomial product."""
    return sum(poly.to_json().values())


def _written(j: JordanStructure) -> object:
    """The structure's JSON form as the --json writer writes it, read back."""
    return json.loads("".join(_json_chunks(j.to_json())))


def _random_structure(rng: random.Random) -> JordanStructure:
    pairs = []
    for _ in range(rng.randrange(0, 10)):
        den = rng.randrange(1, 9)
        pairs.append((UnitRoot(rng.randrange(den), den), rng.randrange(1, 5)))
    return _from_blocks(pairs)


def test_construction_canonicalizes():
    j = _from_blocks([
        (UnitRoot(1, 2), 1),
        (ONE, 2),
        (UnitRoot(1, 2), 3),
        (ONE, 2),
    ])
    assert j.spectrum() == [ONE, MINUS_ONE]
    assert j.sizes_at(ONE) == [2, 2]
    assert j.sizes_at(MINUS_ONE) == [3, 1]
    assert j.total_dim == 8
    assert max(size for _, size, _ in iter_blocks(j)) == 3


def test_construction_rejects_bad_blocks():
    with pytest.raises(ValueError):
        JordanStructure({ONE: {0: 1}})
    with pytest.raises(ValueError):
        JordanStructure({ONE: {2: -1}})
    with pytest.raises(TypeError):
        JordanStructure({"0/1": {1: 1}})
    # zero counts are dropped rather than stored
    assert JordanStructure({ONE: {1: 0}}) == JordanStructure()


def test_constructor_merges_repeated_roots():
    # the tests' reference direct sum of local monodromies is built this
    # way: one (root, {size: count}) pair per block, roots repeated
    a = _from_blocks([(ONE, 2), (MINUS_ONE, 1)])
    b = _from_blocks([(ONE, 2), (ONE, 5)])
    s = JordanStructure(
        (root, {size: count}) for t in (a, b)
        for root, size, count in iter_blocks(t))
    assert s.sizes_at(ONE) == [5, 2, 2]
    assert s.sizes_at(MINUS_ONE) == [1]
    assert s.total_dim == a.total_dim + b.total_dim
    assert JordanStructure([(ONE, {2: 1}), (MINUS_ONE, {1: 1}),
                            (ONE, {2: 1, 5: 1})]) == s


def test_sharp_and_multiplicity():
    j = _from_blocks([(ONE, 3), (ONE, 1), (ONE, 1), (MINUS_ONE, 2)])
    assert _sharp(j, ONE, 1) == 2
    assert _sharp(j, ONE, 3) == 1
    assert _sharp(j, ONE, 2) == 0
    assert _sharp(j, UnitRoot(1, 3), 1) == 0
    assert sum(dict(j.items())[ONE].values()) == 3
    assert j.multiplicity(ONE) == 5
    assert j.multiplicity(MINUS_ONE) == 2
    assert j.multiplicity(UnitRoot(1, 3)) == 0


def test_char_poly_matches_multiplicities():
    rng = random.Random(99)
    for _ in range(50):
        j = _random_structure(rng)
        p = j.char_poly()
        assert all(e > 0 for e in p.to_json().values())
        assert _degree(p) == j.total_dim
        assert p.to_json() == \
            {str(root): j.multiplicity(root) for root in j.spectrum()}


def test_conjugation_symmetry():
    sym = _from_blocks([
        (UnitRoot(1, 5), 2), (UnitRoot(4, 5), 2), (ONE, 1),
    ])
    assert is_conjugation_symmetric(sym)
    asym_spectrum = _from_blocks([(UnitRoot(1, 5), 2)])
    assert not is_conjugation_symmetric(asym_spectrum)
    asym_blocks = _from_blocks([
        (UnitRoot(1, 5), 2), (UnitRoot(4, 5), 1), (UnitRoot(4, 5), 1),
    ])
    assert not is_conjugation_symmetric(asym_blocks)
    assert is_conjugation_symmetric(JordanStructure())
    # local_sum judges each germ the same way, on its integer tables
    for j in (sym, asym_spectrum, asym_blocks):
        spec = ProblemSpec(2, 4, ((ExplicitJordan(j), 2),), EnumerateBeta())
        assert local_sum(spec)[1] == is_conjugation_symmetric(j)
    assert local_sum(ProblemSpec(2, 4, (), EnumerateBeta()))[1]


def test_json_round_trip_and_order():
    j = _from_blocks([
        (MINUS_ONE, 1), (ONE, 2), (MINUS_ONE, 3), (ONE, 2),
    ])
    data = [
        {"eigenvalue": "0/1", "blocks": [2, 2]},
        {"eigenvalue": "1/2", "blocks": [3, 1]},
    ]
    assert j.to_json() == data
    assert _written(j) == data
    assert JordanStructure.from_json(_written(j)) == j
    # blocks listed in any order parse to the same structure
    shuffled = [{"eigenvalue": "1/2", "blocks": [1, 3]},
                {"eigenvalue": "0/1", "blocks": [2, 2]}]
    assert JordanStructure.from_json(shuffled) == j


def test_json_rejects_malformed_entries():
    with pytest.raises(ValueError):
        JordanStructure.from_json({"eigenvalue": "0/1", "blocks": [1]})
    with pytest.raises(ValueError):
        JordanStructure.from_json([{"eigenvalue": "0/1"}])
    with pytest.raises(ValueError):
        JordanStructure.from_json([{"eigenvalue": "0/1", "blocks": []}])
    with pytest.raises(ValueError):
        JordanStructure.from_json([{"eigenvalue": "0/1", "blocks": [0]}])
    with pytest.raises(ValueError):
        JordanStructure.from_json([{"eigenvalue": "0/1", "blocks": [1], "x": 2}])
    with pytest.raises(ValueError):
        JordanStructure.from_json([{"eigenvalue": "0/1", "blocks": [1]},
                                   {"eigenvalue": "3/3", "blocks": [1]}])


def test_json_round_trip_random():
    rng = random.Random(7)
    for _ in range(50):
        j = _random_structure(rng)
        assert JordanStructure.from_json(_written(j)) == j
