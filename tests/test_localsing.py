"""Tests for local singularity models."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from moninf.cyclo import ONE, MINUS_ONE, UnitRoot
from moninf.jordan import JordanStructure
from moninf.localsing import (
    BrieskornPham,
    ExplicitJordan,
    OrdinaryNode,
    local_monodromy,
    milnor_number,
    parse_singularity,
    parse_singularity_counts,
)
from _product import as_structure, is_conjugation_symmetric, iter_blocks


def _brute_force_bp_spectrum(exps: tuple[int, ...]) -> dict[UnitRoot, int]:
    # direct enumeration over all index tuples with Fraction arithmetic
    counts: dict[UnitRoot, int] = {}
    for ks in itertools.product(*(range(1, a) for a in exps)):
        total = sum((Fraction(k, a) for k, a in zip(ks, exps)), Fraction(0))
        root = UnitRoot(total.numerator, total.denominator)
        counts[root] = counts.get(root, 0) + 1
    return counts


def _convolved_bp_spectrum(exps: tuple[int, ...]) -> dict[UnitRoot, int]:
    # the former implementation: convolve the counts one exponent at a
    # time, as dicts keyed by UnitRoot
    counts: dict[UnitRoot, int] = {ONE: 1}
    for a in exps:
        nxt: dict[UnitRoot, int] = {}
        for root, c in counts.items():
            for k in range(1, a):
                shifted = UnitRoot(root.num * a + k * root.den, root.den * a)
                nxt[shifted] = nxt.get(shifted, 0) + c
        counts = nxt
    return counts


@settings(max_examples=30, deadline=None)
@given(exps=st.lists(st.integers(2, 30), min_size=1, max_size=4))
def test_brieskorn_counts_equal_the_convolution(exps):
    t = as_structure(*local_monodromy(BrieskornPham(tuple(exps)), len(exps)))
    assert t == JordanStructure({root: {1: c} for root, c
                                 in _convolved_bp_spectrum(tuple(exps)).items()})


def test_cusp_spectrum():
    cusp = BrieskornPham((2, 3))
    assert milnor_number(cusp) == 2
    assert local_monodromy(cusp, 2) == (6, {1: {1: 1}, 5: {1: 1}})
    t = as_structure(*local_monodromy(cusp, 2))
    assert t == JordanStructure({UnitRoot(1, 6): {1: 1}, UnitRoot(5, 6): {1: 1}})
    assert all(size == 1 for _, size, _ in iter_blocks(t))


def test_small_brieskorn_spectra():
    t33 = as_structure(*local_monodromy(BrieskornPham((3, 3)), 2))
    assert t33 == JordanStructure({ONE: {1: 2}, UnitRoot(1, 3): {1: 1},
                                   UnitRoot(2, 3): {1: 1}})
    t235 = as_structure(*local_monodromy(BrieskornPham((2, 3, 5)), 3))
    expected = JordanStructure({UnitRoot(k, 30): {1: 1}
                                for k in (1, 7, 11, 13, 17, 19, 23, 29)})
    assert t235 == expected
    assert milnor_number(BrieskornPham((2, 3, 5))) == 8


def test_brieskorn_spectrum_against_brute_force():
    rng = random.Random(4242)
    for _ in range(30):
        n = rng.randrange(1, 4)
        exps = tuple(rng.randrange(2, 6) for _ in range(n))
        t = as_structure(*local_monodromy(BrieskornPham(exps), n))
        brute = _brute_force_bp_spectrum(exps)
        assert t == JordanStructure({r: {1: c} for r, c in brute.items()})
        assert t.total_dim == milnor_number(BrieskornPham(exps))
        assert all(size == 1 for _, size, _ in iter_blocks(t))
        assert is_conjugation_symmetric(t)


def test_brieskorn_validation():
    with pytest.raises(ValueError):
        BrieskornPham(())
    with pytest.raises(ValueError):
        BrieskornPham((2, 1))
    # the exponent count is checked against n by the document (ProblemSpec)
    assert local_monodromy(BrieskornPham((2, 3)), 3) == \
        local_monodromy(BrieskornPham((2, 3)), 2)
    with pytest.raises(ValueError, match="level L = 9223372049148252003"):
        local_monodromy(BrieskornPham((3037000501, 3037000503)), 2)


def test_node_monodromy_depends_on_parity():
    node = OrdinaryNode()
    assert milnor_number(node) == 1
    assert local_monodromy(node, 2) == (1, {0: {1: 1}})
    assert local_monodromy(node, 3) == (2, {1: {1: 1}})
    assert as_structure(*local_monodromy(node, 2)) == JordanStructure({ONE: {1: 1}})
    assert as_structure(*local_monodromy(node, 3)) == \
        JordanStructure({MINUS_ONE: {1: 1}})
    assert as_structure(*local_monodromy(node, 4)) == JordanStructure({ONE: {1: 1}})
    # a node is the all-twos Brieskorn-Pham model
    for n in range(1, 6):
        assert local_monodromy(node, n) == local_monodromy(
            BrieskornPham((2,) * n), n)


def test_explicit_model_passthrough():
    j = JordanStructure({ONE: {2: 1}, UnitRoot(1, 3): {1: 1}})
    model = ExplicitJordan(j)
    assert milnor_number(model) == 3
    # the tables are read off j, whatever n
    assert local_monodromy(model, 2) == local_monodromy(model, 7) == \
        (3, {0: {2: 1}, 1: {1: 1}})
    assert as_structure(*local_monodromy(model, 2)) == j
    with pytest.raises(ValueError):
        ExplicitJordan(JordanStructure())


def test_parse_singularity_entries():
    model, count = parse_singularity({"type": "brieskorn", "exponents": [2, 3]})
    assert model == BrieskornPham((2, 3))
    assert count == 1
    model, count = parse_singularity({"type": "node", "count": 6})
    assert model == OrdinaryNode()
    assert count == 6
    model, count = parse_singularity(
        {"type": "explicit", "jordan": [{"eigenvalue": "1/2", "blocks": [2]}]})
    assert model == ExplicitJordan(
        JordanStructure({MINUS_ONE: {2: 1}}))


def test_parse_singularity_counts_keeps_counts():
    counts = parse_singularity_counts([
        {"type": "brieskorn", "exponents": [2, 3], "count": 2},
        {"type": "node"},
    ])
    assert counts == [(BrieskornPham((2, 3)), 2), (OrdinaryNode(), 1)]


def test_parse_singularity_rejects_malformed():
    bad_entries = [
        {"type": "unknown"},
        {"type": "node", "exponents": [2]},
        {"type": "brieskorn"},
        {"type": "brieskorn", "exponents": [2, 3], "extra": 1},
        {"type": "brieskorn", "exponents": "23"},
        {"type": "node", "count": 0},
        {"type": "node", "count": "2"},
        {"type": "explicit"},
        [],
    ]
    for entry in bad_entries:
        with pytest.raises(ValueError):
            parse_singularity(entry)
    with pytest.raises(ValueError):
        parse_singularity_counts({"type": "node"})
