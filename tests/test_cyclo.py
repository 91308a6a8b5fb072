"""Tests for exact root-of-unity arithmetic and characteristic polynomials."""

from __future__ import annotations

import doctest
import math
import random
import re
from fractions import Fraction

import pytest

import moninf.cyclo
from moninf.cyclo import (
    ONE,
    MINUS_ONE,
    CharPoly,
    UnitRoot,
    mth_roots,
    totient,
)

from _product import (
    closed,
    conjugate,
    display,
    forms,
    product,
    residues,
    times,
    to_json,
)


def _degree(p):
    """Sum of the exponents: the degree of a polynomial product."""
    return sum(p.values())


def _power(alpha: UnitRoot, k: int) -> UnitRoot:
    """alpha^k: the angle num/den times k."""
    return UnitRoot(alpha.num * k, alpha.den)


def _brute_force_mth_roots(xi: UnitRoot, m: int) -> list[UnitRoot]:
    # any alpha with alpha**m == xi has order dividing m * xi.den
    n = m * xi.den
    return sorted({UnitRoot(p, n) for p in range(n)
                   if _power(UnitRoot(p, n), m) == xi})


def test_unitroot_normalizes_to_reduced_residue():
    assert UnitRoot(7, 6) == UnitRoot(1, 6)
    assert UnitRoot(-1, 6) == UnitRoot(5, 6)
    assert UnitRoot(4, 6) == UnitRoot(2, 3)
    assert UnitRoot(12, 4) == ONE
    assert UnitRoot(3, 6) == MINUS_ONE
    with pytest.raises(ValueError):
        UnitRoot(1, 0)
    with pytest.raises(ValueError):
        UnitRoot(1, -3)


def test_unitroot_group_operations():
    a = UnitRoot(1, 6)
    assert conjugate(a) == UnitRoot(5, 6)
    b = conjugate(a)
    assert (Fraction(a.num, a.den) + Fraction(b.num, b.den)) % 1 == 0


def test_unitroot_sort_order_is_by_angle():
    roots = [UnitRoot(5, 6), ONE, UnitRoot(1, 4), UnitRoot(1, 6), MINUS_ONE]
    assert sorted(roots) == [ONE, UnitRoot(1, 6), UnitRoot(1, 4), MINUS_ONE,
                             UnitRoot(5, 6)]


def test_unitroot_parse_and_str():
    assert str(UnitRoot(5, 6)) == "5/6"
    assert str(ONE) == "0/1"
    assert UnitRoot.parse("5/6") == UnitRoot(5, 6)
    assert UnitRoot.parse("7/6") == UnitRoot(1, 6)
    for bad in ("5", "5/", "/6", "a/b", "1/6/2", ""):
        with pytest.raises(ValueError):
            UnitRoot.parse(bad)


def test_mth_roots_known_case():
    # fifth roots of e^(2 pi i 5/6)
    got = mth_roots(UnitRoot(5, 6), 5)
    assert got == [UnitRoot(1, 6), UnitRoot(11, 30), UnitRoot(17, 30),
                   UnitRoot(23, 30), UnitRoot(29, 30)]


def test_mth_roots_of_one():
    assert mth_roots(ONE, 4) == [ONE, UnitRoot(1, 4), MINUS_ONE, UnitRoot(3, 4)]
    assert mth_roots(ONE, 1) == [ONE]
    with pytest.raises(ValueError):
        mth_roots(ONE, 0)


def test_mth_roots_against_brute_force():
    rng = random.Random(20260819)
    for _ in range(200):
        den = rng.randrange(1, 30)
        xi = UnitRoot(rng.randrange(den), den)
        m = rng.randrange(1, 12)
        got = mth_roots(xi, m)
        assert got == _brute_force_mth_roots(xi, m)
        assert len(got) == m
        assert got == sorted(got)
        assert all(_power(alpha, m) == xi for alpha in got)


def test_totient_small_values():
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6,
                10: 4, 12: 4, 30: 8, 36: 12, 360: 96}
    for q, phi in expected.items():
        assert totient(q) == phi
    for q in range(1, 200):
        assert totient(q) == sum(1 for p in range(q) if math.gcd(p, q) == 1)


def test_rev_multiplication_adds_exponents():
    # the reference product that the CharPoly tests compare with
    f = product([(UnitRoot(1, 6), 2)])
    g = product([(UnitRoot(1, 6), -2), (ONE, 3)])
    prod = times(f, g)
    assert prod == {ONE: 3}
    assert _degree(prod) == 3
    assert times(f, product([(UnitRoot(1, 6), -2)])) == product([]) == {}
    h = product([(ONE, 2), (MINUS_ONE, -1)])
    assert _degree(h) == 1
    assert list(h.values()) == [2, -1]


def test_rev_json_round_trip():
    pairs = [(UnitRoot(1, 6), 2), (UnitRoot(5, 6), 1)]
    f = CharPoly(*residues(pairs), 1, [-3, 0])
    assert (f.level, f.pairs) == (6, [(1, 2), (5, 1)])
    data = f.to_json()
    assert data == {"0/1": -3, "1/6": 2, "5/6": 1}
    reference = closed(2, pairs, f.at)
    assert list(to_json(reference)) == ["0/1", "1/6", "5/6"]
    assert product(
        (UnitRoot.parse(key), exp) for key, exp in data.items()) == reference


def test_factor_list_groups_full_orbits():
    f = CharPoly(6, [(1, 1), (5, 1)], 1, [0, 0])
    assert str(f) == "Phi_6"

    g = CharPoly(1, [], 1, [3, 0])
    assert str(g) == "(x - 1)^3"


def test_factor_list_extracts_signed_minimum():
    f = CharPoly(6, [(1, 2), (5, 1)], 1, [0, 0])
    assert str(f) == "Phi_6 * (x - zeta(1/6))"

    # the exponents at the cube roots of unity, of any sign
    neg = CharPoly(1, [], 2, [0, -2, -5])
    assert str(neg) == "Phi_3^-2 * (x - zeta(2/3))^-3"


def test_factor_list_skips_mixed_signs_and_partial_orbits():
    mixed = CharPoly(1, [], 5, [0, 2, 0, 0, 0, -1])
    assert str(mixed) == "(x - zeta(1/6))^2 * (x - zeta(5/6))^-1"

    partial = CharPoly(5, [(1, 1), (2, 1)], 1, [0, 0])
    assert str(partial) == "(x - zeta(1/5)) * (x - zeta(2/5))"


_FACTOR_RE = re.compile(
    r"(?:Phi_(\d+)|\(x ([-+]) 1\)|\(x - zeta\((\d+)/(\d+)\)\))(?:\^(-?\d+))?")


def _expand(text: str) -> dict[UnitRoot, int]:
    """The product a display string writes, expanded over its roots."""
    factors = []
    for factor in [] if text == "1" else text.split(" * "):
        match = _FACTOR_RE.fullmatch(factor)
        assert match, factor
        phi, sign, num, den, exp = match.groups()
        exponent = int(exp or 1)
        if phi:
            q = int(phi)
            factors += [(UnitRoot(p, q), exponent)
                        for p in range(q) if math.gcd(p, q) == 1]
        else:
            root = ({"-": ONE, "+": MINUS_ONE}[sign] if sign
                    else UnitRoot(int(num), int(den)))
            factors.append((root, exponent))
    return product(factors)


def test_factor_list_expansion_round_trip():
    rng = random.Random(1729)
    for _ in range(100):
        d = rng.choice([2, 3, 4, 6, 7, 12])
        pairs = {}
        for _ in range(rng.randrange(0, 12)):
            den = rng.randrange(1, 13)
            pairs[UnitRoot(rng.randrange(den), den)] = rng.randrange(1, 4)
        at = [rng.choice([-3, -2, -1, 0, 1, 2, 3]) for _ in range(d)]
        f = CharPoly(*residues(sorted(pairs.items())), d - 1, at)
        reference = closed(d, sorted(pairs.items()), at)
        assert _expand(str(f)) == reference
        assert forms(reference) == (str(f), f.to_json())
        assert _expand(display(reference)) == reference


def test_format_factors_rendering():
    assert str(CharPoly(1, [], 1, [0, 0])) == "1"
    f = CharPoly(6, [(1, 9), (2, 9), (4, 9), (5, 9)], 1, [8, 9])
    assert str(f) == "(x - 1)^8 * (x + 1)^9 * Phi_3^9 * Phi_6^9"
    g = CharPoly(30, [(7, 2)], 1, [0, -1])
    assert str(g) == "(x + 1)^-1 * (x - zeta(7/30))^2"


def test_doctests_of_the_module_pass():
    # mth_roots and CharPoly's m = 1 convention, which char_poly uses
    failed, attempted = doctest.testmod(moninf.cyclo)
    assert failed == 0
    assert attempted >= 2
