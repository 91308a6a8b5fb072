"""Tests for exact root-of-unity arithmetic and factored products."""

from __future__ import annotations

import math
import random
import re

import pytest

from moninf.cyclo import (
    ONE,
    MINUS_ONE,
    RootExponentVector,
    UnitRoot,
    mth_roots,
    totient,
)


def _degree(rev):
    """Sum of the exponents: the degree of a polynomial product."""
    return sum(e for _, e in rev.items())


def _brute_force_mth_roots(xi: UnitRoot, m: int) -> list[UnitRoot]:
    # any alpha with alpha**m == xi has order dividing m * xi.den
    n = m * xi.den
    return sorted({UnitRoot(p, n) for p in range(n) if UnitRoot(p, n) ** m == xi})


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
    b = UnitRoot(1, 4)
    assert a * b == UnitRoot(5, 12)
    assert a ** 3 == MINUS_ONE
    assert a ** -1 == UnitRoot(5, 6)
    assert a ** 0 == ONE
    assert a.conjugate() == UnitRoot(5, 6)
    assert a * a.conjugate() == ONE


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
        assert all(alpha ** m == xi for alpha in got)


def test_totient_small_values():
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6,
                10: 4, 12: 4, 30: 8, 36: 12, 360: 96}
    for q, phi in expected.items():
        assert totient(q) == phi
    for q in range(1, 200):
        assert totient(q) == sum(1 for p in range(q) if math.gcd(p, q) == 1)


def test_rev_multiplication_adds_exponents():
    f = RootExponentVector([(UnitRoot(1, 6), 2)])
    g = RootExponentVector([(UnitRoot(1, 6), -2), (ONE, 3)])
    prod = f * g
    assert dict(prod.items()) == {ONE: 3}
    assert prod == RootExponentVector([(ONE, 3)])
    assert _degree(prod) == 3
    assert f * RootExponentVector([(UnitRoot(1, 6), -2)]) == \
        RootExponentVector()
    assert list(RootExponentVector().items()) == []
    h = RootExponentVector([(ONE, 2), (MINUS_ONE, -1)])
    assert _degree(h) == 1
    assert [e for _, e in h.items()] == [2, -1]


def test_rev_json_round_trip():
    f = RootExponentVector([(UnitRoot(1, 6), 2), (ONE, -3), (UnitRoot(5, 6), 1)])
    data = f.to_json()
    assert data == {"0/1": -3, "1/6": 2, "5/6": 1}
    assert list(data) == ["0/1", "1/6", "5/6"]
    assert RootExponentVector(
        (UnitRoot.parse(key), exp) for key, exp in data.items()) == f


def test_factor_list_groups_full_orbits():
    f = RootExponentVector([(UnitRoot(1, 6), 1), (UnitRoot(5, 6), 1)])
    assert str(f) == "Phi_6"

    g = RootExponentVector([(ONE, 3)])
    assert str(g) == "(x - 1)^3"


def test_factor_list_extracts_signed_minimum():
    f = RootExponentVector([(UnitRoot(1, 6), 2), (UnitRoot(5, 6), 1)])
    assert str(f) == "Phi_6 * (x - zeta(1/6))"

    neg = RootExponentVector([(UnitRoot(1, 3), -2), (UnitRoot(2, 3), -5)])
    assert str(neg) == "Phi_3^-2 * (x - zeta(2/3))^-3"


def test_factor_list_skips_mixed_signs_and_partial_orbits():
    mixed = RootExponentVector([(UnitRoot(1, 6), 2), (UnitRoot(5, 6), -1)])
    assert str(mixed) == "(x - zeta(1/6))^2 * (x - zeta(5/6))^-1"

    partial = RootExponentVector([(UnitRoot(1, 5), 1), (UnitRoot(2, 5), 1)])
    assert str(partial) == "(x - zeta(1/5)) * (x - zeta(2/5))"


_FACTOR_RE = re.compile(
    r"(?:Phi_(\d+)|\(x ([-+]) 1\)|\(x - zeta\((\d+)/(\d+)\)\))(?:\^(-?\d+))?")


def _expand(text: str) -> RootExponentVector:
    """The product a display string writes, expanded over its roots."""
    out = RootExponentVector()
    for factor in [] if text == "1" else text.split(" * "):
        match = _FACTOR_RE.fullmatch(factor)
        assert match, factor
        phi, sign, num, den, exp = match.groups()
        exponent = int(exp or 1)
        if phi:
            q = int(phi)
            out = out * RootExponentVector(
                (UnitRoot(p, q), exponent)
                for p in range(q) if math.gcd(p, q) == 1)
        else:
            root = ({"-": ONE, "+": MINUS_ONE}[sign] if sign
                    else UnitRoot(int(num), int(den)))
            out = out * RootExponentVector([(root, exponent)])
    return out


def test_factor_list_expansion_round_trip():
    rng = random.Random(1729)
    for _ in range(100):
        pairs = []
        for _ in range(rng.randrange(0, 12)):
            den = rng.randrange(1, 13)
            pairs.append((UnitRoot(rng.randrange(den), den),
                          rng.choice([-3, -2, -1, 1, 2, 3])))
        f = RootExponentVector(pairs)
        assert _expand(str(f)) == f


def test_format_factors_rendering():
    assert str(RootExponentVector()) == "1"
    f = RootExponentVector([(ONE, 8), (MINUS_ONE, 9), (UnitRoot(1, 3), 9),
                            (UnitRoot(2, 3), 9), (UnitRoot(1, 6), 9),
                            (UnitRoot(5, 6), 9)])
    assert str(f) == "(x - 1)^8 * (x + 1)^9 * Phi_3^9 * Phi_6^9"
    g = RootExponentVector([(UnitRoot(7, 30), 2), (MINUS_ONE, -1)])
    assert str(g) == "(x + 1)^-1 * (x - zeta(7/30))^2"
