"""Property tests for the canonical constructors.

`JordanStructure._canonical` and `RootExponentVector._canonical` take a
dict that is already in canonical order and keep it without checks or
sorting.  On such a dict each must give exactly what its validating
constructor gives, order included: dict equality ignores order, so the
items are also compared as lists.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from moninf.cyclo import RootExponentVector, UnitRoot  # noqa: E402
from moninf.jordan import JordanStructure  # noqa: E402

ROOTS = st.builds(lambda den, num: UnitRoot(num % den, den),
                  st.integers(1, 24), st.integers(0, 23))
TABLES = st.dictionaries(st.integers(1, 6), st.integers(1, 5),
                         min_size=1, max_size=4)


def _by_angle(raw: dict) -> dict:
    return dict(sorted(raw.items(),
                       key=lambda item: Fraction(item[0].num, item[0].den)))


@given(raw=st.dictionaries(ROOTS, TABLES, max_size=12))
def test_canonical_structure_equals_the_validated_one(raw):
    blocks = {root: dict(sorted(table.items(), reverse=True))
              for root, table in _by_angle(raw).items()}
    fast, slow = JordanStructure._canonical(blocks), JordanStructure(blocks)
    assert fast == slow
    assert hash(fast) == hash(slow)
    assert list(fast.items()) == list(slow.items())
    assert fast.to_json() == slow.to_json()
    assert repr(fast) == repr(slow)
    assert fast.char_poly() == slow.char_poly()
    assert list(fast.char_poly().items()) == list(slow.char_poly().items())


@given(raw=st.dictionaries(ROOTS, st.integers(-9, 9).filter(bool),
                           max_size=12))
def test_canonical_vector_equals_the_validated_one(raw):
    factors = _by_angle(raw)
    fast = RootExponentVector._canonical(factors)
    slow = RootExponentVector(factors)
    assert fast == slow
    assert list(fast.items()) == list(slow.items())
    assert list(fast.to_json().items()) == list(slow.to_json().items())
    assert str(fast) == str(slow)


@given(d=st.integers(1, 40), exponent=st.integers(-5, 5))
def test_power_minus_one_equals_the_validated_product(d, exponent):
    fast = RootExponentVector.power_minus_one(d, exponent)
    slow = RootExponentVector((UnitRoot(j, d), exponent) for j in range(d))
    assert fast == slow
    assert list(fast.items()) == list(slow.items())
    assert (fast == RootExponentVector()) == (exponent == 0)
