"""Property tests for what is built in canonical order without sorting.

`RootExponentVector._canonical` takes a dict that is already in
canonical order and keeps it without checks or sorting; on such a dict
it must give exactly what the validating constructor gives.
`cyclic.lifts` streams the lifted pairs in root order, which the
assembler relies on; they must come as the validating constructor of
the cyclic power stores them.  Order is included: dict equality ignores
order, so the items are also compared as lists.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from moninf.cyclic import cyclic_power, lifts  # noqa: E402
from moninf.cyclo import RootExponentVector, UnitRoot  # noqa: E402
from moninf.jordan import JordanStructure  # noqa: E402

ROOTS = st.builds(lambda den, num: UnitRoot(num % den, den),
                  st.integers(1, 24), st.integers(0, 23))
TABLES = st.dictionaries(st.integers(1, 6), st.integers(1, 5),
                         min_size=1, max_size=4)


def _by_angle(raw: dict) -> dict:
    return dict(sorted(raw.items(),
                       key=lambda item: Fraction(item[0].num, item[0].den)))


@given(raw=st.dictionaries(ROOTS, TABLES, max_size=12), m=st.integers(1, 6))
def test_canonical_structure_equals_the_validated_one(raw, m):
    t = JordanStructure(raw)
    streamed = [(root, list(table.items())) for root, table in lifts(t.items(), m)]
    power = cyclic_power(t, m)
    assert streamed == [(root, list(table.items())) for root, table in power.items()]
    angles = [Fraction(root.num, root.den) for root, _ in streamed]
    assert angles == sorted(set(angles))
    assert len(streamed) == m * len(t.spectrum())


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
