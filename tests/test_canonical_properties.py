"""Property tests for what is built in canonical order without sorting.

`RootExponentVector.power_minus_one` stores the d-th roots as it makes
them, without checks or sorting, and `cyclo.reduced_root` makes a root
without the validating constructor's checks; they must give exactly
what the validating constructor gives.  `cyclic.lifts` streams the
lifted pairs in root order, which the assembler relies on; they must
come as the validating constructor of the cyclic power stores them.
Order is included: dict equality ignores order, so the items are also
compared as lists.

`infinity.CharPoly` is a characteristic polynomial in closed form from
(eigenvalue, dimension) pairs, m = d - 1 and the exponents at the d-th
roots; its display and its factor dict must be those of the
RootExponentVector of the same product, on pairs that are not Galois
stable, partial orbits, orbits with unequal dimensions and eigenvalues
at d-th roots, and on both routes of the assembler.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from moninf.cyclic import cyclic_power, lifts  # noqa: E402
from moninf.cyclo import (  # noqa: E402
    RootExponentVector,
    UnitRoot,
    mth_roots,
    reduced_root,
)
from moninf.infinity import (  # noqa: E402
    CharPoly,
    EnumerateBeta,
    InstanceError,
    ProblemSpec,
    assemble,
    charpoly_local_formula,
    zeta_of_top_form,
)
from moninf.jordan import JordanStructure  # noqa: E402
from moninf.localsing import ExplicitJordan  # noqa: E402

ROOTS = st.builds(lambda den, num: UnitRoot(num % den, den),
                  st.integers(1, 24), st.integers(0, 23))
TABLES = st.dictionaries(st.integers(1, 6), st.integers(1, 5),
                         min_size=1, max_size=4)


@given(raw=st.dictionaries(ROOTS, TABLES, max_size=12), m=st.integers(1, 6))
def test_canonical_structure_equals_the_validated_one(raw, m):
    t = JordanStructure(raw)
    streamed = [(root, list(table.items())) for root, table in lifts(t.items(), m)]
    power = cyclic_power(t, m)
    assert streamed == [(root, list(table.items())) for root, table in power.items()]
    angles = [Fraction(root.num, root.den) for root, _ in streamed]
    assert angles == sorted(set(angles))
    assert len(streamed) == m * len(t.spectrum())


@given(d=st.integers(1, 40), exponent=st.integers(-5, 5))
def test_power_minus_one_equals_the_validated_product(d, exponent):
    fast = RootExponentVector.power_minus_one(d, exponent)
    slow = RootExponentVector((UnitRoot(j, d), exponent) for j in range(d))
    assert fast == slow
    assert list(fast.items()) == list(slow.items())
    assert list(fast.to_json().items()) == list(slow.to_json().items())
    assert str(fast) == str(slow)
    assert (fast == RootExponentVector()) == (exponent == 0)


@given(den=st.integers(1, 10**6), num=st.integers(0, 10**6))
def test_reduced_root_equals_the_validated_one(den, num):
    fast, slow = reduced_root(num % den, den), UnitRoot(num % den, den)
    assert (fast.num, fast.den) == (slow.num, slow.den)
    assert fast == slow and hash(fast) == hash(slow)


# d prime, d - 1 prime, d - 1 with many divisors, and small d
DEGREES = st.sampled_from([2, 3, 4, 5, 6, 7, 8, 12, 13, 25, 31, 37, 61])


@st.composite
def _pairs_and_slots(draw):
    """(d, pairs, exponents at the d-th roots): pairs hold loose roots
    and whole orbits, with equal or unequal values, some at d-th roots;
    the exponents are zero, loose, or the same on a whole orbit."""
    d = draw(DEGREES)
    chosen: dict[UnitRoot, int] = {}
    for den in draw(st.lists(st.integers(1, 30), max_size=4)):
        even = draw(st.integers(1, 4))
        for num in range(den):
            root = UnitRoot(num, den)
            if root.den == den and draw(st.integers(0, 3)):
                chosen[root] = even if draw(st.booleans()) else \
                    draw(st.integers(1, 4))
    for root in draw(st.lists(ROOTS, max_size=5)):
        chosen[root] = draw(st.integers(1, 4))
    pairs = sorted(chosen.items(), key=lambda item: Fraction(item[0].num,
                                                             item[0].den))
    at = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
    for q in draw(st.lists(st.sampled_from(
            [q for q in range(1, d + 1) if d % q == 0]), max_size=2)):
        value = draw(st.integers(1, 3))
        at = [value if math.gcd(s, d) * q == d else e
              for s, e in enumerate(at)]
    return d, pairs, at


def _product(d: int, pairs, at) -> RootExponentVector:
    """prod_s (x - s/d)^(at[s]) times the lifts of pairs to the (d-1)-th
    roots off the d-th roots, each with its pair's value."""
    factors = [(UnitRoot(s, d), e) for s, e in enumerate(at)]
    for y, k in pairs:
        factors += [(alpha, k) for alpha in mth_roots(y, d - 1)
                    if d % alpha.den]
    return RootExponentVector(factors)


def _forms(poly) -> tuple[str, dict[str, int]]:
    return str(poly), poly.to_json()


@given(case=_pairs_and_slots())
def test_closed_charpoly_is_the_product(case):
    d, pairs, at = case
    assert _forms(CharPoly(pairs, d - 1, at)) == _forms(_product(d, pairs, at))


def test_empty_closed_charpoly_is_one():
    for d in (2, 3, 12):
        assert _forms(CharPoly([], d - 1, [0] * d)) == ("1", {})


GERMS = st.builds(lambda raw: ExplicitJordan(JordanStructure(raw)),
                  st.dictionaries(ROOTS, st.dictionaries(
                      st.integers(1, 2), st.integers(1, 3),
                      min_size=1, max_size=2), min_size=1, max_size=5))


@given(germs=st.lists(st.tuples(GERMS, st.integers(1, 2)), max_size=2),
       d=DEGREES)
def test_both_routes_give_the_products(germs, d):
    # the assembled operator's: conj(T) with the slots of the first
    # vector; the formula's: zeta times the lifts of T, at every root
    try:
        spec = ProblemSpec(2, d, tuple(germs), EnumerateBeta())
        report = assemble(spec, enumerate_cap=1)
    except InstanceError:
        return
    if report.entries:
        assert _forms(report.charpoly) == \
            _forms(report.entries[0].jordan.char_poly())
    zeta, t = zeta_of_top_form(spec), spec.local_sum
    reference = zeta * RootExponentVector(
        (alpha, t.multiplicity(y))
        for y in t.spectrum() for alpha in mth_roots(y, d - 1))
    if all(e > 0 for _, e in reference.items()):
        formula = charpoly_local_formula(zeta, t, d)
        assert _forms(formula) == _forms(reference)
        if not report.entries:
            assert _forms(report.charpoly) == _forms(reference)
