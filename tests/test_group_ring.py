"""The oracle's packed group ring Z[C_L] = Z[x]/(x^L - 1), held to the
reference arithmetic over Z[zeta_L] in tests/_field.py.

An element is one int with a signed slot of `width` bits per power of x;
`_Ring` chooses the width from a bound on every slot.  Products fold the
high slots onto the low ones, a monomial entry is a shift, Psi_L =
(x^L - 1)/Phi_L tests for zero in Z[zeta_L], and any representative in
Z[C_L] maps to the same residue mod p.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from _field import field, sparse_matmul, to_power_basis
from moninf import oracle
from moninf.oracle import _Ring, _monomials, _psi, cyclotomic_polynomial

LEVELS = [1, 2, 12, 60, 360]


def _element(level: int, bits: int = 40):
    """A sparse element of Z[C_level] as its list of level coefficients,
    of either sign, up to 2^bits in absolute value."""
    return st.dictionaries(st.integers(0, level - 1),
                           st.integers(-2 ** bits, 2 ** bits),
                           max_size=5).map(
        lambda terms: [terms.get(i, 0) for i in range(level)])


def _norm(vec) -> int:
    return sum(map(abs, vec))


def _cyclic(a, b, level: int) -> list[int]:
    """The product in Z[C_level]: a convolution with indices mod level."""
    out = [0] * level
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % level] += x * y
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data(), level=st.sampled_from(LEVELS))
def test_packed_product_and_fold_are_the_cyclic_convolution(data, level):
    a, b = data.draw(_element(level)), data.draw(_element(level))
    # the bound of every slot of a, b and their product: with one term
    # each, a slot of the product sits at the bound itself
    bound = max(1, _norm(a), _norm(b), _norm(a) * _norm(b))
    ring = _Ring(level, bound)
    # the fewest whole bytes, at least 8, whose slot holds the bound
    assert 2 ** (ring.width - 1) > bound
    assert ring.width == 64 or bound >= 2 ** (ring.width - 9)
    assert ring.slots(ring.pack(a)) == a
    product = ring.slots(ring.fold(ring.pack(a) * ring.pack(b)))
    assert product == _cyclic(a, b, level)
    # onto Z[zeta_level] it is the reference product of the reductions
    assert to_power_basis(product, level) == field(level).vmul(
        to_power_basis(a, level), to_power_basis(b, level))
    # and mod p any representative goes where its reduction does
    prime, omega = oracle._prime_for_level(level)
    to_p = oracle._ring_map(level, prime, omega)
    assert to_p(product) == to_p(to_power_basis(product, level))


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("bound", [1, 2 ** 63 - 1, 2 ** 63, 2 ** 100 + 3])
def test_slots_at_the_width_bound_read_back_and_fold(level, bound):
    ring = _Ring(level, bound)
    edge = [bound if i % 3 else -bound for i in range(level)]
    assert ring.slots(ring.pack(edge)) == edge
    # the high half carries -bound, the low half its opposite: the fold
    # adds them to 0, and a high half alone lands on the low slots
    high = ring.pack([-c for c in edge]) << level * ring.width
    assert ring.fold(ring.pack(edge) + high) == 0
    assert ring.slots(ring.fold(high)) == [-c for c in edge]
    assert ring.fold(ring.pack(edge)) == ring.pack(edge)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), level=st.sampled_from(LEVELS))
def test_a_monomial_entry_is_a_shift(data, level):
    a = data.draw(_element(level))
    e = data.draw(st.integers(0, level - 1))
    ring = _Ring(level, max(1, _norm(a)))
    general = data.draw(_element(level, 3).filter(
        lambda v: tuple(to_power_basis(v, level)) not in _monomials(
            level)[1]))
    entry = to_power_basis(general, level)
    factors, rows = ring.operator([{0: _monomials(level)[0][e], 1: entry}])
    (shift, factor), (zero, packed) = factors[0].values()
    assert (shift, factor) == (e * ring.width, None)
    assert zero == 0 and ring.slots(packed) == [*entry] + [0] * (
        level - len(entry))
    assert rows == [{0: 1 << shift, 1: packed}]
    rotated = [a[(i - e) % level] for i in range(level)]
    assert ring.slots(ring.fold(ring.pack(a) << shift)) == rotated


@settings(max_examples=30, deadline=None)
@given(data=st.data(), level=st.sampled_from(LEVELS))
def test_sparse_matmul_matches_the_reference(data, level):
    # a row that is a lone 1 shares the row of B; the others take shifts
    # for monomials and products for general entries
    monomials = _monomials(level)[0]
    dim = 3
    entry = st.one_of(st.integers(0, level - 1).map(monomials.__getitem__),
                      _element(level, 3).map(
                          lambda v: to_power_basis(v, level)))
    rows = [data.draw(st.dictionaries(st.integers(0, dim - 1), entry,
                                      max_size=dim)) for _ in range(dim)]
    rows = [{j: vec for j, vec in row.items() if any(vec)} for row in rows]
    rows[0] = {1: monomials[0]}
    bound = oracle._bound(rows, 2)
    ring = _Ring(level, bound)
    factors, packed = ring.operator(rows)
    product = oracle._sparse_matmul(factors, packed, ring)
    assert product[0] is packed[1]
    expected = sparse_matmul(rows, rows, level)
    assert [{j: to_power_basis(ring.slots(v), level)
             for j, v in row.items()
             if any(to_power_basis(ring.slots(v), level))}
            for row in product] == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data(), level=st.sampled_from(LEVELS))
def test_psi_finds_exactly_the_zeros_of_z_zeta(data, level):
    q, r = data.draw(_element(level, 20)), data.draw(_element(level, 20))
    multiple = _cyclic(q, cyclotomic_polynomial(level), level)
    assert not any(to_power_basis(multiple, level))
    psi = _psi(level)
    assert len(psi) == level - len(cyclotomic_polynomial(level)) + 2
    for v in (multiple, r, [1] + [0] * (level - 1)):
        ring = _Ring(level, max(1, _norm(v) * _norm(psi)))
        vanishes = not ring.fold(ring.pack(v) * ring.pack(psi))
        assert vanishes == (not any(to_power_basis(v, level)))
