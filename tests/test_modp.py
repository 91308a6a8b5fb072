"""The packed elimination mod p against a plain dense reference."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from moninf.modp import PRIME, eliminate
from moninf.oracle import _prime_for_level

PRIMES = (PRIME, _prime_for_level(360)[0])


def _reference(rows: list[list[int]], p: int,
               ) -> tuple[list[int], list[set[int]]]:
    """Dense elimination on unpacked rows, reduced mod p after every step.

    Each row carries its combination of the input rows, so a row that
    reduces to zero gives its relation directly; its support is where
    that relation is nonzero.  Like eliminate, it stops after as many
    pivots as there are columns.
    """
    ncols = len(rows[0])
    stored: list[tuple[int, list[int], list[int]]] = []
    pivots: list[int] = []
    supports: list[set[int]] = []
    for index, row in enumerate(rows):
        row = list(row)
        combo = [int(i == index) for i in range(len(rows))]
        for col, srow, scombo in stored:
            f = row[col]
            row = [(x - f * y) % p for x, y in zip(row, srow)]
            combo = [(x - f * y) % p for x, y in zip(combo, scombo)]
        col = next((c for c, x in enumerate(row) if x), None)
        if col is None:
            supports.append({i for i, c in enumerate(combo) if c})
            continue
        inv = pow(row[col], -1, p)
        stored.append((col, [x * inv % p for x in row],
                       [x * inv % p for x in combo]))
        pivots.append(index)
        if len(pivots) == ncols:
            break
    return pivots, supports


def _slot_boundary(p: int) -> int:
    """The least u for which p - 1 + u*(p - 1)^2, the largest value a slot
    can reach, needs more than the minimum of 8 bytes."""
    return next(u for u in range(1, 100)
                if (p - 1 + u * (p - 1) ** 2).bit_length() > 64)


@st.composite
def _matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    # u = min(#rows, #columns) just below or just at the slot boundary
    u = _slot_boundary(p) - draw(st.integers(0, 1))
    other = u + draw(st.integers(0, 3))
    nrows, ncols = draw(st.permutations([u, other]))
    entry = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
    rows: list[list[int]] = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["entries", "combination", "all p - 1"]))
        if kind == "combination" and rows:
            picks = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                            entry), min_size=1, max_size=3))
            rows.append([sum(c * rows[i][col] for i, c in picks) % p
                         for col in range(ncols)])
        elif kind == "all p - 1":
            rows.append([p - 1] * ncols)
        else:
            rows.append(draw(st.lists(entry, min_size=ncols,
                                      max_size=ncols)))
    return p, rows


def test_slot_boundary_sits_between_4_and_5_rows():
    assert [_slot_boundary(p) for p in PRIMES] == [5, 5]


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_eliminate_matches_the_dense_reference(case):
    p, rows = case
    assert eliminate([row[:] for row in rows], p) == _reference(rows, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("updates", [3, 4, 5, 6])
def test_a_row_that_reaches_the_slot_bound(p, updates):
    # rows (e_j | p - 1, ..., p - 1) are stored as they are; the last row,
    # (1, ..., 1 | p - 1, ...), is updated by each of them with f = 1, so
    # its tail slots reach p - 1 + updates*(p - 1)^2 before the reduction,
    # which passes 2^64 from 5 updates on
    tail = 3
    rows = [[int(c == j) for c in range(updates)] + [p - 1] * tail
            for j in range(updates)]
    rows.append([1] * updates + [p - 1] * tail)
    assert (p - 1 + updates * (p - 1) ** 2 >= 1 << 64) is (updates >= 5)
    expected = _reference(rows, p)
    assert eliminate(rows, p) == expected
    # the tail of the last row is updates - 1 mod p, not zero
    assert expected == (list(range(updates + 1)), [])


def test_eliminate_matches_the_reference_on_a_wide_deficient_matrix():
    # 30 rows with entries 0, 1 and p - 1, then 18 combinations of them
    # and two rows of p - 1: up to 30 updates a row on 9-byte slots
    p = PRIME
    rng = random.Random(13)
    rows = [[rng.choice([0, 1, p - 1]) for _ in range(40)] for _ in range(30)]
    for _ in range(18):
        coeffs = [rng.randrange(p) for _ in rows]
        rows.append([sum(map(int.__mul__, coeffs, col)) % p
                     for col in zip(*rows)])
    rows += [[p - 1] * 40] * 2
    pivots, supports = eliminate([row[:] for row in rows], p)
    assert (pivots, supports) == _reference(rows, p)
    assert len(pivots) + len(supports) == len(rows)


def test_eliminate_rejects_a_modulus_above_prime():
    with pytest.raises(ValueError, match="prime <= 2147483647"):
        eliminate([[1]], PRIME + 2)
