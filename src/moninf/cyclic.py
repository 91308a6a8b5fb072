"""Jordan type of cyclic block operators.

Given an operator phi with Jordan structure T, the cyclic operator of
order m built from phi acts on m stacked copies of the underlying space by

    (x_1, ..., x_m) |-> (phi(x_m), x_1, ..., x_{m-1}).

Its Jordan structure is determined by T alone: a block of size l at the
eigenvalue xi of phi contributes one block of size l at every m-th root
of xi.  Equivalently, the number of size-l blocks of the cyclic operator
at alpha equals the number of size-l blocks of phi at alpha**m.
:func:`lifts` streams that rule in root order, making each root with
:func:`cyclo.reduced_root` since every fraction it forms is already in
[0, 1); the assembler reads it through :func:`lifted_runs` and never
builds the power.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Iterable, Iterator, TypeVar

from .cyclo import UnitRoot, reduced_root
from .cyclo import mth_roots  # noqa: F401 -- perfbench/spans.py wraps this name
from .jordan import JordanStructure

V = TypeVar("V")


def lifts(pairs: Iterable[tuple[UnitRoot, V]], m: int
          ) -> Iterator[tuple[UnitRoot, V]]:
    """(alpha, value) for every m-th root alpha of each xi of pairs, which
    holds (xi, value) in root order, the xi distinct.  The j-th m-th root
    of xi, (xi + j)/m, lies in [j/m, (j+1)/m), so the stream is in root
    order with j in the outer loop and xi in the inner one."""
    if m < 1:
        raise ValueError(f"cyclic order must be >= 1, got {m}")
    pairs = list(pairs)
    return ((reduced_root(xi.num + j * xi.den, m * xi.den), value)
            for j in range(m) for xi, value in pairs)


def cyclic_power(t: JordanStructure, m: int) -> JordanStructure:
    """Jordan structure of the order-m cyclic operator built from t."""
    return JordanStructure(lifts(t.items(), m))


def lifted_runs(pairs: list[tuple[UnitRoot, V]], m: int
                ) -> Iterator[list[tuple[UnitRoot, V]]]:
    """The lifts of pairs, in the m + 2 runs before, between and after the
    (m+1)-th roots of unity.  The root s/(m+1) lies in the range of
    j = max(s-1, 0), where the lift of its inverse k/(m+1) would: when
    pairs has that eigenvalue, its lift is s/(m+1) itself, and it is left
    out.  A root num/den lies below k/(m+1) just when num*(m+1)//den does
    below k, so the roots of pairs are bisected on those integers."""
    if not pairs:
        yield from itertools.repeat([], m + 2)
        return
    keys = [root.num * (m + 1) // root.den for root, _ in pairs]
    stream = lifts(pairs, m)
    done = 0
    for s in range(m + 1):
        k = -s % (m + 1)
        at = bisect_left(keys, k)
        end = max(s - 1, 0) * len(keys) + at
        yield list(itertools.islice(stream, end - done))
        done = end
        if at < len(keys) and \
                pairs[at][0].num * (m + 1) == k * pairs[at][0].den:
            next(stream)
            done += 1
    yield list(stream)
