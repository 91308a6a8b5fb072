"""Jordan type of cyclic block operators.

Given an operator phi with Jordan structure T, the cyclic operator of
order m built from phi acts on m stacked copies of the underlying space by

    (x_1, ..., x_m) |-> (phi(x_m), x_1, ..., x_{m-1}).

Its Jordan structure is determined by T alone: a block of size l at the
eigenvalue xi of phi contributes one block of size l at every m-th root
of xi.  Equivalently, the number of size-l blocks of the cyclic operator
at alpha equals the number of size-l blocks of phi at alpha**m.
:func:`cyclo.lifts` streams that rule in root order from T's tables at
its level, as (p, q, value) in lowest terms; :func:`cyclic_power` makes
a root of each, and the assembler reads the stream through
:func:`lifted_runs` and never builds the power.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Iterator

from .cyclo import V, lifts, reduced_root
from .cyclo import mth_roots  # noqa: F401 -- perfbench/spans.py wraps this name
from .jordan import JordanStructure


def cyclic_power(t: JordanStructure, m: int) -> JordanStructure:
    """Jordan structure of the order-m cyclic operator built from t."""
    level, tables = t.tables()
    return JordanStructure((reduced_root(p, q), table)
                           for p, q, table in lifts(level, tables.items(), m))


def lifted_runs(level: int, pairs: list[tuple[int, V]], m: int
                ) -> Iterator[list[tuple[int, int, V]]]:
    """The lifts of pairs, (r, value) at level as :func:`cyclo.lifts` reads
    them, in the m + 2 runs before, between and after the (m+1)-th roots
    of unity.  The root s/(m+1) lies in the range of j = max(s-1, 0), where
    the lift of its inverse k/(m+1) would: when pairs has that eigenvalue,
    its lift is s/(m+1) itself, and it is left out.  A root r/level lies
    below k/(m+1) just when r*(m+1)//level does below k, so pairs are
    bisected on those integers."""
    if not pairs:
        yield from itertools.repeat([], m + 2)
        return
    d = m + 1
    keys = [r * d // level for r, _ in pairs]
    stream = lifts(level, pairs, m)
    done = 0
    for s in range(d):
        k = -s % d
        at = bisect_left(keys, k)
        end = max(s - 1, 0) * len(keys) + at
        yield list(itertools.islice(stream, end - done))
        done = end
        if at < len(keys) and pairs[at][0] * d == k * level:
            next(stream)
            done += 1
    yield list(stream)
