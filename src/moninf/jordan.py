"""Jordan structures of finite-order-spectrum operators, up to conjugacy.

A :class:`JordanStructure` records, for each eigenvalue (a root of unity),
the multiset of Jordan block sizes at that eigenvalue.  This determines the
operator up to conjugation.  The canonical order everywhere is eigenvalues
by increasing angle, block sizes decreasing.
"""

from __future__ import annotations

from math import lcm
from operator import eq, itemgetter
from typing import Callable, ItemsView, Iterable, Iterator, Mapping

from .cyclo import MINUS_ONE, ONE, CharPoly, UnitRoot

SLICE = 4096  # items per piece of output text: bounds the longest piece

Tables = tuple[int, dict[int, dict[int, int]]]
"""(L, {r: {size: count}}): the block table at each eigenvalue r/L."""


class Runs:
    """A list of ints kept as (value, count) runs, in order.

    Iterating yields the values one by one, and a Runs equals the plain
    list it expands to.  It is not a list, so json.dumps refuses it; the
    --json writer renders each run without expanding it.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[int, int]]) -> None:
        merged: list[tuple[int, int]] = []
        for value, count in pairs:
            if type(value) is not int or type(count) is not int or count < 0:
                raise TypeError(f"a run is an int and a count >= 0, "
                                f"got {value!r} x {count!r}")
            if merged and merged[-1][0] == value:
                merged[-1] = (value, merged[-1][1] + count)
            elif count:
                merged.append((value, count))
        self.pairs = tuple(merged)

    def __iter__(self) -> Iterator[int]:
        for value, count in self.pairs:
            for _ in range(count):  # range takes counts beyond sys.maxsize
                yield value

    def __bool__(self) -> bool:
        return bool(self.pairs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Runs):
            return self.pairs == other.pairs
        if isinstance(other, list):
            return (len(other) == sum(count for _, count in self.pairs)
                    and all(map(eq, self, other)))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Runs({list(self.pairs)!r})"

    def joined(self, sep: str) -> Iterator[str]:
        """The values' text joined by sep, in pieces of at most SLICE
        values, each but the first led by sep, by string multiplication."""
        lead = ""
        for value, count in self.pairs:
            text = str(value)
            while count:
                take = min(count, SLICE)
                yield lead + text + (sep + text) * (take - 1)
                lead, count = sep, count - take


class Rows:
    """A JordanStructure.to_json list, made only while the --json writer
    writes it: make() yields (p, q, Runs of its sizes) for each eigenvalue
    p/q, in lowest terms and root order, anew on each call."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[], Iterable[tuple[int, int, Runs]]]
                 ) -> None:
        self.make = make


class JordanStructure:
    """Multiset of Jordan blocks, keyed by eigenvalue then block size."""

    __slots__ = ("_blocks",)

    def __init__(self, blocks: dict[UnitRoot, Mapping[int, int]]
                 | Iterable[tuple[UnitRoot, Mapping[int, int]]] = ()) -> None:
        canon: dict[UnitRoot, dict[int, int]] = {}
        items = blocks.items() if isinstance(blocks, dict) else blocks
        for root, sizes in items:
            if not isinstance(root, UnitRoot):
                raise TypeError(f"eigenvalue must be a UnitRoot, got {root!r}")
            at = canon.setdefault(root, {})
            for size, count in sizes.items():
                if not isinstance(size, int) or size < 1:
                    raise ValueError(f"block size must be a positive integer, got {size}")
                if not isinstance(count, int) or count < 0:
                    raise ValueError(f"block count must be a nonnegative integer, got {count}")
                if count:
                    at[size] = at.get(size, 0) + count
        # canonical order; a root whose counts were all zero is dropped
        object.__setattr__(self, "_blocks", {
            root: dict(sorted(at.items(), reverse=True))
            for root, at in sorted(canon.items(), key=itemgetter(0)) if at})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("JordanStructure is immutable")

    def multiplicity(self, alpha: UnitRoot) -> int:
        """Algebraic multiplicity of alpha: sum of its block sizes."""
        return sum(size * count for size, count in self._blocks.get(alpha, {}).items())

    def sizes_at(self, alpha: UnitRoot) -> list[int]:
        """Block sizes at alpha, decreasing, with multiplicity."""
        out: list[int] = []
        for size, count in self._blocks.get(alpha, {}).items():
            out.extend([size] * count)
        return out

    def spectrum(self) -> list[UnitRoot]:
        """Distinct eigenvalues, by increasing angle."""
        return list(self._blocks)

    def items(self) -> ItemsView[UnitRoot, Mapping[int, int]]:
        """(eigenvalue, size -> count table) pairs in canonical order.
        The tables are the structure's own, not copies: read them only."""
        return self._blocks.items()

    def tables(self) -> Tables:
        """The structure as Tables: L the lcm of the orders, residues
        ascending, the tables the structure's own: read them only."""
        level = lcm(*(root.den for root in self._blocks))
        return level, {root.num * (level // root.den): table
                       for root, table in self._blocks.items()}

    @property
    def total_dim(self) -> int:
        return sum(size * count for _, sizes in self._blocks.items()
                   for size, count in sizes.items())

    def char_poly(self) -> CharPoly:
        """Characteristic polynomial, as the CharPoly with m = 1."""
        level, tables = self.tables()
        return CharPoly(level, list(zip(tables, map(self.multiplicity, self._blocks))),
                        1, [self.multiplicity(ONE), self.multiplicity(MINUS_ONE)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JordanStructure):
            return NotImplemented
        return self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash(tuple((root, tuple(sizes.items()))
                          for root, sizes in self._blocks.items()))

    def __bool__(self) -> bool:
        return bool(self._blocks)

    def __repr__(self) -> str:
        inner = ", ".join(f"'{root}': {self.sizes_at(root)}"
                          for root in self._blocks)
        return f"JordanStructure({{{inner}}})"

    def to_json(self) -> list[dict[str, object]]:
        """JSON form: [{"eigenvalue": "num/den", "blocks": [sizes desc]}],
        each block list as the Runs of its sizes."""
        return [{"eigenvalue": str(root), "blocks": Runs(sizes.items())}
                for root, sizes in self._blocks.items()]

    @classmethod
    def from_json(cls, data: object) -> JordanStructure:
        if not isinstance(data, list):
            raise ValueError("jordan data must be a list of eigenvalue entries")
        acc: dict[UnitRoot, dict[int, int]] = {}
        for entry in data:
            if not isinstance(entry, dict) or set(entry) != {"eigenvalue", "blocks"}:
                raise ValueError(
                    "each jordan entry must be an object with exactly "
                    "the keys 'eigenvalue' and 'blocks'")
            root = UnitRoot.parse(entry["eigenvalue"])
            if root in acc:
                raise ValueError(f"duplicate eigenvalue {root} in jordan data")
            blocks = entry["blocks"]
            if (not isinstance(blocks, list) or not blocks
                    or not all(isinstance(b, int) and not isinstance(b, bool)
                               and b >= 1 for b in blocks)):
                raise ValueError(
                    f"blocks for {root} must be a nonempty list of positive integers")
            sizes: dict[int, int] = {}
            for b in blocks:
                sizes[b] = sizes.get(b, 0) + 1
            acc[root] = sizes
        return cls(acc)
