"""The references that tests hold the package's closed forms to.

A product prod_alpha (x - alpha)^(e_alpha) over roots of unity is kept
as a dict from UnitRoot to its nonzero exponent, the roots by increasing
angle, as the package kept it before the closed form `CharPoly`:
`display` is that former ``str()`` and `to_json` that former JSON dict.
`CharPoly` must give the same display and, up to key order, the same
dict for the same product.

The local monodromies are integer tables (`jordan.Tables`);
`as_structure` checks that form and reads it back as the Jordan
structure it stands for; `residues` writes (root, value) pairs in the
residue form that `CharPoly` and `cyclo.lifts` read; and `conjugate`,
`iter_blocks` and `is_conjugation_symmetric` are the helpers on roots
and structures that the package kept before.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Iterator, TypeVar

from moninf.cyclo import UnitRoot, mth_roots, totient
from moninf.jordan import JordanStructure

Product = dict[UnitRoot, int]
V = TypeVar("V")


def product(factors: Iterable[tuple[UnitRoot, int]]) -> Product:
    """(x - root)^exponent over factors: exponents of a repeated root add,
    and a root whose exponents cancel is dropped."""
    acc: Product = {}
    for root, exp in factors:
        acc[root] = acc.get(root, 0) + exp
    return {root: acc[root] for root in sorted(acc) if acc[root]}


def times(*products: Product) -> Product:
    """The product of products: exponents add."""
    return product(item for p in products for item in p.items())


def of_jordan(j: JordanStructure) -> Product:
    """A Jordan structure's characteristic polynomial."""
    return product((root, j.multiplicity(root)) for root in j.spectrum())


def closed(d: int, pairs, at) -> Product:
    """What CharPoly(pairs, d - 1, at) stands for: prod_s (x - s/d)^(at[s])
    times the lifts of pairs to the (d-1)-th roots off the d-th roots,
    each with its pair's value."""
    factors = [(UnitRoot(s, d), e) for s, e in enumerate(at)]
    for y, k in pairs:
        factors += [(alpha, k) for alpha in mth_roots(y, d - 1)
                    if d % alpha.den]
    return product(factors)


def residues(pairs: list[tuple[UnitRoot, V]]) -> tuple[int, list[tuple[int, V]]]:
    """(L, [(r, value)]): pairs (root, value) by increasing angle as the
    residues r at the lcm L of their orders that `CharPoly` and
    `cyclo.lifts` read, r/L the root."""
    level = lcm(*(root.den for root, _ in pairs))
    return level, [(root.num * (level // root.den), value)
                   for root, value in pairs]


def conjugate(root: UnitRoot) -> UnitRoot:
    """The complex conjugate, which is also the multiplicative inverse."""
    return UnitRoot(-root.num, root.den)


def iter_blocks(j: JordanStructure) -> Iterator[tuple[UnitRoot, int, int]]:
    """(eigenvalue, size, count) triples in canonical order."""
    for root, sizes in j.items():
        for size, count in sizes.items():
            yield root, size, count


def is_conjugation_symmetric(j: JordanStructure) -> bool:
    """True when the block data at alpha and at conj(alpha) agree."""
    tables = dict(j.items())
    return all(table == tables.get(conjugate(root), {})
               for root, table in tables.items())


def as_structure(level: int, tables: dict[int, dict[int, int]]
                 ) -> JordanStructure:
    """The Jordan structure with the table tables[r] at r/level, after
    checking the form: residues 0 <= r < level ascending, sizes
    decreasing with positive counts, and level the lcm of the orders."""
    assert list(tables) == sorted(tables)
    assert all(0 <= r < level for r in tables)
    for table in tables.values():
        assert table and list(table) == sorted(table, reverse=True)
        assert all(size >= 1 and count >= 1 for size, count in table.items())
    structure = JordanStructure(
        {UnitRoot(r, level): table for r, table in tables.items()})
    assert level == lcm(*(root.den for root in structure.spectrum()))
    return structure


def display(p: Product) -> str:
    """The product as Phi_q powers, then linear factors.

    For each denominator q whose full set of primitive q-th roots appears
    with exponents of one common sign, the signed minimum exponent is
    pulled out as Phi_q, written (x - 1) for q = 1 and (x + 1) for q = 2;
    whatever remains stays as linear factors (x - zeta(p/q)).
    """
    by_den: dict[int, Product] = {}
    for root, exp in p.items():
        by_den.setdefault(root.den, {})[root] = exp
    phis: list[tuple[str, int]] = []
    loose: list[tuple[str, int]] = []
    for q, orbit in sorted(by_den.items()):
        exps = orbit.values()
        if len(orbit) == totient(q) and (all(e > 0 for e in exps)
                                         or all(e < 0 for e in exps)):
            e = min(exps, key=abs)
            phis.append(({1: "(x - 1)", 2: "(x + 1)"}.get(q, f"Phi_{q}"), e))
            orbit = {r: v - e for r, v in orbit.items()}
        loose.extend((f"(x - zeta({r}))", v) for r, v in orbit.items() if v)
    return " * ".join(base if e == 1 else f"{base}^{e}"
                      for base, e in phis + loose) or "1"


def to_json(p: Product) -> dict[str, int]:
    """{"num/den": exponent} with the roots in increasing order."""
    return {str(root): e for root, e in p.items()}


def forms(p: Product) -> tuple[str, dict[str, int]]:
    """The display and the JSON dict, as `_forms` gives them of a CharPoly."""
    return display(p), to_json(p)
