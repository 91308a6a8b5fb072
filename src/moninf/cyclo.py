"""Exact arithmetic on roots of unity and on formal products of linear factors.

A root of unity e^(2*pi*i*p/q) is represented by the reduced fraction p/q,
i.e. as an element of Q/Z stored with 0 <= p < q and gcd(p, q) = 1.  The
group operation (multiplication of roots) is addition of fractions mod 1,
and the multiplicative order of the root is the denominator q.

A :class:`RootExponentVector` is the formal product

    prod_alpha (x - alpha)^(e_alpha)

over roots of unity alpha with nonzero integer exponents e_alpha.  Negative
exponents are allowed, so characteristic polynomials and zeta-function
quotients share one representation.  The product is never expanded into
coefficient form; its display only regroups full Galois orbits into
cyclotomic factors Phi_q, as does a report's characteristic polynomial,
kept in the closed form ``infinity.CharPoly``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterable, Iterator, Mapping, Union

_ROOT_RE = re.compile(r"^\s*(-?\d+)\s*/\s*(\d+)\s*$")


@total_ordering
@dataclass(frozen=True)
class UnitRoot:
    """The root of unity e^(2*pi*i*num/den), reduced so 0 <= num < den."""

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if not isinstance(num, int) or not isinstance(den, int):
            raise TypeError("UnitRoot components must be integers")
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        num %= den
        g = math.gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    def __mul__(self, other: UnitRoot) -> UnitRoot:
        return UnitRoot(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    def __pow__(self, k: int) -> UnitRoot:
        return UnitRoot(self.num * k, self.den)

    def conjugate(self) -> UnitRoot:
        """Complex conjugate, which is also the multiplicative inverse."""
        return UnitRoot(-self.num, self.den)

    def __lt__(self, other: UnitRoot) -> bool:
        return self.num * other.den < other.num * self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    @classmethod
    def parse(cls, text: str) -> UnitRoot:
        if not isinstance(text, str):
            raise ValueError(f"invalid root of unity {text!r}, expected 'num/den'")
        m = _ROOT_RE.match(text)
        if not m:
            raise ValueError(f"invalid root of unity {text!r}, expected 'num/den'")
        return cls(int(m.group(1)), int(m.group(2)))


def reduced_root(num: int, den: int) -> UnitRoot:
    """UnitRoot(num, den) for ints 0 <= num < den, which the callers'
    own roots guarantee: it reduces by the gcd but skips the type and
    sign checks and the reduction mod 1 of the validating constructor."""
    g = math.gcd(num, den)
    root = object.__new__(UnitRoot)
    fields = root.__dict__
    fields["num"], fields["den"] = num // g, den // g
    return root


ONE = UnitRoot(0, 1)
MINUS_ONE = UnitRoot(1, 2)


def mth_roots(xi: UnitRoot, m: int) -> list[UnitRoot]:
    """All m-th roots of xi, sorted by increasing angle.

    The m solutions of alpha**m == xi are (xi.num + j*xi.den) / (m*xi.den)
    for j = 0, ..., m-1.

    >>> [str(a) for a in mth_roots(UnitRoot(5, 6), 5)]
    ['1/6', '11/30', '17/30', '23/30', '29/30']
    """
    if m < 1:
        raise ValueError(f"root index must be >= 1, got {m}")
    return [reduced_root(xi.num + j * xi.den, m * xi.den) for j in range(m)]


def totient(q: int) -> int:
    """Euler's totient of q >= 1."""
    if q < 1:
        raise ValueError(f"totient argument must be >= 1, got {q}")
    result = q
    p, rest = 2, q
    while p * p <= rest:
        if rest % p == 0:
            result -= result // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


_FactorInput = Union[Mapping[UnitRoot, int], Iterable[tuple[UnitRoot, int]]]


class RootExponentVector:
    """Formal product of (x - root)^exponent factors, exponents in Z \\ {0}.

    Immutable; multiplication adds exponents and drops cancelled roots.
    """

    __slots__ = ("_factors",)

    def __init__(self, factors: _FactorInput = ()) -> None:
        acc: dict[UnitRoot, int] = {}
        items = factors.items() if isinstance(factors, Mapping) else factors
        for root, exp in items:
            if not isinstance(root, UnitRoot):
                raise TypeError(f"expected UnitRoot key, got {type(root).__name__}")
            if not isinstance(exp, int):
                raise TypeError(f"exponent for {root} must be an integer")
            if exp:
                acc[root] = acc.get(root, 0) + exp
        object.__setattr__(self, "_factors",
                           {r: acc[r] for r in sorted(acc) if acc[r] != 0})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RootExponentVector is immutable")

    def items(self) -> Iterator[tuple[UnitRoot, int]]:
        """(root, exponent) pairs in increasing angle order."""
        return iter(self._factors.items())

    def __mul__(self, other: RootExponentVector) -> RootExponentVector:
        merged = dict(self._factors)
        for root, exp in other._factors.items():
            merged[root] = merged.get(root, 0) + exp
        return RootExponentVector(merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootExponentVector):
            return NotImplemented
        return self._factors == other._factors

    def __repr__(self) -> str:
        inner = ", ".join(f"{r}: {e}" for r, e in self._factors.items())
        return f"RootExponentVector({{{inner}}})"

    def __str__(self) -> str:
        """The product as Phi_q powers, then linear factors.

        For each denominator q whose full set of primitive q-th roots appears
        with exponents of one common sign, the signed minimum exponent is
        pulled out as Phi_q, written (x - 1) for q = 1 and (x + 1) for q = 2;
        whatever remains stays as linear factors (x - zeta(p/q)).  The
        expansion of the display always equals the product exactly.
        """
        by_den: dict[int, dict[UnitRoot, int]] = {}
        for root, exp in self._factors.items():
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

    def to_json(self) -> dict[str, int]:
        """JSON form: {"num/den": exponent} with roots in increasing order."""
        return {str(r): e for r, e in self._factors.items()}
