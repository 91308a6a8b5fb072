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
coefficient form; :func:`factor_list` only regroups full Galois orbits into
cyclotomic factors Phi_q for display.
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
    return [UnitRoot(xi.num + j * xi.den, m * xi.den) for j in range(m)]


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

    @classmethod
    def linear(cls, root: UnitRoot, exponent: int = 1) -> RootExponentVector:
        """(x - root)^exponent."""
        return cls([(root, exponent)])

    @classmethod
    def power_minus_one(cls, d: int, exponent: int = 1) -> RootExponentVector:
        """(x^d - 1)^exponent, expanded over all d-th roots of unity."""
        if d < 1:
            raise ValueError(f"degree must be >= 1, got {d}")
        return cls((UnitRoot(j, d), exponent) for j in range(d))

    def items(self) -> Iterator[tuple[UnitRoot, int]]:
        """(root, exponent) pairs in increasing angle order."""
        return iter(self._factors.items())

    @property
    def degree(self) -> int:
        """Sum of exponents; the degree when the product is a polynomial."""
        return sum(self._factors.values())

    def is_polynomial(self) -> bool:
        return all(e > 0 for e in self._factors.values())

    def __mul__(self, other: RootExponentVector) -> RootExponentVector:
        merged = dict(self._factors)
        for root, exp in other._factors.items():
            merged[root] = merged.get(root, 0) + exp
        return RootExponentVector(merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootExponentVector):
            return NotImplemented
        return self._factors == other._factors

    def __hash__(self) -> int:
        return hash(tuple(self._factors.items()))

    def __bool__(self) -> bool:
        return bool(self._factors)

    def __repr__(self) -> str:
        inner = ", ".join(f"{r}: {e}" for r, e in self._factors.items())
        return f"RootExponentVector({{{inner}}})"

    def __str__(self) -> str:
        return format_factors(factor_list(self))

    def to_json(self) -> dict[str, int]:
        """JSON form: {"num/den": exponent} with roots in increasing order."""
        return {str(r): e for r, e in self._factors.items()}


@dataclass(frozen=True)
class PhiFactor:
    """Phi_q^exponent: the full orbit of primitive q-th roots of unity."""

    q: int
    exponent: int

    def __str__(self) -> str:
        if self.q == 1:
            base = "(x - 1)"
        elif self.q == 2:
            base = "(x + 1)"
        else:
            base = f"Phi_{self.q}"
        return base if self.exponent == 1 else f"{base}^{self.exponent}"


@dataclass(frozen=True)
class RootFactor:
    """A single linear factor (x - zeta(num/den))^exponent."""

    root: UnitRoot
    exponent: int

    def __str__(self) -> str:
        if self.root == ONE:
            base = "(x - 1)"
        elif self.root == MINUS_ONE:
            base = "(x + 1)"
        else:
            base = f"(x - zeta({self.root}))"
        return base if self.exponent == 1 else f"{base}^{self.exponent}"


Factor = Union[PhiFactor, RootFactor]


def factor_list(rev: RootExponentVector) -> list[Factor]:
    """Greedy grouping of Galois orbits into cyclotomic factors.

    For each denominator q whose full set of primitive q-th roots appears
    with exponents of one common sign, the signed minimum exponent is pulled
    out as Phi_q; whatever remains stays as explicit linear factors.  The
    expansion of the result always equals the input exactly.
    """
    by_den: dict[int, dict[UnitRoot, int]] = {}
    for root, exp in rev.items():
        by_den.setdefault(root.den, {})[root] = exp
    phi_parts: list[PhiFactor] = []
    loose: list[RootFactor] = []
    for q in sorted(by_den):
        orbit = by_den[q]
        exps = list(orbit.values())
        full = len(orbit) == totient(q)
        same_sign = all(e > 0 for e in exps) or all(e < 0 for e in exps)
        if full and same_sign:
            sign = 1 if exps[0] > 0 else -1
            e = sign * min(abs(v) for v in exps)
            phi_parts.append(PhiFactor(q, e))
            orbit = {r: v - e for r, v in orbit.items() if v != e}
        loose.extend(RootFactor(r, v) for r, v in sorted(orbit.items()) if v)
    return [*phi_parts, *loose]


def format_factors(factors: list[Factor]) -> str:
    if not factors:
        return "1"
    return " * ".join(str(f) for f in factors)
