"""Exact arithmetic on roots of unity and characteristic polynomials.

A root of unity e^(2*pi*i*p/q) is represented by the reduced fraction p/q,
i.e. as an element of Q/Z stored with 0 <= p < q and gcd(p, q) = 1.  The
multiplicative order of the root is the denominator q.

A :class:`CharPoly` is a product of linear factors (x - alpha) over roots
of unity in closed form: :func:`lifts` of (r, dimension) pairs, r/L the
eigenvalue at a level L, to the m-th roots, and exponents of any sign at
the (m+1)-th roots.  It is never expanded over its roots; its display
regroups full Galois orbits into cyclotomic factors Phi_q.  A Jordan
structure's characteristic polynomial is one with m = 1; a report's and
the zeta function of the top form are ones with m = d - 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering
from math import gcd
from typing import Iterable, Iterator, TypeVar

V = TypeVar("V")

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
        g = gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

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
    g = gcd(num, den)
    root = object.__new__(UnitRoot)
    fields = root.__dict__
    fields["num"], fields["den"] = num // g, den // g
    return root


ONE = UnitRoot(0, 1)
MINUS_ONE = UnitRoot(1, 2)


def lifts(level: int, pairs: Iterable[tuple[int, V]], m: int
          ) -> Iterator[tuple[int, int, V]]:
    """(p, q, value) for each m-th root p/q, in lowest terms, of each r/level
    of pairs, which holds (r, value) with r ascending below level.  The
    j-th m-th root of r/level, (r + j*level)/(m*level), lies in
    [j/m, (j+1)/m), so the stream is in root order with j in the outer
    loop and r in the inner one; without pairs j takes no value."""
    if m < 1:
        raise ValueError(f"root index must be >= 1, got {m}")
    pairs, big = list(pairs), m * level
    return ((a // g, big // g, value) for j in range(0, big if pairs else 0, level)
            for r, value in pairs for a in [r + j] for g in [gcd(a, big)])


def mth_roots(xi: UnitRoot, m: int) -> list[UnitRoot]:
    """All m-th roots of xi, sorted by increasing angle.

    >>> [str(a) for a in mth_roots(UnitRoot(5, 6), 5)]
    ['1/6', '11/30', '17/30', '23/30', '29/30']
    """
    return [reduced_root(p, q) for p, q, _ in lifts(xi.den, [(xi.num, 0)], m)]


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


class CharPoly:
    """The product of (x - alpha)^k over the lifts alpha of each r/level of
    (r, k) in pairs, r ascending below level, to the m-th roots off the
    d-th roots, d = m + 1, every k positive, and of (x - s/d)^(at[s]) over
    s, at[s] of any sign.  At m = 1 each root is its own lift and d = 2:
    pairs hold a Jordan structure's multiplicities, and at those at 1, -1.

    >>> print(CharPoly(3, [(1, 1)], 1, [2, 0]))
    (x - 1)^2 * (x - zeta(1/3))
    """

    __slots__ = ("level", "pairs", "m", "at", "_shown")

    def __init__(self, level: int, pairs: list[tuple[int, int]], m: int,
                 at: list[int]) -> None:
        self.level, self.pairs, self.m, self.at = level, pairs, m, at
        self._shown = ""  # the display, made on the first str()

    def _slots(self) -> Iterator[tuple[int, int, int]]:
        """(q, p, exponent) for each d-th root p/q that is a factor."""
        d = self.m + 1
        for s, k in enumerate(self.at):
            if k:
                g = gcd(s, d)
                yield d // g, s // g, k

    def __str__(self) -> str:
        """Phi_q powers by q, then linear factors (x - zeta(p/q)) by q and
        angle, Phi_1 and Phi_2 written (x - 1) and (x + 1).  A full orbit
        of slots whose exponents share one sign gives Phi_q the one of
        least absolute value and the rest stays linear, so the display
        expands to the product exactly.  For q not dividing d, Phi_e(x^m)
        is the product of the Phi_q with q / gcd(q, m) = e, each met by the
        lifts of one primitive e-th root: q's orbit is full when pairs hold
        all primitive e-th roots, with the least value, and only the rest
        lift.  It is made once and kept."""
        if self._shown:
            return self._shown
        slots: dict[int, list[tuple[int, int]]] = {}
        for q, p, k in self._slots():
            slots.setdefault(q, []).append((p, k))
        level, d = self.level, self.m + 1
        orbits: dict[int, list[tuple[int, int]]] = {}
        for r, k in self.pairs:
            orbits.setdefault(level // gcd(r, level), []).append((r, k))
        phis: dict[int, int] = {}
        loose: list[tuple[int, int, int]] = []  # (q, p, exponent)
        for q, orbit in slots.items():
            ks = [k for _, k in orbit]
            low = min(ks, key=abs) if len(orbit) == totient(q) and (
                min(ks) > 0 or max(ks) < 0) else 0
            if low:
                phis[q] = low
            loose += [(q, p, k - low) for p, k in orbit if k != low]
        for e, orbit in orbits.items():
            # phi(e) >= sqrt(e/2): a shorter orbit is not full, e not factored
            low = min(k for _, k in orbit) if 2 * len(orbit) ** 2 >= e and \
                len(orbit) == totient(e) else 0
            if low:
                phis.update((q, low) for _, q, _ in
                            lifts(level, orbit[:1], self.m) if d % q)
            rest = [(r, k - low) for r, k in orbit if k > low]
            loose += [(q, p, k) for p, q, k in lifts(level, rest, self.m) if d % q]
        factors = [({1: "(x - 1)", 2: "(x + 1)"}.get(q, f"Phi_{q}"), k)
                   for q, k in sorted(phis.items())]
        factors += [(f"(x - zeta({p}/{q}))", k) for q, p, k in sorted(loose)]
        self._shown = " * ".join(base if k == 1 else f"{base}^{k}"
                                 for base, k in factors) or "1"
        return self._shown

    def to_json(self) -> dict[str, int]:
        """{"num/den": exponent} over every root, the slots first; the
        --json writer sorts the keys."""
        out = {f"{p}/{q}": k for q, p, k in self._slots()}
        out.update((f"{p}/{q}", k) for p, q, k in lifts(
            self.level, self.pairs, self.m) if (self.m + 1) % q)
        return out
