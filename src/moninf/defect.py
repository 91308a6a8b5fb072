"""Defects of linear systems of hypersurfaces through projective point sets.

For k points in P^n and a degree q, the evaluation matrix E has one row
per point and one column per degree-q monomial in n+1 variables.  The
defect of the system is k - rank(E): the number of conditions the points
fail to impose independently on degree-q hypersurfaces.

Every point is stored as its primitive integer representative, so E is
an integer matrix; scaling a row does not change the rank.  When
q >= k - 1 the defect is 0 without building E: for each point, k - 1
linear forms that miss it, one through each other point, times a power
of one more form that misses it, give a degree-q form vanishing at every
point but that one.  Otherwise E may have at most MAX_MATRIX_CELLS
entries, so the work is bounded before any of it starts.

The rank over Q is certified from one elimination modulo the prime
p = 2^31 - 1 (modp.eliminate, shared with the oracle), with exact
integer arithmetic only where the mod-p answer needs it:

- lower bound: E mod p is the reduction of the integer E, so the r pivot
  rows found mod p have a nonzero r x r minor mod p, hence over Z; they
  are independent over Q and rank(E) >= r.  When r = k or r is the
  number of columns, rank(E) = r with no exact arithmetic at all;
- upper bound: otherwise every row that reduced to zero has a support,
  itself and the pivot rows of its relation mod p.  Let U be the union
  of the supports.  If the exact rank of the rows of U equals the number
  of pivot rows in U, every dependent row lies in the Q-span of the
  pivot rows, so rank(E) = r;
- fallback: if that check fails (p divides a minor that is nonzero over
  Z), the exact rank of the whole of E is computed instead.

Every answer is therefore exact; p only decides how much exact work is
done.

For a hypersurface at infinity whose only singularities are k ordinary
nodes at the given points, the single possibly nonzero equivariant defect
is such a linear-system defect with q = d*n/2 - n - 1 (at s = 0 when n is
even, at s = d/2 when n is odd and d is even; every beta vanishes when
n and d are both odd).

The tool does not and cannot verify that the points really are the nodes
of the zero set of an actual degree-d form; that geometric responsibility
stays with the caller.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .modp import PRIME, eliminate

MAX_MATRIX_CELLS = 500_000
"""Largest evaluation matrix, in entries, that defect_of_system builds."""

_RATIONAL_RE = re.compile(r"\s*-?\d+(/\d+)?\s*")
"""A coordinate string: an integer or p/q, with an optional minus sign.
Fraction alone would also take "1e30000000" and form 10^30000000."""


@dataclass(frozen=True)
class ProjectivePointSet:
    """Distinct points of P^dim, given with exact rational coordinates.

    Each point is stored as its primitive integer representative: the
    denominators cleared, the gcd divided out and the first nonzero
    coordinate positive.  Equality of these tuples is then exactly
    projective equality.
    """

    dim: int
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"projective dimension must be >= 1, got {self.dim}")
        normalized = []
        for point in self.points:
            coords = [c if isinstance(c, (int, Fraction)) else Fraction(c)
                      for c in point]
            if len(coords) != self.dim + 1:
                raise ValueError(
                    f"point {point!r} needs {self.dim + 1} coordinates")
            denom = math.lcm(*(c.denominator for c in coords))
            ints = [c.numerator * (denom // c.denominator) for c in coords]
            scale = next((c for c in ints if c), None)
            if scale is None:
                raise ValueError("projective point must have a nonzero coordinate")
            g = math.gcd(*ints) if scale > 0 else -math.gcd(*ints)
            normalized.append(tuple(c // g for c in ints))
        seen = set()
        for coords in normalized:
            if coords in seen:
                raise ValueError(f"duplicate projective points: {coords}")
            seen.add(coords)
        object.__setattr__(self, "points", tuple(normalized))

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_json(cls, data: object, dim: int | None = None) -> ProjectivePointSet:
        if not isinstance(data, list):
            raise ValueError("points must be a list of coordinate lists")
        rows = []
        for entry in data:
            if not isinstance(entry, list) or not entry:
                raise ValueError("each point must be a nonempty coordinate list")
            coords: list[int | Fraction] = []
            for c in entry:
                if type(c) is not int and not (
                        isinstance(c, str) and _RATIONAL_RE.fullmatch(c)):
                    raise ValueError(f"invalid rational coordinate {c!r}")
                num, _, den = (c, "", "") if type(c) is int else c.partition("/")
                try:
                    coords.append(Fraction(int(num), int(den)) if den else int(num))
                except (ValueError, ZeroDivisionError) as exc:
                    raise ValueError(f"invalid rational coordinate {c!r}") from exc
            rows.append(tuple(coords))
        if dim is None:
            if not rows:
                raise ValueError("cannot infer dimension from an empty point list")
            dim = len(rows[0]) - 1
        return cls(dim, tuple(rows))


def monomial_exponents(n: int, q: int) -> list[tuple[int, ...]]:
    """Exponent tuples of degree-q monomials in n+1 variables, lex decreasing.

    Stars and bars: n bars among q + n slots cut q into n + 1 parts.
    """
    if n < 1 or q < 0:
        raise ValueError("need n >= 1 and q >= 0")
    out = [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (q + n,)))
           for bars in itertools.combinations(range(q + n), n)]
    out.reverse()
    return out


def _integer_rank(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination, with row content stripped.

    The columns are taken in nondecreasing order of their largest absolute
    entry: with no Bareiss division the entries grow fastest when the
    first pivot columns hold the largest numbers.
    """
    rows = [row for row in rows if any(row)]
    if not rows:
        return 0
    rows = [list(r) for r in zip(*sorted(zip(*rows),
                                         key=lambda col: max(map(abs, col))))]
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        piv_row = rows[rank]
        piv_val = piv_row[col]
        for i in range(rank + 1, len(rows)):
            row = rows[i]
            c = row[col]
            if not c:
                continue
            new = [piv_val * x - c * y for x, y in zip(row, piv_row)]
            g = math.gcd(*new)
            rows[i] = [x // g for x in new] if g > 1 else new
        rank += 1
        if rank == len(rows):
            break
    return rank


def _evaluation_row(point: tuple[int, ...], powers: list[int], q: int,
                    prime: int | None = None) -> list[int]:
    """The degree-q monomials at `point`, in monomial_exponents order.

    `powers` are the first exponents of the runs of monomial_exponents:
    the run of e is x_0^e times the degree-(q - e) monomials of x_1..x_n
    in their own order.  Those are built for every degree t <= q from
    x_n back to x_1: the degree-t monomials of x_m..x_n are x_m times
    those of degree t - 1, then those of x_(m+1)..x_n.  Each entry costs
    one multiplication; modulo `prime` the coordinates are reduced first
    and each product after, so every entry lies in [0, prime).
    """
    if prime is None:
        def scaled(f: int, values: list[int]) -> list[int]:
            return [f * v for v in values]
    else:
        point = [c % prime for c in point]

        def scaled(f: int, values: list[int]) -> list[int]:
            return [f * v % prime for v in values]
    tails = [[1]] + [[] for _ in range(q)]
    for x in reversed(point[1:]):
        for t in range(1, q + 1):
            tails[t] = scaled(x, tails[t - 1]) + tails[t]
    row = []
    for e in powers:
        f = pow(point[0], e, prime)
        row += tails[q - e] if f == 1 else scaled(f, tails[q - e])
    return row


def defect_of_system(pts: ProjectivePointSet, q: int) -> int:
    """k - rank of the k x C(n+q, n) degree-q monomial evaluation matrix.

    Raises ValueError for q < 0 and for a matrix of more than
    MAX_MATRIX_CELLS entries.
    """
    if q < 0:
        raise ValueError(f"system degree must be >= 0, got {q}")
    k = len(pts)
    if q >= k - 1:
        return 0
    ncols = math.comb(pts.dim + q, pts.dim)
    if k * ncols > MAX_MATRIX_CELLS:
        raise ValueError(
            f"the evaluation matrix of k = {k} points and the {ncols} "
            f"monomials of degree q = {q} has {k * ncols} entries, above "
            f"the limit of {MAX_MATRIX_CELLS}")
    powers = [e for e, _ in itertools.groupby(
        exp[0] for exp in monomial_exponents(pts.dim, q))]
    pivots, supports = eliminate(
        [_evaluation_row(point, powers, q, PRIME) for point in pts.points])
    rank = len(pivots)
    if rank == k or rank == ncols:
        return k - rank
    checked = set().union(*supports)
    exact = [_evaluation_row(pts.points[i], powers, q)
             for i in sorted(checked)]
    if _integer_rank(exact) == len(checked.intersection(pivots)):
        return k - rank
    return k - _integer_rank([_evaluation_row(point, powers, q)
                              for point in pts.points])


def nodal_beta(pts: ProjectivePointSet, n: int, d: int) -> list[int]:
    """Equivariant defect vector for a hypersurface with only nodes at pts.

    Returns a length-d vector: all zeros when n and d are both odd; the
    defect of the degree q = d*n/2 - n - 1 system at position d/2 when n
    is odd and d even, and at position 0 when n is even.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if pts.dim != n:
        raise ValueError(
            f"points live in P^{pts.dim} but the hypersurface data needs P^{n}")
    beta = [0] * d
    if n % 2 and d % 2:
        return beta
    q = d * n // 2 - n - 1
    if q < 0:
        raise ValueError(
            f"nodal defect degree q = {q} is negative for n={n}, d={d}; "
            "this degenerate low-degree case is rejected")
    slot = d // 2 if n % 2 else 0
    beta[slot] = defect_of_system(pts, q)
    return beta
