"""Brute-force verifier: exact dense linear algebra over cyclotomic fields.

This module rebuilds operators as honest matrices over Q(zeta_N) and reads
their Jordan structure off rank sequences, providing an independent check
on the combinatorial constructions elsewhere in the package.

Representation.  An element of Q(zeta_N) is a coefficient vector of length
phi(N) in the power basis 1, x, ..., x^(phi(N)-1) modulo the N-th
cyclotomic polynomial.  Public entries carry Fraction coefficients; the
rank engine clears denominators and works on integer vectors only, using
fraction-free row elimination (cross-multiplication with content
stripping), so no rational division ever happens in the hot path.

The Jordan structure of a matrix M at an eigenvalue alpha comes from the
ranks r_k of (M - alpha*I)^k: with r_0 = dim, the number of blocks of
size exactly l at alpha is r_(l-1) - 2*r_l + r_(l+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .cyclic import cyclic_power
from .cyclo import UnitRoot
from .jordan import JordanStructure

DEFAULT_LEVEL_CAP = 360


class SpectrumNotCovered(RuntimeError):
    """The candidate eigenvalues fail to account for the whole space."""


class LevelCapExceeded(ValueError):
    """The required cyclotomic field level exceeds the configured cap."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, monic, computed by exact division.

    x^n - 1 = prod_{d | n} Phi_d, so Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d.
    """
    if n < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {n}")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_polynomial(d)
            num = _exact_int_div(num, den)
    return tuple(num)


def _exact_int_div(num: Sequence[int], den: Sequence[int]) -> list[int]:
    # long division of integer polynomials known to divide exactly (den monic)
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dn]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


class _Field:
    """Arithmetic on integer coefficient vectors modulo Phi_level."""

    __slots__ = ("level", "degree", "_reduction", "_monomials")

    def __init__(self, level: int) -> None:
        phi_poly = cyclotomic_polynomial(level)
        degree = len(phi_poly) - 1
        self.level = level
        self.degree = degree
        # x^(degree + t) mod Phi, for every exponent multiplication or
        # monomial lookup can ask for: t = 0 .. max(degree - 2, level - degree - 1)
        reduction: list[tuple[int, ...]] = []
        extra = max(degree - 1, level - degree)
        if extra > 0:
            head = tuple(-c for c in phi_poly[:degree])
            reduction.append(head)
            for _ in range(extra - 1):
                prev = reduction[-1]
                shifted = [0, *prev[:-1]]
                top = prev[-1]
                if top:
                    shifted = [s + top * h for s, h in zip(shifted, head)]
                reduction.append(tuple(shifted))
        self._reduction = reduction
        self._monomials: dict[int, tuple[int, ...]] = {}

    def monomial(self, e: int) -> tuple[int, ...]:
        """x^e mod Phi_level as an integer vector."""
        e %= self.level
        cached = self._monomials.get(e)
        if cached is None:
            if e < self.degree:
                cached = tuple(1 if i == e else 0 for i in range(self.degree))
            else:
                cached = self._reduction[e - self.degree]
            self._monomials[e] = cached
        return cached

    def embed_root(self, root: UnitRoot) -> tuple[int, ...]:
        if self.level % root.den:
            raise ValueError(f"root {root} does not live at level {self.level}")
        return self.monomial(self.level // root.den * root.num)

    def vmul(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        degree = self.degree
        conv = [0] * (2 * degree - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:degree]
        for t in range(degree, 2 * degree - 1):
            ct = conv[t]
            if ct:
                red = self._reduction[t - degree]
                for idx in range(degree):
                    rv = red[idx]
                    if rv:
                        out[idx] += ct * rv
        return tuple(out)

    def vsub_scaled(self, p: Sequence[int], a: Sequence[int],
                    q: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        """p*a - q*b for vectors a, b and vector multipliers p, q."""
        left = self.vmul(p, a)
        right = self.vmul(q, b)
        return tuple(x - y for x, y in zip(left, right))

    def lift(self, vec: Sequence[int], target: _Field) -> tuple[int, ...]:
        """Rewrite a vector at this level as one at a multiple level."""
        if target.level % self.level:
            raise ValueError("target level must be a multiple")
        ratio = target.level // self.level
        out = [0] * target.degree
        for i, c in enumerate(vec):
            if c:
                mono = target.monomial(i * ratio)
                for idx in range(target.degree):
                    mv = mono[idx]
                    if mv:
                        out[idx] += c * mv
        return tuple(out)


@lru_cache(maxsize=None)
def _field(level: int) -> _Field:
    return _Field(level)


@dataclass(frozen=True)
class CycloElement:
    """Element of Q(zeta_level) with rational coefficients in the power basis."""

    level: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        degree = _field(self.level).degree
        coeffs = tuple(Fraction(c) for c in self.coeffs)
        if len(coeffs) != degree:
            raise ValueError(
                f"level {self.level} needs {degree} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, level: int) -> CycloElement:
        return cls(level, (Fraction(0),) * _field(level).degree)

    @classmethod
    def from_rational(cls, value: Fraction | int, level: int) -> CycloElement:
        degree = _field(level).degree
        coeffs = [Fraction(value)] + [Fraction(0)] * (degree - 1)
        return cls(level, tuple(coeffs))

    @classmethod
    def from_root(cls, root: UnitRoot, level: int) -> CycloElement:
        vec = _field(level).embed_root(root)
        return cls(level, tuple(Fraction(c) for c in vec))

    def _check_level(self, other: CycloElement) -> None:
        if self.level != other.level:
            raise ValueError(
                f"mixed field levels {self.level} and {other.level}")

    def __add__(self, other: CycloElement) -> CycloElement:
        self._check_level(other)
        return CycloElement(self.level, tuple(
            a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: CycloElement) -> CycloElement:
        self._check_level(other)
        return CycloElement(self.level, tuple(
            a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> CycloElement:
        return CycloElement(self.level, tuple(-a for a in self.coeffs))

    def __mul__(self, other: CycloElement) -> CycloElement:
        self._check_level(other)
        field = _field(self.level)
        degree = field.degree
        conv = [Fraction(0)] * (2 * degree - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(other.coeffs):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:degree]
        for t in range(degree, 2 * degree - 1):
            ct = conv[t]
            if ct:
                red = field._reduction[t - degree]
                for idx in range(degree):
                    if red[idx]:
                        out[idx] += ct * red[idx]
        return CycloElement(self.level, tuple(out))

    def is_zero(self) -> bool:
        return not any(self.coeffs)


class CycloMatrix:
    """Matrix over Q(zeta_level), stored dense row-major."""

    __slots__ = ("level", "nrows", "ncols", "rows")

    def __init__(self, level: int, rows: Sequence[Sequence[CycloElement]],
                 ncols: int | None = None) -> None:
        rows = tuple(tuple(row) for row in rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged matrix rows")
            for entry in row:
                if entry.level != level:
                    raise ValueError(
                        f"entry level {entry.level} differs from matrix level {level}")
        self.level = level
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    def entry(self, i: int, j: int) -> CycloElement:
        return self.rows[i][j]

    def is_square(self) -> bool:
        return self.nrows == self.ncols


def build_jordan_matrix(structure: JordanStructure, level: int) -> CycloMatrix:
    """Block-diagonal matrix realizing the structure, in canonical order.

    Each block is upper triangular: eigenvalue on the diagonal, ones on
    the superdiagonal.
    """
    dim = structure.total_dim
    zero = CycloElement.zero(level)
    one = CycloElement.from_rational(1, level)
    grid = [[zero] * dim for _ in range(dim)]
    pos = 0
    for root in structure.spectrum():
        value = CycloElement.from_root(root, level)
        for size in structure.sizes_at(root):
            for k in range(size):
                grid[pos + k][pos + k] = value
                if k + 1 < size:
                    grid[pos + k][pos + k + 1] = one
            pos += size
    return CycloMatrix(level, grid, ncols=dim)


def build_cyclic_matrix(m: CycloMatrix, order: int) -> CycloMatrix:
    """Matrix of the order-m cyclic operator built from m.

    On column vectors (x_1, ..., x_order) the operator returns
    (m*x_order, x_1, ..., x_(order-1)); the matrix is block cyclic with m
    in the top-right block and identity blocks below the diagonal.
    """
    if order < 1:
        raise ValueError(f"cyclic order must be >= 1, got {order}")
    if not m.is_square():
        raise ValueError("cyclic construction needs a square matrix")
    if order == 1:
        return m
    dim = m.nrows
    total = order * dim
    zero = CycloElement.zero(m.level)
    one = CycloElement.from_rational(1, m.level)
    grid = [[zero] * total for _ in range(total)]
    for i in range(dim):
        for j in range(dim):
            entry = m.rows[i][j]
            if not entry.is_zero():
                grid[i][(order - 1) * dim + j] = entry
    for block in range(1, order):
        for i in range(dim):
            grid[block * dim + i][(block - 1) * dim + i] = one
    return CycloMatrix(m.level, grid, ncols=total)


def _strip_content(row: dict[int, tuple[int, ...]]) -> dict[int, tuple[int, ...]]:
    g = 0
    for vec in row.values():
        for c in vec:
            if c:
                g = math.gcd(g, c)
                if g == 1:
                    return row
    if g > 1:
        return {col: tuple(c // g for c in vec) for col, vec in row.items()}
    return row


def _int_rows(m: CycloMatrix) -> tuple[list[dict[int, tuple[int, ...]]], int]:
    """Sparse integer rows plus the global denominator that was cleared."""
    denom = 1
    for row in m.rows:
        for entry in row:
            for c in entry.coeffs:
                denom = denom * c.denominator // math.gcd(denom, c.denominator)
    rows: list[dict[int, tuple[int, ...]]] = []
    for row in m.rows:
        sparse: dict[int, tuple[int, ...]] = {}
        for j, entry in enumerate(row):
            if not entry.is_zero():
                sparse[j] = tuple(int(c * denom) for c in entry.coeffs)
        rows.append(sparse)
    return rows, denom


def _int_rank(rows: list[dict[int, tuple[int, ...]]], ncols: int,
              field: _Field) -> int:
    """Fraction-free elimination rank of sparse integer-vector rows."""
    work = [row for row in rows if row]
    rank = 0
    vmul = field.vmul
    for col in range(ncols):
        piv_index = None
        for i in range(rank, len(work)):
            if col in work[i]:
                piv_index = i
                break
        if piv_index is None:
            continue
        work[rank], work[piv_index] = work[piv_index], work[rank]
        piv_row = work[rank]
        piv_val = piv_row[col]
        survivors = work[:rank + 1]
        for i in range(rank + 1, len(work)):
            row = work[i]
            coeff = row.get(col)
            if coeff is None:
                survivors.append(row)
                continue
            new_row: dict[int, tuple[int, ...]] = {}
            for c2, val in row.items():
                if c2 == col:
                    continue
                piv_entry = piv_row.get(c2)
                if piv_entry is None:
                    prod = vmul(piv_val, val)
                else:
                    prod = field.vsub_scaled(piv_val, val, coeff, piv_entry)
                if any(prod):
                    new_row[c2] = prod
            for c2, piv_entry in piv_row.items():
                if c2 != col and c2 not in row:
                    prod = vmul(coeff, piv_entry)
                    if any(prod):
                        new_row[c2] = tuple(-c for c in prod)
            if new_row:
                survivors.append(_strip_content(new_row))
        work = survivors
        rank += 1
        if rank == len(work):
            break
    return rank


def rank(m: CycloMatrix) -> int:
    """Exact rank over Q(zeta_level)."""
    rows, _ = _int_rows(m)
    return _int_rank(rows, m.ncols, _field(m.level))


def _sparse_matmul(a: list[dict[int, tuple[int, ...]]],
                   b: list[dict[int, tuple[int, ...]]],
                   field: _Field) -> list[dict[int, tuple[int, ...]]]:
    vmul = field.vmul
    out: list[dict[int, tuple[int, ...]]] = []
    for row in a:
        acc: dict[int, list[int]] = {}
        for k, a_ik in row.items():
            for j, b_kj in b[k].items():
                prod = vmul(a_ik, b_kj)
                cur = acc.get(j)
                if cur is None:
                    acc[j] = list(prod)
                else:
                    for idx, value in enumerate(prod):
                        cur[idx] += value
        cleaned = {j: tuple(vec) for j, vec in acc.items() if any(vec)}
        out.append(_strip_content(cleaned))
    return out


def jordan_type(m: CycloMatrix, candidates: Iterable[UnitRoot], *,
                level_cap: int = DEFAULT_LEVEL_CAP) -> JordanStructure:
    """Jordan structure of m, assuming its spectrum lies in `candidates`.

    Raises :class:`SpectrumNotCovered` when the candidate eigenvalues do
    not account for the full dimension, and :class:`LevelCapExceeded` when
    the cyclotomic level needed (the lcm of the matrix level and all
    candidate orders) exceeds `level_cap`.
    """
    if not m.is_square():
        raise ValueError("jordan_type needs a square matrix")
    roots = sorted(set(candidates))
    level_needed = m.level
    for root in roots:
        level_needed = math.lcm(level_needed, root.den)
    if level_needed > level_cap:
        raise LevelCapExceeded(
            f"required field level {level_needed} exceeds the cap {level_cap}")
    dim = m.nrows
    base_rows, _ = _int_rows(m)
    base_field = _field(m.level)
    lifted_cache: dict[int, list[dict[int, tuple[int, ...]]]] = {}
    blocks: dict[UnitRoot, dict[int, int]] = {}
    covered = 0
    for alpha in roots:
        level = math.lcm(m.level, alpha.den)
        rows = lifted_cache.get(level)
        field = _field(level)
        if rows is None:
            if level == m.level:
                rows = base_rows
            else:
                rows = [
                    {j: base_field.lift(vec, field) for j, vec in row.items()}
                    for row in base_rows
                ]
            lifted_cache[level] = rows
        alpha_vec = field.embed_root(alpha)
        # the shift itself must keep exact entries: it is the right-hand
        # factor of every power, so row scaling here would corrupt B^k
        shifted: list[dict[int, tuple[int, ...]]] = []
        for i, row in enumerate(rows):
            new_row = dict(row)
            diag = new_row.get(i)
            if diag is None:
                new_row[i] = tuple(-c for c in alpha_vec)
            else:
                merged = tuple(x - y for x, y in zip(diag, alpha_vec))
                if any(merged):
                    new_row[i] = merged
                else:
                    del new_row[i]
            shifted.append(new_row)
        ranks = [dim, _int_rank(shifted, dim, field)]
        power = shifted
        while ranks[-1] != ranks[-2]:
            power = _sparse_matmul(power, shifted, field)
            ranks.append(_int_rank(power, dim, field))
        covered += dim - ranks[-1]
        sizes: dict[int, int] = {}
        for size in range(1, len(ranks) - 1):
            r_next = ranks[size + 1] if size + 1 < len(ranks) else ranks[-1]
            count = ranks[size - 1] - 2 * ranks[size] + r_next
            if count:
                sizes[size] = count
        if sizes:
            blocks[alpha] = sizes
    if covered != dim:
        raise SpectrumNotCovered(
            f"candidate eigenvalues cover {covered} of {dim} dimensions")
    return JordanStructure(blocks)


def verify_cyclic_agreement(structure: JordanStructure, order: int, *,
                            level_cap: int = DEFAULT_LEVEL_CAP,
                            ) -> tuple[JordanStructure, JordanStructure]:
    """Keystone cross-check for the cyclic construction.

    Returns (combinatorial, matrix) Jordan structures of the order-m cyclic
    operator built from a realization of `structure`: the first computed by
    :func:`moninf.cyclic.cyclic_power`, the second read off an explicit
    matrix by rank computations.  Agreement of the two is the caller's
    check.
    """
    expected = cyclic_power(structure, order)
    level = 1
    for root in structure.spectrum():
        level = math.lcm(level, root.den)
    base = build_jordan_matrix(structure, level)
    cyclic_matrix = build_cyclic_matrix(base, order)
    candidates = sorted(expected.spectrum())
    actual = jordan_type(cyclic_matrix, candidates, level_cap=level_cap)
    return expected, actual
