"""The reference arithmetic that tests hold the oracle's group ring to.

An element of Z[zeta_N] is an integer coefficient vector of length
phi(N) in the power basis 1, x, ..., x^(phi(N)-1) modulo the N-th
cyclotomic polynomial, as the oracle kept it before it packed its
arithmetic into Z[C_N] = Z[x]/(x^N - 1): `Field.vmul` is the product by
convolution and a reduction table, `Field.lift` the map to a multiple
level, and `sparse_matmul` the product of sparse matrices of vectors.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from moninf.cyclo import UnitRoot
from moninf.oracle import cyclotomic_polynomial


class Field:
    """Arithmetic on integer coefficient vectors modulo Phi_level."""

    def __init__(self, level: int) -> None:
        phi_poly = cyclotomic_polynomial(level)
        degree = len(phi_poly) - 1
        self.level = level
        self.degree = degree
        # x^(degree + t) mod Phi for t = 0 .. max(degree - 2, level - degree - 1)
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

    def monomial(self, e: int) -> tuple[int, ...]:
        """x^e mod Phi_level as an integer vector."""
        e %= self.level
        if e < self.degree:
            return tuple(1 if i == e else 0 for i in range(self.degree))
        return self._reduction[e - self.degree]

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
                    out[idx] += ct * red[idx]
        return tuple(out)

    def combine(self, terms: Iterable[tuple[int, int]]) -> tuple[int, ...]:
        """The sum of c*x^e mod Phi_level over the pairs (e, c)."""
        out = [0] * self.degree
        for e, c in terms:
            for idx, mv in enumerate(self.monomial(e)):
                out[idx] += c * mv
        return tuple(out)

    def lift(self, vec: Sequence[int], target: Field) -> tuple[int, ...]:
        """Rewrite a vector at this level as one at a multiple level."""
        if target.level % self.level:
            raise ValueError("target level must be a multiple")
        ratio = target.level // self.level
        return target.combine((i * ratio, c) for i, c in enumerate(vec))


@lru_cache(maxsize=None)
def field(level: int) -> Field:
    return Field(level)


def sparse_matmul(a: list[dict[int, tuple[int, ...]]],
                  b: list[dict[int, tuple[int, ...]]],
                  level: int) -> list[dict[int, tuple[int, ...]]]:
    """AB over Z[zeta_level], zero entries dropped."""
    vmul, out = field(level).vmul, []
    for row in a:
        acc: dict[int, list[int]] = {}
        for k, a_ik in row.items():
            for j, b_kj in b[k].items():
                prod = vmul(a_ik, b_kj)
                cur = acc.setdefault(j, [0] * len(prod))
                for idx, value in enumerate(prod):
                    cur[idx] += value
        out.append({j: tuple(vec) for j, vec in acc.items() if any(vec)})
    return out


def to_power_basis(vec: Sequence[int], level: int) -> tuple[int, ...]:
    """A vector of Z[C_level], any length, as its power-basis vector in
    Z[zeta_level]: x^i -> x^(i mod level) mod Phi_level."""
    f = field(level)
    return f.combine(enumerate(vec))
