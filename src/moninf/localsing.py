"""Local singularity models and their local monodromy.

Each singular point of the degree-d part's zero set at infinity is an
isolated hypersurface singularity in n local coordinates.  Three input
models are supported:

* :class:`BrieskornPham` -- x_1^a_1 + ... + x_n^a_n.  The local monodromy
  is semisimple with eigenvalues e^(2*pi*i*(k_1/a_1 + ... + k_n/a_n)) for
  1 <= k_j <= a_j - 1, and Milnor number prod (a_j - 1).
* :class:`OrdinaryNode` -- the quadratic singularity x_1^2 + ... + x_n^2,
  Milnor number 1, single eigenvalue (-1)^n.
* :class:`ExplicitJordan` -- the local monodromy given directly as a
  Jordan structure (for singularities outside the first two families).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import compress
from math import gcd, lcm
from typing import Union

from .jordan import JordanStructure, Tables


@dataclass(frozen=True)
class BrieskornPham:
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(self.exponents)
        if not exps:
            raise ValueError("Brieskorn-Pham model needs at least one exponent")
        for a in exps:
            if not isinstance(a, int) or isinstance(a, bool) or a < 2:
                raise ValueError(f"Brieskorn-Pham exponents must be integers >= 2, got {a}")
        object.__setattr__(self, "exponents", exps)


@dataclass(frozen=True)
class OrdinaryNode:
    pass


@dataclass(frozen=True)
class ExplicitJordan:
    structure: JordanStructure

    def __post_init__(self) -> None:
        if not isinstance(self.structure, JordanStructure):
            raise TypeError("explicit model needs a JordanStructure")
        if not self.structure:
            raise ValueError("explicit local monodromy must not be empty")


SingularityModel = Union[BrieskornPham, OrdinaryNode, ExplicitJordan]

def milnor_number(model: SingularityModel) -> int:
    if isinstance(model, BrieskornPham):
        mu = 1
        for a in model.exponents:
            mu *= a - 1
        return mu
    if isinstance(model, OrdinaryNode):
        return 1
    if isinstance(model, ExplicitJordan):
        return model.structure.total_dim
    raise TypeError(f"unknown singularity model {model!r}")


def local_monodromy(model: SingularityModel, n: int) -> Tables:
    """The local monodromy as :data:`Tables` (L the lcm of the orders,
    residues ascending, sizes decreasing); only a node reads n, the number
    of local coordinates.  The tables may be the model's own: read them only."""
    if isinstance(model, BrieskornPham):
        # the count of each eigenvalue j/L, L = lcm(a_j): adding k/a for
        # k = 1..a-1 sums the coset of the order-a subgroup, less the entry
        big = lcm(*model.exponents)
        if big > sys.maxsize:
            raise ValueError(
                f"Brieskorn-Pham exponents {list(model.exponents)} have level "
                f"L = {big}, above the limit {sys.maxsize} on L")
        counts = [1] + [0] * (big - 1)
        for a in model.exponents:
            step = big // a
            cosets = [sum(counts[r::step]) for r in range(step)]
            counts = [total - c for total, c in zip(cosets * a, counts)]
        g = gcd(big, *compress(range(big), counts))  # orders divide big/g
        return big // g, {j // g: {1: c} for j, c in enumerate(counts) if c}
    if isinstance(model, OrdinaryNode):
        return (1, {0: {1: 1}}) if n % 2 == 0 else (2, {1: {1: 1}})
    if isinstance(model, ExplicitJordan):
        return model.structure.tables()
    raise TypeError(f"unknown singularity model {model!r}")


def parse_singularity(data: object) -> tuple[SingularityModel, int]:
    """Parse one singularity entry; returns (model, count)."""
    if not isinstance(data, dict):
        raise ValueError("each singularity must be a JSON object")
    kind = data.get("type")
    count = data.get("count", 1)
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(f"singularity count must be a positive integer, got {count!r}")
    if kind == "brieskorn":
        allowed = {"type", "exponents", "count"}
        if set(data) - allowed or "exponents" not in data:
            raise ValueError("brieskorn entry must have keys 'type', 'exponents'"
                             " and optionally 'count'")
        exps = data["exponents"]
        if not isinstance(exps, list):
            raise ValueError("brieskorn exponents must be a list")
        return BrieskornPham(tuple(exps)), count
    if kind == "node":
        if set(data) - {"type", "count"}:
            raise ValueError("node entry allows only the keys 'type' and 'count'")
        return OrdinaryNode(), count
    if kind == "explicit":
        allowed = {"type", "jordan", "count"}
        if set(data) - allowed or "jordan" not in data:
            raise ValueError("explicit entry must have keys 'type', 'jordan'"
                             " and optionally 'count'")
        return ExplicitJordan(JordanStructure.from_json(data["jordan"])), count
    raise ValueError(f"unknown singularity type {kind!r}")


def parse_singularity_counts(
        data: object) -> list[tuple[SingularityModel, int]]:
    """Parse the singularity list into (model, count) pairs."""
    if not isinstance(data, list):
        raise ValueError("'singularities' must be a list")
    return [parse_singularity(entry) for entry in data]
