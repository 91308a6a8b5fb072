"""Seeded inputs for the four benchmark workloads.

`build(name, seed, inst_dir)` writes the workload's instance files and
returns its calls. A call is the argument list for `moninf.cli.main`
(without `--output`, which the worker adds) plus what the output gate
needs to know about it. The same seed always gives the same calls.

The seed varies the inputs, but each generator holds the amount of work
fixed, so that runs with different seeds can be compared: see README.md
for how each workload does that.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

WORKLOADS = ("enumerate_nodes", "brieskorn_spectrum", "nodal_defect",
             "oracle_random")

# Seeds of `moninf oracle --trials 100` whose exact count of cyclotomic
# field multiplications, weighted by a fitted time model, lies within 3%
# of the median over seeds 0..159. Over all seeds a call's cost varies
# by about 15% (coefficient of variation); drawing from this pool keeps
# passes with different seeds comparable. perfbench/oracle_pool.py
# recomputes it.
ORACLE_POOL = (23, 24, 30, 35, 38, 47, 49, 52, 53, 69, 72, 100, 111, 113, 119,
               137, 140, 146, 154)


def _write(inst_dir: Path, index: int, instance: dict) -> str:
    path = inst_dir / f"instance{index}.json"
    path.write_text(json.dumps(instance, sort_keys=True))
    return str(path)


def _enumerate_nodes(rng: random.Random, inst_dir: Path,
                     small: bool) -> list[dict]:
    # Work grows as d * k^2 (k+1 beta vectors, each recomputing the
    # bounds d*k times), so k follows d to keep every instance's work
    # equal. Memory peaks on the largest d, which every seed includes.
    degrees = [6, 7] if small else [36] + rng.sample(range(28, 36), 4)
    work = 6 * 5 * 5 if small else 32 * 50 * 50
    calls = []
    for index, d in enumerate(degrees):
        nodes = round(math.sqrt(work / d))
        instance = {"n": 2, "d": d,
                    "singularities": [{"type": "node", "count": nodes}],
                    "beta": {"mode": "enumerate"}}
        calls.append({"argv": ["compute", _write(inst_dir, index, instance)],
                      "format": "text"})
    return calls


@lru_cache(maxsize=None)
def _spectrum(exponents: tuple[int, ...]) -> frozenset[Fraction]:
    """Distinct eigenvalue angles of a Brieskorn-Pham germ."""
    angles = {Fraction(0)}
    for a in exponents:
        angles = {(x + Fraction(k, a)) % 1 for x in angles for k in range(1, a)}
    return frozenset(angles)


def _brieskorn_germs(rng: random.Random, n: int, top: int, copies: int,
                     union: int, products: int) -> list[dict]:
    """Three germs with counts 10..20 and exponents 2..top.

    Copying the local blocks off the d-th roots of unity costs (d-1)
    times `copies` = sum(count * distinct eigenvalues of the germ). The
    off-torsion part of the operator has about (d-1) * `union` distinct
    eigenvalues, `union` being the number of distinct eigenvalues of all
    germs, which sets the size of the assembled structure and of the
    report. The charpoly formula multiplies, once per copy and in input
    order, a product with about (d-1) * (distinct eigenvalues of the
    germs so far) factors: (d-1) times `products` in all. Draws are
    repeated until `copies` lies within 2% of its target, `union` within
    5% and `products` within 3%.
    """
    while True:
        germs = []
        for _ in range(3):
            exponents = tuple(sorted(rng.randint(2, top) for _ in range(n)))
            germs.append((exponents, rng.randint(10, 20)))
        seen: frozenset[Fraction] = frozenset()
        got_products = 0
        for exps, count in germs:
            seen |= _spectrum(exps)
            got_products += count * len(seen)
        got_copies = sum(count * len(_spectrum(exps)) for exps, count in germs)
        if abs(got_copies - copies) <= 0.02 * copies and \
                abs(len(seen) - union) <= 0.05 * union and \
                abs(got_products - products) <= 0.03 * products:
            return [{"type": "brieskorn", "exponents": list(exps),
                     "count": count} for exps, count in germs]


def _brieskorn_spectrum(rng: random.Random, inst_dir: Path,
                        small: bool) -> list[dict]:
    # The report lists every Jordan block, about (d-1)^(n+1) of them, so
    # d is fixed per slot and only the germs vary with the seed. The
    # targets are the medians of the unconstrained draws.
    slots = [(2, 40, 3, 89, 3, 126), (3, 12, 3, 106, 5, 155)] if small else \
        [(2, 104, 9, 642, 39, 1168), (3, 26, 6, 516, 29, 880)]
    calls = []
    for index, (n, d, top, *targets) in enumerate(slots):
        instance = {"n": n, "d": d,
                    "singularities": _brieskorn_germs(rng, n, top, *targets),
                    "beta": {"mode": "given", "values": [0] * d}}
        calls.append({"argv": ["compute", _write(inst_dir, index, instance),
                               "--json"],
                      "format": "json"})
    return calls


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.randint(1, 2))


def _node_points(rng: random.Random, k: int, collinear: int) -> list[list[str]]:
    """k distinct points of P^3, the first `collinear` of them on one line.

    The cost of the exact elimination depends on the size of the entries
    and on the row order. Small coordinates (denominators 1 or 2, line
    parameters -8..8) and a fixed order hold it within about 2% from
    seed to seed.
    """
    points: list[tuple[Fraction, ...]] = []
    if collinear:
        base = (Fraction(1),) + tuple(_rational(rng) for _ in range(3))
        direction = [Fraction(rng.randint(-1, 1)) for _ in range(3)]
        if not any(direction):
            direction[0] = Fraction(1)
        for t in rng.sample(range(-8, 9), collinear):
            points.append(tuple(b + t * v for b, v in
                                zip(base, (Fraction(0), *direction))))
    seen = set(points)
    while len(points) < k:
        point = (Fraction(1),) + tuple(_rational(rng) for _ in range(3))
        if point not in seen:
            seen.add(point)
            points.append(point)
    return [[str(c) for c in point] for point in points]


def _nodal_defect(rng: random.Random, inst_dir: Path,
                  small: bool) -> list[dict]:
    # n = 3 with d even puts the nodal defect at s = d/2, with system
    # degree q = 3d/2 - 4. A line through j > q+1 of the nodes forces a
    # defect of at least j - (q+1); the other half of the instances are
    # in general position, so their evaluation matrices have full rank.
    slots = [(4, 8, 0), (4, 8, 5)] if small else \
        [(8, 60, 0), (8, 60, 12), (10, 50, 0), (10, 50, 15)]
    calls = []
    for index, (d, k, collinear) in enumerate(slots):
        instance = {"n": 3, "d": d,
                    "singularities": [{"type": "node", "count": k}],
                    "beta": {"mode": "from_nodes",
                             "points": _node_points(rng, k, collinear)}}
        call = {"argv": ["compute", _write(inst_dir, index, instance),
                         "--json"],
                "format": "json"}
        if collinear:
            call["collinear"] = {"j": collinear, "q": 3 * d // 2 - 4,
                                 "s": d // 2}
        calls.append(call)
    return calls


def _oracle_random(rng: random.Random, inst_dir: Path,
                   small: bool) -> list[dict]:
    trials = 5 if small else 100
    return [{"argv": ["oracle", "--seed", str(seed), "--trials", str(trials),
                      "--json"],
             "format": "json", "oracle_trials": trials}
            for seed in rng.sample(ORACLE_POOL, 3)]


GENERATORS = {
    "enumerate_nodes": _enumerate_nodes,
    "brieskorn_spectrum": _brieskorn_spectrum,
    "nodal_defect": _nodal_defect,
    "oracle_random": _oracle_random,
}


def build(name: str, seed: int, inst_dir: Path, *,
          small: bool = False) -> list[dict]:
    """The workload's calls for `seed`; `small` shrinks them for tests."""
    rng = random.Random(f"{name}:{seed}")
    return GENERATORS[name](rng, inst_dir, small)


def canary_call(root: Path) -> dict:
    """The bundled six-cusp sextic, whose answer is known in closed form."""
    return {"argv": ["compute", str(root / "instances" / "six_cusp_sextic.json"),
                     "--json"],
            "format": "json", "canary": "six_cusp_sextic"}
