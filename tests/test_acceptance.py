"""Acceptance suite: end-to-end criteria with explicit pass lines.

Each test prints one PASS line on success; a failed assertion leaves the
line unprinted and the test red. Criteria with runtime budgets measure
wall-clock time and assert the budget.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache

import pytest

from moninf.cyclo import UnitRoot
from moninf.defect import ProjectivePointSet, nodal_beta
from moninf.infinity import (
    EnumerateBeta,
    FromNodes,
    GivenBeta,
    InstanceError,
    ProblemSpec,
    assemble,
    beta_bounds,
    charpoly_local_formula,
    check_block_size_limits,
    check_zeta_two_forms,
    local_sum,
    zeta_of_top_form,
)
from moninf.jordan import JordanStructure
from moninf.localsing import (
    BrieskornPham,
    ExplicitJordan,
    OrdinaryNode,
    milnor_number,
)
from moninf.oracle import verify_cyclic_agreement

from _product import display, iter_blocks, of_jordan, to_json


def _from_blocks(pairs):
    """One Jordan block per (eigenvalue, size) pair."""
    return JordanStructure((root, {size: 1}) for root, size in pairs)


def _table(jordan: JordanStructure, root: UnitRoot) -> dict[int, int]:
    """The size -> count table of jordan at root, empty if absent."""
    return dict(dict(jordan.items()).get(root, {}))


# structures collected by criteria 1-6, re-checked wholesale by criterion 8
COLLECTED: list[tuple[JordanStructure, int, int]] = []


def _nodes(k: int) -> tuple[tuple[OrdinaryNode, int], ...]:
    return ((OrdinaryNode(), k),) if k else ()


def _collect(report) -> None:
    for entry in report.entries:
        COLLECTED.append((entry.jordan, report.n, report.d))


def test_criterion_1_sextic_reproduction():
    start = time.perf_counter()
    spec = ProblemSpec(2, 6, ((BrieskornPham((2, 3)), 6),),
                       GivenBeta((0, 1, 0, 0, 0, 1)))
    report = assemble(spec)
    jordan = report.entries[0].jordan
    assert _table(jordan, UnitRoot(0, 6)) == {1: 8}
    for s in (2, 3, 4):
        assert _table(jordan, UnitRoot(s, 6)) == {1: 9}
    for s in (1, 5):
        assert _table(jordan, UnitRoot(s, 6)) == {1: 5, 2: 5}
    off_torsion = [root for root in jordan.spectrum() if root.den > 6]
    assert off_torsion == [UnitRoot(k, 30)
                           for k in (1, 7, 11, 13, 17, 19, 23, 29)]
    assert all(_table(jordan, root) == {1: 6} for root in off_torsion)
    _collect(report)

    zero = assemble(ProblemSpec(2, 6, ((BrieskornPham((2, 3)), 6),),
                                GivenBeta((0,) * 6)))
    for s in (1, 5):
        assert _table(zero.entries[0].jordan, UnitRoot(s, 6)) == {1: 3, 2: 6}
    _collect(zero)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: sextic with six cusps reproduced exactly "
          f"({elapsed:.3f}s)")


@lru_cache(maxsize=None)
def _random_reports() -> tuple[tuple[ProblemSpec, object], ...]:
    rng = random.Random(2024)
    out = []
    while len(out) < 200:
        n = rng.randint(2, 4)
        d = rng.randint(2, 6)
        space = (d - 1) ** (n + 1)
        models = []
        budget = space
        for _ in range(rng.randint(0, 4)):
            exponents = tuple(rng.randint(2, 4) for _ in range(n))
            mu = 1
            for a in exponents:
                mu *= a - 1
            if mu > budget:
                continue
            models.append((BrieskornPham(exponents), 1))
            budget -= mu
        spec = ProblemSpec(n, d, tuple(models), EnumerateBeta())
        try:
            report = assemble(spec, enumerate_cap=4)
        except InstanceError:
            continue
        if not report.entries:
            continue
        out.append((spec, report))
    return tuple(out)


def test_criterion_2_degree_identity_on_200_specs():
    start = time.perf_counter()
    reports = _random_reports()
    assert len(reports) == 200
    for spec, report in reports:
        expected = (spec.d - 1) ** (spec.n + 1) - sum(
            count * milnor_number(m) for m, count in spec.singularities)
        for entry in report.entries:
            assert entry.jordan.total_dim == expected, (spec.n, spec.d)
        _collect(report)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 2: degree identity on 200 random specs "
          f"({elapsed:.3f}s)")


def test_criterion_3_charpoly_formula_on_200_specs():
    for spec, report in _random_reports():
        formula = charpoly_local_formula(
            zeta_of_top_form(spec), local_sum(spec)[0], spec.d)
        for entry in report.entries:
            poly = of_jordan(entry.jordan)
            assert display(poly) == str(formula), (spec.n, spec.d)
            assert to_json(poly) == formula.to_json(), (spec.n, spec.d)
    print("PASS criterion 3: local product formula matches assembled "
          "characteristic polynomial on 200 random specs")


def _partitions(total: int, max_part: int) -> list[tuple[int, ...]]:
    if total == 0:
        return [()]
    out = []
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            out.append((first,) + rest)
    return out


def _all_structures(roots: list[UnitRoot], max_dim: int):
    def rec(idx: int, budget: int):
        if idx == len(roots):
            yield []
            return
        for weight in range(budget + 1):
            for part in _partitions(weight, weight):
                for tail in rec(idx + 1, budget - weight):
                    yield [(roots[idx], size) for size in part] + tail
    for blocks in rec(0, max_dim):
        if blocks:
            yield _from_blocks(blocks)


def test_criterion_4_oracle_keystone():
    start = time.perf_counter()
    roots6 = sorted({UnitRoot(num, den) for den in (1, 2, 3, 6)
                     for num in range(den)})
    assert len(roots6) == 6
    exhaustive = list(_all_structures(roots6, 4))
    assert len(exhaustive) == 446
    compared = 0
    for structure in exhaustive:
        for m in (2, 3, 4):
            expected, actual = verify_cyclic_agreement(structure, m)
            assert expected == actual, (structure, m)
            compared += 1
    rng = random.Random(42)
    orders = [1, 2, 3, 4, 6, 12]
    for _ in range(100):
        remaining = rng.randint(1, 6)
        blocks = []
        while remaining:
            size = rng.randint(1, remaining)
            den = rng.choice(orders)
            blocks.append((UnitRoot(rng.randrange(den), den), size))
            remaining -= size
        structure = _from_blocks(blocks)
        m = rng.randint(2, 5)
        expected, actual = verify_cyclic_agreement(structure, m)
        assert expected == actual, (structure, m)
        compared += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 4: combinatorial power rule agrees with matrix "
          f"ranks on {compared} cases ({elapsed:.3f}s)")


def test_criterion_5_line_arrangements():
    for d in (4, 5, 6):
        points = ProjectivePointSet(2, [
            (-(i + j), -i * j, 1)
            for i in range(1, d + 1) for j in range(i + 1, d + 1)])
        beta = nodal_beta(points, 2, d)
        assert beta[0] == d - 1, d
        assert all(b == 0 for b in beta[1:]), d
        spec = ProblemSpec(2, d, _nodes(len(points)), FromNodes(points))
        report = assemble(spec)
        assert report.entries[0].beta == tuple(beta)
        lower, _ = beta_bounds(spec)[0]
        assert lower == d - 1, d
        _collect(report)
    print("PASS criterion 5: generic line arrangements give beta_0 = d-1 "
          "for d = 4, 5, 6, meeting the lower bound exactly")


def test_criterion_6_nodal_parity():
    for d, max_k in ((3, 5), (5, 20)):
        for k in range(max_k + 1):
            spec = ProblemSpec(3, d, _nodes(k), EnumerateBeta())
            report = assemble(spec)
            assert len(report.entries) == 1
            jordan = report.entries[0].jordan
            assert all(size == 1 for _, size, _ in iter_blocks(jordan)), (d, k)
            _collect(report)
    # past k = 5 the d = 3 size-1 count goes negative; no operator exists
    for k in (6, 10, 16):
        spec = ProblemSpec(3, 3, _nodes(k), EnumerateBeta())
        assert assemble(spec).entries == ()
        with pytest.raises(InstanceError, match="negative block count"):
            assemble(ProblemSpec(3, 3, _nodes(k), GivenBeta((0, 0, 0))))
    # and past k = 16 the total Milnor number outgrows (d-1)^(n+1)
    for k in (17, 20):
        with pytest.raises(InstanceError, match="exceeds"):
            ProblemSpec(3, 3, _nodes(k), EnumerateBeta())
    print("PASS criterion 6: nodal hypersurfaces in P^3 of degree 3 and 5 "
          "give finite-order operators (all blocks size 1); infeasible node "
          "counts for d = 3 are rejected")


def test_criterion_7_zeta_identity():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(2, 4)
        d = rng.randint(2, 7)
        space = (d - 1) ** (n + 1)
        mus = []
        budget = space
        for _ in range(rng.randint(0, 4)):
            mu = rng.randint(1, 5)
            if mu > budget:
                break
            mus.append(mu)
            budget -= mu
        models = tuple(
            (ExplicitJordan(JordanStructure({UnitRoot(1, 2): {1: mu}})), 1)
            for mu in mus)
        spec = ProblemSpec(n, d, models, EnumerateBeta())
        zeta = zeta_of_top_form(spec)
        assert check_zeta_two_forms(zeta, spec.chi).status == "pass"
        assert sum(zeta.at) == space - d * sum(mus)
    sextic = ProblemSpec(2, 6, ((BrieskornPham((2, 3)), 6),), EnumerateBeta())
    zeta = zeta_of_top_form(sextic)
    assert zeta.at == [8, 9, 9, 9, 9, 9]
    assert zeta.to_json() == {"0/1": 8, "1/6": 9, "1/3": 9, "1/2": 9,
                              "2/3": 9, "5/6": 9}
    print("PASS criterion 7: zeta two-forms identity on 200 random "
          "(n, d, mu) draws; sextic exponents (8,9,9,9,9,9)")


def test_criterion_8_block_size_limits_everywhere():
    assert len(COLLECTED) > 200, "criteria 1-6 must run before criterion 8"
    for structure, n, d in COLLECTED:
        result = check_block_size_limits(structure.items(), n, d)
        assert result.status == "pass", (n, d, result.detail)
        assert all(size <= n + 1 for _, size, _ in iter_blocks(structure))
    print(f"PASS criterion 8: no block exceeds size n+1, and size-(n+1) "
          f"blocks sit only at nontrivial d-th roots of unity, across "
          f"{len(COLLECTED)} assembled structures")
