"""Tests for the assembly of the monodromy at infinity."""

from __future__ import annotations

import json
import random

import pytest

from moninf.cli import _json_chunks
from moninf.cyclo import UnitRoot
from moninf.defect import ProjectivePointSet
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
    chi_vector,
    local_sum,
    parse_problem,
    zeta_of_top_form,
)
from moninf.jordan import JordanStructure
from moninf.localsing import (
    BrieskornPham,
    ExplicitJordan,
    OrdinaryNode,
    milnor_number,
)

from _product import forms, of_jordan


CUSP = BrieskornPham((2, 3))


def _formula(spec: ProblemSpec):
    """The charpoly formula zeta * det(x^(d-1) - T) of spec."""
    return charpoly_local_formula(zeta_of_top_form(spec), local_sum(spec)[0],
                                  spec.d)


def _forms(poly) -> tuple[str, dict[str, int]]:
    """The display and the full factor dict of a CharPoly, as
    `_product.forms` gives them of the reference product: two products
    are equal exactly when their factor dicts are."""
    return str(poly), poly.to_json()


def _table(jordan: JordanStructure, root: UnitRoot) -> dict[int, int]:
    """The size -> count table of jordan at root, empty if absent."""
    return dict(dict(jordan.items()).get(root, {}))


def _sextic_spec(beta) -> ProblemSpec:
    return ProblemSpec(2, 6, ((CUSP, 6),), beta)


def _nodes(k: int) -> tuple[tuple[OrdinaryNode, int], ...]:
    return ((OrdinaryNode(), k),) if k else ()


def _line_arrangement_nodes(d: int) -> ProjectivePointSet:
    # pairwise intersections of the lines y = i*x + i^2*z, i = 1..d
    points = [(-(i + j), -i * j, 1)
              for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    return ProjectivePointSet(2, points)


def test_chi_vector_known_values():
    assert chi_vector(2, 6, 12) == [8, 9, 9, 9, 9, 9]
    assert chi_vector(2, 6, 0) == [20, 21, 21, 21, 21, 21]
    assert chi_vector(2, 2, 0) == [0, 1]
    assert chi_vector(3, 3, 0) == [6, 5, 5]


def test_chi_vector_sum_identity():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 5)
        d = rng.randint(2, 9)
        mus = [rng.randint(1, 6) for _ in range(rng.randint(0, 5))]
        chi = chi_vector(n, d, sum(mus))
        assert len(chi) == d
        assert sum(chi) == (d - 1) ** (n + 1) - d * sum(mus)
        assert all(chi[s] == chi[1] for s in range(1, d))


def _bounds(spec: ProblemSpec) -> list[tuple[int, int]]:
    return beta_bounds(spec)


def test_beta_bounds_sextic():
    spec = _sextic_spec(EnumerateBeta())
    assert _bounds(spec) == [(0, 0), (0, 6), (0, 0), (0, 0), (0, 0), (0, 6)]


def test_beta_bounds_line_arrangement():
    # d lines in general position: C(d,2) nodes, all local eigenvalues 1
    for d in (4, 5, 6):
        k = d * (d - 1) // 2
        spec = ProblemSpec(2, d, _nodes(k), EnumerateBeta())
        lower, upper = _bounds(spec)[0]
        assert lower == d - 1
        assert upper == k


SEXTIC_EXPECTED = JordanStructure({
    UnitRoot(0, 1): {1: 8},
    UnitRoot(1, 6): {1: 5, 2: 5},
    UnitRoot(1, 3): {1: 9},
    UnitRoot(1, 2): {1: 9},
    UnitRoot(2, 3): {1: 9},
    UnitRoot(5, 6): {1: 5, 2: 5},
    **{UnitRoot(k, 30): {1: 6} for k in (1, 7, 11, 13, 17, 19, 23, 29)},
})


def test_sextic_with_six_cusps():
    report = assemble(_sextic_spec(GivenBeta((0, 1, 0, 0, 0, 1))))
    assert report.mode == "given"
    assert report.chi == (8, 9, 9, 9, 9, 9)
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.jordan == SEXTIC_EXPECTED
    assert entry.jordan.total_dim == 113
    assert report.total_dim == 113
    assert not report.has_failures()
    statuses = {check.name: check.status for _, check in report.all_checks()}
    assert statuses == {
        "zeta_two_forms": "pass",
        "degree_identity": "pass",
        "block_size_limits": "pass",
        "beta_within_bounds": "pass",
        "charpoly_local_formula": "pass",
    }


def test_sextic_zero_beta():
    report = assemble(_sextic_spec(GivenBeta((0, 0, 0, 0, 0, 0))))
    entry = report.entries[0]
    # beta_1 = 0 trades the five size-2 pairs differently: 3 + 6 blocks
    assert _table(entry.jordan, UnitRoot(1, 6)) == {1: 3, 2: 6}
    assert _table(entry.jordan, UnitRoot(5, 6)) == {1: 3, 2: 6}
    assert entry.jordan.total_dim == 113


def test_beta_bump_moves_counts_by_two_and_minus_one():
    base = assemble(_sextic_spec(GivenBeta((0, 1, 0, 0, 0, 1)))).entries[0]
    bumped = assemble(_sextic_spec(GivenBeta((0, 2, 0, 0, 0, 2)))).entries[0]
    before = _table(base.jordan, UnitRoot(1, 6))
    after = _table(bumped.jordan, UnitRoot(1, 6))
    assert after == {1: before[1] + 2, 2: before[2] - 1}


def test_charpoly_is_beta_independent():
    report = assemble(_sextic_spec(EnumerateBeta()))
    polys = [of_jordan(entry.jordan) for entry in report.entries]
    assert polys
    assert all(forms(poly) == _forms(report.charpoly) for poly in polys)


def test_sextic_charpoly_display():
    report = assemble(_sextic_spec(GivenBeta((0, 1, 0, 0, 0, 1))))
    assert str(report.charpoly) == \
        "(x - 1)^8 * (x + 1)^9 * Phi_3^9 * Phi_6^15 * Phi_30^6"
    assert str(report.zeta) == "(x - 1)^8 * (x + 1)^9 * Phi_3^9 * Phi_6^9"


def test_sextic_enumerate():
    report = assemble(_sextic_spec(EnumerateBeta()))
    assert report.mode == "enumerate"
    assert not report.truncated
    assert [entry.beta for entry in report.entries] == \
        [(0, b, 0, 0, 0, b) for b in range(7)]
    assert not report.has_failures()
    assert all(entry.jordan.total_dim == 113 for entry in report.entries)


def test_enumerate_matches_brute_force():
    enumerated = {entry.beta
                  for entry in assemble(_sextic_spec(EnumerateBeta())).entries}
    admissible = set()
    for b1 in range(10):
        for b3 in range(4):
            beta = (0, b1, 0, b3, 0, b1)
            try:
                assemble(_sextic_spec(GivenBeta(beta)))
            except InstanceError:
                continue
            admissible.add(beta)
    assert admissible == enumerated


def test_enumerate_cap_truncates():
    report = assemble(_sextic_spec(EnumerateBeta()), enumerate_cap=3)
    assert report.truncated
    assert [entry.beta for entry in report.entries] == \
        [(0, b, 0, 0, 0, b) for b in range(3)]
    with pytest.raises(InstanceError):
        assemble(_sextic_spec(EnumerateBeta()), enumerate_cap=0)


def test_smooth_conic():
    report = assemble(ProblemSpec(2, 2, (), EnumerateBeta()))
    assert report.chi == (0, 1)
    assert [entry.beta for entry in report.entries] == [(0, 0)]
    assert report.entries[0].jordan == JordanStructure({UnitRoot(1, 2): {1: 1}})
    assert not report.has_failures()


def test_smooth_cubic_curve():
    spec = ProblemSpec(2, 3, (), EnumerateBeta())
    report = assemble(spec)
    expected = JordanStructure({
        UnitRoot(0, 1): {1: 2},
        UnitRoot(1, 3): {1: 3},
        UnitRoot(2, 3): {1: 3},
    })
    assert report.entries[0].jordan == expected
    assert _forms(_formula(spec)) == forms(of_jordan(expected))
    assert _forms(zeta_of_top_form(spec)) == forms(of_jordan(expected))


def test_from_nodes_line_arrangement():
    spec = ProblemSpec(2, 4, _nodes(6), FromNodes(_line_arrangement_nodes(4)))
    report = assemble(spec)
    assert report.mode == "from_nodes"
    assert report.entries[0].beta == (3, 0, 0, 0)
    expected = JordanStructure({
        UnitRoot(0, 1): {2: 3},
        UnitRoot(1, 4): {1: 1},
        UnitRoot(1, 2): {1: 1},
        UnitRoot(3, 4): {1: 1},
        UnitRoot(1, 3): {1: 6},
        UnitRoot(2, 3): {1: 6},
    })
    assert report.entries[0].jordan == expected
    assert not report.has_failures()


def test_mu_lists_the_copies_in_input_order():
    # repeated models stay separate pairs: merging them would reorder mu
    pairs = ((OrdinaryNode(), 2), (CUSP, 1), (OrdinaryNode(), 1))
    spec = ProblemSpec(2, 6, pairs, EnumerateBeta())
    assert spec.singularities == pairs
    assert spec.total_mu == 5
    report = assemble(spec)
    assert report.mu == ((1, 2), (2, 1), (1, 1))
    assert report.to_json()["mu"] == [1, 1, 2, 1]
    assert report.total_dim == 120
    assert "local Milnor numbers: [1, 1, 2, 1] (total 5); operator " \
        "dimension 120" in "".join(report.text_chunks())


def test_from_nodes_rejects_bad_input():
    points = _line_arrangement_nodes(4)
    with pytest.raises(InstanceError, match="non-node singularity"):
        ProblemSpec(2, 4, _nodes(5) + ((CUSP, 1),), FromNodes(points))
    with pytest.raises(InstanceError, match="one point per node"):
        ProblemSpec(2, 4, _nodes(5), FromNodes(points))


def test_part_two_uses_inverse_spectrum():
    # one local size-1 block at e^(2*pi*i/5); its (d-1)-th layer sits at the
    # square roots of the conjugate 4/5, neither of them a cube root of unity
    local = ExplicitJordan(JordanStructure({UnitRoot(1, 5): {1: 1}}))
    spec = ProblemSpec(2, 3, ((local, 1),), GivenBeta((0, 0, 0)))
    report = assemble(spec)
    expected = JordanStructure({
        UnitRoot(0, 1): {1: 1},
        UnitRoot(1, 3): {1: 2},
        UnitRoot(2, 3): {1: 2},
        UnitRoot(2, 5): {1: 1},
        UnitRoot(9, 10): {1: 1},
    })
    assert report.entries[0].jordan == expected
    # the reported char poly is the assembled operator's, not the formula's
    assert _forms(report.charpoly) == forms(of_jordan(expected)) \
        != _forms(_formula(spec))
    statuses = {check.name: check.status for _, check in report.all_checks()}
    assert statuses["charpoly_local_formula"] == "not_applicable"
    assert statuses["degree_identity"] == "pass"


def test_no_admissible_beta():
    # chi_0 = -1 forces beta_0 >= 1 while the upper bound is 0
    local = ExplicitJordan(JordanStructure({UnitRoot(1, 5): {1: 1}}))
    spec = ProblemSpec(2, 2, ((local, 1),), EnumerateBeta())
    assert _bounds(spec) == [(1, 0), (0, 0)]
    report = assemble(spec)
    assert report.entries == ()
    assert report.charpoly is None
    with pytest.raises(InstanceError, match="non-polynomial result"):
        _formula(spec)
    with pytest.raises(InstanceError, match="above the upper bound 0"):
        assemble(ProblemSpec(2, 2, ((local, 1),), GivenBeta((1, 0))))


def test_negative_count_names_the_bound():
    with pytest.raises(InstanceError, match=r"above the upper bound 6"):
        assemble(_sextic_spec(GivenBeta((0, 7, 0, 0, 0, 7))))
    with pytest.raises(InstanceError, match=r"below the lower bound 3"):
        assemble(ProblemSpec(2, 4, _nodes(6), GivenBeta((0, 0, 0, 0))))


def test_given_beta_validation():
    with pytest.raises(InstanceError, match="beta symmetry violated"):
        _sextic_spec(GivenBeta((0, 1, 0, 0, 0, 0)))
    with pytest.raises(InstanceError, match="exactly d = 6 entries"):
        _sextic_spec(GivenBeta((0, 0)))
    with pytest.raises(InstanceError, match="nonnegative integer"):
        _sextic_spec(GivenBeta((0, -1, 0, 0, 0, -1)))


def test_spec_validation():
    with pytest.raises(InstanceError, match="n must be >= 2"):
        ProblemSpec(1, 6, (), EnumerateBeta())
    with pytest.raises(InstanceError, match="d must be >= 2"):
        ProblemSpec(2, 1, (), EnumerateBeta())
    with pytest.raises(InstanceError, match="exceeds"):
        # 28 nodes need more room than (3-1)^3 = 8 offers
        ProblemSpec(2, 3, _nodes(28), EnumerateBeta())
    with pytest.raises(ValueError, match="exponents"):
        ProblemSpec(2, 6, ((BrieskornPham((2, 3, 4)), 1),), EnumerateBeta())


def test_charpoly_formula_on_random_symmetric_data():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.choice((2, 3))
        models = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                models.append(OrdinaryNode())
            else:
                models.append(BrieskornPham(
                    tuple(rng.randint(2, 4) for _ in range(n))))
        total_mu = sum(milnor_number(m) for m in models)
        d = 3
        while total_mu > (d - 1) ** (n + 1):
            d += 1
        d += rng.randint(0, 2)
        report = assemble(ProblemSpec(n, d, tuple((m, 1) for m in models),
                                      EnumerateBeta()), enumerate_cap=8)
        for entry in report.entries:
            assert forms(of_jordan(entry.jordan)) == _forms(report.charpoly)
        for _, check in report.all_checks():
            assert check.status == "pass", (n, d, models, check)


def test_zeta_degree_matches_chi_sum():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 4)
        d = rng.randint(2, 8)
        count = rng.randint(0, min(4, (d - 1) ** (n + 1)))
        spec = ProblemSpec(n, d, _nodes(count), EnumerateBeta())
        zeta = zeta_of_top_form(spec)
        assert sum(zeta.at) == (d - 1) ** (n + 1) - d * count


def test_zeta_two_forms_check():
    spec = _sextic_spec(GivenBeta((0, 1, 0, 0, 0, 1)))
    zeta = zeta_of_top_form(spec)
    chi = chi_vector(2, 6, spec.total_mu)
    assert check_zeta_two_forms(zeta, chi).status == "pass"
    wrong = check_zeta_two_forms(zeta, [chi[0] + 1] + chi[1:])
    assert wrong.status == "fail"
    assert str(zeta) in wrong.detail
    assert "(x - 1)^9 * (x + 1)^9 * Phi_3^9 * Phi_6^9" in wrong.detail


def test_block_size_limit_check():
    ok = JordanStructure({UnitRoot(1, 6): {3: 2}})
    assert check_block_size_limits(ok.items(), 2, 6).status == "pass"
    too_big = JordanStructure({UnitRoot(1, 6): {4: 1}})
    assert check_block_size_limits(too_big.items(), 2, 6).status == "fail"
    at_one = JordanStructure({UnitRoot(0, 1): {3: 1}})
    assert check_block_size_limits(at_one.items(), 2, 6).status == "fail"
    off_torsion = JordanStructure({UnitRoot(1, 5): {3: 1}})
    result = check_block_size_limits(off_torsion.items(), 2, 6)
    assert result.status == "fail"
    assert "1/5" in result.detail


def test_report_json_shape():
    report = assemble(_sextic_spec(GivenBeta((0, 1, 0, 0, 0, 1))))
    doc = report.to_json()
    assert set(doc) == {"n", "d", "mu", "total_dim", "chi", "mode",
                        "beta_used", "jordan", "charpoly", "charpoly_display",
                        "zeta", "zeta_display", "checks", "truncated"}
    assert doc["beta_used"] == [0, 1, 0, 0, 0, 1]
    # the eigenvalue table is streamed as it is written
    written = json.loads("".join(_json_chunks(doc)))["jordan"]
    assert isinstance(written, list)
    assert written[0] == {"eigenvalue": "0/1", "blocks": [1] * 8}
    assert written == report.entries[0].jordan.to_json()
    multi = assemble(_sextic_spec(EnumerateBeta())).to_json()
    assert len(multi["beta_used"]) == 7
    assert multi["beta_used"][1] == [0, 1, 0, 0, 0, 1]
    assert any("beta" in check for check in multi["checks"])


def test_report_text_mentions_eigenvalues():
    report = assemble(_sextic_spec(GivenBeta((0, 1, 0, 0, 0, 1))))
    text = "".join(report.text_chunks())
    assert "eigenvalue 1/6: 5 x size 2, 5 x size 1" in text
    assert "[pass] zeta_two_forms" in text


def test_parse_problem_round_trip():
    doc = {
        "n": 2,
        "d": 6,
        "singularities": [
            {"type": "brieskorn", "exponents": [2, 3], "count": 6}],
        "beta": {"mode": "given", "values": [0, 1, 0, 0, 0, 1]},
    }
    spec = parse_problem(doc)
    assert spec == _sextic_spec(GivenBeta((0, 1, 0, 0, 0, 1)))
    assert assemble(spec).entries[0].jordan == SEXTIC_EXPECTED


def test_parse_problem_rejects_bad_documents():
    good = {
        "n": 2, "d": 6,
        "singularities": [
            {"type": "brieskorn", "exponents": [2, 3], "count": 6}],
        "beta": {"mode": "enumerate"},
    }
    with pytest.raises(InstanceError, match="n must be >= 2"):
        parse_problem({**good, "n": 1})
    with pytest.raises(InstanceError, match="unknown fields: extra"):
        parse_problem({**good, "extra": 1})
    with pytest.raises(InstanceError, match="missing fields: beta"):
        parse_problem({k: v for k, v in good.items() if k != "beta"})
    with pytest.raises(InstanceError, match="beta mode"):
        parse_problem({**good, "beta": {"mode": "guess"}})
    with pytest.raises(InstanceError, match="'mode' and 'values'"):
        parse_problem({**good, "beta": {"mode": "given"}})
    with pytest.raises(InstanceError, match="n must be an integer"):
        parse_problem({**good, "n": "2"})
    with pytest.raises(InstanceError):
        parse_problem({**good, "singularities": [{"type": "mystery"}]})
    with pytest.raises(InstanceError):
        parse_problem([good])


def test_parse_problem_from_nodes():
    doc = {
        "n": 2, "d": 4,
        "singularities": [{"type": "node", "count": 6}],
        "beta": {"mode": "from_nodes",
                 "points": [[str(-(i + j)), str(-i * j), "1"]
                            for i in range(1, 5) for j in range(i + 1, 5)]},
    }
    report = assemble(parse_problem(doc))
    assert report.entries[0].beta == (3, 0, 0, 0)
