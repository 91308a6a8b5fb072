"""The assembler reads the local data only through their direct sum T.

A per-copy statement of the counting rules, written out here with one
local monodromy per singularity, is the reference that `assemble`,
`beta_bounds` and `charpoly_local_formula` must match.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import moninf.cli
import moninf.cyclic
import moninf.cyclo
import moninf.infinity
from moninf.cli import _json_chunks, main
from moninf.cyclo import ONE, CharPoly, UnitRoot, lifts, mth_roots
from moninf.infinity import (
    EnumerateBeta,
    GivenBeta,
    InstanceError,
    ProblemSpec,
    assemble,
    beta_bounds,
    charpoly_local_formula,
    chi_vector,
    local_sum,
    zeta_of_top_form,
)
from moninf.jordan import JordanStructure
from moninf.localsing import (
    BrieskornPham,
    ExplicitJordan,
    OrdinaryNode,
    local_monodromy,
    milnor_number,
)
from _product import (
    Product,
    as_structure,
    conjugate,
    display,
    is_conjugation_symmetric,
    iter_blocks,
    of_jordan,
    product,
    times,
    to_json,
)
from test_exactness import (
    MULTI_VECTOR_INSTANCE,
    NON_SEMISIMPLE_ENUMERATE_INSTANCE,
)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def _copies(spec: ProblemSpec) -> list:
    """One model per singularity, in input order."""
    return [m for m, count in spec.singularities for _ in range(count)]


def _pairs(models) -> tuple:
    """(model, count) pairs: one per run of equal adjacent models."""
    return tuple((m, len(list(run))) for m, run in itertools.groupby(models))


def _table(t: JordanStructure, alpha: UnitRoot) -> dict[int, int]:
    """The size -> count table of t at alpha, empty if absent."""
    return dict(dict(t.items()).get(alpha, {}))


def _power_minus_one(d: int, exponent: int) -> Product:
    """(x^d - 1)^exponent over the d-th roots."""
    return product((UnitRoot(j, d), exponent) for j in range(d))


def _reference(spec: ProblemSpec):
    """Per-copy counting rules: (chi, bounds, structure-of-beta, charpoly)."""
    n, d = spec.n, spec.d
    copies = [as_structure(*local_monodromy(m, n)) for m in _copies(spec)]
    chi = chi_vector(n, d, sum(milnor_number(m) for m in _copies(spec)))
    bounds = []
    for s in range(d):
        alpha = UnitRoot(s, d)
        total = sum(sum(_table(t, alpha).values()) for t in copies)
        bounds.append((max(0, (total - chi[s] + 1) // 2),
                       sum(_table(t, alpha).get(1, 0) for t in copies)))

    def structure(beta):
        blocks: dict[UnitRoot, Counter] = {}
        for s in range(d):
            alpha = UnitRoot(s, d)
            sizes = Counter({
                1: chi[s] + 2 * beta[s]
                - sum(sum(_table(t, alpha).values()) for t in copies),
                2: -beta[s] + sum(_table(t, alpha).get(1, 0) for t in copies)})
            if min(sizes.values()) < 0:
                return None
            for t in copies:
                for size, count in _table(t, alpha).items():
                    if size >= 2:
                        sizes[size + 1] += count
            blocks[alpha] = sizes
        for t in copies:
            for xi in t.spectrum():
                for alpha in mth_roots(conjugate(xi), d - 1):
                    if d % alpha.den:
                        blocks.setdefault(alpha, Counter()).update(
                            _table(t, xi))
        return JordanStructure({a: dict(c) for a, c in blocks.items()})

    sign = (-1) ** n
    charpoly = times(product([(ONE, -sign)]),
                     _power_minus_one(d, (sign + (d - 1) ** (n + 1)) // d))
    for t in copies:
        charpoly = times(charpoly, product(
            (alpha, t.multiplicity(xi))
            for xi in t.spectrum() for alpha in mth_roots(xi, d - 1)))
        charpoly = times(charpoly, _power_minus_one(d, -t.total_dim))
    return chi, bounds, structure, charpoly


def _random_germ(rng: random.Random, n: int):
    kind = rng.random()
    if kind < 0.3:
        return OrdinaryNode()
    if kind < 0.6:
        return BrieskornPham(tuple(rng.randint(2, 4) for _ in range(n)))
    # a local block of size n at eigenvalue 1 would break the block size
    # limits of the assembled operator, so it stays below n there
    blocks = []
    for den in rng.choices((1, 2, 3, 4, 6, 12), k=rng.randint(1, 3)):
        root = UnitRoot(rng.randrange(den), den)
        blocks.append((root, {rng.randint(1, n - 1 if root == ONE else n): 1}))
    return ExplicitJordan(JordanStructure(blocks))


def _random_spec(rng: random.Random, given: bool) -> ProblemSpec:
    n = rng.choice((2, 3))
    germs = [(_random_germ(rng, n), rng.randint(1, 4))
             for _ in range(rng.randint(1, 3))]
    models = [m for m, count in germs for _ in range(count)]
    rng.shuffle(models)
    total_mu = sum(milnor_number(m) for m in models)
    d = 2
    while total_mu > (d - 1) ** (n + 1):
        d += 1
    d += rng.randint(0, 3)
    spec = ProblemSpec(n, d, _pairs(models), EnumerateBeta())
    if not given:
        return spec
    # draw each beta[s] from its admissible range, widened by one for a
    # third of the specs so that some vectors are inadmissible
    bounds = _reference(spec)[1]
    widen = int(rng.random() < 1 / 3)
    values = [0] * d
    for s in range(d // 2 + 1):
        (lo, up), (lo2, up2) = bounds[s], bounds[(d - s) % d]
        low = max(0, max(lo, lo2) - widen)
        values[s] = values[(d - s) % d] = \
            rng.randint(low, max(low, min(up, up2) + widen))
    return ProblemSpec(n, d, _pairs(models), GivenBeta(tuple(values)))


@pytest.mark.parametrize("given", [True, False])
def test_assemble_matches_per_copy_rules(given):
    rng = random.Random(4151 if given else 9265)
    admissible = 0
    for _ in range(120):
        spec = _random_spec(rng, given)
        chi, bounds, structure, charpoly = _reference(spec)
        assert beta_bounds(spec) == bounds
        zeta, t = zeta_of_top_form(spec), local_sum(spec)[0]
        if all(e > 0 for e in charpoly.values()):
            formula = charpoly_local_formula(zeta, t, spec.d)
            assert str(formula) == display(charpoly)
            assert formula.to_json() == to_json(charpoly)
        else:
            with pytest.raises(InstanceError, match="non-polynomial"):
                charpoly_local_formula(zeta, t, spec.d)
        if given and structure(spec.beta.values) is None:
            with pytest.raises(InstanceError, match="negative block count"):
                assemble(spec)
            continue
        report = assemble(spec, enumerate_cap=6)
        assert report.chi == tuple(chi)
        for entry in report.entries:
            assert all(lo <= b <= up for b, (lo, up) in zip(entry.beta, bounds))
            assert entry.jordan == structure(entry.beta)
            admissible += 1
        symmetric = all(
            is_conjugation_symmetric(as_structure(*local_monodromy(m, spec.n)))
            for m, _ in spec.singularities)
        for _, check in report.all_checks():
            applies = symmetric or check.name != "charpoly_local_formula"
            assert check.status == ("pass" if applies else "not_applicable"), \
                (spec, check)
    assert admissible > 30


def test_shuffled_singularities_give_the_same_report():
    rng = random.Random(3589)
    for given in (True, False) * 15:
        spec = _random_spec(rng, given)
        models = _copies(spec)
        rng.shuffle(models)
        shuffled = ProblemSpec(spec.n, spec.d, _pairs(models), spec.beta)
        try:
            docs = [json.loads("".join(_json_chunks(assemble(s).to_json())))
                    for s in (spec, shuffled)]
        except InstanceError as exc:
            with pytest.raises(InstanceError, match=re.escape(str(exc))):
                assemble(shuffled)
            continue
        # mu lists one entry per singularity, in input order
        assert sorted(docs[0].pop("mu")) == sorted(docs[1].pop("mu"))
        assert docs[0] == docs[1]


MIXED_GERMS = {"n": 2, "d": 9, "singularities": [
    {"type": "node", "count": 5},
    {"type": "brieskorn", "exponents": [2, 3], "count": 4},
    {"type": "node", "count": 2},
    {"type": "brieskorn", "exponents": [3, 2]},
    {"type": "explicit", "count": 3,
     "jordan": [{"eigenvalue": "1/4", "blocks": [2]},
                {"eigenvalue": "3/4", "blocks": [2]}]}],
    "beta": {"mode": "enumerate"}}


def test_local_monodromy_runs_once_per_distinct_germ(monkeypatch, tmp_path,
                                                      capsys):
    seen = []

    def counting(model, n):
        seen.append(model)
        return local_monodromy(model, n)

    monkeypatch.setattr(moninf.infinity, "local_monodromy", counting)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_GERMS))
    assert main(["compute", str(path), "--json", "--enumerate-cap", "4"]) == 0
    assert len(json.loads(capsys.readouterr().out)["mu"]) == 15
    assert len(seen) == len(set(seen)) == 4


@pytest.mark.parametrize("command, calls", [
    (["zeta"], 0), (["zeta", "--json"], 0),
    (["bounds"], 4), (["bounds", "--json"], 4)])
def test_zeta_builds_no_local_monodromy_and_bounds_one_per_germ(
        monkeypatch, tmp_path, capsys, command, calls):
    # four distinct germs: zeta reads only n, d and mu, bounds reads T
    seen = []

    def counting(model, n):
        seen.append(model)
        return local_monodromy(model, n)

    monkeypatch.setattr(moninf.infinity, "local_monodromy", counting)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_GERMS))
    assert main([command[0], str(path), *command[1:]]) == 0
    assert capsys.readouterr().err == ""
    assert len(seen) == len(set(seen)) == calls


def _forbid_cyclic_power(monkeypatch) -> list:
    """Make cyclic_power raise wherever it is bound, and count the lifting
    streams that compute opens instead."""
    def forbidden(structure, m):
        raise AssertionError("compute built a cyclic power")

    for module in (moninf.cyclic, moninf.cli):
        monkeypatch.setattr(module, "cyclic_power", forbidden)
    streams = []

    def counting(level, pairs, m):
        streams.append(m)
        return lifts(level, pairs, m)

    for module in (moninf.cyclo, moninf.cyclic, moninf.infinity):
        monkeypatch.setattr(module, "lifts", counting)
    return streams


@pytest.mark.parametrize("cap", [1, 2, 4])
def test_compute_never_calls_cyclic_power_whatever_the_beta_count(
        cap, monkeypatch, tmp_path, capsys):
    # the copied layer and the charpoly are streamed from T by the lifting
    # generator that cyclic_power is built on; the power itself never is
    streams = _forbid_cyclic_power(monkeypatch)
    path = tmp_path / "enumerate.json"
    path.write_text(json.dumps(NON_SEMISIMPLE_ENUMERATE_INSTANCE))
    assert main(["compute", str(path), "--json",
                 "--enumerate-cap", str(cap)]) == 0
    assert len(json.loads(capsys.readouterr().out)["beta_used"]) == cap
    assert streams and set(streams) == {5}


def test_compute_never_calls_cyclic_power_for_a_given_beta(monkeypatch,
                                                           capsys):
    streams = _forbid_cyclic_power(monkeypatch)
    for flags in ([], ["--json"]):
        assert main(["compute", str(INSTANCES / "six_cusp_sextic.json"),
                     *flags]) == 0
        assert "given" in capsys.readouterr().out
    assert streams and set(streams) == {5}


@pytest.mark.parametrize("cap", [1, 2, 4])
def test_validated_structures_do_not_grow_with_the_beta_count(cap,
                                                             monkeypatch):
    # the base is streamed from T and each vector adds only its d slots, so
    # assembling builds no Jordan structure and as many characteristic
    # polynomials (the report's and zeta's) whatever the number of vectors
    spec = moninf.infinity.parse_problem(NON_SEMISIMPLE_ENUMERATE_INSTANCE)
    calls = [_count_calls(monkeypatch, cls, "__init__")
             for cls in (JordanStructure, CharPoly)]
    counts = []
    for vectors in (1, cap):
        for seen in calls:
            seen.clear()
        assert len(assemble(spec, enumerate_cap=vectors).entries) == vectors
        counts.append([len(seen) for seen in calls])
    assert counts[0] == counts[1]
    assert counts[0][0] == 0


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    method = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return method(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_charpoly_comparison_compares_no_roots(monkeypatch):
    # off the d-th roots the comparison is one pass over T, and each vector
    # compares its d slot multiplicities as ints: the count of
    # UnitRoot.__eq__ calls does not grow with the vectors (it grew by about
    # 2d per vector when whole polynomials were compared)
    spec = moninf.infinity.parse_problem(
        json.loads((INSTANCES / "six_cusp_sextic_enumerate.json").read_text()))
    calls = _count_calls(monkeypatch, UnitRoot, "__eq__")
    counts = []
    for cap in (1, 7):
        calls.clear()
        report = assemble(spec, enumerate_cap=cap)
        assert len(report.entries) == cap
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert {check.status for _, check in report.all_checks()
            if check.name == "charpoly_local_formula"} == {"pass"}


def test_text_renders_each_eigenvalue_line_once(monkeypatch):
    # the nine vectors differ only in beta_0, so each extra vector adds
    # one line to render; the lines of the base are rendered once
    report = assemble(moninf.infinity.parse_problem(MULTI_VECTOR_INSTANCE))
    first = assemble(moninf.infinity.parse_problem(MULTI_VECTOR_INSTANCE),
                     enumerate_cap=1)
    # a rendered line is a slot's line, formatted from its cell's line, or
    # a lift of the base runs
    rendered = _count_calls(monkeypatch, moninf.infinity, "_LINE")
    runs_of = moninf.infinity.lifted_runs

    def counting_runs(*args):
        for run in runs_of(*args):
            rendered.extend(run)
            yield run

    monkeypatch.setattr(moninf.infinity, "lifted_runs", counting_runs)
    counts = []
    for got in (first, report):
        rendered.clear()
        text = "".join(got.text_chunks())
        counts.append(len(rendered))
    assert len(report.entries) == 9
    assert text.count("  eigenvalue ") > 9 * 3000
    assert counts[1] - counts[0] == 8


@pytest.mark.parametrize("name", ["six_cusp_sextic.json",
                                  "six_cusp_sextic_enumerate.json"])
def test_reports_make_no_root_within_the_block_size_limits(name, monkeypatch):
    # eigenvalues stay residues from T to the printed line: with every block
    # within the limits, neither the assembly nor either report makes a root
    spec = moninf.infinity.parse_problem(
        json.loads((INSTANCES / name).read_text()))
    made = [_count_calls(monkeypatch, UnitRoot, "__post_init__")] + [
        _count_calls(monkeypatch, module, "reduced_root")
        for module in (moninf.cyclo, moninf.cyclic, moninf.infinity)]
    report = assemble(spec)
    text = "".join(report.text_chunks())
    doc = json.loads("".join(_json_chunks(report.to_json())))
    assert "  eigenvalue 1/6: " in text and doc["jordan"]
    assert made == [[], [], [], []]


@pytest.mark.parametrize("given", [True, False])
def test_assembled_structures_are_canonical(given):
    # the --json rows are streamed, never sorted; dict equality ignores
    # order, so they are compared as lists with what the validating
    # constructor stores.  The characteristic polynomial is a closed form:
    # its display and its full factor dict are those of the structure's
    rng = random.Random(5087 if given else 6121)
    for _ in range(60):
        spec = _random_spec(rng, given)
        try:
            report = assemble(spec)
        except InstanceError:
            continue
        for entry in report.entries:
            streamed = [(UnitRoot(p, q), list(blocks))
                        for p, q, blocks in entry.assembler.rows(entry.beta)]
            assert streamed == [(root, entry.jordan.sizes_at(root))
                                for root in entry.jordan.spectrum()]
        if report.entries:
            poly = of_jordan(report.entries[0].jordan)
            assert str(report.charpoly) == display(poly)
            assert report.charpoly.to_json() == to_json(poly)


def test_symmetric_sum_of_asymmetric_germs_is_not_applicable():
    third, two_thirds = (
        ExplicitJordan(JordanStructure({UnitRoot(k, 3): {1: 1}}))
        for k in (1, 2))
    spec = ProblemSpec(2, 4, ((third, 1), (two_thirds, 1)), EnumerateBeta())
    t, symmetric = local_sum(spec)
    assert is_conjugation_symmetric(as_structure(*t))
    assert not symmetric
    report = assemble(spec)
    assert report.entries
    statuses = {check.status for _, check in report.all_checks()
                if check.name == "charpoly_local_formula"}
    assert statuses == {"not_applicable"}


def _explicit(table: dict) -> ExplicitJordan:
    return ExplicitJordan(JordanStructure(table))


@st.composite
def _germ_lists(draw):
    """(n, extra, (model, count) pairs): Brieskorn-Pham germs, nodes at
    odd and even n, and explicit germs whose roots, at levels 1 to 12,
    meet those of other germs; d is extra above the least d that admits
    the total Milnor number."""
    n = draw(st.sampled_from((2, 3)))
    roots = st.builds(lambda den, num: UnitRoot(num, den),
                      st.sampled_from((1, 2, 3, 4, 6, 12)), st.integers(0, 11))
    tables = st.dictionaries(st.integers(1, n), st.integers(1, 2),
                             min_size=1, max_size=2)
    model = st.one_of(
        st.just(OrdinaryNode()),
        st.lists(st.integers(2, 6), min_size=n, max_size=n).map(
            lambda exps: BrieskornPham(tuple(exps))),
        st.dictionaries(roots, tables, min_size=1, max_size=3).map(_explicit))
    return n, draw(st.integers(0, 2)), draw(
        st.lists(st.tuples(model, st.integers(1, 4)), max_size=5))


@settings(max_examples=60, deadline=None)
@given(case=_germ_lists())
# 1/2 from a node at n = 3 and 3/6 from an explicit germ at level 6
@example(case=(3, 1, [(OrdinaryNode(), 2),
                      (_explicit({UnitRoot(3, 6): {1: 1}}), 1),
                      (_explicit({UnitRoot(1, 6): {2: 1}}), 1)]))
# a symmetric sum of asymmetric germs, at d = 4, where a vector exists
@example(case=(2, 1, [(_explicit({UnitRoot(1, 3): {1: 1}}), 2),
                      (_explicit({UnitRoot(2, 3): {1: 1}}), 2)]))
def test_local_sum_is_the_direct_sum_of_the_copies(case):
    n, extra, pairs = case
    total_mu = sum(count * milnor_number(m) for m, count in pairs)
    d = 2
    while total_mu > (d - 1) ** (n + 1):
        d += 1
    d += extra
    spec = ProblemSpec(n, d, tuple(pairs), EnumerateBeta())
    germs = {m: as_structure(*local_monodromy(m, n)) for m, _ in pairs}
    t, symmetric = local_sum(spec)
    assert as_structure(*t) == JordanStructure(
        (root, {size: number})
        for m, count in pairs for _ in range(count)
        for root, size, number in iter_blocks(germs[m]))
    assert symmetric == all(map(is_conjugation_symmetric, germs.values()))
    if not symmetric:
        report = assemble(spec, enumerate_cap=2)
        statuses = {check.status for _, check in report.all_checks()
                    if check.name == "charpoly_local_formula"}
        assert statuses == ({"not_applicable"} if report.entries else set())


# sha256 of the --json reports as computed before the assembler read T
GOLDEN = {
    ("compute", "six_cusp_sextic.json"):
        "b7b776c118f054b2609bcb27dd3a5a9633f18dae5807b771aad235eca3c92205",
    ("compute", "six_cusp_sextic_enumerate.json"):
        "d5da9d34079403330a2daa4bd3794bdd02b4e1880a693f3c72f7854c0c85644c",
    ("compute", "lines_d4.json"):
        "3550813a34209345291d2795c40a9738cd8ffa506942dfad6ed754cfcc37b34e",
    ("bounds", "six_cusp_sextic.json"):
        "a303a17b653d5a1a8437154bc0568c367d05cfc9fa5521283c34668224cdcdd8",
    ("bounds", "six_cusp_sextic_enumerate.json"):
        "a303a17b653d5a1a8437154bc0568c367d05cfc9fa5521283c34668224cdcdd8",
    ("bounds", "lines_d4.json"):
        "a38d94ba8cdeeb2f435ead013493b300c1ea93779241585ab20321ec2959196a",
    ("zeta", "six_cusp_sextic.json"):
        "b8ee650e7c94efacc8bbffe5a469f49650ea158057c90a961cd324f6f2ead331",
    ("zeta", "six_cusp_sextic_enumerate.json"):
        "b8ee650e7c94efacc8bbffe5a469f49650ea158057c90a961cd324f6f2ead331",
    ("zeta", "lines_d4.json"):
        "b0d63bb8e270f4ff4e72e807f4cfa2ed18468d355cebf74f44c2bc4be9669013",
}


@pytest.mark.parametrize("command,instance", sorted(GOLDEN))
def test_bundled_reports_are_unchanged(command, instance):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, str(INSTANCES / instance), "--json"]) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == GOLDEN[command, instance]


# sha256 and exit code of text and --json compute reports, pinned before
# the copied layer was streamed from T: an asymmetric germ, failing block
# size limits from both the copied layer and the d-th roots, many beta
# vectors (its text report is pinned in test_exactness.py), and a product
# formula that leaves negative exponents, so no beta vector is admissible
PINNED_INSTANCES = {
    "asymmetric": {
        "n": 2, "d": 7,
        "singularities": [{"type": "explicit", "jordan": [
            {"eigenvalue": "1/3", "blocks": [1]},
            {"eigenvalue": "1/5", "blocks": [1]}]}],
        "beta": {"mode": "enumerate"}},
    "failing_checks": {
        "n": 2, "d": 7,
        "singularities": [
            {"type": "explicit", "jordan": [
                {"eigenvalue": "0/1", "blocks": [2]},
                {"eigenvalue": "1/7", "blocks": [3]},
                {"eigenvalue": "1/3", "blocks": [4, 3]},
                {"eigenvalue": "2/3", "blocks": [3]}]},
            {"type": "node", "count": 2}],
        "beta": {"mode": "enumerate"}},
    "multi_vector": MULTI_VECTOR_INSTANCE,
    "non_polynomial": {
        "n": 2, "d": 3, "singularities": [{"type": "node", "count": 4}],
        "beta": {"mode": "enumerate"}},
}

PINNED = {
    ("asymmetric", "json"): (
        0, "0184f1677c7294136bd0b714d704fe9fea7626284e842e9faec57894c9381b34"),
    ("asymmetric", "text"): (
        0, "b6bc2b6d4726d329ad85ae589999aff49178f066fc84281a166bfed8f569f6ce"),
    ("failing_checks", "json"): (
        2, "55b3766a36d2ece8d6b3080e5e612b1d7f9f6b76445407de143d837caa526be7"),
    ("failing_checks", "text"): (
        2, "acf027a8a5362ca8944a24bea7723baaf3be7f679b76ff2959eee43fa9736f55"),
    ("multi_vector", "json"): (
        0, "5aa1e4921c1d64dba2f835bdc43a8b734cbd89769d3c6715800d05b6ea93a1b5"),
    ("non_polynomial", "json"): (
        0, "7aeee86bd8d0e18d1217b1adcd920447a28359584a9ae55a0361d6dfcdc6afb7"),
    ("non_polynomial", "text"): (
        0, "3fe262f716e6ed72807dd818fd5ade88b02d93ffbbe8ed6b13a36980780eb66d"),
}


@pytest.mark.parametrize("name,fmt", sorted(PINNED))
def test_pinned_compute_reports_are_unchanged(name, fmt, tmp_path):
    instance = tmp_path / f"{name}.json"
    instance.write_text(json.dumps(PINNED_INSTANCES[name]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["compute", str(instance)]
                    + (["--json"] if fmt == "json" else []))
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (code, digest) == PINNED[name, fmt]
