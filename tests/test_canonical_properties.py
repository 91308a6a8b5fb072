"""Property tests for what is built in canonical order without sorting.

`cyclo.reduced_root` makes a root without the validating constructor's
checks; it must give exactly what the validating constructor gives.
`cyclo.lifts` streams the lifted pairs of integer residues in root order,
which the assembler relies on: each lift (p, q) must be the validated
root of (r + j*L)/(m*L), in lowest terms, and they must come as the
validating constructor of the cyclic power stores them.  `cyclic.lifted_runs`
cuts that stream at the (m+1)-th roots and leaves out the lifts landing
on them.  Order is included: dict equality ignores order, so the items
are also compared as lists.

`cyclo.CharPoly` is a characteristic polynomial in closed form from
(eigenvalue, dimension) pairs, m = d - 1 and the exponents at the d-th
roots; its display and its factor dict must be those of the reference
product in `_product`, on pairs that are not Galois stable, partial
orbits, orbits with unequal dimensions and eigenvalues at d-th roots,
and on both routes of the assembler.  A Jordan structure's `char_poly`
is the same closed form with m = 1.  The zeta function of the top form
is the closed form with no pairs: its exponents at the d-th roots, of
any sign, are shown by the signed rule of the reference, in the pass and
the fail detail of its check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from moninf.cyclic import cyclic_power, lifted_runs  # noqa: E402
from moninf.cyclo import (  # noqa: E402
    MINUS_ONE,
    ONE,
    CharPoly,
    UnitRoot,
    lifts,
    mth_roots,
    reduced_root,
)
from moninf.infinity import (  # noqa: E402
    EnumerateBeta,
    InstanceError,
    ProblemSpec,
    assemble,
    charpoly_local_formula,
    check_zeta_two_forms,
    local_sum,
    zeta_of_top_form,
)
from moninf.jordan import JordanStructure  # noqa: E402
from moninf.localsing import ExplicitJordan, OrdinaryNode  # noqa: E402

from _product import (  # noqa: E402
    Product, as_structure, closed, display, forms, of_jordan, product,
    residues, times)

ROOTS = st.builds(lambda den, num: UnitRoot(num % den, den),
                  st.integers(1, 24), st.integers(0, 23))
TABLES = st.dictionaries(st.integers(1, 6), st.integers(1, 5),
                         min_size=1, max_size=4)


@given(raw=st.dictionaries(ROOTS, TABLES, max_size=12), m=st.integers(1, 6))
def test_canonical_structure_equals_the_validated_one(raw, m):
    t = JordanStructure(raw)
    level, tables = t.tables()
    streamed = [(UnitRoot(p, q), list(table.items()))
                for p, q, table in lifts(level, tables.items(), m)]
    power = cyclic_power(t, m)
    assert streamed == [(root, list(table.items())) for root, table in power.items()]
    angles = [Fraction(root.num, root.den) for root, _ in streamed]
    assert angles == sorted(set(angles))
    assert len(streamed) == m * len(t.spectrum())


RESIDUES = st.integers(1, 60).flatmap(lambda level: st.tuples(
    st.just(level), st.sets(st.integers(0, level - 1), max_size=8).map(sorted)))


@given(residues=RESIDUES, m=st.integers(1, 8))
def test_lifts_are_the_validated_roots(residues, m):
    level, rs = residues
    got = list(lifts(level, [(r, -r) for r in rs], m))
    want = [(UnitRoot(r + j * level, m * level), -r)
            for j in range(m) for r in rs]
    assert [((p, q), value) for p, q, value in got] == \
        [((root.num, root.den), value) for root, value in want]
    angles = [Fraction(p, q) for p, q, _ in got]
    assert angles == sorted(set(angles))
    with pytest.raises(ValueError, match="root index must be >= 1"):
        lifts(level, [], 0)


@given(residues=RESIDUES, m=st.integers(1, 8))
def test_lifted_runs_interleave_with_the_roots_of_unity(residues, m):
    # the m + 2 runs with the (m+1)-th roots between them are the lifts in
    # root order, less exactly those that land on the (m+1)-th roots
    level, rs = residues
    pairs, d = [(r, -r) for r in rs], m + 1
    runs = list(lifted_runs(level, pairs, m))
    assert len(runs) == m + 2
    merged = runs[0] + [row for s in range(d)
                        for row in [(s, d, None)] + runs[s + 1]]
    angles = [Fraction(p, q) for p, q, _ in merged]
    assert angles == sorted(set(angles))
    assert [row for run in runs for row in run] == \
        [row for row in lifts(level, pairs, m) if d % row[1]]


@given(raw=st.dictionaries(ROOTS, TABLES, max_size=12))
def test_tables_round_trip_through_the_structure(raw):
    t = JordanStructure(raw)
    level, tables = t.tables()
    assert as_structure(level, tables) == t
    assert list(tables.values()) == [table for _, table in t.items()]


@given(den=st.integers(1, 10**6), num=st.integers(0, 10**6))
def test_reduced_root_equals_the_validated_one(den, num):
    fast, slow = reduced_root(num % den, den), UnitRoot(num % den, den)
    assert (fast.num, fast.den) == (slow.num, slow.den)
    assert fast == slow and hash(fast) == hash(slow)


# d prime, d - 1 prime, d - 1 with many divisors, and small d
DEGREES = st.sampled_from([2, 3, 4, 5, 6, 7, 8, 12, 13, 25, 31, 37, 61])


@st.composite
def _pairs_and_slots(draw):
    """(d, pairs, exponents at the d-th roots): pairs hold loose roots
    and whole orbits, with equal or unequal values, some at d-th roots;
    the exponents are zero, loose, or the same on a whole orbit."""
    d = draw(DEGREES)
    chosen: dict[UnitRoot, int] = {}
    for den in draw(st.lists(st.integers(1, 30), max_size=4)):
        even = draw(st.integers(1, 4))
        for num in range(den):
            root = UnitRoot(num, den)
            if root.den == den and draw(st.integers(0, 3)):
                chosen[root] = even if draw(st.booleans()) else \
                    draw(st.integers(1, 4))
    for root in draw(st.lists(ROOTS, max_size=5)):
        chosen[root] = draw(st.integers(1, 4))
    pairs = sorted(chosen.items(), key=lambda item: Fraction(item[0].num,
                                                             item[0].den))
    at = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
    for q in draw(st.lists(st.sampled_from(
            [q for q in range(1, d + 1) if d % q == 0]), max_size=2)):
        value = draw(st.integers(1, 3))
        at = [value if math.gcd(s, d) * q == d else e
              for s, e in enumerate(at)]
    return d, pairs, at


def _forms(poly) -> tuple[str, dict[str, int]]:
    return str(poly), poly.to_json()


@given(case=_pairs_and_slots())
def test_closed_charpoly_is_the_product(case):
    d, pairs, at = case
    assert _forms(CharPoly(*residues(pairs), d - 1, at)) == \
        forms(closed(d, pairs, at))


def test_empty_closed_charpoly_is_one():
    for d in (2, 3, 12):
        assert _forms(CharPoly(1, [], d - 1, [0] * d)) == ("1", {})


@st.composite
def _structures(draw) -> JordanStructure:
    """Jordan structures with blocks at 1 and -1 and at whole Galois
    orbits and parts of them, one table on an orbit or one per root."""
    blocks = {}
    for den in draw(st.lists(st.integers(1, 12), max_size=5)):
        whole, shared = draw(st.booleans()), draw(st.one_of(st.none(), TABLES))
        for num in range(den):
            if math.gcd(num, den) == 1 and (whole or draw(st.booleans())):
                blocks[UnitRoot(num, den)] = shared or draw(TABLES)
    return JordanStructure(blocks)


@given(j=_structures())
@example(j=JordanStructure())
@example(j=JordanStructure({ONE: {2: 1}, MINUS_ONE: {1: 3},
                            UnitRoot(1, 3): {1: 2}, UnitRoot(2, 3): {2: 1},
                            UnitRoot(1, 6): {1: 1}, UnitRoot(3, 8): {4: 1}}))
def test_char_poly_is_the_reference_product(j):
    # the CharPoly with m = 1, its roots 1 and -1 in the slots
    assert _forms(j.char_poly()) == forms(of_jordan(j))
    if not j:
        assert _forms(j.char_poly()) == ("1", {})


GERMS = st.builds(lambda raw: ExplicitJordan(JordanStructure(raw)),
                  st.dictionaries(ROOTS, st.dictionaries(
                      st.integers(1, 2), st.integers(1, 3),
                      min_size=1, max_size=2), min_size=1, max_size=5))


@given(germs=st.lists(st.tuples(GERMS, st.integers(1, 2)), max_size=2),
       d=DEGREES)
def test_both_routes_give_the_products(germs, d):
    # the assembled operator's: conj(T) with the slots of the first
    # vector; the formula's: zeta times the lifts of T, at every root
    try:
        spec = ProblemSpec(2, d, tuple(germs), EnumerateBeta())
        report = assemble(spec, enumerate_cap=1)
    except InstanceError:
        return
    if report.entries:
        assert _forms(report.charpoly) == \
            forms(of_jordan(report.entries[0].jordan))
    zeta, (tables, _) = zeta_of_top_form(spec), local_sum(spec)
    t = as_structure(*tables)
    reference = times(_zeta_product(2, d, spec.total_mu), product(
        (alpha, t.multiplicity(y))
        for y in t.spectrum() for alpha in mth_roots(y, d - 1)))
    if all(e > 0 for e in reference.values()):
        formula = charpoly_local_formula(zeta, tables, d)
        assert _forms(formula) == forms(reference)
        if not report.entries:
            assert _forms(report.charpoly) == forms(reference)


def _zeta_product(n: int, d: int, total_mu: int) -> Product:
    """(x - 1)^a * (x^d - 1)^b over the roots, with a = (-1)^(n+1) and
    b = ((d-1)^(n+1) + (-1)^n)/d - total_mu."""
    b = ((d - 1) ** (n + 1) + (-1) ** n) // d - total_mu
    return product([(UnitRoot(0, 1), -(-1) ** n)]
                   + [(UnitRoot(s, d), b) for s in range(d)])


def _zeta(n: int, d: int, nodes: int) -> CharPoly:
    return zeta_of_top_form(ProblemSpec(
        n, d, ((OrdinaryNode(), nodes),) if nodes else (), EnumerateBeta()))


@pytest.mark.parametrize("n, d, nodes, text", [
    # b = 3 > 0
    (2, 3, 0, "(x - 1)^2 * Phi_3^3"),
    # b = 0: only (x - 1)^a is left
    (2, 3, 3, "(x - 1)^-1"),
    # a + b = 0: (x - 1) drops out
    (2, 3, 2, "Phi_3"),
    (3, 4, 21, "(x + 1)^-1 * Phi_4^-1"),
    # b < 0: the total Milnor number is above the top exponent
    (2, 3, 5, "(x - 1)^-3 * Phi_3^-2"),
    (3, 6, 300, "(x - 1)^-195 * (x + 1)^-196 * Phi_3^-196 * Phi_6^-196"),
])
def test_zeta_display_is_signed(n, d, nodes, text):
    zeta = _zeta(n, d, nodes)
    assert _forms(zeta) == forms(_zeta_product(n, d, nodes))
    assert str(zeta) == text


@given(n=st.integers(2, 4), d=DEGREES, data=st.data())
def test_zeta_closed_form_is_the_validated_product(n, d, data):
    nodes = data.draw(st.integers(0, (d - 1) ** (n + 1)))
    assert _forms(_zeta(n, d, nodes)) == forms(_zeta_product(n, d, nodes))


def _failed_detail(zeta: Product, chi) -> str:
    """The fail detail of zeta_two_forms, from reference products."""
    d = len(chi)
    over_chi = product((UnitRoot(s, d), c) for s, c in enumerate(chi))
    return (f"the (x^d - 1) form gives {display(zeta)}, "
            f"the product over chi gives {display(over_chi)}")


def test_failed_zeta_check_shows_mixed_signs():
    zeta = _zeta(2, 6, 0)
    chi = [2, 3, -1, 0, 1, -2]
    result = check_zeta_two_forms(zeta, chi)
    assert result.status == "fail"
    assert result.detail == _failed_detail(_zeta_product(2, 6, 0), chi)
    assert result.detail == (
        "the (x^d - 1) form gives (x - 1)^20 * (x + 1)^21 * Phi_3^21 * "
        "Phi_6^21, the product over chi gives (x - 1)^2 * "
        "(x - zeta(1/3))^-1 * (x - zeta(2/3)) * (x - zeta(1/6))^3 * "
        "(x - zeta(5/6))^-2")


@given(n=st.integers(2, 3), d=DEGREES, data=st.data())
def test_zeta_check_details_are_those_of_the_products(n, d, data):
    nodes = data.draw(st.integers(0, (d - 1) ** (n + 1)))
    chi = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    zeta, reference = _zeta(n, d, nodes), _zeta_product(n, d, nodes)
    result = check_zeta_two_forms(zeta, chi)
    if result.status == "pass":
        assert zeta.at == chi
        assert result.detail == ("both closed forms of the zeta function "
                                 f"agree: {display(reference)}")
    else:
        assert result.detail == _failed_detail(reference, chi)
