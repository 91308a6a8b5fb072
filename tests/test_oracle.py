"""Tests for the exact cyclotomic matrix verifier."""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from moninf import oracle
from moninf.cli import main
from moninf.cyclo import ONE, MINUS_ONE, UnitRoot, mth_roots
from moninf.jordan import JordanStructure
from moninf.modp import PRIME, eliminate
from _field import field as _field, sparse_matmul, to_power_basis
from _product import conjugate
from moninf.oracle import (
    CycloMatrix,
    SpectrumNotCovered,
    build_cyclic_matrix,
    build_jordan_matrix,
    _prime_for_level,
    cyclotomic_polynomial,
    jordan_type,
    verify_cyclic_agreement,
)


def _from_blocks(pairs):
    """One Jordan block per (eigenvalue, size) pair."""
    return JordanStructure((root, {size: 1}) for root, size in pairs)


def _poly_mul_int(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_cyclotomic_polynomial_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # first index with a coefficient outside {-1, 0, 1}
    assert -2 in cyclotomic_polynomial(105)


def test_cyclotomic_polynomials_multiply_to_power_minus_one():
    for n in (1, 2, 6, 12, 30, 36):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul_int(prod, list(cyclotomic_polynomial(d)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected


def _add(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(x, y))


def _dense(m: CycloMatrix) -> list[list[tuple[int, ...]]]:
    zero = (0,) * _field(m.level).degree
    return [[row.get(j, zero) for j in range(m.ncols)] for row in m.rows]


def _sparse(level: int, grid: list[list[tuple[int, ...]]]) -> CycloMatrix:
    return CycloMatrix(level, [dict(enumerate(row)) for row in grid],
                       len(grid[0]) if grid else 0)


def test_element_roots_multiply_like_roots():
    field = _field(12)
    a = field.embed_root(UnitRoot(1, 12))
    assert field.vmul(a, a) == field.embed_root(UnitRoot(1, 6))
    c = field.embed_root(UnitRoot(7, 12))
    assert field.vmul(a, c) == field.embed_root(UnitRoot(2, 3))
    assert field.monomial(0) == field.embed_root(ONE)
    # full sum of p-th roots vanishes
    five = _field(5)
    total = (0,) * five.degree
    for k in range(5):
        total = _add(total, five.embed_root(UnitRoot(k, 5)))
    assert not any(total)


def test_element_level_checks():
    with pytest.raises(ValueError):
        _field(6).embed_root(UnitRoot(1, 5))
    with pytest.raises(ValueError):
        CycloMatrix(6, [{0: (1,)}], 1)  # level 6 needs 2 coefficients
    with pytest.raises(ValueError):
        CycloMatrix(6, [{1: (1, 0)}], 1)  # column out of range
    with pytest.raises(ValueError):
        CycloMatrix(6, [{-1: (1, 0)}], 1)
    m = CycloMatrix(6, [{0: (0, 0), 1: [0, 1]}], 2)
    assert m.rows == [{1: (0, 1)}]  # zero vectors dropped, tuples stored
    assert (m.nrows, m.ncols) == (1, 2)


def test_build_jordan_matrix_layout():
    j = JordanStructure({ONE: {2: 1}, MINUS_ONE: {1: 1}})
    m = build_jordan_matrix(j, 2)
    field = _field(2)
    one = field.monomial(0)
    minus = field.embed_root(MINUS_ONE)
    assert m.nrows == m.ncols == 3
    # no coupling across blocks
    assert m.rows == [{0: one, 1: one}, {1: one}, {2: minus}]
    with pytest.raises(ValueError):
        build_jordan_matrix(j, 3)  # -1 does not live at level 3


def test_build_cyclic_matrix_layout():
    m = CycloMatrix(1, [{0: (3,)}], 1)
    c = build_cyclic_matrix(m, 2)
    assert c.nrows == c.ncols == 2
    assert c.rows == [{1: (3,)}, {0: (1,)}]
    assert build_cyclic_matrix(m, 1) is m
    j = JordanStructure({UnitRoot(1, 3): {2: 1}})
    base = build_jordan_matrix(j, 3)
    w, one = _field(3).embed_root(UnitRoot(1, 3)), _field(3).monomial(0)
    assert build_cyclic_matrix(base, 3).rows == [
        {4: w, 5: one}, {5: w}, {0: one}, {1: one}, {2: one}, {3: one}]
    with pytest.raises(ValueError):
        build_cyclic_matrix(CycloMatrix(1, [{0: (1,)}], 2), 2)


def _rank(m: CycloMatrix) -> int:
    return oracle._rank(m.rows, m.ncols, m.level, most=min(m.nrows, m.ncols))


def test_rank_basic_cases():
    field = _field(4)
    one = field.monomial(0)
    zero = (0,) * field.degree
    assert _rank(_sparse(4, [[one, zero], [zero, one]])) == 2
    assert _rank(_sparse(4, [[zero, zero], [zero, zero]])) == 0
    assert _rank(CycloMatrix(4, [], 0)) == 0
    # rank drops only through genuine cyclotomic cancellation
    z = field.embed_root(UnitRoot(1, 4))
    zbar = field.embed_root(UnitRoot(3, 4))
    assert _rank(_sparse(4, [[one, z], [zbar, one]])) == 1
    assert _rank(_sparse(4, [[one, z], [z, one]])) == 2
    assert _rank(CycloMatrix(1, [{0: (2,), 1: (4,)}, {0: (3,), 1: (6,)}], 2)) == 1


def test_rank_invariant_under_elementary_operations():
    rng = random.Random(5150)
    level = 6
    field = _field(level)
    one = field.monomial(0)
    zero = (0,) * field.degree
    roots = [field.embed_root(UnitRoot(k, 6)) for k in range(6)]
    for _ in range(20):
        n = rng.randrange(2, 6)
        r = rng.randrange(0, n + 1)
        grid = [[one if (i == j and i < r) else zero for j in range(n)]
                for i in range(n)]
        for _ in range(12):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = roots[rng.randrange(6)]
            if rng.random() < 0.5:
                grid[i] = [_add(x, field.vmul(c, y))
                           for x, y in zip(grid[i], grid[j])]
            else:
                for row in grid:
                    row[i] = _add(row[i], field.vmul(c, row[j]))
        assert _rank(_sparse(level, grid)) == r


def _random_structure(rng: random.Random, max_dim: int = 5) -> JordanStructure:
    pairs = []
    dim = 0
    while dim < max_dim:
        den = rng.randrange(1, 7)
        size = rng.randrange(1, max_dim - dim + 1)
        pairs.append((UnitRoot(rng.randrange(den), den), size))
        dim += size
        if rng.random() < 0.3:
            break
    return _from_blocks(pairs)


def test_jordan_type_recovers_block_matrices():
    rng = random.Random(606)
    level_7 = JordanStructure({UnitRoot(1, 7): {1: 1}, UnitRoot(6, 7): {1: 1}})
    for j in [*(_random_structure(rng) for _ in range(25)), level_7]:
        m = build_jordan_matrix(j, oracle.spectrum_level(j))
        assert jordan_type(m, j.spectrum()) == j


def _conjugated(j: JordanStructure, ops: list[tuple[int, int, int]],
                bumps: list[tuple[int, int]] = (),
                prime: int = _prime_for_level(6)[0]) -> CycloMatrix:
    """A level-6 realization of j conjugated by elementary matrices: for
    each (i, k, e), row i += zeta_6^e * row k, then the inverse column op.
    Before that, `prime` is added to each entry (i, k) of `bumps` with
    i < k: the matrix stays triangular, with the same characteristic
    polynomial, and equal to the realization mod `prime`."""
    field = _field(6)
    grid = _dense(build_jordan_matrix(j, 6))
    n = len(grid)
    for i, k in bumps:
        i, k = sorted((i % n, k % n))
        if i < k:
            grid[i][k] = _add(grid[i][k], (prime, 0))
    for i, k, e in ops:
        i, k = i % n, k % n
        if i == k:
            continue
        c = field.embed_root(UnitRoot(e, 6))
        minus_c = tuple(-x for x in c)
        grid[i] = [_add(x, field.vmul(c, y)) for x, y in zip(grid[i], grid[k])]
        for row in grid:
            row[k] = _add(row[k], field.vmul(minus_c, row[i]))
    return _sparse(6, grid)


def test_jordan_type_is_conjugation_invariant():
    rng = random.Random(77)
    for _ in range(10):
        j = _random_structure(rng, max_dim=4)
        if any(6 % root.den for root in j.spectrum()):
            continue
        ops = [(rng.randrange(8), rng.randrange(8), rng.randrange(6))
               for _ in range(10)]
        assert jordan_type(_conjugated(j, ops), j.spectrum()) == j


def test_jordan_type_missing_candidate_raises():
    j = JordanStructure({ONE: {2: 1}, MINUS_ONE: {1: 1}})
    m = build_jordan_matrix(j, 2)
    with pytest.raises(SpectrumNotCovered):
        jordan_type(m, [ONE])
    # extra non-eigenvalue candidates are harmless
    assert jordan_type(m, [ONE, MINUS_ONE, UnitRoot(1, 3)]) == j


def test_verify_cyclic_agreement_small_cases():
    j = JordanStructure({ONE: {2: 1}})
    expected, actual = verify_cyclic_agreement(j, 2)
    assert expected == actual
    assert actual == JordanStructure({ONE: {2: 1}, MINUS_ONE: {2: 1}})

    j2 = JordanStructure({UnitRoot(1, 3): {1: 1, 2: 1}})
    expected2, actual2 = verify_cyclic_agreement(j2, 3)
    assert expected2 == actual2
    assert actual2.total_dim == 9

    empty_exp, empty_act = verify_cyclic_agreement(JordanStructure(), 4)
    assert empty_exp == empty_act == JordanStructure()


def test_verify_cyclic_agreement_random_smoke():
    rng = random.Random(909)
    for _ in range(10):
        j = _random_structure(rng, max_dim=4)
        m = rng.randrange(1, 4)
        expected, actual = verify_cyclic_agreement(j, m)
        assert expected == actual


def test_matrix_ranks_confirm_the_off_torsion_layer_of_compute(tmp_path,
                                                               capsys):
    # n = 2, d = 4, one germ: a size-2 block at the 4th root of unity 1/4,
    # a simple 3/4, and 1/8 off the 4th roots; the spectrum is not closed
    # under conjugation, so a spread of T instead of T^-1 would show
    d = 4
    germ = [{"eigenvalue": "1/8", "blocks": [1]},
            {"eigenvalue": "1/4", "blocks": [2]},
            {"eigenvalue": "3/4", "blocks": [1]}]
    instance = tmp_path / "germ.json"
    instance.write_text(json.dumps({
        "n": 2, "d": d, "singularities": [{"type": "explicit", "jordan": germ}],
        "beta": {"mode": "given", "values": [0] * d}}))
    assert main(["compute", str(instance), "--json"]) == 0
    reported = JordanStructure.from_json(
        json.loads(capsys.readouterr().out)["jordan"])
    t = JordanStructure.from_json(germ)
    inverse = JordanStructure((conjugate(xi), table) for xi, table in t.items())
    level = math.lcm(*(xi.den for xi in inverse.spectrum()))
    matrix = build_cyclic_matrix(build_jordan_matrix(inverse, level), d - 1)
    assert matrix.nrows == 12
    # the candidates come from cyclo, not from the rule under test
    ranked = jordan_type(matrix, [alpha for xi in inverse.spectrum()
                                  for alpha in mth_roots(xi, d - 1)])

    def off_torsion(structure: JordanStructure) -> dict:
        return {alpha: dict(table) for alpha, table in structure.items()
                if d % alpha.den}

    assert off_torsion(ranked) == off_torsion(reported)
    assert off_torsion(reported)[UnitRoot(7, 12)] == {2: 1}
    assert len(off_torsion(reported)) == 7


def _spy(monkeypatch, name: str) -> list:
    """Record (args, kwargs, result) of every call to oracle.<name>."""
    calls, original = [], getattr(oracle, name)

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result
    monkeypatch.setattr(oracle, name, spy)
    return calls


def test_prime_for_level_gives_a_primitive_root_of_unity():
    for level in (1, 2, 12, 60, 360):
        below = PRIME + 1
        for _ in range(3):
            p, omega = _prime_for_level(level, below)
            assert (p - 1) % level == 0 and oracle._is_prime(p) and p < below
            assert not any(oracle._is_prime(q)
                           for q in range(p + level, below, level))
            assert [e for e in range(1, level + 1)
                    if pow(omega, e, p) == 1] == [level]
            below = p
    assert _prime_for_level(1, below=3) == (2, 1)
    for level, below in ((1, 2), (12, 13), (360, 361)):
        with pytest.raises(ValueError, match=f"below {below}"):
            _prime_for_level(level, below)


def test_two_blocks_mod_p_are_one_block_over_q(monkeypatch):
    # K - 1 = [[0, p], [0, 0]] is zero mod p, but not over Q
    p = _prime_for_level(1)[0]
    exact = _spy(monkeypatch, "_exact_nullities")
    m = CycloMatrix(1, [{0: (1,), 1: (p,)}, {1: (1,)}], 2)
    assert jordan_type(m, [ONE]) == JordanStructure({ONE: {2: 1}})
    # the certificate held (a(1) = 2); n^p_1 = 2 sent it to the exact chain,
    # which stopped as soon as the nullity reached 2
    assert [(args[2:], kwargs, result) for args, kwargs, result in exact] \
        == [((ONE, 2), {}, [0, 1, 2])]


@pytest.mark.parametrize("entry", [
    _prime_for_level(1)[0] + 1,  # 1 mod p, but det(x - K) = x - 1 - p
    0,
])
def test_uncovered_spectrum_needs_no_rank(monkeypatch, entry):
    eliminations = _spy(monkeypatch, "eliminate")
    exact = _spy(monkeypatch, "_exact_nullities")
    with pytest.raises(SpectrumNotCovered, match="cover 0 of 1 dimensions"):
        jordan_type(CycloMatrix(1, [{0: (entry,)}], 1), [ONE])
    assert eliminations == exact == []


@pytest.mark.parametrize("coupling", [
    {},
    # conjugated to [[2, 1], [p - 1, p]]: coupled both ways, one block
    {(0, 0): 1, (0, 1): 1, (1, 0): _prime_for_level(1)[0] - 1, (1, 1): -1},
])
def test_a_multiplicity_mod_p_above_the_exact_one_fails_the_certificate(
        monkeypatch, coupling):
    # K = [1] + [1 + p], alone or coupled into one strongly connected
    # block: mod p both eigenvalues are 1, so the power sums reject the
    # count mod p and exact division finds a(1) = 1
    p = _prime_for_level(1)[0]
    grid = [[1, 0], [0, 1 + p]]
    for (i, j), c in coupling.items():
        grid[i][j] += c
    m = CycloMatrix(1, [{j: (c,) for j, c in enumerate(row)} for row in grid], 2)
    assert len(oracle._strong_components(m.rows)) == (1 if coupling else 2)
    eliminations = _spy(monkeypatch, "eliminate")
    exact = _spy(monkeypatch, "_exact_multiplicities")
    with pytest.raises(SpectrumNotCovered, match="cover 1 of 2 dimensions"):
        jordan_type(m, [ONE])
    assert eliminations == []
    assert [result for _, _, result in exact] == (
        [{ONE: 1}] if coupling else [{ONE: 0}])


def test_random_oracle_certifies_every_component(monkeypatch, capsys):
    # neither the exact division nor an exact chain, the one place where
    # K goes to the candidates' level, runs: the certificate held on every
    # component
    exact = _spy(monkeypatch, "_exact_multiplicities")
    lifts = _spy(monkeypatch, "_exact_nullities")
    assert main(["oracle", "--seed", "7", "--trials", "20", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["counterexamples"] == []
    assert exact == lifts == []


def test_shuffled_block_diagonal_matrix_keeps_its_type():
    j = JordanStructure({ONE: {3: 1, 1: 1}, MINUS_ONE: {2: 2},
                         UnitRoot(1, 3): {1: 1}})
    m = build_jordan_matrix(j, 6)
    order = list(range(m.nrows))
    random.Random(31).shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    shuffled = CycloMatrix(6, [{where[c]: vec for c, vec in m.rows[old].items()}
                               for old in order], m.ncols)
    assert shuffled.rows != m.rows
    assert jordan_type(shuffled, j.spectrum()) == jordan_type(m, j.spectrum()) == j


def test_a_candidate_of_multiplicity_0_costs_no_elimination(monkeypatch):
    j = JordanStructure({ONE: {2: 2, 3: 1}})
    m = build_jordan_matrix(j, 1)
    eliminations = _spy(monkeypatch, "eliminate")
    assert jordan_type(m, [ONE, MINUS_ONE, UnitRoot(1, 3)]) == j
    # one per component, each a single Jordan block at 1
    assert len(eliminations) == len(oracle._components(m.rows)) == 3


def test_simple_candidates_cost_no_elimination(monkeypatch):
    # the order-6 cyclic operator of (-1) is one component whose
    # eigenvalues, the sixth roots of -1, are distinct: among the twelfth
    # roots of unity every a(alpha) is 0 or 1
    eliminations = _spy(monkeypatch, "eliminate")
    j = JordanStructure({MINUS_ONE: {1: 1}})
    expected, actual = verify_cyclic_agreement(j, 6)
    assert actual == expected
    assert [dict(table) for _, table in actual.items()] == [{1: 1}] * 6
    m = build_cyclic_matrix(build_jordan_matrix(j, 2), 6)
    assert len(oracle._components(m.rows)) == 1
    assert jordan_type(m, mth_roots(ONE, 12)) == actual
    assert eliminations == []


def _poly_mul(a: list[tuple[int, ...]], b: list[tuple[int, ...]],
              field) -> list[tuple[int, ...]]:
    out = [(0,) * field.degree] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] = _add(out[i + k], field.vmul(x, y))
    return out


@settings(max_examples=40, deadline=None)
@given(blocks=st.lists(st.tuples(st.sampled_from(mth_roots(ONE, 6)),
                                 st.integers(1, 3)), min_size=1, max_size=4),
       ops=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                              st.integers(0, 5)), max_size=10),
       bumps=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                      max_size=2),
       top=st.sampled_from([6, 12, 36]))
def test_char_poly_is_the_product_over_the_jordan_blocks(blocks, ops, bumps,
                                                         top):
    j = _from_blocks(blocks)
    field = _field(top)
    expected = [field.monomial(0)]
    for root, size in blocks:
        minus_root = tuple(-c for c in field.embed_root(root))
        for _ in range(size):
            expected = _poly_mul(expected, [field.monomial(0), minus_root], field)
    for m in (build_jordan_matrix(j, 6), _conjugated(j, ops, bumps)):
        coeffs = oracle._char_poly(oracle._traces(m.rows, 6), 6)
        assert [_field(6).lift(c, field) for c in coeffs] == expected


def _multiplicity_bound(m: CycloMatrix, alpha: UnitRoot, avoid: int) -> int:
    """The multiplicity of alpha as an eigenvalue of m modulo a prime q
    other than `avoid`: at least the exact one, since a minor nonzero
    mod q is nonzero.  Entries bumped by `avoid` stay visible mod q, so
    the bound is exact unless q divides a minor, and an exact chain that
    reaches it needs no rank of one more power to see it stop (on dense
    conjugates that rank has taken minutes)."""
    level = math.lcm(m.level, alpha.den)
    k = next(k for k in range(1, 12) if _prime_for_level(k * level)[0] != avoid)
    q, omega = _prime_for_level(k * level)
    zeta = pow(omega, k * level // m.level, q)
    shift = [[0] * m.nrows for _ in m.rows]
    for i, row in enumerate(m.rows):
        for j, vec in row.items():
            shift[i][j] = sum(c * pow(zeta, e, q) for e, c in enumerate(vec)) % q
        shift[i][i] -= pow(omega, k * level // alpha.den * alpha.num, q)
    power, nullities = shift, [0]
    while len(nullities) < 2 or nullities[-1] != nullities[-2]:
        nullities.append(m.nrows - len(eliminate(
            [[x % q for x in row] for row in power], q)[0]))
        power = [[sum(map(int.__mul__, row, col)) % q for col in zip(*shift)]
                 for row in power]
    return nullities[-1]


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


def _int_rank(rows: list[dict[int, tuple[int, ...]]], ncols: int,
              field) -> int:
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
                    prod = tuple(map(int.__sub__, vmul(piv_val, val),
                                     vmul(coeff, piv_entry)))
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


def _fraction_free_nullities(rows: list[dict[int, tuple[int, ...]]],
                             level: int, alpha: UnitRoot,
                             stop: int) -> list[int]:
    """Exact nullities of (K - alpha)^k for k = 0, 1, ... until they stop
    growing or reach `stop`, by fraction-free elimination over
    Z[zeta_level]: the reference for the oracle's ranks mod prime ideals.
    Its cost has no bound; on dense conjugates a rank has taken minutes."""
    dim = len(rows)
    field = _field(math.lcm(level, alpha.den))
    if field.level != level:
        rows = [{j: _field(level).lift(vec, field) for j, vec in row.items()}
                for row in rows]
    alpha_vec, zero = field.embed_root(alpha), (0,) * field.degree
    # the shift itself must keep exact entries: it is the right-hand
    # factor of every power, so row scaling here would corrupt B^k
    shifted: list[dict[int, tuple[int, ...]]] = []
    for i, row in enumerate(rows):
        new_row = dict(row)
        new_row[i] = tuple(x - y for x, y in zip(row.get(i, zero), alpha_vec))
        if not any(new_row[i]):
            del new_row[i]
        shifted.append(new_row)
    nullities = [0, dim - _int_rank(shifted, dim, field)]
    power = shifted
    while nullities[-1] not in (nullities[-2], stop):
        power = [_strip_content(row)
                 for row in sparse_matmul(power, shifted, field.level)]
        nullities.append(dim - _int_rank(power, dim, field))
    return nullities


def _outcome(m: CycloMatrix, candidates: list[UnitRoot]) -> object:
    try:
        return jordan_type(m, candidates)
    except SpectrumNotCovered as exc:
        return str(exc)


def _exact_outcome(m: CycloMatrix, candidates: list[UnitRoot],
                   avoid: int) -> object:
    """jordan_type's answer from exact nullities of every candidate.  Each
    chain stops at the bound mod q; where it stops below, it stagnated."""
    blocks, covered = [], 0
    for alpha in sorted(set(candidates)):
        nullities = _fraction_free_nullities(
            m.rows, m.level, alpha, _multiplicity_bound(m, alpha, avoid))
        covered += nullities[-1]
        null = nullities + nullities[-1:]
        blocks.append((alpha, {size: 2 * null[size] - null[size - 1] - null[size + 1]
                               for size in range(1, len(nullities))}))
    if covered != m.nrows:
        return f"candidate eigenvalues cover {covered} of {m.nrows} dimensions"
    return JordanStructure(blocks)


@settings(max_examples=60, deadline=None)
@given(blocks=st.lists(st.tuples(st.sampled_from(mth_roots(ONE, 6)),
                                 st.integers(1, 3)), min_size=1, max_size=4),
       ops=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                              st.integers(0, 5)), max_size=10),
       order=st.integers(1, 3),
       drop=st.booleans(),
       extra=st.lists(st.sampled_from(mth_roots(ONE, 12)), max_size=2),
       bumps=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                      max_size=2))
def test_charpoly_route_matches_the_exact_route(blocks, ops, order, drop,
                                                extra, bumps):
    j = _from_blocks(blocks)
    candidates = sorted({alpha for xi in j.spectrum()
                         for alpha in mth_roots(xi, order)})
    candidates = candidates[drop:] + extra
    # adding the prime p of the level to an entry is invisible mod p
    p = _prime_for_level(math.lcm(6, *(root.den for root in candidates)))[0]
    grid = _dense(_conjugated(j, ops))
    for i, k in bumps:
        row = grid[i % len(grid)]
        row[k % len(grid)] = _add(row[k % len(grid)], (p, 0))
    m = build_cyclic_matrix(_sparse(6, grid), order)
    assert _outcome(m, candidates) == _exact_outcome(m, candidates, p)


def test_random_oracle_needs_no_exact_rank(monkeypatch, capsys):
    ranks = _spy(monkeypatch, "_rank")
    for argv in (["oracle", "--seed", "23", "--trials", "20", "--json"],
                 ["oracle", "--max-dim", "3", "--max-m", "3", "--json"]):
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["counterexamples"] == []
    assert ranks == []


def test_a_dense_conjugate_whose_bumps_merge_two_blocks(monkeypatch):
    # the prime p of level 18 added above the diagonal is invisible mod p,
    # where each cube root of 1/6 keeps blocks 3 and 2 and so a nullity
    # of 2; over Q the bump at (2, 3) joins them into one block of 5, so
    # each chain runs to k = 5 on a dense 30 x 30 matrix.
    # The fraction-free elimination that ranked these chains took minutes
    j = JordanStructure({UnitRoot(1, 6): {3: 1, 2: 1}, UnitRoot(1, 3): {2: 1},
                         UnitRoot(1, 2): {3: 1}})
    rng = random.Random(13)
    bumps = [tuple(sorted(rng.sample(range(10), 2))) for _ in range(2)]
    ops = [(*rng.sample(range(10), 2), rng.randrange(6)) for _ in range(12)]
    m = build_cyclic_matrix(
        _conjugated(j, ops, bumps, _prime_for_level(18)[0]), 3)
    eliminations = _spy(monkeypatch, "eliminate")
    candidates = [alpha for xi in j.spectrum() for alpha in mth_roots(xi, 3)]
    assert jordan_type(m, candidates) == JordanStructure(
        {UnitRoot(k, 18): {5: 1} for k in (1, 7, 13)}
        | {UnitRoot(k, 9): {2: 1} for k in (1, 4, 7)}
        | {UnitRoot(k, 6): {3: 1} for k in (1, 3, 5)})
    assert len(eliminations) < 200


@pytest.mark.parametrize("bits, primes", [(0, 1), (40, 2), (70, 3)])
def test_a_rank_below_its_bound_tests_every_ideal_of_enough_primes(
        monkeypatch, bits, primes):
    # K - 1 = N with N e_1 = e_0 and N e_3 = e_2 + c*e_0, c = 2^bits*zeta_6:
    # two blocks of size 2 at 1 in one component.  The chain bounds the
    # ranks of N and N^2 by 3 and 1, but they are 2 and 0, so _rank tests
    # all phi(6) = 2 ideals above each prime until the product of the
    # primes exceeds Hadamard's bound: about 2^bits for N, 1 for N^2
    field = _field(6)
    one, c = field.monomial(0), (0, 2 ** bits)
    m = CycloMatrix(6, [{0: one, 1: one, 3: c}, {1: one},
                        {2: one, 3: one}, {3: one}], 4)
    assert len(oracle._components(m.rows)) == 1
    eliminations = _spy(monkeypatch, "eliminate")
    ranks = _spy(monkeypatch, "_rank")
    assert jordan_type(m, [ONE]) == JordanStructure({ONE: {2: 2}})
    assert [(args[3], result) for args, _, result in ranks] == [(3, 2), (1, 0)]
    # one elimination is the nullity mod p that sent 1 to the chain
    assert len(eliminations) == 1 + 2 * primes + 2 * 1


def test_an_uncovered_component_runs_no_chain(monkeypatch):
    # the first component, two blocks of size 2 at 1, would need a chain;
    # the second, [-1], is not covered by the candidate 1, and the count
    # of the multiplicities alone raises before any rank
    one = (1,)
    m = CycloMatrix(1, [{0: one, 1: one, 3: (2,)}, {1: one},
                        {2: one, 3: one}, {3: one}, {4: (-1,)}], 5)
    eliminations = _spy(monkeypatch, "eliminate")
    with pytest.raises(SpectrumNotCovered, match="cover 4 of 5 dimensions"):
        jordan_type(m, [ONE])
    assert eliminations == []
    assert jordan_type(m, [ONE, MINUS_ONE]) == JordanStructure(
        {ONE: {2: 2}, MINUS_ONE: {1: 1}})
    # the nullity mod p, then one prime for each of N and N^2 = 0
    assert len(eliminations) == 3


@settings(max_examples=40, deadline=None)
@given(data=st.data(), order=st.integers(1, 2), bumped=st.booleans())
@pytest.mark.parametrize("dim", [1, 2, 3, 6, 7])
def test_traces_from_two_powers_are_the_diagonals_of_all_powers(
        dim, data, order, bumped):
    # tr(K^(2a-1)) and tr(K^(2a)) come from K^(a-1) and K^a only; the
    # reference forms every power K^1 .. K^dim and sums its diagonal
    cuts = sorted(data.draw(st.sets(st.integers(1, dim - 1)) if dim > 1
                            else st.just(set()), label="cuts"))
    roots = data.draw(st.lists(st.sampled_from(mth_roots(ONE, 6)),
                               min_size=dim, max_size=dim), label="roots")
    j = _from_blocks((roots[a], b - a)
                     for a, b in zip([0, *cuts], [*cuts, dim]))
    ops = data.draw(st.lists(st.tuples(st.integers(0, dim - 1),
                                       st.integers(0, dim - 1),
                                       st.integers(0, 5)), max_size=8),
                    label="ops")
    bumps = data.draw(st.lists(st.tuples(st.integers(0, dim - 1),
                                         st.integers(0, dim - 1)),
                               min_size=bumped, max_size=2 * bumped),
                      label="bumps")
    base = _conjugated(j, ops, bumps)
    m = build_cyclic_matrix(base, order)
    field = _field(6)
    zero = (0,) * field.degree
    expected, power = [], m.rows
    for k in range(1, m.nrows + 1):
        if k > 1:
            power = sparse_matmul(power, m.rows, 6)
        expected.append(tuple(map(sum, zip(zero, *(
            row.get(i, zero) for i, row in enumerate(power))))))
    traces = oracle._traces(m.rows, 6)
    assert [to_power_basis(trace, 6) for trace in traces] == expected
    # det(x - C) = det(x^order - K) for the cyclic C of K: Newton's
    # identities over the zero traces p_j, order not dividing j, agree
    spread = [[0] * 6] * (m.nrows + 1)
    spread[::order] = oracle._char_poly(oracle._traces(base.rows, 6), 6)
    assert oracle._char_poly(traces, 6) == spread


def test_the_traces_take_half_the_powers_of_each_component(monkeypatch):
    # the order-3 operator of blocks of sizes 1, 2, 4 and 5: components of
    # 3, 6, 12 and 15 rows, each block triangular with its 3 x 3 diagonal
    # blocks strongly connected, one per row of the Jordan blocks.  Those
    # at one eigenvalue are equal, so three trace runs, each with K^2
    # only, cover all twelve, and no chain runs
    j = JordanStructure({ONE: {1: 1, 4: 1}, UnitRoot(1, 3): {2: 1},
                         MINUS_ONE: {5: 1}})
    m = build_cyclic_matrix(build_jordan_matrix(j, 6), 3)
    assert sorted(map(len, oracle._components(m.rows))) == [3, 6, 12, 15]
    assert list(map(len, oracle._strong_components(m.rows))) == [3] * 12
    products = _spy(monkeypatch, "_sparse_matmul")
    exact = _spy(monkeypatch, "_exact_nullities")
    traces, counts = oracle._traces, []

    def spy(rows, level):
        before = len(products)
        result = traces(rows, level)
        counts.append((len(rows), len(products) - before))
        return result
    monkeypatch.setattr(oracle, "_traces", spy)
    expected, actual = verify_cyclic_agreement(j, 3)
    assert actual == expected
    assert exact == []
    assert counts == [(3, 1)] * 3
    assert len(products) == 3


def _reachable(rows: list[dict[int, object]]) -> list[set[int]]:
    reach = []
    for start in range(len(rows)):
        seen, todo = {start}, [start]
        while todo:
            for j in rows[todo.pop()]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        reach.append(seen)
    return reach


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.sets(st.integers(0, n - 1), max_size=3), min_size=n, max_size=n)))
def test_strong_components_are_the_classes_of_mutual_reachability(edges):
    rows = [dict.fromkeys(row, (1,)) for row in edges]
    reach = _reachable(rows)
    found = oracle._strong_components(rows)
    assert all(index == sorted(index) for index in found)
    assert sorted(map(tuple, found)) == sorted({
        tuple(j for j in sorted(reach[i]) if i in reach[j])
        for i in range(len(rows))})


def _sheared(m: CycloMatrix, pairs: list[tuple[int, int]]) -> CycloMatrix:
    """S M S^-1 for S the product of the shears I + 2*E_(a,b), a != b,
    each with inverse I - 2*E_(a,b): row a += 2*row b, then column
    b -= 2*column a.  Where every entry of M is a root of unity, u + 2v
    is never 0 for roots of unity u and v, so no entry other than (a, b)
    vanishes: each pair adds the edges a -> j, j != b, for the entries
    (b, j), and i -> b for the entries (i, a), i != a."""
    zero = (0,) * (len(cyclotomic_polynomial(m.level)) - 1)
    rows = [dict(row) for row in m.rows]
    for a, b in pairs:
        for j, vec in rows[b].items():
            rows[a][j] = tuple(x + 2 * y for x, y in zip(rows[a].get(j, zero), vec))
        for row in rows:
            if a in row:
                row[b] = tuple(x - 2 * y for x, y in zip(row.get(b, zero), row[a]))
    return CycloMatrix(m.level, rows, m.ncols)


@settings(max_examples=40, deadline=None)
@given(blocks=st.lists(st.tuples(st.sampled_from(mth_roots(ONE, 6)),
                                 st.integers(1, 4)), min_size=1, max_size=3),
       order=st.integers(2, 3), drop=st.booleans())
def test_split_jordan_lifts_agree_with_their_sheared_conjugates(
        blocks, order, drop):
    # the lift of J_s(lambda) is s diagonal blocks in a chain, from the
    # one of row 0 of the block to the one of row s - 1; a shear from a
    # row of the last into row 0 closes the chain into one block
    j = _from_blocks(blocks)
    base = build_jordan_matrix(j, 6)
    m = build_cyclic_matrix(base, order)
    pairs, offset = [], 0
    for size in (size for root in j.spectrum() for size in j.sizes_at(root)):
        pairs.append((base.nrows + offset + size - 1, offset))
        offset += size
    sheared = _sheared(m, pairs)
    assert len(oracle._strong_components(m.rows)) == base.nrows
    assert len(oracle._strong_components(sheared.rows)) == len(pairs)
    expected = oracle.cyclic_power(j, order)
    candidates = expected.spectrum()[drop:]
    outcome = _outcome(m, candidates)
    assert outcome == _outcome(sheared, candidates)
    covered = m.nrows - drop * expected.multiplicity(expected.spectrum()[0])
    assert outcome == (f"candidate eigenvalues cover {covered} of {m.nrows} "
                       f"dimensions" if drop else expected)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_split_block_triangular_matrices_agree_with_their_sheared_conjugates(
        data):
    # diagonal blocks C, the order-k operators of [mu], some equal, each
    # strongly connected, the first of 2 rows or more; couplings above
    # them, one from each into the next, then a random permutation.  The
    # shear from the last row of the last block into the first row of
    # the first closes the chain of blocks into one
    roots = st.sampled_from(mth_roots(ONE, 6))
    first = data.draw(st.tuples(roots, st.integers(2, 3)), label="first")
    pool = [first, *data.draw(st.lists(st.tuples(roots, st.integers(1, 3)),
                                       max_size=2), label="pool")]
    diagonal = [first, *data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                           max_size=3), label="diagonal")]
    field = _field(6)
    starts = [0]
    for _, k in diagonal:
        starts.append(starts[-1] + k)
    n = starts[-1]
    rows: list[dict[int, tuple[int, ...]]] = [{} for _ in range(n)]
    for (mu, k), start in zip(diagonal, starts):
        rows[start][start + k - 1] = field.embed_root(mu)
        for r in range(start + 1, start + k):
            rows[r][r - 1] = field.monomial(0)
    block = [b for b, (_, k) in enumerate(diagonal) for _ in range(k)]
    couplings = [(start - 1, start, data.draw(st.integers(0, 5)))
                 for start in starts[1:-1]] + data.draw(st.lists(st.tuples(
                     st.integers(0, n - 1), st.integers(0, n - 1),
                     st.integers(0, 5)), max_size=4), label="couplings")
    for i, k, e in couplings:
        if block[i] < block[k]:
            rows[i][k] = field.monomial(e)
    where = data.draw(st.permutations(range(n)), label="permutation")
    shuffled = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        shuffled[where[i]] = {where[k]: vec for k, vec in row.items()}
    m = CycloMatrix(6, shuffled, n)
    sheared = _sheared(m, [(where[n - 1], where[0])])
    assert len(oracle._strong_components(m.rows)) == len(diagonal)
    assert len(oracle._strong_components(sheared.rows)) == 1
    candidates = sorted({alpha for mu, k in diagonal
                         for alpha in mth_roots(mu, k)})
    candidates = candidates[data.draw(st.booleans(), label="drop"):] + \
        data.draw(st.lists(st.sampled_from(mth_roots(ONE, 12)), max_size=1),
                  label="extra")
    assert _outcome(m, candidates) == _outcome(sheared, candidates)


def test_random_oracle_runs_no_nullity_mod_p(monkeypatch, capsys):
    # every component with two or more repeated eigenvalues is certified
    # nonderogatory by one Krylov rank, and no component has just one
    krylov = _spy(monkeypatch, "_krylov_rank")
    nullities = _spy(monkeypatch, "_nullity_mod_p")
    for argv in (["oracle", "--seed", "23", "--trials", "100", "--json"],
                 ["oracle", "--json"]):
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["counterexamples"] == []
    assert nullities == []
    assert krylov and all(result == len(args[0])
                          for args, _, result in krylov)


def test_a_derogatory_component_takes_the_nullity_of_each_eigenvalue(
        monkeypatch):
    # two coupled blocks of size 2 at 1 (rows 0-3) and the same at -1
    # (rows 4-7), as in the test above; the entry (0, 4) joins the two
    # into one component, and since it sits above the diagonal between
    # disjoint spectra it leaves the Jordan type alone.  K has minimal
    # polynomial (x - 1)^2 (x + 1)^2, so no Krylov space exceeds 4 < 8
    one, minus = (1,), (-1,)
    m = CycloMatrix(1, [{0: one, 1: one, 3: (2,), 4: one}, {1: one},
                        {2: one, 3: one}, {3: one},
                        {4: minus, 5: one, 7: (2,)}, {5: minus},
                        {6: minus, 7: one}, {7: minus}], 8)
    assert len(oracle._components(m.rows)) == 1
    krylov = _spy(monkeypatch, "_krylov_rank")
    nullities = _spy(monkeypatch, "_nullity_mod_p")
    expected = JordanStructure({ONE: {2: 2}, MINUS_ONE: {2: 2}})
    assert jordan_type(m, [ONE, MINUS_ONE]) == expected
    assert [result for _, _, result in krylov] == [4]
    assert [result for _, _, result in nullities] == [2, 2]
    # the same structure as its block-diagonal realization, which is
    # four components, each with one eigenvalue and so no Krylov rank
    assert jordan_type(build_jordan_matrix(expected, 2),
                       [ONE, MINUS_ONE]) == expected
    assert len(krylov) == 1
