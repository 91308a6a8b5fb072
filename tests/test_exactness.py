"""Exactness guard: no floating-point arithmetic anywhere in the package.

Every answer is exact, so the source may hold no float or complex
literal, no float() or complex() call, no true division (``/`` on two
ints gives a float), no cmath and none of the floating-point functions
of math.  Rational numbers enter only as point
coordinates, so defect.py is the one module that imports fractions: the
oracle works over Z[zeta_N] and the defect over Z.  The oracle names
cyclic_power only in the comparison it makes, and cyclic.py imports
nothing from the oracle, so the check stays independent.  The one
elimination mod p is in modp.py, which the defect and the oracle both
import; the oracle imports nothing from the defect.  Every function,
class and method of the package is named somewhere in it outside its own
definition, so no helper stays that only tests call, and no class
defines an arithmetic operator, which that name check cannot see.  Two
oracle reports,
an oracle report with injected counterexamples in text and in JSON,
three defect reports (one on coordinates beyond 2^64), eight from_nodes
compute reports (four of them at the benchmark's sizes), one large Brieskorn
compute report, one enumerate-mode report with a non-semisimple germ,
one enumerate-mode report whose torsion tables change with beta in text
and in JSON, the same text report with an injected failure of the
charpoly check, four reports whose characteristic polynomial mixes
cyclotomic and linear factors, and one with an injected failure of the
zeta check are pinned by digest, so a change of representation, of rank
engine, of JSON writer or of what the assembler shares between beta
vectors must leave their bytes alone.
"""

from __future__ import annotations

import ast
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import moninf.infinity
from moninf.cli import main
from moninf.cyclic import cyclic_power
from moninf.cyclo import ONE, UnitRoot
from moninf.jordan import JordanStructure
from moninf.modp import PRIME
from moninf.oracle import SpectrumNotCovered

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "moninf"
CONIC_POINTS = ROOT / "instances" / "conic_points.json"
FLOAT_MATH = {"sqrt", "exp", "log", "pi", "sin", "cos"}


def _modules() -> list[tuple[str, ast.Module]]:
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in paths]


def _float_uses(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("float", "complex"):
            found.append(f"{where}: {node.func.id}() call")
        elif isinstance(node, ast.Import):
            found += [f"{where}: import {alias.name}" for alias in node.names
                      if alias.name == "cmath"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "cmath":
                found.append(f"{where}: from cmath import")
            elif node.module == "math":
                found += [f"{where}: from math import {alias.name}"
                          for alias in node.names if alias.name in FLOAT_MATH]
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH \
                and isinstance(node.value, ast.Name) and node.value.id == "math":
            found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.Div):
            found.append(f"{where}: true division")
    return found


def test_no_floating_point_in_the_package():
    found = [f"{name} {use}" for name, tree in _modules()
             for use in _float_uses(tree)]
    assert found == []


def test_scanner_sees_each_kind_of_float():
    tree = ast.parse("import cmath\nfrom math import pi\n"
                     "x = 0.5 + 2j + float(1) + complex(1) + math.sqrt(2)\n"
                     "y = 1 / 2\ny /= 2\n")
    assert len(_float_uses(tree)) == 9


def test_only_defect_imports_fractions():
    importers = [name for name, tree in _modules() for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "fractions"
                 or isinstance(node, ast.Import)
                 and any(alias.name == "fractions" for alias in node.names)]
    assert importers == ["defect.py"]


def test_the_oracle_is_independent_of_cyclic():
    # the oracle checks cyclic_power, so only the comparison may use it
    modules = dict(_modules())
    users = [getattr(stmt, "name", f"line {stmt.lineno}")
             for stmt in modules["oracle.py"].body
             if not isinstance(stmt, (ast.Import, ast.ImportFrom))
             and any(isinstance(node, ast.Name) and node.id == "cyclic_power"
                     or isinstance(node, ast.Attribute)
                     and node.attr == "cyclic_power" for node in ast.walk(stmt))]
    assert users == ["verify_cyclic_agreement"]
    imports = [f"{node.module}.{alias.name}" if isinstance(node, ast.ImportFrom)
               else alias.name for node in ast.walk(modules["cyclic.py"])
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names]
    assert "jordan.JordanStructure" in imports
    assert not any("oracle" in name for name in imports)


def _imported_modules(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # "from . import x" names the module x itself
            names.update([node.module] if node.module
                         else [alias.name for alias in node.names])
    return {name.removeprefix("moninf.") for name in names}


def test_one_elimination_mod_p_shared_by_defect_and_oracle():
    # an elimination over F_p scales each pivot row by an inverse mod p
    modules = dict(_modules())
    inverting = [name for name, tree in modules.items()
                 if any(isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "pow" and len(node.args) == 3
                        and ast.unparse(node.args[1]) == "-1"
                        for node in ast.walk(tree))]
    assert inverting == ["modp.py"]
    assert "modp" in _imported_modules(modules["defect.py"])
    assert "modp" in _imported_modules(modules["oracle.py"])
    assert "defect" not in _imported_modules(modules["oracle.py"])


def _unnamed(modules: list[tuple[str, ast.Module]]) -> list[str]:
    """Top-level functions and classes, and methods that are not dunders,
    whose name no Name or Attribute node outside their own definition uses."""
    uses: dict[str, set[int]] = {}
    for _, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                key = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(key, set()).add(id(node))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for module, tree in modules:
        for top in tree.body:
            if not isinstance(top, defs):
                continue
            methods = [(f"{top.name}.{item.name}", item)
                       for item in (top.body if isinstance(top, ast.ClassDef)
                                    else [])
                       if isinstance(item, defs[:2])
                       and not (item.name.startswith("__")
                                and item.name.endswith("__"))]
            for label, node in [(top.name, top), *methods]:
                inside = {id(sub) for sub in ast.walk(node)}
                if not uses.get(node.name, set()) - inside:
                    found.append(f"{module}: {label}")
    return found


def test_every_definition_is_named_elsewhere_in_the_package():
    """ROADMAP aim 2 keeps no helper that only tests call.

    The check goes by name only, so it cannot tell two definitions of one
    name apart: RootExponentVector.degree, which only tests read, passed
    it through the attribute _Field.degree of the oracle until it was
    deleted.  It passed on the package before the factor-list display
    layer and the test-only helpers were removed, and it passes now.
    """
    assert _unnamed(_modules()) == []


def test_unnamed_finder_sees_a_helper_only_tests_call():
    tree = ast.parse("def used():\n    pass\n"
                     "def only_tests():\n    used()\n"
                     "class C:\n    def __eq__(self, other):\n        pass\n"
                     "    def again(self):\n        return self.again()\n")
    assert _unnamed([("m.py", tree)]) == ["m.py: only_tests", "m.py: C",
                                          "m.py: C.again"]


ARITHMETIC_DUNDERS = {"__add__", "__sub__", "__mul__", "__rmul__",
                      "__truediv__", "__pow__", "__neg__"}


def _operators(modules: list[tuple[str, ast.Module]]) -> list[str]:
    """Arithmetic-operator dunders that a class defines."""
    return [f"{module}: {node.name}.{item.name}"
            for module, tree in modules for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name in ARITHMETIC_DUNDERS]


def test_no_class_defines_an_arithmetic_operator():
    """_unnamed skips dunders, since Python calls them without naming
    them, so an operator that only tests use passes it: UnitRoot.__mul__
    and __pow__ did until they were deleted.  The package composes its
    roots and polynomials as fractions and closed forms, never by
    operators, so none may be defined."""
    assert _operators(_modules()) == []


def test_operator_finder_sees_an_arithmetic_dunder():
    tree = ast.parse("class C:\n    def __eq__(self, other):\n        pass\n"
                     "    def __mul__(self, other):\n        pass\n"
                     "def __pow__(x, k):\n    pass\n")
    assert _operators([("m.py", tree)]) == ["m.py: C.__mul__"]


@pytest.mark.parametrize("argv, digest", [
    (["oracle", "--max-dim", "3", "--max-m", "3", "--json"],
     "d4e4f6f4ca9ba5c1dd7ecdf5b8185bde8ed0ffc01b3d101d9e5d99bf96d276dd"),
    (["oracle", "--seed", "7", "--trials", "20", "--json"],
     "ff58f83d26df0eb0e252419c25abadb871ae1ff8868a2e8c99cdabc10ec71ea0"),
])
def test_oracle_reports_are_unchanged(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("flags, digest", [
    (["--degree", "2"],
     "4caf9fe8fdd57a0ca64890865d02cf4f512dc2ad587d7d1a912375f6c82c13b7"),
    (["--nodal", "2", "6"],
     "4f05394875b66dc8fb4fb20e5d5085ba10e1e84765fc25b84d55fdb2ce9bcfd4"),
])
def test_defect_reports_are_unchanged(flags, digest, capsys):
    assert main(["defect", str(CONIC_POINTS), *flags, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_defect_report_on_coordinates_beyond_64_bits_is_unchanged(
        tmp_path, capsys):
    # seven points on a line and two that are equal mod PRIME, with
    # coordinates above 2^64: the support check fails and the whole
    # matrix is ranked exactly
    points = [[str(2**70 + 3 * t), str(5 * 2**66 - t), "1"] for t in range(7)]
    points += [["1", str(2**80), "7"], ["1", str(2**80 + PRIME), "7"]]
    points += [[str(2**65 + 11 * i * i), str(-(2**67) + 13 * i),
                str(2**64 + i)] for i in range(1, 4)]
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points))
    assert main(["defect", str(path), "--degree", "4", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "6755a495c99d83a9db8b91b277746c59c9ec6e9028fbbb6bd3f3970c58371cbe"


def _node_points(seed: int, k: int, collinear: int) -> list[list[str]]:
    # k distinct points of P^3 with small rational coordinates, the first
    # `collinear` of them on one line
    rng = random.Random(seed)

    def coordinate() -> Fraction:
        return Fraction(rng.randint(-12, 12), rng.randint(1, 2))

    points: list[tuple[Fraction, ...]] = []
    if collinear:
        base = (Fraction(1), coordinate(), coordinate(), coordinate())
        direction = (0, 1, rng.randint(-1, 1), rng.randint(-1, 1))
        points = [tuple(b + t * v for b, v in zip(base, direction))
                  for t in rng.sample(range(-8, 9), collinear)]
    while len(points) < k:
        point = (Fraction(1), coordinate(), coordinate(), coordinate())
        if point not in points:
            points.append(point)
    return [[str(c) for c in point] for point in points]


# n = 3 and d even: the defect has degree q = 3d/2 - 4 and sits at
# s = d/2; a line through j > q + 1 nodes forces a defect >= j - (q + 1)
@pytest.mark.parametrize("d, k, collinear, digest", [
    (8, 14, 0,
     "93bb51280f10c11144b81c5db01f04dda7cfcf88f0ef5fc511e10f665f773da2"),
    (8, 14, 11,
     "b52bafdf7e1bef5d2eaff6c5cefc39c356450d457e6867aeb538c18c345ffa39"),
    (10, 16, 0,
     "a742bdc919df6fcabd7f56197dbe2806603575d34a1e7c1eb092a2295b50ec57"),
    (10, 16, 14,
     "ecd6b1b9da9dacae38e8490cdbcd1bbda0c7c54c1ccfcfeadbf7a62d8cbfac0f"),
    # the sizes of the nodal_defect benchmark workload
    (8, 60, 0,
     "068a17958a38ac10bb1319be730e239f7a179cafae1cd868c754a2563ac2d288"),
    (8, 60, 12,
     "a7dd753c54d6a702b462280491ba13f8c77ec3950e4eaf3c667e8fc067c4a712"),
    (10, 50, 0,
     "aa95419a13509b2796cb6de82767f92fc0f8f5c530f29f2433b57584e979d739"),
    (10, 50, 15,
     "24afe216d87ba0e7727364180a05104001d0de8fbad5f2b3c33bf806daef5888"),
])
def test_from_nodes_reports_are_unchanged(d, k, collinear, digest, tmp_path,
                                          capsys):
    instance = tmp_path / "nodes.json"
    instance.write_text(json.dumps({
        "n": 3, "d": d, "singularities": [{"type": "node", "count": k}],
        "beta": {"mode": "from_nodes",
                 "points": _node_points(1000 * d + collinear, k, collinear)}}))
    assert main(["compute", str(instance), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# n = 2, d = 60, beta = 0: about (d-1)^3 Jordan blocks, a 2.3 MB --json report
LARGE_REPORT_INSTANCE = {
    "n": 2, "d": 60,
    "singularities": [{"type": "brieskorn", "exponents": [2, 3], "count": 3},
                      {"type": "brieskorn", "exponents": [3, 5], "count": 2}],
    "beta": {"mode": "given", "values": [0] * 60}}


def test_large_report_is_unchanged_on_both_routes(tmp_path, capsys):
    instance = tmp_path / "large.json"
    instance.write_text(json.dumps(LARGE_REPORT_INSTANCE))
    assert main(["compute", str(instance), "--json"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) > 2_000_000
    assert hashlib.sha256(out).hexdigest() == \
        "ea37488b07167c474e9b3c336377ca0ff1893472a9644f2c72cb22599f8ff58f"
    target = tmp_path / "report.json"
    assert main(["compute", str(instance), "--json",
                 "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out


def test_large_report_is_written_from_the_runs(monkeypatch, tmp_path, capsys):
    def expand(self, alpha):
        raise AssertionError(f"block sizes at {alpha} listed one by one")

    monkeypatch.setattr(JordanStructure, "sizes_at", expand)
    instance = tmp_path / "large.json"
    instance.write_text(json.dumps(LARGE_REPORT_INSTANCE))
    assert main(["compute", str(instance), "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "ea37488b07167c474e9b3c336377ca0ff1893472a9644f2c72cb22599f8ff58f"


# n = 2, d = 6: three cusps and two copies of a germ with size-2 blocks at
# the 6th roots 1/3 and 2/3 and simple eigenvalues 1/5, 4/5 off them; the
# enumeration gives four beta vectors
NON_SEMISIMPLE_ENUMERATE_INSTANCE = {
    "n": 2, "d": 6,
    "singularities": [
        {"type": "brieskorn", "exponents": [2, 3], "count": 3},
        {"type": "explicit", "count": 2,
         "jordan": [{"eigenvalue": "1/5", "blocks": [1]},
                    {"eigenvalue": "1/3", "blocks": [2]},
                    {"eigenvalue": "2/3", "blocks": [2]},
                    {"eigenvalue": "4/5", "blocks": [1]}]}],
    "beta": {"mode": "enumerate"}}


def test_enumerated_non_semisimple_report_is_unchanged(tmp_path, capsys):
    instance = tmp_path / "enumerate.json"
    instance.write_text(json.dumps(NON_SEMISIMPLE_ENUMERATE_INSTANCE))
    assert main(["compute", str(instance), "--json"]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["beta_used"]) == 4
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "51b390cd4e1ecc56f7981891d7b2ce7282d61fd07400c9b379b724412c25d419"


# n = 2, d = 6: three cusps, five copies of a germ with simple eigenvalues
# at the 6th roots 1/6 and 5/6, and one germ with a size-2 block at the
# 6th root 1/2 (size 3 in the operator) and simple eigenvalues 1/7, 6/7
# off the 6th roots.  The enumeration gives five beta vectors.  The root 1
# has no blocks in any of them, and at 1/6 and 5/6 the last vector has no
# size-2 block where the others have one.  No admissible beta empties a
# d-th root that another admissible beta fills: both of its counts
# vanish only at beta_s = #_1(T)_alpha, which is then also the lower bound.
TORSION_CHANGES_INSTANCE = {
    "n": 2, "d": 6,
    "singularities": [
        {"type": "brieskorn", "exponents": [2, 3], "count": 3},
        {"type": "explicit", "count": 5,
         "jordan": [{"eigenvalue": "1/6", "blocks": [1]},
                    {"eigenvalue": "5/6", "blocks": [1]}]},
        {"type": "explicit", "count": 1,
         "jordan": [{"eigenvalue": "1/2", "blocks": [2]},
                    {"eigenvalue": "1/7", "blocks": [1]},
                    {"eigenvalue": "6/7", "blocks": [1]}]}],
    "beta": {"mode": "enumerate"}}


@pytest.mark.parametrize("flags, digest", [
    ([], "606fa81c1a0792f2824772db8ea1b1b23709ef0b50e6070301d713a986b638c5"),
    (["--json"],
     "8551835f72c0808721630ce7cf53c73e959e6c58a4bc86bcb28e38a338def72c"),
])
def test_enumerated_torsion_changes_report_is_unchanged(flags, digest,
                                                        tmp_path, capsys):
    instance = tmp_path / "torsion.json"
    instance.write_text(json.dumps(TORSION_CHANGES_INSTANCE))
    assert main(["compute", str(instance), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the first two of the five vectors, so the report is truncated
@pytest.mark.parametrize("flags, digest", [
    ([], "d2716bf078d9610569a50b8c19ca94b03ebe6f2d27b0f2de2303864ebfa5d2aa"),
    (["--json"],
     "85769198bfc3a7d03990d0a29e7220a745e85c8632eafc290f715210765fa6db"),
])
def test_truncated_enumerate_report_is_unchanged(flags, digest, tmp_path,
                                                 capsys):
    instance = tmp_path / "torsion.json"
    instance.write_text(json.dumps(TORSION_CHANGES_INSTANCE))
    assert main(["compute", str(instance), "--enumerate-cap", "2",
                 *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# n = 2, d = 2, one simple eigenvalue 1/5: chi_0 = -1 forces beta_0 >= 1
# while its upper bound is 0, so the enumeration is empty
NO_ADMISSIBLE_BETA_INSTANCE = {
    "n": 2, "d": 2,
    "singularities": [{"type": "explicit", "count": 1,
                       "jordan": [{"eigenvalue": "1/5", "blocks": [1]}]}],
    "beta": {"mode": "enumerate"}}


@pytest.mark.parametrize("flags, digest", [
    ([], "0eede694653c9ca405a0256dc2c19b3e5a796d0679d0d4ca6be5dfa6a2aa9b58"),
    (["--json"],
     "f158e7104419ce02f65bcf0b79c19aa09d3bbf89e9622d3305ab482066379681"),
])
def test_no_admissible_beta_report_is_unchanged(flags, digest, tmp_path,
                                                capsys):
    instance = tmp_path / "none.json"
    instance.write_text(json.dumps(NO_ADMISSIBLE_BETA_INSTANCE))
    assert main(["compute", str(instance), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ROADMAP Case 6 at d = 60 instead of 300: three Brieskorn(7,11) germs and
# 8 nodes.  The nine enumerated vectors differ only in beta_0, and each
# lists about 3600 eigenvalues: a text report of 1.15 MB
MULTI_VECTOR_INSTANCE = {
    "n": 2, "d": 60,
    "singularities": [{"type": "brieskorn", "exponents": [7, 11], "count": 3},
                      {"type": "node", "count": 8}],
    "beta": {"mode": "enumerate"}}


def test_multi_vector_text_report_is_unchanged(tmp_path, capsys):
    instance = tmp_path / "case6.json"
    instance.write_text(json.dumps(MULTI_VECTOR_INSTANCE))
    assert main(["compute", str(instance)]) == 0
    out = capsys.readouterr().out
    assert out.count("\nbeta = [") == 9
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "39d9ad528dec53eb39b6361235844973b2e50732400535a1401ef7aef8dd1e67"


def test_failed_charpoly_check_report_is_unchanged(monkeypatch, tmp_path,
                                                   capsys):
    # the formula gains (x - 1)^2 at its exponents on the d-th roots, which
    # the check compares, so every vector's check fails and its detail
    # prints both polynomials
    formula_at = moninf.infinity._formula_at_roots

    def off_by_x_minus_one_squared(*args):
        exps = formula_at(*args)
        return [exps[0] + 2] + exps[1:]

    monkeypatch.setattr(moninf.infinity, "_formula_at_roots",
                        off_by_x_minus_one_squared)
    instance = tmp_path / "torsion.json"
    instance.write_text(json.dumps(TORSION_CHANGES_INSTANCE))
    assert main(["compute", str(instance)]) == 2
    out = capsys.readouterr().out
    assert out.count("[fail] charpoly_local_formula") == 5
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "3a676fb085d41d96f68fb8a2bb694f07f2daed9232c3ad5a64e0575379b5a940"


# every dimension-1 structure at m = 3 fails the matrix route; every other
# comparison "disagrees" with a structure that repeats its block sizes
@pytest.mark.parametrize("flags, digest", [
    ([], "9c75081e7d79d9fa1ff1fa2c164dc9c230d49314cab8aeabe7536a37a1dba190"),
    (["--json"],
     "bbe9a6521b19da796c9aef16c0d09fdbaca2182925f7a62eb2f017efd040c75c"),
])
def test_oracle_counterexample_reports_are_unchanged(flags, digest,
                                                     monkeypatch, capsys):
    wrong = JordanStructure({ONE: {1: 3}, UnitRoot(1, 2): {2: 2, 1: 1}})

    def fake(structure, order):
        if order == 3 and structure.total_dim == 1:
            raise SpectrumNotCovered("covered 0 of 1 dimensions")
        return cyclic_power(structure, order), wrong

    monkeypatch.setattr("moninf.cli.verify_cyclic_agreement", fake)
    assert main(["oracle", "--max-dim", "2", "--max-m", "3", *flags]) == 2
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# one germ that is not Galois stable: a size-2 block at 1/4 and simple
# eigenvalues at 3/4 and 1/8, n = 2, beta = 0.  Each char poly mixes Phi_q
# with loose factors, on the slots and on the lifts; at d = 4 it is
# (x - 1)^2 * (x + 1)^3 * Phi_4^4 * Phi_12 * (x - zeta(1/4)) * ...
@pytest.mark.parametrize("d, flags, digest", [
    (4, [], "a5ddf22ea618abe2b7555b34fe0b71f734e5e9e7a37d29fee90b86e38abcba2e"),
    (4, ["--json"],
     "7572fb00fca6ea7abf130cf48504eea622d17b90d805ff2ac859f5551c0909e6"),
    (6, [], "8fb9d5bdcb2bd4088732216295f150f768226cff5567ace47831d8472f08c00b"),
    (6, ["--json"],
     "26f9544d5ba29dd76b4d55bc3e58548a7cfa8adeb521b0673fe80efa50ab2de7"),
])
def test_mixed_factor_reports_are_unchanged(d, flags, digest, tmp_path,
                                            capsys):
    instance = tmp_path / "mixed.json"
    instance.write_text(json.dumps({
        "n": 2, "d": d,
        "singularities": [{"type": "explicit", "jordan": [
            {"eigenvalue": "1/4", "blocks": [2]},
            {"eigenvalue": "3/4", "blocks": [1]},
            {"eigenvalue": "1/8", "blocks": [1]}]}],
        "beta": {"mode": "given", "values": [0] * d}}))
    assert main(["compute", str(instance), *flags]) == 0
    out = capsys.readouterr().out
    display = json.loads(out)["charpoly_display"] if flags else \
        out.split("char poly: ")[1].split("\n")[0]
    assert "Phi_" in display and "(x - zeta(" in display
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ROADMAP's Mid instance: about 2.1 * 10^8 Jordan blocks at about 90000
# lifted roots of conj(T) and 600 slots; a 3.5 MB text report
MID_INSTANCE = {
    "n": 2, "d": 600,
    "singularities": [{"type": "brieskorn", "exponents": [150, 150]}],
    "beta": {"mode": "given", "values": [0] * 600}}


def test_mid_text_report_is_unchanged(tmp_path, capsys):
    instance = tmp_path / "mid.json"
    instance.write_text(json.dumps(MID_INSTANCE))
    assert main(["compute", str(instance)]) == 0
    out = capsys.readouterr().out
    assert len(out) == 3474793
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "a2bf7bf498822d084bab34d89f43be00080e0cc99eecf5b55000e7418d0160d1"


# n = 2, d = 6: one germ at level L = 12 with size-2 blocks at the 6th
# roots 1/6 and 5/6 (size 3 in the operator) and at 1/4 and 3/4 off them;
# the lift of conj(T) at 5/6 lands on the slot 1/6, and 1/4 lifts to the
# 20th roots.  The enumeration gives two vectors
LEVEL_12_INSTANCE = {
    "n": 2, "d": 6,
    "singularities": [{"type": "explicit", "jordan": [
        {"eigenvalue": "1/6", "blocks": [2, 1]},
        {"eigenvalue": "1/4", "blocks": [2]},
        {"eigenvalue": "3/4", "blocks": [2]},
        {"eigenvalue": "5/6", "blocks": [2, 1]}]}],
    "beta": {"mode": "enumerate"}}


@pytest.mark.parametrize("argv, digest", [
    (["compute"],
     "c592e613ce9fb837f46ff2079a98851483ea2f67a1baab2f4035e5957a4c8c1b"),
    (["compute", "--json"],
     "4319110cd0b91e1b48c08fb4de11f2b33c35af8f139920b0d592be186fb51d3a"),
    (["bounds", "--json"],
     "846d6b1d7a0da0519729f93a8afdfb57071f0f31f0d77af7c60ee8411b255802"),
])
def test_level_12_germ_reports_are_unchanged(argv, digest, tmp_path, capsys):
    instance = tmp_path / "level12.json"
    instance.write_text(json.dumps(LEVEL_12_INSTANCE))
    assert main([argv[0], str(instance), *argv[1:]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_failed_zeta_check_report_is_unchanged(monkeypatch, capsys):
    # chi off the zeta function at 1, 1/3 and 1/2: the check compares
    # exponents, and on failure prints both forms as before
    chi_vector = moninf.infinity.chi_vector

    def shifted(n, d, total_mu):
        chi = chi_vector(n, d, total_mu)
        return [chi[0] + 3, chi[1]] + [c - 1 for c in chi[2:4]] + chi[4:]

    monkeypatch.setattr(moninf.infinity, "chi_vector", shifted)
    assert main(["compute", str(ROOT / "instances" /
                                "six_cusp_sextic.json")]) == 2
    out = capsys.readouterr().out
    assert "  [fail] zeta_two_forms: the (x^d - 1) form gives (x - 1)^8 * " \
        "(x + 1)^9 * Phi_3^9 * Phi_6^9, the product over chi gives " \
        "(x - 1)^11 * (x + 1)^8 * Phi_3^8 * Phi_6^9 * (x - zeta(2/3))\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "a80e7bb3afd030d17fb039d34a7a345612c252bd59230766428d9b7225482865"
