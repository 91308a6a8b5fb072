"""Tests for the command line front end."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import moninf.cyclic
import moninf.cyclo
import moninf.infinity
from moninf.cli import main
from moninf.infinity import (
    MAX_REPORT_ENTRIES,
    CharPoly,
    CheckResult,
    Report,
    parse_problem,
)
from moninf.jordan import JordanStructure, Runs
from moninf.localsing import milnor_number
from test_exactness import (
    LARGE_REPORT_INSTANCE, MID_INSTANCE, MULTI_VECTOR_INSTANCE)

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = ROOT / "instances"
SEXTIC = str(INSTANCES / "six_cusp_sextic.json")
SEXTIC_ENUM = str(INSTANCES / "six_cusp_sextic_enumerate.json")
LINES_D4 = str(INSTANCES / "lines_d4.json")
CONIC_POINTS = str(INSTANCES / "conic_points.json")


def test_compute_sextic_text(capsys):
    assert main(["compute", SEXTIC]) == 0
    out = capsys.readouterr().out
    assert "eigenvalue 1/6: 5 x size 2, 5 x size 1" in out
    assert "eigenvalue 1/30: 6 x size 1" in out
    assert "char poly: (x - 1)^8 * (x + 1)^9 * Phi_3^9 * Phi_6^15 * Phi_30^6" in out
    assert "[fail]" not in out


def test_compute_sextic_json(capsys):
    assert main(["compute", SEXTIC, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["beta_used"] == [0, 1, 0, 0, 0, 1]
    assert doc["total_dim"] == 113
    assert {"eigenvalue": "1/6", "blocks": [2] * 5 + [1] * 5} in doc["jordan"]
    assert all(check["status"] in ("pass", "not_applicable")
               for check in doc["checks"])


def test_compute_enumerate_cap(capsys):
    assert main(["compute", SEXTIC_ENUM, "--json", "--enumerate-cap", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["truncated"] is True
    assert doc["beta_used"] == [[0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 1]]


def test_compute_from_nodes(capsys):
    assert main(["compute", LINES_D4, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "from_nodes"
    assert doc["beta_used"] == [3, 0, 0, 0]


def test_exponent_notation_coordinate_is_rejected_at_once(tmp_path, capsys):
    # Fraction("1e30000000") would form 10^30000000 before any check
    points = [["1", "0", "1e30000000"], ["0", "1", "1"], ["1", "1", "1"]]
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(points))
    instance = tmp_path / "nodes.json"
    instance.write_text(json.dumps({
        "n": 2, "d": 4, "singularities": [{"type": "node", "count": 3}],
        "beta": {"mode": "from_nodes", "points": points}}))
    for argv in (["defect", str(pts), "--degree", "1"],
                 ["compute", str(instance)]):
        start = time.process_time()
        assert main(argv) == 1
        assert time.process_time() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: invalid rational coordinate '1e30000000'" in captured.err


@pytest.mark.parametrize("coordinate", ["1.5", "1e5", "+1", "1_0", "1 / 2",
                                        "1/0", True, 1.0])
def test_coordinates_outside_the_grammar_are_rejected(tmp_path, capsys,
                                                      coordinate):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[coordinate, "0", "1"], ["0", "1", "1"]]))
    assert main(["defect", str(pts), "--degree", "1"]) == 1
    assert "invalid rational coordinate" in capsys.readouterr().err


def test_coordinate_grammar(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[" -3/4 ", 2, "1"], ["0", "1", "1"]]))
    assert main(["defect", str(pts), "--degree", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["defect"] == 0


@pytest.mark.parametrize("d", [10 ** 30, MAX_REPORT_ENTRIES + 1])
@pytest.mark.parametrize("command", ["zeta", "bounds", "compute"])
def test_d_above_the_report_limit_is_rejected_before_chi(tmp_path, capsys,
                                                         command, d):
    # every report lists the d entries of chi
    instance = tmp_path / "big_d.json"
    instance.write_text(json.dumps({
        "n": 2, "d": d, "singularities": [], "beta": {"mode": "enumerate"}}))
    start = time.process_time()
    assert main([command, str(instance)]) == 1
    assert time.process_time() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"d = {d}" in captured.err
    assert f"limit of {MAX_REPORT_ENTRIES}" in captured.err


def test_compute_rejects_small_n(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 1, "d": 3, "singularities": [], "beta": {"mode": "enumerate"}}))
    assert main(["compute", str(bad)]) == 1
    assert "n must be >= 2" in capsys.readouterr().err


def test_compute_input_errors(tmp_path, capsys):
    assert main(["compute", str(tmp_path / "absent.json")]) == 1
    assert "cannot read" in capsys.readouterr().err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["compute", str(garbled)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["compute"], ["compute", "--json"], ["compute", "--enumerate-cap", "3"],
    ["bounds"], ["zeta"]])
def test_brieskorn_germ_with_the_wrong_exponent_count_exits_1(
        tmp_path, capsys, command):
    # three exponents in n = 2 local coordinates: every subcommand rejects
    # the germ, zeta too, though its report reads only n, d and mu
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 2, "d": 6,
        "singularities": [{"type": "brieskorn", "exponents": [2, 3, 4]}],
        "beta": {"mode": "enumerate"}}))
    assert main([command[0], str(bad), *command[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: Brieskorn-Pham model has 3 exponents, expected 2\n"


def test_compute_inadmissible_beta(tmp_path, capsys):
    bad = tmp_path / "bad_beta.json"
    bad.write_text(json.dumps({
        "n": 2, "d": 6,
        "singularities": [
            {"type": "brieskorn", "exponents": [2, 3], "count": 6}],
        "beta": {"mode": "given", "values": [0, 7, 0, 0, 0, 7]}}))
    assert main(["compute", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "negative block count" in err
    assert "above the upper bound 6" in err



@pytest.mark.parametrize("count, values, message", [
    (9, [0] * 6, "-6 blocks of size 1 at eigenvalue 1/6; beta[1] = 0 is "
     "below the lower bound 3 (admissible range 3..9)"),
    (6, [0, 7, 0, 0, 0, 7], "-1 blocks of size 2 at eigenvalue 1/6; "
     "beta[1] = 7 is above the upper bound 6 (admissible range 0..6)"),
])
def test_given_beta_outside_its_bounds_exact_error(tmp_path, capsys, count,
                                                   values, message):
    # k cusps at d = 6 give T's table {1: k} at 1/6 and 5/6; the message
    # names the first slot whose block count is negative, its root and range
    bad = tmp_path / "bad_beta.json"
    bad.write_text(json.dumps({
        "n": 2, "d": 6,
        "singularities": [
            {"type": "brieskorn", "exponents": [2, 3], "count": count}],
        "beta": {"mode": "given", "values": values}}))
    for flags in ([], ["--json"]):
        assert main(["compute", str(bad), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: negative block count: {message}\n"


def test_compute_rejects_deeply_nested_json(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["compute", str(deep)]) == 1
    assert "nested too deeply" in capsys.readouterr().err

def test_compute_rejects_oversized_count(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "n": 2, "d": 6,
        "singularities": [{"type": "node", "count": 10 ** 19}],
        "beta": {"mode": "enumerate"}}))
    assert main(["compute", str(big)]) == 1
    assert "exceeds (d-1)^(n+1)" in capsys.readouterr().err


@pytest.mark.parametrize("n", [14286, 14287, 10 ** 9])
def test_huge_n_is_rejected_before_the_power_is_formed(tmp_path, capsys, n):
    # d = 3: chi_s = (2^(n+1) +- 1)/3 +- 1, which the bit-length bound
    # puts at >= 2^14285 (more than 4300 digits) from n = 14287 on
    data = {"n": n, "d": 3, "singularities": [],
            "beta": {"mode": "given", "values": [0, 0, 0]}}
    if n == 14286:
        assert parse_problem(data).chi[1].bit_length() == 14286
        return
    doc = tmp_path / "huge.json"
    doc.write_text(json.dumps(data))
    start = time.process_time()
    assert main(["bounds", str(doc)]) == 1
    assert time.process_time() - start < 1
    assert f"error: n = {n} and d = 3 give |chi_s| >= 2^" in capsys.readouterr().err


# n = 100, d = 3, beta = 0: 2^101 blocks of size 1 (an 87-byte document);
# n = 3, d = 400 with two nodes: about 2.5e10 blocks and two Milnor numbers,
# as many entries as the operator has dimensions
@pytest.mark.parametrize("data, entries", [
    ({"n": 100, "d": 3, "singularities": [],
      "beta": {"mode": "given", "values": [0, 0, 0]}},
     "2535301200456458802993406410752"),
    ({"n": 3, "d": 400, "singularities": [{"type": "node", "count": 2}],
      "beta": {"mode": "from_nodes",
               "points": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]}},
     "25344958399"),
])
def test_oversized_json_report_exits_1_before_its_first_byte(tmp_path, capsys,
                                                              data, entries):
    instance = tmp_path / "big.json"
    instance.write_text(json.dumps(data))
    start = time.perf_counter()
    assert main(["compute", str(instance), "--json"]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: the --json report would list "
                                   f"{entries} Jordan blocks")
    assert f"limit of {MAX_REPORT_ENTRIES}" in captured.err
    # the text report gives the blocks as counts, one line per eigenvalue
    assert main(["compute", str(instance)]) == 0
    out = capsys.readouterr().out
    assert f"operator dimension {entries}" in out
    assert "[fail]" not in out


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_oversized_mu_list_exits_1_in_both_formats(tmp_path, capsys, flags):
    # both reports list mu once per copy; the text report, which gives
    # the blocks as counts, would otherwise write about 300 MB
    count = MAX_REPORT_ENTRIES + 1
    instance = tmp_path / "nodes.json"
    instance.write_text(json.dumps({
        "n": 2, "d": 500, "singularities": [{"type": "node", "count": count}],
        "beta": {"mode": "enumerate"}}))
    start = time.perf_counter()
    assert main(["compute", str(instance), "--enumerate-cap", "1", *flags]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"report would list {count} " in captured.err
    assert f"limit of {MAX_REPORT_ENTRIES}" in captured.err


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_oversized_mu_list_leaves_the_output_file_alone(tmp_path, capsys,
                                                        flags):
    # the cap is checked before --output is opened, so the file keeps
    # what an earlier run wrote
    count = MAX_REPORT_ENTRIES + 1
    instance = tmp_path / "nodes.json"
    instance.write_text(json.dumps({
        "n": 2, "d": 500, "singularities": [{"type": "node", "count": count}],
        "beta": {"mode": "enumerate"}}))
    target = tmp_path / "report.txt"
    target.write_text("an earlier report\n")
    assert main(["compute", str(instance), "--enumerate-cap", "1",
                 "--output", str(target), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"report would list {count} " in captured.err
    assert target.read_text() == "an earlier report\n"


def test_text_report_memory_does_not_grow_with_the_vectors(tmp_path):
    # ROADMAP Case 6 scaled down: each vector's text is written as it is
    # made and its structure is not kept, so an extra vector adds less to
    # the peak than its own text (keeping both made it about 5 times that)
    instance = tmp_path / "case6.json"
    instance.write_text(json.dumps(MULTI_VECTOR_INSTANCE))
    peaks, sizes = {}, {}
    for cap in (9, 1):
        target = tmp_path / f"report{cap}.txt"
        tracemalloc.start()
        try:
            assert main(["compute", str(instance), "--enumerate-cap",
                         str(cap), "--output", str(target)]) == 0
            peaks[cap] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sizes[cap] = target.stat().st_size
    assert sizes[9] > 1_000_000
    assert peaks[9] - peaks[1] < sizes[9] - sizes[1]


def test_json_report_memory_does_not_grow_with_the_vectors(tmp_path):
    # the --json twin: each vector's rows are streamed from T as they are
    # written, so nine vectors peak about where one does (when the report
    # built every structure first, each vector added 1.6 of its 3.0 MB)
    instance = tmp_path / "case6.json"
    instance.write_text(json.dumps(MULTI_VECTOR_INSTANCE))
    peaks, sizes = {}, {}
    for cap in (9, 1):
        target = tmp_path / f"report{cap}.json"
        tracemalloc.start()
        try:
            assert main(["compute", str(instance), "--json", "--enumerate-cap",
                         str(cap), "--output", str(target)]) == 0
            peaks[cap] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sizes[cap] = target.stat().st_size
    assert sizes[9] > 20_000_000
    assert peaks[9] - peaks[1] < (sizes[9] - sizes[1]) / 10


def test_text_report_memory_per_slot(tmp_path):
    # n = 2, no singularities, beta enumerated: one vector over d slots of
    # two classes.  The peak grows with the lists of d references and the
    # slot lines (about 250 bytes per slot, Python 3.11), not with a rules
    # tuple, dicts and a root per slot (1520 bytes per slot when each slot
    # kept its own)
    peaks = {}
    for d in (20000, 40000):
        instance = tmp_path / f"d{d}.json"
        instance.write_text(json.dumps({"n": 2, "d": d, "singularities": [],
                                        "beta": {"mode": "enumerate"}}))
        tracemalloc.start()
        try:
            assert main(["compute", str(instance), "--output",
                         str(tmp_path / "report.txt")]) == 0
            peaks[d] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[40000] - peaks[20000]) / 20000 < 400


def test_bounds_text_memory_per_slot(tmp_path):
    # the same instances: bounds writes its text about 4096 slot lines at
    # a time, straight from the list of d (lower, upper) pairs, so the
    # peak grows by about 9 bytes per slot (Python 3.11), not by a dict
    # row, a root and a line per slot (500 bytes per slot when it built
    # them all before writing)
    peaks = {}
    for d in (20000, 40000):
        instance = tmp_path / f"d{d}.json"
        instance.write_text(json.dumps({"n": 2, "d": d, "singularities": [],
                                        "beta": {"mode": "enumerate"}}))
        tracemalloc.start()
        try:
            assert main(["bounds", str(instance), "--output",
                         str(tmp_path / "bounds.txt")]) == 0
            peaks[d] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (peaks[40000] - peaks[20000]) / 20000 < 50


def test_each_display_is_rendered_once(tmp_path, monkeypatch):
    # zeta is shown in its check and in the report, the char poly in the
    # report: each groups its d slots once, and chi is written as runs
    calls = []
    slots = CharPoly._slots

    def counting(poly):
        calls.append(poly)
        return slots(poly)

    monkeypatch.setattr(CharPoly, "_slots", counting)
    assert main(["compute", SEXTIC, "--output", str(tmp_path / "r.txt")]) == 0
    assert len(calls) == len(set(map(id, calls))) == 2
    spec = parse_problem(json.loads(Path(SEXTIC).read_text()))
    chi = moninf.infinity.assemble(spec).to_json()["chi"]
    assert isinstance(chi, Runs) and chi.pairs == ((8, 1), (9, 5))


def test_mid_text_report_holds_no_lifted_charpoly(tmp_path):
    # the char poly is read off T in closed form; holding it as one factor
    # per lifted root took the tracemalloc peak to 30.4 MB (11.6 MB
    # without it, Python 3.11)
    instance = tmp_path / "mid.json"
    instance.write_text(json.dumps(MID_INSTANCE))
    target = tmp_path / "report.txt"
    tracemalloc.start()
    try:
        assert main(["compute", str(instance), "--output", str(target)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert target.stat().st_size > 3_000_000
    assert peak < 20_000_000


@pytest.mark.parametrize("order", [10**18 + 3, 10**40 + 3])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_an_orbit_of_large_order_is_not_factored(order, flags, tmp_path,
                                                 monkeypatch, capsys):
    # eigenvalues 1/e and its inverse: an orbit of two roots is not full
    # for e > 8, since phi(e) >= sqrt(e/2), so totient(e) is never asked
    # for; trial division would take years
    totient = moninf.cyclo.totient

    def small_only(q):
        assert q < 10**6, f"totient({q}) by trial division"
        return totient(q)

    monkeypatch.setattr(moninf.cyclo, "totient", small_only)
    instance = tmp_path / "order.json"
    instance.write_text(json.dumps({
        "n": 2, "d": 4, "singularities": [{"type": "explicit", "jordan": [
            {"eigenvalue": f"1/{order}", "blocks": [1]},
            {"eigenvalue": f"{order - 1}/{order}", "blocks": [1]}]}],
        "beta": {"mode": "enumerate"}}))
    assert main(["compute", str(instance), *flags]) == 0
    out = capsys.readouterr().out
    assert f"(x - zeta(1/{3 * order}))" in out


def test_refused_json_report_lifts_nothing(tmp_path, monkeypatch, capsys):
    # the entry cap is counted from T and the slots, so a refused report
    # neither lifts a root nor renders its characteristic polynomial; the
    # zeta function, a CharPoly without pairs, is rendered for its check
    def forbidden(*args):
        raise AssertionError("a refused --json report made its charpoly")

    shown = moninf.infinity.CharPoly.__str__

    def shown_without_pairs(poly):
        if poly.pairs:
            forbidden()
        return shown(poly)

    monkeypatch.setattr(moninf.infinity.CharPoly, "to_json", forbidden)
    monkeypatch.setattr(moninf.infinity.CharPoly, "__str__", shown_without_pairs)
    lifts = moninf.cyclo.lifts

    def lifting_nothing(*args):
        for _ in lifts(*args):
            forbidden()
        return iter(())

    # the lifts are read by CharPoly, by the base runs and by the block
    # size limits, which may lift an empty list
    for module in (moninf.cyclo, moninf.cyclic, moninf.infinity):
        monkeypatch.setattr(module, "lifts", lifting_nothing)
    instance = tmp_path / "mid.json"
    instance.write_text(json.dumps(MID_INSTANCE))
    assert main(["compute", str(instance), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the --json report would list "
                                   "214877398 Jordan blocks")


@pytest.mark.parametrize("data, hinted", [
    ({"n": 100, "d": 3, "singularities": [],
      "beta": {"mode": "given", "values": [0, 0, 0]}}, True),
    ({"n": 2, "d": 500,
      "singularities": [{"type": "node", "count": MAX_REPORT_ENTRIES + 1}],
      "beta": {"mode": "enumerate"}}, False),
])
def test_json_cap_names_text_mode_only_when_it_fits(tmp_path, capsys, data,
                                                    hinted):
    # text mode gives the blocks as counts but lists mu once per copy, so
    # it is offered only when mu alone stays within the cap
    instance = tmp_path / "big.json"
    instance.write_text(json.dumps(data))
    argv = ["compute", str(instance), "--enumerate-cap", "1"]
    assert main([*argv, "--json"]) == 1
    err = capsys.readouterr().err
    assert f"limit of {MAX_REPORT_ENTRIES}" in err
    assert ("text report" in err) is hinted
    assert main(argv) == (0 if hinted else 1)


def test_a_large_count_lists_no_copies(tmp_path, capsys):
    # 10**6 nodes at d = 101 fill (d-1)^(n+1): no admissible beta, and mu
    # is written from its one run, never as a list of 10**6 ints
    instance = tmp_path / "nodes.json"
    instance.write_text(json.dumps({
        "n": 2, "d": 101, "singularities": [{"type": "node", "count": 10**6}],
        "beta": {"mode": "enumerate"}}))
    target = tmp_path / "report.json"
    tracemalloc.start()
    try:
        assert main(["compute", str(instance), "--json",
                     "--output", str(target)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert json.loads(target.read_text())["mu"] == [1] * 10**6
    assert main(["compute", str(instance)]) == 0
    assert f"local Milnor numbers: {[1] * 10**6} (total 1000000); " \
        "operator dimension 0" in capsys.readouterr().out


def test_compute_exit_2_on_check_failure(monkeypatch, capsys):
    monkeypatch.setattr(
        "moninf.infinity.check_block_size_limits",
        lambda structure, n, d: CheckResult("block_size_limits", "fail",
                                            "injected failure"))
    assert main(["compute", SEXTIC]) == 2
    assert "[fail] block_size_limits: injected failure" in capsys.readouterr().out


def test_compute_exit_2_when_zeta_forms_disagree(monkeypatch, capsys):
    monkeypatch.setattr("moninf.infinity.zeta_of_top_form",
                        lambda spec: CharPoly(1, [], spec.d - 1, [0] * spec.d))
    assert main(["compute", SEXTIC]) == 2
    out = capsys.readouterr().out
    assert "[fail] zeta_two_forms: the (x^d - 1) form gives 1, the product " \
        "over chi gives (x - 1)^8 * (x + 1)^9 * Phi_3^9 * Phi_6^9" in out


def test_json_output_is_byte_deterministic(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for target in (first, second):
        assert main(["compute", SEXTIC_ENUM, "--json",
                     "--output", str(target)]) == 0
    assert first.read_bytes() == second.read_bytes()
    for target in (first, second):
        assert main(["oracle", "--seed", "5", "--trials", "8", "--json",
                     "--output", str(target)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_output_flag_leaves_stdout_empty(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["compute", SEXTIC, "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert "char poly" in target.read_text()


def test_closed_stdout_is_not_an_error(tmp_path):
    # `moninf compute ... | head -c 100`: the reader leaves early, from a
    # --json report and from a text report of nine vectors; both are
    # larger than a pipe's buffer
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    for data, flags, start in [
            (LARGE_REPORT_INSTANCE, ["--json"], b'{\n  "beta_used": ['),
            (MULTI_VECTOR_INSTANCE, [],
             b"monodromy at infinity: n = 2, d = 60\n")]:
        instance = tmp_path / "large.json"
        instance.write_text(json.dumps(data))
        proc = subprocess.Popen(
            [sys.executable, "-m", "moninf.cli", "compute", str(instance),
             *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert head.startswith(start)
        assert (code, err) == (0, b""), flags


def test_closed_stdout_keeps_the_reports_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(
        "moninf.infinity.check_block_size_limits",
        lambda structure, n, d: CheckResult("block_size_limits", "fail",
                                            "injected failure"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["compute", SEXTIC, "--json"]) == 2
    assert capsys.readouterr().err == ""


def test_bounds_table(capsys):
    assert main(["bounds", SEXTIC_ENUM, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chi"] == [8, 9, 9, 9, 9, 9]
    by_s = {row["s"]: (row["lower"], row["upper"]) for row in doc["bounds"]}
    assert by_s == {0: (0, 0), 1: (0, 6), 2: (0, 0),
                    3: (0, 0), 4: (0, 0), 5: (0, 6)}


def test_bounds_and_zeta_read_the_count_not_the_copies(monkeypatch, tmp_path,
                                                       capsys):
    # a node entry of count 10**6 costs what one of count 1 does: the
    # Milnor numbers are read once per entry, the copies are never listed
    calls = []

    def counted(model):
        calls.append(model)
        return milnor_number(model)

    monkeypatch.setattr(moninf.infinity, "milnor_number", counted)
    for command in ("bounds", "zeta"):
        seen = []
        for count in (10**6, 1):
            path = tmp_path / f"nodes_{count}.json"
            path.write_text(json.dumps({
                "n": 2, "d": 101,
                "singularities": [{"type": "node", "count": count}],
                "beta": {"mode": "enumerate"}}))
            calls.clear()
            assert main([command, str(path), "--json"]) == 0
            seen.append(len(calls))
        assert seen[0] == seen[1] > 0, command
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["compute"], ["compute", "--json"], ["bounds"], ["bounds", "--json"]])
def test_brieskorn_level_above_the_index_size_exits_1(tmp_path, capsys,
                                                       command):
    # L = lcm(3037000501, 3037000503) = 9223372049148252003 > 2^63 - 1:
    # no list of L counts can be made, and the message names L
    path = tmp_path / "big_level.json"
    path.write_text(json.dumps({
        "n": 2, "d": 3 * 10**6,
        "singularities": [{"type": "brieskorn",
                           "exponents": [3037000501, 3037000503]}],
        "beta": {"mode": "enumerate"}}))
    assert main([command[0], str(path), *command[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"L = {3037000501 * 3037000503}" in err


@pytest.mark.parametrize("flags, unused", [([], "to_json"),
                                           (["--json"], "text_chunks")])
def test_compute_renders_only_the_requested_format(monkeypatch, capsys,
                                                   flags, unused):
    expected = main(["compute", SEXTIC, *flags]), capsys.readouterr()

    def fail(self):
        raise AssertionError(f"Report.{unused} called")

    monkeypatch.setattr(Report, unused, fail)
    assert (main(["compute", SEXTIC, *flags]), capsys.readouterr()) == expected


def test_zeta_command(capsys):
    assert main(["zeta", SEXTIC, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["zeta_display"] == "(x - 1)^8 * (x + 1)^9 * Phi_3^9 * Phi_6^9"
    assert doc["chi"] == [8, 9, 9, 9, 9, 9]


def test_defect_degree(capsys):
    assert main(["defect", CONIC_POINTS, "--degree", "2"]) == 0
    assert "defect = 1" in capsys.readouterr().out
    assert main(["defect", CONIC_POINTS, "--degree", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"q": 2, "points": 6, "defect": 1}


def test_defect_nodal(tmp_path, capsys):
    points = [[str(-(i + j)), str(-i * j), "1"]
              for i in range(1, 5) for j in range(i + 1, 5)]
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps(points))
    assert main(["defect", str(path), "--nodal", "2", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["beta"] == [3, 0, 0, 0]


def test_defect_rejects_bad_points(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps([["1", "2", "1"], ["2", "4", "2"]]))
    assert main(["defect", str(path), "--degree", "1"]) == 1
    assert "duplicate projective points" in capsys.readouterr().err
    assert main(["defect", str(path)]) == 1  # missing --degree/--nodal



def test_defect_in_high_degree_builds_no_matrix(monkeypatch, tmp_path, capsys):
    # k distinct points impose independent conditions in degree q >= k - 1,
    # so the defect is 0 there without a single monomial
    def refuse(n, q):
        raise AssertionError(f"monomials of degree {q} in {n + 1} variables")

    monkeypatch.setattr("moninf.defect.monomial_exponents", refuse)
    two = tmp_path / "two.json"
    two.write_text(json.dumps([["1", "0", "0", "0"], ["1", "2", "-3", "1/2"]]))
    assert main(["defect", str(two), "--degree", "300", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == \
        {"q": 300, "points": 2, "defect": 0}
    # n = 3, d = 400: the nodal defect has degree q = 596; the text report
    # keeps the 2.5e10-dimensional operator to one line per eigenvalue
    instance = tmp_path / "nodes.json"
    instance.write_text(json.dumps({
        "n": 3, "d": 400, "singularities": [{"type": "node", "count": 2}],
        "beta": {"mode": "from_nodes",
                 "points": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]}}))
    assert main(["compute", str(instance)]) == 0
    assert f"beta = {[0] * 400}" in capsys.readouterr().out

def test_oversized_evaluation_matrix_exits_1(tmp_path, capsys):
    # 300 points in P^3 at q = 200 would need a 300 x 1373701 matrix;
    # the size is checked before any of it is built
    points = [["1", str(i), str(i * i), "0"] for i in range(300)]
    plain = tmp_path / "points.json"
    plain.write_text(json.dumps(points))
    instance = tmp_path / "nodes.json"
    instance.write_text(json.dumps({
        "n": 3, "d": 136, "singularities": [{"type": "node", "count": 300}],
        "beta": {"mode": "from_nodes", "points": points}}))
    for argv in (["defect", str(plain), "--degree", "200"],
                 ["compute", str(instance), "--json"]):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k = 300 points" in captured.err
        assert "1373701 monomials of degree q = 200" in captured.err


def test_empty_point_list_defect(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    assert main(["defect", str(path), "--nodal", "2", "6", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["beta"] == [0, 0, 0, 0, 0, 0]


def test_oracle_exhaustive_small(capsys):
    assert main(["oracle", "--max-dim", "2", "--max-m", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # 6 structures of dimension 1, 27 of dimension 2, one power each
    assert doc["comparisons"] == 33
    assert doc["counterexamples"] == []


def test_oracle_random_seeded(capsys):
    assert main(["oracle", "--seed", "3", "--trials", "12"]) == 0
    assert "all comparisons agree" in capsys.readouterr().out


def test_oracle_prints_counterexample(monkeypatch, capsys):
    wrong = JordanStructure({})

    def fake(structure, order):
        from moninf.cyclic import cyclic_power
        return cyclic_power(structure, order), wrong

    monkeypatch.setattr("moninf.cli.verify_cyclic_agreement", fake)
    assert main(["oracle", "--max-dim", "1", "--max-m", "2"]) == 2
    out = capsys.readouterr().out
    assert "counterexample at m = 2" in out
    assert "disagreements found" in out


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_oracle_rejects_fewer_than_one_trial(capsys, trials):
    assert main(["oracle", "--seed", "1", "--trials", trials, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--trials >= 1" in captured.err


@pytest.fixture
def refuse_oracle_work(monkeypatch):
    """Fail the test if the power rule runs or a matrix is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("work done above an oracle limit")

    for name in ("cyclic_power", "build_jordan_matrix", "build_cyclic_matrix"):
        monkeypatch.setattr(f"moninf.oracle.{name}", refuse)


def test_oracle_level_cap_exits_1_before_any_work(refuse_oracle_work, capsys):
    # one trial at m up to 400000: the field level is checked before the
    # power rule runs or a matrix is built
    assert main(["oracle", "--seed", "1", "--trials", "1",
                 "--max-m", "400000"]) == 1
    assert capsys.readouterr().err == \
        "error: required field level 1366496 exceeds the cap 360\n"


@pytest.mark.parametrize("flags, message", [
    # one trial draws a structure of dimension 17612, at m = 3
    pytest.param(["--seed", "1", "--trials", "1", "--max-dim", "100000"],
                 "the case at m = 3 of dimension 17612 needs a matrix of "
                 "52836 rows, above the limit 256", id="rows"),
    # the pre-pass stops at the first case past the limit
    pytest.param(["--max-dim", "12"],
                 "the exhaustive sweep (dimension <= 12, m in 2..3) has more "
                 "than 10000 comparisons, the limit", id="sweep"),
])
def test_oracle_size_limits_exit_1_before_any_work(refuse_oracle_work, capsys,
                                                  flags, message):
    start = time.process_time()
    assert main(["oracle", *flags]) == 1
    assert time.process_time() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_oracle_random_trials_have_no_sweep_limit(monkeypatch, capsys):
    # the comparison count is limited in the exhaustive sweep only
    monkeypatch.setattr("moninf.cli.verify_cyclic_agreement",
                        lambda structure, order: (structure, structure))
    assert main(["oracle", "--seed", "1", "--trials", "10001", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["comparisons"] == 10001


@pytest.mark.parametrize("cap, code", [("12", 0), ("11", 1)])
def test_oracle_level_cap_is_the_largest_level_allowed(capsys, cap, code):
    # dimension 1 at m = 2: the largest level is 2 * 6 = 12
    assert main(["oracle", "--max-dim", "1", "--max-m", "2",
                 "--oracle-level-cap", cap]) == code
    captured = capsys.readouterr()
    assert captured.err == ("" if code == 0 else
                            "error: required field level 12 exceeds the cap 11\n")
    assert ("all comparisons agree" in captured.out) == (code == 0)


@pytest.mark.parametrize("flags, level", [
    # the first structure of the sweep has level 6, so m = 61 is refused
    (["--max-m", "400"], 366),
    (["--seed", "1", "--trials", "100", "--max-m", "100"], 432),
])
def test_oracle_level_cap_is_checked_before_the_first_comparison(
        monkeypatch, capsys, flags, level):
    # the cases below the cap come first in the sweep, yet none is compared
    calls = []
    monkeypatch.setattr("moninf.oracle.jordan_type",
                        lambda *args, **kwargs: calls.append(args))
    assert main(["oracle", *flags]) == 1
    assert capsys.readouterr().err == \
        f"error: required field level {level} exceeds the cap 360\n"
    assert calls == []


def test_usage_errors_exit_1(capsys):
    assert main(["compute"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_out_of_memory_exits_1_without_a_traceback(monkeypatch, capsys):
    def exhausted(self):
        raise MemoryError

    monkeypatch.setattr(Report, "to_json", exhausted)
    assert main(["compute", SEXTIC, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory")
    assert "Traceback" not in captured.err
