"""Instance documents, valid and mutated, through the command line.

Properties:
- `compute`, `bounds` and `zeta` exit 0, 1 or 2 on any document and never
  raise; exit 1 comes with an `error:` line and no report;
- a document with only node and Brieskorn-Pham germs is rejected (exit 1)
  or passes every check;
- the Jordan data of a `compute --json` report reads back unchanged;
- splitting an entry of count k into k adjacent entries of count 1 leaves
  the `compute` report alone: only rendering lists the copies.

n <= 3 and d <= 6 keep every report small, so each example runs in
milliseconds.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from moninf.cli import main  # noqa: E402
from moninf.jordan import JordanStructure  # noqa: E402

ROOTS = ("0/1", "1/2", "1/3", "2/3", "1/4", "3/4", "1/6", "5/6")
COMMANDS = (("compute", "--enumerate-cap", "4"), ("bounds",), ("zeta",))
COMPUTE_TEXT = COMMANDS[0]
COMPUTE_JSON = (*COMPUTE_TEXT, "--json")
# any JSON value; ints stay small so that a mutated n or d keeps the
# operator small (an oversized count is a mutation of its own)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(workdir, command: tuple[str, ...], doc: object) -> tuple[int, str, str]:
    path = workdir / "instance.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(path), *command[1:]])
    return code, out.getvalue(), err.getvalue()


@st.composite
def _germs(draw, n: int, kinds: tuple[str, ...]) -> dict:
    kind = draw(st.sampled_from(kinds))
    entry: dict = {"type": kind}
    if kind == "brieskorn":
        entry["exponents"] = draw(
            st.lists(st.integers(2, 4), min_size=n, max_size=n))
    elif kind == "explicit":
        table = draw(st.dictionaries(
            st.sampled_from(ROOTS),
            st.lists(st.integers(1, n), min_size=1, max_size=2),
            min_size=1, max_size=3))
        entry["jordan"] = [{"eigenvalue": root,
                            "blocks": sorted(sizes, reverse=True)}
                           for root, sizes in table.items()]
    count = draw(st.none() | st.integers(1, 4))
    if count is not None:
        entry["count"] = count
    return entry


@st.composite
def _documents(draw, kinds: tuple[str, ...] = ("node", "brieskorn", "explicit")
               ) -> dict:
    n, d = draw(st.integers(2, 3)), draw(st.integers(2, 6))
    singularities = draw(st.lists(_germs(n, kinds), max_size=3))
    modes = ["enumerate", "given"]
    if all(entry["type"] == "node" for entry in singularities):
        modes.append("from_nodes")
    mode = draw(st.sampled_from(modes))
    if mode == "given":
        half = draw(st.lists(st.integers(0, 3),
                             min_size=d // 2 + 1, max_size=d // 2 + 1))
        beta = {"mode": mode, "values": [half[min(s, d - s)] for s in range(d)]}
    elif mode == "from_nodes":
        nodes = sum(entry.get("count", 1) for entry in singularities)
        point = st.lists(st.integers(-3, 3), min_size=n + 1,
                         max_size=n + 1).filter(any)
        beta = {"mode": mode, "points": draw(
            st.lists(point, min_size=nodes, max_size=nodes))}
    else:
        beta = {"mode": mode}
    return {"n": n, "d": d, "singularities": singularities, "beta": beta}


def _containers(node: object) -> list:
    if isinstance(node, dict):
        children = list(node.values())
    elif isinstance(node, list):
        children = node
    else:
        return []
    return [node] + [c for child in children for c in _containers(child)]


@st.composite
def _mutated(draw) -> dict:
    """A valid document with one or two keys or items deleted or replaced,
    and maybe a count above every (d-1)^(n+1) these documents reach."""
    doc = draw(_documents())
    if doc["singularities"] and draw(st.booleans()):
        entry = draw(st.sampled_from(doc["singularities"]))
        entry["count"] = 10**6
    for _ in range(draw(st.integers(1, 2))):
        target = draw(st.sampled_from(_containers(doc)))
        if isinstance(target, dict):
            keys = list(target)
            if keys and draw(st.booleans()):
                del target[draw(st.sampled_from(keys))]
            else:
                key = draw(st.sampled_from(keys) | st.text(max_size=6)
                           if keys else st.text(max_size=6))
                target[key] = draw(JSON_VALUES)
        else:
            index = draw(st.integers(0, len(target)))
            if index < len(target) and draw(st.booleans()):
                del target[index]
            else:
                target[index:index + 1] = [draw(JSON_VALUES)]
    return doc


@settings(max_examples=60, deadline=None)
@given(doc=_documents() | _mutated() | JSON_VALUES,
       formats=st.lists(st.sampled_from(((), ("--json",))),
                        min_size=3, max_size=3))
def test_every_document_exits_0_1_or_2(workdir, doc, formats):
    for command in (base + flags for base, flags in zip(COMMANDS, formats)):
        code, out, err = _run(workdir, command, doc)
        assert code in (0, 1, 2), (command, doc)
        if code == 1:
            assert out == "" and err.startswith("error: "), (command, doc)
        else:
            assert out and err == "", (command, doc)


@settings(max_examples=50, deadline=None)
@given(doc=_documents(kinds=("node", "brieskorn")))
def test_node_and_brieskorn_documents_pass_or_are_rejected(workdir, doc):
    code, out, err = _run(workdir, COMPUTE_JSON, doc)
    assert code in (0, 1), err
    if code == 0:
        statuses = {check["status"] for check in json.loads(out)["checks"]}
        assert statuses <= {"pass", "not_applicable"}


@settings(max_examples=50, deadline=None)
@given(doc=_documents())
def test_reported_jordan_data_reads_back(workdir, doc):
    code, out, _ = _run(workdir, COMPUTE_JSON, doc)
    if code == 1:
        return
    report = json.loads(out)
    tables = report["jordan"] if report["mode"] == "enumerate" \
        else [report["jordan"]]
    for table in tables:
        assert JordanStructure.from_json(table).to_json() == table


@settings(max_examples=40, deadline=None)
@given(doc=_documents(), data=st.data())
def test_splitting_an_entry_into_copies_keeps_the_report(workdir, doc, data):
    entries = doc["singularities"]
    assume(entries)
    index = data.draw(st.integers(0, len(entries) - 1))
    count = data.draw(st.integers(2, 4))
    entries[index]["count"] = count
    one = {key: value for key, value in entries[index].items() if key != "count"}
    split = dict(doc, singularities=entries[:index] + [one] * count
                 + entries[index + 1:])
    for command in (COMPUTE_JSON, COMPUTE_TEXT):
        assert _run(workdir, command, split) == _run(workdir, command, doc)
