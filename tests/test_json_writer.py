"""The streaming --json writer against json.dumps(indent=2, sort_keys=True)."""

from __future__ import annotations

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from moninf.cli import _json_chunks  # noqa: E402
from moninf.cyclo import UnitRoot  # noqa: E402
from moninf.jordan import SLICE, Rows, Runs  # noqa: E402

# keys and strings that exercise every escape json.dumps makes
KEYS = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\n\té \U0001f600')
               | st.characters(), max_size=6)
INTS = st.integers() | st.integers(-2**100, 2**100) | \
    st.sampled_from([-2**63 - 1, -2**63, 2**63 - 1, 2**63, 2**64])
SCALARS = st.none() | st.booleans() | INTS | KEYS
# int lists around and past the join slice, built by repeating a short list
LONG_INT_LISTS = st.builds(
    lambda pattern, length: (pattern * length)[:length],
    st.lists(INTS, min_size=1, max_size=4),
    st.sampled_from([SLICE - 1, SLICE, SLICE + 1,
                     2 * SLICE + 1]))
LEAF_LISTS = st.lists(INTS) | st.lists(INTS | st.booleans()) | LONG_INT_LISTS
# runs of one count each, around and past the slice, several in one list
RUN_COUNTS = st.integers(0, 3) | st.sampled_from(
    [1, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 1])
RUNS = st.lists(st.tuples(INTS, RUN_COUNTS), max_size=4).map(Runs)
# Jordan table rows as the assembler streams them, each eigenvalue p/q in
# lowest terms: rows share Runs objects
ROOTS = st.builds(lambda den, num: UnitRoot(num, den),
                  st.integers(1, 12), st.integers(0, 11))
ROWS = st.builds(
    lambda picks, tables: Rows(lambda: [(root.num, root.den, tables[k])
                                        for root, k in picks]),
    st.lists(st.tuples(ROOTS, st.integers(0, 2)), max_size=6),
    st.lists(RUNS, min_size=3, max_size=3))


def _documents(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(KEYS, children, max_size=4))


DOCUMENTS = st.recursive(SCALARS | LEAF_LISTS | RUNS | ROWS, _documents,
                         max_leaves=12)


def _expanded(doc):
    """The document with every Runs replaced by its plain list."""
    if isinstance(doc, Runs):
        return list(doc)
    if isinstance(doc, Rows):
        return [{"eigenvalue": str(UnitRoot(p, q)), "blocks": list(blocks)}
                for p, q, blocks in doc.make()]
    if isinstance(doc, dict):
        return {key: _expanded(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(map(_expanded, doc))
    return doc


@given(DOCUMENTS)
def test_chunks_join_to_json_dumps(doc):
    chunks = list(_json_chunks(doc))
    # a bare flag: pytest's diff of two long texts would make each failing
    # call, and so hypothesis's shrinking, take seconds
    same = "".join(chunks) == json.dumps(_expanded(doc), indent=2,
                                         sort_keys=True)
    assert same
    # json.dumps escapes every newline inside a string, so a piece's
    # newlines count the list items it holds
    assert max(chunk.count("\n") for chunk in chunks) <= SLICE


def test_runs_are_lists_to_the_writer_only():
    runs = Runs([(3, 2), (3, 1), (2, 0), (1, 2)])
    assert runs.pairs == ((3, 3), (1, 2))
    assert runs == [3, 3, 3, 1, 1] and runs != [3, 3, 1, 1]
    assert Runs([]) == [] and not Runs([(5, 0)])
    with pytest.raises(TypeError):
        json.dumps(runs)
    with pytest.raises(TypeError):
        Runs([(True, 1)])
    # the sizes come one at a time, whatever the count
    assert next(iter(Runs([(7, 10**30)]))) == 7


def test_long_int_lists_are_written_in_bounded_chunks():
    doc = {"blocks": [1] * (10 * SLICE), "empty": [[], {}, [{}]]}
    chunks = list(_json_chunks(doc))
    assert "".join(chunks) == json.dumps(doc, indent=2, sort_keys=True)
    assert max(map(len, chunks)) <= SLICE * len(",\n    1")


@pytest.mark.parametrize("doc", [
    {1: "int key"},
    {"nested": [{None: 0}]},
    {"points": {1, 2}},
    [0, 1.5],
])
def test_unsupported_values_raise_type_error(doc):
    with pytest.raises(TypeError):
        "".join(_json_chunks(doc))
