"""Batch front end: instance files in, reports out.

Subcommands:
  compute   assemble the monodromy at infinity and run all checks
  bounds    admissible range table for the defect vector beta
  defect    linear-system defect of a rational point set
  zeta      zeta function of the top form
  oracle    cross-check the combinatorial power rule against matrix ranks

Exit codes: 0 success, 1 input error, 2 consistency-check failure.
With --json the output is machine-readable and byte-deterministic for
identical inputs, flags and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import chain, islice
from pathlib import Path

from .cyclic import cyclic_power
from .cyclo import ONE, UnitRoot, mth_roots, reduced_root
from .defect import ProjectivePointSet, defect_of_system, nodal_beta
from .infinity import (
    DEFAULT_ENUMERATE_CAP,
    InstanceError,
    assemble,
    beta_bounds,
    chi_runs,
    parse_problem,
    zeta_of_top_form,
)
from .jordan import SLICE, JordanStructure, Rows, Runs
from .oracle import SpectrumNotCovered, spectrum_level, verify_cyclic_agreement

# The oracle's limits, each checked for the whole sweep before its first
# comparison.  A strongly connected matrix of r rows costs about r^3: 256
# rows at field level 360 (a Jordan block of 128 at m = 2 sheared into one
# block) take about 2.7 s of CPU and 118 MB of peak RSS (2-CPU VM, Python
# 3.11).  A Jordan lift costs per m x m block: unsheared, that one 0.1 s.
DEFAULT_LEVEL_CAP = 360
MAX_ORACLE_ROWS = 256
MAX_EXHAUSTIVE_COMPARISONS = 10000


def _load_json(path: str) -> object:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise InstanceError(f"invalid JSON in {path}: nested too deeply") from exc


_encode_key = json.encoder.encode_basestring_ascii  # as json.dumps escapes


def _json_chunks(value: object, indent: str = "\n") -> Iterator[str]:
    """The text of json.dumps(value, indent=2, sort_keys=True), in pieces,
    with each Runs written as the list it expands to and each Rows as the
    list of {"blocks", "eigenvalue"} objects of its rows.

    Unlike json.dumps with an indent, which runs in pure Python and builds
    the whole text, escaping stays in C, lists and dicts of ints are
    joined in C and a run of k equal ints is one string multiplication.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value:
        keys = sorted(value)
        for key in keys:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        lead, sep = "{" + inner, "," + inner
        if all(type(value[key]) is int for key in keys):
            for start in range(0, len(keys), SLICE):
                yield lead + sep.join([f"{_encode_key(key)}: {value[key]}"
                                       for key in keys[start:start + SLICE]])
                lead = sep
        else:
            for key in keys:
                yield lead + _encode_key(key) + ": "
                yield from _json_chunks(value[key], inner)
                lead = sep
        yield indent + "}"
    elif isinstance(value, (list, tuple)) and value:
        lead, sep = "[" + inner, "," + inner
        if set(map(type, value)) == {int}:
            for start in range(0, len(value), SLICE):
                yield lead + sep.join(map(str, value[start:start + SLICE]))
                lead = sep
        else:
            for item in value:
                yield lead
                yield from _json_chunks(item, inner)
                lead = sep
        yield indent + "]"
    elif isinstance(value, Runs):
        if value:
            yield "[" + inner
            yield from value.joined("," + inner)
        yield indent + "]" if value else "[]"
    elif isinstance(value, Rows):
        # one piece per row; the text of each distinct list of at most
        # SLICE / 2 sizes is rendered once, a longer one every time
        cell, texts, lead = inner + "  ", {}, "[" + inner
        for p, q, blocks in value.make():
            text = texts.get(blocks.pairs)
            if text is None:
                text = "".join(_json_chunks(blocks, cell)) if sum(
                    count for _, count in blocks.pairs) <= SLICE // 2 else ""
                texts[blocks.pairs] = text
            tail = f',{cell}"eigenvalue": "{p}/{q}"{inner}}}'
            if text:
                yield f'{lead}{{{cell}"blocks": {text}{tail}'
            else:
                yield from chain([f'{lead}{{{cell}"blocks": '],
                                 _json_chunks(blocks, cell), [tail])
            lead = "," + inner
        yield "[]" if lead[0] == "[" else indent + "]"
    elif value is None or isinstance(value, (str, int, dict, list, tuple)):
        yield json.dumps(value)  # a scalar, or an empty container
    else:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _emit(args: argparse.Namespace, text: Iterable[str], doc: object) -> None:
    """Write the report to --output or stdout, piece by piece: the JSON of
    doc with --json, else the pieces of text.  A closed stdout is not an
    error."""
    chunks = chain(_json_chunks(doc), ["\n"]) if args.json else text
    if args.output:
        with open(args.output, "w") as out:
            out.writelines(chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`moninf ... | head`): send what is still
        # buffered to /dev/null, so the interpreter's final flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_compute(args: argparse.Namespace) -> int:
    spec = parse_problem(_load_json(args.instance))
    report = assemble(spec, enumerate_cap=args.enumerate_cap)
    # render only the format asked for; on a large report the other is costly
    if args.json:
        _emit(args, (), report.to_json())
    else:
        _emit(args, report.text_chunks(), None)
    return 2 if report.has_failures() else 0


def cmd_bounds(args: argparse.Namespace) -> int:
    spec = parse_problem(_load_json(args.instance))
    chi, bounds, d = chi_runs(spec.chi), beta_bounds(spec), spec.d
    # the slot lines, made from the bounds as written, SLICE a piece
    lines = (f"\n  s = {s} (eigenvalue {reduced_root(s, d)}): {low}..{up}"
             for s, (low, up) in enumerate(bounds))
    pieces = iter(lambda: "".join(islice(lines, SLICE)), "")
    text = chain([f"admissible beta ranges for n = {spec.n}, d = {d}\nchi = ["],
                 chi.joined(", "), ["]"], pieces, ["\n"])
    doc = {"n": spec.n, "d": d, "chi": chi, "bounds": [
        {"s": s, "eigenvalue": str(reduced_root(s, d)), "lower": low,
         "upper": up} for s, (low, up) in enumerate(bounds)]} if args.json else None
    _emit(args, text, doc)
    return 0


def cmd_zeta(args: argparse.Namespace) -> int:
    spec = parse_problem(_load_json(args.instance))
    zeta = zeta_of_top_form(spec)
    chi, shown = chi_runs(spec.chi), str(zeta)
    text = (f"zeta of the top form for n = {spec.n}, d = {spec.d}: {shown}\n"
            f"chi = [{''.join(chi.joined(', '))}]")
    doc = {"n": spec.n, "d": spec.d, "chi": chi,
           "zeta": zeta.to_json(), "zeta_display": shown}
    _emit(args, [text + "\n"], doc)
    return 0


def cmd_defect(args: argparse.Namespace) -> int:
    data = _load_json(args.points)
    if args.nodal is not None:
        n, d = args.nodal
        points = ProjectivePointSet.from_json(data, dim=n)
        beta = nodal_beta(points, n, d)
        text = f"beta = {beta}"
        doc = {"n": n, "d": d, "points": len(points), "beta": beta}
    else:
        points = ProjectivePointSet.from_json(data)
        value = defect_of_system(points, args.degree)
        text = (f"defect = {value} "
                f"(k = {len(points)} points, degree q = {args.degree})")
        doc = {"q": args.degree, "points": len(points), "defect": value}
    _emit(args, [text + "\n"], doc)
    return 0


@lru_cache(maxsize=None)
def _partitions(total: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    if max_part is None:
        max_part = total
    if total == 0:
        return ((),)
    out = []
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            out.append((first,) + rest)
    return tuple(out)


def _exhaustive_structures(roots: list[UnitRoot], max_dim: int):
    """Every Jordan structure of dimension 1..max_dim over the given roots."""
    def rec(idx: int, budget: int):
        if idx == len(roots):
            yield []
            return
        for weight in range(budget + 1):
            for part in _partitions(weight):
                for tail in rec(idx + 1, budget - weight):
                    head = [(roots[idx], {size: 1}) for size in part]
                    yield head + tail
    for blocks in rec(0, max_dim):
        if blocks:
            yield JordanStructure(blocks)


def _random_structure(rng: random.Random, max_dim: int,
                      orders: list[int]) -> JordanStructure:
    remaining = rng.randint(1, max_dim)
    blocks = []
    while remaining:
        size = rng.randint(1, remaining)
        den = rng.choice(orders)
        blocks.append((UnitRoot(rng.randrange(den), den), {size: 1}))
        remaining -= size
    return JordanStructure(blocks)


def cmd_oracle(args: argparse.Namespace) -> int:
    exhaustive = args.seed is None
    max_dim = args.max_dim if args.max_dim is not None else (4 if exhaustive else 6)
    max_m = args.max_m if args.max_m is not None else (3 if exhaustive else 5)
    if max_dim < 1 or max_m < 2 or args.trials < 1:
        raise InstanceError(
            "oracle needs --max-dim >= 1, --max-m >= 2 and --trials >= 1")

    def cases():
        # (structure, m) in sweep order, generated afresh on each call
        if exhaustive:
            for structure in _exhaustive_structures(mth_roots(ONE, 6), max_dim):
                for m in range(2, max_m + 1):
                    yield structure, m
        else:
            rng = random.Random(args.seed)
            for _ in range(args.trials):
                yield (_random_structure(rng, max_dim, [1, 2, 3, 4, 6, 12]),
                       rng.randint(2, max_m))
    # every case is checked against the limits before the first comparison
    comparisons = 0
    for structure, m in cases():
        level = m * spectrum_level(structure)
        if level > args.oracle_level_cap:
            raise InstanceError(f"required field level {level} exceeds "
                                f"the cap {args.oracle_level_cap}")
        rows = m * structure.total_dim
        if rows > MAX_ORACLE_ROWS:
            raise InstanceError(
                f"the case at m = {m} of dimension {structure.total_dim} "
                f"needs a matrix of {rows} rows, above the limit "
                f"{MAX_ORACLE_ROWS}")
        comparisons += 1
        if exhaustive and comparisons > MAX_EXHAUSTIVE_COMPARISONS:
            raise InstanceError(
                f"the exhaustive sweep (dimension <= {max_dim}, m in "
                f"2..{max_m}) has more than {MAX_EXHAUSTIVE_COMPARISONS} "
                f"comparisons, the limit")
    counterexamples = []
    for structure, m in cases():
        try:
            expected, actual = verify_cyclic_agreement(structure, m)
            error = None
        except SpectrumNotCovered as exc:
            expected, actual, error = cyclic_power(structure, m), None, str(exc)
        if actual is None or expected != actual:
            counterexamples.append({
                "m": m, "structure": structure.to_json(),
                "expected": expected.to_json(), "error": error,
                "actual": None if actual is None else actual.to_json()})
    sweep = (f"exhaustive sweep, {comparisons} comparisons" if exhaustive
             else f"{args.trials} random trials, seed {args.seed}")
    lines = [f"oracle: {sweep} (dimension <= {max_dim}, eigenvalue orders "
             f"dividing {6 if exhaustive else 12}, m in 2..{max_m})"]
    for row in counterexamples:
        # each structure's JSON form on one line, as json.dumps writes it
        one_line = {key: json.dumps(row[key], default=list)
                    for key in ("structure", "expected", "actual")}
        lines.append(f"counterexample at m = {row['m']}:")
        lines.append(f"  structure: {one_line['structure']}")
        lines.append(f"  combinatorial rule: {one_line['expected']}")
        if row["actual"] is not None:
            lines.append(f"  matrix ranks:       {one_line['actual']}")
        if row["error"] is not None:
            lines.append(f"  matrix route failed: {row['error']}")
    lines.append("all comparisons agree" if not counterexamples else
                 f"{len(counterexamples)} disagreements found")
    doc = {
        "mode": "exhaustive" if exhaustive else "random",
        "max_dim": max_dim,
        "max_m": max_m,
        "seed": args.seed,
        "trials": None if exhaustive else args.trials,
        "comparisons": comparisons,
        "counterexamples": counterexamples,
    }
    _emit(args, ["\n".join(lines) + "\n"], doc)
    return 2 if counterexamples else 0


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    parser.add_argument("--output", metavar="PATH",
                        help="write the report to PATH instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moninf",
        description="exact Jordan structure of the monodromy at infinity")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
            ("compute", cmd_compute, "assemble the operator and run all checks"),
            ("bounds", cmd_bounds, "admissible beta range table"),
            ("zeta", cmd_zeta, "zeta function of the top form")):
        p = sub.add_parser(name, help=text)
        p.add_argument("instance", help="instance JSON document")
        if func is cmd_compute:
            p.add_argument("--enumerate-cap", type=int, default=DEFAULT_ENUMERATE_CAP,
                           help="maximum number of beta vectors in enumerate mode")
        _add_output_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("defect",
                       help="defect of a linear system through rational points")
    p.add_argument("points", help="JSON list of projective points")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--degree", type=int, metavar="Q",
                       help="defect of the degree-Q system through the points")
    group.add_argument("--nodal", nargs=2, type=int, metavar=("N", "D"),
                       help="full beta vector for nodes in P^N, degree D")
    _add_output_flags(p)
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("oracle",
                       help="compare the power rule against matrix ranks")
    p.add_argument("--max-dim", type=int, default=None,
                   help="largest structure dimension (default 4, or 6 with --seed)")
    p.add_argument("--max-m", type=int, default=None,
                   help="largest power m (default 3, or 5 with --seed)")
    p.add_argument("--seed", type=int, default=None,
                   help="switch to seeded random trials")
    p.add_argument("--trials", type=int, default=100,
                   help="number of random trials (with --seed)")
    p.add_argument("--oracle-level-cap", type=int, default=DEFAULT_LEVEL_CAP,
                   metavar="N", help="largest cyclotomic field level allowed")
    _add_output_flags(p)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # usage errors are input errors (exit 2 is reserved for check failures)
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory: the instance is too large", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
