"""Assembly of the monodromy at infinity from invariant data.

Inputs: the number of variables is n+1, the polynomial degree is d, the
zero set of the top-degree part is a hypersurface in P^n whose isolated
singularities are given as local models, and the equivariant defects
beta_s are given, derived from node positions, or enumerated.

The counting rules read the local monodromies T_i only through their
direct sum T and the total Milnor number, which fixes chi.
:class:`ProblemSpec` is the validated document: the (model, count) pairs
in input order, the total and chi.  Each assembler builds T once by
:func:`local_sum`, from one local monodromy per distinct germ, as the
integer tables of :data:`jordan.Tables` at a level L; zeta never does.
The assembled Jordan structure has two layers:

* at alpha = e^(2*pi*i*s/d), the slot of the d-th root s/d, with chi_s
  the global Euler-type invariant, the block counts are
      size 1:    chi_s + 2*beta_s - #(T)_alpha
      size 2:    -beta_s + #_1(T)_alpha
      size l+1:  #_l(T)_alpha             (l >= 2)
  and a negative count raises an error naming the violated bound.  The
  slots are indexed by s: T's table at r/L with L | r*d is read off T
  once as slot s = r*d/L;
* off the d-th roots, the base: T's blocks at alpha^(1-d) at alpha, that
  is the lift of conj(T), T's table at r put at -r mod L, to the
  (d-1)-th roots, streamed in root order by :func:`cyclo.lifts`.  It
  lands on a d-th root alpha only from T's blocks at alpha, which the
  slot replaces.  The lift of T itself gives the charpoly formula's
  det(x^(d-1) - T); neither power is built.

Each eigenvalue stays a residue, r at L or s at d, until it is written as
p/q from the gcd: a UnitRoot is made only for a structure, an error or a
block above the size limits.  The report's characteristic polynomial, of
the first vector or of the formula, is a :class:`cyclo.CharPoly`: the
(residue, dimension) pairs of conj(T) or T at L, m = d - 1 and the
exponents at the d-th roots, displayed by full Galois orbits read off T.
The zeta function of the top form is a CharPoly without pairs.

A slot's blocks depend only on its class, chi_s and T's table there, and
on beta_s, so they are built once per (class, beta_s) and each vector's
slots are read by one map over the class ids and beta.  The checks read
the base off T once and the slots as lists: the degree identity, the
block size limits, the bound check on beta, the local product formula
(claimed only when every germ's tables at r and -r mod L agree, judged
per germ, never on T), and the two-forms identity for zeta.  The
text renders each table of T, the base runs and the slot lines once; the
--json rows are streamed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, groupby, repeat
from math import gcd, lcm
from operator import add, gt, itemgetter, lt, ne
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .cyclic import lifted_runs
from .cyclo import CharPoly, UnitRoot, lifts, reduced_root
from .cyclo import mth_roots  # noqa: F401 -- perfbench/spans.py wraps this name
from .defect import ProjectivePointSet, nodal_beta
from .jordan import SLICE, JordanStructure, Rows, Runs, Tables
from .localsing import (
    BrieskornPham,
    OrdinaryNode,
    SingularityModel,
    local_monodromy,
    milnor_number,
    parse_singularity_counts,
)

DEFAULT_ENUMERATE_CAP = 1024

MAX_REPORT_ENTRIES = 10**8
"""Largest number of Jordan blocks and Milnor numbers a --json report
lists, and of Milnor numbers a text report lists."""

MAX_CHI_BITS = 14285
"""2^14285 > 10^4300, and by default Python prints no int of more than
4300 digits."""


class InstanceError(ValueError):
    """Invalid or inconsistent problem data (reported as input error)."""


@dataclass(frozen=True)
class GivenBeta:
    values: tuple[int, ...]


@dataclass(frozen=True)
class FromNodes:
    points: ProjectivePointSet


@dataclass(frozen=True)
class EnumerateBeta:
    pass


BetaSpec = Union[GivenBeta, FromNodes, EnumerateBeta]


def _check_size(n: int, d: int,
                counts: Iterable[tuple[SingularityModel, int]]) -> int:
    """Reject n or d below 2, d above MAX_REPORT_ENTRIES, n and d that
    make chi too large to print, and (model, count) pairs whose total
    Milnor number exceeds (d-1)^(n+1); return that total."""
    if not isinstance(n, int) or n < 2:
        raise InstanceError("n must be >= 2")
    if not isinstance(d, int) or d < 2:
        raise InstanceError("d must be >= 2")
    if d > MAX_REPORT_ENTRIES:
        raise InstanceError(
            f"d = {d} is above the limit of {MAX_REPORT_ENTRIES}: every "
            "report lists the d entries of chi")
    total_mu = sum(count * milnor_number(model) for model, count in counts)
    # ((d-1)^(n+1) + (-1)^n)/d >= 2^((n+1)(bitlen(d-1) - 1) - bitlen(d))
    # = 2^(bits+1), so total_mu < 2^(bits-1) makes every chi_s >= 2^bits;
    # decided from bit lengths, before the power is formed
    bits = (n + 1) * ((d - 1).bit_length() - 1) - d.bit_length() - 1
    if bits >= MAX_CHI_BITS and total_mu.bit_length() < bits:
        raise InstanceError(
            f"n = {n} and d = {d} give |chi_s| >= 2^{bits}, a number of "
            "more than 4300 digits; no report can print it")
    space = (d - 1) ** (n + 1)
    if total_mu > space:
        raise InstanceError(
            f"total local Milnor number {total_mu} exceeds "
            f"(d-1)^(n+1) = {space}; no such hypersurface data")
    return total_mu


@dataclass(frozen=True)
class ProblemSpec:
    n: int
    d: int
    # (model, count) pairs in input order; repeated models are not merged
    singularities: tuple[tuple[SingularityModel, int], ...]
    beta: BetaSpec
    # the sum of count * mu over the pairs, and the d invariants chi_s
    total_mu: int = field(init=False, repr=False, compare=False)
    chi: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pairs = tuple(self.singularities)
        object.__setattr__(self, "singularities", pairs)
        total_mu = _check_size(self.n, self.d, pairs)
        for model, _ in pairs:
            if isinstance(model, BrieskornPham) and len(model.exponents) != self.n:
                raise InstanceError(f"Brieskorn-Pham model has {len(model.exponents)} "
                                    f"exponents, expected {self.n}")
        object.__setattr__(self, "total_mu", total_mu)
        object.__setattr__(self, "chi",
                           tuple(chi_vector(self.n, self.d, total_mu)))
        beta = self.beta
        if isinstance(beta, GivenBeta):
            values = tuple(beta.values)
            if len(values) != self.d:
                raise InstanceError(
                    f"beta must have exactly d = {self.d} entries, got {len(values)}")
            for s, value in enumerate(values):
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    raise InstanceError(
                        f"beta[{s}] must be a nonnegative integer, got {value!r}")
            for s in range(1, self.d):
                if values[s] != values[self.d - s]:
                    raise InstanceError(
                        f"beta symmetry violated: beta[{s}] = {values[s]} but "
                        f"beta[{self.d - s}] = {values[self.d - s]} "
                        "(beta[s] must equal beta[d-s])")
        elif isinstance(beta, FromNodes):
            if any(not isinstance(m, OrdinaryNode) for m, _ in pairs):
                raise InstanceError("FromNodes with non-node singularity")
            if beta.points.dim != self.n:
                raise InstanceError(
                    f"node points live in P^{beta.points.dim}, expected P^{self.n}")
            nodes = sum(count for _, count in pairs)
            if len(beta.points) != nodes:
                raise InstanceError(
                    f"from_nodes needs exactly one point per node: "
                    f"{nodes} nodes but {len(beta.points)} points")
        elif not isinstance(beta, EnumerateBeta):
            raise InstanceError(f"unknown beta specification {beta!r}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "not_applicable"
    detail: str

    def to_json(self) -> dict[str, str]:
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass(frozen=True)
class BetaEntry:
    beta: tuple[int, ...]
    checks: tuple[CheckResult, ...]
    # the layers every vector of one assembly shares, not part of its value
    assembler: _Assembler = field(repr=False, compare=False)

    @property
    def jordan(self) -> JordanStructure:
        """The assembled structure, streamed from T and the shared slots on
        each read, so that a report keeps O(d) per vector."""
        return self.assembler.structure(self.beta)


@dataclass(frozen=True)
class Report:
    n: int
    d: int
    mu: tuple[tuple[int, int], ...]  # (Milnor number, count) per input entry
    chi: tuple[int, ...]
    mode: str
    entries: tuple[BetaEntry, ...]
    truncated: bool
    charpoly: CharPoly | None
    zeta: CharPoly
    checks: tuple[CheckResult, ...]

    @property
    def total_mu(self) -> int:
        return sum(mu * count for mu, count in self.mu)

    @property
    def total_dim(self) -> int:
        return (self.d - 1) ** (self.n + 1) - self.total_mu

    def all_checks(self) -> list[tuple[tuple[int, ...] | None, CheckResult]]:
        out: list[tuple[tuple[int, ...] | None, CheckResult]] = [
            (None, check) for check in self.checks]
        for entry in self.entries:
            out.extend((entry.beta, check) for check in entry.checks)
        return out

    def has_failures(self) -> bool:
        return any(check.status == "fail" for _, check in self.all_checks())

    def to_json(self) -> dict[str, object]:
        """The --json document; mu and chi are Runs, each vector's table a Rows
        made as it is written.  Raises InstanceError when they would list
        more than MAX_REPORT_ENTRIES numbers, counted in closed form from T
        and the slots."""
        listed_mu = sum(count for _, count in self.mu)
        entries = listed_mu + sum(entry.assembler.block_count(entry.beta)
                                  for entry in self.entries)
        if entries > MAX_REPORT_ENTRIES:
            # the text report lists mu too, so it helps only when mu fits
            hint = ("; the text report gives the same blocks as counts"
                    if listed_mu <= MAX_REPORT_ENTRIES else "")
            raise InstanceError(
                f"the --json report would list {entries} Jordan blocks and "
                f"Milnor numbers, above the limit of {MAX_REPORT_ENTRIES}"
                + hint)
        beta_used: list = [list(entry.beta) for entry in self.entries]
        jordan: list = [Rows(partial(entry.assembler.rows, entry.beta))
                        for entry in self.entries]
        single = self.mode in ("given", "from_nodes")
        if single:
            beta_used, jordan = beta_used[0], jordan[0]
        checks = [check.to_json() | ({} if beta is None or single else
                                     {"beta": list(beta)})
                  for beta, check in self.all_checks()]
        return {
            "n": self.n,
            "d": self.d,
            "mu": Runs(self.mu),
            "total_dim": self.total_dim,
            "chi": chi_runs(self.chi),
            "mode": self.mode,
            "beta_used": beta_used,
            "jordan": jordan,
            "charpoly": None if self.charpoly is None else self.charpoly.to_json(),
            "charpoly_display": None if self.charpoly is None else str(self.charpoly),
            "zeta": self.zeta.to_json(),
            "zeta_display": str(self.zeta),
            "checks": checks,
            "truncated": self.truncated,
        }

    def text_chunks(self) -> Iterator[str]:
        """The text report, in pieces: blocks are counts, mu lists every
        copy.  Raises InstanceError when mu has more than
        MAX_REPORT_ENTRIES entries; that check runs on the call, so before
        the first piece is asked for."""
        listed = sum(count for _, count in self.mu)
        if listed > MAX_REPORT_ENTRIES:
            raise InstanceError(
                f"the text report would list {listed} Milnor numbers, "
                f"above the limit of {MAX_REPORT_ENTRIES}")
        return self._text_pieces()

    def _text_pieces(self) -> Iterator[str]:
        # pieces: slices of mu, chi and each vector's lines, then the checks
        yield (f"monodromy at infinity: n = {self.n}, d = {self.d}\n"
               "local Milnor numbers: [")
        yield from Runs(self.mu).joined(", ")
        yield (f"] (total {self.total_mu}); operator dimension "
               f"{self.total_dim}\nchi = [")
        yield from chi_runs(self.chi).joined(", ")
        yield (f"]\nbeta mode: "
               f"{self.mode}{' (truncated)' if self.truncated else ''}\n")
        labels = []
        for entry in self.entries:
            labels.append(str(list(entry.beta)))
            yield f"beta = {labels[-1]}\n"
            yield from entry.assembler.text(entry.beta)
        tail = ["no admissible beta vector\n"] if not self.entries else []
        if self.charpoly is not None:
            tail.append(f"char poly: {self.charpoly}\n")
        tail.append(f"zeta of top form: {self.zeta}\nchecks:\n")
        tail.extend(_check_line(check, "") for check in self.checks)
        yield "".join(tail)
        many = len(self.entries) > 1
        for label, entry in zip(labels, self.entries):
            where = f" [beta = {label}]" if many else ""
            yield "".join(_check_line(check, where) for check in entry.checks)


def chi_runs(chi: Sequence[int]) -> Runs:
    """chi as runs: it takes two values, so its text is string multiplication."""
    return Runs((value, len(list(group))) for value, group in groupby(chi))


def _check_line(check: CheckResult, where: str) -> str:
    return f"  [{check.status}] {check.name}{where}: {check.detail}\n"


def _top_form_exponent(n: int, d: int) -> int:
    """((-1)^n + (d-1)^(n+1)) / d, exact: (d-1)^(n+1) = (-1)^(n+1) mod d."""
    return ((-1) ** n + (d - 1) ** (n + 1)) // d


def chi_vector(n: int, d: int, total_mu: int) -> list[int]:
    """The d global invariants chi_s attached to the eigenvalues e^(2*pi*i*s/d)."""
    sign = (-1) ** n
    chi_0 = -total_mu + _top_form_exponent(n, d) - sign
    return [chi_0] + [chi_0 + sign] * (d - 1)


def local_sum(spec: ProblemSpec) -> tuple[Tables, bool]:
    """T, the direct sum of the local monodromies, as Tables at the lcm of
    the germs' levels from one local monodromy per distinct germ, and
    whether each germ's tables at r and -r mod L agree."""
    local = {model: local_monodromy(model, spec.n)
             for model in dict.fromkeys(model for model, _ in spec.singularities)}
    level = lcm(*(level for level, _ in local.values()))
    acc: dict[int, dict[int, int]] = {}
    for model, count in spec.singularities:
        at_level, tables = local[model]
        for r, table in tables.items():
            at = acc.setdefault(r * (level // at_level), {})
            for size, number in table.items():
                at[size] = at.get(size, 0) + count * number
    # each merged table is popped as its sorted copy is made
    t = level, {r: dict(sorted(acc.pop(r).items(), reverse=True)) for r in sorted(acc)}
    return t, all(tables.get(-r % at_level) == table for at_level, tables
                  in local.values() for r, table in tables.items())


def _slot_tables(t: Tables, d: int) -> dict[int, Mapping[int, int]]:
    """T's size -> count table at each d-th root s/d where it has one, by
    s, read off T once: r/L with L | r*d is the slot s = r*d/L."""
    level, tables = t
    return {r * d // level: table for r, table in tables.items()
            if r * d % level == 0}


def beta_bounds(spec: ProblemSpec) -> list[tuple[int, int]]:
    """Admissible range of every beta_s, s = 0..d-1: the block counts at
    alpha = e^(2*pi*i*s/d) stay >= 0.

    lower = max(0, ceil((#(T)_alpha - chi_s) / 2)), from the size-1 count;
    upper = #_1(T)_alpha, from the size-2 count.  Slots of one class share
    one tuple.
    """
    return _Assembler(spec).bounds()


def _dim(table: Mapping[int, int]) -> int:
    return sum(size * count for size, count in table.items())


# a cell, a slot at one beta_s: its size -> count table (empty without blocks),
# dimension, block count, line (a format of its p and q), beta_s within bounds
_TABLE, _DIM, _BLOCKS, _LINE, _WITHIN = map(itemgetter, range(5))


class _Assembler(dict):
    """The assembled operator as a function of beta.

    It keeps T, its symmetry flag (local_sum) and its tables by slot.
    The base is streamed from conj(T), the residues -r mod L in order
    with T's tables at r, on each read, and what the checks need of it
    is read off T's tables once.  ids[s] is the class of slot s, one per
    (chi_s, T's table there); chi_s is chi_{d-1} at every s but 0
    (chi_vector), so class 0 holds almost every slot.  The dict maps
    (class, beta_s) to its cell, or to None if a block count is negative,
    made on its first lookup.
    """

    def __init__(self, spec: ProblemSpec) -> None:
        super().__init__()
        self.t, self.symmetric = local_sum(spec)
        (level, tables), d, chi = self.t, spec.d, spec.chi
        slots = self.slots = _slot_tables(self.t, d)
        keys = {((), chi[-1]): 0}
        self.d, self.ids = d, [0] * d
        for s in {*compress(range(d), map(ne, chi, repeat(chi[-1]))), *slots}:
            items = tuple(slots.get(s, {}).items())
            self.ids[s] = keys.setdefault((items, chi[s]), len(keys))
        # per class: the shifted sizes (>= 3, decreasing), chi_s - #(T)_alpha,
        # #_1(T)_alpha and the bounds on beta_s (see beta_bounds)
        self.rules = []
        for items, chi_s in keys:
            free_1, ones = chi_s - sum(c for _, c in items), dict(items).get(1, 0)
            self.rules.append(({size + 1: c for size, c in items if size >= 2},
                               free_1, ones, (max(0, (1 - free_1) // 2), ones)))
        # conj(T) has T's table at r at -r mod L
        self.conj = [(k, tables[-k % level])
                     for k in sorted(-r % level for r in tables)]
        # r/L lifts to d - 1 roots, one of them a slot when (r/L)^d = 1
        copies = [(d - 1 - (r * d % level == 0), table)
                  for r, table in tables.items()]
        self.base_dim = sum(k * _dim(table) for k, table in copies)
        self.base_blocks = sum(k * sum(table.values()) for k, table in copies)
        self.step = max(1, SLICE // (1 + len(self.conj)))
        self.spans, self.cut, self.shown = [], [], ()  # see text

    def __missing__(self, key: tuple[int, int]) -> tuple | None:
        shifted, free_1, ones, (lower, upper) = self.rules[key[0]]
        value = key[1]
        count_1, count_2 = free_1 + 2 * value, ones - value
        cell = None
        if count_1 >= 0 and count_2 >= 0:
            table = dict(shifted)  # canonical order: the shifted sizes, 2, 1
            if count_2:
                table[2] = count_2
            if count_1:
                table[1] = count_1
            cell = (table, _dim(table), sum(table.values()),
                    f"  eigenvalue {{}}/{{}}: {_blocks_text(table)}\n" if table else "",
                    lower <= value <= upper)
        self[key] = cell
        return cell

    def bounds(self) -> list[tuple[int, int]]:  # see beta_bounds
        return list(map([rule[3] for rule in self.rules].__getitem__, self.ids))

    def at(self, beta: Sequence[int]) -> list[tuple]:
        """The cell of each slot at beta, by one map; raises at the first
        slot whose block count is negative."""
        cells = list(map(self.__getitem__, zip(self.ids, beta)))
        if all(cells):
            return cells
        s = cells.index(None)
        _, free_1, ones, (lower, upper) = self.rules[self.ids[s]]
        value = beta[s]
        size, count, side, bound = (
            (1, free_1 + 2 * value, "below the lower", lower)
            if free_1 + 2 * value < 0 else (2, ones - value, "above the upper", upper))
        raise InstanceError(
            f"negative block count: {count} blocks of size {size} at eigenvalue "
            f"{reduced_root(s, self.d)}; beta[{s}] = {value} is "
            f"{side} bound {bound} (admissible range {lower}..{upper})")

    def rows(self, beta: Sequence[int]) -> Iterator[tuple[int, int, Runs]]:
        """(p, q, Runs of its sizes) for each eigenvalue p/q in root order
        at beta, the lifts of one eigenvalue of conj(T) sharing its Runs."""
        d = self.d
        runs = lifted_runs(self.t[0], [(k, Runs(table.items()))
                                       for k, table in self.conj], d - 1)
        for s, table in enumerate(map(_TABLE, self.at(beta))):
            yield from next(runs)
            if table:
                g = gcd(s, d)
                yield s // g, d // g, Runs(table.items())
        yield from next(runs)

    def structure(self, beta: Sequence[int]) -> JordanStructure:
        return JordanStructure((reduced_root(p, q), dict(blocks.pairs))
                               for p, q, blocks in self.rows(beta))

    def block_count(self, beta: Sequence[int]) -> int:
        return self.base_blocks + sum(map(_BLOCKS, self.at(beta)))

    def text(self, beta: Sequence[int]) -> Iterator[str]:
        """One line per eigenvalue of the structure at beta, in root order,
        in pieces of about SLICE lines, or one line for the empty
        operator.  spans[0] is the base run before slot 0, spans[s + 1] slot
        s's line (its first cut[s + 1] characters) and the run after it,
        made for the first vector and patched where a later beta differs."""
        d, spans, cut = self.d, self.spans, self.cut

        def line(s: int) -> str:  # "" without blocks
            g = gcd(s, d)
            return _LINE(self[self.ids[s], beta[s]]).format(s // g, d // g)
        if not spans:
            runs = ("".join([f"  eigenvalue {p}/{q}: {text}\n"
                             for p, q, text in run])
                    for run in lifted_runs(self.t[0], [
                        (k, _blocks_text(table)) for k, table in self.conj], d - 1))
            lines = [""] + list(map(line, range(d)))
            cut += map(len, lines)
            spans += map(add, lines, runs)
        for s in compress(range(d), map(ne, beta, self.shown)):
            text = line(s)
            spans[s + 1], cut[s + 1] = text + spans[s + 1][cut[s + 1]:], len(text)
        self.shown = beta
        empty = True
        for a in range(0, d + 1, self.step):
            piece = "".join(spans[a:a + self.step])
            empty = empty and not piece
            yield piece
        if empty:
            yield "  empty operator (dimension 0)\n"


def _blocks_text(table: Mapping[int, int]) -> str:
    return ", ".join([f"{count} x size {size}" for size, count in table.items()])


def _formula_at_roots(zeta: CharPoly, slots: Mapping, d: int) -> list[int]:
    """The exponents of zeta * det(x^(d-1) - T) at s/d, s = 0..d-1: zeta's
    plus T's multiplicity at conj(s/d) = (d - s)/d, read off T's slots.  The
    exponents off the d-th roots are positive; raise when one is negative."""
    exps = list(zeta.at)
    for s, table in slots.items():
        exps[-s] += _dim(table)
    bad = ", ".join(str(reduced_root(s, d))
                    for s in compress(range(d), map(gt, repeat(0), exps)))
    if bad:
        raise InstanceError(
            "non-polynomial result: the local product formula leaves negative "
            f"exponents at {bad}; local data admits no consistent operator")
    return exps


def charpoly_local_formula(zeta: CharPoly, t: Tables, d: int,
                           at: list[int] | None = None) -> CharPoly:
    """Characteristic polynomial of the assembled operator, from local data:
    zeta * det(x^(d-1) * Id - T), zeta being :func:`zeta_of_top_form`, with
    the exponents at the d-th roots taken from at when given.  Raises when
    one is negative: no actual hypersurface has such local data."""
    return CharPoly(t[0], [(r, _dim(table)) for r, table in t[1].items()],
                    d - 1, at or _formula_at_roots(zeta, _slot_tables(t, d), d))


def zeta_of_top_form(spec: ProblemSpec) -> CharPoly:
    """Zeta function of the degree-d top form, by its exponents at the d-th
    roots:

    (x - 1)^((-1)^(n+1)) * (x^d - 1)^(((d-1)^(n+1) + (-1)^n)/d - sum mu_i).
    :func:`check_zeta_two_forms` compares it with the product over chi.
    """
    n, d = spec.n, spec.d
    exponent = _top_form_exponent(n, d) - spec.total_mu
    return CharPoly(1, [], d - 1, [exponent - (-1) ** n] + [exponent] * (d - 1))


def check_zeta_two_forms(zeta: CharPoly, chi: Sequence[int]) -> CheckResult:
    """Compare the (x^d - 1) form of the zeta function with
    prod_s (x - e^(2*pi*i*s/d))^(chi_s), exponent by exponent at the
    d-th roots as integers; the product is shown only on a failure."""
    if zeta.at == list(chi):
        return CheckResult(
            "zeta_two_forms", "pass",
            "both closed forms of the zeta function agree: " + str(zeta))
    return CheckResult(
        "zeta_two_forms", "fail",
        f"the (x^d - 1) form gives {zeta}, "
        f"the product over chi gives {CharPoly(1, [], len(chi) - 1, list(chi))}")


def check_block_size_limits(pieces: Iterable[tuple[UnitRoot, Mapping[int, int]]],
                            n: int, d: int) -> CheckResult:
    """No block may exceed size n+1; size n+1 only at alpha^d = 1, alpha != 1.

    pieces are (eigenvalue, size -> count) pairs in root order, sizes
    decreasing: a structure's items, or the pieces of one that can break
    the limits.
    """
    problems = []
    for root, table in pieces:
        for size, count in table.items():
            if size <= n:
                break  # the sizes decrease
            if size >= n + 2:
                problems.append(
                    f"{count} blocks of size {size} at eigenvalue {root} "
                    f"exceed the maximum size n+1 = {n + 1}")
            elif d % root.den or root.den == 1:
                problems.append(
                    f"{count} blocks of size {n + 1} at eigenvalue {root}; "
                    "size n+1 is only allowed at nontrivial d-th roots of "
                    "unity")
    if problems:
        return CheckResult("block_size_limits", "fail", "; ".join(problems))
    return CheckResult(
        "block_size_limits", "pass",
        f"all blocks within the size limits for n = {n}, d = {d}")


def _resolve_beta(spec: ProblemSpec, assembler: _Assembler,
                  cap: int) -> tuple[str, list[tuple[int, ...]], bool]:
    beta = spec.beta
    if isinstance(beta, GivenBeta):
        return "given", [tuple(beta.values)], False
    if isinstance(beta, FromNodes):
        vector = nodal_beta(beta.points, spec.n, spec.d)
        return "from_nodes", [tuple(vector)], False
    d, ids = spec.d, assembler.ids
    # beta[s] = beta[d - s], so slot s takes the range that both classes admit
    mirror = ids[:1] + ids[:0:-1]
    lo, up = map(list, zip(*assembler.bounds()))
    for s in compress(range(d), map(ne, ids, mirror)):
        lo[s], up[s] = max(lo[s], lo[-s]), min(up[s], up[-s])
    if any(map(gt, lo, up)):
        return "enumerate", [], False
    # only the slots s <= d/2 whose range holds more than one value vary
    free = list(compress(range(d // 2 + 1), map(lt, lo, up)))
    combos = itertools.product(*(range(lo[s], up[s] + 1) for s in free))
    vectors = []
    for combo in itertools.islice(combos, cap):
        for s, value in zip(free, combo):
            lo[s] = lo[-s] = value
        vectors.append(tuple(lo))
    return "enumerate", vectors, next(combos, None) is not None


def assemble(spec: ProblemSpec, *,
             enumerate_cap: int = DEFAULT_ENUMERATE_CAP) -> Report:
    """Compute the Jordan structure(s) of the monodromy at infinity."""
    if enumerate_cap < 1:
        raise InstanceError(f"enumerate cap must be >= 1, got {enumerate_cap}")
    assembler = _Assembler(spec)
    n, d, t = spec.n, spec.d, assembler.t
    mode, vectors, truncated = _resolve_beta(spec, assembler, enumerate_cap)
    zeta = zeta_of_top_form(spec)
    try:
        formula_at, formula_error = _formula_at_roots(zeta, assembler.slots, d), ""
    except InstanceError as exc:
        formula_at, formula_error = None, str(exc)
    expected_dim = (d - 1) ** (n + 1) - spec.total_mu
    # the block size limits and, unless a vector's multiplicities differ,
    # the product formula give every vector the same check; the limits read
    # the pieces with a block above size n (>= 2) in root order: the lifts
    # of such tables of conj(T) that miss the slots, and the slots' sizes
    over = [(k, table) for k, table in assembler.conj if next(iter(table)) > n]
    pieces = [(reduced_root(p, q), table)
              for p, q, table in lifts(t[0], over, d - 1) if d % q]
    shifted = {s: assembler.rules[assembler.ids[s]][0] for s in assembler.slots}
    pieces += [(reduced_root(s, d), table) for s, table in shifted.items()
               if next(iter(table), 0) > n]
    limits = check_block_size_limits(sorted(pieces, key=itemgetter(0)), n, d)
    if not assembler.symmetric:
        formula = CheckResult(
            "charpoly_local_formula", "not_applicable",
            "local spectra are not conjugation-symmetric, so the local product "
            "formula need not match the assembled operator; assembly used the "
            "stated counting rules unchanged")
    elif formula_at is None:
        formula = CheckResult("charpoly_local_formula", "fail", formula_error)
    else:
        formula = CheckResult(
            "charpoly_local_formula", "pass",
            "product formula matches the assembled characteristic polynomial")
    entries = []
    for beta in vectors:
        cells = assembler.at(beta)
        dims = list(map(_DIM, cells))
        got_dim = assembler.base_dim + sum(dims)
        checks = [CheckResult(
            "degree_identity",
            "pass" if got_dim == expected_dim else "fail",
            f"operator dimension {got_dim}, expected "
            f"(d-1)^(n+1) - total mu = {expected_dim}"), limits]
        outside = [] if all(map(_WITHIN, cells)) else [
            f"beta[{s}] = {value} outside {lo}..{up}"
            for s, (value, (lo, up)) in enumerate(zip(beta, assembler.bounds()))
            if not lo <= value <= up]
        checks.append(CheckResult(
            "beta_within_bounds", "fail" if outside else "pass",
            "; ".join(outside) or "every beta[s] lies within its bounds"))
        checks.append(formula if formula.status != "pass" or
                      dims == formula_at else CheckResult(
            "charpoly_local_formula", "fail",
            f"product formula gives {charpoly_local_formula(zeta, t, d, formula_at)}, "
            f"assembled operator has {assembler.structure(beta).char_poly()}"))
        entries.append(BetaEntry(beta, tuple(checks), assembler))
    if vectors:
        charpoly = CharPoly(
            t[0], [(k, _dim(table)) for k, table in assembler.conj], d - 1,
            list(map(_DIM, assembler.at(vectors[0]))))
    else:
        charpoly = None if formula_at is None else \
            charpoly_local_formula(zeta, t, d, formula_at)
    return Report(
        n=n,
        d=d,
        mu=tuple((milnor_number(model), count)
                 for model, count in spec.singularities),
        chi=spec.chi,
        mode=mode,
        entries=tuple(entries),
        truncated=truncated,
        charpoly=charpoly,
        zeta=zeta,
        checks=(check_zeta_two_forms(zeta, spec.chi),),
    )


def parse_problem(data: object) -> ProblemSpec:
    """Parse and validate an instance document (strict schema)."""
    if not isinstance(data, dict):
        raise InstanceError("instance must be a JSON object")
    required = {"n", "d", "singularities", "beta"}
    missing = required - set(data)
    unknown = set(data) - required
    if missing:
        raise InstanceError(f"missing fields: {', '.join(sorted(missing))}")
    if unknown:
        raise InstanceError(f"unknown fields: {', '.join(sorted(unknown))}")
    n, d = data["n"], data["d"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InstanceError("n must be an integer")
    if not isinstance(d, int) or isinstance(d, bool):
        raise InstanceError("d must be an integer")
    try:
        counts = parse_singularity_counts(data["singularities"])
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc
    beta_data = data["beta"]
    if not isinstance(beta_data, dict):
        raise InstanceError("'beta' must be an object with a 'mode' field")
    mode = beta_data.get("mode")
    beta: BetaSpec
    if mode == "given":
        if set(beta_data) != {"mode", "values"}:
            raise InstanceError(
                "beta mode 'given' takes exactly the fields 'mode' and 'values'")
        values = beta_data["values"]
        if not isinstance(values, list):
            raise InstanceError("beta values must be a list of integers")
        beta = GivenBeta(tuple(values))
    elif mode == "from_nodes":
        if set(beta_data) != {"mode", "points"}:
            raise InstanceError(
                "beta mode 'from_nodes' takes exactly the fields 'mode' and 'points'")
        if not isinstance(n, int) or n < 2:
            raise InstanceError("n must be >= 2")
        try:
            points = ProjectivePointSet.from_json(beta_data["points"], dim=n)
        except ValueError as exc:
            raise InstanceError(str(exc)) from exc
        beta = FromNodes(points)
    elif mode == "enumerate":
        if set(beta_data) != {"mode"}:
            raise InstanceError("beta mode 'enumerate' takes only the field 'mode'")
        beta = EnumerateBeta()
    else:
        raise InstanceError(
            f"beta mode must be 'given', 'from_nodes' or 'enumerate', got {mode!r}")
    try:
        return ProblemSpec(n, d, tuple(counts), beta)
    except ValueError as exc:
        if isinstance(exc, InstanceError):
            raise
        raise InstanceError(str(exc)) from exc
