"""Assembly of the monodromy at infinity from invariant data.

Inputs: the number of variables is n+1, the polynomial degree is d, the
zero set of the top-degree part is a hypersurface in P^n whose isolated
singularities are given as local models, and the equivariant defects
beta_s are given, derived from node positions, or enumerated.

The counting rules read the local monodromies T_i only through their
direct sum T and the total Milnor number, which fixes chi.
:class:`ProblemSpec` keeps the (model, count) pairs in input order and
derives T, the total and chi once, with one local monodromy per distinct
germ.  The assembled Jordan structure has two layers:

* at alpha = e^(2*pi*i*s/d), the slot of the d-th root s/d, with chi_s
  the global Euler-type invariant, the block counts are
      size 1:    chi_s + 2*beta_s - #(T)_alpha
      size 2:    -beta_s + #_1(T)_alpha
      size l+1:  #_l(T)_alpha             (l >= 2)
  and a negative count raises an error naming the violated bound.  The
  slots are indexed by s: T's table at num/den with den | d is read off
  T once as slot s = num * (d / den), and a root is made only to be
  printed;
* off the d-th roots, the base: T's blocks at alpha^(1-d) at alpha, that
  is the lift of conj(T) to the (d-1)-th roots, streamed in root order
  by :func:`cyclic.lifts`.  It lands on a d-th root alpha only from T's
  blocks at alpha, which the slot replaces.  The lift of T itself gives
  the charpoly formula's det(x^(d-1) - T); neither power is built.

The report's characteristic polynomial, of the first vector or of the
formula, is a :class:`cyclo.CharPoly`: the (eigenvalue, dimension)
pairs of conj(T) or T, m = d - 1 and the exponents at the d-th roots.
Its display reads each full Galois orbit off T, and its JSON is made
only when a --json report is written, so a text report lifts the base
once.  The zeta function of the top form is a CharPoly without pairs.

beta changes only the slots, each built once per value of beta_s.  What
the checks need of the base is read off T once, so they cost O(d) per
vector: the degree identity, the block size limits, the bound check on
beta, the local product formula for the characteristic polynomial, and
the two-forms identity for the zeta function of the top form.  The
product formula is only claimed when every germ's spectrum is closed
under conjugation, judged per germ, never on T.  A report keeps each
vector's beta and checks; its text renders each table of T once and the
base runs between the slots once, and its --json rows are streamed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .cyclic import lifted_runs
from .cyclo import ONE, CharPoly, UnitRoot, reduced_root
from .cyclo import mth_roots  # noqa: F401 -- perfbench/spans.py wraps this name
from .defect import ProjectivePointSet, nodal_beta
from .jordan import JordanStructure, Rows, Runs
from .localsing import (
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

_MU_SLICE = 4096  # copies per piece of a run in the text report's mu list

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
    # T: the direct sum of the local monodromies, one per singularity
    local_sum: JordanStructure = field(init=False, repr=False, compare=False)
    # the sum of count * mu over the pairs, and the d invariants chi_s
    total_mu: int = field(init=False, repr=False, compare=False)
    chi: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # whether every distinct germ's spectrum is closed under conjugation
    locally_symmetric: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pairs = tuple(self.singularities)
        object.__setattr__(self, "singularities", pairs)
        total_mu = _check_size(self.n, self.d, pairs)
        local = {model: local_monodromy(model, self.n)
                 for model in dict.fromkeys(model for model, _ in pairs)}
        object.__setattr__(self, "local_sum", JordanStructure(
            (root, {size: count * number})
            for model, count in pairs
            for root, size, number in local[model].iter_blocks()))
        object.__setattr__(self, "total_mu", total_mu)
        object.__setattr__(self, "chi",
                           tuple(chi_vector(self.n, self.d, total_mu)))
        object.__setattr__(self, "locally_symmetric", all(
            t.is_conjugation_symmetric() for t in local.values()))
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
            if any(not isinstance(m, OrdinaryNode) for m in local):
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
    # the layers every vector of one assembly shares
    assembler: _Assembler = field(repr=False)

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
        """The --json document; mu is a Runs and each vector's table a Rows,
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
        checks = []
        for beta, check in self.all_checks():
            row = check.to_json()
            if beta is not None and not single:
                row["beta"] = list(beta)
            checks.append(row)
        return {
            "n": self.n,
            "d": self.d,
            "mu": Runs(self.mu),
            "total_dim": self.total_dim,
            "chi": list(self.chi),
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
        # one piece per slice of a run of mu, per beta vector and per
        # vector's checks; each vector's beta text is rendered once
        yield (f"monodromy at infinity: n = {self.n}, d = {self.d}\n"
               "local Milnor numbers: [")
        sep = ""
        for mu, count in self.mu:
            while count:
                take = min(count, _MU_SLICE)
                yield sep + f"{mu}, " * (take - 1) + str(mu)
                sep, count = ", ", count - take
        yield (f"] (total {self.total_mu}); operator dimension "
               f"{self.total_dim}\nchi = {list(self.chi)}\nbeta mode: "
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


def _slot_tables(t: JordanStructure, d: int) -> list[Mapping[int, int]]:
    """T's size -> count table at each d-th root s/d, s = 0..d-1, empty
    where T has none, read off T once: num/den with den | d is the slot
    s = num * (d / den)."""
    tables: list[Mapping[int, int]] = [{}] * d
    for x, table in t.items():
        if d % x.den == 0:
            tables[x.num * (d // x.den)] = table
    return tables


def beta_bounds(spec: ProblemSpec) -> list[tuple[int, int]]:
    """Admissible range of every beta_s, s = 0..d-1: the block counts at
    alpha = e^(2*pi*i*s/d) stay >= 0.

    lower = max(0, ceil((#(T)_alpha - chi_s) / 2)), from the size-1 count;
    upper = #_1(T)_alpha, from the size-2 count.
    """
    return [(max(0, (sum(table.values()) - chi_s + 1) // 2), table.get(1, 0))
            for table, chi_s in zip(_slot_tables(spec.local_sum, spec.d),
                                    spec.chi)]


def _dim(table: Mapping[int, int]) -> int:
    return sum(size * count for size, count in table.items())


class _Assembler:
    """The assembled operator as a function of beta.

    The base is streamed from conj(T) on each read, and what the checks
    need of it is read off T once.  The slot at the s-th root is built
    once per value of beta_s, so vectors with equal beta_s share its
    table; the text of the base runs between the slots, once per report.
    """

    def __init__(self, spec: ProblemSpec,
                 bounds: list[tuple[int, int]]) -> None:
        d, n, t, chi = spec.d, spec.n, spec.local_sum, spec.chi
        self.d, self.bounds = d, bounds
        items = list(t.items())
        # conjugation fixes 1 and reverses the angle order on (0, 1)
        head = items[:1] if items and items[0][0] == ONE else []
        self.conj = head + [(x.conjugate(), table)
                            for x, table in reversed(items[len(head):])]
        # x lifts to d - 1 roots, one of them a slot when x^d = 1
        copies = [(d - 1 - (d % x.den == 0), table) for x, table in items]
        self.base_dim = sum(k * _dim(table) for k, table in copies)
        self.base_blocks = sum(k * sum(table.values()) for k, table in copies)
        # per d-th root: its shifted sizes (>= 3, decreasing) and their
        # dimension, chi_s - #(T)_alpha and #_1(T)_alpha
        self.rules = []
        for table, chi_s in zip(_slot_tables(t, d), chi):
            shifted = {size + 1: count for size, count in table.items()
                       if size >= 2}
            self.rules.append((shifted, _dim(shifted),
                               chi_s - sum(table.values()), table.get(1, 0)))
        # the pieces with a block above size n, in root order, the same for
        # every beta as n >= 2: the lifts of such tables of T (lifted only
        # if there are any) and the slots' shifted sizes
        runs = lifted_runs(self.conj, d - 1) if any(
            next(iter(table)) > n for _, table in items) else iter([[]] * (d + 1))
        pieces = [piece for s, (shifted, *_) in enumerate(self.rules)
                  for piece in next(runs) + (
                      [(reduced_root(s, d), shifted)] if shifted else [])]
        self.limit_pieces = [(root, table) for root, table in pieces + next(runs)
                             if next(iter(table)) > n]
        self.parts: list[dict[int, tuple]] = [{} for _ in range(d)]
        self.lines: list[dict[int, str]] = [{} for _ in range(d)]
        self.run_text: list[str] = []

    def part(self, s: int, value: int) -> tuple[UnitRoot, dict[int, int], int]:
        """The s-th root, its table (empty when it has no blocks) and its
        multiplicity at beta_s = value."""
        parts = self.parts[s]
        if value in parts:
            return parts[value]
        shifted, shifted_dim, free_1, ones = self.rules[s]
        alpha = reduced_root(s, self.d)
        count_1 = free_1 + 2 * value
        count_2 = ones - value
        lower, upper = self.bounds[s]
        if count_1 < 0:
            raise InstanceError(
                f"negative block count: {count_1} blocks of size 1 at "
                f"eigenvalue {alpha}; beta[{s}] = {value} is below the "
                f"lower bound {lower} (admissible range {lower}..{upper})")
        if count_2 < 0:
            raise InstanceError(
                f"negative block count: {count_2} blocks of size 2 at "
                f"eigenvalue {alpha}; beta[{s}] = {value} is above the "
                f"upper bound {upper} (admissible range {lower}..{upper})")
        # canonical order: the shifted sizes (>= 3, decreasing), 2, 1
        table = dict(shifted)
        if count_2:
            table[2] = count_2
        if count_1:
            table[1] = count_1
        parts[value] = part = (alpha, table,
                               shifted_dim + 2 * count_2 + count_1)
        return part

    def _merged(self, payloads: list, beta: tuple[int, ...],
                slot: Callable) -> Iterator[tuple[UnitRoot, object]]:
        """(root, payload) in root order at beta: each lift of the base with
        the payload of its eigenvalue of conj(T), and slot(part) for each
        nonempty slot."""
        runs = lifted_runs(
            [(y, p) for (y, _), p in zip(self.conj, payloads)], self.d - 1)
        for s, value in enumerate(beta):
            yield from next(runs)
            part = self.part(s, value)
            if part[1]:
                yield part[0], slot(part)
        yield from next(runs)

    def structure(self, beta: tuple[int, ...]) -> JordanStructure:
        return JordanStructure(self._merged(
            [table for _, table in self.conj], beta, itemgetter(1)))

    def rows(self, beta: tuple[int, ...]) -> Iterator[tuple[UnitRoot, Runs]]:
        """(root, Runs of its sizes) at beta; the lifts of one eigenvalue
        share its Runs."""
        return self._merged([Runs(table.items()) for _, table in self.conj],
                            beta, lambda part: Runs(part[1].items()))

    def block_count(self, beta: tuple[int, ...]) -> int:
        return self.base_blocks + sum(
            sum(self.part(s, value)[1].values()) for s, value in enumerate(beta))

    def text(self, beta: tuple[int, ...]) -> Iterator[str]:
        """One line per eigenvalue of the structure at beta, in root order,
        yielded as the base runs and the slot lines, or one line for the
        empty operator."""
        if not self.run_text:
            runs = lifted_runs([(y, _blocks_text(table))
                                for y, table in self.conj], self.d - 1)
            self.run_text = ["".join([f"  eigenvalue {alpha}: {text}\n"
                                      for alpha, text in run]) for run in runs]
        yield self.run_text[0]
        empty = not self.run_text[0]
        for s, value in enumerate(beta):
            lines = self.lines[s]
            if value not in lines:
                alpha, table, _ = self.part(s, value)
                lines[value] = (f"  eigenvalue {alpha}: {_blocks_text(table)}\n"
                                if table else "")
            yield lines[value]
            yield self.run_text[s + 1]
            empty = empty and not lines[value] and not self.run_text[s + 1]
        if empty:
            yield "  empty operator (dimension 0)\n"


def _blocks_text(table: Mapping[int, int]) -> str:
    return ", ".join([f"{count} x size {size}" for size, count in table.items()])


def _formula_at_roots(zeta: CharPoly, t: JordanStructure,
                      d: int) -> list[int]:
    """The exponents of zeta * det(x^(d-1) - T) at s/d, s = 0..d-1: zeta's
    plus T's multiplicity at conj(s/d) = (d - s)/d.  The exponents off the
    d-th roots are positive; raise when one of these is negative."""
    exps = list(zeta.at)
    for s, table in enumerate(_slot_tables(t, d)):
        exps[-s] += _dim(table)
    bad = ", ".join(str(reduced_root(s, d)) for s, e in enumerate(exps) if e < 0)
    if bad:
        raise InstanceError(
            "non-polynomial result: the local product formula leaves negative "
            f"exponents at {bad}; local data admits no consistent operator")
    return exps


def charpoly_local_formula(zeta: CharPoly, t: JordanStructure,
                           d: int) -> CharPoly:
    """Characteristic polynomial of the assembled operator, from local data:
    zeta * det(x^(d-1) * Id - T), zeta being :func:`zeta_of_top_form`.
    Raises when an exponent is negative: no actual hypersurface has such
    local data."""
    return CharPoly([(x, _dim(table)) for x, table in t.items()], d - 1,
                    _formula_at_roots(zeta, t, d))


def zeta_of_top_form(spec: ProblemSpec) -> CharPoly:
    """Zeta function of the degree-d top form, by its exponents at the d-th
    roots:

    (x - 1)^((-1)^(n+1)) * (x^d - 1)^(((d-1)^(n+1) + (-1)^n)/d - sum mu_i).
    :func:`check_zeta_two_forms` compares it with the product over chi.
    """
    n, d = spec.n, spec.d
    exponent = _top_form_exponent(n, d) - spec.total_mu
    return CharPoly([], d - 1, [exponent - (-1) ** n] + [exponent] * (d - 1))


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
        f"the product over chi gives {CharPoly([], len(chi) - 1, list(chi))}")


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


def _resolve_beta(spec: ProblemSpec, bounds: list[tuple[int, int]],
                  cap: int) -> tuple[str, list[tuple[int, ...]], bool]:
    beta = spec.beta
    if isinstance(beta, GivenBeta):
        return "given", [tuple(beta.values)], False
    if isinstance(beta, FromNodes):
        vector = nodal_beta(beta.points, spec.n, spec.d)
        return "from_nodes", [tuple(vector)], False
    d = spec.d
    free = list(range(d // 2 + 1))
    ranges = []
    for s in free:
        (lo, up), (lo2, up2) = bounds[s], bounds[(d - s) % d]
        lo, up = max(lo, lo2), min(up, up2)
        if lo > up:
            return "enumerate", [], False
        ranges.append(range(lo, up + 1))
    vectors: list[tuple[int, ...]] = []
    truncated = False
    for combo in itertools.product(*ranges):
        if len(vectors) == cap:
            truncated = True
            break
        vector = [0] * d
        for s, value in zip(free, combo):
            vector[s] = value
            vector[(d - s) % d] = value
        vectors.append(tuple(vector))
    return "enumerate", vectors, truncated


def assemble(spec: ProblemSpec, *,
             enumerate_cap: int = DEFAULT_ENUMERATE_CAP) -> Report:
    """Compute the Jordan structure(s) of the monodromy at infinity."""
    if enumerate_cap < 1:
        raise InstanceError(f"enumerate cap must be >= 1, got {enumerate_cap}")
    n, d, t = spec.n, spec.d, spec.local_sum
    bounds = beta_bounds(spec)
    mode, vectors, truncated = _resolve_beta(spec, bounds, enumerate_cap)
    zeta = zeta_of_top_form(spec)
    formula_at: list[int] | None = None
    formula_error = ""
    try:
        formula_at = _formula_at_roots(zeta, t, d)
    except InstanceError as exc:
        formula_error = str(exc)
    # off the d-th roots, the assembled operator has T's multiplicity at x
    # where the formula has T's multiplicity at conj(x)
    off_agrees = spec.locally_symmetric and all(
        t.multiplicity(x) == t.multiplicity(x.conjugate())
        for x in t.spectrum())
    assembler = _Assembler(spec, bounds)
    expected_dim = (d - 1) ** (n + 1) - spec.total_mu
    entries = []
    for beta in vectors:
        parts = [assembler.part(s, value) for s, value in enumerate(beta)]
        got_dim = assembler.base_dim + sum(part[2] for part in parts)
        checks = []
        checks.append(CheckResult(
            "degree_identity",
            "pass" if got_dim == expected_dim else "fail",
            f"operator dimension {got_dim}, expected "
            f"(d-1)^(n+1) - total mu = {expected_dim}"))
        checks.append(check_block_size_limits(assembler.limit_pieces, n, d))
        bound_text = [f"beta[{s}] = {value} outside {lo}..{up}"
                      for s, (value, (lo, up)) in enumerate(zip(beta, bounds))
                      if not lo <= value <= up]
        checks.append(CheckResult(
            "beta_within_bounds",
            "fail" if bound_text else "pass",
            "; ".join(bound_text) or "every beta[s] lies within its bounds"))
        if not spec.locally_symmetric:
            checks.append(CheckResult(
                "charpoly_local_formula", "not_applicable",
                "local spectra are not conjugation-symmetric, so the local "
                "product formula need not match the assembled operator; "
                "assembly used the stated counting rules unchanged"))
        elif formula_at is None:
            checks.append(CheckResult(
                "charpoly_local_formula", "fail", formula_error))
        elif off_agrees and all(part[2] == exp
                                for part, exp in zip(parts, formula_at)):
            checks.append(CheckResult(
                "charpoly_local_formula", "pass",
                "product formula matches the assembled characteristic "
                "polynomial"))
        else:
            checks.append(CheckResult(
                "charpoly_local_formula", "fail",
                f"product formula gives {charpoly_local_formula(zeta, t, d)}, "
                f"assembled operator has "
                f"{assembler.structure(beta).char_poly()}"))
        entries.append(BetaEntry(beta, tuple(checks), assembler))
    if vectors:
        charpoly = CharPoly(
            [(y, _dim(table)) for y, table in assembler.conj], d - 1,
            [assembler.part(s, value)[2] for s, value in enumerate(vectors[0])])
    else:
        charpoly = None if formula_at is None else \
            charpoly_local_formula(zeta, t, d)
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
