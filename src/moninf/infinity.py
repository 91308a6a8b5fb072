"""Assembly of the monodromy at infinity from invariant data.

Inputs: the number of variables is n+1, the polynomial degree is d, the
zero set of the top-degree part is a hypersurface in P^n whose isolated
singularities are given as local models, and the equivariant defects
beta_s are given, derived from node positions, or enumerated.

The counting rules use the local monodromies T_i only through sums over
i, so they read only the direct sum T of all T_i, one summand per
singularity, and the total Milnor number, which fixes chi.
:class:`ProblemSpec` holds the singularities as (model, count) pairs in
input order and derives T, the total and chi once, with one local
monodromy per distinct germ; only a rendered report lists the copies.
The assembled Jordan structure is built in two independent layers:

* eigenvalues alpha = e^(2*pi*i*s/d) (d-th roots of unity): with chi_s
  the global Euler-type invariant, the block counts at alpha are
      size 1:    chi_s + 2*beta_s - #(T)_alpha
      size 2:    -beta_s + #_1(T)_alpha
      size l+1:  #_l(T)_alpha             (l >= 2)
  Negative counts mean the beta vector is inadmissible and raise an
  error naming the violated bound.
* eigenvalues with alpha^d != 1: T's blocks at alpha^(1-d) are copied
  to alpha, read at conj(alpha) from S = ``cyclic_power(T, d-1)``, whose
  char poly is the formula's det(x^(d-1) - T); S is built once.  When
  every germ is conjugation-symmetric, so are T and S, and S is read at
  alpha itself.

beta changes only the first layer.  So the second, the base, is laid out
once per assembly, already in canonical order, with an empty slot at
each d-th root, and so are its multiplicities; each beta vector copies
the layout and fills its d slots, deleting those left empty.  The table
at a d-th root is built once per value of beta_s and shared by every
vector with that value.  Where the charpoly formula is compared, the
layout's roots are its own objects, so the per-vector comparison finds
them by identity.  Every check still runs for every beta vector, but a
report keeps only each vector's beta and checks and rebuilds its
structure when read.  The text report is written piece by piece: the
base runs between the d-th roots are rendered once per report and a
d-th root's line once per value of beta_s, so a vector's text is joined
from 2d + 1 rendered pieces.

Cross-checks accompany every assembly: the degree identity, the block
size limits, the bound check on beta, the local product formula for the
characteristic polynomial, and the two-forms identity for the zeta
function of the top form.  The product formula is only claimed when
every germ's spectrum is closed under conjugation; that is judged per
germ, never on T, since asymmetric germs can sum to a symmetric T.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .cyclic import cyclic_power
from .cyclo import ONE, RootExponentVector, UnitRoot, mth_roots
from .defect import ProjectivePointSet, nodal_beta
from .jordan import JordanStructure, Runs
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
        """The assembled structure, rebuilt from the shared layers on each
        read, so that a report keeps O(d) per vector."""
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
    charpoly: RootExponentVector | None
    zeta: RootExponentVector
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
        """The --json document; block lists and mu are Runs.  Raises
        InstanceError when they would list more than MAX_REPORT_ENTRIES
        numbers, counted from the runs before any list is written."""
        listed_mu = sum(count for _, count in self.mu)
        structures = [entry.jordan for entry in self.entries]
        entries = listed_mu + sum(
            count for structure in structures
            for _, _, count in structure.iter_blocks())
        if entries > MAX_REPORT_ENTRIES:
            # the text report lists mu too, so it helps only when mu fits
            hint = ("; the text report gives the same blocks as counts"
                    if listed_mu <= MAX_REPORT_ENTRIES else "")
            raise InstanceError(
                f"the --json report would list {entries} Jordan blocks and "
                f"Milnor numbers, above the limit of {MAX_REPORT_ENTRIES}"
                + hint)
        single = self.mode in ("given", "from_nodes")
        if single:
            beta_used: object = list(self.entries[0].beta)
            jordan: object = structures[0].to_json()
        else:
            beta_used = [list(entry.beta) for entry in self.entries]
            jordan = [structure.to_json() for structure in structures]
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
            yield (entry.assembler.text(entry.beta)
                   or "  empty operator (dimension 0)\n")
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


def beta_bounds(spec: ProblemSpec) -> list[tuple[int, int]]:
    """Admissible range of every beta_s, s = 0..d-1: the block counts at
    alpha = e^(2*pi*i*s/d) stay >= 0.

    lower = max(0, ceil((#(T)_alpha - chi_s) / 2)), from the size-1 count;
    upper = #_1(T)_alpha, from the size-2 count.
    """
    t, chi = spec.local_sum, spec.chi
    return [(max(0, (t.block_count(alpha) - chi[s] + 1) // 2), t.sharp(alpha, 1))
            for s, alpha in enumerate(mth_roots(ONE, spec.d))]


class _Assembler:
    """The assembled operator as a function of beta.

    The base, the copied layer off the d-th roots of unity, is laid out
    once in root order with an empty slot at each d-th root; a beta
    vector copies the layout and fills or deletes its d slots.  The table
    at the s-th root is built once per value of beta_s, so vectors with
    equal beta_s share one table object.  When every germ is
    conjugation-symmetric, the one case in which the charpoly formula is
    compared, the layout's roots are the formula's own UnitRoot objects,
    so the comparison finds every key by identity.  A vector's text joins
    the base runs between the d-th roots, each rendered once, and one
    line per d-th root, rendered once per value of beta_s.
    """

    def __init__(self, spec: ProblemSpec, bounds: list[tuple[int, int]],
                 spread: JordanStructure,
                 formula: RootExponentVector | None) -> None:
        d, t, chi = spec.d, spec.local_sum, spec.chi
        off = [(gamma, table) for gamma, table in spread.items()
               if d % gamma.den]
        if spec.locally_symmetric:
            # then T and S are conjugation-symmetric: the copied layer is S
            # itself off the d-th roots, with S's roots, which are the
            # formula's own objects
            base = off
        else:
            # conj reverses the angle order on (0, 1), so the copied layer
            # comes out sorted
            base = [(gamma.conjugate(), table)
                    for gamma, table in reversed(off)]
        keys = [alpha for alpha, _ in base]
        # the d-th roots as the formula's own objects, where it has them
        same = {} if formula is None else {
            root: root for root, _ in formula.items() if not d % root.den}
        torsion_roots = [same.get(alpha, alpha) for alpha in mth_roots(ONE, d)]
        self.blocks: dict[UnitRoot, dict[int, int]] = {}
        start = 0
        for alpha in torsion_roots:
            cut = bisect_left(keys, alpha)
            self.blocks.update(base[start:cut])
            self.blocks[alpha] = {}  # the slot of the d-th root
            start = cut
        self.blocks.update(base[start:])
        self.bounds = bounds
        # per d-th root: its shifted sizes (>= 3, decreasing) and their
        # dimension, chi_s - #(T)_alpha and #_1(T)_alpha
        self.rules = []
        for s, alpha in enumerate(torsion_roots):
            shifted = {size + 1: count for size, count in
                       t.blocks_at(alpha).items() if size >= 2}
            self.rules.append((
                alpha, shifted,
                sum(size * count for size, count in shifted.items()),
                chi[s] - t.block_count(alpha), t.sharp(alpha, 1)))
        self.parts: list[dict[int, tuple[UnitRoot, dict[int, int], int]]] = [
            {} for _ in range(d)]
        self.run_text: list[str] = []
        self.lines: list[dict[int, str]] = [{} for _ in range(d)]

    def _part(self, s: int, value: int
              ) -> tuple[UnitRoot, dict[int, int], int]:
        """The s-th root, its table (empty when it has no blocks) and its
        multiplicity at beta_s = value."""
        parts = self.parts[s]
        if value in parts:
            return parts[value]
        alpha, shifted, shifted_dim, free_1, ones = self.rules[s]
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

    def assembled(self, vectors: Iterable[tuple[int, ...]]
                  ) -> Iterator[tuple[JordanStructure, RootExponentVector,
                                      int]]:
        """Per beta vector: the structure, its characteristic polynomial
        and its dimension.  The multiplicities are laid out like the
        tables, and only while the vectors are assembled."""
        factors = {alpha: sum(size * count for size, count in table.items())
                   for alpha, table in self.blocks.items()}
        base_dim = sum(factors.values())
        for beta in vectors:
            blocks, poly, dim = self.blocks.copy(), factors.copy(), base_dim
            for s, value in enumerate(beta):
                alpha, table, multiplicity = self._part(s, value)
                if table:
                    blocks[alpha], poly[alpha] = table, multiplicity
                    dim += multiplicity
                else:
                    del blocks[alpha], poly[alpha]
            yield (JordanStructure._canonical(blocks),
                   RootExponentVector._canonical(poly), dim)

    def structure(self, beta: tuple[int, ...]) -> JordanStructure:
        """The structure at beta, as assembled() gives it."""
        blocks = self.blocks.copy()
        for s, value in enumerate(beta):
            alpha, table, _ = self._part(s, value)
            if table:
                blocks[alpha] = table
            else:
                del blocks[alpha]
        return JordanStructure._canonical(blocks)

    def text(self, beta: tuple[int, ...]) -> str:
        """One line per eigenvalue of the structure at beta, in root order;
        empty for the empty operator."""
        if not self.run_text:
            # the base runs between the slots, whose tables are empty
            runs: list[list[tuple[UnitRoot, dict[int, int]]]] = [[]]
            for alpha, table in self.blocks.items():
                if table:
                    runs[-1].append((alpha, table))
                else:
                    runs.append([])
            self.run_text = [_eigenvalue_lines(run) for run in runs]
        pieces = []
        for s, value in enumerate(beta):
            pieces.append(self.run_text[s])
            lines = self.lines[s]
            if value not in lines:
                alpha, table, _ = self._part(s, value)
                lines[value] = (_eigenvalue_lines([(alpha, table)])
                                if table else "")
            pieces.append(lines[value])
        pieces.append(self.run_text[-1])
        return "".join(pieces)


def _eigenvalue_lines(items: Iterable[tuple[UnitRoot, Mapping[int, int]]]
                      ) -> str:
    return "".join(
        f"  eigenvalue {root}: "
        + ", ".join([f"{count} x size {size}"
                     for size, count in table.items()])
        + "\n" for root, table in items)


def charpoly_local_formula(zeta: RootExponentVector,
                           spread: JordanStructure) -> RootExponentVector:
    """Characteristic polynomial of the assembled operator, from local data.

    zeta * det(x^(d-1) * Id - T), zeta being :func:`zeta_of_top_form`

    The determinant is the characteristic polynomial of the spread
    cyclic_power(T, d-1).  Raises when the final exponent vector has a
    negative entry: no actual hypersurface has such local data.
    """
    out = zeta * spread.char_poly()
    if not out.is_polynomial():
        bad = [str(r) for r, e in out.items() if e < 0]
        raise InstanceError(
            "non-polynomial result: the local product formula leaves negative "
            f"exponents at {', '.join(bad)}; local data admits no consistent "
            "operator")
    return out


def zeta_of_top_form(spec: ProblemSpec) -> RootExponentVector:
    """Zeta function of the degree-d top form, as an exponent vector:

    (x - 1)^((-1)^(n+1)) * (x^d - 1)^(((d-1)^(n+1) + (-1)^n)/d - sum mu_i).
    :func:`check_zeta_two_forms` compares it with the product over chi.
    """
    n, d = spec.n, spec.d
    exponent = _top_form_exponent(n, d) - spec.total_mu
    return RootExponentVector.linear(ONE, -(-1) ** n) * \
        RootExponentVector.power_minus_one(d, exponent)


def check_zeta_two_forms(zeta: RootExponentVector,
                         chi: Sequence[int]) -> CheckResult:
    """Compare the (x^d - 1) form of the zeta function with
    prod_s (x - e^(2*pi*i*s/d))^(chi_s)."""
    d = len(chi)
    product = RootExponentVector((UnitRoot(s, d), chi[s]) for s in range(d))
    if product == zeta:
        return CheckResult(
            "zeta_two_forms", "pass",
            "both closed forms of the zeta function agree: " + str(zeta))
    return CheckResult(
        "zeta_two_forms", "fail",
        f"the (x^d - 1) form gives {zeta}, "
        f"the product over chi gives {product}")


def check_block_size_limits(structure: JordanStructure, n: int,
                            d: int) -> CheckResult:
    """No block may exceed size n+1; size n+1 only at alpha^d = 1, alpha != 1."""
    problems = []
    for root, table in structure.items():
        for size, count in table.items():
            if size <= n:
                break  # the sizes decrease
            if size >= n + 2:
                problems.append(
                    f"{count} blocks of size {size} at eigenvalue {root} "
                    f"exceed the maximum size n+1 = {n + 1}")
            elif root ** d != ONE or root == ONE:
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
    bounds = beta_bounds(spec)
    mode, vectors, truncated = _resolve_beta(spec, bounds, enumerate_cap)
    spread = cyclic_power(spec.local_sum, spec.d - 1)
    zeta = zeta_of_top_form(spec)
    formula: RootExponentVector | None = None
    formula_error = ""
    try:
        formula = charpoly_local_formula(zeta, spread)
    except InstanceError as exc:
        formula_error = str(exc)
    assembler = _Assembler(spec, bounds, spread, formula)
    del spread  # the loop reads only the base; S is not kept
    expected_dim = (spec.d - 1) ** (spec.n + 1) - spec.total_mu
    entries = []
    charpoly = formula
    for beta, (structure, poly, got_dim) in zip(
            vectors, assembler.assembled(vectors)):
        if not entries:
            charpoly = poly
        checks = []
        checks.append(CheckResult(
            "degree_identity",
            "pass" if got_dim == expected_dim else "fail",
            f"operator dimension {got_dim}, expected "
            f"(d-1)^(n+1) - total mu = {expected_dim}"))
        checks.append(check_block_size_limits(structure, spec.n, spec.d))
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
        elif formula is None:
            checks.append(CheckResult(
                "charpoly_local_formula", "fail", formula_error))
        else:
            agrees = poly == formula
            checks.append(CheckResult(
                "charpoly_local_formula",
                "pass" if agrees else "fail",
                "product formula matches the assembled characteristic "
                "polynomial" if agrees else
                f"product formula gives {formula}, assembled operator has "
                f"{poly}"))
        entries.append(BetaEntry(beta, tuple(checks), assembler))
    return Report(
        n=spec.n,
        d=spec.d,
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
