"""Brute-force verifier: exact sparse linear algebra over cyclotomic fields.

This module rebuilds operators as honest matrices over Q(zeta_N) and reads
their Jordan structure off rank sequences, providing an independent check
on the combinatorial constructions elsewhere in the package.

Representation.  A matrix is a list of sparse rows mapping a column to
its entry in Z[zeta_N], an integer vector in the power basis modulo the
N-th cyclotomic polynomial Phi_N.  The arithmetic runs in the group ring
Z[C_N] = Z[x]/(x^N - 1), which maps onto Z[zeta_N]: an element is one
int with a signed slot of w bits per power of x, w from a bound on all
it will hold (see _Ring).  A sum is one addition, a product one
multiplication and a fold, and one by an entry x^e, as is every entry the
oracle builds, a shift by e*w.  v is 0 in Z[zeta_N] exactly when
v*Psi_N is 0 in Z[C_N], Psi_N = (x^N - 1)/Phi_N.  No rational number
ever appears, and every rank is a rank over F_p from modp.eliminate: for
a prime p = 1 (mod N) the maps zeta_N -> w, w of order N mod p, are the
phi(N) prime ideals above p, each of norm p.  All representatives in
Z[C_N] of an element have one image, as w^N = 1, and the l1 norm of each
bounds the element in every complex embedding.

The Jordan structure of a matrix M at an eigenvalue alpha comes from the
nullities n_k of (M - alpha*I)^k: with n_0 = 0, the number of blocks of
size exactly l at alpha is 2*n_l - n_(l-1) - n_(l+1).

Route.  (1) M is split into the connected components K of its symmetric
sparsity pattern: a permutation similarity, so Jordan types add over
components.  (2) A permutation similarity makes K block upper triangular,
each diagonal block D a strongly connected component of the directed
pattern, an edge i -> j per entry (i, j) (Tarjan), so det(x - K) is the
product of the det(x - D), multiplicities add over blocks, and (3)-(5)
run once per distinct D.  (3) With L the level of M, the exact traces
p_j = tr(D^j), j = 1 .. dim D, are formed in Z[C_L] from the powers up
to h = ceil(dim D / 2), two at a time: p_(2a-1) = tr(D^a D^(a-1)) and
p_(2a) = tr(D^a D^a).  (4) With T the level the candidates need, a prime
p = 1 (mod T) and omega of order T mod p, the ring map zeta_L ->
omega^(T/L) sends the traces to F_p, where Newton's identities give
det(x - D) mod p, k <= dim being below p; a zero trace, as is every p_j
with m not dividing j on a cyclic block of order m, adds nothing to
them.  Synthetic division gives each candidate alpha a multiplicity
a_p(alpha) >= a(alpha): a ring map can only raise a multiplicity, and
distinct T-th roots of unity stay distinct mod p.  (5) Certificate: if
the a_p(alpha) add up to dim D and p_j = sum a_p(alpha)*alpha^j in
Z[zeta_T] for j = 1 .. dim D, then a = a_p, since over a field of
characteristic 0 the power sums p_1 .. p_dim fix a monic polynomial of
degree dim.  It passes exactly when the candidates cover D.  Where it
fails, a(alpha) is the least a_P(alpha) over enough prime ideals P (see
_exact_multiplicities), and the sum of the a(alpha) over all blocks
raises SpectrumNotCovered before any rank.  (6) Since 1 <= n_1 <= a(alpha),
a(alpha) = 1 is one block of size 1, again with no rank.  Where
a(alpha) > 1 in K, n_1 is at most the nullity mod p of the image of K
over F_p, shifted by the image of alpha; where that is 1, so is n_1: one
block, of size a(alpha).  With one such alpha in a component, that
nullity is one elimination.  With more, one elimination bounds them all:
if v, Kv, ..., K^(dim-1)v have rank dim K over F_p, the image of K is
nonderogatory and every shifted nullity mod p is at most 1.  Where that
rank falls short, each alpha takes its own nullity mod p.  Where a
nullity mod p exceeds 1, the nullities of the exact powers run until
they reach a(alpha), each from the ranks mod enough prime ideals (see
_rank).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .cyclic import cyclic_power
from .cyclo import UnitRoot
from .jordan import JordanStructure
from .modp import PRIME, eliminate

class SpectrumNotCovered(RuntimeError):
    """The candidate eigenvalues fail to account for the whole space."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, monic, computed by exact division.

    x^n - 1 = prod_{d | n} Phi_d, so Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d.
    """
    if n < 1:
        raise ValueError(f"cyclotomic index must be >= 1, got {n}")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_polynomial(d)
            num = _exact_int_div(num, den)
    return tuple(num)


def _exact_int_div(num: Sequence[int], den: Sequence[int]) -> list[int]:
    # long division of integer polynomials known to divide exactly (den monic)
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dn]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def _monomials(level: int) -> tuple[tuple[tuple[int, ...], ...], dict]:
    """x^e mod Phi_level as vectors, e = 0 .. level - 1, x^(e+1) = x*x^e
    with x^degree replaced by x^degree - Phi_level, and each one's e."""
    phi = cyclotomic_polynomial(level)
    vecs = [(1,) + (0,) * (len(phi) - 2)]
    while len(vecs) < level:
        top = vecs[-1]
        vecs.append(tuple(a - top[-1] * c for a, c in zip((0, *top[:-1]), phi)))
    return tuple(vecs), {vec: e for e, vec in enumerate(vecs)}


class _Ring:
    """Z[C_level] = Z[x]/(x^level - 1) on ints: sum c_i*x^i is the sum of
    c_i*2^(i*width), width the fewest whole bytes with |c| <= bound below
    2^(width - 1), so that no slot within the bound carries into the next
    and each reads back in balanced form, biased by 2^(width - 1)."""

    __slots__ = ("level", "width", "half", "bias")

    def __init__(self, level: int, bound: int) -> None:
        size = bound.bit_length() // 8 + 1
        self.level, self.width = level, 8 * size
        self.half = 1 << level * self.width - 1
        self.bias = int.from_bytes((bytes(size - 1) + b"\x80") * level, "little")

    def fold(self, v: int) -> int:
        """v mod x^level - 1, for v of fewer than 2*level slots: the low
        level slots, split off balanced, plus the high ones."""
        span = self.level * self.width
        if v.bit_length() < span:
            return v
        high = v + self.half >> span
        return v - (high << span) + high

    def pack(self, coeffs: Sequence[int]) -> int:
        return sum(c << i * self.width for i, c in enumerate(coeffs) if c)

    def slots(self, v: int) -> list[int]:
        size, top = self.width // 8, 1 << self.width - 1
        data = (v + self.bias).to_bytes(self.level * size, "little")
        return [int.from_bytes(data[i:i + size], "little") - top
                for i in range(0, len(data), size)]

    def operator(self, rows: list[dict[int, tuple[int, ...]]],
                 ) -> tuple[list[dict[int, tuple[int, int | None]]],
                            list[dict[int, int]]]:
        """The rows as left factors of _sparse_matmul, and packed: x^e mod
        Phi_level is (e*width, None), a shift, and packs as x^e, of l1
        norm at most its vector's; any other entry is (0, it packed)."""
        exponents = _monomials(self.level)[1]
        factors = [{j: (0, self.pack(vec)) if vec not in exponents
                    else (exponents[vec] * self.width, None)
                    for j, vec in row.items()} for row in rows]
        return factors, [{j: 1 << shift if v is None else v
                          for j, (shift, v) in row.items()} for row in factors]


class CycloMatrix:
    """Sparse matrix over Z[zeta_level].

    Row i maps a column j to the integer coefficient vector of entry
    (i, j) in the power basis; zero entries are absent.
    """

    __slots__ = ("level", "nrows", "ncols", "rows")

    def __init__(self, level: int, rows: Iterable[Mapping[int, Sequence[int]]],
                 ncols: int) -> None:
        degree = len(cyclotomic_polynomial(level)) - 1
        sparse_rows: list[dict[int, tuple[int, ...]]] = []
        for row in rows:
            sparse: dict[int, tuple[int, ...]] = {}
            for j, vec in row.items():
                if not 0 <= j < ncols:
                    raise ValueError(f"column {j} outside 0..{ncols - 1}")
                vec = tuple(vec)
                if len(vec) != degree:
                    raise ValueError(
                        f"level {level} needs {degree} coefficients, got {len(vec)}")
                if any(vec):
                    sparse[j] = vec
            sparse_rows.append(sparse)
        self.level = level
        self.nrows = len(sparse_rows)
        self.ncols = ncols
        self.rows = sparse_rows


def build_jordan_matrix(structure: JordanStructure, level: int) -> CycloMatrix:
    """Block-diagonal matrix realizing the structure, in canonical order.

    Each block is upper triangular: eigenvalue on the diagonal, ones on
    the superdiagonal.
    """
    monomials, rows = _monomials(level)[0], []
    for root in structure.spectrum():
        if level % root.den:
            raise ValueError(f"root {root} does not live at level {level}")
        value = monomials[level // root.den * root.num]
        for size in structure.sizes_at(root):
            for k in range(size):
                pos = len(rows)
                rows.append({pos: value, pos + 1: monomials[0]}
                            if k + 1 < size else {pos: value})
    return CycloMatrix(level, rows, len(rows))


def build_cyclic_matrix(m: CycloMatrix, order: int) -> CycloMatrix:
    """Matrix of the order-m cyclic operator built from m.

    On column vectors (x_1, ..., x_order) the operator returns
    (m*x_order, x_1, ..., x_(order-1)); the matrix is block cyclic with m
    in the top-right block and identity blocks below the diagonal.
    """
    if order < 1:
        raise ValueError(f"cyclic order must be >= 1, got {order}")
    if m.nrows != m.ncols:
        raise ValueError("cyclic construction needs a square matrix")
    if order == 1:
        return m
    dim = m.nrows
    shift = (order - 1) * dim
    one = _monomials(m.level)[0][0]
    rows = [{shift + j: vec for j, vec in row.items()} for row in m.rows]
    rows.extend({i - dim: one} for i in range(dim, order * dim))
    return CycloMatrix(m.level, rows, order * dim)


def _sparse_matmul(a: list[dict[int, tuple[int, int | None]]],
                   b: list[dict[int, int]], ring: _Ring) -> list[dict[int, int]]:
    """The rows of AB, A's entries as _Ring.operator gives them and B's
    packed: row i is the sum over k of A_ik times row k of B, each sum
    folded once.  A row of A that is a lone 1 shares its row of B."""
    out: list[dict[int, int]] = []
    for row in a:
        if len(row) == 1 and (0, None) in row.values():
            out.append(b[next(iter(row))])
            continue
        acc: dict[int, int] = {}
        for k, (shift, factor) in row.items():
            for j, v in b[k].items():
                acc[j] = acc.get(j, 0) + (
                    v << shift if factor is None else v * factor)
        out.append({j: folded for j, v in acc.items()
                    if (folded := ring.fold(v))})
    return out


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2, 7 and 61, which is deterministic
    for n < 4759123141 (Jaeschke 1993), so for every n <= PRIME."""
    if n < 3 or n % 2 == 0 or n in (7, 61):
        return n in (2, 7, 61)
    twos = ((n - 1) & (1 - n)).bit_length() - 1
    for base in (2, 7, 61):
        x = pow(base, (n - 1) >> twos, n)
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(twos)):
            return False
    return True


@lru_cache(maxsize=None)
def _prime_for_level(level: int, below: int = PRIME + 1) -> tuple[int, int]:
    """The largest prime p < below with p = 1 (mod level), and an omega of
    exact order level mod p: zeta_level -> omega is a ring map
    Z[zeta_level] -> F_p, since Phi_level(omega) = 0 mod p."""
    p = (below - 2) // level * level + 1
    while p > 1 and not _is_prime(p):
        p -= level
    if p < 2:
        raise ValueError(f"no prime p = 1 (mod {level}) below {below}")
    factors = [q for q in range(2, level + 1) if level % q == 0 and _is_prime(q)]
    omega = next(w for w in (pow(g, (p - 1) // level, p) for g in range(1, p))
                 if all(pow(w, level // q, p) != 1 for q in factors))
    return p, omega


def _ideals(level: int, bound: int) -> Iterator[tuple[int, int]]:
    """(p, w) for every prime ideal of Z[zeta_level] above the primes
    p = 1 (mod level), from the largest down, until their product exceeds
    `bound`.  zeta_level -> w runs over the phi(level) ring maps onto F_p,
    one per ideal above p, and each ideal has norm p."""
    product, below = 1, PRIME + 1
    while product <= bound:
        prime, omega = _prime_for_level(level, below)
        for e in range(1, level + 1):
            if math.gcd(e, level) == 1:
                yield prime, pow(omega, e, prime)
        product, below = product * prime, prime


def _ring_map(level: int, prime: int,
              root: int) -> Callable[[Sequence[int]], int]:
    """The map zeta_level -> root on coefficient vectors, onto F_p."""
    powers = [pow(root, i, prime) for i in range(level)]
    return lambda vec: sum(map(int.__mul__, vec, powers)) % prime


def _image(rows: list[dict[int, Sequence[int]]], ncols: int,
           to_p: Callable[[Sequence[int]], int]) -> list[list[int]]:
    """The dense image over F_p of sparse rows, entry by entry."""
    image = [[0] * ncols for _ in rows]
    for i, row in enumerate(rows):
        for j, vec in row.items():
            image[i][j] = to_p(vec)
    return image


def _rank(rows: list[dict[int, Sequence[int]]], ncols: int, level: int,
          most: int) -> int:
    """The rank of sparse rows over Z[zeta_level], given `most` >= it.

    The rank mod a prime ideal P is at most the rank, so the largest one
    found is exact once it reaches `most`.  Otherwise every ideal above
    primes whose product exceeds H is tested, where H^2 is Hadamard's
    bound, the product over rows of max(1, sum of ||entry||_1^2): it bounds
    every minor in every complex embedding.  A larger rank would put a
    nonzero minor into every tested ideal, so its norm, at most
    H^phi(level), would be divisible by prod p^phi(level), which is more."""
    square = 1
    for row in rows:
        square *= max(1, sum(sum(map(abs, vec)) ** 2 for vec in row.values()))
    rank = 0
    for prime, root in _ideals(level, math.isqrt(square)):
        if rank >= most:
            break
        image = _image(rows, ncols, _ring_map(level, prime, root))
        rank = max(rank, len(eliminate(image, prime)[0]))
    return rank


def _components(rows: list[dict[int, tuple[int, ...]]]) -> list[list[int]]:
    """Index sets of the connected components of the symmetric sparsity
    pattern, each ascending, in order of their smallest index."""
    parent = list(range(len(rows)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, row in enumerate(rows):
        for j in row:
            parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(rows)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _strong_components(rows: list[dict[int, tuple[int, ...]]]) -> list[list[int]]:
    """Index sets, each ascending, of the strongly connected components of
    the directed pattern, an edge i -> j per entry (i, j): Tarjan, made
    iterative, numbers a vertex by its stack place, past all once off it."""
    number, low, found = [0] * len(rows), [0] * len(rows), []
    for start in range(len(rows)):
        if number[start]:
            continue
        number[start] = low[start] = 1
        stack, work = [start], [(start, iter(rows[start]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if not number[w]:
                    number[w] = low[w] = len(stack) + 1
                    stack.append(w)
                    work.append((w, iter(rows[w])))
                    break
                low[v] = min(low[v], number[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == number[v]:
                    found.append(sorted(stack[number[v] - 1:]))
                    del stack[number[v] - 1:]
                    for w in found[-1]:
                        number[w] = len(rows) + 1
    return found


def _bound(rows: list[dict[int, Sequence[int]]], powers: int) -> int:
    """dim * R^(2*powers), R >= 1 the largest l1 norm of a row: it bounds
    the l1 norm of every entry of K^a and of every sum of products of
    entries of K^a and K^b, a, b <= powers, such as a trace, as each is at
    most a sum of entries of N^j, j <= 2*powers, N the matrix of the
    entries' l1 norms, and N^j has row sums at most R^j."""
    return len(rows) * max(1, *(sum(sum(map(abs, vec)) for vec in row.values())
                                for row in rows)) ** (2 * powers)


def _traces_of_products(q: list[dict[int, int]], p: list[dict[int, int]],
                        ring: _Ring) -> tuple[int, int]:
    """tr(QP) and tr(QQ), the sums over (i, k) of Q_ik*P_ki and of
    Q_ik*Q_ki, with no product of matrices formed, each folded once."""
    qp = qq = 0
    for i, row in enumerate(q):
        for k, q_ik in row.items():
            p_ki, q_ki = p[k].get(i), q[k].get(i)
            if p_ki is not None:
                qp += q_ik * p_ki
            if q_ki is not None:
                qq += q_ik * q_ki
    return ring.fold(qp), ring.fold(qq)


def _traces(rows: list[dict[int, tuple[int, ...]]], level: int,
            ) -> list[list[int]]:
    """The exact traces p_j = tr(K^j), j = 1 .. dim, in Z[C_level], from
    K^1 .. K^h, h = ceil(dim/2), each K times the one before, two held at
    a time: with P = K^(a-1) and Q = K^a, p_(2a-1) = tr(QP), p_(2a) = tr(QQ)."""
    dim = len(rows)
    ring = _Ring(level, _bound(rows, (dim + 1) // 2))
    factors, power = ring.operator(rows)
    traces, previous = [], [{i: 1} for i in range(dim)]
    for a in range(1, (dim + 1) // 2 + 1):
        if a > 1:
            previous, power = power, _sparse_matmul(factors, power, ring)
        traces += _traces_of_products(power, previous, ring)
    return [ring.slots(trace) for trace in traces[:dim]]


def _char_poly(traces: list[list[int]], level: int) -> list[list[int]]:
    """det(x - K) over Z[C_level], coefficients c_0 = 1, c_1, ..., c_dim
    by descending power of x, from the traces p_j = tr(K^j) there by
    Newton's identities k*c_k = -sum_(i <= k) c_(k-i)*p_i, which hold over
    any commutative ring; the division by k is exact on each coefficient,
    Z[C_level] being a free Z-module, and the width bounds each sum."""
    coeffs = [[1]]
    nonzero = [i for i, trace in enumerate(traces, 1) if any(trace)]
    for k in range(1, len(traces) + 1):
        terms = [(coeffs[k - i], traces[i - 1])
                 for i in nonzero[:bisect_right(nonzero, k)]]
        ring = _Ring(level, sum(sum(map(abs, c)) * sum(map(abs, p))
                                for c, p in terms))
        total = ring.fold(sum(ring.pack(c) * ring.pack(p) for c, p in terms))
        coeffs.append([-v // k for v in ring.slots(total)])
    return coeffs


def _divide_out(poly: list[int], values: Iterable[int], prime: int,
                ) -> list[int]:
    """The multiplicity of each value as a root of poly over F_p,
    coefficients by descending power, each value divided out in turn."""
    mults = []
    for value in values:
        mult = 0
        while len(poly) > 1:
            # synthetic division by x - value; the last entry is the remainder
            quotient = [poly[0]]
            for c in poly[1:]:
                quotient.append((c + value * quotient[-1]) % prime)
            if quotient.pop():
                break
            poly, mult = quotient, mult + 1
        mults.append(mult)
    return mults


def _nullity_mod_p(image: list[list[int]], alpha: int, prime: int) -> int:
    """Nullity of K - alpha mod p, from the image of K over F_p: at least
    the exact nullity, since a minor nonzero mod p is nonzero."""
    shifted = [row[:] for row in image]
    for i, row in enumerate(shifted):
        row[i] = (row[i] - alpha) % prime
    return len(shifted) - len(eliminate(shifted, prime)[0])


def _krylov_rank(rows: list[dict[int, tuple[int, ...]]],
                 image: list[list[int]], prime: int) -> int:
    """The rank over F_p of v, Kv, ..., K^(dim-1)v, from the image of K
    over F_p and v_i = 3^i mod p.  If it is dim, the image is
    nonderogatory: K - alpha has nullity at most 1 mod p for every alpha.
    (e_0 would not do: on a cyclic component it spans only m dimensions.)"""
    entries = [[(j, image_row[j]) for j in row]
               for row, image_row in zip(rows, image)]
    # a row that is a lone 1 copies an entry of the vector
    plan = [r[0][0] if len(r) == 1 and r[0][1] == 1 else r for r in entries]
    vectors = [[pow(3, i, prime) for i in range(len(rows))]]
    while len(vectors) < len(rows):
        v = vectors[-1]
        vectors.append([v[r] if type(r) is int else
                        sum([x * v[j] for j, x in r]) % prime for r in plan])
    return len(eliminate(vectors, prime)[0])


def _exact_nullities(rows: list[dict[int, tuple[int, ...]]], level: int,
                     alpha: UnitRoot, stop: int) -> list[int]:
    """Exact nullities of (K - alpha)^k for k = 0, 1, ... until they reach
    `stop`, which must be the multiplicity a(alpha) >= 1: until then each
    n_k is at least n_(k-1) + 1, which bounds the rank for _rank.  K goes
    to Z[C_top], top the level of K and alpha, by x -> x^(top/level), and
    the ring's width bounds every entry of the powers up to the stop."""
    dim, top = len(rows), math.lcm(level, alpha.den)
    shifted: list[dict[int, tuple[int, ...]]] = []
    for i, row in enumerate(rows):
        lifted = {j: [0] * top for j in (i, *row)}
        for j, vec in row.items():
            lifted[j][:len(vec) * (top // level):top // level] = vec
        lifted[i][top // alpha.den * alpha.num] -= 1
        shifted.append({j: tuple(v) for j, v in lifted.items() if any(v)})
    ring = _Ring(top, _bound(shifted, stop))
    factors, power = ring.operator(shifted)
    nullities = [0]
    while nullities[-1] < stop:
        if len(nullities) > 1:
            power = _sparse_matmul(factors, power, ring)
        nullities.append(dim - _rank(
            [{j: ring.slots(v) for j, v in row.items()} for row in power],
            dim, top, dim - nullities[-1] - 1))
    return nullities


def _exact_multiplicities(coeffs: list[list[int]], level: int,
                          bounds: dict[UnitRoot, int], top: int,
                          ) -> dict[UnitRoot, int]:
    """The multiplicity of each alpha in f = det(x - K), from its
    coefficients over Z[C_level]: the least multiplicity mod an ideal
    of Z[zeta_top], at most bounds[alpha], over the ideals above primes
    whose product exceeds B = 2^dim * sum of ||c_i||_1.  With
    f = (x - alpha)^a * g, a multiplicity mod P above a puts g(alpha) into
    P, and by Landau's inequality B bounds g(alpha) in every complex
    embedding, so no nonzero g(alpha) lies in all the tested ideals."""
    dim = len(coeffs) - 1
    bound = 2 ** dim * sum(abs(c) for vec in coeffs for c in vec)
    mults = dict(bounds)
    for prime, root in _ideals(top, bound):
        to_p = _ring_map(level, prime, pow(root, top // level, prime))
        found = _divide_out([to_p(c) for c in coeffs], [
            pow(root, top // alpha.den * alpha.num, prime) for alpha in mults],
            prime)
        mults = {alpha: min(mult, new)
                 for (alpha, mult), new in zip(mults.items(), found)}
    return mults


@lru_cache(maxsize=None)
def _psi(level: int) -> tuple[int, ...]:
    """Psi_level = (x^level - 1)/Phi_level."""
    return tuple(_exact_int_div([-1] + [0] * (level - 1) + [1],
                                cyclotomic_polynomial(level)))


def _power_sums_agree(traces: list[list[int]], level: int,
                      mults: dict[UnitRoot, int], top: int) -> bool:
    """p_j = sum a(alpha)*alpha^j in Z[zeta_top], j = 1 .. dim: v_j, the
    trace at x -> x^(top/level) less each a(alpha)*alpha^j, has
    v_j*Psi_top = 0 in Z[C_top], its slots at most ||v_j||_1*||Psi_top||_1."""
    psi = _psi(top)
    ring = _Ring(top, (max(sum(map(abs, trace)) for trace in traces)
                       + sum(mults.values())) * sum(map(abs, psi)))
    step, packed = top // level * ring.width, ring.pack(psi)
    for j, trace in enumerate(traces, 1):
        difference = sum(c << i * step for i, c in enumerate(trace) if c) \
            - sum(mult << top // alpha.den * alpha.num * j % top * ring.width
                  for alpha, mult in mults.items())
        if difference and ring.fold(difference * packed):
            return False
    return True


def _multiplicities(rows: list[dict[int, tuple[int, ...]]], level: int,
                    images: dict[UnitRoot, int], top: int) -> dict[UnitRoot, int]:
    """The multiplicities a(alpha) of the candidates, images[alpha] its
    image mod p, in det(x - K), with no zeros where the certificate holds.

    They are read off det(x - K) mod p, where they can only grow, and are
    certified by the exact power sums; where the certificate fails, the
    candidates do not cover K, and _exact_multiplicities decides them."""
    prime, omega = _prime_for_level(top)
    traces = _traces(rows, level)
    to_p = _ring_map(level, prime, pow(omega, top // level, prime))
    powers = [to_p(trace) for trace in traces]
    nonzero = [i for i, power in enumerate(powers, 1) if power]
    inverses, coeffs = [0, 1], [1]  # 1/k mod p from p = (p // k)*k + p % k
    for k in range(1, len(rows) + 1):
        total = sum(coeffs[k - i] * powers[i - 1]
                    for i in nonzero[:bisect_right(nonzero, k)])
        coeffs.append(-total * inverses[k] % prime)
        inverses.append(-(prime // (k + 1)) * inverses[prime % (k + 1)] % prime)
    found = _divide_out(coeffs, images.values(), prime)
    mults = {alpha: mult for alpha, mult in zip(images, found) if mult}
    # the certificate, step (5) of the route in the module docstring
    if sum(mults.values()) != len(rows) or not _power_sums_agree(
            traces, level, mults, top):
        mults = _exact_multiplicities(_char_poly(traces, level), level,
                                      mults, top)
    return mults


def jordan_type(m: CycloMatrix, candidates: Iterable[UnitRoot]) -> JordanStructure:
    """Jordan structure of m, assuming its spectrum lies in `candidates`.

    Raises :class:`SpectrumNotCovered` when the candidate eigenvalues do
    not account for the full dimension.
    """
    if m.nrows != m.ncols:
        raise ValueError("jordan_type needs a square matrix")
    roots = sorted(set(candidates))
    level_needed = math.lcm(m.level, *(root.den for root in roots))
    prime, omega = _prime_for_level(level_needed)
    images = {alpha: pow(omega, level_needed // alpha.den * alpha.num, prime)
              for alpha in roots}
    components, runs = [], {}
    for index in _components(m.rows):
        local = {g: i for i, g in enumerate(index)}
        rows = [{local[j]: vec for j, vec in m.rows[g].items()} for g in index]
        # step (2) of the route: equal diagonal blocks share one run
        mults: dict[UnitRoot, int] = {}
        for strong in _strong_components(rows):
            place = {g: i for i, g in enumerate(strong)}
            block = [{place[j]: vec for j, vec in rows[g].items()
                      if j in place} for g in strong]
            key = tuple(frozenset(row.items()) for row in block)
            if key not in runs:
                runs[key] = _multiplicities(block, m.level, images,
                                            level_needed)
            for alpha, mult in runs[key].items():
                mults[alpha] = mults.get(alpha, 0) + mult
        components.append((rows, mults))
    covered = sum(sum(mults.values()) for _, mults in components)
    if covered != m.nrows:
        raise SpectrumNotCovered(
            f"candidate eigenvalues cover {covered} of {m.nrows} dimensions")
    to_p = _ring_map(m.level, prime,
                     pow(omega, level_needed // m.level, prime))
    blocks: list[tuple[UnitRoot, dict[int, int]]] = []
    for rows, mults in components:
        # 1 <= n_1 <= a(alpha), and n_1 is at most the nullity mod p:
        # one Krylov rank bounds it for every alpha, one nullity for one
        repeated = sum(mult > 1 for mult in mults.values())
        image = _image(rows, len(rows), to_p) if repeated else []
        nonderogatory = repeated > 1 and _krylov_rank(
            rows, image, prime) == len(rows)
        for alpha, mult in mults.items():
            nullities = list(range(mult + 1))
            if mult > 1 and not nonderogatory and _nullity_mod_p(
                    image, images[alpha], prime) > 1:
                nullities = _exact_nullities(rows, m.level, alpha, mult)
            null = nullities + nullities[-1:]
            blocks.append((alpha, {
                size: 2 * null[size] - null[size - 1] - null[size + 1]
                for size in range(1, len(nullities))}))
    return JordanStructure(blocks)


def spectrum_level(structure: JordanStructure) -> int:
    """The field level of `structure`'s spectrum, the lcm of its orders
    (1 for the empty structure).  Its order-m cyclic operator needs m
    times that level: the m-th roots of a root p/q have lcm order m*q."""
    return math.lcm(*(root.den for root in structure.spectrum()))


def verify_cyclic_agreement(structure: JordanStructure, order: int,
                            ) -> tuple[JordanStructure, JordanStructure]:
    """Keystone cross-check for the cyclic construction.

    Returns (combinatorial, matrix) Jordan structures of the order-m cyclic
    operator built from a realization of `structure`: the first computed by
    :func:`moninf.cyclic.cyclic_power`, the second read off an explicit
    matrix by rank computations.  Agreement of the two is the caller's
    check.  The ranks are over Q(zeta_L), L = order * spectrum_level, with
    no cap here: bounding L and the matrix size is the caller's policy.
    """
    expected = cyclic_power(structure, order)
    base = build_jordan_matrix(structure, spectrum_level(structure))
    cyclic_matrix = build_cyclic_matrix(base, order)
    candidates = sorted(expected.spectrum())
    actual = jordan_type(cyclic_matrix, candidates)
    return expected, actual
