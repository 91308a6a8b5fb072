"""Row reduction modulo a prime, on rows packed into big integers.

The defect and the oracle both certify ranks from one elimination over
F_p; this module holds it.  Each row vector is packed as in Kronecker
substitution (Dumas, Fousse and Salvy, J. Symbolic Comput. 46, 2011):
one Python int with a fixed-width slot per column, column c in the bits
from c*w up.  With residues kept in [0, p), the update of a row by a
stored row, row - f*stored, is done as row + (p - f)*stored: one
big-integer multiply-add, with no borrow between slots.  A row meets at
most u = min(#rows, #columns) stored rows, so no slot exceeds
p - 1 + u*(p - 1)^2; the slot is the smallest whole number of bytes
(at least 8) that holds that bound, so no slot carries into the next.
"""

from __future__ import annotations

import struct

PRIME = 2**31 - 1
"""The Mersenne prime 2^31 - 1, the largest prime that eliminate takes."""


def eliminate(rows: list[list[int]], prime: int = PRIME,
              ) -> tuple[list[int], list[set[int]]]:
    """Row-reduce `rows` (entries in [0, prime)) modulo a prime, in order.

    Returns the indices of the pivot rows and, for each row that reduces
    to zero, its support: the row itself and the pivot rows with a
    nonzero coefficient in its relation mod prime.  Each stored row is
    scaled to 1 at its pivot column and keeps the multipliers that
    express it through earlier stored rows, so a relation found against
    the stored rows is rewritten in the original pivot rows by one
    backward pass.

    A row is packed at its first update, unpacked and reduced mod prime
    once, before its pivot search, and repacked once, when it is stored.
    """
    if not 2 <= prime <= PRIME:
        raise ValueError(f"the modulus must be a prime <= {PRIME}")
    ncols = len(rows[0])
    bound = prime - 1 + min(len(rows), ncols) * (prime - 1) ** 2
    size = max(8, -(-bound.bit_length() // 8))
    width, mask = 8 * size, (1 << 8 * size) - 1
    # one slot as a little-endian 8-byte field and size - 8 zero bytes
    slots = struct.Struct("<" + f"Q{size - 8}x" * ncols)
    low = int.from_bytes((b"\xff" * 4 + bytes(size - 4)) * ncols, "little")
    high = int.from_bytes((b"\xff" * (size - 4) + bytes(4)) * ncols, "little")
    fold = (1 << 32) % prime

    def unpack(packed: int) -> list[int]:
        # fold each slot v = lo + 2^32*hi to lo + hi*(2^32 mod p), which
        # fits the slot since p < 2^31, until every slot is below 2^64;
        # the bound at least halves each time
        top = bound
        while top >> 64:
            packed = (packed & low) + (packed >> 32 & high) * fold
            top = (1 << 32) - 1 + (top >> 32) * fold
        return [x % prime for x in slots.unpack(packed.to_bytes(
            size * ncols, "little"))]

    basis: list[tuple[int, int, dict[int, int]]] = []
    pivots: list[int] = []
    supports: list[set[int]] = []
    for index, row in enumerate(rows):
        used = {}
        packed = None
        steps = enumerate(basis)
        # the row stays a list until its first update ...
        for j, (col, stored, _) in steps:
            f = row[col]
            if f:
                used[j] = f
                packed = int.from_bytes(slots.pack(*row), "little") \
                    + (prime - f) * stored
                break
        # ... and takes the remaining updates packed
        for j, (col, stored, _) in steps:
            f = (packed >> col * width & mask) % prime
            if f:
                used[j] = f
                packed += (prime - f) * stored
        if packed is not None:
            row = unpack(packed)
        col = next((c for c, x in enumerate(row) if x), None)
        if col is None:
            support = {index}
            for j in range(len(basis) - 1, -1, -1):
                c = used.get(j, 0) % prime
                if c:
                    support.add(pivots[j])
                    for j2, m in basis[j][2].items():
                        used[j2] = used.get(j2, 0) - c * m
            supports.append(support)
            continue
        inv = pow(row[col], -1, prime)
        basis.append((col, int.from_bytes(
            slots.pack(*[x * inv % prime for x in row]), "little"),
            {j: f * inv % prime for j, f in used.items()}))
        pivots.append(index)
        if len(pivots) == ncols:
            break
    return pivots, supports
