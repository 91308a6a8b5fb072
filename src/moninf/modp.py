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

After its updates a row is brought back to residues in [0, p) in packed
form, every slot at once: folds that replace 2^32 by 2^32 mod p take
each slot below 2^33, then 2^j*p is subtracted, for j down to 0, from
the slots v with bit 40 of v + 2^40 - 2^j*p set.  A zero row is then
the int 0, and its pivot column is read off its lowest set bit.
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
    nonzero coefficient in its relation mod prime.  A stored row is not
    scaled: it keeps the inverse of its pivot entry, which each update
    multiplies into its multiplier, and the multipliers that express it
    through earlier stored rows, so a relation found against the stored
    rows is rewritten in the original pivot rows by one backward pass.

    A row is packed once, before its updates, and stays packed: it is
    reduced to residues, tested for zero, searched for its pivot and
    stored as one int.
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
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * ncols, "little")
    fold, folds, top = (1 << 32) % prime, 0, bound
    while top >> 33:
        top = (1 << 32) - 1 + (top >> 32) * fold
        folds += 1
    steps = [(prime << j, ((1 << 40) - (prime << j)) * ones)
             for j in reversed(range((top // prime).bit_length()))]

    basis: list[tuple[int, int, int, dict[int, int]]] = []
    pivots: list[int] = []
    supports: list[set[int]] = []
    for index, row in enumerate(rows):
        used = {}
        packed = int.from_bytes(slots.pack(*row), "little")
        for j, (col, stored, inv, _) in enumerate(basis):
            f = (packed >> col * width & mask) * inv % prime
            if f:
                used[j] = f
                packed += (prime - f) * stored
        if used:
            # each fold v = lo + 2^32*hi -> lo + hi*(2^32 mod p) at least
            # halves v - 2^33, as 2^32 mod p < 2^31; then each slot, below
            # 2^(j+1)*p, loses 2^j*p where it holds that much
            for _ in range(folds):
                packed = (packed & low) + (packed >> 32 & high) * fold
            for step, lift in steps:
                packed -= ((packed + lift) >> 40 & ones) * step
        if not packed:
            support = {index}
            for j in range(len(basis) - 1, -1, -1):
                c = used.get(j, 0) % prime
                if c:
                    support.add(pivots[j])
                    for j2, m in basis[j][3].items():
                        used[j2] = used.get(j2, 0) - c * m
            supports.append(support)
            continue
        col = ((packed & -packed).bit_length() - 1) // width
        inv = pow(packed >> col * width & mask, -1, prime)
        basis.append((col, packed, inv, used))
        pivots.append(index)
        if len(pivots) == ncols:
            break
    return pivots, supports
