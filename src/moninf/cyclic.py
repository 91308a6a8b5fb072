"""Jordan type of cyclic block operators.

Given an operator phi with Jordan structure T, the cyclic operator of
order m built from phi acts on m stacked copies of the underlying space by

    (x_1, ..., x_m) |-> (phi(x_m), x_1, ..., x_{m-1}).

Its Jordan structure is determined by T alone: a block of size l at the
eigenvalue xi of phi contributes one block of size l at every m-th root
of xi.  Equivalently, the number of size-l blocks of the cyclic operator
at alpha equals the number of size-l blocks of phi at alpha**m.  The
assembler's copied layer and charpoly formula read one cyclic_power(T, d-1).
"""

from __future__ import annotations

from .cyclo import mth_roots
from .jordan import JordanStructure


def cyclic_power(t: JordanStructure, m: int) -> JordanStructure:
    """Jordan structure of the order-m cyclic operator built from t."""
    if m < 1:
        raise ValueError(f"cyclic order must be >= 1, got {m}")
    return JordanStructure((alpha, t.blocks_at(xi))
                           for xi in t.spectrum() for alpha in mth_roots(xi, m))
