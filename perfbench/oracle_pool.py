"""Recompute `workloads.ORACLE_POOL`.

Usage: python3 perfbench/oracle_pool.py

For each seed in 0..159, runs `moninf oracle --seed S --trials 100
--json` and counts the cyclotomic field multiplications it makes, as
calls and as the sum of `degree + nonzeros(a) * nonzeros(b)`. These
counts are exact, so unlike a timing they do not depend on the load of
the machine. A linear fit of CPU time to the two counts, made once on a
2-CPU x86-64 VM, gave the weights below; the pool is the seeds whose
weighted count lies within 3% of the median.

The counter patches a private method of `moninf.oracle`, so this script
follows the oracle's internals; the pool it printed stays valid as a
list of seeds after they change.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

CALL_WEIGHT = 2.008e-6
SIZE_WEIGHT = 3.266e-7


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from moninf import cli, oracle

    vmul = oracle._Field.vmul
    counts = [0, 0]

    def counted(self, a, b):
        counts[0] += 1
        counts[1] += self.degree + sum(1 for x in a if x) * sum(1 for y in b if y)
        return vmul(self, a, b)

    oracle._Field.vmul = counted
    cost = {}
    out = root / ".perfbench" / "oracle_pool.out"
    out.parent.mkdir(exist_ok=True)
    for seed in range(160):
        counts[:] = [0, 0]
        cli.main(["oracle", "--seed", str(seed), "--trials", "100", "--json",
                  "--output", str(out)])
        cost[seed] = CALL_WEIGHT * counts[0] + SIZE_WEIGHT * counts[1]
    middle = statistics.median(cost.values())
    pool = [s for s, c in cost.items() if abs(c / middle - 1) <= 0.03]
    print(f"ORACLE_POOL = {tuple(pool)}")


if __name__ == "__main__":
    main()
