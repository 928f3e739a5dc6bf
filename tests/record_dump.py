"""Exact dump of a fixed sample of zero records, for bit-identity checks.

Prints one line per record, every float as ``float.hex``: kind, order,
rank, value, bracket lo and hi, residual and iterations. The sample is
every kind at the orders in ORDERS, ranks 1..60, then Y_{2.5} ranks
1..10^4, each sequence built from a cold cache. Two source trees hold
the same records exactly when their dumps are byte-identical:

    PYTHONPATH=src python tests/record_dump.py > change.hex
    git archive <commit> | tar -x -C <dir>
    PYTHONPATH=<dir>/src python tests/record_dump.py > parent.hex
    cmp parent.hex change.hex

Only the public API is used, so the script also runs against a tree
that predates it. Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import sys

from bessel_interlace import ZeroKind, zeros_upto
from bessel_interlace.zeros import clear_cache

ORDERS = (0.0, 1e-300, 0.01, 0.3, 0.5, 1.0, 2.5, 7.25, 30.0, 120.0, 505.0, 600.0)
SAMPLE = [(kind, nu, 60) for kind in ZeroKind for nu in ORDERS] + [(ZeroKind.Y, 2.5, 10_000)]


def dump(out) -> int:
    count = 0
    for kind, nu, s_max in SAMPLE:
        clear_cache()
        for r in zeros_upto(kind, nu, s_max):
            floats = (r.value, r.bracket.lo, r.bracket.hi, r.residual)
            out.write(f"{kind.value} {nu.hex()} {r.id.s} {' '.join(float(v).hex() for v in floats)} {r.iterations}\n")
            count += 1
    return count


if __name__ == "__main__":
    print(f"{dump(sys.stdout)} records", file=sys.stderr)
