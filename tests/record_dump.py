"""Exact dump of a fixed sample of zero records, and a comparison of two dumps.

Prints one line per record, every float as ``float.hex``: kind, order,
rank, value, bracket lo and hi, residual and iterations. The sample is
every kind at the orders in ORDERS, ranks 1..60, then Y_{2.5} ranks
1..10^4, each sequence built from a cold cache. Two source trees hold
the same records exactly when their dumps are byte-identical:

    PYTHONPATH=src python tests/record_dump.py > change.hex
    git archive <commit> | tar -x -C <dir>
    PYTHONPATH=<dir>/src python tests/record_dump.py > parent.hex
    python tests/record_dump.py --compare parent.hex change.hex

``--compare`` asserts that both dumps name the same (kind, order, rank)
in the same order, then prints per field how many records differ and
the largest move: in ulps of the first dump's value for value, lo and
hi, and absolute for residual and iterations. It ends with each dump's
total of iterations, and exits 1 when any record differs in any field,
so a script can use it as the bit-identity check.

Only the public API is used, so the script also runs against a tree
that predates it. Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import math
import sys

FIELDS = ("value", "lo", "hi", "residual", "iterations")
ORDERS = (0.0, 1e-300, 0.01, 0.3, 0.5, 1.0, 2.5, 7.25, 30.0, 120.0, 505.0, 600.0)


def dump(out) -> int:
    from bessel_interlace import ZeroKind, zeros_upto
    from bessel_interlace.zeros import clear_cache

    sample = [(kind, nu, 60) for kind in ZeroKind for nu in ORDERS] + [(ZeroKind.Y, 2.5, 10_000)]
    count = 0
    for kind, nu, s_max in sample:
        clear_cache()
        for r in zeros_upto(kind, nu, s_max):
            floats = (r.value, r.bracket.lo, r.bracket.hi, r.residual)
            out.write(f"{kind.value} {nu.hex()} {r.id.s} {' '.join(float(v).hex() for v in floats)} {r.iterations}\n")
            count += 1
    return count


def _read(path):
    with open(path, encoding="ascii") as f:
        rows = [line.split() for line in f]
    ranks = [tuple(row[:3]) for row in rows]
    fields = [[float.fromhex(v) for v in row[3:7]] + [int(row[7])] for row in rows]
    return ranks, fields


def compare(path_a, path_b, out) -> int:
    """Per field: records that differ between the dumps, and the largest move;
    then each dump's total of iterations. Returns how many records differ."""
    ranks_a, a = _read(path_a)
    ranks_b, b = _read(path_b)
    assert ranks_a == ranks_b, "the dumps name different ranks"
    out.write(f"{len(ranks_a)} records, ranks identical\n")
    for i, name in enumerate(FIELDS):
        moved = [(ra[i], rb[i], ra[0]) for ra, rb in zip(a, b) if ra[i] != rb[i]]
        if i < 3:
            worst = max((abs(x - y) / math.ulp(v) for x, y, v in moved), default=0.0)
            unit = "ulps"
        else:
            worst = max((abs(x - y) for x, y, _ in moved), default=0)
            unit = "absolute"
        out.write(f"{name}: {len(moved)} differ, largest move {worst:.3g} {unit}\n")
    out.write(f"iterations in total: {sum(r[4] for r in a):,} -> {sum(r[4] for r in b):,}\n")
    return sum(ra != rb for ra, rb in zip(a, b))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(1 if compare(sys.argv[2], sys.argv[3], sys.stdout) else 0)
    elif len(sys.argv) == 1:
        print(f"{dump(sys.stdout)} records", file=sys.stderr)
    else:
        sys.exit("usage: record_dump.py [--compare A.hex B.hex]")
