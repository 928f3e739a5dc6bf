"""Exact dump of a fixed sample of zero records, and a comparison of two dumps.

Prints one line per record, every float as ``float.hex``: kind, order,
rank, value, bracket lo and hi, residual and iterations. The sample is
every kind at the orders in ORDERS, ranks 1..60, then Y_{2.5} ranks
1..10^4, each sequence built from a cold cache. Two source trees hold
the same records exactly when their dumps are byte-identical. Each
tree's dump is made by that tree's own copy of this script, since it
reads the record fields of its own tree:

    PYTHONPATH=src python tests/record_dump.py > change.hex
    git archive <commit> | tar -x -C <dir>
    PYTHONPATH=<dir>/src python <dir>/tests/record_dump.py > parent.hex
    python tests/record_dump.py --compare parent.hex change.hex

``--compare`` asserts that both dumps name the same (kind, order, rank)
in the same order, then prints per field how many records differ and
the largest move: in ulps of the first dump's value for value, lo and
hi, and absolute for residual and iterations. It ends with each dump's
total of iterations, and exits 1 when any record differs in any field,
so a script can use it as the bit-identity check. With ``--oracle``
(after the two paths) it also prints, for the values that moved, each
dump's distance from the mpmath root (``oracle.root_near``) in ulps of
that value, median and max.

``tests/data/record_dump.txt`` holds the sha256 and record count of a
recorded commit's dump, which its ``#`` lines name, and
``test_record_dump.py`` compares the tree under test with it.

Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import math
import statistics
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
            floats = (r.value, r.lo, r.hi, r.residual)
            out.write(f"{kind.value} {nu.hex()} {r.s} {' '.join(float(v).hex() for v in floats)} {r.iterations}\n")
            count += 1
    return count


def _read(path):
    with open(path, encoding="ascii") as f:
        rows = [line.split() for line in f]
    ranks = [tuple(row[:3]) for row in rows]
    fields = [[float.fromhex(v) for v in row[3:7]] + [int(row[7])] for row in rows]
    return ranks, fields


def compare(path_a, path_b, out, oracle=False) -> int:
    """Per field: records that differ between the dumps, and the largest move;
    then each dump's total of iterations and, with ``oracle``, each dump's
    distance from the mpmath root over the moved values. Returns how many
    records differ."""
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
    if oracle:
        _oracle_distances(ranks_a, a, b, out)
    return sum(ra != rb for ra, rb in zip(a, b))


def _oracle_distances(ranks, a, b, out):
    """Each dump's distance, in ulps of its own value, from the mpmath root
    near the values that moved: median and max."""
    import oracle  # mpmath, imported only when asked for

    moved = [(rank, ra[0], rb[0]) for rank, ra, rb in zip(ranks, a, b) if ra[0] != rb[0]]
    dist = {"first": [], "second": []}
    for (kind, nu, _), va, vb in moved:
        root = oracle.root_near(kind, float.fromhex(nu), va, 1e-12 * max(1.0, va))
        dist["first"].append(float(abs(root - va)) / math.ulp(va))
        dist["second"].append(float(abs(root - vb)) / math.ulp(vb))
    out.write(f"mpmath distance of the {len(moved)} moved values, in ulps:")
    for side, d in dist.items():
        out.write(f" {side} median {statistics.median(d) if d else 0.0:.3g} max {max(d, default=0.0):.3g};")
    out.write("\n")


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--compare"] and len(args) in (3, 4) and args[3:] in ([], ["--oracle"]):
        sys.exit(1 if compare(args[1], args[2], sys.stdout, oracle=len(args) == 4) else 0)
    elif not args:
        print(f"{dump(sys.stdout)} records", file=sys.stderr)
    else:
        sys.exit("usage: record_dump.py [--compare A.hex B.hex [--oracle]]")
