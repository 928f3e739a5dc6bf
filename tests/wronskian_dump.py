"""Exact dump of ``has_positive_zero`` over a fixed grid of cases, and a
comparison of two dumps.

Prints ``#`` lines naming the grid and the Python, scipy and numpy
versions, then one line per case: ``nu mu x_max -> outcome``, where the
outcome is the root as ``float.hex``, ``none`` when W keeps one sign on
(0, x_max], or the library error's code and message. The grid is every
order nu in NUS with each gap mu - nu in GAPS that keeps mu in [0, 600],
at each x_max in X_MAXES: 324 cases, run in that order from a cold
cache. Two source trees decide every case alike exactly when their
dumps are identical; the script runs against whichever tree
``PYTHONPATH`` names:

    PYTHONPATH=src python tests/wronskian_dump.py > change.txt
    git archive <commit> | tar -x -C <dir>
    PYTHONPATH=<dir>/src python tests/wronskian_dump.py > parent.txt
    python tests/wronskian_dump.py --compare parent.txt change.txt

``--compare`` prints each case whose line differs, or that only one dump
has, and exits 1 when there is any; it skips lines that start with
``#``. ``tests/data/wronskian_dump.txt`` is the dump of a recorded
commit, which its ``#`` lines name, and ``test_wronskian_dump.py``
compares the tree under test with it.

Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import platform
import sys

NUS = (0.0, 0.5, 2.0, 10.0, 100.0, 141.0, 300.0, 599.0)
GAPS = (-300.0, -100.0, -10.0, -2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 10.0, 100.0, 300.0)
X_MAXES = (1e-120, 0.5, 60.0, 600.0)


def cases() -> list[tuple[float, float, float]]:
    return [(nu, nu + gap, x) for nu in NUS for gap in GAPS if 0.0 <= nu + gap <= 600.0 for x in X_MAXES]


def dump(out) -> int:
    """Write the ``#`` lines and one line per case; returns how many cases."""
    import numpy
    import scipy

    from bessel_interlace.errors import BesselInterlaceError
    from bessel_interlace.wronskian import has_positive_zero
    from bessel_interlace.zeros import clear_cache

    grid = cases()
    out.write(
        f"# tests/wronskian_dump.py: has_positive_zero(nu, mu, x_max) on {len(grid)} cases, with Python"
        f" {platform.python_version()}, scipy {scipy.__version__} and numpy {numpy.__version__}"
        f" on {platform.machine()} {platform.system()}.\n"
    )
    clear_cache()
    try:
        for nu, mu, x_max in grid:
            try:
                root = has_positive_zero(nu, mu, x_max)
                outcome = "none" if root is None else root.hex()
            except BesselInterlaceError as exc:
                outcome = f"{exc.code} {exc}"
            out.write(f"{nu!r} {mu!r} {x_max!r} -> {outcome}\n")
    finally:
        clear_cache()
    return len(grid)


def compare(path_a, path_b, out) -> int:
    """Print each case whose line differs between the dumps, or that only
    one of them has, skipping ``#`` lines; returns how many cases differ."""
    dumps = []
    for path in (path_a, path_b):
        with open(path, encoding="ascii") as f:
            dumps.append(dict(line.rstrip("\n").split(" -> ", 1) for line in f if not line.startswith("#")))
    a, b = dumps
    keys = list(a) + [k for k in b if k not in a]
    differ = [k for k in keys if a.get(k) != b.get(k)]
    out.write(f"{len(a)} and {len(b)} cases, {len(differ)} differ\n")
    for k in differ:
        out.write(f"- {k} -> {a.get(k, 'missing')}\n+ {k} -> {b.get(k, 'missing')}\n")
    return len(differ)


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--compare"] and len(args) == 3:
        sys.exit(1 if compare(args[1], args[2], sys.stdout) else 0)
    elif not args:
        print(f"{dump(sys.stdout)} cases", file=sys.stderr)
    else:
        sys.exit("usage: wronskian_dump.py [--compare A.txt B.txt]")
