"""Exit code, stdout sha256 and evaluator calls of every benchmark command,
and a comparison of two such dumps.

Prints one line per command of each benchmark workload, as
``perfbench/workloads.py`` lists them for a seed, in each output format
the command accepts: seed, workload, the command's position in it, the
subcommand and the format, then the exit code, the sha256 of stdout and
the number of evaluator calls (``evaluate.bessel_j``, ``bessel_y``,
``bessel_dj`` and ``bessel_dy`` together). Each command runs in process
through ``cli.main`` from a cold cache, so its line does not depend on
the commands before it. Two source trees behave the same on the
benchmark when their dumps are identical; the script runs against
whichever tree ``PYTHONPATH`` names:

    PYTHONPATH=src python tests/command_dump.py 0 3 > change.txt
    git archive <commit> | tar -x -C <dir>
    PYTHONPATH=<dir>/src python tests/command_dump.py 0 3 > parent.txt
    python tests/command_dump.py --compare parent.txt change.txt

The seeds default to 0. ``--compare`` prints each line that differs, or
that only one dump has, and exits 1 when there is any; it skips lines
that start with ``#``. ``tests/data/command_dump.txt`` is the seed-0 dump
of a recorded commit, which its ``#`` lines name, and
``test_command_dump.py`` compares the tree under test with it.

Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

EVALUATORS = ("bessel_j", "bessel_y", "bessel_dj", "bessel_dy")


def _formats(parser: argparse.ArgumentParser, command: str) -> tuple[str, ...]:
    """The --format choices of ``command``'s subparser."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return tuple(next(a.choices for a in sub.choices[command]._actions if a.dest == "format"))


def _run(argv: list[str]) -> tuple[int, str, int]:
    """(exit code, stdout sha256, evaluator calls) of ``cli.main(argv)`` from a cold cache."""
    from bessel_interlace import cli
    from bessel_interlace import evaluate as ev
    from bessel_interlace.zeros import clear_cache

    calls = 0
    real = {name: getattr(ev, name) for name in EVALUATORS}

    def counted(f):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return f(*args)

        return wrapper

    clear_cache()
    out = io.StringIO()
    for name, f in real.items():
        setattr(ev, name, counted(f))
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        for name, f in real.items():
            setattr(ev, name, f)
        clear_cache()
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), calls


def dump(seeds: list[int], out) -> int:
    """Write one line per (seed, workload, command, format); returns how many."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    from bessel_interlace import cli

    parser = cli.build_parser()
    count = 0
    for seed in seeds:
        for name in workloads.NAMES:
            for i, argv in enumerate(workloads.commands(name, seed)):
                for fmt in _formats(parser, argv[0]):
                    code, sha, calls = _run([*argv, "--format", fmt])
                    out.write(f"{seed} {name} {i} {argv[0]} {fmt} exit={code} sha256={sha} calls={calls}\n")
                    count += 1
    return count


def compare(path_a, path_b, out) -> int:
    """Print each line of one dump that the other lacks, keyed by its first
    five fields, skipping ``#`` lines; returns how many keys differ."""
    dumps = []
    for path in (path_a, path_b):
        with open(path, encoding="ascii") as f:
            dumps.append({tuple(line.split()[:5]): line.rstrip("\n") for line in f if not line.startswith("#")})
    a, b = dumps
    keys = list(a) + [k for k in b if k not in a]
    differ = [k for k in keys if a.get(k) != b.get(k)]
    out.write(f"{len(a)} and {len(b)} lines, {len(differ)} differ\n")
    for k in differ:
        out.write(f"- {a.get(k, ' '.join(k) + ' missing')}\n+ {b.get(k, ' '.join(k) + ' missing')}\n")
    return len(differ)


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--compare"] and len(args) == 3:
        sys.exit(1 if compare(args[1], args[2], sys.stdout) else 0)
    elif all(a.isdigit() for a in args):
        print(f"{dump([int(a) for a in args] or [0], sys.stdout)} commands", file=sys.stderr)
    else:
        sys.exit("usage: command_dump.py [SEED ...] | --compare A.txt B.txt")
