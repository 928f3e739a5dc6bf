"""The benchmark's workloads: CLI argument lists derived from a seed.

Seed 0 gives the canonical commands exactly; any other seed draws the
orders from the stated ranges with a generator keyed on (workload, seed),
so the same seed always gives the same argv lists. Every draw stays where
the CLI succeeds: the theorems hold on every grid, the breaking rank stays
far below --scap, and each counterexample list spans the ordering flip of
jp(nu+1,1) against y(nu,1) near nu = 505.
"""

from __future__ import annotations

import random

NAMES = ("verify-sweep", "verify-sweep-t2", "zeros-long", "search-mix")

WHY = {
    "verify-sweep": "many short sequences reused ~93% through the cache; interlace checkers and the zeros lookup path carry the weight",
    "verify-sweep-t2": "the same sweep with --threads 2, the only workload through the cli thread pool and per-sequence locks",
    "zeros-long": "one 10^4-zero Y sequence with no cache reuse and no checkers; walk, refine and CSV rendering do the work",
    "search-mix": "rank-at-a-time break search, rank-1 scan over ~100 large orders, and the only wronskian use; punishes eager precomputation",
}


def _verify(start: float, threads: int | None) -> list[str]:
    argv = ["verify", "--suite", "all", "--nu-grid", f"{start:.10g}:{start + 10:.10g}:0.25", "--smax", "20"]
    if threads is not None:
        argv += ["--threads", str(threads)]
    return argv


def commands(name: str, seed: int) -> list[list[str]]:
    """The argv lists one repetition of workload ``name`` runs, in order."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
    rng = random.Random(f"{name}:{seed}")
    canonical = seed == 0
    if name in ("verify-sweep", "verify-sweep-t2"):
        # Starts on a 1/32 lattice keep every grid order and every nu + eps
        # an exact binary fraction, so each seed builds the same 45 cached
        # orders as the canonical grid. On other starts nu + eps can miss a
        # grid order by one ulp and add up to 12 near-duplicate orders
        # (+25% work), which would make seeds incomparable.
        start = 0.0 if canonical else rng.randrange(8) / 32
        return [_verify(start, 2 if name == "verify-sweep-t2" else None)]
    if name == "zeros-long":
        nu = 2.5 if canonical else round(rng.uniform(2.0, 3.0), 3)
        return [["zeros", "--kind", "y", "--nu", f"{nu:g}", "--smax", "10000"]]
    nu = 10.0 if canonical else round(rng.uniform(9.0, 11.0), 3)
    first = 400 if canonical else rng.randint(395, 405)
    nu_list = ",".join(str(v) for v in range(first, first + 201))
    return [
        ["break", "--nu", f"{nu:g}", "--eps", "1.001", "--scap", "10000"],
        ["counterexample", "--eps", "1", "--nu-list", nu_list, "--s", "1", "--pair", "jp-vs-y"],
        ["wronskian", "--nu", "0", "--mu", "2", "--smax", "200", "--xmax", "600"],
    ]
