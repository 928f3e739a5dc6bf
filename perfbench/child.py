"""One repetition of a workload, in a fresh interpreter.

Run by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
Times the import of ``bessel_interlace.cli`` (scipy included), then
runs the workload's commands in process through ``cli.main(argv)``
with stdout and stderr captured, timing wall and process CPU around
them and reading peak RSS before and after. A short scalar-scipy loop
before and after the commands measures the machine's current speed.
With ``--trace 1`` the commands run under the span tracer instead.
Output checks and trace summaries happen after the timed region.
Prints one JSON object.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import bessel_interlace.cli as cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

from scipy.special import jv, yv  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def evaluator_floor_us(loops: int = 5, n: int = 4000) -> float:
    """Median µs per scalar scipy jv/yv call in a tight loop (~80 ms).

    Measured before and after the commands of every repetition: the
    machine's speed drifts by tens of percent over seconds to minutes,
    and run.py scales timings by this reference to cancel the drift.
    """
    xs = [3.0 + 7.5 * i for i in range(n)]
    per_call = []
    for _ in range(loops):
        t = time.perf_counter()
        for x in xs:
            jv(2.5, x)
            yv(2.5, x)
        per_call.append((time.perf_counter() - t) / (2 * n) * 1e6)
    return sorted(per_call)[loops // 2]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    cmds = workloads.commands(args.workload, args.seed)
    ref_before = evaluator_floor_us()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()

    rss0 = _peak_rss_kb()
    results = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for argv in cmds:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        results.append((argv, code, out.getvalue(), err.getvalue()))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    peak_mb = (_peak_rss_kb() - rss0) / 1024.0
    if tracer is not None:
        tracer.uninstall()
    ref_after = evaluator_floor_us()

    record = {
        "module": cli.__file__,
        "setup_s": SETUP_S,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_mem_mb": peak_mb,
        "ref_us": 0.5 * (ref_before + ref_after),
        "output_bytes": sum(len(out.encode()) for _, _, out, _ in results),
    }
    if tracer is not None:
        span_list = tracer.spans()
        layer = spans.summarize(span_list, tracer.counts(), len(tracer.sequence_keys()), tracer.missing)
        layer["cli.output_bytes"] = record["output_bytes"]
        record["per_layer"] = layer
        record["missing"] = tracer.missing
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for s in span_list:
                    fh.write(json.dumps(s._asdict()) + "\n")

    record["commands"] = [
        {"argv": argv, "exit": code, "problems": checks.check_command(argv, code, out, err)}
        for argv, code, out, err in results
    ]
    print(json.dumps(record))


if __name__ == "__main__":
    main()
