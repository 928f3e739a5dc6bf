"""Benchmark of the bessel-interlace CLI: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload verify-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                   # every workload in turn

Run from the root of a checkout; the package is imported from its
``src``. Every repetition runs the workload's commands in a fresh
interpreter (perfbench/child.py), one repetition at a time, so the zero
cache starts cold as it does for a user. Repetitions continue while the
next one is expected to end within ``--seconds``, and until at least
MIN_REPS have run.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions: wall_s, cpu_s, setup_s and peak_mem_mb. The three times are
scaled to a reference machine speed (REF_US): each repetition also times
a scalar scipy loop, and a run's times are multiplied by REF_US over the
median loop cost, which cancels the host's slow speed swings. The raw
medians are printed and kept in the record. ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics (medians over the traced ones) plus the evaluator floor and the
tracing overhead. Every command's output is checked after its timed
region (perfbench/checks.py); a failed check, a nonzero exit or any
stderr output counts the command as failed, and error_rate is failed
over attempted.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The full
record, with the seed, the exact argv lists, the library versions and
the machine, goes to .perfbench_out/, as do the spans of the first
traced repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

MIN_REPS = 3
# Start no repetition after LAST_START_S, and stop any process still
# running at DEADLINE_S, so one run ends well inside 180 s.
LAST_START_S = 120.0
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_mem_mb": "MB"}
SCALED = ("wall_s", "cpu_s", "setup_s")
#: Scalar scipy jv/yv call cost, in µs, that reported times are scaled to.
REF_US = 2.0

PER_LAYER_UNITS = {
    "evaluate.floor_us": "us",
    "zeros.evals_per_zero": "evals/zero",
    "zeros.iters_per_zero": "iters/zero",
    "zeros.cache.hit_ratio": "ratio",
    "cli.output_bytes": "bytes",
}


def _unit(name: str) -> str:
    unit = END_TO_END.get(name) or PER_LAYER_UNITS.get(name)
    return unit or ("s" if name.endswith("_s") else "count")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # The CLI lets this variable override --threads; the workloads fix it.
    env.pop("BESSEL_INTERLACE_THREADS", None)
    return env


def run_child(workload: str, seed: int, trace: bool, spans_out: Path | None, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"repetition exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    rec = json.loads(lines[-1])
    if not Path(rec["module"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {rec['module']}, not the checkout's src")
    return rec


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run repetitions of one workload and reduce them to metrics."""
    OUT_DIR.mkdir(exist_ok=True)
    argvs = workloads.commands(workload, seed)
    start = time.monotonic()
    # Untimed: fills the OS file cache and writes bytecode once.
    subprocess.run([sys.executable, "-c", "import bessel_interlace.cli"], cwd=ROOT, env=_child_env(), check=True, timeout=DEADLINE_S)

    modes = (False, True) if trace else (False,)
    samples: dict[bool, list[dict]] = {m: [] for m in modes}
    durations: dict[bool, list[float]] = {m: [] for m in modes}
    attempted = failed = crashed = 0
    problems: list[str] = []
    i = 0
    while True:
        elapsed = time.monotonic() - start
        traced = modes[i % len(modes)]
        # Once MIN_REPS of each kind exist, start no repetition that would
        # typically end after --seconds.
        typical = statistics.median(durations[traced]) if durations[traced] else 0.0
        if elapsed + typical >= seconds and all(len(samples[m]) >= MIN_REPS for m in modes):
            break
        if elapsed >= LAST_START_S and all(samples[m] for m in modes):
            break
        i += 1
        spans_out = OUT_DIR / f"{workload}-seed{seed}-spans.jsonl" if traced and not samples[True] else None
        attempted += len(argvs)
        t0 = time.monotonic()
        try:
            rec = run_child(workload, seed, traced, spans_out, DEADLINE_S - elapsed)
            durations[traced].append(time.monotonic() - t0)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            failed += len(argvs)
            problems.append(str(exc))
            crashed += 1
            if crashed >= 3:
                break
            continue
        bad = [p for c in rec["commands"] for p in c["problems"]]
        failed += sum(1 for c in rec["commands"] if c["problems"])
        problems += bad
        samples[traced].append(rec)

    plain = samples[False]
    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    if plain:
        raw = {name: statistics.median([r[name] for r in plain]) for name in (*END_TO_END, "ref_us")}
        for name in END_TO_END:
            metrics[name] = raw[name] * REF_US / raw["ref_us"] if name in SCALED else raw[name]
    if trace and samples[True] and plain:
        traced_recs = samples[True]
        names = sorted({k for r in traced_recs for k in r["per_layer"]})
        for name in names:
            vals = [r["per_layer"][name] for r in traced_recs if name in r["per_layer"]]
            if len(vals) == len(traced_recs):
                metrics[name] = statistics.median_low(vals)
        metrics["evaluate.floor_us"] = statistics.median([r["ref_us"] for r in plain + traced_recs])
        if "evaluate.calls" in metrics:
            # Each derivative is formed from two scipy calls.
            scipy_calls = metrics["evaluate.calls"] + metrics["evaluate.calls.dj"] + metrics["evaluate.calls.dy"]
            metrics["evaluate.floor_s"] = scipy_calls * metrics["evaluate.floor_us"] * 1e-6
            metrics["overhead_above_floor_s"] = raw["wall_s"] - metrics["evaluate.floor_s"]
        # Untraced and traced repetitions alternate; differencing neighbours
        # cancels the slow drifts of a shared machine.
        pairs = zip(plain, traced_recs)
        metrics["trace_overhead_s"] = statistics.median([t["wall_s"] - u["wall_s"] for u, t in pairs])
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "why": workloads.WHY[workload],
        "argv": argvs,
        "machine": machine_info(),
        "samples": {"untraced": len(plain), "traced": len(samples.get(True, []))},
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": metrics,
        "raw_medians": raw,
        "repetitions": [
            {k: v for k, v in r.items() if k != "commands"} | {"traced": t} for t in modes for r in samples[t]
        ],
    }


def _reported(result: dict, trace: bool) -> dict[str, float]:
    """The metrics the final line carries: end-to-end, or per-layer when traced."""
    m = result["metrics"]
    if not trace:
        return {k: m[k] for k in END_TO_END if k in m}
    return {k: v for k, v in m.items() if k not in END_TO_END}


def print_human(result: dict, trace: bool) -> None:
    n = result["samples"]
    print(f"# workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"repetitions untraced={n['untraced']} traced={n['traced']}")
    print("# meta " + json.dumps({k: result[k] for k in ("seed", "argv", "machine")}))
    for name, value in result["metrics"].items():
        if name in SCALED:
            raw = result["raw_medians"]
            print(f"{result['workload']:16s} {name:28s} {value:.6g} {_unit(name)} (median of {n['untraced']}; "
                  f"raw {raw[name]:.6g} s at {raw['ref_us']:.4g} us/call, scaled to {REF_US} us/call)")
        elif name in END_TO_END:
            print(f"{result['workload']:16s} {name:28s} {value:.6g} {_unit(name)} (median of {n['untraced']})")
        elif trace:
            print(f"{result['workload']:16s} {name:28s} {value:.6g} {_unit(name)}")
    att, fail = result["attempted"], result["failed"]
    print(f"{result['workload']:16s} {'error_rate':28s} {fail / att if att else 0:.6g} ({fail}/{att} commands)")
    for p in result["problems"]:
        print(f"# problem: {p}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bessel_interlace" / "cli.py").is_file():
        print(f"perfbench: no bessel_interlace sources under {SRC}", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    attempted = failed = 0
    reported: dict[str, dict] = {}
    for name in names:
        result = measure(name, args.seed, args.seconds, trace)
        (OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
        print_human(result, trace)
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in _reported(result, trace).items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            reported[key] = {"value": value, "unit": _unit(metric)}
    ok = failed == 0 and bool(reported)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0 if reported else 1


if __name__ == "__main__":
    sys.exit(main())
