"""In-memory span tracing of the bessel_interlace layers, installed from outside.

The tracer replaces the package's public functions with wrappers at
every module binding that refers to them, including the names that
``interlace``, ``wronskian`` and ``cli`` import from ``zeros``, so calls
made through either binding are seen. Nothing under ``src/`` changes.

A span is (id, name, parent id, thread id, start, end). Spans stay in
per-thread lists until the run ends. Evaluator calls are counted, not
spanned, and each is also charged to the innermost open span, which is
how walk and refine evaluations are told apart. A span opened by a
thread with no open span of its own (a pool worker) gets the open root
span (``cli.main``) as its parent.

A target that is missing from the package is skipped and listed in
``Tracer.missing``; the summary then leaves out the metrics built on it.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

# Span name -> (module, public functions whose calls open that span).
SPAN_TARGETS = {
    "cli.main": ("cli", ("main",)),
    "cli.format": ("cli", ("to_json", "to_csv")),
    "interlace": (
        "interlace",
        (
            "build_chain",
            "check_chain",
            "check_theorem1",
            "check_proposition",
            "check_derivative_chains",
            "find_breaking",
            "counterexample_scan",
        ),
    ),
    "wronskian": ("wronskian", ("profile_extrema", "has_positive_zero", "sign_agreement", "eq19_residual")),
    "zeros.lookup": ("zeros", ("zero", "zeros_upto")),
    "zeros.walk": ("zeros", ("initial_bracket",)),
    "zeros.refine": ("zeros", ("refine",)),
}

# Counter name -> (module, function) counted per call without a span.
COUNT_TARGETS = {
    "evaluate.calls.j": ("evaluate", "bessel_j"),
    "evaluate.calls.y": ("evaluate", "bessel_y"),
    "evaluate.calls.dj": ("evaluate", "bessel_dj"),
    "evaluate.calls.dy": ("evaluate", "bessel_dy"),
    "wronskian.eval_W.calls": ("wronskian", "eval_W"),
}

EVAL_KINDS = ("j", "y", "dj", "dy")

PACKAGE = "bessel_interlace"


class Span(NamedTuple):
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[tuple[int, str]] = []
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.keys: set = set()
        self.thread = threading.get_ident()


class Tracer:
    def __init__(self) -> None:
        self.missing: list[str] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._root: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # --- per-thread state ------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(st)
        return st

    def spans(self) -> list[Span]:
        return sorted((s for st in self._states for s in st.spans), key=lambda s: s.id)

    def counts(self) -> Counter:
        total: Counter = Counter()
        for st in self._states:
            total.update(st.counts)
        return total

    def sequence_keys(self) -> set:
        return set().union(*(st.keys for st in self._states))

    # --- wrappers --------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        tracer, clock = self, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            parent = st.stack[-1][0] if st.stack else tracer._root
            sid = next(tracer._ids)
            is_root = parent is None
            if is_root:
                tracer._root = sid
            st.stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                st.stack.pop()
                st.spans.append(Span(sid, name, parent, st.thread, start, end))
                if is_root:
                    tracer._root = None
            if name == "zeros.lookup":
                st.keys.add(_sequence_key(args, kwargs))
            elif name == "zeros.refine":
                iterations = getattr(result, "iterations", None)
                if iterations is not None:
                    st.counts["zeros.refine.iterations"] += iterations
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self
        charge = name.startswith("evaluate.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            st.counts[name] += 1
            if charge and st.stack:
                st.counts[st.stack[-1][1] + ".evals"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding inside the package."""
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        plan = [(name, mod, fn, self._span_wrapper) for name, (mod, fns) in SPAN_TARGETS.items() for fn in fns]
        plan += [(name, mod, fn, self._count_wrapper) for name, (mod, fn) in COUNT_TARGETS.items()]
        for name, mod_name, fn_name, make in plan:
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(module, fn_name, None) if module is not None else None
            if not callable(original):
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = make(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, value))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def _sequence_key(args, kwargs):
    """(kind, nu) of a zero() or zeros_upto() call."""
    if len(args) == 1 and not kwargs:
        zid = args[0]
        return (getattr(zid, "kind", None), float(getattr(zid, "nu", 0.0)))
    kind = args[0] if args else kwargs.get("kind")
    nu = args[1] if len(args) > 1 else kwargs.get("nu")
    return (kind, float(nu))


# --- summary arithmetic (pure, tested on synthetic spans) -------------------

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus the time its child spans cover.

    Children of one span may overlap (pool threads under ``cli.main``);
    the covered time is the union of their intervals, clipped to the
    parent's.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None:
            children[p.id].append((max(s.start, p.start), min(s.end, p.end)))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = _union_length([iv for iv in children.get(s.id, ()) if iv[1] > iv[0]])
        out[s.name] += (s.end - s.start) - covered
    return dict(out)


def lookup_hits(spans: list[Span]) -> tuple[int, int]:
    """(hits, lookups): a hit is a lookup with no walk or refine beneath it."""
    by_id = {s.id: s for s in spans}
    missed: set[int] = set()
    for s in spans:
        if s.name not in ("zeros.walk", "zeros.refine"):
            continue
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == "zeros.lookup":
                missed.add(p.id)
            p = by_id.get(p.parent)
    lookups = [s.id for s in spans if s.name == "zeros.lookup"]
    return sum(1 for i in lookups if i not in missed), len(lookups)


def summarize(spans: list[Span], counts: Counter, sequences: int, missing: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    Metrics whose targets were missing are left out. Evaluator floor and
    trace overhead need untraced measurements and are added by the caller.
    """
    gone = set(missing)

    def have(*targets: str) -> bool:
        return not gone.intersection(targets)

    selfs = self_times(spans)
    n = Counter(s.name for s in spans)
    m: dict[str, float] = {}

    eval_targets = [f"evaluate.bessel_{k}" for k in EVAL_KINDS]
    if have(*eval_targets):
        for k in EVAL_KINDS:
            m[f"evaluate.calls.{k}"] = counts[f"evaluate.calls.{k}"]
        m["evaluate.calls"] = sum(m[f"evaluate.calls.{k}"] for k in EVAL_KINDS)

    for layer, target in (("walk", "zeros.initial_bracket"), ("refine", "zeros.refine")):
        if have(target):
            m[f"zeros.{layer}.calls"] = n[f"zeros.{layer}"]
            m[f"zeros.{layer}.self_s"] = selfs.get(f"zeros.{layer}", 0.0)
            if have(*eval_targets):
                m[f"zeros.{layer}.evals"] = counts[f"zeros.{layer}.evals"]
    if have("zeros.refine"):
        m["zeros.refine.iterations"] = counts["zeros.refine.iterations"]
        made = n["zeros.refine"]
        m["zeros.iters_per_zero"] = m["zeros.refine.iterations"] / made if made else 0.0
        if "zeros.walk.evals" in m:
            m["zeros.evals_per_zero"] = (m["zeros.walk.evals"] + m["zeros.refine.evals"]) / made if made else 0.0

    if have("zeros.zero", "zeros.zeros_upto"):
        hits, lookups = lookup_hits(spans)
        m["zeros.lookup.calls"] = lookups
        m["zeros.lookup.self_s"] = selfs.get("zeros.lookup", 0.0)
        m["zeros.cache.sequences"] = sequences
        if have("zeros.initial_bracket", "zeros.refine"):
            m["zeros.cache.hit_ratio"] = hits / lookups if lookups else 0.0

    for layer in ("interlace", "wronskian"):
        if any(f"{layer}.{fn}" not in gone for fn in SPAN_TARGETS[layer][1]):
            m[f"{layer}.calls"] = n[layer]
            m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    if have("wronskian.eval_W"):
        m["wronskian.eval_W.calls"] = counts["wronskian.eval_W.calls"]

    if have("cli.main"):
        m["cli.self_s"] = selfs.get("cli.main", 0.0)
    if have("cli.to_json", "cli.to_csv"):
        m["cli.format_s"] = selfs.get("cli.format", 0.0)
    return m
