"""Golden CLI runs: the cases, how to run one, and how to record them.

    PYTHONPATH=src python tests/cli_golden.py tests/data/cli_golden.json [NAME ...]

runs every case through ``cli.main`` in one process and writes, per
case, its argv, the zeros it substitutes, its exit code and its stdout,
plus the commit, argv and library versions of the recording. Given case
names, it re-records only those cases into the existing file (appending
the ones it lacks) and adds an entry to its ``rerecorded`` list with the
commit, argv and versions of that recording and the names it covered.
``test_cli_golden.py`` replays the recorded cases and asserts the same
exit codes and stdout bytes.

Forced cases shift named zeros at the lookup boundary
(``substitute.substituted_zeros``) to put violations into every suite:
``[kind, nu, s, delta]`` reads zero (kind, nu, s) as its true value plus
delta.
"""

import io
import json
import platform
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from bessel_interlace import cli
from substitute import substituted_zeros

SMALL = ["--nu-grid", "0:1:0.5", "--smax", "5"]
NO_EPS_ONE = ["--eps-grid", "0.25:0.75:0.25"]

# theorem1 at nu = 0.5: jp(v,2) fails in the mixed chain and then in the
# jp interleaving, j(v,2) in the j interleaving and then the mixed chain;
# each pair shares (nu, eps, s, left label), so only emission order
# separates them. jp(5,1) drops below nu = 5 (the leading bound).
THEOREM1_FORCED = [["jp", 0.5, 2, 3.0], ["j", 0.5, 2, 3.0], ["y", 1.5, 1, 2.0], ["yp", 1.5, 2, -3.0], ["jp", 5.0, 1, -2.0]]
# proposition: one failure per pair at nu = 1; at nu = 0 the identity
# j(1,2) = jp(0,3) is broken by 1e-3, beyond the exemption.
PROPOSITION_FORCED = [["j", 2.0, 1, 2.0], ["y", 2.0, 3, 2.0], ["j", 1.0, 2, 1e-3]]
DERIVATIVE_FORCED = [["jp", 1.0, 2, 3.0], ["yp", 0.75, 1, -0.5]]
# theorem2: y(1.5,1) + 3 breaks several pairs of one rank (only the first
# is reported); y(1,2) + 1e-6 breaks the nu = 0, eps = 1 identity
# y(v+e,2) = yp(v,2).
THEOREM2_FORCED = [["y", 1.5, 1, 3.0], ["y", 1.0, 2, 1e-6]]


def _cases():
    cases = []
    for suite in ("theorem1", "proposition", "derivative-chains", "theorem2", "all"):
        cases.append({"name": f"verify-{suite}", "argv": ["verify", "--suite", suite, *SMALL], "perturb": []})
        cases.append(
            {"name": f"verify-{suite}-no-eps1", "argv": ["verify", "--suite", suite, *SMALL, *NO_EPS_ONE], "perturb": []}
        )
    cases += [
        {
            "name": "verify-all-acceptance-sweep",
            "argv": ["verify", "--suite", "all", "--nu-grid", "0:10:0.25", "--smax", "20"],
            "perturb": [],
        },
        {"name": "verify-all-threads-2", "argv": ["verify", "--suite", "all", *SMALL, "--threads", "2"], "perturb": []},
        {"name": "verify-theorem1-smax-over-cap", "argv": ["verify", "--suite", "theorem1", *SMALL[:2], "--smax", "101"], "perturb": []},
        {"name": "chain-nu0-eps2", "argv": ["chain", "--nu", "0", "--eps", "2", "--smax", "5"], "perturb": []},
        {"name": "chain-nu0-eps1-json", "argv": ["chain", "--nu", "0", "--eps", "1", "--smax", "5", "--format", "json"], "perturb": []},
        {
            "name": "chain-nu0-eps1-identity-broken",
            "argv": ["chain", "--nu", "0", "--eps", "1", "--smax", "3", "--format", "json"],
            "perturb": THEOREM2_FORCED[1:],
        },
        {
            "name": "forced-theorem1",
            "argv": ["verify", "--suite", "theorem1", "--nu-grid", "0:5:0.5", "--smax", "4"],
            "perturb": THEOREM1_FORCED,
        },
        {
            "name": "forced-proposition",
            "argv": ["verify", "--suite", "proposition", "--nu-grid", "0:1:1", "--smax", "4"],
            "perturb": PROPOSITION_FORCED,
        },
        {
            "name": "forced-derivative-chains",
            "argv": ["verify", "--suite", "derivative-chains", "--nu-grid", "0:1:0.5", "--smax", "4"],
            "perturb": DERIVATIVE_FORCED,
        },
        {
            "name": "forced-theorem2",
            "argv": ["verify", "--suite", "theorem2", "--nu-grid", "0:1:0.5", "--smax", "4"],
            "perturb": THEOREM2_FORCED,
        },
        {
            "name": "forced-all",
            "argv": ["verify", "--suite", "all", "--nu-grid", "0:1:0.5", "--smax", "4"],
            "perturb": PROPOSITION_FORCED + DERIVATIVE_FORCED + THEOREM2_FORCED + THEOREM1_FORCED[:4],
        },
    ]
    plain = {
        "zeros-j-nu0": ["zeros", "--kind", "j", "--nu", "0", "--smax", "5"],
        "zeros-jp-nu0": ["zeros", "--kind", "jp", "--nu", "0", "--smax", "4"],
        "zeros-jp-nu0-json": ["zeros", "--kind", "jp", "--nu", "0", "--smax", "4", "--format", "json"],
        "zeros-y-nu2.5-json": ["zeros", "--kind", "y", "--nu", "2.5", "--smax", "6", "--format", "json"],
        "zeros-yp-nu505": ["zeros", "--kind", "yp", "--nu", "505", "--smax", "3"],
        "zeros-yp-nu600-json": ["zeros", "--kind", "yp", "--nu", "600", "--smax", "3", "--format", "json"],
        "break-nu10-eps1.25": ["break", "--nu", "10", "--eps", "1.25"],
        "break-nu0-eps2-json": ["break", "--nu", "0", "--eps", "2", "--format", "json"],
        "break-cap-exhausted": ["break", "--nu", "10", "--eps", "1.25", "--scap", "2"],
        "break-cap-exhausted-json": ["break", "--nu", "10", "--eps", "1.25", "--scap", "2", "--format", "json"],
        "counterexample-jp-vs-y-json": ["counterexample", "--eps", "1", "--nu-list", "0,599", "--s", "1", "--format", "json"],
        "counterexample-yp-vs-j": ["counterexample", "--eps", "0.25", "--nu-list", "0,400", "--s", "1", "--pair", "yp-vs-j"],
        "counterexample-one-ordering": ["counterexample", "--eps", "0.1", "--nu-list", "0.5,5", "--s", "1"],
        "wronskian-nu0-mu2-json": ["wronskian", "--nu", "0", "--mu", "2", "--smax", "10", "--format", "json"],
        "wronskian-nu0-mu0.5": ["wronskian", "--nu", "0", "--mu", "0.5", "--smax", "10"],
        "wronskian-nu1-mu4.5": ["wronskian", "--nu", "1", "--mu", "4.5", "--smax", "6", "--xmax", "40"],
        # The walk that travels furthest from its anchor (j_{600,1}).
        "zeros-j-nu600": ["zeros", "--kind", "j", "--nu", "600", "--smax", "3"],
        # The primed kinds deep into the oscillatory range; j'_{0.3,1} sits
        # near sqrt(2 nu), below the usual anchor at nu.
        "zeros-jp-nu0.3": ["zeros", "--kind", "jp", "--nu", "0.3", "--smax", "40"],
        "zeros-yp-nu30-json": ["zeros", "--kind", "yp", "--nu", "30", "--smax", "40", "--format", "json"],
        "zeros-j-nu7.25": ["zeros", "--kind", "j", "--nu", "7.25", "--smax", "40"],
        # The witness at rank 65, the first of a second 64-rank read.
        "break-nu10-eps1.0318": ["break", "--nu", "10", "--eps", "1.0318"],
        # Domain errors: exit 2 with nothing on stdout.
        "break-eps-below-one": ["break", "--nu", "0", "--eps", "0.5"],
        "wronskian-equal-orders": ["wronskian", "--nu", "1", "--mu", "1"],
        "wronskian-mu-below-nu": ["wronskian", "--nu", "2", "--mu", "1"],
    }
    cases += [{"name": name, "argv": argv, "perturb": []} for name, argv in plain.items()]
    return cases


def run(case):
    """(exit code, stdout) of one case; stderr is discarded."""
    changes = {(k, nu, s): (lambda v, d=d: v + d) for k, nu, s, d in case["perturb"]}
    out = io.StringIO()
    with substituted_zeros(changes), redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(case["argv"]))
    return code, out.getvalue()


def _provenance():
    import numpy
    import scipy

    root = Path(__file__).resolve().parent.parent
    git = lambda *args: subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True).stdout
    return {
        "commit": git("rev-parse", "HEAD").strip(),
        "src_modified": bool(git("status", "--porcelain", "--", "src").strip()),
        "argv": ["PYTHONPATH=src", "python", *sys.argv],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def record(path, names=()):
    """Record every case into ``path``, or only the named ones into the file there."""
    cases = [c for c in _cases() if not names or c["name"] in names]
    if names and len(cases) != len(set(names)):
        raise SystemExit(f"unknown case names: {sorted(set(names) - {c['name'] for c in cases})}")
    recorded = []
    for case in cases:
        code, out = run(case)
        if case["name"].startswith("forced-") and code != 1:
            raise SystemExit(f"{case['name']} forced no violation (exit {code})")
        recorded.append(dict(case, exit=code, stdout=out))
    if not names:
        doc = {"provenance": _provenance(), "cases": recorded}
    else:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        index = {c["name"]: i for i, c in enumerate(doc["cases"])}
        for case in recorded:
            if case["name"] in index:
                doc["cases"][index[case["name"]]] = case
            else:
                doc["cases"].append(case)
        doc.setdefault("rerecorded", []).append(dict(_provenance(), cases=list(names)))
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    # The first argument is the file written; an option in its place is a mistake.
    if len(sys.argv) < 2 or sys.argv[1].startswith("-"):
        print("usage: cli_golden.py OUT.json [NAME ...]", file=sys.stderr)
        sys.exit(2)
    record(sys.argv[1], sys.argv[2:])
