"""Golden CLI runs: the cases, how to run one, and how to record them.

    PYTHONPATH=src python tests/cli_golden.py tests/data/cli_golden.json

runs every case through ``cli.main`` in one process and writes, per
case, its argv, the zeros it substitutes, its exit code and its stdout,
plus the commit, argv and library versions of the recording.
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
    return cases


def run(case):
    """(exit code, stdout) of one case; stderr is discarded."""
    changes = {(k, nu, s): (lambda v, d=d: v + d) for k, nu, s, d in case["perturb"]}
    out = io.StringIO()
    with substituted_zeros(changes), redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(case["argv"]))
    return code, out.getvalue()


def record(path):
    import numpy
    import scipy

    root = Path(__file__).resolve().parent.parent
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True).stdout.strip()
    cases = []
    for case in _cases():
        code, out = run(case)
        if case["name"].startswith("forced-") and code != 1:
            raise SystemExit(f"{case['name']} forced no violation (exit {code})")
        cases.append(dict(case, exit=code, stdout=out))
    doc = {
        "provenance": {
            "commit": commit,
            "argv": ["PYTHONPATH=src", "python", *sys.argv],
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "cases": cases,
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record(sys.argv[1])
