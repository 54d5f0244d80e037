"""Run the five checks every change must pass, in turn, and print one
pass/fail line for each.  Takes no options.  Run from anywhere:

    python3 tools/verify.py

The checks are the existing commands, run from the root of the checkout:

    tier-1     PYTHONPATH=src python -m pytest -q --continue-on-collection-errors
    fixtures   python3 tools/check_fixtures.py
    criteria   python3 tools/check_criteria.py
    perfbench  python3 perfbench/run.py --workload all --seed 7 --seconds 2
    engine     python3 tools/time_engine.py

perfbench passes when it exits 0 and its report marks every workload
correct, with an empty `self_check` and traced counts that repeat.  The
others pass when they exit 0; for the engine timings that means every
case's golden count held: the Taylor-8, -9 and -10 certificate sizes, the
parse entry counts, the symmetric-algebra monomial counts and the generator
counts and homology of the perturbed Taylor tables' associator submodules
among them.  A failing check's last lines of output are
printed under its line.  Exits 0 when every check passes, 1 otherwise.
Last come the totals of `tools/code_lines.py` on the library and on
`tools/`, which are information only and do not change the exit status.
perfbench runs each workload three times for 2 s, still at least one whole
pass each, since its report's correctness and counts need no timing; with
the engine timings at about 27 s the whole run takes about three minutes.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from code_lines import PACKAGE, code_lines

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
TOOLS = Path(__file__).resolve().parent
TAIL = 30


def with_src_on_path():
    """The environment with src/ first on PYTHONPATH, as tier-1 needs; the
    other checks put src/ on their path themselves."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def perfbench_problems(stdout: str) -> list:
    """What keeps a `--workload all` report from passing: a workload not
    correct, a nonempty self-check or traced counts that differ."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["no JSON report on standard output"]
    problems = []
    for name, res in report["workloads"].items():
        if not res["correct"]:
            problems.append(f"{name}: not correct")
        if res["self_check"]:
            problems.append(f"{name}: self_check {res['self_check']}")
        if not res["traced_counts_repeat"]:
            problems.append(f"{name}: traced counts differ")
    return problems


CHECKS = [
    ("tier-1", [sys.executable, "-m", "pytest", "-q",
                "--continue-on-collection-errors"], None),
    ("fixtures", [sys.executable, "tools/check_fixtures.py"], None),
    ("criteria", [sys.executable, "tools/check_criteria.py"], None),
    ("perfbench", [sys.executable, "perfbench/run.py", "--workload", "all",
                   "--seed", "7", "--seconds", "2"], perfbench_problems),
    ("engine", [sys.executable, "tools/time_engine.py"], None),
]


def main() -> int:
    failed = 0
    env = with_src_on_path()
    for name, cmd, read_report in CHECKS:
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              env=env)
        seconds = time.perf_counter() - start
        problems = [] if proc.returncode == 0 else [
            f"exit status {proc.returncode}"]
        if read_report is not None and proc.returncode == 0:
            problems = read_report(proc.stdout)
        verdict = "pass" if not problems else "FAIL: " + "; ".join(problems)
        print(f"{name}: {verdict} ({seconds:.0f} s)", flush=True)
        if problems:
            failed += 1
            output = (proc.stdout + proc.stderr).rstrip().splitlines()
            for line in output[-TAIL:]:
                print(f"    {line}")
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} checks pass")
    for label, directory in (("code lines", PACKAGE),
                             ("tools code lines", TOOLS)):
        total = sum(code_lines(path.read_text())
                    for path in directory.glob("*.py"))
        print(f"{label}: {total} (tools/code_lines.py)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
