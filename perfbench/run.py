"""The mdgkit benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload calculus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process runs one workload as a closed loop with one client: the jobs of
the workload's list run back to back, in this single thread, cycling through
the list until --seconds have elapsed and at least one whole pass is done.
The untraced run stops after the job that crosses --seconds; the traced run
stops only at the end of a pass, so that its per-pass counts repeat exactly.
Every job's output is checked.  Set-up (importing mdgkit from ./src and
generating the seeded inputs) is timed in seven fresh processes and reported
as the median.

--trace 0 prints the end-to-end metrics and installs nothing in the library.
--trace 1 wraps the layer boundaries (perfbench/tracing.py), prints the
per-layer metrics per pass, self-checks the boundaries and writes the spans
to perfbench/out/spans-<workload>.tsv.gz.

Every job runs several times in a run, its repeats spread over the run, and
counts at its median run.  A spell of contention can cover the whole run,
so every end-to-end time is normalised by the median time of the reference
kernel of perfbench/reference.py, run between jobs (and in each set-up
process): a time is reported in seconds at the speed where that kernel
takes reference.NOMINAL_S, and the report line keeps the raw pass time, the
raw job times and the kernel's median.  Per-layer times are raw seconds.

End-to-end metrics (untraced): wall_s, one pass over the job list, each job
at its median run; setup_s; peak_rss_mb of this process; and, over the
workload's distinct jobs, each at its median run, job_p50_s, the median job,
job_tail_s, the highest nearest-rank percentile with at least ten jobs
beyond it (the slowest job when there are fewer than 20), and three verdict
times:

    workload        verdict_heavy_s     verdict_mid_s       verdict_light_s
    certify-closed  gb fk               gb fa               Taylor, seeded
    certify-growth  ex55 presentation   fk presentation     gb ex6
    calculus        all sym jobs        all assoc jobs      all check jobs

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a JSON report with the
seed, the machine, per-job times, the verdicts by name, the known failure
(counted in failed_share, not in failed) and the ratios' bases.
--workload all runs every workload in fresh processes, untraced once and
traced twice, and prints the traced-run overhead and whether the two traced
runs' counts agree.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from reference import NOMINAL_S, Reference, time_kernel  # noqa: E402

SETUP_PROBES = 7
PROBE_KERNELS = 5
MODULES = ("ring", "gcalg", "linalg", "complexes", "mdg", "constructions",
           "groebner", "symdg", "parser", "cli")


def load_mdgkit():
    """Import every mdgkit module from ./src; None if it is not there."""
    src = ROOT / "src"
    if not (src / "mdgkit" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import importlib
    pkg = importlib.import_module("mdgkit")
    if Path(pkg.__file__).resolve().parent != src / "mdgkit":
        return None
    for name in MODULES:
        importlib.import_module(f"mdgkit.{name}")
    return pkg


def setup(workload: str, seed: int):
    mdgkit = load_mdgkit()
    if mdgkit is None:
        return None, None
    ctx = wl.Context(mdgkit, ROOT)
    return ctx, wl.build(workload, seed, ctx)


def setup_seconds(workload: str, seed: int) -> list:
    """Set-up times of fresh processes, one after another, each normalised
    by the reference kernel's median time in that process."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        raw, kernel = map(float, proc.stdout.split()[-2:])
        samples.append(raw * NOMINAL_S / kernel)
    return samples


def machine() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version()}


def tail(durations: list):
    """(value, percentile, n): the highest nearest-rank percentile with at
    least ten samples beyond it, or the slowest sample when that
    percentile would fall below the median (fewer than 20 samples)."""
    xs = sorted(durations)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def run_workload(args) -> int:
    t0 = time.perf_counter()
    ctx, jobs = setup(args.workload, args.seed)
    if ctx is None:
        print("error: no mdgkit package under ./src", file=sys.stderr)
        return 2
    if args.setup_probe:
        raw = time.perf_counter() - t0
        kernel = statistics.median(time_kernel()
                                   for _ in range(PROBE_KERNELS))
        print(f"{raw:.9f} {kernel:.9f}")
        return 0
    setup_samples = [] if args.trace else setup_seconds(args.workload,
                                                        args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    times = {job.name: [] for job in jobs}
    passes, problems, known, attempted = [], [], 0, 0
    ref = Reference()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        pass_times = []
        for job in jobs:
            if (passes and not tracer
                    and time.perf_counter() - start >= args.seconds):
                break
            gc.collect()
            ref.keep_up()
            if tracer:
                tracer.job_id = attempted
            exc = value = None
            t = time.perf_counter()
            try:
                value = job.run()
            except Exception as e:          # a crash is a checked outcome
                exc = e
            dt = time.perf_counter() - t
            if tracer:
                tracer.job_id = -1
            attempted += 1
            pass_times.append(dt)
            times[job.name].append(dt)
            verdict = job.check(value, exc)
            if verdict == wl.KNOWN:
                known += 1
            elif verdict is not None:
                problems.append(f"{job.name}: {verdict}")
        passes.append(pass_times)

    raw_job = {name: statistics.median(v) for name, v in times.items()}
    factor = ref.factor()
    job_s = {name: t * factor for name, t in raw_job.items()}
    wall = sum(job_s[job.name] for job in jobs)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "passes": len(passes),
              "jobs_per_pass": len(jobs), "attempted": attempted,
              "failed": len(problems), "known_failures": known,
              "failed_share": {"value": (len(problems) + known) / attempted,
                               "failed_or_known": len(problems) + known,
                               "attempted": attempted},
              "problems": problems[:20],
              "reference": {"nominal_s": NOMINAL_S,
                            "median_s": ref.median(),
                            "runs": len(ref.samples)},
              "raw_wall_s": sum(raw_job[job.name] for job in jobs)}
    check = []
    if tracer:
        agg = tracer.aggregate()
        metrics = tracer.metrics(agg, len(passes))
        check = tracer.self_check(args.workload, agg)
        report.update(trace_wall_s=wall, self_check=check,
                      bindings=tracer.bindings, spans=len(tracer.start),
                      ratio_bases={
                          "groebner.normal_form.zero_share":
                              "groebner.normal_form.calls",
                          "groebner.spoly.zero_share": "groebner.spoly.calls",
                          "groebner.pairs_skipped": "groebner.pairs_total"})
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}.tsv.gz", start)
    else:
        tail_s, percentile, n = tail(list(job_s.values()))
        labels = {job.slot: job.label for job in jobs if job.slot}
        verdicts = {slot: sum(job_s[name] for name in
                              {job.name for job in jobs if job.slot == slot})
                    for slot in wl.SLOTS}
        report["verdicts"] = {labels[s]: v for s, v in verdicts.items()}
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "job_p50_s": statistics.median(job_s.values()),
            "job_tail_s": tail_s,
        }
        metrics.update(verdicts)
        metrics = {k: {"value": v, "unit": "MB" if k == "peak_rss_mb" else "s"}
                   for k, v in metrics.items()}
        report.update(setup_samples_s=setup_samples,
                      job_tail={"percentile": percentile, "n": n},
                      job_s=job_s, job_raw_s=raw_job)
    print(json.dumps(report))
    print(json.dumps({"correct": not problems and not check,
                      "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in fresh processes: untraced once, traced twice."""
    summary, ok = {}, True
    for workload in wl.WORKLOADS:
        results = []
        for trace in (0, 1, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            results.append((json.loads(lines[-2]), json.loads(lines[-1])))
        (rep0, res0), (rep1, res1), (_, res2) = results
        counts = {k: v["value"] for k, v in res1["metrics"].items()
                  if v["unit"] == "count"}
        again = {k: v["value"] for k, v in res2["metrics"].items()
                 if v["unit"] == "count"}
        ok &= res0["correct"] and res1["correct"] and counts == again
        summary[workload] = {
            "end_to_end": res0["metrics"], "per_layer": res1["metrics"],
            "correct": res0["correct"] and res1["correct"],
            "failed_share": rep0["failed_share"],
            "verdicts": rep0.get("verdicts"), "job_tail": rep0["job_tail"],
            "trace_overhead_s": rep1["trace_wall_s"]
                                - res0["metrics"]["wall_s"]["value"],
            "traced_counts_repeat": counts == again,
            "self_check": rep1["self_check"]}
    print(json.dumps({"seed": args.seed, "machine": machine(),
                      "workloads": summary}, indent=1))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
