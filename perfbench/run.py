"""darbouxlab benchmark: fixed workloads of real CLI jobs, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each job runs in a fresh interpreter
(perfbench/child.py), one after another, from the checkout root with
DARBOUX_LAB_THREADS unset (the CLI default of one worker).  Passes over the
workload's jobs repeat while another pass fits in S seconds (at least
one pass); times are medians over passes.  Every job's output is checked
(perfbench/workloads.py).  With --trace 1 the same passes run with the
layers wrapped from outside (perfbench/spans.py) and the per-layer metrics
are reported instead; each traced job also runs untraced just before, for
the tracing overhead and a byte-for-byte comparison of the reports.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Files go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Whole-run deadline: a job still running then is killed and counted failed.
DEADLINE_S = 150.0
# Each job's set-up is sampled at least this many times per run.
SETUP_SAMPLES = 3

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("pass_rate", "fraction"), ("cpu_s", "s"),
)


def _program_present() -> str | None:
    for rel in ("src/darbouxlab/cli.py", "corpus/samardzija_greller.vf",
                "tests/fixtures"):
        if not (ROOT / rel).exists():
            return rel
    return None


def calibrate() -> float:
    """Median ms of a fixed pure-Python loop; tracks host speed, not the program."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(samples)


def environment() -> dict:
    import numpy
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                    cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "calibration_ms": round(calibrate(), 3)}


class Runner:
    """Launches job processes and records what each one cost."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k != "DARBOUX_LAB_THREADS"}

    def launch(self, job, *, spans: Path | None = None,
               setup_only: bool = False) -> dict:
        times_path = OUT / "job.times.json"
        times_path.unlink(missing_ok=True)
        opts = (["--spans", str(spans)] if spans else
                ["--setup-only"] if setup_only else [])
        cmd = [sys.executable, str(HERE / "child.py"), str(times_path), *opts,
               "--", *job.argv]
        with open(OUT / "job.stdout", "wb") as out, \
                open(OUT / "job.stderr", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(max(self.deadline - start, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        times = (json.loads(times_path.read_text())
                 if times_path.exists() else {})
        return {
            "job": job.name, "code": proc.returncode, "wall_s": end - start,
            "setup_s": (times["field_loaded"] - start
                        if "field_loaded" in times else None),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": (OUT / "job.stdout").read_bytes(),
            "stderr": (OUT / "job.stderr").read_bytes(),
        }


def run_job(runner: Runner, job, spans: Path | None = None) -> dict:
    """Launch one job and judge its output."""
    from workloads import check
    rec = runner.launch(job, spans=spans)
    verdict = check(job, rec["code"], rec["stdout"], rec["stderr"])
    rec.update(failed=verdict.failed, incorrect=verdict.incorrect,
               reason=verdict.reason, traced=spans is not None)
    if spans is not None and spans.exists():
        rec["trace"] = json.loads(spans.read_text())
    return rec


def run_passes(workload, runner: Runner, seconds: float, trace: bool,
               started: float):
    """Passes over the workload's jobs while another one fits in `seconds`.

    A traced pass runs every job twice in a row, untraced and then traced,
    so that the overhead and the byte-identity of the reports are measured
    on the same host conditions.
    """
    passes, durations = [], []
    while not passes or (time.monotonic() - started
                         + statistics.mean(durations) <= seconds):
        begun = time.monotonic()
        records = []
        for i, job in enumerate(workload.jobs):
            records.append(run_job(runner, job))
            if trace:
                records.append(run_job(runner, job,
                                       OUT / f"job{i}.spans.json"))
        passes.append(records)
        durations.append(time.monotonic() - begun)
        if time.monotonic() > runner.deadline - 1.0:
            break
    return passes


def setup_samples(workload, runner: Runner, passes) -> dict[str, list[float]]:
    """Each job's set-up times: from the passes, topped up by set-up-only runs."""
    samples = {job.name: [r["setup_s"] for p in passes for r in p
                          if r["job"] == job.name and r["setup_s"] is not None]
               for job in workload.jobs}
    for job in workload.jobs:
        for _ in range(SETUP_SAMPLES - len(samples[job.name])):
            if time.monotonic() > runner.deadline - 5.0:
                break
            rec = runner.launch(job, setup_only=True)
            if rec["setup_s"] is not None:
                samples[job.name].append(rec["setup_s"])
    return samples


def end_to_end(workload, passes, setups) -> dict[str, float]:
    def med(f):
        return statistics.median(f(p) for p in passes)

    records = [r for p in passes for r in p]
    return {
        "wall_s": med(lambda p: sum(r["wall_s"] for r in p)),
        "setup_s": sum(statistics.median(s) for s in setups.values() if s),
        "peak_rss_mb": med(lambda p: max(r["rss_mb"] for r in p)),
        "pass_rate": sum(not r["failed"] for r in records) / len(records),
        "cpu_s": med(lambda p: sum(r["cpu_s"] for r in p)),
    }


def aliases(workload, passes) -> list[tuple[str, float, str]]:
    """Per-job views printed beside the end-to-end metrics.

    Single jobs spread too much from run to run on a shared host to be
    gated; the gated metrics are the pass-level sums.
    """
    def job_s(name):
        return statistics.median(r["wall_s"] for p in passes for r in p
                                 if r["job"] == name)

    if workload.name == "sieve_large":
        return [("reference_search_s", job_s("reference_search"), "s"),
                ("analyze_s", job_s("analyze"), "s")]
    if workload.name == "flow":
        rates = []
        for p in passes:
            sims = [r for r in p if r["job"].startswith("simulate")]
            steps = sum(json.loads(r["stdout"])["results"]["integrator"]
                        ["n_accepted"] for r in sims if not r["failed"])
            rates.append(steps / sum(r["wall_s"] for r in sims))
        return [("steps_per_s", statistics.median(rates), "1/s"),
                ("lyapunov_s", job_s("lyapunov"), "s")]
    return [("direct_d3_b1_s", job_s("direct_d3_b1"), "s")]


def traced(workload, passes):
    """Per-layer metrics (medians over passes), with the tracing overhead."""
    import spans
    traced_recs = [[r for r in p if r["traced"]] for p in passes]
    per_pass = [spans.layer_metrics([r["trace"]["spans"] for r in p
                                     if "trace" in r]) for p in traced_recs]

    def wall(is_traced):
        return statistics.median(sum(r["wall_s"] for r in p
                                     if r["traced"] == is_traced)
                                 for p in passes)

    traces = [{"pass": i, "job": r["job"], **r["trace"]}
              for i, p in enumerate(traced_recs) for r in p if "trace" in r]
    (OUT / f"spans-{workload.name}.json").write_text(json.dumps(traces))
    absent = sorted({a for t in traces for a in t["absent"]})
    print(f"tracing overhead {wall(True) - wall(False):+.4f} s (traced wall_s "
          f"{wall(True):.4f} s, untraced {wall(False):.4f} s); absent seams: "
          f"{', '.join(absent) or 'none'}")
    same = True
    for p in passes:
        for plain, traced_rec in zip(p[::2], p[1::2]):
            if plain["stdout"] != traced_rec["stdout"]:
                same = False
                traced_rec["incorrect"] = True
    print(f"traced reports byte-identical to untraced: {'yes' if same else 'NO'}")
    for rec in traced_recs[0]:
        job_spans = rec.get("trace", {"spans": []})["spans"]
        one = spans.layer_metrics([job_spans])
        top = ", ".join(f"{n} {t:.3f}s" for n, t in spans.top_self(job_spans))
        print(f"  trace {rec['job']}: self {top}; search_s "
              f"{one['darboux.search_s']:.3f} obstruction_s "
              f"{one['darboux.obstruction_s']:.3f} rhs_evals_per_step "
              f"{one['numerics.rhs_evals_per_step']:.3f}")
    return spans.median_metrics(per_pass), dict(spans.PER_LAYER)


def untraced(workload, passes, runner: Runner):
    """End-to-end metrics."""
    metrics = end_to_end(workload, passes, setup_samples(workload, runner, passes))
    for name, value, unit in aliases(workload, passes):
        print(f"  {name} {value:.6g} {unit}")
    return metrics, dict(END_TO_END)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    missing = _program_present()
    if missing is not None:
        print(f"error: {missing} not found; run from a darbouxlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = environment()
    workload = workloads.build(args.workload, args.seed, OUT)
    runner = Runner(started + DEADLINE_S)
    passes = run_passes(workload, runner, args.seconds, bool(args.trace),
                        started)
    records = [r for p in passes for r in p]
    env["calibration_end_ms"] = round(calibrate(), 3)

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {len(passes)} pass(es) of {len(workload.jobs)} "
          f"jobs, trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for rec in records:
        print(f"  job {rec['job']:<20} {'traced ' if rec['traced'] else ''}"
              f"exit {rec['code']} "
              f"{rec['wall_s']:8.3f} s  rss {rec['rss_mb']:6.1f} MB  "
              f"{'FAIL ' + rec['reason'] if rec['failed'] else 'ok'}")
    failed = sum(r["failed"] for r in records)
    print(f"fail_rate {failed / len(records):.4f} "
          f"({failed} failed / {len(records)} attempted jobs)")

    if args.trace:
        metrics, units = traced(workload, passes)
    else:
        metrics, units = untraced(workload, passes, runner)
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")

    result = {
        "correct": not any(r["incorrect"] for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (OUT / f"run-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "seed": args.seed, "result": result,
                    "jobs": [{k: r[k] for k in ("job", "code", "wall_s",
                                                "setup_s", "cpu_s", "rss_mb",
                                                "reason")}
                             for r in records]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
