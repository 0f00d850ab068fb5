"""Run one benchmark workload of the halfmult CLI and print its metrics.

    python3 perfbench/run.py --workload exhaustive|analyze|certify \
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; halfmult is imported from src/.
The workload is a closed loop with one client: each job of the seeded job
list (see workloads.py) is one CLI command, called in-process through
halfmult.cli.main([..., "--json"]), timed, and checked (see checks.py).

--trace 0 measures the end-to-end metrics, untraced. --trace 1 first runs
the same command with --trace 0 in a fresh interpreter, then runs the job
list again with every layer wrapped (see spans.py) and reports the
per-layer metrics, including the tracing overhead against that untraced
run. Comment lines (#) describe the run; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Results, per-job records and spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

OUT = HERE / "out"
SETUP_PROBES = 5  # fresh interpreters timed for setup_s; the median is reported
TIME_CAP_S = 150.0  # jobs not started by then count as failed, keeping a run under 180 s
TAIL_BEYOND = 10  # job_tail_s is the highest percentile with this many jobs above it


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_context() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def setup_samples(args) -> list[float]:
    """Wall time of fresh interpreters that import halfmult, build the job
    list and write the workload's input files, as a run does before its
    first job."""
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = OUT / f"probe-{args.workload}-{i}"
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), args.workload, str(args.seed), str(args.seconds), str(probe_dir)],
            cwd=workloads.ROOT,
            check=True,
            timeout=60,
            stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - start)
        shutil.rmtree(probe_dir)
    return samples


def run_jobs(jobs, refs, workdir: Path, deadline: float, tracer=None) -> list[dict]:
    records = []
    with workloads.chdir(workdir):
        for i, job in enumerate(jobs):
            record = {"job": job.key, "class": job.cls, "wall_s": 0.0, "failure": None}
            records.append(record)
            if time.monotonic() > deadline:
                record["failure"] = "not started: time cap reached"
                continue
            if job.tamper_from is not None:
                try:
                    workloads.tamper(job.tamper_from, job.argv[-1])
                except OSError as exc:
                    record["failure"] = f"cannot tamper the certificate: {exc}"
                    continue
            if tracer is not None:
                tracer.job_id = i
            rc, out, err, record["wall_s"] = workloads.execute(job.argv)
            try:
                record["failure"] = checks.check(job, rc, workloads.payload_of(out), refs)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                record["failure"] = f"unreadable output: {exc!r}"
            if record["failure"] is not None:
                record["stderr"] = err[-2000:]
    return records


def tail(walls: list[float]) -> tuple[float, float]:
    """(time, percentile) of the job with TAIL_BEYOND jobs above it."""
    ordered = sorted(walls)
    i = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def summary(records) -> tuple[int, int, float, float]:
    failed = sum(r["failure"] is not None for r in records)
    busy = sum(r["wall_s"] for r in records)
    return len(records), failed, busy, (len(records) - failed) / busy if busy else 0.0


def untraced_child(args) -> dict:
    """The same run with --trace 0 in a fresh interpreter: its last line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=workloads.ROOT,
        capture_output=True,
        text=True,
        timeout=TIME_CAP_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"untraced run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_metrics(trace: int) -> dict[str, str]:
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (workloads.SRC / "halfmult" / "__init__.py").is_file():
        print(f"error: halfmult sources not found under {workloads.SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_CAP_S
    context = machine_context()
    notes = [f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
             "machine: " + " ".join(f"{k}={v}" for k, v in context.items())]

    if args.trace:
        untraced = untraced_child(args)
    else:
        setup = setup_samples(args)
    workdir = OUT / f"work-{args.workload}-trace{args.trace}"
    jobs, refs = workloads.prepare(args.workload, args.seed, args.seconds, workdir)

    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            records = run_jobs(jobs, refs, workdir, deadline, tracer)
        finally:
            tracer.uninstall()
        attempted, failed, busy, jobs_per_s = summary(records)
        metrics = tracer.metrics(busy)
        metrics["trace.overhead_ratio"] = untraced["metrics"]["jobs_per_s"]["value"] / jobs_per_s - 1 if jobs_per_s else 0.0
        correct = failed == 0 and untraced["correct"]
        tracer.save(OUT / f"spans-{args.workload}.npz", [j.key for j in jobs])
        notes.append(f"traced jobs_per_s={jobs_per_s:.4f} untraced={untraced['metrics']['jobs_per_s']['value']:.4f} "
                     f"(overhead_ratio={metrics['trace.overhead_ratio']:.4f}); spans={metrics['trace.spans']}")
        notes.append(f"layer self times sum to {metrics['trace.self_coverage']:.6f} of the traced job wall time "
                     f"({metrics['trace.job_wall_s']:.3f} s)")
    else:
        records = run_jobs(jobs, refs, workdir, deadline)
        attempted, failed, busy, jobs_per_s = summary(records)
        walls = [r["wall_s"] for r in records]
        tail_s, tail_pct = tail(walls)
        metrics = {
            "jobs_per_s": jobs_per_s,
            "job_p50_s": statistics.median(walls),
            "job_tail_s": tail_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        correct = failed == 0
        notes += [
            f"jobs_per_s over {attempted} jobs ({busy:.3f} s busy); fail_ratio={failed / attempted:.4f} ({failed} of {attempted})",
            f"job_p50_s is the median of {attempted} jobs; job_tail_s is p{tail_pct:.1f} of {attempted} jobs "
            f"({TAIL_BEYOND} jobs above it)",
            f"setup_s is the median of {SETUP_PROBES} fresh interpreters: " + ", ".join(f"{s:.4f}" for s in setup),
            "peak_rss_mb is the peak resident set of the process that ran the jobs",
        ]

    units = declared_metrics(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "machine": context, "metrics": metrics, "notes": notes, "jobs": records}, fh, indent=1)
    for r in records:
        if r["failure"] is not None:
            print(f"FAILED {r['job']}: {r['failure']}\n{r.get('stderr', '')}", file=sys.stderr)
    for note in notes:
        print("# " + note)
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
