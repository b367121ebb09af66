"""pencilspace benchmark: closed-loop CLI workloads with output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Workloads are ``certify``, ``spectrum`` and ``operators`` (see
workloads.py and README.md).  One client in one thread runs one task at a
time: each task is one CLI command, ``pencilspace.cli.main(argv)`` in this
process, on input files generated from the workload pool.  A run is a
fixed number of rounds of the workload's mix, ``--seconds`` over a nominal
round time, so that two versions of the program run the same tasks.  Every task's exit code and stdout are
checked against ``reference.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
task twice, once with spans around each layer's public calls and once
without, and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
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

import check
import hostprobe
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 15
TAIL_BEYOND = 10  # samples beyond task_tail_ms
# perf_counter is system-wide on Linux, so the parent can match the import's
# start and end with the host-speed samples.
SETUP_CODE = "import time; t = time.perf_counter(); import pencilspace.cli; print(t, time.perf_counter())"


def measure_setup(sampler) -> tuple:
    """Import times of pencilspace.cli in fresh interpreters (s), and the
    host slowdown while each interpreter ran.  The first run, which may
    compile bytecode, is dropped."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    spans = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, cwd=HERE, capture_output=True, text=True, timeout=120, check=True,
        )
        start, end = map(float, proc.stdout.split())
        spans.append((start, end))
    timeline = sampler.collect()
    return [end - start for start, end in spans[1:]], [timeline.slowdown(*span) for span in spans[1:]]


# -- running tasks -----------------------------------------------------------------


def execute(cli, task) -> dict:
    """Run one task in-process; never raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(task.argv))
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # a task's crash is a measured failure, not the run's
            code = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
    outcome = check.outcome(task.command, code, out.getvalue())
    return {"task": task, "start": t0, "latency": latency, "outcome": outcome}


def run_twice(cli, task, tracer, results: list, twins: list) -> None:
    """Run a task once traced and once untraced.  The order alternates from
    task to task, so that host drift cancels out of the tracing overhead."""
    traced_first = len(results) % 2 == 0
    if not traced_first:
        twins.append(execute(cli, task))
    tracer.task = len(results)
    patches = tracing.install(tracer)
    try:
        results.append(execute(cli, task))
    finally:
        tracing.uninstall(patches)
    if traced_first:
        twins.append(execute(cli, task))


def run_rounds(cli, plan: list, tracer=None) -> tuple:
    """Run every round of the plan.

    Returns (results, untraced twins, wall time).  With a tracer, every
    task runs twice (see run_twice).
    """
    results, twins = [], []
    start = time.perf_counter()
    for tasks in plan:
        for task in tasks:
            if tracer is None:
                results.append(execute(cli, task))
            else:
                run_twice(cli, task, tracer, results, twins)
    return results, twins, time.perf_counter() - start


def assess(results: list, reference: dict) -> tuple:
    """Mark each result's failure; return (failed count, mismatch list)."""
    failed, mismatches = 0, []
    for r in results:
        task = r["task"]
        why = check.mismatch(reference.get(task.key), task.input_digest, r["outcome"])
        r["failed"] = why is not None or check.is_failure(r["outcome"]["exit"])
        failed += r["failed"]
        if why is not None:
            mismatches.append(f"{task.key}: {why}")
    return failed, mismatches


def percentile(sorted_values: list, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    rank = (len(sorted_values) - 1) * p / 100
    lo = int(rank)
    if rank == lo or sorted_values[lo] == float("inf"):
        return sorted_values[lo]
    return sorted_values[lo] + (sorted_values[lo + 1] - sorted_values[lo]) * (rank - lo)


def tail_percentile(n: int) -> int:
    """The highest whole percentile of n samples with at least TAIL_BEYOND
    samples ranked beyond it, or 50 if there is none.  A run's sample
    count is fixed by its workload and length, and so is this percentile."""
    for p in range(99, 50, -1):
        if n - 1 - int((n - 1) * p / 100) >= TAIL_BEYOND:
            return p
    return 50


def latency_stats(results: list, seconds) -> dict:
    """Median and tail of ``seconds(result)``, in ms."""
    # A failed task counts as missing every latency limit.
    ms = sorted(float("inf") if r["failed"] else seconds(r) * 1e3 for r in results)
    tail_p = tail_percentile(len(ms))
    tail = percentile(ms, tail_p)
    return {
        "p50": percentile(ms, 50),
        "tail": tail,
        "tail_percentile": tail_p,
        "samples": len(ms),
        "samples_beyond_tail": sum(1 for v in ms if v > tail),
    }


def group_shares(results: list, by_task: dict, layers: list) -> dict:
    """Each layer's share of the task time of each (command, slot) group."""
    totals: dict = {}
    for i, r in enumerate(results):
        group = f"{r['task'].command}@{r['task'].slot}"
        entry = totals.setdefault(group, {"tasks": 0, "task_ms": 0.0, **{layer: 0.0 for layer in layers}})
        entry["tasks"] += 1
        entry["task_ms"] += by_task.get((i, "cli.main"), 0.0)
        for layer in layers:
            entry[layer] += by_task.get((i, layer), 0.0)
    return {
        group: {"tasks": e["tasks"], "task_ms": round(e["task_ms"], 3),
                **{layer: round(e[layer] / e["task_ms"], 4) for layer in layers if e[layer] and e["task_ms"]}}
        for group, e in sorted(totals.items())
    }


# -- the run -------------------------------------------------------------------------


def run_workload(cli, workload, seed: int, seconds: float, trace: bool, reference: dict,
                 work_dir: Path, sampler) -> tuple:
    """One measured run; returns the result object and the report details."""
    # Input files are written here, before the clock starts.
    plan = workloads.rounds(workload, workloads.Pool(workload, work_dir), seed,
                            workloads.round_count(seconds))
    report: dict = {"workload": workload.name, "seed": seed, "rounds": len(plan)}

    if not trace:
        results, _, wall = run_rounds(cli, plan)
        timeline = sampler.collect()
        for r in results:
            r["slowdown"] = timeline.slowdown(r["start"], r["start"] + r["latency"])
        failed, mismatches = assess(results, reference)
        stats = latency_stats(results, lambda r: r["latency"] / r["slowdown"])
        raw_stats = latency_stats(results, lambda r: r["latency"])
        # The run's slowdown, weighted by task time.
        slowdown = sum(r["latency"] for r in results) / sum(r["latency"] / r["slowdown"] for r in results)
        raw = {
            "tasks_per_s": (len(results) - failed) / wall,
            "task_p50_ms": raw_stats["p50"],
            "task_tail_ms": raw_stats["tail"],
        }
        metrics = {
            "tasks_per_s": (raw["tasks_per_s"] * slowdown, "1/s"),
            "task_p50_ms": (stats["p50"], "ms"),
            "task_tail_ms": (stats["tail"], "ms"),
            "ok_fraction": ((len(results) - failed) / len(results), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report.update(latency=stats, wall_s=wall, raw=raw, host_slowdown=slowdown)
    else:
        tracer = tracing.Tracer()
        results, twins, wall = run_rounds(cli, plan, tracer=tracer)
        failed, mismatches = assess(results, reference)
        _, twin_mismatches = assess(twins, reference)
        mismatches += [f"untraced twin {m}" for m in twin_mismatches]
        layer_metrics, inclusive, by_task = tracing.summarize(tracer)
        traced_s = sum(r["latency"] for r in results)
        untraced_s = sum(r["latency"] for r in twins)
        layer_metrics["trace_overhead_s"] = traced_s - untraced_s
        metrics = {name: (layer_metrics[name], unit) for name, unit in tracing.PER_LAYER_UNITS.items()}
        task_ms = inclusive.get("cli.main", 0.0)
        report.update(
            wall_s=wall,
            traced_task_s=traced_s,
            untraced_task_s=untraced_s,
            spans=len(tracer.spans),
            layer_share={name: round(ms / task_ms, 4) for name, ms in sorted(inclusive.items()) if task_ms},
            group_share=group_shares(results, by_task, [n for n in inclusive if n != "cli.main"]),
        )

    report.update(
        attempted=len(results),
        failed=failed,
        failed_fraction=failed / len(results),
        failures=sorted({f"{r['task'].key}: {r['outcome']['exit']}" for r in results if r["failed"]}),
        mismatches=mismatches,
    )
    result = {
        "correct": not mismatches,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, report


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["tasks"]


def import_cli():
    """Import pencilspace.cli from this checkout's src/, or fail."""
    if not (SRC / "pencilspace" / "cli.py").is_file():
        raise ImportError(f"no pencilspace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pencilspace.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "pencilspace").resolve():
        raise ImportError(f"pencilspace imported from {cli.__file__}, not from {SRC}")
    return cli


def kernel_ms(sampler) -> float:
    """The median time of the host-speed kernel over the next half second."""
    t0 = time.perf_counter()
    time.sleep(0.5)
    return statistics.median(sampler.collect().window(t0, time.perf_counter()))


def measure(cli, reference: dict, sampler, args) -> tuple:
    """The run with its machine notes and, untraced, its setup time."""
    import numpy

    machine = {
        "nproc": os.cpu_count(),
        "cpu": min(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_ms_before": kernel_ms(sampler),
    }
    if not args.trace:
        setup_samples, setup_slowdowns = measure_setup(sampler)
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result, report = run_workload(
            cli, workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace), reference, work_dir, sampler,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()
    machine["kernel_ms_after"] = kernel_ms(sampler)
    report["machine"] = machine
    if not args.trace:
        setup = statistics.median(t / slow for t, slow in zip(setup_samples, setup_slowdowns))
        result["metrics"] = {"setup_s": {"value": setup, "unit": "s"}, **result["metrics"]}
        report["raw"]["setup_s"] = statistics.median(setup_samples)
        report.update(setup_samples_s=setup_samples, setup_slowdowns=setup_slowdowns)
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Pinned before numpy is imported, so that it sizes its thread pool to one CPU.
    allowed = hostprobe.pin_one_cpu()
    try:
        try:
            cli = import_cli()
            reference = load_reference()
        except (ImportError, OSError, ValueError, KeyError) as exc:
            print(f"perfbench: cannot start: {exc}", file=sys.stderr)
            return 2
        with hostprobe.Sampler() as sampler:
            result, report = measure(cli, reference, sampler, args)
    finally:
        hostprobe.unpin(allowed)

    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"times above are scaled to a host where the host-speed kernel takes {hostprobe.REF_MS} ms; "
              f"this run's host slowdown was {report['host_slowdown']:.3f}; raw: "
              + ", ".join(f"{k} {v:.6g}" for k, v in report["raw"].items()))
        lat = report["latency"]
        print(f"task_tail_ms is p{lat['tail_percentile']}: {lat['samples_beyond_tail']} of "
              f"{lat['samples']} samples beyond it")
    print(f"failed_fraction {report['failed_fraction']:.4f} ({report['failed']} of {report['attempted']})")
    machine = report["machine"]
    print(f"machine: {machine['nproc']} cpus (run pinned to cpu {machine['cpu']}), "
          f"python {machine['python']}, numpy {machine['numpy']}, host-speed kernel "
          f"{machine['kernel_ms_before']:.3f} ms before the run, {machine['kernel_ms_after']:.3f} ms after")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
