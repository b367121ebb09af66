"""Record the reference outputs of every pool task.

    python3 perfbench/make_reference.py [workload ...]

Runs each task of each workload's pool once, in-process, and writes its
exit code and output summary (see check.py) to perfbench/reference.json,
replacing the entries of the workloads named (all by default).  Per-task
latencies go to stdout as "<ms> <task key>" lines.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys

import run
import workloads


def main(names) -> int:
    cli = run.import_cli()
    data = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {"tasks": {}}
    work_dir = run.ROOT / ".perfbench_work" / "reference"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            workload = workloads.WORKLOADS[name]
            for key in [k for k in data["tasks"] if k.startswith(f"{name}:")]:
                del data["tasks"][key]
            pool = workloads.Pool(workload, work_dir)
            for s in range(len(workload.slots)):
                for idx in range(workloads.POOL_SIZE):
                    for task in pool.tasks(s, idx):
                        r = run.execute(cli, task)
                        data["tasks"][task.key] = {"input": task.input_digest, **r["outcome"]}
                        print(f"{r['latency'] * 1e3:.1f} {task.key} {r['outcome']['exit']}", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()
    # One task per line keeps the file small and its diffs readable.
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}"
             for k, v in sorted(data["tasks"].items())]
    run.REFERENCE.write_text('{"tasks": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(workloads.WORKLOADS)))
