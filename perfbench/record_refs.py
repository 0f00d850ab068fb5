"""Record the reference payload of every job a workload can draw.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/record_refs.py [WORKLOAD ...]

Writes perfbench/refs/<workload>.json, mapping each job's argv (joined by
spaces, without --json) to its exit code and JSON payload minus the
'command' echo. The CLI contract makes these payloads byte-identical across
reruns, so run.py compares them exactly. Prints the mean job time of each
class, which is what ROUND_S and the per-round counts were sized from.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))


def record(workload: str) -> None:
    workdir = workloads.HERE / "out" / f"refs-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    every_job = [job for c in workloads.classes(workload) for unit in c.units for job in unit]
    workloads.write_inputs(every_job, workdir)
    refs: dict[str, dict] = {}
    with workloads.chdir(workdir):
        for c in workloads.classes(workload):
            walls = []
            for unit in c.units:
                for job in unit:
                    if job.after is not None and refs[job.after]["exit"] != 0:
                        continue
                    if job.tamper_from is not None:
                        workloads.tamper(job.tamper_from, job.argv[-1])
                    rc, out, err, wall = workloads.execute(job.argv)
                    if rc is None:
                        raise RuntimeError(f"{job.key} raised:\n{err}")
                    refs[job.key] = {"exit": rc, "payload": workloads.payload_of(out)}
                    if job.cls == c.name:
                        walls.append(wall)
            print(f"{workload:10s} {c.name:32s} units={len(c.units):3d} mean={sum(walls) / len(walls):.4f}s", flush=True)
    with open(workloads.REFS / f"{workload}.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(name)
