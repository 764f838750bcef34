"""Run every benchmark workload at seed 0, untraced and traced, and write
the end-to-end metrics and the per-layer counts to one JSON file.

Run from the repository root:

    python3 scripts/bench.py BENCH_<n>.json

Each run is `python3 perfbench/run.py --workload W --seed 0 --trace T` in a
fresh process, one after the other; nothing under perfbench/ changes.  The
file holds, per workload, the result line of the untraced run (`end_to_end`)
and of the traced run (`per_layer`), each with `correct`, `attempted`,
`failed` and the digest of the outputs, and the host the runs were made
on.  The exit code is 0 only when every run was correct.

The per-layer seconds are wall times, and the host's speed drifts by up to
2x over hours.  Each `per_layer` entry also holds `reference_s`, the mean of
perfbench's reference work (`reference_seconds`) timed in this process just
before and just after the traced run, but dividing by it does not cancel
that drift: homogenize layers so divided have read 1.09-1.22x an earlier
file while paired untraced runs of the same two versions read 0.92x.  So a
layer's seconds compare only against a parent traced on the same host in the
same sitting, one run beside the other; the counts compare across files.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 0
DIGEST = "output digest "

sys.path.insert(0, str(ROOT / "perfbench"))
from run import REFERENCE_WARMUP, reference_seconds  # noqa: E402


def run(workload: str, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--trace", str(trace)]
    child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": f"exit {child.returncode} without a result line"}
    # the digest of every output checked, printed for people above the result line
    for line in lines:
        if line.strip().startswith(DIGEST):
            result["digest"] = line.strip()[len(DIGEST):]
    return result


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 scripts/bench.py OUT.json", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {}
    reference_seconds(REFERENCE_WARMUP)
    for workload in (w["name"] for w in spec["workloads"]):
        end_to_end = run(workload, 0)
        before = reference_seconds()
        per_layer = run(workload, 1)
        per_layer["reference_s"] = (before + reference_seconds()) / 2
        workloads[workload] = {"end_to_end": end_to_end, "per_layer": per_layer}
        print(f"{workload}: correct "
              f"{[workloads[workload][k]['correct'] for k in ('end_to_end', 'per_layer')]}")
    report = {
        "seed": SEED,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "workloads": workloads,
    }
    Path(args[0]).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    correct = all(r["correct"] for runs in workloads.values() for r in runs.values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
