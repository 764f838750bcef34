"""Record the golden outputs the benchmark compares against: the records of
one pass over each workload's pool at the default seed (the first
HARNESS_GOLDEN_CALLS calls of the harness pool), and the bytes of
the README CLI examples.  Run from the repository root, at a commit whose
outputs are known to be right:

    python3 perfbench/record_golden.py [workload ...]
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_program()
    import workloads

    run.GOLDEN.mkdir(exist_ok=True)
    for workload in sys.argv[1:] or workloads.WORKLOADS:
        tasks = workloads.fixed_prefix(workload, workloads.build(workload, workloads.DEFAULT_SEED),
                                       workloads.HARNESS_GOLDEN_CALLS)
        records = {}
        check = run.checker(tasks, {})

        def keep(pid, record):
            records[pid] = record
            return check(pid, record)

        outcome = run.run_passes(tasks, 0, out=run.Outcome(keep))
        if outcome.errors:
            print(f"{workload}: not recorded, failing problems {sorted(outcome.errors)}",
                  file=sys.stderr)
            return 1
        cli = [workloads.run_cli(argv) for argv in run.CLI_EXAMPLES[workload]]
        # one record per line, so that a changed output shows as a changed line
        lines = [f" {json.dumps(pid)}: {json.dumps(rec, sort_keys=True)}"
                 for pid, rec in records.items()]
        with open(run.GOLDEN / f"{workload}.json", "w", encoding="utf-8") as fh:
            fh.write(f'{{"seed": {workloads.DEFAULT_SEED},\n"cli": {json.dumps(cli)},\n'
                     f'"records": {{\n' + ",\n".join(lines) + "\n}}\n")
        print(f"{workload}: {len(records)} records, {len(cli)} CLI examples, "
              f"pass {outcome.pass_seconds[0]:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
