"""Benchmark of logderiv: seeded closed-loop workloads, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload harness --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

``--workload`` is one of harness, arrangement, homogenize, or ``all`` (each
workload in its own process, one after the other).  The seed fixes the
workload's pool of problems; a pass runs each problem once, and the run
repeats passes until ``--seconds`` have elapsed and cuts off a task still
running then (the short pools always complete one pass, the harness pool
its first task).  With ``--trace 1`` the run makes one traced pass over a
fixed part of the pool instead, with an untraced twin of every other task
for the tracing overhead, and reports the per-layer metrics of the traced
runs.

Problem times are reported in seconds for people and, in the result line,
in reference units: multiples of a fixed piece of pure-Python work timed
between tasks, because the host's speed drifts by tens of percent within
minutes.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units are those listed in BENCHMARK.json.  The exit code is 0 only
when every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
OUT = BENCH / "out"
SETUP_SAMPLES = 7
# setup_s is rescaled to a host on which REFERENCE_PROCESS takes this long
# (about the median on the 2-core host the benchmark was written on).
REFERENCE_PROCESS_S = 0.25
# The first dozen runs of the reference work in a process are up to 1.7x
# slower than the rest.
REFERENCE_WARMUP = 15
# The host's speed flips within a second, so a task lasting seconds (a
# run_harness call) takes a reference sample at least this often (seconds).
REFERENCE_EVERY = 0.5

# README CLI examples that need no extra files, by the workload whose run
# byte-compares them.  `resolution` prints its matrices, whose choice may
# legitimately change, and `saito` reads a derivation file.  The `verify`
# example is a timed task of the harness pool (workloads.VERIFY_ARGV).
CLI_EXAMPLES = {
    "harness": [],
    "arrangement": [
        ["derivations", "x^2+y^2", "--vars", "x,y", "--u", "1,1", "--v", "0,0"],
        ["derivations", "x^2*y^3", "--vars", "x,y", "--factors", "x:2,y:3"],
        ["betti", "x^2*z+y^3+z^4", "--vars", "x,y,z", "--infer-weights"],
        ["chi", "x^2+y^2", "--vars", "x,y", "--u", "1,1", "--v", "0,0"],
        ["hilbert", "--vars", "x,y", "--u", "1,2"],
    ],
    "homogenize": [
        ["homogenize", "x^2*z+y^3+z^4", "--vars", "x,y,z"],
        ["homogenize", "x^2*z+y^3+z^4", "--vars", "x,y,z", "--mix", "0,1"],
    ],
}

# Setup in a fresh interpreter: start, import logderiv, build the pool.
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]))"
)
# Fixed pure-Python work in a fresh interpreter that never imports the
# program: the pure-Python loop of _reference_work, 15 times.
REFERENCE_PROCESS = (
    "from fractions import Fraction\n"
    "for _ in range(15):\n"
    "    work = {}\n"
    "    for i in range(3000):\n"
    "        key = (i % 3, (i % 7, i % 5, i % 11))\n"
    "        work[key] = work.get(key, 0) + Fraction(i % 13 - 6, i % 4 + 1)\n"
)


def import_program():
    """Import logderiv from this checkout's src/ only; raise if it is not
    there, so the benchmark never measures some other installed copy."""
    if not (SRC / "logderiv" / "__init__.py").is_file():
        raise ImportError(f"no logderiv package under {SRC}")
    sys.path.insert(0, str(SRC))
    import logderiv

    if Path(logderiv.__file__).resolve().parent != SRC / "logderiv":
        raise ImportError(f"logderiv was imported from {logderiv.__file__}")


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _process_seconds(argv: list[str]) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, *argv], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """SETUP_SAMPLES fresh-interpreter setups, each between two runs of the
    reference process.  Returns the setup times in seconds, and each one
    over the mean of the reference runs around it: the host's speed drifts
    by 20-30% over tens of minutes, which the ratio cancels."""
    setups = []
    references = [_process_seconds(["-c", REFERENCE_PROCESS])]
    for _ in range(SETUP_SAMPLES):
        setups.append(_process_seconds(
            ["-c", SETUP_PROBE, str(BENCH), str(SRC), workload, str(seed)]))
        references.append(_process_seconds(["-c", REFERENCE_PROCESS]))
    ratios = [t / statistics.fmean(references[i:i + 2]) for i, t in enumerate(setups)]
    return setups, ratios


def _reference_work() -> None:
    work: dict = {}
    for i in range(3000):
        key = (i % 3, (i % 7, i % 5, i % 11))
        work[key] = work.get(key, 0) + Fraction(i % 13 - 6, i % 4 + 1)
    max(work, key=lambda k: (sum(k[1]), k[1], -k[0]))


def reference_seconds(repeats: int = 3) -> float:
    """Fastest of a few runs of fixed pure-Python work in the style of the
    Groebner inner loop (exact rationals in a dict keyed by tuples).  It
    never calls the program, so its time follows the host's speed alone."""
    best = math.inf
    for _ in range(repeats):
        start = perf_counter()
        _reference_work()
        best = min(best, perf_counter() - start)
    return best


def record_digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Outcome:
    """What the passes produced: per problem its times, its times in
    reference units, the digest of its first record and its errors; per
    full pass its duration; and every reference sample.  ``check(pid,
    record)`` returns the errors of a problem's first record.  Records are
    checked as they come and only their digests are kept, so that the
    memory of a run does not grow with the number of problems it ran."""

    def __init__(self, check=lambda pid, record: []):
        self.check = check
        self.samples: dict[str, list[float]] = {}
        self.ratios: dict[str, list[float]] = {}
        self.digests: dict[str, str] = {}
        self.errors: dict[str, list[str]] = {}
        self.pass_seconds: list[float] = []
        self.task_seconds = 0.0
        self.runs = 0
        self.abandoned: str | None = None  # the task cut off when the time was up
        self.reference: list[float] = []
        self.elapsed = 0.0

    def add(self, pid: str, seconds: float | None, reference: float, record: dict) -> None:
        """Record one run of a problem; ``seconds`` is None for an output
        that is checked but not timed."""
        if seconds is not None:
            self.samples.setdefault(pid, []).append(seconds)
            self.runs += 1
            self.ratios.setdefault(pid, []).append(seconds / reference)
        digest = record_digest(record)
        if pid not in self.digests:
            self.digests[pid] = digest
            for message in self.check(pid, record):
                self.fail(pid, message)
        elif digest != self.digests[pid]:
            self.fail(pid, "output differs from the first pass")

    def fail(self, pid: str, message: str) -> None:
        self.errors.setdefault(pid, []).append(message)


def fastest(runs: dict[str, list[float]]) -> list[float]:
    """Fastest run of each problem: a problem run in several passes is
    likely to meet a fast stretch of the host at least once."""
    return [min(values) for values in runs.values()]


class TimeUp(BaseException):
    """Raised by the interval timer in a task still running when a run's
    time is up.  Not an Exception, so that no handler in the program
    catches it."""


def _time_up(signum, frame):
    raise TimeUp


def run_capped(fn, cap: float) -> tuple[float, object]:
    """Seconds that ``fn`` ran, cut off after ``cap`` seconds, and its
    result (None if it was cut off)."""
    previous = signal.signal(signal.SIGALRM, _time_up)
    start = perf_counter()
    result = None
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        result = fn()
    except TimeUp:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return perf_counter() - start, result


def run_passes(tasks, seconds: float, mark=lambda pid: None, out: Outcome | None = None,
               complete: int | None = None) -> Outcome:
    """Closed loop over the pool.  The first ``complete`` tasks (by default
    the whole first pass) always run; after them passes repeat until
    ``seconds`` have elapsed, and a task still running then is abandoned
    with its problems.  Reference samples run between tasks and, inside a
    long task, as a problem starts at least REFERENCE_EVERY seconds after
    the last sample; a problem's time in reference units divides by the
    mean of the samples from the one before its task to the one after."""
    out = out or Outcome()
    last_sample = perf_counter()

    def sample():
        nonlocal last_sample
        out.reference.append(reference_seconds())
        last_sample = perf_counter()

    def marked(pid):
        if perf_counter() - last_sample >= REFERENCE_EVERY:
            sample()
        mark(pid)

    complete = len(tasks) if complete is None else complete
    done = 0
    start = perf_counter()
    deadline = start + seconds
    sample()
    previous = signal.signal(signal.SIGALRM, _time_up)
    try:
        while done < complete or perf_counter() < deadline:
            pass_seconds = 0.0
            for task in tasks:
                optional = done >= complete
                if optional and perf_counter() >= deadline:
                    break
                first = len(out.reference) - 1
                task_start = perf_counter()
                try:
                    if optional:
                        signal.setitimer(signal.ITIMER_REAL, max(deadline - task_start, 1e-3))
                    results = task.run(marked)
                except Exception:
                    out.fail(task.name, "raised:\n" + traceback.format_exc())
                    results = []
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                done += 1
                pass_seconds += perf_counter() - task_start
                out.task_seconds += perf_counter() - task_start
                sample()
                reference = statistics.fmean(out.reference[first:])
                for pid, secs, record in results:
                    out.add(pid, secs, reference, record)
            else:
                out.pass_seconds.append(pass_seconds)
    except TimeUp:
        out.abandoned = task.name
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    out.elapsed = perf_counter() - start
    return out


def traced_pass(tasks, check):
    """Run every task traced, and every other task also untraced right
    before or after it (alternating: a second run of the same inputs is a
    few percent faster, which would otherwise read as tracing cost).  The
    untraced twins cost half a pass, not a whole one, and give the tracing
    overhead.  Returns both outcomes, the tracer and the overhead."""
    from tracer import Tracer

    plain, traced, tracer = Outcome(check), Outcome(check), Tracer()
    twinned = 0.0  # traced time of the tasks that have an untraced twin
    for i, task in enumerate(tasks):
        twin, plain_first = i % 2 == 0, i % 4 == 0
        if twin and plain_first:
            run_passes([task], 0, out=plain)
        before = traced.task_seconds
        with tracer:
            run_passes([task], 0, lambda pid: setattr(tracer, "problem", pid), traced)
        if twin:
            twinned += traced.task_seconds - before
        if twin and not plain_first:
            run_passes([task], 0, out=plain)
    overhead = twinned / plain.task_seconds - 1
    for out in (plain, traced):
        out.pass_seconds = [out.task_seconds]
        out.elapsed = out.task_seconds
    return plain, traced, tracer, overhead


def checker(tasks, golden: dict):
    """The check of a problem's record: its claims, its ground truth, and
    its golden record if it has one."""
    import workloads

    expect = {pid: facts for task in tasks for pid, facts in task.expect.items()}

    def check(pid: str, record: dict) -> list[str]:
        errors = workloads.check(record, expect.get(pid, {}))
        if pid in golden and golden[pid] != record:
            errors.append("output differs from the golden record")
        return errors

    return check


def check_cli(workload: str, outcome: Outcome, golden: list[dict]) -> list[str]:
    """Byte-compare the workload's CLI examples; returns their ids."""
    import workloads

    golden_cli = {tuple(entry["argv"]): entry for entry in golden}
    cli_ids = []
    for argv in CLI_EXAMPLES[workload]:
        cli_ids.append("cli " + " ".join(argv))
        if workloads.run_cli(argv) != golden_cli.get(tuple(argv)):
            outcome.fail(cli_ids[-1], "CLI output differs from the golden bytes")
    return cli_ids


def load_golden(workload: str) -> dict:
    with open(GOLDEN / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


# End-to-end figures printed for people but not listed in BENCHMARK.json:
# their spread from run to run is wider than any bound the benchmark may set
# (see perfbench/README.md).  failed_frac is 0 when all is well and is
# carried by the `failed` and `attempted` fields of the result line.
UNLISTED_UNITS = {"setup_raw_s": "s", "problem_ref_p50": "ref", "problem_s_p50": "s",
                  "problem_s_iqm": "s", "problem_s_gmean": "s",
                  "reference_s": "s", "wall_s": "s", "problems_per_s": "1/s",
                  "problem_s_p90": "s", "problems_run": "count"}


def gmean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def iqm(values: list[float]) -> float:
    """Interquartile mean: the mean of the middle half of the values."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(outcome: Outcome, setup: tuple[list[float], list[float]],
               rss_mb: float) -> dict[str, float]:
    times = fastest(outcome.samples)
    ratios = fastest(outcome.ratios)
    setup_seconds, setup_ratios = setup
    metrics = {
        "setup_s": statistics.median(setup_ratios) * REFERENCE_PROCESS_S,
        "problem_ref_iqm": iqm(ratios),
        "problem_ref_gmean": gmean(ratios),
        "peak_rss_mb": rss_mb,
        "setup_raw_s": statistics.median(setup_seconds),
        "problem_ref_p50": statistics.median(ratios),
        "problem_s_p50": statistics.median(times),
        "problem_s_iqm": iqm(times),
        "problem_s_gmean": gmean(times),
        "reference_s": statistics.median(outcome.reference),
        "wall_s": outcome.task_seconds,
        "problems_per_s": outcome.runs / outcome.task_seconds,
        "problems_run": len(times),
    }
    if len(times) >= 100:
        metrics["problem_s_p90"] = percentile(times, 0.9)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: int | None = None, inject_fault: bool = False) -> dict:
    """One benchmark run: the result fields, every computed metric, the
    digest of the records, the errors by problem and the pass count."""
    import workloads

    setup = measure_setup(workload, seed)
    tasks = workloads.build(workload, seed, size=size, inject_fault=inject_fault)
    golden = load_golden(workload)
    check = checker(tasks, golden["records"])
    reference_seconds(REFERENCE_WARMUP)
    if not trace:
        outcome = run_passes(tasks, seconds, out=Outcome(check),
                             complete=workloads.always_run(workload, tasks))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(outcome, setup, rss_mb)
    else:
        outcome, traced, tracer, overhead = traced_pass(
            workloads.fixed_prefix(workload, tasks, workloads.HARNESS_TRACED_CALLS), check)
        for pid, value in traced.digests.items():
            if pid not in outcome.digests:
                outcome.digests[pid] = value
            elif outcome.digests[pid] != value:
                outcome.fail(pid, "traced output differs from the untraced output")
        for pid, errors in traced.errors.items():
            outcome.errors.setdefault(pid, errors)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_frac"] = overhead
        metrics["homog.slow_case_s"] = 0.0
        if workload == "homogenize":
            # untraced, so that the traced counts do not depend on the cut-off
            slow_s, record = run_capped(workloads.slow_case, workloads.SLOW_CASE_CAP_S)
            metrics["homog.slow_case_s"] = slow_s
            if record is not None:
                for message in workloads.check(record, {}):
                    outcome.fail("slow case", message)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.tsv")
    cli_ids = check_cli(workload, outcome, golden["cli"])
    attempted = len(set(outcome.digests) | set(outcome.errors) | set(cli_ids))
    failed = len(outcome.errors)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digest": record_digest(outcome.digests),
        "errors": outcome.errors,
        "passes": len(outcome.pass_seconds),
        "elapsed": outcome.elapsed,
        "abandoned": outcome.abandoned,
    }


def report(workload: str, seed: int, result: dict, spec: dict, trace: bool) -> dict:
    """Print the run for people and return the JSON result line."""
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    metrics = result["metrics"]
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"full passes {result['passes']}  elapsed {result['elapsed']:.2f} s  "
          f"cut off {result['abandoned']}")
    shown = {name: (metrics[name], unit) for name, unit in units.items()}
    if not trace:
        for name, unit in UNLISTED_UNITS.items():
            if name in metrics:
                shown[name] = (metrics[name], unit)
        shown["failed_frac"] = (result["failed"] / result["attempted"], "fraction")
    for name, (value, unit) in shown.items():
        print(f"  {name:48s} {value:>14.6g} {unit}")
    print(f"  output digest {result['digest']}")
    for pid, errors in sorted(result["errors"].items()):
        for message in errors:
            print(f"  FAILED {pid}: {message}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }


def run_all(args, spec: dict) -> int:
    """Every workload in its own process; the last line gathers their
    results under workload-prefixed metric names."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in spec_workloads(spec):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or child.returncode
        if child.returncode not in (0, 1) or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(merged))
    return code


def spec_workloads(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
        spec = benchmark_spec()
    except (ImportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in spec_workloads(spec):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = report(args.workload, args.seed, result, spec, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
