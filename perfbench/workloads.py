"""Seeded inputs, problem execution and output checks of the three
workloads.

A workload's seed fixes a pool of problems.  A pass runs every problem of
the pool once; the run repeats passes for the measured time, so a faster
program sees the same problems, more often, and each problem's time is the
fastest of its runs.  Each problem yields a canonical record (no resolution
matrices: their choice may legitimately change) that is checked against the
problem's own claims, against ground truth where it is known, and against
the golden records.

- harness: the README's ``verify --random 100 ... --seed 0`` through the
  command line, then ``run_harness(10, s)`` for HARNESS_CALLS derived seeds
  s, all with the acceptance defaults (3 variables, degree 6, heavy claims
  on every 10th instance).  A run consumes as many calls as fit in its
  time.  One problem is one instance; its time is the gap between one
  ``random_instance`` call returning and the next one starting (or
  ``run_harness`` returning).
- arrangement: ``verify_degree_identity`` without the slice oracle on
  central arrangements of 6 planes in 4-space in general position, plus a
  free corpus with textbook exponents that also gets a Saito certificate.
- homogenize: ``chi_homogenized(f)`` and ``chi_homogenized(f, mix=(0, 1))``
  on non-quasi-homogeneous squarefree surfaces plus the README examples.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

from logderiv import (
    FactoredPolynomial,
    GradedContext,
    Polynomial,
    format_poly,
    infer_weights,
    parse_poly,
    squarefree_test,
)
# Called through their modules, so that the tracer's wrappers see the calls.
from logderiv import cli, derivmod, harness, hilbert, homog, resolution

WORKLOADS = ("harness", "arrangement", "homogenize")
DEFAULT_SEED = 0

# Sizes of one pass at the seed commit on 2 cores: about 7-8 s (arrangement)
# and 8-12 s (homogenize).  The host's speed swings by up to 2x over tens of
# seconds, so these two pools run several times in a run and each problem
# keeps its fastest run.  The harness pool is larger than a run consumes
# (400 instances took 13-56 s): its calls run in order until the time is up,
# so a run sees a few hundred instances, and a faster program sees more.
# Calls of 10 instances keep the heavy claims on one instance in ten, and a
# call cut off at the end of a run drops at most ten instances.
HARNESS_CALLS = 100
HARNESS_INSTANCES = 10
# Traced runs and golden records cover a fixed prefix of the harness pool,
# so that their counts and records do not depend on the host's speed.
HARNESS_TRACED_CALLS = 20
HARNESS_GOLDEN_CALLS = 30
# The README's verify example opens every harness pool: the user-facing
# command, the same 100 instances at every seed.
VERIFY_ARGV = ["verify", "--random", "100", "--max-vars", "3", "--max-degree", "6", "--seed", "0"]
CLI_PROBLEM = "cli " + " ".join(VERIFY_ARGV)
ARRANGEMENT_DRAWS = 24
# With 2 random planes a draw costs about 0.25 s and D(f) has 11 minimal
# generators; with 3 it cost 2-3 s, too long to run each draw several times.
RANDOM_PLANES = 2
HOMOGENIZE_DRAWS = 24

# Supports of the homogenize draws come from this fixed stream, the run's
# seed draws their coefficients: random supports cost from 0.02 s to 3.5 s
# each, so a pool of a few dozen random supports made the per-run medians
# spread by tens of percent from seed to seed.
SUPPORT_SEED = 0
# The stream's 16th support: x^2*y*z, x*y, y^2, x*z.  One chi_homogenized
# call on it took 119 s at the seed commit (more than 40 s for every
# coefficient draw tried), longer than a whole run may take, so it is left
# out of the pool.  A traced homogenize run times SLOW_CASE on it instead,
# cut off after SLOW_CASE_CAP_S seconds (perfbench/README.md).
EXCLUDED_SUPPORTS = ([(0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 1, 1)],)
SLOW_CASE = "-2*x^2*y*z-2*x*y+3*y^2+2*x*z"
SLOW_CASE_CAP_S = 5.0
COEFFS = (-2, -1, 1, 2, 3)
XYZ = ["x", "y", "z"]

FREE_CORPUS = {
    # name: (normals, multiplicities, textbook exponents)
    "A3": ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1)],
           None, (1, 2, 3)),
    "B3": ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (1, 0, 1),
            (1, 0, -1), (0, 1, 1), (0, 1, -1)], None, (1, 3, 5)),
    "B4": ([tuple(int(k == i) for k in range(4)) for i in range(4)]
           + [tuple(int(k == i) + s * int(k == j) for k in range(4))
              for i, j in itertools.combinations(range(4), 2) for s in (1, -1)],
           None, (1, 3, 5, 7)),
    "x2y3(x+y)(x-y)2(x+2y)3": ([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)],
                               (2, 3, 1, 2, 3), (5, 6)),
}

CORPUS = "free-corpus"
NONZERO = (-3, -2, -1, 1, 2, 3)
README_SURFACES = ("x^2*z+y^3+z^4", "x^3+y^4+z^5+x*y*z")


@dataclass
class Task:
    """One call into the program; it yields one or more problems as
    (problem id, seconds, canonical record) and calls ``mark(problem id)``
    as each problem starts."""

    name: str
    run: Callable[[Callable[[str], None]], list[tuple[str, float, dict]]]
    expect: dict  # problem id -> ground-truth facts checked on its record


def linear_form(normal) -> Polynomial:
    n = len(normal)
    return Polynomial(n, {tuple(int(k == i) for k in range(n)): Fraction(c)
                          for i, c in enumerate(normal) if c})


def arrangement(normals, multiplicities=None) -> FactoredPolynomial:
    mults = multiplicities or (1,) * len(normals)
    return FactoredPolynomial(tuple((linear_form(v), e) for v, e in zip(normals, mults)))


def _det(rows) -> Fraction:
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def general_position_draw(rng: random.Random) -> list[tuple[int, ...]]:
    """The 4 coordinate planes plus RANDOM_PLANES integer normals with
    nonzero entries in [-3, 3], redrawn until every 4 normals are
    independent.  Mixed lattice types cost from 0.1 s to 3.9 s per problem;
    in general position every draw has the same lattice and costs within
    about 20% of the others."""
    coords = [tuple(int(k == i) for k in range(4)) for i in range(4)]
    while True:
        # a zero entry would put the normal in a span of 3 coordinate normals
        normals = coords + [tuple(rng.choice(NONZERO) for _ in range(4))
                            for _ in range(RANDOM_PLANES)]
        if all(_det(quad) for quad in itertools.combinations(normals, 4)):
            return normals


def _draw_support(rng: random.Random) -> list[tuple[int, int, int]]:
    size = rng.randint(3, 4)
    support: set[tuple[int, int, int]] = set()
    while len(support) < size:
        d = rng.randint(2, 5)
        a = rng.randint(0, d)
        b = rng.randint(0, d - a)
        support.add((a, b, d - a - b))
    return sorted(support)


def _coefficients(rng: random.Random, support) -> Polynomial:
    return Polynomial(3, {m: Fraction(rng.choice(COEFFS)) for m in support})


def homogenize_draws(seed: int, count: int) -> list[Polynomial]:
    """Squarefree, not quasi-homogeneous polynomials in x, y, z with 3-4
    terms of degrees 2-5 and coefficients in COEFFS.  A support is kept when
    the draw on the fixed support stream passes both tests; the seed then
    redraws its coefficients until the polynomial is squarefree."""
    supports = random.Random(SUPPORT_SEED)
    rng = random.Random(seed)
    out: list[Polynomial] = []
    while len(out) < count:
        support = _draw_support(supports)
        probe = _coefficients(supports, support)
        if infer_weights(probe) is not None or not squarefree_test(probe)[0]:
            continue
        if support in EXCLUDED_SUPPORTS:
            continue
        while True:
            p = _coefficients(rng, support)
            if squarefree_test(p)[0]:
                out.append(p)
                break
    return out


def slow_case() -> dict:
    """``chi_homogenized`` on SLOW_CASE; the caller cuts it off."""
    return _canonical(homog.chi_homogenized(FactoredPolynomial.single(parse_poly(SLOW_CASE, XYZ))))


def _canonical(obj) -> dict:
    """JSON round trip: the form in which records are compared and stored."""
    return json.loads(json.dumps(obj, sort_keys=True, default=str))


def _timed(fn) -> tuple[float, object]:
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


def _clocked_instances(call, mark, prefix: str) -> tuple[object, list[float]]:
    """Run ``call`` with ``random_instance`` clocked, and the command line's
    ``run_harness`` too when ``call`` goes through it.  Returns its result
    and each instance's seconds: from its ``random_instance`` call
    returning to the next one starting, or to ``run_harness`` returning."""
    marks: list[float] = []
    ends: list[float] = []
    inner, outer = harness.random_instance, cli.run_harness

    def clocked(*args, **kwargs):
        marks.append(perf_counter())
        result = inner(*args, **kwargs)
        mark(f"{prefix}:{len(marks) // 2}")
        marks.append(perf_counter())
        return result

    def finished(*args, **kwargs):
        report = outer(*args, **kwargs)
        ends.append(perf_counter())
        return report

    harness.random_instance, cli.run_harness = clocked, finished
    try:
        result = call()
    finally:
        harness.random_instance, cli.run_harness = inner, outer
    marks.append(ends[0] if ends else perf_counter())
    return result, [marks[2 * i + 2] - marks[2 * i + 1] for i in range(len(marks) // 2)]


def run_cli(argv: list[str]) -> dict:
    """The command line with ``--format json``: its exit code and output."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv + ["--format", "json"])
    return {"argv": argv, "exit": code, "stdout": buffer.getvalue()}


def _verify_cli_task() -> Task:
    """The README's ``logderiv verify --random 100 ... --seed 0``: its
    instances are timed problems, and its output is one more problem that
    is checked but not timed."""
    def run(mark):
        out, seconds = _clocked_instances(lambda: run_cli(VERIFY_ARGV), mark, "cli")
        report = json.loads(out["stdout"])
        return ([(f"cli:{rec['index']}", secs, _canonical(rec))
                 for secs, rec in zip(seconds, report["instances"])]
                + [(CLI_PROBLEM, None, out)])

    return Task(CLI_PROBLEM, run, {})


def harness_tasks(seed: int, calls: int = HARNESS_CALLS, instances: int = HARNESS_INSTANCES,
                  inject_fault: bool = False, with_cli: bool = True) -> list[Task]:
    def task(sub_seed: int, fault: bool) -> Task:
        def run(mark):
            report, seconds = _clocked_instances(
                lambda: harness.run_harness(instances, seed=sub_seed, inject_fault=fault),
                mark, f"h{sub_seed}")
            return [(f"h{sub_seed}:{rec['index']}", secs, _canonical(rec))
                    for secs, rec in zip(seconds, report["instances"])]

        return Task(f"run_harness({instances}, seed={sub_seed})", run, {})

    # sub-seeds start at 1: run_harness(10, 0) would repeat the first ten
    # instances of the command line's seed 0
    seeded = [task(1 + seed * calls + j, inject_fault and j == 0) for j in range(calls)]
    return ([_verify_cli_task()] if with_cli else []) + seeded


def always_run(workload: str, tasks: list[Task]) -> int:
    """How many leading tasks a run completes whatever its time: the whole
    pool, but one call of the harness pool, which is larger than a run."""
    return 1 if workload == "harness" else len(tasks)


def fixed_prefix(workload: str, tasks: list[Task], harness_calls: int) -> list[Task]:
    """The tasks that a traced run or the golden records cover: the whole
    pool, or the first ``harness_calls`` calls of the harness pool."""
    return tasks[:harness_calls] if workload == "harness" else tasks


def _corpus_task() -> Task:
    """The free corpus as one problem, so that the fixed part of the pool
    weighs as one problem beside the seeded draws."""
    cases = {name: (arrangement(normals, mults), GradedContext.standard(len(normals[0])))
             for name, (normals, mults, _) in FREE_CORPUS.items()}

    def run(mark):
        mark(CORPUS)

        def solve():
            reports = {}
            for name, (fp, ctx) in cases.items():
                report = hilbert.verify_degree_identity(fp, ctx, with_oracle=False)
                gens = derivmod.generalized_log_module(fp, ctx)
                basis, _ = resolution.minimal_generators(ctx.derivation_module(), gens, graded=True)
                report["saito_is_basis"] = derivmod.saito_check(basis, fp).is_basis
                reports[name] = report
            return reports

        seconds, reports = _timed(solve)
        return [(CORPUS, seconds, _canonical(reports))]

    expect = {"exponents": {name: sorted(exps) for name, (_, _, exps) in FREE_CORPUS.items()}}
    return Task(CORPUS, run, {CORPUS: expect})


def _draw_task(pid: str, normals) -> Task:
    fp = arrangement(normals)
    ctx = GradedContext.standard(4)

    def run(mark):
        mark(pid)
        seconds, report = _timed(lambda: hilbert.verify_degree_identity(fp, ctx, with_oracle=False))
        return [(pid, seconds, _canonical(report))]

    return Task(pid, run, {pid: {"chi": len(normals), "rank_sum": 4}})


def arrangement_tasks(seed: int, draws: int = ARRANGEMENT_DRAWS) -> list[Task]:
    rng = random.Random(seed)
    return [_corpus_task()] + [_draw_task(f"a{seed}:{k}", general_position_draw(rng))
                               for k in range(draws)]


def _homogenize_task(pid: str, p: Polynomial) -> Task:
    fp = FactoredPolynomial.single(p)

    def run(mark):
        mark(pid)
        seconds, reports = _timed(lambda: [homog.chi_homogenized(fp),
                                             homog.chi_homogenized(fp, mix=(0, 1))])
        return [(pid, seconds, _canonical({"f": format_poly(p, XYZ), "plain": reports[0],
                                           "mix01": reports[1]}))]

    return Task(pid, run, {})


def homogenize_tasks(seed: int, draws: int = HOMOGENIZE_DRAWS) -> list[Task]:
    tasks = [_homogenize_task(f"readme:{text}", parse_poly(text, XYZ)) for text in README_SURFACES]
    for k, p in enumerate(homogenize_draws(seed, draws)):
        tasks.append(_homogenize_task(f"s{seed}:{k}", p))
    return tasks


def build(workload: str, seed: int, size: int | None = None,
          inject_fault: bool = False) -> list[Task]:
    """The seeded pool of a workload; ``size`` shrinks it for smoke runs
    (one harness call of ``size`` instances without the command line, or
    ``size`` random draws)."""
    if workload == "harness":
        if size is None:
            return harness_tasks(seed, inject_fault=inject_fault)
        return harness_tasks(seed, calls=1, instances=size, inject_fault=inject_fault,
                             with_cli=False)
    if workload == "arrangement":
        return arrangement_tasks(seed, ARRANGEMENT_DRAWS if size is None else size)
    if workload == "homogenize":
        return homogenize_tasks(seed, HOMOGENIZE_DRAWS if size is None else size)
    raise ValueError(f"unknown workload {workload!r}")


def _claims(record: dict) -> list[dict]:
    """Claims of a report, or of the reports nested one level inside."""
    if "claims" in record:
        return record["claims"]
    return [c for value in record.values() if isinstance(value, dict) for c in _claims(value)]


def check(record: dict, expect: dict) -> list[str]:
    """Problems with a record: failing claims and ground-truth mismatches."""
    errors = [f"claim failed: {c['claim']}" for c in _claims(record) if c["verdict"] != "pass"]
    for name, exponents in expect.get("exponents", {}).items():
        report = record.get(name, {})
        got = sorted(report.get("minimal_shifts", [[]])[0])
        if got != exponents:
            errors.append(f"{name}: minimal F0 shifts {got} are not the exponents {exponents}")
        if report.get("saito_is_basis") is not True:
            errors.append(f"{name}: the Saito certificate is not a basis")
    if "chi" in expect and record["chi"] != expect["chi"]:
        errors.append(f"chi {record['chi']} is not the number of planes {expect['chi']}")
    if "rank_sum" in expect:
        ranks = sum((-1) ** p * len(s) for p, s in enumerate(record["minimal_shifts"]))
        if ranks != expect["rank_sum"]:
            errors.append(f"alternating rank sum {ranks} is not {expect['rank_sum']}")
    return errors
