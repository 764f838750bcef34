"""Seeded random instance generation and the identity-verification harness.

Instances are quasi-homogeneous factored polynomials: random positive
weights, one or two pairwise coprime squarefree factors supported on at
least two monomials of a common weighted degree (or a plain variable when a
multiplicity above 1 is drawn) and random shift vectors with u + v constant.
Every instance is pushed through the full pipeline and the exact-integer
identities are reported claim by claim.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from fractions import Fraction

from .poly import Polynomial, polynomial_gcd, squarefree_test, u_degree
from .derivmod import (
    FactoredPolynomial,
    GradedContext,
    LogModule,
    annihilator_check,
    generalized_log_module,
)
from .hilbert import (
    DEFAULT_ORACLE_DEGREE,
    chi,
    claim,
    hp_from_basis,
    quotient_ring_hp,
    dimension_via_pole,
    report_ok,
    verify_degree_identity,
)
from .resolution import (
    alternating_degree_sum,
    free_resolution,
    pad_with_trivial_pair,
)

MAX_TOTAL_WEIGHTED_DEGREE = 12
# the cap on `verify --max-vars`: an instance's cost grows with its number
# of variables, about 0.4 s for 10 instances in 12 variables at the degree
# cap, but past a minute for 25 in 24 variables
MAX_VARS = 12
# the annihilator/pole and resolution-independence checks are heavier, so
# they run on every HEAVY_EVERY-th instance
HEAVY_EVERY = 10


def random_context(rng: random.Random, n: int) -> GradedContext:
    u = tuple(rng.randint(1, 4) for _ in range(n))
    k = rng.randint(0, max(u) + 2)
    return GradedContext.from_uk(u, k)


def _monomials_of_weighted_degree(u: tuple[int, ...], d: int):
    """All exponent tuples with weighted degree exactly d (u positive)."""
    n = len(u)

    def rec(i: int, remaining: int):
        if i == n - 1:
            if remaining % u[i] == 0:
                yield (remaining // u[i],)
            return
        for e in range(remaining // u[i] + 1):
            for rest in rec(i + 1, remaining - e * u[i]):
                yield (e,) + rest

    if d < 0:
        return
    yield from rec(0, d)


@functools.cache
def _monomial_pools(u: tuple[int, ...], max_degree: int) -> tuple[tuple, ...]:
    """The monomials of each weighted degree 2..max_degree that has at
    least two, one tuple per degree, built once per (u, max_degree)."""
    pools = (tuple(_monomials_of_weighted_degree(u, d)) for d in range(2, max_degree + 1))
    return tuple(pool for pool in pools if len(pool) >= 2)


def random_qh_polynomial(
    rng: random.Random, u: tuple[int, ...], max_degree: int
) -> Polynomial | None:
    """Squarefree quasi-homogeneous polynomial with at least two monomials
    of a common weighted degree, or None if the draw fails."""
    n = len(u)
    pools = _monomial_pools(u, max_degree)
    if not pools:
        return None
    monos = rng.choice(pools)
    size = rng.randint(2, min(4, len(monos)))
    support = rng.sample(monos, size)
    terms = {}
    for m in support:
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.choice([1, 1, 1, 2])
        terms[m] = Fraction(num, den)
    p = Polynomial(n, terms)
    if p.is_constant():
        return None
    ok, _ = squarefree_test(p)
    return p if ok else None


def random_instance(
    rng: random.Random, max_vars: int = 3, max_degree: int = 6
) -> tuple[FactoredPolynomial, GradedContext]:
    """One admissible harness instance; retries draws until the factored
    polynomial passes the squarefree and coprimality requirements and the
    total weighted degree stays desk sized."""
    while True:
        n = rng.randint(2, max_vars)
        ctx = random_context(rng, n)
        r = rng.choice([1, 1, 1, 2])
        factors: list[tuple[Polynomial, int]] = []
        total = 0
        okay = True
        for _ in range(r):
            if rng.random() < 0.25:
                i = rng.randrange(n)
                f = Polynomial.variable(i, n)
                e = rng.randint(1, 3)
                d = ctx.u[i]
            else:
                f = random_qh_polynomial(rng, ctx.u, max_degree)
                if f is None:
                    okay = False
                    break
                e = rng.randint(1, 3) if rng.random() < 0.35 else 1
                d = u_degree(f, ctx.u)
            if any(not polynomial_gcd(f, g).is_constant() for g, _ in factors):
                okay = False
                break
            total += e * d
            factors.append((f, e))
        if not okay or not factors or total > MAX_TOTAL_WEIGHTED_DEGREE:
            continue
        return FactoredPolynomial(tuple(factors)), ctx


def shift_context(ctx: GradedContext) -> GradedContext:
    return GradedContext(ctx.u, tuple(x + 1 for x in ctx.v))


def verify_v_shift(mod: LogModule, chi_value: int) -> list[dict]:
    """chi under v + 1, read off the leads of the instance's basis, less the
    instance's chi, read off its resolution, must be the variable count.
    D(f) does not depend on v, and v + 1 adds 1 to every slot shift, so no
    term comparison changes and `mod.gens` is the reduced basis under v + 1
    as well; HP(M) = HP(in M) gives the series with no resolution."""
    shifted = shift_context(mod.ctx).derivation_module()
    return [
        claim("shifting v by 1 changes chi by the variable count",
              chi(hp_from_basis(shifted, mod.gens)) - chi_value, mod.ctx.nvars),
    ]


def verify_resolution_independence(mod: LogModule) -> list[dict]:
    """A deliberately non-minimal resolution (redundant generators plus a
    padded trivial pair) and the default one agree on the alternating
    degree sum."""
    ctx, res = mod.ctx, mod.resolution
    f = mod.factored.expand() if mod.factored.factors else Polynomial.constant(1, ctx.nvars)
    zero = Polynomial.zero(ctx.nvars)
    redundant = list(mod.gens)
    redundant.append(tuple(f if i == 0 else zero for i in range(ctx.nvars)))
    res_redundant = free_resolution(mod.module, redundant)
    res_padded = pad_with_trivial_pair(res_redundant, 1, max(res.shifts(0)) + 1)
    base = alternating_degree_sum(res)
    return [
        claim("redundant-generator resolution has the same degree sum",
              alternating_degree_sum(res_redundant), base),
        claim("padded resolution has the same degree sum",
              alternating_degree_sum(res_padded), base),
    ]


def verify_annihilator_and_dimension(mod: LogModule) -> list[dict]:
    ann = annihilator_check(mod)
    hp = quotient_ring_hp([ann["f"]], mod.ctx)
    return [
        claim("the annihilator of the cokernel is the principal ideal of f",
              ann["ok"], True),
        claim("pole order of the hypersurface quotient is n - 1",
              dimension_via_pole(hp), mod.ctx.nvars - 1),
    ]


def corrupted_claims(mod: LogModule, expected: int) -> list[dict]:
    """Negative control: evaluate the degree-sum identity on a copy of the
    instance's resolution whose first shift was tampered with; the claim
    must fail."""
    res = mod.resolution
    phi0 = res.chain[0]
    shifts = phi0.source_shifts
    tampered = dataclasses.replace(phi0, source_shifts=(shifts[0] + 1,) + shifts[1:])
    bad = dataclasses.replace(res, chain=(tampered,) + res.chain[1:])
    return [
        claim(
            "alternating degree sum equals deg(f) + |v| [corrupted resolution]",
            alternating_degree_sum(bad),
            expected,
        )
    ]


def run_harness(
    n_instances: int,
    max_vars: int = 3,
    max_degree: int = 6,
    seed: int = 0,
    d_max: int = DEFAULT_ORACLE_DEGREE,
    inject_fault: bool = False,
) -> dict:
    """Generate seeded instances and run the identity checks on each.

    D(f) and its resolution are computed once per instance and shared by
    the claims; the v + 1 claim reads D(f)'s basis under the shifted
    grading and resolves nothing.
    The heavier claims run on every HEAVY_EVERY-th instance (at least ten
    times across a hundred instances).  Fault injection appends a
    deliberately failing claim to the first instance.
    """
    rng = random.Random(seed)
    instances = []
    all_ok = True
    for index in range(n_instances):
        factored, ctx = random_instance(rng, max_vars, max_degree)
        # random_instance's rejection tests are validate's checks
        mod = LogModule(factored, ctx, generalized_log_module(factored, ctx, validate=False))
        report = verify_degree_identity(mod, ctx, d_max=d_max)
        claims = list(report["claims"])
        claims.extend(verify_v_shift(mod, report["chi"]))
        if index % HEAVY_EVERY == 0:
            claims.extend(verify_resolution_independence(mod))
            claims.extend(verify_annihilator_and_dimension(mod))
        if inject_fault and index == 0:
            claims.extend(corrupted_claims(mod, report["expected"]))
        ok = report_ok(claims)
        all_ok = all_ok and ok
        instances.append(
            {
                "index": index,
                "nvars": ctx.nvars,
                "u": list(ctx.u),
                "v": list(ctx.v),
                "k": ctx.k,
                "factors": [
                    {"terms": len(f.terms), "multiplicity": e}
                    for f, e in factored.factors
                ],
                "degree": report["degree"],
                "chi": report["chi"],
                "expected": report["expected"],
                "claims": claims,
                "ok": ok,
            }
        )
    return {"instances": instances, "count": n_instances, "ok": all_ok}
