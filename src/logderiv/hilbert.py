"""Hilbert-Poincare series of graded modules, the chi invariant, dimension
via pole order, and direct verification of the alternating-sum identities.

A series is kept in closed form: an integer Laurent polynomial numerator
N(t) over the fixed denominator prod(1 - t^{u_i}).  For any homogeneous free
resolution of a module the numerator equals the alternating sum of t^{d}
over the shifts, so N(t) is intrinsic and chi(M) = N'(1) is exact.  A slice
dimension oracle (`hp_bruteforce`) checks the expansion degree by degree
against the rank of the rows alpha * g spanning each slice; positive weights
keep the slices finite dimensional, anything else is refused.

The oracle proves each rank by two bounds that meet.  The distinct lead
terms of the rows bound it from below, and their count is the series of a
monomial submodule (`poly.monomial_numerator`, Bayer & Stillman 1992).  The
row count less the distinct leads of the rows beta * s, over syzygies s
that are each checked to be kernel vectors, bounds it from above.  For a
Groebner basis the two meet in every degree.  Only degrees where they do
not go to exact fraction-free elimination on primitive integer rows, by
`poly.reduce_into`, which `poly.infer_weights` also uses.  There a column
(slot, exponents) is one int, its digits in a base B that exceeds every
exponent that can occur (positive weights bound a multiplier's exponents by
its degree), so multiplying a row by a monomial is one int add per term.
Module elements come and go as `groebner.Row`s, whose integer terms the
oracle reads as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import comb
from operator import mul

from .poly import (
    Exponents,
    NonPositiveWeightError,
    Polynomial,
    join_terms,
    monomial_numerator,
    polynomial_gcd,
    primitive,
    reduce_into,
    u_degree,
)
from .groebner import (
    FlatTerm,
    FreeModule,
    as_row,
    buchberger,
    combination,
    normal_form,
    ring_module,
    syzygies,
    vec_is_zero,
    vector_degree,
)
from .derivmod import FactoredPolynomial, GradedContext, LogModule, generalized_log_module
from .resolution import (
    Resolution,
    alternating_degree_sum,
    alternating_rank_sum,
    betti_numbers,
    free_resolution,
)

DEFAULT_ORACLE_DEGREE = 12


@dataclass(frozen=True)
class HPSeries:
    """Numerator (sorted (exponent, coefficient) pairs, Laurent allowed)
    over the denominator prod(1 - t^{u_i})."""

    numerator: tuple[tuple[int, int], ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        if any(w <= 0 for w in self.weights):
            raise NonPositiveWeightError(
                "series denominators need strictly positive weights; otherwise the "
                "graded slices are infinite dimensional and the series is undefined"
            )

    @classmethod
    def from_dict(cls, coeffs: dict[int, int], weights) -> "HPSeries":
        items = tuple(sorted((e, c) for e, c in coeffs.items() if c))
        return cls(items, tuple(weights))

    def numerator_dict(self) -> dict[int, int]:
        return {e: c for e, c in self.numerator}

    def min_exponent(self) -> int:
        return min((e for e, _ in self.numerator), default=0)


def hp_free(shifts, u) -> HPSeries:
    """Series of the free module with the given shifts: sum(t^d) over the
    denominator."""
    coeffs: dict[int, int] = {}
    for d in shifts:
        coeffs[d] = coeffs.get(d, 0) + 1
    return HPSeries.from_dict(coeffs, u)


def hp_from_resolution(res: Resolution) -> HPSeries:
    """Alternating numerator sum over the resolution steps."""
    if not res.graded:
        raise ValueError("the series needs a homogeneous resolution")
    coeffs: dict[int, int] = {}
    for p in range(res.length + 1):
        sign = 1 if p % 2 == 0 else -1
        for d in res.shifts(p):
            coeffs[d] = coeffs.get(d, 0) + sign
    return HPSeries.from_dict(coeffs, res.weights)


def hp_quotient(f0: FreeModule, relations) -> HPSeries:
    """Series of F_0 / K for the submodule K of F_0 generated by the
    relations.  Series are additive on 0 -> K -> F_0 -> F_0 / K -> 0, so the
    numerator is F_0's minus the numerator of a resolution of K."""
    coeffs = hp_free(f0.shifts, f0.order.weights).numerator_dict()
    for e, c in hp_from_resolution(free_resolution(f0, relations)).numerator:
        coeffs[e] = coeffs.get(e, 0) - c
    return HPSeries.from_dict(coeffs, f0.order.weights)


def chi(hp: HPSeries) -> int:
    """chi = N'(1), the exact derivative of the numerator N at t = 1:
    sum(e * c_e)."""
    return sum(e * c for e, c in hp.numerator)


def format_series(hp: HPSeries) -> str:
    """Closed form `N(t)/((1-t^{u_1})...(1-t^{u_n}))`."""
    if not hp.numerator:
        return "0"
    parts = []
    for e, c in sorted(hp.numerator, reverse=True):
        mono = "1" if e == 0 else ("t" if e == 1 else f"t^{e}")
        a = abs(c)
        if mono == "1":
            body = str(a)
        elif a == 1:
            body = mono
        else:
            body = f"{a}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    num = join_terms(parts)
    if len(parts) > 1 or num.startswith("-"):
        num = f"({num})"
    denom = "".join(
        "(1-t)" if w == 1 else f"(1-t^{w})" for w in sorted(hp.weights)
    )
    return f"{num}/({denom})"


def hp_expand(hp: HPSeries, lo: int, hi: int) -> dict[int, int]:
    """Series coefficients for degrees lo..hi by iterated geometric
    convolution of the numerator with each 1/(1 - t^w)."""
    base = hp.min_exponent()
    lo = min(lo, base)
    coeffs = {e: 0 for e in range(lo, hi + 1)}
    for e, c in hp.numerator:
        if e <= hi:
            coeffs[e] = coeffs.get(e, 0) + c
    for w in hp.weights:
        for e in range(lo + w, hi + 1):
            coeffs[e] += coeffs.get(e - w, 0)
    return coeffs


def dimension_via_pole(hp: HPSeries) -> int:
    """Pole order at t = 1: number of variables minus the multiplicity of
    t = 1 as a root of the numerator.  With the numerator shifted to a
    polynomial sum(c_e * t^(e + shift)), that multiplicity is the least k
    whose Taylor coefficient at t = 1, sum(c_e * C(e + shift, k)), is
    nonzero."""
    if not any(c for _, c in hp.numerator):
        raise ValueError("the zero series has no pole order")
    shift = -hp.min_exponent()
    multiplicity = next(
        k for k in count() if sum(c * comb(e + shift, k) for e, c in hp.numerator) != 0
    )
    return len(hp.weights) - multiplicity


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


def _lead_key(term: FlatTerm) -> tuple[Exponents, int]:
    """The engine's tie-break among terms of one shifted degree, least
    first: smaller e_{n-1}, ..., e_0 ranks higher, then the lower slot.
    Adding exponents preserves it, so lead(alpha * g) = alpha * lead(g)."""
    slot, exps = term
    return exps[::-1], slot


def _leads(module: FreeModule, rows) -> set[FlatTerm]:
    """The lead term of every homogeneous component of every row."""
    weights, shifts = module.order.weights, module.shifts
    leads: set[FlatTerm] = set()
    for row in rows:
        components: dict[int, list[FlatTerm]] = {}
        for term in row.terms:
            slot, exps = term
            components.setdefault(shifts[slot] + sum(map(mul, exps, weights)), []).append(term)
        leads.update(min(terms, key=_lead_key) for terms in components.values())
    return leads


def _lead_series(module: FreeModule, leads) -> HPSeries:
    """Series of the monomial submodule the lead terms generate: slot i
    contributes t^{shift_i} (1 - N(S / I_i)), I_i the ideal of its leads'
    monomials (`poly.monomial_numerator`)."""
    u = module.order.weights
    by_slot: dict[int, list[Exponents]] = {}
    for slot, exps in leads:
        by_slot.setdefault(slot, []).append(exps)
    coeffs: dict[int, int] = {}
    for slot, monos in by_slot.items():
        shift = module.shifts[slot]
        coeffs[shift] = coeffs.get(shift, 0) + 1
        for e, c in monomial_numerator(monos, u).items():
            coeffs[e + shift] = coeffs.get(e + shift, 0) - c
    return HPSeries.from_dict(coeffs, u)


def hp_bruteforce(module: FreeModule, gens, d_lo: int, d_hi: int) -> dict[int, int]:
    """Slice dimensions of the generated submodule for degrees d_lo..d_hi:
    the rank over Q of the rows alpha * g, over every generator g and every
    monomial alpha of degree d - deg g, each proven by two bounds that meet
    or else computed by elimination.  (The name is the one the library
    exports and perfbench's tracer wraps; the result is the brute-force
    rank it always was.)

    - L_d <= rank: the number of distinct leads of the rows, because rows
      with distinct leads are independent.  lead(alpha * g) is
      alpha * lead(g) under the explicit key `_lead_key`, so L is the
      series of the monomial submodule of the generators' leads.
    - rank <= N_d - K_d: N_d counts the rows (the free series on the
      generator degrees), and K_d the distinct leads of the rows beta * s
      over the syzygies s of the generators, independent kernel vectors.
      Each s from `syzygies` is checked to combine the generators to zero
      (RuntimeError if not); the engine's output is a witness, never
      trusted.

    Where L_d = N_d - K_d that number is the rank.  When L_d = N_d at every
    degree the rows are independent and `syzygies` is not called.  For a
    Groebner basis both bounds are exact (Bayer & Stillman 1992; Eisenbud,
    Commutative Algebra, 15.10, for the syzygies' leads), so only a
    generating set that is not one, which the API accepts, can leave a
    degree open; `_eliminate` ranks exactly those degrees.

    Generators must be homogeneous (`vector_degree` raises otherwise);
    weights must be strictly positive (the module order enforces this),
    otherwise slices would be infinite dimensional.
    """
    gens = [as_row(g) for g in gens]
    degrees = [vector_degree(module, g) for g in gens]
    u = module.order.weights
    slices = range(d_lo, d_hi + 1)
    rows = hp_expand(hp_free(degrees, u), d_lo, d_hi)
    lower = hp_expand(_lead_series(module, _leads(module, gens)), d_lo, d_hi)
    if all(lower[d] == rows[d] for d in slices):
        return {d: rows[d] for d in slices}
    syz_module, syz = syzygies(module, gens)
    for s in syz:
        if combination(s, gens).terms:
            raise RuntimeError("syzygies returned a row that is not a kernel vector")
    kernel = hp_expand(_lead_series(syz_module, _leads(syz_module, syz)), d_lo, d_hi)
    open_slices = [d for d in slices if lower[d] != rows[d] - kernel[d]]
    eliminated = _eliminate(module, gens, open_slices) if open_slices else {}
    return {d: eliminated.get(d, lower[d]) for d in slices}


def _eliminate(module: FreeModule, gens, slices) -> dict[int, int]:
    """The rank of the rows alpha * g in each degree of slices, by exact
    fraction-free elimination.

    Rows are primitive integer rows, reduced by `poly.reduce_into`; the
    rank over Q is the number of pivots.  A column, a slot and an exponent
    vector, is the int slot * B^n + sum(e_i * B^(n-1-i)).  Every exponent
    of a multiplier alpha is at most its degree d - deg g <= d_hi - (least
    generator degree), d_hi the largest degree asked for, because weights
    are positive, so with B = (largest generator exponent) + d_hi - (least
    generator degree) + 1 no digit overflows: multiplying by alpha adds
    alpha's code to each column, and the largest code is the largest
    (slot, exps) tuple.  The codes of the multipliers of each degree are
    built once per call.
    """
    u = module.order.weights
    n = module.nvars
    gens = [as_row(g) for g in gens]
    degrees = [vector_degree(module, g) for g in gens]
    d_hi = max(slices, default=0)
    top = max((e for g in gens for _, exps in g.terms for e in exps), default=0)
    base = top + max(d_hi - min(degrees, default=d_hi), 0) + 1
    place = [base ** (n - 1 - i) for i in range(n)]
    rows = [primitive({slot * base**n + sum(map(mul, exps, place)): c
                       for (slot, exps), c in g.terms.items()}) for g in gens]
    multipliers: dict[int, list[int]] = {}
    dims: dict[int, int] = {}
    for d in slices:
        pivots: dict[int, dict[int, int]] = {}
        for g_row, dg in zip(rows, degrees):
            gap = d - dg
            if gap < 0:
                continue
            codes = multipliers.get(gap)
            if codes is None:
                codes = multipliers[gap] = [
                    sum(map(mul, alpha, place))
                    for alpha in _monomials_of_weighted_degree(u, gap)
                ]
            for shift in codes:
                reduce_into(pivots, {k + shift: c for k, c in g_row.items()})
        dims[d] = len(pivots)
    return dims


def claim(name: str, lhs, rhs) -> dict:
    return {
        "claim": name,
        "lhs": lhs,
        "rhs": rhs,
        "verdict": "pass" if lhs == rhs else "fail",
    }


def report_ok(claims: list[dict]) -> bool:
    return all(c["verdict"] == "pass" for c in claims)


def _oracle_claim(module: FreeModule, gens, hp: HPSeries, d_max: int) -> dict:
    lo = min([0, hp.min_exponent()] + [vector_degree(module, g) for g in gens])
    if d_max < lo:
        raise ValueError(f"the slice oracle's degree range {lo}..{d_max} is empty")
    expansion = hp_expand(hp, lo, d_max)
    brute = hp_bruteforce(module, gens, lo, d_max)
    return claim(
        "series expansion matches slice dimensions",
        [expansion[d] for d in range(lo, d_max + 1)],
        [brute[d] for d in range(lo, d_max + 1)],
    )


def verify_degree_identity(
    factored: FactoredPolynomial | LogModule,
    ctx: GradedContext,
    d_max: int = DEFAULT_ORACLE_DEGREE,
    with_oracle: bool = True,
) -> dict:
    """Checks, on one quasi-homogeneous instance, that the alternating shift
    sum of a graded resolution of the derivation module, the chi of its
    series, and the Betti-number form all equal deg(f) + |v|, plus the rank
    identity and (optionally) the slice oracle.

    `factored` may be the instance's LogModule under ctx, whose D(f) and
    resolutions are then read instead of computed here."""
    ctx.require_constraint()
    mod = factored if isinstance(factored, LogModule) else None
    if mod is not None:
        if mod.ctx != ctx:
            raise ValueError("the LogModule was built under another grading")
        factored = mod.factored
    # the degree of a product, without expanding it; u_degree raises
    # NotQuasiHomogeneous on a factor that is not quasi-homogeneous, as it
    # would on the product
    degree = sum(e * u_degree(f, ctx.u) for f, e in factored.factors)
    expected = degree + ctx.v_sum
    if mod is None:
        mod = LogModule.of(factored, ctx)
    res, minimal = mod.resolution, mod.minimal
    hp = hp_from_resolution(res)
    value = chi(hp)
    betti = betti_numbers(minimal)
    claims = [
        claim("alternating degree sum equals deg(f) + |v|",
              alternating_degree_sum(res), expected),
        claim("chi of the resolution series equals deg(f) + |v|", value, expected),
        claim("chi is resolution independent",
              chi(hp_from_resolution(minimal)), value),
        claim("betti weighted alternating sum equals deg(f) + |v|",
              betti.weighted_alternating_sum(), expected),
        claim("alternating rank sum equals the variable count",
              alternating_rank_sum(res), ctx.nvars),
    ]
    if with_oracle:
        claims.append(_oracle_claim(mod.module, mod.gens, hp, d_max))
    return {
        "degree": degree,
        "v_sum": ctx.v_sum,
        "expected": expected,
        "shifts": [list(res.shifts(p)) for p in range(res.length + 1)],
        "minimal_shifts": [list(minimal.shifts(p)) for p in range(minimal.length + 1)],
        "betti": betti.to_triples(),
        "chi": value,
        "claims": claims,
        "ok": report_ok(claims),
    }


def verify_coprime_sum(
    f1: FactoredPolynomial, f2: FactoredPolynomial, ctx: GradedContext
) -> dict:
    """chi of the sum D(f1) + D(f2) equals |v| when the reduced parts of f1
    and f2 have no common factors."""
    g = polynomial_gcd(f1.reduced(), f2.reduced())
    if not g.is_constant():
        raise ValueError("reduced parts share a common factor")
    dm = ctx.derivation_module()
    gens = generalized_log_module(f1, ctx) + generalized_log_module(f2, ctx)
    gens = list(buchberger(dm, gens).rows)
    res = free_resolution(dm, gens)
    value = chi(hp_from_resolution(res))
    claims = [claim("chi of the sum module equals |v|", value, ctx.v_sum)]
    return {"chi": value, "claims": claims, "ok": report_ok(claims)}


def chi_additivity_check(sub_gens, big_gens, ctx: GradedContext) -> dict:
    """chi(L) = chi(M) + chi(L/M) via independent resolutions of all three.

    L/M is presented on F_0, free on the reduced basis of L, by the
    syzygies of that basis modulo M.
    """
    dm = ctx.derivation_module()
    gb = buchberger(dm, big_gens)
    # the membership test runs before any resolution
    if not all(vec_is_zero(normal_form(dm, m, gb)) for m in sub_gens):
        raise ValueError("not a submodule: generator fails membership")
    big = list(gb.rows)
    f0, relations = syzygies(dm, big, sub_gens)
    chi_l = chi(hp_from_resolution(free_resolution(dm, big)))
    sub_canonical = list(buchberger(dm, sub_gens).rows)
    chi_m = chi(hp_from_resolution(free_resolution(dm, sub_canonical)))
    chi_q = chi(hp_quotient(f0, relations))
    claims = [claim("chi is additive along 0 -> M -> L -> L/M -> 0",
                    chi_l, chi_m + chi_q)]
    return {
        "chi_total": chi_l,
        "chi_sub": chi_m,
        "chi_quotient": chi_q,
        "claims": claims,
        "ok": report_ok(claims),
    }


def quotient_ring_hp(ideal_gens: list[Polynomial], ctx: GradedContext) -> HPSeries:
    """Series of S/I, the quotient of the rank-1 free module by I."""
    ring = ring_module(ctx.nvars, ctx.order())
    return hp_quotient(ring, [(g,) for g in ideal_gens])
