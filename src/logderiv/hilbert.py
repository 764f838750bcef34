"""Hilbert-Poincare series of graded modules, the chi invariant, dimension
via pole order, and direct verification of the alternating-sum identities.

A series is kept in closed form: an integer Laurent polynomial numerator
N(t) over the fixed denominator prod(1 - t^{u_i}).  For any homogeneous free
resolution of a module the numerator equals the alternating sum of t^{d}
over the shifts, so N(t) is intrinsic and chi(M) = N'(1) is exact.  A slice
dimension oracle (`hp_bruteforce`) checks the expansion degree by degree
against the rank of the rows alpha * g spanning each slice; positive weights
keep the slices finite dimensional, anything else is refused.

A submodule's series is read off the leads of a homogeneous Groebner basis
(`hp_from_basis`: HP(M) = HP(in M), Bayer & Stillman 1992), with no
resolution; `hp_from_resolution` serves the claims about a resolution.

The oracle takes homogeneous generators that form a Groebner basis, as
D(f)'s reduced basis does; any other generating set goes through
`buchberger` first.  It proves each rank by two bounds that meet: the row
count less the distinct Schreyer leads (`_schreyer_lead`) of the rows
beta * s, over syzygies s from `groebner.syzygies` each checked to be a
kernel vector, from above; and the distinct leads of the rows alpha * g
from below.  For a Groebner basis the two meet in every degree: its
syzygies are the lifts of its S-pairs, whose Schreyer leads generate those
of every syzygy (Schreyer's theorem), and no Groebner basis of the
syzygies is computed.  Generators whose leads lie in distinct slots, as
the basis of a free D(f) does, need neither: every row has its own lead,
so the rank is the row count.  Bounds that do not meet are refused, never
patched: the generators are not a Groebner basis, or the engine is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import comb
from operator import add, mul

from .poly import (
    Exponents,
    NonPositiveWeightError,
    Polynomial,
    join_terms,
    monomial_numerator,
    polynomial_gcd,
    u_degree,
)
from .groebner import (
    FreeModule,
    _lead,
    _lead_key,
    _leads_in_distinct_slots,
    as_row,
    buchberger,
    combination,
    normal_form,
    ring_module,
    syzygies,
    vec_is_zero,
    vector_degree,
    vector_grading,
)
from .derivmod import FactoredPolynomial, GradedContext, LogModule, generalized_log_module
from .resolution import (
    Resolution,
    alternating_degree_sum,
    alternating_rank_sum,
    betti_numbers,
)

DEFAULT_ORACLE_DEGREE = 12
# the oracle's work and report grow linearly in d_max, one slice per degree
MAX_ORACLE_DEGREE = 1000


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
    numerator is F_0's minus K's, read off K's reduced basis.  Every relation
    must be homogeneous (a zero one is); ValueError otherwise."""
    relations = [as_row(r) for r in relations]
    if not all(vector_grading(f0, r)[1] for r in relations):
        raise ValueError("the series needs homogeneous relations")
    coeffs = hp_free(f0.shifts, f0.order.weights).numerator_dict()
    for e, c in hp_from_basis(f0, buchberger(f0, relations).rows).numerator:
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


def hp_from_basis(module: FreeModule, basis) -> HPSeries:
    """Series of the submodule a homogeneous Groebner basis generates: that
    of its leads' monomial submodule, where slot i contributes
    t^{shift_i} (1 - N(S / I_i)), I_i the ideal of its leads' monomials
    (`poly.monomial_numerator`).  The leads are the engine's (`_lead`),
    so `buchberger`'s rows qualify; for other homogeneous generators the
    series is only a lower bound degree by degree, which `hp_bruteforce`
    refuses where it falls short.  Zero rows are skipped; a row that is not
    homogeneous (`vector_grading`), or a block split (another order), is
    refused."""
    rows = [r for r in map(as_row, basis) if r.terms]
    if not all(vector_grading(module, r)[1] for r in rows):
        raise ValueError("the series needs a homogeneous basis")
    return _lead_series(module, [_lead(module, r) for r in rows])


def _lead_series(module: FreeModule, leads) -> HPSeries:
    """`hp_from_basis` from the leads of the basis."""
    if module.block_split is not None:
        raise ValueError("the series reads leads in an order without a block split")
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
    monomial alpha of degree d - deg g, each proven by two bounds that meet.
    (The name is the one the library exports and perfbench's tracer wraps;
    the result is the brute-force rank it always was.)

    - rank <= N_d - K_d: N_d counts the rows (the free series on the
      generator degrees), and K_d the distinct Schreyer leads
      (`_schreyer_lead`) of the rows beta * s over the syzygies s of the
      generators: independent kernel vectors, as Schreyer's order is a
      module order, so lead(beta * s) = beta * lead(s).
    - L_d <= rank: the number of distinct leads of the rows alpha * g,
      because rows with distinct leads are independent.  lead(alpha * g)
      is alpha * lead(g) under the explicit key `_lead_key`
      (`groebner._lead`), so L is `hp_from_basis` of the generators.

    The generators must form a Groebner basis, as every caller's do
    (D(f)'s reduced basis; other generating sets go through `buchberger`
    first): then L_d is the rank (Bayer & Stillman 1992), `syzygies`
    returns the lifts of their S-pairs, whose Schreyer leads generate those
    of every syzygy (Schreyer's theorem), so K_d is the kernel's dimension,
    and the oracle proves the rank.  When their leads lie in distinct slots
    (`groebner._leads_in_distinct_slots`), as those of a free D(f)'s basis
    do, the leads alpha * lead(g) are all distinct, so the rank is N_d and
    no bound is computed; when L_d = N_d at every degree, `syzygies` is not
    called.  Otherwise one `syzygies` call gives the upper bound.  The
    engine's output is never trusted: a syzygy that does not combine the
    generators to zero raises RuntimeError, and so do bounds that differ,
    which a generating set that is not a Groebner basis leaves apart where
    its leads fall short (one that is a Groebner basis only through d_hi
    gets the block split's syzygies, whose Schreyer leads may fall short
    too, and may be refused).

    Generators must be nonzero and homogeneous (ValueError otherwise, from
    `vector_degree`).  Weights must be strictly positive (the module order
    enforces this), otherwise slices would be infinite dimensional.
    """
    gens = [as_row(g) for g in gens]
    degrees = [vector_degree(module, g) for g in gens]
    leads = [_lead(module, g) for g in gens]
    u = module.order.weights
    slices = range(d_lo, d_hi + 1)
    rows = hp_expand(hp_free(degrees, u), d_lo, d_hi)
    if _leads_in_distinct_slots(leads):
        return {d: rows[d] for d in slices}
    lower = hp_expand(_lead_series(module, leads), d_lo, d_hi)
    if all(lower[d] == rows[d] for d in slices):
        return {d: rows[d] for d in slices}
    syz_module, syz = syzygies(module, gens)
    for s in syz:
        if combination(s, gens).terms:
            raise RuntimeError("syzygies returned a row that is not a kernel vector")
    schreyer = [_schreyer_lead(syz_module, leads, s) for s in syz]
    kernel = hp_expand(_lead_series(syz_module, schreyer), d_lo, d_hi)
    upper = {d: rows[d] - kernel[d] for d in slices}
    if any(lower[d] != upper[d] for d in slices):
        raise RuntimeError("the slice bounds do not meet: the generators are not a "
                           "Groebner basis, or the engine is wrong")
    return upper


def _schreyer_lead(syz_module: FreeModule, leads, row) -> tuple[int, Exponents]:
    """The lead of a nonzero syzygy row in Schreyer's order: its term (k, g)
    whose product g * leads[k] is largest (by degree in syz_module, then
    `_lead_key`), ties to the higher k.  The order is a module order, so
    the lead of x^b * row is x^b times this one."""
    shifts, weights = syz_module.shifts, syz_module.order.weights

    def key(term):
        k, g = term
        slot, exps = leads[k]
        return (-shifts[k] - sum(map(mul, g, weights)),
                _lead_key((slot, tuple(map(add, g, exps)))), -k)

    return min(row.terms, key=key)


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
    if d_max > MAX_ORACLE_DEGREE:
        raise ValueError(f"the slice oracle's degree bound {d_max} is above {MAX_ORACLE_DEGREE}")
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
    value = chi(hp_from_basis(dm, buchberger(dm, gens).rows))
    claims = [claim("chi of the sum module equals |v|", value, ctx.v_sum)]
    return {"chi": value, "claims": claims, "ok": report_ok(claims)}


def chi_additivity_check(sub_gens, big_gens, ctx: GradedContext) -> dict:
    """chi(L) = chi(M) + chi(L/M), each series read off its own reduced
    basis (`hp_from_basis`, through `hp_quotient` for L/M).

    L/M is presented on F_0, free on the reduced basis of L, by the
    syzygies of that basis modulo M.
    """
    dm = ctx.derivation_module()
    gb = buchberger(dm, big_gens)
    # the membership test runs before any series
    if not all(vec_is_zero(normal_form(dm, m, gb)) for m in sub_gens):
        raise ValueError("not a submodule: generator fails membership")
    big = list(gb.rows)
    f0, relations = syzygies(dm, big, sub_gens)
    chi_l = chi(hp_from_basis(dm, big))
    chi_m = chi(hp_from_basis(dm, buchberger(dm, sub_gens).rows))
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
