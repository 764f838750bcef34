"""Hilbert-Poincare series of graded modules, the chi invariant, dimension
via pole order, and direct verification of the alternating-sum identities.

A series is kept in closed form: an integer Laurent polynomial numerator
N(t) over the fixed denominator prod(1 - t^{u_i}).  For any homogeneous free
resolution of a module the numerator equals the alternating sum of t^{d}
over the shifts, so N(t) is intrinsic and chi(M) = N'(1) is exact.  A slice
dimension oracle expands the series degree by degree via exact linear
algebra over the monomial basis; positive weights keep the slices finite
dimensional, anything else is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import NonPositiveWeightError, Polynomial, u_degree
from .groebner import (
    FreeModule,
    Vector,
    buchberger,
    divide,
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
    presentation_resolution,
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


@dataclass(frozen=True)
class ChiValue:
    """chi = N'(1) for the closed-form numerator N."""

    value: int
    numerator: tuple[tuple[int, int], ...]


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


def chi(hp: HPSeries) -> ChiValue:
    """Exact derivative of the numerator at t = 1: sum(e * c_e)."""
    return ChiValue(sum(e * c for e, c in hp.numerator), hp.numerator)


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
    sign, body = parts[0]
    num = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        num += f" {sign} {body}"
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
    (t - 1) in the numerator."""
    coeffs = hp.numerator_dict()
    if not coeffs:
        raise ValueError("the zero series has no pole order")
    shift = -hp.min_exponent()
    poly = {}
    for e, c in coeffs.items():
        poly[e + shift] = c
    multiplicity = 0
    while True:
        if sum(poly.values()) != 0:
            break
        # divide by (t - 1): synthetic division at t = 1
        degree = max(poly)
        dense = [poly.get(i, 0) for i in range(degree + 1)]
        out = [0] * degree
        acc = 0
        for i in range(degree, 0, -1):
            acc += dense[i]
            out[i - 1] = acc
        poly = {i: c for i, c in enumerate(out) if c}
        multiplicity += 1
        if not poly:
            raise ValueError("numerator vanished identically")
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


def hp_bruteforce(
    module: FreeModule, gens: list[Vector], d_lo: int, d_hi: int
) -> dict[int, int]:
    """Slice dimensions of the generated submodule for degrees d_lo..d_hi,
    by Gaussian elimination over the monomial basis of each slice.

    Generators must be homogeneous; weights must be strictly positive (the
    module order enforces this), otherwise slices would be infinite
    dimensional.
    """
    u = module.order.weights
    degrees = [vector_degree(module, g) for g in gens]
    dims: dict[int, int] = {}
    for d in range(d_lo, d_hi + 1):
        pivots: dict = {}
        rank = 0
        for g, dg in zip(gens, degrees):
            gap = d - dg
            if gap < 0:
                continue
            flat_g = [
                (slot, exps, c)
                for slot, p in enumerate(g)
                for exps, c in p.terms.items()
            ]
            for alpha in _monomials_of_weighted_degree(u, gap):
                row: dict = {}
                for slot, exps, c in flat_g:
                    key = (slot, tuple(a + b for a, b in zip(exps, alpha)))
                    row[key] = row.get(key, Fraction(0)) + c
                row = {k: v for k, v in row.items() if v}
                while row:
                    lead = max(row)
                    if lead in pivots:
                        factor = row[lead] / pivots[lead][lead]
                        for k, v in pivots[lead].items():
                            newv = row.get(k, Fraction(0)) - factor * v
                            if newv:
                                row[k] = newv
                            else:
                                row.pop(k, None)
                    else:
                        pivots[lead] = row
                        rank += 1
                        break
        dims[d] = rank
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


def _oracle_claim(
    module: FreeModule, gens, res: Resolution, d_max: int
) -> dict:
    hp = hp_from_resolution(res)
    lo = min([0, hp.min_exponent()] + [vector_degree(module, g) for g in gens])
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
    f = factored.expand() if factored.factors else None
    degree = u_degree(f, ctx.u) if f is not None else 0
    expected = degree + ctx.v_sum
    if mod is None:
        mod = LogModule.of(factored, ctx)
    res, minimal = mod.resolution, mod.minimal
    value = chi(hp_from_resolution(res)).value
    betti = betti_numbers(minimal)
    claims = [
        claim("alternating degree sum equals deg(f) + |v|",
              alternating_degree_sum(res), expected),
        claim("chi of the resolution series equals deg(f) + |v|", value, expected),
        claim("chi is resolution independent",
              chi(hp_from_resolution(minimal)).value, value),
        claim("betti weighted alternating sum equals deg(f) + |v|",
              betti.weighted_alternating_sum(), expected),
        claim("alternating rank sum equals the variable count",
              alternating_rank_sum(res), ctx.nvars),
    ]
    if with_oracle:
        claims.append(_oracle_claim(mod.module, mod.gens, res, d_max))
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
    from .groebner import polynomial_gcd

    g = polynomial_gcd(f1.reduced(), f2.reduced())
    if not g.is_constant():
        raise ValueError("reduced parts share a common factor")
    dm = ctx.derivation_module()
    gens = generalized_log_module(f1, ctx) + generalized_log_module(f2, ctx)
    gens = list(buchberger(dm, gens).elements)
    res = free_resolution(dm, gens)
    value = chi(hp_from_resolution(res)).value
    claims = [claim("chi of the sum module equals |v|", value, ctx.v_sum)]
    return {"chi": value, "claims": claims, "ok": report_ok(claims)}


def quotient_presentation(
    dm: FreeModule, sub_gens: list[Vector], big_gens: list[Vector]
) -> tuple[FreeModule, list[Vector]]:
    """Presentation of L/M for M ⊆ L: F_0 is free on the given generators of
    L; the relations are the syzygies of L's generators together with the
    expressions of M's generators in terms of them."""
    degrees = tuple(vector_degree(dm, g) for g in big_gens)
    f0 = FreeModule(dm.nvars, degrees, dm.order)
    _, syz = syzygies(dm, big_gens, degrees=degrees)
    relations = list(syz)
    # membership division must land on zero, so the caller passes a reduced
    # basis as the generating set of L
    for m in sub_gens:
        quotients, rem = divide(dm, m, big_gens)
        if not vec_is_zero(rem):
            raise ValueError("not a submodule: generator fails membership")
        relations.append(tuple(quotients))
    return f0, relations


def chi_additivity_check(
    sub_gens: list[Vector], big_gens: list[Vector], ctx: GradedContext
) -> dict:
    """chi(L) = chi(M) + chi(L/M) via independent resolutions of all three.

    The generators of L are replaced by the reduced basis so that membership
    division expresses M over exactly the chosen basis of F_0.
    """
    dm = ctx.derivation_module()
    big = list(buchberger(dm, big_gens).elements)
    for m in sub_gens:
        if not vec_is_zero(normal_form(dm, m, big)):
            raise ValueError("not a submodule: generator fails membership")
    chi_l = chi(hp_from_resolution(free_resolution(dm, big))).value
    sub_canonical = list(buchberger(dm, sub_gens).elements)
    chi_m = chi(hp_from_resolution(free_resolution(dm, sub_canonical))).value
    f0, relations = quotient_presentation(dm, sub_gens, big)
    res_q = presentation_resolution(f0, relations)
    chi_q = chi(hp_from_resolution(res_q)).value
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
    """Series of S/I from a presentation resolution of the cyclic module."""
    ring = ring_module(ctx.nvars, ctx.order())
    res = presentation_resolution(ring, [(g,) for g in ideal_gens])
    return hp_from_resolution(res)
