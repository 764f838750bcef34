"""Homogenization of modules and resolutions, and the degree identity for
arbitrary (not necessarily quasi-homogeneous) inputs.

Elements are padded by `groebner.homogenize_vector` in the grading of
their module: the new variable h is appended last with weight 1, and an
element of a shifted free module is padded up to its degree bound (its
largest shifted weighted degree), so that setting h to 1 recovers it.  The
pipeline here runs on the derivation module of the standard grading (unit
weights), where that bound is the total degree plus the shift.

A filtration resolution of a module can be homogenized columnwise; the
result is always a complex, and a homogeneous free resolution of the
homogenized module exactly when h saturates the image of every homogenized
map.  The degree bound of a column is the shift of its source slot.  Module
elements are Rows (`groebner.Row`) from D(f) to the witnesses: homogenizing
a Row pads the h exponent of each term, dehomogenizing drops it, and the
complex check and the image test read integer terms.

Each reduced basis of the pipeline is computed once.  The image test reads
the basis of each homogenized image off its map
(`ModuleMap.homogenized_image`): `syzygies` computed it while building the
resolution, and a map whose columns contain no h after homogenizing passes
with no basis at all.  The homogenized module is padded from D(f)'s reduced
basis under the degree order, which `LogModule.gens` already is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import (
    FreeModule,
    Row,
    buchberger,
    combination,
    dehomogenize_vector,
    homogenize_vector,
    homogenized,
    intersect,
    module_equal,
)
from .poly import Polynomial
from .derivmod import FactoredPolynomial, GradedContext, LogModule, generalized_log_module
from .resolution import (
    Resolution,
    alternating_degree_sum,
    free_resolution,
    minimal_generators,
    minimize,
)
from .hilbert import chi, claim, hp_from_resolution, report_ok


def homogenize_module(module: FreeModule, gens) -> tuple[FreeModule, list[Row]]:
    """Generators of the homogenized module: homogenize the elements of a
    reduced basis under a degree order.  Homogenizing an arbitrary
    generating set would in general give a strictly smaller module."""
    return _homogenize_basis(module, buchberger(module, gens).rows)


def _homogenize_basis(module: FreeModule, basis) -> tuple[FreeModule, list[Row]]:
    """`homogenize_module` of a module whose reduced basis under its degree
    order is already at hand."""
    return homogenized(module), [homogenize_vector(module, g) for g in basis]


@dataclass
class HomogenizedComplex:
    """Columnwise homogenization of a filtration resolution, with the image
    test's per-step verdicts and a witness g / h^a where a step fails."""

    resolution: Resolution
    image_ok: tuple[bool, ...]
    witnesses: dict[int, Row]

    @property
    def is_resolution(self) -> bool:
        return all(self.image_ok)


def homogenize_resolution(res: Resolution) -> HomogenizedComplex:
    """Homogenize each map columnwise to its recorded shift bounds.

    The output chain is verified to be a complex (this always holds when the
    shifts respect the degree filtration).  Step p passes when h divides no
    element of the reduced basis of the homogenized map's image; when every
    step passes the complex is a free resolution of the homogenized module.
    Each map hands over that basis (`ModuleMap.homogenized_image`): the one
    `free_resolution` kept from `syzygies`, or else `buchberger`'s.  A step
    whose homogenized columns contain no h passes at once, as its reduced
    basis contains no h either.
    """
    ambient = res.ambient
    targets = [
        FreeModule(ambient.nvars, res.target_shifts(p), ambient.order)
        for p in range(res.length + 1)
    ]
    hchain = [m.homogenized(t) for m, t in zip(res.chain, targets)]
    h_res = Resolution(tuple(hchain), homogenized(ambient))
    if not h_res.is_complex():
        raise RuntimeError("homogenized chain failed to be a complex")
    witnesses: dict[int, Row] = {}
    for p, (m, hm, target) in enumerate(zip(res.chain, hchain, targets)):
        if not any(exps[-1] for col in hm.rows for _, exps in col.terms):
            continue
        # The homogenized affine image is N : h^inf, N the image of hm.  h is
        # the last variable, so revlex ranks its lowest power first, before
        # slots: h divides a homogeneous element when it divides its lead, and
        # h divided out of N's reduced basis leaves a basis of N : h^inf.  If
        # h^a divides g, a > 0, g / h^a is outside N: no lead divides another.
        basis = m.homogenized_image(target)
        divisible = [g for g in basis if all(exps[-1] for _, exps in g.terms)]
        if divisible:
            witnesses[p] = homogenize_vector(target, dehomogenize_vector(divisible[0]))
    image_ok = tuple(p not in witnesses for p in range(len(hchain)))
    return HomogenizedComplex(h_res, image_ok, witnesses)


def _standard_log_module(factored: FactoredPolynomial | LogModule) -> LogModule:
    """D(f) under the standard grading, the grading of this pipeline: built
    from a factorization, or a given LogModule, which must be under it."""
    if not isinstance(factored, LogModule):
        return LogModule.of(factored, GradedContext.standard(factored.nvars))
    if factored.ctx != GradedContext.standard(factored.ctx.nvars):
        raise ValueError("the LogModule was not built under the standard grading")
    return factored


def affine_log_resolution(
    factored: FactoredPolynomial | LogModule, mix: tuple[int, int] | None = None
) -> tuple[GradedContext, list[Row], Resolution]:
    """Irredundant generators of the derivation module under the degree
    order (sorted by ascending degree bound) and a filtration resolution of
    them.  `mix` = (i, j) replaces generator i by generator i + generator j
    first, which is how the basis-change counterexample is reproduced.
    `factored` may be the LogModule of f under the standard grading."""
    mod = _standard_log_module(factored)
    dm = mod.module
    gens, _ = minimal_generators(dm, mod.gens)
    if mix is not None:
        i, j = mix
        if not (0 <= i < len(gens) and 0 <= j < len(gens)):
            raise ValueError(
                f"mix indices {i},{j} out of range: generators are 0..{len(gens) - 1}"
            )
        ones = Row({(0, (0,) * dm.nvars): 1, (1, (0,) * dm.nvars): 1}, 1, 2, dm.nvars)
        gens[i] = combination(ones, (gens[i], gens[j]))
    res = free_resolution(dm, gens)
    return mod.ctx, gens, res


def chi_homogenized(
    factored: FactoredPolynomial | LogModule, mix: tuple[int, int] | None = None
) -> dict:
    """Degree identity for arbitrary f: homogenize a filtration resolution
    of the derivation module (or, when the image test fails, resolve the
    homogenized module from scratch, padded from `LogModule.gens`, D(f)'s
    reduced basis) and compare chi with deg f.  `factored` may be the
    LogModule of f under the standard grading."""
    mod = _standard_log_module(factored)
    _, _, res = affine_log_resolution(mod, mix=mix)
    # the degree of a product, without expanding it
    degree = sum(e * f.total_degree() for f, e in mod.factored.factors)
    hom = homogenize_resolution(res)
    recomputed = False
    if hom.is_resolution:
        h_res = hom.resolution
    else:
        recomputed = True
        h_res = free_resolution(*_homogenize_basis(mod.module, mod.gens))
    minimal = minimize(h_res)
    value = chi(hp_from_resolution(minimal))
    claims = [
        claim("chi of the homogenized module equals deg(f)", value, degree),
        claim(
            "alternating degree sum of the minimal resolution equals deg(f)",
            alternating_degree_sum(minimal),
            degree,
        ),
    ]
    return {
        "degree": degree,
        "chi": value,
        "shifts": [list(minimal.shifts(p)) for p in range(minimal.length + 1)],
        "homogenization_is_resolution": hom.is_resolution,
        "image_ok": list(hom.image_ok),
        "recomputed_from_scratch": recomputed,
        "claims": claims,
        "ok": report_ok(claims),
    }


def homogenize_factored(factored: FactoredPolynomial) -> FactoredPolynomial:
    """Factorwise homogenization, preserving the multiplicity structure: a
    term x^e of a factor f becomes x^e * h^(deg f - |e|), h a new variable."""
    def padded(f: Polynomial) -> Polynomial:
        d = f.total_degree()
        return Polynomial(f.nvars + 1, {e + (d - sum(e),): c for e, c in f.terms.items()})

    return FactoredPolynomial(tuple((padded(f), e) for f, e in factored.factors))


def verify_lemma_intersection(factored: FactoredPolynomial | LogModule) -> dict:
    """Both sides of the identity: derivations of the homogenized polynomial
    that do not involve the new direction, against the homogenized module of
    derivations of the original, compared by reduced-basis equality.
    `factored` may be the LogModule of f under the standard grading."""
    mod = _standard_log_module(factored)
    n = mod.ctx.nvars
    hmod, rhs = _homogenize_basis(mod.module, mod.gens)

    hfact = homogenize_factored(mod.factored)
    ctx_h = GradedContext.standard(n + 1)
    d_fh = generalized_log_module(hfact, ctx_h)
    dm_h = ctx_h.derivation_module()
    x_span = [Row.unit(i, n + 1, n + 1) for i in range(n)]
    inter = intersect(dm_h, d_fh, x_span)
    lhs = []
    for g in inter:
        if any(slot == n for slot, _ in g.terms):
            raise RuntimeError("intersection element leaves the coordinate span")
        lhs.append(Row(g.terms, g.den, n, g.nvars))

    equal = module_equal(hmod, lhs, rhs)
    claims = [
        claim(
            "derivations of f^h within the coordinate span equal the homogenized module",
            equal,
            True,
        )
    ]
    return {"claims": claims, "ok": report_ok(claims)}
