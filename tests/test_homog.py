import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from logderiv.poly import (
    FiltrationError,
    MonomialOrder,
    Polynomial,
    degree_order,
    infer_weights,
    parse_poly,
    squarefree_test,
)
from logderiv.groebner import (
    FreeModule,
    buchberger,
    dehomogenize_vector,
    homogenize_vector,
    homogenized,
    module_equal,
    normal_form,
    ring_module,
    syzygies,
    vec_is_zero,
)
from logderiv import groebner, harness, homog
from logderiv.derivmod import FactoredPolynomial, GradedContext, LogModule
from logderiv.hilbert import verify_degree_identity
from logderiv.resolution import ModuleMap, Resolution, pad_with_trivial_pair
from logderiv.homog import (
    affine_log_resolution,
    chi_homogenized,
    homogenize_factored,
    homogenize_module,
    homogenize_resolution,
    verify_lemma_intersection,
)
from test_arrangements import arrangement, general_position_draw
from test_groebner import random_poly

XY = ["x", "y"]
XYZ = ["x", "y", "z"]
XYH = ["x", "y", "h"]
XYZH = ["x", "y", "z", "h"]
R2 = ring_module(2, MonomialOrder((1, 1)))
README_SURFACES = ("x^2*z+y^3+z^4", "x^3+y^4+z^5+x*y*z")
SLOW_SUPPORT = "-2*x^2*y*z-2*x*y+3*y^2+2*x*z"


def P(text, names=XY):
    return parse_poly(text, names)


def worked_example():
    return FactoredPolynomial.single(P("x^2*z+y^3+z^4", XYZ))


# --- elements -------------------------------------------------------------------

def test_homogenize_simple_polynomial():
    p = P("x^2+y")
    h = homogenize_vector(R2, (p,), 2).vector()[0]
    assert h == parse_poly("x^2+y*h", XYH)


def test_homogenize_already_homogeneous_fixed_point():
    p = P("x^2+y^2")
    h = homogenize_vector(R2, (p,), 2).vector()[0]
    assert h == parse_poly("x^2+y^2", XYH)


def test_homogenize_vector_with_shifts():
    # mixed-degree column padded to the column degree
    col = (P("8*y-2*x*z", XYZ), P("6*z", XYZ))
    module = FreeModule(3, (0, 0), MonomialOrder((1, 1, 1)))
    he = homogenize_vector(module, col).vector()
    assert he[0] == parse_poly("8*y*h-2*x*z", XYZH)
    assert he[1] == parse_poly("6*z*h", XYZH)


def test_filtration_violation_detected():
    with pytest.raises(FiltrationError):
        homogenize_vector(R2, (P("x^2"),), degree=1)


def test_dehomogenize_inverts_homogenization():
    p = P("x^2+y")
    h = homogenize_vector(R2, (p,), 4)
    assert dehomogenize_vector(h).vector() == (p,)


def test_dehomogenize_collapses_pure_powers():
    h = parse_poly("h^3*x", XYH)
    assert dehomogenize_vector((h,)).vector() == (P("x"),)


def test_round_trip_up_to_a_power_of_h():
    # xi is h times the homogenization of its dehomogenization
    xi = (parse_poly("x^2*h+y*h^2", XYH), parse_poly("x*h^2", XYH))
    dropped = dehomogenize_vector(xi)
    again = homogenize_vector(FreeModule(2, (0, 0), MonomialOrder((1, 1))), dropped)
    h = Polynomial.variable(2, 3)
    rebuilt = tuple(c * h for c in again.vector())
    assert rebuilt == xi


# --- modules --------------------------------------------------------------------

def test_homogenize_principal_ideal():
    mod = ring_module(2, MonomialOrder((1, 1)))
    _, hgens = homogenize_module(mod, [(P("x^2+y"),)])
    assert len(hgens) == 1
    assert hgens[0].vector()[0] == parse_poly("x^2+y*h", XYH)


def test_homogenize_module_needs_groebner_basis_first():
    # <x^2+y, x^2> = <x^2, y>: homogenizing the original pair misses y,
    # homogenizing a reduced basis keeps it
    mod = ring_module(2, MonomialOrder((1, 1)))
    hmod, hgens = homogenize_module(mod, [(P("x^2+y"),), (P("x^2"),)])
    naive = [
        (parse_poly("x^2+y*h", XYH),),
        (parse_poly("x^2", XYH),),
    ]
    target = (parse_poly("y", XYH),)
    gb_good = buchberger(hmod, hgens)
    gb_naive = buchberger(hmod, naive)
    assert vec_is_zero(normal_form(hmod, target, gb_good))
    assert not vec_is_zero(normal_form(hmod, target, gb_naive))


def test_intersection_commutes_with_homogenization():
    import random

    from logderiv.groebner import intersect

    rng = random.Random(3)
    mod = ring_module(2, MonomialOrder((1, 1)))
    pool = [P("x^2+y"), P("x*y-1"), P("y^2"), P("x+y"), P("x^2-y^2+x")]
    for _ in range(4):
        a, b = rng.sample(pool, 2), rng.sample(pool, 2)
        inter = intersect(mod, [(p,) for p in a], [(p,) for p in b])
        hmod, lhs = homogenize_module(mod, inter)
        _, ha = homogenize_module(mod, [(p,) for p in a])
        _, hb = homogenize_module(mod, [(p,) for p in b])
        rhs = intersect(hmod, ha, hb)
        assert module_equal(hmod, lhs, rhs)


# --- resolutions -------------------------------------------------------------------

def test_worked_example_homogenizes_to_resolution():
    _, _, res = affine_log_resolution(worked_example())
    hom = homogenize_resolution(res)
    assert hom.is_resolution
    assert hom.resolution.is_complex()


def test_basis_change_gives_complex_only():
    _, _, res = affine_log_resolution(worked_example(), mix=(0, 1))
    hom = homogenize_resolution(res)
    assert not hom.image_ok[0]
    assert 0 in hom.witnesses
    assert not hom.is_resolution


def with_one_coefficient_changed(res, p, j):
    """res with the first term of column j of phi_p raised by 1 (by 2 when
    that would cancel it)."""
    col = list(res.chain[p].columns[j])
    i = next(i for i, q in enumerate(col) if not q.is_zero())
    exps, c = next(iter(col[i].terms.items()))
    col[i] = col[i] + Polynomial.monomial(exps, 2 if c == -1 else 1, col[i].nvars)
    m = res.chain[p]
    chain = list(res.chain)
    chain[p] = ModuleMap(m.columns[:j] + (tuple(col),) + m.columns[j + 1:], m.source_shifts)
    return Resolution(tuple(chain), res.ambient)


def test_one_changed_coefficient_breaks_the_complex():
    # mutation control for the integer composites: every column of every
    # map phi_p, p >= 1, of the homogenized chain and of the filtration
    # resolution it is homogenized from
    changed = 0
    for text in README_SURFACES:
        _, _, res = affine_log_resolution(FactoredPolynomial.single(P(text, XYZ)))
        hom = homogenize_resolution(res)
        assert hom.resolution.is_complex()
        for p in range(1, res.length + 1):
            for j in range(res.chain[p].source_rank):
                assert not with_one_coefficient_changed(hom.resolution, p, j).is_complex()
                with pytest.raises(RuntimeError, match="complex"):
                    homogenize_resolution(with_one_coefficient_changed(res, p, j))
                changed += 1
    assert changed > 10


def test_already_homogeneous_module_unchanged_shifts():
    fp = FactoredPolynomial.single(P("x^2+y^2"))
    _, _, res = affine_log_resolution(fp)
    hom = homogenize_resolution(res)
    assert hom.is_resolution
    assert hom.resolution.shifts(0) == res.shifts(0)
    for m in hom.resolution.chain[1:]:
        for col in m.columns:
            for p in col:
                assert all(e[-1] == 0 for e in p.terms)


def test_kernel_commutes_with_homogenization_on_example():
    # syzygies of the homogenized columns agree with the homogenized syzygies
    _, _, res = affine_log_resolution(worked_example())
    hom = homogenize_resolution(res)
    phi0h = hom.resolution.chain[0]
    h_f0 = FreeModule(4, hom.resolution.target_shifts(0), MonomialOrder((1, 1, 1, 1)))
    syz_mod, syz = syzygies(h_f0, list(phi0h.columns))
    expected = list(hom.resolution.chain[1].columns)
    syz_module = FreeModule(4, phi0h.source_shifts, MonomialOrder((1, 1, 1, 1)))
    assert module_equal(syz_module, syz, expected)


def membership_image_ok(res, hom):
    """The image test by membership: at each step, the homogenization of a
    degree-order reduced basis of the affine image (`homogenize_module`)
    reduced against the reduced basis of the homogenized map's image."""
    verdicts = []
    for p, (m, hm) in enumerate(zip(res.chain, hom.resolution.chain)):
        target = FreeModule(res.ambient.nvars, res.target_shifts(p), res.ambient.order)
        h_target, hom_image = homogenize_module(target, list(m.columns))
        gb = buchberger(h_target, list(hm.columns))
        verdicts.append(all(vec_is_zero(normal_form(h_target, g, gb)) for g in hom_image))
        if p in hom.witnesses:
            # the witness lies in the homogenized image, outside hm's image
            w = hom.witnesses[p]
            assert vec_is_zero(normal_form(h_target, w, buchberger(h_target, hom_image)))
            assert not vec_is_zero(normal_form(h_target, w, gb))
    return tuple(verdicts)


def seeded_surfaces(count):
    """Squarefree, not quasi-homogeneous surfaces with 3-4 terms of degree
    2-5."""
    rng = random.Random("image-test")
    out = []
    while len(out) < count:
        size = rng.randint(3, 4)
        support = set()
        while len(support) < size:
            d = rng.randint(2, 5)
            a = rng.randint(0, d)
            b = rng.randint(0, d - a)
            support.add((a, b, d - a - b))
        p = Polynomial(3, {m: Fraction(rng.choice((-2, -1, 1, 2, 3))) for m in support})
        if infer_weights(p) is None and squarefree_test(p)[0]:
            out.append(p)
    return out


def image_test_resolutions():
    """Filtration resolutions of the README surfaces, the slow support and
    seeded surfaces, plain and mixed, each listed with its copies padded by
    a trivial pair at every valid p."""
    surfaces = [P(text, XYZ) for text in README_SURFACES + (SLOW_SUPPORT,)]
    for f in surfaces + seeded_surfaces(12):
        for mix in (None, (0, 1)):
            _, _, res = affine_log_resolution(FactoredPolynomial.single(f), mix=mix)
            d = max(res.shifts(0)) + 1
            yield [res] + [pad_with_trivial_pair(res, p, d) for p in range(1, res.length + 2)]


def test_saturation_image_test_matches_membership():
    failing = [0, 0]  # failing steps at p = 0 and at p >= 1
    for resolutions in image_test_resolutions():
        for r in resolutions:
            hom = homogenize_resolution(r)
            assert hom.image_ok == membership_image_ok(r, hom)
            assert set(hom.witnesses) == {p for p, ok in enumerate(hom.image_ok) if not ok}
            for p, ok in enumerate(hom.image_ok):
                failing[p > 0] += not ok
    assert failing[0] >= 50 and failing[1] >= 15, failing


def test_each_maps_image_basis_is_buchbergers_on_its_homogenized_columns():
    # the basis `free_resolution` keeps from `syzygies`, and the one a
    # padded map (built by `pad_with_trivial_pair`) computes, order included
    carried = computed = 0
    for resolutions in image_test_resolutions():
        for r in resolutions:
            for p, m in enumerate(r.chain):
                target = FreeModule(r.ambient.nvars, r.target_shifts(p), r.ambient.order)
                columns = [homogenize_vector(target, col, d)
                           for col, d in zip(m.rows, m.source_shifts)]
                expected = buchberger(homogenized(target), columns).rows
                assert m.homogenized_image(target) == expected
                kept = m._image is not None
                carried += kept
                computed += not kept
    assert carried >= 50 and computed >= 50, (carried, computed)


def bind_everywhere(monkeypatch, original, replacement):
    """Bind replacement under every logderiv name bound to original (a name
    bound by `from ... import` is a binding of its own)."""
    for name, module in list(sys.modules.items()):
        if name == "logderiv" or name.startswith("logderiv."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def image_test_calls(monkeypatch):
    """Counts of `buchberger` calls made inside `homogenize_resolution` and
    of `homogenize_module` calls, by counting wrappers."""
    counts = {"buchberger in the image test": 0, "homogenize_module": 0}
    depth = [0]
    buchberger_, image_test, homogenize_module_ = (
        groebner.buchberger, homog.homogenize_resolution, homog.homogenize_module)

    def counted_buchberger(*args, **kwargs):
        counts["buchberger in the image test"] += depth[0] > 0
        return buchberger_(*args, **kwargs)

    def counted_image_test(*args, **kwargs):
        depth[0] += 1
        try:
            return image_test(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_homogenize_module(*args, **kwargs):
        counts["homogenize_module"] += 1
        return homogenize_module_(*args, **kwargs)

    bind_everywhere(monkeypatch, buchberger_, counted_buchberger)
    bind_everywhere(monkeypatch, image_test, counted_image_test)
    bind_everywhere(monkeypatch, homogenize_module_, counted_homogenize_module)
    return counts


@pytest.mark.parametrize("text", README_SURFACES)
def test_chi_homogenized_computes_no_basis_twice(text, image_test_calls):
    fp = FactoredPolynomial.single(P(text, XYZ))
    reports = [chi_homogenized(fp), chi_homogenized(fp, mix=(0, 1))]
    assert any(r["recomputed_from_scratch"] for r in reports)
    assert not all(all(r["image_ok"]) for r in reports)
    assert image_test_calls == {"buchberger in the image test": 0, "homogenize_module": 0}


def test_the_image_test_counter_sees_a_computed_basis(image_test_calls):
    # positive control: a padded map carries no basis, so its image test
    # runs buchberger, and homogenize_module is counted where it is called
    _, _, res = affine_log_resolution(worked_example())
    homog.homogenize_resolution(pad_with_trivial_pair(res, 1, max(res.shifts(0)) + 1))
    homog.homogenize_module(ring_module(2, MonomialOrder((1, 1))), [(P("x^2+y"),)])
    assert image_test_calls["buchberger in the image test"] > 0
    assert image_test_calls["homogenize_module"] == 1


@pytest.fixture
def gradings_computed(monkeypatch):
    """How often `vector_grading` computed each (Row, shifts, weights), by a
    wrapper that reads the Row's memo before each call.  It keeps every Row
    it saw, so that no id is reused."""
    computed: Counter = Counter()
    seen = []
    original = groebner.vector_grading

    def counted(module, elem):
        row = groebner.as_row(elem)
        key = (module.shifts, module.order.weights)
        if row.memo is None or row.memo[0] != key:
            seen.append(row)
            computed[id(row), key] += 1
        return original(module, row)

    bind_everywhere(monkeypatch, original, counted)
    return computed


@pytest.fixture
def padded_rows(monkeypatch):
    """Every Row `homogenize_vector` returns, kept so that no id is reused."""
    rows = []
    original = groebner.homogenize_vector

    def recording(*args, **kwargs):
        rows.append(original(*args, **kwargs))
        return rows[-1]

    bind_everywhere(monkeypatch, original, recording)
    return rows


def test_no_row_is_graded_twice_in_one_grading(gradings_computed, padded_rows):
    # the columns of phi_0 are graded by the first syzygies call, or by
    # minimal_generators before it on homogenize; minimize reads them back
    report = verify_degree_identity(arrangement(general_position_draw(random.Random(1))),
                                    GradedContext.standard(4))
    assert report["ok"]
    on_the_arrangement = len(gradings_computed)
    assert chi_homogenized(worked_example())["ok"]
    assert 0 < on_the_arrangement < len(gradings_computed)
    assert [n for n in gradings_computed.values() if n > 1] == []
    # a padded Row carries the grading it was padded to
    padded = {id(row) for row in padded_rows if row.terms}
    assert padded
    assert [key for key in gradings_computed if key[0] in padded] == []


def test_the_grading_counter_sees_a_row_graded_again(gradings_computed):
    # positive control: a Row keeps one grading, so grading it in another
    # module and back computes the first grading twice
    v, w = R2, FreeModule(2, (1,), MonomialOrder((1, 1)))
    row = groebner.Row.of((P("x^2+y"),))
    for module in (v, v, w, v):
        groebner.vector_grading(module, row)
    assert sorted(gradings_computed.values()) == [1, 2]


# --- chi of the homogenized module ---------------------------------------------------

def test_chi_homogenized_worked_example():
    report = chi_homogenized(worked_example())
    assert report["ok"]
    assert report["chi"] == 4
    assert sorted(report["shifts"][0]) == [1, 2, 3, 3]
    assert report["shifts"][1] == [5]
    assert report["homogenization_is_resolution"]


def test_chi_homogenized_quasi_homogeneous_input():
    report = chi_homogenized(FactoredPolynomial.single(P("x^2+y^2")))
    assert report["ok"] and report["chi"] == 2


def test_chi_homogenized_hyperplane():
    report = chi_homogenized(FactoredPolynomial.single(P("x")))
    assert report["ok"] and report["chi"] == 1


@pytest.mark.parametrize("mix", [None, (0, 1)], ids=["plain", "mix01"])
def test_chi_homogenized_on_the_slow_support(mix):
    # The support perfbench leaves out of its homogenize pool: block
    # elimination of its inhomogeneous columns took minutes per call.
    fp = FactoredPolynomial.single(P(SLOW_SUPPORT, XYZ))
    report = chi_homogenized(fp, mix=mix)
    assert report["ok"] and report["chi"] == report["degree"] == 4
    assert report["shifts"] == [[2, 2, 3, 3, 3, 3], [4, 4, 4]]
    assert report["image_ok"] == [True, True]
    assert not report["recomputed_from_scratch"]


def test_chi_homogenized_after_basis_change_recomputes():
    report = chi_homogenized(worked_example(), mix=(0, 1))
    assert not report["homogenization_is_resolution"]
    assert report["recomputed_from_scratch"]
    assert report["ok"] and report["chi"] == 4
    assert sorted(report["shifts"][0]) == [1, 2, 3, 3]


# --- the intersection identity --------------------------------------------------------

def test_lemma_intersection_already_homogeneous():
    assert verify_lemma_intersection(FactoredPolynomial.single(P("x^2+y^2")))["ok"]


def test_lemma_intersection_worked_example():
    assert verify_lemma_intersection(worked_example())["ok"]


def test_lemma_intersection_inhomogeneous_plane_curve():
    f = P("x+x^2")
    assert verify_lemma_intersection(FactoredPolynomial.single(f))["ok"]


def lemma_corpus():
    """The README surfaces, the benchmark's homogenize draws at seeds 0
    and 1, and multi-factor inputs with multiplicities, none of them
    homogeneous but the first surface."""
    from test_derivmod import homogenize_draws

    fps = [FactoredPolynomial.single(P(text, XYZ)) for text in README_SURFACES]
    fps += [FactoredPolynomial.single(p) for seed in (0, 1) for p in homogenize_draws(seed, 24)]
    fps += [FactoredPolynomial(tuple((P(f, XYZ), e) for f, e in factors)) for factors in (
        [("x+y^2", 2), ("x*z+1", 1)],
        [("x", 3), ("y+z^2", 2), ("x+y+1", 1)],
        [("x^2+y^2-1", 2), ("z", 1)],
    )]
    return [LogModule.of(fp, GradedContext.standard(3)) for fp in fps]


def intersection_route(mod):
    """The reference: D(f^h)'s reduced basis, intersected with the span of
    the x-slots, read in the rank-n module."""
    from logderiv.derivmod import generalized_log_module
    from logderiv.groebner import Row, intersect

    n = mod.ctx.nvars
    ctx_h = GradedContext.standard(n + 1)
    d_fh = generalized_log_module(homogenize_factored(mod.factored), ctx_h)
    x_span = [Row.unit(i, n + 1, n + 1) for i in range(n)]
    inter = intersect(ctx_h.derivation_module(), d_fh, x_span)
    assert all(slot < n for g in inter for slot, _ in g.terms)
    return [Row(g.terms, g.den, n, g.nvars) for g in inter]


def test_lemma_left_side_equals_the_intersection_route(monkeypatch):
    compared = []
    inner = homog.module_equal

    def recording(module, lhs, rhs):
        compared.append((module, lhs, rhs))
        return inner(module, lhs, rhs)

    monkeypatch.setattr(homog, "module_equal", recording)
    mods = lemma_corpus()
    assert len(mods) == 53
    for mod in mods:
        report = verify_lemma_intersection(mod)
        hmod, lhs, rhs = compared.pop()
        reference = intersection_route(mod)
        assert module_equal(hmod, lhs, reference)
        assert report["ok"] == module_equal(hmod, reference, rhs)
        assert report["ok"]


def test_lemma_left_side_is_one_kernel_on_the_x_columns(monkeypatch):
    # f^h's three x-columns modulo its one relation; no basis of D(f^h)
    from logderiv import derivmod

    mod = LogModule.of(worked_example(), GradedContext.standard(3))
    kernels = []
    syzygies_ = groebner.syzygies

    def recording(module, gens, relations=(), **kwargs):
        kernels.append((module.nvars, len(gens), len(relations)))
        return syzygies_(module, gens, relations, **kwargs)

    def forbidden(*args):
        raise AssertionError("the lemma computed a module it needs no basis of")

    bind_everywhere(monkeypatch, syzygies_, recording)
    for original in (derivmod.log_derivations, derivmod.generalized_log_module,
                     groebner.intersect):
        bind_everywhere(monkeypatch, original, forbidden)
    assert verify_lemma_intersection(mod)["ok"]
    assert kernels == [(4, 3, 1)]


def test_lemma_fails_on_a_log_module_missing_a_generator():
    # the negative control: D(f)'s reduced basis less its last element pads
    # to a smaller module than the derivations of f^h with no d_h part
    from test_derivmod import homogenize_draws

    for p in homogenize_draws(0, 24):
        mod = LogModule.of(FactoredPolynomial.single(p), GradedContext.standard(3))
        short = LogModule(mod.factored, mod.ctx, mod.gens[:-1])
        report = verify_lemma_intersection(short)
        assert not report["ok"]
        assert report["claims"][0]["verdict"] == "fail"


def homogenize_factored_by_rows(factored):
    """The Row route `homogenize_factored` once took: each factor as a
    rank-1 element of the degree-order ring, padded by `homogenize_vector`
    and read back as a Polynomial."""
    ring = ring_module(factored.nvars, degree_order(factored.nvars))
    return FactoredPolynomial(
        tuple((homogenize_vector(ring, (f,)).vector()[0], e) for f, e in factored.factors)
    )


def test_homogenize_factored_pads_as_the_row_route():
    # seeded harness draws (quasi-homogeneous, mostly not homogeneous) and
    # seeded inhomogeneous factors with rational coefficients, in 2 and 3
    # variables: the same factors, terms in the same order
    rng = random.Random(0)
    cases = [harness.random_instance(rng)[0] for _ in range(30)]
    rng = random.Random("homogenize factors")
    for nvars in (2, 3):
        for _ in range(10):
            factors = [(random_poly(rng, nvars, rng.randint(1, 4), 3), rng.randint(1, 3))
                       for _ in range(rng.randint(1, 3))]
            cases.append(FactoredPolynomial(tuple((f, e) for f, e in factors if not f.is_zero())))
    cases.append(worked_example())
    for fp in cases:
        ours, theirs = homogenize_factored(fp), homogenize_factored_by_rows(fp)
        assert ours == theirs
        assert [list(f.terms.items()) for f, _ in ours.factors] == \
            [list(f.terms.items()) for f, _ in theirs.factors]
    assert any(infer_weights(f) is None for fp in cases for f, _ in fp.factors)


def assert_reduced(mod):
    assert mod.gens == list(buchberger(mod.module, mod.gens).rows)


@pytest.mark.parametrize("text", README_SURFACES)
def test_log_module_gens_are_the_reduced_basis_on_the_readme_surfaces(text):
    fp = FactoredPolynomial.single(P(text, XYZ))
    assert_reduced(LogModule.of(fp, GradedContext.standard(3)))


def test_log_module_gens_are_the_reduced_basis_on_the_free_corpus():
    from test_arrangements import FREE, arrangement

    for normals, mults, _ in FREE.values():
        ctx = GradedContext.standard(len(normals[0]))
        assert_reduced(LogModule.of(arrangement(normals, mults), ctx))


def test_harness_built_log_modules_hold_reduced_bases(monkeypatch):
    # every LogModule run_harness builds on the first 20 seed-0 draws: one
    # per draw, since the v + 1 claim builds none
    built = []

    def recording(*args):
        built.append(LogModule(*args))
        return built[-1]

    monkeypatch.setattr(harness, "LogModule", recording)
    harness.run_harness(20, seed=0)
    assert len(built) == 20
    for mod in built:
        assert_reduced(mod)


def test_homogenization_pipeline_takes_the_log_module():
    fp = worked_example()
    mod = LogModule.of(fp, GradedContext.standard(3))
    assert affine_log_resolution(mod) == affine_log_resolution(fp)
    assert chi_homogenized(mod, mix=(0, 1)) == chi_homogenized(fp, mix=(0, 1))
    assert verify_lemma_intersection(mod) == verify_lemma_intersection(fp)


@pytest.mark.parametrize(
    "call", [affine_log_resolution, chi_homogenized, verify_lemma_intersection]
)
def test_homogenization_pipeline_refuses_another_grading(call):
    graded = LogModule.of(FactoredPolynomial.single(P("x^2+y^3")), GradedContext((3, 2), (0, 0)))
    with pytest.raises(ValueError, match="standard grading"):
        call(graded)
