import random
from collections import Counter
from fractions import Fraction

import pytest

from logderiv.poly import MonomialOrder, Polynomial, degree_order, parse_poly
from logderiv.groebner import (
    FreeModule,
    buchberger,
    module_equal,
    normal_form,
    ring_module,
    syzygies,
    vec_is_zero,
    vector_degree,
    vector_grading,
)
from logderiv.derivmod import FactoredPolynomial, GradedContext, generalized_log_module
from logderiv.harness import random_instance
from logderiv.resolution import (
    BettiTable,
    ModuleMap,
    Resolution,
    alternating_degree_sum,
    alternating_rank_sum,
    betti_numbers,
    certify_exact,
    free_resolution,
    minimal_generators,
    minimize,
    pad_with_trivial_pair,
)

from test_groebner import seeded_log_modules

XY = ["x", "y"]


def P(text, names=XY):
    return parse_poly(text, names)


def V(*texts, names=XY):
    return tuple(P(t, names) for t in texts)


CTX2 = GradedContext((1, 1), (0, 0))


def conic_resolution():
    gens = generalized_log_module(FactoredPolynomial.single(P("x^2+y^2")), CTX2)
    return free_resolution(CTX2.derivation_module(), gens)


# --- construction ------------------------------------------------------------

def test_free_module_case_has_length_zero():
    fp = FactoredPolynomial(((P("x"), 2), (P("y"), 3)))
    ctx = GradedContext((1, 1), (0, 1))
    gens = generalized_log_module(fp, ctx)
    res = free_resolution(ctx.derivation_module(), gens)
    assert res.length == 0
    assert Counter(res.shifts(0)) == Counter({2 * 1 + 0: 1, 3 * 1 + 1: 1})


def test_koszul_resolution_of_two_variables():
    mod = ring_module(2, MonomialOrder((1, 1)))
    res = free_resolution(mod, [(P("x"),), (P("y"),)])
    assert res.length == 1
    assert sorted(res.shifts(0)) == [1, 1]
    assert res.shifts(1) == (2,)
    assert certify_exact(res)


def test_zero_module_resolution():
    mod = ring_module(2, MonomialOrder((1, 1)))
    res = free_resolution(mod, [])
    assert res.length == 0 and res.shifts(0) == ()
    assert alternating_degree_sum(res) == 0
    assert alternating_rank_sum(res) == 0


def test_nonhomogeneous_input_gives_an_ungraded_resolution():
    mod = ring_module(2, MonomialOrder((1, 1)))
    res = free_resolution(mod, [(P("x+x^2"),)])
    assert not res.graded
    assert res.shifts(0) == (2,)
    with pytest.raises(ValueError, match="homogeneous"):
        minimize(res)
    assert free_resolution(mod, [(P("x^2"),), (P("x*y"),)]).graded


def test_resolution_is_exact_for_conic():
    res = conic_resolution()
    assert certify_exact(res)
    assert res.length == 0
    assert sorted(res.shifts(0)) == [1, 1]


# --- minimize -----------------------------------------------------------------

def test_minimize_fixed_point():
    mod = ring_module(2, MonomialOrder((1, 1)))
    res = free_resolution(mod, [(P("x"),), (P("y"),)])
    assert res.is_minimal()
    out = minimize(res)
    assert out.all_shifts() == res.all_shifts()
    assert [m.columns for m in out.chain[1:]] == [m.columns for m in res.chain[1:]]


def test_minimize_cancels_padding():
    mod = ring_module(2, MonomialOrder((1, 1)))
    res = free_resolution(mod, [(P("x"),), (P("y"),)])
    for p in (1, 2):
        padded = pad_with_trivial_pair(res, p, 4)
        assert not padded.is_minimal()
        assert alternating_degree_sum(padded) == alternating_degree_sum(res)
        assert alternating_rank_sum(padded) == alternating_rank_sum(res)
        assert certify_exact(padded)
        out = minimize(padded)
        assert out.all_shifts() == res.all_shifts()
        assert certify_exact(out)


def test_minimize_redundant_generating_set():
    # x, y and x + y generate <x, y>; the trivial relation must cancel
    mod = ring_module(2, MonomialOrder((1, 1)))
    res = free_resolution(mod, [(P("x"),), (P("y"),), (P("x+y"),)])
    assert not res.is_minimal()
    assert certify_exact(res)
    out = minimize(res)
    assert sorted(out.shifts(0)) == [1, 1]
    assert out.length == 1 and out.shifts(1) == (2,)
    assert certify_exact(out)
    assert module_equal(mod, list(out.chain[0].columns), [(P("x"),), (P("y"),)])


def test_betti_invariance_across_generating_sets():
    fp = FactoredPolynomial.single(P("x^2+y^2"))
    gens = generalized_log_module(fp, CTX2)
    dm = CTX2.derivation_module()
    f = P("x^2+y^2")
    zero = Polynomial.zero(2)
    variants = [
        gens,
        gens + [(f, zero)],
        gens + [(zero, f), (f, zero)],
    ]
    tables = []
    for gen_set in variants:
        res = minimize(free_resolution(dm, gen_set))
        tables.append(betti_numbers(res).entries)
    assert tables[0] == tables[1] == tables[2]


# --- betti numbers ----------------------------------------------------------------

def test_betti_read_off_free_module():
    fp = FactoredPolynomial(((P("x"), 2), (P("y"), 3)))
    res = free_resolution(CTX2.derivation_module(), generalized_log_module(fp, CTX2))
    table = betti_numbers(res)
    assert table.entries == {(2, 0): 1, (3, 0): 1}


def test_betti_koszul():
    mod = ring_module(2, MonomialOrder((1, 1)))
    res = free_resolution(mod, [(P("x"),), (P("y"),)])
    table = betti_numbers(res)
    assert table.entries == {(1, 0): 2, (1, 1): 1}


def test_betti_requires_minimal():
    mod = ring_module(2, MonomialOrder((1, 1)))
    res = free_resolution(mod, [(P("x"),), (P("y"),), (P("x+y"),)])
    with pytest.raises(ValueError):
        betti_numbers(res)


def test_betti_table_render_and_triples():
    table = BettiTable({(1, 0): 2, (1, 1): 1})
    assert table.to_triples() == [
        {"p": 0, "j": 1, "b": 2},
        {"p": 1, "j": 1, "b": 1},
    ]
    assert "j\\p" in table.render()


# --- alternating sums ----------------------------------------------------------------

def test_alternating_sums_koszul():
    mod = ring_module(2, MonomialOrder((1, 1)))
    res = free_resolution(mod, [(P("x"),), (P("y"),)])
    assert alternating_degree_sum(res) == 1 + 1 - 2
    assert alternating_rank_sum(res) == 2 - 1


def test_identity_on_conic_module():
    res = conic_resolution()
    assert alternating_degree_sum(res) == 2  # deg f + |v|
    assert alternating_rank_sum(res) == 2


def test_corollary_betti_form_matches_degree_sum():
    res = minimize(conic_resolution())
    assert betti_numbers(res).weighted_alternating_sum() == alternating_degree_sum(res)


def test_entry_degrees_equal_shift_differences():
    # graded maps: entry (i, j) is zero or homogeneous of degree
    # source_shift[j] - target_shift[i]
    from logderiv.homog import affine_log_resolution, homogenize_resolution
    from logderiv.poly import u_degree

    dm = CTX2.derivation_module()
    gens = generalized_log_module(FactoredPolynomial.single(P("x^3+x*y^2")), CTX2)
    redundant = free_resolution(dm, list(gens) + [tuple(p * P("x") for p in gens[0].vector())])
    longer = pad_with_trivial_pair(redundant, redundant.length + 1, 6)
    _, _, affine = affine_log_resolution(FactoredPolynomial.single(P("x^2+y^3+x*y")))
    instances = [
        conic_resolution(),
        free_resolution(dm, gens),
        redundant,
        minimize(redundant),
        homogenize_resolution(affine).resolution,
    ] + [
        pad_with_trivial_pair(res, p, 4)
        for res in (redundant, longer)
        for p in range(1, res.length + 2)
    ]
    for res in instances:
        for p, m in enumerate(res.chain):
            for j, col in enumerate(m.columns):
                for i, entry in enumerate(col):
                    if entry.is_zero():
                        continue
                    expected = m.source_shifts[j] - res.target_shifts(p)[i]
                    assert u_degree(entry, res.weights) == expected
    # F_p's shifts are stored once: phi_p maps into F_{p-1}, and every
    # column has one entry per basis element of that target
    for res in instances:
        assert res.target_shifts(0) == res.ambient.shifts
        for p, m in enumerate(res.chain):
            if p >= 1:
                assert res.target_shifts(p) == res.shifts(p - 1)
            assert all(len(col) == len(res.target_shifts(p)) for col in m.columns)


def test_length_bound_stays_within_variable_count():
    import random

    from logderiv.harness import random_instance

    rng = random.Random(13)
    for _ in range(8):
        fp, ctx = random_instance(rng)
        gens = generalized_log_module(fp, ctx)
        res = free_resolution(ctx.derivation_module(), gens)
        assert res.length <= ctx.nvars
        assert certify_exact(res)


def test_minimize_duplicated_generator():
    # F_0 = S(-1)^2 -> <x> with the unit syzygy (1, -1); one copy cancels
    mod = ring_module(2, MonomialOrder((1, 1)))
    res = free_resolution(mod, [(P("x"),), (P("x"),)])
    assert not res.is_minimal()
    out = minimize(res)
    assert out.is_minimal()
    assert out.shifts(0) == (1,)
    assert out.length == 0
    assert certify_exact(out)
    assert module_equal(mod, list(out.chain[0].columns), [(P("x"),)])


# --- minimal generators against the restart loop -------------------------------------


def vec_sort_key(vec):
    return tuple(tuple(sorted(p.terms.items())) for p in vec)


def restart_minimal_generators(module, gens, graded):
    """Reference: the same greedy scan, with Buchberger rerun from scratch
    on the kept generators after each one it keeps."""
    gens = [g for g in gens if not vec_is_zero(g)]
    if graded:
        degree_of = {id(g): vector_degree(module, g) for g in gens}
    else:
        degree_of = {id(g): vector_grading(module, g)[0] for g in gens}
    gens.sort(key=lambda g: (degree_of[id(g)], vec_sort_key(g)))
    kept = []
    gb = None
    for g in gens:
        if gb is not None and vec_is_zero(normal_form(module, g, gb)):
            continue
        kept.append(g)
        gb = buchberger(module, kept)
    return kept, [degree_of[id(g)] for g in kept]


def test_minimal_generators_match_the_restart_loop_graded():
    # D(f) generators of seeded harness instances, with a multiple of one
    # of them mixed in, and the first syzygies of the generators
    rng = random.Random("minimal-graded")
    dropped = 0
    for _ in range(20):
        fp, ctx = random_instance(rng)
        dm = ctx.derivation_module()
        gens = [g.vector() for g in generalized_log_module(fp, ctx, validate=False)]
        syz_module, syz = syzygies(dm, gens)
        syz = [s.vector() for s in syz]
        variable = Polynomial.variable(rng.randrange(ctx.nvars), ctx.nvars)
        multiple = tuple(p * variable for p in rng.choice(gens))
        for module, candidates in ((dm, gens + [multiple]), (syz_module, syz)):
            expected = restart_minimal_generators(module, candidates, True)
            assert minimal_generators(module, candidates, True) == expected
            dropped += len(candidates) - len(expected[0])
    assert dropped > 20


def random_poly(rng, nvars, nterms):
    return Polynomial(nvars, {
        tuple(rng.randint(0, 2) for _ in range(nvars)): Fraction(rng.choice([-2, -1, 1, 3]))
        for _ in range(nterms)
    })


def test_minimal_generators_match_the_restart_loop_ungraded():
    # non-homogeneous draws under the degree order, with redundant
    # combinations of earlier candidates mixed in
    rng = random.Random("minimal-ungraded")
    dropped = 0
    for _ in range(20):
        nvars = rng.randint(2, 3)
        shifts = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        module = FreeModule(nvars, shifts, degree_order(nvars))
        gens = [tuple(random_poly(rng, nvars, rng.randint(0, 2)) for _ in shifts)
                for _ in range(rng.randint(2, 4))]
        for _ in range(2):
            a, b = rng.sample(gens, 2)
            factor = random_poly(rng, nvars, 2)
            gens.append(tuple(p * factor + q for p, q in zip(a, b)))
        expected = restart_minimal_generators(module, gens, False)
        assert minimal_generators(module, gens, False) == expected
        dropped += len(gens) - len(expected[0])
    assert dropped > 20


def test_minimal_generators_see_an_s_vector_that_drops_in_degree():
    # y*(x^2 + y) - x*(x*y + 1) = y^2 - x: a pair of lcm degree 3 gives the
    # third generator, of degree 2, so a basis closed only up to degree 2
    # would keep it
    module = ring_module(2, degree_order(2))
    gens = [(P("x^2+y"),), (P("x*y+1"),), (P("y^2-x"),)]
    kept, shifts = minimal_generators(module, gens)
    assert (kept, shifts) == restart_minimal_generators(module, gens, False)
    assert len(kept) == 2


def random_form(rng, degree):
    """A random homogeneous polynomial in x and y of the degree, of at most
    two terms; zero below degree 0."""
    terms = {
        (i, degree - i): Fraction(rng.choice([-2, -1, 1, 3]))
        for i in rng.sample(range(degree + 1), min(2, degree + 1))
    } if degree >= 0 else {}
    return Polynomial(2, terms)


def random_homogeneous(rng, module, degree):
    """A nonzero homogeneous element of the degree, each slot zero at
    random."""
    while True:
        vec = tuple(
            random_form(rng, degree - s if rng.random() < 0.6 else -1)
            for s in module.shifts
        )
        if not vec_is_zero(vec):
            return vec


def test_minimal_generators_truncate_the_basis_under_a_block_split(monkeypatch):
    # a block split takes its pairs by degree too, so homogeneous
    # candidates there are tested against the basis closed up to their
    # degree; leads fall in both blocks, and multiples and combinations of
    # earlier candidates are mixed in
    import logderiv.resolution as resolution

    degrees = []

    class Recording(resolution.GroebnerBasis):
        def grow(self, g, degree=None):
            degrees.append(degree)
            return super().grow(g, degree)

    monkeypatch.setattr(resolution, "GroebnerBasis", Recording)
    module = FreeModule(2, (0, 0, 1), degree_order(2), block_split=2)
    rng = random.Random("minimal-block-split")
    dropped = 0
    for _ in range(20):
        gens = [random_homogeneous(rng, module, rng.randint(1, 3)) for _ in range(rng.randint(3, 5))]
        for _ in range(2):
            a, b = sorted(rng.sample(gens, 2), key=lambda g: vector_degree(module, g))
            factor = random_form(rng, vector_degree(module, b) - vector_degree(module, a))
            gens.append(tuple(p * factor + q for p, q in zip(a, b)))
        expected = restart_minimal_generators(module, gens, True)
        assert minimal_generators(module, gens, True) == expected
        dropped += len(gens) - len(expected[0])
    assert dropped >= 20 and degrees and None not in degrees
    # y * (x^2, y^2, 0) - x * (x*y, 0, 0) = (0, y^3, 0): the pair of lcm
    # degree 3 in the upper block must be reduced before the candidate of
    # degree 3 is tested, though the lower block's pair of degree 4 ranks
    # below it in the term order
    split = FreeModule(2, (0, 0, 0), degree_order(2), block_split=1)
    zero = Polynomial.zero(2)
    gens = [(P("x^2"), P("y^2"), zero), (P("x*y"), zero, zero), (zero, zero, P("x^2")),
            (zero, zero, P("y^2")), (zero, P("y^3"), zero)]
    kept, shifts = minimal_generators(split, gens, True)
    assert (kept, shifts) == restart_minimal_generators(split, gens, True)
    assert len(kept) == 4 and gens[4] not in kept


@pytest.fixture
def bases_built(monkeypatch):
    """The module of each `GroebnerBasis` that `minimal_generators` builds."""
    import logderiv.resolution as resolution

    built = []

    class Counting(resolution.GroebnerBasis):
        def __init__(self, module, *args):
            built.append(module)
            super().__init__(module, *args)

    monkeypatch.setattr(resolution, "GroebnerBasis", Counting)
    return built


def test_one_degree_candidates_with_distinct_leads_are_kept_without_a_basis(monkeypatch):
    import logderiv.resolution as resolution

    def no_basis(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(resolution, "GroebnerBasis", no_basis)
    # leads x^2, x*y and y^2 in the ring; x^2 e_0, x e_1 and y e_1 in
    # S ⊕ S(-1)
    ring = ring_module(2, degree_order(2))
    shifted = FreeModule(2, (0, 1), degree_order(2))
    for module, gens in ((ring, [V("y^2"), V("x^2 + y^2"), V("x*y - y^2")]),
                         (shifted, [V("x^2", "y"), V("0", "x"), V("x*y", "y")])):
        kept, shifts = minimal_generators(module, gens, graded=True)
        assert (kept, shifts) == restart_minimal_generators(module, gens, True)
        assert len(kept) == 3 and shifts == [2, 2, 2]


def test_one_degree_candidates_with_a_dependent_one_still_drop_it(bases_built):
    # x^2 + x*y is the sum of the other two, and shares the lead x^2
    module = ring_module(2, degree_order(2))
    gens = [V("x^2"), V("x*y"), V("x^2 + x*y")]
    kept, shifts = minimal_generators(module, gens, graded=True)
    assert (kept, shifts) == restart_minimal_generators(module, gens, True)
    assert len(kept) == 2 and bases_built == [module]


def test_one_degree_shortcut_agrees_with_the_basis_path_on_seeded_lifts(
        monkeypatch, bases_built):
    # the syzygies of each D(f) of the lift corpus, and of their minimal
    # generators; with every lead the same, only the basis path is left
    import logderiv.resolution as resolution

    shortcut = 0
    for name, mod in seeded_log_modules():
        module, columns = mod.module, mod.gens
        while columns:
            syz_module, syz = syzygies(module, columns)
            built = len(bases_built)
            kept, shifts = minimal_generators(syz_module, syz, graded=True)
            shortcut += len(syz) > 1 and len(bases_built) == built
            with monkeypatch.context() as patch:
                patch.setattr(resolution, "_lead", lambda module, row: None)
                assert minimal_generators(syz_module, syz, graded=True) == (kept, shifts), name
            module, columns = syz_module, kept
    assert shortcut == 48


# --- minimize against the row/column reference ------------------------------------


def row_column_minimize(res):
    """Reference: at each unit pivot, column operations clear its row and
    row operations its column, mirrored on the rows of the next map and the
    columns of the previous one, and then the split pair is dropped."""
    cols = [[list(col) for col in m.columns] for m in res.chain]
    src_shifts = [list(m.source_shifts) for m in res.chain]

    def find_unit():
        for p in range(1, len(cols)):
            for j, col in enumerate(cols[p]):
                for i, entry in enumerate(col):
                    if entry.constant_coefficient() != 0:
                        return p, i, j, entry
        return None

    while (found := find_unit()) is not None:
        p, i0, j0, entry = found
        a = entry.constant_coefficient()
        block = cols[p]
        coeffs = {}
        for j, col in enumerate(block):
            if j != j0 and not col[i0].is_zero():
                coeffs[j] = col[i0] * (1 / a)
        for j, c in coeffs.items():
            pivot_col = block[j0]
            block[j] = [x - c * y for x, y in zip(block[j], pivot_col)]
        if p + 1 < len(cols):
            for col in cols[p + 1]:
                bump = None
                for j, c in coeffs.items():
                    part = c * col[j]
                    bump = part if bump is None else bump + part
                if bump is not None:
                    col[j0] = col[j0] + bump
        dcoeffs = {}
        for i in range(len(block[j0])):
            if i != i0 and not block[j0][i].is_zero():
                dcoeffs[i] = block[j0][i] * (1 / a)
        block[j0] = [
            entry if i == i0 else Polynomial.zero(entry.nvars)
            for i in range(len(block[j0]))
        ]
        prev = cols[p - 1]
        for i, d in dcoeffs.items():
            prev[i0] = [x + d * y for x, y in zip(prev[i0], prev[i])]
        if p + 1 < len(cols):
            assert all(col[j0].is_zero() for col in cols[p + 1])
            cols[p + 1] = [col[:j0] + col[j0 + 1 :] for col in cols[p + 1]]
        cols[p] = [col[:i0] + col[i0 + 1 :] for j, col in enumerate(block) if j != j0]
        del src_shifts[p][j0]
        assert all(x.is_zero() for x in prev[i0])
        del prev[i0]
        del src_shifts[p - 1][i0]
        while len(cols) > 1 and not cols[-1]:
            cols.pop()
            src_shifts.pop()

    chain = tuple(
        ModuleMap(tuple(tuple(col) for col in c), tuple(s))
        for c, s in zip(cols, src_shifts)
    )
    return Resolution(chain, res.ambient)


def assert_minimize_matches_reference(resolutions):
    """minimize and the reference give the same columns and shifts; returns
    the number of pivots split off at p = 1 and at p >= 2."""
    pivots = [0, 0]
    for res in resolutions:
        out, expected = minimize(res), row_column_minimize(res)
        assert [m.columns for m in out.chain] == [m.columns for m in expected.chain]
        assert out.all_shifts() == expected.all_shifts()
        assert out.ambient == expected.ambient
        assert out.is_minimal()
        drops = [a - b for a, b in zip(res.ranks(), out.ranks() + [0] * res.length)]
        pivots[0] += drops[0]
        pivots[1] += (sum(drops[1:]) - drops[0]) // 2
    return pivots


def test_minimize_matches_the_reference_on_padded_harness_resolutions():
    # seeded harness instances and, with a redundant generator f * e_0 mixed
    # in (the harness's own redundancy), longer ones; each also padded at
    # every valid p
    rng = random.Random("minimize-reference")
    resolutions = []
    for _ in range(12):
        fp, ctx = random_instance(rng)
        dm = ctx.derivation_module()
        gens = generalized_log_module(fp, ctx, validate=False)
        res = free_resolution(dm, gens)
        zero = Polynomial.zero(ctx.nvars)
        f = fp.expand()
        redundant = free_resolution(
            dm, list(gens) + [tuple(f if i == 0 else zero for i in range(ctx.nvars))]
        )
        d = max(res.shifts(0)) + rng.randint(0, 2)
        for r in (res, redundant):
            resolutions.append(r)
            resolutions += [pad_with_trivial_pair(r, p, d) for p in range(1, r.length + 2)]
    low, high = assert_minimize_matches_reference(resolutions)
    assert low > 40 and high > 10


def test_minimize_matches_the_reference_on_homogenized_surfaces():
    from logderiv.homog import affine_log_resolution, homogenize_module, homogenize_resolution

    xyz = ["x", "y", "z"]
    resolutions = []
    for text in ("x^2*z+y^3+z^4", "x^2+y^3+x*y", "x*y*z+x^3+y^2"):
        fp = FactoredPolynomial.single(parse_poly(text, xyz))
        for mix in (None, (0, 1)):
            ctx, gens, res = affine_log_resolution(fp, mix=mix)
            hmod, hgens = homogenize_module(ctx.derivation_module(), gens)
            resolutions += [
                homogenize_resolution(res).resolution,
                free_resolution(hmod, hgens),
            ]
    low, _ = assert_minimize_matches_reference(resolutions)
    assert low > 0


def test_minimize_matches_the_reference_where_a_pivot_column_has_other_entries():
    # hand-made chains whose syzygies are not reduced: the pivot column has
    # other nonzero entries and the other column meets the pivot row, so the
    # Schur complement subtracts a multiple of a column that is not a unit
    # vector (with a rational pivot in the second chain)
    ring = ring_module(2, MonomialOrder((1, 1)))
    x, y, zero = P("x"), P("y"), P("0")
    resolutions = [
        Resolution((ModuleMap(((x,), (y,), (P("x+y"),)), (1, 1, 1)),
                    ModuleMap((V("2", "2", "-2"), (y, -x, zero)), (1, 2))), ring),
        Resolution((ModuleMap(((P("x^2"),), (P("x*y"),), (P("1/2*x^2-3*x*y"),)), (2, 2, 2)),
                    ModuleMap((V("1/2", "-3", "-1"), (y, -x, zero)), (2, 3))), ring),
    ]
    assert all(res.is_complex() for res in resolutions)
    low, _ = assert_minimize_matches_reference(resolutions)
    assert low == 2


def test_minimize_refuses_a_chain_that_is_not_a_complex_at_the_pivot():
    ring = ring_module(2, MonomialOrder((1, 1)))
    x, y, one = P("x"), P("y"), P("1")
    # phi_0 phi_1 = x: the pivot column (1) is not a cycle
    column_fails = Resolution(
        (ModuleMap(((x,),), (1,)), ModuleMap(((one,),), (1,))), ring
    )
    # phi_0 phi_1 = 0, but phi_1 phi_2 = (y, -y): row 0 of phi_1 meets phi_2
    row_fails = Resolution(
        (
            ModuleMap(((x,), (x,)), (1, 1)),
            ModuleMap(((one, -one),), (1,)),
            ModuleMap(((y,),), (2,)),
        ),
        ring,
    )
    for res, message in ((column_fails, "pivot column"), (row_fails, "pivot row")):
        assert res.graded and not res.is_complex()
        with pytest.raises(RuntimeError, match=message):
            minimize(res)
