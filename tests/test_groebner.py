import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from logderiv.poly import (
    FiltrationError,
    MonomialOrder,
    Polynomial,
    exact_div,
    mono_mul,
    parse_poly,
    polynomial_gcd,
    reduce_into,
)
from logderiv.groebner import (
    FreeModule,
    GroebnerBasis,
    Row,
    _by_slot,
    _divide,
    _lead,
    _leads_in_distinct_slots,
    _Packing,
    _Prepared,
    buchberger,
    combination,
    dehomogenize_vector,
    divide,
    homogenize_vector,
    homogenized,
    intersect,
    module_equal,
    module_quotient,
    normal_form,
    ring_module,
    sorted_by_lead,
    syzygies,
    vec_is_zero,
    vector_degree,
    vector_grading,
)
from logderiv.derivmod import GradedContext, LogModule
from logderiv.harness import random_instance
from logderiv.resolution import ModuleMap, minimal_generators

from test_arrangements import FREE, arrangement, general_position_draw
from test_slice_oracle import monomials

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


def P(text, names=XY):
    return parse_poly(text, names)


def mono_divides(a, b):
    """True iff x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def flatten(vec):
    """An element as a dict (slot, exponents) -> coefficient."""
    return {(slot, exps): c for slot, p in enumerate(vec) for exps, c in p.terms.items()}


def unflatten(module, flat):
    comps = [{} for _ in range(module.rank)]
    for (slot, exps), c in flat.items():
        comps[slot][exps] = c
    return tuple(Polynomial(module.nvars, d) for d in comps)


def ring(n, weights=None):
    return ring_module(n, MonomialOrder(weights or (1,) * n))


# --- independent slice oracle for ideal membership ---------------------------


def monomials_of_degree(n, d):
    if n == 1:
        yield (d,)
        return
    for head in range(d + 1):
        for rest in monomials_of_degree(n - 1, d - head):
            yield (head,) + rest


def slice_contains(gens, mono, n):
    """Membership of a monomial in the degree slice of a homogeneous ideal,
    by plain Gaussian elimination over the monomial basis."""
    d = sum(mono)
    span = []
    for g in gens:
        dg = g.total_degree()
        if dg > d:
            continue
        for alpha in monomials_of_degree(n, d - dg):
            vec = {}
            for e, c in g.terms.items():
                key = tuple(a + b for a, b in zip(e, alpha))
                vec[key] = vec.get(key, Fraction(0)) + c
            span.append({k: v for k, v in vec.items() if v})
    pivots = {}
    rows = span + [{mono: Fraction(1)}]
    target_is_last = len(rows) - 1
    for idx, row in enumerate(rows):
        row = dict(row)
        while row:
            lead = max(row)
            if lead in pivots:
                factor = row[lead] / pivots[lead][lead]
                for k, v in pivots[lead].items():
                    row[k] = row.get(k, Fraction(0)) - factor * v
                row = {k: v for k, v in row.items() if v}
            else:
                if idx == target_is_last:
                    return False
                pivots[lead] = row
                break
    return True


# --- buchberger ---------------------------------------------------------------


def test_monomial_generators_already_groebner():
    mod = FreeModule(2, (0,), MonomialOrder((1, 1)))
    gb = buchberger(mod, [(P("x"),), (P("y"),)])
    assert sorted(str(v) for v in gb.elements) == sorted(
        str((P("x"),)) + "" for v in [0]
    ) or len(gb.elements) == 2
    members = {tuple(p.terms) for (p,) in gb.elements}
    assert members == {((1, 0),), ((0, 1),)}


def test_empty_generators_give_zero_module():
    gb = buchberger(ring(2), [])
    assert gb.elements == ()


def test_membership_matches_slice_oracle_to_degree_8():
    gens = [P("x^2+y^2"), P("x*y")]
    gb = buchberger(ring(2), [(g,) for g in gens])
    for d in range(9):
        for mono in monomials_of_degree(2, d):
            m = Polynomial.monomial(mono, 1, 2)
            via_gb = vec_is_zero(normal_form(gb.module, (m,), gb))
            assert via_gb == slice_contains(gens, mono, 2), (d, mono)


def slice_pivots(gens, d, n):
    """Row-echelon pivots of the degree-d slice of a homogeneous ideal."""
    pivots = {}
    for g in gens:
        dg = g.total_degree()
        if dg > d:
            continue
        for alpha in monomials_of_degree(n, d - dg):
            row = {}
            for e, c in g.terms.items():
                key = tuple(a + b for a, b in zip(e, alpha))
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
                    break
    return pivots


def test_membership_three_variables_to_degree_10():
    names = XYZ
    gens = [P("x^2+y*z", names), P("x*y^3-z^4", names), P("y^2*z^2", names)]
    gb = buchberger(ring(3), [(g,) for g in gens])
    for d in range(11):
        pivots = slice_pivots(gens, d, 3)
        for mono in monomials_of_degree(3, d):
            row = {mono: Fraction(1)}
            while row:
                lead = max(row)
                if lead not in pivots:
                    break
                factor = row[lead] / pivots[lead][lead]
                for k, v in pivots[lead].items():
                    newv = row.get(k, Fraction(0)) - factor * v
                    if newv:
                        row[k] = newv
                    else:
                        row.pop(k, None)
            in_slice = not row
            m = Polynomial.monomial(mono, 1, 3)
            via_gb = vec_is_zero(normal_form(gb.module, (m,), gb))
            assert via_gb == in_slice, (d, mono)


def test_buchberger_certificate_spairs_reduce_to_zero():
    gens = [(P("x^2+y^2"),), (P("x*y"),), (P("y^3-x"),)]
    gb = buchberger(ring(2), gens)
    basis = gb.basis
    pairs = 0
    for j in range(len(basis)):
        for i in range(j):
            if basis[i].slot != basis[j].slot:
                continue
            _, _, rem = _divide(gb._spoly(i, j), _by_slot(basis, 1), gb._packing)
            assert not rem
            pairs += 1
    assert pairs == 1


# --- normal form -----------------------------------------------------------------


def test_normal_form_multiple_of_generator():
    mod = ring(2)
    gb = buchberger(mod, [(P("x"),)])
    assert vec_is_zero(normal_form(mod, (P("x^2"),), gb))


def test_normal_form_irreducible():
    mod = ring(2)
    gb = buchberger(mod, [(P("x"),)])
    assert normal_form(mod, (P("y"),), gb) == (P("y"),)


def test_division_remultiplication_identity():
    mod = ring(2)
    basis = [(P("x^2+y"),), (P("x*y-1"),)]
    target = (P("x^3*y + x*y^2 - 2*x + y"),)
    quotients, rem = divide(mod, target, basis)
    recombined = rem
    for q, b in zip(quotients, basis):
        recombined = tuple(r + q * p for r, p in zip(recombined, b))
    assert recombined == target


# --- syzygies ----------------------------------------------------------------------


def test_koszul_syzygy():
    mod = ring(2)
    syz_mod, syz = syzygies(mod, [(P("x"),), (P("y"),)])
    assert syz_mod.shifts == (1, 1)
    assert module_equal(syz_mod, syz, [(P("y"), -P("x"))])


def test_syzygy_of_free_generator_is_zero():
    mod = ring(2)
    _, syz = syzygies(mod, [(P("1"),)])
    assert syz == []


def phi0_columns():
    cols = [
        ("9*x", "8*y", "6*z"),
        ("3*y^2", "-2*x*z", "0"),
        ("9*z^3", "-2*x*y", "-6*x*z"),
        ("0", "4*z^3+x^2", "-3*y^2"),
    ]
    return [tuple(P(t, XYZ) for t in col) for col in cols]


def phi1_column():
    return tuple(
        P(t, XYZ) for t in ("x*y^2", "-12*z^3-3*x^2", "4*y^2", "-6*x*z")
    )


def test_syzygy_of_worked_example_columns():
    mod = FreeModule(3, (0, 0, 0), MonomialOrder((1, 1, 1)))
    syz_mod, syz = syzygies(mod, phi0_columns())
    assert syz_mod.shifts == (1, 2, 3, 3)
    assert module_equal(syz_mod, syz, [phi1_column()])


def test_syzygies_satisfy_relations_exactly():
    mod = FreeModule(3, (0, 0, 0), MonomialOrder((1, 1, 1)))
    gens = phi0_columns()
    _, syz = syzygies(mod, gens)
    assert syz
    for s in syz:
        total = Row({}, 1, mod.rank, mod.nvars).vector()
        for coeff, g in zip(s.vector(), gens):
            total = tuple(t + coeff * comp for t, comp in zip(total, g))
        assert vec_is_zero(total)


def test_homogeneous_inputs_give_homogeneous_basis():
    mod = FreeModule(2, (0, 3), MonomialOrder((1, 2)))
    gens = [
        (P("x^2"), P("0")),
        (P("x^4+x^2*y"), P("x")),
        (P("0"), P("y")),
    ]
    for g in gens:
        vector_degree(mod, g)
    gb = buchberger(mod, gens)
    for e in gb.elements:
        vector_degree(mod, e)  # raises if any output is inhomogeneous


def test_homogeneous_inputs_give_homogeneous_syzygies():
    mod = FreeModule(2, (1, 1), MonomialOrder((1, 1)))
    gens = [(P("x"), P("y")), (P("y"), Polynomial.zero(2)), (P("x^2"), P("x*y"))]
    syz_mod, syz = syzygies(mod, gens)
    for s in syz:
        vector_degree(syz_mod, s)  # raises if inhomogeneous


# --- intersection --------------------------------------------------------------------


def test_intersection_of_coprime_principal_ideals():
    mod = ring(2)
    out = intersect(mod, [(P("x"),)], [(P("y"),)])
    assert module_equal(mod, out, [(P("x*y"),)])


def test_intersection_idempotent():
    mod = ring(2)
    gens = [(P("x^2+y"),), (P("x*y"),)]
    out = intersect(mod, gens, gens)
    assert module_equal(mod, out, gens)


def test_intersection_of_derivation_modules():
    # D(x^2) ∩ D(y^3) with per-factor power data equals <x^2 dx, y^3 dy>;
    # certified by the determinant being a constant multiple of x^2*y^3.
    mod = FreeModule(2, (0, 0), MonomialOrder((1, 1)))
    d_x2 = [(P("x^2"), P("0")), (P("0"), P("1"))]
    d_y3 = [(P("1"), P("0")), (P("0"), P("y^3"))]
    out = intersect(mod, d_x2, d_y3)
    assert module_equal(mod, out, [(P("x^2"), P("0")), (P("0"), P("y^3"))])
    gb = buchberger(mod, out)
    a, b = gb.elements
    det = a[0] * b[1] - a[1] * b[0]
    assert exact_div(det, P("x^2*y^3")).is_constant()


def test_intersection_preserves_homogeneity():
    # The second ambient is shifted, and `intersect` doubles the shifts in
    # F ⊕ F; its mixed-slot generators are homogeneous only under (1, 3).
    cases = [
        (
            FreeModule(2, (0, 0), MonomialOrder((1, 2))),
            [(P("x^2"), P("0")), (P("0"), P("y"))],
            [(P("x^2+2*y"), P("0")), (P("0"), P("x^2"))],
        ),
        (
            FreeModule(2, (1, 3), MonomialOrder((1, 2))),
            [(P("x^2*y"), P("x^2")), (P("0"), P("y"))],
            [(P("x^4+2*x^2*y"), P("0")), (P("y^2"), P("y"))],
        ),
    ]
    for mod, m_gens, n_gens in cases:
        out = intersect(mod, m_gens, n_gens)
        assert out
        for v in out:
            vector_degree(mod, v)


def monomial_generators(rng, module, count):
    gens = []
    for _ in range(count):
        vec = list(Row({}, 1, module.rank, module.nvars).vector())
        exps = tuple(rng.randint(0, 3) for _ in range(module.nvars))
        vec[rng.randrange(module.rank)] = Polynomial.monomial(exps, rng.choice([-2, 1, 3]), module.nvars)
        gens.append(tuple(vec))
    return gens


@pytest.mark.parametrize("shifts", [(0,), (1, 3)])
def test_intersection_of_monomial_submodules_is_generated_by_lcms(shifts):
    # Slot by slot, the intersection of two monomial submodules is generated
    # by the lcms of pairs of generators in that slot.
    module = FreeModule(3, shifts, MonomialOrder((1, 2, 1)))
    rng = random.Random(f"monomial-{shifts}")
    nonzero = 0
    for _ in range(12):
        gens_a = monomial_generators(rng, module, rng.randint(1, 3))
        gens_b = monomial_generators(rng, module, rng.randint(1, 3))
        expected = []
        for a in gens_a:
            for b in gens_b:
                for slot, (p, q) in enumerate(zip(a, b)):
                    if not p.is_zero() and not q.is_zero():
                        vec = list(Row({}, 1, module.rank, module.nvars).vector())
                        vec[slot] = Polynomial.monomial(
                            mono_lcm(next(iter(p.terms)), next(iter(q.terms))), 1, module.nvars
                        )
                        expected.append(tuple(vec))
        out = intersect(module, gens_a, gens_b)
        assert module_equal(module, out, expected)
        assert out == list(buchberger(module, out).rows)  # already reduced
        nonzero += bool(out)
    assert nonzero >= 6


# --- quotient ------------------------------------------------------------------------


def test_module_quotient_principal():
    mod = ring(2)
    out = module_quotient(mod, [(P("x^2"),)], [(P("x"),)])
    assert module_equal(mod, out, [(P("x"),)])


def test_module_quotient_by_itself_is_unit():
    mod = FreeModule(2, (0, 0), MonomialOrder((1, 1)))
    gens = [(P("x"), P("y")), (P("y"), P("0"))]
    out = module_quotient(mod, gens, gens)
    assert module_equal(ring(2), out, [(P("1"),)])


def quotient_by_fold(module, gens_n, gens_m):
    """(N : M) folded from one colon per generator: (N : g), the syzygies
    of g modulo N, intersected one after another."""
    ring = ring_module(module.nvars, module.order)
    ideal = None
    for g in gens_m:
        _, colon = syzygies(module, [g], gens_n)
        ideal = colon if ideal is None else intersect(ring, ideal, colon)
    return list(buchberger(ring, ideal).rows)


def test_module_quotient_is_the_intersection_of_the_colons_by_each_generator():
    # (D(f) : D) on harness draws, where D has 2 or 3 generators of unequal
    # degrees, (0 : D), and the colon of a unit line by generators of D(f)
    from logderiv.derivmod import generalized_log_module
    from logderiv.harness import random_instance

    rng = random.Random(0)
    ranks = set()
    for _ in range(10):
        factored, ctx = random_instance(rng)
        dm = ctx.derivation_module()
        gens = generalized_log_module(factored, ctx)
        units = [Row.unit(i, dm.rank, dm.nvars).vector() for i in range(dm.rank)]
        for gens_n, gens_m in [(gens, units), ([], units), (units[:1], gens[:3])]:
            assert module_quotient(dm, gens_n, gens_m) == quotient_by_fold(dm, gens_n, gens_m)
        assert module_quotient(dm, [], units) == []
        ranks.add(dm.rank)
    assert ranks == {2, 3}


def test_module_quotient_of_inhomogeneous_ideals_is_the_fold():
    rng = random.Random("quotient")
    for _ in range(8):
        gens_n = [(random_poly(rng, 2, 3, 2),) for _ in range(2)]
        gens_m = [(random_poly(rng, 2, 2, 2),) for _ in range(rng.randint(2, 3))]
        assert module_quotient(ring(2), gens_n, gens_m) == quotient_by_fold(ring(2), gens_n, gens_m)


def test_module_quotient_by_no_generators_is_the_unit_ideal():
    assert module_quotient(ring(2), [(P("x"),)], []) == [Row.of((P("1"),))]


def test_annihilator_of_conic_quotient():
    # (D(f) : D) for f = x^2+y^2, with D(f) given by the Saito basis.
    mod = FreeModule(2, (0, 0), MonomialOrder((1, 1)))
    dfgens = [(P("x"), P("y")), (P("y"), -P("x"))]
    units = [Row.unit(slot, mod.rank, mod.nvars).vector() for slot in (0, 1)]
    out = module_quotient(mod, dfgens, units)
    assert module_equal(ring(2), out, [(P("x^2+y^2"),)])


# --- gcd helper ------------------------------------------------------------------------


def test_gcd_via_intersection():
    assert polynomial_gcd(P("x^2*y^3"), P("x*y^4")) == P("x*y^3")
    assert polynomial_gcd(P("x^2+y^2"), P("x")).is_constant()


RATIONALS = (Fraction(-3, 2), Fraction(-1), Fraction(1, 3), Fraction(2), Fraction(5, 4))


def random_poly(rng, nvars, nterms, max_exp, variables=None):
    """nterms random terms in the given variables (default: all)."""
    variables = range(nvars) if variables is None else variables
    terms = {}
    for _ in range(nterms):
        exps = [0] * nvars
        for i in variables:
            exps[i] = rng.randint(0, max_exp)
        terms[tuple(exps)] = rng.choice(RATIONALS)
    return Polynomial(nvars, terms)


def monic(p):
    """p scaled to leading coefficient 1 under the degree order."""
    if p.is_zero():
        return p
    lead = max(p.terms, key=MonomialOrder((1,) * p.nvars).key_parts)
    return p * (1 / p.terms[lead])


def gcd_cases(rng, nvars):
    """Pairs with planted common factors: in every variable, in all but one
    (so in the content in that variable) and monomial; and coprime pairs.
    Degrees reach 3 per variable in each factor, coefficients are rational."""
    for case in range(12):
        a = random_poly(rng, nvars, 3, 3)
        b = random_poly(rng, nvars, 3, 3)
        kind = case % 4
        if kind == 0:
            common = random_poly(rng, nvars, 3, 2)
        elif kind == 1:
            skip = rng.randrange(nvars)
            common = random_poly(rng, nvars, 2, 2, [i for i in range(nvars) if i != skip])
        elif kind == 2:
            common = Polynomial.monomial(tuple(rng.randint(0, 2) for _ in range(nvars)),
                                         rng.choice(RATIONALS), nvars)
        else:
            common = Polynomial.constant(1, nvars)
        yield a * common, b * common, common


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_gcd_matches_sympy(nvars):
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(f"x1:{nvars + 1}")

    def to_sympy(p):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * sympy.prod(s**e for s, e in zip(symbols, exps))
            for exps, c in p.terms.items()
        )

    def from_sympy(expr):
        terms = sympy.Poly(expr, *symbols).as_dict()
        return Polynomial(nvars, {e: Fraction(int(c.p), int(c.q)) for e, c in terms.items()})

    rng = random.Random(f"gcd-{nvars}")
    nontrivial = 0
    zero = Polynomial.zero(nvars)
    for a, b, common in gcd_cases(rng, nvars):
        if a.is_zero() or b.is_zero():
            continue
        ours = polynomial_gcd(a, b)
        assert ours == monic(from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))))
        assert polynomial_gcd(b, a) == ours
        exact_div(ours, common)  # the planted factor divides the gcd
        nontrivial += not ours.is_constant()
        # zero and constant arguments
        assert polynomial_gcd(a, zero) == polynomial_gcd(zero, a) == monic(a)
        assert polynomial_gcd(a, Polynomial.constant(Fraction(-2, 3), nvars)).is_constant()
        if nvars < 4:
            # the colon ideal (<b> : a) is generated by b / gcd(a, b)
            colon = module_quotient(ring(nvars), [(b,)], [(a,)])
            assert module_equal(ring(nvars), colon, [(exact_div(b, ours),)])
    assert polynomial_gcd(zero, zero).is_zero()
    assert nontrivial >= 6


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_gcd_by_the_remainder_sequence_alone(nvars, monkeypatch):
    # past degree 1 the evaluation heuristic finds almost every gcd; when its
    # points fail, the primitive remainder sequence must give the same gcd
    from logderiv import poly

    cases = list(gcd_cases(random.Random(f"gcd-{nvars}"), nvars))
    expected = [polynomial_gcd(a, b) for a, b, _ in cases]
    monkeypatch.setattr(poly, "_heuristic_gcd", lambda f, g: None)
    assert [polynomial_gcd(a, b) for a, b, _ in cases] == expected


def gcd_by_colon_ideal(p, q):
    """The monic gcd through the Groebner engine: (<q> : p) = <q / gcd(p, q)>,
    so q divided by the colon ideal's generator is the gcd."""
    module = ring(p.nvars)
    (h,) = module_quotient(module, [(q,)], [(p,)])
    (quotient,), remainder = divide(module, (q,), [h])
    assert vec_is_zero(remainder)
    return monic(quotient)


def test_gcd_matches_the_colon_ideal_on_harness_and_arrangement_pairs(monkeypatch):
    # every gcd the seed-0 draws of 100 harness instances ask for (their
    # factor pairs and squarefree-derivative pairs, rejected draws too),
    # and every pair of planes of the golden 8-plane arrangement, which is not
    # in general position
    from logderiv import harness, poly

    pairs = []
    original = poly.polynomial_gcd

    def recording(p, q):
        pairs.append((p, q))
        return original(p, q)

    monkeypatch.setattr(harness, "polynomial_gcd", recording)
    monkeypatch.setattr(poly, "polynomial_gcd", recording)
    rng = random.Random(0)
    for _ in range(100):
        harness.random_instance(rng)
    monkeypatch.undo()
    planes = [P(t, ["x", "y", "z", "w"]) for t in
              ["x", "y", "z", "w", "x+y+z", "x+2*y+3*w", "y+z+w", "x-z+2*w"]]
    arrangement_pairs = [(a, b) for i, a in enumerate(planes) for b in planes[i + 1:]]
    assert len(pairs) > 200 and len(arrangement_pairs) == 28
    nontrivial = 0
    for p, q in pairs + arrangement_pairs:
        ours = polynomial_gcd(p, q)
        if p.is_zero() or q.is_zero() or p.is_constant() or q.is_constant():
            continue
        assert ours == gcd_by_colon_ideal(p, q), (p, q)
        nontrivial += not ours.is_constant()
    assert nontrivial > 50


# a form of total degree 1 against the other argument, and the monic gcd
LINEAR_GCDS = [
    ("2*x+4*y", "-1/3*x-2/3*y", "x+2*y"),  # proportional forms
    ("x+1", "x^2-1", "x+1"),
    ("x^2-1", "x+1", "x+1"),
    ("3*x-z", "(3*x-z)*(y+z)^2", "3*x-z"),
    ("x+y", "x-y", "1"),  # coprime forms
    ("x+y+z", "x*y+z^2", "1"),
    ("y", "x^2*y+z", "1"),
    ("z", "x*z^2", "z"),
]


def general_gcd(p, q):
    """The monic gcd by the route for arguments of higher degree."""
    from logderiv import poly

    g = poly._gcd(poly._integer_terms(p)[1], poly._integer_terms(q)[1])
    return poly._monic(p.nvars, g, sorted(g, key=MonomialOrder((1,) * p.nvars).key_parts,
                                          reverse=True))


@pytest.mark.parametrize("p, q, common", LINEAR_GCDS)
def test_gcd_with_a_linear_form(p, q, common):
    p, q = P(p, XYZ), P(q, XYZ)
    ours = polynomial_gcd(p, q)
    assert ours == monic(P(common, XYZ)) == polynomial_gcd(q, p)
    assert ours == gcd_by_colon_ideal(p, q)
    # the same terms, in the same order, as the general route
    assert list(ours.terms.items()) == list(general_gcd(p, q).terms.items())


def test_gcd_with_a_linear_form_matches_sympy():
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("x1:5")

    def to_sympy(p):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * sympy.prod(s**e for s, e in zip(symbols, exps))
            for exps, c in p.terms.items()
        )

    def from_sympy(expr):
        terms = sympy.Poly(expr, *symbols).as_dict()
        return Polynomial(4, {e: Fraction(int(c.p), int(c.q)) for e, c in terms.items()})

    rng = random.Random("gcd-linear")
    nontrivial = 0
    for _ in range(40):
        form = Polynomial(4, {
            tuple(int(i == j) for j in range(4)): rng.choice(RATIONALS)
            for i in rng.sample(range(4), rng.randint(1, 4))
        })
        other = random_poly(rng, 4, rng.randint(1, 4), 2)
        for q in (form * rng.choice(RATIONALS), form * other, other, other + form):
            if q.is_constant():
                continue
            ours = polynomial_gcd(form, q)
            assert ours == monic(from_sympy(sympy.gcd(to_sympy(form), to_sympy(q))))
            assert ours == polynomial_gcd(q, form) == general_gcd(form, q)
            nontrivial += not ours.is_constant()
    assert nontrivial >= 80


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)),
        min_size=1,
        max_size=2,
    ),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)),
        min_size=1,
        max_size=2,
    ),
)
def test_intersection_contained_in_both_sides(raw_a, raw_b):
    def build(raw):
        gens = []
        for a, b, c in raw:
            if c:
                gens.append((Polynomial.monomial((a, b), c, 2) + P("x*y^2"),))
        return gens

    gens_a, gens_b = build(raw_a), build(raw_b)
    if not gens_a or not gens_b:
        return
    mod = ring(2)
    inter = intersect(mod, gens_a, gens_b)
    gb_a, gb_b = buchberger(mod, gens_a), buchberger(mod, gens_b)
    for w in inter:
        assert vec_is_zero(normal_form(mod, w, gb_a))
        assert vec_is_zero(normal_form(mod, w, gb_b))
    # the product of any pair of generators is a common element
    prod = (gens_a[0][0] * gens_b[0][0],)
    gb_inter = buchberger(mod, inter)
    assert vec_is_zero(normal_form(mod, prod, gb_inter))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)),
        min_size=1,
        max_size=3,
    )
)
def test_groebner_membership_generators_reduce_to_zero(raw):
    gens = []
    for a, b, c in raw:
        if c:
            gens.append((Polynomial.monomial((a, b), c, 2) + P("x*y"),))
    if not gens:
        return
    mod = ring(2)
    gb = buchberger(mod, gens)
    for g in gens:
        assert vec_is_zero(normal_form(mod, g, gb))


# --- division loop against a plain max-scan reference ---------------------------


def old_term_key(module, term):
    """The term order written out the long way: larger is higher."""
    slot, exps = term
    block = 1 if module.block_split is None or slot < module.block_split else 0
    wdeg, tail = module.order.key_parts(exps)
    return (block, wdeg + module.shifts[slot], tail, -slot)


def reference_divide(module, flat, basis):
    """Division that rescans for the largest term on every step."""
    leads = []
    for b in basis:
        lead = max(b, key=lambda t: old_term_key(module, t))
        leads.append((lead, b[lead]))
    work = dict(flat)
    remainder = {}
    quotients = [{} for _ in basis]
    while work:
        term = max(work, key=lambda t: old_term_key(module, t))
        slot, exps = term
        coeff = work[term]
        for idx, ((b_slot, b_exps), b_coeff) in enumerate(leads):
            if b_slot == slot and all(x <= y for x, y in zip(b_exps, exps)):
                gamma = tuple(x - y for x, y in zip(exps, b_exps))
                factor = coeff / b_coeff
                for (s2, e2), c2 in basis[idx].items():
                    t2 = (s2, tuple(x + y for x, y in zip(e2, gamma)))
                    v = work.get(t2, 0) - factor * c2
                    if v:
                        work[t2] = v
                    else:
                        work.pop(t2, None)
                quotients[idx][gamma] = quotients[idx].get(gamma, 0) + factor
                break
        else:
            remainder[term] = coeff
            del work[term]
    return quotients, remainder


# Arguments of FreeModule for the three kinds of ambient the pipeline divides
# in: a ring, a shifted module and the block-split module `syzygies` builds
# (from homogeneous rows only, so `random_flat` draws those there).
# Repeated shifts make terms tie up to the slot.
AMBIENTS = {
    "ring": (3, (0,), MonomialOrder((1, 1, 1))),
    "shifted": (3, (1, 0, 1), MonomialOrder((1, 2, 1))),
    "block_split": (2, (0, 0, 1, 1, 2), MonomialOrder((1, 1)), 2),
}


def random_term(rng, module, max_exp):
    slot = rng.randrange(module.rank)
    return (slot, tuple(rng.randint(0, max_exp) for _ in range(module.nvars)))


def random_flat(rng, module, nterms, max_exp, coeffs=(-2, -1, 1, 2)):
    """A random element as a flat dict.  Under a block split, which takes
    homogeneous rows only, its terms share one degree: the largest of
    nterms random terms, the degree an unrestricted draw would have."""
    if module.block_split is not None:
        degree = max(term_degree(module, random_term(rng, module, max_exp)) for _ in range(nterms))
        terms = homogeneous_terms(rng, module, degree, nterms)
        return {t: Fraction(rng.choice(coeffs)) for t in terms}
    return {
        random_term(rng, module, max_exp): Fraction(rng.choice(coeffs))
        for _ in range(nterms)
    }


def term_degree(module, term):
    slot, exps = term
    return sum(e * w for e, w in zip(exps, module.order.weights)) + module.shifts[slot]


def homogeneous_terms(rng, module, degree, nterms):
    """Up to nterms distinct random terms of one shifted degree."""
    pool = [
        (slot, exps)
        for slot in range(module.rank)
        for exps in product(range(degree + 2), repeat=module.nvars)
        if term_degree(module, (slot, exps)) == degree
    ]
    return rng.sample(pool, min(nterms, len(pool)))


def packed_rows(module, flats):
    """The packing that fits every term of flats, and each (integral) flat
    as an integer row on it."""
    packing = _Packing(module, max(term_degree(module, t) for f in flats for t in f))
    return packing, [{packing.term(*t): int(c) for t, c in f.items()} for f in flats]


def unpacked(packing, row, scale):
    """An integer row as a flat dict, divided by scale."""
    return {packing.decode(t): Fraction(c, scale) for t, c in row.items()}


def unpacked_quotient(packing, q, scale):
    """Quotient codes are monomial codes: term minus the code of 1."""
    return {packing.decode(g + packing.one[0])[1]: Fraction(c, scale) for g, c in q.items()}


@pytest.mark.parametrize("name", AMBIENTS)
def test_heap_division_matches_max_scan_reference(name):
    module = FreeModule(*AMBIENTS[name])
    rng = random.Random(f"divide-{name}")
    reduced_steps = scaled = 0
    for draw in range(60):
        # the last draws have leading coefficients other than +-1 and +-2
        coeffs = (-2, -1, 1, 2) if draw < 40 else (-3, 2, 3, 5)
        basis = [
            random_flat(rng, module, rng.randint(1, 4), 2, coeffs)
            for _ in range(rng.randint(1, 4))
        ]
        flat = random_flat(rng, module, rng.randint(1, 10), 4)
        ref_q, ref_rem = reference_divide(module, flat, basis)
        packing, (row, *rows) = packed_rows(module, [flat] + basis)
        prepared = [_Prepared(r, packing) for r in rows]
        by_slot = _by_slot(prepared, module.rank)
        scale, quotients, remainder = _divide(row, by_slot, packing, want_quotients=True)
        assert [unpacked_quotient(packing, quotients[b], scale) for b in prepared] == ref_q
        assert unpacked(packing, remainder, scale) == ref_rem
        assert list(unpacked(packing, remainder, scale)) == list(ref_rem)
        assert _divide(row, by_slot, packing) == (scale, {}, remainder)
        reduced_steps += sum(len(q) for q in ref_q)
        scaled += abs(scale) > 1
    assert reduced_steps > 40  # the draws exercise reduction, not just copying
    assert scaled >= 10  # and the fraction-free scaling


def test_division_handles_a_cancelled_then_recreated_term():
    # Reducing x^2 cancels the queued x*z; reducing y^2 then creates it
    # again, so x*z is queued twice and must reach the remainder once.
    module = ring(3)
    b1 = flatten((P("x^2+x*z", XYZ),))
    b2 = flatten((P("y^2+x*z", XYZ),))
    flat = flatten((P("x^2+y^2+x*z", XYZ),))
    packing, (r1, r2, row) = packed_rows(module, [b1, b2, flat])
    prepared = [_Prepared(r1, packing), _Prepared(r2, packing)]
    scale, quotients, remainder = _divide(
        row, _by_slot(prepared, 1), packing, want_quotients=True
    )
    assert (scale, [quotients[b] for b in prepared]) == (1, [{0: 1}, {0: 1}])
    assert unpacked(packing, remainder, 1) == {(0, (1, 0, 1)): -1}
    assert reference_divide(module, flat, [b1, b2]) == (
        [unpacked_quotient(packing, quotients[b], 1) for b in prepared],
        unpacked(packing, remainder, 1),
    )


# the packed order also on negative shifts, under a block split
ORDERED = dict(AMBIENTS, negative=(2, (-3, 0, 2, -1), MonomialOrder((2, 1)), 2))


@pytest.mark.parametrize("name", ORDERED)
def test_packed_order_equals_old_term_key_order(name):
    module = FreeModule(*ORDERED[name])
    rng = random.Random(f"keys-{name}")
    terms = list({random_term(rng, module, 3) for _ in range(300)})
    expected = sorted(terms, key=lambda t: old_term_key(module, t), reverse=True)
    fitting = _Packing(module, max(term_degree(module, t) for t in terms))
    divisible = 0
    for packing in (fitting, _Packing(module, fitting.capacity + 1)):
        assert sorted(terms, key=lambda t: packing.term(*t)) == expected
        codes = {t: packing.term(*t) for t in terms}
        for t, code in codes.items():
            assert packing.decode(code) == t
            assert packing.degree(code) == term_degree(module, t)
        # one subtraction and one mask test divisibility in one slot, and
        # the difference multiplies a term by the quotient monomial
        for a in terms[:60]:
            for b, c in zip(terms[:60], terms[60:]):
                divides = a[0] == b[0] and mono_divides(a[1], b[1])
                assert (not (codes[b] - codes[a]) & packing.divmask) == divides
                if divides:
                    gamma = tuple(y - x for x, y in zip(a[1], b[1]))
                    product = (c[0], mono_mul(c[1], gamma))
                    if term_degree(module, product) <= packing.capacity:
                        assert codes[c] + codes[b] - codes[a] == packing.term(*product)
                    divisible += 1
    assert divisible >= 40


# --- rank-1 reduced bases against sympy -------------------------------------------


def random_ideal(rng, nvars):
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(2, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(nvars))
            terms[exps] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        gens.append(Polynomial(nvars, terms))
    return gens


def sympy_reduced_basis(sympy, gens, nvars):
    """The reduced grevlex basis of an ideal by sympy, each element as a set
    of (exponents, coefficient) made monic, as ours are."""
    symbols = sympy.symbols(f"x1:{nvars + 1}")
    exprs = [
        sum(sympy.Rational(c.numerator, c.denominator) * sympy.prod(
            s**e for s, e in zip(symbols, exps)) for exps, c in g.terms.items())
        for g in gens
    ]
    theirs = sympy.groebner(exprs, *symbols, order="grevlex", domain="QQ")
    expected = set()
    for poly in theirs.polys:
        lead = poly.LC(order="grevlex")
        expected.add(frozenset(
            (exps, Fraction(str(c / lead))) for exps, c in poly.as_dict().items()
        ))
    return expected


@pytest.mark.parametrize("nvars", [2, 3])
def test_reduced_basis_matches_sympy_grevlex(nvars):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"sympy-{nvars}")
    sizes = []
    for _ in range(12):
        gens = [g for g in random_ideal(rng, nvars) if not g.is_zero()]
        ours = buchberger(ring(nvars), [(g,) for g in gens])
        got = {frozenset(p.terms.items()) for (p,) in ours.elements}
        assert got == sympy_reduced_basis(sympy, gens, nvars)
        sizes.append(len(got))
    assert max(sizes) > 2  # some draws are not already Groebner bases


def test_an_s_pair_lcm_above_the_field_capacity_widens_the_fields():
    # Degree 15 gets 5-bit fields (exponents up to 31), which fit every lcm
    # of two input leads; later pairs need more, and their S-vectors have
    # exponents past 31.
    sympy = pytest.importorskip("sympy")
    module = ring(3)
    gens = [P("x^2*y^9*z^4 - x^3*y^12", XYZ), P("3*x^10*y^4*z + 3*x^14*y", XYZ)]
    gb = buchberger(module, [(g,) for g in gens])
    assert _Packing(module, 15).width == 5 < gb._packing.width
    got = {frozenset(p.terms.items()) for (p,) in gb.elements}
    assert got == sympy_reduced_basis(sympy, gens, 3)


# --- reduced bases on every ambient -----------------------------------------------


def assert_reduced(module, elements):
    """Monic, and no term but an element's own lead is divisible by a lead
    in its slot."""
    leads = [max(flatten(e), key=lambda t: old_term_key(module, t)) for e in elements]
    for i, e in enumerate(elements):
        flat = flatten(e)
        assert flat[leads[i]] == 1
        for term in flat:
            for j, (slot, exps) in enumerate(leads):
                if slot == term[0] and (i, term) != (j, leads[j]):
                    assert not mono_divides(exps, term[1]), (e, leads[j])


@pytest.mark.parametrize("name", AMBIENTS)
def test_reduced_basis_is_a_fixed_point_of_buchberger(name):
    module = FreeModule(*AMBIENTS[name])
    rng = random.Random(f"reduced-{name}")
    sizes = []
    for _ in range(24):
        gens = [
            unflatten(module, random_flat(rng, module, rng.randint(2, 4), 2))
            for _ in range(rng.randint(2, 3))
        ]
        gb = buchberger(module, gens)
        assert_reduced(module, gb.elements)
        assert buchberger(module, gb.elements).elements == gb.elements
        assert module_equal(module, list(gb.elements), gens)
        sizes.append(len(gb.elements))
    assert max(sizes) > 3  # some draws are not already Groebner bases


# --- linear combinations ------------------------------------------------------------


def naive_combination(coeffs, vectors, zero_vector):
    """sum(coeffs[k] * vectors[k]), slot by slot, in Fraction polynomials."""
    total = zero_vector
    for c, v in zip(coeffs, vectors):
        total = tuple(t + c * p for t, p in zip(total, v))
    return total


@pytest.mark.parametrize("name", AMBIENTS)
def test_combination_is_the_sum_of_the_scaled_vectors(name):
    # vectors with denominators other than 1 and a zero vector among them,
    # and coefficient columns with rational coefficients and a zero slot
    module = FreeModule(*AMBIENTS[name])
    rng = random.Random(f"combination-{name}")
    zero = Polynomial.zero(module.nvars)
    zero_vector = Row({}, 1, module.rank, module.nvars).vector()
    fractional = (Fraction(-3, 2), Fraction(1, 3), Fraction(5, 4), -1, 2)
    with_denominators = 0
    for _ in range(30):
        vectors = [
            unflatten(module, random_flat(rng, module, rng.randint(2, 3), 2, fractional))
            for _ in range(rng.randint(1, 4))
        ]
        vectors.insert(rng.randrange(len(vectors) + 1), zero_vector)
        columns = []
        for _ in range(3):
            coeffs = [random_poly(rng, module.nvars, rng.randint(1, 3), 2) for _ in vectors]
            coeffs[rng.randrange(len(coeffs))] = zero
            columns.append(tuple(coeffs))
        columns.append((zero,) * len(vectors))
        rows = [Row.of(v) for v in vectors]
        expected = [naive_combination(c, vectors, zero_vector) for c in columns]
        for c, want in zip(columns, expected):
            got = combination(Row.of(c), rows)
            assert got.vector() == want
            assert got == Row.of(want)  # in lowest terms
        upper = ModuleMap(vectors, (0,) * len(vectors))
        lower = ModuleMap(columns, (0,) * len(columns))
        assert [col.vector() for col in upper.compose(lower)] == expected
        with_denominators += any(r.den != 1 for r in rows)
    assert with_denominators > 20
    assert combination(Row.of(()), []).vector() == ()


def test_a_row_is_its_vector_in_lowest_terms():
    module = FreeModule(*AMBIENTS["shifted"])
    vec = unflatten(module, {(0, (1, 0, 0)): Fraction(3, 4), (2, (0, 1, 0)): Fraction(-1, 6)})
    row = Row.of(vec)
    assert (row.terms, row.den, row.rank, row.nvars) == (
        {(0, (1, 0, 0)): 9, (2, (0, 1, 0)): -2}, 12, 3, 3
    )
    assert row.vector() == vec
    assert Row.of((Polynomial.zero(3),) * 3) == Row({}, 1, 3, 3)


def test_a_row_answers_each_grading_it_is_asked_about():
    vec = (P("x^2*y+x*y^2"), P("y^2"))
    v = FreeModule(2, (0, 1), MonomialOrder((1, 1)))
    modules = {
        "v": (v, (3, True)),
        "v + 1": (FreeModule(2, (1, 2), MonomialOrder((1, 1))), (4, True)),
        "other weights": (FreeModule(2, (0, 1), MonomialOrder((2, 1))), (5, False)),
        # equal to v, not the same objects
        "v again": (FreeModule(2, tuple([0, 1]), MonomialOrder(tuple([1, 1]))), (3, True)),
    }
    row = Row.of(vec)
    for name, (module, grading) in modules.items():
        assert vector_grading(module, row) == grading, name
        assert vector_grading(module, Row.of(vec)) == grading, name
        assert row.memo == ((module.shifts, module.order.weights), grading), name
        assert vector_grading(module, row) == grading, name


def test_a_graded_row_equals_its_ungraded_twin():
    module = FreeModule(2, (0, 1), MonomialOrder((1, 1)))
    vec = (P("x^2*y+x*y^2"), P("y^2"))
    graded, ungraded = Row.of(vec), Row.of(vec)
    vector_grading(module, graded)
    assert graded.memo is not None and ungraded.memo is None
    assert graded == ungraded and repr(graded) == repr(ungraded)
    assert module_equal(module, [graded], [ungraded])
    assert buchberger(module, [graded]).rows == buchberger(module, [ungraded]).rows


# --- the basis grows in place ------------------------------------------------------


def random_vectors(rng, module, count):
    return [
        unflatten(module, random_flat(rng, module, rng.randint(2, 3), 2))
        for _ in range(count)
    ]


@pytest.mark.parametrize("name", AMBIENTS)
def test_adding_generators_in_chunks_gives_the_one_shot_basis(name):
    module = FreeModule(*AMBIENTS[name])
    rng = random.Random(f"chunks-{name}")
    changed = 0
    for _ in range(12):
        gens = random_vectors(rng, module, rng.randint(3, 4))
        cuts = sorted(rng.sample(range(1, len(gens)), rng.randint(1, 2)))
        gb = GroebnerBasis(module)
        for start, end in zip([0] + cuts, cuts + [len(gens)]):
            before = gb.elements
            # add reports whether the module grew, i.e. the basis changed
            assert gb.add(gens[start:end]) == (gb.elements != before)
            assert_reduced(module, gb.elements)
            # read between two adds, the elements are those of the gens so far
            assert gb.elements == buchberger(module, gens[:end]).elements
            changed += start > 0 and gb.elements != before
        assert gb.elements == buchberger(module, gens).elements
    assert changed >= 12  # later chunks do change the basis


@pytest.mark.parametrize("name", AMBIENTS)
def test_the_rows_a_division_looks_up_by_slot_are_the_basis_rows(name):
    # after each add (interreduction included) and a widening of the fields
    module = FreeModule(*AMBIENTS[name])
    rng = random.Random(f"slots-{name}")
    widened = 0
    for _ in range(6):
        gb = GroebnerBasis(module)
        gens = random_vectors(rng, module, 4)
        gens.append(unflatten(module, random_flat(rng, module, 2, 12)))
        for g in gens:
            width = gb._packing.width if gb._packing else None
            gb.add([g])
            assert gb._divisors == _by_slot(gb.basis, module.rank)
            widened += width is not None and gb._packing.width > width
    assert widened >= 3


# --- Buchberger's criterion on the output ------------------------------------------


# generators per draw and largest exponent: ring ideals of lower degree are
# mostly the unit ideal, and the block-split module spreads its generators
# over five slots, so each needs more for pairs to form
CERTIFICATE_DRAWS = {"ring": (3, 4, 3), "shifted": (3, 4, 2), "block_split": (6, 8, 2)}


@pytest.mark.parametrize("name", AMBIENTS)
def test_every_s_vector_of_the_reduced_basis_divides_to_zero(name):
    # Buchberger's criterion, read off the output alone: whichever pairs
    # `add` skipped, a basis is a Groebner basis exactly when the S-vector
    # of each same-slot pair of it divides to zero by it.
    module = FreeModule(*AMBIENTS[name])
    low, high, max_exp = CERTIFICATE_DRAWS[name]
    rng = random.Random(f"certificate-{name}")
    pairs = 0
    for _ in range(40):
        gens = [
            unflatten(module, random_flat(rng, module, rng.randint(2, 3), max_exp))
            for _ in range(rng.randint(low, high))
        ]
        gb = buchberger(module, gens)
        basis = gb.basis
        for j, b in enumerate(basis):
            for i, a in enumerate(basis[:j]):
                if a.slot == b.slot:
                    by_slot = _by_slot(basis, module.rank)
                    _, _, rem = _divide(gb._spoly(i, j), by_slot, gb._packing)
                    assert not rem, (a.row, b.row)
                    pairs += 1
    assert pairs >= 150


# --- two slow cases of the engine before its pair criteria -------------------------


FOUND_MODULE = (3, (1, 0, 1), MonomialOrder((1, 2, 1)))


def vectors(*rows):
    return [tuple(P(text, XYZ) for text in row) for row in rows]


def test_a_vector_joining_a_finished_basis_gives_the_one_shot_basis():
    module = FreeModule(*FOUND_MODULE)
    gens = vectors(
        ("x^2*y^2*z^2", "x^2*y^2*z^2", "0"),
        ("-2*x^2", "x*z^2 - 2*y", "-x^2*y*z"),
        ("0", "2*x*y + 2*z^2", "2*y^2*z^2 + x^2*y^2"),
        ("1", "0", "-y^2*z"),
        ("-x*y^2*z^2", "2*x*y*z", "2*x^2*y*z^2 - x^2*y"),
    )
    one_shot = buchberger(module, gens).elements
    assert len(one_shot) == 28
    gb = GroebnerBasis(module)
    for start, end in [(0, 2), (2, 4), (4, 5)]:
        gb.add(gens[start:end])
    assert gb.elements == one_shot


def test_syzygies_of_a_slow_inhomogeneous_draw():
    module = FreeModule(*FOUND_MODULE)
    gens = vectors(
        ("0", "-x^2*z^2", "x^2*y^2*z^2"),
        ("x^2*y", "x*y^2*z", "-2*y^2*z^2"),
        ("-1", "0", "x^2*y*z^2 - x^2"),
        ("0", "0", "-x^2*y^2*z^2 - y^2*z - x^2"),
        ("0", "2*x*y^2*z^2 + x^2*z", "2*x*y^2*z"),
    )
    _, syz = syzygies(module, gens)
    assert len(syz) == 9
    for c in (s.vector() for s in syz):
        assert not vec_is_zero(c)
        total = Row({}, 1, module.rank, module.nvars).vector()
        for coeff, g in zip(c, gens):
            total = tuple(t + coeff * p for t, p in zip(total, g))
        assert vec_is_zero(total)


# --- syzygies of inhomogeneous generators -----------------------------------------


def filtered_kernel_dimensions(module, gens, syz_module, syz, top):
    """Reference for the syzygies of any generators by linear algebra alone,
    with no Groebner basis: for each d in 0..top the pair (K_d, S_d).

    K_d is the dimension of the kernel of c -> sum(c_i * g_i) over the c
    whose c_i has terms of degree at most d - shift_i (shift_i the slot
    shifts of syz_module, the degrees of the g_i).  S_d is the dimension of
    the span of the alpha * s, over the syzygies s in syz and the monomials
    alpha with deg alpha + degree(s) <= d, degree(s) the largest shifted
    degree of s.  Syzygies that generate the kernel give K_d == S_d:
    homogenizing such a c to degree d gives a graded syzygy of degree d of
    the homogenized generators, and those dehomogenize to the alpha * s.
    Each rank is a pivot count of `poly.reduce_into`, fed one degree at a
    time."""
    weights = module.order.weights

    def times(row, alpha):
        return {(slot, mono_mul(exps, alpha)): c for (slot, exps), c in row.terms.items()}

    rows = [Row.of(g) for g in gens]
    degrees = [vector_grading(syz_module, s)[0] for s in syz]
    image, span, domain, dims = {}, {}, 0, []
    for d in range(top + 1):
        for g, shift in zip(rows, syz_module.shifts):
            for alpha in monomials(weights, d - shift):
                domain += 1
                reduce_into(image, times(g, alpha))
        for s, degree in zip(syz, degrees):
            for alpha in monomials(weights, d - degree):
                reduce_into(span, times(s, alpha))
        dims.append((domain - len(image), len(span)))
    return dims


def term_degrees(module, vec):
    return {
        sum(e * w for e, w in zip(exps, module.order.weights)) + shift
        for shift, p in zip(module.shifts, vec) for exps in p.terms
    }


@pytest.mark.parametrize("name", ["ring", "shifted"])
def test_inhomogeneous_syzygies_match_the_kernel_by_linear_algebra(name):
    module = FreeModule(*AMBIENTS[name])
    zero = Row({}, 1, module.rank, module.nvars).vector()
    rng = random.Random(f"syzygies-{name}")
    inhomogeneous = kernels = 0
    for _ in range(16):
        gens = [
            unflatten(module, random_flat(rng, module, rng.randint(2, 3), 2))
            for _ in range(module.rank + rng.randint(1, 2))
        ]
        if rng.random() < 0.25:
            gens.insert(rng.randrange(len(gens) + 1), zero)
        syz_module, syz = syzygies(module, gens)
        # slot i carries the largest degree of gens[i], 0 for a zero generator
        assert syz_module.shifts == tuple(max(term_degrees(module, g), default=0) for g in gens)
        for s in (r.vector() for r in syz):
            assert not vec_is_zero(s)
            total = zero
            for coeff, g in zip(s, gens):
                total = tuple(t + coeff * c for t, c in zip(total, g))
            assert vec_is_zero(total)
        # every d up to max(shift) + 2, and each syzygy at its own degree
        top = max([max(syz_module.shifts) + 2] + [vector_grading(syz_module, s)[0] for s in syz])
        dims = filtered_kernel_dimensions(module, gens, syz_module, syz, top)
        assert [k for k, _ in dims] == [s for _, s in dims]
        inhomogeneous += any(len(term_degrees(module, g)) > 1 for g in gens)
        kernels += dims[-1][0] > 0
    assert inhomogeneous >= 14 and kernels >= 12


def test_a_block_split_refuses_an_inhomogeneous_row():
    # `syzygies` homogenizes before it builds a block split; under one a
    # division by an inhomogeneous row could create terms above the one it
    # reduces, so every entry to the engine refuses such a row
    split = FreeModule(2, (0, 0), MonomialOrder((1, 1)), block_split=1)
    homogeneous, inhomogeneous = (P("x"), P("y")), (P("x^2"), P("y"))
    refused = "a block split takes homogeneous rows only"
    with pytest.raises(ValueError, match=refused):
        buchberger(split, [homogeneous, inhomogeneous])
    gb = buchberger(split, [homogeneous])
    for call in (
        lambda: gb.grow(inhomogeneous),
        lambda: divide(split, inhomogeneous, [homogeneous]),
        lambda: divide(split, homogeneous, [inhomogeneous]),
        lambda: normal_form(split, inhomogeneous, gb),
    ):
        with pytest.raises(ValueError, match=refused):
            call()
    # nothing was taken in, and homogeneous rows of any degrees still are
    assert gb.elements == (homogeneous,)
    multiple = (P("x*y"), P("y^2"))
    assert gb.grow(multiple) is False
    assert vec_is_zero(normal_form(split, multiple, gb))
    assert divide(split, multiple, [homogeneous]) == ([P("y")], (P("0"), P("0")))


# --- free generators: leads in distinct slots ----------------------------------------


FREE_AMBIENTS = {
    "shifted": (3, (1, 0, 1), MonomialOrder((1, 2, 1))),
    "rank4": (2, (0, 2, 1, 1), MonomialOrder((1, 1))),
}


def homogeneous_flat(rng, module, degree, nterms):
    """A random element of one shifted degree as a flat dict ({} when no
    term has that degree)."""
    picked = homogeneous_terms(rng, module, degree, nterms)
    return {t: Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2))) for t in picked}


def free_generator_sets(name, count):
    """Homogeneous generators of mixed degrees whose leads (the largest term
    under `old_term_key`) lie in distinct slots, tails in any slot."""
    module = FreeModule(*FREE_AMBIENTS[name])
    rng = random.Random(f"free-{name}")
    draws = []
    while len(draws) < count:
        size, gens, slots = rng.randint(1, module.rank), [], set()
        while len(gens) < size:
            flat = homogeneous_flat(rng, module, rng.randint(1, 4), rng.randint(1, 4))
            lead = max(flat, key=lambda t: old_term_key(module, t), default=None)
            if lead is not None and lead[0] not in slots:
                slots.add(lead[0])
                gens.append(flat)
        draws.append([unflatten(module, flat) for flat in gens])
    return module, draws


@pytest.fixture
def bases_built(monkeypatch):
    """The module of each `GroebnerBasis` built, `buchberger`'s included."""
    import logderiv.groebner as groebner

    built = []

    class Counting(groebner.GroebnerBasis):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(groebner, "GroebnerBasis", Counting)
    return built


@pytest.mark.parametrize("name", FREE_AMBIENTS)
def test_leads_in_distinct_slots_give_no_syzygies(name, bases_built):
    module, draws = free_generator_sets(name, 40)
    mixed = crossed = 0
    for gens in draws:
        syz_module, syz = syzygies(module, gens)
        assert syz == [] and bases_built == []
        # the image is kept for inhomogeneous columns only
        with pytest.raises(ValueError, match="inhomogeneous input only"):
            syzygies(module, gens, _with_image=True)
        assert syz_module.shifts == tuple(max(term_degrees(module, g)) for g in gens)
        top = max(syz_module.shifts) + 2
        dims = filtered_kernel_dimensions(module, gens, syz_module, syz, top)
        assert dims == [(0, 0)] * (top + 1)
        bases_built.clear()
        mixed += len(set(syz_module.shifts)) > 1
        crossed += any(len({slot for slot, _ in flatten(g)}) > 1 for g in gens)
    assert mixed >= 20 and crossed >= 20


def test_two_leads_in_one_slot_still_give_their_koszul_syzygy(bases_built):
    module = FreeModule(2, (0, 0), MonomialOrder((1, 1)))
    gens = [(P("x"), P("0")), (P("y"), P("0"))]
    syz_module, syz = syzygies(module, gens)
    # a Groebner basis: the lift of its one S-pair, with no block split
    assert not bases_built
    assert syz == [Row.of((P("y"), -P("x")))]
    assert module_equal(syz_module, syz, [(P("y"), -P("x"))])
    # leads in one slot, a tail in the other: independent, and the block
    # split is what finds that out
    bases_built.clear()
    _, syz = syzygies(module, [(P("x"), P("y")), (P("y"), P("0"))])
    assert syz == [] and len(bases_built) == 1


@pytest.fixture
def lifted(monkeypatch):
    """What each `_schreyer_lifts` call returned: the lifts, or None."""
    import logderiv.groebner as groebner

    results = []
    lifts = groebner._schreyer_lifts

    def recording(*args):
        results.append(lifts(*args))
        return results[-1]

    monkeypatch.setattr(groebner, "_schreyer_lifts", recording)
    return results


def lifts_match_the_block_split(monkeypatch, lifted, module, gens) -> bool:
    """Whether `syzygies` took the lifts on gens; either way, it must give
    the module the block split gives (with the lifts refused), with the
    same minimal shifts."""
    import logderiv.groebner as groebner

    lifted.clear()
    syz_module, syz = syzygies(module, gens)
    with monkeypatch.context() as patch:
        patch.setattr(groebner, "_schreyer_lifts", lambda *args: None)
        ref_module, ref = syzygies(module, gens)
    assert syz_module == ref_module
    assert module_equal(syz_module, syz, ref)
    assert (sorted(minimal_generators(syz_module, syz, graded=True)[1])
            == sorted(minimal_generators(syz_module, ref, graded=True)[1]))
    return len(lifted) == 1 and lifted[0] is not None


def seeded_log_modules():
    """(name, D(f)) for the first 100 seed-0 harness instances, the 24
    seed-0 arrangement draws of perfbench's pool (6 planes in 4-space) and
    the free corpus."""
    rng = random.Random(0)
    cases = [(f"harness:{k}", *random_instance(rng)) for k in range(100)]
    rng = random.Random(0)
    cases += [(f"draw:{k}", arrangement(general_position_draw(rng)), GradedContext.standard(4))
              for k in range(24)]
    cases += [(name, arrangement(normals, mults), GradedContext.standard(len(normals[0])))
              for name, (normals, mults, _) in FREE.items()]
    return [(name, LogModule.of(fp, ctx)) for name, fp, ctx in cases]


def test_schreyer_lifts_equal_the_block_split_on_seeded_groebner_bases(monkeypatch, lifted):
    lifted_at = {0: [], 1: []}
    for name, mod in seeded_log_modules():
        module, gens = mod.module, mod.gens
        if _leads_in_distinct_slots([_lead(module, g) for g in gens]):
            continue
        # D(f)'s reduced basis takes the lifts, and so do the minimal
        # generators of its syzygies on every arrangement draw
        assert lifts_match_the_block_split(monkeypatch, lifted, module, gens), name
        lifted_at[0].append(name.split(":")[0])
        syz_module, syz = syzygies(module, gens)
        columns, _ = minimal_generators(syz_module, syz, graded=True)
        if not _leads_in_distinct_slots([_lead(syz_module, c) for c in columns]):
            if lifts_match_the_block_split(monkeypatch, lifted, syz_module, columns):
                lifted_at[1].append(name.split(":")[0])
    assert lifted_at[0] == ["harness"] * 13 + ["draw"] * 24 + ["x2y3(x+y)(x-y)2(x+2y)3"]
    assert lifted_at[1] == ["draw"] * 24


def test_buchberger_reduces_exactly_the_pairs_the_lifts_lift(monkeypatch):
    # one pair rule: on a reduced Groebner basis, each generator is its own
    # remainder, so Buchberger's loop appends them in order and reduces the
    # S-vector of every pair that `_new_pairs` keeps, as the lifts do; a
    # pair is named by its two leads, (slot, exponents) each
    import logderiv.groebner as groebner
    from logderiv.derivmod import FactoredPolynomial
    from logderiv.homog import _homogenize_basis
    from test_derivmod import homogenize_draws

    engine = groebner.GroebnerBasis
    spoly, s_vector = engine._spoly, groebner._s_vector
    reduced, lifted = [], []

    def recording_spoly(self, i, j):
        a, b = self.basis[i], self.basis[j]
        reduced.append(((a.slot, a.exps), (b.slot, b.exps)))
        return spoly(self, i, j)

    def recording_s_vector(a, b, lcm):
        lifted.append(((a.slot, a.exps), (b.slot, b.exps)))
        return s_vector(a, b, lcm)

    for p in homogenize_draws(0, 24):
        mod = LogModule.of(FactoredPolynomial.single(p), GradedContext.standard(3))
        module, rows = _homogenize_basis(mod.module, mod.gens)
        reduced.clear()
        lifted.clear()
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_spoly", recording_spoly)
            assert list(buchberger(module, rows).rows) == rows
        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_s_vector", recording_s_vector)
            syz_module = FreeModule(module.nvars, tuple(vector_degree(module, r) for r in rows),
                                    module.order)
            assert groebner._schreyer_lifts(module, syz_module, rows)
        assert lifted and sorted(reduced) == sorted(lifted)


def test_a_homogeneous_set_that_is_no_groebner_basis_takes_the_block_split(
        monkeypatch, lifted, bases_built):
    # the S-vector y * (x^2 + y^2) - x * (x*y) = y^3 has no lead to divide
    # it, so the lifts stop there; the two are coprime, so their syzygies
    # are the Koszul one
    module = ring(2)
    gens = [(P("x^2 + y^2"),), (P("x*y"),)]
    assert not lifts_match_the_block_split(monkeypatch, lifted, module, gens)
    assert lifted == [None] and bases_built
    syz_module, syz = syzygies(module, gens)
    assert module_equal(syz_module, syz, [(P("x*y"), -P("x^2 + y^2"))])


def test_a_zero_generator_still_gives_its_unit_syzygy(bases_built):
    module = FreeModule(2, (0, 0, 0), MonomialOrder((1, 1)))
    gens = [(P("x"), P("0"), P("0")), (P("0"), P("0"), P("0")), (P("0"), P("y"), P("x"))]
    syz_module, syz = syzygies(module, gens)
    assert bases_built
    assert syz == [Row.unit(1, 3, 2)]
    assert syz_module.shifts == (1, 0, 1)


@pytest.fixture
def split_closes(monkeypatch):
    """Under a block split: the lcm degree of each pair `_close` reduces,
    one list per call, and for each widen in mid-close whether the rebuilt
    heap still holds pairs, and whether each key's first field is the
    degree of its lcm in the new packing."""
    import logderiv.groebner as groebner

    closes, widens, closing = [], [], []
    engine = groebner.GroebnerBasis
    close, spoly, widen = engine._close, engine._spoly, engine._widen

    def recording_close(self, degree=None):
        closing.append(self)
        if self.module.block_split is not None:
            closes.append([])
        try:
            close(self, degree)
        finally:
            closing.pop()

    def recording_spoly(self, i, j):
        if self.module.block_split is not None:
            a, b = self.basis[i], self.basis[j]
            closes[-1].append(self._packing.degree(
                self._packing.term(a.slot, tuple(map(max, a.exps, b.exps)))))
        return spoly(self, i, j)

    def recording_widen(self, new):
        widen(self, new)
        if closing and closing[-1] is self and self.module.block_split is not None:
            widens.append((bool(self._pairs), all(
                d == new.degree(-code) for d, code, _, _ in self._pairs)))

    monkeypatch.setattr(engine, "_close", recording_close)
    monkeypatch.setattr(engine, "_spoly", recording_spoly)
    monkeypatch.setattr(engine, "_widen", recording_widen)
    return closes, widens


def nondecreasing(seq) -> bool:
    return all(a <= b for a, b in zip(seq, seq[1:]))


def test_a_block_split_reduces_its_pairs_by_degree(split_closes):
    # every D(f) kernel of the seeded corpus is a block split with relations
    closes, _ = split_closes
    seeded_log_modules()
    assert len(closes) >= 100 and sum(map(len, closes)) > 500
    assert all(nondecreasing(degrees) for degrees in closes)


def test_a_widen_in_mid_close_keys_the_rebuilt_heap_by_degree(split_closes):
    # the two are no Groebner basis, so their syzygies take the block
    # split, whose first packing holds lcms up to degree 15; rows of degree
    # 8 and up pair past it while pairs are still queued
    closes, widens = split_closes
    module = ring(3)
    f, g = P("3*x*y^3 - 2*x^2*z^2 + 3*z^4", XYZ), P("x^4*y*z + x^3*y^3", XYZ)
    syz_module, syz = syzygies(module, [(f,), (g,)])
    assert widens and all(queued and keyed for queued, keyed in widens)
    assert len(closes) == 1 and nondecreasing(closes[0])
    assert polynomial_gcd(f, g).is_constant()
    assert module_equal(syz_module, syz, [(g, -f)])


@pytest.mark.parametrize("name", ["ring", "shifted"])
def test_sorted_by_lead_gives_the_reduced_basis_order(name):
    module = FreeModule(*AMBIENTS[name])
    rng = random.Random(f"sorted-{name}")
    inhomogeneous = 0
    for _ in range(30):
        gens = [unflatten(module, random_flat(rng, module, rng.randint(1, 3), 2))
                for _ in range(rng.randint(1, 4))]
        rows = list(buchberger(module, gens).rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert sorted_by_lead(module, shuffled) == rows
        inhomogeneous += any(not vector_grading(module, r)[1] for r in rows)
    assert inhomogeneous >= 10


# --- homogenizing elements -----------------------------------------------------------


WEIGHTED = {
    "shifted": (3, (1, 0, 1), MonomialOrder((1, 2, 1))),
    "weighted": (2, (0, 3), MonomialOrder((2, 3))),
}


@pytest.mark.parametrize("name", WEIGHTED)
def test_homogenize_vector_pads_to_the_weighted_degree(name):
    module = FreeModule(*WEIGHTED[name])
    h_module = homogenized(module)
    assert h_module.shifts == module.shifts
    assert h_module.order.weights == module.order.weights + (1,)
    h = Polynomial.variable(module.nvars, module.nvars + 1)
    rng = random.Random(f"homogenize-{name}")
    inhomogeneous = 0
    for _ in range(24):
        vec = unflatten(module, random_flat(rng, module, rng.randint(1, 5), 3))
        degree = vector_grading(module, vec)[0]
        padded = homogenize_vector(module, vec).vector()
        assert term_degrees(h_module, padded) == {degree}
        assert dehomogenize_vector(padded).vector() == vec
        # padding two degrees higher multiplies by h^2
        assert homogenize_vector(module, vec, degree + 2).vector() == tuple(p * h**2 for p in padded)
        with pytest.raises(FiltrationError):
            homogenize_vector(module, vec, degree - 1)
        inhomogeneous += len(term_degrees(module, vec)) > 1
    assert inhomogeneous >= 12
    # the zero vector pads to zero
    padded = homogenize_vector(module, Row({}, 1, module.rank, module.nvars).vector())
    assert padded.vector() == Row({}, 1, h_module.rank, h_module.nvars).vector()


@pytest.mark.parametrize("name", AMBIENTS)
def test_normal_form_is_the_remainder_of_division_by_the_elements(name):
    module = FreeModule(*AMBIENTS[name])
    rng = random.Random(f"normal-form-{name}")
    zeros = 0
    for _ in range(16):
        gens = random_vectors(rng, module, rng.randint(2, 3))
        gb = buchberger(module, gens)
        member = Row({}, 1, module.rank, module.nvars).vector()
        top = max(vector_grading(module, g)[0] for g in gens) + 1
        ring = ring_module(module.nvars, module.order)
        for g in gens:
            if module.block_split is None:
                factor = Polynomial(module.nvars, {
                    random_term(rng, module, 1)[1]: Fraction(rng.choice([-1, 2])) for _ in range(2)
                })
            else:  # a homogeneous member, as a block split takes: each g * factor of degree top
                terms = homogeneous_terms(rng, ring, top - vector_grading(module, g)[0], 2)
                factor = Polynomial(module.nvars, {
                    e: Fraction(rng.choice([-1, 2])) for _, e in terms
                })
            member = tuple(a + p * factor for a, p in zip(member, g))
        other = unflatten(module, random_flat(rng, module, rng.randint(1, 8), 4))
        for vec in (member, other):
            _, remainder = divide(module, vec, gb.elements)
            assert normal_form(module, vec, gb) == remainder
            zeros += vec_is_zero(remainder)
    assert 16 <= zeros < 32  # members reduce to zero, most other vectors do not


@pytest.mark.parametrize("name", AMBIENTS)
def test_normal_form_and_divide_take_rows_vectors_and_mixes(name):
    module = FreeModule(*AMBIENTS[name])
    rng = random.Random(f"row-inputs-{name}")
    for _ in range(8):
        gens = random_vectors(rng, module, rng.randint(2, 3))
        gb = buchberger(module, gens)
        vec = unflatten(module, random_flat(rng, module, rng.randint(1, 8), 4))
        remainder = normal_form(module, vec, gb)
        for divisors in (gens, list(gb.elements)):
            rows = [Row.of(d) for d in divisors]
            mixed = [r if k % 2 else d for k, (d, r) in enumerate(zip(divisors, rows))]
            expected = divide(module, vec, divisors)
            for v in (vec, Row.of(vec)):
                assert normal_form(module, v, gb) == remainder
                for given in (rows, mixed):
                    assert divide(module, v, given) == expected
