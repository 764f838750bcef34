import random
from fractions import Fraction

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
)
from logderiv.groebner import (
    FreeModule,
    GroebnerBasis,
    _divide,
    _Packing,
    _Prepared,
    buchberger,
    dehomogenize_vector,
    divide,
    homogenize_vector,
    homogenized,
    intersect,
    module_equal,
    module_quotient,
    normal_form,
    ring_module,
    syzygies,
    vec_is_zero,
    vector_degree,
    vector_grading,
)

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
            _, _, rem = _divide(gb._spoly(i, j), basis, gb._packing.divmask)
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
        total = mod.zero_vector()
        for coeff, g in zip(s, gens):
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
        vec = list(module.zero_vector())
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
                        vec = list(module.zero_vector())
                        vec[slot] = Polynomial.monomial(
                            mono_lcm(next(iter(p.terms)), next(iter(q.terms))), 1, module.nvars
                        )
                        expected.append(tuple(vec))
        out = intersect(module, gens_a, gens_b)
        assert module_equal(module, out, expected)
        assert out == list(buchberger(module, out).elements)  # already reduced
        nonzero += bool(out)
    assert nonzero >= 6


# --- quotient ------------------------------------------------------------------------


def test_module_quotient_principal():
    mod = ring(2)
    out = module_quotient(mod, [(P("x^2"),)], [(P("x"),)])
    assert module_equal(mod, [(q,) for q in out], [(P("x"),)])


def test_module_quotient_by_itself_is_unit():
    mod = FreeModule(2, (0, 0), MonomialOrder((1, 1)))
    gens = [(P("x"), P("y")), (P("y"), P("0"))]
    out = module_quotient(mod, gens, gens)
    assert module_equal(ring(2), [(q,) for q in out], [(P("1"),)])


def test_annihilator_of_conic_quotient():
    # (D(f) : D) for f = x^2+y^2, with D(f) given by the Saito basis.
    mod = FreeModule(2, (0, 0), MonomialOrder((1, 1)))
    dfgens = [(P("x"), P("y")), (P("y"), -P("x"))]
    units = [mod.unit_vector(0), mod.unit_vector(1)]
    out = module_quotient(mod, dfgens, units)
    assert module_equal(ring(2), [(q,) for q in out], [(P("x^2+y^2"),)])


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
            assert module_equal(ring(nvars), [(q,) for q in colon], [(exact_div(b, ours),)])
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
    (quotient,), remainder = divide(module, (q,), [(h,)])
    assert vec_is_zero(remainder)
    return monic(quotient)


def test_gcd_matches_the_colon_ideal_on_harness_and_arrangement_pairs(monkeypatch):
    # every gcd the seed-0 draws of 100 harness instances ask for (their
    # factor pairs and squarefree-derivative pairs, rejected draws too),
    # and every pair of planes of the 8-plane generic arrangement
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
# in: a ring, a shifted module and the block-split module `syzygies` and
# `intersect` build.  Repeated shifts make terms tie up to the slot.
AMBIENTS = {
    "ring": (3, (0,), MonomialOrder((1, 1, 1))),
    "shifted": (3, (1, 0, 1), MonomialOrder((1, 2, 1))),
    "block_split": (2, (0, 0, 1, 1, 2), MonomialOrder((1, 1)), 2),
}


def random_term(rng, module, max_exp):
    slot = rng.randrange(module.rank)
    return (slot, tuple(rng.randint(0, max_exp) for _ in range(module.nvars)))


def random_flat(rng, module, nterms, max_exp, coeffs=(-2, -1, 1, 2)):
    return {
        random_term(rng, module, max_exp): Fraction(rng.choice(coeffs))
        for _ in range(nterms)
    }


def term_degree(module, term):
    slot, exps = term
    return sum(e * w for e, w in zip(exps, module.order.weights)) + module.shifts[slot]


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
        scale, quotients, remainder = _divide(
            row, prepared, packing.divmask, want_quotients=True
        )
        assert [unpacked_quotient(packing, q, scale) for q in quotients] == ref_q
        assert unpacked(packing, remainder, scale) == ref_rem
        assert list(unpacked(packing, remainder, scale)) == list(ref_rem)
        assert _divide(row, prepared, packing.divmask) == (scale, [], remainder)
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
    scale, quotients, remainder = _divide(row, prepared, packing.divmask, want_quotients=True)
    assert (scale, quotients) == (1, [{0: 1}, {0: 1}])
    assert unpacked(packing, remainder, 1) == {(0, (1, 0, 1)): -1}
    assert reference_divide(module, flat, [b1, b2]) == (
        [unpacked_quotient(packing, q, 1) for q in quotients], unpacked(packing, remainder, 1)
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
    for packing in (fitting, fitting.wider()):
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
                    _, _, rem = _divide(gb._spoly(i, j), basis, gb._packing.divmask)
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
    for c in syz:
        assert not vec_is_zero(c)
        total = module.zero_vector()
        for coeff, g in zip(c, gens):
            total = tuple(t + coeff * p for t, p in zip(total, g))
        assert vec_is_zero(total)


# --- syzygies of inhomogeneous generators -----------------------------------------


def block_elimination_syzygies(module, gens, degrees):
    """Reference: eliminate the ambient block straight from the
    inhomogeneous generators (g_i, e_i), without homogenizing them first."""
    rank = module.rank
    ext = FreeModule(module.nvars, module.shifts + degrees, module.order, block_split=rank)
    units = FreeModule(module.nvars, degrees, module.order)
    gb = buchberger(ext, [tuple(g) + units.unit_vector(i) for i, g in enumerate(gens)])
    return [e[rank:] for e in gb.elements if vec_is_zero(e[:rank])]


def term_degrees(module, vec):
    return {
        sum(e * w for e, w in zip(exps, module.order.weights)) + shift
        for shift, p in zip(module.shifts, vec) for exps in p.terms
    }


# The reference sets the exponent cap: at cap 2 every ring draw takes at
# most about a second by block elimination, but draw 12 of the shifted
# ambient's stream takes over a minute there (and under a second by
# `syzygies`), so the shifted draws keep cap 1.
@pytest.mark.parametrize("name, max_exp", [("ring", 2), ("shifted", 1)], ids=["ring", "shifted"])
def test_inhomogeneous_syzygies_match_block_elimination(name, max_exp):
    module = FreeModule(*AMBIENTS[name])
    rng = random.Random(f"syzygies-{name}")
    inhomogeneous = 0
    for _ in range(16):
        gens = [
            unflatten(module, random_flat(rng, module, rng.randint(2, 3), max_exp))
            for _ in range(module.rank + rng.randint(1, 2))
        ]
        if rng.random() < 0.25:
            gens.insert(rng.randrange(len(gens) + 1), module.zero_vector())
        syz_module, syz = syzygies(module, gens)
        # slot i carries the largest degree of gens[i], 0 for a zero generator
        assert syz_module.shifts == tuple(max(term_degrees(module, g), default=0) for g in gens)
        for s in syz:
            assert not vec_is_zero(s)
            total = module.zero_vector()
            for coeff, g in zip(s, gens):
                total = tuple(t + coeff * c for t, c in zip(total, g))
            assert vec_is_zero(total)
        reference = block_elimination_syzygies(module, gens, syz_module.shifts)
        assert module_equal(syz_module, syz, reference)
        inhomogeneous += any(len(term_degrees(module, g)) > 1 for g in gens)
    assert inhomogeneous >= 14


def test_a_lower_block_tail_past_the_field_capacity_widens_the_fields(monkeypatch):
    # Under a block split an element's lower-block tail can sit above its
    # lead, and it grows with each reduction by such an element.  Degree 6
    # gets 4-bit fields (exponents up to 15): (x*y^5 + z, 0) reduced by
    # (x, y^6) gives (z, -y^11), and dividing (y^5*z, 0) by that creates
    # (0, y^16).  The eliminated part {a*y^6 : (a, b, c) a syzygy of
    # (x, x*y^5 + z, y^5*z)} is checked against `syzygies`, which
    # homogenizes instead.
    import logderiv.groebner as groebner

    raised = []
    division = groebner._divide

    def recording(*args, **kwargs):
        try:
            return division(*args, **kwargs)
        except groebner.FieldOverflow:
            raised.append(args[0])
            raise

    monkeypatch.setattr(groebner, "_divide", recording)
    module = ring(3)
    gs = [P("x", XYZ), P("x*y^5 + z", XYZ), P("y^5*z", XYZ)]
    tails = [P("y^6", XYZ), P("0", XYZ), P("0", XYZ)]
    ext = FreeModule(3, (0, 0), module.order, block_split=1)
    gb = buchberger(ext, list(zip(gs, tails)))
    assert raised and _Packing(ext, 6).width == 4 < gb._packing.width
    eliminated = [(e[1],) for e in gb.elements if e[0].is_zero()]
    _, syz = syzygies(module, [(g,) for g in gs])
    expected = [(sum((a * t for a, t in zip(c, tails)), P("0", XYZ)),) for c in syz]
    assert eliminated and module_equal(module, eliminated, expected)


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
        padded = homogenize_vector(module, vec)
        assert term_degrees(h_module, padded) == {degree}
        assert dehomogenize_vector(padded) == vec
        # padding two degrees higher multiplies by h^2
        assert homogenize_vector(module, vec, degree + 2) == tuple(p * h**2 for p in padded)
        with pytest.raises(FiltrationError):
            homogenize_vector(module, vec, degree - 1)
        inhomogeneous += len(term_degrees(module, vec)) > 1
    assert inhomogeneous >= 12
    # the zero vector pads to zero
    assert homogenize_vector(module, module.zero_vector()) == h_module.zero_vector()


@pytest.mark.parametrize("name", AMBIENTS)
def test_normal_form_is_the_remainder_of_division_by_the_elements(name):
    module = FreeModule(*AMBIENTS[name])
    rng = random.Random(f"normal-form-{name}")
    zeros = 0
    for _ in range(16):
        gens = random_vectors(rng, module, rng.randint(2, 3))
        gb = buchberger(module, gens)
        member = module.zero_vector()
        for g in gens:
            factor = Polynomial(module.nvars, {
                random_term(rng, module, 1)[1]: Fraction(rng.choice([-1, 2])) for _ in range(2)
            })
            member = tuple(a + p * factor for a, p in zip(member, g))
        other = unflatten(module, random_flat(rng, module, rng.randint(1, 8), 4))
        for vec in (member, other):
            _, remainder = divide(module, vec, gb.elements)
            assert normal_form(module, vec, gb) == remainder
            zeros += vec_is_zero(remainder)
    assert 16 <= zeros < 32  # members reduce to zero, most other vectors do not
