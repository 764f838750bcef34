import importlib.util
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from logderiv import poly
from logderiv.poly import (
    Polynomial,
    parse_poly,
    partial_derivative,
    polynomial_gcd,
    squarefree_test,
    u_degree,
)
from logderiv.groebner import (
    Row,
    buchberger,
    intersect,
    module_equal,
    normal_form,
    ring_module,
    syzygies,
    vec_is_zero,
    vector_degree,
    vector_grading,
)
from logderiv.derivmod import (
    FactoredPolynomial,
    GradedContext,
    LogModule,
    _term_preview,
    annihilator_check,
    apply_derivation,
    euler_derivation,
    generalized_log_module,
    log_derivations,
    saito_check,
)
from logderiv.harness import HEAVY_EVERY, random_instance
from test_arrangements import FREE, arrangement, general_position_draw
from test_homog import bind_everywhere

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


def P(text, names=XY):
    return parse_poly(text, names)


def V(*texts, names=XY):
    return tuple(P(t, names) for t in texts)


CTX2 = GradedContext((1, 1), (0, 0))
CTX3W = GradedContext.from_uk((9, 8, 6), 9)


# --- apply -------------------------------------------------------------------

def test_euler_scales_conic():
    f = P("x^2+y^2")
    assert apply_derivation(euler_derivation((1, 1)), f) == 2 * f


def test_rotation_kills_conic():
    assert apply_derivation(V("y", "-x"), P("x^2+y^2")).is_zero()


def test_weighted_euler_on_worked_example():
    f = P("x^2*z+y^3+z^4", XYZ)
    assert apply_derivation(euler_derivation((9, 8, 6)), f) == 24 * f


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_derivation(V("x", "y"), P("x", XYZ))


def test_euler_on_constant():
    assert apply_derivation(euler_derivation((1,)), parse_poly("5", ["x"])).is_zero()


@settings(max_examples=50)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2))
def test_leibniz_rule(c1, c2, e1, e2):
    delta = (P("x*y") * c1, P("x+y^2") * c2)
    g = Polynomial.monomial((e1, e2), 1, 2) + P("x")
    h = Polynomial.monomial((e2, e1), 1, 2) - P("2*y")
    lhs = apply_derivation(delta, g * h)
    rhs = g * apply_derivation(delta, h) + h * apply_derivation(delta, g)
    assert lhs == rhs


# --- log_derivations ----------------------------------------------------------

def test_monomial_factor_modules():
    fp = FactoredPolynomial(((P("x"), 2), (P("y"), 3)))
    gens = generalized_log_module(fp, CTX2)
    dm = CTX2.derivation_module()
    assert module_equal(dm, gens, [V("x^2", "0"), V("0", "y^3")])


def test_conic_log_module_is_saito_basis():
    gens = log_derivations([(P("x^2+y^2"), 1)], CTX2)
    dm = CTX2.derivation_module()
    assert module_equal(dm, gens, [V("x", "y"), V("y", "-x")])


def test_hyperplane_module():
    ctx = GradedContext((1, 1, 1), (0, 0, 0))
    gens = log_derivations([(P("x", XYZ), 1)], ctx)
    dm = ctx.derivation_module()
    expected = [
        V("x", "0", "0", names=XYZ),
        V("0", "1", "0", names=XYZ),
        V("0", "0", "1", names=XYZ),
    ]
    assert module_equal(dm, gens, expected)


def test_single_reduced_factor_matches_log_derivations():
    f = P("x^2+y^2")
    fp = FactoredPolynomial.single(f)
    dm = CTX2.derivation_module()
    assert module_equal(dm, generalized_log_module(fp, CTX2), log_derivations([(f, 1)], CTX2))


def test_common_factor_rejected():
    fp = FactoredPolynomial(((P("x*y"), 1), (P("y"), 1)))
    with pytest.raises(ValueError, match="common factor"):
        generalized_log_module(fp, CTX2)


@pytest.fixture
def gcd_calls(monkeypatch):
    """Calls of `polynomial_gcd` and `squarefree_test`, by counting wrappers
    bound under every logderiv name (squarefree_test's own gcds included)."""
    counts = {"polynomial_gcd": 0, "squarefree_test": 0}
    for name in counts:
        original = getattr(poly, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        bind_everywhere(monkeypatch, original, counted)
    return counts


def test_linear_factors_are_validated_without_gcds(gcd_calls):
    cases = [arrangement(normals, mults) for normals, mults, _ in FREE.values()]
    cases.append(arrangement(general_position_draw(random.Random("validate"))))
    for fp in cases:
        fp.validate()
    assert gcd_calls == {"polynomial_gcd": 0, "squarefree_test": 0}
    # a factor of degree 2 is still tested, and so is every pair it is in
    FactoredPolynomial(((P("x"), 1), (P("x^2+y^2"), 1), (P("y"), 2))).validate()
    assert gcd_calls["squarefree_test"] == 1
    assert gcd_calls["polynomial_gcd"] >= 2


# (factors, names) -> the error text, as the pairwise gcd loop worded it
VALIDATION_ERRORS = {
    "proportional forms": (
        ["x+y", "2*x+2*y"], XY,
        "factors 0 and 1 share the common factor with terms [(0, 1), (1, 0)]"),
    "affine forms": (
        ["x+1", "2*x+2"], XY,
        "factors 0 and 1 share the common factor with terms [(0, 0), (1, 0)]"),
    "A, B, B', A'": (
        ["x+y", "x-2*y+1", "-3*x+6*y-3", "-1/2*x-1/2*y"], XY,
        "factors 0 and 3 share the common factor with terms [(0, 1), (1, 0)]"),
    # (1, 3) is met first by j, (0, 4) first in (i, j) order
    "two proportional pairs": (
        ["x", "y", "x+y", "-2*y", "3*x", "x-y"], XY,
        "factors 0 and 4 share the common factor with terms [(1, 0)]"),
    "a form and a quadric before a linear pair": (
        ["x", "x^2+x*y", "y", "3*y"], XY,
        "factors 0 and 1 share the common factor with terms [(1, 0)]"),
    "two quadrics before a linear pair": (
        ["x^2+y^2", "y", "(x^2+y^2)*(x+y)", "2*y"], XY,
        "factors 0 and 2 share the common factor with terms [(0, 2), (2, 0)]"),
    "a linear pair before two quadrics": (
        ["z", "x^2+y^2", "2*z", "(x^2+y^2)*(x+1)"], XYZ,
        "factors 0 and 2 share the common factor with terms [(0, 0, 1)]"),
    "a square before a linear pair": (
        ["x+y", "2*x+2*y", "x^2+2*x*y+y^2"], XY,
        "factor is not squarefree (repeated part witness has terms [(0, 1), (1, 0)])"),
}


@pytest.mark.parametrize("name", list(VALIDATION_ERRORS))
def test_validation_error_texts(name):
    texts, names, message = VALIDATION_ERRORS[name]
    fp = FactoredPolynomial(tuple((P(t, names), 1) for t in texts))
    with pytest.raises(ValueError) as raised:
        fp.validate()
    assert str(raised.value) == message


def pairwise_gcd_message(fp):
    """validate's reference: a squarefree test of every factor, then a gcd
    of every pair, in (i, j) order; the error text, or None."""
    for f, _ in fp.factors:
        ok, witness = squarefree_test(f)
        if not ok:
            return f"factor is not squarefree (repeated part witness has {_term_preview(witness)})"
    for i, j in combinations(range(len(fp.factors)), 2):
        g = polynomial_gcd(fp.factors[i][0], fp.factors[j][0])
        if not g.is_constant():
            return f"factors {i} and {j} share the common factor with {_term_preview(g)}"
    return None


def test_validation_agrees_with_pairwise_gcds():
    # forms with entries in {-1, 0, 1} and a constant term 0 or 1, scaled,
    # and now and then a product with another factor
    rng = random.Random("validate-linear")
    scales = [Fraction(k) for k in (1, -1, 2, -3)] + [Fraction(1, 2)]
    others = [P(t, XYZ) for t in ("x", "y+z", "x^2+y^2+z^2", "x*y+z^2+1")]

    def factor():
        normal = [rng.choice([-1, 0, 1]) for _ in range(3)]
        terms = {tuple(int(k == i) for k in range(3)): c for i, c in enumerate(normal) if c}
        if terms and rng.random() < 0.3:
            terms[(0, 0, 0)] = 1
        form = Polynomial(3, terms) * rng.choice(scales)
        return form * rng.choice(others) if rng.random() < 0.15 else form

    outcomes = []
    for _ in range(400):
        factors = [f for f in (factor() for _ in range(rng.randint(2, 6))) if not f.is_constant()]
        fp = FactoredPolynomial(tuple((f, 1) for f in factors))
        expected = pairwise_gcd_message(fp)
        try:
            fp.validate()
            got = None
        except ValueError as err:
            got = str(err)
        assert got == expected
        outcomes.append(expected and expected.split()[0])
    assert min(outcomes.count(None), outcomes.count("factors")) >= 100
    assert outcomes.count("factor") >= 5


def test_constant_rejected():
    with pytest.raises(ValueError):
        log_derivations([(P("5"), 1)], CTX2)


def per_factor_log_module(factored, ctx):
    """Reference: D(f) the long way.  Each factor's module is the projection
    onto the first n slots of the syzygies of (df/dx_1, ..., df/dx_n, f^e),
    and the modules are folded by `intersect`."""
    n = ctx.nvars
    dm = ctx.derivation_module()
    ring = ring_module(n, ctx.order())
    module = None
    for f, e in factored.factors:
        columns = [(partial_derivative(f, i),) for i in range(n)] + [(f ** e,)]
        syz = [s.vector() for s in syzygies(ring, columns)[1]]
        gens = [s[:n] for s in syz if not vec_is_zero(s[:n])]
        module = gens if module is None else intersect(dm, module, gens)
    return list(buchberger(dm, module).rows)


def two_factor_harness_draws(count):
    rng = random.Random(7)
    draws = []
    while len(draws) < count:
        factored, ctx = random_instance(rng)
        if len(factored.factors) == 2:
            draws.append((factored, ctx))
    return draws


ROUTE_CASES = {
    **{name: (arrangement(normals, mults), GradedContext.standard(len(normals[0])))
       for name, (normals, mults, _) in FREE.items()},
    **{f"harness-{i}": draw for i, draw in enumerate(two_factor_harness_draws(6))},
    "(x^2+y^3+z)(x*y+z^2+1)": (
        FactoredPolynomial(((P("x^2+y^3+z", XYZ), 1), (P("x*y+z^2+1", XYZ), 1))),
        GradedContext.standard(3),
    ),
    "(x+y^2)(y+z+1)^2(x*z-1)": (
        FactoredPolynomial(((P("x+y^2", XYZ), 1), (P("y+z+1", XYZ), 2), (P("x*z-1", XYZ), 1))),
        GradedContext.standard(3),
    ),
}


@pytest.mark.parametrize("name", ROUTE_CASES)
def test_one_kernel_matches_the_per_factor_intersection_route(name):
    factored, ctx = ROUTE_CASES[name]
    assert generalized_log_module(factored, ctx) == per_factor_log_module(factored, ctx)


def test_f_times_partials_are_members():
    f = P("x^3+y^4")
    fp = FactoredPolynomial.single(f)
    ctx = GradedContext.from_uk((4, 3), 4)
    gens = generalized_log_module(fp, ctx)
    dm = ctx.derivation_module()
    gb = buchberger(dm, gens)
    zero = Polynomial.zero(2)
    for i in range(2):
        vec = tuple(f if j == i else zero for j in range(2))
        assert vec_is_zero(normal_form(dm, vec, gb))


def test_hamiltonian_derivations_are_members():
    from logderiv.poly import partial_derivative

    f = P("x^2*z+y^3+z^4", XYZ)
    ctx = GradedContext((1, 1, 1), (0, 0, 0))
    gens = generalized_log_module(FactoredPolynomial.single(f), ctx)
    dm = ctx.derivation_module()
    gb = buchberger(dm, gens)
    zero = Polynomial.zero(3)
    for i in range(1, 3):
        vec = [zero, zero, zero]
        vec[0] = partial_derivative(f, i)
        vec[i] = -partial_derivative(f, 0)
        assert vec_is_zero(normal_form(dm, tuple(vec), gb))


def test_euler_membership_for_reduced_structures():
    # E(f_i) = d_i f_i lies in <f_i^e> only for e = 1, so Euler membership
    # holds exactly for reduced power structures.
    for f in [P("x*y"), P("x^2+y^2"), P("x^3+x*y^2")]:
        fp = FactoredPolynomial.single(f)
        gens = generalized_log_module(fp, CTX2)
        dm = CTX2.derivation_module()
        gb = buchberger(dm, gens)
        assert vec_is_zero(normal_form(dm, euler_derivation((1, 1)), gb))
    fp = FactoredPolynomial(((P("x"), 2), (P("y"), 3)))
    gens = generalized_log_module(fp, CTX2)
    gb = buchberger(CTX2.derivation_module(), gens)
    assert not vec_is_zero(
        normal_form(CTX2.derivation_module(), euler_derivation((1, 1)), gb)
    )


def test_degree_law_for_homogeneous_pieces():
    # apply(delta, Q) is zero or homogeneous of degree d + j - k
    ctx = GradedContext.from_uk((1, 2), 3)
    q = P("x^4+x^2*y+y^2")
    d = u_degree(q, ctx.u)
    gens = generalized_log_module(FactoredPolynomial.single(q), ctx)
    for g in gens:
        j = vector_degree(ctx.derivation_module(), g)  # raises if inhomogeneous
        val = apply_derivation(g.vector(), q)
        if not val.is_zero():
            assert u_degree(val, ctx.u) == d + j - ctx.k


# --- saito -------------------------------------------------------------------

def test_saito_monomial_basis():
    fp = FactoredPolynomial(((P("x"), 2), (P("y"), 3)))
    cert = saito_check([V("x^2", "0"), V("0", "y^3")], fp)
    assert cert.is_basis and cert.constant == 1


def test_saito_conic_basis():
    fp = FactoredPolynomial.single(P("x^2+y^2"))
    cert = saito_check([V("x", "y"), V("y", "-x")], fp)
    assert cert.is_basis and cert.constant == -1


def test_saito_dependent_columns():
    fp = FactoredPolynomial(((P("x"), 2),))
    cert = saito_check([V("x^2", "0"), V("x^2", "0")], fp)
    assert not cert.is_basis and cert.determinant.is_zero()


def test_saito_rejects_nonmember():
    fp = FactoredPolynomial.single(P("x^2+y^2"))
    with pytest.raises(ValueError, match="not in the module"):
        saito_check([V("1", "0"), V("0", "1")], fp)


def test_saito_basis_spans_computed_module():
    fp = FactoredPolynomial.single(P("x^2+y^2"))
    basis = [V("x", "y"), V("y", "-x")]
    cert = saito_check(basis, fp)
    assert cert.is_basis
    dm = CTX2.derivation_module()
    assert module_equal(dm, basis, generalized_log_module(fp, CTX2))


# --- annihilator ----------------------------------------------------------------

def test_annihilator_conic():
    report = annihilator_check(LogModule.of(FactoredPolynomial.single(P("x^2+y^2")), CTX2))
    assert report["ok"]


def test_annihilator_hyperplane():
    report = annihilator_check(LogModule.of(FactoredPolynomial.single(P("x")), CTX2))
    assert report["ok"]


def test_annihilator_nonreduced():
    fp = FactoredPolynomial(((P("x"), 2), (P("y"), 3)))
    report = annihilator_check(LogModule.of(fp, CTX2))
    assert report["ok"]


def test_annihilator_verdict_is_module_equality_on_the_heavy_draws():
    # the seed-0 draws run_harness checks the annihilator on, and as a
    # negative control each with a factorization of f^2 over D(f)'s basis
    rng = random.Random(0)
    checked = 0
    for index in range(100):
        factored, ctx = random_instance(rng)
        if index % HEAVY_EVERY:
            continue
        ring = ring_module(ctx.nvars, ctx.order())
        gens = generalized_log_module(factored, ctx, validate=False)
        squared = FactoredPolynomial(tuple((f, 2 * e) for f, e in factored.factors))
        for fp, expected in ((factored, True), (squared, False)):
            report = annihilator_check(LogModule(fp, ctx, gens))
            assert all(isinstance(g, Row) and g.rank == 1 for g in report["ideal"])
            assert report["f"] == fp.expand()
            assert report["ok"] == module_equal(ring, report["ideal"], [(report["f"],)])
            assert report["ok"] is expected
        checked += 1
    assert checked == 10


# --- gradedness -------------------------------------------------------------------

def basis_is_homogeneous(gens, ctx):
    """Under a degree-first order a submodule is graded exactly when its
    reduced basis is homogeneous."""
    dm = ctx.derivation_module()
    return all(vector_grading(dm, g)[1] for g in buchberger(dm, gens).elements)


def test_conic_graded_with_balanced_shifts():
    gens = generalized_log_module(FactoredPolynomial.single(P("x^2+y^2")), CTX2)
    assert basis_is_homogeneous(gens, CTX2)


def test_conic_not_graded_with_unbalanced_shifts():
    ctx = GradedContext((1, 1), (0, 1))
    gens = generalized_log_module(FactoredPolynomial.single(P("x^2+y^2")), ctx)
    assert not basis_is_homogeneous(gens, ctx)


def test_monomial_module_graded_for_any_shifts():
    fp = FactoredPolynomial(((P("x"), 2), (P("y"), 3)))
    for v in [(0, 0), (0, 1), (-2, 5)]:
        ctx = GradedContext((1, 1), v)
        gens = generalized_log_module(fp, ctx)
        assert basis_is_homogeneous(gens, ctx), v


def test_derivation_print_parse_round_trip():
    from logderiv.derivmod import format_derivation, parse_derivation

    samples = [
        V("9*x", "8*y"),
        V("x^2+y^2", "-x*y"),
        V("0", "1"),
        V("-1", "3/2*x"),
    ]
    for delta in samples:
        text = format_derivation(delta, XY)
        assert parse_derivation(text, XY) == delta


def test_parse_derivation_rejects_nonlinear_terms():
    from logderiv.derivmod import parse_derivation

    with pytest.raises(ValueError, match="linear"):
        parse_derivation("d_x*d_y", XY)
    with pytest.raises(ValueError, match="linear"):
        parse_derivation("x + d_x", XY)


# --- the final reduction pass of generalized_log_module ---------------------------


def recorded_passes(monkeypatch):
    """The modules derivmod's `buchberger` runs in, recorded as it is called."""
    from logderiv import derivmod

    modules = []
    original = derivmod.buchberger

    def recording(module, gens):
        modules.append(module)
        return original(module, gens)

    monkeypatch.setattr(derivmod, "buchberger", recording)
    return modules


def every_variable_occurs(factored, n):
    return all(any(e[i] for f, _ in factored.factors for e in f.terms) for i in range(n))


def terms_in_order(gens):
    return [[list(p.terms.items()) for p in v] for v in gens]


def test_log_derivations_are_d_f_s_reduced_basis_when_the_orders_agree(monkeypatch):
    # u-homogeneous factors, u + v constant and every variable in a factor:
    # the free arrangements, a 6-plane arrangement in general position and
    # harness draws
    cases = [(arrangement(normals, mults), GradedContext.standard(len(normals[0])))
             for normals, mults, _ in FREE.values()]
    cases.append((arrangement([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                               (1, 2, -1, 3), (-2, 1, 3, 1)]), GradedContext.standard(4)))
    rng = random.Random("same-order")
    while len(cases) < 20:
        factored, ctx = random_instance(rng)
        if every_variable_occurs(factored, ctx.nvars):
            cases.append((factored, ctx))
    for factored, ctx in cases:
        passes = recorded_passes(monkeypatch)
        got = generalized_log_module(factored, ctx)
        assert passes == []
        monkeypatch.undo()
        dm = ctx.derivation_module()
        expected = buchberger(dm, log_derivations(factored.factors, ctx)).elements
        assert terms_in_order(g.vector() for g in got) == terms_in_order(expected)


def test_a_variable_in_no_factor_costs_no_second_pass(monkeypatch):
    # u-homogeneous factors and u + v constant, but some x_i occurs in no
    # factor: column i is zero, the syzygy basis holds the unit e_i, and D(f)'s
    # reduced basis is the same set of rows, sorted under D(f)'s order
    cases = [(FactoredPolynomial.single(P("x^2+z^2", XYZ)), GradedContext.standard(3))]
    rng = random.Random("zero column")
    while len(cases) < 20:
        factored, ctx = random_instance(rng)
        if not every_variable_occurs(factored, ctx.nvars):
            cases.append((factored, ctx))
    moved = 0
    for factored, ctx in cases:
        passes = recorded_passes(monkeypatch)
        got = generalized_log_module(factored, ctx)
        assert passes == []
        monkeypatch.undo()
        dm = ctx.derivation_module()
        syz = log_derivations(factored.factors, ctx)
        expected = list(buchberger(dm, syz).rows)
        assert got == expected
        assert terms_in_order(g.vector() for g in got) == terms_in_order(
            g.vector() for g in expected)
        moved += syz != expected
    assert moved > 0  # the sort does move a unit


PASS_CASES = {
    # x + x^2 is not homogeneous (and y occurs in no factor)
    "x+x^2": (FactoredPolynomial.single(P("x+x^2")), GradedContext.standard(2)),
    # quasi-homogeneous under u = (3, 2), with u + v = (3, 2) not constant
    "u+v": (FactoredPolynomial.single(P("x^2+y^3")), GradedContext((3, 2), (0, 0))),
    "u+v, two factors": (
        FactoredPolynomial(((P("x^2+y^3"), 1), (P("x"), 2))), GradedContext((3, 2), (1, 0))
    ),
    # not quasi-homogeneous for any weights
    "x^2*y+y^3+x": (FactoredPolynomial.single(P("x^2*y+y^3+x")), GradedContext.standard(2)),
}


def test_the_final_pass_runs_where_the_orders_may_differ(monkeypatch):
    changed = 0
    for factored, ctx in PASS_CASES.values():
        dm = ctx.derivation_module()
        passes = recorded_passes(monkeypatch)
        got = generalized_log_module(factored, ctx)
        assert passes == [dm]
        monkeypatch.undo()
        syz = log_derivations(factored.factors, ctx)
        assert got == list(buchberger(dm, syz).rows)
        assert tuple(got) == buchberger(dm, got).rows  # reduced under D(f)'s order
        changed += got != syz
    assert changed >= 2  # the pass does change some of them


# --- D(f)'s inputs from integer terms --------------------------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def homogenize_draws(seed, count):
    """The surfaces of the benchmark's homogenize workload."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up by name
    spec.loader.exec_module(workloads)
    return workloads.homogenize_draws(seed, count)


def fraction_inputs(factors, n):
    """The reference: the columns and relations of `log_derivations` built
    as Fraction Vectors, by `partial_derivative` and powers."""
    zero = Polynomial.zero(n)
    columns = [tuple(partial_derivative(f, i) for f, _ in factors) for i in range(n)]
    relations = [tuple(f ** e if slot == j else zero for slot in range(len(factors)))
                 for j, (f, e) in enumerate(factors)]
    return columns, relations


def test_d_f_s_inputs_are_built_from_integer_terms(monkeypatch):
    from logderiv import derivmod

    rng = random.Random("integer inputs")
    cases = [random_instance(rng) for _ in range(40)]
    cases += [(FactoredPolynomial.single(p), GradedContext.standard(3))
              for p in homogenize_draws(0, 8)]
    cases += [(arrangement(normals, mults), GradedContext.standard(len(normals[0])))
              for normals, mults, _ in FREE.values()]
    factors = [fe for factored, _ in cases for fe in factored.factors]
    # the draws reach what the integer construction scales and multiplies
    assert any(c.denominator == 2 for f, _ in factors for c in f.terms.values())
    assert any(e == 3 for _, e in factors)
    assert any(len(factored.factors) > 1 for factored, _ in cases)

    inputs = []
    syzygies_, raw, init = derivmod.syzygies, Polynomial._raw.__func__, Polynomial.__init__
    made = [0]

    def recording(module, gens, relations=()):
        inputs.append((gens, relations))
        return syzygies_(module, gens, relations)

    def counted_raw(cls, *args):
        made[0] += 1
        return raw(cls, *args)

    def counted_init(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(derivmod, "syzygies", recording)
    monkeypatch.setattr(Polynomial, "_raw", classmethod(counted_raw))
    monkeypatch.setattr(Polynomial, "__init__", counted_init)
    for factored, ctx in cases:
        log_derivations(factored.factors, ctx)
    assert made == [0]  # no Polynomial is made
    monkeypatch.undo()
    for (factored, ctx), (columns, relations) in zip(cases, inputs, strict=True):
        ref_columns, ref_relations = fraction_inputs(factored.factors, ctx.nvars)
        assert columns == [Row.of(c) for c in ref_columns]
        assert relations == [Row.of(r) for r in ref_relations]
