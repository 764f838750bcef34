import random
import sys

import pytest

from logderiv.poly import (
    MonomialOrder,
    NonPositiveWeightError,
    NotQuasiHomogeneous,
    Polynomial,
    parse_poly,
    u_degree,
)
from logderiv import resolution
from logderiv.cli import main
from logderiv.groebner import FreeModule, Row, buchberger, ring_module
from logderiv.derivmod import FactoredPolynomial, GradedContext, LogModule, generalized_log_module
from logderiv.resolution import free_resolution, minimize, pad_with_trivial_pair
from logderiv.harness import random_instance

from test_arrangements import FREE, arrangement
from logderiv.hilbert import (
    HPSeries,
    chi,
    chi_additivity_check,
    dimension_via_pole,
    format_series,
    hp_bruteforce,
    hp_expand,
    hp_free,
    hp_from_basis,
    hp_from_resolution,
    hp_quotient,
    quotient_ring_hp,
    verify_coprime_sum,
    verify_degree_identity,
)

XY = ["x", "y"]


def P(text, names=XY):
    return parse_poly(text, names)


def V(*texts, names=XY):
    return tuple(P(t, names) for t in texts)


CTX2 = GradedContext((1, 1), (0, 0))


# --- free series -------------------------------------------------------------

def test_hp_free_univariate_ring():
    hp = hp_free([0], (1,))
    assert hp.numerator == ((0, 1),)
    assert hp_expand(hp, 0, 5) == {i: 1 for i in range(6)}


def test_hp_free_weighted_ring():
    hp = hp_free([0], (1, 2))
    assert hp_expand(hp, 0, 4) == {0: 1, 1: 1, 2: 2, 3: 2, 4: 3}


def test_hp_free_shifted_sum():
    hp = hp_free([2, -1, 2], (1, 1))
    assert hp.numerator == ((-1, 1), (2, 2))


def test_hp_rejects_nonpositive_weights():
    with pytest.raises(NonPositiveWeightError):
        HPSeries(((0, 1),), (1, -1))


def test_format_series_brackets_a_sum_or_a_negative_numerator():
    assert format_series(HPSeries(((1, 1), (3, -2)), (1,))) == "(-2*t^3 + t)/((1-t))"
    assert format_series(HPSeries(((-1, 3), (0, -1), (4, 1)), (2, 1))) == (
        "(t^4 - 1 + 3*t^-1)/((1-t)(1-t^2))"
    )
    assert format_series(HPSeries(((2, -1),), (1,))) == "(-t^2)/((1-t))"
    assert format_series(HPSeries(((2, 1),), (1,))) == "t^2/((1-t))"
    assert format_series(HPSeries(((0, 1),), (2, 1))) == "1/((1-t)(1-t^2))"
    assert format_series(HPSeries((), (1, 1))) == "0"


# --- series from resolutions ---------------------------------------------------

def test_hp_koszul_ideal():
    mod = ring_module(2, MonomialOrder((1, 1)))
    res = free_resolution(mod, [(P("x"),), (P("y"),)])
    hp = hp_from_resolution(res)
    assert hp.numerator == ((1, 2), (2, -1))
    # dims of <x, y>: 0, then i+1 in degree i >= 1
    assert hp_expand(hp, 0, 6) == {0: 0, **{i: i + 1 for i in range(1, 7)}}


def test_hp_quotient_point():
    hp = quotient_ring_hp([P("x"), P("y")], CTX2)
    assert hp_expand(hp, 0, 5) == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}


def _product_numerator(degrees):
    """Numerator prod(1 - t^d) as sorted (exponent, coefficient) pairs."""
    coeffs = {0: 1}
    for d in degrees:
        out = dict(coeffs)
        for e, c in coeffs.items():
            out[e + d] = out.get(e + d, 0) - c
        coeffs = out
    return tuple(sorted((e, c) for e, c in coeffs.items() if c))


@pytest.mark.parametrize(
    "u, texts, degrees",
    [
        ((1, 1), ("x", "y"), (1, 1)),
        ((2, 1), ("x", "y"), (2, 1)),
        ((1, 1), ("x^2+y^2", "x*y"), (2, 2)),
        ((2, 1), ("x^2", "x+y^2"), (4, 2)),
    ],
    ids=["x,y", "x,y-weighted", "x2+y2,xy", "x2,x+y2-weighted"],
)
def test_complete_intersection_quotient_numerator(u, texts, degrees):
    # S/(f_1, ..., f_c) for a regular sequence: N(t) = prod(1 - t^{deg f_i})
    ctx = GradedContext.from_uk(u, max(u))
    hp = quotient_ring_hp([P(t) for t in texts], ctx)
    assert hp.weights == u
    assert hp.numerator == _product_numerator(degrees)


def test_quotient_numerator_ignores_redundant_generators():
    assert (
        quotient_ring_hp([P("x"), P("y"), P("x+y")], CTX2).numerator
        == quotient_ring_hp([P("x"), P("y")], CTX2).numerator
    )


def test_quotient_by_no_relations_is_the_free_module():
    mod = FreeModule(2, (0, 3), MonomialOrder((1, 2)))
    assert hp_quotient(mod, []) == hp_free((0, 3), (1, 2))


def test_hp_conic_derivation_module():
    gens = generalized_log_module(FactoredPolynomial.single(P("x^2+y^2")), CTX2)
    res = free_resolution(CTX2.derivation_module(), gens)
    hp = hp_from_resolution(res)
    assert hp.numerator == ((1, 2),)
    brute = hp_bruteforce(CTX2.derivation_module(), gens, 0, 10)
    assert hp_expand(hp, 0, 10) == brute


# --- brute force oracle -----------------------------------------------------------

def test_bruteforce_weighted_ring_slices():
    mod = ring_module(2, MonomialOrder((1, 2)))
    one = Polynomial.constant(1, 2)
    dims = hp_bruteforce(mod, [(one,)], 0, 4)
    assert dims == {0: 1, 1: 1, 2: 2, 3: 2, 4: 3}


def test_bruteforce_zero_module():
    mod = ring_module(2, MonomialOrder((1, 1)))
    assert hp_bruteforce(mod, [], 0, 3) == {0: 0, 1: 0, 2: 0, 3: 0}


def test_bruteforce_ideal_xy():
    mod = ring_module(2, MonomialOrder((1, 1)))
    dims = hp_bruteforce(mod, [(P("x"),), (P("y"),)], 0, 5)
    assert dims == {0: 0, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6}


def test_bruteforce_cancels_over_q():
    # x/2 + y/3 and 3x + 2y are proportional over Q, so their S-vector is 0
    # and they are a Groebner basis; x/2 and x/3 + y/5 are not proportional,
    # but share their lead, so they are not one: the oracle refuses them
    # and certifies their reduced basis (x, y)
    mod = ring_module(2, MonomialOrder((1, 1)))
    proportional = [(P("1/2*x + 1/3*y"),), (P("3*x + 2*y"),)]
    independent = [(P("1/2*x"),), (P("1/3*x + 1/5*y"),)]
    assert hp_bruteforce(mod, proportional, 0, 4) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    with pytest.raises(RuntimeError, match="do not meet"):
        hp_bruteforce(mod, independent, 0, 4)
    basis = buchberger(mod, independent).rows
    assert hp_bruteforce(mod, basis, 0, 4) == {0: 0, 1: 2, 2: 3, 3: 4, 4: 5}


def test_bruteforce_column_codes_at_their_bound():
    # Every truncation d_hi is asked for, so each time some multiplier
    # exponent of the least-degree generator reaches the top of the range;
    # slot 0's x^5 and slot 1's unit vector share degree 3 and stay apart.
    mod = FreeModule(3, (-2, 3), MonomialOrder((1, 2, 3)))
    units = [Row.unit(slot, mod.rank, mod.nvars).vector() for slot in (0, 1)]
    expansion = hp_expand(hp_free(mod.shifts, mod.order.weights), -2, 15)
    for d_hi in range(-2, 16):
        dims = hp_bruteforce(mod, units, -2, d_hi)
        assert dims == {d: expansion[d] for d in range(-2, d_hi + 1)}, d_hi


def test_bruteforce_exponent_reaching_the_range_top():
    # <x^7> in k[x, y]: x^d is in degree d's slice, of dimension d - 6 from d = 7
    mod = ring_module(2, MonomialOrder((1, 1)))
    dims = hp_bruteforce(mod, [(P("x^7"),)], 0, 40)
    assert dims == {d: max(0, d - 6) for d in range(41)}


# --- chi ----------------------------------------------------------------------------

def test_chi_shifted_free_line():
    for d in range(-3, 7):
        assert chi(hp_free([d], (1, 2))) == d


def test_chi_of_derivation_ambient_is_v_sum():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.choice([2, 3])
        u = tuple(rng.randint(1, 4) for _ in range(n))
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        assert chi(hp_free(v, u)) == sum(v)


def test_chi_quotient_by_coprime_pair_is_zero():
    rng = random.Random(11)
    cases = [
        (P("x"), P("y"), CTX2),
        (P("x^2+y^2"), P("x*y"), CTX2),
        (P("x^3"), P("y^2"), CTX2),
        (P("x+y"), P("x-y"), CTX2),
        (P("x^2"), P("x+y^2"), GradedContext.from_uk((2, 1), 2)),
    ]
    for f, g, ctx in cases:
        for d in (0, rng.randint(-3, 5)):
            hp = quotient_ring_hp([f, g], ctx)
            shifted = HPSeries.from_dict(
                {e + d: c for e, c in hp.numerator}, hp.weights
            )
            assert chi(shifted) == 0, (f, g, d)


def test_numerator_shift_law():
    # shifting every resolution shift by +d multiplies the numerator by t^d
    gens = generalized_log_module(FactoredPolynomial.single(P("x^2+y^2")), CTX2)
    res = free_resolution(CTX2.derivation_module(), gens)
    hp = hp_from_resolution(res)
    for d in (-2, 1, 4):
        shifted = hp_free([s + d for s in res.shifts(0)], CTX2.u)
        assert shifted.numerator == tuple((e + d, c) for e, c in hp.numerator)


def test_chi_shift_law():
    # numerator t^d * N(t): chi becomes d*N(1) + N'(1)
    hp = hp_free([1, 3], (1, 1))
    n_at_1 = sum(c for _, c in hp.numerator)
    n_prime = chi(hp)
    for d in (-2, 0, 5):
        shifted = HPSeries.from_dict({e + d: c for e, c in hp.numerator}, hp.weights)
        assert chi(shifted) == d * n_at_1 + n_prime


# --- dimension via pole order --------------------------------------------------------

def test_pole_order_full_ring():
    assert dimension_via_pole(hp_free([0], (1, 2, 3))) == 3


def test_pole_order_point():
    assert dimension_via_pole(quotient_ring_hp([P("x"), P("y")], CTX2)) == 0


def test_pole_order_hypersurface():
    hp = quotient_ring_hp([P("x^2+y^2")], CTX2)
    assert dimension_via_pole(hp) == 1


def division_pole_order(hp):
    """Reference: divide the numerator by (t - 1) synthetically until its
    value at t = 1 is nonzero."""
    shift = -hp.min_exponent()
    poly = {e + shift: c for e, c in hp.numerator}
    multiplicity = 0
    while sum(poly.values()) == 0:
        dense = [poly.get(i, 0) for i in range(max(poly) + 1)]
        out, acc = [0] * (len(dense) - 1), 0
        for i in range(len(dense) - 1, 0, -1):
            acc += dense[i]
            out[i - 1] = acc
        poly = {i: c for i, c in enumerate(out) if c}
        multiplicity += 1
    return len(hp.weights) - multiplicity


def test_pole_order_matches_synthetic_division():
    # the quotient_ring_hp series of the harness annihilator checks (every
    # HEAVY_EVERY-th instance of the seed-0 run), and the series of this module
    from logderiv.harness import HEAVY_EVERY, random_instance

    rng = random.Random(0)
    series = []
    for index in range(100):
        fp, ctx = random_instance(rng)
        if index % HEAVY_EVERY == 0:
            series.append(quotient_ring_hp([fp.expand()], ctx))
    assert len(series) == 10
    koszul = free_resolution(ring_module(2, MonomialOrder((1, 1))), [(P("x"),), (P("y"),)])
    conic = generalized_log_module(FactoredPolynomial.single(P("x^2+y^2")), CTX2)
    series += [
        hp_free([0], (1,)),
        hp_free([0], (1, 2)),
        hp_free([0], (1, 2, 3)),
        hp_free([2, -1, 2], (1, 1)),
        hp_free([1, 3], (1, 1)),
        hp_from_resolution(koszul),
        hp_from_resolution(free_resolution(CTX2.derivation_module(), conic)),
        hp_quotient(FreeModule(2, (0, 3), MonomialOrder((1, 2))), []),
        quotient_ring_hp([P("x"), P("y")], CTX2),
        quotient_ring_hp([P("x"), P("y"), P("x+y")], CTX2),
        quotient_ring_hp([P("x^2+y^2")], CTX2),
        quotient_ring_hp([P("x^2+y^2"), P("x*y")], CTX2),
        quotient_ring_hp([P("x^3"), P("y^2")], CTX2),
        quotient_ring_hp([P("x^2"), P("x+y^2")], GradedContext.from_uk((2, 1), 2)),
    ]
    series += [
        HPSeries.from_dict({e + d: c for e, c in hp.numerator}, hp.weights)
        for hp in list(series)
        for d in (-3, 2)
    ]
    for hp in series:
        assert dimension_via_pole(hp) == division_pole_order(hp), hp


@pytest.mark.parametrize(
    "hp",
    [hp_free([], (1, 1)), HPSeries(((0, 0), (2, 0)), (1, 1))],
    ids=["empty", "zero-coefficients"],
)
def test_pole_order_of_the_zero_series_is_refused(hp):
    with pytest.raises(ValueError, match="zero series"):
        dimension_via_pole(hp)


# --- verification operations -----------------------------------------------------------

def test_verify_degree_identity_monomial():
    fp = FactoredPolynomial(((P("x"), 2), (P("y"), 3)))
    ctx = GradedContext.from_uk((2, 1), 3)
    report = verify_degree_identity(fp, ctx)
    assert report["ok"]
    assert report["expected"] == 2 * 2 + 3 * 1 + (3 - 2) + (3 - 1)


def test_verify_degree_identity_conic():
    report = verify_degree_identity(FactoredPolynomial.single(P("x^2+y^2")), CTX2)
    assert report["ok"]
    assert report["expected"] == 2
    assert sorted(report["shifts"][0]) == [1, 1]


def test_verify_degree_identity_constant():
    fp = FactoredPolynomial(())
    ctx = GradedContext.from_uk((1, 2), 2)
    report = verify_degree_identity(fp, ctx)
    assert report["ok"]
    assert report["chi"] == ctx.v_sum == 1


def test_verify_degree_identity_reads_deg_f_off_the_factors():
    # sum(e_j * u_degree(f_j)) against the degree of the expanded product,
    # on the free arrangements and on harness draws
    from test_arrangements import FREE, arrangement

    cases = [(arrangement(normals, mults), GradedContext.standard(len(normals[0])))
             for normals, mults, _ in FREE.values()]
    rng = random.Random("degree-of-f")
    cases += [random_instance(rng) for _ in range(12)]
    for fp, ctx in cases:
        report = verify_degree_identity(fp, ctx, with_oracle=False)
        assert report["degree"] == u_degree(fp.expand(), ctx.u)
        assert report["ok"]


def test_verify_degree_identity_rejects_a_factor_that_is_not_quasi_homogeneous():
    fp = FactoredPolynomial(((P("x^2+y^2"), 1), (P("x+y^2"), 2)))
    with pytest.raises(NotQuasiHomogeneous):
        u_degree(fp.expand(), CTX2.u)
    with pytest.raises(NotQuasiHomogeneous):
        verify_degree_identity(fp, CTX2, with_oracle=False)


def test_verify_degree_identity_needs_constraint():
    ctx = GradedContext((1, 1), (0, 1))
    with pytest.raises(ValueError):
        verify_degree_identity(FactoredPolynomial.single(P("x^2+y^2")), ctx)


def test_verify_coprime_sum_powers():
    f1 = FactoredPolynomial(((P("x"), 2),))
    f2 = FactoredPolynomial(((P("y"), 3),))
    report = verify_coprime_sum(f1, f2, CTX2)
    assert report["ok"] and report["chi"] == 0


def test_verify_coprime_sum_rejects_common_factor():
    f1 = FactoredPolynomial.single(P("x*y"))
    f2 = FactoredPolynomial.single(P("y"))
    with pytest.raises(ValueError):
        verify_coprime_sum(f1, f2, CTX2)


def test_verify_coprime_sum_linear_forms():
    f1 = FactoredPolynomial.single(P("x+y"))
    f2 = FactoredPolynomial.single(P("x-y"))
    for v in [(0, 0), (1, 1)]:
        ctx = GradedContext((1, 1), v)
        report = verify_coprime_sum(f1, f2, ctx)
        assert report["ok"] and report["chi"] == sum(v)


def test_chi_additivity_principal_inclusion():
    # M = <Q d_1> inside L = <d_1>: chi(L/M) = v_1 - (v_1 + deg Q)
    q = P("x^2+y^2")
    ctx = GradedContext((1, 1), (3, 3))
    zero = Polynomial.zero(2)
    one = Polynomial.constant(1, 2)
    report = chi_additivity_check([(q, zero)], [(one, zero)], ctx)
    assert report["ok"]
    assert report["chi_total"] == 3
    assert report["chi_sub"] == 5
    assert report["chi_quotient"] == -2


def test_chi_additivity_equal_modules():
    gens = [V("x", "y"), V("y", "-x")]
    report = chi_additivity_check(gens, gens, CTX2)
    assert report["ok"] and report["chi_quotient"] == 0


def test_chi_additivity_rejects_nonsubmodule():
    with pytest.raises(ValueError):
        chi_additivity_check([V("1", "0")], [V("x", "0")], CTX2)


def test_intersection_sum_additivity_identity():
    # chi(D(f1) ∩ D(f2)) = chi(D(f1)) + chi(D(f2)) - chi(D(f1) + D(f2))
    from logderiv.groebner import buchberger, intersect

    f1 = FactoredPolynomial.single(P("x^2+y^2"))
    f2 = FactoredPolynomial.single(P("x*y"))
    dm = CTX2.derivation_module()
    g1 = generalized_log_module(f1, CTX2)
    g2 = generalized_log_module(f2, CTX2)

    def chi_of(gens):
        canonical = list(buchberger(dm, gens).elements)
        return chi(hp_from_resolution(free_resolution(dm, canonical)))

    lhs = chi_of(intersect(dm, g1, g2))
    assert lhs == chi_of(g1) + chi_of(g2) - chi_of(g1 + g2)


def test_chi_independent_of_resolution_choice():
    gens = generalized_log_module(FactoredPolynomial.single(P("x^2+y^2")), CTX2)
    dm = CTX2.derivation_module()
    res = free_resolution(dm, gens)
    padded = pad_with_trivial_pair(res, 1, 5)
    f = P("x^2+y^2")
    zero = Polynomial.zero(2)
    redundant = free_resolution(dm, gens + [(f, zero)])
    values = {
        chi(hp_from_resolution(r)) for r in (res, padded, redundant, minimize(res))
    }
    assert values == {2}


# --- series from lead terms, with no resolution ---------------------------------

def test_lead_series_equals_resolution_series_on_harness_draws():
    rng = random.Random(0)
    for _ in range(100):
        mod = LogModule.of(*random_instance(rng))
        assert hp_from_basis(mod.module, mod.gens) == hp_from_resolution(mod.resolution)


@pytest.mark.parametrize("name", sorted(FREE))
def test_lead_series_equals_resolution_series_on_free_arrangements(name):
    normals, mults, _ = FREE[name]
    mod = LogModule.of(arrangement(normals, mults), GradedContext.standard(len(normals[0])))
    assert hp_from_basis(mod.module, mod.gens) == hp_from_resolution(mod.resolution)


QUOTIENT_CASES = [
    ((1, 1), ("x", "y")),
    ((2, 1), ("x", "y")),
    ((1, 1), ("x^2+y^2", "x*y")),
    ((2, 1), ("x^2", "x+y^2")),
    ((1, 1), ("x", "y", "x+y")),
    ((1, 1), ("x^3", "y^2")),
    ((1, 1), ("x+y", "x-y")),
    ((1, 1), ("x^2+y^2",)),
]


@pytest.mark.parametrize("u, texts", QUOTIENT_CASES)
def test_hp_quotient_equals_the_resolution_route(u, texts):
    ctx = GradedContext.from_uk(u, max(u))
    ring = ring_module(ctx.nvars, ctx.order())
    relations = [(P(t),) for t in texts]
    coeffs = hp_free(ring.shifts, u).numerator_dict()
    for e, c in hp_from_resolution(free_resolution(ring, relations)).numerator:
        coeffs[e] = coeffs.get(e, 0) - c
    assert quotient_ring_hp([P(t) for t in texts], ctx) == HPSeries.from_dict(coeffs, u)


@pytest.fixture
def resolutions(monkeypatch):
    """The calls of free_resolution, counted under every logderiv name bound
    to it (a name bound by `from ... import` is a binding of its own)."""
    calls = []
    original = resolution.free_resolution

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "logderiv" or name.startswith("logderiv."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def _hilbert_command():
    assert main(["hilbert", "x^2+y^2", "--vars", "x,y", "--format", "json"]) == 0


SERIES_ONLY = {
    "quotient_ring_hp": lambda: quotient_ring_hp([P("x^2+y^2"), P("x*y")], CTX2),
    "verify_coprime_sum": lambda: verify_coprime_sum(
        FactoredPolynomial.single(P("x+y")), FactoredPolynomial.single(P("x-y")), CTX2),
    "chi_additivity_check": lambda: chi_additivity_check(
        [V("x^2+y^2", "0")], [V("1", "0")], GradedContext((1, 1), (3, 3))),
    "logderiv hilbert": _hilbert_command,
}


@pytest.mark.parametrize("name", sorted(SERIES_ONLY))
def test_series_only_paths_build_no_resolution(name, resolutions):
    SERIES_ONLY[name]()
    assert resolutions == []


def test_the_resolution_counter_sees_a_resolution(resolutions):
    LogModule.of(FactoredPolynomial.single(P("x^2+y^2")), CTX2).resolution
    assert len(resolutions) == 1


def test_hp_quotient_refuses_an_inhomogeneous_relation():
    ring = ring_module(2, MonomialOrder((1, 1)))
    with pytest.raises(ValueError, match="homogeneous relations"):
        hp_quotient(ring, [(P("x^2+y"),)])
    # x and x + x^2 generate <x>, whose reduced basis is homogeneous, but
    # the relation x + x^2 is not: the relations themselves are checked
    with pytest.raises(ValueError, match="homogeneous relations"):
        hp_quotient(ring, [(P("x"),), (P("x+x^2"),)])


def test_hp_from_basis_refuses_an_inhomogeneous_row_and_a_block_split():
    ring = ring_module(2, MonomialOrder((1, 1)))
    with pytest.raises(ValueError, match="homogeneous basis"):
        hp_from_basis(ring, [(P("x^2+y"),)])
    split = FreeModule(2, (0, 0), MonomialOrder((1, 1)), block_split=1)
    with pytest.raises(ValueError, match="block split"):
        hp_from_basis(split, [(P("x"), P("0"))])
