"""The slice oracle's certificate: lead-term bounds that meet on the Groebner
bases it is handed.

`hilbert.hp_bruteforce` proves each slice dimension by L_d = N_d - K_d: the
rows less the syzygies' distinct Schreyer leads from above, and the
generators' distinct leads from below.  Its generators must form a Groebner
basis; then their syzygies are their S-pair lifts and the two bounds meet.
Generators whose leads lie in distinct slots need neither bound: their rows
are independent, and the rank is the row count N_d.  These tests hold it
to a reference elimination kept here, degree by degree, on reduced bases
and on the raw generating sets they come from, which it must refuse where
their leads fall short of the rank.  They check that generators with leads
in distinct slots reach no lead series and no syzygies, that a wrong or a
missing syzygy is refused (a lift short of a quotient term, each lift
dropped in turn), and the fact the bounds rest on: leads commute with
monomial multiplication.
"""

import ast
import json
import random
from operator import add
from pathlib import Path

import pytest

from logderiv import hilbert
from logderiv.groebner import (
    FreeModule,
    Row,
    _lead,
    as_row,
    buchberger,
    combination,
    ring_module,
    vector_degree,
)
from logderiv.harness import run_harness
from logderiv.hilbert import hp_bruteforce
from logderiv.poly import MonomialOrder, Polynomial, parse_poly, reduce_into

from test_golden_cli import run_example

EIGHT_PLANE = Path(__file__).parent / "golden" / "eight_plane.json"
XY = ["x", "y"]


def P(text):
    return parse_poly(text, XY)


# --- random homogeneous generator sets -------------------------------------------

AMBIENTS = [
    ((1, 1), (0,)),
    ((1, 2), (0, 1)),
    ((1, 2, 3), (-1, 2)),
    ((2, 1, 1), (0, 1, -2)),
    ((1, 2, 3), (1, 0, 3)),
]


def monomials(u, d):
    if d < 0:
        return []
    if len(u) == 1:
        return [(d // u[0],)] if d % u[0] == 0 else []
    return [(e,) + rest for e in range(d // u[0] + 1) for rest in monomials(u[1:], d - e * u[0])]


def eliminate(module, gens, slices):
    """Reference ranks by exact fraction-free elimination: the rows
    alpha * g of each degree in slices, on the Rows' integer (slot,
    exponents) terms, reduced by `poly.reduce_into`; the rank over Q is the
    number of pivots."""
    u = module.order.weights
    gens = [as_row(g) for g in gens]
    degrees = [vector_degree(module, g) for g in gens]
    dims = {}
    for d in slices:
        pivots = {}
        for g, dg in zip(gens, degrees):
            for alpha in monomials(u, d - dg):
                reduce_into(pivots, {(slot, tuple(map(add, exps, alpha))): c
                                     for (slot, exps), c in g.terms.items()})
        dims[d] = len(pivots)
    return dims


def distinct_leads(module, gens, slices):
    """Reference lower bounds: the number of distinct leads alpha * lead(g)
    of the rows of each degree in slices."""
    u = module.order.weights
    leads = [(vector_degree(module, g), _lead(module, as_row(g))) for g in gens]
    return {d: len({(slot, tuple(map(add, exps, alpha)))
                    for dg, (slot, exps) in leads for alpha in monomials(u, d - dg)})
            for d in slices}


def random_element(rng, module, degree, terms=3):
    """A homogeneous Row of the given shifted degree, or None when the
    ambient has no term of that degree."""
    u, shifts = module.order.weights, module.shifts
    pool = [(slot, m) for slot, s in enumerate(shifts) for m in monomials(u, degree - s)]
    if not pool:
        return None
    picked = rng.sample(pool, min(terms, len(pool)))
    coeffs = {t: rng.choice([-3, -2, -1, 1, 2, 5]) for t in picked}
    return Row.lowest(coeffs, rng.choice([1, 2, 3]), module.rank, module.nvars)


def scaled(row, num, den):
    """num/den times row."""
    return Row.lowest({t: num * c for t, c in row.terms.items()}, den * row.den,
                      row.rank, row.nvars)


def times(row, alpha):
    """x^alpha times row, by the library's one linear combination."""
    return combination(Row({(0, alpha): 1}, 1, 1, row.nvars), [row])


def generator_sets(seed, count):
    """(module, gens) draws: random homogeneous generators with redundant
    sums, proportional copies and repeats mixed in."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        u, shifts = rng.choice(AMBIENTS)
        module = FreeModule(len(u), shifts, MonomialOrder(u))
        gens = []
        for _ in range(rng.randint(1, 4)):
            g = random_element(rng, module, rng.randint(min(shifts), min(shifts) + 4),
                               rng.randint(1, 3))
            if g is not None:
                gens.append(g)
        if not gens:
            continue
        a = rng.choice(gens)
        gens.append(scaled(a, rng.choice([-2, 3]), rng.choice([1, 7])))
        if len(gens) > 2:
            b, c = rng.sample(gens, 2)
            gens.append(c)
            db, dc = (vector_degree(module, g) for g in (b, c))
            top = max(db, dc) + rng.randint(0, 2)
            lifts = monomials(u, top - db), monomials(u, top - dc)
            if all(lifts):
                alpha, beta = (rng.choice(m) for m in lifts)
                total = combination(Row({(0, alpha): 1, (1, beta): -1}, 1, 2, len(u)), [b, c])
                if total.terms:
                    gens.append(total)
        rng.shuffle(gens)
        draws.append((module, gens))
    return draws


def slice_range(module, gens):
    degrees = [vector_degree(module, g) for g in gens]
    return min(degrees + [0]), max(degrees) + 4


def test_certificate_equals_the_elimination_on_seeded_generator_sets():
    short = 0
    for module, gens in generator_sets("slice-oracle", 40):
        lo, hi = slice_range(module, gens)
        slices = range(lo, hi + 1)
        expected = eliminate(module, gens, slices)
        # the reduced basis spans what the raw set does
        assert hp_bruteforce(module, buchberger(module, gens).rows, lo, hi) == expected
        if distinct_leads(module, gens, slices) == expected:
            assert hp_bruteforce(module, gens, lo, hi) == expected
        else:
            # a raw set that is not a Groebner basis through hi leaves its
            # leads short of the rank, and the bounds apart
            short += 1
            with pytest.raises(RuntimeError, match="do not meet"):
                hp_bruteforce(module, gens, lo, hi)
    assert short == 13


def test_groebner_bases_leave_no_degree_open():
    # the lower bound alone is the rank on a reduced basis (Bayer &
    # Stillman 1992): the fact the oracle's contract rests on
    for module, gens in generator_sets("slice-oracle", 40):
        lo, hi = slice_range(module, gens)
        slices = range(lo, hi + 1)
        basis = buchberger(module, gens).rows
        assert distinct_leads(module, basis, slices) == eliminate(module, gens, slices)


def free_generator_sets(seed, count):
    """(module, gens) draws whose leads, the engine's, lie in distinct
    slots: tails in any slot, degrees mixed."""
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        u, shifts = rng.choice(AMBIENTS)
        module = FreeModule(len(u), shifts, MonomialOrder(u))
        gens, slots, size = [], set(), rng.randint(1, module.rank)
        for _ in range(4 * size):
            if len(gens) == size:
                break
            g = random_element(rng, module, rng.randint(min(shifts), min(shifts) + 4),
                               rng.randint(1, 3))
            if g is None:
                continue
            slot = buchberger(module, [g]).basis[0].slot
            if slot not in slots:
                slots.add(slot)
                gens.append(g)
        if gens:
            draws.append((module, gens))
    return draws


def test_leads_in_distinct_slots_need_no_lead_series_and_no_syzygies(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("called on generators with leads in distinct slots")

    monkeypatch.setattr(hilbert, "syzygies", refused)
    monkeypatch.setattr(hilbert, "_lead_series", refused)
    draws = free_generator_sets("free-leads", 40)
    for module, gens in draws:
        lo, hi = slice_range(module, gens)
        assert hp_bruteforce(module, gens, lo, hi) == eliminate(module, gens, range(lo, hi + 1))
    assert sum(len(gens) > 1 for _, gens in draws) >= 12
    assert sum(any(len({slot for slot, _ in g.terms}) > 1 for g in gens)
               for _, gens in draws) >= 12


def test_certificate_equals_the_elimination_on_harness_calls(monkeypatch):
    calls = []
    certified = hilbert.hp_bruteforce

    def recording(module, gens, lo, hi):
        dims = certified(module, gens, lo, hi)
        calls.append((module, list(gens), lo, hi, dims))
        return dims

    monkeypatch.setattr(hilbert, "hp_bruteforce", recording)
    assert run_harness(30, seed=0)["ok"]
    assert len(calls) == 30
    for module, gens, lo, hi, dims in calls:
        assert dims == eliminate(module, gens, range(lo, hi + 1))


# the oracle keeps no lower bound for generating sets that are not Groebner
# bases: the harness and the eight-plane report hand it reduced bases, and
# pass without one

def test_harness_needs_no_witnessed_image():
    assert run_harness(100, seed=0)["ok"]


def test_eight_plane_chi_report_is_unchanged_and_needs_no_witnessed_image(tmp_path):
    expected = json.loads(EIGHT_PLANE.read_text(encoding="utf-8"))
    assert run_example(expected["argv"], tmp_path / "basis.txt") == expected


# --- the facts the bounds rest on ------------------------------------------------

def test_lead_commutes_with_monomial_multiplication():
    rng = random.Random("lead-key")
    for _ in range(200):
        u, shifts = rng.choice(AMBIENTS)
        module = FreeModule(len(u), shifts, MonomialOrder(u))
        g = random_element(rng, module, rng.randint(max(shifts), max(shifts) + 5), 4)
        if g is None:
            continue
        alpha = tuple(rng.randint(0, 3) for _ in u)
        slot, exps = _lead(module, g)
        lead = (slot, tuple(a + e for a, e in zip(alpha, exps)))
        assert _lead(module, times(g, alpha)) == lead


def test_leads_are_the_engines_leads():
    for module, gens in generator_sets("engine-leads", 30):
        gb = buchberger(module, gens)
        leads = {_lead(module, row) for row in gb.rows}
        assert leads == {(b.slot, b.exps) for b in gb.basis}


def test_lead_of_an_inhomogeneous_row_is_its_top_degree_lead():
    module = ring_module(2, MonomialOrder((1, 1)))
    row = Row({(0, (2, 0)): 1, (0, (1, 1)): 1, (0, (1, 0)): 1, (0, (0, 1)): 1}, 1, 1, 2)
    assert _lead(module, row) == (0, (2, 0))


# --- what the oracle refuses -------------------------------------------------------

# x/2 and x/3 + y/5 share their lead: they span x and y, but their leads give
# L_d = d, one short of the rank from degree 1 on, so they are not a
# Groebner basis
SHARED_LEAD = [(P("1/2*x"),), (P("1/3*x + 1/5*y"),)]
# x and y are a Groebner basis whose leads share slot 0: the oracle needs
# their one syzygy
X_AND_Y = [(P("x"),), (P("y"),)]


def test_a_syzygy_that_is_not_a_kernel_vector_is_refused(monkeypatch):
    module = ring_module(2, MonomialOrder((1, 1)))
    engine = hilbert.syzygies

    def with_a_bad_row(module, gens):
        syz_module, syz = engine(module, gens)
        bad = Row({(0, (0, 0)): 1}, 1, syz_module.rank, syz_module.nvars)
        return syz_module, syz + [bad]

    monkeypatch.setattr(hilbert, "syzygies", with_a_bad_row)
    with pytest.raises(RuntimeError, match="not a kernel vector"):
        hp_bruteforce(module, X_AND_Y, 0, 4)


def test_a_dropped_syzygy_leaves_the_bounds_apart(monkeypatch):
    mod = ring_module(2, MonomialOrder((1, 1)))
    engine = hilbert.syzygies

    def dropping(module, gens):
        syz_module, syz = engine(module, gens)
        assert len(syz) == 1
        return syz_module, syz[1:]

    monkeypatch.setattr(hilbert, "syzygies", dropping)
    with pytest.raises(RuntimeError, match="do not meet"):
        hp_bruteforce(mod, X_AND_Y, 0, 4)


# the reduced basis y^3, x^2 - y^2, x*y of (x^2 - y^2, x*y): two of its three
# S-vectors are nonzero, so their lifts carry quotient terms
THREE = [(P("y^3"),), (P("x^2 - y^2"),), (P("x*y"),)]


def lifts_of_three():
    module = ring_module(2, MonomialOrder((1, 1)))
    basis = buchberger(module, THREE).rows
    assert basis == tuple(as_row(g) for g in THREE)
    return module, basis


def test_a_lift_missing_a_quotient_term_is_refused(monkeypatch):
    module, basis = lifts_of_three()
    leads = [_lead(module, g) for g in basis]
    engine = hilbert.syzygies
    syz_module, syz = engine(module, basis)

    def product(term):
        k, g = term
        return leads[k][0], tuple(map(add, g, leads[k][1]))

    damaged = 0
    for pos, row in enumerate(syz):
        # the quotient terms are those below the pair's lcm, the product
        # of its Schreyer lead
        top = product(hilbert._schreyer_lead(syz_module, leads, row))
        for term in [t for t in row.terms if product(t) != top]:
            bad = Row({t: c for t, c in row.terms.items() if t != term}, row.den,
                      row.rank, row.nvars)
            damaged_syz = syz[:pos] + [bad] + syz[pos + 1:]
            monkeypatch.setattr(hilbert, "syzygies", lambda module, gens: (syz_module, damaged_syz))
            with pytest.raises(RuntimeError, match="not a kernel vector"):
                hp_bruteforce(module, basis, 0, 6)
            damaged += 1
    assert damaged == 2
    monkeypatch.setattr(hilbert, "syzygies", engine)
    assert hp_bruteforce(module, basis, 0, 6) == eliminate(module, basis, range(7))


def test_each_dropped_lift_leaves_the_bounds_apart(monkeypatch):
    module, basis = lifts_of_three()
    syz_module, syz = hilbert.syzygies(module, basis)
    assert len(syz) == 3
    for pos in range(3):
        monkeypatch.setattr(hilbert, "syzygies",
                            lambda module, gens: (syz_module, syz[:pos] + syz[pos + 1:]))
        with pytest.raises(RuntimeError, match="do not meet"):
            hp_bruteforce(module, basis, 0, 6)


def test_a_shared_lead_is_refused_and_its_reduced_basis_certified():
    mod = ring_module(2, MonomialOrder((1, 1)))
    with pytest.raises(RuntimeError, match="do not meet"):
        hp_bruteforce(mod, SHARED_LEAD, 0, 4)
    basis = buchberger(mod, SHARED_LEAD).rows
    assert basis == tuple(as_row(g) for g in X_AND_Y)
    assert hp_bruteforce(mod, basis, 0, 4) == {0: 0, 1: 2, 2: 3, 3: 4, 4: 5}


def test_hilbert_binds_no_row_reduction():
    # the oracle's bounds come from leads alone: no elimination is left in
    # hilbert, and none may come back by import
    tree = ast.parse(Path(hilbert.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound = {alias.asname or alias.name for alias in node.names}
            assert not bound & {"reduce_into", "primitive"}, ast.unparse(node)
    assert not hasattr(hilbert, "reduce_into") and not hasattr(hilbert, "primitive")


# --- the reference elimination, on the inputs of its old tests ----------------------

def test_elimination_cancels_over_q():
    # the proportional pair's S-vector is 0, so it is a Groebner basis; the
    # independent pair shares its lead, so it is refused, and its reduced
    # basis certified
    mod = ring_module(2, MonomialOrder((1, 1)))
    proportional = [(P("1/2*x + 1/3*y"),), (P("3*x + 2*y"),)]
    independent = [(P("1/2*x"),), (P("1/3*x + 1/5*y"),)]
    for gens, expected in ((proportional, {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}),
                           (independent, {0: 0, 1: 2, 2: 3, 3: 4, 4: 5})):
        assert hp_bruteforce(mod, buchberger(mod, gens).rows, 0, 4) == expected
        assert eliminate(mod, gens, range(5)) == expected
    assert hp_bruteforce(mod, proportional, 0, 4) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    with pytest.raises(RuntimeError, match="do not meet"):
        hp_bruteforce(mod, independent, 0, 4)


def test_elimination_column_codes_at_their_bound():
    # slot 0's x^5 and slot 1's unit vector share degree 3: two (slot,
    # exponents) columns, two pivots, at every truncation of the range
    mod = FreeModule(3, (-2, 3), MonomialOrder((1, 2, 3)))
    units = [Row.unit(slot, mod.rank, mod.nvars).vector() for slot in (0, 1)]
    expansion = hilbert.hp_expand(hilbert.hp_free(mod.shifts, mod.order.weights), -2, 15)
    for d_hi in range(-2, 16):
        expected = {d: expansion[d] for d in range(-2, d_hi + 1)}
        assert hp_bruteforce(mod, units, -2, d_hi) == expected, d_hi
        assert eliminate(mod, units, range(-2, d_hi + 1)) == expected, d_hi


def test_elimination_exponent_reaching_the_range_top():
    mod = ring_module(2, MonomialOrder((1, 1)))
    expected = {d: max(0, d - 6) for d in range(41)}
    assert hp_bruteforce(mod, [(P("x^7"),)], 0, 40) == expected
    assert eliminate(mod, [(P("x^7"),)], range(41)) == expected


def test_zero_and_inhomogeneous_generators_are_refused():
    mod = ring_module(2, MonomialOrder((1, 1)))
    with pytest.raises(ValueError):
        hp_bruteforce(mod, [(Polynomial.zero(2),)], 0, 3)
    with pytest.raises(ValueError):
        hp_bruteforce(mod, [(P("x^2 + y"),)], 0, 3)
