"""The slice oracle's certificate: lead-term bounds that meet, elimination
only where they do not.

`hilbert.hp_bruteforce` proves each slice dimension by L_d = N_d - K_d (the
generators' distinct leads from below, the rows less the syzygies' distinct
leads from above) and hands every other degree to `hilbert._eliminate`.
Generators whose leads lie in distinct slots need neither bound: their rows
are independent, and the rank is the row count N_d.  These tests hold it
to the elimination degree by degree, count the degrees it leaves open,
check that generators with leads in distinct slots reach no lead series and
no syzygies, and check the two facts the bounds rest on: leads commute with
monomial multiplication, and engine syzygies are checked before use.
"""

import json
import random
from pathlib import Path

import pytest

from logderiv import hilbert
from logderiv.groebner import FreeModule, Row, buchberger, combination, ring_module
from logderiv.harness import run_harness
from logderiv.hilbert import _component_leads, _eliminate, hp_bruteforce
from logderiv.poly import MonomialOrder, Polynomial, parse_poly

from test_golden_cli import run_example

EIGHT_PLANE = Path(__file__).parent / "golden" / "eight_plane.json"
XY = ["x", "y"]


def P(text):
    return parse_poly(text, XY)


@pytest.fixture
def eliminated(monkeypatch):
    """The degrees handed to the elimination, in call order."""
    seen: list[int] = []

    def recording(module, gens, slices):
        slices = list(slices)
        seen.extend(slices)
        return _eliminate(module, gens, slices)

    monkeypatch.setattr(hilbert, "_eliminate", recording)
    return seen


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
            db, dc = (hilbert.vector_degree(module, g) for g in (b, c))
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
    degrees = [hilbert.vector_degree(module, g) for g in gens]
    return min(degrees + [0]), max(degrees) + 4


def test_certificate_equals_the_elimination_on_seeded_generator_sets(eliminated):
    draws = generator_sets("slice-oracle", 40)
    for module, gens in draws:
        lo, hi = slice_range(module, gens)
        expected = _eliminate(module, gens, range(lo, hi + 1))
        assert hp_bruteforce(module, gens, lo, hi) == expected
    # sets that are not Groebner bases leave degrees open; the fallback ran
    assert eliminated


def test_groebner_bases_leave_no_degree_open(eliminated):
    for module, gens in generator_sets("slice-oracle", 40):
        lo, hi = slice_range(module, gens)
        basis = list(buchberger(module, gens).rows)
        expected = _eliminate(module, gens, range(lo, hi + 1))
        eliminated.clear()
        assert hp_bruteforce(module, basis, lo, hi) == expected
        assert eliminated == []


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


def test_leads_in_distinct_slots_need_no_lead_series_and_no_syzygies(monkeypatch, eliminated):
    def refused(*args, **kwargs):
        raise AssertionError("called on generators with leads in distinct slots")

    monkeypatch.setattr(hilbert, "syzygies", refused)
    monkeypatch.setattr(hilbert, "_lead_series", refused)
    draws = free_generator_sets("free-leads", 40)
    for module, gens in draws:
        lo, hi = slice_range(module, gens)
        assert hp_bruteforce(module, gens, lo, hi) == _eliminate(module, gens, range(lo, hi + 1))
    assert eliminated == []
    assert sum(len(gens) > 1 for _, gens in draws) >= 12
    assert sum(any(len({slot for slot, _ in g.terms}) > 1 for g in gens)
               for _, gens in draws) >= 12


def test_certificate_equals_the_elimination_on_harness_calls(monkeypatch, eliminated):
    calls = []
    certified = hilbert.hp_bruteforce

    def recording(module, gens, lo, hi):
        dims = certified(module, gens, lo, hi)
        calls.append((module, list(gens), lo, hi, dims))
        return dims

    monkeypatch.setattr(hilbert, "hp_bruteforce", recording)
    assert run_harness(30, seed=0)["ok"]
    assert len(calls) == 30
    assert eliminated == []
    for module, gens, lo, hi, dims in calls:
        assert dims == _eliminate(module, gens, range(lo, hi + 1))


def test_harness_needs_no_elimination(eliminated):
    assert run_harness(100, seed=0)["ok"]
    assert eliminated == []


def test_eight_plane_chi_report_is_unchanged_and_needs_no_elimination(eliminated, tmp_path):
    expected = json.loads(EIGHT_PLANE.read_text(encoding="utf-8"))
    assert run_example(expected["argv"], tmp_path / "basis.txt") == expected
    assert eliminated == []


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
        (slot, exps), = _component_leads(module, g).values()
        lead = (slot, tuple(a + e for a, e in zip(alpha, exps)))
        assert set(_component_leads(module, times(g, alpha)).values()) == {lead}


def test_leads_are_the_engines_leads():
    for module, gens in generator_sets("engine-leads", 30):
        gb = buchberger(module, gens)
        leads = {lead for row in gb.rows for lead in _component_leads(module, row).values()}
        assert leads == {(b.slot, b.exps) for b in gb.basis}


def test_leads_of_an_inhomogeneous_row_are_one_per_degree():
    module = ring_module(2, MonomialOrder((1, 1)))
    row = Row({(0, (2, 0)): 1, (0, (1, 1)): 1, (0, (1, 0)): 1, (0, (0, 1)): 1}, 1, 1, 2)
    assert set(_component_leads(module, row).values()) == {(0, (2, 0)), (0, (1, 0))}


def test_a_syzygy_that_is_not_a_kernel_vector_is_refused(monkeypatch):
    module = ring_module(2, MonomialOrder((1, 1)))
    engine = hilbert.syzygies

    def with_a_bad_row(module, gens):
        syz_module, syz = engine(module, gens)
        bad = Row({(0, (0, 0)): 1}, 1, syz_module.rank, syz_module.nvars)
        return syz_module, syz + [bad]

    monkeypatch.setattr(hilbert, "syzygies", with_a_bad_row)
    with pytest.raises(RuntimeError, match="not a kernel vector"):
        hp_bruteforce(module, [(P("x"),), (P("y"),)], 0, 4)


# --- the elimination itself, on the inputs of its old tests ------------------------

def test_elimination_cancels_over_q():
    mod = ring_module(2, MonomialOrder((1, 1)))
    proportional = [(P("1/2*x + 1/3*y"),), (P("3*x + 2*y"),)]
    independent = [(P("1/2*x"),), (P("1/3*x + 1/5*y"),)]
    assert _eliminate(mod, proportional, range(5)) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    assert _eliminate(mod, independent, range(5)) == {0: 0, 1: 2, 2: 3, 3: 4, 4: 5}


def test_elimination_column_codes_at_their_bound():
    # slot 0's x^5 and slot 1's unit vector share degree 3: two (slot,
    # exponents) columns, two pivots, at every truncation of the range
    mod = FreeModule(3, (-2, 3), MonomialOrder((1, 2, 3)))
    units = [mod.unit_vector(0), mod.unit_vector(1)]
    expansion = hilbert.hp_expand(hilbert.hp_free(mod.shifts, mod.order.weights), -2, 15)
    for d_hi in range(-2, 16):
        dims = _eliminate(mod, units, range(-2, d_hi + 1))
        assert dims == {d: expansion[d] for d in range(-2, d_hi + 1)}, d_hi


def test_elimination_exponent_reaching_the_range_top():
    mod = ring_module(2, MonomialOrder((1, 1)))
    dims = _eliminate(mod, [(P("x^7"),)], range(41))
    assert dims == {d: max(0, d - 6) for d in range(41)}


def test_elimination_of_only_the_open_degrees(eliminated):
    # x/2 and x/3 + y/5 share their lead: L_d = d, but they span x and y
    mod = ring_module(2, MonomialOrder((1, 1)))
    gens = [(P("1/2*x"),), (P("1/3*x + 1/5*y"),)]
    assert hp_bruteforce(mod, gens, 0, 4) == {0: 0, 1: 2, 2: 3, 3: 4, 4: 5}
    # degree 0 is empty, so both bounds are 0 there; from degree 1 on the
    # shared lead leaves L one short of the rank
    assert eliminated == [1, 2, 3, 4]


def test_zero_and_inhomogeneous_generators_are_refused():
    mod = ring_module(2, MonomialOrder((1, 1)))
    with pytest.raises(ValueError):
        hp_bruteforce(mod, [(Polynomial.zero(2),)], 0, 3)
    with pytest.raises(ValueError):
        hp_bruteforce(mod, [(P("x^2 + y"),)], 0, 3)
