"""Ground truth from hyperplane-arrangement theory (Orlik-Terao,
*Arrangements of Hyperplanes*; Ziegler 1989 for multiarrangements): free
arrangements have D(f) free on generators of the textbook exponents, with a
Saito certificate, and a generic arrangement has its known resolution."""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod
from pathlib import Path

import pytest

from logderiv.derivmod import (
    FactoredPolynomial,
    GradedContext,
    LogModule,
    generalized_log_module,
    in_log_module,
    saito_check,
)
from logderiv import groebner
from logderiv.cli import main
from logderiv.groebner import buchberger
from logderiv.hilbert import verify_degree_identity
from logderiv.poly import Polynomial
from logderiv.resolution import betti_numbers, minimal_generators


def linear_form(normal) -> Polynomial:
    n = len(normal)
    return Polynomial(n, {tuple(int(k == i) for k in range(n)): Fraction(c)
                          for i, c in enumerate(normal) if c})


def arrangement(normals, multiplicities=None) -> FactoredPolynomial:
    mults = multiplicities or (1,) * len(normals)
    return FactoredPolynomial(tuple((linear_form(v), e) for v, e in zip(normals, mults)))


def unit(n, i):
    return tuple(int(k == i) for k in range(n))


def determinant(rows):
    """Leibniz expansion, exact for integer rows."""
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * prod(row[k] for row, k in zip(rows, perm))
    return total


def general_position_draw(rng):
    """6 planes in 4-space: the 4 coordinate planes and 2 normals with
    nonzero entries in [-3, 3], redrawn until every 4 normals are
    independent."""
    coords = [unit(4, i) for i in range(4)]
    while True:
        normals = coords + [tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4))
                            for _ in range(2)]
        if all(determinant(quad) for quad in combinations(normals, 4)):
            return normals


def dense_draw(rng, count):
    """count planes in 4-space, every normal entry drawn from [-4, 4],
    all redrawn until every 4 normals are independent."""
    while True:
        normals = [tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(count)]
        if all(determinant(quad) for quad in combinations(normals, 4)):
            return normals


def coxeter_d(n):
    """x_i +- x_j for i < j."""
    return [
        tuple(a + s * b for a, b in zip(unit(n, i), unit(n, j)))
        for i, j in combinations(range(n), 2) for s in (1, -1)
    ]


def coxeter_b(n):
    """x_i and x_i +- x_j for i < j."""
    return [unit(n, i) for i in range(n)] + coxeter_d(n)


FREE = {
    # name: (normals, multiplicities, exponents)
    "A3": ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1)],
           None, [1, 2, 3]),
    "B4": (coxeter_b(4), None, [1, 3, 5, 7]),
    "D4": (coxeter_d(4), None, [1, 3, 3, 5]),
    "D5": (coxeter_d(5), None, [1, 3, 4, 5, 7]),
    # x^2 y^3 (x+y) (x-y)^2 (x+2y)^3: a rank-2 multiarrangement
    "x2y3(x+y)(x-y)2(x+2y)3": ([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2)],
                               (2, 3, 1, 2, 3), [5, 6]),
}


@pytest.mark.parametrize("name", sorted(FREE))
def test_free_arrangement_has_textbook_exponents_and_saito_basis(name):
    normals, mults, exponents = FREE[name]
    fp = arrangement(normals, mults)
    mod = LogModule.of(fp, GradedContext.standard(len(normals[0])))
    minimal = mod.minimal
    assert minimal.length == 0
    assert sorted(minimal.shifts(0)) == exponents
    assert sum(exponents) == fp.expand().total_degree()
    basis, shifts = minimal_generators(mod.module, mod.gens, graded=True)
    assert sorted(shifts) == exponents
    assert saito_check(basis, fp).is_basis


def braid(n):
    """x_i - x_j for i < j: the Coxeter arrangement A_{n-1}, in n variables."""
    return [
        tuple(a - b for a, b in zip(unit(n, i), unit(n, j)))
        for i, j in combinations(range(n), 2)
    ]


@pytest.mark.parametrize("ell", range(3, 8))
def test_coxeter_arrangements_a_and_b_have_their_group_exponents(ell):
    # A Coxeter arrangement is free with the exponents of its group (Saito;
    # Orlik-Terao, ch. 6): A_ell has 1, ..., ell, and in ell + 1 variables
    # also 0, for the constant derivation sum(d/dx_i); B_ell has 1, 3, ...,
    # 2 ell - 1.  Not in FREE: every test that iterates FREE, the slower
    # per-factor route among them, would run on these too.
    for normals, exponents in ((braid(ell + 1), list(range(ell + 1))),
                               (coxeter_b(ell), list(range(1, 2 * ell, 2)))):
        ctx = GradedContext.standard(len(normals[0]))
        minimal = LogModule.of(arrangement(normals), ctx).minimal
        assert minimal.length == 0
        assert sorted(minimal.shifts(0)) == exponents


def three_lines_exponents(m):
    """Exponents of the multiarrangement x^m1 y^m2 (x+y)^m3 (Wakamiko 2007)."""
    k1, k2, k3 = sorted(m)
    if k3 >= k1 + k2 - 1:
        return sorted([k1 + k2, k3])
    total = sum(m)
    return [total // 2, (total + 1) // 2]


def test_three_line_multiarrangements_have_closed_form_exponents():
    ctx = GradedContext.standard(2)
    for m in product(range(1, 6), repeat=3):
        mod = LogModule.of(arrangement([(1, 0), (0, 1), (1, 1)], m), ctx)
        _, shifts = minimal_generators(mod.module, mod.gens, graded=True)
        assert sorted(shifts) == three_lines_exponents(m), m


def test_generic_four_planes_in_three_space_resolution():
    # 0 <- D <- S(-1) + S(-2)^3 <- S(-3) <- 0 (Rose-Terao, Yuzvinsky)
    fp = arrangement([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    minimal = LogModule.of(fp, GradedContext.standard(3)).minimal
    assert betti_numbers(minimal).entries == {(1, 0): 1, (2, 0): 3, (2, 1): 1}
    assert [sorted(s) for s in minimal.all_shifts()] == [[1, 2, 2, 2], [3]]


@pytest.mark.parametrize("count", [7, 8])
def test_dense_planes_pass_every_claim(count):
    # generic draws with no coordinate plane: D(f) finishes in a second only
    # while the block split reduces its pairs degree by degree
    fp = arrangement(dense_draw(random.Random(3), count))
    ctx = GradedContext.standard(4)
    mod = LogModule.of(fp, ctx)
    report = verify_degree_identity(mod, ctx)
    assert report["ok"]
    assert all(c["verdict"] == "pass" for c in report["claims"])
    assert report["claims"][-1]["claim"] == "series expansion matches slice dimensions"
    assert all(in_log_module(g.vector(), fp) for g in mod.gens)


@pytest.mark.parametrize("name", sorted(FREE))
def test_intersected_log_module_is_already_reduced(name):
    # generalized_log_module returns the reduced basis of D(f), so Buchberger
    # on its output changes nothing
    normals, mults, _ = FREE[name]
    ctx = GradedContext.standard(len(normals[0]))
    dm = ctx.derivation_module()
    out = generalized_log_module(arrangement(normals, mults), ctx)
    assert tuple(out) == buchberger(dm, out).rows


EIGHT_PLANE = Path(__file__).parent / "golden" / "eight_plane.json"


def test_arrangement_bases_are_packed_once(monkeypatch, capsys):
    # every field holds exponents up to 15 at least, so no basis built for
    # D(f), its resolution or the 8-plane chi report outgrows its first packing
    widths = []
    widen = groebner.GroebnerBasis._widen

    def recording(self, new):
        widths.append((self._packing.width, new.width))
        return widen(self, new)

    monkeypatch.setattr(groebner.GroebnerBasis, "_widen", recording)
    mod = LogModule.of(arrangement(general_position_draw(random.Random(1))),
                       GradedContext.standard(4))
    assert mod.minimal.ranks()[0] >= 4
    assert widths == []
    expected = json.loads(EIGHT_PLANE.read_text(encoding="utf-8"))
    assert main(expected["argv"] + ["--format", "json"]) == expected["exit"] == 0
    assert capsys.readouterr().out == expected["stdout"]
    assert widths == []
