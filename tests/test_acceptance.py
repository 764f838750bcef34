"""Acceptance suite: every criterion is an exact integer check (tolerance
zero) and prints one pass/fail line."""

import random

import pytest

from logderiv.poly import MonomialOrder, parse_poly
from logderiv.groebner import (
    FreeModule,
    Row,
    buchberger,
    module_equal,
    normal_form,
    syzygies,
    vec_is_zero,
)
from logderiv.derivmod import (
    FactoredPolynomial,
    GradedContext,
    generalized_log_module,
    in_log_module,
    saito_check,
)
from logderiv.resolution import free_resolution
from logderiv.hilbert import (
    HPSeries,
    chi,
    hp_bruteforce,
    hp_expand,
    hp_free,
    hp_from_resolution,
    quotient_ring_hp,
)
from logderiv.homog import (
    chi_homogenized,
    homogenize_resolution,
    verify_lemma_intersection,
)
from logderiv.harness import run_harness

XY = ["x", "y"]
XYZ = ["x", "y", "z"]
SEED = 0
N_INSTANCES = 100


def P(text, names=XY):
    return parse_poly(text, names)


def V(*texts, names=XY):
    return tuple(P(t, names) for t in texts)


def verdict(n: int, ok: bool, text: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {text}")
    assert ok, f"criterion {n} failed: {text}"


@pytest.fixture(scope="module")
def harness_report():
    return run_harness(N_INSTANCES, max_vars=3, max_degree=6, seed=SEED, d_max=12)


def claims_named(report, fragment):
    out = []
    for inst in report["instances"]:
        for c in inst["claims"]:
            if fragment in c["claim"]:
                out.append(c)
    return out


def worked_example():
    return FactoredPolynomial.single(P("x^2*z+y^3+z^4", XYZ))


def phi0_columns():
    cols = [
        ("9*x", "8*y", "6*z"),
        ("3*y^2", "-2*x*z", "0"),
        ("9*z^3", "-2*x*y", "-6*x*z"),
        ("0", "4*z^3+x^2", "-3*y^2"),
    ]
    return [tuple(P(t, XYZ) for t in col) for col in cols]


def phi1_column():
    return tuple(P(t, XYZ) for t in ("x*y^2", "-12*z^3-3*x^2", "4*y^2", "-6*x*z"))


def psi_columns():
    phi = phi0_columns()
    mixed = [tuple(a + b for a, b in zip(phi[0], phi[1]))] + phi[1:]
    return mixed


def test_criterion_1_worked_example_pipeline():
    report = chi_homogenized(worked_example())
    ok = (
        report["ok"]
        and sorted(report["shifts"][0]) == [1, 2, 3, 3]
        and report["shifts"][1] == [5]
        and sum(report["shifts"][0]) - sum(report["shifts"][1]) == 4
        and len(report["shifts"][0]) - len(report["shifts"][1]) == 3
        and report["chi"] == 4
    )
    # the explicit columns are members of D(f), and the explicit syzygy
    # generates the full syzygy module of those columns
    fp = worked_example()
    ctx = GradedContext.standard(3)
    dm = ctx.derivation_module()
    gb = buchberger(dm, generalized_log_module(fp, ctx))
    for col in phi0_columns():
        ok = ok and in_log_module(col, fp)
        ok = ok and vec_is_zero(normal_form(dm, col, gb))
    f0 = FreeModule(3, (1, 2, 3, 3), dm.order)
    syz_mod, syz = syzygies(dm, phi0_columns())
    ok = ok and syz_mod == f0 and module_equal(syz_mod, syz, [phi1_column()])
    total = Row({}, 1, dm.rank, dm.nvars).vector()
    for coeff, col in zip(phi1_column(), phi0_columns()):
        total = tuple(t + coeff * c for t, c in zip(total, col))
    ok = ok and vec_is_zero(total)
    verdict(1, ok, "worked example: shifts {1,2,3,3}/{5}, sums 4 and 3, "
                   "explicit matrices certified")


def test_criterion_2_basis_change_negative_control():
    ctx = GradedContext.standard(3)
    dm = ctx.derivation_module()
    res = free_resolution(dm, psi_columns())
    hom = homogenize_resolution(res)
    ok = (not hom.image_ok[0]) and (0 in hom.witnesses) and not hom.is_resolution
    # the witness is a genuine non-member of the homogenized image
    if ok:
        h_target = FreeModule(4, dm.shifts, MonomialOrder((1, 1, 1, 1)))
        gb = buchberger(h_target, list(hom.resolution.chain[0].columns))
        ok = not vec_is_zero(normal_form(h_target, hom.witnesses[0], gb))
    verdict(2, ok, "basis-change control: homogenized chain is a complex whose "
                   "step-0 image misses a witnessed element")


def test_criterion_3_identity_harness(harness_report):
    degree_claims = claims_named(harness_report, "alternating degree sum equals")
    chi_claims = claims_named(harness_report, "chi of the resolution series")
    ok = (
        harness_report["count"] >= 100
        and len(degree_claims) >= 100
        and all(c["verdict"] == "pass" for c in degree_claims + chi_claims)
    )
    verdict(3, ok, f"{harness_report['count']} random instances, degree-sum and "
                   "chi identities, zero failures")


def test_criterion_4_resolution_independence(harness_report):
    claims = claims_named(harness_report, "same degree sum")
    ok = len(claims) >= 2 * 10 and all(c["verdict"] == "pass" for c in claims)
    verdict(4, ok, f"{len(claims) // 2} instances: non-minimal and minimal "
                   "resolutions agree on the degree sum")


def test_criterion_5_betti_form(harness_report):
    claims = claims_named(harness_report, "betti weighted alternating sum")
    ok = len(claims) >= 100 and all(c["verdict"] == "pass" for c in claims)
    verdict(5, ok, "betti-number form of the identity on the same instances")


def test_criterion_6_saito_certificates():
    ok = True
    for e1 in (1, 2, 3):
        for e2 in (1, 2, 3):
            fp = FactoredPolynomial(((P("x"), e1), (P("y"), e2)))
            basis = [V(f"x^{e1}", "0"), V("0", f"y^{e2}")]
            cert = saito_check(basis, fp)
            ok = ok and cert.is_basis and cert.constant == 1
            ctx = GradedContext((1, 1), (0, 0))
            ok = ok and module_equal(
                ctx.derivation_module(), basis, generalized_log_module(fp, ctx)
            )
    verdict(6, ok, "monomial bases certified free with c = 1 and equal to the "
                   "computed modules, e in {1,2,3}^2")


def test_criterion_7_series_oracle(harness_report):
    claims = claims_named(harness_report, "series expansion matches")
    ok = len(claims) >= 100 and all(c["verdict"] == "pass" for c in claims)
    # the criterion-6 modules run through the same oracle
    ctx = GradedContext((1, 1), (0, 0))
    dm = ctx.derivation_module()
    for e1 in (1, 2, 3):
        for e2 in (1, 2, 3):
            fp = FactoredPolynomial(((P("x"), e1), (P("y"), e2)))
            gens = generalized_log_module(fp, ctx)
            res = free_resolution(dm, gens)
            hp = hp_from_resolution(res)
            lo = min(0, hp.min_exponent())
            ok = ok and hp_expand(hp, lo, 12) == hp_bruteforce(dm, gens, lo, 12)
    verdict(7, ok, "closed-form expansion equals slice dimensions through "
                   "degree 12 on all instances")


def test_criterion_8_chi_properties():
    ok = all(chi(hp_free([d], (1, 2))) == d for d in range(-3, 7))
    rng = random.Random(SEED)
    for _ in range(20):
        n = rng.choice([2, 3])
        u = tuple(rng.randint(1, 4) for _ in range(n))
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        ok = ok and chi(hp_free(v, u)) == sum(v)
    # random homogeneous ideals with two coprime members
    from logderiv.poly import polynomial_gcd
    from logderiv.harness import random_qh_polynomial

    count = 0
    while count < 10:
        u = tuple(rng.randint(1, 3) for _ in range(2))
        ctx = GradedContext.from_uk(u, max(u))
        a = random_qh_polynomial(rng, u, 6)
        b = random_qh_polynomial(rng, u, 6)
        if a is None or b is None:
            continue
        if not polynomial_gcd(a, b).is_constant():
            continue
        d = rng.randint(-3, 5)
        hp = quotient_ring_hp([a, b], ctx)
        shifted = HPSeries.from_dict({e + d: c for e, c in hp.numerator}, hp.weights)
        ok = ok and chi(shifted) == 0
        count += 1
    verdict(8, ok, "chi of shifted free lines, ambients and coprime quotients")


def test_criterion_9_annihilator_and_dimension(harness_report):
    ann = claims_named(harness_report, "annihilator of the cokernel")
    pole = claims_named(harness_report, "pole order of the hypersurface")
    ok = (
        len(ann) >= 10
        and len(pole) >= 10
        and all(c["verdict"] == "pass" for c in ann + pole)
    )
    verdict(9, ok, f"{len(ann)} instances: (D(f) : D) = <f> and pole order n - 1")


def test_criterion_10_rank_identity_and_v_shift(harness_report):
    rank = claims_named(harness_report, "alternating rank sum equals")
    shift = claims_named(harness_report, "shifting v by 1 changes chi")
    ok = (
        len(rank) >= 100
        and len(shift) >= 100
        and all(c["verdict"] == "pass" for c in rank + shift)
    )
    verdict(10, ok, "rank identity and the v -> v + 1 shift of chi on all instances")


def test_criterion_11_homogenization_lemma():
    instances = [
        worked_example(),
        FactoredPolynomial.single(P("x+x^2")),
        FactoredPolynomial.single(P("x^2+y^3+x*y")),
        FactoredPolynomial.single(P("y^2-x^3-x")),
        FactoredPolynomial.single(P("x^3+x*y+y^5")),
    ]
    from logderiv.poly import infer_weights

    ok = True
    for fp in instances[1:]:
        ok = ok and infer_weights(fp.expand()) is None  # genuinely not quasi-homogeneous
    for fp in instances:
        ok = ok and verify_lemma_intersection(fp)["ok"]
        report = chi_homogenized(fp)
        ok = ok and report["ok"] and report["chi"] == fp.expand().total_degree()
    verdict(11, ok, "coordinate-span intersection identity and chi = deg f on "
                    "5 non-quasi-homogeneous instances")
