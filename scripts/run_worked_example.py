"""End-to-end walkthrough on f = x^2 z + y^3 + z^4.

The surface is not quasi-homogeneous for the total degree, so the graded
identities do not apply directly; the script computes the derivation module,
a filtration resolution, its homogenization (which passes the image test),
the basis-change variant (which does not) and the resulting chi values.

Run:  python scripts/run_worked_example.py
"""

from logderiv.poly import format_poly, infer_weights, parse_poly
from logderiv.derivmod import (
    FactoredPolynomial,
    GradedContext,
    format_derivation,
)
from logderiv.hilbert import verify_degree_identity
from logderiv.homog import affine_log_resolution, chi_homogenized, verify_lemma_intersection

NAMES = ["x", "y", "z"]


def main():
    f = parse_poly("x^2*z+y^3+z^4", NAMES)
    fp = FactoredPolynomial.single(f)
    print(f"f = {format_poly(f, NAMES)}")

    ctx, gens, res = affine_log_resolution(fp)
    print("\nirredundant generators of the derivation module (degree order):")
    for g in gens:
        print("  ", format_derivation(g.vector(), NAMES))
    print("filtration shifts:", [list(res.shifts(p)) for p in range(res.length + 1)])

    report = chi_homogenized(fp)
    print("\nhomogenized pipeline:")
    print("  image test per step:", report["image_ok"])
    print("  minimal shifts:", report["shifts"])
    print("  chi =", report["chi"], "deg f =", report["degree"])

    mixed = chi_homogenized(fp, mix=(0, 1))
    print("\nafter the basis change (generator 0 += generator 1):")
    print("  image test per step:", mixed["image_ok"])
    print("  recomputed from scratch:", mixed["recomputed_from_scratch"])
    print("  chi =", mixed["chi"])

    lemma = verify_lemma_intersection(fp)
    print("\ncoordinate-span intersection identity:", lemma["ok"])

    u = infer_weights(f)
    print("\nweighted grading inferred from f:", u)
    ctx_w = GradedContext.from_uk(u, max(u))
    graded = verify_degree_identity(fp, ctx_w)
    print("graded identity with u =", list(u), "v =", list(ctx_w.v))
    print("  shifts:", graded["shifts"])
    print("  chi =", graded["chi"], "=", graded["degree"], "+", graded["v_sum"])
    for c in graded["claims"]:
        print(f"  [{c['verdict']}] {c['claim']}")


if __name__ == "__main__":
    main()
