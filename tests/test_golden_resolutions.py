"""Golden record of the homogenization pipeline's resolutions.

For each input the file `tests/golden/resolutions.json` holds the printed
matrices (one `format_poly` string per entry, column by column) and the
shifts of three resolutions: `affine_log_resolution`'s filtration
resolution, `homogenize_resolution(...).resolution`, and the minimized
resolution `chi_homogenized` takes chi of; with the image test's verdicts
and witnesses.  The inputs are the README surfaces (plain and with
`--mix 0,1`), six seeded surfaces that are not quasi-homogeneous, the A_3
and B_3 arrangements and two seed-0 harness instances.  A change to how
module elements are stored must leave every record byte-identical.  A
change that alters a resolution on purpose re-records the file with

    PYTHONPATH=src python tests/test_golden_resolutions.py

and says which records moved and why.
"""

import json
import random
from pathlib import Path

import pytest

from logderiv.derivmod import FactoredPolynomial
from logderiv.harness import random_instance
from logderiv.homog import (
    affine_log_resolution,
    homogenize_module,
    homogenize_resolution,
)
from logderiv.poly import Polynomial, format_poly, infer_weights, parse_poly, squarefree_test
from logderiv.resolution import free_resolution, minimize

GOLDEN = Path(__file__).parent / "golden" / "resolutions.json"
XYZ = ["x", "y", "z"]
README_SURFACES = ("x^2*z+y^3+z^4", "x^3+y^4+z^5+x*y*z")
ARRANGEMENTS = {
    "A3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1)],
    "B3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0),
           (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)],
}


def linear_form(normal) -> Polynomial:
    n = len(normal)
    return Polynomial(n, {tuple(int(k == i) for k in range(n)): c
                          for i, c in enumerate(normal) if c})


def seeded_surfaces(count: int = 6) -> list[Polynomial]:
    """Squarefree surfaces in x, y, z of 3-4 terms and degree at most 4 that
    no positive weights make quasi-homogeneous."""
    rng = random.Random("golden-resolutions")
    found: list[Polynomial] = []
    while len(found) < count:
        terms = {}
        for _ in range(rng.randint(3, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            if 0 < sum(exps) <= 4:
                terms[exps] = rng.choice((-3, -2, -1, 1, 2, 3))
        p = Polynomial(3, terms)
        if len(p.terms) < 3 or infer_weights(p) is not None or not squarefree_test(p)[0]:
            continue
        found.append(p)
    return found


def inputs() -> dict[str, tuple[FactoredPolynomial, tuple[int, int] | None]]:
    cases = {}
    for text in README_SURFACES:
        fp = FactoredPolynomial.single(parse_poly(text, XYZ))
        cases[f"readme:{text}"] = (fp, None)
        cases[f"readme:{text} --mix 0,1"] = (fp, (0, 1))
    for k, p in enumerate(seeded_surfaces()):
        cases[f"surface:{k}"] = (FactoredPolynomial.single(p), None)
    for name, normals in ARRANGEMENTS.items():
        cases[name] = (FactoredPolynomial(tuple((linear_form(v), 1) for v in normals)), None)
    rng = random.Random(0)
    for k in range(2):
        cases[f"harness:0:{k}"] = (random_instance(rng)[0], None)
    return cases


def names(nvars: int) -> list[str]:
    return [f"x{i}" for i in range(nvars)]


def printed(res) -> list[dict]:
    var_names = names(res.ambient.nvars)
    return [
        {"shifts": list(m.source_shifts),
         "columns": [[format_poly(p, var_names) for p in col] for col in m.columns]}
        for m in res.chain
    ]


def record_of(fp: FactoredPolynomial, mix) -> dict:
    ctx, gens, res = affine_log_resolution(fp, mix=mix)
    hom = homogenize_resolution(res)
    if hom.is_resolution:
        h_res = hom.resolution
    else:
        h_res = free_resolution(*homogenize_module(ctx.derivation_module(), gens))
    hnames = names(res.ambient.nvars + 1)
    return {
        "filtration": printed(res),
        "homogenized": printed(hom.resolution),
        "minimal": printed(minimize(h_res)),
        "image_ok": list(hom.image_ok),
        "witnesses": {str(p): [format_poly(q, hnames) for q in w.vector()]
                      for p, w in sorted(hom.witnesses.items())},
    }


def text_of(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


CASES = inputs()


def test_seeded_surfaces_are_squarefree_and_not_quasi_homogeneous():
    surfaces = [fp for name, (fp, _) in CASES.items() if name.startswith("surface:")]
    assert len(surfaces) == 6
    for fp in surfaces:
        fp.validate()
        assert infer_weights(fp.expand()) is None


@pytest.mark.parametrize("name", list(CASES))
def test_resolutions_match_golden(name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert text_of(record_of(*CASES[name])) == text_of(expected)


def record(path: Path = GOLDEN) -> None:
    golden = {name: record_of(*case) for name, case in CASES.items()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
