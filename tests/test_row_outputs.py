"""One output form for module elements: Vectors in, Rows out.

Every routine that returns module elements returns `groebner.Row`s, whatever
form its input had, and a Fraction Vector is made only at the edges that
need a Polynomial or hand one to a caller.  These tests pin the contract on
outputs, count the conversions on the pipelines that run end to end, and
read the source for the places that convert.
"""

import ast
import random
from pathlib import Path

import pytest

from logderiv.poly import MonomialOrder, parse_poly
from logderiv.groebner import (
    FreeModule,
    Row,
    dehomogenize_vector,
    homogenize_vector,
    intersect,
    module_quotient,
    syzygies,
)
from logderiv.derivmod import (
    FactoredPolynomial,
    GradedContext,
    LogModule,
    generalized_log_module,
    log_derivations,
)
from logderiv.harness import HEAVY_EVERY, random_instance, run_harness
from logderiv.hilbert import verify_degree_identity
from logderiv.homog import (
    affine_log_resolution,
    chi_homogenized,
    homogenize_module,
    homogenize_resolution,
)

XYZ = ["x", "y", "z"]
README_SURFACES = ("x^2*z+y^3+z^4", "x^3+y^4+z^5+x*y*z")
MODULE = FreeModule(3, (1, 0, 1), MonomialOrder((1, 2, 1)))
SRC = Path(__file__).resolve().parent.parent / "src" / "logderiv"


def vectors(*rows):
    return [tuple(parse_poly(text, XYZ) for text in row) for row in rows]


# inhomogeneous, so syzygies and intersect homogenize on the way
GENS = vectors(("x*y", "z", "0"), ("y^2", "x + z^2", "y"), ("0", "x*z", "x^2 + y"),
               ("x", "y", "z^2"))
OTHER = vectors(("x", "0", "z"), ("0", "y^2", "1"))


def forms(vecs):
    """The elements as Vectors, as Rows, and alternately as each."""
    rows = [Row.of(v) for v in vecs]
    return {
        "vectors": vecs,
        "rows": rows,
        "mixed": [r if k % 2 else v for k, (v, r) in enumerate(zip(vecs, rows))],
    }


def rows_only(elems) -> bool:
    return all(isinstance(e, Row) for e in elems)


def surface(text):
    return FactoredPolynomial.single(parse_poly(text, XYZ))


@pytest.mark.parametrize("form", ["vectors", "rows", "mixed"])
def test_groebner_routines_return_rows_whatever_the_input(form):
    gens, other = forms(GENS)[form], forms(OTHER)[form]
    _, syz = syzygies(MODULE, gens)
    assert syz and rows_only(syz)
    assert syz == syzygies(MODULE, forms(GENS)["rows"])[1]
    _, modulo = syzygies(MODULE, gens, other)
    assert modulo and rows_only(modulo)
    common = intersect(MODULE, gens, other)
    assert common and rows_only(common)
    assert common == intersect(MODULE, forms(GENS)["rows"], forms(OTHER)["rows"])
    colon = module_quotient(MODULE, gens, other)
    assert colon and rows_only(colon)
    assert colon == module_quotient(MODULE, forms(GENS)["rows"], forms(OTHER)["rows"])
    padded = [homogenize_vector(MODULE, g) for g in gens]
    assert rows_only(padded)
    h_forms = forms([p.vector() for p in padded])[form]
    assert rows_only(dehomogenize_vector(p) for p in h_forms)
    assert [dehomogenize_vector(p) for p in h_forms] == forms(GENS)["rows"]


def test_d_f_and_its_homogenization_come_out_as_rows():
    ctx = GradedContext.standard(3)
    fp = surface(README_SURFACES[0])
    assert rows_only(log_derivations(fp.factors, ctx))
    gens = generalized_log_module(fp, ctx)
    assert gens and rows_only(gens)
    assert rows_only(LogModule.of(fp, ctx).gens)
    for given in forms([g.vector() for g in gens]).values():
        mod = LogModule(fp, ctx, given)
        assert mod.gens == gens
        assert rows_only(affine_log_resolution(mod, mix=(0, 1))[1])
        _, hgens = homogenize_module(ctx.derivation_module(), given)
        assert hgens and rows_only(hgens)


@pytest.mark.parametrize("text", README_SURFACES)
def test_affine_generators_and_witnesses_are_rows(text):
    witnesses = 0
    for mix in (None, (0, 1)):
        _, gens, res = affine_log_resolution(surface(text), mix=mix)
        assert rows_only(gens)
        hom = homogenize_resolution(res)
        assert rows_only(hom.witnesses.values())
        witnesses += len(hom.witnesses)
    assert witnesses  # the basis change fails the image test somewhere


@pytest.fixture
def conversions(monkeypatch):
    """Counts of `Row.of` and `Row.vector` calls."""
    counts = {"of": 0, "vector": 0}
    of, vector = Row.of.__func__, Row.vector

    def counted_of(cls, vec):
        counts["of"] += 1
        return of(cls, vec)

    def counted_vector(self):
        counts["vector"] += 1
        return vector(self)

    monkeypatch.setattr(Row, "of", classmethod(counted_of))
    monkeypatch.setattr(Row, "vector", counted_vector)
    return counts


@pytest.mark.parametrize("text", README_SURFACES)
@pytest.mark.parametrize("mix", [None, (0, 1)], ids=["plain", "mix"])
def test_the_homogenization_pipeline_converts_only_d_f_s_inputs(conversions, text, mix):
    # D(f)'s inputs are built as Rows from integer terms, so nothing converts
    report = chi_homogenized(surface(text), mix=mix)
    assert report["ok"]
    assert conversions == {"of": 0, "vector": 0}


def test_the_degree_identity_converts_no_generator(conversions):
    rng = random.Random(0)
    for _ in range(10):
        factored, ctx = random_instance(rng)
        mod = LogModule(factored, ctx, generalized_log_module(factored, ctx, validate=False))
        before = dict(conversions)
        assert verify_degree_identity(mod, ctx)["ok"]
        assert conversions == before


def test_the_harness_converts_only_f_on_its_heavy_instances(conversions):
    # the annihilator's units and ideal are Rows from the start; what is
    # left is the instance's own f becoming an element, once for the
    # redundant resolution, once for the quotient ring and once for <f>
    assert run_harness(20, seed=0)["ok"]
    heavy = len(range(0, 20, HEAVY_EVERY))
    assert conversions == {"of": 3 * heavy, "vector": 0}


# Where src/ may convert, as (what, module, function): a Polynomial is
# needed (printing, Saito's determinant), or a caller reads Vectors
# (`GroebnerBasis.elements`, `normal_form`, `divide`, `ModuleMap.columns`
# and `entry`).  `as_row` is the one reader of input.
EDGES = {
    (".vector()", "groebner", "GroebnerBasis.elements"),
    (".vector()", "groebner", "divide"),
    (".vector()", "groebner", "normal_form"),
    (".vector()", "resolution", "ModuleMap.columns"),
    (".vector()", "derivmod", "saito_check"),
    (".vector()", "cli", "cmd_derivations"),
    ("Row.of", "groebner", "as_row"),
    (".columns", "resolution", "ModuleMap.entry"),
}


def conversion_sites(tree: ast.Module, module: str) -> set[tuple[str, str, str]]:
    """Every `.vector()` call, `Row.of` reference and `.elements` or
    `.columns` read, by the function (Class.method) that encloses it."""
    sites = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "vector" and not node.args:
            sites.add((".vector()", module, scope))
        if isinstance(node, ast.Attribute):
            if node.attr == "of" and isinstance(node.value, ast.Name) and node.value.id == "Row":
                sites.add(("Row.of", module, scope))
            if node.attr in ("elements", "columns") and isinstance(node.ctx, ast.Load):
                sites.add((f".{node.attr}", module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return sites


def test_src_converts_only_at_the_edges():
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        sites |= conversion_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sites - EDGES == set()
    assert ("Row.of", "groebner", "as_row") in sites  # the walk sees the source


def test_the_guard_sees_a_round_trip():
    tree = ast.parse("def homogenize_module(m, gens):\n"
                     "    return [Row.of(g).vector() for g in buchberger(m, gens).elements]\n")
    assert conversion_sites(tree, "homog") == {
        (".vector()", "homog", "homogenize_module"),
        ("Row.of", "homog", "homogenize_module"),
        (".elements", "homog", "homogenize_module"),
    }
