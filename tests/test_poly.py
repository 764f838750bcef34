import ast
import json
import math
import random
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from logderiv import poly
from logderiv.poly import (
    MonomialOrder,
    NonPositiveWeightError,
    NotQuasiHomogeneous,
    ParseError,
    Polynomial,
    ZeroPolynomialError,
    exact_div,
    format_poly,
    infer_weights,
    join_terms,
    parse_poly,
    partial_derivative,
    polynomial_gcd,
    reduce_into,
    squarefree_test,
    u_degree,
)

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


def P(text, names=XY):
    return parse_poly(text, names)


# --- parsing ---------------------------------------------------------------

def test_parse_simple_sum():
    p = P("x^2+y^2")
    assert p.terms == {(2, 0): Fraction(1), (0, 2): Fraction(1)}


def test_parse_zero():
    assert P("0").is_zero()


def test_parse_expansion_cancels():
    assert P("(x+y)^2 - x^2 - 2*x*y") == P("y^2")


def test_parse_implicit_multiplication():
    assert P("2x y") == P("2*x*y")
    assert P("3(x+y)") == P("3*x+3*y")


def test_parse_rational_coefficient():
    p = P("1/2*x")
    assert p.terms == {(1, 0): Fraction(1, 2)}


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        P("x+w")


def test_parse_zero_denominator_is_a_parse_error_at_the_denominator():
    with pytest.raises(ParseError) as err:
        P("x+1/0*y")
    assert err.value.position == 4


def test_parse_syntax_error_has_position():
    with pytest.raises(ParseError) as err:
        P("x^")
    assert err.value.position == 2


def test_parse_unary_minus():
    assert P("-x^2 + y") == P("y") - P("x^2")


# --- degrees and weights ----------------------------------------------------

def test_u_degree_conic():
    assert u_degree(P("x^2+y^2"), (1, 1)) == 2


def test_u_degree_not_homogeneous_witness():
    with pytest.raises(NotQuasiHomogeneous) as err:
        u_degree(P("x^2*z+y^3+z^4", XYZ), (1, 1, 1))
    a, b = err.value.witness
    assert a != b


def test_u_degree_weighted():
    assert u_degree(P("x^2*z+y^3+z^4", XYZ), (9, 8, 6)) == 24


def test_u_degree_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        u_degree(Polynomial.zero(2), (1, 1))


def test_infer_weights_weighted_example():
    assert infer_weights(P("x^2*z+y^3+z^4", XYZ)) == (9, 8, 6)


def test_infer_weights_conic():
    assert infer_weights(P("x^2+y^2")) == (1, 1)


def test_infer_weights_impossible():
    assert infer_weights(parse_poly("x+x^2", ["x"])) is None


def test_infer_weights_single_monomial():
    assert infer_weights(P("x*y")) == (1, 1)


def test_infer_weights_of_a_monomial_in_six_variables():
    # six free dimensions: the answer is the first point the search tries,
    # so it must not build its whole box of candidates first
    names = [f"x{i}" for i in range(1, 7)]
    assert infer_weights(parse_poly("*".join(names), names)) == (1,) * 6


@pytest.mark.parametrize("text, nvars", [("x0*x1-x0", 8), ("x0*x1+1", 7)])
def test_infer_weights_refuses_a_one_signed_row_without_a_scan(text, nvars):
    # u_1 = 0 and u_0 + u_1 = 0 have no positive solution; the scan of
    # [1, 8]^k would try 8^(nvars - 1) points before it said so
    names = [f"x{i}" for i in range(nvars)]
    assert infer_weights(parse_poly(text, names)) is None


@pytest.mark.parametrize("nvars", [5, 6])
def test_infer_weights_refuses_a_row_of_one_sign_after_back_substitution(nvars, monkeypatch):
    # the echelon rows (2, -1, 1) and (0, 1, -1) in the columns of x0, x1,
    # x2 both have mixed signs; back substitution clears x1 from the first,
    # which leaves (2, 0, 0): u_0 = 0, so no point of [1, 8]^k is tried
    calls = []
    real = poly._positive_points
    monkeypatch.setattr(poly, "_positive_points", lambda *a: calls.append(a) or real(*a))
    names = [f"x{i}" for i in range(nvars)]
    assert infer_weights(parse_poly("x1^3*x2+x1^2*x2^2-x0^2*x1*x2^3", names)) is None
    assert calls == []
    # the counter sees the scan where there is one
    assert infer_weights(parse_poly("x0*x1+x2^2", names)) is not None
    assert len(calls) == 1


def test_infer_weights_matches_its_recorded_pool():
    # 300 term sets in 1-4 variables drawn with random.Random(19), half of
    # them of one weighted degree; the answers were recorded from the dense
    # Fraction RREF that infer_weights solved with before `reduce_into`.
    # Solution spaces of 0 to 4 free dimensions occur, and 2 and 3 free
    # dimensions both with and without a positive point.
    path = Path(__file__).parent / "golden" / "infer_weights.json"
    records = json.loads(path.read_text(encoding="utf-8"))
    assert len(records) == 300
    for monos, expected in records:
        p = Polynomial(len(monos[0]), {tuple(m): Fraction(1) for m in monos})
        u = infer_weights(p)
        assert u == (None if expected is None else tuple(expected)), monos
        if u is not None:
            assert min(u) > 0 and math.gcd(*u) == 1, monos
            u_degree(p, u)


def test_reduce_into_rank_and_pivots_match_sympy():
    # column j keyed ncols - 1 - j, as infer_weights keys its variables: the
    # leads are then the pivot columns of the reduced row echelon form
    sympy = pytest.importorskip("sympy")
    rng = random.Random("reduce-into")
    for _ in range(200):
        nrows, ncols, rank = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 4)
        left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(nrows)]
        right = [[rng.choice((0, 0, 1, -2, 5)) for _ in range(ncols)] for _ in range(rank)]
        matrix = [
            [sum(row[t] * right[t][j] for t in range(rank)) for j in range(ncols)]
            for row in left
        ]
        pivots: dict[int, dict[int, int]] = {}
        for r in matrix:
            reduce_into(pivots, {ncols - 1 - j: x for j, x in enumerate(r) if x})
        m = sympy.Matrix(matrix)
        assert len(pivots) == m.rank(), matrix
        assert sorted(ncols - 1 - k for k in pivots) == list(m.rref()[1]), matrix


def test_monomial_numerator_counts_the_distinct_multiples():
    # the degree-d coefficient of (1 - N(t)) / prod(1 - t^{u_i}) is the
    # number of distinct alpha * m of degree d
    def of_degree(u, d):
        if d < 0 or not u:
            return [()] if d == 0 else []
        return [(e,) + rest for e in range(d // u[0] + 1) for rest in of_degree(u[1:], d - e * u[0])]

    rng = random.Random("monomial-numerator")
    for _ in range(150):
        n = rng.randint(1, 4)
        u = tuple(rng.randint(1, 3) for _ in range(n))
        monos = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 6))]
        numerator = poly.monomial_numerator(monos, u)
        for d in range(9):
            multiples = {tuple(map(add, alpha, m)) for m in monos
                         for alpha in of_degree(u, d - poly.weighted_degree(m, u))}
            quotient = sum(c * len(of_degree(u, d - e)) for e, c in numerator.items())
            assert len(of_degree(u, d)) - quotient == len(multiples), (monos, u, d)


def test_monomial_numerator_of_the_unit_and_of_no_generators():
    assert poly.monomial_numerator([(0, 0)], (1, 2)) == {}
    assert poly.monomial_numerator([], (1, 2)) == {0: 1}
    # the complete intersection x^2, y^3: (1 - t^2)(1 - t^6) under u = (1, 2)
    assert poly.monomial_numerator([(2, 0), (0, 3), (2, 3)], (1, 2)) == {0: 1, 2: -1, 6: -1, 8: 1}


# --- derivatives -------------------------------------------------------------

def test_partial_derivative_weighted_surface():
    f = P("x^2*z+y^3+z^4", XYZ)
    assert partial_derivative(f, 2) == P("x^2+4*z^3", XYZ)


def test_partial_derivative_absent_variable():
    assert partial_derivative(P("y^3"), 0).is_zero()


def test_partial_derivative_power_rule():
    assert partial_derivative(parse_poly("x^5", ["x"]), 0) == parse_poly("5*x^4", ["x"])


def test_partial_derivative_index_out_of_range():
    with pytest.raises(IndexError):
        partial_derivative(P("x"), 5)


# --- squarefree test ----------------------------------------------------------

def test_squarefree_conic():
    ok, g = squarefree_test(P("x^2+y^2"))
    assert ok and g.is_constant()


def test_squarefree_fails_with_witness():
    ok, g = squarefree_test(P("x^2*y^3"))
    assert not ok
    # witness must be divisible by x*y^2
    exact_div(g, P("x*y^2"))


def test_squarefree_linear():
    ok, _ = squarefree_test(P("x"))
    assert ok


def test_squarefree_constant_rejected():
    with pytest.raises(ValueError):
        squarefree_test(P("5"))


# --- exact division and layering ----------------------------------------------

def test_exact_div_over_q():
    assert exact_div(P("1/2*x^2 - 1/2"), P("2/3*x + 2/3")) == P("3/4*x - 3/4")
    assert exact_div(P("x+1"), P("2*x+2")) == P("1/2")
    assert exact_div(P("0"), P("x+y")).is_zero()
    # x^2*y^3 - y^5 = (x*y - y^2) * (x*y^2 + y^3)
    assert exact_div(P("x^2*y^3 - y^5"), P("x*y - y^2")) == P("x*y^2 + y^3")


def test_exact_div_refuses_a_non_multiple():
    # the first two leads divide, the remainder y + 1 is left
    with pytest.raises(ValueError):
        exact_div(P("x^2+y"), P("x+1"))
    with pytest.raises(ValueError):
        exact_div(P("x"), P("y"))
    # every lead divides, but 2 does not divide the coefficient 3 (over Q
    # the quotient would be 3/2 with remainder -1/2)
    with pytest.raises(ValueError):
        exact_div(P("3*x+1"), P("2*x+1"))
    with pytest.raises(ZeroDivisionError):
        exact_div(P("x"), P("0"))


def test_heuristic_gcd_over_the_integers():
    from logderiv.poly import _heuristic_gcd

    # over Z the contents count: gcd(6x + 4, 4x + 2) = 2
    assert _heuristic_gcd({(1,): 6, (0,): 4}, {(1,): 4, (0,): 2}) in ({(0,): 2}, {(0,): -2})
    # x^2 + 1 and x^2 - 36 are coprime, but at the first point, 31, their
    # values 962 and 925 share 37 = 31 + 6; the candidate x + 6 divides only
    # x^2 - 36, so another point is tried
    assert _heuristic_gcd({(2,): 1, (0,): 1}, {(2,): 1, (0,): -36}) in ({(0,): 1}, {(0,): -1})
    assert polynomial_gcd(P("x^2+1"), P("x^2-36")).is_constant()


def test_a_gcd_dividing_the_other_argument_skips_evaluation(monkeypatch):
    # each derivative of (x+y+z)^20 divides it, and evaluation would rebuild
    # (x+y+z)^19 from integers of about 31 * 21^3 bits (0.6 s against
    # milliseconds by one exact division)
    from logderiv import poly

    def refuse(f, g):
        raise AssertionError("evaluated a pair where one argument divides the other")

    monkeypatch.setattr(poly, "_heuristic_gcd", refuse)
    ok, g = squarefree_test(P("(x+y+z)^20", XYZ))
    assert not ok and g == P("(x+y+z)^19", XYZ)


def test_sparse_high_degree_gcds_evaluate():
    # degree up to 25 in each variable but only 9 terms: the heuristic shows
    # in milliseconds that f is coprime to its derivatives, where the
    # remainder sequence alone ran past 20 s
    f = P("x^25*y^3*z^9 + 2*x^4*y^25*z^11 - 3*x^17*y^8*z^25 + 5*x^12*y^19*z^3"
          " - x^7*y^2*z^14 + 2*x^21*y^11 + 3*y^6*z^22 - x^9*z^5 + 1", XYZ)
    assert squarefree_test(f)[0]


def test_poly_imports_nothing_from_groebner():
    # poly is the bottom of the stack: the gcd and exact division need no
    # Groebner basis
    import logderiv.groebner
    import logderiv.poly

    tree = ast.parse(Path(logderiv.poly.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "groebner" not in (node.module or ""), ast.unparse(node)
            assert all("groebner" not in alias.name for alias in node.names), ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert all("groebner" not in alias.name for alias in node.names), ast.unparse(node)
    # perfbench's tracer wraps groebner.polynomial_gcd under every name bound
    # to it, squarefree_test's call in poly included, so both names must be
    # the one function
    assert logderiv.groebner.polynomial_gcd is logderiv.poly.polynomial_gcd


# --- printing ------------------------------------------------------------------

def test_format_canonical():
    f = P("x^2*z+y^3+z^4", XYZ)
    assert format_poly(f, XYZ) == "z^4 + y^3 + x^2*z"


def test_format_signs_and_fractions():
    assert format_poly(P("-x + 1/2"), XY) == "-x + 1/2"


def test_join_terms_writes_a_leading_sign_only_when_negative():
    assert join_terms([("-", "a"), ("+", "b"), ("-", "c")]) == "-a + b - c"
    assert join_terms([("+", "a"), ("-", "b")]) == "a - b"
    assert join_terms([("+", "a")]) == "a"
    assert join_terms([]) == "0"


# --- orders ----------------------------------------------------------------------

def test_order_rejects_nonpositive_weights():
    with pytest.raises(NonPositiveWeightError):
        MonomialOrder((1, 0))


def test_grevlex_tiebreak():
    order = MonomialOrder((1, 1, 1))
    # equal degree: x*z < y^2 in grevlex
    assert order.key_parts((1, 0, 1)) < order.key_parts((0, 2, 0))
    assert order.key_parts((1, 0, 0)) > order.key_parts((0, 1, 0))


# --- properties --------------------------------------------------------------------

coeffs = st.integers(min_value=-4, max_value=4)
exps2 = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def polys(draw, nvars=2, max_terms=4):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        e = draw(st.tuples(*(st.integers(0, 3) for _ in range(nvars))))
        c = draw(coeffs)
        if c:
            terms[e] = terms.get(e, 0) + c
    return Polynomial(nvars, {e: Fraction(c) for e, c in terms.items() if c})


@given(polys(nvars=3), polys(nvars=3))
def test_exact_div_recovers_the_cofactor(a, b):
    if not b.is_zero():
        assert exact_div(a * b, b) == a


@given(polys(), polys(), polys())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(polys())
def test_parse_print_roundtrip(p):
    assert parse_poly(format_poly(p, XY), XY) == p


@given(polys(), polys())
def test_u_degree_multiplicative(a, b):
    u = (2, 3)
    for p in (a, b):
        try:
            u_degree(p, u)
        except (ZeroPolynomialError, NotQuasiHomogeneous):
            return
    assert u_degree(a * b, u) == u_degree(a, u) + u_degree(b, u)


@given(polys())
def test_derivative_lowers_weighted_degree(p):
    u = (2, 3)
    try:
        d = u_degree(p, u)
    except (ZeroPolynomialError, NotQuasiHomogeneous):
        return
    for i in range(2):
        q = partial_derivative(p, i)
        if not q.is_zero():
            assert u_degree(q, u) == d - u[i]


@settings(max_examples=200)
@given(exps2, exps2, exps2)
def test_order_total_and_multiplicative(a, b, m):
    order = MonomialOrder((2, 1))
    ka, kb = order.key_parts(a), order.key_parts(b)
    assert (ka < kb) or (kb < ka) or a == b
    if ka < kb:
        from logderiv.poly import mono_mul

        assert order.key_parts(mono_mul(m, a)) < order.key_parts(mono_mul(m, b))
