from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from logderiv.poly import (
    MonomialOrder,
    NonPositiveWeightError,
    NotQuasiHomogeneous,
    ParseError,
    Polynomial,
    ZeroPolynomialError,
    format_poly,
    infer_weights,
    parse_poly,
    partial_derivative,
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
    from logderiv.groebner import exact_div

    exact_div(g, P("x*y^2"))


def test_squarefree_linear():
    ok, _ = squarefree_test(P("x"))
    assert ok


def test_squarefree_constant_rejected():
    with pytest.raises(ValueError):
        squarefree_test(P("5"))


# --- printing ------------------------------------------------------------------

def test_format_canonical():
    f = P("x^2*z+y^3+z^4", XYZ)
    assert format_poly(f, XYZ) == "z^4 + y^3 + x^2*z"


def test_format_signs_and_fractions():
    assert format_poly(P("-x + 1/2"), XY) == "-x + 1/2"


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
