"""Field-file parsing, Lie derivative, plane restriction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darbouxlab.exactcore import Poly, parse_poly
from darbouxlab.field import (FieldParseError, NotInvariantError,
                              lie_derivative, parse_field, restrict_to_plane)

from conftest import make_lv3, polys


def test_reference_file_parses(reference_field):
    X = reference_field
    assert X.variables == ("x", "y", "z")
    assert X.degree == 3
    assert X.source_params["a"] == Fraction(29851, 10000)


def test_float_param_rejected():
    with pytest.raises(FieldParseError) as exc:
        parse_field("vars: x\nparam a = 0.5\ndx/dt = a*x\n")
    assert exc.value.kind == "NonRationalLiteral"
    assert exc.value.line == 2


def test_missing_equation():
    text = """
vars: x y z
param b = 3
dx/dt = x
dy/dt = -y
"""
    with pytest.raises(FieldParseError) as exc:
        parse_field(text)
    assert exc.value.kind == "MissingEquation"
    assert exc.value.detail == "z"


def test_duplicate_equation():
    with pytest.raises(FieldParseError) as exc:
        parse_field("vars: x\ndx/dt = x\ndx/dt = 2*x\n")
    assert exc.value.kind == "DuplicateEquation"


def test_unbound_symbol_has_position():
    with pytest.raises(FieldParseError) as exc:
        parse_field("vars: x\ndx/dt = q*x\n")
    assert exc.value.kind == "UnboundParameter"
    assert exc.value.line == 2


def test_round_trip(reference_field):
    assert parse_field(reference_field.to_text()) == reference_field


@settings(max_examples=200)
@given(st.text(alphabet="xyzabc123+-*/^()=.,:\n dparmvt", max_size=120))
def test_parser_never_crashes_unstructured(text):
    # arbitrary junk either parses or raises the dedicated error type
    try:
        parse_field(text)
    except FieldParseError:
        pass


class TestLieDerivative:
    def test_sum_of_first_and_third_component(self, reference_field):
        X = reference_field
        f = parse_poly("x + z", X.variables)
        a, b, c = (X.source_params[k] for k in "abc")
        expected = parse_poly("c*x^2 - x*y - b*z + x", X.variables,
                              {"b": b, "c": c})
        assert lie_derivative(X, f) == expected  # the a*x^2*z terms cancel

    def test_constant_maps_to_zero(self, reference_field):
        one = Poly.constant(reference_field.variables, 1)
        assert lie_derivative(reference_field, one).is_zero()

    def test_square_of_total_population_at_c0(self):
        X = make_lv3(3, 3, 0)
        f = parse_poly("(x + y + z)^2", X.variables)
        expected = parse_poly("-2*(x + y + z)*(3*z - x + y)", X.variables)
        assert lie_derivative(X, f) == expected

    @settings(max_examples=100)
    @given(polys(), polys())
    def test_derivation_rule(self, f, g):
        X = make_lv3(3, 3, 2)
        assert lie_derivative(X, f * g) == \
            f * lie_derivative(X, g) + g * lie_derivative(X, f)


class TestRestriction:
    def test_restrict_y(self, reference_field):
        Y = restrict_to_plane(reference_field, "y")
        assert Y.variables == ("x", "z")
        a = reference_field.source_params["a"]
        assert Y.components[0] == parse_poly("x*(1 + 2*x) - a*x^2*z",
                                             Y.variables, {"a": a})
        assert Y.components[1] == parse_poly("z*(-3 + a*x^2)", Y.variables,
                                             {"a": a})

    def test_restrict_z(self, reference_field):
        Z = restrict_to_plane(reference_field, "z")
        assert Z.variables == ("x", "y")
        assert Z.components == (parse_poly("x*(1 - y + 2*x)", Z.variables),
                                parse_poly("y*(-1 + x)", Z.variables))

    def test_restrict_x(self, reference_field):
        R = restrict_to_plane(reference_field, "x")
        assert R.components == (parse_poly("-y", R.variables),
                                parse_poly("-3*z", R.variables))

    def test_not_invariant(self):
        X = parse_field("vars: x y\ndx/dt = y\ndy/dt = x\n")
        with pytest.raises(NotInvariantError):
            restrict_to_plane(X, "x")

    @settings(max_examples=50)
    @given(polys(variables=("x", "z"), max_degree=3))
    def test_commutes_with_lie_derivative(self, f2):
        # for polynomials not involving the dropped variable, restricting the
        # field then deriving equals deriving then substituting y = 0
        X = make_lv3(3, 3, 2)
        Y = restrict_to_plane(X, "y")
        lift = Poly(X.variables, {(m[0], 0, m[1]): c
                                  for m, c in f2.terms.items()})
        direct = lie_derivative(Y, f2)
        via_full = lie_derivative(X, lift).set_zero("y").drop_variable("y")
        assert direct == via_full


def test_param_named_like_a_variable_rejected():
    with pytest.raises(FieldParseError) as exc:
        parse_field("vars: x y\nparam x = 3\ndx/dt = x*y\ndy/dt = y\n")
    assert exc.value.kind == "SyntaxError"
    assert exc.value.detail == "param 'x' is already a variable"
    assert exc.value.line == 2
    # the vars: line may follow the param
    with pytest.raises(FieldParseError) as exc:
        parse_field("param y = 1/2\nvars: x y\ndx/dt = x\ndy/dt = y\n")
    assert exc.value.line == 1
