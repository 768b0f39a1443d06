"""Truncated formal first-integral spaces and parameter promotion."""

from fractions import Fraction

import pytest

from darbouxlab.exactcore import Poly, parse_poly
from darbouxlab.field import lie_derivative, parse_field
from darbouxlab.series import formal_integral_space, promote_parameter

from conftest import LV3_TEMPLATE, make_lv3

PLANAR = """
vars: x y
param c = {c}
dx/dt = x*(1 - y + c*x)
dy/dt = y*(-1 + x)
"""


def planar(c):
    return parse_field(PLANAR.format(c=c))


def truncate(f, degree):
    """The terms of f of total degree <= degree."""
    return Poly(f.variables,
                {m: c for m, c in f.terms.items() if sum(m) <= degree})


def h1_truncation(order):
    """Series of x*y*exp(-x-y) through the given total degree, computed
    directly from the exponential series as an independent oracle."""
    v = ("x", "y")
    xy = parse_poly("x*y", v)
    s = parse_poly("-(x + y)", v)
    total = Poly.zero(v)
    term = Poly.constant(v, 1)
    for k in range(order + 1):
        total = total + xy * term
        term = term * s * Fraction(1, k + 1)
    return truncate(total, order)


def test_planar_c2_constants_only():
    space = formal_integral_space(planar(2), 8, 2)
    assert space.dimension == 1
    assert str(space.basis[0]) == "1"


def test_series_space_is_frozen():
    space = formal_integral_space(planar(2), 2, 2)
    for name in ("order", "basis", "extra"):
        with pytest.raises(AttributeError):
            setattr(space, name, None)
    assert (space.order, space.margin, space.dimension) == (2, 2, 1)


def test_planar_c0_contains_conserved_series():
    space = formal_integral_space(planar(0), 4, 0)
    assert space.dimension >= 2
    assert space.contains(h1_truncation(4))


def test_soundness_of_low_degrees():
    # all graded components of X(f) up to N+m vanish for every basis element
    X = planar(0)
    space = formal_integral_space(X, 4, 1)
    for f in space.basis:
        image = lie_derivative(X, f)
        for degree in range(space.order + space.margin + 1):
            assert image.homogeneous_part(degree).is_zero()


def test_margin_monotonicity():
    X = make_lv3(3, 2, 0)
    dims = [formal_integral_space(X, 4, m).dimension for m in range(3)]
    assert dims == sorted(dims, reverse=True)


def test_nesting():
    X = planar(0)
    big = formal_integral_space(X, 5, 0)
    small = formal_integral_space(X, 3, 0)
    for f in big.basis:
        assert small.contains(truncate(f, 3))


def test_full_system_b0_constants_only():
    space = formal_integral_space(make_lv3(3, 0, 2), 6, 2)
    assert space.dimension == 1


def test_darboux_oracle_truncation_in_space():
    # the conserved x*y*exp(-x-y) of the fully degenerate regime, truncated
    X = make_lv3(0, 0, 0)
    v = X.variables
    xy = parse_poly("x*y", v)
    s = parse_poly("-(x + y)", v)
    total = Poly.zero(v)
    term = Poly.constant(v, 1)
    for k in range(5):
        total = total + xy * term
        term = term * s * Fraction(1, k + 1)
    space = formal_integral_space(X, 4, 0)
    assert space.contains(truncate(total, 4))


class TestPromotion:
    def test_promote_b(self, desk_field):
        ext = promote_parameter(desk_field, "b")
        assert ext.variables == ("x", "y", "z", "b")
        assert ext.component("b").is_zero()
        zdot = ext.component("z")
        assert zdot == parse_poly("z*(-b + 3*x^2)", ext.variables)
        assert zdot.total_degree() == 3

    def test_unknown_parameter(self, desk_field):
        with pytest.raises(ValueError, match="unknown parameter"):
            promote_parameter(desk_field, "q")

    def test_promoted_variable_is_constant_of_motion(self, desk_field):
        ext = promote_parameter(desk_field, "b")
        b = Poly.variable(ext.variables, "b")
        assert lie_derivative(ext, b).is_zero()


class TestExtendedSpace:
    def test_pure_powers_of_b(self, desk_field):
        ext = promote_parameter(desk_field, "b")
        space = formal_integral_space(ext, 4, 1)
        assert [str(p) for p in space.basis] == ["1", "b", "b^2", "b^3", "b^4"]
        assert space.depends_only_on("b")

    def test_order_one(self, desk_field):
        ext = promote_parameter(desk_field, "b")
        space = formal_integral_space(ext, 1, 1)
        assert [str(p) for p in space.basis] == ["1", "b"]

    def test_a0_control_records_dimension_only(self):
        # no claim is asserted for a = 0: just record what the solver finds
        X = parse_field(LV3_TEMPLATE.format(a=0, b=3, c=2))
        ext = promote_parameter(X, "b")
        space = formal_integral_space(ext, 2, 1)
        assert space.dimension >= 3  # contains 1, b, b^2 at least
        record = space.record()
        assert record["dimension"] == space.dimension
