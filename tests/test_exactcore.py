"""Exact polynomial arithmetic, division, and rational linear algebra."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darbouxlab.exactcore import (InexactDivisionError, Poly, RatMatrix,
                                  VariableMismatchError, coefficient_matrix,
                                  monomials_of_degree, monomials_upto,
                                  parse_poly, poly_divide_exact, poly_divmod)

from conftest import nonzero_polys, polys, small_fractions

XYZ = ("x", "y", "z")


def P(text, variables=XYZ):
    return parse_poly(text, variables)


class TestArithmetic:
    def test_square_of_binomial(self):
        assert P("(x + z) * (x + z)") == P("x^2 + 2*x*z + z^2")

    def test_additive_identity(self):
        p = P("3*x*y - z")
        assert p + Poly.zero(XYZ) == p

    def test_reference_component_expansion(self):
        # x-component of the model at a=0, c=2
        assert P("(1 - y + 2*x) * x") == P("x - x*y + 2*x^2")

    def test_variable_set_mismatch(self):
        with pytest.raises(VariableMismatchError):
            P("x") + parse_poly("x", ("x", "y"))

    def test_power(self):
        assert P("x + 1") ** 3 == P("x^3 + 3*x^2 + 3*x + 1")

    def test_scalar_ops(self):
        assert P("x") * Fraction(1, 2) + 1 == P("1/2*x + 1")


class TestDivision:
    def test_monomial_quotient(self):
        assert poly_divide_exact(P("x^2*y - x*y^2"), P("x*y")) == P("x - y")

    def test_inverse_of_multiplication(self):
        assert poly_divide_exact(P("x - x*y + 2*x^2"), P("x")) == P("1 - y + 2*x")

    def test_nonzero_remainder_reported(self):
        with pytest.raises(InexactDivisionError) as exc:
            poly_divide_exact(P("x - y"), P("x + y"))
        assert not exc.value.remainder.is_zero()

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(P("x"), Poly.zero(XYZ))

    @settings(max_examples=100)
    @given(polys(), nonzero_polys())
    def test_product_division_round_trip(self, p, q):
        quotient, remainder = poly_divmod(p * q, q)
        assert remainder.is_zero()
        assert quotient == p


class TestCanonicalText:
    def test_canonical_form_example(self):
        assert str(P("2*x^2 - x*y + 1/2")) == "2*x^2 - x*y + 1/2"

    def test_zero(self):
        assert str(Poly.zero(XYZ)) == "0"

    @settings(max_examples=100)
    @given(polys())
    def test_print_parse_round_trip(self, p):
        assert parse_poly(str(p), XYZ) == p

    def test_float_literal_rejected(self):
        with pytest.raises(ValueError, match="floating-point"):
            parse_poly("0.5*x", XYZ)


class TestLinearAlgebra:
    def test_simple_kernel(self):
        basis = RatMatrix([[1, 1, 0], [0, 0, 0]]).nullspace()
        assert basis == [[-1, 1, 0], [0, 0, 1]]

    def test_identity_has_trivial_kernel(self):
        eye = RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert eye.nullspace() == []

    def test_cofactor_balance_matrix_trivial_kernel(self):
        # columns: the five cofactors of the a=3, b=3, c=2 model on the
        # monomial rows (1, x, y, z, x^2, x*y, x*z, y^2, y*z, z^2)
        cols = [
            [1, 2, -1, 0, 0, 0, -3, 0, 0, 0],   # 1 - y + 2x - 3xz
            [-1, 1, 0, 0, 0, 0, 0, 0, 0, 0],    # -1 + x
            [-3, 0, 0, 0, 3, 0, 0, 0, 0, 0],    # -3 + 3x^2
            [0, 1, 0, -3, 2, -1, 0, 0, 0, 0],   # 2x^2 - xy - 3z + x
            [0, 0, -1, 0, 0, 1, 0, 0, 0, 0],    # xy - y
        ]
        matrix = RatMatrix([[cols[j][i] for j in range(5)] for i in range(10)])
        assert matrix.nullspace() == []

    def test_rref_idempotent(self):
        m = RatMatrix([[2, 4, 1], [1, 2, 3], [3, 6, 4]])
        red, pivots = m.rref()
        again, pivots2 = red.rref()
        assert red == again and pivots == pivots2


@settings(max_examples=100)
@given(
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_nullspace_soundness(rows, cols, seed):
    import random

    rng = random.Random(seed)
    entries = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for _ in range(cols)] for _ in range(rows)]
    m = RatMatrix(entries)
    kernel = m.nullspace()
    for vec in kernel:
        assert all(v == 0 for v in m.matvec(vec))
    assert m.rank() + len(kernel) == cols


def fraction_rref(entries):
    """Gauss-Jordan on Fractions, row by row: the reference for RatMatrix.rref.

    Pivot columns left to right, pivot row = first row with a nonzero entry.
    """
    m = [[Fraction(x) for x in row] for row in entries]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots = []
    pr = 0
    for pc in range(cols):
        pivot_row = next((r for r in range(pr, rows) if m[r][pc] != 0), None)
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        inv = 1 / m[pr][pc]
        m[pr] = [x * inv for x in m[pr]]
        for r in range(rows):
            factor = m[r][pc]
            if r != pr and factor != 0:
                m[r] = [a - factor * b for a, b in zip(m[r], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    return m, tuple(pivots)


def fraction_nullspace(entries):
    red, pivots = fraction_rref(entries)
    cols = len(entries[0]) if entries else 0
    basis = []
    for fc in (j for j in range(cols) if j not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


HUGE = 10**30
entries_of = st.one_of(
    st.just(Fraction(0)),
    small_fractions,
    st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, HUGE)))


@st.composite
def rational_matrices(draw):
    """Matrices up to 7x7 with zero rows and columns and dependent rows."""
    rows = draw(st.integers(min_value=0, max_value=7))
    cols = draw(st.integers(min_value=1, max_value=7)) if rows else 0
    m = [[draw(entries_of) for _ in range(cols)] for _ in range(rows)]
    for r in range(rows):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero":
            m[r] = [Fraction(0)] * cols
        elif kind == "combination" and r >= 2:
            a, b = draw(entries_of), draw(entries_of)
            i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            m[r] = [a * x + b * y for x, y in zip(m[i], m[j])]
    for c in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)):
        if c < cols:
            for row in m:
                row[c] = Fraction(0)
    return m


class TestIntegerRowElimination:
    """RatMatrix.rref on integer rows against Fraction Gauss-Jordan."""

    @settings(max_examples=200, deadline=None)
    @given(rational_matrices())
    def test_matches_fraction_elimination(self, entries):
        red, pivots = RatMatrix(entries).rref()
        assert (red.entries, pivots) == fraction_rref(entries)
        assert RatMatrix(entries).nullspace() == fraction_nullspace(entries)

    def test_empty_and_single_row(self):
        red, pivots = RatMatrix([]).rref()
        assert (red.rows, red.cols, red.entries, pivots) == (0, 0, [], ())
        assert RatMatrix([]).nullspace() == []
        row = [[Fraction(0), Fraction(-HUGE, 3), Fraction(7, HUGE + 1)]]
        assert RatMatrix(row).rref() == (RatMatrix(fraction_rref(row)[0]), (1,))
        assert RatMatrix(row).nullspace() == fraction_nullspace(row)


def test_monomial_order_is_graded_lex():
    monos = monomials_upto(2, 2)
    assert monos == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_monomials_of_degree_matches_brute_force():
    for nvars in range(5):
        for degree in range(-1, 7):
            brute = sorted(m for m in itertools.product(range(degree + 1),
                                                        repeat=nvars)
                           if sum(m) == degree)
            monos = monomials_of_degree(nvars, degree)
            assert monos == brute
            monos.append("mutated")   # the memo hands out copies
            assert monomials_of_degree(nvars, degree) == brute


@settings(max_examples=100)
@given(ps=st.lists(polys(), max_size=4),
       monos=st.lists(st.sampled_from(monomials_upto(3, 3)), unique=True))
def test_coefficient_matrix_entries(ps, monos):
    # any subset of the monomials in any order; terms outside it are dropped
    mat = coefficient_matrix(ps, monos)
    assert len(mat) == len(monos)
    assert all(len(row) == len(ps) for row in mat)
    for i, m in enumerate(monos):
        for j, p in enumerate(ps):
            assert mat[i][j] == p.coefficient(m)
            assert isinstance(mat[i][j], Fraction)


def test_coefficient_matrix_window_and_empty_shapes():
    p = P("2*x^2 - 1/3*y + 5")
    assert coefficient_matrix([p], [(2, 0, 0), (0, 0, 0)]) == [[2], [5]]
    assert coefficient_matrix([p, -p], [(0, 1, 0)]) == [
        [Fraction(-1, 3), Fraction(1, 3)]]
    assert coefficient_matrix([], monomials_upto(3, 1)) == [[], [], [], []]
    assert coefficient_matrix([p, p], []) == []
