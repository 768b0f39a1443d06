from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from darbouxlab.exactcore import Poly
from darbouxlab.field import load_field, parse_field
from darbouxlab.numerics import compile_jacobian

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_path(name: str) -> Path:
    return CORPUS / name


LV3_TEMPLATE = """
vars: x y z
param a = {a}
param b = {b}
param c = {c}
dx/dt = x*(1 - y + c*x - a*x*z)
dy/dt = y*(-1 + x)
dz/dt = z*(-b + a*x^2)
"""


def make_lv3(a, b, c):
    return parse_field(LV3_TEMPLATE.format(a=a, b=b, c=c))


def cyclic_lotka_volterra(names: str) -> str:
    """The field x_i' = x_i*(x_(i+1) - x_(i-1)), indices mod n, as text."""
    return "vars: " + " ".join(names) + "\n" + "".join(
        f"d{v}/dt = {v}*({names[(i + 1) % len(names)]} - {names[i - 1]})\n"
        for i, v in enumerate(names))


def jacobian_at(X, state):
    """The analytic Jacobian of X at state, an (n, n) float64 array."""
    out = np.empty((len(X.variables), len(X.variables)), dtype=float)
    return compile_jacobian(X)(0.0, np.asarray(state, dtype=float), out)


def state_rows(traj):
    """The trajectory's states as an (n_points, dim) array."""
    return np.asarray(traj.states).reshape(-1, len(traj.variables))


@pytest.fixture(scope="session")
def reference_field():
    return load_field(corpus_path("samardzija_greller.vf"))


@pytest.fixture(scope="session")
def desk_field():
    return load_field(corpus_path("lv3_a3_b3_c2.vf"))


# hypothesis strategies ------------------------------------------------------

small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=6),
)

nonzero_fractions = st.builds(
    lambda n, d: Fraction(n if n else 1, d),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=6),
)


def _exponents(nv, max_degree):
    return st.tuples(*([st.integers(min_value=0, max_value=max_degree)]
                       * nv)).map(
        lambda m: m if sum(m) <= max_degree else tuple(0 for _ in m))


def polys(variables=("x", "y", "z"), max_degree=3, max_terms=5):
    term = st.tuples(_exponents(len(variables), max_degree), small_fractions)
    return st.lists(term, max_size=max_terms).map(
        lambda terms: Poly(variables, {m: c for m, c in terms if c != 0}))


def nonzero_polys(variables=("x", "y", "z"), max_degree=3, max_terms=5):
    lead = st.tuples(_exponents(len(variables), max_degree), nonzero_fractions)
    rest = st.lists(
        st.tuples(_exponents(len(variables), max_degree), small_fractions),
        max_size=max_terms - 1)
    return st.tuples(lead, rest).map(
        lambda lr: Poly(variables, {lr[0][0]: lr[0][1]})
        + Poly(variables, {m: c for m, c in lr[1]
                           if c != 0 and m != lr[0][0]}))
