"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every tolerance is pinned here, not configured elsewhere.  Exact criteria
compare canonical forms; numerical criteria use the thresholds stated in the
criterion itself.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from darbouxlab.darboux import (DarbouxCert, ExpFactorCert,
                                assemble_darboux_integrals, default_lattice,
                                rational_obstruction, search_darboux,
                                search_darboux_fixed_cofactor,
                                search_exp_factors)
from darbouxlab.exactcore import Poly, RatMatrix, parse_poly, poly_divmod
from darbouxlab.field import lie_derivative, load_field, parse_field
from darbouxlab.numerics import (compile_rhs, conservation_drift, lyapunov_max,
                                 simulate)
from darbouxlab.series import formal_integral_space, promote_parameter

from conftest import corpus_path, jacobian_at, make_lv3, LV3_TEMPLATE


def report(number, ok, detail):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_certificate_reproduction(reference_field):
    t0 = time.perf_counter()
    X = reference_field
    a = X.source_params["a"]
    P = lambda s: parse_poly(s, X.variables, {"a": a, "b": Fraction(3),
                                              "c": Fraction(2)})
    # X(f) = K*f fixes K for f != 0, and X(g) = L fixes L, so each passing
    # check reproduces the paper's cofactor
    checks = [
        DarbouxCert(P("x"), P("1 - y + c*x - a*x*z")).check(X),
        DarbouxCert(P("y"), P("-1 + x")).check(X),
        DarbouxCert(P("z"), P("-b + a*x^2")).check(X),
        ExpFactorCert(P("x + z"), (0, 0, 0),
                      P("c*x^2 - x*y - b*z + x")).check(X),
        ExpFactorCert(P("y"), (0, 0, 0), P("y*(x - 1)")).check(X),
    ]
    elapsed = time.perf_counter() - t0
    report(1, all(checks) and elapsed < 1.0,
           f"coordinate and exponential cofactors exact ({elapsed:.3f}s)")


def test_criterion_2_unique_darboux_polynomials(reference_field):
    t0 = time.perf_counter()
    certs = search_darboux(reference_field, 4,
                           default_lattice(reference_field, 4))
    elapsed = time.perf_counter() - t0
    found = sorted(str(c.f) for c in certs)
    report(2, found == ["x", "y", "z"] and elapsed < 60.0,
           f"degree<=4 search over default lattice B=4 found {found} "
           f"({elapsed:.1f}s)")


def test_criterion_3_exponential_factor_regimes():
    t0 = time.perf_counter()
    v = ("x", "y", "z")
    P = lambda s: parse_poly(s, v)

    r1 = search_exp_factors(make_lv3(3, 3, 2), 2, 1)
    ok1 = [(str(c.g), c.s) for c in r1] == [("x + z", (0, 0, 0)),
                                            ("y", (0, 0, 0))]

    r2 = search_exp_factors(make_lv3(3, 3, 0), 2, 1)
    square = [c for c in r2 if c.g == P("(x + y + z)^2")]
    computed = P("-2*(x + y + z)*(3*z - x + y)")
    variant = P("-2*(x + y + z)*(3*z - x - y)")
    ok2 = (len(r2) == 3 and len(square) == 1
           and square[0].L == computed
           and square[0].L != variant)  # the sign is fixed by computation

    r3 = search_exp_factors(make_lv3(0, 3, 2), 2, 1)
    ok3 = [(str(c.g), str(c.L)) for c in r3] == [("z", "-3*z")]

    r4 = search_exp_factors(make_lv3(0, 0, 2), 2, 1)
    ok4 = r4 == []

    elapsed = time.perf_counter() - t0
    report(3, ok1 and ok2 and ok3 and ok4 and elapsed < 60.0,
           f"four regimes exact, quadratic factor cofactor as computed "
           f"({elapsed:.1f}s)")


def test_criterion_4_integrable_regime():
    X = make_lv3(0, 0, 0)
    t0 = time.perf_counter()
    certs = search_darboux(X, 2)
    efacts = search_exp_factors(X, 2, 0)
    funcs = assemble_darboux_integrals(certs, efacts)
    assembly_elapsed = time.perf_counter() - t0
    ok_kernel = len(funcs) == 2
    h1 = next((f for f in funcs if f.exp_terms), None)
    h2 = next((f for f in funcs if not f.exp_terms), None)
    ok_forms = (h1 is not None and h2 is not None
                and {str(c.f) for c, _ in h1.darboux_terms} == {"x", "y"}
                and [str(c.f) for c, _ in h2.darboux_terms] == ["z"])

    traj = simulate(X, (0.5, 0.5, 1.0), 100.0, tol=1e-10)
    drift_h1 = conservation_drift(traj, h1)
    drift_h2 = conservation_drift(traj, h2)
    report(4, ok_kernel and ok_forms and assembly_elapsed < 1.0
           and drift_h1.relative_drift <= 1e-6
           and drift_h2.max_abs_drift == 0.0,
           f"kernel dim 2, H1 drift {drift_h1.relative_drift:.2e} <= 1e-6, "
           f"z drift {drift_h2.max_abs_drift} exactly 0 "
           f"({assembly_elapsed:.2f}s assembly)")


def test_criterion_5_no_rational_first_integrals():
    X = make_lv3(3, 3, 2)
    t0 = time.perf_counter()
    certs = search_darboux(X, 1, default_lattice(X, 1))
    efacts = search_exp_factors(X, 2, 1)
    funcs = assemble_darboux_integrals(certs, efacts)
    obstruction = rational_obstruction(X, 4, default_lattice(X, 4))
    elapsed = time.perf_counter() - t0
    report(5, funcs == [] and obstruction.holds and elapsed < 10.0,
           f"cofactor balance kernel trivial, obstruction holds to degree 4 "
           f"({elapsed:.1f}s)")


def test_criterion_6_formal_truncations():
    t0 = time.perf_counter()
    planar = parse_field(
        "vars: x y\nparam c = 2\ndx/dt = x*(1 - y + c*x)\ndy/dt = y*(-1 + x)\n")
    dim_planar = formal_integral_space(planar, 8, 2).dimension

    dim_b0 = formal_integral_space(make_lv3(3, 0, 2), 6, 2).dimension

    ext = promote_parameter(make_lv3(3, 3, 2), "b")
    space_ext = formal_integral_space(ext, 4, 1)
    basis_ext = [str(p) for p in space_ext.basis]

    elapsed = time.perf_counter() - t0
    report(6, dim_planar == 1 and dim_b0 == 1
           and basis_ext == ["1", "b", "b^2", "b^3", "b^4"] and elapsed < 120.0,
           f"planar dim {dim_planar}, b=0 dim {dim_b0}, extended basis "
           f"{basis_ext} ({elapsed:.1f}s)")


LORENZ63 = """
vars: x y z
param s = 10
param r = 28
param b = 8/3
dx/dt = s*(y - x)
dy/dt = x*(r - z) - y
dz/dt = x*y - b*z
"""
LORENZ63_LAMBDA = 0.9056  # Sprott 2003, Chaos and Time-Series Analysis


def test_criterion_7_lyapunov_thresholds(reference_field):
    # Chaos threshold 0.01 on a field known to be chaotic; regular-motion
    # slack 0.005 on the integrable regime and at the reference parameters,
    # whose orbits measure as regular (README, known results).
    t0 = time.perf_counter()
    lam_lorenz = lyapunov_max(parse_field(LORENZ63), (1.0, 1.0, 1.0),
                              500.0, 0.5)
    lam_integrable = lyapunov_max(make_lv3(0, 0, 0), (0.5, 0.5, 1.0),
                                  2000.0, 0.5)
    lam_reference = lyapunov_max(reference_field, (0.5, 1.0, 2.0), 2000.0, 0.5)
    lam_reference_tight = lyapunov_max(reference_field, (0.5, 1.0, 2.0),
                                       2000.0, 0.5, tol=1e-10)
    elapsed = time.perf_counter() - t0
    ok = (lam_lorenz > 0.01
          and abs(lam_lorenz - LORENZ63_LAMBDA) <= 0.05 * LORENZ63_LAMBDA
          and abs(lam_integrable) <= 0.005
          and abs(lam_reference) <= 0.005
          and abs(lam_reference_tight) <= 0.005
          and elapsed < 300.0)
    report(7, ok,
           f"lambda(Lorenz-63)={lam_lorenz:.5f} (required > 0.01 and within "
           f"5% of {LORENZ63_LAMBDA}), "
           f"lambda(integrable)={lam_integrable:.5f} (required |.| <= 0.005), "
           f"lambda(reference)={lam_reference:.5f} (required |.| <= 0.005), "
           f"lambda(reference, tol 1e-10)={lam_reference_tight:.5f} "
           f"(required |.| <= 0.005) ({elapsed:.0f}s)")


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(20240801)
    v = ("x", "y", "z")
    failures = []

    def random_poly(max_terms=5, max_deg=3, nonzero=False):
        terms = {}
        for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
            mono = tuple(rng.randint(0, max_deg) for _ in range(3))
            if sum(mono) > max_deg:
                continue
            terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        p = Poly(v, terms)
        if nonzero and p.is_zero():
            return Poly.variable(v, "x")
        return p

    X = make_lv3(3, 3, 2)

    for _ in range(100):  # division/multiplication round trip
        p, q = random_poly(), random_poly(nonzero=True)
        quotient, remainder = poly_divmod(p * q, q)
        if not (remainder.is_zero() and quotient == p):
            failures.append("division round trip")

    for _ in range(100):  # Lie derivative is a derivation
        f, g = random_poly(), random_poly()
        if lie_derivative(X, f * g) != \
                f * lie_derivative(X, g) + g * lie_derivative(X, f):
            failures.append("derivation rule")

    for _ in range(100):  # cofactor additivity on products
        f, g = random_poly(nonzero=True), random_poly(nonzero=True)
        lhs = lie_derivative(X, f * g)
        if lhs != f * lie_derivative(X, g) + g * lie_derivative(X, f):
            failures.append("cofactor additivity")

    for _ in range(100):  # nullspace soundness
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = RatMatrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                        for _ in range(cols)] for _ in range(rows)])
        kernel = m.nullspace()
        if m.rank() + len(kernel) != cols:
            failures.append("rank-nullity")
        for vec in kernel:
            if any(sum(a * x for a, x in zip(row, vec))
                   for row in m.entries):
                failures.append("kernel vector")

    X0 = make_lv3(0, 0, 0)
    h1 = assemble_darboux_integrals(search_darboux(X0, 2),
                                    search_exp_factors(X0, 2, 0))
    h1 = next(f for f in h1 if f.exp_terms)
    for _ in range(100):  # RK4 order-4 drift scaling
        x0 = (rng.uniform(0.3, 0.8), rng.uniform(0.3, 0.8), 1.0)
        coarse = conservation_drift(
            simulate(X0, x0, 2.0, dt=0.04), h1).max_abs_drift
        fine = conservation_drift(
            simulate(X0, x0, 2.0, dt=0.02), h1).max_abs_drift
        if coarse > 1e-14 and coarse / max(fine, 1e-300) < 8.0:
            failures.append("rk4 order")

    rhs = compile_rhs(X)
    for _ in range(100):  # analytic Jacobian vs central differences
        state = np.array([rng.uniform(0.2, 2.0) for _ in range(3)])
        jac = jacobian_at(X, state)
        eps = 1e-7
        for j in range(3):
            bumped = state.copy()
            bumped[j] += eps
            fp = rhs(0.0, bumped, np.empty(3)).copy()
            bumped[j] -= 2 * eps
            fm = rhs(0.0, bumped, np.empty(3)).copy()
            fd = (fp - fm) / (2 * eps)
            scale = np.maximum(np.abs(jac[:, j]), 1.0)
            if np.any(np.abs(fd - jac[:, j]) / scale >= 1e-6):
                failures.append("jacobian")

    elapsed = time.perf_counter() - t0
    report(8, not failures,
           f"6 property suites x 100 randomized instances, "
           f"failures: {sorted(set(failures)) or 'none'} ({elapsed:.1f}s)")
