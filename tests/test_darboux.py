"""Certificates, lattice searches, exponential factors, integral assembly."""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

from darbouxlab.darboux import (CofactorLattice, NotDarbouxError,
                                NotExpFactorError, assemble_darboux_integrals,
                                default_lattice, enumerate_cofactors,
                                rational_obstruction, search_darboux,
                                search_darboux_fixed_cofactor,
                                search_exp_factors, verify_darboux,
                                verify_exp_factor)
from darbouxlab.exactcore import Poly, RatMatrix, grlex_key, parse_poly
from darbouxlab.field import lie_derivative, parse_field

from conftest import make_lv3, nonzero_polys

RESTRICTED_Y0_A0 = """
vars: x z
param b = 3
param c = 2
dx/dt = x*(1 + c*x)
dz/dt = -b*z
"""

RESTRICTED_Z0 = """
vars: x y
param c = 2
dx/dt = x*(1 - y + c*x)
dy/dt = y*(-1 + x)
"""


def P(text, variables=("x", "y", "z")):
    return parse_poly(text, variables)


class TestVerify:
    def test_z_cofactor(self, desk_field):
        cert = verify_darboux(desk_field, P("z"))
        assert cert.K == P("-3 + 3*x^2")

    def test_product_cofactor_is_sum(self, desk_field):
        cert = verify_darboux(desk_field, P("x^2*y"))
        k1 = verify_darboux(desk_field, P("x")).K
        k2 = verify_darboux(desk_field, P("y")).K
        assert cert.K == 2 * k1 + k2

    def test_not_darboux_carries_remainder(self):
        X = make_lv3(0, 3, 0)
        with pytest.raises(NotDarbouxError) as exc:
            verify_darboux(X, P("x + y"))
        assert not exc.value.remainder.is_zero()

    def test_constant_rejected(self, desk_field):
        with pytest.raises(ValueError):
            verify_darboux(desk_field, Poly.constant(desk_field.variables, 2))

    @settings(max_examples=100, deadline=None)
    @given(nonzero_polys(max_degree=2, max_terms=3),
           nonzero_polys(max_degree=2, max_terms=3))
    def test_cofactor_additivity(self, f, g):
        # constant f and g stay in: the Leibniz rule holds for them, and
        # filtering them out starves Hypothesis of examples (filter_too_much)
        X = make_lv3(2, 1, 1)
        df = lie_derivative(X, f)
        dg = lie_derivative(X, g)
        dfg = lie_derivative(X, f * g)
        # X(fg) = f X(g) + g X(f); if both are certificates the cofactors add
        assert dfg == f * dg + g * df


class TestFixedCofactorSearch:
    def test_zero_cofactor_constants_only(self, desk_field):
        basis = search_darboux_fixed_cofactor(desk_field, Poly.zero(("x", "y", "z")), 2)
        assert [str(f) for f in basis] == ["1"]

    def test_coordinate_cofactors(self, desk_field):
        k1 = desk_field.coordinate_cofactor("x")
        assert [str(f) for f in search_darboux_fixed_cofactor(desk_field, k1, 1)] == ["x"]
        k3 = desk_field.coordinate_cofactor("z")
        assert [str(f) for f in search_darboux_fixed_cofactor(desk_field, k3, 1)] == ["z"]

    def test_monotone_in_degree(self, desk_field):
        k1 = desk_field.coordinate_cofactor("x")
        small = search_darboux_fixed_cofactor(desk_field, k1, 1)
        for f in small:
            big = search_darboux_fixed_cofactor(desk_field, k1, 3)
            assert f in big or any((f - g).is_zero() for g in big)


class TestEnumerate:
    def test_bound_zero(self):
        X = parse_field(RESTRICTED_Y0_A0)
        lattice = CofactorLattice((P("-3", X.variables), P("2*x", X.variables)), 0)
        assert [str(c) for c in enumerate_cofactors(X, lattice)] == ["0"]

    def test_two_generators_bound_one(self):
        X = parse_field(RESTRICTED_Y0_A0)
        lattice = CofactorLattice((P("-3", X.variables), P("2*x", X.variables)), 1)
        got = {str(c) for c in enumerate_cofactors(X, lattice)}
        assert got == {"0", "-3", "3", "-2*x", "2*x",
                       "-2*x - 3", "-2*x + 3", "2*x - 3", "2*x + 3"}

    def test_default_lattice_b2_contains_structural_combinations(self, desk_field):
        lattice = default_lattice(desk_field, 2)
        cands = set(enumerate_cofactors(desk_field, lattice))
        expected = [
            desk_field.coordinate_cofactor("x"),
            desk_field.coordinate_cofactor("y"),
            desk_field.coordinate_cofactor("z"),
            2 * desk_field.coordinate_cofactor("y"),
            Poly.zero(desk_field.variables),
        ]
        for K in expected:
            assert K in cands

    def test_canonical_order(self, desk_field):
        lattice = CofactorLattice((P("x"), P("1")), 1)
        cands = enumerate_cofactors(desk_field, lattice)
        assert cands == sorted(cands, key=Poly.sort_key)


class TestSearch:
    def test_restricted_y0_a0(self):
        X = parse_field(RESTRICTED_Y0_A0)
        certs = search_darboux(X, 2)
        found = {str(c.f) for c in certs}
        # 1 + 2x is reported monic as x + 1/2
        assert found == {"x", "z", "x + 1/2"}
        cofs = {str(c.f): c.K for c in certs}
        assert cofs["x + 1/2"] == parse_poly("2*x", X.variables)

    def test_restricted_z0(self):
        X = parse_field(RESTRICTED_Z0)
        certs = search_darboux(X, 3)
        assert {str(c.f) for c in certs} == {"x", "y"}

    def test_products_filtered(self, desk_field):
        certs = search_darboux(desk_field, 2, default_lattice(desk_field, 2))
        assert {str(c.f) for c in certs} == {"x", "y", "z"}

    def test_monotone_in_bound(self):
        X = parse_field(RESTRICTED_Y0_A0)
        small = {str(c.f) for c in search_darboux(X, 2, default_lattice(X, 1))}
        large = {str(c.f) for c in search_darboux(X, 2, default_lattice(X, 2))}
        assert small <= large

    def test_certificates_verify(self, desk_field):
        for cert in search_darboux(desk_field, 2, default_lattice(desk_field, 2)):
            redone = lie_derivative(desk_field, cert.f) - cert.K * cert.f
            assert redone.is_zero()

    def test_non_kolmogorov_field(self):
        # no invariant coordinate planes; the conserved quadric comes out
        # through the zero cofactor
        X = parse_field("vars: x y\ndx/dt = y\ndy/dt = -x\n")
        certs = search_darboux(X, 2)
        assert [(str(c.f), str(c.K)) for c in certs] == [("x^2 + y^2", "0")]


def brute_force_sections(boxes, compat, degree):
    """{degree-`degree` coefficient tuple: bitmask of bases}, one offset
    combination at a time."""
    monos = boxes.monos_of_degree(degree)
    out = {}
    for t, base in enumerate(boxes.bases):
        if compat >> t & 1:
            for offsets in itertools.product(
                    *(boxes.box.get(m, (0,)) for m in monos)):
                key = tuple(base.get(m, 0) + o for m, o in zip(monos, offsets))
                out[key] = out.get(key, 0) | 1 << t
    return out


class TestSieveAgainstBruteForce:
    """The screened candidates must equal the brute-force reference list."""

    def _both_paths(self, X, d, lattice, sieve_digest):
        import darbouxlab.darboux as dbx

        max_deg = max(X.degree - 1, 0)
        boxes = dbx._LatticeBoxes(lattice)
        legal = sum(1 << t for t, base in enumerate(boxes.bases)
                    if all(-base.get(m, 0) in boxes.box.get(m, (0,))
                           for m in boxes.support if sum(m) > max_deg))
        assert boxes.legal_bases(max_deg) == legal
        every_other = sum(1 << t for t in range(0, len(boxes.bases), 2))
        for compat in (legal, legal & every_other):
            for degree in range(max_deg + 1):
                assert (boxes.sections(compat, degree)
                        == brute_force_sections(boxes, compat, degree))
        # raw sieve survivors: count and sha256 prefix of the printed list,
        # captured from the set-based sections and Fraction elimination
        survivors = dbx._GradedSieve(X, d, lattice).run()
        assert (len(survivors), hashlib.sha256("\n".join(
            map(str, survivors)).encode()).hexdigest()[:16]) == sieve_digest

        brute = [K for K in enumerate_cofactors(X, lattice)
                 if K.is_zero() or K.total_degree() <= max_deg]
        priority = [Poly.zero(X.variables)] + [
            X.coordinate_cofactor(v) for v in X.variables if X.is_kolmogorov(v)]
        oracle = list(dict.fromkeys(
            priority + dbx._full_operator_screen(X, d, brute)))
        assert dbx._candidate_cofactors(X, d, lattice) == oracle

        brute_certs = dbx.certificates_from_kernels(
            X, [(K, search_darboux_fixed_cofactor(X, K, d)) for K in oracle])
        return ({(str(c.f), str(c.K)) for c in brute_certs},
                {(str(c.f), str(c.K)) for c in search_darboux(X, d, lattice)})

    def test_restricted_y0(self):
        X = parse_field(RESTRICTED_Y0_A0)
        direct, sieved = self._both_paths(X, 2, default_lattice(X, 2),
                                          (43, "6a48e14fc1620b1e"))
        assert direct == sieved

    def test_restricted_z0(self):
        X = parse_field(RESTRICTED_Z0)
        direct, sieved = self._both_paths(X, 3, default_lattice(X, 2),
                                          (19, "1026141a97ab995f"))
        assert direct == sieved

    def test_full_system_small_lattice(self, desk_field):
        lattice = default_lattice(desk_field, 1)
        direct, sieved = self._both_paths(desk_field, 2, lattice,
                                          (9, "092f80e166d0f670"))
        assert direct == sieved

    def test_reference_field_lattice(self, reference_field):
        # same lattice geometry as the flagship search, at a bound where the
        # brute-force enumeration is still feasible
        lattice = default_lattice(reference_field, 1)
        direct, sieved = self._both_paths(reference_field, 2, lattice,
                                          (9, "9e23527e20cae41b"))
        assert direct == sieved
        assert {f for f, _ in direct} == {"x", "y", "z"}

    def test_random_small_lattices(self, desk_field):
        import random

        rng = random.Random(5)
        pool = [
            desk_field.coordinate_cofactor("x"),
            desk_field.coordinate_cofactor("y"),
            desk_field.coordinate_cofactor("z"),
            P("1"), P("x"), P("y"), P("z"), P("3*x^2"), P("3*x*z"),
        ]
        sieve_digests = [(0, "e3b0c44298fc1c14"), (3, "00eefe6a5bd7759c"),
                         (0, "e3b0c44298fc1c14"), (5, "2fbfe22740a00ce4"),
                         (3, "63f3cc649f10d613"), (1, "a08143c86438b5eb")]
        for sieve_digest in sieve_digests:
            gens = tuple(rng.sample(pool, rng.randint(2, 4)))
            lattice = CofactorLattice(gens, rng.randint(1, 2))
            direct, sieved = self._both_paths(desk_field, 2, lattice,
                                              sieve_digest)
            assert direct == sieved, f"paths disagree for generators {gens}"


class TestRankScreen:
    """The one mod-p screen behind the sieve levels and the full operator."""

    def test_empty_values(self):
        import darbouxlab.darboux as dbx

        def residues(values):
            raise AssertionError("no residues are needed for no values")

        assert dbx._rank_screen([], [[Fraction(1)]], [], residues, 1) == []

    def test_rejects_only_full_rank(self):
        import darbouxlab.darboux as dbx
        import numpy as np

        # base - c * direction = diag(1 - c, 1): singular only at c = 1
        base = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        direction = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]]
        kept = dbx._rank_screen(
            [3, 1, 0, 2], base, [direction],
            lambda values: np.array([[v] for v in values], dtype=np.int64), 2)
        assert kept == [1]

    def test_unavailable_prime_keeps_every_value(self):
        import darbouxlab.darboux as dbx
        from darbouxlab._modp import ModPUnavailableError

        def residues(values):
            raise ModPUnavailableError("denominator divisible by the prime")

        values = [(2,), (0,), (1,)]
        assert dbx._rank_screen(values, [[Fraction(1)]], [[[Fraction(1)]]],
                                residues, 1) == values

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_chunked_screens_agree(self, monkeypatch, desk_field, chunk):
        import darbouxlab.darboux as dbx

        restricted = parse_field(RESTRICTED_Z0)
        cases = [(restricted, 3, default_lattice(restricted, 2)),
                 (desk_field, 2, default_lattice(desk_field, 1))]
        unpatched = [(dbx._GradedSieve(X, d, lattice).run(),
                      dbx._candidate_cofactors(X, d, lattice))
                     for X, d, lattice in cases]
        monkeypatch.setattr(dbx, "_PRESCREEN_CHUNK", chunk)
        for (X, d, lattice), expected in zip(cases, unpatched):
            assert (dbx._GradedSieve(X, d, lattice).run(),
                    dbx._candidate_cofactors(X, d, lattice)) == expected


class TestExpFactors:
    def test_verify_sum_factor(self, desk_field):
        cert = verify_exp_factor(desk_field, P("x + z"))
        assert cert.L == P("2*x^2 - x*y - 3*z + x")

    def test_verify_y_factor(self, desk_field):
        cert = verify_exp_factor(desk_field, P("y"))
        assert cert.L == P("y*(x - 1)")

    def test_square_factor_cofactor_at_c0(self):
        X = make_lv3(3, 3, 0)
        cert = verify_exp_factor(X, P("(x + y + z)^2"))
        assert cert.L == P("-2*(x + y + z)*(3*z - x + y)")

    def test_coprimality_enforced(self, desk_field):
        with pytest.raises(NotExpFactorError):
            verify_exp_factor(desk_field, P("x + x*z"), (1, 0, 0))

    def test_denominator_plane_must_be_invariant(self):
        from darbouxlab.field import NotInvariantError

        X = parse_field("vars: x y\ndx/dt = y\ndy/dt = -x\n")
        with pytest.raises(NotInvariantError):
            verify_exp_factor(X, parse_poly("y", X.variables), (1, 0))

    def test_nontrivial_denominator(self):
        # dx/dt = x^2 admits exp(1/x) with constant cofactor -1
        X = parse_field("vars: x\ndx/dt = x^2\n")
        one = parse_poly("1", X.variables)
        cert = verify_exp_factor(X, one, (1,))
        assert cert.L == parse_poly("-1", X.variables)
        found = search_exp_factors(X, 1, 1)
        assert [(str(c.g), c.s, str(c.L)) for c in found] == [("1", (1,), "-1")]

    def test_search_positive_params(self, desk_field):
        certs = search_exp_factors(desk_field, 2, 1)
        assert [(str(c.g), c.s) for c in certs] == [
            ("x + z", (0, 0, 0)), ("y", (0, 0, 0))]

    def test_search_c0_extra_square(self):
        certs = search_exp_factors(make_lv3(3, 3, 0), 2, 1)
        gs = {str(c.g) for c in certs}
        assert gs == {"x + z", "y",
                      str(P("(x + y + z)^2"))}
        square = next(c for c in certs if c.g == P("(x + y + z)^2"))
        assert square.L == P("-2*(x + y + z)*(3*z - x + y)")

    def test_search_a0(self):
        certs = search_exp_factors(make_lv3(0, 3, 2), 2, 1)
        assert [(str(c.g), str(c.L)) for c in certs] == [("z", "-3*z")]

    def test_search_a0_b0_empty(self):
        assert search_exp_factors(make_lv3(0, 0, 2), 2, 1) == []

    def test_search_a0_c0(self):
        certs = search_exp_factors(make_lv3(0, 3, 0), 2, 1)
        assert {(str(c.g), str(c.L)) for c in certs} == {
            ("z", "-3*z"), ("x + y", "x - y")}

    def test_kernel_completeness_for_user_pair(self, desk_field):
        # any valid (g, L) within bounds must lie in the span of the raw
        # kernel; use 2(x+z) with doubled cofactor
        g = 2 * P("x + z")
        L = 2 * P("2*x^2 - x*y - 3*z + x")
        certs = search_exp_factors(desk_field, 2, 0)
        # subtracting the matching multiple of the reported certificate and
        # the trivial constant direction must give zero
        base = next(c for c in certs if c.g == P("x + z"))
        assert (g - 2 * base.g).is_constant()
        assert (L - 2 * base.L).is_zero()

    def test_search_exhausts_the_solution_space(self, desk_field):
        # the raw kernel of the defining identity over (g, L) with s = 0 has
        # exactly the reported certificates plus the trivial exp(constant)
        from darbouxlab.exactcore import coefficient_matrix, monomials_upto

        X = desk_field
        g_monos = monomials_upto(3, 2)
        L_monos = monomials_upto(3, 2)
        rows = monomials_upto(3, 4)
        images = [lie_derivative(X, Poly.from_monomial(X.variables, mono))
                  for mono in g_monos]
        images += [-Poly.from_monomial(X.variables, mono) for mono in L_monos]
        mat = coefficient_matrix(images, rows)
        kernel_dim = len(RatMatrix(mat).nullspace())
        reported = search_exp_factors(X, 2, 0)
        assert kernel_dim == len(reported) + 1  # + trivial constant direction


class TestAssembly:
    def test_integrable_regime_kernel(self):
        X = make_lv3(0, 0, 0)
        certs = search_darboux(X, 2)
        efacts = search_exp_factors(X, 2, 0)
        funcs = assemble_darboux_integrals(certs, efacts)
        assert len(funcs) == 2
        texts = {f.text() for f in funcs}
        assert "(z)^1" in texts
        h1 = next(f for f in funcs if f.exp_terms)
        exps = {str(c.f): lam for c, lam in h1.darboux_terms}
        assert exps == {"x": 1, "y": 1}
        (ecert, mu), = h1.exp_terms
        assert str(ecert.g) == "x + y" and mu == -1

    def test_positive_params_no_integral(self, desk_field):
        certs = search_darboux(desk_field, 2, default_lattice(desk_field, 2))
        efacts = search_exp_factors(desk_field, 2, 1)
        assert assemble_darboux_integrals(certs, efacts) == []

    def test_restricted_rational_integral(self):
        X = parse_field(RESTRICTED_Y0_A0)
        certs = search_darboux(X, 2)
        funcs = assemble_darboux_integrals(certs)
        assert len(funcs) == 1
        exps = {str(c.f): lam for c, lam in funcs[0].darboux_terms}
        # z * x^3 * (1 + 2x)^-3 up to the monic scaling of 1 + 2x
        assert exps == {"x": 3, "z": 1, "x + 1/2": -3}

    def test_balance_is_zero_polynomial(self):
        X = make_lv3(0, 0, 0)
        funcs = assemble_darboux_integrals(search_darboux(X, 2),
                                           search_exp_factors(X, 2, 0))
        for f in funcs:
            assert f.cofactor_balance().is_zero()


class TestObstruction:
    def test_holds_at_desk_parameters(self, desk_field):
        report = rational_obstruction(desk_field, 2, default_lattice(desk_field, 2))
        assert report.holds

    def test_fails_with_polynomial_integral(self):
        report = rational_obstruction(make_lv3(0, 0, 0), 1)
        assert not report.holds
        assert [str(w) for w in report.polynomial_witnesses] == ["z"]

    def test_fails_via_same_cofactor_pair(self):
        X = parse_field(RESTRICTED_Y0_A0)
        report = rational_obstruction(X, 4)
        assert not report.holds
        pair_cofactors = {str(K) for K, _, _ in report.same_cofactor_pairs}
        assert "6*x" in pair_cofactors
