"""Certificates, lattice searches, exponential factors, integral assembly."""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from darbouxlab.darboux import (CofactorLattice, DarbouxCert, ExpFactorCert,
                                assemble_darboux_integrals,
                                certificates_from_kernels, cofactor_kernels,
                                default_lattice, enumerate_cofactors,
                                rational_obstruction, search_darboux,
                                search_darboux_fixed_cofactor,
                                search_exp_factors)
from darbouxlab import _modp
from darbouxlab.exactcore import (Poly, RatMatrix, coefficient_matrix,
                                  monomials_upto, parse_poly, poly_divmod)
from darbouxlab.field import lie_derivative, load_field, parse_field

from conftest import CORPUS, make_lv3, nonzero_polys

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


def lattice_key(lattice):
    """An injective integer key on the points of the lattice.

    A point's coefficients, scaled to integers, are read as digits of a
    mixed radix wide enough for every point, so the key is linear: the key
    of sum n_i g_i is sum n_i key(g_i).  Keying a polynomial outside that
    range fails.
    """
    gens = lattice.generators
    scale = math.lcm(*(c.denominator for g in gens for c in g.terms.values()))
    weights, reach, weight = {}, {}, 1
    for m in sorted({m for g in gens for m in g.terms}):
        reach[m] = lattice.bound * sum(
            int(abs(g.coefficient(m)) * scale) for g in gens)
        weights[m] = weight
        weight *= 2 * reach[m] + 1
    assert weight < 2**62

    def key(K):
        total = 0
        for m, c in K.terms.items():
            digit = c * scale
            assert digit.denominator == 1 and abs(digit) <= reach[m]
            total += int(digit) * weights[m]
        return total
    return key


def lattice_point_keys(lattice, key):
    """Keys of all (2B+1)^n combinations sum n_i g_i, |n_i| <= B, in one
    int64 array built by numpy outer sums."""
    steps = np.arange(-lattice.bound, lattice.bound + 1, dtype=np.int64)
    keys = np.zeros(1, dtype=np.int64)
    for g in lattice.generators:
        keys = (keys[:, None] + steps * key(g)).ravel()
    return keys


class TestVerify:
    # for f != 0 the cofactor K of X(f) = K*f is unique, so a passing check
    # names it
    def test_z_cofactor(self, desk_field):
        assert DarbouxCert(P("z"), P("-3 + 3*x^2")).check(desk_field)

    def test_product_cofactor_is_sum(self, desk_field):
        k1, k2 = P("1 - y + 2*x - 3*x*z"), P("-1 + x")
        assert DarbouxCert(P("x"), k1).check(desk_field)
        assert DarbouxCert(P("y"), k2).check(desk_field)
        assert DarbouxCert(P("x^2*y"), 2 * k1 + k2).check(desk_field)
        assert not DarbouxCert(P("x^2*y"), k1 + k2).check(desk_field)

    def test_not_darboux_carries_remainder(self):
        X = make_lv3(0, 3, 0)
        f = P("x + y")
        _, remainder = poly_divmod(lie_derivative(X, f), f)
        assert not remainder.is_zero()

    def test_constant_rejected(self, desk_field):
        # the zero cofactor's kernel always holds the constants, and the
        # search reports none of them
        kernels = cofactor_kernels(desk_field, 2, default_lattice(desk_field, 1))
        assert any(f.is_constant() for _, basis in kernels for f in basis)
        certs = certificates_from_kernels(desk_field, kernels)
        assert certs and not any(c.f.is_constant() for c in certs)

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

    def test_point_keys_match_enumerate_at_b1(self, desk_field):
        lattice = CofactorLattice(default_lattice(desk_field, 2).generators, 1)
        key = lattice_key(lattice)
        keys = lattice_point_keys(lattice, key)
        assert keys.size == 3 ** len(lattice.generators)
        assert set(np.unique(keys).tolist()) == {
            key(K) for K in enumerate_cofactors(desk_field, lattice)}

    def test_default_lattice_b2_contains_structural_combinations(self, desk_field):
        lattice = default_lattice(desk_field, 2)
        key = lattice_key(lattice)
        keys = lattice_point_keys(lattice, key)
        assert keys.size == 5 ** len(lattice.generators) == 5 ** 9
        expected = [
            desk_field.coordinate_cofactor("x"),
            desk_field.coordinate_cofactor("y"),
            desk_field.coordinate_cofactor("z"),
            2 * desk_field.coordinate_cofactor("y"),
            Poly.zero(desk_field.variables),
        ]
        for K in expected:
            assert (keys == key(K)).any()

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


def full_operator_screen(X, d, candidates, p):
    """The candidates K whose matrix X(m) - K*m over the monomials m of
    degree <= d is rank-deficient mod p, each matrix ranked on its own rows:
    the brute-force reference of the full-operator screen."""
    n = len(X.variables)
    basis = [Poly.from_monomial(X.variables, m) for m in monomials_upto(n, d)]
    rows = monomials_upto(n, d + max(X.degree - 1, 0))
    support = sorted({m for K in candidates for m in K.terms})
    base = _modp.fraction_rows_to_modp(
        coefficient_matrix([lie_derivative(X, b) for b in basis], rows), p)
    directions = np.array(
        [_modp.fraction_rows_to_modp(coefficient_matrix(
            [Poly.from_monomial(X.variables, u) * b for b in basis], rows), p)
         for u in support], dtype=np.int64).reshape((-1,) + base.shape)
    kept = []
    for start in range(0, len(candidates), 4096):
        chunk = candidates[start:start + 4096]
        coeffs = _modp.fraction_rows_to_modp(
            [[K.coefficient(u) for u in support] for K in chunk], p)
        ranks = _modp.batched_rank(
            _modp.batched_combination(base, directions, coeffs, p), p)
        kept += [K for K, rank in zip(chunk, ranks) if rank < len(basis)]
    return kept


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
        # the degrees above max_deg are the tables legal_bases reads
        degrees = set(range(max_deg + 1)) | {sum(m) for m in boxes.support}
        for compat in (legal, legal & every_other, 0):
            for degree in sorted(degrees):
                assert (boxes.sections(compat, degree)
                        == brute_force_sections(boxes, compat, degree))
        assert all(boxes.sections(0, degree) == {} for degree in degrees)
        # raw sieve survivors: count and sha256 prefix of the printed list,
        # captured from the set-based sections and Fraction elimination
        sieve = dbx._GradedSieve(X, d, lattice)
        survivors = sieve.run()
        assert (len(survivors), hashlib.sha256("\n".join(
            map(str, survivors)).encode()).hexdigest()[:16]) == sieve_digest

        brute = [K for K in enumerate_cofactors(X, lattice)
                 if K.is_zero() or K.total_degree() <= max_deg]
        priority = [Poly.zero(X.variables)] + [
            X.coordinate_cofactor(v) for v in X.variables if X.is_kolmogorov(v)]
        oracle = list(dict.fromkeys(
            priority + full_operator_screen(X, d, brute, sieve.p)))
        assert list(dbx._candidate_cofactors(X, d, lattice)) == oracle

        exact = [(K, search_darboux_fixed_cofactor(X, K, d)) for K in oracle]
        assert dbx.cofactor_kernels(X, d, lattice) == exact
        brute_certs = dbx.certificates_from_kernels(X, exact)
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

    def test_generators_above_cofactor_degree(self):
        # degree-2 generators on a quadratic field: only the bases whose
        # degree-2 part the x^2 and x*y boxes cancel are legal (325 of 625)
        X = parse_field(RESTRICTED_Z0)
        gens = (X.coordinate_cofactor("x"), X.coordinate_cofactor("y"),
                P("1", X.variables), P("x^2", X.variables),
                P("x*y", X.variables), P("2*x^2 + x", X.variables),
                P("x^2 - x*y + y", X.variables))
        lattice = CofactorLattice(gens, 2)
        direct, sieved = self._both_paths(X, 2, lattice,
                                          (9, "c728a084de389899"))
        assert direct == sieved == {("x", "2*x - y + 1"), ("y", "x - 1")}


    def test_prime_in_a_lattice_scale(self):
        # a generator 1/p*x, p = 2^31 - 1, puts p in the scale of x: both
        # paths rank mod the next prime below p
        import darbouxlab.darboux as dbx

        X = parse_field(RESTRICTED_Z0)
        lattice = CofactorLattice(default_lattice(X, 2).generators + (
            P(f"1/{_modp.PRIME}*x", X.variables),), 2)
        assert dbx._GradedSieve(X, 2, lattice).p == 2147483629
        # the same 9 survivors as the keep-every-value top level gave
        direct, sieved = self._both_paths(X, 2, lattice,
                                          (9, "c728a084de389899"))
        assert direct == sieved == {("x", "2*x - y + 1"), ("y", "x - 1")}

    def test_prime_in_a_field_denominator(self):
        # b = 3/p, p = 2^31 - 1: both paths rank mod the next prime below p
        import darbouxlab.darboux as dbx

        X = parse_field(RESTRICTED_Y0_A0.replace(
            "param b = 3", f"param b = 3/{_modp.PRIME}"))
        lattice = default_lattice(X, 2)
        assert dbx._GradedSieve(X, 2, lattice).p == 2147483629
        # 87 of the 130 survivors the unscreened lower level kept
        direct, sieved = self._both_paths(X, 2, lattice,
                                          (87, "59bf6aece59f9bd4"))
        assert direct == sieved
        assert {f for f, _ in direct} == {"x", "z", "x + 1/2"}


class TestRankScreen:
    """The one mod-p screen behind the sieve levels."""

    def test_empty_values(self):
        import darbouxlab.darboux as dbx

        one = np.ones((1, 1), dtype=np.int64)
        none = np.zeros((0, 1), dtype=np.int64)
        assert dbx._rank_screen([], none, one, one[None], _modp.PRIME) == []

    def test_rejects_only_full_rank(self):
        import darbouxlab.darboux as dbx

        # base - c * direction = diag(1 - c, 1): singular only at c = 1
        base = np.array([[1, 0], [0, 1]], dtype=np.int64)
        direction = np.array([[1, 0], [0, 0]], dtype=np.int64)
        kept = dbx._rank_screen([3, 1, 0, 2],
                                np.array([[3], [1], [0], [2]], dtype=np.int64),
                                base, direction[None], _modp.PRIME)
        assert kept == [1]

    @pytest.mark.parametrize("generator", ["1/2147483647", "1/2147483647*x"])
    def test_prime_in_a_scale_selects_another_prime(self, monkeypatch,
                                                     generator):
        # a generator with coefficient 1/p, p = 2^31 - 1, puts p in a
        # lattice scale of the lower or the top level: the sieve picks the
        # next prime below p, screens every level mod that prime, and finds
        # the certificates of the lattice without that generator
        import darbouxlab.darboux as dbx

        X = parse_field(RESTRICTED_Z0)
        lattice = default_lattice(X, 2)
        certs = {(str(c.f), str(c.K)) for c in search_darboux(X, 3, lattice)}
        planted = CofactorLattice(
            lattice.generators + (P(generator, X.variables),), 2)
        sieve = dbx._GradedSieve(X, 3, planted)
        assert sieve.p == 2147483629
        screens = _counting(monkeypatch, dbx, "_rank_screen")
        projections = _returns(monkeypatch, dbx._GradedSieve, "_projected")
        sieve.run()
        assert screens and {args[-1] for args in screens} == {sieve.p}
        assert any(pair is not None for out in projections for pair in out)
        assert {(str(c.f), str(c.K))
                for c in search_darboux(X, 3, planted)} == certs

    def test_prime_in_a_field_denominator_selects_another_prime(
            self, monkeypatch):
        # p = 2^31 - 1 divides the denominator of the z coefficient b, which
        # reaches the sieve's lower levels and the full operator: the next
        # prime below p is screened instead, the lower level projects its
        # equations, every candidate gets a kernel bound, and the exact
        # solves find the certificates
        import darbouxlab.darboux as dbx

        X = parse_field(RESTRICTED_Y0_A0.replace(
            "param b = 3", f"param b = 3/{_modp.PRIME}"))
        lattice = default_lattice(X, 2)
        assert dbx._GradedSieve(X, 2, lattice).p == 2147483629
        projections = _returns(monkeypatch, dbx._GradedSieve, "_projected")
        candidates = dbx._candidate_cofactors(X, 2, lattice)
        assert any(pair is not None for out in projections for pair in out)
        assert all(type(dim) is int for dim in candidates.values())
        assert {str(c.f) for c in search_darboux(X, 2, lattice)} == {
            "x", "z", "x + 1/2"}

    @pytest.mark.parametrize("case", ["restricted_z0", "reference"])
    def test_failed_lifts_fall_back_to_exact_elimination(
            self, monkeypatch, reference_field, case):
        # with no rational lift, no rank equality over Q and mod p is
        # proved: the top level takes exact kernels, and every lower-level
        # block A that is rank-deficient mod p its exact cokernel, as the
        # sieve did before it worked on residues, so the survivors and the
        # certificates are unchanged
        import darbouxlab.darboux as dbx

        if case == "restricted_z0":
            X, d = parse_field(RESTRICTED_Z0), 3
            lattice = default_lattice(X, 2)
        else:
            X, d, lattice = reference_field, 2, default_lattice(
                reference_field, 1)
        screened = dbx._GradedSieve(X, d, lattice).run()
        certs = {(str(c.f), str(c.K)) for c in search_darboux(X, d, lattice)}

        lifts = []

        def no_lift(residue, p):
            lifts.append(residue)
            return None

        dims = []   # kernel dimension mod p of each lower-level block A
        eliminate = _modp.batched_kernels

        def recorded(A, B, p):
            out = eliminate(A, B, p)
            if B.shape[2]:   # the top level carries no columns
                dims.extend(len(kernel) for kernel, _ in out)
            return out

        monkeypatch.setattr(_modp, "rational_reconstruction", no_lift)
        monkeypatch.setattr(_modp, "batched_kernels", recorded)
        rrefs = _counting(monkeypatch, RatMatrix, "rref")
        cokernels = _counting(monkeypatch, dbx._GradedSieve,
                              "_exact_cokernel")
        kept = dbx._GradedSieve(X, d, lattice).run()
        # one exact kernel per live top-level value, one exact cokernel
        # per rank-deficient lower block
        assert lifts and cokernels
        assert len(cokernels) == sum(1 for dim in dims if dim)
        assert len(rrefs) > len(cokernels)
        assert kept == screened
        assert {(str(c.f), str(c.K))
                for c in search_darboux(X, d, lattice)} == certs

    def test_reference_search_batches_its_eliminations(self, monkeypatch,
                                                        reference_field):
        # the blocks of one level with the same f-degree n and |W| are
        # eliminated in one call: at most 32 calls at degree 4, where one
        # call per block made 262, with the raw survivors those calls left
        # (count and sha256 prefix captured before the batching)
        import darbouxlab.darboux as dbx

        calls = _counting(monkeypatch, _modp, "batched_kernels")
        survivors = dbx._GradedSieve(reference_field, 4, default_lattice(
            reference_field, 4)).run()
        assert 0 < len(calls) <= 32
        assert (len(survivors), hashlib.sha256("\n".join(
            map(str, survivors)).encode()).hexdigest()[:16]) == (
                34, "1d6889fa06da5008")

    @pytest.mark.parametrize("shape", [(12, 3, 2), (9, 2, 3), (20, 1, 1),
                                       (8, 5, 4)])
    def test_compressed_screen_keeps_what_full_ranks_keep(self, shape):
        import random

        import darbouxlab.darboux as dbx

        R, C, S = shape
        p = _modp.PRIME
        rng = random.Random(R * 100 + C * 10 + S)
        G = _modp.compressor(R, C, p)
        assert G is not None and G.shape == (C + 2, R)
        # integer kernel vectors of G: columns in ker G give a matrix of
        # full rank whose compressed rank is 0
        G_int = [[(a + 2) ** r for r in range(R)] for a in range(C + 2)]
        ker = [[int(x * math.lcm(*(y.denominator for y in v))) for x in v]
               for v in RatMatrix(G_int).nullspace()]

        def planted(rank):
            # an (R, C) product of rank <= `rank`
            U = np.array([rng.randint(-3, 3) for _ in range(R * rank)],
                         dtype=np.int64).reshape(R, rank)
            V = np.array([rng.randint(-3, 3) for _ in range(rank * C)],
                         dtype=np.int64).reshape(rank, C)
            return (U @ V) % p

        deficient = planted(C - 1)
        hidden = np.array([[ker[j % len(ker)][r] for j in range(C)]
                           for r in range(R)], dtype=object) % p
        hidden = hidden.astype(np.int64)
        # base - c.directions is `deficient` at c = (1, ..., 1) and `hidden`
        # at c = (2, ..., 2): the directions sum to deficient - hidden
        directions = np.array([[[rng.randrange(p) for _ in range(C)]
                                for _ in range(R)] for _ in range(S)],
                              dtype=np.int64)
        directions[0] = (deficient - hidden - directions[1:].sum(axis=0)) % p
        base = (2 * deficient - hidden) % p
        values = [(v,) * S for v in (1, 2)] + [
            tuple(rng.randint(-5, 5) for _ in range(S)) for _ in range(40)]
        rng.shuffle(values)

        def residues(vals):
            return np.array(vals, dtype=np.int64) % p

        ranks = _modp.batched_rank(
            _modp.batched_combination(base, directions, residues(values), p), p)
        expected = [v for v, rank in zip(values, ranks) if rank < C]
        assert dbx._rank_screen(values, residues(values), base,
                                directions, p) == expected
        assert (1,) * S in expected
        # a full-rank matrix that G compresses to zero is still rejected
        assert ((2,) * S in expected) == (len(ker) < C)
    @pytest.mark.parametrize("chunk", [1, 2])
    def test_chunked_screens_agree(self, monkeypatch, desk_field, chunk):
        import darbouxlab.darboux as dbx

        restricted = parse_field(RESTRICTED_Z0)
        cases = [(restricted, 3, default_lattice(restricted, 2)),
                 (desk_field, 2, default_lattice(desk_field, 1))]
        unpatched = [(dbx._GradedSieve(X, d, lattice).run(),
                      list(dbx._candidate_cofactors(X, d, lattice).items()))
                     for X, d, lattice in cases]
        monkeypatch.setattr(dbx, "_PRESCREEN_CHUNK", chunk)
        for (X, d, lattice), expected in zip(cases, unpatched):
            assert (dbx._GradedSieve(X, d, lattice).run(),
                    list(dbx._candidate_cofactors(X, d, lattice).items())
                    ) == expected


CORPUS_FIELDS = sorted(p.name for p in CORPUS.glob("*.vf"))


def _counting(monkeypatch, owner, name):
    """Wrap owner.name so that every call is counted in the returned list."""
    original = getattr(owner, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _returns(monkeypatch, owner, name):
    """Wrap owner.name so that every result is kept in the returned list."""
    original = getattr(owner, name)
    results = []

    def kept(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(owner, name, kept)
    return results


class TestKernelFromRank:
    """Monomial kernels read off the mod-p rank equal the exact solves."""

    @pytest.mark.parametrize("name", CORPUS_FIELDS)
    def test_corpus_kernels_equal_exact_solves(self, name):
        import darbouxlab.darboux as dbx

        X = load_field(CORPUS / name)
        for d in (1, 2, 3):
            lattice = default_lattice(X, d)
            kernels = dbx.cofactor_kernels(X, d, lattice)
            assert [K for K, _ in kernels] == list(dbx._candidate_cofactors(
                X, d, lattice))
            assert kernels == [(K, search_darboux_fixed_cofactor(X, K, d))
                               for K, _ in kernels]

    def test_declines_non_monomial_kernel(self, monkeypatch):
        import darbouxlab.darboux as dbx

        X = parse_field(RESTRICTED_Y0_A0)
        K = parse_poly("2*x", X.variables)
        solves = _counting(monkeypatch, dbx, "search_darboux_fixed_cofactor")
        kernels = dict(dbx.cofactor_kernels(X, 2, default_lattice(X, 2)))
        # 1 + 2x has cofactor 2x, and no monomial has: the solve must run
        assert (X, K, 2) in solves
        assert [str(f) for f in kernels[K]] == ["x + 1/2"]

    def test_declines_without_kolmogorov_variables(self, monkeypatch):
        import darbouxlab.darboux as dbx

        X = parse_field("vars: x y\ndx/dt = y\ndy/dt = -x\n")
        zero = Poly.zero(X.variables)
        solves = _counting(monkeypatch, dbx, "search_darboux_fixed_cofactor")
        kernels = dict(dbx.cofactor_kernels(X, 2, default_lattice(X, 2)))
        assert (X, zero, 2) in solves
        assert [str(f) for f in kernels[zero]] == ["1", "x^2 + y^2"]

    def test_prime_in_denominator_selects_another_prime(self, monkeypatch):
        # a = 1/p for p = 2^31 - 1: the screens run mod the next prime below
        # p, so every candidate has a kernel bound and x, y, z are read off
        # their monomial solutions, with no exact solve
        import darbouxlab.darboux as dbx

        text = (CORPUS / "samardzija_greller.vf").read_text().replace(
            "param a = 29851/10000", "param a = 1/2147483647")
        X = parse_field(text)
        lattice = default_lattice(X, 1)
        assert dbx._GradedSieve(X, 2, lattice).p == 2147483629
        assert all(type(dim) is int for dim in dbx._candidate_cofactors(
            X, 2, lattice).values())
        solves = _counting(monkeypatch, dbx, "search_darboux_fixed_cofactor")
        kernels = dbx.cofactor_kernels(X, 2, lattice)
        assert solves == []
        assert [str(f) for _, basis in kernels[1:4] for f in basis] == [
            "x", "y", "z"]

    def test_reference_search_counts(self, monkeypatch, reference_field):
        import darbouxlab.darboux as dbx

        solves = _counting(monkeypatch, dbx, "search_darboux_fixed_cofactor")
        sections = _counting(monkeypatch, dbx._LatticeBoxes, "sections")
        tables = _counting(monkeypatch, dbx._LatticeBoxes, "_reachable")
        rrefs = _counting(monkeypatch, RatMatrix, "rref")
        certs = search_darboux(reference_field, 4)
        assert sorted(str(c.f) for c in certs) == ["x", "y", "z"]
        assert len(solves) == 0
        # the sieve works on residues only: no exact elimination at all
        assert len(rrefs) == 0
        assert len(sections) <= 210
        # one reachable table per degree, however many sections filter it
        assert len(tables) <= 3


class TestExpFactors:
    # with s = 0 the identity reads X(g) = L, so a passing check names L
    def test_verify_sum_factor(self, desk_field):
        assert ExpFactorCert(P("x + z"), (0, 0, 0),
                             P("2*x^2 - x*y - 3*z + x")).check(desk_field)

    def test_verify_y_factor(self, desk_field):
        assert ExpFactorCert(P("y"), (0, 0, 0),
                             P("y*(x - 1)")).check(desk_field)

    def test_square_factor_cofactor_at_c0(self):
        X = make_lv3(3, 3, 0)
        assert ExpFactorCert(P("(x + y + z)^2"), (0, 0, 0),
                             P("-2*(x + y + z)*(3*z - x + y)")).check(X)

    def test_coprimality_enforced(self, desk_field):
        # g = x*(x + z) over x satisfies the identity with the cofactor of
        # exp(x + z), but g is not coprime with x: only s = 0 is reported
        L = P("2*x^2 - x*y - 3*z + x")
        assert ExpFactorCert(P("x*(x + z)"), (1, 0, 0), L).check(desk_field)
        certs = search_exp_factors(desk_field, 2, 1)
        assert all(c.s == (0, 0, 0) for c in certs)

    def test_denominator_plane_must_be_invariant(self):
        # {y = 0} is not invariant (dy/dt = x), so no exponent of y enters
        # a denominator, while exp(1/x) is found
        X = parse_field("vars: x y\ndx/dt = x^2\ndy/dt = x\n")
        certs = search_exp_factors(X, 1, 2)
        assert certs and all(c.s[1] == 0 for c in certs)
        assert (parse_poly("1", X.variables), (1, 0),
                parse_poly("-1", X.variables)) in [(c.g, c.s, c.L)
                                                    for c in certs]

    def test_nontrivial_denominator(self):
        # dx/dt = x^2 admits exp(1/x) with constant cofactor -1
        X = parse_field("vars: x\ndx/dt = x^2\n")
        one = parse_poly("1", X.variables)
        assert ExpFactorCert(one, (1,), parse_poly("-1", X.variables)).check(X)
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
