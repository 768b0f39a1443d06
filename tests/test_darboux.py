"""Certificates, lattice searches, exponential factors, integral assembly."""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from darbouxlab.darboux import (CofactorLattice, DarbouxCert, DarbouxFunction,
                                ExpFactorCert, ObstructionReport,
                                assemble_darboux_integrals,
                                certificates_from_kernels, cofactor_kernels,
                                default_lattice, enumerate_cofactors,
                                operator_kernel, rational_obstruction,
                                search_darboux,
                                search_darboux_fixed_cofactor,
                                search_exp_factors)
from darbouxlab import _modp
from darbouxlab.exactcore import (Poly, RatMatrix, coefficient_matrix,
                                  monomials_upto, parse_poly, poly_divmod)
from darbouxlab.field import (NotInvariantError, VectorField, lie_derivative,
                              load_field, parse_field)

from conftest import (CORPUS, cyclic_lotka_volterra, make_lv3,
                      nonzero_polys)

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

    def test_reachable_table_limit(self, monkeypatch):
        # the 5-D cyclic Lotka-Volterra field at degree 2 (8 certificates)
        # stays under the table limit: its largest shift may reach 501,305
        # entries of 2,101-bit base masks (1,053,241,805 bits) and builds
        # 175,545 entries; a limit below that bound refuses it
        import darbouxlab.darboux as dbx

        X = parse_field(cyclic_lotka_volterra("uvwxy"))
        boxes = dbx._LatticeBoxes(default_lattice(X, 2), _modp.PRIME)
        assert len(boxes.bases) == 2101
        assert len(boxes._table(1).values) == 175_545
        monkeypatch.setattr(dbx, "_TABLE_BITS_LIMIT", 1_053_241_804)
        with pytest.raises(
                dbx.LatticeTooLargeError,
                match="degree-1 table may outgrow 1053241804 mask bits"):
            dbx._LatticeBoxes(default_lattice(X, 2), _modp.PRIME)._table(1)


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
        sieve = dbx._GradedSieve(X, d, lattice)
        boxes = sieve.boxes
        legal = sum(1 << t for t, base in enumerate(boxes.bases)
                    if all(-base.get(m, 0) in boxes.box.get(m, (0,))
                           for m in boxes.support if sum(m) > max_deg))
        assert boxes.legal_bases(max_deg) == legal
        every_other = sum(1 << t for t in range(0, len(boxes.bases), 2))
        # the degrees above max_deg are the tables legal_bases reads
        degrees = set(range(max_deg + 1)) | {sum(m) for m in boxes.support}
        for compat in (legal, legal & every_other, 0):
            for degree in sorted(degrees):
                values, masks, residues = boxes.sections(compat, degree)
                assert (dict(zip(values, masks))
                        == brute_force_sections(boxes, compat, degree))
                monos = boxes.monos_of_degree(degree)
                assert residues.tolist() == _modp.fraction_rows_to_modp(
                    [[Fraction(v, boxes.scale[m]) for m, v in zip(monos, value)]
                     for value in values], boxes.p).reshape(
                         len(values), len(monos)).tolist()
        assert all(boxes.sections(0, degree)[0] == [] for degree in degrees)
        # raw sieve survivors: count and sha256 prefix of the printed list,
        # captured from the set-based sections and Fraction elimination
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

    def test_lift_beyond_the_reconstruction_bound(self, monkeypatch):
        # a = 98765432123/1000003 puts entries above sqrt(p/2) in two of the
        # lower blocks' kernels, so their lifts fail and one exact kernel
        # each (`operator_kernel`) proves rank_Q(A) = rank_p(A) instead
        import darbouxlab.darboux as dbx

        X = make_lv3("98765432123/1000003", 3, 0)
        lattice = default_lattice(X, 1)
        with monkeypatch.context() as patch:
            lifts = _returns(patch, dbx._GradedSieve, "_lift")
            solves = _counting(patch, dbx, "operator_kernel")
            dbx._GradedSieve(X, 2, lattice).run()
        assert (lifts.count(None), len(lifts)) == (2, 12)
        assert len(solves) == 2
        direct, sieved = self._both_paths(X, 2, lattice,
                                          (9, "55de8b73a6cdfc60"))
        assert direct == sieved
        assert {f for f, _ in direct} == {"x", "y", "z"}


@pytest.mark.parametrize("field, pin, ranked", [
    ("samardzija_greller.vf", (34, "1d6889fa06da5008"), 2043),
    ("lv3_a3_b3_c0.vf", (43, "6c90524f88ac2edf"), 1846),
])
def test_values_ranked_in_full_pinned(monkeypatch, field, pin, ranked):
    # the degree-4 search: its raw survivors, and how many values the
    # square prescreens leave to `_ranks` (a compressor or pivot rule that
    # proves less raises the count)
    import darbouxlab.darboux as dbx

    X = load_field(CORPUS / field)
    calls = _counting(monkeypatch, dbx, "_ranks")
    survivors = dbx._GradedSieve(X, 4, default_lattice(X, 4)).run()
    assert (len(survivors), hashlib.sha256("\n".join(
        map(str, survivors)).encode()).hexdigest()[:16]) == pin
    assert sum(len(args[2]) for args in calls) == ranked


CONSTANT_FIELD = "vars: x y\ndx/dt = 1\ndy/dt = 2\n"


@pytest.mark.parametrize("field, d, pin", [
    ("samardzija_greller.vf", 5, (55, "0bbe4b3b1c1c5100")),
    ("lv3_a0_b3_c2.vf", 4, (69, "a8e91d6db2c77eb5")),
    # a linear field: level 0 is the only level
    ("vars: x y z\ndx/dt = x\ndy/dt = 2*y\ndz/dt = -z\n", 3,
     (10, "e3064cb13b456fa4")),
    # a field of degree 0: level 0 screens its one zero layer
    (CONSTANT_FIELD, 0, (0, "e3b0c44298fc1c14")),
    (CONSTANT_FIELD, 1, (1, "5feceb66ffc86f38")),
])
def test_sieve_survivors_pinned(field, d, pin):
    # raw survivors (count and sha256 prefix of the printed list), captured
    # while the top level had a routine of its own
    import darbouxlab.darboux as dbx

    X = (load_field(CORPUS / field) if field.endswith(".vf")
         else parse_field(field))
    survivors = dbx._GradedSieve(X, d, default_lattice(X, d)).run()
    assert (len(survivors), hashlib.sha256("\n".join(
        map(str, survivors)).encode()).hexdigest()[:16]) == pin
    if field == CONSTANT_FIELD:
        assert list(map(str, survivors)) == ["0"] * d


class TestRankScreen:
    """The one mod-p screen behind the sieve levels."""

    def test_empty_values(self):
        import darbouxlab.darboux as dbx

        one = np.ones((1, 1), dtype=np.int64)
        none = np.zeros((0, 1), dtype=np.int64)
        assert dbx._rank_screen(none, one, one[None], _modp.PRIME) == []

    def test_rejects_only_full_rank(self):
        import darbouxlab.darboux as dbx

        # base - c * direction = diag(1 - c, 1): singular only at c = 1
        base = np.array([[1, 0], [0, 1]], dtype=np.int64)
        direction = np.array([[1, 0], [0, 0]], dtype=np.int64)
        kept = dbx._rank_screen(np.array([[3], [1], [0], [2]], dtype=np.int64),
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
        # p = 2^31 - 1 divides the denominator, or the numerator, of the z
        # coefficient b, which reaches the sieve's lower levels and the full
        # operator: the next prime below p is screened instead, every lift
        # holds, the lower level projects its equations, and every candidate
        # gets the basis of its exact solve
        import darbouxlab.darboux as dbx

        for b in (f"3/{_modp.PRIME}", str(3 * _modp.PRIME)):
            X = parse_field(RESTRICTED_Y0_A0.replace("param b = 3",
                                                     f"param b = {b}"))
            lattice = default_lattice(X, 2)
            assert dbx._GradedSieve(X, 2, lattice).p == 2147483629
            with monkeypatch.context() as patch:
                lifts = _returns(patch, dbx._GradedSieve, "_lift")
                projections = _returns(patch, dbx._GradedSieve, "_projected")
                candidates = dbx._candidate_cofactors(X, 2, lattice)
            assert lifts and all(lift is not None for lift in lifts)
            assert any(pair is not None
                       for out in projections for pair in out)
            assert candidates == {K: search_darboux_fixed_cofactor(X, K, 2)
                                  for K in candidates}
            assert {(str(c.f), str(c.K))
                    for c in search_darboux(X, 2, lattice)} == {
                ("x", "2*x + 1"), ("x + 1/2", "2*x"), ("z", f"-{b}")}

    @pytest.mark.parametrize("case", ["restricted_z0", "reference"])
    def test_failed_lifts_fall_back_to_exact_rank(
            self, monkeypatch, reference_field, case):
        # with no rational lift, rank_Q(A) = rank_p(A) is proved by one
        # exact kernel (`operator_kernel`) per block A that is
        # rank-deficient mod p and leaves equations to project; level 0,
        # whose A has no columns, uses its kernels mod p as they are and
        # runs no exact elimination.  The survivors and the certificates
        # are unchanged
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

        blocks = []   # (kernel dimension, cokernel rows) mod p of each A
        eliminate = _modp.batched_kernels

        def recorded(A, B, p):
            out = eliminate(A, B, p)
            if B.shape[2]:   # the kernels of X_M - tau carry no columns
                blocks.extend((len(kernel), len(projected))
                              for kernel, projected in out)
            return out

        monkeypatch.setattr(_modp, "rational_reconstruction", no_lift)
        monkeypatch.setattr(_modp, "batched_kernels", recorded)
        rrefs = _counting(monkeypatch, RatMatrix, "rref")
        solves = _counting(monkeypatch, dbx, "operator_kernel")
        level = dbx._GradedSieve._level
        after_level = []

        def counted_level(sieve, nodes, r):
            children = level(sieve, nodes, r)
            after_level.append((r, len(rrefs)))
            return children

        monkeypatch.setattr(dbx._GradedSieve, "_level", counted_level)
        kept = dbx._GradedSieve(X, d, lattice).run()
        assert lifts and after_level[0] == (0, 0)
        assert len(solves) == len(rrefs) == sum(
            1 for dim, rows in blocks if dim and rows) > 0
        assert kept == screened
        assert {(str(c.f), str(c.K))
                for c in search_darboux(X, d, lattice)} == certs

    def test_reference_search_batches_its_eliminations(self, monkeypatch,
                                                        reference_field):
        # the blocks of one level with the same f-degree n and |W| are
        # eliminated in one call: at most 32 calls at degree 4, where one
        # call per block made 262, with the raw survivors those calls left
        # (count and sha256 prefix captured before the batching).  Level
        # 0 projects through blocks A with no columns: those calls
        # eliminate nothing and are not counted
        import darbouxlab.darboux as dbx

        calls = _counting(monkeypatch, _modp, "batched_kernels")
        survivors = dbx._GradedSieve(reference_field, 4, default_lattice(
            reference_field, 4)).run()
        eliminations = [A for A, _, _ in calls if A.shape[2]]
        assert 0 < len(eliminations) <= 32
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
        assert G is not None and G.shape == (C, R)
        # integer kernel vectors of G: columns in ker G give a matrix of
        # full rank whose compressed rank is 0
        G_int = [[(a + 2) ** r for r in range(R)] for a in range(C)]
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
        assert [values[i] for i in dbx._rank_screen(
            residues(values), base, directions, p)] == expected
        assert (1,) * S in expected
        # a full-rank matrix that G compresses to zero is still rejected
        assert ((2,) * S in expected) == (len(ker) < C)

    def test_zero_pivot_is_deferred_and_rejected(self, monkeypatch):
        # M has full rank, but the first row of G (1, 2, 4, ...) maps M's
        # first column to zero: G*M has a zero (0, 0) pivot, so the square
        # proof defers it to the rank of M itself, which rejects it
        import darbouxlab.darboux as dbx

        p = _modp.PRIME
        M = np.array([[2, 0, 0], [p - 1, 1, 0], [0, 0, 1], [0, 2, 0],
                      [0, 0, 3]], dtype=np.int64)
        G = _modp.compressor(*M.shape, p)
        assert _modp.matmul(G, M, p)[0, 0] == 0
        assert _modp.batched_rank(M[None], p).tolist() == [3]
        # index 0 is M; index 1 is M minus its first column, rank 2
        direction = np.zeros_like(M)
        direction[:, 0] = M[:, 0]
        ranked = _counting(monkeypatch, _modp, "batched_rank")
        kept = dbx._rank_screen(np.array([[0], [1]], dtype=np.int64),
                                M, direction[None], p)
        assert kept == [1]
        assert [args[0].shape[0] for args in ranked] == [2]

    @pytest.mark.parametrize("cells", [1, 40])
    def test_chunked_screens_agree(self, monkeypatch, desk_field, cells):
        # one matrix per stack (cells = 1), or a few small ones (cells =
        # 40): the same survivors and kernel bounds as unsplit stacks
        import darbouxlab.darboux as dbx

        restricted = parse_field(RESTRICTED_Z0)
        cases = [(restricted, 3, default_lattice(restricted, 2)),
                 (desk_field, 2, default_lattice(desk_field, 1))]
        unpatched = [(dbx._GradedSieve(X, d, lattice).run(),
                      list(dbx._candidate_cofactors(X, d, lattice).items()))
                     for X, d, lattice in cases]
        monkeypatch.setattr(dbx, "_SCREEN_CELLS", cells)
        ranked = _counting(monkeypatch, _modp, "batched_rank")
        for (X, d, lattice), expected in zip(cases, unpatched):
            assert (dbx._GradedSieve(X, d, lattice).run(),
                    list(dbx._candidate_cofactors(X, d, lattice).items())
                    ) == expected
        stacks = [args[0].shape for args in ranked]
        assert all(N * R * C <= cells or N == 1 for N, R, C in stacks)
        most = max(N for N, _, _ in stacks)
        assert most == 1 if cells == 1 else 1 < most <= cells

    @pytest.mark.parametrize("cells,shape", [(None, (35, 15)), (1, (5, 3)),
                                             (40, (5, 3))])
    def test_screen_stacks_are_bounded_by_cells(self, monkeypatch, cells,
                                                shape):
        # `_ranks` hands `batched_rank` stacks of at most `_SCREEN_CELLS`
        # cells, or single matrices larger than that, and its ranks do not
        # depend on the split; here two full stacks and one partial
        import darbouxlab.darboux as dbx

        if cells is not None:
            monkeypatch.setattr(dbx, "_SCREEN_CELLS", cells)
        limit = dbx._SCREEN_CELLS
        p = _modp.PRIME
        R, C = shape
        per_stack = max(1, limit // (R * C))
        rng = np.random.default_rng(R * C)
        # base has rank C - 1, so a zero coefficient row keeps that rank
        base = (rng.integers(0, 9, (R, C - 1)) @ rng.integers(0, 9, (C - 1, C))
                ) % p
        directions = rng.integers(0, p, (2, R, C))
        coefficients = rng.integers(0, p, (2 * per_stack + 1, 2))
        coefficients[::3] = 0
        expected = np.concatenate([_modp.batched_rank(
            _modp.batched_combination(base, directions,
                                      coefficients[start:start + 1000], p), p)
            for start in range(0, len(coefficients), 1000)])
        ranked = _counting(monkeypatch, _modp, "batched_rank")
        ranks = dbx._ranks(base, directions, coefficients, p)
        stacks = [args[0].shape for args in ranked]
        assert ranks.tolist() == expected.tolist()
        assert set(ranks[::3].tolist()) == {C - 1}
        assert [N for N, _, _ in stacks] == [per_stack, per_stack, 1]
        assert all(N * R * C <= limit or N == 1 for N, _, _ in stacks)


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


class TestSieveOperator:
    """The sieve's residue blocks against the exact operator X - K."""

    @pytest.mark.parametrize("name,d", [
        (name, d) for name in CORPUS_FIELDS for d in (1, 2, 3)] + [
        ("samardzija_greller.vf", 4)])
    def test_blocks_equal_the_exact_operator(self, monkeypatch, name, d):
        # every block A that a lower level eliminates is, reduced mod p,
        # the exact matrix of X - K from the block's free columns to its
        # rows, for the K of its node
        import darbouxlab.darboux as dbx

        X = load_field(CORPUS / name)
        projected = dbx._GradedSieve._projected
        eliminate = _modp.batched_kernels
        pending, blocks = [], []

        def projecting(sieve, nodes, n, r, W):
            pending.append(([node.K for node in nodes], sieve._block(n, r)))
            try:
                return projected(sieve, nodes, n, r, W)
            finally:
                pending.pop()

        def recorded(A, B, p):
            if pending:
                blocks.append((A, *pending[-1]))
            return eliminate(A, B, p)

        monkeypatch.setattr(dbx._GradedSieve, "_projected", projecting)
        monkeypatch.setattr(_modp, "batched_kernels", recorded)
        sieve = dbx._GradedSieve(X, d, default_lattice(X, d))
        sieve.run()
        for A, Ks, block in blocks:
            lower = block.cols[block.split:]
            assert len(A) == len(Ks)
            for matrix, K in zip(A, Ks):
                assert matrix.tolist() == _modp.fraction_rows_to_modp(
                    dbx._operator_matrix(X, K, lower, block.rows),
                    sieve.p).tolist()
        assert blocks

    def test_top_level_builds_tau_per_node(self, monkeypatch,
                                           reference_field):
        # level 0 builds the exact top layer tau only for the values whose
        # screen keeps them, once per node
        import darbouxlab.darboux as dbx

        sieve = dbx._GradedSieve(reference_field, 4,
                                 default_lattice(reference_field, 4))
        levels = _counting(monkeypatch, dbx._GradedSieve, "_level")
        sieve.run()
        _, (root,), r = levels[0]
        assert r == 0 and root.K.is_zero()
        assert [n for n, _ in root.branches] == [1, 2, 3, 4]
        monkeypatch.undo()
        taus = _counting(monkeypatch, dbx._LatticeBoxes, "section_poly")
        nodes = sieve._level([root], 0)
        assert len(nodes) == len(taus) == 15
        # over a copy of the calls, as these are counted too
        assert [node.K for node in nodes] == [
            boxes.section_poly(*args) for boxes, *args in list(taus)]


class TestKernelFromRank:
    """Kernels lifted from the full operator's kernel mod p equal the exact
    solves."""

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

    def test_searches_share_no_state(self):
        # searches A, B, A in one process: the second search of A returns
        # what a fresh interpreter computes, so no search reads state that
        # an earlier one left behind (as a module-level cache keyed on too
        # little would).  A and B share variables, degree and lattice shape.
        import os
        import subprocess
        import sys

        import darbouxlab

        source = (
            "from darbouxlab.darboux import cofactor_kernels, default_lattice\n"
            "from darbouxlab.field import load_field\n"
            "def kernels(path):\n"
            "    X = load_field(path)\n"
            "    return repr([(str(K), [str(f) for f in basis]) for K, basis\n"
            "                 in cofactor_kernels(X, 3, default_lattice(X, 3))])\n")
        namespace = {}
        exec(source, namespace)
        kernels = namespace["kernels"]
        a, b = CORPUS / "lv3_a3_b3_c0.vf", CORPUS / "lv3_a3_b3_c2.vf"
        first = kernels(a)
        assert kernels(b) != first
        again = kernels(a)
        src = os.path.dirname(os.path.dirname(darbouxlab.__file__))
        fresh = subprocess.run(
            [sys.executable, "-c",
             source + "import sys\nprint(kernels(sys.argv[1]))", str(a)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        assert again == first == fresh.stdout.strip()

    def test_declines_non_monomial_kernel(self, monkeypatch):
        import darbouxlab.darboux as dbx

        X = parse_field(RESTRICTED_Y0_A0)
        K = parse_poly("2*x", X.variables)
        solves = _counting(monkeypatch, dbx, "search_darboux_fixed_cofactor")
        kernels = dict(dbx.cofactor_kernels(X, 2, default_lattice(X, 2)))
        # 1 + 2x has cofactor 2x, and no monomial has: its kernel is lifted
        # all the same, with no exact solve
        assert solves == []
        assert [str(f) for f in kernels[K]] == ["x + 1/2"]

    def test_declines_without_kolmogorov_variables(self, monkeypatch):
        import darbouxlab.darboux as dbx

        X = parse_field("vars: x y\ndx/dt = y\ndy/dt = -x\n")
        zero = Poly.zero(X.variables)
        solves = _counting(monkeypatch, dbx, "search_darboux_fixed_cofactor")
        kernels = dict(dbx.cofactor_kernels(X, 2, default_lattice(X, 2)))
        assert solves == []
        assert [str(f) for f in kernels[zero]] == ["1", "x^2 + y^2"]

    def test_prime_in_denominator_selects_another_prime(self, monkeypatch):
        # a = 1/p for p = 2^31 - 1: the screens run mod the next prime below
        # p, so every candidate has a kernel mod p and x, y, z are read off
        # its lifts, with no exact solve
        import darbouxlab.darboux as dbx

        text = (CORPUS / "samardzija_greller.vf").read_text().replace(
            "param a = 29851/10000", "param a = 1/2147483647")
        X = parse_field(text)
        lattice = default_lattice(X, 1)
        assert dbx._GradedSieve(X, 2, lattice).p == 2147483629
        assert all(type(basis) is list for basis in dbx._candidate_cofactors(
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

    @pytest.mark.parametrize("name", CORPUS_FIELDS)
    def test_corpus_kernels_need_no_exact_solve(self, monkeypatch, name):
        # every kernel of the corpus lifts: restricted_y0_a0 at degree 4
        # made 20 exact solves while only monomial kernels were read off
        import darbouxlab.darboux as dbx

        X = load_field(CORPUS / name)
        solves = _counting(monkeypatch, dbx, "search_darboux_fixed_cofactor")
        for d in (1, 2, 3, 4):
            dbx.cofactor_kernels(X, d, default_lattice(X, d))
        assert solves == []

    def test_failed_lift_falls_back_to_exact_solve(self, monkeypatch):
        # 70001 is beyond the reconstruction bound floor(sqrt(p/2)) = 32767,
        # so the kernels holding x + 70001 do not lift and are solved
        # exactly: K = 1 at degree 1, and K = 1 and K = 2 at degree 2
        import darbouxlab.darboux as dbx

        X = parse_field("vars: x y\ndx/dt = x + 70001\ndy/dt = y\n")
        for d, solved in ((1, ["1"]), (2, ["1", "2"])):
            with monkeypatch.context() as patch:
                solves = _counting(patch, dbx, "search_darboux_fixed_cofactor")
                certs = search_darboux(X, d)
            assert [str(K) for _, K, _ in solves] == solved
            assert [(str(c.f), str(c.K)) for c in certs] == [
                ("y", "1"), ("x + 70001", "1")]

    @pytest.mark.parametrize("name, d, falls_back", [
        ("restricted_y0_a0.vf", 2, True), ("samardzija_greller.vf", 2, False),
        ("lv3_a0_b0_c0.vf", 3, False), ("restricted_z0_c2.vf", 3, True)])
    def test_singular_compression_falls_back_to_exact_solves(
            self, monkeypatch, name, d, falls_back):
        # a compressor whose row 1 repeats row 0 makes every G*M singular,
        # so a full operator of full rank gets a kernel mod p that no
        # rational kernel backs: only the exact check of the lifts keeps the
        # bases exact.  The two fields without a fallback have no such
        # operator among their sieve survivors
        import darbouxlab.darboux as dbx

        compressor = _modp.compressor

        def singular(rows, cols, p):
            G = compressor(rows, cols, p)
            if G is None or len(G) < 2:
                return G
            G = G.copy()
            G[1] = G[0]
            return G

        monkeypatch.setattr(_modp, "compressor", singular)
        X = load_field(CORPUS / name)
        solves = _counting(monkeypatch, dbx, "search_darboux_fixed_cofactor")
        kernels = dbx.cofactor_kernels(X, d, default_lattice(X, d))
        assert bool(solves) == falls_back
        assert kernels == [(K, search_darboux_fixed_cofactor(X, K, d))
                           for K, _ in kernels]

    def test_empty_row_window_keeps_every_column(self):
        # with no equations every column is free
        X = parse_field("vars: x y\ndx/dt = x\ndy/dt = y\n")
        zero = Poly.zero(X.variables)
        assert [str(f) for f in operator_kernel(X, zero, [(0, 0)], [])
                ] == ["1"]
        assert [str(f) for f in operator_kernel(
            X, zero, [(0, 0), (1, 0)], [])] == ["1", "x"]


@pytest.mark.parametrize("prime", [1009, 101, 13])
def test_small_primes_find_the_default_certificates(monkeypatch, prime):
    # a screening prime walked down from a small bound (staying above 7,
    # where `_modp._is_prime` holds) prunes less and fails more lifts, but
    # finds the default prime's certificates on the corpus; at 13 the
    # levels' exact fallback after a failed lift runs too
    import darbouxlab.darboux as dbx

    fields = [load_field(CORPUS / name) for name in CORPUS_FIELDS]

    def certificates():
        return [[(str(c.f), str(c.K)) for c in search_darboux(X, d)]
                for X in fields for d in (2, 3)]

    expected = certificates()
    monkeypatch.setattr(_modp, "PRIME", prime)
    primes = _returns(monkeypatch, _modp, "screening_prime")
    kernels = _counting(monkeypatch, dbx, "operator_kernel")
    solves = _counting(monkeypatch, dbx, "search_darboux_fixed_cofactor")
    assert certificates() == expected
    assert set(primes) == {prime}
    assert solves
    # every exact kernel not under a fixed-cofactor solve is a level's
    assert len(kernels) - len(solves) == {1009: 0, 101: 0, 13: 111}[prime]


@st.composite
def _small_fields(draw):
    """Fields in 1-4 variables whose components have degree <= 2 and at most
    4 terms, each optionally x_i*(...) (Kolmogorov), with nonzero
    coefficients n/q, |n| <= 4 and q in {1, 2, 3}: no prime above 3
    divides one."""
    nv = draw(st.integers(1, 4))
    variables = ("x", "y", "z", "w")[:nv]
    coefficient = st.builds(Fraction, st.integers(-4, 4).filter(bool),
                            st.sampled_from([1, 2, 3]))
    components = []
    for i in range(nv):
        kolmogorov = draw(st.booleans())
        monos = draw(st.lists(st.sampled_from(monomials_upto(
            nv, 1 if kolmogorov else 2)), min_size=1, max_size=4,
            unique=True))
        if kolmogorov:
            monos = [tuple(e + (j == i) for j, e in enumerate(m))
                     for m in monos]
        components.append(Poly(variables, dict(zip(monos, draw(st.lists(
            coefficient, min_size=len(monos), max_size=len(monos)))))))
    X = VectorField(variables, tuple(components))
    # a search costs about 3^generators: a 4-variable field can have 14
    # generators at bound 1, and from 11 on one takes 0.1-1 s a prime
    assume(len(default_lattice(X, 1).generators) <= 10)
    return X


def _found(X, d, lattice):
    """The nonempty kernels of `cofactor_kernels` and the certificates."""
    kernels = cofactor_kernels(X, d, lattice)
    return ({K: basis for K, basis in kernels if basis},
            [(str(c.f), str(c.K))
             for c in certificates_from_kernels(X, kernels)])


def _proved_projections(monkeypatch, X):
    """Wrap `_GradedSieve._projected` so that every projection it returns
    is checked to rest on rank_Q(A) = rank_p(A), for the block A of the
    free unknowns, by an exact rank wherever A is rank-deficient mod p."""
    import darbouxlab.darboux as dbx

    projected = dbx._GradedSieve._projected

    def checked(sieve, nodes, n, r, W):
        out = projected(sieve, nodes, n, r, W)
        block = sieve._block(n, r)
        lower = block.cols[block.split:]
        for node, pair in zip(nodes, out):
            if pair is None or not lower:
                continue
            A = dbx._operator_matrix(X, node.K, lower, block.rows)
            rank = _modp.batched_rank(
                _modp.fraction_rows_to_modp(A, sieve.p)[None], sieve.p)[0]
            assert rank == len(lower) or RatMatrix(A).rank() == rank
        return out

    monkeypatch.setattr(dbx._GradedSieve, "_projected", checked)


# A field whose blocks A at sieve level 1 for f-degree 2 lose rank mod 13,
# at K = 0 and K = x/3: the Darboux polynomial of K = x/3 has 13 in the
# denominators of its linear part
RANK_DROP_AT_13 = ("vars: x y\ndx/dt = -2/3*x^2 + x*y - 2*x\n"
                   "dy/dt = 3/2*x^2 + x*y\n")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_fields(), st.sampled_from([1, 2]))
@example(parse_field(RANK_DROP_AT_13), 2)
def test_small_primes_agree_on_random_fields(X, d):
    # each small screening prime (the bound itself, as no coefficient has
    # a prime factor above 3) uses a level's projection only where the
    # ranks of its block agree, and finds the default prime's kernels,
    # which are every nonempty fixed-cofactor kernel over the lattice
    # where it has at most 10^4 cofactors of degree <= deg(X) - 1 (and
    # at most 3^10 raw combinations, counted by their keys before they
    # are enumerated) and X at most 3 variables (a 4-variable solve costs
    # about 1.5 ms)
    lattice = default_lattice(X, 1)
    expected = _found(X, d, lattice)
    for prime in (11, 13, 31, 101):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_modp, "PRIME", prime)
            primes = _returns(patch, _modp, "screening_prime")
            _proved_projections(patch, X)
            assert _found(X, d, lattice) == expected
        assert set(primes) == {prime}
    if (len(X.variables) <= 3 and 3 ** len(lattice.generators) <= 3 ** 10
            and np.unique(lattice_point_keys(
                lattice, lattice_key(lattice))).size <= 10**4):
        top = max(X.degree - 1, 0)
        solved = {K: search_darboux_fixed_cofactor(X, K, d)
                  for K in enumerate_cofactors(X, lattice)
                  if K.total_degree() <= top}
        assert expected[0] == {K: basis for K, basis in solved.items()
                               if basis}


LORENZ63 = """
vars: x y z
param s = 10
param r = 28
param b = 8/3
dx/dt = s*(y - x)
dy/dt = x*(r - z) - y
dz/dt = x*y - b*z
"""

EXP_FACTOR_FIELDS = [
    pytest.param((CORPUS / name).read_text(), id=name)
    for name in CORPUS_FIELDS] + [
    pytest.param(LORENZ63, id="lorenz63"),
    pytest.param("vars: x y z\ndx/dt = x^2\ndy/dt = x\ndz/dt = z*y\n",
                 id="mixed"),
    pytest.param("vars: x\ndx/dt = x^2\n", id="x_squared")]


def _joint_exp_factor_search(X, deg_g, s_bound):
    """Exponential factors by one exact kernel over (g, L) jointly per
    denominator vector, row-reduced to its canonical basis: an oracle for
    `search_exp_factors`."""
    nv = len(X.variables)
    max_L = max(X.degree - 1, 0)
    g_monos = monomials_upto(nv, deg_g)
    L_monos = monomials_upto(nv, max_L)
    g_basis = [Poly.from_monomial(X.variables, m) for m in g_monos]
    L_basis = [Poly.from_monomial(X.variables, m) for m in L_monos]
    results = []
    for s in itertools.product(range(s_bound + 1), repeat=nv):
        balance = X.monomial_cofactor(s)
        if balance is None:
            continue
        denom = Poly.from_monomial(X.variables, s)
        rows = monomials_upto(nv, max(deg_g + max_L, max_L + sum(s)))
        images = [lie_derivative(X, g) - balance * g for g in g_basis]
        images += [-(L * denom) for L in L_basis]
        kernel = RatMatrix(coefficient_matrix(images, rows)).nullspace()
        if not kernel:
            continue
        reduced, _ = RatMatrix(kernel).rref()
        for vec in reduced.entries:
            g = Poly(X.variables, dict(zip(g_monos, vec)))
            L = Poly(X.variables, dict(zip(L_monos, vec[len(g_monos):])))
            if (g.is_constant() and not any(s)) or L.is_zero():
                continue
            scale = Fraction(1) / g.leading_coefficient()
            g, L = g * scale, L * scale
            if any(e and all(m[i] for m in g.terms)
                   for i, e in enumerate(s)):
                continue
            results.append(ExpFactorCert(g, s, L))
    return results


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
        with pytest.raises(NotInvariantError):
            ExpFactorCert(parse_poly("1", X.variables), (0, 1),
                          parse_poly("-1", X.variables)).check(X)

    def test_coordinate_cofactors_are_divided_once(self, monkeypatch):
        # every denominator vector and every certificate check reads the
        # field's coordinate cofactors, which divide each component once
        import darbouxlab.field as field_module

        divisors = []
        divmod_ = field_module.poly_divmod

        def counted(num, den):
            divisors.append(den)
            return divmod_(num, den)

        monkeypatch.setattr(field_module, "poly_divmod", counted)
        X = parse_field("vars: x y z\ndx/dt = x^2\ndy/dt = x\n"
                        "dz/dt = z*y\n")
        assert search_exp_factors(X, 2, 6)
        assert divisors == [Poly.variable(X.variables, v)
                            for v in X.variables]

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

    @pytest.mark.parametrize("text", EXP_FACTOR_FIELDS)
    def test_search_equals_the_joint_search(self, text):
        # the kernel on g alone, with L read off (X - K)(g), reports the
        # certificates of the joint elimination over (g, L)
        X = parse_field(text)
        for deg_g, s_bound in itertools.product(range(4), range(3)):
            assert (search_exp_factors(X, deg_g, s_bound)
                    == _joint_exp_factor_search(X, deg_g, s_bound))

    def test_one_elimination_per_admissible_vector(self, monkeypatch):
        # each of the 3^3 denominator vectors of a Kolmogorov field is one
        # exact kernel; the canonical basis needs no second elimination
        rrefs = _counting(monkeypatch, RatMatrix, "rref")
        assert search_exp_factors(load_field(CORPUS / "lv3_a3_b3_c0.vf"),
                                  2, 2)
        assert len(rrefs) == 27

    def test_inadmissible_vectors_are_not_visited(self, monkeypatch):
        # Lorenz-63 has no invariant coordinate plane: only s = 0 is solved,
        # however large the bound
        import darbouxlab.darboux as dbx

        X = parse_field(LORENZ63)
        kernels = _counting(monkeypatch, dbx, "operator_kernel")
        assert search_exp_factors(X, 2, 8) == search_exp_factors(X, 2, 0)
        assert len(kernels) == 2

    def test_monomial_images_are_computed_once(self, monkeypatch):
        # X(m) belongs to the field: a second operator X - K' on the same
        # columns derives nothing
        import darbouxlab.darboux as dbx
        import darbouxlab.field as field_module

        X = make_lv3(3, 3, 2)
        calls = [_counting(monkeypatch, module, "lie_derivative")
                 for module in (field_module, dbx)]
        cols, rows = monomials_upto(3, 2), monomials_upto(3, 4)
        first = dbx._operator_matrix(X, P("x - y"), cols, rows)
        assert sum(map(len, calls)) == len(cols)
        second = dbx._operator_matrix(X, P("2*z"), cols, rows)
        assert sum(map(len, calls)) == len(cols)
        assert first != second

    @pytest.mark.parametrize("deg_g, s_bound", [(2, 10 ** 9), (10 ** 6, 1)])
    def test_oversized_search_is_refused_before_any_list(
            self, monkeypatch, desk_field, deg_g, s_bound):
        # the size limit is counted, not built: no monomial list exists yet
        import darbouxlab.darboux as dbx

        def built(*args):
            raise AssertionError("a monomial list was built")

        monkeypatch.setattr(dbx, "monomials_upto", built)
        with pytest.raises(ValueError, match="exponential-factor search limit"):
            search_exp_factors(desk_field, deg_g, s_bound)


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


class TestRecords:
    def test_negative_lattice_bound_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CofactorLattice((P("x"), P("1")), -1)
        assert CofactorLattice((P("x"), P("1")), 0).bound == 0

    def test_nonzero_cofactor_balance_is_rejected(self):
        x, y = DarbouxCert(P("x"), P("1 - y")), DarbouxCert(P("y"), P("x"))
        with pytest.raises(ValueError, match="cofactor balance is"):
            DarbouxFunction(((x, Fraction(1)), (y, Fraction(1))), ())
        with pytest.raises(ValueError, match="empty Darboux function"):
            DarbouxFunction((), ())
        assert DarbouxFunction(((x, Fraction(2)),), (
            (ExpFactorCert(P("y"), (0, 0, 0), P("2 - 2*y")), Fraction(-1)),)
        ).cofactor_balance().is_zero()

    def test_frozen_records_refuse_assignment(self):
        cert = DarbouxCert(P("x"), P("1"))
        records = [
            (cert, "f"),
            (ExpFactorCert(P("y"), (0, 0, 0), P("y")), "L"),
            (CofactorLattice((P("x"),), 1), "bound"),
            (DarbouxFunction(((cert, Fraction(1)),
                              (DarbouxCert(P("y"), P("1")), Fraction(-1))),
                             ()), "exp_terms"),
            (ObstructionReport(2, True, (), ()), "degree"),
        ]
        for record, name in records:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert cert.f == P("x")
        assert records[2][0].bound == 1
