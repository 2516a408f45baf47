"""Tests for RNS polynomials, CRT and base conversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.rns import (
    RnsPolynomial,
    base_convert,
    crt_reconstruct,
    exact_residue_transfer,
)


@pytest.fixture(scope="module")
def base_q3(small_ring_module):
    return small_ring_module.base_q(3)


@pytest.fixture(scope="module")
def small_ring_module(request):
    from repro.ckks.params import CkksParams, RingContext
    return RingContext(CkksParams.functional(
        n=1 << 8, l=6, dnum=2, scale_bits=40, q0_bits=50, p_bits=50, h=16))


def _random_poly(ring, level, rng, is_ntt=False):
    base = ring.base_q(level)
    residues = np.stack([
        rng.integers(0, p.value, size=ring.n, dtype=np.uint64)
        for p in base])
    return RnsPolynomial(base, residues, is_ntt=is_ntt)


class TestConstruction:
    def test_zeros(self, small_ring_module):
        poly = RnsPolynomial.zeros(small_ring_module.base_q(2),
                                   small_ring_module.n)
        assert poly.num_limbs == 3
        assert not poly.residues.any()

    def test_shape_validation(self, small_ring_module):
        base = small_ring_module.base_q(1)
        with pytest.raises(ValueError):
            RnsPolynomial(base, np.zeros((3, small_ring_module.n),
                                         dtype=np.uint64), False)

    def test_dtype_validation(self, small_ring_module):
        base = small_ring_module.base_q(0)
        with pytest.raises(ValueError):
            RnsPolynomial(base, np.zeros((1, small_ring_module.n),
                                         dtype=np.int64), False)

    def test_from_signed_roundtrip(self, small_ring_module, rng):
        coeffs = rng.integers(-2**40, 2**40,
                              size=small_ring_module.n).astype(np.int64)
        poly = RnsPolynomial.from_signed_coeffs(
            coeffs, small_ring_module.base_q(4))
        rec = crt_reconstruct(poly)
        assert all(int(a) == int(b) for a, b in zip(rec, coeffs))

    def test_from_signed_object_dtype(self, small_ring_module):
        coeffs = np.array([(1 << 80) + 7] + [0] * (small_ring_module.n - 1),
                          dtype=object)
        poly = RnsPolynomial.from_signed_coeffs(
            coeffs, small_ring_module.base_q(4))
        rec = crt_reconstruct(poly)
        assert int(rec[0]) == (1 << 80) + 7


class TestArithmetic:
    def test_add_sub_roundtrip(self, small_ring_module, rng):
        a = _random_poly(small_ring_module, 3, rng)
        b = _random_poly(small_ring_module, 3, rng)
        assert np.array_equal(a.add(b).sub(b).residues, a.residues)

    def test_neg_involution(self, small_ring_module, rng):
        a = _random_poly(small_ring_module, 3, rng)
        assert np.array_equal(a.neg().neg().residues, a.residues)

    def test_mul_requires_ntt(self, small_ring_module, rng):
        a = _random_poly(small_ring_module, 2, rng)
        with pytest.raises(ValueError):
            a.mul(a)

    def test_domain_mismatch_rejected(self, small_ring_module, rng):
        a = _random_poly(small_ring_module, 2, rng)
        with pytest.raises(ValueError):
            a.add(a.to_ntt())

    def test_base_mismatch_rejected(self, small_ring_module, rng):
        a = _random_poly(small_ring_module, 2, rng)
        b = _random_poly(small_ring_module, 3, rng)
        with pytest.raises(ValueError):
            a.add(b)

    def test_mul_int_matches_crt(self, small_ring_module, rng):
        a = _random_poly(small_ring_module, 3, rng)
        product = math.prod(p.value for p in a.base)
        scaled = a.mul_int(7)
        ref = (crt_reconstruct(a).astype(object) * 7)
        ref = np.array([((int(x) % product) + product) % product
                        for x in ref], dtype=object)
        got = np.array([(int(x) % product + product) % product
                        for x in crt_reconstruct(scaled)], dtype=object)
        assert np.array_equal(got, ref)

    def test_ntt_roundtrip(self, small_ring_module, rng):
        a = _random_poly(small_ring_module, 4, rng)
        assert np.array_equal(a.to_ntt().from_ntt().residues, a.residues)

    def test_ring_product_matches_bigint(self, small_ring_module, rng):
        """NTT-domain limb products == big-int negacyclic product mod Q."""
        n = small_ring_module.n
        coeffs_a = rng.integers(-100, 100, size=n).astype(np.int64)
        coeffs_b = rng.integers(-100, 100, size=n).astype(np.int64)
        base = small_ring_module.base_q(3)
        pa = RnsPolynomial.from_signed_coeffs(coeffs_a, base).to_ntt()
        pb = RnsPolynomial.from_signed_coeffs(coeffs_b, base).to_ntt()
        prod = crt_reconstruct(pa.mul(pb).from_ntt())
        # schoolbook negacyclic product over the integers
        ref = [0] * n
        for i, ai in enumerate(coeffs_a):
            for j, bj in enumerate(coeffs_b):
                k = i + j
                if k >= n:
                    ref[k - n] -= int(ai) * int(bj)
                else:
                    ref[k] += int(ai) * int(bj)
        assert all(int(x) == r for x, r in zip(prod, ref))


class TestRestrict:
    def test_restrict_drops_limbs(self, small_ring_module, rng):
        a = _random_poly(small_ring_module, 4, rng)
        low = a.restrict(small_ring_module.base_q(2))
        assert low.num_limbs == 3
        assert np.array_equal(low.residues, a.residues[:3])

    def test_restrict_missing_prime(self, small_ring_module, rng):
        a = _random_poly(small_ring_module, 1, rng)
        with pytest.raises(ValueError):
            a.restrict(small_ring_module.base_q(3))


class TestGalois:
    def test_identity(self, small_ring_module, rng):
        a = _random_poly(small_ring_module, 2, rng)
        assert np.array_equal(a.galois(1).residues, a.residues)

    def test_ntt_domain_matches_coeff_oracle(self, small_ring_module, rng):
        """NTT-domain galois is the evaluation-point gather of the oracle."""
        a = _random_poly(small_ring_module, 2, rng)
        for g in (5, 13, 2 * small_ring_module.n - 1):
            want = a.galois(g).to_ntt()
            got = a.to_ntt().galois(g)
            assert got.is_ntt
            assert np.array_equal(got.residues, want.residues)

    def test_galois_coeff_oracle_hook(self, small_ring_module, rng):
        """The iNTT -> permute -> NTT oracle equals the NTT gather."""
        from tests.oracles.galois import galois_coeff

        a = _random_poly(small_ring_module, 2, rng).to_ntt()
        assert np.array_equal(galois_coeff(a, 5).residues,
                              a.galois(5).residues)

    def test_rejects_even_element(self, small_ring_module, rng):
        a = _random_poly(small_ring_module, 2, rng)
        with pytest.raises(ValueError):
            a.galois(4)

    def test_composition(self, small_ring_module, rng):
        """sigma_a(sigma_b(x)) == sigma_{a*b mod 2N}(x)."""
        n = small_ring_module.n
        a = _random_poly(small_ring_module, 2, rng)
        g1, g2 = 5, 13
        lhs = a.galois(g1).galois(g2)
        rhs = a.galois((g1 * g2) % (2 * n))
        assert np.array_equal(lhs.residues, rhs.residues)

    def test_preserves_big_coeff_permutation(self, small_ring_module):
        """X -> X^g moves coefficient 1 to position g with sign rules."""
        n = small_ring_module.n
        base = small_ring_module.base_q(2)
        coeffs = np.zeros(n, dtype=np.int64)
        coeffs[1] = 1
        poly = RnsPolynomial.from_signed_coeffs(coeffs, base)
        out = crt_reconstruct(poly.galois(5))
        expected = np.zeros(n, dtype=object)
        expected[5] = 1
        assert np.array_equal(out.astype(object), expected)


class TestBaseConvert:
    def test_small_values_exact(self, small_ring_module):
        """Values far below Q_src convert with at most a u*Q_src offset."""
        n = small_ring_module.n
        src = small_ring_module.base_q(3)
        dst = small_ring_module.base_p
        rng = np.random.default_rng(3)
        coeffs = rng.integers(-2**30, 2**30, size=n).astype(np.int64)
        poly = RnsPolynomial.from_signed_coeffs(coeffs, src)
        converted = base_convert(poly, dst)
        q_src = math.prod(p.value for p in src)
        for i, prime in enumerate(dst):
            want = np.array([(int(c) % prime.value) for c in coeffs])
            got = converted.residues[i].astype(object)
            # allowed error: small multiple of Q_src mod p
            diff = (got - want) % prime.value
            allowed = {(u * q_src) % prime.value
                       for u in range(-len(src), len(src) + 1)}
            assert set(int(d) for d in diff) <= allowed

    def test_requires_coeff_domain(self, small_ring_module, rng):
        poly = _random_poly(small_ring_module, 2, rng, is_ntt=True)
        with pytest.raises(ValueError):
            base_convert(poly, small_ring_module.base_p)

    def test_output_base(self, small_ring_module, rng):
        poly = _random_poly(small_ring_module, 2, rng)
        out = base_convert(poly, small_ring_module.base_p)
        assert out.base == small_ring_module.base_p
        assert not out.is_ntt


class TestExactTransfer:
    def test_small_residues(self, small_ring_module, rng):
        src = small_ring_module.q_primes[3]
        dst = small_ring_module.base_q(2)
        residue = rng.integers(0, 1000, size=small_ring_module.n,
                               dtype=np.uint64)
        out = exact_residue_transfer(residue, src, dst)
        for i, prime in enumerate(dst):
            assert np.array_equal(out.residues[i] % np.uint64(prime.value),
                                  residue % np.uint64(prime.value))

    def test_centered_lift(self, small_ring_module):
        """Residues above q/2 transfer as negative values."""
        src = small_ring_module.q_primes[1]
        dst = (small_ring_module.q_primes[0],)
        residue = np.full(small_ring_module.n, src.value - 1,
                          dtype=np.uint64)  # == -1
        out = exact_residue_transfer(residue, src, dst)
        assert int(out.residues[0][0]) == dst[0].value - 1


@given(st.lists(st.integers(min_value=-2**35, max_value=2**35),
                min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_crt_roundtrip_property(vals):
    """CRT spread/reconstruct is the identity for in-range values."""
    from repro.ckks.params import CkksParams, RingContext
    ring = _hypothesis_ring()
    coeffs = np.array(vals * (ring.n // 4), dtype=np.int64)
    poly = RnsPolynomial.from_signed_coeffs(coeffs, ring.base_q(2))
    assert all(int(a) == int(b)
               for a, b in zip(crt_reconstruct(poly), coeffs))


_RING_CACHE = []


def _hypothesis_ring():
    if not _RING_CACHE:
        from repro.ckks.params import CkksParams, RingContext
        _RING_CACHE.append(RingContext(CkksParams.functional(
            n=1 << 6, l=3, dnum=2, scale_bits=40, q0_bits=45, p_bits=45,
            h=8)))
    return _RING_CACHE[0]
