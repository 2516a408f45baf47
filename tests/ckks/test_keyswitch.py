"""Tests for generalized key-switching (ModUp / ModDown / dnum gadget)."""

import numpy as np
import pytest

from repro.ckks.keyswitch import key_switch, mod_down
from tests.oracles.modup import mod_up
from repro.ckks.rns import RnsPolynomial, crt_reconstruct


def _uniform(ring, base, seed):
    rng = np.random.default_rng(seed)
    residues = np.stack([
        rng.integers(0, p.value, size=ring.n, dtype=np.uint64)
        for p in base])
    return RnsPolynomial(base, residues, is_ntt=True)


class TestModUp:
    def test_output_base(self, small_ring):
        level = 3
        block = small_ring.base_q(level)[0:2]
        poly = _uniform(small_ring, block, 1)
        raised = mod_up(poly, level, small_ring)
        assert raised.base == small_ring.base_qp(level)
        assert raised.is_ntt

    def test_block_limbs_pass_through(self, small_ring):
        level = 3
        block = small_ring.base_q(level)[0:2]
        poly = _uniform(small_ring, block, 2)
        raised = mod_up(poly, level, small_ring)
        assert np.array_equal(raised.residues[0], poly.residues[0])
        assert np.array_equal(raised.residues[1], poly.residues[1])

    def test_small_value_semantics(self, small_ring):
        """A small polynomial mods up to (nearly) itself everywhere."""
        level = 2
        block = small_ring.base_q(level)[0:2]
        coeffs = np.arange(small_ring.n, dtype=np.int64) - 100
        poly = RnsPolynomial.from_signed_coeffs(coeffs, block).to_ntt()
        raised = mod_up(poly, level, small_ring).from_ntt()
        import math
        q_block = math.prod(p.value for p in block)
        target = small_ring.base_qp(level)
        for i, prime in enumerate(target):
            got = raised.residues[i].astype(object)
            want = np.array([int(c) % prime.value for c in coeffs],
                            dtype=object)
            diff = (got - want) % prime.value
            allowed = {(u * q_block) % prime.value for u in range(-3, 4)}
            assert set(int(d) for d in diff) <= allowed


class TestModDown:
    def test_divides_by_p(self, small_ring):
        """mod_down(P * x) == x (up to rounding) for small x."""
        level = 2
        base = small_ring.base_qp(level)
        coeffs = np.arange(small_ring.n, dtype=np.int64) % 37 - 18
        x = RnsPolynomial.from_signed_coeffs(coeffs, base)
        p_prod = small_ring.p_product
        px = x.mul_int(p_prod).to_ntt()
        [down] = mod_down([px], level, small_ring)
        down = down.from_ntt()
        rec = crt_reconstruct(down)
        err = np.abs(rec.astype(np.float64)
                     - coeffs.astype(np.float64))
        assert err.max() <= len(base)  # BConv rounding error only

    def test_output_base(self, small_ring):
        poly = _uniform(small_ring, small_ring.base_qp(3), 4)
        [out] = mod_down([poly], 3, small_ring)
        assert out.base == small_ring.base_q(3)


class TestKeySwitch:
    @pytest.mark.parametrize("level", [1, 3, 6])
    def test_relinearization_semantics(self, small_ring, small_keys,
                                       level):
        """(ks_b - ks_a * s) must approximate d2 * s^2."""
        evk = small_keys.gen_relinearization_key()
        base = small_ring.base_q(level)
        d2 = _uniform(small_ring, base, level)
        ks_b, ks_a = key_switch(d2, evk, level, small_ring)
        s = small_keys.secret.restricted(base)
        got = ks_b.sub(ks_a.mul(s))
        want = d2.mul(s).mul(s)
        err_poly = got.sub(want).from_ntt()
        err = crt_reconstruct(err_poly).astype(np.float64)
        # error ~ (hamming * noise * N) / P: tiny relative to Q_level
        import math
        q_level = math.prod(p.value for p in base)
        assert np.max(np.abs(err)) < q_level / 2 ** 20

    def test_requires_ntt_domain(self, small_ring, small_keys):
        evk = small_keys.gen_relinearization_key()
        poly = _uniform(small_ring, small_ring.base_q(2), 7).from_ntt()
        with pytest.raises(ValueError):
            key_switch(poly, evk, 2, small_ring)

    def test_galois_key_semantics(self, small_ring, small_keys):
        """Switching with a galois key targets s(X^g)."""
        level = 3
        galois_elt = pow(5, 2, 2 * small_ring.n)
        evk = small_keys.gen_galois_key(galois_elt)
        base = small_ring.base_q(level)
        a = _uniform(small_ring, base, 8)
        ks_b, ks_a = key_switch(a, evk, level, small_ring)
        s_g = (small_keys.secret.poly.from_ntt()
               .galois(galois_elt).to_ntt().restrict(base))
        s = small_keys.secret.restricted(base)
        got = ks_b.sub(ks_a.mul(s))
        want = a.mul(s_g)
        err = crt_reconstruct(got.sub(want).from_ntt()).astype(np.float64)
        import math
        q_level = math.prod(p.value for p in base)
        assert np.max(np.abs(err)) < q_level / 2 ** 20

    def test_all_dnum_slices_used(self, small_ring, small_keys,
                                  small_params):
        evk = small_keys.gen_relinearization_key()
        assert evk.dnum == small_params.dnum
        # at max level, beta == dnum: every slice participates
        blocks = small_ring.decomposition_blocks(small_params.l)
        assert len(blocks) == small_params.dnum
