"""Differential suite for the batched NTT engines.

The native whole-transform kernel and the NumPy radix-4 Stockham engine
each rewrite the numerical core of every transform, so they are locked
down three ways:

* hypothesis-driven bit-identity against the scalar ``NttContext``
  oracle across random ring degrees (odd and even ``log2(N)``), limb
  counts and modulus widths — including widths that force the strict
  radix-2 fallback — under every available modmath backend;
* convolution correctness against the O(N^2) schoolbook reference;
* structural checks: engine selection by :func:`stockham_gate`, inputs
  never mutated, fresh outputs, concurrent transforms, and the static
  pass-count report the benchmarks record.
"""

import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

pytestmark = pytest.mark.slow  # hypothesis differential sweep runs nightly

from repro.ckks.modmath import available_backends, mul_mod
from repro.ckks.ntt import (
    BatchedNttContext,
    NttContext,
    batched_ntt_context,
    negacyclic_convolution_reference,
    stockham_gate,
)
from repro.ckks.primes import is_prime, ntt_friendly_primes
from tests.conftest import forced_backend

#: (n, bits) -> tuple[NttContext, ...]; hypothesis re-draws the same
#: configurations many times and context creation is O(n) per prime.
_CTX_CACHE: dict = {}


def _contexts(n: int, bits: int, limbs: int) -> tuple[NttContext, ...]:
    key = (n, bits)
    cached = _CTX_CACHE.get(key)
    if cached is None:
        primes = ntt_friendly_primes(bits, 4, n)
        cached = tuple(NttContext.create(q, n) for q in primes)
        _CTX_CACHE[key] = cached
    return cached[:limbs]


def _random_matrix(ctxs, rng) -> np.ndarray:
    n = ctxs[0].n
    return np.stack([rng.integers(0, c.modulus.value, size=n,
                                  dtype=np.uint64) for c in ctxs])


def _oracle_forward(ctxs, a: np.ndarray) -> np.ndarray:
    return np.stack([c.forward(a[i]) for i, c in enumerate(ctxs)])


def _oracle_inverse(ctxs, a: np.ndarray) -> np.ndarray:
    return np.stack([c.inverse(a[i]) for i, c in enumerate(ctxs)])


def _sweep(test):
    """Hypothesis sweep over ring degree, modulus width and limb count,
    always including the edges: n=2 (a single stage), n=4096, and 61-bit
    moduli beyond every Stockham gate (NumPy takes the strict radix-2
    path there)."""
    test = settings(max_examples=40, deadline=None)(test)
    for exp, bits, seed in ((1, 30, 1), (1, 61, 2), (12, 50, 3), (12, 61, 4)):
        test = example(exp=exp, bits=bits, limbs=4, seed=seed)(test)
    return given(exp=st.integers(min_value=1, max_value=12),
                 bits=st.sampled_from([30, 42, 50, 58, 61]),
                 limbs=st.integers(min_value=1, max_value=4),
                 seed=st.integers(0, 2**32 - 1))(test)


class TestDifferentialVsScalarOracle:
    """Every batched engine must match the per-limb oracle bit for bit.

    Each test runs the batched transform under every available backend
    (the native kernel and the NumPy engines) against one oracle result.
    """

    @_sweep
    def test_forward_bit_identical(self, exp, bits, limbs, seed):
        ctxs = _contexts(1 << exp, bits, limbs)
        batched = batched_ntt_context(ctxs)
        a = _random_matrix(ctxs, np.random.default_rng(seed))
        ref = _oracle_forward(ctxs, a)
        for backend in available_backends():
            with forced_backend(backend):
                assert np.array_equal(batched.forward(a), ref), backend

    @_sweep
    def test_inverse_bit_identical_and_roundtrip(self, exp, bits, limbs,
                                                 seed):
        ctxs = _contexts(1 << exp, bits, limbs)
        batched = batched_ntt_context(ctxs)
        a = _random_matrix(ctxs, np.random.default_rng(seed))
        fwd = _oracle_forward(ctxs, a)
        ref = _oracle_inverse(ctxs, fwd)
        assert np.array_equal(ref, a)
        for backend in available_backends():
            with forced_backend(backend):
                assert np.array_equal(batched.inverse(fwd), ref), backend

    @pytest.mark.parametrize("exp", [4, 5, 6, 7, 10, 11])
    def test_odd_and_even_log2_n(self, exp):
        """The lone radix-2 fix-up stage (odd log2) matches the oracle."""
        ctxs = _contexts(1 << exp, 50, 3)
        batched = batched_ntt_context(ctxs)
        rng = np.random.default_rng(exp)
        a = _random_matrix(ctxs, rng)
        ref = _oracle_forward(ctxs, a)
        for backend in available_backends():
            with forced_backend(backend):
                fwd = batched.forward(a)
                assert np.array_equal(fwd, ref), backend
                assert np.array_equal(batched.inverse(fwd), a), backend

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_strict_fallback_matches_oracle(self, seed):
        """60-bit moduli exceed the 4m bounds and take the strict path."""
        n = 256
        primes = ntt_friendly_primes(60, 2, n)
        ctxs = tuple(NttContext.create(q, n) for q in primes)
        batched = batched_ntt_context(ctxs)
        assert batched.plan is None
        a = _random_matrix(ctxs, np.random.default_rng(seed))
        ref = _oracle_forward(ctxs, a)
        for backend in available_backends():
            with forced_backend(backend):
                fwd = batched.forward(a)
                assert np.array_equal(fwd, ref), backend
                assert np.array_equal(batched.inverse(fwd), a), backend

    def test_strided_column_slice_input(self, each_backend):
        """A non-contiguous view transforms like its contiguous copy."""
        ctxs = _contexts(256, 50, 3)
        batched = batched_ntt_context(ctxs)
        wide = np.repeat(_random_matrix(ctxs, np.random.default_rng(5)),
                         2, axis=1)
        view = wide[:, 1::2]
        assert not view.flags.c_contiguous
        a = np.ascontiguousarray(view)
        fwd = batched.forward(view)
        assert np.array_equal(fwd, _oracle_forward(ctxs, a))
        assert np.array_equal(batched.inverse(np.asfortranarray(fwd)), a)


class TestConvolution:
    @given(exp=st.integers(min_value=4, max_value=6),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_schoolbook_reference(self, exp, seed):
        n = 1 << exp
        ctxs = _contexts(n, 42, 2)
        batched = batched_ntt_context(ctxs)
        rng = np.random.default_rng(seed)
        a = _random_matrix(ctxs, rng)
        b = _random_matrix(ctxs, rng)
        prod = batched.inverse(mul_mod(batched.forward(a),
                                       batched.forward(b),
                                       batched.moduli))
        for i, c in enumerate(ctxs):
            ref = negacyclic_convolution_reference(a[i], b[i],
                                                   c.modulus.value)
            assert np.array_equal(prod[i], ref)


class TestEngineStructure:
    def test_gate_selects_engine(self):
        assert stockham_gate(2048, (1 << 50) - 27)
        assert stockham_gate(2048, (1 << 58) - 1)
        assert not stockham_gate(2048, 1 << 60)
        # the forward growth bound tightens with the stage count
        assert stockham_gate(16, (1 << 59) - 1)
        assert not stockham_gate(1 << 12, 1 << 59)

    def test_input_not_mutated_by_ping_pong(self):
        ctxs = _contexts(128, 50, 2)
        batched = batched_ntt_context(ctxs)
        assert batched.plan is not None
        rng = np.random.default_rng(7)
        a = _random_matrix(ctxs, rng)
        saved = a.copy()
        for backend in available_backends():
            with forced_backend(backend):
                fwd = batched.forward(a)
                assert np.array_equal(a, saved), backend
                batched.inverse(fwd)
                assert np.array_equal(a, saved), backend

    def test_outputs_are_fresh_arrays(self):
        """Results must not alias the input or any reusable workspace."""
        ctxs = _contexts(64, 50, 2)
        batched = batched_ntt_context(ctxs)
        rng = np.random.default_rng(8)
        for backend in available_backends():
            with forced_backend(backend):
                a = _random_matrix(ctxs, rng)
                first = batched.forward(a)
                assert not np.shares_memory(first, a), backend
                snapshot = first.copy()
                batched.forward(_random_matrix(ctxs, rng))
                assert np.array_equal(first, snapshot), backend
                inv_first = batched.inverse(first)
                assert not np.shares_memory(inv_first, first), backend
                inv_snapshot = inv_first.copy()
                batched.inverse(snapshot)
                assert np.array_equal(inv_first, inv_snapshot), backend

    def test_concurrent_transforms_match_serial(self, each_backend):
        """Two threads transforming different matrices at once (cffi
        releases the GIL inside the native kernel) must reproduce the
        serial results: no engine may share scratch across threads."""
        ctxs = _contexts(1 << 12, 50, 4)
        batched = batched_ntt_context(ctxs)
        rng = np.random.default_rng(11)
        inputs = [_random_matrix(ctxs, rng) for _ in range(2)]
        serial = [(batched.forward(a), batched.inverse(a)) for a in inputs]
        results: list = [None, None]
        start = threading.Barrier(2)

        def worker(i: int) -> None:
            start.wait()
            results[i] = [(batched.forward(inputs[i]),
                           batched.inverse(inputs[i])) for _ in range(50)]

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(2):
            for fwd, inv in results[i]:
                assert np.array_equal(fwd, serial[i][0])
                assert np.array_equal(inv, serial[i][1])

    def test_pass_counts_report(self):
        ctxs = _contexts(1 << 11, 50, 2)
        # 60-bit moduli at n=64 overflow the Stockham 4m bounds: the
        # NumPy engine of record there is the strict radix-2 path.
        wide = batched_ntt_context(
            tuple(NttContext.create(q, 64)
                  for q in ntt_friendly_primes(60, 1, 64)))
        with forced_backend("numpy"):
            report = batched_ntt_context(ctxs).pass_counts()
            assert report["engine"] == "stockham-r4"
            for direction in ("forward", "inverse"):
                assert report[direction]["dispatches"] > 0
                assert report[direction]["matrix_passes"] > 0
                assert report[direction]["per_stage"]
            assert wide.pass_counts()["engine"] == "radix2-strict"
        if "native" in available_backends():
            # one C call per transform, whatever the moduli
            with forced_backend("native"):
                for batched in (batched_ntt_context(ctxs), wide):
                    report = batched.pass_counts()
                    assert report["engine"] == "native"
                    for direction in ("forward", "inverse"):
                        assert report[direction]["dispatches"] == 1

    def test_radix4_halves_stage_dispatches(self):
        """The fused engine must dispatch fewer kernels than radix-2."""
        ctxs = _contexts(1 << 10, 50, 2)   # even log2: purely radix-4
        with forced_backend("numpy"):
            report = batched_ntt_context(ctxs).pass_counts()
            strict = batched_ntt_context(
                tuple(NttContext.create(q, 1 << 10)
                      for q in ntt_friendly_primes(60, 2, 1 << 10))
            ).pass_counts()
        assert (report["forward"]["dispatches"]
                < strict["forward"]["dispatches"])

    def test_empty_context_tuple_rejected(self):
        with pytest.raises(ValueError):
            BatchedNttContext.from_contexts(())


def _edge_prime_pair(n: int, threshold: int) -> tuple[int, int]:
    """The NTT-friendly primes hugging ``threshold`` from each side.

    Returns ``(below, above)`` with ``below <= threshold < above``, both
    ``= 1 (mod 2n)`` and prime — the largest admissible and smallest
    inadmissible moduli for a gate whose cutoff is ``threshold``.
    """
    step = 2 * n
    below = threshold - ((threshold - 1) % step)   # = 1 mod 2n, <= threshold
    while not is_prime(below):
        below -= step
    above = below + step
    while above <= threshold or not is_prime(above):
        above += step
    return below, above


class TestStockhamGateBoundary:
    """Regression pin: the gate must flip exactly at the lazy-bound edge.

    The bounds are strict (``< 2**64``) and the cutoffs land at 59-62
    bit moduli; these tests hold the gate to the exact integer
    threshold and prove, differentially against the scalar oracle, that
    the engine swap at the edge never changes a single output bit.
    ``mult`` is the lazy twiddle-product bound of the approximate
    ``_shoup4`` as a multiple of ``m``.
    """

    @pytest.mark.parametrize("n", [4, 64, 1 << 11, 1 << 12])
    @pytest.mark.parametrize("mult", [4])
    def test_gate_flips_exactly_at_threshold(self, n, mult):
        k = n.bit_length() - 1
        limit = (1 << 64) - 1
        # Largest m satisfying both strict bounds; +1 must be rejected.
        threshold = min(limit // (mult * k + 1), limit // (2 * mult))
        assert 59 <= threshold.bit_length() <= 62
        assert stockham_gate(n, threshold)
        assert not stockham_gate(n, threshold + 1)

    @pytest.mark.parametrize("mult", [4])
    def test_real_primes_straddle_the_gate(self, mult):
        n = 1 << 11
        k = n.bit_length() - 1
        limit = (1 << 64) - 1
        threshold = min(limit // (mult * k + 1), limit // (2 * mult))
        admissible, inadmissible = _edge_prime_pair(n, threshold)
        assert stockham_gate(n, admissible)
        assert not stockham_gate(n, inadmissible)

    def _roundtrip_vs_oracle(self, ctxs, rng):
        """Batched forward+inverse must match the per-limb scalar oracle
        under every available backend."""
        batched = batched_ntt_context(ctxs)
        a = _random_matrix(ctxs, rng)
        ref_fwd = _oracle_forward(ctxs, a)
        ref_inv = _oracle_inverse(ctxs, ref_fwd)
        assert np.array_equal(ref_inv, a)
        for backend in available_backends():
            with forced_backend(backend):
                fwd = batched.forward(a)
                assert np.array_equal(fwd, ref_fwd), backend
                assert np.array_equal(batched.inverse(fwd), ref_inv), \
                    backend
        return batched

    def test_engine_selection_and_bit_identity_at_both_edges(self):
        """The largest admissible / smallest inadmissible widths, live.

        Four bases pinned at real prime edges (~2^58.5, the 4m Stockham
        gate at n=2^11, and ~2^59.5, where a tighter 2m bound would
        sit): the Stockham plan must exist exactly up to the 4m edge,
        and every base must reproduce the scalar oracle bit for bit.
        """
        n = 1 << 11
        k = n.bit_length() - 1
        limit = (1 << 64) - 1
        t4 = limit // (4 * k + 1)
        t2 = limit // (2 * k + 1)
        adm4, inadm4 = _edge_prime_pair(n, t4)
        adm2, inadm2 = _edge_prime_pair(n, t2)
        rng = np.random.default_rng(0xB75)
        # just inside the 4m gate: radix-4 plan
        batched = self._roundtrip_vs_oracle((NttContext.create(adm4, n),),
                                            rng)
        assert batched.plan is not None
        # every wider base: no plan, strict radix-2 under NumPy
        for q in (inadm4, adm2, inadm2):
            batched = self._roundtrip_vs_oracle((NttContext.create(q, n),),
                                                rng)
            assert batched.plan is None
