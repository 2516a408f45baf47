"""Differential tier: the native modmath backend vs the NumPy oracle.

Every public modmath primitive is *exactly* defined (canonical residues,
or an exact lazy representative), so the compiled backend must agree
with the pure-NumPy path bit for bit — on contiguous planes, strided
views, broadcasts, scalar and vector moduli, and through every layer
that inherits the dispatch (NTT, BConv, key-switching, full HMult).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.modmath import (
    Modulus,
    ModulusVector,
    active_backend,
    available_backends,
    barrett_reduce128,
    mul128,
    mul_mod,
    mul_mod_add,
    mul_mod_shoup,
    mul_mod_shoup_lazy,
    mulhi64,
    shoup_precompute,
)
from tests.conftest import encrypt_message, forced_backend

needs_native = pytest.mark.skipif(
    "native" not in available_backends(),
    reason="native modmath extension unavailable")

SCALE = 2.0 ** 40

#: Mixed widths on purpose: the 7-bit limb stresses the correction
#: logic, the 59/61-bit limbs stress the quotient-estimate headroom.
_WIDTHS = [(1 << 59) + 55, (1 << 61) + 15, (1 << 40) + 195,
           (1 << 61) + 249, 113]


def _under_both(fn):
    """Run ``fn()`` under each backend, returning (numpy, native)."""
    with forced_backend("numpy"):
        ref = fn()
    with forced_backend("native"):
        got = fn()
    return ref, got


def _assert_identical(ref, got):
    if isinstance(ref, tuple):
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(r, g)
    else:
        np.testing.assert_array_equal(ref, got)


@needs_native
class TestPrimitiveBitIdentity:
    @pytest.fixture()
    def mv(self):
        return ModulusVector([Modulus(q) for q in _WIDTHS],
                             trailing_dims=2)

    @pytest.fixture()
    def planes(self, rng, mv):
        shape = (len(_WIDTHS), 3, 64)
        q = mv.u64
        a = rng.integers(0, 1 << 63, size=shape).astype(np.uint64) % q
        b = rng.integers(0, 1 << 63, size=shape).astype(np.uint64) % q
        return a, b

    def test_mulhi64_and_mul128(self, rng):
        a = rng.integers(0, 1 << 63, size=(5, 31), dtype=np.uint64)
        b = rng.integers(0, 1 << 63, size=(5, 31), dtype=np.uint64)
        _assert_identical(*_under_both(lambda: mulhi64(a, b)))
        _assert_identical(*_under_both(lambda: mul128(a, b)))

    def test_mul_mod_vector_moduli(self, mv, planes):
        a, b = planes
        _assert_identical(*_under_both(lambda: mul_mod(a, b, mv)))

    def test_barrett_reduce128_full_words(self, rng, mv):
        shape = (len(_WIDTHS), 3, 64)
        hi = rng.integers(0, 1 << 63, size=shape, dtype=np.uint64)
        lo = rng.integers(0, 1 << 63, size=shape, dtype=np.uint64)
        _assert_identical(
            *_under_both(lambda: barrett_reduce128(hi, lo, mv)))

    def test_shoup_canonical_and_lazy(self, mv, planes):
        a, w = planes
        ws = shoup_precompute(w, mv)
        _assert_identical(
            *_under_both(lambda: mul_mod_shoup(a, w, ws, mv)))
        _assert_identical(
            *_under_both(lambda: mul_mod_shoup_lazy(a, w, ws, mv)))

    def test_mul_mod_add_with_aliasing(self, mv, planes):
        a, b = planes

        def run():
            acc = a.copy()
            return mul_mod_add(acc, a, b, mv, out=acc)

        _assert_identical(*_under_both(run))

    def test_strided_views(self, rng):
        m = Modulus((1 << 59) + 55)
        base = rng.integers(0, m.value, size=(64, 64), dtype=np.uint64)
        views = [base.T, base[::2, ::3], base[:, 7]]
        for view in views:
            _assert_identical(
                *_under_both(lambda v=view: mul_mod(v, v, m)))

    def test_scalar_broadcast(self, rng):
        m = Modulus((1 << 61) + 15)
        a = rng.integers(0, m.value, size=(4, 8), dtype=np.uint64)
        s = np.uint64(1 << 60)
        _assert_identical(
            *_under_both(lambda: mul_mod(a, np.broadcast_to(s, a.shape),
                                         m)))

    @given(st.integers(min_value=1 << 58, max_value=(1 << 62) - 1),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_differential_wide_moduli(self, q, data):
        if q % 2 == 0:
            q -= 1
        m = Modulus(q)
        a = data.draw(st.integers(min_value=0, max_value=q - 1))
        b = data.draw(st.integers(min_value=0, max_value=q - 1))
        arr_a = np.array([a], dtype=np.uint64)
        arr_b = np.array([b], dtype=np.uint64)
        ws = shoup_precompute(arr_b, m)
        for fn in (lambda: mul_mod(arr_a, arr_b, m),
                   lambda: mul_mod_shoup(arr_a, arr_b, ws, m),
                   lambda: mul_mod_shoup_lazy(arr_a, arr_b, ws, m)):
            ref, got = _under_both(fn)
            _assert_identical(ref, got)

    def test_native_selftest(self):
        from repro.ckks import _native

        handle = _native.load(build_if_missing=False)
        assert handle is not None
        assert handle.lib.nm_selftest() == 0


@needs_native
class TestTwoDimensionalAbiLayouts:
    """Every layout the fixed 2-D kernel signature must express.

    The native kernels read a word pointer plus ``(row, col)`` element
    strides per operand and trust them, so each layout here is checked
    bit for bit against the NumPy ladder: layouts that fold into strides
    run in place, the rest go through a single copy, and none may drop
    to NumPy or read out of bounds.
    """

    @pytest.fixture()
    def mv(self):
        return ModulusVector([Modulus(q) for q in _WIDTHS])

    def _residues(self, rng, mv, shape):
        words = rng.integers(0, 1 << 63, size=shape, dtype=np.uint64)
        return words % mv.u64.reshape((-1,) + (1,) * (len(shape) - 1))

    def test_column_slice_with_row_stride(self, rng, mv):
        # mod_down hands the NTT converted.residues[:, i*n:(i+1)*n]:
        # rows of n words inside rows of 3n
        n = 64
        a = self._residues(rng, mv, (len(mv), 3 * n))
        b = self._residues(rng, mv, (len(mv), 3 * n))
        view_a, view_b = a[:, n:2 * n], b[:, 2 * n:]
        ws = shoup_precompute(np.ascontiguousarray(view_b), mv)

        def run():
            out = np.zeros((len(mv), 3 * n), dtype=np.uint64)
            mul_mod_shoup(view_a, view_b, ws, mv, out=out[:, :n])
            return (out, mul_mod(view_a, view_b, mv),
                    mul_mod_add(view_a, view_a, view_b, mv))

        _assert_identical(*_under_both(run))

    def test_non_collapsible_3d_view(self, rng):
        mv3 = ModulusVector([Modulus(q) for q in _WIDTHS], trailing_dims=2)
        raw_a = self._residues(rng, mv3, (len(_WIDTHS), 64, 3))
        raw_b = self._residues(rng, mv3, (len(_WIDTHS), 64, 3))
        a = raw_a.transpose(0, 2, 1)           # (L, 3, 64), strides don't fold
        b = raw_b.transpose(0, 2, 1)
        assert a.shape == (len(_WIDTHS), 3, 64) and not a.flags.c_contiguous
        ws = shoup_precompute(np.ascontiguousarray(b), mv3)
        _assert_identical(*_under_both(lambda: (
            mul_mod(a, b, mv3), mul_mod_shoup(a, b, ws, mv3),
            mulhi64(a, b), mul128(a, b),
            barrett_reduce128(raw_a.transpose(0, 2, 1), a, mv3))))
        a_before = a.copy()
        _under_both(lambda: mul_mod(a, b, mv3))
        np.testing.assert_array_equal(a, a_before)

    def test_moduli_on_a_later_axis(self, rng, mv):
        # (L, 1) moduli against (2, L, n) operands: the modulus rows are
        # axis 1, so the call splits along axis 0
        a = np.stack([self._residues(rng, mv, (len(mv), 32))
                      for _ in range(2)])
        b = self._residues(rng, mv, (len(mv), 32))
        _assert_identical(*_under_both(lambda: mul_mod(a, b, mv)))

    def test_non_contiguous_out(self, rng, mv):
        n = 48
        a = self._residues(rng, mv, (len(mv), n))
        b = self._residues(rng, mv, (len(mv), n))
        ws = shoup_precompute(b, mv)

        def run():
            backing = np.full((len(mv), 2 * n), 7, dtype=np.uint64)
            mul_mod(a, b, mv, out=backing[:, ::2])
            mul_mod_shoup_lazy(a, b, ws, mv, out=backing[:, 1::2])
            transposed = np.empty((n, len(mv)), dtype=np.uint64).T
            mul_mod_add(a, a, b, mv, out=transposed)
            return backing, transposed

        ref, got = _under_both(run)
        _assert_identical(ref, got)
        np.testing.assert_array_equal(got[0][:, ::2], ref[0][:, ::2])

    def test_read_only_broadcast_inputs(self, rng, mv):
        n = 40
        a = self._residues(rng, mv, (len(mv), n))
        col = self._residues(rng, mv, (len(mv), 1))
        w = np.broadcast_to(col, (len(mv), n))
        ws = np.broadcast_to(shoup_precompute(col, mv), (len(mv), n))
        a_ro = a.copy()
        a_ro.setflags(write=False)
        assert not w.flags.writeable and not ws.flags.writeable
        _assert_identical(*_under_both(lambda: (
            mul_mod_shoup(a_ro, w, ws, mv), mul_mod(a_ro, w, mv),
            mul_mod_add(a_ro, a_ro, w, mv))))

    def test_read_only_out_is_rejected(self, rng, mv):
        a = self._residues(rng, mv, (len(mv), 8))
        out = np.empty_like(a)
        out.setflags(write=False)
        for backend in ("numpy", "native"):
            with forced_backend(backend), pytest.raises(ValueError):
                mul_mod(a, a, mv, out=out)

    def test_mismatched_shapes_are_rejected(self, rng, mv):
        a = self._residues(rng, mv, (len(mv), 16))
        for backend in ("numpy", "native"):
            with forced_backend(backend):
                with pytest.raises(ValueError):
                    mul_mod(a, a[:, :8], mv)
                with pytest.raises(ValueError):
                    mul_mod(a, a, mv, out=np.empty((len(mv), 8),
                                                   dtype=np.uint64))

    def test_zero_dim_scalar_modulus(self, rng):
        # a scalar Modulus carries 0-d constants; operands and outputs
        # may be 0-d too (a 1 x 1 problem with every stride 0)
        m = Modulus((1 << 61) + 15)
        x = np.array(rng.integers(0, m.value), dtype=np.uint64)
        y = np.array(rng.integers(0, m.value), dtype=np.uint64)
        ys = shoup_precompute(y, m)[0]
        mat = rng.integers(0, m.value, size=(3, 5), dtype=np.uint64)

        def run():
            outs = [np.empty((), dtype=np.uint64) for _ in range(4)]
            mul_mod(x, y, m, out=outs[0])
            mul_mod_shoup(x, y, ys, m, out=outs[1])
            mul_mod_add(x, x, y, m, out=outs[2])
            barrett_reduce128(x, y, m, out=outs[3])
            return (*outs, mulhi64(x, y), mul_mod(mat, y, m),
                    mul_mod_shoup(mat, y, ys, m), mul_mod(x, mat, m))

        ref, got = _under_both(run)
        _assert_identical(ref, got)
        assert got[0].shape == ()
        assert int(got[0]) == (int(x) * int(y)) % m.value

    def test_one_row_matrix(self, rng):
        q = (1 << 59) + 55
        one = ModulusVector([Modulus(q)])
        a = rng.integers(0, q, size=(1, 257), dtype=np.uint64)
        b = rng.integers(0, q, size=(1, 257), dtype=np.uint64)
        ws = shoup_precompute(b, one)
        _assert_identical(*_under_both(lambda: (
            mul_mod(a, b, one), mul_mod_shoup(a, b, ws, one),
            mul_mod_add(a, a, b, one), mul_mod(a, b, Modulus(q)),
            barrett_reduce128(b, a, one), mul128(a, b))))

    def test_two_thread_mul_mod_add_hammer(self, rng, mv):
        n = 256
        jobs = [tuple(self._residues(rng, mv, (len(mv), n))
                      for _ in range(3)) for _ in range(2)]
        with forced_backend("numpy"):
            want = [mul_mod_add(acc, a, b, mv) for acc, a, b in jobs]
        with forced_backend("native"):
            def hammer(i: int) -> bool:
                acc, a, b = jobs[i]
                out = np.empty_like(acc)
                for _ in range(300):
                    mul_mod_add(acc, a, b, mv, out=out)
                    if not np.array_equal(out, want[i]):
                        return False
                return True

            with ThreadPoolExecutor(max_workers=2) as pool:
                assert all(pool.map(hammer, range(2)))


class TestBackendCache:
    """The backend is resolved once, and every override lands at once."""

    def _counting(self):
        from repro.ckks import modmath

        class Counting:
            def __init__(self, lib):
                self.lib = lib
                self.calls = 0

            def __getattr__(self, name):
                kernel = getattr(self.lib, name)

                def counted(*args):
                    self.calls += 1
                    return kernel(*args)

                return counted

        handle = modmath._native_backend.load()
        return handle, Counting(handle.lib)

    @needs_native
    def test_set_backend_takes_effect_on_next_call(self, rng):
        from repro.ckks import modmath

        handle, counter = self._counting()
        m = Modulus((1 << 61) + 15)
        a = rng.integers(0, m.value, size=(2, 8), dtype=np.uint64)
        handle.lib = counter
        try:
            with forced_backend("native"):
                mul_mod(a, a, m)
                assert counter.calls == 1
                modmath.set_backend("numpy")
                mul_mod(a, a, m)
                assert counter.calls == 1
                modmath.set_backend("native")
                mul_mod(a, a, m)
                assert counter.calls == 2
                modmath.set_backend(None)
                mul_mod(a, a, m)
                env_native = modmath._requested_backend() != "numpy"
                assert counter.calls == 2 + env_native
        finally:
            handle.lib = counter.lib

    @needs_native
    def test_reset_for_tests_reloads(self, rng):
        from repro.ckks import _native, modmath

        m = ModulusVector([Modulus(q) for q in _WIDTHS])
        a = rng.integers(0, 1 << 62, size=(len(_WIDTHS), 16),
                         dtype=np.uint64) % m.u64
        with forced_backend("native"):
            before = modmath._active_native()
            want = mul_mod(a, a, m)
            _native.reset_for_tests()
            after = modmath._active_native()
            assert after is not None and after is not before
            np.testing.assert_array_equal(mul_mod(a, a, m), want)

    def test_env_var_is_not_reread_per_call(self, monkeypatch, rng):
        from repro.ckks import modmath

        m = Modulus(113)
        a = np.arange(4, dtype=np.uint64)
        modmath.set_backend(None)
        try:
            mode = modmath.active_backend()
            monkeypatch.setenv(modmath._BACKEND_ENV, "numpy" if mode ==
                               "native" else "native")
            mul_mod(a, a, m)
            assert modmath.active_backend() == mode
        finally:
            monkeypatch.undo()
            modmath.set_backend(None)


@needs_native
class TestInheritedLayersBitIdentity:
    """NTT / BConv / key-switching inherit the dispatch untouched."""

    def _encrypted(self, small_keys, small_encoder, small_params, rng):
        n = small_params.slots_max
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        return encrypt_message(small_keys, small_encoder, z, SCALE)

    def test_hmult_bit_identical(self, small_evaluator, small_keys,
                                 small_encoder, small_params, rng):
        ct0 = self._encrypted(small_keys, small_encoder, small_params, rng)
        ct1 = self._encrypted(small_keys, small_encoder, small_params, rng)

        def run():
            out = small_evaluator.multiply(ct0, ct1)
            return out.b.residues, out.a.residues

        _assert_identical(*_under_both(run))

    def test_rotate_bit_identical(self, small_evaluator, small_keys,
                                  small_encoder, small_params, rng):
        ct = self._encrypted(small_keys, small_encoder, small_params, rng)

        def run():
            out = small_evaluator.rotate(ct, 3)
            return out.b.residues, out.a.residues

        _assert_identical(*_under_both(run))

    def test_rescale_bit_identical(self, small_evaluator, small_keys,
                                   small_encoder, small_params, rng):
        ct0 = self._encrypted(small_keys, small_encoder, small_params, rng)
        ct1 = self._encrypted(small_keys, small_encoder, small_params, rng)

        def run():
            out = small_evaluator.rescale(small_evaluator.multiply(
                ct0, ct1, rescale=False))
            return out.b.residues, out.a.residues

        _assert_identical(*_under_both(run))


class TestBackendFixture:
    """The parametrized fixture drives real work under each backend."""

    def test_active_backend_matches_fixture(self, each_backend):
        assert active_backend() == each_backend

    def test_mul_mod_oracle_under_each_backend(self, each_backend, rng):
        q = (1 << 61) + 15
        m = Modulus(q)
        a = rng.integers(0, q, size=257, dtype=np.uint64)
        b = rng.integers(0, q, size=257, dtype=np.uint64)
        got = mul_mod(a, b, m)
        assert [int(v) for v in got] == [(int(x) * int(y)) % q
                                        for x, y in zip(a, b)]

    def test_encrypt_decrypt_under_each_backend(
            self, each_backend, small_evaluator, small_keys,
            small_encoder, small_params, rng):
        n = small_params.slots_max
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        ct = encrypt_message(small_keys, small_encoder, z, SCALE)
        got = small_evaluator.decrypt_to_message(ct, small_keys.secret)
        assert np.max(np.abs(got - z)) < 1e-7
