"""Shared fixtures: small functional rings (session-scoped, reused)."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.ckks.encoder import Encoder
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import KeyGenerator
from repro.ckks.params import CkksParams, RingContext


@pytest.fixture(scope="session")
def small_params() -> CkksParams:
    """Tiny ring for fast unit tests (N=256)."""
    return CkksParams.functional(n=1 << 8, l=6, dnum=2, scale_bits=40,
                                 q0_bits=50, p_bits=50, h=16)


@pytest.fixture(scope="session")
def small_ring(small_params) -> RingContext:
    return RingContext(small_params)


@pytest.fixture(scope="session")
def small_keys(small_ring) -> KeyGenerator:
    return KeyGenerator(small_ring, seed=1234)


@pytest.fixture(scope="session")
def small_evaluator(small_ring, small_keys) -> Evaluator:
    return Evaluator(
        small_ring,
        relin_key=small_keys.gen_relinearization_key(),
        rotation_keys={r: small_keys.gen_rotation_key(r)
                       for r in (1, 2, 3, 4, 8, 16)},
        conjugation_key=small_keys.gen_conjugation_key(),
    )


@pytest.fixture(scope="session")
def small_encoder(small_ring) -> Encoder:
    return Encoder(small_ring)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)


@contextlib.contextmanager
def forced_backend(name: str):
    """Run the ``with`` body under one modmath backend, then restore.

    Forces the backend via :func:`repro.ckks.modmath.set_backend` —
    which overrides ``REPRO_MODMATH_BACKEND``.  Loop it over
    ``modmath.available_backends()`` where one test id must cover both
    backends (hypothesis tests cannot take a function-scoped fixture).
    """
    from repro.ckks import modmath

    modmath.set_backend(name)
    try:
        yield name
    finally:
        modmath.set_backend(None)


@pytest.fixture(params=["numpy", "native"])
def each_backend(request) -> str:
    """Run the test once per modmath backend (skips native if unbuilt),
    so a single pytest run exercises both dispatch paths regardless of
    the environment."""
    from repro.ckks import modmath

    name = request.param
    if name not in modmath.available_backends():
        pytest.skip(f"{name} modmath backend unavailable")
    with forced_backend(name):
        yield name


def encrypt_message(keys: KeyGenerator, encoder: Encoder,
                    message: np.ndarray, scale: float = 2.0 ** 40):
    """Helper: symmetric encryption of a complex message vector."""
    pt = encoder.encode(message, scale)
    return keys.encrypt_symmetric(pt.poly, scale, len(message))


@pytest.fixture(scope="session")
def paper_instances() -> tuple[CkksParams, ...]:
    return CkksParams.paper_instances()
