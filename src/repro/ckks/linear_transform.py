"""Homomorphic linear transforms via baby-step/giant-step (BSGS).

Bootstrapping's CoeffToSlot and SlotToCoeff are (dense) n x n matrix-vector
products over the slot space.  Evaluating them homomorphically uses the
diagonal decomposition ``M z = sum_d diag_d(M) * rot_d(z)`` with the BSGS
grouping of [Halevi-Shoup / GAZELLE]: about ``2*sqrt(n)`` HRots and ``n``
PMults per matrix, consuming a single multiplicative level.  This is the
"long sequence of HRots with different r" that makes bootstrapping stream
dozens of distinct rotation evks (Section 3.3 of the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ckks.cipher import Ciphertext
from repro.ckks.evaluator import Evaluator
from repro.ckks.keyswitch import (
    galois_raised,
    key_switch_accumulate,
    mod_down,
    p_scaled_extension,
    raise_decomposition,
)

_ZERO_TOL = 1e-12


def matrix_diagonals(matrix: np.ndarray) -> dict[int, np.ndarray]:
    """Generalized diagonals ``diag_d[j] = M[j, (j+d) mod n]`` (nonzero only)."""
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    out: dict[int, np.ndarray] = {}
    rows = np.arange(n)
    for d in range(n):
        diag = matrix[rows, (rows + d) % n]
        if np.max(np.abs(diag)) > _ZERO_TOL:
            out[d] = diag
    return out


def bsgs_split(n: int) -> int:
    """Baby-step count: the power of two nearest to sqrt(n) from above."""
    return 1 << math.ceil(math.log2(max(1.0, math.sqrt(n))))


def bsgs_rotations(diagonals: dict[int, np.ndarray] | int, n: int
                   ) -> set[int]:
    """Rotation amounts a BSGS evaluation of these diagonals will need."""
    g = bsgs_split(n)
    if isinstance(diagonals, int):
        present = set(range(diagonals))
    else:
        present = set(diagonals)
    amounts: set[int] = set()
    for d in present:
        baby = d % g
        giant = d - baby
        if baby:
            amounts.add(baby)
        if giant:
            amounts.add(giant % n)
    return {a for a in amounts if a % n != 0}


@dataclass
class LinearTransform:
    """A plaintext matrix ready for homomorphic application.

    Encoded diagonal plaintexts are cached per ``(diagonal, giant,
    base, scale)`` — CoeffToSlot/SlotToCoeff apply the same matrices at
    the same level on every bootstrap invocation, so steady-state
    applications skip the encode (FFT + RNS spread + forward NTT) for
    every diagonal.
    """

    diagonals: dict[int, np.ndarray]
    n_slots: int
    _encoded: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "LinearTransform":
        return cls(matrix_diagonals(matrix), matrix.shape[0])

    def required_rotations(self) -> set[int]:
        return bsgs_rotations(self.diagonals, self.n_slots)

    #: Distinct (base, scale) generations the diagonal cache retains.
    #: CoeffToSlot/SlotToCoeff apply at one fixed level; a caller
    #: sweeping levels evicts the oldest generation instead of growing
    #: unboundedly.
    _CACHE_GENERATIONS = 4

    def _encoded_diagonal(self, evaluator: Evaluator, d: int, giant: int,
                          base, scale: float):
        """Cached encode of ``roll(diag_d, giant)`` over ``base``."""
        gen_key = (tuple(p.value for p in base), scale)
        generation = self._encoded.get(gen_key)
        if generation is None:
            if len(self._encoded) >= self._CACHE_GENERATIONS:
                self._encoded.pop(next(iter(self._encoded)))
            generation = self._encoded[gen_key] = {}
        cached = generation.get((d, giant))
        if cached is None:
            vec = np.roll(self.diagonals[d], giant)
            cached = evaluator.encoder.encode(vec, scale, base=base)
            generation[(d, giant)] = cached
        return cached

    def apply(self, evaluator: Evaluator, ct: Ciphertext) -> Ciphertext:
        """Homomorphic ``M z`` (one level consumed; output rescaled).

        Runs the Lattigo-style double-hoisted BSGS: the baby-step
        rotations share one NTT-domain raise of ``ct.a`` *and* stay in
        the extended base ``C_level + B`` without ModDown.  Baby steps
        are kept as ``(P*phi_b(ct.b) - ks_b, ks_a)`` pairs — the
        key-switch accumulators *before* ModDown — shared across every
        giant group; each group multiplies them by its pre-rotated
        plaintext diagonals (encoded over ``C_level + B``), accumulates,
        and ModDowns the group sum once.  An n1 x n2 plan therefore
        performs ``n2`` inner-sum ModDowns instead of ``n1`` baby
        ModDowns, and the ModDown's BConv approximation enters once per
        group instead of once per baby; the eager route
        (``tests/oracles/bsgs.py``) agrees to well below the noise
        floor.
        """
        n = self.n_slots
        if ct.n_slots != n:
            raise ValueError(
                f"transform is {n}-slot but ciphertext has {ct.n_slots}")
        g = bsgs_split(n)
        # Giant steps: group diagonals by their giant offset.
        groups: dict[int, list[int]] = {}
        for d in self.diagonals:
            groups.setdefault(d - d % g, []).append(d)
        if not groups:
            raise ValueError("transform has no nonzero diagonals")
        ring = evaluator.ring
        level = ct.level
        pmult_scale = float(ring.q_primes[level].value)
        raised = raise_decomposition(ct.a, level, ring)
        lazy: dict[int, tuple] = {}
        for baby in sorted({d % g for d in self.diagonals}):
            if baby == 0:
                # The un-rotated term needs no key-switch: P-scale both
                # halves so they mix with the accumulators (and ModDown
                # recovers them exactly — the special rows are zero).
                lazy[0] = (p_scaled_extension(ct.b, level, ring),
                           p_scaled_extension(ct.a, level, ring).neg())
                continue
            if baby not in evaluator.rotation_keys:
                raise ValueError(f"no rotation key for amount {baby}")
            galois_elt = pow(5, baby, 2 * ring.n)
            ks_b, ks_a = key_switch_accumulate(
                galois_raised(raised, galois_elt),
                evaluator.rotation_keys[baby], level, ring)
            b_qp = p_scaled_extension(ct.b.galois(galois_elt), level, ring)
            lazy[baby] = (b_qp.sub(ks_b), ks_a)
        base_qp = ring.base_qp(level)
        acc: Ciphertext | None = None
        for giant in sorted(groups):
            acc_b = acc_a = None
            for d in groups[giant]:
                # Pre-rotate the plaintext diagonal so one giant HRot at
                # the end covers the whole group: rot_{giant}(x *
                # rot_b(z)) == diag_d * rot_d(z) when x = roll(diag_d,
                # giant).
                pt = self._encoded_diagonal(evaluator, d, giant, base_qp,
                                            pmult_scale)
                lazy_b, lazy_a = lazy[d % g]
                term_b = lazy_b.mul(pt.poly)
                term_a = lazy_a.mul(pt.poly)
                acc_b = term_b if acc_b is None else acc_b.add(term_b)
                acc_a = term_a if acc_a is None else acc_a.add(term_a)
            inner_b, inner_a = mod_down([acc_b, acc_a], level, ring)
            # Sign convention: lazy pairs store (b-half, ks_a); the
            # ciphertext's a-half is -ks_a, folded here after ModDown.
            inner = Ciphertext(inner_b, inner_a.neg(),
                               ct.scale * pmult_scale, ct.n_slots)
            if giant % n:
                inner = evaluator.rotate(inner, giant % n)
            acc = inner if acc is None else evaluator.add(acc, inner)
        return evaluator.rescale(acc)


def apply_matrix_pair(evaluator: Evaluator, ct: Ciphertext,
                      left: LinearTransform, conj: LinearTransform
                      ) -> Ciphertext:
    """Evaluate ``A z + B conj(z)`` (the shape of CoeffToSlot/SlotToCoeff)."""
    ct_conj = evaluator.conjugate(ct)
    return evaluator.add(left.apply(evaluator, ct),
                         conj.apply(evaluator, ct_conj))
