"""Coefficient-domain galois oracles.

Production applies every automorphism in the NTT domain: an
evaluation-point gather on ``ct.b`` and on the raised decomposition
slices (:func:`repro.ckks.keyswitch.raise_decomposition` +
:func:`~repro.ckks.keyswitch.galois_raised`).  The routes here permute
in the coefficient domain instead and transform afterwards.  Both are
bit-identical (a gather after the forward transform equals a transform
after the coefficient permute), which the permutation-oracle and
hoisting tiers assert.
"""

from __future__ import annotations

from repro.ckks.cipher import Ciphertext
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import EvaluationKey
from repro.ckks.keyswitch import _assemble_raised, key_switch_raised
from repro.ckks.params import RingContext
from repro.ckks.rns import RnsPolynomial, StackedTransform, base_convert


def galois_coeff(poly: RnsPolynomial, galois_elt: int) -> RnsPolynomial:
    """``X -> X^galois_elt`` through iNTT -> coefficient permute -> NTT."""
    if not poly.is_ntt:
        return poly.galois(galois_elt)
    return poly.from_ntt().galois(galois_elt).to_ntt()


def hoist_decomposition(poly: RnsPolynomial, level: int, ring: RingContext
                        ) -> tuple[tuple[RnsPolynomial, RnsPolynomial], ...]:
    """The rotation-independent half of a coefficient-domain hoist.

    Runs one shared iNTT of ``poly`` and the per-slice BConv of ModUp,
    but stops *before* the forward transform: the returned
    ``(own_coeff, converted_coeff)`` pairs stay in the coefficient
    domain, where the automorphism is a permutation.
    :func:`raise_hoisted` finishes the raise for one galois element.
    (Applying the automorphism *after* ModUp flips the slice
    representative from ``[g(a)]_{Q_j}`` to ``-[a]_{Q_j}`` permuted; the
    two differ by a multiple of ``Q_j``, which the evk gadget absorbs up
    to noise, the same guarantee as classic hoisting.)
    """
    if not poly.is_ntt:
        raise ValueError("hoist_decomposition expects an NTT polynomial")
    coeff = poly.from_ntt()
    parts = []
    for slice_base, complement, _, _ in ring.mod_up_plan(level):
        own = coeff.restrict(slice_base)
        parts.append((own, base_convert(own, complement)))
    return tuple(parts)


def raise_hoisted(parts: tuple[tuple[RnsPolynomial, RnsPolynomial], ...],
                  galois_elt: int, level: int, ring: RingContext
                  ) -> list[RnsPolynomial]:
    """Permute hoisted slices by ``X -> X^galois_elt`` and NTT them.

    Applies the automorphism to every own/converted coefficient block of
    :func:`hoist_decomposition` and runs one stacked forward transform
    over all of them.  The result feeds
    :func:`~repro.ckks.keyswitch.key_switch_raised` unchanged.
    """
    rotated: list[RnsPolynomial] = []
    for own, converted in parts:
        rotated.append(own.galois(galois_elt))
        rotated.append(converted.galois(galois_elt))
    ntts = StackedTransform.forward(rotated)
    target_base = ring.base_qp(level)
    return [
        _assemble_raised(target_base, ntts[2 * i], ntts[2 * i + 1],
                         own_rows, conv_rows)
        for i, (_, _, own_rows, conv_rows)
        in enumerate(ring.mod_up_plan(level))
    ]


def galois_from_hoisted(ct: Ciphertext, b_coeff: RnsPolynomial, hoisted,
                        galois_elt: int, evk: EvaluationKey,
                        ring: RingContext) -> Ciphertext:
    """One galois op finished from a coefficient-domain hoist."""
    raised = raise_hoisted(hoisted, galois_elt, ct.level, ring)
    ks_b, ks_a = key_switch_raised(raised, evk, ct.level, ring)
    b_rot = b_coeff.galois(galois_elt).to_ntt()
    return Ciphertext(b_rot.sub(ks_b), ks_a.neg(), ct.scale, ct.n_slots)


def rotate_hoisted_coeff(evaluator: Evaluator, ct: Ciphertext,
                         amounts: list[int]) -> dict[int, Ciphertext]:
    """Many rotations of ``ct`` sharing one coefficient-domain hoist.

    The reference for :meth:`~repro.ckks.evaluator.Evaluator
    .galois_hoisted`: the iNTT and every ModUp BConv run once, each
    rotation pays its own stacked forward transform.
    """
    ring = evaluator.ring
    hoisted = hoist_decomposition(ct.a, ct.level, ring)
    b_coeff = ct.b.from_ntt()
    out: dict[int, Ciphertext] = {}
    for amount in sorted({a % ct.n_slots for a in amounts}):
        if amount == 0:
            out[0] = ct.clone()
            continue
        if amount not in evaluator.rotation_keys:
            raise ValueError(f"no rotation key for amount {amount}")
        out[amount] = galois_from_hoisted(
            ct, b_coeff, hoisted, pow(5, amount, 2 * ring.n),
            evaluator.rotation_keys[amount], ring)
    return out
